#!/bin/sh
# Probabilistic fault soak over the real CLI binary: seeded random
# ZR_FAULT plans (worker panics and stalls, submit poison and stalls,
# store write errors and commit crashes, registry pull errors) against
# build-many batches on the scheduler's resident worker pool, each
# round persisting its layers into a fresh copy of a --cache-dir store.
# Tight --cache-limit and --blob-limit budgets make every round evict
# from both in-memory caches (the layer store and the registry's
# pull-through blob cache) while the faults fire.
#
# The gate is liveness, not success: builds are *allowed* to fail under
# injected faults, but the process must never hang (a timeout kills it)
# and every submitted build must reach a terminal status line. Because
# the fault plane is seeded, any failing night replays exactly from the
# SOAK_SEED printed in the log.
set -eu

ZR=${ZR:-target/release/zr-image}
if [ ! -x "$ZR" ]; then
    echo "error: $ZR not built (run: cargo build --release -p zr-cli)" >&2
    exit 1
fi

# One base seed per night by default (replayable: rerun with the
# printed SOAK_SEED to reproduce the exact fault schedule).
SEED=${SOAK_SEED:-}
[ -n "$SEED" ] || SEED=$(date -u +%Y%m%d)
ROUNDS=${SOAK_ROUNDS:-8}
TIMEOUT=${SOAK_TIMEOUT:-180}
echo "fault-soak: SOAK_SEED=$SEED ROUNDS=$ROUNDS"

WORK=$(mktemp -d)
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT INT TERM

# Three batch members: a multi-stage diamond (exercises the DAG and
# work stealing), and two single-stage builds.
cat > "$WORK/diamond.df" <<'EOF'
FROM alpine:3.19 AS base
RUN echo shared > /shared
FROM base AS left
RUN apk add sl && echo l > /left
FROM base AS right
RUN apk add fakeroot && echo r > /right
FROM alpine:3.19
COPY --from=left /left /left
COPY --from=right /right /right
EOF
printf 'FROM centos:7\nRUN yum install -y openssh\n' > "$WORK/yum.df"
printf 'FROM debian:12\nRUN apt-get install -y hello\n' > "$WORK/apt.df"
BATCH="$WORK/diamond.df $WORK/yum.df $WORK/apt.df"
EXPECTED=3

# The store every round starts from, initialized by one fault-free
# build of a Dockerfile outside the batch: the store's `format` file is
# then already in place, so the plan's store faults land on the
# batch's layer persists.
printf 'FROM alpine:3.19\nRUN echo seed > /seed\n' > "$WORK/seed.df"
if ! ZR_FAULT= "$ZR" build --cache-dir "$WORK/store" -f "$WORK/seed.df" > "$WORK/seed.log" 2>&1; then
    echo "error: the fault-free store seed build failed" >&2
    tail -40 "$WORK/seed.log" >&2
    exit 1
fi

round=1
while [ "$round" -le "$ROUNDS" ]; do
    # The sched.daemon.submit.* points fire on every scheduler submit
    # (the names predate the resident pool; saved plans still replay).
    PLAN="seed=$((SEED + round));\
sched.stage.panic=p0.05;\
sched.stage.stall=p0.08:20;\
sched.daemon.submit.poison=p0.25;\
sched.daemon.submit.stall=p0.25:15;\
store.write.err=p0.03;\
store.commit.crash=p0.02;\
registry.pull.err=p0.03"
    echo "fault-soak: round $round/$ROUNDS ZR_FAULT=\"$PLAN\""

    OUT="$WORK/round-$round.log"
    STORE="$WORK/store-$round"
    cp -R "$WORK/store" "$STORE"
    set +e
    ZR_FAULT="$PLAN" timeout "$TIMEOUT" \
        "$ZR" build-many --jobs 4 --cache-stats --cache-dir "$STORE" \
        --cache-limit 65536 --blob-limit 1 $BATCH > "$OUT" 2>&1
    rc=$?
    set -e
    # 0 (all ok) and 1 (some builds failed under faults) are both
    # acceptable outcomes; anything else is a hang (124) or a crash.
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
        echo "error: round $round: exit $rc (hang or crash)" >&2
        tail -40 "$OUT" >&2
        exit 1
    fi
    # Liveness: every submitted build reached a terminal status.
    terminal=$(grep -c '] status: ' "$OUT" || true)
    if [ "$terminal" -ne "$EXPECTED" ]; then
        echo "error: round $round: $terminal/$EXPECTED builds terminal" >&2
        tail -40 "$OUT" >&2
        exit 1
    fi
    grep -E '^\[(sched|fault|store|cache|registry)\]' "$OUT" || true
    round=$((round + 1))
done
echo "fault-soak: $ROUNDS rounds survived (no hang, every build terminal)"
