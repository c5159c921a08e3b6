#!/bin/sh
# End-to-end wire check over the real CLI binary: build → export →
# serve → push → pull on loopback, then compare the materialized image
# digests on both sides and audit the two layouts blob by blob. This
# is the cross-process version of the W-wire gate — same protocol, but
# through `zr-image` subprocesses and an OS-assigned port instead of
# in-process handles.
set -eu

ZR=${ZR:-target/release/zr-image}
if [ ! -x "$ZR" ]; then
    echo "error: $ZR not built (run: cargo build --release -p zr-cli)" >&2
    exit 1
fi

WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# 1. Build an image and export it to an OCI layout.
printf 'FROM alpine:3.19\nRUN apk add sl\n' > "$WORK/Dockerfile"
"$ZR" export --output "$WORK/layout" -t wire-e2e --force=seccomp -f "$WORK/Dockerfile"

# 2. Serve a fresh store on an OS-assigned loopback port; the bound
#    address is the server's single stdout line.
"$ZR" serve --cache-dir "$WORK/registry" --addr 127.0.0.1:0 > "$WORK/addr" &
SERVER_PID=$!
tries=0
until [ -s "$WORK/addr" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 50 ]; then
        echo "error: server never printed its address" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(head -n 1 "$WORK/addr")
echo "wire-e2e: endpoint on $ADDR"

# 3. Push the layout, pull it back into a second layout.
"$ZR" push --registry "$ADDR" "$WORK/layout" wire-e2e:latest
"$ZR" pull --registry "$ADDR" wire-e2e:latest "$WORK/pulled"

# 4. The materialized digests must match byte for byte.
exported=$("$ZR" import "$WORK/layout" | sed -n 's/^image digest: //p')
pulled=$("$ZR" import "$WORK/pulled" | sed -n 's/^image digest: //p')
if [ -z "$exported" ] || [ "$exported" != "$pulled" ]; then
    echo "error: digest mismatch: exported=$exported pulled=$pulled" >&2
    exit 1
fi
echo "wire-e2e: push/pull round-trip digest-identical ($exported)"

# 5. The pulled layout must be the exported one blob for blob: the
#    audit differ reads every blob of both layouts through the one
#    verifying layout reader and exits 2 on any divergence.
"$ZR" audit --layouts "$WORK/layout" "$WORK/pulled" --expect-clean
echo "wire-e2e: pulled layout audits clean against the exported one"
