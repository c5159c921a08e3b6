//! Stage-DAG scheduling: determinism, agreement with the serial
//! builder, stage overlap, cancellation across the DAG, work stealing,
//! and the resident pool.

use std::time::Duration;

use zeroroot_core::Mode;
use zr_build::{BuildError, BuildOptions, BuildResult, Builder};
use zr_image::PullCost;
use zr_kernel::Kernel;
use zr_sched::{
    BatchHandle, BuildReport, BuildRequest, BuildStatus, LogEvent, Scheduler, SchedulerConfig,
};

/// The canonical diamond: two independent middle stages off one base,
/// joined by `COPY --from=`. The middle stages install packages under
/// seccomp, so they are heavy enough to measurably overlap.
const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
                       FROM base AS left\nRUN apk add sl && echo l > /left\n\
                       FROM base AS right\nRUN apk add fakeroot && echo r > /right\n\
                       FROM alpine:3.19\n\
                       COPY --from=left /left /left\n\
                       COPY --from=right /right /right\n\
                       COPY --from=base /shared /shared\n";

fn diamond_request(id: &str) -> BuildRequest {
    BuildRequest::with_options(id, DIAMOND, BuildOptions::new(id, Mode::Seccomp))
}

fn scheduler(jobs: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        jobs,
        ..SchedulerConfig::default()
    })
}

fn terminal(s: &BuildStatus) -> bool {
    matches!(
        s,
        BuildStatus::Done | BuildStatus::Failed | BuildStatus::Cancelled
    )
}

/// Poll the handle until every build is terminal, tracking the peak
/// concurrency gauge and the steal counter, then wait for the reports.
fn wait_tracking(handle: BatchHandle, peak: &mut usize, steals: &mut usize) -> Vec<BuildReport> {
    loop {
        *peak = (*peak).max(handle.peak_concurrency());
        *steals = (*steals).max(handle.steals());
        if handle.statuses().iter().all(terminal) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    *peak = (*peak).max(handle.peak_concurrency());
    *steals = (*steals).max(handle.steals());
    handle.wait()
}

#[test]
fn diamond_parallel_digest_and_log_match_serial() {
    let serial = scheduler(1).build_many(vec![diamond_request("d")]);
    let parallel = scheduler(8).build_many(vec![diamond_request("d")]);
    let s = &serial[0];
    let p = &parallel[0];
    assert_eq!(s.status, BuildStatus::Done, "{}", s.result.log_text());
    assert_eq!(p.status, BuildStatus::Done, "{}", p.result.log_text());
    assert_eq!(
        s.result.image.as_ref().unwrap().digest(),
        p.result.image.as_ref().unwrap().digest(),
        "digest must not depend on jobs"
    );
    // The assembled log is byte-identical too: stage banners come in
    // plan order whatever order the workers finished in.
    assert_eq!(s.result.log_text(), p.result.log_text());
    assert!(s.result.log_text().contains("=== stage left (2/4) ==="));
}

#[test]
fn diamond_overlaps_independent_stages() {
    // left and right are released together once base lands; with
    // enough workers they must run concurrently at least once in a
    // few cold attempts (each attempt uses a fresh scheduler so the
    // stages actually execute rather than replay).
    let mut peak = 0;
    for _ in 0..5 {
        let sched = scheduler(8);
        let handle = sched.submit(vec![diamond_request("d")]);
        let mut steals = 0;
        let reports = wait_tracking(handle, &mut peak, &mut steals);
        assert_eq!(reports[0].status, BuildStatus::Done);
        if peak >= 2 {
            break;
        }
    }
    assert!(peak >= 2, "independent stages never overlapped: {peak}");
}

#[test]
fn dag_warm_rebuild_replays_everything() {
    let sched = scheduler(4);
    let cold = sched.build_many(vec![diamond_request("d")]);
    assert_eq!(
        cold[0].status,
        BuildStatus::Done,
        "{}",
        cold[0].result.log_text()
    );
    assert_eq!(cold[0].result.cache.hits, 0, "cold build executes");
    let warm = sched.build_many(vec![diamond_request("d")]);
    assert_eq!(
        warm[0].result.cache.misses,
        0,
        "{}",
        warm[0].result.log_text()
    );
    assert_eq!(
        cold[0].result.image.as_ref().unwrap().digest(),
        warm[0].result.image.as_ref().unwrap().digest()
    );
}

#[test]
fn cancel_cancels_queued_descendant_stages() {
    // One worker and modeled pull latency: the cancel lands while the
    // base stage is still pulling, so the dependent stages — released
    // only on completion — must never run.
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        pull_cost: PullCost {
            round_trip: Duration::from_millis(30),
            fetch: Duration::from_millis(30),
        },
        ..SchedulerConfig::default()
    });
    let handle = sched.submit(vec![diamond_request("d")]);
    handle.cancel();
    let reports = handle.wait();
    assert_eq!(reports[0].status, BuildStatus::Cancelled);
    assert_eq!(
        reports[0].result.error,
        Some(zr_build::BuildError::Cancelled)
    );
    let log = reports[0].result.log_text();
    assert!(
        !log.contains("=== stage left") && !log.contains("=== stage right"),
        "descendant stages must not have started:\n{log}"
    );
}

#[test]
fn fail_fast_stops_releasing_stages_and_cancels_neighbors() {
    // Build 0 (high priority, single worker → runs first) fails in its
    // base stage: its own dependent stage must never be released, and
    // fail_fast must cancel the still-queued neighbor build.
    let failing = "FROM alpine:3.19 AS base\nRUN exit 1\n\
                   FROM alpine:3.19\nCOPY --from=base /nope /nope\n";
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        fail_fast: true,
        ..SchedulerConfig::default()
    });
    let bad = BuildRequest::new("bad", failing).high_priority();
    let reports = sched.build_many(vec![bad, diamond_request("ok")]);
    assert_eq!(reports[0].status, BuildStatus::Failed);
    assert!(
        matches!(
            reports[0].result.error,
            Some(zr_build::BuildError::RunFailed { status: 1, .. })
        ),
        "{:?}",
        reports[0].result.error
    );
    let log = reports[0].result.log_text();
    assert!(log.contains("=== stage base"), "{log}");
    assert_eq!(
        log.matches("=== stage ").count(),
        1,
        "failed stage must not release its dependent:\n{log}"
    );
    assert_eq!(reports[1].status, BuildStatus::Cancelled);
    assert!(reports[1].seq.is_none());
}

#[test]
fn failing_stage_lets_finished_sibling_keep_stable_layers() {
    // `right` is declared before `left`, so the single worker builds
    // it first; `left` then fails the build. The sibling's layers must
    // survive: a --target=right build afterwards replays fully warm
    // and digests identically to one from a fresh scheduler.
    let df = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
              FROM base AS right\nRUN echo r > /right\n\
              FROM base AS left\nRUN exit 1\n\
              FROM alpine:3.19\n\
              COPY --from=right /right /right\n\
              COPY --from=left /shared /shared\n";
    let sched = scheduler(1);
    let failed = sched.build_many(vec![BuildRequest::new("d", df)]);
    assert_eq!(failed[0].status, BuildStatus::Failed);
    let log = failed[0].result.log_text();
    assert!(log.contains("=== stage right"), "{log}");

    let right_only = || {
        let mut opts = BuildOptions::new("right-only", Mode::None);
        opts.target = Some("right".into());
        BuildRequest::with_options("right-only", df, opts)
    };
    let warm = sched.build_many(vec![right_only()]);
    assert_eq!(
        warm[0].status,
        BuildStatus::Done,
        "{}",
        warm[0].result.log_text()
    );
    assert_eq!(
        warm[0].result.cache.misses,
        0,
        "sibling layers replay warm: {}",
        warm[0].result.log_text()
    );

    let fresh = scheduler(1).build_many(vec![right_only()]);
    assert_eq!(
        warm[0].result.image.as_ref().unwrap().digest(),
        fresh[0].result.image.as_ref().unwrap().digest(),
        "sibling digest is stable across the failed run"
    );
}

#[test]
fn cancel_build_leaves_the_rest_of_the_batch_alone() {
    // Single worker: build 0 occupies it; build 1's root stage is
    // still queued when we cancel just that build.
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        pull_cost: PullCost {
            round_trip: Duration::from_millis(20),
            fetch: Duration::from_millis(20),
        },
        ..SchedulerConfig::default()
    });
    let handle = sched.submit(vec![diamond_request("keep"), diamond_request("drop")]);
    handle.cancel_build(1);
    let reports = handle.wait();
    assert_eq!(
        reports[0].status,
        BuildStatus::Done,
        "{}",
        reports[0].result.log_text()
    );
    assert_eq!(reports[1].status, BuildStatus::Cancelled);
    assert_eq!(
        reports[1].result.error,
        Some(zr_build::BuildError::Cancelled)
    );
    assert!(reports[1].seq.is_none());
}

#[test]
fn lone_worker_steals_across_priority_classes() {
    // One worker, mixed classes: after draining its own (high) queue
    // it must steal the normal work rather than park, and the handle
    // counts those cross-class pops.
    let requests = vec![
        BuildRequest::new("n0", "FROM alpine:3.19\nRUN true\n"),
        BuildRequest::new("n1", "FROM alpine:3.19\nRUN true\n"),
        BuildRequest::new("urgent", "FROM alpine:3.19\nRUN true\n").high_priority(),
    ];
    let sched = scheduler(1);
    let handle = sched.submit(requests);
    let (mut peak, mut steals) = (0, 0);
    let reports = wait_tracking(handle, &mut peak, &mut steals);
    assert_eq!(reports[2].seq, Some(0), "high priority still first");
    assert!(steals >= 2, "both normal builds were stolen, saw {steals}");
    assert!(reports.iter().all(|r| r.status == BuildStatus::Done));
}

#[test]
fn uniform_class_batches_never_steal() {
    let sched = scheduler(4);
    let handle = sched.submit(vec![diamond_request("a"), diamond_request("b")]);
    let (mut peak, mut steals) = (0, 0);
    let reports = wait_tracking(handle, &mut peak, &mut steals);
    assert!(reports.iter().all(|r| r.status == BuildStatus::Done));
    assert_eq!(steals, 0, "all-normal batches have nothing to steal");
}

#[test]
fn daemon_pool_persists_caches_across_batches() {
    let sched = scheduler(2);
    let first = sched.build_many(vec![diamond_request("a")]);
    assert_eq!(
        first[0].status,
        BuildStatus::Done,
        "{}",
        first[0].result.log_text()
    );
    assert_eq!(first[0].result.cache.hits, 0);
    // Second batch, same resident pool: everything replays from the
    // shared layer store the first batch kept warm.
    let second = sched.build_many(vec![diamond_request("b")]);
    assert_eq!(second[0].status, BuildStatus::Done);
    assert_eq!(
        second[0].result.cache.misses,
        0,
        "{}",
        second[0].result.log_text()
    );
}

#[test]
fn daemon_streams_per_stage_logs() {
    let sched = scheduler(2);
    let handle = sched.submit(vec![diamond_request("d")]);
    let rx = handle.subscribe(0);
    let mut stages = Vec::new();
    let mut done = None;
    // Late subscription replays anything already streamed, so this
    // loop always sees the complete history ending in Done.
    for event in rx.iter() {
        match event {
            LogEvent::Stage { stage, lines, .. } => {
                assert!(!lines.is_empty(), "stage {stage} streamed an empty chunk");
                stages.push(stage);
            }
            LogEvent::Done { status, .. } => {
                done = Some(status);
                break;
            }
        }
    }
    assert_eq!(done, Some(BuildStatus::Done));
    for expected in ["base", "left", "right"] {
        assert!(
            stages.iter().any(|s| s == expected),
            "missing stage chunk {expected}: {stages:?}"
        );
    }
    let reports = handle.wait();
    assert_eq!(reports[0].status, BuildStatus::Done);
}

/// Figure 2: the paper's single-stage build.
const FIG2: &str = "FROM centos:7\nRUN yum install -y openssh\n";

/// A single retained stage behind a stage nothing references.
const PRUNED: &str = "FROM alpine:3.19 AS unused\nRUN echo u > /u\n\
                      FROM centos:7\nRUN yum install -y openssh\n";

#[test]
fn scheduler_and_serial_builder_agree_on_every_shape() {
    // name, Dockerfile, --force mode, --target, a log excerpt that
    // shows the shape is what it claims to be
    let shapes = [
        ("single-stage", FIG2, Mode::Seccomp, None, "Complete!"),
        (
            "pruned",
            PRUNED,
            Mode::Seccomp,
            None,
            "skipping unused stage: unused\n=== stage 1 (1/1) ===",
        ),
        (
            "diamond",
            DIAMOND,
            Mode::Seccomp,
            None,
            "=== stage left (2/4) ===",
        ),
        (
            "target",
            DIAMOND,
            Mode::Seccomp,
            Some("left"),
            "grown in 4 instructions",
        ),
        (
            "parse-error",
            "FROM alpine:3.19 AS base\nCOPY --from=base /x /y\n",
            Mode::Seccomp,
            None,
            "refers to its own stage",
        ),
        (
            "missing-from",
            "ARG A=1\n",
            Mode::Seccomp,
            None,
            "build before FROM",
        ),
        (
            "unknown-target",
            DIAMOND,
            Mode::Seccomp,
            Some("ghost"),
            "unknown build target",
        ),
        ("failing-run", FIG2, Mode::None, None, "cpio: chown"),
    ];
    let digest = |r: &BuildResult| r.image.as_ref().map(|image| image.digest());
    for (name, dockerfile, mode, target, excerpt) in shapes {
        let mut options = BuildOptions::new(name, mode);
        options.target = target.map(str::to_string);
        let serial = Builder::new().build(&mut Kernel::default_kernel(), dockerfile, &options);
        assert!(
            serial.log_text().contains(excerpt),
            "{name}:\n{}",
            serial.log_text()
        );
        let report = scheduler(2)
            .build_many(vec![BuildRequest::with_options(name, dockerfile, options)])
            .remove(0);
        let want = if serial.success {
            BuildStatus::Done
        } else {
            BuildStatus::Failed
        };
        assert_eq!(report.status, want, "{name}:\n{}", report.result.log_text());
        let scheduled = &report.result;
        assert_eq!(scheduled.log, serial.log, "{name}: log");
        assert_eq!(scheduled.error, serial.error, "{name}: error");
        assert_eq!(scheduled.cache, serial.cache, "{name}: cache");
        assert_eq!(digest(scheduled), digest(&serial), "{name}: image digest");
    }
}

#[test]
fn a_plan_error_under_fail_fast_cancels_the_rest_of_its_batch() {
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 2,
        fail_fast: true,
        ..SchedulerConfig::default()
    });
    let mut bad = BuildRequest::new("bad", DIAMOND);
    bad.options.target = Some("ghost".into());
    let reports = sched.build_many(vec![diamond_request("a"), bad, diamond_request("b")]);
    assert_eq!(reports[1].status, BuildStatus::Failed);
    assert!(
        matches!(reports[1].result.error, Some(BuildError::Plan(_))),
        "{:?}",
        reports[1].result.error
    );
    assert_eq!(reports[1].seq, Some(0), "a plan error ends at submit");
    for r in [&reports[0], &reports[2]] {
        assert_eq!(r.status, BuildStatus::Cancelled, "{}", r.result.log_text());
        assert_eq!(r.result.error, Some(BuildError::Cancelled));
        assert!(r.seq.is_none());
    }
}
