//! Scheduler determinism, isolation, and cancellation.
//!
//! The load-bearing claim: concurrency is an implementation detail —
//! the same batch built serially and with 8 workers produces identical
//! image digests, and a failing (or cancelled) build never poisons its
//! neighbors.

use std::time::Duration;

use zeroroot_core::Mode;
use zr_build::BuildOptions;
use zr_image::PullCost;
use zr_sched::{BuildRequest, BuildStatus, Scheduler, SchedulerConfig};

/// A request building under `--force=seccomp` (the paper's setting —
/// package managers chown, so `Mode::None` fails by design).
fn seccomp_request(id: &str, dockerfile: &str) -> BuildRequest {
    BuildRequest::with_options(id, dockerfile, BuildOptions::new(id, Mode::Seccomp))
}

/// Eight distinct Dockerfiles over the catalog's bases: different
/// bases, different RUN chains, some context-free COPY-less variety.
fn distinct_batch() -> Vec<BuildRequest> {
    let dockerfiles = [
        "FROM alpine:3.19\nRUN apk add sl\n",
        "FROM centos:7\nRUN yum install -y openssh\n",
        "FROM debian:12\nRUN apt-get install -y hello\n",
        "FROM fedora:40\nRUN yum install -y openssh\n",
        "FROM alpine:3.19\nENV W=1\nRUN echo $W > /w && apk add fakeroot\n",
        "FROM centos:7\nWORKDIR /srv\nRUN echo centos > marker\n",
        "FROM debian:12\nARG V=2\nRUN echo $V > /v\n",
        "FROM alpine:3.19\nRUN touch /a && touch /b\n",
    ];
    dockerfiles
        .iter()
        .enumerate()
        .map(|(i, df)| seccomp_request(&format!("b{i}"), df))
        .collect()
}

fn scheduler(jobs: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        jobs,
        ..SchedulerConfig::default()
    })
}

#[test]
fn parallel_batch_matches_serial_digests() {
    let serial = scheduler(1).build_many(distinct_batch());
    let parallel = scheduler(8).build_many(distinct_batch());
    assert_eq!(serial.len(), 8);
    assert_eq!(parallel.len(), 8);
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        // Input order is preserved regardless of completion order.
        assert_eq!(s.id, format!("b{i}"));
        assert_eq!(p.id, format!("b{i}"));
        assert_eq!(s.status, BuildStatus::Done, "{}", s.result.log_text());
        assert_eq!(p.status, BuildStatus::Done, "{}", p.result.log_text());
        let sd = s.result.image.as_ref().unwrap().digest();
        let pd = p.result.image.as_ref().unwrap().digest();
        assert_eq!(sd, pd, "digest of build {i} must not depend on jobs");
    }
    // All 8 builds completed, in some order: seqs are a permutation.
    let mut seqs: Vec<usize> = parallel.iter().map(|r| r.seq.unwrap()).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..8).collect::<Vec<_>>());
}

#[test]
fn cross_build_cache_hits_are_visible_and_monotonic() {
    // One Dockerfile, eight tags, one worker: the first build is cold,
    // the other seven replay layers a *different* builder instance
    // snapshotted — the cross-build hit the shared store exists for.
    let df = "FROM alpine:3.19\nRUN apk add sl\n";
    let batch = |round: usize| -> Vec<BuildRequest> {
        (0..8)
            .map(|i| seccomp_request(&format!("r{round}-{i}"), df))
            .collect()
    };
    let sched = scheduler(1);
    let first = sched.build_many(batch(0));
    assert!(first.iter().all(|r| r.result.success));
    assert_eq!(first[0].result.cache.hits, 0, "first build is cold");
    for r in &first[1..] {
        assert_eq!(r.result.cache.misses, 0, "later builds fully replay");
        assert!(r.result.cache.hits > 0, "cross-build hits visible");
    }
    let hits_first: u32 = first.iter().map(|r| r.result.cache.hits).sum();

    // A second batch through the same scheduler: everything replays,
    // and the store's lifetime hit counter only grows.
    let stats_before = sched.layers().stats();
    let second = sched.build_many(batch(1));
    assert!(second.iter().all(|r| r.result.cache.misses == 0));
    let hits_second: u32 = second.iter().map(|r| r.result.cache.hits).sum();
    assert!(
        hits_second >= hits_first,
        "hits are monotone across batches"
    );
    let stats_after = sched.layers().stats();
    assert!(stats_after.hits > stats_before.hits);
    assert_eq!(
        stats_after.layers, stats_before.layers,
        "no duplicate snapshots"
    );
}

#[test]
fn concurrent_identical_builds_do_not_duplicate_pulls() {
    // --no-cache forces every build to actually pull (a cached build
    // replays the FROM and never touches the registry), so this
    // exercises the pull-through blob cache alone.
    let df = "FROM debian:12\nRUN apt-get install -y hello\n";
    let sched = scheduler(8);
    let reports = sched.build_many(
        (0..8)
            .map(|i| {
                let mut r = seccomp_request(&format!("t{i}"), df);
                r.options.cache = zr_build::CacheMode::Disabled;
                r
            })
            .collect(),
    );
    assert!(reports.iter().all(|r| r.result.success));
    let stats = sched.registry().stats();
    assert_eq!(stats.pulls, 8);
    assert_eq!(stats.fetches, 1, "pull-through cache fetched the base once");
    assert_eq!(stats.blob_hits, 7);
}

#[test]
fn failure_is_isolated_to_its_build() {
    let mut requests = distinct_batch();
    requests[3] = BuildRequest::new("bad", "FROM nosuch:1\nRUN true\n");
    let reports = scheduler(4).build_many(requests);
    for (i, r) in reports.iter().enumerate() {
        if i == 3 {
            assert_eq!(r.status, BuildStatus::Failed);
            assert!(!r.result.success);
            assert!(r.result.log_text().contains("cannot pull nosuch:1"));
        } else {
            assert_eq!(r.status, BuildStatus::Done, "{}", r.result.log_text());
            assert!(r.result.image.is_some());
        }
    }
}

#[test]
fn fail_fast_cancels_queued_builds() {
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        fail_fast: true,
        ..SchedulerConfig::default()
    });
    // One worker; the failing build is high priority, so it runs first
    // and the three good builds are still queued when it fails.
    let mut requests = vec![
        BuildRequest::new("ok-0", "FROM alpine:3.19\nRUN true\n"),
        BuildRequest::new("ok-1", "FROM alpine:3.19\nRUN true\n"),
        BuildRequest::new("ok-2", "FROM alpine:3.19\nRUN true\n"),
    ];
    requests.insert(
        0,
        BuildRequest::new("bad", "FROM nosuch:1\n").high_priority(),
    );
    let reports = sched.build_many(requests);
    assert_eq!(reports[0].status, BuildStatus::Failed);
    for r in &reports[1..] {
        assert_eq!(
            r.status,
            BuildStatus::Cancelled,
            "fail_fast cancels the queue"
        );
        assert!(!r.result.success);
        assert_eq!(
            r.result.error,
            Some(zr_build::BuildError::Cancelled),
            "cancelled builds report BuildError::Cancelled"
        );
        assert!(r.seq.is_none());
    }
}

#[test]
fn high_priority_builds_run_first() {
    // One resident worker, and each batch's queue is populated before
    // the worker sees it: the high priority request, though submitted
    // last, completes first — in every batch the pool runs.
    let sched = scheduler(1);
    for _ in 0..2 {
        let requests = vec![
            BuildRequest::new("n0", "FROM alpine:3.19\nRUN true\n"),
            BuildRequest::new("n1", "FROM alpine:3.19\nRUN true\n"),
            BuildRequest::new("urgent", "FROM alpine:3.19\nRUN true\n").high_priority(),
        ];
        let reports = sched.build_many(requests);
        assert_eq!(reports[2].id, "urgent");
        assert_eq!(reports[2].seq, Some(0), "high priority completed first");
        assert_eq!(reports[0].seq, Some(1));
        assert_eq!(reports[1].seq, Some(2));
    }
}

#[test]
fn cancel_before_start_cancels_everything_queued() {
    // Modeled pull latency slows the first build enough that an
    // immediate cancel catches the rest of the single-worker queue.
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        pull_cost: PullCost {
            round_trip: Duration::from_millis(20),
            fetch: Duration::from_millis(20),
        },
        ..SchedulerConfig::default()
    });
    let requests: Vec<BuildRequest> = (0..6)
        .map(|i| BuildRequest::new(&format!("c{i}"), "FROM alpine:3.19\nRUN true\n"))
        .collect();
    let handle = sched.submit(requests);
    handle.cancel();
    let reports = handle.wait();
    let cancelled = reports
        .iter()
        .filter(|r| r.status == BuildStatus::Cancelled)
        .count();
    assert!(cancelled >= 4, "cancel caught at most the in-flight build");
    for r in reports
        .iter()
        .filter(|r| r.status == BuildStatus::Cancelled)
    {
        assert_eq!(r.result.error, Some(zr_build::BuildError::Cancelled));
    }
}

#[test]
fn statuses_report_in_input_order() {
    let sched = scheduler(2);
    let handle = sched.submit(distinct_batch());
    let statuses = handle.statuses();
    assert_eq!(statuses.len(), 8);
    let reports = handle.wait();
    assert!(reports
        .iter()
        .all(|r| matches!(r.status, BuildStatus::Done)));
    assert_eq!(reports.len(), 8);
}

#[test]
fn empty_batch_is_fine() {
    assert!(scheduler(4).build_many(Vec::new()).is_empty());
}

#[test]
fn cache_dir_persists_layers_across_schedulers() {
    // Two schedulers over one --cache-dir: the second (fresh memory,
    // fresh registry — the "second process") must replay the first
    // one's layers with zero misses and no new pulls.
    let dir = std::env::temp_dir().join(format!("zr-sched-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || SchedulerConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..SchedulerConfig::default()
    };
    let cold = Scheduler::try_new(config()).unwrap();
    let reports = cold.build_many(distinct_batch());
    assert!(reports.iter().all(|r| r.result.success));
    let digests: Vec<String> = reports
        .iter()
        .map(|r| r.result.image.as_ref().unwrap().digest())
        .collect();
    drop(cold);

    let warm = Scheduler::try_new(config()).unwrap();
    let reports = warm.build_many(distinct_batch());
    for (report, cold_digest) in reports.iter().zip(&digests) {
        assert!(report.result.success);
        assert_eq!(report.result.cache.misses, 0, "fully warm from disk");
        assert_eq!(
            &report.result.image.as_ref().unwrap().digest(),
            cold_digest,
            "disk replay reproduces the digest"
        );
    }
    assert_eq!(warm.registry().stats().pulls, 0, "no pulls when replaying");
    assert!(warm.layers().stats().disk_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scheduler_cache_limit_bounds_the_store() {
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 2,
        cache_limit: 64 * 1024,
        ..SchedulerConfig::default()
    });
    let reports = sched.build_many(distinct_batch());
    assert!(reports.iter().all(|r| r.result.success));
    let stats = sched.layers().stats();
    assert!(stats.bytes <= 64 * 1024, "store respects its budget");
    assert!(stats.evictions > 0, "distinct batch overflows 64 KiB");
}
