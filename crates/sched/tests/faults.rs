//! Scheduler behavior under injected faults: panic isolation,
//! retry-once degradation (single- and multi-stage alike),
//! deterministic dependent handling, resident-pool survival of a
//! poisoned batch, and a registry outage that cannot fail the `FROM`
//! of a base already fetched.
//!
//! Every test installs a [`zr_fault::FaultPlan`]; the returned guard
//! holds the fault plane's process-wide serial lock, so these tests
//! never see each other's injections (fault-free baselines are built
//! under an *empty* plan for the same reason).

use zeroroot_core::Mode;
use zr_build::{BuildOptions, CacheMode};
use zr_fault::{points, FaultPlan};
use zr_sched::{BuildRequest, BuildStatus, Scheduler, SchedulerConfig};

/// The canonical diamond from the DAG suite: two independent middle
/// stages off one base, joined by `COPY --from=`.
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

/// The serial, fault-free diamond digest for `id` (the tag lands in
/// the image metadata, so the baseline must share it; built under an
/// empty plan so a concurrently running fault test cannot inject).
fn clean_digest(id: &str) -> String {
    let _guard = zr_fault::install(&FaultPlan::new());
    let reports = scheduler(1).build_many(vec![diamond_request(id)]);
    assert_eq!(reports[0].status, BuildStatus::Done);
    reports[0].result.image.as_ref().unwrap().digest()
}

#[test]
fn a_single_worker_panic_degrades_but_completes_the_build() {
    let want = clean_digest("d");
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_PANIC, 1, 0, 0));
    let reports = scheduler(2).build_many(vec![diamond_request("d")]);
    let r = &reports[0];
    assert_eq!(r.status, BuildStatus::Degraded, "{}", r.result.log_text());
    assert!(r.result.success);
    assert_eq!(
        r.result.image.as_ref().unwrap().digest(),
        want,
        "a panic-retried build must digest identically to a clean one"
    );
    let c = zr_fault::counters();
    assert_eq!(c.injected, 1);
    assert_eq!(c.panics_retried, 1);
}

#[test]
fn a_single_stage_worker_panic_degrades_like_a_multi_stage_one() {
    // Figure 2 is one stage: the panicked stage is retried once, exactly
    // as in the diamond, and the build lands Degraded, not Failed.
    let request = || {
        let options = BuildOptions::new("fig2", Mode::Seccomp);
        BuildRequest::with_options(
            "fig2",
            "FROM centos:7\nRUN yum install -y openssh\n",
            options,
        )
    };
    let want = {
        let _guard = zr_fault::install(&FaultPlan::new());
        let reports = scheduler(1).build_many(vec![request()]);
        assert_eq!(reports[0].status, BuildStatus::Done);
        reports[0].result.image.as_ref().unwrap().digest()
    };
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_PANIC, 1, 0, 0));
    let reports = scheduler(1).build_many(vec![request()]);
    let r = &reports[0];
    assert_eq!(r.status, BuildStatus::Degraded, "{}", r.result.log_text());
    assert!(r.result.success);
    assert_eq!(
        r.result.image.as_ref().unwrap().digest(),
        want,
        "a panic-retried build must digest identically to a clean one"
    );
    let c = zr_fault::counters();
    assert_eq!(c.injected, 1);
    assert_eq!(c.panics_retried, 1);
}

#[test]
fn a_repeatedly_panicking_stage_fails_only_its_own_build() {
    // One worker and a high-priority victim: both injected panics land
    // on the victim's base stage (first = retry, second = failure),
    // its dependent stages are never released, and the bystander then
    // builds clean on the same worker.
    let want = clean_digest("bystander");
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_PANIC, 2, 0, 0));
    let victim = diamond_request("victim").high_priority();
    let bystander = diamond_request("bystander");
    let reports = scheduler(1).build_many(vec![victim, bystander]);

    let v = &reports[0];
    assert_eq!(v.status, BuildStatus::Failed, "{}", v.result.log_text());
    assert!(!v.result.success);
    let log = v.result.log_text();
    assert!(
        !log.contains("=== stage left") && !log.contains("=== stage right"),
        "a failed base must not release dependents:\n{log}"
    );

    let b = &reports[1];
    assert_eq!(b.status, BuildStatus::Done, "{}", b.result.log_text());
    assert_eq!(
        b.result.image.as_ref().unwrap().digest(),
        want,
        "the bystander build must be untouched by its neighbor's panics"
    );
    let c = zr_fault::counters();
    assert_eq!(c.injected, 2);
    assert_eq!(c.panics_retried, 1, "only the first panic is retried");
}

#[test]
fn a_stalled_worker_delays_but_does_not_fail_the_build() {
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_STALL, 1, 0, 30));
    let start = std::time::Instant::now();
    let reports = scheduler(2).build_many(vec![diamond_request("slow")]);
    let r = &reports[0];
    assert_eq!(r.status, BuildStatus::Done, "{}", r.result.log_text());
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(30),
        "the injected stall must actually park a worker"
    );
    assert_eq!(zr_fault::counters().injected, 1);
}

#[test]
fn the_daemon_survives_a_poisoned_batch_and_accepts_the_next_submit() {
    let want = clean_digest("healthy");
    let sched = scheduler(2);
    {
        // Enough fires that the victim's base stage panics on its
        // retry too: the whole first batch fails.
        let _guard =
            zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_PANIC, 8, 0, 0));
        let poisoned = sched.build_many(vec![diamond_request("poisoned")]);
        assert_eq!(poisoned[0].status, BuildStatus::Failed);
    }
    // Plan uninstalled: the resident pool must take the next batch and
    // build it fault-free (warm layers from the failed batch are fine —
    // the base stage never completed, so the digest check is real).
    let healthy = sched.build_many(vec![diamond_request("healthy")]);
    assert_eq!(
        healthy[0].status,
        BuildStatus::Done,
        "{}",
        healthy[0].result.log_text()
    );
    assert_eq!(healthy[0].result.image.as_ref().unwrap().digest(), want);
}

#[test]
fn cancellation_during_a_panic_retry_is_deterministic() {
    // The panic plan keeps the base stage bouncing; cancelling the
    // batch while it bounces must still end every build terminal (the
    // requeued task is reaped by the cancellation path, not lost).
    let _guard =
        zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_PANIC, 1000, 0, 0));
    let sched = scheduler(1);
    let handle = sched.submit(vec![diamond_request("spin")]);
    handle.cancel();
    let reports = handle.wait();
    assert!(
        matches!(
            reports[0].status,
            BuildStatus::Cancelled | BuildStatus::Failed
        ),
        "cancelled-while-retrying build must land terminal, got {}",
        reports[0].status
    );
}

#[test]
fn a_poisoned_submit_is_absorbed_without_killing_resident_workers() {
    let want = clean_digest("after-poison");
    let _guard =
        zr_fault::install(&FaultPlan::new().counted(points::SCHED_DAEMON_SUBMIT_POISON, 1, 0, 0));
    let sched = scheduler(2);
    // The first submit panics inside the batch-list critical section,
    // poisoning its mutex. The scheduler absorbs the panic, retries the
    // enqueue, and the batch still runs to completion.
    let first = sched.build_many(vec![diamond_request("poisoned-submit")]);
    assert_eq!(
        first[0].status,
        BuildStatus::Done,
        "{}",
        first[0].result.log_text()
    );
    // The resident pool outlives the poisoned mutex: a second batch on
    // the same workers builds clean and digests like a fault-free run.
    let second = sched.build_many(vec![diamond_request("after-poison")]);
    assert_eq!(second[0].status, BuildStatus::Done);
    assert_eq!(second[0].result.image.as_ref().unwrap().digest(), want);
    let c = zr_fault::counters();
    assert_eq!(c.injected, 1);
    assert!(c.retries >= 1, "the absorbed submit counts as a retry: {c}");
}

#[test]
fn a_stalled_submit_delays_admission_but_loses_nothing() {
    let _guard =
        zr_fault::install(&FaultPlan::new().counted(points::SCHED_DAEMON_SUBMIT_STALL, 1, 0, 30));
    let sched = scheduler(2);
    let start = std::time::Instant::now();
    let reports = sched.build_many(vec![diamond_request("slow-submit")]);
    assert_eq!(
        reports[0].status,
        BuildStatus::Done,
        "{}",
        reports[0].result.log_text()
    );
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(30),
        "the injected stall must actually delay admission"
    );
}

#[test]
fn a_fetched_base_survives_a_registry_outage() {
    // The registry keeps every base it fetched, so once the first
    // batch has pulled alpine, an outage armed to fail the next fetch
    // never reaches the second batch's FROM: it is a cache hit.
    let sched = scheduler(1);
    let request = || {
        let mut options = BuildOptions::new("outage", Mode::Seccomp);
        options.cache = CacheMode::Disabled;
        BuildRequest::with_options("outage", "FROM alpine:3.19\nRUN echo hi > /hi\n", options)
    };
    let want = {
        let _guard = zr_fault::install(&FaultPlan::new());
        let reports = sched.build_many(vec![request()]);
        assert_eq!(
            reports[0].status,
            BuildStatus::Done,
            "{}",
            reports[0].result.log_text()
        );
        reports[0].result.image.as_ref().unwrap().digest()
    };
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::REGISTRY_PULL_ERR, 1, 0, 0));
    let reports = sched.build_many(vec![request()]);
    let r = &reports[0];
    assert_eq!(r.status, BuildStatus::Done, "{}", r.result.log_text());
    assert_eq!(r.result.image.as_ref().unwrap().digest(), want);
    assert_eq!(zr_fault::counters().injected, 0, "no fetch to fail");
    assert_eq!(sched.registry().stats().fetches, 1);
}
