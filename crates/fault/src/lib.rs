//! # zr-fault — the deterministic fault-injection plane
//!
//! Every I/O boundary in the stack (the persistent CAS, the registry
//! wire protocol on both ends, the scheduler's workers) carries cheap
//! named hooks: `if let Some(arg) = zr_fault::hit("store.write.err")`.
//! With no plan installed the hook is one relaxed atomic load — nothing
//! to measure. With a plan installed, each named point fires according
//! to a *deterministic* trigger: counted (`name=COUNT[@SKIP][:ARG]`,
//! fire `COUNT` times after skipping `SKIP` hits) or probabilistic
//! (`name=pP[:ARG]`, per-hit probability from a seeded, replayable
//! RNG). The same plan string against the same workload injects the
//! same faults — chaos runs are reproducible bug reports, not weather.
//!
//! The point *name* encodes the failure action, so a plan reads as a
//! fault schedule: `seed=42;wire.client.reset=3;sched.stage.panic=1`
//! means "three connection resets on the client wire, one worker
//! panic". See [`points`] for the vocabulary.
//!
//! On top of the plane sit the resilience policies the faults prove
//! out: [`RetryPolicy`] (capped exponential backoff with seeded
//! jitter), process-wide resilience [`counters`] (retries, timeouts,
//! worker panics retried), and [`chaos`], a reusable TCP chaos proxy
//! for wire tests (kill-after-bytes, stalled responses, bit flips).
//!
//! Plans are installed per test via [`install`] (which serializes
//! fault-using tests behind a global lock and uninstalls on drop) or
//! process-wide via [`install_global`] / the `ZR_FAULT` environment
//! variable read by [`install_from_env`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The well-known injection point names, one constant per point, so
/// call sites and plans cannot drift apart by typo. The naming scheme
/// is `layer.site.action`: the last segment is the failure *action*
/// the firing hook performs.
pub mod points {
    /// CAS object write returns an injected I/O error before any bytes
    /// land.
    pub const STORE_WRITE_ERR: &str = "store.write.err";
    /// CAS object write is torn: the temp file keeps only a prefix and
    /// the write reports an error (what a full disk or a crash mid-
    /// `write(2)` leaves behind).
    pub const STORE_WRITE_TORN: &str = "store.write.torn";
    /// The rename publishing a CAS object fails.
    pub const STORE_RENAME_ERR: &str = "store.rename.err";
    /// The fsync sealing a CAS write fails.
    pub const STORE_FSYNC_ERR: &str = "store.fsync.err";
    /// Simulated crash inside the batched pack commit: the commit stops
    /// dead at the k-th crash checkpoint, leaving on-disk state exactly
    /// as a power cut at that instant would. Recovery is exercised by
    /// reopening the store.
    pub const STORE_COMMIT_CRASH: &str = "store.commit.crash";
    /// The client's connection resets mid-exchange (send or receive).
    pub const WIRE_CLIENT_RESET: &str = "wire.client.reset";
    /// The server drops an accepted connection before reading it.
    pub const WIRE_SERVER_RESET: &str = "wire.server.reset";
    /// The server answers 500 instead of dispatching the request.
    pub const WIRE_SERVER_HTTP500: &str = "wire.server.http500";
    /// The server truncates the response body (arg = bytes kept;
    /// default half).
    pub const WIRE_SERVER_TRUNCATE: &str = "wire.server.truncate";
    /// The server stalls before answering (arg = milliseconds), long
    /// enough to trip a client read deadline.
    pub const WIRE_SERVER_STALL: &str = "wire.server.stall";
    /// A registry fetch fails with an injected transport error (above
    /// the wire, so it needs no live endpoint). Only a real fetch can
    /// fail: a pull the pull-through cache answers never reaches it.
    pub const REGISTRY_PULL_ERR: &str = "registry.pull.err";
    /// A scheduler worker panics at the top of a stage build.
    pub const SCHED_STAGE_PANIC: &str = "sched.stage.panic";
    /// A scheduler worker stalls (arg = milliseconds) before a stage —
    /// for cancellation-race and deadline tests.
    pub const SCHED_STAGE_STALL: &str = "sched.stage.stall";
    /// The scheduler's submit path stalls (arg = milliseconds) before
    /// enqueuing the batch — widens the admission/shutdown race window.
    /// (The name predates the scheduler's resident pool; it is kept so
    /// saved plans still replay.)
    pub const SCHED_DAEMON_SUBMIT_STALL: &str = "sched.daemon.submit.stall";
    /// The scheduler's submit path panics *inside* the batch-list
    /// critical section, poisoning its mutex. The scheduler absorbs the
    /// poison and retries the enqueue; resident workers (which recover
    /// poisoned guards) must survive.
    pub const SCHED_DAEMON_SUBMIT_POISON: &str = "sched.daemon.submit.poison";
}

// ---------------------------------------------------------------------
// Seeded RNG
// ---------------------------------------------------------------------

/// A tiny, replayable RNG (splitmix64): the same seed always yields the
/// same fault schedule and the same backoff jitter. Not cryptographic —
/// determinism is the whole point.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// An RNG at the start of the stream for `seed`.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

// ---------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------

/// How one injection point decides whether a given hit fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire `times` consecutive hits after skipping the first `skip`.
    Counted {
        /// Hits to let pass before the first firing.
        skip: u64,
        /// Number of hits that fire once past `skip`.
        times: u64,
    },
    /// Fire each hit independently with this probability, drawn from
    /// the plan's seeded RNG.
    Probability(f64),
}

/// One named injection point of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// The point name (see [`points`]).
    pub name: String,
    /// When the point fires.
    pub trigger: Trigger,
    /// Point-specific argument delivered to the hook when it fires
    /// (stall milliseconds, truncation length, …); 0 when unset.
    pub arg: u64,
}

/// A parsed fault plan: a seed plus a set of named points.
///
/// Plan strings are `;`-separated clauses. `seed=N` seeds the RNG
/// (default 0); every other clause is `name=SPEC[:ARG]` where `SPEC`
/// is either `COUNT[@SKIP]` (counted) or `pP` with `P ∈ [0,1]`
/// (probabilistic). Examples:
///
/// ```text
/// seed=42;wire.client.reset=3;sched.stage.panic=1
/// store.commit.crash=1@2            # fire on the third hit only
/// wire.server.stall=2:250           # stall twice, 250 ms each
/// wire.server.http500=p0.25         # 25% of requests answer 500
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for probabilistic triggers and policy jitter.
    pub seed: u64,
    /// The plan's injection points.
    pub points: Vec<PointSpec>,
}

impl FaultPlan {
    /// An empty plan (installs fine; nothing ever fires).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a counted point: fire `times` hits after skipping `skip`.
    pub fn counted(mut self, name: &str, times: u64, skip: u64, arg: u64) -> FaultPlan {
        self.points.push(PointSpec {
            name: name.to_string(),
            trigger: Trigger::Counted { skip, times },
            arg,
        });
        self
    }

    /// Set the RNG seed.
    pub fn seeded(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Parse a plan string (see the type docs for the syntax).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, spec) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause without '=': {clause:?}"))?;
            let (name, spec) = (name.trim(), spec.trim());
            if name == "seed" {
                plan.seed = spec.parse().map_err(|_| format!("bad seed: {spec:?}"))?;
                continue;
            }
            let (spec, arg) = match spec.split_once(':') {
                Some((s, a)) => (
                    s,
                    a.parse::<u64>()
                        .map_err(|_| format!("bad arg in {clause:?}"))?,
                ),
                None => (spec, 0),
            };
            let trigger = if let Some(p) = spec.strip_prefix('p') {
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("bad probability in {clause:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of [0,1] in {clause:?}"));
                }
                Trigger::Probability(p)
            } else {
                let (times, skip) = match spec.split_once('@') {
                    Some((t, s)) => (
                        t.parse::<u64>()
                            .map_err(|_| format!("bad count in {clause:?}"))?,
                        s.parse::<u64>()
                            .map_err(|_| format!("bad skip in {clause:?}"))?,
                    ),
                    None => (
                        spec.parse::<u64>()
                            .map_err(|_| format!("bad count in {clause:?}"))?,
                        0,
                    ),
                };
                Trigger::Counted { skip, times }
            };
            plan.points.push(PointSpec {
                name: name.to_string(),
                trigger,
                arg,
            });
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// The installed plane
// ---------------------------------------------------------------------

struct CompiledPoint {
    name: String,
    trigger: Trigger,
    arg: u64,
    /// Hits observed so far (counted triggers index into this).
    seen: AtomicU64,
}

struct Plane {
    points: Vec<CompiledPoint>,
    rng: Mutex<FaultRng>,
}

/// Fast-path switch: `false` means no plan is installed and every hook
/// is a single relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn plane_slot() -> &'static Mutex<Option<Plane>> {
    static PLANE: OnceLock<Mutex<Option<Plane>>> = OnceLock::new();
    PLANE.get_or_init(|| Mutex::new(None))
}

/// Serializes fault-using tests within one binary: whoever holds a
/// [`PlanGuard`] owns the (process-global) plane.
fn serial_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Injected panics poison locks by design; the data is counters.
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps a plan installed; uninstalls (and releases the test-serial
/// lock) on drop.
pub struct PlanGuard {
    _serial: Option<MutexGuard<'static, ()>>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *relock(plane_slot()) = None;
    }
}

fn compile(plan: &FaultPlan) -> Plane {
    Plane {
        points: plan
            .points
            .iter()
            .map(|p| CompiledPoint {
                name: p.name.clone(),
                trigger: p.trigger,
                arg: p.arg,
                seen: AtomicU64::new(0),
            })
            .collect(),
        rng: Mutex::new(FaultRng::new(plan.seed)),
    }
}

/// Install `plan`, serializing against every other [`install`] caller
/// in the process (fault-using tests must not overlap), and reset the
/// resilience [`counters`]. The plan stays installed until the guard
/// drops.
pub fn install(plan: &FaultPlan) -> PlanGuard {
    let serial = relock(serial_lock());
    reset_counters();
    *relock(plane_slot()) = Some(compile(plan));
    ACTIVE.store(true, Ordering::SeqCst);
    PlanGuard {
        _serial: Some(serial),
    }
}

/// Install `plan` for the life of the process (the CLI path — no
/// guard, no test serialization).
pub fn install_global(plan: &FaultPlan) {
    reset_counters();
    *relock(plane_slot()) = Some(compile(plan));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Install a plan from the `ZR_FAULT` environment variable if set.
/// Returns whether a plan was installed; a malformed plan is an `Err`
/// (silently ignoring a typo'd fault plan would un-inject the faults).
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("ZR_FAULT") {
        Ok(text) if !text.trim().is_empty() => {
            install_global(&FaultPlan::parse(&text)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Is a fault plan currently installed?
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The hook: does injection point `point` fire on this hit? `None`
/// (the overwhelmingly common answer) costs one relaxed atomic load
/// when no plan is installed. `Some(arg)` delivers the point's
/// argument (0 when the plan sets none) and counts one injected fault.
#[inline]
pub fn hit(point: &str) -> Option<u64> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    hit_installed(point)
}

/// Boolean convenience over [`hit`] for points without arguments.
#[inline]
pub fn fires(point: &str) -> bool {
    hit(point).is_some()
}

#[cold]
fn hit_installed(point: &str) -> Option<u64> {
    let slot = relock(plane_slot());
    let plane = slot.as_ref()?;
    let compiled = plane.points.iter().find(|p| p.name == point)?;
    let fire = match compiled.trigger {
        Trigger::Counted { skip, times } => {
            let n = compiled.seen.fetch_add(1, Ordering::Relaxed);
            n >= skip && n < skip.saturating_add(times)
        }
        Trigger::Probability(p) => relock(&plane.rng).next_f64() < p,
    };
    if fire {
        INJECTED.fetch_add(1, Ordering::Relaxed);
        Some(compiled.arg)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Resilience counters
// ---------------------------------------------------------------------

static INJECTED: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static PANICS_RETRIED: AtomicU64 = AtomicU64::new(0);

/// Process-wide resilience counters: what the fault plane injected and
/// what the policies absorbed. Surfaced by `build-many` summaries and
/// `store stats` so chaos runs are diagnosable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults the installed plan injected.
    pub injected: u64,
    /// Operations re-attempted by a [`RetryPolicy`].
    pub retries: u64,
    /// Wire operations that hit a read/write deadline.
    pub timeouts: u64,
    /// Worker panics absorbed by the scheduler's retry-once path.
    pub panics_retried: u64,
}

impl std::fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} injected, {} retries, {} timeouts, {} panics retried",
            self.injected, self.retries, self.timeouts, self.panics_retried
        )
    }
}

/// Snapshot the resilience counters.
pub fn counters() -> FaultCounters {
    FaultCounters {
        injected: INJECTED.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        timeouts: TIMEOUTS.load(Ordering::Relaxed),
        panics_retried: PANICS_RETRIED.load(Ordering::Relaxed),
    }
}

/// Zero the resilience counters (done automatically by [`install`]).
pub fn reset_counters() {
    for counter in [&INJECTED, &RETRIES, &TIMEOUTS, &PANICS_RETRIED] {
        counter.store(0, Ordering::Relaxed);
    }
}

/// Count one retry (called by [`RetryPolicy::run`]; exposed for
/// hand-rolled retry loops like the push resume path).
pub fn count_retry() {
    RETRIES.fetch_add(1, Ordering::Relaxed);
}

/// Count one wire deadline hit.
pub fn count_timeout() {
    TIMEOUTS.fetch_add(1, Ordering::Relaxed);
}

/// Count one worker panic absorbed by the scheduler.
pub fn count_panic_retried() {
    PANICS_RETRIED.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Capped exponential backoff with seeded jitter: the shared retry
/// discipline for transient transport errors (client pulls, manifest
/// fetches, push resume). Refusals — errors the caller classifies as
/// non-transient — are never retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Jitter seed: the same seed replays the same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A default-shaped policy with `attempts` total attempts.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `retry` (0-based): exponential
    /// from `base`, capped at `cap`, with the upper half jittered by
    /// the seeded RNG so colliding clients decorrelate identically on
    /// every replay.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << retry.min(16))
            .min(self.cap);
        let nanos = exp.as_nanos() as u64;
        let mut rng = FaultRng::new(self.seed ^ u64::from(retry));
        Duration::from_nanos(nanos / 2 + rng.below(nanos / 2 + 1))
    }

    /// Run `op` under this policy: errors for which `transient` answers
    /// `true` are retried (with backoff) until the attempt budget runs
    /// out; the first non-transient error — or the last attempt's
    /// error — is returned as-is. `op` receives the 0-based attempt
    /// number.
    pub fn run<T, E>(
        &self,
        transient: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(error) => {
                    if attempt + 1 >= attempts || !transient(&error) {
                        return Err(error);
                    }
                    count_retry();
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_replayable() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let left: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let right: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(left, right);
        assert_ne!(
            left,
            (0..8)
                .map(|_| FaultRng::new(8).next_u64())
                .collect::<Vec<_>>()
        );
        let f = FaultRng::new(1).next_f64();
        assert!((0.0..1.0).contains(&f));
        assert!(FaultRng::new(2).below(10) < 10);
        assert_eq!(FaultRng::new(3).below(0), 0);
    }

    #[test]
    fn plan_strings_parse() {
        let plan = FaultPlan::parse(
            "seed=42; wire.client.reset=3; store.commit.crash=1@2; \
             wire.server.stall=2:250; wire.server.http500=p0.25:7",
        )
        .expect("parse");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.points.len(), 4);
        assert_eq!(
            plan.points[0],
            PointSpec {
                name: "wire.client.reset".into(),
                trigger: Trigger::Counted { skip: 0, times: 3 },
                arg: 0,
            }
        );
        assert_eq!(
            plan.points[1].trigger,
            Trigger::Counted { skip: 2, times: 1 }
        );
        assert_eq!(plan.points[2].arg, 250);
        assert_eq!(plan.points[3].trigger, Trigger::Probability(0.25));
        assert_eq!(plan.points[3].arg, 7);
        // The builder API produces the same shape.
        let built = FaultPlan::new()
            .seeded(42)
            .counted("wire.client.reset", 3, 0, 0);
        assert_eq!(built.points[0], plan.points[0]);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "nonsense", "seed=abc", "x=1:y", "x=p1.5", "x=pz", "x=1@z", "x=z",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(FaultPlan::parse("").expect("empty"), FaultPlan::new());
    }

    #[test]
    fn counted_triggers_fire_deterministically() {
        let plan = FaultPlan::parse("a=2@1:9").expect("parse");
        let _guard = install(&plan);
        assert!(active());
        // Hit 0 skipped; hits 1 and 2 fire with the arg; then dry.
        assert_eq!(hit("a"), None);
        assert_eq!(hit("a"), Some(9));
        assert_eq!(hit("a"), Some(9));
        assert_eq!(hit("a"), None);
        assert_eq!(hit("unknown.point"), None);
        assert_eq!(counters().injected, 2);
        drop(_guard);
        assert!(!active());
        assert_eq!(hit("a"), None, "uninstalled plans never fire");
    }

    #[test]
    fn probability_triggers_replay_with_the_seed() {
        let plan = FaultPlan::parse("seed=11;p.point=p0.5").expect("parse");
        let first: Vec<bool> = {
            let _guard = install(&plan);
            (0..64).map(|_| fires("p.point")).collect()
        };
        let second: Vec<bool> = {
            let _guard = install(&plan);
            (0..64).map(|_| fires("p.point")).collect()
        };
        assert_eq!(first, second, "same seed, same schedule");
        assert!(first.iter().any(|&b| b) && !first.iter().all(|&b| b));
    }

    #[test]
    fn retry_policy_retries_transients_only() {
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
            seed: 1,
        };
        // Transient errors burn attempts, then succeed.
        let mut calls = 0;
        let result: Result<u32, &str> = policy.run(
            |_| true,
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err("reset")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(result, Ok(2));
        assert_eq!(calls, 3);
        // Non-transient errors return immediately.
        let mut calls = 0;
        let result: Result<u32, &str> = policy.run(
            |e| *e != "refused",
            |_| {
                calls += 1;
                Err("refused")
            },
        );
        assert_eq!(result, Err("refused"));
        assert_eq!(calls, 1);
        // The budget is respected.
        let mut calls = 0;
        let result: Result<u32, &str> = policy.run(
            |_| true,
            |_| {
                calls += 1;
                Err("reset")
            },
        );
        assert_eq!(result, Err("reset"));
        assert_eq!(calls, 3);
        // Backoff is deterministic, capped, and nonzero.
        assert_eq!(policy.backoff(1), policy.backoff(1));
        assert!(policy.backoff(9) <= Duration::from_micros(50));
        assert!(policy.backoff(0) > Duration::ZERO);
        assert_eq!(RetryPolicy::none().attempts, 1);
        assert_eq!(RetryPolicy::with_attempts(0).attempts, 1);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _guard = install(&FaultPlan::new());
        count_retry();
        count_timeout();
        count_panic_retried();
        let c = counters();
        assert_eq!((c.retries, c.timeouts, c.panics_retried), (1, 1, 1));
        assert!(c.to_string().contains("1 retries"));
        reset_counters();
        assert_eq!(counters(), FaultCounters::default());
    }
}
