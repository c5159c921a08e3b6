//! The resident worker pool, its queues, the stage-DAG execution
//! engine, and per-build status tracking.
//!
//! Every submitted request compiles to a [`BuildPlan`] with
//! [`zr_build::plan`] and runs as one task per retained stage,
//! single-stage files included: a stage task is queued the moment every
//! stage it depends on has an image, so independent stages of one build
//! overlap on different workers while `COPY --from=` consumers wait for
//! their producers. A request that does not plan is finalized at
//! submit. Workers run [`Builder::build_stage`] and
//! [`zr_build::assemble`] closes the build — the steps of a serial
//! [`Builder::build`], so the log, cache counters and image match it
//! byte for byte.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use zeroroot_core::sync::lock_or_poisoned;

use zr_build::{BuildError, BuildOptions, BuildResult, Builder, StageOutput, Stages};
use zr_fault::points;
use zr_image::{CatalogBackend, LayerStore, PullCost, RegistryBackend, ShardedRegistry};
use zr_kernel::Kernel;
use zr_plan::BuildPlan;
use zr_trace::Counters;

/// Queue class for one request. Half the worker pool is affine to each
/// class when both are populated: high-priority work never waits behind
/// a deep normal backlog, and an idle worker *steals* from the other
/// class rather than spinning (the steal count is observable on the
/// batch handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// The default FIFO queue.
    #[default]
    Normal,
    /// Drains first on the high-affinity workers; jumps ahead of every
    /// queued normal-priority build when only one worker exists.
    High,
}

/// One build in a batch: a Dockerfile plus its options, under a caller
/// chosen id (the id labels trace output and names the report).
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// Caller-chosen build id (also the default tag).
    pub id: String,
    /// Dockerfile text.
    pub dockerfile: String,
    /// Build options (tag, --force mode, cache policy, context, ...).
    pub options: BuildOptions,
    /// Queue class.
    pub priority: Priority,
}

impl BuildRequest {
    /// A normal-priority request with default options, tagged `id`.
    pub fn new(id: &str, dockerfile: &str) -> BuildRequest {
        let options = BuildOptions {
            tag: id.to_string(),
            ..BuildOptions::default()
        };
        BuildRequest::with_options(id, dockerfile, options)
    }

    /// A request with explicit options.
    pub fn with_options(id: &str, dockerfile: &str, options: BuildOptions) -> BuildRequest {
        BuildRequest {
            id: id.to_string(),
            dockerfile: dockerfile.to_string(),
            options,
            priority: Priority::Normal,
        }
    }

    /// Move this request to the high-priority queue.
    pub fn high_priority(mut self) -> BuildRequest {
        self.priority = Priority::High;
        self
    }
}

/// Where one build is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildStatus {
    /// Waiting in a queue.
    #[default]
    Queued,
    /// At least one of its stages has started on a worker.
    Running,
    /// Finished successfully.
    Done,
    /// Finished successfully, but only by degrading: a `FROM` pull
    /// fell back to a locally cached base, or a stage succeeded on a
    /// retry after a worker panic. The result's image is real; the
    /// status flags that the batch was not fault-free.
    Degraded,
    /// Finished with a failure (the report's result says why).
    Failed,
    /// Never ran to completion: the batch (or this build) was cancelled
    /// while work was still queued.
    Cancelled,
}

impl BuildStatus {
    /// Has this build reached a final state (no further transitions)?
    pub fn terminal(self) -> bool {
        matches!(
            self,
            BuildStatus::Done
                | BuildStatus::Degraded
                | BuildStatus::Failed
                | BuildStatus::Cancelled
        )
    }

    /// Did the build produce its image (fault-free or degraded)?
    pub fn succeeded(self) -> bool {
        matches!(self, BuildStatus::Done | BuildStatus::Degraded)
    }
}

impl std::fmt::Display for BuildStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BuildStatus::Queued => "queued",
            BuildStatus::Running => "running",
            BuildStatus::Done => "done",
            BuildStatus::Degraded => "degraded",
            BuildStatus::Failed => "failed",
            BuildStatus::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// One event on a build's log subscription (see
/// [`BatchHandle::subscribe`]). Subscribers receive each stage's log
/// chunk as the stage completes — a single-stage build streams one
/// chunk, named after its stage — then a terminal [`LogEvent::Done`].
/// Subscribing late replays what was missed.
#[derive(Debug, Clone)]
pub enum LogEvent {
    /// One completed stage's log lines.
    Stage {
        /// Request index within the batch.
        build: usize,
        /// Stage display name (its alias, else its 0-based index).
        stage: String,
        /// The log lines that stage produced.
        lines: Vec<String>,
    },
    /// The build reached a terminal status. The assembled, ordered log
    /// (with stage banners) is in the build's [`BuildReport`].
    Done {
        /// Request index within the batch.
        build: usize,
        /// Terminal status.
        status: BuildStatus,
    },
}

/// Scheduler construction knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Resident worker threads, started with the scheduler (clamped to
    /// at least 1).
    pub jobs: usize,
    /// Cancel the rest of the batch when any build fails.
    pub fail_fast: bool,
    /// Modeled network cost of registry pulls (benchmarks dial this up
    /// to measure how well workers overlap their pulls).
    pub pull_cost: PullCost,
    /// Layer-cache size budget in bytes (0 = unlimited).
    pub cache_limit: u64,
    /// Registry blob-cache byte budget (0 = unlimited): least-recently
    /// pulled bases are evicted first.
    pub blob_budget: u64,
    /// Persistent layer-store directory (`--cache-dir`). When set, the
    /// shared layer store is backed by `zr-store`: every worker's
    /// layers are written through to disk, and a later scheduler (or
    /// another process) opening the same directory replays them.
    pub cache_dir: Option<std::path::PathBuf>,
    /// On-disk store size budget in bytes (`--store-limit`, 0 =
    /// unlimited): the persistent CAS under `cache_dir` evicts whole
    /// least-recently-pinned layer roots (and their dependents) until
    /// physical bytes fit. The disk-side mirror of `cache_limit`.
    /// `None` leaves whatever budget the store itself has persisted;
    /// `Some` overrides it (and the override is persisted in turn).
    pub store_limit: Option<u64>,
    /// Where the scheduler-owned registry fetches cache misses. `None`
    /// uses the built-in catalog (the simulator); `Some` plugs in a
    /// live backend such as `zr-registry`'s wire client, so `FROM`
    /// resolves against a real OCI distribution endpoint.
    pub backend: Option<Arc<dyn RegistryBackend>>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fail_fast: false,
            pull_cost: PullCost::default(),
            cache_limit: 0,
            blob_budget: 0,
            cache_dir: None,
            store_limit: None,
            backend: None,
        }
    }
}

/// What one build in a batch produced.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The request's id.
    pub id: String,
    /// Terminal status ([`BuildStatus::Done`], `Degraded`, `Failed`, or
    /// `Cancelled`).
    pub status: BuildStatus,
    /// The build result (a cancelled build's error is
    /// [`BuildError::Cancelled`]).
    pub result: BuildResult,
    /// The dispatch ledgers of the build's per-stage kernels, summed.
    pub counters: Counters,
    /// Completion sequence within the batch (0 = finished first);
    /// `None` for cancelled builds.
    pub seq: Option<usize>,
}

/// One slot of batch state, indexed by request position.
#[derive(Debug, Default)]
struct Slot {
    status: BuildStatus,
    result: Option<BuildResult>,
    counters: Counters,
    seq: Option<usize>,
}

/// One build's log stream: every event sent so far (replayed to late
/// subscribers) and the live subscribers.
#[derive(Default)]
struct Stream {
    history: Vec<LogEvent>,
    subscribers: Vec<mpsc::Sender<LogEvent>>,
}

/// One schedulable unit: one stage of a planned build.
#[derive(Debug, Clone, Copy)]
struct Task {
    build: usize,
    stage: usize,
}

/// Which queue class a worker drains first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Affinity {
    /// Prefer the high-priority queue; steal normal work when idle.
    High,
    /// Prefer the normal queue; steal high-priority work when idle.
    Normal,
}

/// The two task queues. `pop_for` takes from the worker's own class
/// first, FIFO, then *steals* the front of the other class — the
/// returned flag says whether the pop crossed classes.
#[derive(Debug, Default)]
struct Queues {
    high: VecDeque<Task>,
    normal: VecDeque<Task>,
}

impl Queues {
    fn push(&mut self, priority: Priority, task: Task) {
        match priority {
            Priority::High => self.high.push_back(task),
            Priority::Normal => self.normal.push_back(task),
        }
    }

    fn pop_for(&mut self, affinity: Affinity) -> Option<(Task, bool)> {
        let (own, other) = match affinity {
            Affinity::High => (&mut self.high, &mut self.normal),
            Affinity::Normal => (&mut self.normal, &mut self.high),
        };
        if let Some(task) = own.pop_front() {
            return Some((task, false));
        }
        other.pop_front().map(|task| (task, true))
    }

    fn is_empty(&self) -> bool {
        self.high.is_empty() && self.normal.is_empty()
    }
}

/// Wakeup channel between task producers (stage completions, batch
/// submission, cancellation, shutdown) and idle workers or waiters. The
/// timeout on the wait bounds any lost-wakeup stall, so correctness
/// never depends on a perfectly placed `notify`.
#[derive(Default)]
struct WorkSignal {
    mutex: Mutex<()>,
    cond: Condvar,
}

impl WorkSignal {
    fn notify(&self) {
        let _guard = lock(&self.mutex);
        self.cond.notify_all();
    }

    /// Block until `ready()` holds, re-checking under the signal lock
    /// (so a notify between check and wait is never lost) and on a
    /// short timeout.
    fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        loop {
            if ready() {
                return;
            }
            let guard = lock(&self.mutex);
            if ready() {
                return;
            }
            let _unused = self
                .cond
                .wait_timeout(guard, Duration::from_millis(25))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One planned build: the compiled plan plus the stage bookkeeping
/// every worker touching this build shares.
struct DagBuild {
    plan: BuildPlan,
    state: Mutex<DagState>,
}

/// Progress of one planned build.
#[derive(Default)]
struct DagState {
    /// Stage images, log chunks and summed counters so far.
    stages: Stages,
    /// Summed dispatch ledgers across per-stage kernels.
    counters: Counters,
    /// Unreleased stages → number of incomplete dependencies.
    pending: HashMap<usize, usize>,
    /// Stages whose worker panicked once and were requeued. A second
    /// panic of the same stage fails the build like any stage error.
    panicked: BTreeSet<usize>,
    /// Stage tasks currently executing on workers.
    inflight: usize,
    /// Retained stages not yet completed successfully.
    remaining: usize,
}

/// State shared by every worker running one batch.
struct BatchShared {
    requests: Vec<BuildRequest>,
    /// Parallel to `requests`: `None` for a request that did not plan
    /// (finalized at submit).
    dags: Vec<Option<DagBuild>>,
    /// Does any request have [`Priority::High`]?
    has_high: bool,
    queue: Mutex<Queues>,
    slots: Mutex<Vec<Slot>>,
    streams: Mutex<Vec<Stream>>,
    /// Completion counter (assigns `BuildReport::seq`).
    seq: AtomicUsize,
    /// Builds that reached a terminal status.
    completed: AtomicUsize,
    cancelled: AtomicBool,
    /// Per-build cancellation flags (input order).
    build_cancelled: Vec<AtomicBool>,
    fail_fast: bool,
    registry: Arc<ShardedRegistry>,
    layers: LayerStore,
    signal: Arc<WorkSignal>,
    /// Tasks executing right now / the high-water mark of that gauge.
    running: AtomicUsize,
    peak: AtomicUsize,
    /// Cross-class queue pops (see [`Queues::pop_for`]).
    steals: AtomicUsize,
}

impl BatchShared {
    fn is_complete(&self) -> bool {
        self.completed.load(Ordering::SeqCst) >= self.requests.len()
    }

    fn halted(&self, build: usize) -> bool {
        self.cancelled.load(Ordering::SeqCst) || self.build_cancelled[build].load(Ordering::SeqCst)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    lock_or_poisoned(m)
}

/// Assemble a batch: plan every request, seed the queues with each
/// plan's dependency-free stages, and finalize the requests that did
/// not plan — `Failed`, with exactly the result a serial
/// [`Builder::build`] gives (under `fail_fast`, that cancels the rest).
fn make_batch(
    requests: Vec<BuildRequest>,
    fail_fast: bool,
    registry: Arc<ShardedRegistry>,
    layers: LayerStore,
    signal: Arc<WorkSignal>,
) -> Arc<BatchShared> {
    let mut queue = Queues::default();
    let mut failures = Vec::new();
    let mut dags = Vec::with_capacity(requests.len());
    for (build, request) in requests.iter().enumerate() {
        match zr_build::plan(&request.dockerfile, request.options.target.as_deref()) {
            Ok(plan) => {
                let mut pending = HashMap::new();
                for &stage in plan.order() {
                    match plan.stages()[stage].deps.len() {
                        0 => queue.push(request.priority, Task { build, stage }),
                        deps => {
                            pending.insert(stage, deps);
                        }
                    }
                }
                let state = DagState {
                    pending,
                    remaining: plan.order().len(),
                    ..DagState::default()
                };
                dags.push(Some(DagBuild {
                    plan,
                    state: Mutex::new(state),
                }));
            }
            Err(error) => {
                failures.push((build, BuildResult::failed(&request.options.tag, error)));
                dags.push(None);
            }
        }
    }
    let n = requests.len();
    let shared = Arc::new(BatchShared {
        has_high: requests.iter().any(|r| r.priority == Priority::High),
        requests,
        dags,
        queue: Mutex::new(queue),
        slots: Mutex::new(std::iter::repeat_with(Slot::default).take(n).collect()),
        streams: Mutex::new(std::iter::repeat_with(Stream::default).take(n).collect()),
        seq: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        cancelled: AtomicBool::new(false),
        build_cancelled: std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect(),
        fail_fast,
        registry,
        layers,
        signal,
        running: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        steals: AtomicUsize::new(0),
    });
    for (build, result) in failures {
        finalize(
            &shared,
            build,
            BuildStatus::Failed,
            result,
            Counters::default(),
        );
    }
    shared
}

/// Send `event` to `build`'s subscribers, dropping closed ones, and
/// keep it for late subscribers.
fn publish(shared: &BatchShared, build: usize, event: LogEvent) {
    let mut streams = lock(&shared.streams);
    let stream = &mut streams[build];
    stream
        .subscribers
        .retain(|tx| tx.send(event.clone()).is_ok());
    stream.history.push(event);
}

/// Record a build's terminal outcome exactly once: first caller wins,
/// later calls are no-ops. Assigns the completion `seq` (except to
/// cancellations, which never ran to completion), trips `fail_fast`,
/// bumps the completion counter, and streams the terminal event.
fn finalize(
    shared: &BatchShared,
    build: usize,
    status: BuildStatus,
    result: BuildResult,
    counters: Counters,
) {
    {
        let mut slots = lock(&shared.slots);
        let slot = &mut slots[build];
        if slot.status.terminal() {
            return;
        }
        slot.status = status;
        if status != BuildStatus::Cancelled {
            slot.seq = Some(shared.seq.fetch_add(1, Ordering::SeqCst));
        }
        slot.result = Some(result);
        slot.counters = counters;
    }
    if status == BuildStatus::Failed && shared.fail_fast {
        shared.cancelled.store(true, Ordering::SeqCst);
    }
    // Stream the terminal event before ticking the completion counter,
    // so a `wait` that wakes on completion always finds it delivered.
    publish(shared, build, LogEvent::Done { build, status });
    shared.completed.fetch_add(1, Ordering::SeqCst);
    shared.signal.notify();
}

/// End a build none of whose stages is running: assemble the result
/// from the recorded stages and finalize it — `Done` when the target
/// stage completed (`Degraded` if a base pull fell back or a stage
/// survived a panic), `Failed` after a stage error, `Cancelled`
/// otherwise. Called with the build's state lock held, so the result
/// holds every chunk streamed.
fn close(shared: &BatchShared, build: usize, dag: &DagBuild, state: &mut DagState) {
    let options = &shared.requests[build].options;
    let mut result = zr_build::assemble(&dag.plan, options, &mut state.stages);
    result.degraded |= result.success && !state.panicked.is_empty();
    let status = match &result.error {
        None if result.degraded => BuildStatus::Degraded,
        None => BuildStatus::Done,
        Some(BuildError::Cancelled) => BuildStatus::Cancelled,
        Some(_) => BuildStatus::Failed,
    };
    finalize(shared, build, status, result, state.counters);
}

/// The worker-side fault hooks, evaluated at the top of every task
/// body (inside the panic guard): `sched.stage.stall` parks the worker
/// for its argument in milliseconds, `sched.stage.panic` panics like a
/// builder bug would.
fn worker_fault_hooks() {
    if let Some(ms) = zr_fault::hit(points::SCHED_STAGE_STALL) {
        std::thread::sleep(Duration::from_millis(if ms == 0 { 50 } else { ms }));
    }
    if zr_fault::fires(points::SCHED_STAGE_PANIC) {
        panic!("injected worker panic");
    }
}

/// Run one popped stage task on a private kernel, then advance its
/// build: release newly unblocked dependents, or close the build when
/// this was its last stage or it halted with nothing else running.
/// Every outcome — success, failure, panic, cancellation — lands in the
/// build's slot; nothing a build does can poison its neighbors.
fn run_task(shared: &BatchShared, task: Task) {
    let Task { build, stage } = task;
    let dag = shared.dags[build]
        .as_ref()
        .expect("stage task without a plan");
    let deps: HashMap<usize, _> = {
        let mut state = lock(&dag.state);
        if state.stages.error().is_some() {
            // A sibling already failed this build; whichever stage is
            // still running closes it.
            return;
        }
        if shared.halted(build) {
            // Cancelled: end the build unless a running stage will.
            if state.inflight == 0 {
                close(shared, build, dag, &mut state);
            }
            return;
        }
        state.inflight += 1;
        let images = state.stages.images();
        dag.plan.stages()[stage]
            .deps
            .iter()
            .filter_map(|d| Some((*d, images.get(d)?.clone())))
            .collect()
    };
    let running = shared.running.fetch_add(1, Ordering::SeqCst) + 1;
    shared.peak.fetch_max(running, Ordering::SeqCst);
    {
        let mut slots = lock(&shared.slots);
        if slots[build].status == BuildStatus::Queued {
            slots[build].status = BuildStatus::Running;
        }
    }
    let request = &shared.requests[build];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        worker_fault_hooks();
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::with_shared(shared.registry.clone(), shared.layers.clone());
        let (image, output) =
            builder.build_stage(&mut kernel, &dag.plan, stage, &request.options, &deps);
        (image, output, kernel.counters)
    }));
    shared.running.fetch_sub(1, Ordering::SeqCst);

    let mut state = lock(&dag.state);
    state.inflight -= 1;
    let (image, output, counters) = match outcome {
        Ok(outcome) => outcome,
        // A panicked stage gets exactly one retry: the worker survived
        // (the panic was caught), the stage recorded nothing, and the
        // build's other stages are untouched — so requeue it and let
        // the batch proceed, marking the build degraded if it
        // ultimately succeeds. A second panic of the same stage fails
        // the build like any stage error.
        Err(_)
            if !shared.halted(build)
                && state.stages.error().is_none()
                && state.panicked.insert(stage) =>
        {
            drop(state);
            zr_fault::count_panic_retried();
            lock(&shared.queue).push(request.priority, task);
            shared.signal.notify();
            return;
        }
        Err(_) => (
            Err(BuildError::Instruction {
                instruction: 0,
                message: "builder panicked".into(),
            }),
            StageOutput::default(),
            Counters::default(),
        ),
    };
    state.counters += counters;
    if image.is_ok() {
        state.remaining -= 1;
    }
    let chunk = LogEvent::Stage {
        build,
        stage: dag.plan.stage_name(stage),
        lines: output.log.clone(),
    };
    state.stages.record(stage, image, output);
    // Streamed under the state lock: every chunk of a build precedes
    // the Done event its closing stage sends.
    publish(shared, build, chunk);
    let halted = state.stages.error().is_some() || shared.halted(build);
    if state.remaining == 0 || (halted && state.inflight == 0) {
        close(shared, build, dag, &mut state);
    } else if !halted {
        // Plan order keeps the release (and therefore single-worker
        // execution) order deterministic.
        let mut released = false;
        let mut queue = lock(&shared.queue);
        for &next in dag.plan.order() {
            if !dag.plan.stages()[next].deps.contains(&stage) {
                continue;
            }
            let Some(count) = state.pending.get_mut(&next) else {
                continue;
            };
            *count -= 1;
            if *count == 0 {
                state.pending.remove(&next);
                queue.push(request.priority, Task { build, stage: next });
                released = true;
            }
        }
        drop(queue);
        if released {
            shared.signal.notify();
        }
    }
}

/// The resident pool's shared state: live batches in submission order
/// (completed ones are pruned on the next submit), the signal idle
/// workers park on, and the shutdown flag.
#[derive(Default)]
struct Pool {
    batches: Mutex<Vec<Arc<BatchShared>>>,
    signal: Arc<WorkSignal>,
    shutdown: AtomicBool,
}

/// Resident worker `index` of `size`: run a task from the earliest live
/// batch that has one, park when every batch is drained, and exit on
/// shutdown once nothing is left. In a batch with high-priority work
/// the first half of the pool prefers the high queue (a lone worker
/// drains it first — strict priority) and the rest prefer the normal
/// queue; every worker steals from the other class when its own is
/// empty.
fn worker(pool: &Pool, index: usize, size: usize) {
    let prefers_high = index < size.div_ceil(2);
    loop {
        let grabbed = lock(&pool.batches).iter().find_map(|batch| {
            let affinity = if batch.has_high && prefers_high {
                Affinity::High
            } else {
                Affinity::Normal
            };
            let (task, stolen) = lock(&batch.queue).pop_for(affinity)?;
            Some((Arc::clone(batch), task, stolen))
        });
        match grabbed {
            Some((batch, task, stolen)) => {
                if stolen {
                    batch.steals.fetch_add(1, Ordering::SeqCst);
                }
                run_task(&batch, task);
            }
            None if pool.shutdown.load(Ordering::SeqCst) => return,
            None => pool.signal.wait_until(|| {
                pool.shutdown.load(Ordering::SeqCst)
                    || lock(&pool.batches)
                        .iter()
                        .any(|b| !lock(&b.queue).is_empty())
            }),
        }
    }
}

/// A submitted batch: poll statuses, cancel, subscribe to logs, and
/// wait for the reports.
pub struct BatchHandle {
    shared: Arc<BatchShared>,
}

impl BatchHandle {
    /// Current status of request `idx` (input order).
    pub fn status(&self, idx: usize) -> Option<BuildStatus> {
        lock(&self.shared.slots).get(idx).map(|s| s.status)
    }

    /// Current status of every request, in input order.
    pub fn statuses(&self) -> Vec<BuildStatus> {
        lock(&self.shared.slots).iter().map(|s| s.status).collect()
    }

    /// Cancel every build that has not started yet. Running builds
    /// (and running stages) finish; queued work ends
    /// [`BuildStatus::Cancelled`]. For a multi-stage build this
    /// cancels its queued *descendant stages* too: completed stages
    /// stop releasing dependents the moment the flag is up.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::SeqCst);
        self.shared.signal.notify();
    }

    /// Cancel one build by request index. Its queued tasks (including
    /// not-yet-released stages) never run; stages already on a worker
    /// finish, and the last one finalizes the build as `Cancelled`.
    /// Other builds in the batch are untouched.
    pub fn cancel_build(&self, idx: usize) {
        let Some(flag) = self.shared.build_cancelled.get(idx) else {
            return;
        };
        flag.store(true, Ordering::SeqCst);
        if let Some(dag) = &self.shared.dags[idx] {
            let mut state = lock(&dag.state);
            if state.inflight == 0 {
                close(&self.shared, idx, dag, &mut state);
            }
        }
        self.shared.signal.notify();
    }

    /// High-water mark of tasks executing at once — ≥ 2 proves that
    /// independent stages (or builds) actually overlapped.
    pub fn peak_concurrency(&self) -> usize {
        self.shared.peak.load(Ordering::SeqCst)
    }

    /// How many queue pops crossed priority classes (an idle worker
    /// taking the other class's work instead of parking).
    pub fn steals(&self) -> usize {
        self.shared.steals.load(Ordering::SeqCst)
    }

    /// Subscribe to build `idx`'s log stream: one [`LogEvent::Stage`]
    /// per completed stage, then [`LogEvent::Done`]. Subscribing after
    /// work started replays every event already streamed, so the
    /// receiver always sees a complete history. An index outside the
    /// batch yields a closed receiver.
    pub fn subscribe(&self, idx: usize) -> mpsc::Receiver<LogEvent> {
        let (tx, rx) = mpsc::channel();
        if let Some(stream) = lock(&self.shared.streams).get_mut(idx) {
            for event in &stream.history {
                let _ = tx.send(event.clone());
            }
            stream.subscribers.push(tx);
        }
        rx
    }

    /// Block until every build is terminal and return one report per
    /// request, in input order.
    pub fn wait(self) -> Vec<BuildReport> {
        let shared = &self.shared;
        shared.signal.wait_until(|| shared.is_complete());
        let mut slots = lock(&shared.slots);
        shared
            .requests
            .iter()
            .zip(slots.iter_mut())
            .map(|(request, slot)| BuildReport {
                id: request.id.clone(),
                status: slot.status,
                result: slot.result.take().expect("a terminal build has a result"),
                counters: slot.counters,
                seq: slot.seq,
            })
            .collect()
    }
}

/// The build scheduler: a resident worker pool over one shared registry
/// and one shared layer cache.
///
/// The `jobs` workers start when the scheduler is built and live until
/// it is dropped; every batch submitted runs on them, earliest batch
/// first. The registry's pull-through blob cache and the layer store
/// persist across batches, so a second batch of familiar Dockerfiles
/// replays instead of executing.
///
/// ```
/// use zr_sched::{BuildRequest, Scheduler, SchedulerConfig};
///
/// let sched = Scheduler::new(SchedulerConfig { jobs: 2, ..SchedulerConfig::default() });
/// let first = sched.build_many(vec![BuildRequest::new("a", "FROM alpine:3.19\n")]);
/// let second = sched.build_many(vec![BuildRequest::new("b", "FROM alpine:3.19\n")]);
/// assert!(first[0].result.success && second[0].result.success);
/// // Same pool, same caches: the second batch replayed the pull.
/// assert_eq!(second[0].result.cache.misses, 0);
/// ```
pub struct Scheduler {
    fail_fast: bool,
    registry: Arc<ShardedRegistry>,
    layers: LayerStore,
    /// The persistent tier behind `cache_dir`, kept so callers can
    /// surface absorbed store errors and stats (persist failures must
    /// not fail builds, but they must not be invisible either).
    disk: Option<Arc<zr_store::DiskLayers>>,
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new(SchedulerConfig::default())
    }
}

impl Scheduler {
    /// A scheduler with its own registry and layer cache, built from
    /// `config`. Panics if `config.cache_dir` cannot be opened — use
    /// [`try_new`](Self::try_new) to surface store errors.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        Scheduler::try_new(config).expect("cannot open --cache-dir store")
    }

    /// [`new`](Self::new), with persistent-store failures returned
    /// instead of panicking.
    pub fn try_new(config: SchedulerConfig) -> zr_store::Result<Scheduler> {
        let backend = config
            .backend
            .clone()
            .unwrap_or_else(|| Arc::new(CatalogBackend));
        let registry = Arc::new(ShardedRegistry::with_backend(config.pull_cost, backend));
        registry.set_blob_budget(config.blob_budget);
        let (layers, disk) = match &config.cache_dir {
            Some(dir) => {
                let (layers, disk) = zr_store::open_layer_store(dir)?;
                layers.set_budget(config.cache_limit);
                // No flag given → keep the budget the store persisted
                // at its last `--store-limit`; an explicit flag wins
                // and is re-persisted by `set_budget`.
                if let Some(limit) = config.store_limit {
                    disk.cas().set_budget(limit)?;
                }
                (layers, Some(disk))
            }
            None => (LayerStore::with_budget(config.cache_limit), None),
        };
        let pool = Arc::new(Pool::default());
        let size = config.jobs.max(1);
        let workers = (0..size)
            .map(|index| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker(&pool, index, size))
            })
            .collect();
        Ok(Scheduler {
            fail_fast: config.fail_fast,
            registry,
            layers,
            disk,
            pool,
            workers,
        })
    }

    /// The shared registry handle.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        &self.registry
    }

    /// The shared layer-cache handle.
    pub fn layers(&self) -> &LayerStore {
        &self.layers
    }

    /// The persistent store tier, when the scheduler was built with a
    /// `cache_dir` (error counters, CAS stats, gc).
    pub fn disk(&self) -> Option<&Arc<zr_store::DiskLayers>> {
        self.disk.as_ref()
    }

    /// Plan a batch, enqueue it on the resident pool, and return
    /// immediately with a [`BatchHandle`].
    pub fn submit(&self, requests: Vec<BuildRequest>) -> BatchHandle {
        // Admission-path fault hooks (`sched.daemon.submit.*`): a
        // stall delays the enqueue (arg = milliseconds), widening the
        // submit/shutdown race window for soak runs.
        if let Some(ms) = zr_fault::hit(points::SCHED_DAEMON_SUBMIT_STALL) {
            std::thread::sleep(Duration::from_millis(if ms == 0 { 50 } else { ms }));
        }
        let shared = make_batch(
            requests,
            self.fail_fast,
            self.registry.clone(),
            self.layers.clone(),
            self.pool.signal.clone(),
        );
        // A poisoned submit panics inside the batch list's critical
        // section (poisoning the mutex exactly as a crashed submitter
        // would). The panic is absorbed here and the enqueue retried:
        // resident workers recover poisoned guards, so the pool must
        // ride it out.
        let enqueue = |poison: bool| {
            let mut batches = lock(&self.pool.batches);
            if poison && zr_fault::fires(points::SCHED_DAEMON_SUBMIT_POISON) {
                panic!("injected submit poison");
            }
            batches.retain(|b| !b.is_complete());
            batches.push(Arc::clone(&shared));
        };
        if catch_unwind(AssertUnwindSafe(|| enqueue(true))).is_err() {
            zr_fault::count_retry();
            enqueue(false);
        }
        self.pool.signal.notify();
        BatchHandle { shared }
    }

    /// Build a whole batch and block for its reports, in input order.
    pub fn build_many(&self, requests: Vec<BuildRequest>) -> Vec<BuildReport> {
        self.submit(requests).wait()
    }
}

impl Drop for Scheduler {
    /// Stop the pool: the workers finish every queued task, then exit
    /// and are joined.
    fn drop(&mut self) {
        self.pool.shutdown.store(true, Ordering::SeqCst);
        self.pool.signal.notify();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
