//! # zr-benchmark — the repository benchmark
//!
//! Three seeded closed-loop workloads driven through the public API of
//! the workspace crates from one process (see `README.md` for why each
//! was chosen and what each metric means):
//!
//! * `cold-seccomp` — serial `--no-cache` builds under the seccomp filter;
//! * `edit-rebuild-push` — edit, rebuild on a persistent cache dir,
//!   export, push and pull over a loopback registry;
//! * `dag-batch` — batches of multi-stage builds on a fresh scheduler.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays
//! the same inputs layer by layer and reports the per-layer metrics.
//! No registry or scheduler the benchmark builds has a modeled pull
//! latency: [`zero_cost`] is the only cost it hands out, and it asserts
//! that cost is zero.

pub mod gen;
pub mod replay;
pub mod report;
pub mod trace;

mod cold;
mod dag;
mod edit;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zr_image::{PullCost, RegistryStats, ShardedRegistry};
use zr_sched::SchedulerConfig;

use report::{median, peak_rss_mb, quantile, Report};
use trace::Tracer;

/// Each run sets up at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_SECONDS`] before its loop, then a measured run sets up once
/// more every [`SETUP_EVERY`] seconds between requests, so `setup_s`,
/// the median of all of them, samples the whole run.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_SECONDS: f64 = 0.5;
pub const SETUP_EVERY: f64 = 2.0;
/// Upper bound on set-ups before the loop.
const SETUP_MAX: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSeccomp,
    EditRebuildPush,
    DagBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdSeccomp,
        Workload::EditRebuildPush,
        Workload::DagBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSeccomp => "cold-seccomp",
            Workload::EditRebuildPush => "edit-rebuild-push",
            Workload::DagBatch => "dag-batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload was chosen (also recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdSeccomp => gen::COLD_WHY,
            Workload::EditRebuildPush => gen::EDIT_WHY,
            Workload::DagBatch => gen::DAG_WHY,
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured (or traced) loop.
    pub seconds: f64,
    pub trace: bool,
    /// Working space for cache dirs, registries and layouts; created
    /// and removed by the run.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans (JSON lines).
    pub span_file: Option<PathBuf>,
}

/// Run one workload. Every failure is accounted in the report.
pub fn run(workload: Workload, cfg: &RunConfig) -> Report {
    let _ = zero_cost();
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let report = match std::fs::create_dir_all(&cfg.work_dir) {
        Ok(()) => match workload {
            Workload::ColdSeccomp => cold::run(cfg),
            Workload::EditRebuildPush => edit::run(cfg),
            Workload::DagBatch => dag::run(cfg),
        },
        Err(e) => {
            let mut r = Report::default();
            r.fail(format!("work dir {}: {e}", cfg.work_dir.display()));
            r
        }
    };
    remove_and_settle(&cfg.work_dir);
    report
}

/// Remove `dir`, then sync its parent so the filesystem commits the
/// removal now. On a filesystem mounted with online discard the commit
/// waits for the freed blocks to be discarded; doing that here keeps
/// the cost out of the next run's measurements.
fn remove_and_settle(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        if let Ok(handle) = std::fs::File::open(parent) {
            let _ = handle.sync_all();
        }
    }
}

/// The only pull cost the benchmark hands out. Asserts it is zero, so
/// no edit can bring a modeled sleep back into a measurement.
pub fn zero_cost() -> PullCost {
    let cost = PullCost::default();
    assert!(
        cost.round_trip.is_zero() && cost.fetch.is_zero(),
        "the benchmark must not measure modeled registry latency: {cost:?}"
    );
    cost
}

/// A registry with the default shard count and no modeled latency.
pub fn registry() -> Arc<ShardedRegistry> {
    Arc::new(ShardedRegistry::with_cost(
        ShardedRegistry::DEFAULT_SHARDS,
        zero_cost(),
    ))
}

/// Scheduler settings for a batch: `jobs` workers, in-memory caches,
/// no modeled latency.
pub fn sched_config(jobs: usize) -> SchedulerConfig {
    let config = SchedulerConfig {
        jobs,
        pull_cost: zero_cost(),
        ..SchedulerConfig::default()
    };
    assert_eq!(config.pull_cost, zero_cost());
    config
}

/// Worker count for the scheduler: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Drive one workload: set up, then run the traced loop or the
/// measured one on the last set-up.
pub fn drive<T>(
    cfg: &RunConfig,
    setup: impl Fn(u64) -> Result<T, String>,
    measured: impl FnOnce(&RunConfig, &mut T, &mut Report, &mut Deadline) -> Closed,
    traced: impl FnOnce(&RunConfig, &mut T, &mut Report),
) -> Report {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut state = match setups(&mut times, || setup(cfg.seed)) {
        Ok(state) => state,
        Err(e) => {
            report.fail(format!("setup: {e}"));
            return report;
        }
    };
    if cfg.trace {
        traced(cfg, &mut state, &mut report);
        return report;
    }
    let mut setup_again = || {
        let start = Instant::now();
        drop(setup(cfg.seed)?);
        times.push(start.elapsed().as_secs_f64());
        Ok(())
    };
    let mut deadline = Deadline::start(cfg);
    deadline.setup = Some(&mut setup_again);
    let closed = measured(cfg, &mut state, &mut report, &mut deadline);
    end_to_end(&mut report, &times, &closed);
    report
}

/// Run `setup` repeatedly (see [`SETUP_REPEATS`]), appending each
/// duration (seconds) to `times`; return the last result. Earlier
/// results are dropped before the next set-up starts, so each repeat
/// sets up from scratch.
fn setups<T>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    let begin = Instant::now();
    let mut n = 0;
    while n < SETUP_REPEATS || (begin.elapsed().as_secs_f64() < SETUP_SECONDS && n < SETUP_MAX) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
        n += 1;
    }
    Ok(last.expect("at least one set-up"))
}

/// Closed-loop samples in windows. A window is one full pass over the
/// seed's inputs, so every window measures the same work; the
/// end-to-end metrics are taken across windows (see [`end_to_end`]),
/// which keeps a burst of interference from other processes on the
/// machine out of the result.
#[derive(Debug, Default)]
pub struct Closed {
    windows: Vec<Window>,
    current: Window,
}

/// One pass: a latency per completed request and the summed time the
/// system spent on requests (oracle checks and input preparation
/// between requests are excluded).
#[derive(Debug, Default)]
struct Window {
    latency_ms: Vec<f64>,
    busy_s: f64,
    builds: u64,
}

impl Closed {
    /// One completed request: its latency, the time the system spent on
    /// it (the latency plus any untimed-by-`latency` steps of the same
    /// request), and the builds it completed.
    pub fn record(&mut self, latency_s: f64, busy_s: f64, builds: u64) {
        self.current.latency_ms.push(latency_s * 1e3);
        self.current.busy_s += busy_s;
        self.current.builds += builds;
    }

    /// The loop finished a pass over its inputs.
    pub fn end_pass(&mut self) {
        self.windows.push(std::mem::take(&mut self.current));
    }

    /// Complete passes, or the partial one when none completed (a run
    /// too short for a full pass).
    fn windows(&self) -> Vec<&Window> {
        if self.windows.is_empty() {
            vec![&self.current]
        } else {
            self.windows.iter().collect()
        }
    }
}

/// When a loop ends — `seconds` after it starts, but never before one
/// request has been attempted — and, for a measured loop, when it sets
/// up again (see [`SETUP_EVERY`]).
pub struct Deadline<'a> {
    end: Instant,
    next_setup: Instant,
    setup: Option<&'a mut dyn FnMut() -> Result<(), String>>,
}

impl<'a> Deadline<'a> {
    pub fn start(cfg: &RunConfig) -> Deadline<'a> {
        let now = Instant::now();
        Deadline {
            end: now + Duration::from_secs_f64(cfg.seconds),
            next_setup: now + Duration::from_secs_f64(SETUP_EVERY),
            setup: None,
        }
    }

    /// Should the loop send another request? Called between requests,
    /// so a set-up that falls due runs here, outside any timing.
    pub fn more(&mut self, report: &mut Report) -> bool {
        if let Some(setup) = &mut self.setup {
            if Instant::now() >= self.next_setup {
                if let Err(e) = setup() {
                    report.fail(format!("setup: {e}"));
                }
                self.next_setup = Instant::now() + Duration::from_secs_f64(SETUP_EVERY);
            }
        }
        report.attempted == 0 || Instant::now() < self.end
    }
}

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_ms.p50", "ms"),
    ("build_ms.p90", "ms"),
    ("builds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Report every end-to-end metric ([`END_TO_END`]).
pub fn end_to_end(report: &mut Report, setup: &[f64], closed: &Closed) {
    let windows = closed.windows();
    // Interference from other processes only ever adds time, and on a
    // shared machine it comes in spells of seconds, so each metric takes
    // its fastest decile of per-pass values: the 10th percentile of
    // latencies, the 90th of rates.
    let across = |q: f64, f: &dyn Fn(&Window) -> f64| {
        quantile(&windows.iter().map(|w| f(w)).collect::<Vec<f64>>(), q)
    };
    report.push("setup_s", median(setup), "s");
    report.push(
        "build_ms.p50",
        across(QUIET, &|w| quantile(&w.latency_ms, 0.5)),
        "ms",
    );
    report.push(
        "build_ms.p90",
        across(QUIET, &|w| quantile(&w.latency_ms, 0.9)),
        "ms",
    );
    report.push(
        "builds_per_s",
        across(1.0 - QUIET, &|w| {
            if w.busy_s > 0.0 {
                w.builds as f64 / w.busy_s
            } else {
                0.0
            }
        }),
        "1/s",
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    report.notes.push(format!(
        "{} passes over the inputs, {} requests timed, {} builds completed; \
         {} set-ups",
        windows.len(),
        windows.iter().map(|w| w.latency_ms.len()).sum::<usize>(),
        windows.iter().map(|w| w.builds).sum::<u64>(),
        setup.len()
    ));
    let p50s: Vec<f64> = windows
        .iter()
        .map(|w| quantile(&w.latency_ms, 0.5))
        .collect();
    report.notes.push(format!(
        "build_ms.p50 across passes: min {:.4}, fastest decile {:.4}, median {:.4}, max {:.4}",
        quantile(&p50s, 0.0),
        quantile(&p50s, QUIET),
        quantile(&p50s, 0.5),
        quantile(&p50s, 1.0)
    ));
}

/// The quantile across passes the end-to-end latencies report (rates
/// report its complement).
const QUIET: f64 = 0.1;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dockerfile.parse_us", "us"),
    ("plan.compile_us", "us"),
    ("plan.stages_run", "count/build"),
    ("plan.stages_pruned", "count/build"),
    ("image.pull_us", "us"),
    ("image.pulls", "count/build"),
    ("image.fetches", "count/build"),
    ("image.blob_hit_ratio", "ratio"),
    ("image.chown_all_us", "us"),
    ("kernel.container_create_us", "us"),
    ("seccomp.compile_us", "us"),
    ("core.prepare_us", "us"),
    ("core.teardown_us", "us"),
    ("kernel.exec_us", "us"),
    ("kernel.syscalls", "count/build"),
    ("kernel.bpf_insns", "count/build"),
    ("kernel.filter_evals", "count/build"),
    ("kernel.faked", "count/build"),
    ("kernel.denied", "count/build"),
    ("kernel.spawns", "count/build"),
    ("kernel.bpf_insns_per_syscall", "ratio"),
    ("vfs.snapshot_us", "us"),
    ("vfs.pages", "count/snap"),
    ("vfs.shared_pages", "count/snap"),
    ("image.digest_us", "us"),
    ("image.cache_key_us", "us"),
    ("build.cache_hits", "count/build"),
    ("build.cache_misses", "count/build"),
    ("build.cache_hit_ratio", "ratio"),
    ("image.layer_insert_us", "us"),
    ("image.layer_materialize_us", "us"),
    ("image.layer_disk_hits", "count/build"),
    ("image.layer_dedup_saved_bytes", "bytes"),
    ("store.persist_us", "us"),
    ("store.delta_share", "ratio"),
    ("store.bytes_written", "bytes/build"),
    ("store.chunk_dedup_saved_bytes", "bytes/build"),
    ("store.errors", "count"),
    ("store.export_us", "us"),
    ("store.import_us", "us"),
    ("store.layout_bytes", "bytes"),
    ("registry.push_layout_us", "us"),
    ("registry.pull_image_us", "us"),
    ("registry.retries", "count"),
    ("registry.timeouts", "count"),
    ("sched.peak_concurrency", "count/batch"),
    ("sched.steals", "count/batch"),
    ("sched.efficiency", "ratio"),
    ("build.uncovered_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Per-layer values gathered by a traced run: value plus, for ratios,
/// the counts it was taken over.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, (f64, Option<String>)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, None));
    }

    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64, base: String) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        self.0.insert(name, (value, Some(base)));
    }

    /// Median duration per call, in microseconds, of every span whose
    /// name is a per-layer `<name>_us` metric.
    pub fn span_medians(&mut self, tr: &Tracer) {
        for (span, durations) in tr.durations() {
            let name = format!("{span}_us");
            if let Some((metric, _)) = PER_LAYER.iter().find(|(m, _)| *m == name) {
                let us: Vec<f64> = durations.iter().map(|&ns| ns as f64 / 1000.0).collect();
                self.set(metric, median(&us));
            }
        }
    }

    /// Append every per-layer metric to `report`, in table order; a
    /// layer the workload never reaches reports 0.
    pub fn emit(self, report: &mut Report) {
        let mut values = self.0;
        for (name, unit) in PER_LAYER {
            let (value, base) = values.remove(name).unwrap_or((0.0, None));
            report.metrics.push(report::Metric {
                name: name.to_string(),
                value,
                unit,
                base,
            });
        }
        assert!(values.is_empty(), "unlisted per-layer metrics: {values:?}");
    }
}

/// Add the cost counters of one build's kernel (a fresh kernel per
/// build).
pub fn kernel_counts(counts: &mut replay::Counts, kernel: &zr_kernel::Counters) {
    for (name, value) in [
        ("kernel.syscalls", kernel.syscalls),
        ("kernel.bpf_insns", kernel.bpf_instructions),
        ("kernel.filter_evals", kernel.filter_evaluations),
        ("kernel.faked", kernel.faked),
        ("kernel.denied", kernel.denied),
        ("kernel.spawns", kernel.spawns),
    ] {
        replay::add(counts, name, value as f64);
    }
}

/// Add the counters read around one real `Builder::build` call: its
/// kernel's, the shared registry's usage and the build's cache
/// statistics.
pub fn real_counts(
    counts: &mut replay::Counts,
    kernel: &zr_kernel::Counters,
    (before, after): (&RegistryStats, &RegistryStats),
    cache: &zr_build::CacheStats,
) {
    kernel_counts(counts, kernel);
    for (name, value) in [
        ("image.pulls", after.pulls - before.pulls),
        ("image.fetches", after.fetches - before.fetches),
        ("image.blob_hits", after.blob_hits - before.blob_hits),
        ("build.cache_hits", u64::from(cache.hits)),
        ("build.cache_misses", u64::from(cache.misses)),
    ] {
        replay::add(counts, name, value as f64);
    }
}

/// Per-build averages of the summed counters, and the ratios built on
/// them.
pub fn kernel_and_vfs(layers: &mut Layers, counts: &replay::Counts, builds: f64) {
    let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let per_build = |name: &str| {
        if builds > 0.0 {
            get(name) / builds
        } else {
            0.0
        }
    };
    for name in [
        "plan.stages_run",
        "plan.stages_pruned",
        "image.pulls",
        "image.fetches",
        "build.cache_hits",
        "build.cache_misses",
        "kernel.syscalls",
        "kernel.bpf_insns",
        "kernel.filter_evals",
        "kernel.faked",
        "kernel.denied",
        "kernel.spawns",
    ] {
        layers.set(name, per_build(name));
    }
    layers.ratio(
        "image.blob_hit_ratio",
        get("image.blob_hits"),
        get("image.pulls"),
        format!(
            "{} blob hits / {} pulls",
            get("image.blob_hits"),
            get("image.pulls")
        ),
    );
    layers.ratio(
        "kernel.bpf_insns_per_syscall",
        get("kernel.bpf_insns"),
        get("kernel.syscalls"),
        format!(
            "{} BPF insns / {} syscalls",
            get("kernel.bpf_insns"),
            get("kernel.syscalls")
        ),
    );
    let (hits, misses) = (get("build.cache_hits"), get("build.cache_misses"));
    layers.ratio(
        "build.cache_hit_ratio",
        hits,
        hits + misses,
        format!("{hits} hits / {} instructions", hits + misses),
    );
    let snaps = get("vfs.snapshots");
    if snaps > 0.0 {
        layers.set("vfs.pages", get("vfs.pages") / snaps);
        layers.set("vfs.shared_pages", get("vfs.shared_pages") / snaps);
    }
}

/// The replay-versus-build shares every traced run reports.
pub fn coverage(
    layers: &mut Layers,
    covered_ns: f64,
    build_ns: f64,
    traced_ns: f64,
    quiet_ns: f64,
) {
    layers.ratio(
        "build.uncovered_share",
        build_ns - covered_ns,
        build_ns,
        format!(
            "{:.1} ms Builder::build not covered by layer spans / {:.1} ms",
            (build_ns - covered_ns) / 1e6,
            build_ns / 1e6
        ),
    );
    layers.ratio(
        "bench.trace_overhead_share",
        traced_ns - quiet_ns,
        quiet_ns,
        format!(
            "{:.1} ms traced - {:.1} ms untraced replay / untraced",
            traced_ns / 1e6,
            quiet_ns / 1e6
        ),
    );
}

/// Write the traced run's spans, if a span file was requested.
pub fn write_spans(cfg: &RunConfig, tr: &Tracer, report: &mut Report) {
    if let Some(path) = &cfg.span_file {
        match tr.write_jsonl(path) {
            Ok(()) => report.notes.push(format!(
                "{} spans written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
}
