//! `dag-batch`: one process sends a series of batches; each batch gets
//! a fresh in-memory `Scheduler` with `jobs = nproc` and `build_many`
//! runs its requests. The loop is closed: the next batch is sent when
//! the previous one has finished.

use std::time::Instant;

use zeroroot_core::Mode;
use zr_build::{BuildOptions, Builder};
use zr_image::LayerStore;
use zr_kernel::Kernel;
use zr_plan::BuildPlan;
use zr_sched::{BuildReport, BuildRequest, LogEvent, Scheduler};

use crate::gen::{self, DagRequest};
use crate::replay::{add, Counts};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{Closed, Deadline, Layers, RunConfig};

struct Dag {
    batches: Vec<Vec<DagRequest>>,
    /// The serial `Builder::build` digest of every request, by batch.
    refs: Vec<Vec<String>>,
    jobs: usize,
}

fn options(request: &DagRequest) -> BuildOptions {
    BuildOptions::new(&request.id, Mode::Seccomp)
}

fn requests(batch: &[DagRequest]) -> Vec<BuildRequest> {
    batch
        .iter()
        .map(|r| {
            let request = BuildRequest::with_options(&r.id, &r.dockerfile, options(r));
            if r.high_priority {
                request.high_priority()
            } else {
                request
            }
        })
        .collect()
}

/// Generate the batches and build every request serially for its
/// reference digest.
fn setup(seed: u64) -> Result<Dag, String> {
    let batches = gen::dag_batches(seed);
    let mut builder = Builder::with_shared(crate::registry(), LayerStore::new());
    let mut refs = Vec::new();
    for batch in &batches {
        let mut digests = Vec::new();
        for r in batch {
            let result = builder.build(&mut Kernel::default_kernel(), &r.dockerfile, &options(r));
            let image = result.image.filter(|_| result.success).ok_or_else(|| {
                format!("serial build of {} failed: {}", r.id, result.log.join("\n"))
            })?;
            digests.push(image.digest());
        }
        refs.push(digests);
    }
    Ok(Dag {
        batches,
        refs,
        jobs: crate::nproc(),
    })
}

pub fn run(cfg: &RunConfig) -> Report {
    crate::drive(cfg, setup, measured, traced)
}

/// The dag-batch oracle: every build succeeded and its digest equals
/// the serial build's. Returns the number of good builds.
fn check(report: &mut Report, dag: &Dag, b: usize, reports: &[BuildReport]) -> u64 {
    report.attempted += reports.len() as u64;
    let mut good = 0;
    for (r, want) in reports.iter().zip(&dag.refs[b]) {
        match &r.result.image {
            Some(image) if r.status.succeeded() => {
                if image.digest() == *want {
                    good += 1;
                } else {
                    report.wrong(format!("{}: digest differs from the serial build", r.id));
                }
            }
            _ => report.fail(format!("{}: {} ({})", r.id, r.status, r.result.log_text())),
        }
    }
    good
}

fn measured(
    _cfg: &RunConfig,
    dag: &mut Dag,
    report: &mut Report,
    deadline: &mut Deadline,
) -> Closed {
    let mut closed = Closed::default();
    let mut b = 0;
    while deadline.more(report) {
        let idx = b % dag.batches.len();
        if idx == 0 && b > 0 {
            closed.end_pass();
        }
        b += 1;
        let sched = Scheduler::new(crate::sched_config(dag.jobs));
        let batch = requests(&dag.batches[idx]);
        let start = Instant::now();
        let reports = sched.build_many(batch);
        let secs = start.elapsed().as_secs_f64();
        let good = check(report, dag, idx, &reports);
        closed.record(secs, secs, good);
    }
    report.notes.push(format!(
        "build_ms is per batch of {} requests, jobs={}",
        gen::DAG_BATCH_SIZE,
        dag.jobs
    ));
    closed
}

/// Sums over the traced batches.
#[derive(Default)]
struct Totals {
    quiet_ns: f64,
    traced_ns: f64,
    serial_ns: f64,
    batches: f64,
    builds: f64,
}

/// The traced run. Per batch: the batch untraced and traced on fresh
/// schedulers, in alternating order (the traced one subscribes to every
/// build, reads the scheduler's peak concurrency and steals, and digests
/// each output in a span), then the same requests built serially by one
/// `Builder` — the work the scheduler's efficiency is measured against.
fn traced(cfg: &RunConfig, dag: &mut Dag, report: &mut Report) {
    let mut tr = Tracer::new(true);
    let mut counts = Counts::new();
    let mut t = Totals::default();
    let mut deadline = Deadline::start(cfg);
    let mut b = 0usize;
    while deadline.more(report) {
        let idx = b % dag.batches.len();
        tr.set_build(b as u64);
        for traced in [b.is_multiple_of(2), !b.is_multiple_of(2)] {
            let sched = Scheduler::new(crate::sched_config(dag.jobs));
            let batch = requests(&dag.batches[idx]);
            if !traced {
                let start = Instant::now();
                let reports = sched.build_many(batch);
                t.quiet_ns += start.elapsed().as_nanos() as f64;
                check(report, dag, idx, &reports);
                continue;
            }
            for r in &dag.batches[idx] {
                let df = tr.span("dockerfile.parse", || zr_dockerfile::parse(&r.dockerfile));
                if let Ok(df) = df {
                    if let Ok(plan) = tr.span("plan.compile", || BuildPlan::compile(&df, None)) {
                        add(&mut counts, "plan.stages_run", plan.order().len() as f64);
                        add(
                            &mut counts,
                            "plan.stages_pruned",
                            plan.pruned().len() as f64,
                        );
                    }
                }
            }
            let start = Instant::now();
            let open = tr.begin("sched.batch");
            let handle = sched.submit(batch);
            let feeds: Vec<_> = (0..gen::DAG_BATCH_SIZE)
                .map(|i| handle.subscribe(i))
                .collect();
            for feed in feeds {
                while let Ok(event) = feed.recv() {
                    if matches!(event, LogEvent::Done { .. }) {
                        break;
                    }
                }
            }
            add(
                &mut counts,
                "sched.peak_concurrency",
                handle.peak_concurrency() as f64,
            );
            add(&mut counts, "sched.steals", handle.steals() as f64);
            let reports = handle.wait();
            tr.end(open);
            t.traced_ns += start.elapsed().as_nanos() as f64;
            t.builds += check(report, dag, idx, &reports) as f64;
            for r in &reports {
                if let Some(image) = &r.result.image {
                    tr.span("image.digest", || image.digest());
                }
                add(&mut counts, "build.cache_hits", r.result.cache.hits as f64);
                add(
                    &mut counts,
                    "build.cache_misses",
                    r.result.cache.misses as f64,
                );
            }
            let registry = sched.registry().stats();
            add(&mut counts, "image.pulls", registry.pulls as f64);
            add(&mut counts, "image.fetches", registry.fetches as f64);
            add(&mut counts, "image.blob_hits", registry.blob_hits as f64);
            let layers = sched.layers().stats();
            add(
                &mut counts,
                "image.layer_dedup_saved_bytes",
                layers.dedup_saved() as f64,
            );
        }
        // The serial arm: the same requests through one builder (shared
        // layer cache and registry, as the scheduler's workers share
        // theirs), each on a fresh kernel whose counters are read.
        let mut builder = Builder::with_shared(crate::registry(), LayerStore::new());
        for r in &dag.batches[idx] {
            let mut kernel = Kernel::default_kernel();
            let start = Instant::now();
            let result = builder.build(&mut kernel, &r.dockerfile, &options(r));
            t.serial_ns += start.elapsed().as_nanos() as f64;
            crate::kernel_counts(&mut counts, &kernel.counters);
            if !result.success {
                report.fail(format!("serial {}: {}", r.id, result.log_text()));
            }
        }
        t.batches += 1.0;
        b += 1;
    }
    let mut layers = Layers::default();
    layers.span_medians(&tr);
    crate::kernel_and_vfs(&mut layers, &counts, t.builds);
    let per_batch = |name: &str| counts.get(name).copied().unwrap_or(0.0) / t.batches.max(1.0);
    layers.set(
        "sched.peak_concurrency",
        per_batch("sched.peak_concurrency"),
    );
    layers.set("sched.steals", per_batch("sched.steals"));
    layers.set(
        "image.layer_dedup_saved_bytes",
        per_batch("image.layer_dedup_saved_bytes"),
    );
    let capacity = dag.jobs as f64 * t.quiet_ns;
    layers.ratio(
        "sched.efficiency",
        t.serial_ns,
        capacity,
        format!(
            "{:.1} ms serial Builder::build / ({} jobs x {:.1} ms batch wall)",
            t.serial_ns / 1e6,
            dag.jobs,
            t.quiet_ns / 1e6
        ),
    );
    // No layer spans run inside the scheduler's builds: all of their
    // time is uncovered.
    crate::coverage(&mut layers, 0.0, t.serial_ns, t.traced_ns, t.quiet_ns);
    layers.emit(report);
    crate::write_spans(cfg, &tr, report);
}
