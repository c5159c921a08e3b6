//! `cold-seccomp`: one client, serial `Builder::build` calls with
//! `CacheMode::Disabled` under `Mode::Seccomp`, over a seeded corpus.

use std::time::Instant;

use zeroroot_core::Mode;
use zr_build::{BuildOptions, BuildResult, Builder, CacheMode};
use zr_image::{Image, ImageRef, LayerStore};
use zr_kernel::Kernel;
use zr_vfs::access::Access;
use zr_vfs::fs::FollowMode;

use crate::gen::{self, ColdFile};
use crate::replay::{self, Counts};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{Closed, Deadline, Layers, RunConfig};

const TAG: &str = "cold";

struct Cold {
    corpus: Vec<ColdFile>,
    builder: Builder,
    opts: BuildOptions,
    /// The digest each corpus file built to at set-up; every later build
    /// of the same file must match it.
    digests: Vec<String>,
}

/// Generate the corpus and warm the builder: every base pulled into the
/// registry's blob cache, and every file built once for its reference
/// digest.
fn setup(seed: u64) -> Result<Cold, String> {
    let corpus = gen::cold_corpus(seed);
    let mut builder = Builder::with_shared(crate::registry(), LayerStore::new());
    for (base, _) in gen::BASES {
        let reference = ImageRef::parse(base).ok_or("catalog reference")?;
        builder
            .registry
            .pull(&reference)
            .map_err(|e| format!("warm pull {base}: {e}"))?;
    }
    let opts = BuildOptions {
        cache: CacheMode::Disabled,
        ..BuildOptions::new(TAG, Mode::Seccomp)
    };
    let mut digests = Vec::new();
    for file in &corpus {
        let result = builder.build(&mut Kernel::default_kernel(), &file.dockerfile, &opts);
        match result.image.filter(|_| result.success) {
            Some(image) => digests.push(image.digest()),
            None => return Err(format!("warm-up build failed: {}", result.log.join("\n"))),
        }
    }
    Ok(Cold {
        corpus,
        builder,
        opts,
        digests,
    })
}

pub fn run(cfg: &RunConfig) -> Report {
    crate::drive(cfg, setup, measured, traced)
}

fn measured(
    _cfg: &RunConfig,
    cold: &mut Cold,
    report: &mut Report,
    deadline: &mut Deadline,
) -> Closed {
    let mut closed = Closed::default();
    let mut i = 0;
    while deadline.more(report) {
        let idx = i % cold.corpus.len();
        if idx == 0 && i > 0 {
            closed.end_pass();
        }
        i += 1;
        let mut kernel = Kernel::default_kernel();
        let start = Instant::now();
        let result = cold
            .builder
            .build(&mut kernel, &cold.corpus[idx].dockerfile, &cold.opts);
        let secs = start.elapsed().as_secs_f64();
        report.attempted += 1;
        if let Some(image) = built(report, &result) {
            closed.record(secs, secs, 1);
            check(report, cold, idx, image, &kernel);
        }
    }
    closed
}

/// The build's image, or the failure recorded.
fn built<'r>(report: &mut Report, result: &'r BuildResult) -> Option<&'r Image> {
    match &result.image {
        Some(image) if result.success => Some(image),
        _ => {
            report.fail(format!("build failed: {}", result.log_text()));
            None
        }
    }
}

/// The cold-seccomp oracles: memoized digest equals the full rehash;
/// the same file always builds to the same digest; every file the RUN
/// `chown`ed still belongs to the unpacking user (zero consistency: the
/// faked call changed nothing) with the `chmod` applied; no faked
/// device node exists.
fn check(report: &mut Report, cold: &Cold, idx: usize, image: &Image, kernel: &Kernel) {
    let digest = image.digest();
    if digest != image.digest_uncached() {
        report.wrong(format!("file {idx}: digest() != digest_uncached()"));
    }
    if digest != cold.digests[idx] {
        report.wrong(format!("file {idx}: digest differs from its set-up build"));
    }
    let owner = (kernel.config.host_uid, kernel.config.host_gid);
    let file = &cold.corpus[idx];
    for (path, perm) in &file.chowned {
        match image.fs.stat(path, &Access::root(), FollowMode::Follow) {
            Ok(st) if (st.uid, st.gid) == owner && st.mode & 0o7777 == *perm => {}
            Ok(st) => report.wrong(format!(
                "file {idx}: {path} is {}:{} {:o}, want {}:{} {perm:o}",
                st.uid,
                st.gid,
                st.mode & 0o7777,
                owner.0,
                owner.1
            )),
            Err(e) => report.wrong(format!("file {idx}: {path}: {e}")),
        }
    }
    for dev in &file.devices {
        if image
            .fs
            .stat(dev, &Access::root(), FollowMode::NoFollow)
            .is_ok()
        {
            report.wrong(format!("file {idx}: faked mknod {dev} left a node"));
        }
    }
}

/// The traced run: each input is built by `Builder::build` (untimed
/// spans, the reference wall time), then replayed layer by layer twice —
/// once with spans off and once with spans on, in alternating order —
/// and the replayed tree is checked against the build's.
fn traced(cfg: &RunConfig, cold: &mut Cold, report: &mut Report) {
    let mut tr = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut counts = Counts::new();
    let mut discarded = Counts::new();
    let (mut build_ns, mut traced_ns, mut quiet_ns) = (0.0, 0.0, 0.0);
    let mut builds = 0.0;
    let mut deadline = Deadline::start(cfg);
    let mut i = 0u64;
    while deadline.more(report) {
        let idx = i as usize % cold.corpus.len();
        let mut kernel = Kernel::default_kernel();
        let registry_before = cold.builder.registry.stats();
        let start = Instant::now();
        let result = cold
            .builder
            .build(&mut kernel, &cold.corpus[idx].dockerfile, &cold.opts);
        let elapsed = start.elapsed().as_nanos() as f64;
        report.attempted += 1;
        let Some(image) = built(report, &result) else {
            i += 1;
            continue;
        };
        check(report, cold, idx, image, &kernel);
        crate::real_counts(
            &mut counts,
            &kernel.counters,
            (&registry_before, &cold.builder.registry.stats()),
            &result.cache,
        );
        let want = image.fs.tree_digest();
        // One replay with spans off and one with spans on, the order
        // alternating between inputs.
        for traced in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
            let (tracer, sums) = if traced {
                (&mut tr, &mut counts)
            } else {
                (&mut quiet, &mut discarded)
            };
            tracer.set_build(i);
            let mut kernel = Kernel::default_kernel();
            let start = Instant::now();
            let root = tracer.begin("build");
            let out = replay::replay_build(
                tracer,
                sums,
                &mut kernel,
                &cold.builder.registry,
                None,
                &cold.corpus[idx].dockerfile,
                &[],
                TAG,
            );
            tracer.end(root);
            let out = out.inspect(|image| {
                tracer.span("image.digest", || image.digest());
            });
            let ns = start.elapsed().as_nanos() as f64;
            match out {
                Ok(image) if image.fs.tree_digest() == want => {}
                Ok(_) => report.wrong(format!(
                    "file {idx}: replayed tree differs from the build's"
                )),
                Err(e) => report.fail(format!("file {idx}: replay: {e}")),
            }
            if tracer.enabled() {
                traced_ns += ns;
            } else {
                quiet_ns += ns;
            }
        }
        build_ns += elapsed;
        builds += 1.0;
        i += 1;
    }
    let mut layers = Layers::default();
    layers.span_medians(&tr);
    crate::kernel_and_vfs(&mut layers, &counts, builds);
    crate::coverage(
        &mut layers,
        tr.child_ns("build") as f64,
        build_ns,
        traced_ns,
        quiet_ns,
    );
    layers.emit(report);
    crate::write_spans(cfg, &tr, report);
}
