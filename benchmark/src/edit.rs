//! `edit-rebuild-push`: one client and one loopback registry. Each
//! iteration opens a fresh `Builder::with_cache_dir` on a persistent
//! cache dir (as a second process would), rebuilds the next edited
//! version, exports it, pushes the layout and pulls the tag back.
//!
//! The seed's projects run in turn, one per session: each session
//! starts from an empty cache dir and an empty registry, primes both
//! with the project's initial version (untimed), then runs its edited
//! versions in order. That keeps the store's size — and with it
//! `Cas::open`'s census — the same however long the run is.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use zeroroot_core::Mode;
use zr_build::{context_file, BuildOptions, Builder, ContextFile};
use zr_image::{Image, ImageRef, LayerStore, ShardedRegistry};
use zr_kernel::Kernel;
use zr_registry::{RegistryServer, RemoteRegistry};
use zr_store::{Cas, DiskLayers};

use crate::gen::{self, EditVersion};
use crate::replay::{self, Counts, ReplayCache, TracedDisk};
use crate::report::{quantile, Report};
use crate::trace::Tracer;
use crate::{Closed, Deadline, Layers, RunConfig};

const TAG: &str = "app";
const REPO: &str = "bench/app";

struct Edit {
    projects: Vec<Vec<EditVersion>>,
    registry: Arc<ShardedRegistry>,
    /// `Image::digest` of each version of each project built in memory
    /// with `--no-cache`: what every cache-dir rebuild must reproduce.
    refs: Vec<Vec<String>>,
}

fn opts(version: &EditVersion) -> BuildOptions {
    BuildOptions {
        context: contexts(version),
        ..BuildOptions::new(TAG, Mode::Seccomp)
    }
}

/// Fresh context blobs, as a new process reading the context dir has:
/// nothing hashed yet.
fn contexts(version: &EditVersion) -> Vec<ContextFile> {
    version
        .context
        .iter()
        .map(|(name, data)| context_file(name, data.to_vec()))
        .collect()
}

/// Generate the projects, warm the registry, and build every version
/// in memory with the cache off for the reference digests.
fn setup(seed: u64) -> Result<Edit, String> {
    let projects = gen::edit_projects(seed);
    let registry = crate::registry();
    for (base, _) in gen::BASES {
        let reference = ImageRef::parse(base).ok_or("catalog reference")?;
        registry
            .pull(&reference)
            .map_err(|e| format!("warm pull {base}: {e}"))?;
    }
    let mut builder = Builder::with_shared(registry.clone(), LayerStore::new());
    let mut refs = Vec::new();
    for (p, series) in projects.iter().enumerate() {
        let mut digests = Vec::new();
        for (j, version) in series.iter().enumerate() {
            let opts = BuildOptions {
                cache: zr_build::CacheMode::Disabled,
                ..opts(version)
            };
            let result = builder.build(&mut Kernel::default_kernel(), &version.dockerfile, &opts);
            let image = result.image.filter(|_| result.success).ok_or_else(|| {
                format!(
                    "reference build of project {p} version {j} failed: {}",
                    result.log.join("\n")
                )
            })?;
            digests.push(image.digest());
        }
        refs.push(digests);
    }
    Ok(Edit {
        projects,
        registry,
        refs,
    })
}

pub fn run(cfg: &RunConfig) -> Report {
    crate::drive(cfg, setup, measured, traced)
}

/// One arm's session state: its cache dir, a fresh layout dir per
/// export, and a registry serving from its own store. Nothing is
/// deleted while the run measures (a delete's discards would land on
/// the next fsync); the whole work dir is removed when the run ends.
struct Session {
    dir: PathBuf,
    cache: PathBuf,
    layouts: Cell<usize>,
    /// Held for the session: dropping it stops the registry.
    _server: RegistryServer,
    client: RemoteRegistry,
}

impl Session {
    /// Start an empty registry under the new directory `dir`.
    fn start(dir: PathBuf) -> Result<Session, String> {
        let cas = Cas::open(dir.join("registry")).map_err(|e| format!("registry store: {e}"))?;
        let server = zr_registry::serve(cas, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let client = RemoteRegistry::new(server.addr().to_string());
        Ok(Session {
            cache: dir.join("cache"),
            dir,
            layouts: Cell::new(0),
            _server: server,
            client,
        })
    }

    /// A layout dir no export has used yet.
    fn next_layout(&self) -> PathBuf {
        let n = self.layouts.get();
        self.layouts.set(n + 1);
        self.dir.join(format!("layout-{n}"))
    }

    /// Export `image` to a new layout dir; returns the dir.
    fn export(&self, image: &Image) -> Result<PathBuf, String> {
        let layout = self.next_layout();
        zr_store::export(image, &layout).map_err(|e| format!("export: {e}"))?;
        Ok(layout)
    }
}

/// One real iteration's outputs.
struct Iteration {
    image: Image,
    layout: PathBuf,
    build_s: f64,
    push_s: f64,
    pull_s: f64,
    kernel: Kernel,
    builder: Builder,
    disk: Arc<DiskLayers>,
    cache: zr_build::CacheStats,
}

/// The developer loop for `version`: open, rebuild, export, push, pull.
/// Failures are recorded in `report`; oracles are checked.
fn iterate(edit: &Edit, p: usize, s: &Session, j: usize, report: &mut Report) -> Option<Iteration> {
    let version = &edit.projects[p][j];
    let opts = opts(version);
    let mut kernel = Kernel::default_kernel();
    report.attempted += 3;
    let (mut builder, disk) = match Builder::with_cache_dir(&s.cache) {
        Ok(pair) => pair,
        Err(e) => {
            report.fail(format!("version {j}: open cache dir: {e}"));
            return None;
        }
    };
    builder.registry = edit.registry.clone();
    let t = Instant::now();
    let result = builder.build(&mut kernel, &version.dockerfile, &opts);
    let build_s = t.elapsed().as_secs_f64();
    let Some(image) = result.image.filter(|_| result.success) else {
        report.fail(format!(
            "version {j}: build failed: {}",
            result.log.join("\n")
        ));
        return None;
    };
    let pushed = s.export(&image).and_then(|layout| {
        let t = Instant::now();
        s.client
            .push_layout(&layout, REPO, &format!("v{j}"))
            .map_err(|e| format!("push: {e}"))?;
        Ok((layout, t.elapsed().as_secs_f64()))
    });
    let (layout, push_s) = match pushed {
        Ok(pair) => pair,
        Err(e) => {
            report.fail(format!("version {j}: {e}"));
            return None;
        }
    };
    let t = Instant::now();
    let pulled = s.client.pull_image(REPO, &format!("v{j}"));
    let pull_s = t.elapsed().as_secs_f64();
    let pulled = match pulled {
        Ok(image) => image,
        Err(e) => {
            report.fail(format!("version {j}: pull: {e}"));
            return None;
        }
    };
    // Oracles: the cache-dir rebuild reproduces the no-cache reference,
    // the memoized digest equals the full rehash, the pull returns what
    // was pushed.
    let digest = image.digest();
    if digest != edit.refs[p][j] {
        report.wrong(format!(
            "version {j}: rebuild digest differs from the --no-cache build"
        ));
    }
    if digest != image.digest_uncached() {
        report.wrong(format!("version {j}: digest() != digest_uncached()"));
    }
    if pulled.digest() != digest {
        report.wrong(format!("version {j}: pulled digest differs from pushed"));
    }
    Some(Iteration {
        image,
        layout,
        build_s,
        push_s,
        pull_s,
        kernel,
        builder,
        disk,
        cache: result.cache,
    })
}

/// Prime a real-arm session with project `p`'s version 0: build,
/// export, push.
fn prime(edit: &Edit, p: usize, s: &Session, report: &mut Report) -> bool {
    let (mut builder, _) = match Builder::with_cache_dir(&s.cache) {
        Ok(pair) => pair,
        Err(e) => {
            report.fail(format!("prime: open cache dir: {e}"));
            return false;
        }
    };
    builder.registry = edit.registry.clone();
    let version = &edit.projects[p][0];
    let result = builder.build(
        &mut Kernel::default_kernel(),
        &version.dockerfile,
        &opts(version),
    );
    let pushed = match result.image.filter(|_| result.success) {
        Some(image) => s.export(&image).and_then(|layout| {
            s.client
                .push_layout(&layout, REPO, "v0")
                .map_err(|e| format!("push: {e}"))
        }),
        None => Err(format!("build failed: {}", result.log.join("\n"))),
    };
    match pushed {
        Ok(_) => true,
        Err(e) => {
            report.fail(format!("prime: {e}"));
            false
        }
    }
}

fn measured(
    cfg: &RunConfig,
    edit: &mut Edit,
    report: &mut Report,
    deadline: &mut Deadline,
) -> Closed {
    let mut closed = Closed::default();
    let (mut push_ms, mut pull_ms) = (Vec::new(), Vec::new());
    let mut session = 0;
    'sessions: while deadline.more(report) {
        let p = session % edit.projects.len();
        if p == 0 && session > 0 {
            closed.end_pass();
        }
        session += 1;
        let s = match Session::start(cfg.work_dir.join(format!("real-{session}"))) {
            Ok(s) => s,
            Err(e) => {
                report.fail(e);
                break;
            }
        };
        if !prime(edit, p, &s, report) {
            break;
        }
        for j in 1..edit.projects[p].len() {
            if !deadline.more(report) {
                break 'sessions;
            }
            let Some(it) = iterate(edit, p, &s, j, report) else {
                continue;
            };
            closed.record(it.build_s, it.build_s, 1);
            push_ms.push(it.push_s * 1e3);
            pull_ms.push(it.pull_s * 1e3);
        }
    }
    for (name, samples) in [("push_ms", &push_ms), ("pull_ms", &pull_ms)] {
        report.notes.push(format!(
            "{name}.p50 {:.4} ms, {name}.p90 {:.4} ms ({} samples)",
            quantile(samples, 0.5),
            quantile(samples, 0.9),
            samples.len()
        ));
    }
    closed
}

/// Replay `version` on one arm's session: open its cache dir, replay the
/// build, then digest, export, import, push and pull — each a span.
/// Returns the replayed image and the arm's wall time in nanoseconds.
fn replay_arm(
    edit: &Edit,
    (p, j): (usize, usize),
    s: &Session,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(Image, f64), String> {
    let version = &edit.projects[p][j];
    let context = contexts(version);
    let mut kernel = Kernel::default_kernel();
    let layout = s.next_layout();
    let start = Instant::now();
    let cas = Cas::open(&s.cache).map_err(|e| format!("open cache dir: {e}"))?;
    let disk = Arc::new(DiskLayers::new(cas));
    let layers = LayerStore::new();
    let shim = tr
        .enabled()
        .then(|| Arc::new(TracedDisk::new(disk.clone())));
    match &shim {
        Some(shim) => layers.set_persistence(shim.clone()),
        None => layers.set_persistence(disk),
    }
    let cache = ReplayCache {
        layers: &layers,
        disk: shim.as_deref(),
    };
    let root = tr.begin("build");
    let out = replay::replay_build(
        tr,
        counts,
        &mut kernel,
        &edit.registry,
        Some(&cache),
        &version.dockerfile,
        &context,
        TAG,
    );
    tr.end(root);
    let image = out?;
    let tag = format!("v{j}");
    let digest = tr.span("image.digest", || image.digest());
    tr.span("store.export", || zr_store::export(&image, &layout))
        .map_err(|e| format!("export: {e}"))?;
    let imported = tr
        .span("store.import", || zr_store::import(&layout))
        .map_err(|e| format!("import: {e}"))?;
    tr.span("registry.push_layout", || {
        s.client.push_layout(&layout, REPO, &tag)
    })
    .map_err(|e| format!("push: {e}"))?;
    let pulled = tr
        .span("registry.pull_image", || s.client.pull_image(REPO, &tag))
        .map_err(|e| format!("pull: {e}"))?;
    let ns = start.elapsed().as_nanos() as f64;
    if imported.digest() != digest || pulled.digest() != digest {
        return Err("replayed image does not round-trip export/import and push/pull".into());
    }
    Ok((image, ns))
}

/// The traced run. Per version: the real iteration (the reference wall
/// time and the counters), then a replay with spans off and one with
/// spans on, in alternating order. Each replay arm has its own cache
/// dir and registry and is fed the same versions, so the two arms do
/// the same work.
fn traced(cfg: &RunConfig, edit: &mut Edit, report: &mut Report) {
    let mut counts = Counts::new();
    let mut discarded = Counts::new();
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    let mut walls = [0.0f64; 2];
    let (mut build_ns, mut builds) = (0.0, 0.0);
    let mut deadline = Deadline::start(cfg);
    let mut i = 0u64;
    let mut session = 0;
    'sessions: while deadline.more(report) {
        let p = session % edit.projects.len();
        session += 1;
        let start = |name: &str| Session::start(cfg.work_dir.join(format!("{name}-{session}")));
        let (real, arms) = match (start("real"), start("quiet"), start("traced")) {
            (Ok(real), Ok(quiet), Ok(traced)) => (real, [quiet, traced]),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                report.fail(e);
                break;
            }
        };
        if !prime(edit, p, &real, report) {
            break;
        }
        for s in &arms {
            if let Err(e) = replay_arm(edit, (p, 0), s, &mut Tracer::new(false), &mut discarded) {
                report.fail(format!("prime replay: {e}"));
                break 'sessions;
            }
        }
        for j in 1..edit.projects[p].len() {
            if !deadline.more(report) {
                break 'sessions;
            }
            let faults_before = zr_fault::counters();
            let registry_before = edit.registry.stats();
            let Some(it) = iterate(edit, p, &real, j, report) else {
                continue;
            };
            let faults = zr_fault::counters();
            crate::real_counts(
                &mut counts,
                &it.kernel.counters,
                (&registry_before, &edit.registry.stats()),
                &it.cache,
            );
            let layer_stats = it.builder.layers.stats();
            let disk_stats = it.disk.stats();
            let cas_stats = it.disk.cas().stats();
            for (name, value) in [
                ("image.layer_disk_hits", layer_stats.disk_hits),
                ("image.layer_dedup_saved_bytes", layer_stats.dedup_saved()),
                ("store.persisted", disk_stats.persisted),
                ("store.delta_persisted", disk_stats.delta_persisted),
                ("store.errors", disk_stats.errors),
                ("store.bytes_written", cas_stats.written_bytes),
                ("store.chunk_dedup_saved_bytes", cas_stats.chunk_dedup_saved),
                ("store.layout_bytes", layout_bytes(&it.layout)),
                ("registry.retries", faults.retries - faults_before.retries),
                (
                    "registry.timeouts",
                    faults.timeouts - faults_before.timeouts,
                ),
            ] {
                replay::add(&mut counts, name, value as f64);
            }
            let want = it.image.fs.tree_digest();
            for traced in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
                let k = usize::from(traced);
                tracers[k].set_build(i);
                let sums = if traced { &mut counts } else { &mut discarded };
                match replay_arm(edit, (p, j), &arms[k], &mut tracers[k], sums) {
                    Ok((image, ns)) => {
                        walls[k] += ns;
                        if image.fs.tree_digest() != want {
                            report.wrong(format!(
                                "version {j}: replayed tree differs from the build's"
                            ));
                        }
                    }
                    Err(e) => report.fail(format!("version {j}: replay: {e}")),
                }
            }
            build_ns += it.build_s * 1e9;
            builds += 1.0;
            i += 1;
        }
    }
    let tr = &tracers[1];
    let mut layers = Layers::default();
    layers.span_medians(tr);
    crate::kernel_and_vfs(&mut layers, &counts, builds);
    let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    for name in [
        "image.layer_disk_hits",
        "image.layer_dedup_saved_bytes",
        "store.bytes_written",
        "store.chunk_dedup_saved_bytes",
        "store.layout_bytes",
    ] {
        layers.set(name, get(name) / builds.max(1.0));
    }
    for name in ["store.errors", "registry.retries", "registry.timeouts"] {
        layers.set(name, get(name));
    }
    let (deltas, persisted) = (get("store.delta_persisted"), get("store.persisted"));
    layers.ratio(
        "store.delta_share",
        deltas,
        persisted,
        format!("{deltas} delta records / {persisted} layers persisted"),
    );
    crate::coverage(
        &mut layers,
        tr.child_ns("build") as f64,
        build_ns,
        walls[1],
        walls[0],
    );
    layers.emit(report);
    crate::write_spans(cfg, tr, report);
}

/// Bytes of every blob in an exported layout.
fn layout_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("blobs/sha256"))
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
