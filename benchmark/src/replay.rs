//! A layer-by-layer replay of `Builder::build` for the traced run.
//!
//! The replay makes the same public calls the builder makes, in the
//! builder's order — `parse`, `BuildPlan::compile`, the cache-key walk
//! and `LayerStore::materialize` (cache on), `ShardedRegistry::pull`,
//! `Image::chown_all`, `container_create`, then for each RUN the steps
//! of `SeccompEmulation::prepare` (`zr_seccomp::compile`, filter
//! install and self-test), `exec_in` and `teardown`, then a snapshot per
//! instruction (cache on) and the final `Fs` clone — and wraps each in
//! a span. Its output tree must equal the real build's
//! `Fs::tree_digest`, which the callers check.
//!
//! It covers the instruction kinds the generators emit (FROM, ENV,
//! WORKDIR, COPY from the context, shell-form RUN) in one stage.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use zeroroot_core::{make, Mode, RootEmulation, SeccompEmulation};
use zr_build::ContextFile;
use zr_dockerfile::Instruction;
use zr_image::{
    CacheKey, Image, ImageMeta, ImageRef, Layer, LayerPersistence, LayerState, LayerStore,
    ShardedRegistry, StageSnapshot,
};
use zr_kernel::{ContainerConfig, ContainerType, Kernel, SysExt};
use zr_plan::BuildPlan;
use zr_store::DiskLayers;
use zr_vfs::path::{join, split_parent};

use crate::trace::Tracer;

/// Counters read around layer calls (the replay's own: plan shape and
/// snapshot pages), summed over a run.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn add(counts: &mut Counts, name: &'static str, value: f64) {
    *counts.entry(name).or_default() += value;
}

/// The replay's strategy configuration, folded into its cache keys.
const CONFIG: &str = "zr-benchmark-replay|seccomp|type-iii";

/// A [`LayerPersistence`] that forwards to a [`DiskLayers`] and records
/// when each call ran, so the replay can put `store.*` spans under the
/// `LayerStore` call that triggered them.
#[derive(Debug)]
pub struct TracedDisk {
    inner: Arc<DiskLayers>,
    calls: Mutex<Vec<(&'static str, Instant, Instant)>>,
}

impl TracedDisk {
    pub fn new(inner: Arc<DiskLayers>) -> TracedDisk {
        TracedDisk {
            inner,
            calls: Mutex::default(),
        }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((name, start, Instant::now()));
        out
    }

    /// Move the recorded calls into `tr` as children of its open span.
    pub fn drain_into(&self, tr: &mut Tracer) {
        let calls = std::mem::take(&mut *self.calls.lock().unwrap_or_else(PoisonError::into_inner));
        for (name, start, end) in calls {
            tr.record(name, start, end);
        }
    }
}

impl LayerPersistence for TracedDisk {
    fn persist(&self, layer: &Layer) {
        self.persist_with_parent(layer, None);
    }
    fn persist_with_parent(&self, layer: &Layer, parent: Option<&Layer>) {
        self.timed("store.persist", || {
            self.inner.persist_with_parent(layer, parent)
        });
    }
    fn load(&self, key: &CacheKey) -> Option<Layer> {
        self.timed("store.load", || self.inner.load(key))
    }
    fn load_state(&self, key: &CacheKey) -> Option<LayerState> {
        self.timed("store.load_state", || self.inner.load_state(key))
    }
    fn has(&self, key: &CacheKey) -> bool {
        self.inner.has(key)
    }
    fn keys(&self) -> Vec<CacheKey> {
        self.inner.keys()
    }
}

/// The layer cache a replay reads and writes, with the tracing shim
/// when the store is disk-backed and traced.
pub struct ReplayCache<'a> {
    pub layers: &'a LayerStore,
    pub disk: Option<&'a TracedDisk>,
}

struct Stage {
    pid: zr_kernel::Pid,
    fs: usize,
    meta: ImageMeta,
    env: Vec<(String, String)>,
    shell: Vec<String>,
}

fn drain(tr: &mut Tracer, cache: Option<&ReplayCache>) {
    if let Some(disk) = cache.and_then(|c| c.disk) {
        disk.drain_into(tr);
    }
}

/// Replay one single-stage build and return its image (tagged `tag`).
#[allow(clippy::too_many_arguments)]
pub fn replay_build(
    tr: &mut Tracer,
    counts: &mut Counts,
    kernel: &mut Kernel,
    registry: &ShardedRegistry,
    cache: Option<&ReplayCache>,
    dockerfile: &str,
    context: &[ContextFile],
    tag: &str,
) -> Result<Image, String> {
    let df = tr
        .span("dockerfile.parse", || zr_dockerfile::parse(dockerfile))
        .map_err(|e| format!("parse: {e}"))?;
    let plan = tr
        .span("plan.compile", || BuildPlan::compile(&df, None))
        .map_err(|e| format!("plan: {e}"))?;
    add(counts, "plan.stages_run", plan.order().len() as f64);
    add(counts, "plan.stages_pruned", plan.pruned().len() as f64);
    if !plan.is_single_stage() {
        return Err("replay covers single-stage files only".into());
    }
    let insns = plan.stage_instructions(plan.target());
    let seccomp = SeccompEmulation::paper();
    let strategy = make(Mode::Seccomp);

    // ---- the cached prefix (cache on) ---------------------------------
    let mut parent: Option<CacheKey> = None;
    let mut start = 0;
    let mut restored: Option<Arc<Layer>> = None;
    if let Some(c) = cache {
        for (_, insn) in &insns {
            let key = tr.span("image.cache_key", || {
                key_for(parent.as_ref(), insn, context)
            });
            let open = tr.begin("image.layer_peek");
            let hit = c.layers.peek_state(&key);
            drain(tr, cache);
            tr.end(open);
            if hit.is_none() {
                break;
            }
            parent = Some(key);
            start += 1;
        }
        if let Some(key) = &parent {
            let open = tr.begin("image.layer_materialize");
            restored = c.layers.materialize(key);
            drain(tr, cache);
            tr.end(open);
            if restored.is_none() {
                return Err("materialize: walked layer vanished".into());
            }
        }
    }
    let restored_snap = restored.as_ref().and_then(|l| l.state.stage.clone());
    if start == insns.len() {
        let layer = restored.ok_or("all-hit replay without a layer")?;
        let snap = restored_snap.ok_or("all-hit replay without a stage")?;
        return Ok(tagged(snap.meta, layer.fs.clone(), tag));
    }

    // ---- the restore point --------------------------------------------
    let mut stage: Option<Stage> = None;
    if let (Some(layer), Some(snap)) = (&restored, restored_snap) {
        tr.span("pkg.register", || {
            zr_pkg::register::register_image_binaries(kernel, &snap.meta)
        });
        let container = tr
            .span("kernel.container_create", || {
                kernel.container_create(
                    Kernel::HOST_USER_PID,
                    ContainerConfig {
                        ctype: ContainerType::TypeIII,
                        image: layer.fs.clone(),
                    },
                )
            })
            .map_err(|e| format!("container_create: {e}"))?;
        if snap.cwd != "/" {
            kernel
                .ctx(container.init_pid)
                .chdir(&snap.cwd)
                .map_err(|e| format!("restore chdir: {e}"))?;
        }
        stage = Some(Stage {
            pid: container.init_pid,
            fs: container.fs,
            meta: snap.meta,
            env: snap.env,
            shell: snap.shell,
        });
    }

    // ---- execute the rest ---------------------------------------------
    for (_, insn) in insns.iter().skip(start) {
        let key = cache.map(|_| {
            tr.span("image.cache_key", || {
                key_for(parent.as_ref(), insn, context)
            })
        });
        match insn {
            Instruction::From { image, .. } => {
                stage = Some(from(tr, kernel, registry, image)?);
            }
            Instruction::Env(pairs) => {
                let s = stage.as_mut().ok_or("ENV before FROM")?;
                for (k, v) in pairs {
                    s.env.push((k.clone(), v.clone()));
                    s.meta.env.push((k.clone(), v.clone()));
                }
            }
            Instruction::Workdir(path) => {
                let s = stage.as_ref().ok_or("WORKDIR before FROM")?;
                tr.span("kernel.workdir", || {
                    let mut ctx = kernel.ctx(s.pid);
                    let absolute = join(&ctx.getcwd(), path);
                    ctx.mkdir_p(&absolute, 0o755)
                        .and_then(|()| ctx.chdir(&absolute))
                })
                .map_err(|e| format!("WORKDIR {path}: {e}"))?;
            }
            Instruction::Copy(spec) if spec.from.is_none() && spec.chown.is_none() => {
                let s = stage.as_ref().ok_or("COPY before FROM")?;
                tr.span("kernel.copy", || copy(kernel, s, spec, context))?;
            }
            Instruction::RunShell(cmd) => {
                let s = stage.as_ref().ok_or("RUN before FROM")?;
                run(tr, kernel, &seccomp, strategy.as_ref(), s, cmd)?;
            }
            other => return Err(format!("replay does not cover {}", other.keyword())),
        }
        kernel.take_console();
        if let (Some(c), Some(key)) = (cache, key) {
            let s = stage.as_ref().ok_or("snapshot before FROM")?;
            let fs = snapshot(tr, counts, kernel, s);
            let state = LayerState {
                args: Vec::new(),
                stage: Some(StageSnapshot {
                    meta: s.meta.clone(),
                    env: s.env.clone(),
                    shell: s.shell.clone(),
                    cwd: kernel.process(s.pid).cwd.clone(),
                }),
            };
            let open = tr.begin("image.layer_insert");
            c.layers.insert(Layer {
                id: key.clone(),
                parent: parent.take(),
                fs,
                state,
            });
            drain(tr, cache);
            tr.end(open);
            parent = Some(key);
        }
    }
    let s = stage.ok_or("no FROM")?;
    let fs = snapshot(tr, counts, kernel, &s);
    Ok(tagged(s.meta, fs, tag))
}

fn tagged(mut meta: ImageMeta, fs: zr_vfs::fs::Fs, tag: &str) -> Image {
    meta.tag = tag.to_string();
    Image { meta, fs }
}

/// The replay's cache key: the instruction's parsed form plus the
/// digest of any context file it copies, chained to its parent.
fn key_for(parent: Option<&CacheKey>, insn: &Instruction, context: &[ContextFile]) -> CacheKey {
    let digest = match insn {
        Instruction::Copy(spec) => spec
            .sources
            .iter()
            .filter_map(|src| context.iter().find(|(name, _)| name == src))
            .map(|(_, blob)| blob.sha_hex())
            .collect::<Vec<_>>()
            .join(","),
        _ => String::new(),
    };
    CacheKey::compute(parent, &format!("{insn:?}"), &digest, CONFIG)
}

/// FROM: pull, re-own as the unpacking user, register binaries, create
/// the container.
fn from(
    tr: &mut Tracer,
    kernel: &mut Kernel,
    registry: &ShardedRegistry,
    reference: &str,
) -> Result<Stage, String> {
    let image_ref = ImageRef::parse(reference).ok_or("bad reference")?;
    let mut image = tr
        .span("image.pull", || registry.pull(&image_ref))
        .map_err(|e| format!("pull {reference}: {e}"))?;
    let (uid, gid) = (kernel.config.host_uid, kernel.config.host_gid);
    tr.span("image.chown_all", || image.chown_all(uid, gid));
    tr.span("pkg.register", || {
        zr_pkg::register::register_image_binaries(kernel, &image.meta)
    });
    let env = image.meta.env.clone();
    let container = tr
        .span("kernel.container_create", || {
            kernel.container_create(
                Kernel::HOST_USER_PID,
                ContainerConfig {
                    ctype: ContainerType::TypeIII,
                    image: image.fs,
                },
            )
        })
        .map_err(|e| format!("container_create: {e}"))?;
    Ok(Stage {
        pid: container.init_pid,
        fs: container.fs,
        meta: image.meta,
        env,
        shell: vec!["/bin/sh".into(), "-c".into()],
    })
}

/// One shell-form RUN under the seccomp strategy: the steps of
/// `SeccompEmulation::prepare` one by one, then exec and teardown.
fn run(
    tr: &mut Tracer,
    kernel: &mut Kernel,
    seccomp: &SeccompEmulation,
    strategy: &dyn RootEmulation,
    stage: &Stage,
    cmd: &str,
) -> Result<(), String> {
    let prog = tr
        .span("seccomp.compile", || zr_seccomp::compile(seccomp.spec()))
        .map_err(|e| format!("filter compile: {e:?}"))?;
    tr.span("core.prepare", || {
        let mut ctx = kernel.ctx(stage.pid);
        ctx.set_no_new_privs()
            .and_then(|()| ctx.seccomp_install(prog))
            .and_then(|()| ctx.kexec_load())
    })
    .map_err(|e| format!("prepare: {e}"))?;
    let (executed, _) = zr_shell::inject_apt_workaround(cmd);
    let mut argv = stage.shell.clone();
    argv.push(executed);
    let path = stage.shell[0].clone();
    let env = stage.env.clone();
    let status = tr.span("kernel.exec", || {
        let status = kernel.exec_in(stage.pid, &path, argv, env);
        kernel.take_console();
        status
    });
    tr.span("core.teardown", || strategy.teardown(kernel));
    match status {
        Ok(0) => Ok(()),
        Ok(code) => Err(format!("RUN exited {code}: {cmd}")),
        Err(e) => Err(format!("RUN exec: {e}")),
    }
}

/// COPY from the build context: each source lands blob-shared at its
/// destination, as `Builder::build` writes it.
fn copy(
    kernel: &mut Kernel,
    stage: &Stage,
    spec: &zr_dockerfile::CopySpec,
    context: &[ContextFile],
) -> Result<(), String> {
    for source in &spec.sources {
        let blob = context
            .iter()
            .find(|(name, _)| name == source)
            .map(|(_, blob)| Arc::clone(blob))
            .ok_or_else(|| format!("COPY {source}: not in context"))?;
        let dir_like = spec.dest.ends_with('/') || spec.sources.len() > 1;
        let target = if dir_like {
            format!("{}/{source}", spec.dest.trim_end_matches('/'))
        } else {
            spec.dest.clone()
        };
        let mut ctx = kernel.ctx(stage.pid);
        let absolute = join(&ctx.getcwd(), &target);
        if let Some((dir, _)) = split_parent(&absolute) {
            ctx.mkdir_p(&dir, 0o755)
                .map_err(|e| format!("COPY {dir}: {e}"))?;
        }
        kernel
            .write_file_blob(stage.pid, &absolute, 0o644, blob)
            .map_err(|e| format!("COPY {absolute}: {e}"))?;
    }
    Ok(())
}

/// Snapshot the container filesystem (an O(pages) CoW clone), counting
/// pages and how many are still shared with earlier snapshots.
fn snapshot(
    tr: &mut Tracer,
    counts: &mut Counts,
    kernel: &Kernel,
    stage: &Stage,
) -> zr_vfs::fs::Fs {
    let fs = kernel.fs(stage.fs);
    add(counts, "vfs.pages", fs.page_count() as f64);
    add(counts, "vfs.shared_pages", fs.shared_pages() as f64);
    add(counts, "vfs.snapshots", 1.0);
    tr.span("vfs.snapshot", || fs.clone())
}
