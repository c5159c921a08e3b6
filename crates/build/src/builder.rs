//! The instruction-driven build loop.
//!
//! Mirrors `ch-image build`: parse, pull the base, set up an (almost
//! always Type III) container, then walk the instructions. Every `RUN`
//! is bracketed by `RootEmulation::prepare` / `teardown` — the
//! `--force` hook the paper adds to Charliecloud — and its console
//! output is folded into the build log, so the published Figure 1/2
//! transcripts fall out of `log_text()` verbatim.
//!
//! Builds are cached at instruction granularity (ch-image's build
//! cache): each successful instruction snapshots the container
//! filesystem into [`Builder::layers`] under a key chaining (parent
//! layer, normalized instruction, context digest, strategy config). A
//! rebuild *replays* the longest cached prefix — `N* INSTR` hit lines,
//! nothing executed — and only starts a container at the first miss.

use crate::cache::{self, CacheStats};
use crate::options::BuildOptions;
use crate::result::{BuildError, BuildResult};
use std::collections::HashMap;
use std::sync::Arc;
use zeroroot_core::{make, Mode, PrepareEnv};
use zr_dockerfile::{parse, substitute, CopySpec, Dockerfile, Instruction};
use zr_plan::{BaseRef, BuildPlan};

use zr_image::{
    CacheKey, Image, ImageMeta, ImageRef, Layer, LayerState, LayerStore, ShardedRegistry,
    StageSnapshot,
};
use zr_kernel::container::Container;
use zr_kernel::{ContainerConfig, Kernel, SysExt};
use zr_pkg::install::{extract_package, ChownBehavior};
use zr_pkg::register::{register_image_binaries, repo_for};
use zr_shell::inject_apt_workaround;
use zr_vfs::access::Access;
use zr_vfs::fs::{FollowMode, Fs};
use zr_vfs::inode::FileKind;
use zr_vfs::path::{join, split_parent};

/// The current build stage: one container plus its evolving metadata
/// (`meta.env` is the stage's ENV state; later entries win).
struct Stage {
    container: Container,
    meta: ImageMeta,
    /// The SHELL prefix RUN shell-form commands run under.
    shell: Vec<String>,
}

/// The image builder: *shared* registry and layer-cache handles,
/// reused across builds (pulls accumulate in the registry's counters;
/// layers accumulate in `layers`, which is what makes warm rebuilds
/// skip execution). A builder keeps no other state, so a build logs
/// the same lines whether it runs here or on a scheduler worker.
///
/// The registry handle is an `Arc` and the layer store is itself a
/// shared handle, so many builders — one per scheduler worker, say —
/// can share one registry and one cache: concurrent FROMs of the same
/// base hit the pull-through blob cache, and concurrent builds of
/// similar Dockerfiles get cross-build layer hits.
#[derive(Debug, Default)]
pub struct Builder {
    /// The registry simulator (shareable across builders).
    pub registry: Arc<ShardedRegistry>,
    /// The instruction-level layer cache (shareable across builders).
    pub layers: LayerStore,
}

impl Builder {
    /// A builder with private registry and layer-cache handles.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// A builder sharing a registry and a layer store with other
    /// builders (the scheduler's per-worker construction).
    pub fn with_shared(registry: Arc<ShardedRegistry>, layers: LayerStore) -> Builder {
        Builder { registry, layers }
    }

    /// A builder whose layer cache is backed by the persistent store
    /// at `dir` — the `--cache-dir` construction. Layers persist as
    /// they are inserted; a later builder (in this process or another)
    /// opening the same directory replays them without executing.
    /// Returns the disk tier alongside for stats/gc access.
    pub fn with_cache_dir(
        dir: impl AsRef<std::path::Path>,
    ) -> zr_store::Result<(Builder, Arc<zr_store::DiskLayers>)> {
        let (layers, disk) = zr_store::open_layer_store(dir)?;
        Ok((
            Builder {
                registry: Arc::default(),
                layers,
            },
            disk,
        ))
    }

    /// Build `dockerfile` under `opts` on the given kernel. Never panics
    /// on user input: failures come back as a failed [`BuildResult`]
    /// whose log ends with `error: build failed: ...`, like the paper's
    /// Figure 1b transcript.
    ///
    /// Runs, serially, the three steps a scheduler runs too:
    /// [`plan`], then [`build_stage`](Self::build_stage) per retained
    /// stage in plan order (stopping at the first failure), then
    /// [`assemble`].
    pub fn build(
        &mut self,
        kernel: &mut Kernel,
        dockerfile: &str,
        opts: &BuildOptions,
    ) -> BuildResult {
        let plan = match plan(dockerfile, opts.target.as_deref()) {
            Ok(plan) => plan,
            Err(error) => return BuildResult::failed(&opts.tag, error),
        };
        let mut stages = Stages::default();
        for &idx in plan.order() {
            let (image, output) = self.build_stage(kernel, &plan, idx, opts, stages.images());
            stages.record(idx, image, output);
            if stages.error().is_some() {
                break;
            }
        }
        assemble(&plan, opts, &mut stages)
    }

    /// Build one stage of a compiled [`BuildPlan`]: walk its cached
    /// prefix, execute the remainder, snapshot each instruction, and
    /// return the stage's result image (tag not yet applied — the
    /// caller tags the *target* stage only, so intermediate results
    /// digest independently of the destination tag) beside its log
    /// chunk and counters.
    ///
    /// `images` must hold the result of every stage in the node's
    /// `deps` — the serial driver ([`build`](Self::build)) guarantees
    /// this by walking `plan.order()`; the DAG scheduler guarantees it
    /// by releasing a stage task only when its dependencies complete.
    /// This is the unit of work a scheduler worker runs, which is why
    /// it is public.
    pub fn build_stage(
        &mut self,
        kernel: &mut Kernel,
        plan: &BuildPlan,
        stage_idx: usize,
        opts: &BuildOptions,
        images: &HashMap<usize, Image>,
    ) -> (Result<Image, BuildError>, StageOutput) {
        let mut out = StageOutput::default();
        let image = self.run_stage(kernel, plan, stage_idx, opts, images, &mut out);
        (image, out)
    }

    fn run_stage(
        &mut self,
        kernel: &mut Kernel,
        plan: &BuildPlan,
        stage_idx: usize,
        opts: &BuildOptions,
        images: &HashMap<usize, Image>,
        out: &mut StageOutput,
    ) -> Result<Image, BuildError> {
        let insns = plan.stage_instructions(stage_idx);
        // Cross-stage references (FROM <alias>, COPY --from=) key on
        // the source stage's image digest: a stage's cache lineage is
        // invalidated exactly when something it consumes changed.
        let resolve = |from: &str| {
            plan.resolve_from(from, stage_idx)
                .and_then(|i| images.get(&i))
                .map(|img| img.digest())
        };

        let config = cache::config_fingerprint(opts);
        let run_marker = opts.force.run_marker();

        // ---- replay: walk the cached prefix without executing --------
        // The key chain is recomputed from (parent, instruction) pairs;
        // the first key the store does not know ends the replay and
        // invalidates the rest of the chain (ch-image semantics: after a
        // miss, everything downstream executes). The walk consults only
        // layer *state* (peek_state — no filesystem copies); one full
        // snapshot is materialized at the end, for the deepest hit. If a
        // shared store evicts a walked layer before that materialization
        // lands, the walk retries and simply replays a shorter prefix.
        let mut parent: Option<CacheKey> = None;
        let mut restored: Option<Arc<Layer>> = None;
        let mut start = 0usize;
        if opts.cache.uses_store() {
            let mut attempts = 0u32;
            loop {
                parent = None;
                start = 0;
                let mut hit_log: Vec<String> = Vec::new();
                let mut env: Vec<(String, String)> = Vec::new();
                let mut rargs: Vec<(String, String)> = Vec::new();
                for (idx, (_, instruction)) in insns.iter().enumerate() {
                    let key = cache::layer_key(
                        parent.as_ref(),
                        instruction,
                        &env,
                        &rargs,
                        opts,
                        &config,
                        &resolve,
                    );
                    let Some(state) = self.layers.peek_state(&key) else {
                        break;
                    };
                    hit_log.push(instruction_line(
                        idx + 1,
                        '*',
                        instruction,
                        &env,
                        &rargs,
                        &opts.build_args,
                        run_marker,
                    ));
                    env = state
                        .stage
                        .as_ref()
                        .map(|s| s.env.clone())
                        .unwrap_or_default();
                    rargs = state.args;
                    parent = Some(key);
                    start = idx + 1;
                }
                if let Some(key) = &parent {
                    attempts += 1;
                    match self.layers.materialize(key) {
                        Some(layer) => restored = Some(layer),
                        // Evicted between the walk and here; the next
                        // walk stops at the evicted key. Bounded: give
                        // up on replaying (build everything) rather
                        // than racing a pathological evictor forever.
                        None if attempts < 8 => continue,
                        None => {
                            parent = None;
                            start = 0;
                            break;
                        }
                    }
                }
                out.cache.hits += start as u32;
                out.log.append(&mut hit_log);
                break;
            }
        }

        // Fully cached: the stage image is the deepest snapshot; no
        // container is ever set up (the warm-build fast path).
        if start == insns.len() {
            let layer = restored.expect("all-hit replay has a last layer");
            let snap = layer
                .state
                .stage
                .as_ref()
                .ok_or_else(|| missing_from("build"))?;
            return Ok(Image {
                meta: snap.meta.clone(),
                fs: layer.fs.clone(),
            });
        }

        // ---- materialize the restore point ---------------------------
        // A partial replay ends here: one container, created from the
        // deepest snapshot, picks up exactly where the cache ran out.
        let mut stage: Option<Stage> = None;
        let mut args: Vec<(String, String)> = Vec::new();
        if let Some(layer) = restored {
            args = layer.state.args.clone();
            if let Some(snap) = &layer.state.stage {
                let image = Image {
                    meta: snap.meta.clone(),
                    fs: layer.fs.clone(),
                };
                let mut entered = enter_stage(kernel, opts, image)?;
                entered.shell = snap.shell.clone();
                if snap.cwd != "/" {
                    let mut ctx = kernel.ctx(entered.container.init_pid);
                    ctx.chdir(&snap.cwd).map_err(|e| BuildError::Instruction {
                        instruction: start as u32,
                        message: format!("cache restore: chdir {}: {e}", snap.cwd),
                    })?;
                }
                stage = Some(entered);
            }
        }

        // ---- execute the remainder, snapshotting each instruction ----
        for (idx, (_, instruction)) in insns.iter().enumerate().skip(start) {
            let n = idx + 1;
            // Key and log line first: both are defined over the state
            // *before* the instruction runs.
            let env = stage_env(&stage);
            let key = opts.cache.uses_store().then(|| {
                cache::layer_key(
                    parent.as_ref(),
                    instruction,
                    env,
                    &args,
                    opts,
                    &config,
                    &resolve,
                )
            });
            // FROM renders as a hit whenever the cache may be consulted:
            // base images come from storage, and the pull is a copy, not
            // an execution (the paper's figures show `1* FROM`).
            // `--no-cache` is the one honest miss rendering.
            let mark = match instruction {
                Instruction::From { .. } if opts.cache.uses_store() => '*',
                _ => '.',
            };
            let line = instruction_line(
                n,
                mark,
                instruction,
                env,
                &args,
                &opts.build_args,
                run_marker,
            );
            // A miss is an execution *attempt*: failed instructions
            // count too (they consulted the cache and found nothing).
            out.cache.misses += 1;
            match instruction {
                Instruction::From { image, .. } => {
                    out.log.push(line);
                    let reference = substitute(image, &cache::lookup(env, &args));
                    let base = match &plan.stages()[stage_idx].base {
                        BaseRef::Stage(i) => {
                            images
                                .get(i)
                                .cloned()
                                .ok_or_else(|| BuildError::Instruction {
                                    instruction: n as u32,
                                    message: format!(
                                        "FROM {reference}: stage {i} result unavailable"
                                    ),
                                })?
                        }
                        BaseRef::Image(_) => self.pull_base(kernel, &reference)?,
                    };
                    stage = Some(enter_stage(kernel, opts, base)?);
                }
                Instruction::Env(pairs) => {
                    out.log.push(line);
                    let stage_ref = stage.as_mut().ok_or_else(|| missing_from("ENV"))?;
                    for (key, value) in pairs {
                        let value = substitute(value, &cache::lookup(&stage_ref.meta.env, &args));
                        stage_ref.meta.env.push((key.clone(), value));
                    }
                }
                Instruction::Arg { name, default } => {
                    out.log.push(line);
                    let value =
                        cache::resolve_arg(name, default.as_deref(), env, &args, &opts.build_args);
                    args.push((name.clone(), value));
                }
                Instruction::Workdir(path) => {
                    out.log.push(line);
                    let stage_ref = stage.as_mut().ok_or_else(|| missing_from("WORKDIR"))?;
                    let path = substitute(path, &cache::lookup(&stage_ref.meta.env, &args));
                    let pid = stage_ref.container.init_pid;
                    let mut ctx = kernel.ctx(pid);
                    let absolute = join(&ctx.getcwd(), &path);
                    ctx.mkdir_p(&absolute, 0o755)
                        .and_then(|()| ctx.chdir(&absolute))
                        .map_err(|e| BuildError::Instruction {
                            instruction: n as u32,
                            message: format!("WORKDIR {path}: {e}"),
                        })?;
                }
                Instruction::User(spec) => {
                    out.log.push(line);
                    // A Type III namespace maps exactly one id; USER is
                    // recorded but cannot change identity (§2).
                    if spec != "root" && spec != "0" {
                        out.log
                            .push("warning: USER ignored (single-id namespace)".into());
                    }
                }
                Instruction::Copy(spec) | Instruction::Add(spec) => {
                    out.log.push(line);
                    let stage_ref = stage.as_mut().ok_or_else(|| missing_from("COPY"))?;
                    match &spec.from {
                        Some(from) => {
                            let src_idx = plan.resolve_from(from, stage_idx).ok_or_else(|| {
                                BuildError::Instruction {
                                    instruction: n as u32,
                                    message: format!("COPY --from={from}: unknown stage"),
                                }
                            })?;
                            let src =
                                images
                                    .get(&src_idx)
                                    .ok_or_else(|| BuildError::Instruction {
                                        instruction: n as u32,
                                        message: format!(
                                        "COPY --from={from}: stage {src_idx} result unavailable"
                                    ),
                                    })?;
                            copy_from_stage(kernel, stage_ref, &src.fs, spec, n as u32, &args)?;
                        }
                        None => copy_into_stage(kernel, stage_ref, opts, spec, n as u32, &args)?,
                    }
                }
                Instruction::Shell(argv) => {
                    out.log.push(line);
                    let stage_ref = stage.as_mut().ok_or_else(|| missing_from("SHELL"))?;
                    if argv.is_empty() {
                        return Err(BuildError::Instruction {
                            instruction: n as u32,
                            message: "SHELL requires at least one argument".into(),
                        });
                    }
                    stage_ref.shell = argv.clone();
                }
                // Image metadata only: the line is the whole effect.
                Instruction::Label(_)
                | Instruction::Entrypoint(_)
                | Instruction::Cmd(_)
                | Instruction::NoOp { .. } => out.log.push(line),
                Instruction::RunShell(_) | Instruction::RunExec(_) => {
                    let stage_ref = stage.as_mut().ok_or_else(|| missing_from("RUN"))?;
                    self.run_instruction(
                        kernel,
                        stage_ref,
                        opts,
                        instruction,
                        line,
                        n as u32,
                        &args,
                        out,
                    )?;
                }
            }
            // Fold any console output the instruction produced into the
            // build log (package-manager transcripts, shell errors, ...).
            out.log.extend(kernel.take_console());
            if let Some(key) = key {
                let state = LayerState {
                    args: args.clone(),
                    stage: stage.as_ref().map(|s| StageSnapshot {
                        meta: s.meta.clone(),
                        env: s.meta.env.clone(),
                        shell: s.shell.clone(),
                        cwd: kernel.process(s.container.init_pid).cwd.clone(),
                    }),
                };
                let fs = stage
                    .as_ref()
                    .map_or_else(Fs::new, |s| kernel.fs(s.container.fs).clone());
                self.layers.insert(Layer {
                    id: key.clone(),
                    parent: parent.take(),
                    fs,
                    state,
                });
                parent = Some(key);
            }
        }

        let stage = stage.ok_or_else(|| missing_from("build"))?;
        let fs = kernel.fs(stage.container.fs).clone();
        Ok(Image {
            meta: stage.meta,
            fs,
        })
    }

    /// Registry FROM's pull step: pull `reference` and re-own the
    /// result as the unprivileged unpacking user, ready for
    /// [`enter_stage`].
    fn pull_base(&self, kernel: &Kernel, reference: &str) -> Result<Image, BuildError> {
        let pull_error = |errno| BuildError::Pull {
            reference: reference.into(),
            errno,
        };
        let image_ref =
            ImageRef::parse(reference).ok_or_else(|| pull_error(zr_syscalls::Errno::EINVAL))?;
        let mut image = self.registry.pull(&image_ref).map_err(pull_error)?;

        // Unprivileged unpack: every inode becomes the builder's
        // (Charliecloud storage model; the single-id map then shows the
        // tree as root-owned inside the container).
        image.chown_all(kernel.config.host_uid, kernel.config.host_gid);
        Ok(image)
    }

    /// One RUN instruction: arm the strategy, log `line`, exec, fold
    /// output, disarm. The line follows the strategy's set-up lines, and
    /// a failed `prepare` logs none.
    #[allow(clippy::too_many_arguments)] // internal; bundling hurts call sites
    fn run_instruction(
        &mut self,
        kernel: &mut Kernel,
        stage: &mut Stage,
        opts: &BuildOptions,
        instruction: &Instruction,
        line: String,
        n: u32,
        args: &[(String, String)],
        out: &mut StageOutput,
    ) -> Result<(), BuildError> {
        let strategy = make(opts.force);
        let pid = stage.container.init_pid;

        // ch-image's --force=fakeroot config step: if the image has no
        // fakeroot but its distro repo ships one, install it first.
        let mut fakeroot_present = has_fakeroot(kernel, stage);
        if opts.force == Mode::Fakeroot && !fakeroot_present {
            if let Some(pkg) = repo_for(stage.meta.distro).get("fakeroot") {
                out.log.push(format!(
                    "--force={}: installing fakeroot into image",
                    opts.force.flag()
                ));
                let mut ctx = kernel.ctx(pid);
                if extract_package(&mut ctx, pkg, ChownBehavior::SkipIfMatching).is_ok() {
                    fakeroot_present = true;
                }
            }
        }

        let prepare_env = PrepareEnv {
            fakeroot_in_image: fakeroot_present,
            image_libc: stage.meta.libc.clone(),
            host_libc: opts.host_libc.clone(),
        };
        strategy
            .prepare(kernel, pid, &prepare_env)
            .map_err(|error| BuildError::Prepare {
                flag: opts.force.flag(),
                error,
            })?;

        // Assemble argv. Shell-form commands may get the §5 apt
        // workaround spliced in (zero-consistency modes only); the log
        // shows the original text, as ch-image does.
        let (path, argv) = match instruction {
            Instruction::RunShell(cmd) => {
                let mut executed = cmd.clone();
                if opts.force.injects_apt_workaround() {
                    let (injected, changed) = inject_apt_workaround(cmd);
                    if changed {
                        out.modified += 1;
                        executed = injected;
                    }
                }
                let mut argv = stage.shell.clone();
                argv.push(executed);
                (stage.shell[0].clone(), argv)
            }
            Instruction::RunExec(argv) => (argv.first().cloned().unwrap_or_default(), argv.clone()),
            _ => unreachable!("caller matched RUN forms"),
        };
        out.log.push(line);

        let mut run_env: Vec<(String, String)> = args.to_vec();
        run_env.extend(stage.meta.env.iter().cloned());

        let status = kernel.exec_in(pid, &path, argv, run_env);
        out.log.extend(kernel.take_console());
        strategy.teardown(kernel);

        match status {
            Ok(0) => Ok(()),
            Ok(status) => Err(BuildError::RunFailed {
                instruction: n,
                status,
            }),
            Err(errno) => Err(BuildError::Instruction {
                instruction: n,
                message: format!("cannot execute '{path}': {errno}"),
            }),
        }
    }
}

/// Parse `dockerfile`, check it has a FROM, and compile its stage plan
/// for `target` — the first step of every build, serial or scheduled.
/// A build that fails here runs no stage; its result is
/// [`BuildResult::failed`].
pub fn plan(dockerfile: &str, target: Option<&str>) -> Result<BuildPlan, BuildError> {
    let df: Dockerfile = parse(dockerfile).map_err(BuildError::Parse)?;
    if df.base_image().is_none() {
        return Err(missing_from("build"));
    }
    BuildPlan::compile(&df, target).map_err(BuildError::Plan)
}

/// What one [`Builder::build_stage`] call logged and counted beside the
/// image it returns.
#[derive(Debug, Clone, Default)]
pub struct StageOutput {
    /// The stage's log lines (the stage banner is [`assemble`]'s).
    pub log: Vec<String>,
    /// Cache hits and misses of the stage's instructions.
    pub cache: CacheStats,
    /// RUN instructions the `--force` strategy rewrote.
    pub modified: u32,
}

/// The stages of one build so far: [`record`](Self::record) folds in
/// each [`Builder::build_stage`] outcome, in whatever order stages
/// finish, and [`assemble`] closes the build.
#[derive(Debug, Default)]
pub struct Stages {
    images: HashMap<usize, Image>,
    logs: HashMap<usize, Vec<String>>,
    cache: CacheStats,
    modified: u32,
    error: Option<BuildError>,
}

impl Stages {
    /// Fold in stage `index`'s outcome. The first failure recorded is
    /// the build's error.
    pub fn record(&mut self, index: usize, image: Result<Image, BuildError>, output: StageOutput) {
        self.logs.insert(index, output.log);
        self.cache += output.cache;
        self.modified += output.modified;
        match image {
            Ok(image) => {
                self.images.insert(index, image);
            }
            Err(error) => {
                self.error.get_or_insert(error);
            }
        }
    }

    /// The result image of every stage completed so far.
    pub fn images(&self) -> &HashMap<usize, Image> {
        &self.images
    }

    /// The first stage failure, if any.
    pub fn error(&self) -> Option<&BuildError> {
        self.error.as_ref()
    }
}

/// Close a build from its recorded stages: the pruning notes and a
/// banner per stage (files with more than one stage only) around the
/// stage logs in plan order, whatever order the stages ran in; then the
/// closing lines and the tagged target image, or the failure line. A
/// build that stopped before its target without a stage failing ends
/// [`BuildError::Cancelled`]. Moves the logs and the target image out
/// of `stages`, copying neither.
pub fn assemble(plan: &BuildPlan, opts: &BuildOptions, stages: &mut Stages) -> BuildResult {
    let multi = plan.stages().len() > 1;
    let mut log = Vec::new();
    if multi {
        for &p in plan.pruned() {
            log.push(format!("skipping unused stage: {}", plan.stage_name(p)));
        }
    }
    let total = plan.order().len();
    for (pos, &idx) in plan.order().iter().enumerate() {
        let Some(mut lines) = stages.logs.remove(&idx) else {
            continue;
        };
        if multi {
            log.push(format!(
                "=== stage {} ({}/{total}) ===",
                plan.stage_name(idx),
                pos + 1
            ));
        }
        log.append(&mut lines);
    }
    let mut result = BuildResult {
        success: false,
        log,
        image: None,
        modified_run_instructions: stages.modified,
        tag: opts.tag.clone(),
        cache: stages.cache,
        error: stages.error.clone(),
    };
    match stages.images.remove(&plan.target()) {
        Some(image) if result.error.is_none() => {
            if opts.force.injects_apt_workaround() {
                result.log.push(format!(
                    "--force={}: modified {} RUN instructions",
                    opts.force.flag(),
                    stages.modified
                ));
            }
            let walked: usize = plan
                .order()
                .iter()
                .map(|&i| plan.header().len() + plan.stages()[i].instructions.len())
                .sum();
            result
                .log
                .push(format!("grown in {walked} instructions: {}", opts.tag));
            let mut meta = image.meta;
            meta.tag = opts.tag.clone();
            result.image = Some(Image { meta, fs: image.fs });
            result.success = true;
        }
        _ => {
            let error = result.error.get_or_insert(BuildError::Cancelled);
            result.log.push(format!("error: build failed: {error}"));
        }
    }
    result
}

/// Instruction `n`'s log line, `N. INSTR` or `N* INSTR` by `mark`:
/// the execution loop passes `.` (`*` for FROM whenever the build uses
/// the store), the replay walk passes `*` (ch-image's hit marker). `env`
/// and `args` are the state *before* the instruction. Side lines
/// (warnings, transcripts) are not part of it: they appear only when
/// the instruction executes.
fn instruction_line(
    n: usize,
    mark: char,
    instruction: &Instruction,
    env: &[(String, String)],
    args: &[(String, String)],
    build_args: &[(String, String)],
    run_marker: &str,
) -> String {
    let text = match instruction {
        Instruction::From { image, alias } => {
            let reference = substitute(image, &cache::lookup(env, args));
            match alias {
                Some(a) => format!("FROM {reference} AS {a}"),
                None => format!("FROM {reference}"),
            }
        }
        Instruction::RunShell(cmd) => format!("{run_marker} {cmd}"),
        Instruction::RunExec(argv) => format!("{run_marker} {}", argv.join(" ")),
        Instruction::Env(pairs) => {
            // Substitution is sequential: later pairs may reference
            // earlier ones.
            let mut seen = env.to_vec();
            let mut shown = Vec::new();
            for (key, value) in pairs {
                let value = substitute(value, &cache::lookup(&seen, args));
                shown.push(format!("{key}={value}"));
                seen.push((key.clone(), value));
            }
            format!("ENV {}", shown.join(" "))
        }
        Instruction::Arg { name, default } => {
            let value = cache::resolve_arg(name, default.as_deref(), env, args, build_args);
            format!("ARG {name}={value}")
        }
        Instruction::Workdir(path) => {
            let path = substitute(path, &cache::lookup(env, args));
            format!("WORKDIR {path}")
        }
        Instruction::User(spec) => format!("USER {spec}"),
        Instruction::Label(pairs) => {
            let shown: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("LABEL {}", shown.join(" "))
        }
        Instruction::Copy(spec) | Instruction::Add(spec) => format!(
            "{} {} -> {}",
            instruction.keyword(),
            spec.sources.join(" "),
            spec.dest
        ),
        Instruction::Entrypoint(argv) => format!("ENTRYPOINT {argv:?}"),
        Instruction::Cmd(argv) => format!("CMD {argv:?}"),
        Instruction::Shell(argv) => format!("SHELL {argv:?}"),
        Instruction::NoOp { keyword, args: raw } => format!("{keyword} {raw}"),
    };
    format!("{n}{mark} {text}")
}

/// Enter a stage over `image`: register its program behaviours and
/// create the container on its filesystem handle. Every stage starts
/// here — a pulled base, an earlier stage's result, or a restored cache
/// snapshot — and the handle is a CoW snapshot (O(pages) pointer
/// clones, payload blobs shared with its source), so no bytes are
/// copied. The shell starts as `/bin/sh -c`.
fn enter_stage(
    kernel: &mut Kernel,
    opts: &BuildOptions,
    image: Image,
) -> Result<Stage, BuildError> {
    register_image_binaries(kernel, &image.meta);
    let container = kernel
        .container_create(
            Kernel::HOST_USER_PID,
            ContainerConfig {
                ctype: opts.container_type,
                image: image.fs,
            },
        )
        .map_err(|errno| BuildError::ContainerSetup {
            ctype: opts.container_type,
            errno,
        })?;
    Ok(Stage {
        container,
        meta: image.meta,
        shell: vec!["/bin/sh".into(), "-c".into()],
    })
}

/// COPY --from=stage: read paths out of the source stage's result
/// filesystem and write them into this stage **blob-shared** — every
/// regular file lands as an `Arc` clone of the source blob (with its
/// digest memo riding along), so a cross-stage copy moves zero content
/// bytes and the store's dedup ledger records the sharing.
fn copy_from_stage(
    kernel: &mut Kernel,
    stage: &mut Stage,
    source: &Fs,
    spec: &CopySpec,
    n: u32,
    args: &[(String, String)],
) -> Result<(), BuildError> {
    let pid = stage.container.init_pid;
    let dest = substitute(&spec.dest, &cache::lookup(&stage.meta.env, args));
    let dir_like = dest.ends_with('/') || spec.sources.len() > 1;

    let mut written = Vec::new();
    for src in &spec.sources {
        let src = substitute(src, &cache::lookup(&stage.meta.env, args));
        // Stage-source paths are image paths, absolute by convention.
        let abs_src = if src.starts_with('/') {
            src.clone()
        } else {
            format!("/{src}")
        };
        let ino = source
            .resolve(&abs_src, &Access::root(), FollowMode::Follow)
            .map_err(|e| BuildError::Instruction {
                instruction: n,
                message: format!("COPY --from: {abs_src}: {e}"),
            })?;
        let is_dir = matches!(source.inode(ino).map(|i| &i.kind), Ok(FileKind::Dir { .. }));
        if is_dir {
            // Docker semantics: a directory source copies its
            // *contents* into dest (dest becomes/extends a directory).
            let target = match dest.trim_end_matches('/') {
                "" => "/".to_string(),
                d => d.to_string(),
            };
            copy_tree(kernel, pid, source, &abs_src, &target, n, &mut written)?;
        } else {
            let base = abs_src.rsplit('/').next().unwrap_or(abs_src.as_str());
            let target = if dir_like {
                format!("{}/{}", dest.trim_end_matches('/'), base)
            } else {
                dest.clone()
            };
            copy_node(kernel, pid, source, ino, &target, n, &mut written)?;
        }
    }
    apply_chown(kernel, stage, spec, n, &written)
}

/// Recursively copy the contents of `src_dir` (in `source`) under
/// `dest_dir` (in the stage), sharing file blobs.
fn copy_tree(
    kernel: &mut Kernel,
    pid: zr_kernel::Pid,
    source: &Fs,
    src_dir: &str,
    dest_dir: &str,
    n: u32,
    written: &mut Vec<String>,
) -> Result<(), BuildError> {
    let mut ctx = kernel.ctx(pid);
    let dest_abs = join(&ctx.getcwd(), dest_dir);
    ctx.mkdir_p(&dest_abs, 0o755)
        .map_err(|e| BuildError::Instruction {
            instruction: n,
            message: format!("COPY --from: {dest_abs}: {e}"),
        })?;
    let entries =
        source
            .read_dir(src_dir, &Access::root())
            .map_err(|e| BuildError::Instruction {
                instruction: n,
                message: format!("COPY --from: {src_dir}: {e}"),
            })?;
    for (name, ino) in entries {
        let child_src = format!("{}/{name}", src_dir.trim_end_matches('/'));
        let child_dest = format!("{}/{name}", dest_abs.trim_end_matches('/'));
        let is_dir = matches!(source.inode(ino).map(|i| &i.kind), Ok(FileKind::Dir { .. }));
        if is_dir {
            copy_tree(kernel, pid, source, &child_src, &child_dest, n, written)?;
        } else {
            copy_node(kernel, pid, source, ino, &child_dest, n, written)?;
        }
    }
    Ok(())
}

/// Copy one non-directory inode from the source stage to `target` in
/// the current stage: files land Arc-shared, symlinks are recreated.
fn copy_node(
    kernel: &mut Kernel,
    pid: zr_kernel::Pid,
    source: &Fs,
    ino: zr_vfs::Ino,
    target: &str,
    n: u32,
    written: &mut Vec<String>,
) -> Result<(), BuildError> {
    let mut ctx = kernel.ctx(pid);
    let absolute = join(&ctx.getcwd(), target);
    if let Some((parent, _)) = split_parent(&absolute) {
        ctx.mkdir_p(&parent, 0o755)
            .map_err(|e| BuildError::Instruction {
                instruction: n,
                message: format!("COPY --from: {parent}: {e}"),
            })?;
    }
    let kind = source
        .inode(ino)
        .map(|i| i.kind.clone())
        .map_err(|e| BuildError::Instruction {
            instruction: n,
            message: format!("COPY --from: {target}: {e}"),
        })?;
    match kind {
        FileKind::File(blob) => {
            let perm = source.stat_ino(ino).mode & 0o7777;
            // The Arc clone is the whole transfer: no bytes move, and
            // the blob's memoized digest keeps image digesting warm.
            kernel
                .write_file_blob(pid, &absolute, perm, blob)
                .map_err(|e| BuildError::Instruction {
                    instruction: n,
                    message: format!("COPY --from: {absolute}: {e}"),
                })?;
        }
        FileKind::Symlink(link_target) => {
            let fsid = kernel.process(pid).fs;
            kernel
                .fs_mut(fsid)
                .symlink(&link_target, &absolute, &Access::root())
                .map_err(|e| BuildError::Instruction {
                    instruction: n,
                    message: format!("COPY --from: {absolute}: {e}"),
                })?;
        }
        other => {
            return Err(BuildError::Instruction {
                instruction: n,
                message: format!("COPY --from: {absolute}: unsupported file kind {other:?}"),
            });
        }
    }
    written.push(absolute);
    Ok(())
}

/// COPY/ADD: write context files into the stage filesystem.
fn copy_into_stage(
    kernel: &mut Kernel,
    stage: &mut Stage,
    opts: &BuildOptions,
    spec: &CopySpec,
    n: u32,
    args: &[(String, String)],
) -> Result<(), BuildError> {
    let pid = stage.container.init_pid;
    let dest = substitute(&spec.dest, &cache::lookup(&stage.meta.env, args));
    let dir_like = dest.ends_with('/') || spec.sources.len() > 1;

    let mut written = Vec::new();
    for source in &spec.sources {
        let source = substitute(source, &cache::lookup(&stage.meta.env, args));
        let blob = opts
            .context
            .iter()
            .find(|(name, _)| *name == source)
            .map(|(_, blob)| Arc::clone(blob))
            .ok_or_else(|| BuildError::Instruction {
                instruction: n,
                message: format!("COPY: {source}: not found in build context"),
            })?;
        let target = if dir_like {
            format!("{}/{}", dest.trim_end_matches('/'), source)
        } else {
            dest.clone()
        };
        let mut ctx = kernel.ctx(pid);
        let absolute = join(&ctx.getcwd(), &target);
        if let Some((parent, _)) = split_parent(&absolute) {
            ctx.mkdir_p(&parent, 0o755)
                .map_err(|e| BuildError::Instruction {
                    instruction: n,
                    message: format!("COPY: {parent}: {e}"),
                })?;
        }
        // The write shares the context blob with the stage filesystem
        // (and through it with every snapshot): no bytes are copied,
        // and the blob's digest memo rides along into the layer store's
        // dedup accounting and the image digest.
        kernel
            .write_file_blob(pid, &absolute, 0o644, blob)
            .map_err(|e| BuildError::Instruction {
                instruction: n,
                message: format!("COPY: {absolute}: {e}"),
            })?;
        written.push(absolute);
    }

    apply_chown(kernel, stage, spec, n, &written)
}

/// --chown: builder-side layer metadata, applied directly to storage
/// (numeric ids; an unprivileged builder has no passwd to consult).
fn apply_chown(
    kernel: &mut Kernel,
    stage: &Stage,
    spec: &CopySpec,
    n: u32,
    written: &[String],
) -> Result<(), BuildError> {
    let Some(owner) = &spec.chown else {
        return Ok(());
    };
    let (uid, gid) = parse_numeric_owner(owner).ok_or_else(|| BuildError::Instruction {
        instruction: n,
        message: format!("COPY --chown={owner}: numeric uid[:gid] required"),
    })?;
    let fsid = stage.container.fs;
    for path in written {
        let ino = kernel
            .fs(fsid)
            .resolve(path, &Access::root(), FollowMode::Follow)
            .map_err(|e| BuildError::Instruction {
                instruction: n,
                message: format!("COPY --chown: {path}: {e}"),
            })?;
        kernel
            .fs_mut(fsid)
            .set_owner(ino, uid, gid)
            .map_err(|e| BuildError::Instruction {
                instruction: n,
                message: format!("COPY --chown: {path}: {e}"),
            })?;
    }
    Ok(())
}

/// `uid[:gid]` with numeric components.
fn parse_numeric_owner(spec: &str) -> Option<(u32, u32)> {
    match spec.split_once(':') {
        Some((u, g)) => Some((u.parse().ok()?, g.parse().ok()?)),
        None => {
            let uid = spec.parse().ok()?;
            Some((uid, uid))
        }
    }
}

/// Does the stage filesystem carry a fakeroot binary?
fn has_fakeroot(kernel: &Kernel, stage: &Stage) -> bool {
    stage.meta.has_fakeroot()
        || kernel
            .fs(stage.container.fs)
            .resolve("/usr/bin/fakeroot", &Access::root(), FollowMode::Follow)
            .is_ok()
}

/// The env slice of an optional stage (empty before FROM).
fn stage_env(stage: &Option<Stage>) -> &[(String, String)] {
    stage.as_ref().map_or(&[], |s| &s.meta.env[..])
}

fn missing_from(keyword: &str) -> BuildError {
    BuildError::MissingFrom {
        keyword: keyword.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(dockerfile: &str, mode: Mode) -> (BuildResult, Kernel) {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let result = builder.build(&mut kernel, dockerfile, &BuildOptions::new("t", mode));
        (result, kernel)
    }

    #[test]
    fn empty_dockerfile_fails_cleanly() {
        let (r, _) = build("", Mode::None);
        assert!(!r.success);
        assert!(
            r.log_text().contains("error: build failed"),
            "{}",
            r.log_text()
        );
    }

    #[test]
    fn unknown_base_image_fails_cleanly() {
        let (r, _) = build("FROM nosuch:1\n", Mode::None);
        assert!(!r.success);
        assert!(
            r.log_text().contains("cannot pull nosuch:1"),
            "{}",
            r.log_text()
        );
    }

    #[test]
    fn parse_error_is_reported() {
        let (r, _) = build("RUN before-from\n", Mode::None);
        assert!(!r.success);
    }

    #[test]
    fn env_and_arg_substitution_reaches_run() {
        let df = "FROM alpine:3.19\nARG WHO=world\nENV GREETING=hello\n\
                  RUN echo $GREETING $WHO > /out\n";
        let (r, k) = build(df, Mode::None);
        assert!(r.success, "{}", r.log_text());
        let image = r.image.unwrap();
        let data = image.fs.read_file("/out", &Access::root()).unwrap();
        assert_eq!(String::from_utf8(data).unwrap(), "hello world\n");
        drop(k);
    }

    #[test]
    fn copy_places_context_files() {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let mut opts = BuildOptions::new("t", Mode::None);
        opts.context = vec![crate::options::context_file(
            "app.conf",
            b"key=value\n".to_vec(),
        )];
        let r = builder.build(
            &mut kernel,
            "FROM alpine:3.19\nWORKDIR /srv\nCOPY app.conf conf/\n",
            &opts,
        );
        assert!(r.success, "{}", r.log_text());
        let image = r.image.unwrap();
        let data = image
            .fs
            .read_file("/srv/conf/app.conf", &Access::root())
            .unwrap();
        assert_eq!(data, b"key=value\n");
    }

    #[test]
    fn copy_missing_source_fails() {
        let (r, _) = {
            let mut kernel = Kernel::default_kernel();
            let mut builder = Builder::new();
            let r = builder.build(
                &mut kernel,
                "FROM alpine:3.19\nCOPY nope /x\n",
                &BuildOptions::new("t", Mode::None),
            );
            (r, kernel)
        };
        assert!(!r.success);
        assert!(
            r.log_text().contains("not found in build context"),
            "{}",
            r.log_text()
        );
    }

    #[test]
    fn copy_from_self_stage_is_a_parse_error() {
        let (r, _) = build(
            "FROM alpine:3.19 AS base\nCOPY --from=base /x /y\n",
            Mode::None,
        );
        assert!(!r.success);
        assert!(
            matches!(r.error, Some(BuildError::Parse(_))),
            "{:?}",
            r.error
        );
        assert!(
            r.log_text().contains("refers to its own stage"),
            "{}",
            r.log_text()
        );
    }

    #[test]
    fn multi_stage_copy_shares_blobs_without_byte_copies() {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let mut opts = BuildOptions::new("t", Mode::None);
        opts.context = vec![crate::options::context_file(
            "app.bin",
            b"payload-bytes".to_vec(),
        )];
        let context_blob = Arc::clone(&opts.context[0].1);
        let r = builder.build(
            &mut kernel,
            "FROM alpine:3.19 AS build\nCOPY app.bin /app.bin\n\
             FROM alpine:3.19\nCOPY --from=build /app.bin /opt/app.bin\n",
            &opts,
        );
        assert!(r.success, "{}", r.log_text());
        let image = r.image.unwrap();
        let blob = image
            .fs
            .read_file_blob("/opt/app.bin", &Access::root())
            .unwrap();
        // The context blob crossed two stages as the SAME allocation:
        // context → stage `build` → final image, zero content copies.
        assert!(
            Arc::ptr_eq(&blob, &context_blob),
            "cross-stage COPY must share the blob Arc"
        );
    }

    #[test]
    fn multi_stage_copy_of_directory_copies_contents() {
        let (r, _) = build(
            "FROM alpine:3.19 AS build\n\
             RUN mkdir -p /out && echo one > /out/a && echo two > /out/b\n\
             FROM alpine:3.19\nCOPY --from=build /out /dist\n",
            Mode::None,
        );
        assert!(r.success, "{}", r.log_text());
        let image = r.image.unwrap();
        let a = image.fs.read_file("/dist/a", &Access::root()).unwrap();
        let b = image.fs.read_file("/dist/b", &Access::root()).unwrap();
        assert_eq!(a, b"one\n");
        assert_eq!(b, b"two\n");
    }

    const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
                           FROM base AS left\nRUN echo l > /left\n\
                           FROM base AS right\nRUN echo r > /right\n\
                           FROM alpine:3.19\n\
                           COPY --from=left /left /left\n\
                           COPY --from=right /right /right\n\
                           COPY --from=base /shared /shared\n";

    #[test]
    fn diamond_builds_serially_and_deterministically() {
        let build_once = || {
            let mut kernel = Kernel::default_kernel();
            let mut builder = Builder::new();
            let r = builder.build(&mut kernel, DIAMOND, &BuildOptions::new("d", Mode::None));
            assert!(r.success, "{}", r.log_text());
            r.image.unwrap().digest()
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    fn pruned_stage_never_executes() {
        // The unused stage's base does not exist in the registry: if
        // pruning failed the build would fail trying to pull it.
        let (r, _) = build(
            "FROM nosuch:1 AS unused\nRUN exit 1\n\
             FROM alpine:3.19 AS used\nRUN echo u > /u\n\
             FROM alpine:3.19\nCOPY --from=used /u /u\n",
            Mode::None,
        );
        assert!(r.success, "{}", r.log_text());
        assert!(
            r.log_text().contains("skipping unused stage: unused"),
            "{}",
            r.log_text()
        );
    }

    #[test]
    fn target_selects_an_intermediate_stage() {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let mut opts = BuildOptions::new("t", Mode::None);
        opts.target = Some("base".into());
        let r = builder.build(&mut kernel, DIAMOND, &opts);
        assert!(r.success, "{}", r.log_text());
        let image = r.image.unwrap();
        assert!(image.fs.read_file("/shared", &Access::root()).is_ok());
        assert!(
            image.fs.read_file("/left", &Access::root()).is_err(),
            "later stages must not have run"
        );
        let mut bad = BuildOptions::new("t", Mode::None);
        bad.target = Some("ghost".into());
        let r = builder.build(&mut kernel, DIAMOND, &bad);
        assert!(!r.success);
        assert!(
            matches!(r.error, Some(BuildError::Plan(_))),
            "{:?}",
            r.error
        );
    }

    #[test]
    fn multi_stage_warm_rebuild_executes_nothing() {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let opts = BuildOptions::new("d", Mode::None);
        let cold = builder.build(&mut kernel, DIAMOND, &opts);
        assert!(cold.success, "{}", cold.log_text());
        assert_eq!(cold.cache.hits, 0);
        let warm = builder.build(&mut kernel, DIAMOND, &opts);
        assert!(warm.success, "{}", warm.log_text());
        assert_eq!(warm.cache.misses, 0, "{}", warm.log_text());
        assert_eq!(
            cold.image.unwrap().digest(),
            warm.image.unwrap().digest(),
            "replayed image must digest identically"
        );
    }

    #[test]
    fn upstream_edit_invalidates_downstream_stage() {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let opts = BuildOptions::new("t", Mode::None);
        let df1 = "FROM alpine:3.19 AS build\nRUN echo v1 > /artifact\n\
                   FROM alpine:3.19\nCOPY --from=build /artifact /artifact\n";
        let r1 = builder.build(&mut kernel, df1, &opts);
        assert!(r1.success, "{}", r1.log_text());
        let df2 = df1.replace("echo v1", "echo v2");
        let r2 = builder.build(&mut kernel, &df2, &opts);
        assert!(r2.success, "{}", r2.log_text());
        let image = r2.image.unwrap();
        let data = image.fs.read_file("/artifact", &Access::root()).unwrap();
        assert_eq!(data, b"v2\n", "stale cross-stage copy was replayed");
        assert!(r2.cache.misses >= 2, "RUN and the COPY --from must re-run");
    }

    #[test]
    fn cold_build_snapshots_every_instruction() {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let r = builder.build(
            &mut kernel,
            "FROM alpine:3.19\nRUN true\n",
            &BuildOptions::new("t", Mode::None),
        );
        assert!(r.success, "{}", r.log_text());
        assert_eq!(r.cache.hits, 0);
        assert_eq!(r.cache.misses, 2);
        assert_eq!(builder.layers.len(), 2);
    }

    #[test]
    fn exec_form_bypasses_the_shell() {
        let df = "FROM debian:12\nRUN [\"/usr/bin/true\"]\n";
        let (r, _) = build(df, Mode::None);
        assert!(r.success, "{}", r.log_text());
    }

    #[test]
    fn run_before_from_is_an_error() {
        let (r, _) = build("ARG A=1\nRUN true\n", Mode::None);
        assert!(!r.success);
    }

    #[test]
    fn empty_shell_instruction_fails_cleanly() {
        let (r, _) = build("FROM alpine:3.19\nSHELL []\nRUN true\n", Mode::None);
        assert!(!r.success);
        assert!(
            r.log_text()
                .contains("SHELL requires at least one argument"),
            "{}",
            r.log_text()
        );
    }

    #[test]
    fn empty_exec_form_run_fails_cleanly() {
        let (r, _) = build("FROM alpine:3.19\nRUN []\n", Mode::None);
        assert!(!r.success, "{}", r.log_text());
    }
}
