//! `zr-image` — a ch-image-flavoured CLI over the simulated build stack.
//!
//! ```text
//! zr-image build [-t TAG] [-f DOCKERFILE] [BUILD FLAGS…] [CONTEXT_DIR]
//! zr-image build-many [BUILD FLAGS…] DOCKERFILE…
//! zr-image export --output DIR [build flags…]   # build, then OCI layout
//! zr-image import DIR           # OCI layout -> image, prints the digest
//! zr-image inspect [--json] DIR # layout summary + image digest
//! zr-image audit [-f DOCKERFILE] [--jobs A,B] [--json] [--expect-clean]
//!                [--output DIR] [--skew NS] [--shuffle-readdir SEED]
//!                [--gen-seed SEED] [--ids UID:GID] [--raw-tar]
//!                [--json-key-seed SEED]       # build twice, diff layouts
//! zr-image audit --layouts DIR_A DIR_B [--json] [--expect-clean]
//! zr-image serve --cache-dir DIR [--addr HOST:PORT]   # OCI endpoint
//! zr-image push --registry ADDR DIR [NAME[:TAG]]      # layout -> wire
//! zr-image pull --registry ADDR NAME[:TAG] DIR        # wire -> layout
//! zr-image store (gc|stats) --cache-dir DIR
//! zr-image filter [ARCH…]       # compiled seccomp filter, disassembled
//! zr-image table                # the 29 filtered syscalls × 6 arches
//! zr-image list                 # known base images
//!
//! BUILD FLAGS: [--force=MODE] [--target STAGE] [--no-cache]
//!              [--cache-stats] [--jobs N] [--fail-fast] [--follow ID]
//!              [--context DIR] [--cache-limit BYTES] [--cache-dir DIR]
//!              [--store-limit BYTES] [--registry ADDR] [--retry N]
//!              [--timeout SECS] [--fault-plan PLAN]
//! ```
//!
//! `build` is `build-many` with one request: both run one batch on a
//! scheduler with `--jobs` resident workers (default: one per CPU),
//! every request as its stage plan. `build` prints the log bare;
//! `build-many` prefixes each line with `[id] ` and adds a status line
//! per build. `--follow ID` streams that build's stage chunks as they
//! land (`[id:stage]` lines, then `[id] STATUS`). `--registry ADDR`
//! resolves `FROM` over the wire instead of the built-in catalog (the
//! pull-through cache still applies).
//!
//! `audit` builds the same Dockerfile twice under independently
//! constructed builders (optionally at different `--jobs` levels) and
//! diffs the two OCI layouts blob-by-blob, classifying every divergence
//! (tar-mtime, tar-ordering, owner-mode, json-key-order, layer-count,
//! payload-content, entry-presence). The `--skew`/`--shuffle-readdir`/
//! `--gen-seed`/`--ids` flags inject nondeterminism into arm B's kernel
//! and `--raw-tar`/`--json-key-seed` disable pieces of the canonical
//! exporter, so each class can be forced on demand. With
//! `--expect-clean` a divergent audit exits 2 (clean exits 0, errors
//! exit 1) — the reproducibility gate for CI.
//!
//! Fault injection: `--fault-plan PLAN` (or the `ZR_FAULT` environment
//! variable) installs a deterministic [`zr_fault::FaultPlan`] for the
//! whole process — e.g. `seed=7;wire.client.reset=2;store.write.err=1`.
//! `--retry N` and `--timeout SECS` tune the wire client's retry
//! policy and per-request deadline (`--timeout 0` = block forever).

use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use zeroroot_core::Mode;
use zr_build::{BuildOptions, CacheMode, CacheStats};
use zr_registry::RemoteRegistry;
use zr_sched::{
    BatchHandle, BuildReport, BuildRequest, BuildStatus, LogEvent, Scheduler, SchedulerConfig,
};
use zr_syscalls::filtered::{filtered_on, FILTERED};
use zr_syscalls::Arch;

fn usage() -> ExitCode {
    eprintln!("usage: zr-image build [-t TAG] [-f DOCKERFILE] [BUILD FLAGS…] [CONTEXT_DIR]");
    eprintln!("       zr-image build-many [BUILD FLAGS…] DOCKERFILE…");
    eprintln!("       zr-image export --output DIR [-t TAG] [-f DOCKERFILE] [BUILD FLAGS…]");
    eprintln!("       zr-image import DIR");
    eprintln!("       zr-image inspect [--json] DIR");
    eprintln!(
        "       zr-image audit [-f DOCKERFILE] [--jobs A,B] [--json] [--expect-clean] \
         [--output DIR] [--skew NS] [--shuffle-readdir SEED] [--gen-seed SEED] \
         [--ids UID:GID] [--raw-tar] [--json-key-seed SEED]"
    );
    eprintln!("       zr-image audit --layouts DIR_A DIR_B [--json] [--expect-clean]");
    eprintln!("       zr-image serve --cache-dir DIR [--addr HOST:PORT]");
    eprintln!("       zr-image push --registry ADDR [--retry N] [--timeout SECS] DIR [NAME[:TAG]]");
    eprintln!("       zr-image pull --registry ADDR [--retry N] [--timeout SECS] NAME[:TAG] DIR");
    eprintln!("       zr-image store (gc|stats) --cache-dir DIR");
    eprintln!("       zr-image filter [ARCH…]");
    eprintln!("       zr-image table");
    eprintln!("       zr-image list");
    eprintln!();
    eprintln!(
        "BUILD FLAGS: [--force=MODE] [--target STAGE] [--no-cache] [--cache-stats] [--jobs N] \
         [--fail-fast] [--follow ID] [--context DIR] [--cache-limit BYTES] [--cache-dir DIR] \
         [--store-limit BYTES] [--registry ADDR] [--retry N] [--timeout SECS] \
         [--fault-plan PLAN]"
    );
    let modes: Vec<&str> = Mode::ALL.iter().map(|m| m.flag()).collect();
    eprintln!("modes: {}", modes.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // A `ZR_FAULT` plan applies to every verb; `--fault-plan` (below)
    // overrides it for the commands that take one.
    if let Err(e) = zr_fault::install_from_env() {
        eprintln!("error: ZR_FAULT: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..], None),
        Some("build-many") => cmd_build_many(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("import") => cmd_import(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("push") => cmd_push(&args[1..]),
        Some("pull") => cmd_pull(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("filter") => cmd_filter(&args[1..]),
        Some("table") => cmd_table(),
        Some("list") => {
            for r in zr_image::Registry::catalog() {
                println!("{r}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Parse and install a `--fault-plan` for the rest of the process.
/// Overrides any plan already installed from `ZR_FAULT`.
fn install_fault_plan(text: &str) -> bool {
    match zr_fault::FaultPlan::parse(text) {
        Ok(plan) => {
            zr_fault::install_global(&plan);
            true
        }
        Err(e) => {
            eprintln!("error: --fault-plan: {e}");
            false
        }
    }
}

/// A wire client with the CLI's `--retry` / `--timeout` knobs applied
/// (`--timeout 0` disables the per-request deadline entirely).
fn wire_client(addr: &str, retry: Option<u32>, timeout_secs: Option<u64>) -> RemoteRegistry {
    let mut client = RemoteRegistry::new(addr.to_string());
    if let Some(attempts) = retry {
        client = client.with_retry(zr_fault::RetryPolicy::with_attempts(attempts));
    }
    if let Some(secs) = timeout_secs {
        client = client.with_timeout((secs > 0).then(|| std::time::Duration::from_secs(secs)));
    }
    client
}

/// The flags `build`, `export` and `build-many` share, from one parser.
/// `-t`, `-f` and a `CONTEXT_DIR` positional are `build`'s; the other
/// positionals are `build-many`'s Dockerfiles.
struct BuildFlags {
    /// `--force=`, `--no-cache`, `--target` (tag and context are per
    /// request).
    options: BuildOptions,
    /// `--jobs`, `--fail-fast` and the cache and store budgets.
    config: SchedulerConfig,
    cache_stats: bool,
    follow: Option<String>,
    tag: Option<String>,
    file: Option<String>,
    context_dir: Option<String>,
    registry: Option<String>,
    retry: Option<u32>,
    timeout_secs: Option<u64>,
    positional: Vec<String>,
}

/// A flag's numeric value; unparsable is the usage error (exit 2).
fn number<T: std::str::FromStr>(value: &str) -> Result<T, ExitCode> {
    value.parse().map_err(|_| usage())
}

/// Parse the shared build flags; `Err` carries the exit code.
fn parse_build_flags(args: &[String]) -> Result<BuildFlags, ExitCode> {
    let mut f = BuildFlags {
        options: BuildOptions {
            force: Mode::Seccomp,
            ..BuildOptions::default()
        },
        config: SchedulerConfig::default(),
        cache_stats: false,
        follow: None,
        tag: None,
        file: None,
        context_dir: None,
        registry: None,
        retry: None,
        timeout_secs: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-cache" => f.options.cache = CacheMode::Disabled,
            "--cache-stats" => f.cache_stats = true,
            "--fail-fast" => f.config.fail_fast = true,
            _ if a.starts_with("--force=") => {
                let value = &a["--force=".len()..];
                match Mode::from_flag(value) {
                    Some(m) => f.options.force = m,
                    None => {
                        eprintln!("error: unknown --force mode '{value}'");
                        return Err(ExitCode::from(2));
                    }
                }
            }
            _ if !a.starts_with('-') => f.positional.push(a.clone()),
            flag => {
                let Some(value) = it.next() else {
                    return Err(usage());
                };
                match flag {
                    "-t" => f.tag = Some(value.clone()),
                    "-f" => f.file = Some(value.clone()),
                    "--target" => f.options.target = Some(value.clone()),
                    "--context" => f.context_dir = Some(value.clone()),
                    "--follow" => f.follow = Some(value.clone()),
                    "--registry" => f.registry = Some(value.clone()),
                    "--cache-dir" => f.config.cache_dir = Some(value.into()),
                    "--jobs" => f.config.jobs = number(value)?,
                    "--cache-limit" => f.config.cache_limit = number(value)?,
                    "--store-limit" => f.config.store_limit = Some(number(value)?),
                    "--retry" => f.retry = Some(number(value)?),
                    "--timeout" => f.timeout_secs = Some(number(value)?),
                    "--fault-plan" if install_fault_plan(value) => {}
                    "--fault-plan" => return Err(ExitCode::from(2)),
                    _ => return Err(usage()),
                }
            }
        }
    }
    Ok(f)
}

/// `build` (and, with `export_to`, the build half of `export`): a
/// one-request batch whose log prints unprefixed.
fn cmd_build(args: &[String], export_to: Option<&str>) -> ExitCode {
    let flags = match parse_build_flags(args) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let context_dir = match flags.positional.as_slice() {
        [] => flags.context_dir.as_deref(),
        [dir] => Some(dir.as_str()),
        _ => return usage(),
    };
    let dockerfile = match read_dockerfile(flags.file.as_deref()) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let context = match load_context(context_dir) {
        Ok(context) => context,
        Err(code) => return code,
    };
    let tag = flags.tag.as_deref().unwrap_or("img");
    let options = BuildOptions {
        tag: tag.to_string(),
        context,
        ..flags.options.clone()
    };
    let request = BuildRequest::with_options(tag, &dockerfile, options);
    let report = match run_batch(&flags, vec![request], false) {
        Ok(mut reports) => reports.remove(0),
        Err(code) => return code,
    };
    let Some(image) = report.result.image.as_ref() else {
        return ExitCode::FAILURE;
    };
    if let Some(output) = export_to {
        match zr_store::export(image, output) {
            Ok(summary) => {
                print!("{summary}");
                println!("image digest: {}", image.digest());
                println!("exported {} to {output}", summary.ref_name);
            }
            Err(e) => {
                eprintln!("error: export to {output}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `export`: pull the `--output DIR` flag out, build, then write the
/// OCI layout.
fn cmd_export(args: &[String]) -> ExitCode {
    let mut build_args: Vec<String> = Vec::new();
    let mut output: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--output" {
            match it.next() {
                Some(dir) => output = Some(dir.clone()),
                None => return usage(),
            }
        } else {
            build_args.push(a.clone());
        }
    }
    let Some(output) = output else {
        eprintln!("error: export needs --output DIR");
        return usage();
    };
    cmd_build(&build_args, Some(&output))
}

/// `import DIR`: materialize an OCI layout and report its digest.
fn cmd_import(args: &[String]) -> ExitCode {
    let [dir] = args else { return usage() };
    match zr_store::import(dir) {
        Ok(image) => {
            println!("imported {}", image.meta.reference());
            println!(
                "{} inodes, {} payload bytes",
                image.fs.inode_count(),
                image.fs.content_bytes()
            );
            println!("image digest: {}", image.digest());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: import {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `inspect [--json] DIR`: layout summary plus the materialized image
/// digest — human-readable by default, one JSON document with `--json`.
fn cmd_inspect(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut dir: Option<&String> = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            _ if !a.starts_with('-') && dir.is_none() => dir = Some(a),
            _ => return usage(),
        }
    }
    let Some(dir) = dir else { return usage() };
    let summary = match zr_store::inspect(dir) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: inspect {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !json {
        print!("{summary}");
    }
    match zr_store::materialize_layout(dir, &summary) {
        Ok(image) => {
            if json {
                println!("{}", summary_json(&summary, &image.digest()));
            } else {
                println!("image digest: {}", image.digest());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: inspect {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// An [`zr_store::OciSummary`] (plus the materialized image digest) as
/// a JSON document with fixed member order, for `inspect --json`.
fn summary_json(summary: &zr_store::OciSummary, image_digest: &str) -> String {
    use zr_store::json::escape;
    let layers: Vec<String> = summary
        .layer_digests
        .iter()
        .zip(&summary.layer_sizes)
        .map(|(digest, size)| {
            format!(
                "{{\"digest\":\"sha256:{}\",\"size\":{size}}}",
                escape(digest)
            )
        })
        .collect();
    format!(
        "{{\"config\":\"sha256:{}\",\"image\":\"{}\",\"layers\":[{}],\
         \"manifest\":\"sha256:{}\",\"ref\":\"{}\"}}",
        escape(&summary.config_digest),
        escape(image_digest),
        layers.join(","),
        escape(&summary.manifest_digest),
        escape(&summary.ref_name),
    )
}

/// Resolve the Dockerfile text the way `build` does: `-f PATH`, `-f -`
/// (stdin), or the ch-image default (`./Dockerfile`, else stdin).
fn read_dockerfile(file: Option<&str>) -> Result<String, ExitCode> {
    match file {
        Some("-") => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() || buf.is_empty() {
                eprintln!("error: no Dockerfile on stdin");
                return Err(ExitCode::FAILURE);
            }
            Ok(buf)
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }),
        None => match std::fs::read_to_string("Dockerfile") {
            Ok(text) => Ok(text),
            Err(_) => {
                let mut buf = String::new();
                if std::io::stdin().read_to_string(&mut buf).is_err() || buf.is_empty() {
                    eprintln!("error: no Dockerfile (use -f PATH or pipe one in)");
                    return Err(ExitCode::FAILURE);
                }
                Ok(buf)
            }
        },
    }
}

/// `audit`: build the Dockerfile twice under independently constructed
/// builders (arm A and arm B) and diff the two OCI layouts blob-by-blob,
/// or — with `--layouts DIR_A DIR_B` — diff two existing layouts.
///
/// The injection flags (`--skew`, `--shuffle-readdir`, `--gen-seed`,
/// `--ids`) apply to arm B's kernel; `--raw-tar` switches *both* arms
/// to the naive packer (preserved mtimes, readdir order) and
/// `--json-key-seed` shuffles arm B's config key order, so every
/// divergence class in the taxonomy can be forced — or shown suppressed
/// — from the command line.
///
/// Exit codes: 0 for a clean audit (and for a divergent one without
/// `--expect-clean`: the audit itself succeeded and the report is the
/// product), 2 for a divergent audit under `--expect-clean`, 1 on error.
fn cmd_audit(args: &[String]) -> ExitCode {
    use zr_audit::{audit_build, audit_layouts, ArmSpec};
    use zr_store::{ExportOpts, TarOpts};
    use zr_vfs::Nondeterminism;

    let mut file: Option<String> = None;
    let mut jobs = (1usize, 1usize);
    let mut json = false;
    let mut expect_clean = false;
    let mut output: Option<String> = None;
    let mut layouts: Option<(String, String)> = None;
    let mut nondet = Nondeterminism::default();
    let mut raw_tar = false;
    let mut json_key_seed: Option<u64> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-f" => match it.next() {
                Some(f) => file = Some(f.clone()),
                None => return usage(),
            },
            "--jobs" => match it.next() {
                Some(spec) => {
                    let parsed: Option<Vec<usize>> =
                        spec.split(',').map(|v| v.parse().ok()).collect();
                    match parsed.as_deref() {
                        Some([both]) => jobs = (*both, *both),
                        Some([a, b]) => jobs = (*a, *b),
                        _ => {
                            eprintln!("error: --jobs wants A,B (or one count for both arms)");
                            return ExitCode::from(2);
                        }
                    }
                }
                None => return usage(),
            },
            "--json" => json = true,
            "--expect-clean" => expect_clean = true,
            "--output" => match it.next() {
                Some(dir) => output = Some(dir.clone()),
                None => return usage(),
            },
            "--layouts" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => layouts = Some((a.clone(), b.clone())),
                _ => return usage(),
            },
            "--skew" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ns) => nondet.clock_skew = ns,
                None => return usage(),
            },
            "--shuffle-readdir" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => nondet.shuffle_readdir = Some(seed),
                None => return usage(),
            },
            "--gen-seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => nondet.gen_seed = Some(seed),
                None => return usage(),
            },
            "--ids" => match it.next().and_then(|v| {
                let (uid, gid) = v.split_once(':')?;
                Some((uid.parse().ok()?, gid.parse().ok()?))
            }) {
                Some(ids) => nondet.default_ids = Some(ids),
                None => {
                    eprintln!("error: --ids wants UID:GID");
                    return ExitCode::from(2);
                }
            },
            "--raw-tar" => raw_tar = true,
            "--json-key-seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => json_key_seed = Some(seed),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    // Diff-only mode: two layouts already on disk, no builds.
    let result = if let Some((dir_a, dir_b)) = layouts {
        audit_layouts(Path::new(&dir_a), Path::new(&dir_b))
    } else {
        let dockerfile = match read_dockerfile(file.as_deref()) {
            Ok(text) => text,
            Err(code) => return code,
        };
        let tar = TarOpts {
            preserve_mtimes: raw_tar,
            readdir_order: raw_tar,
        };
        let arm_a = ArmSpec {
            jobs: jobs.0,
            nondet: Nondeterminism::default(),
            export: ExportOpts {
                tar,
                json_key_seed: None,
            },
        };
        let arm_b = ArmSpec {
            jobs: jobs.1,
            nondet,
            export: ExportOpts { tar, json_key_seed },
        };
        // Layouts land under --output (kept), or a scratch directory
        // removed once the verdict is in.
        let (out_dir, scratch) = match &output {
            Some(dir) => (std::path::PathBuf::from(dir), false),
            None => (
                std::env::temp_dir().join(format!("zr-audit-{}", std::process::id())),
                true,
            ),
        };
        let result = audit_build(&dockerfile, &arm_a, &arm_b, &out_dir);
        if scratch {
            let _ = std::fs::remove_dir_all(&out_dir);
        }
        result
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: audit: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", zr_audit::render_json(&outcome));
    } else {
        print!("{}", zr_audit::render_human(&outcome));
    }
    if outcome.clean() || !expect_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `serve --cache-dir DIR [--addr HOST:PORT]`: run the OCI
/// distribution endpoint over the store at DIR until killed. The bound
/// address is printed on stdout (one line) so scripts can pick up an
/// OS-assigned port from `--addr 127.0.0.1:0`.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cache_dir: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(dir.clone()),
                None => return usage(),
            },
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(dir) = cache_dir else {
        eprintln!("error: serve needs --cache-dir DIR");
        return usage();
    };
    let cas = match zr_store::Cas::open(&dir) {
        Ok(cas) => cas,
        Err(e) => {
            eprintln!("error: --cache-dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match zr_registry::serve(cas, &addr) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: serve on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "serving OCI distribution API for {dir} on {}",
        server.addr()
    );
    loop {
        std::thread::park();
    }
}

/// The flags `push` and `pull` share, from one parser: the required
/// `--registry ADDR`, `--retry N` and `--timeout SECS`. Returns the
/// address, a client configured from them, and the positionals; a
/// missing or unparsable value is the usage error (exit 2).
fn wire_args(
    verb: &str,
    args: &[String],
) -> Result<(String, RemoteRegistry, Vec<String>), ExitCode> {
    let mut registry: Option<String> = None;
    let mut retry: Option<u32> = None;
    let mut timeout_secs: Option<u64> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            positional.push(a.clone());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(usage());
        };
        match a.as_str() {
            "--registry" => registry = Some(value.clone()),
            "--retry" => retry = Some(number(value)?),
            "--timeout" => timeout_secs = Some(number(value)?),
            _ => return Err(usage()),
        }
    }
    let Some(addr) = registry else {
        eprintln!("error: {verb} needs --registry ADDR");
        return Err(usage());
    };
    let client = wire_client(&addr, retry, timeout_secs);
    Ok((addr, client, positional))
}

/// Split `NAME[:TAG]` for the wire verbs (default tag `latest`).
fn split_reference(reference: &str) -> (String, String) {
    match reference.rsplit_once(':') {
        Some((name, tag)) if !tag.is_empty() => (name.to_string(), tag.to_string()),
        _ => (reference.to_string(), "latest".to_string()),
    }
}

/// `push --registry ADDR DIR [NAME[:TAG]]`: upload an OCI layout.
/// Without an explicit reference the layout's own ref annotation is
/// used, so `export` → `push` needs no retyping.
fn cmd_push(args: &[String]) -> ExitCode {
    let (addr, client, positional) = match wire_args("push", args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let (dir, reference) = match positional.as_slice() {
        [dir] => {
            let ref_name = match zr_store::inspect(dir) {
                Ok(summary) => summary.ref_name,
                Err(e) => {
                    eprintln!("error: push {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (dir.clone(), ref_name)
        }
        [dir, reference] => (dir.clone(), reference.clone()),
        _ => return usage(),
    };
    let (name, tag) = split_reference(&reference);
    match client.push_layout(&dir, &name, &tag) {
        Ok(summary) => {
            println!("pushed {name}:{tag} to {addr}");
            println!("manifest digest: sha256:{}", summary.manifest_digest);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: push {dir} to {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `pull --registry ADDR NAME[:TAG] DIR`: fetch into an OCI layout and
/// report the materialized image digest.
fn cmd_pull(args: &[String]) -> ExitCode {
    let (addr, client, positional) = match wire_args("pull", args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let [reference, dir] = positional.as_slice() else {
        return usage();
    };
    let (name, tag) = split_reference(reference);
    match client.pull_layout(&name, &tag, dir) {
        Ok((summary, image)) => {
            print!("{summary}");
            println!("image digest: {}", image.digest());
            println!("pulled {name}:{tag} from {addr} into {dir}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: pull {name}:{tag} from {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `store gc|stats --cache-dir DIR`. An unknown action is refused
/// before the store opens: opening runs crash recovery, which rewrites
/// the directory.
fn cmd_store(args: &[String]) -> ExitCode {
    let (action, rest) = match args.split_first() {
        Some((action, rest)) if action == "gc" || action == "stats" => (action.as_str(), rest),
        _ => return usage(),
    };
    let mut cache_dir: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(dir.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(dir) = cache_dir else {
        eprintln!("error: store {action} needs --cache-dir DIR");
        return usage();
    };
    // Inspection/maintenance must not conjure a store out of a typo'd
    // path (Cas::open creates on demand for builds); require the
    // version file an existing store always carries.
    if !std::path::Path::new(&dir).join("format").is_file() {
        eprintln!("error: --cache-dir {dir}: not a zr-store directory (no format file)");
        return ExitCode::FAILURE;
    }
    let cas = match zr_store::Cas::open(&dir) {
        Ok(cas) => cas,
        Err(e) => {
            eprintln!("error: --cache-dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if action == "gc" {
        match cas.gc() {
            Ok(report) => {
                println!(
                    "gc: {} blobs scanned, {} live, {} removed, {} bytes freed",
                    report.scanned, report.live, report.removed, report.freed_bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: gc: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        use zr_image::LayerPersistence;
        let disk = zr_store::DiskLayers::new(cas);
        let stats = disk.cas().stats();
        println!("layers:   {}", disk.keys().len());
        println!("store:    {stats}");
        println!(
            "physical: {} bytes ({} chunk indexes, {} bytes saved by chunk dedup)",
            stats.physical_bytes, stats.chunk_indexes, stats.chunk_dedup_saved
        );
        println!(
            "io:       {} writes ({} bytes), {} reads ({} bytes), {} dedup skips",
            stats.writes, stats.written_bytes, stats.reads, stats.read_bytes, stats.dedup_skips
        );
        println!(
            "evicted:  {} roots ({} dir-fsync failures)",
            stats.evicted_roots, stats.dir_fsync_failures
        );
        println!(
            "repair:   {} tmp files recovered, {} corrupt roots quarantined",
            stats.recovered_tmp, stats.corrupt_roots
        );
        println!("roots:    {}", disk.cas().roots().len());
        println!("fault:    {}", zr_fault::counters());
        ExitCode::SUCCESS
    }
}

/// Load a build context directory (flat: regular files only; no
/// directory means an empty context). Each file becomes one shared
/// blob, hashed at most once however many builds and instructions
/// reference it. A directory (or a file in it) that cannot be read
/// fails before any build starts: an emptied context would otherwise
/// build, or blame the first COPY's source.
fn load_context(dir: Option<&str>) -> Result<Vec<zr_build::ContextFile>, ExitCode> {
    let Some(dir) = dir else {
        return Ok(Vec::new());
    };
    let read = || -> std::io::Result<Vec<zr_build::ContextFile>> {
        let mut context = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                let data = std::fs::read(entry.path())?;
                context.push(zr_build::context_file(
                    &entry.file_name().to_string_lossy(),
                    data,
                ));
            }
        }
        Ok(context)
    };
    read().map_err(|e| {
        eprintln!("error: context directory {dir}: {e}");
        ExitCode::FAILURE
    })
}

/// `build-many`: schedule one build per Dockerfile argument across a
/// worker pool sharing one registry and one layer cache. Each build's
/// log is printed under its id, so interleaved work stays attributable.
fn cmd_build_many(args: &[String]) -> ExitCode {
    let flags = match parse_build_flags(args) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    if flags.tag.is_some() || flags.file.is_some() {
        return usage();
    }
    if flags.positional.is_empty() {
        eprintln!("error: build-many needs at least one Dockerfile");
        return usage();
    }

    // One shared context directory for the whole batch (COPY/ADD
    // sources), mirroring the single-build CONTEXT_DIR argument.
    let context = match load_context(flags.context_dir.as_deref()) {
        Ok(context) => context,
        Err(code) => return code,
    };

    let mut requests = Vec::new();
    for path in &flags.positional {
        let dockerfile = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Build id (and tag): the file stem, suffixed until unique when
        // the same name appears twice (or collides with another stem).
        let stem = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "img".to_string());
        let mut id = stem.clone();
        let mut n = 2usize;
        while requests.iter().any(|r: &BuildRequest| r.id == id) {
            id = format!("{stem}-{n}");
            n += 1;
        }
        let options = BuildOptions {
            tag: id.clone(),
            context: context.clone(),
            ..flags.options.clone()
        };
        requests.push(BuildRequest::with_options(&id, &dockerfile, options));
    }
    match run_batch(&flags, requests, true) {
        Ok(reports) if reports.iter().all(|r| r.status.succeeded()) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(code) => code,
    }
}

/// Run `requests` as one batch on a scheduler built from `flags`,
/// streaming the `--follow` build live, then print every log (each
/// line `[id] `-prefixed, plus a status line per build, when
/// `prefixed`) on stdout and the summary on stderr.
fn run_batch(
    flags: &BuildFlags,
    requests: Vec<BuildRequest>,
    prefixed: bool,
) -> Result<Vec<BuildReport>, ExitCode> {
    let follow = match &flags.follow {
        Some(id) => match requests.iter().position(|r| r.id == *id) {
            Some(idx) => Some((idx, id)),
            None => {
                eprintln!("error: --follow {id}: no such build id in this batch");
                return Err(ExitCode::FAILURE);
            }
        },
        None => None,
    };
    let mut config = flags.config.clone();
    if let Some(addr) = &flags.registry {
        // FROM resolves over the wire: the pull-through cache stays,
        // only the miss path changes from the catalog to HTTP.
        let client = wire_client(addr, flags.retry, flags.timeout_secs);
        config.backend = Some(Arc::new(zr_registry::WireBackend::with_client(client)));
    }
    let jobs = config.jobs;
    let sched = Scheduler::try_new(config).map_err(|e| {
        let dir = flags.config.cache_dir.as_deref().unwrap_or(Path::new(""));
        eprintln!("error: --cache-dir {}: {e}", dir.display());
        ExitCode::FAILURE
    })?;

    let t0 = std::time::Instant::now();
    let handle = sched.submit(requests);
    if let Some((idx, id)) = follow {
        follow_stream(&handle, idx, id);
    }
    let reports = handle.wait();
    let elapsed = t0.elapsed();

    let mut cache = CacheStats::default();
    let (mut failures, mut degraded) = (0usize, 0usize);
    for r in &reports {
        for line in &r.result.log {
            if prefixed {
                println!("[{}] {line}", r.id);
            } else {
                println!("{line}");
            }
        }
        if prefixed {
            println!(
                "[{}] status: {} (faked syscalls: {})",
                r.id, r.status, r.counters.faked
            );
        }
        cache += r.result.cache;
        if !r.status.succeeded() {
            failures += 1;
        } else if r.status == BuildStatus::Degraded {
            degraded += 1;
        }
    }
    let sum = |count: &dyn Fn(&BuildReport) -> u64| reports.iter().map(count).sum::<u64>();
    eprintln!(
        "[trace] syscalls={} privileged={} faked={} failed={} bpf-instructions={}",
        // Calls the fakeroot shim answers never enter the kernel.
        sum(&|r| r.counters.syscalls + r.counters.preload_hops),
        sum(&|r| r.counters.privileged()),
        sum(&|r| r.counters.faked),
        sum(&|r| r.counters.failed),
        sum(&|r| r.counters.bpf_instructions)
    );
    eprintln!(
        "[sched] {} builds with {jobs} workers in {elapsed:.2?}: {} ok ({degraded} degraded), \
         {failures} not ok",
        reports.len(),
        reports.len() - failures,
    );
    let fc = zr_fault::counters();
    if zr_fault::active() || fc.injected > 0 || fc.retries > 0 {
        eprintln!("[fault] {fc}");
    }
    let rstats = sched.registry().stats();
    eprintln!(
        "[registry] {} pulls, {} fetches, {} blob hits",
        rstats.pulls, rstats.fetches, rstats.blob_hits
    );
    if flags.cache_stats {
        eprintln!("[cache] {cache}");
        eprintln!("[cache] store: {}", sched.layers().stats());
        if let Some(disk) = sched.disk() {
            eprintln!(
                "[store] {} at {}",
                disk.cas().stats(),
                disk.cas().root_dir().display()
            );
            eprintln!("[store] {}", disk.stats());
        }
    }
    if let Some(disk) = sched.disk() {
        if disk.error_count() > 0 {
            eprintln!(
                "warning: {} store operations failed (last: {})",
                disk.error_count(),
                disk.last_error().unwrap_or_default()
            );
        }
    }
    Ok(reports)
}

/// Stream one build's per-stage log lines live (`--follow ID`),
/// blocking until that build reaches a terminal status. The full batch
/// report still prints afterwards; this is the in-flight view.
fn follow_stream(handle: &BatchHandle, idx: usize, id: &str) {
    for event in handle.subscribe(idx) {
        match event {
            LogEvent::Stage { stage, lines, .. } => {
                for line in lines {
                    println!("[{id}:{stage}] {line}");
                }
            }
            LogEvent::Done { status, .. } => {
                println!("[{id}] {status}");
                break;
            }
        }
    }
}

fn cmd_filter(args: &[String]) -> ExitCode {
    let arches: Vec<Arch> = if args.is_empty() {
        Arch::ALL.to_vec()
    } else {
        let mut v = Vec::new();
        for a in args {
            match Arch::ALL.iter().find(|x| x.name() == a) {
                Some(x) => v.push(*x),
                None => {
                    eprintln!("error: unknown arch '{a}'");
                    return ExitCode::from(2);
                }
            }
        }
        v
    };
    let spec = zr_seccomp::spec::zero_consistency(&arches);
    match zr_seccomp::compile(&spec) {
        Ok(prog) => {
            println!(
                "; zero-consistency filter: {} arches, {} instructions",
                arches.len(),
                prog.len()
            );
            print!("{}", zr_bpf::disasm::disasm(&prog));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_table() -> ExitCode {
    println!("The 29 filtered system calls (paper §5), by class and architecture:\n");
    print!("{:<14} {:<36}", "syscall", "class");
    for arch in Arch::ALL {
        print!(" {:>8}", arch.name());
    }
    println!();
    for f in FILTERED {
        print!("{:<14} {:<36}", f.sysno.name(), f.class.describe());
        for arch in Arch::ALL {
            match f.sysno.number(arch) {
                Some(nr) => print!(" {nr:>8}"),
                None => print!(" {:>8}", "-"),
            }
        }
        println!();
    }
    println!();
    for arch in Arch::ALL {
        println!(
            "{}: {} of 29 filtered syscalls exist",
            arch.name(),
            filtered_on(arch).len()
        );
    }
    ExitCode::SUCCESS
}
