//! Run every paper-vs-measured check (F1a, F1b, F2, … defined below)
//! and print a report. This is the artifact-evaluation entry point:
//!
//! ```sh
//! cargo run -p zr-bench --bin paper-report [-- --json[=PATH]]
//! ```
//!
//! With `--json`, the gate verdicts and the numeric bench metrics are
//! additionally written to `BENCH_10.json` (or `PATH`) so CI can upload
//! them and the perf trajectory is tracked across PRs.

use zeroroot_core::Mode;
use zr_bench::{
    bench_pull_cost, bench_scheduler, build_once, distinct_dockerfiles, sched_requests,
    snapshot_one_change, synthetic_image, timed_batch, APT, DIAMOND, FIG1A, FIG1B,
};
use zr_build::CacheMode;
use zr_sched::{BuildStatus, Scheduler, SchedulerConfig};
use zr_store::json::escape;
use zr_syscalls::filtered::{filtered_on, FILTERED};
use zr_syscalls::Arch;

struct Check {
    id: &'static str,
    paper: &'static str,
    measured: String,
    pass: bool,
}

/// Render the report as machine-readable JSON (no serde offline; the
/// structure is flat enough to write by hand).
fn render_json(checks: &[Check], metrics: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"report\": \"zeroroot-paper-report\",\n  \"checks\": [\n");
    for (i, c) in checks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"pass\": {}, \"paper\": \"{}\", \"measured\": \"{}\"}}{}\n",
            escape(c.id),
            c.pass,
            escape(c.paper),
            escape(&c.measured),
            if i + 1 == checks.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            escape(name),
            if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            },
            if i + 1 == metrics.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Wall-clock one invocation of `f`.
fn timed<T>(mut f: impl FnMut() -> T) -> (std::time::Duration, T) {
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// Best-of-N measurement: run `f` N times and keep the run with the
/// smallest elapsed time. One timing policy for every gate, so the
/// C-cache/S-sched/P-snap numbers stay comparable and a noisy runner
/// cannot fail a ratio gate spuriously.
fn best_of<T>(n: u32, mut f: impl FnMut() -> (std::time::Duration, T)) -> (std::time::Duration, T) {
    (0..n)
        .map(|_| f())
        .min_by_key(|(elapsed, _)| *elapsed)
        .expect("n > 0")
}

fn main() {
    let json_path = std::env::args().skip(1).find_map(|a| {
        if a == "--json" {
            Some("BENCH_10.json".to_string())
        } else {
            a.strip_prefix("--json=").map(str::to_string)
        }
    });
    let mut checks: Vec<Check> = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // ---- F1a ---------------------------------------------------------
    let (r, k) = build_once(FIG1A, Mode::None);
    let priv_calls = k.counters.privileged();
    checks.push(Check {
        id: "F1a",
        paper: "alpine apk build succeeds with --force=none, no privileged syscalls",
        measured: format!("success={}, privileged syscalls={priv_calls}", r.success),
        pass: r.success && priv_calls == 0,
    });

    // ---- F1b ---------------------------------------------------------
    let (r, _) = build_once(FIG1B, Mode::None);
    let has_chown_err = r.log_text().contains("cpio: chown");
    checks.push(Check {
        id: "F1b",
        paper: "centos yum build fails with --force=none on 'cpio: chown'",
        measured: format!("success={}, cpio-chown-in-log={has_chown_err}", r.success),
        pass: !r.success && has_chown_err,
    });

    // ---- F2 -----------------------------------------------------------
    let (r, k) = build_once(FIG1B, Mode::Seccomp);
    let faked = k.counters.faked;
    let modified = r.modified_run_instructions;
    checks.push(Check {
        id: "F2",
        paper: "same build succeeds with --force=seccomp; 'modified 0 RUN instructions'",
        measured: format!("success={}, faked={faked}, modified={modified}", r.success),
        pass: r.success && faked > 0 && modified == 0,
    });

    // ---- T1 -----------------------------------------------------------
    let counts = (
        FILTERED
            .iter()
            .filter(|f| f.class == zr_syscalls::FilterClass::FileOwnership)
            .count(),
        FILTERED
            .iter()
            .filter(|f| f.class == zr_syscalls::FilterClass::IdentityCaps)
            .count(),
        FILTERED
            .iter()
            .filter(|f| f.class == zr_syscalls::FilterClass::MknodDevice)
            .count(),
        FILTERED
            .iter()
            .filter(|f| f.class == zr_syscalls::FilterClass::SelfTest)
            .count(),
    );
    checks.push(Check {
        id: "T1",
        paper: "filter classes: 7 ownership + 19 identity/caps + 2 mknod + 1 self-test = 29",
        measured: format!("{counts:?}, total={}", FILTERED.len()),
        pass: counts == (7, 19, 2, 1) && FILTERED.len() == 29,
    });

    // ---- E-apt ---------------------------------------------------------
    let (r_inj, _) = build_once(APT, Mode::Seccomp);
    let apt_exec = "FROM debian:12\nRUN [\"/usr/bin/apt-get\", \"install\", \"-y\", \"hello\"]\n";
    let (r_raw, _) = build_once(apt_exec, Mode::Seccomp);
    let (r_ids, _) = build_once(apt_exec, Mode::SeccompIdConsistent);
    checks.push(Check {
        id: "E-apt",
        paper: "apt fails under zero-consistency without workaround; injected option fixes it; uid/gid consistency retires it",
        measured: format!(
            "raw={}, injected={} (modified {}), id-consistent={}",
            r_raw.success, r_inj.success, r_inj.modified_run_instructions, r_ids.success
        ),
        pass: !r_raw.success && r_inj.success && r_inj.modified_run_instructions == 1 && r_ids.success,
    });

    // ---- E-types ---------------------------------------------------------
    use zr_build::{BuildOptions, Builder};
    use zr_kernel::{ContainerType, Kernel};
    let mut results = Vec::new();
    for ctype in [
        ContainerType::TypeI,
        ContainerType::TypeII,
        ContainerType::TypeIII,
    ] {
        let mut kernel = Kernel::default_kernel();
        let mut builder = Builder::new();
        let mut opts = BuildOptions::new("t", Mode::None);
        opts.container_type = ctype;
        results.push(builder.build(&mut kernel, FIG1A, &opts).success);
    }
    checks.push(Check {
        id: "E-types",
        paper: "unprivileged setup works only for Type III (§2)",
        measured: format!("I={}, II={}, III={}", results[0], results[1], results[2]),
        pass: !results[0] && !results[1] && results[2],
    });

    // ---- E-compat ---------------------------------------------------------
    let static_df = "FROM alpine:3.19\nRUN apk add fakeroot && touch /f && chown 55:55 /f\n";
    let (r_fr, _) = build_once(static_df, Mode::Fakeroot);
    let (r_sc, _) = build_once(static_df, Mode::Seccomp);
    let (r_pr, _) = build_once(static_df, Mode::Proot);
    checks.push(Check {
        id: "E-compat",
        paper: "static binaries break LD_PRELOAD fakeroot but not seccomp/ptrace (§6.3)",
        measured: format!(
            "fakeroot={}, seccomp={}, proot={}",
            r_fr.success, r_sc.success, r_pr.success
        ),
        pass: !r_fr.success && r_sc.success && r_pr.success,
    });

    // ---- E-ovh -------------------------------------------------------------
    let (_, k_sc) = build_once(FIG1B, Mode::Seccomp);
    let (_, k_pr) = build_once(FIG1B, Mode::Proot);
    let (_, k_fr) = build_once(FIG1B, Mode::Fakeroot);
    let sc_cse = k_sc.counters.context_switch_equivalents();
    let pr_cse = k_pr.counters.context_switch_equivalents();
    let fr_cse = k_fr.counters.context_switch_equivalents();
    checks.push(Check {
        id: "E-ovh",
        paper: "seccomp: no userspace hops; ptrace/daemon methods pay context switches (§6.1)",
        measured: format!(
            "context-switch-equivalents: seccomp={sc_cse}, proot={pr_cse}, fakeroot={fr_cse}; \
             seccomp bpf-insns={}",
            k_sc.counters.bpf_instructions
        ),
        pass: sc_cse == 0 && pr_cse > 0 && fr_cse > 0 && k_sc.counters.bpf_instructions > 0,
    });

    // ---- E-fw ---------------------------------------------------------------
    let unmin = "FROM debian:12\nRUN /usr/sbin/unminimize\n";
    let (r_unmin_sc, _) = build_once(unmin, Mode::Seccomp);
    let (r_unmin_pr, _) = build_once(unmin, Mode::Proot);
    checks.push(Check {
        id: "E-fw",
        paper: "verifying tools (unminimize) are the known exceptions of §6",
        measured: format!(
            "seccomp={}, proot={}",
            r_unmin_sc.success, r_unmin_pr.success
        ),
        pass: !r_unmin_sc.success && r_unmin_pr.success,
    });

    // ---- E-arch ----------------------------------------------------------------
    let mut all_ok = true;
    let mut coverage = String::new();
    for arch in Arch::ALL {
        let mut kernel = Kernel::new(zr_kernel::KernelConfig {
            arch,
            ..Default::default()
        });
        let mut builder = Builder::new();
        let ok = builder
            .build(&mut kernel, FIG1B, &BuildOptions::new("t", Mode::Seccomp))
            .success;
        all_ok &= ok;
        coverage.push_str(&format!("{}:{} ", arch.name(), filtered_on(arch).len()));
    }
    checks.push(Check {
        id: "E-arch",
        paper: "one filter covers six architectures (filtered-syscall counts vary, fn 7)",
        measured: format!("fig2 ok on all={all_ok}; coverage {}", coverage.trim_end()),
        pass: all_ok,
    });

    // ---- C-cache -----------------------------------------------------------------
    // The cache regression gate: a warm rebuild of the Figure 2
    // Dockerfile must execute *zero* instructions — no spawns, no new
    // pulls, every layer a hit — and come back measurably faster.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("cache", Mode::Seccomp);
    let t0 = std::time::Instant::now();
    let cold = builder.build(&mut kernel, FIG1B, &opts);
    let cold_time = t0.elapsed();
    let spawns_before = kernel.counters.spawns;
    let pulls_before = builder.registry.pulls();
    let t1 = std::time::Instant::now();
    let warm = builder.build(&mut kernel, FIG1B, &opts);
    let warm_time = t1.elapsed();
    let no_exec =
        kernel.counters.spawns == spawns_before && builder.registry.pulls() == pulls_before;
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    metrics.push(("c_cache.cold_ms".into(), cold_time.as_secs_f64() * 1e3));
    metrics.push(("c_cache.warm_ms".into(), warm_time.as_secs_f64() * 1e3));
    metrics.push(("c_cache.speedup".into(), speedup));
    checks.push(Check {
        id: "C-cache",
        paper:
            "warm rebuild replays every layer and executes no instruction (ch-image build cache)",
        measured: format!(
            "cold: {} in {cold_time:.2?}; warm: {} in {warm_time:.2?} ({speedup:.0}x), \
             executed-anything={}",
            cold.cache, warm.cache, !no_exec
        ),
        pass: cold.success
            && warm.success
            && warm.cache.hits == 2
            && warm.cache.misses == 0
            && no_exec,
    });

    // ---- S-sched -----------------------------------------------------------------
    // The scheduler gate: 8 distinct Dockerfiles, --no-cache, modeled
    // registry latency. 8 workers must (a) produce exactly the digests
    // the serial build produces and (b) finish the batch at >= 2x the
    // single-worker throughput (workers overlap pull waits, so this
    // holds even on a single-core runner). Best-of-3 per worker count.
    let dockerfiles = distinct_dockerfiles(8);
    let (t_serial, d_serial) = best_of(3, || timed_batch(1, &dockerfiles, CacheMode::Disabled));
    let (t_parallel, d_parallel) = best_of(3, || timed_batch(8, &dockerfiles, CacheMode::Disabled));
    let speedup = t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-9);
    let deterministic = d_serial == d_parallel;
    metrics.push(("s_sched.serial_ms".into(), t_serial.as_secs_f64() * 1e3));
    metrics.push(("s_sched.parallel_ms".into(), t_parallel.as_secs_f64() * 1e3));
    metrics.push(("s_sched.speedup".into(), speedup));
    checks.push(Check {
        id: "S-sched",
        paper:
            "8-worker batch: identical digests to serial, >= 2x throughput (distinct Dockerfiles)",
        measured: format!(
            "serial {t_serial:.2?}, 8 workers {t_parallel:.2?} ({speedup:.1}x), \
             digests-identical={deterministic}"
        ),
        pass: deterministic && speedup >= 2.0,
    });

    // ---- S-cache -----------------------------------------------------------------
    // Cross-build warm hits: two identical requests through a
    // single-worker scheduler. Each build gets a *fresh* Builder, so
    // the second build's hits can only come from the shared layer
    // store — and with the store warm, it must execute nothing.
    let sched = bench_scheduler(1);
    let df = vec![dockerfiles[0].clone(); 2];
    let reports = sched.build_many(sched_requests(&df, CacheMode::Enabled));
    let cold = reports[0].result.cache;
    let warm = reports[1].result.cache;
    checks.push(Check {
        id: "S-cache",
        paper: "shared layer store: a sibling build replays a neighbor's layers (cross-build hits)",
        measured: format!(
            "cold: {cold}; sibling: {warm}; store: {}",
            sched.layers().stats()
        ),
        pass: reports.iter().all(|r| r.result.success)
            && cold.hits == 0
            && warm.hits > 0
            && warm.misses == 0,
    });

    // ---- M-dag -------------------------------------------------------------------
    // The multi-stage DAG gate, in four parts.
    //
    // (a) Determinism: the diamond Dockerfile builds to the same
    //     `Image::digest` serially and at 8 workers, with >= 2 stage
    //     tasks observed running at once in the parallel build (the
    //     overlap can lose a coin flip to scheduling, so the cold
    //     attempt retries on a fresh cache dir, like any timing gate).
    //
    // (b) Pruning: the stage nothing references is the diamond's only
    //     centos user; the registry fetch counter staying at 1 (the
    //     alpine base) proves it never executed.
    //
    // (c) Warm replay: a *fresh* scheduler over the same --cache-dir
    //     replays every stage from disk — zero misses, zero fetches,
    //     same digest.
    //
    // (d) Shared blobs: cross-stage COPY hands blobs over Arc-shared,
    //     so the layer store's dedup ledger must charge shared payload
    //     bytes once (logical > deduplicated).
    let scratch = std::env::temp_dir().join(format!("zr-paper-dag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let diamond = vec![DIAMOND.to_string()];
    let (t_dag_serial, dag_serial) = timed_batch(1, &diamond, CacheMode::Enabled);
    let dag_terminal = |s: &BuildStatus| s.terminal();
    let mut dag_peak = 0usize;
    let mut dag_cache = std::path::PathBuf::new();
    let mut t_dag_parallel = std::time::Duration::ZERO;
    let mut dag_parallel = Vec::new();
    let mut dag_fetches = 0u64;
    let mut dag_dedups = false;
    for attempt in 0..5 {
        dag_cache = scratch.join(format!("cache-{attempt}"));
        let sched = Scheduler::try_new(SchedulerConfig {
            jobs: 8,
            pull_cost: bench_pull_cost(),
            cache_dir: Some(dag_cache.clone()),
            ..SchedulerConfig::default()
        })
        .expect("open dag cache dir");
        let t0 = std::time::Instant::now();
        let handle = sched.submit(sched_requests(&diamond, CacheMode::Enabled));
        dag_peak = 0;
        while !handle.statuses().iter().all(dag_terminal) {
            dag_peak = dag_peak.max(handle.peak_concurrency());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        dag_peak = dag_peak.max(handle.peak_concurrency());
        let reports = handle.wait();
        t_dag_parallel = t0.elapsed();
        let store_stats = sched.layers().stats();
        dag_dedups = store_stats.logical_bytes > store_stats.bytes;
        dag_fetches = sched.registry().stats().fetches;
        dag_parallel = reports
            .into_iter()
            .map(|r| {
                assert!(r.result.success, "{}", r.result.log_text());
                r.result.image.as_ref().expect("dag build image").digest()
            })
            .collect();
        if dag_peak >= 2 {
            break;
        }
    }
    let dag_deterministic = dag_serial == dag_parallel;
    let dag_pruned = dag_fetches == 1;

    // (c) Fresh scheduler, same --cache-dir: all stages replay from disk.
    let warm_sched = Scheduler::try_new(SchedulerConfig {
        jobs: 8,
        pull_cost: bench_pull_cost(),
        cache_dir: Some(dag_cache.clone()),
        ..SchedulerConfig::default()
    })
    .expect("reopen dag cache dir");
    let warm_reports = warm_sched.build_many(sched_requests(&diamond, CacheMode::Enabled));
    let warm_dag = &warm_reports[0];
    let warm_dag_silent = warm_dag.result.success
        && warm_dag.result.cache.misses == 0
        && warm_dag.result.cache.hits > 0
        && warm_sched.registry().stats().fetches == 0
        && warm_sched.layers().stats().disk_hits > 0
        && warm_dag
            .result
            .image
            .as_ref()
            .map(|img| dag_serial.first() == Some(&img.digest()))
            .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&scratch);
    metrics.push(("m_dag.serial_ms".into(), t_dag_serial.as_secs_f64() * 1e3));
    metrics.push((
        "m_dag.parallel_ms".into(),
        t_dag_parallel.as_secs_f64() * 1e3,
    ));
    metrics.push(("m_dag.peak_concurrency".into(), dag_peak as f64));
    checks.push(Check {
        id: "M-dag",
        paper: "diamond multi-stage build: serial == 8-worker digest with >= 2 stages \
                overlapping, unreachable stage pruned (never fetched), warm --cache-dir \
                replay executes nothing, COPY --from= blobs dedup-shared",
        measured: format!(
            "digests-identical={dag_deterministic} (serial {t_dag_serial:.2?}, \
             8 workers {t_dag_parallel:.2?}, peak {dag_peak}); fetches={dag_fetches} \
             (pruned={dag_pruned}); warm: {} executed-nothing={warm_dag_silent}; \
             dedup-active={dag_dedups}",
            warm_dag.result.cache
        ),
        pass: dag_deterministic && dag_peak >= 2 && dag_pruned && warm_dag_silent && dag_dedups,
    });

    // ---- P-snap ------------------------------------------------------------------
    // The CoW snapshot/digest gate, in three parts.
    //
    // (a) Digest parity: the memoized fast path must be byte-identical
    //     to the full-rehash reference (`digest_uncached`, which
    //     recomputes every payload hash from raw bytes — the
    //     pre-refactor cost model), on a synthetic image, on a built
    //     image, and on a warm replay of that build; and the S-sched
    //     batch above already pinned serial == 8-worker digests.
    let synth = synthetic_image(512, 8192);
    let parity_synth = synth.digest() == synth.digest_uncached();
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let snap_opts = BuildOptions::new("p-snap", Mode::Seccomp);
    let cold_build = builder.build(&mut kernel, FIG1A, &snap_opts);
    let warm_build = builder.build(&mut kernel, FIG1A, &snap_opts);
    let built = cold_build.image.as_ref().expect("cold build image");
    let replayed = warm_build.image.as_ref().expect("warm build image");
    let parity_built = built.digest() == built.digest_uncached();
    let parity_replay = built.digest() == replayed.digest();

    // (b) Perf: at the largest snapshot_scale grid point, a 1-file-delta
    //     snapshot+digest (warm memos) must be at least 10x cheaper than
    //     a cold full-image hash. Best-of-N on both sides so a noisy
    //     runner cannot fail the gate spuriously.
    let (cold_hash, _) = best_of(3, || timed(|| synth.digest_uncached()));
    let _ = synth.digest(); // warm the blob + tree memos once
    let mut edit = 0u64;
    let (warm_delta, _) = best_of(5, || {
        edit += 1;
        timed(|| snapshot_one_change(&synth, edit))
    });
    let ratio = cold_hash.as_secs_f64() / warm_delta.as_secs_f64().max(1e-9);
    metrics.push(("p_snap.cold_hash_ms".into(), cold_hash.as_secs_f64() * 1e3));
    metrics.push((
        "p_snap.warm_delta_ms".into(),
        warm_delta.as_secs_f64() * 1e3,
    ));
    metrics.push(("p_snap.ratio".into(), ratio));

    // (c) Dedup accounting: the layer store for the warm build must
    //     charge shared payload bytes once (logical > deduplicated).
    let store_stats = builder.layers.stats();
    let dedups = store_stats.logical_bytes > store_stats.bytes;
    metrics.push(("p_snap.store_bytes".into(), store_stats.bytes as f64));
    metrics.push((
        "p_snap.store_logical_bytes".into(),
        store_stats.logical_bytes as f64,
    ));

    checks.push(Check {
        id: "P-snap",
        paper: "CoW snapshots: digests unchanged (memo == full rehash, serial == replay == \
                8-worker), 1-file delta >= 10x cheaper than a cold full-image hash, \
                dedup accounting active",
        measured: format!(
            "parity synth={parity_synth} built={parity_built} replay={parity_replay} \
             serial-vs-8={deterministic}; cold {cold_hash:.2?} vs warm {warm_delta:.2?} \
             ({ratio:.0}x); store {} / {} logical bytes",
            store_stats.bytes, store_stats.logical_bytes
        ),
        pass: parity_synth
            && parity_built
            && parity_replay
            && deterministic
            && ratio >= 10.0
            && dedups,
    });

    // ---- O-oci -------------------------------------------------------------------
    // The persistent-store gate, in three parts.
    //
    // (a) Export → import: a built image serialized to an OCI image
    //     layout and read back must reproduce a byte-identical
    //     `Image::digest` (deterministic tars, canonical JSON,
    //     verified blobs).
    //
    // (b) Cross-process warm rebuild: a *fresh* builder (fresh
    //     registry, fresh kernel, fresh in-memory cache — everything a
    //     second process would have) pointed at the first build's
    //     --cache-dir must replay the whole build from disk: zero
    //     misses, zero spawns, zero pulls, same digest.
    //
    // (c) Store throughput: raw CAS blob write/read bandwidth, logged
    //     to BENCH_5.json for the cross-PR trajectory.
    let scratch = std::env::temp_dir().join(format!("zr-paper-oci-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache_dir = scratch.join("cache");
    let oci_dir = scratch.join("oci");

    let (mut builder, _disk) =
        zr_build::Builder::with_cache_dir(&cache_dir).expect("open cache dir");
    let mut kernel = Kernel::default_kernel();
    let oci_opts = BuildOptions::new("o-oci", Mode::Seccomp);
    let cold = builder.build(&mut kernel, FIG1B, &oci_opts);
    let cold_image = cold.image.as_ref().expect("cold build image");

    let (t_export, export_ok) = timed(|| zr_store::export(cold_image, &oci_dir).is_ok());
    let (t_import, imported) = timed(|| zr_store::import(&oci_dir));
    let roundtrip = imported
        .as_ref()
        .map(|img| img.digest() == cold_image.digest())
        .unwrap_or(false);
    metrics.push(("o_oci.export_ms".into(), t_export.as_secs_f64() * 1e3));
    metrics.push(("o_oci.import_ms".into(), t_import.as_secs_f64() * 1e3));

    let (mut second, second_disk) =
        zr_build::Builder::with_cache_dir(&cache_dir).expect("reopen cache dir");
    let mut second_kernel = Kernel::default_kernel();
    let warm = second.build(&mut second_kernel, FIG1B, &oci_opts);
    let warm_digest_ok = warm
        .image
        .as_ref()
        .map(|img| img.digest() == cold_image.digest())
        .unwrap_or(false);
    let warm_stats = second.layers.stats();
    let executed_nothing = second_kernel.counters.spawns == 0
        && second.registry.pulls() == 0
        && warm.cache.misses == 0
        && warm.cache.hits == 2;
    let from_disk =
        warm_stats.disk_hits == u64::from(warm.cache.hits) && second_disk.error_count() == 0;

    // (c) CAS bandwidth: 256 distinct 16 KiB blobs, then read back.
    let cas = zr_store::Cas::open(scratch.join("bench-cas")).expect("open bench cas");
    let payloads: Vec<Vec<u8>> = (0..256u32)
        .map(|i| {
            let mut data = vec![(i % 251) as u8; 16 * 1024];
            data[..4].copy_from_slice(&i.to_le_bytes());
            data
        })
        .collect();
    let total_bytes = (payloads.len() * 16 * 1024) as f64;
    let (t_write, digests) = timed(|| {
        payloads
            .iter()
            .map(|p| cas.put(p).expect("put"))
            .collect::<Vec<_>>()
    });
    let (t_read, read_back) = timed(|| {
        digests
            .iter()
            .map(|d| cas.get(d).expect("get").len())
            .sum::<usize>()
    });
    let write_mbps = total_bytes / 1e6 / t_write.as_secs_f64().max(1e-9);
    let read_mbps = total_bytes / 1e6 / t_read.as_secs_f64().max(1e-9);
    metrics.push(("o_oci.store_write_mbps".into(), write_mbps));
    metrics.push(("o_oci.store_read_mbps".into(), read_mbps));
    let bandwidth_sane = read_back == payloads.len() * 16 * 1024;
    let _ = std::fs::remove_dir_all(&scratch);

    checks.push(Check {
        id: "O-oci",
        paper: "export → import reproduces Image::digest byte-identically; a second process \
                on the same --cache-dir replays fully warm (0 misses, 0 spawns, 0 pulls)",
        measured: format!(
            "roundtrip-digest-equal={roundtrip} (export {t_export:.2?}, import {t_import:.2?}); \
             warm: {} with digest-equal={warm_digest_ok}, executed-anything={}, \
             disk-hits={}/{}; store {write_mbps:.0}/{read_mbps:.0} MB/s write/read",
            warm.cache, !executed_nothing, warm_stats.disk_hits, warm.cache.hits,
        ),
        pass: export_ok
            && roundtrip
            && cold.success
            && warm.success
            && warm_digest_ok
            && executed_nothing
            && from_disk
            && bandwidth_sane,
    });

    // ---- D-delta -----------------------------------------------------------------
    // The delta-persistence gate, in four parts.
    //
    // (a) O(changes) persist: on a warm 10k-file image, persisting a
    //     1-file-change child layer through the delta path must cost
    //     at most 4x the *in-memory* warm snapshot+digest of the same
    //     change — i.e. durable persistence rides within a small
    //     constant of the pure CoW hot path it used to dwarf.
    //
    // (b) Batched write bandwidth: one CasBatch of 256 distinct 16 KiB
    //     blobs (group fsync, single directory sync) must run >= 1.5x
    //     the same run's sequential per-blob baseline, or sustain
    //     >= 74 MB/s (2x the 37 MB/s BENCH_5 recorded sequentially).
    //
    // (c) Chain fidelity: a 12-layer delta chain (which forces a full
    //     re-persist past depth 8) must reload through a fresh handle
    //     to the exact tree digest, with zero absorbed errors.
    //
    // (d) Chunk dedup: re-storing a 1 MiB blob with 4 KiB appended
    //     must dedup at least half of it against the original's chunks.
    use zr_image::{CacheKey, Layer, LayerPersistence, LayerState};
    let scratch = std::env::temp_dir().join(format!("zr-paper-delta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let root_acc = zr_vfs::Access::root();
    let plain_state = LayerState {
        args: Vec::new(),
        stage: None,
    };

    // (a) Warm-delta persist vs in-memory warm-delta digest.
    let big = synthetic_image(10_000, 256);
    let _ = big.digest(); // warm the blob + tree memos once
    let mut edit = 0u64;
    let (digest_warm, _) = best_of(5, || {
        edit += 1;
        timed(|| snapshot_one_change(&big, edit))
    });
    let (_, delta_disk) =
        zr_store::open_layer_store(scratch.join("delta-store")).expect("open delta store");
    let parent_key = CacheKey::compute(None, "FROM synthetic", "", "seccomp");
    let parent_layer = Layer {
        id: parent_key.clone(),
        parent: None,
        fs: big.fs.clone(),
        state: plain_state.clone(),
    };
    delta_disk.persist(&parent_layer);
    let mut n = 0u64;
    let (persist_warm, _) = best_of(5, || {
        n += 1;
        let mut fs = big.fs.clone();
        fs.write_file(
            "/data/d00/f0",
            0o644,
            format!("delta-{n}").into_bytes(),
            &root_acc,
        )
        .expect("edit");
        let child = Layer {
            id: CacheKey::compute(Some(&parent_key), &format!("RUN edit {n}"), "", "seccomp"),
            parent: Some(parent_key.clone()),
            fs,
            state: plain_state.clone(),
        };
        timed(|| delta_disk.persist_with_parent(&child, Some(&parent_layer)))
    });
    let persist_over_digest = persist_warm.as_secs_f64() / digest_warm.as_secs_f64().max(1e-9);
    let delta_stats = delta_disk.stats();
    let persisted_as_deltas = delta_stats.delta_persisted == n && delta_disk.error_count() == 0;
    metrics.push((
        "d_delta.digest_warm_ms".into(),
        digest_warm.as_secs_f64() * 1e3,
    ));
    metrics.push((
        "d_delta.persist_warm_ms".into(),
        persist_warm.as_secs_f64() * 1e3,
    ));
    metrics.push(("d_delta.persist_over_digest".into(), persist_over_digest));

    // (b) Batched CAS write bandwidth (same payload shape as O-oci's
    //     sequential measurement, so the two numbers are comparable).
    let mut bw_run = 0u32;
    let (t_batch_write, _) = best_of(3, || {
        bw_run += 1;
        let cas = zr_store::Cas::open(scratch.join(format!("bw-{bw_run}"))).expect("open bw cas");
        timed(|| {
            let mut batch = cas.batch();
            for p in &payloads {
                batch.put(p).expect("stage");
            }
            batch.commit().expect("commit");
        })
    });
    let batch_write_mbps = total_bytes / 1e6 / t_batch_write.as_secs_f64().max(1e-9);
    // Gate against the sequential per-blob bandwidth measured moments
    // ago in this same process (O-oci, identical payload shape), not an
    // absolute number: fsync throughput on a shared runner swings 2x
    // between runs, but the batched/sequential ratio is the claim.
    let batch_speedup = batch_write_mbps / write_mbps.max(1e-9);
    metrics.push(("d_delta.store_write_mbps".into(), batch_write_mbps));
    metrics.push(("d_delta.batch_over_sequential".into(), batch_speedup));

    // (c) A 12-layer chain over a 500-file image, reloaded cold.
    let chain_base = synthetic_image(500, 128);
    let (_, chain_disk) =
        zr_store::open_layer_store(scratch.join("chain")).expect("open chain store");
    let mut chain_fs = chain_base.fs.clone();
    let mut chain_parent: Option<CacheKey> = None;
    let mut prev_layer: Option<Layer> = None;
    let mut deepest_key = None;
    for i in 0..12u32 {
        chain_fs
            .write_file(&format!("/chain-{i}"), 0o644, vec![i as u8; 64], &root_acc)
            .expect("chain edit");
        let key = CacheKey::compute(
            chain_parent.as_ref(),
            &format!("RUN chain {i}"),
            "",
            "seccomp",
        );
        let layer = Layer {
            id: key.clone(),
            parent: chain_parent.clone(),
            fs: chain_fs.clone(),
            state: plain_state.clone(),
        };
        chain_disk.persist_with_parent(&layer, prev_layer.as_ref());
        chain_parent = Some(key.clone());
        deepest_key = Some(key);
        prev_layer = Some(layer);
    }
    let expected_digest = chain_fs.tree_digest();
    let chain_stats = chain_disk.stats();
    // Layer 0 is full, 1..=8 are deltas, 9 falls back (depth bound),
    // 10 and 11 are deltas again: 10 of 12.
    let depth_bound_respected = chain_stats.persisted == 12 && chain_stats.delta_persisted == 10;
    let (_, fresh_disk) =
        zr_store::open_layer_store(scratch.join("chain")).expect("reopen chain store");
    let reloaded = fresh_disk.load(&deepest_key.expect("12 layers"));
    let delta_chain_ok = reloaded
        .map(|l| l.fs.tree_digest() == expected_digest)
        .unwrap_or(false)
        && fresh_disk.error_count() == 0
        && chain_disk.error_count() == 0;
    metrics.push((
        "d_delta.delta_chain_ok".into(),
        f64::from(u8::from(delta_chain_ok)),
    ));

    // (d) Chunk-level dedup of an appended 1 MiB blob. Pseudo-random
    // payload (xorshift) so chunks can't self-dedup within one blob;
    // the saved delta around the second put isolates cross-blob reuse.
    let chunk_cas = zr_store::Cas::open(scratch.join("chunks")).expect("open chunk cas");
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let blob: Vec<u8> = (0..1_048_576usize / 8)
        .flat_map(|_| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng.to_le_bytes()
        })
        .collect();
    chunk_cas.put(&blob).expect("store original");
    let saved_before = chunk_cas.stats().chunk_dedup_saved;
    let mut appended = blob.clone();
    appended.extend(std::iter::repeat_n(0xABu8, 4096));
    chunk_cas.put(&appended).expect("store appended");
    let chunk_dedup_ratio =
        (chunk_cas.stats().chunk_dedup_saved - saved_before) as f64 / appended.len() as f64;
    metrics.push(("d_delta.chunk_dedup_ratio".into(), chunk_dedup_ratio));
    let _ = std::fs::remove_dir_all(&scratch);

    checks.push(Check {
        id: "D-delta",
        paper: "delta persistence: 1-file persist <= 4x warm in-memory digest on 10k files; \
                batched store writes >= 1.5x the same run's sequential per-blob baseline \
                (BENCH_5 seed: 37 MB/s); 12-deep chain reloads exactly \
                (full fallback past depth 8); appended 1 MiB blob dedups >= 50% by chunks",
        measured: format!(
            "persist {persist_warm:.2?} vs digest {digest_warm:.2?} \
             ({persist_over_digest:.2}x, {n} deltas-as-deltas={persisted_as_deltas}); \
             batch write {batch_write_mbps:.0} MB/s ({batch_speedup:.1}x sequential); \
             chain ok={delta_chain_ok} ({}/12 deltas); chunk dedup {:.0}%",
            chain_stats.delta_persisted,
            chunk_dedup_ratio * 100.0
        ),
        pass: persist_over_digest <= 4.0
            && persisted_as_deltas
            && (batch_speedup >= 1.5 || batch_write_mbps >= 74.0)
            && delta_chain_ok
            && depth_bound_respected
            && chunk_dedup_ratio >= 0.5,
    });

    // ---- W-wire ------------------------------------------------------------------
    // The remote-registry gate, in three parts.
    //
    // (a) Wire round-trip: a built image exported to an OCI layout,
    //     pushed to a live loopback `zr serve` endpoint, and pulled
    //     back must reproduce a byte-identical `Image::digest` (every
    //     blob digest-verified on both sides of the socket).
    //
    // (b) FROM over the wire: a *cold* builder whose registry misses
    //     to the endpoint (a `WireBackend` instead of the built-in
    //     catalog) resolves `centos:7` over HTTP and builds to the
    //     same digest; a fresh builder on the warm --cache-dir with
    //     the same wire registry then replays the whole build without
    //     executing anything or touching the socket again.
    //
    // (c) Loopback throughput: push/pull bandwidth over the wire,
    //     logged to BENCH_7.json for the cross-PR trajectory.
    use std::sync::Arc;
    use zr_image::{CatalogBackend, ImageRef, PullCost, RegistryBackend, ShardedRegistry};
    let scratch = std::env::temp_dir().join(format!("zr-paper-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let endpoint_cas = zr_store::Cas::open(scratch.join("endpoint")).expect("open endpoint store");
    let server = zr_registry::serve(endpoint_cas, "127.0.0.1:0").expect("serve loopback");
    let client = zr_registry::RemoteRegistry::new(server.addr().to_string());

    // (a) Build, export, push, pull back.
    let wire_cache = scratch.join("cache");
    let (mut wire_builder, _wire_disk) =
        zr_build::Builder::with_cache_dir(&wire_cache).expect("open wire cache dir");
    let mut wire_kernel = Kernel::default_kernel();
    let wire_opts = BuildOptions::new("w-wire", Mode::Seccomp);
    let wired = wire_builder.build(&mut wire_kernel, FIG1B, &wire_opts);
    let wired_image = wired.image.as_ref().expect("wire build image");
    let layout = scratch.join("layout");
    zr_store::export(wired_image, &layout).expect("export for push");
    let layout_bytes: f64 = std::fs::read_dir(layout.join("blobs/sha256"))
        .expect("layout blobs")
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len() as f64)
        .sum();

    let (t_push, push_ok) = timed(|| client.push_layout(&layout, "w-wire", "latest").is_ok());
    let (t_pull, pulled) = timed(|| client.pull_image("w-wire", "latest"));
    let wire_roundtrip = pulled
        .as_ref()
        .map(|img| img.digest() == wired_image.digest())
        .unwrap_or(false);
    let push_mbps = layout_bytes / 1e6 / t_push.as_secs_f64().max(1e-9);
    let pull_mbps = layout_bytes / 1e6 / t_pull.as_secs_f64().max(1e-9);
    metrics.push(("w_wire.push_mbps".into(), push_mbps));
    metrics.push(("w_wire.pull_mbps".into(), pull_mbps));

    // (b) Push the base image, then point a cold builder's registry at
    // the endpoint: FROM resolves over HTTP instead of the catalog.
    let base = CatalogBackend
        .fetch(&ImageRef::parse("centos:7").expect("base reference"))
        .expect("materialize base image");
    let base_layout = scratch.join("base-layout");
    zr_store::export(&base, &base_layout).expect("export base");
    client
        .push_layout(&base_layout, "centos", "7")
        .expect("push base image");

    let wire_registry = Arc::new(ShardedRegistry::with_backend(
        PullCost::default(),
        Arc::new(zr_registry::WireBackend::new(server.addr().to_string())),
    ));
    let mut cold_wire = zr_build::Builder::new();
    cold_wire.registry = Arc::clone(&wire_registry);
    let mut cold_wire_kernel = Kernel::default_kernel();
    let cold_over_wire = cold_wire.build(&mut cold_wire_kernel, FIG1B, &wire_opts);
    let from_over_wire = cold_over_wire.success
        && wire_registry.stats().fetches >= 1
        && cold_over_wire
            .image
            .as_ref()
            .map(|img| img.digest() == wired_image.digest())
            .unwrap_or(false);

    // Warm replay through the same wire registry: a fresh builder on
    // the first build's --cache-dir must execute nothing and never
    // touch the socket.
    let (mut warm_wire, warm_wire_disk) =
        zr_build::Builder::with_cache_dir(&wire_cache).expect("reopen wire cache dir");
    warm_wire.registry = Arc::clone(&wire_registry);
    let wire_fetches_before = wire_registry.stats().fetches;
    let mut warm_wire_kernel = Kernel::default_kernel();
    let warm_over_wire = warm_wire.build(&mut warm_wire_kernel, FIG1B, &wire_opts);
    let warm_wire_silent = warm_over_wire.success
        && warm_wire_kernel.counters.spawns == 0
        && warm_over_wire.cache.misses == 0
        && wire_registry.stats().fetches == wire_fetches_before
        && warm_over_wire
            .image
            .as_ref()
            .map(|img| img.digest() == wired_image.digest())
            .unwrap_or(false)
        && warm_wire_disk.error_count() == 0;

    drop(server); // stop the acceptor before the scratch dir goes
    let _ = std::fs::remove_dir_all(&scratch);

    checks.push(Check {
        id: "W-wire",
        paper: "push → serve → pull round-trips Image::digest byte-identically; a cold \
                builder resolves FROM over the wire to the same digest; a fresh builder \
                on the warm --cache-dir replays without executing or re-fetching",
        measured: format!(
            "roundtrip-digest-equal={wire_roundtrip} \
             (push {t_push:.2?} @ {push_mbps:.0} MB/s, pull {t_pull:.2?} @ {pull_mbps:.0} MB/s); \
             cold-FROM-over-wire={from_over_wire} ({} wire fetches); \
             warm: {} executed-anything={}",
            wire_registry.stats().fetches,
            warm_over_wire.cache,
            !warm_wire_silent,
        ),
        pass: wired.success && push_ok && wire_roundtrip && from_over_wire && warm_wire_silent,
    });

    // ---- F-fault -----------------------------------------------------------------
    // The fault-injection gate, in two parts.
    //
    // (a) CAS crash-point sweep: a batched commit is killed at every
    //     crash checkpoint in turn (`store.commit.crash` with an
    //     increasing skip count). After each kill the leftover staging
    //     files are renamed to a dead writer's pid — the same-process
    //     stand-in for a reboot, since recovery spares a live pid's
    //     files — and the store must reopen clean: pack replay where
    //     the pack survived, discard where it didn't, and every blob
    //     retrievable after a fault-free re-put. One checkpoint past
    //     the last, the same commit must run through unfaulted, which
    //     pins the sweep as exhaustive.
    //
    // (b) Faulted diamond batch: the M-dag diamond, FROM resolved over
    //     a live loopback registry, under a fixed seeded plan — 3 wire
    //     resets + 2 store commit crashes + 1 worker panic. The wire
    //     resets must be retried under the client's backoff policy,
    //     the store errors absorbed by the persistence layer, and the
    //     panicked stage retried once — the batch lands Degraded (not
    //     Failed) with the serial, fault-free Image::digest.
    let scratch = std::env::temp_dir().join(format!("zr-paper-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // (a) The sweep. Checkpoints are numbered 0..=5 inside
    // CasBatch::commit; skip=6 proves there is no seventh.
    let crash_payloads = &payloads[..8];
    let mut crash_points = 0u32;
    let mut sweep_ok = true;
    for k in 0..=6u64 {
        let dir = scratch.join(format!("crash-{k}"));
        let cas = zr_store::Cas::open(&dir).expect("open crash cas");
        let plan =
            zr_fault::FaultPlan::new().counted(zr_fault::points::STORE_COMMIT_CRASH, 1, k, 0);
        let guard = zr_fault::install(&plan);
        let mut batch = cas.batch();
        for p in crash_payloads {
            batch.put(p).expect("stage");
        }
        let crashed = batch.commit().is_err();
        drop(guard);
        drop(cas);
        if k == 6 {
            sweep_ok &= !crashed;
            break;
        }
        sweep_ok &= crashed;
        crash_points += u32::from(crashed);
        // Fake the writer's death: recovery keeps a live pid's staging
        // files, so hand them to a pid that cannot exist.
        let tmp = dir.join("tmp");
        if let Ok(entries) = std::fs::read_dir(&tmp) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(rest) = name.strip_prefix(&format!("w{}-", std::process::id())) {
                    let _ = std::fs::rename(entry.path(), tmp.join(format!("w4999999-{rest}")));
                }
            }
        }
        let reopened = zr_store::Cas::open(&dir).expect("reopen after injected crash");
        sweep_ok &= crash_payloads.iter().all(|p| {
            reopened
                .put(p)
                .ok()
                .and_then(|d| reopened.get(&d).ok())
                .map(|data| data == *p)
                .unwrap_or(false)
        });
    }

    // (b) The faulted batch. The serial fault-free baseline is M-dag's
    // `dag_serial` (same Dockerfile, same id/tag, so the digests are
    // directly comparable).
    let fault_endpoint =
        zr_store::Cas::open(scratch.join("endpoint")).expect("open fault endpoint");
    let fault_server = zr_registry::serve(fault_endpoint, "127.0.0.1:0").expect("serve loopback");
    let fault_client = zr_registry::RemoteRegistry::new(fault_server.addr().to_string());
    let alpine = CatalogBackend
        .fetch(&ImageRef::parse("alpine:3.19").expect("base reference"))
        .expect("materialize alpine");
    let alpine_layout = scratch.join("alpine-layout");
    zr_store::export(&alpine, &alpine_layout).expect("export alpine");
    fault_client
        .push_layout(&alpine_layout, "alpine", "3.19")
        .expect("push alpine");

    let fault_sched = Scheduler::try_new(SchedulerConfig {
        jobs: 4,
        pull_cost: bench_pull_cost(),
        cache_dir: Some(scratch.join("cache")),
        backend: Some(Arc::new(zr_registry::WireBackend::new(
            fault_server.addr().to_string(),
        ))),
        ..SchedulerConfig::default()
    })
    .expect("open fault cache dir");
    let fault_plan = zr_fault::FaultPlan::new()
        .seeded(0xF417)
        .counted(zr_fault::points::WIRE_CLIENT_RESET, 3, 0, 0)
        .counted(zr_fault::points::STORE_COMMIT_CRASH, 2, 0, 0)
        .counted(zr_fault::points::SCHED_STAGE_PANIC, 1, 0, 0);
    let fault_guard = zr_fault::install(&fault_plan);
    let t0 = std::time::Instant::now();
    let fault_reports = fault_sched.build_many(sched_requests(&diamond, CacheMode::Enabled));
    let t_fault_batch = t0.elapsed();
    let fc = zr_fault::counters();
    drop(fault_guard);
    drop(fault_server);

    let faulted = &fault_reports[0];
    let fault_degraded = faulted.status == BuildStatus::Degraded && faulted.status.succeeded();
    let fault_digest_ok = faulted
        .result
        .image
        .as_ref()
        .map(|img| dag_serial.first() == Some(&img.digest()))
        .unwrap_or(false);
    let all_injected = fc.injected == 6 && fc.retries >= 3 && fc.panics_retried == 1;
    let store_absorbed = fault_sched
        .disk()
        .map(|d| d.error_count() >= 1)
        .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&scratch);
    metrics.push(("f_fault.crash_points".into(), f64::from(crash_points)));
    metrics.push(("f_fault.injected".into(), fc.injected as f64));
    metrics.push(("f_fault.retries".into(), fc.retries as f64));
    metrics.push(("f_fault.batch_ms".into(), t_fault_batch.as_secs_f64() * 1e3));
    checks.push(Check {
        id: "F-fault",
        paper: "CAS reopens clean from a crash at every commit checkpoint; the diamond batch \
                under 3 wire resets + 2 store errors + 1 worker panic lands Degraded with \
                the serial fault-free digest (resets retried, store errors absorbed)",
        measured: format!(
            "sweep ok={sweep_ok} ({crash_points} crash points); faulted batch: status={} \
             digest-equal={fault_digest_ok} in {t_fault_batch:.2?}; counters: {fc}; \
             store-errors-absorbed={store_absorbed}",
            faulted.status
        ),
        pass: sweep_ok
            && crash_points == 6
            && fault_degraded
            && fault_digest_ok
            && all_injected
            && store_absorbed,
    });

    // ---- R-repro -----------------------------------------------------------------
    // The reproducibility-audit gate, in two parts.
    //
    // (a) Bit-for-bit: two *independently constructed* builders (own
    //     kernel, own layer cache, own registry — agreement must come
    //     from determinism, not memoization) must export byte-identical
    //     OCI layouts for the Figure 2 build, and the diamond
    //     multi-stage build must agree serial-vs-8-workers.
    //
    // (b) Taxonomy: each injected nondeterminism source must be *named*
    //     by the auditor with its divergence class — tar-mtime,
    //     tar-ordering, owner-mode, payload-content (with the diverging
    //     path), json-key-order — never reported only as an opaque
    //     content difference.
    {
        use zr_audit::{audit_build, ArmSpec, DivergenceClass};
        use zr_store::{ExportOpts, TarOpts};
        use zr_vfs::Nondeterminism;
        let scratch = std::env::temp_dir().join(format!("zr-paper-repro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let serial = ArmSpec::default();

        let (t_fig2, fig2) = timed(|| {
            audit_build(FIG1B, &serial, &serial, &scratch.join("fig2")).expect("fig2 audit")
        });
        let eight = ArmSpec {
            jobs: 8,
            ..ArmSpec::default()
        };
        let (t_dag, dag) = timed(|| {
            audit_build(DIAMOND, &serial, &eight, &scratch.join("dag")).expect("dag audit")
        });
        let clean = fig2.clean() && dag.clean();

        // Forced divergences: a generated-file Dockerfile (uuidgen
        // draws from the kernel's seeded entropy stream) plus the
        // naive-packer switches that the canonical exporter normally
        // suppresses.
        let gen_df = "FROM alpine:3.19\nRUN echo hello > /greeting\nRUN uuidgen > /uuid\n";
        let raw = ExportOpts {
            tar: TarOpts {
                preserve_mtimes: true,
                readdir_order: true,
            },
            json_key_seed: None,
        };
        let named = |tag: &str, a: ArmSpec, b: ArmSpec, want: DivergenceClass| -> bool {
            let outcome =
                audit_build(gen_df, &a, &b, &scratch.join(tag)).expect("forced audit runs");
            outcome.divergences.iter().any(|d| d.class == want)
        };
        let forced = [
            named(
                "mtime",
                ArmSpec {
                    export: raw,
                    ..ArmSpec::default()
                },
                ArmSpec {
                    nondet: Nondeterminism {
                        clock_skew: 100_000,
                        ..Nondeterminism::default()
                    },
                    export: raw,
                    ..ArmSpec::default()
                },
                DivergenceClass::TarMtime,
            ),
            named(
                "order",
                ArmSpec {
                    export: ExportOpts {
                        tar: TarOpts {
                            preserve_mtimes: false,
                            readdir_order: true,
                        },
                        json_key_seed: None,
                    },
                    ..ArmSpec::default()
                },
                ArmSpec {
                    nondet: Nondeterminism {
                        shuffle_readdir: Some(7),
                        ..Nondeterminism::default()
                    },
                    export: ExportOpts {
                        tar: TarOpts {
                            preserve_mtimes: false,
                            readdir_order: true,
                        },
                        json_key_seed: None,
                    },
                    ..ArmSpec::default()
                },
                DivergenceClass::TarOrdering,
            ),
            named(
                "ids",
                ArmSpec::default(),
                ArmSpec {
                    nondet: Nondeterminism {
                        default_ids: Some((4242, 4343)),
                        ..Nondeterminism::default()
                    },
                    ..ArmSpec::default()
                },
                DivergenceClass::OwnerMode,
            ),
            named(
                "entropy",
                ArmSpec::default(),
                ArmSpec {
                    nondet: Nondeterminism {
                        gen_seed: Some(5),
                        ..Nondeterminism::default()
                    },
                    ..ArmSpec::default()
                },
                DivergenceClass::PayloadContent,
            ),
            named(
                "json",
                ArmSpec::default(),
                ArmSpec {
                    export: ExportOpts {
                        tar: TarOpts::default(),
                        json_key_seed: Some(3),
                    },
                    ..ArmSpec::default()
                },
                DivergenceClass::JsonKeyOrder,
            ),
        ];
        let forced_named = forced.iter().filter(|ok| **ok).count();
        let _ = std::fs::remove_dir_all(&scratch);
        metrics.push(("r_repro.fig2_audit_ms".into(), t_fig2.as_secs_f64() * 1e3));
        metrics.push(("r_repro.dag_audit_ms".into(), t_dag.as_secs_f64() * 1e3));
        metrics.push(("r_repro.forced_classes_named".into(), forced_named as f64));
        checks.push(Check {
            id: "R-repro",
            paper: "independent builders agree byte-for-byte (fig2, diamond serial-vs-8-workers); \
                    every injected nondeterminism source is classified by name (tar-mtime, \
                    tar-ordering, owner-mode, payload-content, json-key-order)",
            measured: format!(
                "fig2 clean={} ({t_fig2:.2?}), diamond serial-vs-8 clean={} ({t_dag:.2?}); \
                 forced classes named {forced_named}/5 \
                 [mtime={} order={} ids={} entropy={} json={}]",
                fig2.clean(),
                dag.clean(),
                forced[0],
                forced[1],
                forced[2],
                forced[3],
                forced[4],
            ),
            pass: clean && forced_named == 5,
        });
    }

    // ---- report ------------------------------------------------------------------
    println!("zeroroot paper-vs-measured report");
    println!("=================================\n");
    let mut failures = 0;
    for c in &checks {
        println!("[{}] {}", if c.pass { "PASS" } else { "FAIL" }, c.id);
        println!("    paper:    {}", c.paper);
        println!("    measured: {}", c.measured);
        println!();
        if !c.pass {
            failures += 1;
        }
    }
    println!("{} checks, {} failures", checks.len(), failures);
    if let Some(path) = json_path {
        let json = render_json(&checks, &metrics);
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
