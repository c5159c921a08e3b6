//! # zr-bench — shared helpers for the benchmark harness
//!
//! Each Criterion bench regenerates one of the paper's artifacts (the
//! same ones `paper-report` checks). The helpers here keep workload
//! construction out of the bench bodies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use zeroroot_core::{make, Mode, PrepareEnv, RootEmulation};
use zr_build::{BuildOptions, BuildResult, Builder, CacheMode};
use zr_image::{Distro, Image, ImageMeta, PullCost};
use zr_kernel::{ContainerConfig, ContainerType, Kernel, Pid};
use zr_sched::{BuildRequest, Scheduler, SchedulerConfig};
use zr_vfs::fs::Fs;

/// Figure 1a's Dockerfile.
pub const FIG1A: &str = "FROM alpine:3.19\nRUN apk add sl\n";
/// Figure 1b / Figure 2's Dockerfile.
pub const FIG1B: &str = "FROM centos:7\nRUN yum install -y openssh\n";
/// The §5 apt build (shell form: injection applies).
pub const APT: &str = "FROM debian:12\nRUN apt-get install -y hello\n";

/// Build `dockerfile` under `mode` on a fresh kernel; returns the result
/// and the kernel for counter inspection.
pub fn build_once(dockerfile: &str, mode: Mode) -> (BuildResult, Kernel) {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let result = builder.build(&mut kernel, dockerfile, &BuildOptions::new("bench", mode));
    (result, kernel)
}

/// A builder whose layer cache has been warmed with one cold build of
/// `dockerfile`, plus the kernel it ran on — the starting point for
/// warm-rebuild measurements.
pub fn warmed(dockerfile: &str, mode: Mode) -> (Builder, Kernel, BuildOptions) {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("bench", mode);
    let cold = builder.build(&mut kernel, dockerfile, &opts);
    assert!(cold.success, "warming build failed:\n{}", cold.log_text());
    (builder, kernel, opts)
}

/// The pull cost the scheduler workloads model: a small manifest round
/// trip per pull plus a larger blob transfer per pull-through miss.
/// Sleep-based, so concurrent workers genuinely overlap it — the
/// speedup the throughput gate measures survives a single-core CI box.
pub fn bench_pull_cost() -> PullCost {
    PullCost {
        round_trip: Duration::from_millis(3),
        fetch: Duration::from_millis(20),
    }
}

/// `n` *distinct* Dockerfiles cycling the catalog's bases, each with a
/// unique cheap RUN chain: a scheduler workload where no cross-build
/// layer sharing is possible, so it measures scheduling and registry
/// contention rather than cache wins.
pub fn distinct_dockerfiles(n: usize) -> Vec<String> {
    let bases = ["alpine:3.19", "centos:7", "debian:12", "fedora:40"];
    (0..n)
        .map(|i| {
            format!(
                "FROM {}\nRUN echo step-{i} > /s{i}\nRUN touch /done-{i}\n",
                bases[i % bases.len()]
            )
        })
        .collect()
}

/// A diamond multi-stage Dockerfile: base → left + right (independent,
/// heavy enough to measurably overlap) → final joined by
/// `COPY --from=`, plus one stage nothing references. The unreachable
/// stage is the pruning probe: it is the only `centos:7` user, so the
/// registry's fetch counter stays at one (alpine) unless it runs.
pub const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
                           FROM base AS left\nRUN apk add sl && echo l > /left\n\
                           FROM base AS right\nRUN apk add fakeroot && echo r > /right\n\
                           FROM centos:7 AS unused\nRUN yum install -y openssh\n\
                           FROM base AS final\n\
                           COPY --from=left /left /left\n\
                           COPY --from=right /right /right\n";

/// An `n`-stage linear chain (each stage `FROM` the previous): no two
/// stages can ever overlap — the DAG scheduler's floor, where extra
/// workers must buy nothing.
pub fn linear_stages(n: usize) -> String {
    let mut df = String::from("FROM alpine:3.19 AS s0\nRUN echo 0 > /s0\n");
    for i in 1..n {
        df.push_str(&format!("FROM s{} AS s{i}\nRUN echo {i} > /s{i}\n", i - 1));
    }
    df
}

/// `k` independent middle stages cycling all four catalog bases (each
/// pays its own pull, so workers overlap the modeled latency), joined
/// by a final stage copying one file from every middle — maximum
/// stage-level fan-out from a single request.
pub fn wide_stages(k: usize) -> String {
    let bases = ["alpine:3.19", "centos:7", "debian:12", "fedora:40"];
    let mut df = String::new();
    for i in 0..k {
        df.push_str(&format!(
            "FROM {} AS w{i}\nRUN echo {i} > /w{i}\n",
            bases[i % bases.len()]
        ));
    }
    df.push_str("FROM alpine:3.19\n");
    for i in 0..k {
        df.push_str(&format!("COPY --from=w{i} /w{i} /w{i}\n"));
    }
    df
}

/// Wall-clock one multi-stage build on a fresh scheduler with `jobs`
/// workers; returns the elapsed time and the target image digest. The
/// DAG layer splits the request into per-stage tasks, so worker counts
/// above one overlap independent stages of this single build.
pub fn timed_dag(jobs: usize, dockerfile: &str, cache: CacheMode) -> (Duration, String) {
    let sched = bench_scheduler(jobs);
    let requests = sched_requests(&[dockerfile.to_string()], cache);
    let t0 = std::time::Instant::now();
    let reports = sched.build_many(requests);
    let elapsed = t0.elapsed();
    let report = &reports[0];
    assert!(report.result.success, "{}", report.result.log_text());
    let digest = report.result.image.as_ref().expect("built image").digest();
    (elapsed, digest)
}

/// Scheduler requests over `dockerfiles` under `--force=seccomp` with
/// the given cache policy, ids/tags `b0..bN` in input order.
pub fn sched_requests(dockerfiles: &[String], cache: CacheMode) -> Vec<BuildRequest> {
    dockerfiles
        .iter()
        .enumerate()
        .map(|(i, df)| {
            let id = format!("b{i}");
            let options = BuildOptions {
                cache,
                ..BuildOptions::new(&id, Mode::Seccomp)
            };
            BuildRequest::with_options(&id, df, options)
        })
        .collect()
}

/// A fresh scheduler with `jobs` workers and the bench pull cost —
/// fresh registry and layer store, so repeated measurements start cold.
pub fn bench_scheduler(jobs: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        jobs,
        pull_cost: bench_pull_cost(),
        ..SchedulerConfig::default()
    })
}

/// Wall-clock one batch on a fresh scheduler; returns the elapsed time
/// and the per-build image digests (input order). Asserts every build
/// succeeded.
pub fn timed_batch(
    jobs: usize,
    dockerfiles: &[String],
    cache: CacheMode,
) -> (Duration, Vec<String>) {
    let sched = bench_scheduler(jobs);
    let t0 = std::time::Instant::now();
    let reports = sched.build_many(sched_requests(dockerfiles, cache));
    let elapsed = t0.elapsed();
    let digests = reports
        .iter()
        .map(|r| {
            assert!(r.result.success, "{}", r.result.log_text());
            r.result.image.as_ref().expect("successful build").digest()
        })
        .collect();
    (elapsed, digests)
}

/// A synthetic base image for the snapshot/digest scaling grid:
/// `files` regular files of `file_bytes` each (distinct contents, so
/// nothing dedups away), spread across `/data/dNN/` directories.
pub fn synthetic_image(files: usize, file_bytes: usize) -> Image {
    let root = zr_vfs::Access::root();
    let mut fs = Fs::new();
    for i in 0..files {
        let dir = format!("/data/d{:02}", i % 16);
        fs.mkdir_p(&dir, 0o755).expect("dir");
        let mut data = vec![(i % 251) as u8; file_bytes];
        let stamp = format!("file-{i}");
        let n = stamp.len().min(file_bytes);
        data[..n].copy_from_slice(&stamp.as_bytes()[..n]);
        fs.write_file(&format!("{dir}/f{i}"), 0o644, data, &root)
            .expect("file");
    }
    Image {
        meta: ImageMeta {
            name: "synthetic".into(),
            tag: format!("{files}x{file_bytes}"),
            distro: Distro::Scratch,
            libc: String::new(),
            env: vec![],
            binaries: vec![],
        },
        fs,
    }
}

/// One warm snapshot-and-digest step on a digested image: clone the
/// filesystem (the per-instruction snapshot), change one file, and
/// digest the result. This is the per-instruction hot path the CoW
/// refactor makes O(changes); the cold baseline is
/// [`Image::digest_uncached`] on the same image.
pub fn snapshot_one_change(image: &Image, edit: u64) -> String {
    let root = zr_vfs::Access::root();
    let mut next = Image {
        meta: image.meta.clone(),
        fs: image.fs.clone(),
    };
    next.fs
        .write_file(
            "/data/d00/f0",
            0o644,
            format!("edit-{edit}").into_bytes(),
            &root,
        )
        .expect("edit");
    next.digest()
}

/// A minimal armed container for microbenchmarks: returns kernel, pid and
/// the strategy (so teardown can run).
pub fn armed(mode: Mode) -> (Kernel, Pid, Box<dyn RootEmulation>) {
    let mut kernel = Kernel::default_kernel();
    let mut image = Fs::new();
    image.mkdir_p("/usr/bin", 0o755).expect("dir");
    let root = zr_vfs::Access::root();
    image
        .write_file("/usr/bin/fakeroot", 0o755, b"\x7fELF".to_vec(), &root)
        .expect("fakeroot marker");
    for ino in 1..=image.inode_count() as u64 {
        image.set_owner(ino, 1000, 1000).expect("chown");
    }
    let c = kernel
        .container_create(
            Kernel::HOST_USER_PID,
            ContainerConfig {
                ctype: ContainerType::TypeIII,
                image,
            },
        )
        .expect("container");
    let strategy = make(mode);
    let env = PrepareEnv {
        fakeroot_in_image: true,
        image_libc: "glibc-2.36".into(),
        host_libc: "glibc-2.36".into(),
    };
    strategy
        .prepare(&mut kernel, c.init_pid, &env)
        .expect("arm");
    (kernel, c.init_pid, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let (r, k) = build_once(FIG1A, Mode::None);
        assert!(r.success);
        assert!(k.counters.syscalls > 0);
    }

    #[test]
    fn helpers_arm() {
        let (mut k, pid, strategy) = armed(Mode::Seccomp);
        assert_eq!(k.process(pid).seccomp.len(), 1);
        strategy.teardown(&mut k);
    }

    #[test]
    fn helpers_warm() {
        let (mut builder, mut kernel, opts) = warmed(FIG1B, Mode::Seccomp);
        let warm = builder.build(&mut kernel, FIG1B, &opts);
        assert!(warm.success);
        assert_eq!(warm.cache.misses, 0, "warm rebuild must be all hits");
    }
}
