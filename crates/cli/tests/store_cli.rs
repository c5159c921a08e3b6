//! End-to-end `--cache-dir` and OCI subcommand tests through the real
//! `zr-image` binary — two *separate OS processes* sharing one store
//! directory, which is the property the persistent store exists for.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_zr-image");

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("zr-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Scratch(path)
    }

    fn join(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn zr-image")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn digest_line(text: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix("image digest: "))
        .map(str::to_string)
}

fn write_dockerfile(dir: &Path) -> PathBuf {
    let path = dir.join("Dockerfile");
    std::fs::write(&path, "FROM centos:7\nRUN yum install -y openssh\n").unwrap();
    path
}

#[test]
fn second_process_replays_a_warm_cache_dir() {
    let scratch = Scratch::new("warm");
    let df = write_dockerfile(&scratch.0);
    let cache = scratch.join("cache");
    let args = |tag: &str| -> Vec<String> {
        vec![
            "build".into(),
            "-t".into(),
            tag.into(),
            "--cache-dir".into(),
            cache.display().to_string(),
            "--cache-stats".into(),
            "-f".into(),
            df.display().to_string(),
        ]
    };
    // Process 1: cold build, persists every layer.
    let cold_args = args("cold");
    let cold = run(&cold_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_out = stdout(&cold);
    assert!(cold_out.contains("2. RUN"), "cold executes: {cold_out}");

    // Process 2: a *different OS process*, fresh memory, same dir —
    // every instruction must replay (`N*`), nothing may execute.
    let warm_args = args("warm");
    let warm = run(&warm_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_out = stdout(&warm);
    assert!(
        warm_out.contains("1* FROM"),
        "warm replays FROM: {warm_out}"
    );
    assert!(warm_out.contains("2* RUN"), "warm replays RUN: {warm_out}");
    assert!(
        !warm_out.contains("2. RUN"),
        "warm must not execute: {warm_out}"
    );
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("2 disk hits"),
        "hits must come from the disk tier: {warm_err}"
    );
}

#[test]
fn export_then_import_reproduces_the_digest() {
    let scratch = Scratch::new("oci");
    let df = write_dockerfile(&scratch.0);
    let oci = scratch.join("oci");

    let export = run(&[
        "export",
        "--output",
        oci.to_str().unwrap(),
        "-t",
        "exported",
        "-f",
        df.to_str().unwrap(),
    ]);
    assert!(
        export.status.success(),
        "{}",
        String::from_utf8_lossy(&export.stderr)
    );
    let export_out = stdout(&export);
    let exported_digest = digest_line(&export_out).expect("export prints the digest");
    // The metadata keeps the base image's name; the CLI tag becomes
    // the OCI tag half of the reference.
    assert!(
        export_out.contains("exported centos:exported to"),
        "{export_out}"
    );
    assert!(oci.join("oci-layout").exists());
    assert!(oci.join("index.json").exists());

    // A separate process imports the layout back.
    let import = run(&["import", oci.to_str().unwrap()]);
    assert!(
        import.status.success(),
        "{}",
        String::from_utf8_lossy(&import.stderr)
    );
    let imported_digest = digest_line(&stdout(&import)).expect("import prints the digest");
    assert_eq!(
        imported_digest, exported_digest,
        "export → import must reproduce a byte-identical Image::digest"
    );

    // inspect agrees, and a tampered layout is rejected.
    let inspect = run(&["inspect", oci.to_str().unwrap()]);
    assert!(inspect.status.success());
    assert_eq!(digest_line(&stdout(&inspect)).unwrap(), exported_digest);
}

#[test]
fn store_subcommands_refuse_to_create_a_store() {
    // A typo'd --cache-dir must error, not conjure an empty store and
    // report a successful no-op gc.
    let scratch = Scratch::new("typo");
    let missing = scratch.join("no-such-store");
    let gc = run(&["store", "gc", "--cache-dir", missing.to_str().unwrap()]);
    assert!(!gc.status.success());
    assert!(
        String::from_utf8_lossy(&gc.stderr).contains("not a zr-store directory"),
        "{}",
        String::from_utf8_lossy(&gc.stderr)
    );
    assert!(!missing.exists(), "nothing was created");
}

#[test]
fn an_unknown_store_action_leaves_the_store_untouched() {
    // Opening a store runs crash recovery, which deletes a dead
    // writer's staging file: a mistyped action must print usage
    // without opening it.
    let scratch = Scratch::new("action");
    let cache = scratch.join("cache");
    drop(zr_store::Cas::open(&cache).expect("init store"));
    // Pid 4999999 is above Linux's pid ceiling: never a live writer.
    let staged = cache.join("tmp/w4999999-0.tmp");
    std::fs::write(&staged, b"half a write").unwrap();

    let out = run(&["store", "frob", "--cache-dir", cache.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("usage: zr-image"), "{err}");
    assert!(staged.exists(), "the unknown action ran crash recovery");

    // A known action opens the store, and recovery reclaims the file.
    let stats = run(&["store", "stats", "--cache-dir", cache.to_str().unwrap()]);
    assert!(stats.status.success());
    assert!(
        stdout(&stats).contains("repair:   1 tmp files recovered"),
        "{}",
        stdout(&stats)
    );
    assert!(!staged.exists());
}

#[test]
fn store_gc_and_stats_operate_on_a_cache_dir() {
    let scratch = Scratch::new("gc");
    let df = write_dockerfile(&scratch.0);
    let cache = scratch.join("cache");
    let build = run(&[
        "build",
        "-t",
        "t",
        "--cache-dir",
        cache.to_str().unwrap(),
        "-f",
        df.to_str().unwrap(),
    ]);
    assert!(build.status.success());

    let stats = run(&["store", "stats", "--cache-dir", cache.to_str().unwrap()]);
    assert!(stats.status.success());
    let stats_out = stdout(&stats);
    assert!(stats_out.contains("layers:   2"), "{stats_out}");
    assert!(
        stats_out.contains("chunk indexes") && stats_out.contains("evicted:"),
        "physical/eviction counters reported: {stats_out}"
    );

    let gc = run(&["store", "gc", "--cache-dir", cache.to_str().unwrap()]);
    assert!(gc.status.success());
    let gc_out = stdout(&gc);
    assert!(gc_out.contains("0 removed"), "all blobs pinned: {gc_out}");

    // After gc, the warm replay still works from another process.
    let warm = run(&[
        "build",
        "-t",
        "t2",
        "--cache-dir",
        cache.to_str().unwrap(),
        "-f",
        df.to_str().unwrap(),
    ]);
    assert!(warm.status.success());
    assert!(stdout(&warm).contains("2* RUN"));
}
