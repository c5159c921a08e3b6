//! The instruction-level layer cache, end to end: warm rebuilds replay
//! snapshots instead of executing, edits invalidate exactly the edited
//! suffix, `--no-cache` bypasses the store, and a strategy change
//! invalidates the whole chain.

use zeroroot_core::Mode;
use zr_build::{context_file, BuildOptions, Builder, CacheMode};
use zr_kernel::Kernel;
use zr_vfs::access::Access;

const DF: &str = "FROM alpine:3.19\nRUN echo one > /a\nRUN echo two > /b\nRUN echo three > /c\n";

#[test]
fn identical_rebuild_hits_every_layer() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("t", Mode::Seccomp);

    let cold = builder.build(&mut kernel, DF, &opts);
    assert!(cold.success, "{}", cold.log_text());
    assert_eq!((cold.cache.hits, cold.cache.misses), (0, 4));
    assert_eq!(builder.layers.len(), 4);

    let spawns_before = kernel.counters.spawns;
    let pulls_before = builder.registry.pulls();
    let warm = builder.build(&mut kernel, DF, &opts);
    assert!(warm.success, "{}", warm.log_text());

    // Every layer restored, zero executions, zero pulls.
    assert_eq!((warm.cache.hits, warm.cache.misses), (4, 0));
    assert_eq!(kernel.counters.spawns, spawns_before, "no RUN executed");
    assert_eq!(builder.registry.pulls(), pulls_before, "no re-pull");

    // All hit markers, ch-image style.
    let log = warm.log_text();
    assert!(log.contains("1* FROM alpine:3.19"), "{log}");
    assert!(log.contains("2* RUN.S echo one > /a"), "{log}");
    assert!(log.contains("3* RUN.S echo two > /b"), "{log}");
    assert!(log.contains("4* RUN.S echo three > /c"), "{log}");
    assert!(!log.contains(". RUN.S"), "no miss markers:\n{log}");

    // The replayed image carries the executed instructions' effects.
    let image = warm.image.expect("warm build produces an image");
    let data = image.fs.read_file("/a", &Access::root()).unwrap();
    assert_eq!(data, b"one\n");
    assert_eq!(image.meta.tag, "t");
}

#[test]
fn editing_instruction_k_reruns_only_k_to_end() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("t", Mode::Seccomp);

    let cold = builder.build(&mut kernel, DF, &opts);
    assert!(cold.success, "{}", cold.log_text());

    // Edit instruction 3 (the second RUN).
    let edited = "FROM alpine:3.19\nRUN echo one > /a\nRUN echo TWO > /b\nRUN echo three > /c\n";
    let spawns_before = kernel.counters.spawns;
    let warm = builder.build(&mut kernel, edited, &opts);
    assert!(warm.success, "{}", warm.log_text());

    // 1..k-1 replay; k..end execute — and only k..end.
    assert_eq!((warm.cache.hits, warm.cache.misses), (2, 2));
    let log = warm.log_text();
    assert!(log.contains("1* FROM alpine:3.19"), "{log}");
    assert!(log.contains("2* RUN.S echo one > /a"), "{log}");
    assert!(log.contains("3. RUN.S echo TWO > /b"), "{log}");
    assert!(log.contains("4. RUN.S echo three > /c"), "{log}");
    // Exactly the two re-executed RUNs spawned (shell + echo chain is
    // one spawn per RUN here).
    assert!(kernel.counters.spawns > spawns_before, "suffix executed");

    let image = warm.image.expect("image");
    let access = Access::root();
    assert_eq!(image.fs.read_file("/b", &access).unwrap(), b"TWO\n");
    assert_eq!(image.fs.read_file("/a", &access).unwrap(), b"one\n");
}

#[test]
fn no_cache_forces_full_reexecution() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("t", Mode::Seccomp);

    let cold = builder.build(&mut kernel, DF, &opts);
    assert!(cold.success, "{}", cold.log_text());
    let layers_before = builder.layers.len();

    let mut no_cache = opts.clone();
    no_cache.cache = CacheMode::Disabled;
    let spawns_before = kernel.counters.spawns;
    let r = builder.build(&mut kernel, DF, &no_cache);
    assert!(r.success, "{}", r.log_text());

    // Nothing restored, everything executed, the store untouched.
    assert_eq!((r.cache.hits, r.cache.misses), (0, 4));
    assert!(kernel.counters.spawns > spawns_before);
    assert_eq!(builder.layers.len(), layers_before);
    let log = r.log_text();
    assert!(log.contains("1. FROM alpine:3.19"), "{log}");
    assert!(log.contains("2. RUN.S echo one > /a"), "{log}");
}

#[test]
fn strategy_change_invalidates_the_chain() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();

    let cold = builder.build(&mut kernel, DF, &BuildOptions::new("t", Mode::Seccomp));
    assert!(cold.success, "{}", cold.log_text());

    // Same Dockerfile, different RootEmulation strategy: the same RUN
    // behaves differently under it, so nothing may be reused.
    let r = builder.build(&mut kernel, DF, &BuildOptions::new("t", Mode::Fakeroot));
    assert!(r.success, "{}", r.log_text());
    assert_eq!((r.cache.hits, r.cache.misses), (0, 4), "{}", r.log_text());
    assert!(r.log_text().contains("2. RUN.F echo one > /a"));

    // Flipping back to seccomp still replays the original chain.
    let back = builder.build(&mut kernel, DF, &BuildOptions::new("t", Mode::Seccomp));
    assert_eq!((back.cache.hits, back.cache.misses), (4, 0));
}

#[test]
fn read_only_mode_restores_but_never_writes() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let mut opts = BuildOptions::new("t", Mode::Seccomp);

    // Read-only against an empty store: full execution, nothing stored.
    opts.cache = CacheMode::ReadOnly;
    let r = builder.build(&mut kernel, DF, &opts);
    assert!(r.success, "{}", r.log_text());
    assert_eq!((r.cache.hits, r.cache.misses), (0, 4));
    assert!(builder.layers.is_empty());

    // Warm the store, then replay read-only: hits, same store size.
    opts.cache = CacheMode::Enabled;
    builder.build(&mut kernel, DF, &opts);
    let layers = builder.layers.len();
    opts.cache = CacheMode::ReadOnly;
    let r = builder.build(&mut kernel, DF, &opts);
    assert_eq!((r.cache.hits, r.cache.misses), (4, 0));
    assert_eq!(builder.layers.len(), layers);
}

#[test]
fn context_edit_invalidates_the_copy_layer() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let df = "FROM alpine:3.19\nCOPY app.conf /etc/app.conf\nRUN true\n";
    let mut opts = BuildOptions::new("t", Mode::Seccomp);
    opts.context = vec![context_file("app.conf", b"v=1\n".to_vec())];

    let cold = builder.build(&mut kernel, df, &opts);
    assert!(cold.success, "{}", cold.log_text());

    // Identical context: full replay.
    let warm = builder.build(&mut kernel, df, &opts);
    assert_eq!((warm.cache.hits, warm.cache.misses), (3, 0));

    // Edited context file, unchanged Dockerfile: COPY and the rest of
    // the chain re-run.
    opts.context = vec![context_file("app.conf", b"v=2\n".to_vec())];
    let edited = builder.build(&mut kernel, df, &opts);
    assert!(edited.success, "{}", edited.log_text());
    assert_eq!((edited.cache.hits, edited.cache.misses), (1, 2));
    let image = edited.image.expect("image");
    assert_eq!(
        image
            .fs
            .read_file("/etc/app.conf", &Access::root())
            .unwrap(),
        b"v=2\n"
    );
}

#[test]
fn build_arg_override_invalidates_from_the_arg() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let df = "FROM alpine:3.19\nARG WHO=world\nRUN echo $WHO > /who\n";
    let opts = BuildOptions::new("t", Mode::Seccomp);

    let cold = builder.build(&mut kernel, df, &opts);
    assert!(cold.success, "{}", cold.log_text());

    // Same text, different --build-arg: ARG and the dependent RUN
    // re-execute; FROM replays.
    let mut over = opts.clone();
    over.build_args = vec![("WHO".into(), "there".into())];
    let r = builder.build(&mut kernel, df, &over);
    assert!(r.success, "{}", r.log_text());
    assert_eq!((r.cache.hits, r.cache.misses), (1, 2), "{}", r.log_text());
    let image = r.image.expect("image");
    assert_eq!(
        image.fs.read_file("/who", &Access::root()).unwrap(),
        b"there\n"
    );
}

#[test]
fn failed_suffix_keeps_the_successful_prefix_cached() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("t", Mode::None);

    // The second RUN fails (Figure 1b's chown); the FROM + first RUN
    // layers stay cached.
    let df = "FROM centos:7\nRUN true\nRUN yum install -y openssh\n";
    let r = builder.build(&mut kernel, df, &opts);
    assert!(!r.success);
    assert_eq!(builder.layers.len(), 2);

    // A retry replays the good prefix and fails only the bad suffix.
    let retry = builder.build(&mut kernel, df, &opts);
    assert!(!retry.success);
    assert_eq!((retry.cache.hits, retry.cache.misses), (2, 1));
}

#[test]
fn layers_are_shared_across_tags() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();

    let cold = builder.build(&mut kernel, DF, &BuildOptions::new("one", Mode::Seccomp));
    assert!(cold.success, "{}", cold.log_text());

    // A different destination tag replays the same chain entirely.
    let other = builder.build(&mut kernel, DF, &BuildOptions::new("two", Mode::Seccomp));
    assert_eq!((other.cache.hits, other.cache.misses), (4, 0));
    assert_eq!(other.image.expect("image").meta.tag, "two");
}

/// Every instruction kind, each once (RUN in both forms), with ARG, ENV
/// and WORKDIR substitution in play.
const EVERY_KIND: &str = "ARG BASE=alpine:3.19\n\
                          FROM $BASE AS main\n\
                          ENV A=1 B=${A}2\n\
                          ARG V=x${B}\n\
                          WORKDIR /w/$A\n\
                          USER nobody\n\
                          LABEL org.example.k=v\n\
                          COPY app.conf /etc/app.conf\n\
                          ADD app.conf /opt/\n\
                          SHELL [\"/bin/sh\", \"-c\"]\n\
                          ENTRYPOINT [\"/bin/sh\"]\n\
                          CMD [\"-c\", \"true\"]\n\
                          EXPOSE 80\n\
                          RUN echo $V > /v\n\
                          RUN [\"/usr/bin/true\"]\n";

/// The `N. INSTR` / `N* INSTR` lines of a log, as (N, marker, INSTR).
fn instruction_lines(log: &[String]) -> Vec<(u32, char, String)> {
    log.iter()
        .filter_map(|line| {
            let digits = line.find(|c: char| !c.is_ascii_digit())?;
            let n = line[..digits].parse().ok()?;
            let mut rest = line[digits..].chars();
            let mark = rest.next().filter(|m| matches!(m, '.' | '*'))?;
            let text = rest.as_str().strip_prefix(' ')?;
            Some((n, mark, text.to_string()))
        })
        .collect()
}

#[test]
fn every_instruction_kind_renders_the_same_hit_or_executed() {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let mut opts = BuildOptions::new("t", Mode::Seccomp);
    opts.context = vec![context_file("app.conf", b"k=v\n".to_vec())];

    let cold = builder.build(&mut kernel, EVERY_KIND, &opts);
    assert!(cold.success, "{}", cold.log_text());
    let warm = builder.build(&mut kernel, EVERY_KIND, &opts);
    assert!(warm.success, "{}", warm.log_text());
    assert_eq!((warm.cache.hits, warm.cache.misses), (15, 0));

    let cold_lines = instruction_lines(&cold.log);
    let warm_lines = instruction_lines(&warm.log);
    assert_eq!(cold_lines.len(), 15, "{}", cold.log_text());
    assert_eq!(warm_lines.len(), 15, "{}", warm.log_text());
    for ((n, cold_mark, executed), (warm_n, warm_mark, hit)) in cold_lines.iter().zip(&warm_lines) {
        // FROM is a hit on every cache-reading build; the rest executed.
        let from = executed.starts_with("FROM ");
        assert_eq!(
            *cold_mark,
            if from { '*' } else { '.' },
            "{n}{cold_mark} {executed}"
        );
        assert_eq!((warm_n, *warm_mark), (n, '*'), "{warm_n}{warm_mark} {hit}");
        assert_eq!(hit, executed, "line {n}");
    }
    // Substitutions resolved identically on both paths.
    let cold_log = cold.log_text();
    for rendered in [
        "2* FROM alpine:3.19 AS main",
        "3. ENV A=1 B=12",
        "4. ARG V=x12",
        "5. WORKDIR /w/1",
        "14. RUN.S echo $V > /v",
        "15. RUN.S /usr/bin/true",
    ] {
        assert!(cold_log.contains(rendered), "{rendered}:\n{cold_log}");
    }
    // Side lines appear only when the instruction executes.
    assert!(cold_log.contains("warning: USER ignored"), "{cold_log}");
    assert!(!warm.log_text().contains("warning:"), "{}", warm.log_text());
}
