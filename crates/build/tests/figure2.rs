//! The paper's Figure 2 case, end to end through the builder layer: the
//! same CentOS 7 + openssh Dockerfile that dies on `cpio: chown` in a
//! bare Type III container (Figure 1b) completes under the
//! zero-consistency seccomp filter — with every privileged syscall faked
//! and none executed.

use zeroroot_core::Mode;
use zr_build::{BuildError, BuildOptions, Builder};
use zr_kernel::Kernel;
use zr_vfs::access::Access;
use zr_vfs::fs::FollowMode;

const FIG2: &str = "FROM centos:7\nRUN yum install -y openssh\n";

fn build(mode: Mode) -> (zr_build::BuildResult, Kernel) {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let result = builder.build(&mut kernel, FIG2, &BuildOptions::new("win", mode));
    (result, kernel)
}

#[test]
fn figure_2_succeeds_under_seccomp_with_faked_syscalls() {
    let (result, kernel) = build(Mode::Seccomp);
    assert!(result.success, "{}", result.log_text());

    // The mechanism, not just the outcome: privileged calls were issued
    // and the filter faked them (ERRNO(0), nothing executed).
    let counters = kernel.counters;
    assert!(counters.faked > 0, "the filter must have faked syscalls");
    assert!(
        counters.privileged() > 0,
        "yum/rpm must have issued privileged calls"
    );

    // Zero consistency is visible in the artifact: the files rpm asked to
    // chown to ssh_keys (gid 998) are still honestly user-owned.
    let image = result.image.expect("successful build produces an image");
    let st = image
        .fs
        .stat(
            "/usr/libexec/openssh/ssh-keysign",
            &Access::root(),
            FollowMode::Follow,
        )
        .expect("openssh payload installed");
    assert_eq!((st.uid, st.gid), (1000, 1000), "the chown was a lie");
}

#[test]
fn figure_1b_fails_without_emulation() {
    let (result, kernel) = build(Mode::None);
    assert!(!result.success, "{}", result.log_text());
    assert!(result.image.is_none(), "failed builds produce no image");
    assert!(
        matches!(result.error, Some(BuildError::RunFailed { status: 1, .. })),
        "{:?}",
        result.error
    );
    assert!(
        result.log_text().contains("cpio: chown"),
        "{}",
        result.log_text()
    );

    // Nothing was faked — the kernel refused the chown honestly.
    let counters = kernel.counters;
    assert_eq!(counters.faked, 0);
    assert!(counters.failed > 0);
}

#[test]
fn per_strategy_outcomes_match_section_6() {
    // The same Dockerfile across the comparison strategies: everything
    // with root emulation completes; the honest build does not.
    for (mode, expect) in [
        (Mode::None, false),
        (Mode::Seccomp, true),
        (Mode::SeccompXattr, true),
        (Mode::SeccompIdConsistent, true),
        (Mode::Fakeroot, true),
        (Mode::Proot, true),
        (Mode::ProotAccelerated, true),
    ] {
        let (result, _) = build(mode);
        assert_eq!(result.success, expect, "{mode:?}:\n{}", result.log_text());
    }
}

#[test]
fn run_markers_follow_the_figures() {
    let (result, _) = build(Mode::Seccomp);
    assert!(result
        .log_text()
        .contains("2. RUN.S yum install -y openssh"));
    let (result, _) = build(Mode::None);
    assert!(result
        .log_text()
        .contains("2. RUN.N yum install -y openssh"));
}

/// Every mode arms a one-RUN build on a base where its `prepare`
/// succeeds (glibc 2.36 matches the default host libc; the repo ships
/// fakeroot), logs its own RUN marker, and reports modified RUNs
/// exactly when it splices in the apt workaround.
#[test]
fn every_mode_logs_its_marker_and_apt_report() {
    for mode in Mode::ALL {
        let mut kernel = Kernel::default_kernel();
        let result = Builder::new().build(
            &mut kernel,
            "FROM debian:12\nRUN true\n",
            &BuildOptions::new("one", mode),
        );
        assert!(result.success, "{mode:?}:\n{}", result.log_text());
        let marker = format!("2. {} true", mode.run_marker());
        assert!(result.log.contains(&marker), "{mode:?} must log {marker:?}");
        let reported: Vec<&String> = result
            .log
            .iter()
            .filter(|l| l.contains(": modified "))
            .collect();
        let expected = format!("--force={}: modified 0 RUN instructions", mode.flag());
        let wanted: Vec<&String> = if mode.injects_apt_workaround() {
            vec![&expected]
        } else {
            vec![]
        };
        assert_eq!(reported, wanted, "{mode:?}");
    }
}

#[test]
fn hit_and_miss_markers_render_exactly() {
    // Regression pin for the cache marker format: `N* INSTR` hit vs
    // `N. INSTR` miss, rendered exactly as the paper's figures show.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("win", Mode::Seccomp);

    // Cold build: FROM renders as a storage hit (`1*`, the figures'
    // rendering), the RUN as an executed miss (`2.`).
    let cold = builder.build(&mut kernel, FIG2, &opts);
    assert!(cold.success, "{}", cold.log_text());
    assert!(
        cold.log_text().contains("1* FROM centos:7"),
        "{}",
        cold.log_text()
    );
    assert!(
        cold.log_text().contains("2. RUN.S yum install -y openssh"),
        "{}",
        cold.log_text()
    );

    // Warm rebuild: everything is a hit.
    let warm = builder.build(&mut kernel, FIG2, &opts);
    assert!(warm.success, "{}", warm.log_text());
    assert!(
        warm.log_text().contains("1* FROM centos:7"),
        "{}",
        warm.log_text()
    );
    assert!(
        warm.log_text().contains("2* RUN.S yum install -y openssh"),
        "{}",
        warm.log_text()
    );
    assert_eq!((warm.cache.hits, warm.cache.misses), (2, 0));

    // --no-cache: the one honest FROM miss rendering.
    let mut no_cache = opts.clone();
    no_cache.cache = zr_build::CacheMode::Disabled;
    let forced = builder.build(&mut kernel, FIG2, &no_cache);
    assert!(forced.success, "{}", forced.log_text());
    assert!(
        forced.log_text().contains("1. FROM centos:7"),
        "{}",
        forced.log_text()
    );
    assert!(
        forced
            .log_text()
            .contains("2. RUN.S yum install -y openssh"),
        "{}",
        forced.log_text()
    );
}

#[test]
fn warm_rebuild_of_figure_2_executes_nothing() {
    // The acceptance bar for the layer cache: a warm Figure 2 rebuild
    // executes zero instructions — no spawns, no faked syscalls beyond
    // the cold build's, all hit markers.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("win", Mode::Seccomp);
    let cold = builder.build(&mut kernel, FIG2, &opts);
    assert!(cold.success, "{}", cold.log_text());

    let spawns = kernel.counters.spawns;
    let faked = kernel.counters.faked;
    let warm = builder.build(&mut kernel, FIG2, &opts);
    assert!(warm.success, "{}", warm.log_text());
    assert_eq!(kernel.counters.spawns, spawns, "no process ran");
    assert_eq!(kernel.counters.faked, faked, "no syscall was faked");
    assert_eq!((warm.cache.hits, warm.cache.misses), (2, 0));

    // Same zero-consistency artifact out of the snapshot.
    let image = warm.image.expect("image");
    let st = image
        .fs
        .stat(
            "/usr/libexec/openssh/ssh-keysign",
            &Access::root(),
            FollowMode::Follow,
        )
        .expect("openssh payload restored");
    assert_eq!((st.uid, st.gid), (1000, 1000));
}

#[test]
fn filters_accumulate_per_run_instruction() {
    // §4: filters are irremovable; each armed RUN pushes another one.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let df = "FROM centos:7\nRUN true\nRUN true\nRUN true\n";
    let result = builder.build(&mut kernel, df, &BuildOptions::new("t", Mode::Seccomp));
    assert!(result.success, "{}", result.log_text());
    // The container init carries one filter per RUN preparation.
    let pid = 3; // first pid after init (1) and the host user (2)
    assert_eq!(kernel.process(pid).seccomp.len(), 3);
}
