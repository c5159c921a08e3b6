//! Experiment around footnote 7 and §4's arch word: the same build on a
//! different architecture exercises *different syscall numbers* (and on
//! aarch64, different syscalls entirely), yet the one filter handles all
//! of them.

use zeroroot::kernel::Kernel;
use zeroroot::syscalls::{Arch, Sysno};
use zeroroot::{BuildOptions, Builder, Mode};

fn build_on(arch: Arch, mode: Mode) -> (bool, Kernel) {
    let mut kernel = Kernel::new(zeroroot::kernel::KernelConfig {
        arch,
        ..Default::default()
    });
    let mut builder = Builder::new();
    let opts = BuildOptions::new("win", mode);
    let r = builder.build(
        &mut kernel,
        "FROM centos:7\nRUN yum install -y openssh\n",
        &opts,
    );
    (r.success, kernel)
}

#[test]
fn figure_1b_fails_on_every_architecture() {
    for arch in Arch::ALL {
        let (ok, _) = build_on(arch, Mode::None);
        assert!(!ok, "{arch}: the chown must fail regardless of numbering");
    }
}

#[test]
fn figure_2_succeeds_on_every_architecture() {
    for arch in Arch::ALL {
        let (ok, k) = build_on(arch, Mode::Seccomp);
        assert!(ok, "{arch}: one filter, six architectures");
        assert!(k.counters.faked > 0, "{arch}");
    }
}

#[test]
fn aarch64_uses_fchownat_not_chown() {
    // Footnote 7: arm64 lacks chown(2); libc routes through fchownat(2).
    let (_, k) = build_on(Arch::Aarch64, Mode::Seccomp);
    assert_eq!(k.counters.calls(Sysno::Chown), 0);
    assert!(k.counters.calls(Sysno::Fchownat) > 0);
}

#[test]
fn i386_uses_the_32bit_id_variants() {
    // The extractor uses fchownat everywhere (it exists on i386 too), but
    // a program calling libc chown() gets the chown32 entry point.
    let mut kernel = Kernel::new(zeroroot::kernel::KernelConfig {
        arch: Arch::I386,
        ..Default::default()
    });
    let mut builder = Builder::new();
    let r = builder.build(
        &mut kernel,
        "FROM centos:7\nRUN touch /f && chown root:root /f\n",
        &BuildOptions::new("t32", Mode::Seccomp),
    );
    assert!(r.success, "{}", r.log_text());
    assert!(
        kernel.counters.calls(Sysno::Chown32) > 0,
        "shell chown → chown32"
    );
    assert_eq!(
        kernel.counters.calls(Sysno::Chown),
        0,
        "libc prefers chown32"
    );
}

#[test]
fn x86_64_uses_the_plain_calls() {
    let (_, k) = build_on(Arch::X8664, Mode::Seccomp);
    assert_eq!(k.counters.calls(Sysno::Chown32), 0);
    assert!(k.counters.calls(Sysno::Chown) + k.counters.calls(Sysno::Fchownat) > 0);
}
