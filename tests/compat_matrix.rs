//! Experiment E-compat: §6(3) — static binaries versus interception
//! layers, and the libc coupling of bind-mounted emulators.

use zeroroot::core::{make, Mode, PrepareEnv, PrepareError};
use zeroroot::kernel::{ContainerConfig, ContainerType, Kernel};
use zeroroot::{Mode as M, Session, SysExt};
use zr_vfs::fs::Fs;

fn container(k: &mut Kernel) -> u32 {
    let mut image = Fs::new();
    image.mkdir_p("/usr/bin", 0o755).unwrap();
    let root = zr_vfs::Access::root();
    image
        .write_file("/usr/bin/fakeroot", 0o755, b"\x7fELF".to_vec(), &root)
        .unwrap();
    for ino in 1..=image.inode_count() as u64 {
        image.set_owner(ino, 1000, 1000).unwrap();
    }
    k.container_create(
        Kernel::HOST_USER_PID,
        ContainerConfig {
            ctype: ContainerType::TypeIII,
            image,
        },
    )
    .unwrap()
    .init_pid
}

/// Can a *static* program's chown be emulated under `mode`?
fn static_chown_works(mode: Mode) -> bool {
    let mut k = Kernel::default_kernel();
    let pid = container(&mut k);
    let strategy = make(mode);
    let env = PrepareEnv {
        fakeroot_in_image: true,
        image_libc: "glibc-2.36".into(),
        host_libc: "glibc-2.36".into(),
    };
    strategy.prepare(&mut k, pid, &env).expect("arm");
    k.process_mut(pid).dynamic = false; // static program image
    let ok = {
        let mut ctx = k.ctx(pid);
        ctx.write_file("/f", 0o644, vec![]).unwrap();
        ctx.chown("/f", 55, 55).is_ok()
    };
    strategy.teardown(&mut k);
    ok
}

#[test]
fn static_binary_matrix_matches_section_6() {
    assert!(
        static_chown_works(Mode::Seccomp),
        "kernel-side: linkage irrelevant"
    );
    assert!(
        static_chown_works(Mode::Proot),
        "ptrace: linkage irrelevant"
    );
    assert!(static_chown_works(Mode::ProotAccelerated));
    assert!(
        !static_chown_works(Mode::Fakeroot),
        "LD_PRELOAD cannot wrap static"
    );
    assert!(!static_chown_works(Mode::FakerootBindMount));
}

#[test]
fn strategy_metadata_agrees_with_behaviour() {
    for mode in Mode::ALL {
        let claims = mode.wraps_static();
        if mode == Mode::None {
            continue; // nothing to emulate either way
        }
        assert_eq!(
            claims,
            static_chown_works(mode),
            "{mode:?}: wraps_static() must match observed behaviour"
        );
    }
}

#[test]
fn bind_mount_requires_matching_libc() {
    let strategy = make(Mode::FakerootBindMount);
    let mut k = Kernel::default_kernel();
    let pid = container(&mut k);
    let mismatched = PrepareEnv {
        fakeroot_in_image: false,
        image_libc: "glibc-2.17".into(),
        host_libc: "glibc-2.36".into(),
    };
    assert!(matches!(
        strategy.prepare(&mut k, pid, &mismatched),
        Err(PrepareError::LibcMismatch { .. })
    ));
    let matched = PrepareEnv {
        fakeroot_in_image: false,
        image_libc: "glibc-2.36".into(),
        host_libc: "glibc-2.36".into(),
    };
    strategy
        .prepare(&mut k, pid, &matched)
        .expect("matching libc arms");
    strategy.teardown(&mut k);
}

#[test]
fn alpine_static_shell_breaks_fakeroot_but_not_seccomp_end_to_end() {
    // End-to-end version through the builder: Alpine's /bin/sh is static
    // busybox, and the chown applet runs inside it.
    let df = "FROM alpine:3.19\nRUN apk add fakeroot && touch /f && chown 55:55 /f\n";

    let mut s = Session::new();
    let r = s.build(df, "static-fr", M::Fakeroot);
    assert!(
        !r.success,
        "LD_PRELOAD misses the static shell:\n{}",
        r.log_text()
    );

    let mut s = Session::new();
    let r = s.build(df, "static-sc", M::Seccomp);
    assert!(r.success, "the filter doesn't care:\n{}", r.log_text());

    let mut s = Session::new();
    let r = s.build(df, "static-pr", M::Proot);
    assert!(r.success, "ptrace doesn't care either:\n{}", r.log_text());
}

#[test]
fn seccomp_agnostic_to_distro_and_libc() {
    // §6(3): "the seccomp method is agnostic to libc" — same mode, three
    // distros, three libcs.
    for df in [
        "FROM alpine:3.19\nRUN apk add sl\n",
        "FROM centos:7\nRUN yum install -y openssh\n",
        "FROM debian:12\nRUN apt-get install -y hello\n",
        "FROM fedora:40\nRUN dnf install -y sl\n",
    ] {
        let mut s = Session::new();
        let r = s.build(df, "agnostic", M::Seccomp);
        assert!(r.success, "{df}:\n{}", r.log_text());
    }
}
