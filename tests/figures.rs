//! Integration tests for the paper's figures (paper-report's checks F1a,
//! F1b and F2), with syscall-level verification the published logs can
//! only imply.

use zeroroot::syscalls::Sysno;
use zeroroot::{Mode, Session};

const FIG1A: &str = "FROM alpine:3.19\nRUN apk add sl\n";
const FIG1B: &str = "FROM centos:7\nRUN yum install -y openssh\n";

#[test]
fn fig1a_alpine_apk_succeeds_without_emulation() {
    let mut s = Session::new();
    let r = s.build(FIG1A, "win", Mode::None);
    assert!(r.success, "{}", r.log_text());

    let log = r.log_text();
    assert!(log.contains("1* FROM alpine:3.19"), "{log}");
    assert!(log.contains("2. RUN.N apk add sl"), "{log}");
    assert!(
        log.contains("fetch https://dl-cdn.alpinelinux.org/alpine/v3.19"),
        "{log}"
    );
    assert!(
        log.contains("(1/3) Installing ncurses-terminfo-base"),
        "{log}"
    );
    assert!(log.contains("(2/3) Installing libncursesw"), "{log}");
    assert!(log.contains("(3/3) Installing sl (5.02-r1)"), "{log}");
    assert!(
        log.contains("Executing busybox-1.36.1-r15.trigger"),
        "{log}"
    );
    assert!(log.contains("grown in 2 instructions: win"), "{log}");

    // The figure's caption, verified: "succeeded because no privileged
    // system calls were used".
    let counters = s.counters();
    assert_eq!(counters.privileged(), 0);
    assert_eq!(counters.faked, 0);
    assert!(counters.syscalls > 0);
}

#[test]
fn fig1b_centos_yum_fails_on_cpio_chown() {
    let mut s = Session::new();
    let r = s.build(FIG1B, "win", Mode::None);
    assert!(!r.success);

    let log = r.log_text();
    assert!(log.contains("1* FROM centos:7"), "{log}");
    assert!(log.contains("2. RUN.N yum install -y openssh"), "{log}");
    assert!(
        log.contains("Installing : openssh-7.4p1-23.el7_9.x86_64"),
        "{log}"
    );
    assert!(log.contains("Error unpacking rpm package openssh"), "{log}");
    assert!(log.contains("cpio: chown"), "{log}");
    assert!(log.contains("something went wrong, rolling back"), "{log}");
    assert!(
        log.contains("error: build failed: RUN command exited with 1"),
        "{log}"
    );

    // The failing call was a chown-family syscall that the kernel
    // *refused* (not faked).
    let counters = s.counters();
    assert!(counters.privileged() > 0);
    assert!(counters.failed > 0);
    assert_eq!(counters.faked, 0);
}

#[test]
fn fig2_centos_yum_succeeds_under_seccomp() {
    let mut s = Session::new();
    let r = s.build(FIG1B, "win", Mode::Seccomp);
    assert!(r.success, "{}", r.log_text());

    let log = r.log_text();
    assert!(log.contains("2. RUN.S yum install -y openssh"), "{log}");
    assert!(
        log.contains("Installing : openssh-7.4p1-23.el7_9.x86_64"),
        "{log}"
    );
    assert!(log.contains("Complete!"), "{log}");
    assert!(
        log.contains("--force=seccomp: modified 0 RUN instructions"),
        "{log}"
    );
    assert!(log.contains("grown in 2 instructions: win"), "{log}");

    // Same Dockerfile, same syscalls — but now the privileged ones were
    // faked, including the kexec_load self-test.
    let counters = s.counters();
    assert!(counters.faked > 0);
    assert!(counters.calls(Sysno::KexecLoad) >= 1, "self-test ran");

    // And the zero-consistency signature: the installed files are still
    // owned by container root (mapped), not by ssh_keys.
    let image = r.image.expect("built image");
    let access = zeroroot::vfs::Access::root();
    let st = image
        .fs
        .stat(
            "/usr/libexec/openssh/ssh-keysign",
            &access,
            zeroroot::vfs::FollowMode::Follow,
        )
        .expect("file installed");
    assert_eq!(st.gid, 1000, "stored as the unprivileged user, not gid 998");
}

#[test]
fn fig2_works_for_every_figure_pair() {
    // The seccomp mode must not break the build that already worked.
    let mut s = Session::new();
    let r = s.build(FIG1A, "win2", Mode::Seccomp);
    assert!(r.success, "{}", r.log_text());
    assert!(r.log_text().contains("RUN.S apk add sl"));
}
