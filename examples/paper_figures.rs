//! Reproduce the paper's figures side by side:
//!
//! * Figure 1a — `FROM alpine:3.19; RUN apk add sl`, no emulation: works,
//!   and the dispatch ledger proves no privileged syscall was issued.
//! * Figure 1b — `FROM centos:7; RUN yum install -y openssh`, no
//!   emulation: dies on `cpio: chown`.
//! * Figure 2 — the same build under `--force=seccomp`: succeeds.
//! * The §5 apt exception, with and without the injected workaround.
//!
//! ```sh
//! cargo run --example paper_figures
//! ```

use zeroroot::{Mode, Session};

fn banner(title: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn show(log: &[String]) {
    for line in log {
        println!("  {line}");
    }
}

fn main() {
    // ---- Figure 1a -----------------------------------------------------
    banner("Figure 1a: alpine apk, --force=none (succeeds, no privileged calls)");
    let mut s = Session::new();
    let r = s.build("FROM alpine:3.19\nRUN apk add sl\n", "win", Mode::None);
    show(&r.log);
    let counters = s.counters();
    assert!(r.success);
    assert_eq!(
        counters.privileged(),
        0,
        "apk must issue no privileged syscalls"
    );
    println!(
        "  [verified: {} syscalls, 0 privileged]",
        counters.syscalls + counters.preload_hops
    );

    // ---- Figure 1b -----------------------------------------------------
    banner("Figure 1b: centos yum, --force=none (fails: cpio: chown)");
    let mut s = Session::new();
    let r = s.build(
        "FROM centos:7\nRUN yum install -y openssh\n",
        "win",
        Mode::None,
    );
    show(&r.log);
    assert!(!r.success);
    assert!(r.log_text().contains("cpio: chown"));
    println!("  [verified: failed on chown, as published]");

    // ---- Figure 2 -------------------------------------------------------
    banner("Figure 2: centos yum, --force=seccomp (succeeds)");
    let mut s = Session::new();
    let r = s.build(
        "FROM centos:7\nRUN yum install -y openssh\n",
        "win",
        Mode::Seccomp,
    );
    show(&r.log);
    let faked = s.counters().faked;
    assert!(r.success);
    assert!(faked > 0);
    println!("  [verified: {faked} privileged calls faked]");

    // ---- §5: the apt exception -------------------------------------------
    banner("§5 apt exception: seccomp breaks apt's privilege-drop verification");
    let mut s = Session::new();
    // Bypass the builder's automatic injection by asking apt directly —
    // the builder would have injected the option for us.
    let r = s.build(
        "FROM debian:12\nRUN /usr/bin/apt-get install -y hello\n",
        "apt-raw",
        Mode::SeccompIdConsistent, // no injection in this mode...
    );
    // ...but id consistency keeps the lie straight, so it succeeds:
    show(&r.log);
    assert!(
        r.success,
        "uid/gid consistency retires the workaround (§6 fw 2)"
    );

    let mut s = Session::new();
    let r = s.build(
        "FROM debian:12\nRUN apt-get install -y hello\n",
        "apt-workaround",
        Mode::Seccomp, // builder injects -o APT::Sandbox::User=root
    );
    show(&r.log);
    assert!(r.success);
    assert_eq!(r.modified_run_instructions, 1);
    println!("  [verified: workaround injected into 1 RUN instruction]");

    banner("Recap");
    println!("  1a: no emulation needed when no privileged calls happen");
    println!("  1b: one chown to an unmappable id kills the whole build");
    println!("   2: 'do nothing and return success' fixes it with ~no machinery");
    println!(" apt: the only consistency anyone actually missed was uid/gid");
}
