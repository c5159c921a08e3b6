//! The §6 comparison, as a table: every emulation mode against the
//! scenarios the paper uses to argue for zero consistency.
//!
//! Columns:
//! * **fig1b** — does the rpm/yum chown build work?
//! * **apt** — does a raw apt install (no injected workaround) work?
//! * **static** — does a chown in a *statically linked* shell work?
//! * **verify** — does a tool that checks its chowns (unminimize-style)
//!   pass?
//! * plus the cost counters each mode accumulated.
//!
//! ```sh
//! cargo run --example emulation_matrix
//! ```

use zeroroot::{kernel::Counters, Mode, Session};

struct Row {
    mode: Mode,
    fig1b: bool,
    apt: bool,
    static_sh: bool,
    verify: bool,
    counters: Counters,
}

fn outcome(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

fn try_build(dockerfile: &str, mode: Mode) -> (bool, Counters) {
    let mut s = Session::new();
    let r = s.build(dockerfile, "m", mode);
    (r.success, s.counters())
}

fn main() {
    let fig1b = "FROM centos:7\nRUN yum install -y openssh\n";
    // Raw apt: exec-form RUN bypasses the builder's apt injection, so this
    // probes the §5 exception itself in every mode.
    let apt = "FROM debian:12\nRUN [\"/usr/bin/apt-get\", \"install\", \"-y\", \"hello\"]\n";
    // Alpine's /bin/sh is static busybox: its chown applet is immune to
    // LD_PRELOAD (§6 item 3).
    let static_sh = "FROM alpine:3.19\nRUN apk add fakeroot && touch /f && chown 55:55 /f\n";
    // unminimize verifies its chown: zero consistency gets caught (§6's
    // "known exceptions").
    let verify = "FROM debian:12\nRUN /usr/sbin/unminimize\n";

    let mut rows = Vec::new();
    for mode in Mode::ALL {
        let (fig1b_ok, mut counters) = try_build(fig1b, mode);
        let (apt_ok, c2) = try_build(apt, mode);
        let (static_ok, c3) = try_build(static_sh, mode);
        let (verify_ok, c4) = try_build(verify, mode);
        for c in [c2, c3, c4] {
            counters += c;
        }
        rows.push(Row {
            mode,
            fig1b: fig1b_ok,
            apt: apt_ok,
            static_sh: static_ok,
            verify: verify_ok,
            counters,
        });
    }

    println!(
        "{:<22} {:>6} {:>6} {:>7} {:>7} | {:>9} {:>9} {:>8} {:>8}",
        "mode", "fig1b", "apt", "static", "verify", "bpf-insn", "ptrace", "preload", "daemon"
    );
    println!("{}", "-".repeat(96));
    for r in rows {
        println!(
            "{:<22} {:>6} {:>6} {:>7} {:>7} | {:>9} {:>9} {:>8} {:>8}",
            format!("{:?}", r.mode),
            outcome(r.fig1b),
            outcome(r.apt),
            outcome(r.static_sh),
            outcome(r.verify),
            r.counters.bpf_instructions,
            r.counters.ptrace_stops,
            r.counters.preload_hops,
            r.counters.daemon_round_trips,
        );
    }

    println!();
    println!("Reading guide (§6 of the paper):");
    println!("* seccomp fixes fig1b at the cost of a few BPF instructions per syscall;");
    println!("  it loses only the workloads that VERIFY their privileged requests");
    println!("  (apt without the injected option, unminimize).");
    println!("* fakeroot is consistent — apt and verify pass — but cannot see into");
    println!("  static binaries, and every emulated call is a daemon round trip.");
    println!("* proot matches fakeroot's consistency AND covers static binaries, at");
    println!("  two context switches per ptrace stop (every syscall, classic mode).");
}
