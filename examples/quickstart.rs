//! Quickstart: build the paper's Figure 2 Dockerfile with
//! `--force=seccomp` and watch the zero-consistency filter at work.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use zeroroot::{Mode, Session};

fn main() {
    let dockerfile = "FROM centos:7\nRUN yum install -y openssh\n";

    println!("$ cat Dockerfile");
    print!("{dockerfile}");
    println!("$ ch-image build -t win --force=seccomp .");

    let mut session = Session::new();
    let result = session.build(dockerfile, "win", Mode::Seccomp);
    for line in &result.log {
        println!("{line}");
    }

    let counters = session.counters();
    println!();
    println!("--- what just happened, per the syscall trace ---");
    println!(
        "syscalls dispatched ........ {}",
        counters.syscalls + counters.preload_hops
    );
    println!("privileged (filter set) .... {}", counters.privileged());
    println!("faked by the filter ........ {}", counters.faked);
    println!("BPF instructions run ....... {}", counters.bpf_instructions);
    println!();
    println!(
        "The package manager asked for {} privileged operations; the kernel \
         performed none of them, reported success for all of them, and the \
         build completed anyway — the paper's entire point.",
        counters.faked
    );
    assert!(result.success);
}
