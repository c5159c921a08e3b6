//! # zr-trace — the dispatch ledger
//!
//! [`Counters`] is the simulated kernel's one account of what its
//! dispatch did: kernel entries and calls a preload shim answered, per
//! syscall; what the seccomp filter faked, denied and cost in BPF
//! instructions; which calls failed; and the ptrace stops, daemon round
//! trips and spawns each emulation strategy pays for. Experiments read
//! it to make the paper's claims *checkable*: Figure 1a is not just "the
//! build succeeded" but "the build succeeded **and issued no privileged
//! system call**" ([`Counters::privileged`] is 0); Figure 2 is
//! "succeeded **and the filter faked N calls**" ([`Counters::faked`]).
//!
//! The ledger is plain `Copy` data: a kernel owns one, a batch sums its
//! per-stage kernels' with `+=`, and a scoped measurement is
//! [`Counters::since`] an earlier copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;

pub use counters::Counters;
