//! # zr-seccomp — seccomp filter mode
//!
//! Everything between "a list of syscalls to lie about" and "a cBPF program
//! the kernel will run on every syscall":
//!
//! * [`data`] — `struct seccomp_data`, the 64-byte view a filter gets of
//!   each system call (number, architecture, instruction pointer, six
//!   argument words). BPF cannot dereference pointers; these 64 bytes are
//!   all a filter will ever know (paper §4).
//! * [`action`] — filter dispositions (`SECCOMP_RET_*`) with the kernel's
//!   precedence order for stacked filters.
//! * [`spec`] — a declarative filter description, including
//!   [`spec::zero_consistency`]: the paper's filter. Fake success is
//!   `SECCOMP_RET_ERRNO` with `errno = 0` — *do nothing and return
//!   success*.
//! * [`compile`](mod@compile) — the spec→cBPF compiler (the Rust
//!   analogue of Charliecloud's ~150 lines of C): architecture dispatch
//!   prologue, per-arch syscall matching, and the mknod mode-argument
//!   examination.
//! * [`check`] — `seccomp_check_filter`-style validation, stricter than
//!   plain BPF validation (word loads only, in-bounds `seccomp_data`
//!   offsets).
//! * [`stack`] — stacked filters with most-restrictive-wins evaluation.
//! * [`host`] — **real** installation on a Linux x86-64 host via raw
//!   `prctl(2)`/`seccomp(2)` (no libseccomp, no libc wrappers), used by the
//!   `host_seccomp` example. The rest of the workspace never goes near the
//!   real kernel.

#![warn(missing_docs)]
#![deny(unsafe_code)] // host.rs opts back in, nothing else may

pub mod action;
pub mod check;
pub mod compile;
pub mod data;
pub mod host;
pub mod spec;
pub mod stack;

pub use action::Action;
pub use compile::{compile, CompileError};
pub use data::SeccompData;
pub use spec::{FilterSpec, Rule, SyscallRule};
pub use stack::FilterStack;
