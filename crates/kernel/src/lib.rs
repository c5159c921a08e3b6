//! # zr-kernel — the simulated Linux kernel
//!
//! The substrate the paper's experiments run on. A deterministic,
//! single-threaded model of the slice of Linux that container image builds
//! exercise:
//!
//! * [`ids`] — user namespaces with uid/gid maps (`make_kid`/`from_kid`,
//!   one pair for both kinds of id) and the `ns_capable` walk — the
//!   machinery that makes capabilities in an unprivileged namespace "an
//!   illusion" (§1 of the paper).
//! * [`cred`] — per-process credentials: the four uids/gids, supplementary
//!   groups, capability sets; [`IdKind`], which of the two id sets a call
//!   names; and [`Ids`], a cred as its namespace sees it. `Ids` holds the
//!   one copy of the set\*id/get\*id rules: the kernel's truthful
//!   answers, the `seccomp+ids` memory of faked set\*id calls and the
//!   consistent emulators' pretended identity all use it, and the
//!   kernel's one set\*id rule gives a capable caller exactly the change
//!   `Ids::apply` records.
//! * [`sys`] — the syscall surface as a data type ([`sys::SysCall`]) plus
//!   the [`sys::Sys`] trait, which is the *libc boundary*: simulated
//!   programs call through `&mut dyn Sys`, which is how LD_PRELOAD-style
//!   emulators interpose (and why they cannot wrap static binaries).
//! * [`kernel`] — the dispatcher: libc→syscall-number mapping per
//!   architecture (aarch64's missing `chown` becomes `fchownat`, i386's
//!   becomes `chown32`, exactly per the paper's footnote 7), seccomp
//!   filter evaluation via the real BPF interpreter, hook points for
//!   ptrace-style tracers, then execution against `zr-vfs`.
//! * [`program`] — the simulated-binary registry: executables in the
//!   image filesystem map to Rust [`program::Program`] implementations,
//!   each declaring static or dynamic linkage.
//! * [`container`] — the paper's tripartite container classification
//!   (§2): Type I (mount ns, privileged), Type II (privileged user ns) and
//!   Type III (fully unprivileged) setup, with the setup-privilege rules
//!   that motivate the whole exercise.
//! * [`Counters`] — the dispatch ledger (re-exported from `zr-trace`):
//!   syscalls per [`Sysno`](zr_syscalls::Sysno), faked, denied and
//!   failed calls, BPF instructions, ptrace stops, preload hops and
//!   daemon round trips, feeding the paper's checks and the overhead
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod cred;
pub mod hooks;
pub mod ids;
pub mod kernel;
pub mod process;
pub mod program;
pub mod sys;

pub use container::{ContainerConfig, ContainerType};
pub use cred::{Cred, IdKind, Ids};
pub use hooks::{HookVerdict, SyscallHook};
pub use ids::{IdMap, NsId, UserNs};
pub use kernel::{Kernel, KernelConfig, SyscallCtx};
pub use process::{Pid, Process};
pub use program::{ExecEnv, Program, ProgramEntry, ProgramRegistry};
pub use sys::{Sys, SysCall, SysError, SysExt, SysResult, SysRet};
pub use zr_trace::Counters;
