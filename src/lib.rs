//! # zeroroot — zero-consistency root emulation, reproduced
//!
//! A full-system reproduction of *"Zero-consistency root emulation for
//! unprivileged container image build"* (Priedhorsky, Jennings, Phinney;
//! SC 2024; arXiv:2405.06085): a seccomp BPF filter that intercepts 29
//! privileged system calls, executes nothing, and reports success —
//! enough to build almost every container image without any privilege at
//! all.
//!
//! This crate re-exports the whole workspace and adds a small high-level
//! API ([`Session`]) used by the examples and experiments:
//!
//! ```
//! use zeroroot::{Mode, Session};
//!
//! let mut session = Session::new();
//! let result = session.build(
//!     "FROM centos:7\nRUN yum install -y openssh\n",
//!     "win",
//!     Mode::Seccomp,
//! );
//! assert!(result.success);
//! assert!(result.log_text().contains("Complete!"));
//! // The paper's mechanism, observable: privileged syscalls were issued,
//! // none were executed, all reported success.
//! assert!(session.counters().faked > 0);
//! ```
//!
//! Layer map (bottom up): [`syscalls`] (ABI tables) → [`trace`] (the
//! dispatch ledger) → [`bpf`] (classic BPF machine) → [`seccomp`]
//! (filter compiler + host installer) → [`vfs`] + [`kernel`] (the
//! simulated Linux substrate) → [`core`]
//! (the emulation strategies) → [`image`]/[`dockerfile`]/[`shell`]/
//! [`pkg`] → [`store`] (persistent CAS + OCI layouts) → [`build`]
//! (the ch-image-like builder) → [`sched`] (the concurrent batch
//! engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use zeroroot_core as core;
pub use zr_audit as audit;
pub use zr_bpf as bpf;
pub use zr_build as build;
pub use zr_dockerfile as dockerfile;
pub use zr_fault as fault;
pub use zr_image as image;
pub use zr_kernel as kernel;
pub use zr_pkg as pkg;
pub use zr_plan as plan;
pub use zr_registry as registry;
pub use zr_sched as sched;
pub use zr_seccomp as seccomp;
pub use zr_shell as shell;
pub use zr_store as store;
pub use zr_syscalls as syscalls;
pub use zr_trace as trace;
pub use zr_vfs as vfs;

pub use zeroroot_core::{Mode, PrepareEnv, RootEmulation};
pub use zr_build::{BuildError, BuildOptions, BuildResult, Builder, CacheMode, CacheStats};
pub use zr_kernel::{ContainerConfig, ContainerType, Kernel, SysExt};
pub use zr_sched::{BuildReport, BuildRequest, Scheduler, SchedulerConfig};

/// A ready-to-use build session: one simulated kernel + one builder.
///
/// Keeps the boilerplate out of examples and experiments; anything more
/// exotic (other container types, custom kernels, counters) can use the
/// crates directly.
pub struct Session {
    /// The simulated kernel.
    pub kernel: Kernel,
    /// The image builder (registry + layer cache).
    pub builder: Builder,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A fresh session: default kernel (unprivileged user uid 1000),
    /// a builder with an empty registry cache and layer cache.
    pub fn new() -> Session {
        Session {
            kernel: Kernel::default_kernel(),
            builder: Builder::new(),
        }
    }

    /// Build `dockerfile` into `tag` under the given `--force` mode, in a
    /// Type III container (the paper's setting).
    pub fn build(&mut self, dockerfile: &str, tag: &str, mode: Mode) -> BuildResult {
        let opts = BuildOptions::new(tag, mode);
        self.builder.build(&mut self.kernel, dockerfile, &opts)
    }

    /// Build with full options.
    pub fn build_with(&mut self, dockerfile: &str, opts: &BuildOptions) -> BuildResult {
        self.builder.build(&mut self.kernel, dockerfile, opts)
    }

    /// The kernel's dispatch ledger so far.
    pub fn counters(&self) -> zr_kernel::Counters {
        self.kernel.counters
    }

    /// Zero the dispatch ledger and clear the console between
    /// experiments.
    pub fn reset_observability(&mut self) {
        self.kernel.counters = zr_kernel::Counters::default();
        self.kernel.console.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_builds_figure_2() {
        let mut s = Session::new();
        let r = s.build(
            "FROM centos:7\nRUN yum install -y openssh\n",
            "win",
            Mode::Seccomp,
        );
        assert!(r.success, "{}", r.log_text());
        assert!(s.counters().faked > 0);
    }

    #[test]
    fn reset_observability_clears() {
        let mut s = Session::new();
        let _ = s.build("FROM alpine:3.19\nRUN true\n", "t", Mode::None);
        assert!(s.counters().syscalls > 0);
        s.reset_observability();
        assert_eq!(s.counters(), zr_kernel::Counters::default());
        assert!(s.kernel.console.is_empty());
    }
}
