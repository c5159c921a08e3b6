//! # zeroroot-core — root emulation strategies
//!
//! The paper's contribution, packaged the way `ch-image --force=MODE`
//! exposes it, alongside the *consistent* emulators it argues against:
//!
//! | Mode | Paper §| Mechanism | Consistency | Static binaries | State |
//! |------|--------|-----------|-------------|-----------------|-------|
//! | [`NoEmulation`] | §2 | — | n/a | n/a | none |
//! | [`SeccompEmulation`] | §5 | kernel BPF filter, `ERRNO(0)` | **zero** | ✓ | none |
//! | [`FakerootEmulation`] | §3.1 | `LD_PRELOAD` shim + daemon | full | ✗ | daemon DB |
//! | [`ProotEmulation`] | §3.2 | ptrace tracer | full | ✓ | tracer DB |
//!
//! Extensions from §6's future work ride on [`SeccompEmulation`]:
//! a wider filter including the xattr calls (lets systemd install), and
//! uid/gid-only consistency (retires the apt workaround).
//!
//! A strategy's job is exactly Charliecloud's `--force` hook: *prepare a
//! container process before a RUN instruction executes in it* — install a
//! filter, preload a shim, or attach a tracer — and disarm it afterwards.
//! It does nothing else: the facts about each mode (its `--force=` flag,
//! the marker the build log prints — `RUN.N`, `RUN.S`, `RUN.F`, `RUN.P` —
//! its consistency, whether it wraps static binaries and whether the
//! builder splices in the §5 apt workaround) live on [`Mode`], one
//! `match` each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod fakeroot;
pub mod interpose;
pub mod proot;
pub mod seccomp_mode;
pub mod statedb;
pub mod strategy;
pub mod sync;

pub use fakeroot::{FakerootEmulation, Provisioning};
pub use proot::ProotEmulation;
pub use seccomp_mode::SeccompEmulation;
pub use strategy::{make, Mode, NoEmulation, PrepareEnv, PrepareError, RootEmulation};
