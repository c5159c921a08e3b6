//! # zr-audit — the reproducibility audit subsystem
//!
//! The paper's headline operational claim is that unprivileged builds
//! are *bit-for-bit reproducible*: the same Dockerfile always yields
//! the same OCI layout, byte for byte. This crate is the machinery
//! that **proves** the claim instead of asserting it:
//!
//! * [`audit_build`] builds a Dockerfile twice under independently
//!   constructed builders (fresh kernel, fresh caches — nothing shared
//!   that could mask divergence), exports both arms as OCI image
//!   layouts, and hands them to the differ.
//! * [`audit_layouts`] (and [`diff_layouts`], its divergence list)
//!   compares two layouts blob-by-blob and classifies every byte-level
//!   divergence into the [`DivergenceClass`] taxonomy — tar mtimes,
//!   entry ordering, ownership/mode, JSON key order, layer count,
//!   payload content with path-level drill-down — rather than
//!   reporting an opaque digest mismatch. Every blob is read through
//!   `zr_store::read_layout_blob`, so it is verified on the way.
//! * [`render_human`] / [`render_json`] turn an [`AuditOutcome`] into
//!   a terminal report or machine-readable JSON (`zr audit --json`).
//!
//! The negative space matters as much: the simulated kernel/VFS can
//! *inject* each nondeterminism source on demand
//! ([`zr_vfs::Nondeterminism`] — skewed clock, seeded entropy,
//! shuffled readdir, alternate default ownership), and the store can
//! export through a deliberately *naive* packer
//! ([`zr_store::ExportOpts`]). Together they let tests force every
//! divergence class and assert the auditor names it — and, with
//! injection off, assert the canonical pipeline suppresses it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod harness;
mod report;

pub use diff::{audit_layouts, diff_layouts, Divergence, DivergenceClass};
pub use harness::{audit_build, ArmSpec, AuditError, AuditOutcome, Result};
pub use report::{render_human, render_json};
