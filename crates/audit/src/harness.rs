//! The independent-builder audit harness.
//!
//! Each arm gets a builder that shares *nothing* with the other: its
//! own kernel, its own layer cache, its own registry state. Shared
//! caches would let arm B replay arm A's layers and mask real
//! nondeterminism — the whole point is that agreement must come from
//! determinism, not from memoization.

use std::path::{Path, PathBuf};

use zeroroot_core::Mode;
use zr_build::{BuildOptions, Builder};
use zr_kernel::{Kernel, KernelConfig};
use zr_sched::{BuildRequest, Scheduler, SchedulerConfig};
use zr_store::{export_with, ExportOpts, OciSummary, StoreError};
use zr_vfs::Nondeterminism;

use crate::diff::{audit_layouts, Divergence};

/// Audit-level errors: the store's I/O/corruption errors plus build
/// failures and diagnosis failures of the audit's own making.
#[derive(Debug)]
pub enum AuditError {
    /// A layout could not be read or written.
    Store(StoreError),
    /// One of the arms' builds failed (the build log is attached).
    Build(String),
    /// The differ could not diagnose a blob pair.
    Diff(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Store(e) => write!(f, "{e}"),
            AuditError::Build(log) => write!(f, "arm build failed:\n{log}"),
            AuditError::Diff(msg) => write!(f, "diff: {msg}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<StoreError> for AuditError {
    fn from(e: StoreError) -> AuditError {
        AuditError::Store(e)
    }
}

/// Audit result type.
pub type Result<T> = std::result::Result<T, AuditError>;

/// How to construct one arm of the audit.
#[derive(Debug, Clone, Default)]
pub struct ArmSpec {
    /// Worker count: 0/1 builds inline on a private builder; above 1
    /// the arm runs through a fresh scheduler with that many workers
    /// (the serial-vs-parallel agreement axis of the R-repro gate).
    pub jobs: usize,
    /// Nondeterminism injected into the arm's kernel. Only the inline
    /// path supports injection — scheduler workers construct their own
    /// kernels by design.
    pub nondet: Nondeterminism,
    /// Export behavior (canonical by default; naive-packer switches
    /// force the normalizer-suppressed divergence classes).
    pub export: ExportOpts,
}

/// What an audit produced: both layouts on disk, their summaries, and
/// every classified divergence (empty = the bit-for-bit claim held).
/// Built only by [`audit_layouts`](crate::audit_layouts).
#[derive(Debug)]
pub struct AuditOutcome {
    /// Arm A's layout summary.
    pub summary_a: OciSummary,
    /// Arm B's layout summary.
    pub summary_b: OciSummary,
    /// Arm A's layout directory.
    pub dir_a: PathBuf,
    /// Arm B's layout directory.
    pub dir_b: PathBuf,
    /// Every classified divergence between the two layouts.
    pub divergences: Vec<Divergence>,
}

impl AuditOutcome {
    /// Did the two builds agree byte-for-byte?
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Build one arm: construct the builder per `spec`, run `dockerfile`,
/// export the result at `dir`.
fn build_arm(dockerfile: &str, spec: &ArmSpec, dir: &Path) -> Result<()> {
    let image = if spec.jobs <= 1 {
        let config = KernelConfig {
            nondet: spec.nondet.clone(),
            ..Default::default()
        };
        let mut kernel = Kernel::new(config);
        let mut builder = Builder::new();
        let result = builder.build(&mut kernel, dockerfile, &audit_options());
        if !result.success {
            return Err(AuditError::Build(result.log_text()));
        }
        result.image.expect("successful build carries an image")
    } else {
        if !spec.nondet.is_clean() {
            return Err(AuditError::Diff(
                "nondeterminism injection requires an inline (jobs<=1) arm: \
                 scheduler workers construct their own kernels"
                    .into(),
            ));
        }
        let sched = Scheduler::new(SchedulerConfig {
            jobs: spec.jobs,
            ..SchedulerConfig::default()
        });
        let mut reports = sched.build_many(vec![BuildRequest::with_options(
            "audit",
            dockerfile,
            audit_options(),
        )]);
        let report = reports.remove(0);
        if !report.result.success {
            return Err(AuditError::Build(report.result.log_text()));
        }
        report
            .result
            .image
            .expect("successful build carries an image")
    };
    export_with(&image, dir, spec.export)?;
    Ok(())
}

fn audit_options() -> BuildOptions {
    BuildOptions::new("audit", Mode::Seccomp)
}

/// Build `dockerfile` twice — once per arm spec, under independently
/// constructed builders — export both OCI layouts under `out_dir`
/// (`arm-a/`, `arm-b/`), and classify every divergence between them.
pub fn audit_build(
    dockerfile: &str,
    a: &ArmSpec,
    b: &ArmSpec,
    out_dir: &Path,
) -> Result<AuditOutcome> {
    let dir_a = out_dir.join("arm-a");
    let dir_b = out_dir.join("arm-b");
    build_arm(dockerfile, a, &dir_a)?;
    build_arm(dockerfile, b, &dir_b)?;
    audit_layouts(&dir_a, &dir_b)
}
