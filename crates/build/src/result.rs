//! Build outcomes: the log, the image, and typed failure causes.

use crate::cache::CacheStats;
use zeroroot_core::PrepareError;
use zr_dockerfile::ParseError;
use zr_image::Image;
use zr_kernel::ContainerType;
use zr_syscalls::Errno;

/// Why a build failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The Dockerfile did not parse.
    Parse(ParseError),
    /// No FROM instruction (or an instruction before any stage exists).
    MissingFrom {
        /// Instruction keyword that needed a stage.
        keyword: String,
    },
    /// The base image reference is malformed or unknown to the registry.
    Pull {
        /// The offending reference text.
        reference: String,
        /// Registry error (ENOENT for unknown references).
        errno: Errno,
    },
    /// Container setup failed — the §2 privilege rules (Type I needs real
    /// root, Type II needs setuid helpers).
    ContainerSetup {
        /// The requested type.
        ctype: ContainerType,
        /// Errno from setup.
        errno: Errno,
    },
    /// The `--force` strategy could not be armed.
    Prepare {
        /// The mode's `--force=` flag value.
        flag: &'static str,
        /// Underlying cause.
        error: PrepareError,
    },
    /// A RUN command exited non-zero (Figure 1b's `cpio: chown` path).
    RunFailed {
        /// 1-based instruction number.
        instruction: u32,
        /// Exit status.
        status: i32,
    },
    /// The stage DAG could not be compiled (unknown `--target`, a
    /// reference to no stage, a dependency cycle).
    Plan(zr_plan::PlanError),
    /// A non-RUN instruction failed (COPY source missing, WORKDIR on a
    /// file, exec of a missing binary, ...).
    Instruction {
        /// 1-based instruction number.
        instruction: u32,
        /// Human-readable cause.
        message: String,
    },
    /// The build was cancelled before it started (a scheduler batch was
    /// cancelled, or `fail_fast` tripped on an earlier failure).
    Cancelled,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::MissingFrom { keyword } => {
                write!(f, "{keyword} before FROM (no build stage)")
            }
            BuildError::Pull { reference, errno } => {
                write!(f, "cannot pull {reference}: {errno}")
            }
            BuildError::ContainerSetup { ctype, errno } => {
                write!(f, "{ctype} container setup failed: {errno}")
            }
            BuildError::Prepare { flag, error } => {
                write!(f, "--force={flag}: {error}")
            }
            BuildError::RunFailed { status, .. } => {
                write!(f, "RUN command exited with {status}")
            }
            BuildError::Plan(e) => write!(f, "{e}"),
            BuildError::Instruction { message, .. } => write!(f, "{message}"),
            BuildError::Cancelled => write!(f, "build cancelled"),
        }
    }
}

impl std::error::Error for BuildError {}

/// What a build produced.
#[derive(Debug, Clone)]
pub struct BuildResult {
    /// Did every instruction succeed?
    pub success: bool,
    /// The build log: instruction markers interleaved with the container
    /// console (what `ch-image build` prints).
    pub log: Vec<String>,
    /// The built image (present only on success; also saved in the
    /// builder's store under the tag).
    pub image: Option<Image>,
    /// How many RUN instructions the builder rewrote (the §5 apt
    /// workaround — `--force=seccomp: modified N RUN instructions`).
    pub modified_run_instructions: u32,
    /// The destination tag.
    pub tag: String,
    /// Layer-cache effectiveness: how many instructions were restored
    /// from snapshots versus executed.
    pub cache: CacheStats,
    /// The failure cause, when `success` is false.
    pub error: Option<BuildError>,
}

impl BuildResult {
    /// A build whose Dockerfile did not plan (see [`plan`](crate::plan)):
    /// no stage ran, and the log is the one failure line.
    pub fn failed(tag: &str, error: BuildError) -> BuildResult {
        BuildResult {
            success: false,
            log: vec![format!("error: build failed: {error}")],
            image: None,
            modified_run_instructions: 0,
            tag: tag.to_string(),
            cache: CacheStats::default(),
            error: Some(error),
        }
    }

    /// The log as one newline-joined string (assertion-friendly).
    pub fn log_text(&self) -> String {
        self.log.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_run_failed_matches_figure_1b() {
        let e = BuildError::RunFailed {
            instruction: 2,
            status: 1,
        };
        assert_eq!(e.to_string(), "RUN command exited with 1");
    }

    #[test]
    fn log_text_joins() {
        let r = BuildResult {
            success: true,
            log: vec!["a".into(), "b".into()],
            image: None,
            modified_run_instructions: 0,
            tag: "t".into(),
            cache: CacheStats::default(),
            error: None,
        };
        assert_eq!(r.log_text(), "a\nb");
    }

    #[test]
    fn display_cancelled() {
        assert_eq!(BuildError::Cancelled.to_string(), "build cancelled");
    }

    #[test]
    fn display_plan_errors_pass_through() {
        let e = BuildError::Plan(zr_plan::PlanError::UnknownTarget("ghost".into()));
        assert_eq!(e.to_string(), "unknown build target 'ghost'");
    }
}
