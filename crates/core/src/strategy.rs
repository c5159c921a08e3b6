//! The [`RootEmulation`] trait and the mode selector.

use zr_kernel::{Kernel, Pid};
use zr_syscalls::Errno;

/// Facts about the build environment a strategy may need to check its own
/// prerequisites (the compatibility drawbacks of §3).
#[derive(Debug, Clone)]
pub struct PrepareEnv {
    /// Is a fakeroot binary present *inside the image* (the Charliecloud
    /// injection approach)?
    pub fakeroot_in_image: bool,
    /// The image's libc identity (e.g. "glibc-2.17", "musl-1.2").
    pub image_libc: String,
    /// The host's libc identity — bind-mounted emulators must match.
    pub host_libc: String,
}

impl Default for PrepareEnv {
    fn default() -> PrepareEnv {
        PrepareEnv {
            fakeroot_in_image: false,
            image_libc: "glibc-2.31".into(),
            host_libc: "glibc-2.31".into(),
        }
    }
}

/// Why a strategy could not be set up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareError {
    /// fakeroot(1) is not installed in the image (Charliecloud-style
    /// injection needs per-distro configuration first — §3.1).
    FakerootMissing,
    /// Host/image libc mismatch (the Apptainer bind-mount drawback —
    /// §3.1).
    LibcMismatch {
        /// Host libc.
        host: String,
        /// Image libc.
        image: String,
    },
    /// The kexec_load self-test did not report fake success (§5 class 4).
    SelfTestFailed,
    /// Kernel refused something during setup.
    Sys(Errno),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::FakerootMissing => {
                write!(f, "fakeroot not installed in image")
            }
            PrepareError::LibcMismatch { host, image } => {
                write!(f, "libc mismatch: host {host} vs image {image}")
            }
            PrepareError::SelfTestFailed => write!(f, "seccomp filter self-test failed"),
            PrepareError::Sys(e) => write!(f, "setup syscall failed: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

/// A root-emulation strategy, pluggable into the builder per RUN
/// instruction. A strategy only arms and disarms; the facts about each
/// mode (flag, log marker, consistency) live on [`Mode`].
pub trait RootEmulation {
    /// Arm the strategy on a container process, before the RUN command
    /// execs.
    fn prepare(&self, k: &mut Kernel, pid: Pid, env: &PrepareEnv) -> Result<(), PrepareError>;

    /// Disarm global hooks after the RUN command finished (filters cannot
    /// be removed, matching §4; hooks can).
    fn teardown(&self, k: &mut Kernel);
}

/// Selector mirroring `ch-image build --force=…` plus the comparison
/// strategies and §6 future-work variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `--force=none`.
    None,
    /// `--force=seccomp` — the paper's contribution.
    Seccomp,
    /// Seccomp with the xattr-widened filter (§6 future work 1).
    SeccompXattr,
    /// Seccomp with uid/gid consistency (§6 future work 2).
    SeccompIdConsistent,
    /// `--force=fakeroot` (LD_PRELOAD, installed in image).
    Fakeroot,
    /// fakeroot bind-mounted from the host (the Apptainer variant).
    FakerootBindMount,
    /// PRoot-style ptrace emulation (classic: stop on every syscall).
    Proot,
    /// PRoot with seccomp acceleration (stops only on interesting calls).
    ProotAccelerated,
}

impl Mode {
    /// All modes, for experiment sweeps.
    pub const ALL: [Mode; 8] = [
        Mode::None,
        Mode::Seccomp,
        Mode::SeccompXattr,
        Mode::SeccompIdConsistent,
        Mode::Fakeroot,
        Mode::FakerootBindMount,
        Mode::Proot,
        Mode::ProotAccelerated,
    ];

    /// Parse a `--force=` flag value.
    pub fn from_flag(flag: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|mode| mode.flag() == flag)
    }

    /// The `--force=` flag value; log lines and layer cache keys carry
    /// it.
    pub fn flag(self) -> &'static str {
        match self {
            Mode::None => "none",
            Mode::Seccomp => "seccomp",
            Mode::SeccompXattr => "seccomp+xattr",
            Mode::SeccompIdConsistent => "seccomp+ids",
            Mode::Fakeroot => "fakeroot",
            Mode::FakerootBindMount => "fakeroot-bind",
            Mode::Proot => "proot",
            Mode::ProotAccelerated => "proot-accel",
        }
    }

    /// The per-instruction marker the build log prints (the paper's
    /// Figures show `RUN.N` and `RUN.S`).
    pub fn run_marker(self) -> &'static str {
        match self {
            Mode::None => "RUN.N",
            Mode::Seccomp | Mode::SeccompXattr | Mode::SeccompIdConsistent => "RUN.S",
            Mode::Fakeroot | Mode::FakerootBindMount => "RUN.F",
            Mode::Proot | Mode::ProotAccelerated => "RUN.P",
        }
    }

    /// Does this mode give *consistent* root emulation (later reads
    /// observe earlier faked writes)? `seccomp+ids` keeps ids
    /// consistent, never files.
    pub fn consistent(self) -> bool {
        !matches!(self, Mode::None | Mode::Seccomp | Mode::SeccompXattr)
    }

    /// Can it wrap statically linked executables? LD_PRELOAD cannot
    /// (§3.1); the kernel and ptrace see raw syscalls whatever the
    /// linkage, and `none` has nothing to wrap.
    pub fn wraps_static(self) -> bool {
        !matches!(self, Mode::Fakeroot | Mode::FakerootBindMount)
    }

    /// Does the builder splice the §5 apt workaround into shell-form
    /// RUNs? Only the zero-consistency filters need it: `seccomp+ids`
    /// answers apt's privilege-drop check consistently.
    pub fn injects_apt_workaround(self) -> bool {
        matches!(self, Mode::Seccomp | Mode::SeccompXattr)
    }
}

/// Instantiate the strategy for `mode`.
pub fn make(mode: Mode) -> Box<dyn RootEmulation> {
    use crate::fakeroot::{FakerootEmulation, Provisioning};
    use crate::proot::ProotEmulation;
    use crate::seccomp_mode::SeccompEmulation;
    match mode {
        Mode::None => Box::new(NoEmulation),
        Mode::Seccomp => Box::new(SeccompEmulation::paper()),
        Mode::SeccompXattr => Box::new(SeccompEmulation::with_xattr()),
        Mode::SeccompIdConsistent => Box::new(SeccompEmulation::with_id_consistency()),
        Mode::Fakeroot => Box::new(FakerootEmulation::new(Provisioning::InstalledInImage)),
        Mode::FakerootBindMount => {
            Box::new(FakerootEmulation::new(Provisioning::BindMountedFromHost))
        }
        Mode::Proot => Box::new(ProotEmulation::classic()),
        Mode::ProotAccelerated => Box::new(ProotEmulation::accelerated()),
    }
}

/// `--force=none`: build in the bare Type III container and hope no
/// privileged syscall is issued (works for Figure 1a, fails for 1b).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEmulation;

impl RootEmulation for NoEmulation {
    fn prepare(&self, _k: &mut Kernel, _pid: Pid, _env: &PrepareEnv) -> Result<(), PrepareError> {
        Ok(())
    }
    fn teardown(&self, _k: &mut Kernel) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_roundtrip() {
        for mode in Mode::ALL {
            assert_eq!(Mode::from_flag(mode.flag()), Some(mode), "{mode:?}");
        }
        assert_eq!(Mode::from_flag("bogus"), None);
    }

    #[test]
    fn flags_are_distinct() {
        let flags: std::collections::HashSet<&str> = Mode::ALL.iter().map(|m| m.flag()).collect();
        assert_eq!(flags.len(), Mode::ALL.len(), "{flags:?}");
    }

    #[test]
    fn markers_match_paper_figures() {
        assert_eq!(Mode::None.run_marker(), "RUN.N");
        assert_eq!(Mode::Seccomp.run_marker(), "RUN.S");
        assert_eq!(Mode::Fakeroot.run_marker(), "RUN.F");
    }

    #[test]
    fn consistency_matrix() {
        assert!(!Mode::None.consistent());
        assert!(!Mode::Seccomp.consistent());
        assert!(Mode::Fakeroot.consistent());
        assert!(Mode::Proot.consistent());
    }

    #[test]
    fn static_binary_matrix() {
        // §6(3): ptrace/seccomp wrap static executables; LD_PRELOAD can't.
        assert!(Mode::Seccomp.wraps_static());
        assert!(Mode::Proot.wraps_static());
        assert!(!Mode::Fakeroot.wraps_static());
        assert!(!Mode::FakerootBindMount.wraps_static());
    }
}
