//! `--force=seccomp`: the paper's zero-consistency root emulation.
//!
//! Preparation is exactly the sequence §5 describes: compile the filter
//! from the syscall table, set `no_new_privs`, install, then *validate by
//! calling `kexec_load(2)`* — a syscall an HPC build will never truly
//! need, so observing its fake success proves the filter is live. The
//! compile happens once per process and filter; each RUN installs a copy
//! of the program.

use std::sync::OnceLock;

use crate::strategy::{PrepareEnv, PrepareError, RootEmulation};
use zr_bpf::Program;
use zr_kernel::{Kernel, Pid, SysExt};
use zr_seccomp::spec::{self, FilterSpec};
use zr_seccomp::CompileError;
use zr_syscalls::Arch;

/// A built-in filter spec and the program compiled from it. Neither
/// changes within a process, so each is built once, on first use.
#[derive(Debug)]
struct Filter {
    spec: FilterSpec,
    program: Result<Program, CompileError>,
}

/// The §5 filter, shared by `seccomp` and `seccomp+ids`.
static PAPER: OnceLock<Filter> = OnceLock::new();
/// The xattr-widened filter of `seccomp+xattr`.
static XATTR: OnceLock<Filter> = OnceLock::new();

/// The seccomp strategy, in its paper form or a §6 future-work variant.
#[derive(Debug, Clone)]
pub struct SeccompEmulation {
    filter: &'static Filter,
    id_consistency: bool,
}

impl SeccompEmulation {
    fn built_in(
        cell: &'static OnceLock<Filter>,
        spec: fn(&[Arch]) -> FilterSpec,
        id_consistency: bool,
    ) -> SeccompEmulation {
        let filter = cell.get_or_init(|| {
            let spec = spec(&Arch::ALL);
            let program = zr_seccomp::compile(&spec);
            Filter { spec, program }
        });
        SeccompEmulation {
            filter,
            id_consistency,
        }
    }

    /// §5 as published: 29 syscalls, all six architectures, ERRNO(0).
    pub fn paper() -> SeccompEmulation {
        SeccompEmulation::built_in(&PAPER, spec::zero_consistency, false)
    }

    /// Future work (1): also fake the xattr calls so systemd-style
    /// packages install.
    pub fn with_xattr() -> SeccompEmulation {
        SeccompEmulation::built_in(&XATTR, spec::zero_consistency_with_xattr, false)
    }

    /// Future work (2): keep uid/gid *reads* consistent with faked set*id
    /// calls, so apt's privilege-drop verification passes without the
    /// command-line workaround.
    pub fn with_id_consistency() -> SeccompEmulation {
        SeccompEmulation::built_in(&PAPER, spec::zero_consistency, true)
    }

    /// The filter spec in use (benches compile it at various widths).
    pub fn spec(&self) -> &FilterSpec {
        &self.filter.spec
    }
}

impl RootEmulation for SeccompEmulation {
    fn prepare(&self, k: &mut Kernel, pid: Pid, _env: &PrepareEnv) -> Result<(), PrepareError> {
        let prog = self.filter.program.as_ref();
        let prog = prog.map_err(|_| PrepareError::SelfTestFailed)?.clone();
        let mut ctx = k.ctx(pid);
        ctx.set_no_new_privs()
            .map_err(|_| PrepareError::Sys(zr_syscalls::Errno::EACCES))?;
        ctx.seccomp_install(prog)
            .map_err(|_| PrepareError::Sys(zr_syscalls::Errno::EINVAL))?;
        // §5 class 4: the self-test. Under the filter this must *appear*
        // to succeed; a real kexec_load would have failed EPERM.
        ctx.kexec_load().map_err(|_| PrepareError::SelfTestFailed)?;
        if self.id_consistency {
            k.enable_id_consistency(pid);
        }
        Ok(())
    }

    fn teardown(&self, _k: &mut Kernel) {
        // Nothing to tear down: the filter is part of the process and
        // cannot be removed (§4) — precisely the paper's "emulation is
        // complete once the filter is installed".
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_kernel::{ContainerConfig, ContainerType, SysError};
    use zr_syscalls::Errno;
    use zr_vfs::fs::Fs;

    fn container(k: &mut Kernel) -> Pid {
        let mut image = Fs::new();
        image.mkdir_p("/etc", 0o755).unwrap();
        // Image owned by the host user, as materialized by ch-image.
        for ino in 1..=image.inode_count() as u64 {
            image.set_owner(ino, 1000, 1000).unwrap();
        }
        k.container_create(
            Kernel::HOST_USER_PID,
            ContainerConfig {
                ctype: ContainerType::TypeIII,
                image,
            },
        )
        .unwrap()
        .init_pid
    }

    #[test]
    fn prepare_installs_and_self_tests() {
        let mut k = Kernel::default_kernel();
        let pid = container(&mut k);
        SeccompEmulation::paper()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .expect("prepare");
        assert_eq!(k.process(pid).seccomp.len(), 1);
        // The self-test shows up in the ledger as a faked kexec_load.
        assert_eq!(k.counters.calls(zr_syscalls::Sysno::KexecLoad), 1);
        assert_eq!(k.counters.faked, 1);
    }

    #[test]
    fn chown_lies_and_stat_tells_truth() {
        // The zero-consistency signature (§5): "if the process does
        // anything to verify the actions requested, it will see that
        // nothing happened."
        let mut k = Kernel::default_kernel();
        let pid = container(&mut k);
        SeccompEmulation::paper()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let mut ctx = k.ctx(pid);
        ctx.write_file("/f", 0o644, b"x".to_vec()).unwrap();
        ctx.chown("/f", 12, 34).expect("faked success");
        let st = ctx.stat("/f").unwrap();
        assert_eq!((st.uid, st.gid), (0, 0), "nothing actually happened");
    }

    #[test]
    fn setuid_lies_and_geteuid_tells_truth() {
        let mut k = Kernel::default_kernel();
        let pid = container(&mut k);
        SeccompEmulation::paper()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let mut ctx = k.ctx(pid);
        // _apt-style drop: uid 100 is unmapped, but the filter fakes it.
        ctx.setresuid(Some(100), Some(100), Some(100))
            .expect("faked");
        // Zero consistency: the verification apt performs sees euid 0.
        assert_eq!(ctx.getresuid(), (0, 0, 0));
    }

    #[test]
    fn id_consistency_variant_keeps_the_lie_consistent() {
        let mut k = Kernel::default_kernel();
        let pid = container(&mut k);
        SeccompEmulation::with_id_consistency()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let mut ctx = k.ctx(pid);
        ctx.setresuid(Some(100), Some(100), Some(100)).unwrap();
        assert_eq!(ctx.getresuid(), (100, 100, 100), "lie is remembered");
        // Files still have zero consistency.
        ctx.write_file("/f", 0o644, vec![]).unwrap();
        ctx.chown("/f", 100, 100).unwrap();
        assert_eq!(ctx.stat("/f").unwrap().uid, 0);
    }

    #[test]
    fn xattr_variant_fakes_setxattr() {
        let mut k = Kernel::default_kernel();
        let pid = container(&mut k);
        // Baseline: setxattr on security.* fails EPERM in Type III.
        {
            let mut ctx = k.ctx(pid);
            ctx.write_file("/bin-cap", 0o755, vec![]).unwrap();
            assert_eq!(
                ctx.setxattr("/bin-cap", "security.capability", b"\x01"),
                Err(SysError::Errno(Errno::EPERM))
            );
        }
        SeccompEmulation::with_xattr()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let mut ctx = k.ctx(pid);
        ctx.setxattr("/bin-cap", "security.capability", b"\x01")
            .expect("faked");
        // And of course nothing was stored.
        assert_eq!(
            ctx.getxattr("/bin-cap", "security.capability"),
            Err(SysError::Errno(Errno::ENODATA))
        );
    }

    #[test]
    fn mknod_device_faked_fifo_real() {
        let mut k = Kernel::default_kernel();
        let pid = container(&mut k);
        SeccompEmulation::paper()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let mut ctx = k.ctx(pid);
        ctx.mknod("/dev-null", zr_syscalls::mode::S_IFCHR | 0o666, 0x103)
            .expect("device: faked");
        assert!(!ctx.exists("/dev-null"), "zero consistency: no node");
        ctx.mknod("/fifo", zr_syscalls::mode::S_IFIFO | 0o644, 0)
            .expect("fifo: executed for real");
        assert!(ctx.exists("/fifo"));
    }
}
