//! PRoot-style root emulation: a ptrace(2) tracer (§3.2).
//!
//! Same consistent-state emulation as fakeroot, different interception
//! layer: the tracer sits at the kernel's syscall entry, so it wraps
//! *everything* — including statically linked binaries — at the price of
//! ptrace stops. Two cost variants:
//!
//! * **classic** — `PTRACE_SYSCALL`: the tracee stops at every syscall
//!   entry and exit (2 context switches each), interesting or not.
//! * **accelerated** — PRoot's seccomp trick (§3.2): a helper filter
//!   marks only the syscalls the tracer cares about, so uninteresting
//!   calls run at full speed and only emulated ones pay the stops.

use crate::interpose::{emulate_call, is_interesting, FakeIds, OverlayStore};
use crate::statedb::StateDb;
use crate::strategy::{PrepareEnv, PrepareError, RootEmulation};
use zr_kernel::{HookVerdict, Kernel, Pid, SysCall, SyscallHook};
use zr_vfs::inode::Stat;

/// Local (in-tracer) overlay store: PRoot keeps state in its own memory,
/// no daemon needed.
#[derive(Default)]
struct LocalStore {
    db: StateDb,
}

impl OverlayStore for LocalStore {
    fn set_owner(&mut self, ino: u64, uid: Option<u32>, gid: Option<u32>) {
        self.db.set_owner(ino, uid, gid);
    }
    fn set_perm(&mut self, ino: u64, perm: u32) {
        self.db.set_perm(ino, perm);
    }
    fn set_device(&mut self, ino: u64, type_bits: u32, dev: u64) {
        self.db.set_device(ino, type_bits, dev);
    }
    fn set_xattr(&mut self, ino: u64, name: &str, value: Vec<u8>) {
        self.db.set_xattr(ino, name, value);
    }
    fn get_xattr(&mut self, ino: u64, name: &str) -> Option<Vec<u8>> {
        self.db.get_xattr(ino, name)
    }
    fn remove_xattr(&mut self, ino: u64, name: &str) -> bool {
        self.db.remove_xattr(ino, name)
    }
    fn overlay_stat(&mut self, st: Stat) -> Stat {
        self.db.overlay_stat(st)
    }
    fn forget(&mut self, ino: u64) {
        self.db.forget(ino);
    }
}

/// The tracer hook.
pub struct ProotHook {
    store: LocalStore,
    ids: FakeIds,
    accelerated: bool,
}

impl ProotHook {
    /// Classic full-stop tracer.
    pub fn classic() -> ProotHook {
        ProotHook {
            store: LocalStore::default(),
            ids: FakeIds::default(),
            accelerated: false,
        }
    }

    /// Seccomp-accelerated tracer.
    pub fn accelerated() -> ProotHook {
        ProotHook {
            store: LocalStore::default(),
            ids: FakeIds::default(),
            accelerated: true,
        }
    }
}

impl SyscallHook for ProotHook {
    fn on_syscall(&mut self, kernel: &mut Kernel, pid: Pid, call: &SysCall) -> HookVerdict {
        let interesting = is_interesting(call);
        if !self.accelerated {
            // Classic ptrace: entry + exit stop for EVERY syscall.
            kernel.counters.ptrace_stops += 2;
        } else if interesting {
            // Accelerated: only marked calls trap to the tracer.
            kernel.counters.ptrace_stops += 2;
        }
        if !interesting {
            return HookVerdict::PassThrough;
        }
        match emulate_call(kernel, pid, call, &mut self.store, &mut self.ids) {
            Some(result) => HookVerdict::Emulated(result),
            None => HookVerdict::PassThrough,
        }
    }

    fn name(&self) -> &'static str {
        if self.accelerated {
            "proot-accel"
        } else {
            "proot"
        }
    }
}

/// The PRoot strategy.
#[derive(Debug, Clone, Copy)]
pub struct ProotEmulation {
    accelerated: bool,
}

impl ProotEmulation {
    /// Classic (stop-everything) mode.
    pub fn classic() -> ProotEmulation {
        ProotEmulation { accelerated: false }
    }

    /// Seccomp-accelerated mode.
    pub fn accelerated() -> ProotEmulation {
        ProotEmulation { accelerated: true }
    }
}

impl RootEmulation for ProotEmulation {
    fn prepare(&self, k: &mut Kernel, pid: Pid, _env: &PrepareEnv) -> Result<(), PrepareError> {
        k.process_mut(pid).traced = true;
        let hook = if self.accelerated {
            ProotHook::accelerated()
        } else {
            ProotHook::classic()
        };
        k.set_tracer_hook(Some(Box::new(hook)));
        Ok(())
    }

    fn teardown(&self, k: &mut Kernel) {
        k.set_tracer_hook(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_kernel::{ContainerConfig, ContainerType, SysExt};
    use zr_vfs::fs::Fs;

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::default_kernel();
        let mut image = Fs::new();
        image.mkdir_p("/usr/bin", 0o755).unwrap();
        for ino in 1..=image.inode_count() as u64 {
            image.set_owner(ino, 1000, 1000).unwrap();
        }
        let c = k
            .container_create(
                Kernel::HOST_USER_PID,
                ContainerConfig {
                    ctype: ContainerType::TypeIII,
                    image,
                },
            )
            .unwrap();
        (k, c.init_pid)
    }

    #[test]
    fn consistent_chown_then_stat() {
        let (mut k, pid) = setup();
        let strat = ProotEmulation::classic();
        strat.prepare(&mut k, pid, &PrepareEnv::default()).unwrap();
        let mut ctx = k.ctx(pid);
        ctx.write_file("/f", 0o644, vec![]).unwrap();
        ctx.chown("/f", 7, 8).unwrap();
        let st = ctx.stat("/f").unwrap();
        assert_eq!((st.uid, st.gid), (7, 8));
    }

    #[test]
    fn wraps_static_binaries() {
        // The property LD_PRELOAD lacks: flip the process to static and
        // PRoot still emulates.
        let (mut k, pid) = setup();
        ProotEmulation::classic()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        k.process_mut(pid).dynamic = false;
        let mut ctx = k.ctx(pid);
        ctx.write_file("/f", 0o644, vec![]).unwrap();
        ctx.chown("/f", 7, 8)
            .expect("ptrace sees static binaries too");
        assert_eq!(ctx.stat("/f").unwrap().uid, 7);
    }

    #[test]
    fn classic_stops_on_every_syscall() {
        let (mut k, pid) = setup();
        ProotEmulation::classic()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let before = k.counters.ptrace_stops;
        {
            let mut ctx = k.ctx(pid);
            let _ = ctx.getpid(); // utterly uninteresting syscall
        }
        assert_eq!(k.counters.ptrace_stops - before, 2, "still stops");
    }

    #[test]
    fn accelerated_skips_uninteresting() {
        let (mut k, pid) = setup();
        ProotEmulation::accelerated()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let before = k.counters.ptrace_stops;
        {
            let mut ctx = k.ctx(pid);
            let _ = ctx.getpid();
        }
        assert_eq!(k.counters.ptrace_stops - before, 0, "no stop");
        {
            let mut ctx = k.ctx(pid);
            ctx.write_file("/f", 0o644, vec![]).unwrap();
            ctx.chown("/f", 1, 1).unwrap();
        }
        assert!(k.counters.ptrace_stops > before, "interesting call stops");
    }

    #[test]
    fn geteuid_pretends_root() {
        let (mut k, pid) = setup();
        ProotEmulation::classic()
            .prepare(&mut k, pid, &PrepareEnv::default())
            .unwrap();
        let mut ctx = k.ctx(pid);
        assert_eq!(ctx.geteuid(), 0);
    }
}
