//! `--force=fakeroot`: the consistent, LD_PRELOAD-based emulator (§3.1).
//!
//! Faithful to the real tool's architecture: a **shim** intercepts libc
//! calls inside dynamically linked processes, and a separate **daemon**
//! keeps the pretended-metadata database so all processes under the same
//! fakeroot session see one consistent lie. Here the daemon is a real
//! thread and every interception is a real channel round trip — the IPC
//! cost §6 item 1 charges against the consistent approach.
//!
//! Two provisioning variants reproduce the §3.1 deployment drawbacks:
//!
//! * [`Provisioning::InstalledInImage`] (Charliecloud): fakeroot must
//!   already exist *inside* the image, which "requires detailed
//!   configuration for each supported distribution".
//! * [`Provisioning::BindMountedFromHost`] (Apptainer): no in-image
//!   install needed, but the host and image libc must match.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

use crate::interpose::{emulate_call, OverlayStore};
use crate::statedb::StateDb;
use crate::strategy::{PrepareEnv, PrepareError, RootEmulation};
use zr_kernel::{HookVerdict, Ids, Kernel, Pid, SysCall, SyscallHook};

// ---------------------------------------------------------------------
// daemon
// ---------------------------------------------------------------------

/// One request to the daemon: run against its database, reply inside.
type Job = Box<dyn FnOnce(&mut StateDb) + Send>;

/// The state-keeping daemon: a thread owning the [`StateDb`], spoken to
/// over a channel — the faked-environment "single source of lies". It
/// runs each [`OverlayStore::with_db`] closure it receives and exits
/// when the sending side drops.
pub struct FakerootDaemon {
    tx: Option<SyncSender<Job>>,
    handle: Option<JoinHandle<()>>,
    /// Round trips performed (mirrors into kernel counters at teardown).
    pub round_trips: u64,
}

impl FakerootDaemon {
    /// Spawn the daemon thread.
    pub fn spawn() -> FakerootDaemon {
        let (tx, rx) = sync_channel::<Job>(0); // rendezvous: a true round trip
        let handle = std::thread::spawn(move || {
            let mut db = StateDb::new();
            while let Ok(job) = rx.recv() {
                job(&mut db);
            }
        });
        FakerootDaemon {
            tx: Some(tx),
            handle: Some(handle),
            round_trips: 0,
        }
    }

    /// Entries currently in the daemon's database.
    pub fn db_len(&mut self) -> usize {
        self.with_db(|db| db.len())
    }
}

impl OverlayStore for FakerootDaemon {
    /// One counted round trip: send `f` to the daemon, wait for its result.
    fn with_db<R: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut StateDb) -> R + Send + 'static,
    ) -> R {
        self.round_trips += 1;
        let (reply, answer) = sync_channel(1);
        let job: Job = Box::new(move |db| {
            let _ = reply.send(f(db));
        });
        let tx = self.tx.as_ref().expect("daemon alive until drop");
        tx.send(job).expect("daemon alive");
        answer.recv().expect("daemon replies")
    }
}

impl Drop for FakerootDaemon {
    fn drop(&mut self) {
        drop(self.tx.take()); // the daemon's loop ends with the channel
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// the preload shim (kernel hook)
// ---------------------------------------------------------------------

/// The LD_PRELOAD shim: consulted by the kernel for every libc call of
/// dynamically linked processes whose environment carries the preload.
pub struct FakerootHook {
    daemon: FakerootDaemon,
    ids: Ids,
}

impl FakerootHook {
    /// Shim plus freshly spawned daemon.
    pub fn new() -> FakerootHook {
        FakerootHook {
            daemon: FakerootDaemon::spawn(),
            ids: Ids::default(),
        }
    }
}

impl Default for FakerootHook {
    fn default() -> Self {
        Self::new()
    }
}

impl SyscallHook for FakerootHook {
    fn on_syscall(&mut self, kernel: &mut Kernel, pid: Pid, call: &SysCall) -> HookVerdict {
        let before = self.daemon.round_trips;
        match emulate_call(kernel, pid, call, &mut self.daemon, &mut self.ids) {
            Some(result) => {
                kernel.counters.daemon_round_trips += self.daemon.round_trips - before;
                HookVerdict::Emulated(result)
            }
            None => HookVerdict::PassThrough,
        }
    }
}

// ---------------------------------------------------------------------
// the strategy
// ---------------------------------------------------------------------

/// How fakeroot gets into the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provisioning {
    /// Charliecloud: install it in the image first.
    InstalledInImage,
    /// Apptainer: bind-mount the host's copy (libc coupling!).
    BindMountedFromHost,
}

/// `--force=fakeroot` and the bind-mount variant.
#[derive(Debug, Clone, Copy)]
pub struct FakerootEmulation {
    provisioning: Provisioning,
}

impl FakerootEmulation {
    /// Strategy with the chosen provisioning.
    pub fn new(provisioning: Provisioning) -> FakerootEmulation {
        FakerootEmulation { provisioning }
    }
}

impl RootEmulation for FakerootEmulation {
    fn prepare(&self, k: &mut Kernel, pid: Pid, env: &PrepareEnv) -> Result<(), PrepareError> {
        match self.provisioning {
            Provisioning::InstalledInImage => {
                if !env.fakeroot_in_image {
                    return Err(PrepareError::FakerootMissing);
                }
            }
            Provisioning::BindMountedFromHost => {
                if env.image_libc != env.host_libc {
                    return Err(PrepareError::LibcMismatch {
                        host: env.host_libc.clone(),
                        image: env.image_libc.clone(),
                    });
                }
            }
        }
        k.process_mut(pid).preload_active = true; // LD_PRELOAD in env
        k.set_preload_hook(Some(Box::new(FakerootHook::new())));
        Ok(())
    }

    fn teardown(&self, k: &mut Kernel) {
        k.set_preload_hook(None); // daemon thread joins on drop
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

    fn armed_env() -> PrepareEnv {
        PrepareEnv {
            fakeroot_in_image: true,
            ..PrepareEnv::default()
        }
    }

    #[test]
    fn missing_fakeroot_blocks_prepare() {
        let (mut k, pid) = setup();
        let strat = FakerootEmulation::new(Provisioning::InstalledInImage);
        assert_eq!(
            strat.prepare(&mut k, pid, &PrepareEnv::default()).err(),
            Some(PrepareError::FakerootMissing)
        );
    }

    #[test]
    fn libc_mismatch_blocks_bind_mount() {
        let (mut k, pid) = setup();
        let strat = FakerootEmulation::new(Provisioning::BindMountedFromHost);
        let env = PrepareEnv {
            image_libc: "musl-1.2".into(),
            host_libc: "glibc-2.31".into(),
            ..PrepareEnv::default()
        };
        assert!(matches!(
            strat.prepare(&mut k, pid, &env),
            Err(PrepareError::LibcMismatch { .. })
        ));
    }

    #[test]
    fn consistent_chown_then_stat() {
        // THE contrast with zero consistency: fakeroot remembers.
        let (mut k, pid) = setup();
        let strat = FakerootEmulation::new(Provisioning::InstalledInImage);
        strat.prepare(&mut k, pid, &armed_env()).unwrap();
        {
            let mut ctx = k.ctx(pid);
            ctx.write_file("/f", 0o644, b"x".to_vec()).unwrap();
            ctx.chown("/f", 42, 43).unwrap();
            let st = ctx.stat("/f").unwrap();
            assert_eq!((st.uid, st.gid), (42, 43), "the lie is consistent");
        }
        assert!(k.counters.daemon_round_trips > 0, "state costs IPC");
        strat.teardown(&mut k);
    }

    #[test]
    fn fake_device_node() {
        let (mut k, pid) = setup();
        let strat = FakerootEmulation::new(Provisioning::InstalledInImage);
        strat.prepare(&mut k, pid, &armed_env()).unwrap();
        {
            let mut ctx = k.ctx(pid);
            ctx.mknod("/dev-null", zr_syscalls::mode::S_IFCHR | 0o666, 0x103)
                .unwrap();
            let st = ctx.stat("/dev-null").unwrap();
            assert_eq!(
                zr_syscalls::mode::file_type(st.mode),
                zr_syscalls::mode::S_IFCHR,
                "stat shows a device"
            );
            assert_eq!(st.rdev, 0x103);
        }
        strat.teardown(&mut k);
    }

    #[test]
    fn geteuid_pretends_root() {
        let (mut k, pid) = setup();
        // Even outside a container (host user), fakeroot makes you "root".
        let strat = FakerootEmulation::new(Provisioning::InstalledInImage);
        strat.prepare(&mut k, pid, &armed_env()).unwrap();
        {
            let mut ctx = k.ctx(pid);
            assert_eq!(ctx.geteuid(), 0);
            assert_eq!(ctx.getresuid(), (0, 0, 0));
        }
        strat.teardown(&mut k);
    }

    #[test]
    fn static_binaries_bypass_the_shim() {
        let (mut k, pid) = setup();
        let strat = FakerootEmulation::new(Provisioning::InstalledInImage);
        strat.prepare(&mut k, pid, &armed_env()).unwrap();
        // Flip the process to "statically linked" — the preload hook must
        // not see its calls.
        k.process_mut(pid).dynamic = false;
        {
            let mut ctx = k.ctx(pid);
            ctx.write_file("/f", 0o644, vec![]).unwrap();
            // chown now hits the real kernel: EPERM/EINVAL, not emulated.
            assert!(ctx.chown("/f", 42, 43).is_err(), "shim bypassed");
        }
        strat.teardown(&mut k);
    }

    #[test]
    fn unlink_cleans_state() {
        let (mut k, pid) = setup();
        let strat = FakerootEmulation::new(Provisioning::InstalledInImage);
        strat.prepare(&mut k, pid, &armed_env()).unwrap();
        {
            let mut ctx = k.ctx(pid);
            ctx.write_file("/f", 0o644, vec![]).unwrap();
            ctx.chown("/f", 42, 43).unwrap();
            ctx.unlink("/f").unwrap();
            // Recreate: same ino may be recycled; no stale 42/43.
            ctx.write_file("/g", 0o644, vec![]).unwrap();
            let st = ctx.stat("/g").unwrap();
            assert_eq!((st.uid, st.gid), (0, 0));
        }
        strat.teardown(&mut k);
    }

    #[test]
    fn daemon_db_len_queryable() {
        let mut d = FakerootDaemon::spawn();
        assert_eq!(d.db_len(), 0);
        d.with_db(|db| db.set_owner(5, Some(1), Some(1)));
        assert_eq!(d.db_len(), 1);
    }

    #[test]
    fn each_with_db_is_one_round_trip() {
        let mut d = FakerootDaemon::spawn();
        for n in 1..=5u64 {
            d.with_db(move |db| db.set_perm(n, 0o4755));
            assert_eq!(d.round_trips, n);
        }
        assert_eq!(d.with_db(|db| db.len()), 5, "the daemon kept each write");
        assert_eq!(d.round_trips, 6);
    }
}
