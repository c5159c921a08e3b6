//! The kernel proper: process table, filesystems, syscall dispatch.
//!
//! Dispatch pipeline for every syscall (mirroring Linux's entry path):
//!
//! 1. **Preload hook** — only if the calling program is dynamically linked
//!    and its environment carries a shim (LD_PRELOAD emulators, §3.1).
//! 2. **libc mapping** — the logical call is lowered to the syscall the
//!    process's architecture actually has: `chown` becomes `chown32` on
//!    i386/arm and `fchownat` on aarch64 (paper footnote 7).
//! 3. **Seccomp** — the installed filter stack runs over the encoded
//!    `seccomp_data` using the real cBPF interpreter. `ERRNO(0)` here is
//!    the paper's entire mechanism: *do nothing and return success*.
//! 4. **Tracer hook** — ptrace-style emulators (§3.2).
//! 5. **Execution** — user-namespace-aware policy checks, then `zr-vfs`.

use std::collections::HashMap;

use crate::cred::{Cred, IdKind, Ids};
use crate::hooks::{HookVerdict, SyscallHook};
use crate::ids::{NsId, NsTable};
use crate::process::{FsId, Pid, Process};
use crate::program::{ExecEnv, Linkage, ProgramRegistry};
use crate::sys::{Sys, SysCall, SysError, SysResult, SysRet};
use zr_seccomp::{Action, SeccompData};
use zr_syscalls::caps::Cap;
use zr_syscalls::{mode, Arch, Errno, Sysno};
use zr_trace::Counters;
use zr_vfs::access::{permitted, Access, Want};
use zr_vfs::fs::{FollowMode, Fs};
use zr_vfs::inode::FileKind;
use zr_vfs::path::join;

/// Placeholder pointer value used for pointer arguments in `seccomp_data`
/// (filters cannot dereference them anyway — §4).
const FAKE_PTR: u64 = 0x7f00_0000_1000;
/// `AT_FDCWD` as the kernel sees it in a register.
const AT_FDCWD: u64 = (-100i64) as u64;
/// `AT_SYMLINK_NOFOLLOW`.
const AT_SYMLINK_NOFOLLOW: u64 = 0x100;
/// uid/gid value meaning "no change".
const ID_UNCHANGED: u64 = u32::MAX as u64;

/// A filesystem plus the user namespace that owns its superblock — the
/// fact that decides whose capabilities count ([`NsTable::ns_capable`]).
#[derive(Debug, Clone)]
pub struct FsEntry {
    /// The filesystem.
    pub fs: Fs,
    /// Owner namespace of the superblock.
    pub owner_ns: NsId,
}

/// Host environment parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// The unprivileged user's uid on the host (the paper's HPC user).
    pub host_uid: u32,
    /// Their gid.
    pub host_gid: u32,
    /// Are setuid helper binaries (`newuidmap`/`newgidmap`) installed?
    /// Required for Type II container setup (§2).
    pub setuid_helpers: bool,
    /// Default architecture for new processes.
    pub arch: Arch,
    /// Injected nondeterminism sources (audit mode): applied to every
    /// container filesystem this kernel creates, and to the kernel's
    /// own `getrandom` stream. Default = fully deterministic.
    pub nondet: zr_vfs::fs::Nondeterminism,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            host_uid: 1000,
            host_gid: 1000,
            setuid_helpers: false,
            arch: Arch::X8664,
            nondet: zr_vfs::fs::Nondeterminism::default(),
        }
    }
}

/// The simulated kernel.
pub struct Kernel {
    /// Host configuration.
    pub config: KernelConfig,
    /// User namespaces.
    pub namespaces: NsTable,
    /// Filesystems (index = [`FsId`]).
    pub filesystems: Vec<FsEntry>,
    processes: HashMap<Pid, Process>,
    next_pid: Pid,
    /// Simulated binaries.
    pub registry: ProgramRegistry,
    /// The dispatch ledger: what every syscall cost and how it ended.
    pub counters: Counters,
    /// Console output (stdout of all simulated processes, in completion
    /// order of their `write`s).
    pub console: Vec<String>,
    preload_hook: Option<Box<dyn SyscallHook>>,
    tracer_hook: Option<Box<dyn SyscallHook>>,
    /// The identity each process under the uid/gid-consistency
    /// extension believes it has; a process is under it iff it has an
    /// entry.
    believed: HashMap<Pid, Ids>,
    /// `getrandom` stream position (blocks already handed out).
    rng_counter: u64,
}

impl Kernel {
    /// A kernel with: namespace 0, a host filesystem (owner ns 0), pid 1
    /// as init (root), and pid 2 as the unprivileged host user — the
    /// process experiments start from.
    pub fn new(config: KernelConfig) -> Kernel {
        let mut host_fs = Fs::new();
        host_fs.mkdir_p("/home/user", 0o755).expect("host skeleton");
        host_fs.mkdir_p("/tmp", 0o1777).expect("host skeleton");

        let mut k = Kernel {
            config: config.clone(),
            namespaces: NsTable::new(),
            filesystems: vec![FsEntry {
                fs: host_fs,
                owner_ns: 0,
            }],
            processes: HashMap::new(),
            next_pid: 1,
            registry: ProgramRegistry::new(),
            counters: Counters::default(),
            console: Vec::new(),
            preload_hook: None,
            tracer_hook: None,
            believed: HashMap::new(),
            rng_counter: 0,
        };

        let init = Process {
            pid: 0, // fixed up by add_process
            ppid: 0,
            cred: Cred::init_root(),
            fs: 0,
            cwd: "/".into(),
            umask: 0o022,
            arch: config.arch,
            seccomp: zr_seccomp::FilterStack::new(),
            no_new_privs: false,
            dynamic: true,
            preload_active: false,
            traced: false,
            alive: true,
        };
        let init_pid = k.add_process(init);
        debug_assert_eq!(init_pid, 1);

        let user = Process {
            pid: 0,
            ppid: 1,
            cred: Cred::init_user(config.host_uid, config.host_gid),
            fs: 0,
            cwd: "/home/user".into(),
            umask: 0o022,
            arch: config.arch,
            seccomp: zr_seccomp::FilterStack::new(),
            no_new_privs: false,
            dynamic: true,
            preload_active: false,
            traced: false,
            alive: true,
        };
        let user_pid = k.add_process(user);
        debug_assert_eq!(user_pid, 2);

        k
    }

    /// Kernel with default config.
    pub fn default_kernel() -> Kernel {
        Kernel::new(KernelConfig::default())
    }

    /// Pid of the unprivileged host user process.
    pub const HOST_USER_PID: Pid = 2;
    /// Pid of init (true root).
    pub const INIT_PID: Pid = 1;

    /// Insert a process, assigning the next pid.
    pub fn add_process(&mut self, mut proc: Process) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        proc.pid = pid;
        self.processes.insert(pid, proc);
        pid
    }

    /// Borrow a process.
    pub fn process(&self, pid: Pid) -> &Process {
        self.processes.get(&pid).expect("live pid")
    }

    /// Mutably borrow a process.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        self.processes.get_mut(&pid).expect("live pid")
    }

    /// Does the pid exist?
    pub fn has_process(&self, pid: Pid) -> bool {
        self.processes.contains_key(&pid)
    }

    /// Register a new filesystem; returns its id.
    pub fn add_fs(&mut self, fs: Fs, owner_ns: NsId) -> FsId {
        self.filesystems.push(FsEntry { fs, owner_ns });
        self.filesystems.len() - 1
    }

    /// Borrow a filesystem.
    pub fn fs(&self, id: FsId) -> &Fs {
        &self.filesystems[id].fs
    }

    /// Mutably borrow a filesystem.
    pub fn fs_mut(&mut self, id: FsId) -> &mut Fs {
        &mut self.filesystems[id].fs
    }

    /// Install the LD_PRELOAD-style hook (fakeroot shim + daemon).
    pub fn set_preload_hook(&mut self, hook: Option<Box<dyn SyscallHook>>) {
        self.preload_hook = hook;
    }

    /// Install the ptrace-style hook (PRoot-like tracer).
    pub fn set_tracer_hook(&mut self, hook: Option<Box<dyn SyscallHook>>) {
        self.tracer_hook = hook;
    }

    /// Enable the uid/gid-consistency extension for `pid` (§6 future
    /// work 2): from now on its faked set\*id calls are applied to the
    /// [`Ids`] it believes it has, seeded with its observed ids, and its
    /// get\*id calls report those. The programs it spawns start from
    /// their own observed ids under the same extension.
    pub fn enable_id_consistency(&mut self, pid: Pid) {
        let ids = self.observed_ids(pid);
        self.believed.insert(pid, ids);
    }

    /// Drain the console buffer.
    pub fn take_console(&mut self) -> Vec<String> {
        std::mem::take(&mut self.console)
    }

    /// A syscall context for `pid`, implementing [`Sys`].
    pub fn ctx(&mut self, pid: Pid) -> SyscallCtx<'_> {
        SyscallCtx { kernel: self, pid }
    }

    // ====================================================================
    // dispatch
    // ====================================================================

    /// Full dispatch: hooks, seccomp, execution.
    pub fn syscall(&mut self, pid: Pid, call: SysCall) -> SysResult<SysRet> {
        // 1. LD_PRELOAD layer (userspace, before any kernel involvement).
        let p = self.process(pid);
        if p.alive && p.preload_active && p.dynamic && self.preload_hook.is_some() {
            let mut hook = self.preload_hook.take().expect("checked above");
            let verdict = hook.on_syscall(self, pid, &call);
            self.preload_hook = Some(hook);
            if let HookVerdict::Emulated(result) = verdict {
                self.counters.preload_hops += 1;
                let (sysno, _) = encode(self.process(pid).arch, &call);
                self.counters.count_call(sysno);
                return result;
            }
        }
        self.syscall_kernel_entry(pid, call, true)
    }

    /// Kernel entry without the preload layer (what a *static* binary's
    /// raw syscall does, and what emulator shims use for their underlying
    /// operations).
    pub fn syscall_nohook(&mut self, pid: Pid, call: SysCall) -> SysResult<SysRet> {
        self.syscall_kernel_entry(pid, call, false)
    }

    fn syscall_kernel_entry(
        &mut self,
        pid: Pid,
        call: SysCall,
        tracer_visible: bool,
    ) -> SysResult<SysRet> {
        if !self.process(pid).alive {
            return Err(SysError::Killed);
        }
        self.counters.syscalls += 1;

        // 2+3. Encode for the architecture and run the filter stack.
        let arch = self.process(pid).arch;
        let (sysno, args) = encode(arch, &call);
        self.counters.count_call(sysno);
        let (action, steps, stack_len) = {
            let stack = &self.process(pid).seccomp;
            if stack.is_empty() {
                (Action::Allow, 0, 0)
            } else {
                let data = SeccompData::new(arch, syscall_nr(arch, sysno), args);
                let (action, steps) = stack.evaluate(&data);
                (action, steps, stack.len() as u64)
            }
        };
        self.counters.filter_evaluations += stack_len;
        self.counters.bpf_instructions += steps;

        match action {
            Action::Allow | Action::Log => {}
            Action::Errno(0) => {
                self.counters.faked += 1;
                if let Some(ids) = self.believed.get_mut(&pid) {
                    ids.apply(&call);
                }
                return Ok(fake_success_ret(&call));
            }
            Action::Errno(e) => {
                self.counters.denied += 1;
                self.counters.failed += 1;
                return Err(errno_from_raw(e).into());
            }
            Action::KillProcess | Action::KillThread | Action::Trap(_) => {
                self.process_mut(pid).alive = false;
                self.counters.failed += 1;
                return Err(SysError::Killed);
            }
            Action::Trace(_) | Action::UserNotif => {
                // Defer-to-userspace dispositions are modelled through the
                // tracer hook below; reaching here without one installed
                // behaves like ENOSYS (kernel with no tracer attached).
                if self.tracer_hook.is_none() {
                    self.counters.failed += 1;
                    return Err(Errno::ENOSYS.into());
                }
            }
        }

        // 4. ptrace layer.
        if tracer_visible && self.process(pid).traced && self.tracer_hook.is_some() {
            let mut hook = self.tracer_hook.take().expect("checked above");
            let verdict = hook.on_syscall(self, pid, &call);
            self.tracer_hook = Some(hook);
            if let HookVerdict::Emulated(result) = verdict {
                return result;
            }
        }

        // 5. Execute.
        let result = self.execute(pid, call);
        if result.is_err() {
            self.counters.failed += 1;
        }
        result
    }

    /// The ids a process currently observes (ns-local view of its cred).
    fn observed_ids(&self, pid: Pid) -> Ids {
        let c = &self.process(pid).cred;
        let ns = self.namespaces.get(c.userns);
        let uid = |kid| ns.from_kid(IdKind::User, kid);
        let gid = |kid| ns.from_kid(IdKind::Group, kid);
        Ids {
            uids: (uid(c.ruid), uid(c.euid), uid(c.suid)),
            gids: (gid(c.rgid), gid(c.egid), gid(c.sgid)),
            groups: c.groups.iter().map(|&g| gid(g)).collect(),
        }
    }

    // ====================================================================
    // helpers
    // ====================================================================

    /// `ns_capable` for this process against a target namespace.
    pub fn capable(&self, pid: Pid, cap: Cap, target_ns: NsId) -> bool {
        let p = self.process(pid);
        self.namespaces.ns_capable(
            p.cred.userns,
            p.cred.euid,
            p.cred.effective.has(cap),
            target_ns,
            cap,
        )
    }

    /// Capability relative to the superblock of the process's filesystem —
    /// the check behind chown/mknod/setxattr policy.
    fn capable_wrt_fs(&self, pid: Pid, cap: Cap) -> bool {
        let owner = self.filesystems[self.process(pid).fs].owner_ns;
        self.capable(pid, cap, owner)
    }

    /// Distilled DAC view for VFS permission checks.
    pub fn access_for(&self, pid: Pid) -> Access {
        let p = self.process(pid);
        Access {
            fsuid: p.cred.fsuid,
            fsgid: p.cred.fsgid,
            groups: p.cred.groups.clone(),
            cap_dac_override: self.capable_wrt_fs(pid, Cap::DacOverride),
            cap_dac_read_search: self.capable_wrt_fs(pid, Cap::DacReadSearch),
            cap_fowner: self.capable_wrt_fs(pid, Cap::Fowner),
        }
    }

    fn abs(&self, pid: Pid, path: &str) -> String {
        let p = self.process(pid);
        join(&p.cwd, path)
    }

    /// Builder-side whole-file write of a *shared blob* into `pid`'s
    /// filesystem — same credentials, umask and cwd handling as the
    /// `WriteFile` syscall, but the payload is an `Arc` handle: COPY/ADD
    /// share context bytes (and their memoized digests) with every
    /// snapshot instead of duplicating them. The syscall surface keeps
    /// owned byte payloads; this models the host-side builder writing
    /// into storage (ch-image copying into the unpacked image
    /// directory), so no simulated syscall is dispatched or traced.
    pub fn write_file_blob(
        &mut self,
        pid: Pid,
        path: &str,
        perm: u32,
        blob: std::sync::Arc<zr_vfs::Blob>,
    ) -> Result<(), Errno> {
        let access = self.access_for(pid);
        let fsid = self.process(pid).fs;
        let p = self.abs(pid, path);
        let perm = perm & !self.process(pid).umask;
        self.fs_mut(fsid).write_file_blob(&p, perm, blob, &access)?;
        Ok(())
    }

    // ====================================================================
    // execution (policy + vfs)
    // ====================================================================

    #[allow(clippy::too_many_lines)] // one arm per syscall; splitting hurts
    fn execute(&mut self, pid: Pid, call: SysCall) -> SysResult<SysRet> {
        let access = self.access_for(pid);
        let fsid = self.process(pid).fs;
        match call {
            // ---- plain file ops: defer to VFS DAC --------------------------
            SysCall::ReadFile { path } => {
                let p = self.abs(pid, &path);
                Ok(SysRet::Bytes(self.fs(fsid).read_file(&p, &access)?))
            }
            SysCall::WriteFile { path, perm, data } => {
                let p = self.abs(pid, &path);
                let perm = perm & !self.process(pid).umask;
                self.fs_mut(fsid).write_file(&p, perm, data, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::AppendFile { path, data } => {
                let p = self.abs(pid, &path);
                self.fs_mut(fsid).append_file(&p, &data, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Mkdir { path, perm } => {
                let p = self.abs(pid, &path);
                let perm = perm & !self.process(pid).umask;
                self.fs_mut(fsid).mkdir(&p, perm, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Unlink { path } => {
                let p = self.abs(pid, &path);
                self.fs_mut(fsid).unlink(&p, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Rmdir { path } => {
                let p = self.abs(pid, &path);
                self.fs_mut(fsid).rmdir(&p, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Rename { old, new } => {
                let o = self.abs(pid, &old);
                let n = self.abs(pid, &new);
                self.fs_mut(fsid).rename(&o, &n, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Symlink { target, linkpath } => {
                let l = self.abs(pid, &linkpath);
                self.fs_mut(fsid).symlink(&target, &l, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Link { existing, newpath } => {
                let e = self.abs(pid, &existing);
                let n = self.abs(pid, &newpath);
                self.fs_mut(fsid).link(&e, &n, &access)?;
                Ok(SysRet::Unit)
            }
            SysCall::Readlink { path } => {
                let p = self.abs(pid, &path);
                Ok(SysRet::Text(self.fs(fsid).readlink(&p, &access)?))
            }
            SysCall::Stat { path } => {
                let p = self.abs(pid, &path);
                let st = self.fs(fsid).stat(&p, &access, FollowMode::Follow)?;
                Ok(SysRet::Stat(self.map_stat(pid, st)))
            }
            SysCall::Lstat { path } => {
                let p = self.abs(pid, &path);
                let st = self.fs(fsid).stat(&p, &access, FollowMode::NoFollow)?;
                Ok(SysRet::Stat(self.map_stat(pid, st)))
            }
            SysCall::ReadDir { path } => {
                let p = self.abs(pid, &path);
                let entries = self.fs(fsid).read_dir(&p, &access)?;
                Ok(SysRet::Entries(
                    entries.into_iter().map(|(n, _)| n).collect(),
                ))
            }
            SysCall::Truncate { path, size } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                let node = self.fs(fsid).inode(ino)?;
                if !permitted(
                    &access,
                    node.meta.uid,
                    node.meta.gid,
                    node.meta.perm,
                    Want::W,
                ) {
                    return Err(Errno::EACCES.into());
                }
                self.fs_mut(fsid).truncate(ino, size)?;
                Ok(SysRet::Unit)
            }
            SysCall::Utimens { path, mtime } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                let node = self.fs(fsid).inode(ino)?;
                let owner = access.owns(node.meta.uid);
                let writable = permitted(
                    &access,
                    node.meta.uid,
                    node.meta.gid,
                    node.meta.perm,
                    Want::W,
                );
                if !owner && !writable {
                    return Err(Errno::EPERM.into());
                }
                self.fs_mut(fsid).set_mtime(ino, mtime)?;
                Ok(SysRet::Unit)
            }

            // ---- chmod: owner or CAP_FOWNER ---------------------------------
            SysCall::Chmod { path, perm } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                let node = self.fs(fsid).inode(ino)?;
                if !access.owns(node.meta.uid) {
                    return Err(Errno::EPERM.into());
                }
                self.fs_mut(fsid).set_perm(ino, perm)?;
                Ok(SysRet::Unit)
            }

            // ---- chown family: the Figure 1b syscalls ------------------------
            SysCall::Chown { path, uid, gid } => {
                self.do_chown(pid, &path, uid, gid, FollowMode::Follow)
            }
            SysCall::Lchown { path, uid, gid } => {
                self.do_chown(pid, &path, uid, gid, FollowMode::NoFollow)
            }
            SysCall::Fchownat {
                path,
                uid,
                gid,
                nofollow,
            } => {
                let follow = if nofollow {
                    FollowMode::NoFollow
                } else {
                    FollowMode::Follow
                };
                self.do_chown(pid, &path, uid, gid, follow)
            }

            // ---- mknod: privileged for device nodes ---------------------------
            SysCall::Mknod { path, mode: m, dev } | SysCall::Mknodat { path, mode: m, dev } => {
                let p = self.abs(pid, &path);
                let kind = match mode::file_type(m) {
                    mode::S_IFCHR => {
                        if !self.capable_wrt_fs(pid, Cap::Mknod) {
                            return Err(Errno::EPERM.into());
                        }
                        FileKind::CharDev(dev)
                    }
                    mode::S_IFBLK => {
                        if !self.capable_wrt_fs(pid, Cap::Mknod) {
                            return Err(Errno::EPERM.into());
                        }
                        FileKind::BlockDev(dev)
                    }
                    mode::S_IFIFO => FileKind::Fifo,
                    mode::S_IFSOCK => FileKind::Socket,
                    0 | mode::S_IFREG => FileKind::File(zr_vfs::Blob::empty()),
                    _ => return Err(Errno::EINVAL.into()),
                };
                let perm = (m & 0o7777) & !self.process(pid).umask;
                self.fs_mut(fsid).mknod(&p, kind, perm, &access)?;
                Ok(SysRet::Unit)
            }

            // ---- xattrs --------------------------------------------------------
            SysCall::Setxattr { path, name, value } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                self.xattr_set_policy(pid, &access, fsid, ino, &name)?;
                self.fs_mut(fsid).set_xattr(ino, &name, &value)?;
                Ok(SysRet::Unit)
            }
            SysCall::Getxattr { path, name } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                Ok(SysRet::Bytes(self.fs(fsid).get_xattr(ino, &name)?))
            }
            SysCall::Listxattr { path } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                Ok(SysRet::Entries(self.fs(fsid).list_xattr(ino)?))
            }
            SysCall::Removexattr { path, name } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                self.xattr_set_policy(pid, &access, fsid, ino, &name)?;
                self.fs_mut(fsid).remove_xattr(ino, &name)?;
                Ok(SysRet::Unit)
            }

            // ---- identity queries (never privileged; zero consistency means
            // these tell the truth, the id-consistency extension that they
            // repeat the believed ids) -------------------------------------------
            SysCall::Getuid
            | SysCall::Geteuid
            | SysCall::Getgid
            | SysCall::Getegid
            | SysCall::Getresuid
            | SysCall::Getresgid
            | SysCall::Getgroups => {
                let answer = match self.believed.get(&pid) {
                    Some(believed) => believed.answer(&call),
                    None => self.observed_ids(pid).answer(&call),
                };
                Ok(answer.expect("every get*id call has an answer"))
            }

            // ---- identity manipulation: filter class 2 when not faked ---------
            call @ (SysCall::Setuid { .. }
            | SysCall::Setgid { .. }
            | SysCall::Setreuid { .. }
            | SysCall::Setregid { .. }
            | SysCall::Setresuid { .. }
            | SysCall::Setresgid { .. }) => self.do_set_ids(pid, &call),
            SysCall::Setgroups { groups } => self.do_setgroups(pid, &groups),
            SysCall::Setfsuid { uid } => Ok(self.do_setfsid(pid, IdKind::User, uid)),
            SysCall::Setfsgid { gid } => Ok(self.do_setfsid(pid, IdKind::Group, gid)),
            SysCall::Capget => {
                let p = self.process(pid);
                Ok(SysRet::Caps {
                    effective: p.cred.effective,
                    permitted: p.cred.permitted,
                })
            }
            SysCall::Capset {
                effective,
                permitted,
            } => {
                let p = self.process_mut(pid);
                // May not grow beyond permitted.
                if effective.intersect(p.cred.permitted) != effective
                    || permitted.intersect(p.cred.permitted) != permitted
                {
                    return Err(Errno::EPERM.into());
                }
                p.cred.effective = effective;
                p.cred.permitted = permitted;
                Ok(SysRet::Unit)
            }

            // ---- process state ---------------------------------------------------
            SysCall::Getpid => Ok(SysRet::Id(pid)),
            SysCall::Umask { mask } => {
                let p = self.process_mut(pid);
                let old = p.umask;
                p.umask = mask & 0o777;
                Ok(SysRet::Mask(old))
            }
            SysCall::Chdir { path } => {
                let p = self.abs(pid, &path);
                let ino = self.fs(fsid).resolve(&p, &access, FollowMode::Follow)?;
                if !self.fs(fsid).inode(ino)?.is_dir() {
                    return Err(Errno::ENOTDIR.into());
                }
                let canonical = self.fs(fsid).path_of(ino)?;
                self.process_mut(pid).cwd = canonical;
                Ok(SysRet::Unit)
            }
            SysCall::Getcwd => Ok(SysRet::Text(self.process(pid).cwd.clone())),
            SysCall::SetNoNewPrivs => {
                self.process_mut(pid).no_new_privs = true;
                Ok(SysRet::Unit)
            }
            SysCall::SeccompInstall { prog } => {
                let p = self.process(pid);
                if !p.no_new_privs && !self.capable(pid, Cap::SysAdmin, p.cred.userns) {
                    return Err(Errno::EACCES.into());
                }
                zr_bpf::validate(&prog).map_err(|_| Errno::EINVAL)?;
                zr_seccomp::check::check_seccomp(&prog).map_err(|_| Errno::EINVAL)?;
                self.process_mut(pid).seccomp.push(prog);
                Ok(SysRet::Unit)
            }
            SysCall::KexecLoad => {
                // Privileged: CAP_SYS_BOOT in the *initial* namespace. This
                // is why it makes a safe filter self-test (§5 class 4).
                if self.capable(pid, Cap::SysBoot, 0) {
                    Ok(SysRet::Unit)
                } else {
                    Err(Errno::EPERM.into())
                }
            }
            SysCall::Spawn { path, argv, env } => self.do_spawn(pid, &path, argv, env),
            SysCall::ConsoleWrite { line } => {
                self.console.push(line);
                Ok(SysRet::Unit)
            }
            SysCall::GetRandom { len } => {
                // Deterministic entropy: a splitmix64 stream keyed on the
                // injected seed (audit mode) or 0 (default). Two kernels
                // with equal configs replay identical bytes; differing
                // `gen_seed`s force "generated file" payload divergence.
                let seed = self.config.nondet.gen_seed.unwrap_or(0);
                let mut out = Vec::with_capacity(len as usize);
                while (out.len() as u64) < len {
                    let mut z = seed
                        .wrapping_add(self.rng_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .wrapping_add(0x9e37_79b9_7f4a_7c15);
                    self.rng_counter += 1;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    for b in z.to_le_bytes() {
                        if (out.len() as u64) < len {
                            out.push(b);
                        }
                    }
                }
                Ok(SysRet::Bytes(out))
            }
        }
    }

    fn map_stat(&self, pid: Pid, mut st: zr_vfs::inode::Stat) -> zr_vfs::inode::Stat {
        let ns = self.namespaces.get(self.process(pid).cred.userns);
        st.uid = ns.from_kid(IdKind::User, st.uid);
        st.gid = ns.from_kid(IdKind::Group, st.gid);
        st
    }

    /// chown policy, shared by the whole family. This is where Figure 1b
    /// dies: targets must be mapped in the caller's namespace (else
    /// `EINVAL`) and real ownership changes need `CAP_CHOWN` *relative to
    /// the superblock's owning namespace* (else `EPERM`) — capabilities
    /// inside an unprivileged container satisfy neither.
    fn do_chown(
        &mut self,
        pid: Pid,
        path: &str,
        uid: Option<u32>,
        gid: Option<u32>,
        follow: FollowMode,
    ) -> SysResult<SysRet> {
        let access = self.access_for(pid);
        let fsid = self.process(pid).fs;
        let p = self.abs(pid, path);
        let ino = self.fs(fsid).resolve(&p, &access, follow)?;
        let node = self.fs(fsid).inode(ino)?;
        let (cur_uid, cur_gid) = (node.meta.uid, node.meta.gid);

        let ns = self.namespaces.get(self.process(pid).cred.userns);
        let kid = |kind, id: Option<u32>| id.map(|id| ns.make_kid(kind, id).ok_or(Errno::EINVAL));
        let kuid = kid(IdKind::User, uid).transpose()?;
        let kgid = kid(IdKind::Group, gid).transpose()?;

        if let Some(ku) = kuid {
            if ku != cur_uid && !self.capable_wrt_fs(pid, Cap::Chown) {
                return Err(Errno::EPERM.into());
            }
        }
        if let Some(kg) = kgid {
            if kg != cur_gid {
                let cred = &self.process(pid).cred;
                let owner_and_member = cred.fsuid == cur_uid && cred.in_group(kg);
                if !owner_and_member && !self.capable_wrt_fs(pid, Cap::Chown) {
                    return Err(Errno::EPERM.into());
                }
            }
        }

        let new_uid = kuid.unwrap_or(cur_uid);
        let new_gid = kgid.unwrap_or(cur_gid);
        self.fs_mut(fsid).set_owner(ino, new_uid, new_gid)?;
        Ok(SysRet::Unit)
    }

    /// The one set\*id rule, for uids and gids alike ([`SysCall::set_ids`]
    /// decodes the call). Every named id must be mapped in the caller's
    /// namespace (else `EINVAL`, before any other check). With the kind's
    /// capability each named id is set, exactly as [`Ids::apply`] records
    /// a faked call. Without it each named id must already be the
    /// caller's real, effective or saved id (else `EPERM`), and
    /// `setuid`/`setgid` change only the effective id. The filesystem id
    /// follows the effective id.
    fn do_set_ids(&mut self, pid: Pid, call: &SysCall) -> SysResult<SysRet> {
        let (kind, mut kids) = call.set_ids().expect("a set*id call");
        let userns = self.process(pid).cred.userns;
        let ns = self.namespaces.get(userns);
        for kid in kids.iter_mut().flatten() {
            *kid = ns.make_kid(kind, *kid).ok_or(Errno::EINVAL)?;
        }
        let capable = self.capable(pid, kind.cap(), userns);
        let [r, e, s, fs] = self.process_mut(pid).cred.ids_mut(kind);
        if !capable {
            let held = [*r, *e, *s];
            if kids.iter().flatten().any(|kid| !held.contains(kid)) {
                return Err(Errno::EPERM.into());
            }
            if matches!(call, SysCall::Setuid { .. } | SysCall::Setgid { .. }) {
                kids = [None, kids[1], None];
            }
        }
        for (id, kid) in [&mut *r, &mut *e, &mut *s].into_iter().zip(kids) {
            *id = kid.unwrap_or(*id);
        }
        *fs = *e;
        Ok(SysRet::Unit)
    }

    /// `setfsuid`/`setfsgid`: the filesystem id becomes `id` when `id` is
    /// mapped and the caller has the kind's capability or holds `id` as
    /// one of its four ids. Never fails; returns the previous filesystem
    /// id.
    fn do_setfsid(&mut self, pid: Pid, kind: IdKind, id: u32) -> SysRet {
        let userns = self.process(pid).cred.userns;
        let capable = self.capable(pid, kind.cap(), userns);
        let kid = self.namespaces.get(userns).make_kid(kind, id);
        let ids = self.process_mut(pid).cred.ids_mut(kind);
        let old = *ids[3];
        if let Some(kid) = kid.filter(|kid| capable || ids.iter().any(|id| **id == *kid)) {
            *ids[3] = kid;
        }
        SysRet::Id(self.namespaces.get(userns).from_kid(kind, old))
    }

    fn do_setgroups(&mut self, pid: Pid, groups: &[u32]) -> SysResult<SysRet> {
        let p = self.process(pid);
        let ns_id = p.cred.userns;
        let ns = self.namespaces.get(ns_id);
        // user_namespaces(7): in a namespace created without privilege,
        // setgroups is denied once "deny" has been written (which Type III
        // setup does before writing gid_map).
        if !ns.setgroups_allowed {
            return Err(Errno::EPERM.into());
        }
        if !self.capable(pid, Cap::Setgid, ns_id) {
            return Err(Errno::EPERM.into());
        }
        let ns = self.namespaces.get(ns_id);
        let mut kgids = Vec::with_capacity(groups.len());
        for &g in groups {
            kgids.push(ns.make_kid(IdKind::Group, g).ok_or(Errno::EINVAL)?);
        }
        self.process_mut(pid).cred.groups = kgids;
        Ok(SysRet::Unit)
    }

    fn xattr_set_policy(
        &self,
        pid: Pid,
        access: &Access,
        fsid: FsId,
        ino: zr_vfs::inode::Ino,
        name: &str,
    ) -> SysResult<()> {
        if name.starts_with("user.") {
            let node = self.fs(fsid).inode(ino)?;
            if !permitted(
                access,
                node.meta.uid,
                node.meta.gid,
                node.meta.perm,
                Want::W,
            ) {
                return Err(Errno::EACCES.into());
            }
            return Ok(());
        }
        // security.* / trusted.* / system.*: privileged relative to the
        // superblock. This is the call that breaks systemd installs in a
        // Type III container (§6 future work 1).
        let cap = if name.starts_with("security.") {
            Cap::Setfcap
        } else {
            Cap::SysAdmin
        };
        if !self.capable_wrt_fs(pid, cap) {
            return Err(Errno::EPERM.into());
        }
        Ok(())
    }

    // ====================================================================
    // exec
    // ====================================================================

    fn do_spawn(
        &mut self,
        parent: Pid,
        path: &str,
        argv: Vec<String>,
        env: Vec<(String, String)>,
    ) -> SysResult<SysRet> {
        self.counters.spawns += 1;
        let access = self.access_for(parent);
        let fsid = self.process(parent).fs;
        let abs = self.abs(parent, path);

        let target = self.fs(fsid).resolve(&abs, &access, FollowMode::Follow)?;
        let node = self.fs(fsid).inode(target)?;
        if node.is_dir() {
            return Err(Errno::EISDIR.into());
        }
        if !permitted(
            &access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::X,
        ) {
            return Err(Errno::EACCES.into());
        }

        // Match the executable *inode* against registered behaviours, so
        // symlinks (busybox-style) and hard links resolve correctly.
        let entry = self
            .registry
            .paths()
            .into_iter()
            .find(|rp| {
                self.fs(fsid)
                    .resolve(rp, &Access::root(), FollowMode::Follow)
                    .is_ok_and(|ino| ino == target)
            })
            .map(|rp| self.registry.get(rp).expect("listed path").clone());
        let Some(entry) = entry else {
            return Err(Errno::ENOEXEC.into());
        };

        let mut child = self.process(parent).fork_from(0);
        child.dynamic = entry.linkage == Linkage::Dynamic;
        if env.iter().any(|(k, _)| k == "LD_PRELOAD") {
            child.preload_active = true;
        }
        let child_pid = self.add_process(child);
        if self.believed.contains_key(&parent) {
            self.enable_id_consistency(child_pid);
        }

        let mut program = (entry.factory)();
        let mut exec_env = ExecEnv {
            argv,
            env,
            output: Vec::new(),
        };
        let code = {
            let mut ctx = SyscallCtx {
                kernel: self,
                pid: child_pid,
            };
            program.run(&mut ctx, &mut exec_env)
        };
        // Anything the program buffered in its ExecEnv joins the console.
        self.console.extend(exec_env.output);

        let killed = !self.process(child_pid).alive;
        self.believed.remove(&child_pid);
        self.processes.remove(&child_pid);

        // SIGSYS/KILL by filter shows as 128+31 like a shell would report.
        Ok(SysRet::Exit(if killed { 159 } else { code }))
    }
}

/// Execution context handed to programs: implements the libc boundary by
/// dispatching into the kernel.
pub struct SyscallCtx<'k> {
    kernel: &'k mut Kernel,
    pid: Pid,
}

impl SyscallCtx<'_> {
    /// The calling process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Escape hatch for tests and emulator internals.
    pub fn kernel(&mut self) -> &mut Kernel {
        self.kernel
    }
}

impl Sys for SyscallCtx<'_> {
    fn call(&mut self, call: SysCall) -> SysResult<SysRet> {
        self.kernel.syscall(self.pid, call)
    }
}

// ========================================================================
// libc → syscall-number mapping
// ========================================================================

/// Pick the first syscall the architecture implements — how libc selects
/// between legacy and modern entry points (footnote 7 of the paper).
fn pick(arch: Arch, prefs: &[Sysno]) -> Sysno {
    for &s in prefs {
        if s.number(arch).is_some() {
            return s;
        }
    }
    // Fall back to the last preference; encode() will still produce a
    // number for tracing via syscall_nr's fallback.
    *prefs.last().expect("non-empty preference list")
}

/// The raw number for tracing/filtering; unknown-on-arch resolves to an
/// impossible high number that no filter matches (like an ENOSYS call).
fn syscall_nr(arch: Arch, sysno: Sysno) -> u32 {
    sysno.number(arch).unwrap_or(0xFFFF)
}

/// Lower a logical libc call to (syscall, seccomp args) for `arch`.
fn encode(arch: Arch, call: &SysCall) -> (Sysno, [u64; 6]) {
    let id = |v: Option<u32>| v.map_or(ID_UNCHANGED, u64::from);
    match call {
        SysCall::ReadFile { .. } => (Sysno::Read, [3, FAKE_PTR, 4096, 0, 0, 0]),
        SysCall::WriteFile { .. } | SysCall::AppendFile { .. } | SysCall::ConsoleWrite { .. } => {
            (Sysno::Write, [1, FAKE_PTR, 0, 0, 0, 0])
        }
        SysCall::Mkdir { perm, .. } => (
            pick(arch, &[Sysno::Mkdir, Sysno::Mkdirat]),
            [FAKE_PTR, u64::from(*perm), 0, 0, 0, 0],
        ),
        SysCall::Unlink { .. } => (
            pick(arch, &[Sysno::Unlink, Sysno::Unlinkat]),
            [FAKE_PTR, 0, 0, 0, 0, 0],
        ),
        SysCall::Rmdir { .. } => (
            pick(arch, &[Sysno::Rmdir, Sysno::Unlinkat]),
            [FAKE_PTR, 0, 0, 0, 0, 0],
        ),
        SysCall::Rename { .. } => (
            pick(arch, &[Sysno::Rename, Sysno::Renameat]),
            [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0],
        ),
        SysCall::Symlink { .. } => (
            pick(arch, &[Sysno::Symlink, Sysno::Symlinkat]),
            [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0],
        ),
        SysCall::Link { .. } => (
            pick(arch, &[Sysno::Link, Sysno::Linkat]),
            [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0],
        ),
        SysCall::Readlink { .. } => (
            pick(arch, &[Sysno::Readlink, Sysno::Readlinkat]),
            [FAKE_PTR, FAKE_PTR, 4096, 0, 0, 0],
        ),
        SysCall::Stat { .. } => (
            pick(arch, &[Sysno::Stat, Sysno::Newfstatat]),
            [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0],
        ),
        SysCall::Lstat { .. } => (
            pick(arch, &[Sysno::Lstat, Sysno::Newfstatat]),
            [FAKE_PTR, FAKE_PTR, AT_SYMLINK_NOFOLLOW, 0, 0, 0],
        ),
        SysCall::ReadDir { .. } => (Sysno::Getdents64, [3, FAKE_PTR, 32768, 0, 0, 0]),
        SysCall::Chmod { perm, .. } => (
            pick(arch, &[Sysno::Chmod, Sysno::Fchmodat]),
            [FAKE_PTR, u64::from(*perm), 0, 0, 0, 0],
        ),
        SysCall::Chown { uid, gid, .. } => {
            let sy = pick(arch, &[Sysno::Chown32, Sysno::Chown, Sysno::Fchownat]);
            if sy == Sysno::Fchownat {
                (sy, [AT_FDCWD, FAKE_PTR, id(*uid), id(*gid), 0, 0])
            } else {
                (sy, [FAKE_PTR, id(*uid), id(*gid), 0, 0, 0])
            }
        }
        SysCall::Lchown { uid, gid, .. } => {
            let sy = pick(arch, &[Sysno::Lchown32, Sysno::Lchown, Sysno::Fchownat]);
            if sy == Sysno::Fchownat {
                (
                    sy,
                    [
                        AT_FDCWD,
                        FAKE_PTR,
                        id(*uid),
                        id(*gid),
                        AT_SYMLINK_NOFOLLOW,
                        0,
                    ],
                )
            } else {
                (sy, [FAKE_PTR, id(*uid), id(*gid), 0, 0, 0])
            }
        }
        SysCall::Fchownat {
            uid, gid, nofollow, ..
        } => (
            Sysno::Fchownat,
            [
                AT_FDCWD,
                FAKE_PTR,
                id(*uid),
                id(*gid),
                if *nofollow { AT_SYMLINK_NOFOLLOW } else { 0 },
                0,
            ],
        ),
        SysCall::Mknod { mode, dev, .. } => {
            let sy = pick(arch, &[Sysno::Mknod, Sysno::Mknodat]);
            if sy == Sysno::Mknodat {
                (sy, [AT_FDCWD, FAKE_PTR, u64::from(*mode), *dev, 0, 0])
            } else {
                (sy, [FAKE_PTR, u64::from(*mode), *dev, 0, 0, 0])
            }
        }
        SysCall::Mknodat { mode, dev, .. } => (
            Sysno::Mknodat,
            [AT_FDCWD, FAKE_PTR, u64::from(*mode), *dev, 0, 0],
        ),
        SysCall::Truncate { size, .. } => (Sysno::Truncate, [FAKE_PTR, *size, 0, 0, 0, 0]),
        SysCall::Utimens { .. } => (Sysno::Utimensat, [AT_FDCWD, FAKE_PTR, FAKE_PTR, 0, 0, 0]),
        SysCall::Setxattr { .. } => (Sysno::Setxattr, [FAKE_PTR, FAKE_PTR, FAKE_PTR, 0, 0, 0]),
        SysCall::Getxattr { .. } => (Sysno::Getxattr, [FAKE_PTR, FAKE_PTR, FAKE_PTR, 0, 0, 0]),
        SysCall::Listxattr { .. } => (Sysno::Listxattr, [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0]),
        SysCall::Removexattr { .. } => (Sysno::Removexattr, [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0]),
        SysCall::Getuid => (Sysno::Getuid, [0; 6]),
        SysCall::Geteuid => (Sysno::Geteuid, [0; 6]),
        SysCall::Getgid => (Sysno::Getgid, [0; 6]),
        SysCall::Getegid => (Sysno::Getegid, [0; 6]),
        SysCall::Getresuid => (Sysno::Getresuid, [FAKE_PTR, FAKE_PTR, FAKE_PTR, 0, 0, 0]),
        SysCall::Getresgid => (Sysno::Getresgid, [FAKE_PTR, FAKE_PTR, FAKE_PTR, 0, 0, 0]),
        SysCall::Getgroups => (Sysno::Getgroups, [0, FAKE_PTR, 0, 0, 0, 0]),
        SysCall::Setuid { uid } => (
            pick(arch, &[Sysno::Setuid32, Sysno::Setuid]),
            [u64::from(*uid), 0, 0, 0, 0, 0],
        ),
        SysCall::Setgid { gid } => (
            pick(arch, &[Sysno::Setgid32, Sysno::Setgid]),
            [u64::from(*gid), 0, 0, 0, 0, 0],
        ),
        SysCall::Setreuid { r, e } => (
            pick(arch, &[Sysno::Setreuid32, Sysno::Setreuid]),
            [id(*r), id(*e), 0, 0, 0, 0],
        ),
        SysCall::Setregid { r, e } => (
            pick(arch, &[Sysno::Setregid32, Sysno::Setregid]),
            [id(*r), id(*e), 0, 0, 0, 0],
        ),
        SysCall::Setresuid { r, e, s } => (
            pick(arch, &[Sysno::Setresuid32, Sysno::Setresuid]),
            [id(*r), id(*e), id(*s), 0, 0, 0],
        ),
        SysCall::Setresgid { r, e, s } => (
            pick(arch, &[Sysno::Setresgid32, Sysno::Setresgid]),
            [id(*r), id(*e), id(*s), 0, 0, 0],
        ),
        SysCall::Setgroups { groups } => (
            pick(arch, &[Sysno::Setgroups32, Sysno::Setgroups]),
            [groups.len() as u64, FAKE_PTR, 0, 0, 0, 0],
        ),
        SysCall::Setfsuid { uid } => (
            pick(arch, &[Sysno::Setfsuid32, Sysno::Setfsuid]),
            [u64::from(*uid), 0, 0, 0, 0, 0],
        ),
        SysCall::Setfsgid { gid } => (
            pick(arch, &[Sysno::Setfsgid32, Sysno::Setfsgid]),
            [u64::from(*gid), 0, 0, 0, 0, 0],
        ),
        SysCall::Capget => (Sysno::Capget, [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0]),
        SysCall::Capset { .. } => (Sysno::Capset, [FAKE_PTR, FAKE_PTR, 0, 0, 0, 0]),
        SysCall::Getpid => (Sysno::Getpid, [0; 6]),
        SysCall::Umask { mask } => (Sysno::Umask, [u64::from(*mask), 0, 0, 0, 0, 0]),
        SysCall::Chdir { .. } => (Sysno::Chdir, [FAKE_PTR, 0, 0, 0, 0, 0]),
        SysCall::Getcwd => (Sysno::Getcwd, [FAKE_PTR, 4096, 0, 0, 0, 0]),
        SysCall::SetNoNewPrivs => (Sysno::Prctl, [38, 1, 0, 0, 0, 0]),
        SysCall::SeccompInstall { .. } => (Sysno::Seccomp, [1, 0, FAKE_PTR, 0, 0, 0]),
        SysCall::KexecLoad => (Sysno::KexecLoad, [0; 6]),
        SysCall::Spawn { .. } => (Sysno::Execve, [FAKE_PTR, FAKE_PTR, FAKE_PTR, 0, 0, 0]),
        SysCall::GetRandom { len } => (Sysno::Getrandom, [FAKE_PTR, *len, 0, 0, 0, 0]),
    }
}

/// The value a faked syscall appears to return (always the success shape).
fn fake_success_ret(call: &SysCall) -> SysRet {
    match call {
        SysCall::Getuid
        | SysCall::Geteuid
        | SysCall::Getgid
        | SysCall::Getegid
        | SysCall::Setfsuid { .. }
        | SysCall::Setfsgid { .. }
        | SysCall::Getpid => SysRet::Id(0),
        SysCall::Getresuid | SysCall::Getresgid => SysRet::Triple(0, 0, 0),
        SysCall::Getgroups => SysRet::Groups(Vec::new()),
        SysCall::Umask { .. } => SysRet::Mask(0),
        SysCall::Capget => SysRet::Caps {
            effective: zr_syscalls::caps::CapSet::EMPTY,
            permitted: zr_syscalls::caps::CapSet::EMPTY,
        },
        SysCall::Getcwd => SysRet::Text("/".into()),
        SysCall::Readlink { .. } => SysRet::Text(String::new()),
        SysCall::ReadFile { .. } | SysCall::Getxattr { .. } => SysRet::Bytes(Vec::new()),
        SysCall::ReadDir { .. } | SysCall::Listxattr { .. } => SysRet::Entries(Vec::new()),
        SysCall::Stat { .. } | SysCall::Lstat { .. } => SysRet::Stat(zr_vfs::inode::Stat {
            ino: 0,
            mode: 0,
            uid: 0,
            gid: 0,
            size: 0,
            nlink: 0,
            rdev: 0,
            mtime: 0,
        }),
        SysCall::Spawn { .. } => SysRet::Exit(0),
        SysCall::GetRandom { .. } => SysRet::Bytes(Vec::new()),
        _ => SysRet::Unit,
    }
}

fn errno_from_raw(raw: u16) -> Errno {
    match raw {
        1 => Errno::EPERM,
        2 => Errno::ENOENT,
        13 => Errno::EACCES,
        22 => Errno::EINVAL,
        38 => Errno::ENOSYS,
        _ => Errno::EPERM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::SysExt;

    fn kernel() -> Kernel {
        Kernel::default_kernel()
    }

    #[test]
    fn boot_state() {
        let k = kernel();
        assert!(k.has_process(Kernel::INIT_PID));
        assert!(k.has_process(Kernel::HOST_USER_PID));
        assert_eq!(k.process(Kernel::HOST_USER_PID).cred.euid, 1000);
    }

    #[test]
    fn getrandom_is_deterministic_per_config() {
        let mut a = kernel();
        let mut b = kernel();
        let bytes_a = a.ctx(Kernel::HOST_USER_PID).getrandom(20).unwrap();
        let bytes_b = b.ctx(Kernel::HOST_USER_PID).getrandom(20).unwrap();
        assert_eq!(bytes_a.len(), 20);
        assert_eq!(bytes_a, bytes_b, "equal configs replay the same stream");
        // The stream advances: a second draw differs from the first.
        let again = a.ctx(Kernel::HOST_USER_PID).getrandom(20).unwrap();
        assert_ne!(bytes_a, again);
    }

    #[test]
    fn getrandom_diverges_under_injected_seed() {
        let mut cfg = KernelConfig::default();
        cfg.nondet.gen_seed = Some(7);
        let mut skewed = Kernel::new(cfg);
        let mut clean = kernel();
        let sk = skewed.ctx(Kernel::HOST_USER_PID).getrandom(16).unwrap();
        let cl = clean.ctx(Kernel::HOST_USER_PID).getrandom(16).unwrap();
        assert_ne!(sk, cl, "an injected gen_seed forces payload divergence");
    }

    #[test]
    fn host_user_writes_in_home() {
        let mut k = kernel();
        // /home/user is root-owned 0755 in the skeleton; give it away
        // first as root would have at account creation.
        let ino = k
            .fs(0)
            .resolve("/home/user", &Access::root(), FollowMode::Follow)
            .unwrap();
        k.fs_mut(0).set_owner(ino, 1000, 1000).unwrap();

        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        ctx.write_file("/home/user/x", 0o644, b"hi".to_vec())
            .unwrap();
        let st = ctx.stat("/home/user/x").unwrap();
        assert_eq!((st.uid, st.gid), (1000, 1000));
        // umask applied.
        assert_eq!(st.mode & 0o777, 0o644);
    }

    #[test]
    fn host_user_cannot_chown() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        // A real ownership change (target differs from current owner).
        assert_eq!(
            ctx.chown("/tmp", 1234, 1234),
            Err(SysError::Errno(Errno::EPERM))
        );
        // chown to the current owner is a permitted no-op.
        ctx.chown("/tmp", 0, 0).unwrap();
    }

    #[test]
    fn init_root_can_chown() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::INIT_PID);
        ctx.write_file("/f", 0o644, vec![]).unwrap();
        ctx.chown("/f", 1234, 5678).unwrap();
        let st = ctx.stat("/f").unwrap();
        assert_eq!((st.uid, st.gid), (1234, 5678));
    }

    #[test]
    fn chown_to_current_owner_is_allowed_unprivileged() {
        // The no-op chown rule that lets tar/apk-style extraction succeed
        // when ids happen to match.
        let mut k = kernel();
        let ino = k
            .fs(0)
            .resolve("/home/user", &Access::root(), FollowMode::Follow)
            .unwrap();
        k.fs_mut(0).set_owner(ino, 1000, 1000).unwrap();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        ctx.write_file("/home/user/f", 0o644, vec![]).unwrap();
        ctx.chown("/home/user/f", 1000, 1000).unwrap(); // no-op: fine
        assert_eq!(
            ctx.chown("/home/user/f", 1001, 1000),
            Err(SysError::Errno(Errno::EPERM))
        );
    }

    #[test]
    fn mknod_device_requires_privilege() {
        let mut k = kernel();
        let dev = mode::makedev(1, 3);
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            assert_eq!(
                ctx.mknod("/tmp/null", mode::S_IFCHR | 0o666, dev),
                Err(SysError::Errno(Errno::EPERM))
            );
            // FIFOs are not privileged.
            ctx.mknod("/tmp/fifo", mode::S_IFIFO | 0o644, 0).unwrap();
        }
        let mut ctx = k.ctx(Kernel::INIT_PID);
        ctx.mknod("/dev-null", mode::S_IFCHR | 0o666, dev).unwrap();
        let st = ctx.stat("/dev-null").unwrap();
        assert_eq!(st.rdev, dev);
    }

    #[test]
    fn setuid_rules() {
        let mut k = kernel();
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            // To an arbitrary uid: EPERM (no CAP_SETUID).
            assert_eq!(ctx.setuid(0), Err(SysError::Errno(Errno::EPERM)));
            // To own uid: fine.
            ctx.setuid(1000).unwrap();
        }
        let mut ctx = k.ctx(Kernel::INIT_PID);
        ctx.setuid(500).unwrap(); // root may become anyone
        assert_eq!(ctx.geteuid(), 500);
    }

    /// A Type II container's init: every capability in its namespace,
    /// whose map covers ids 0..65536.
    fn type_ii() -> (Kernel, Pid) {
        let mut k = Kernel::new(KernelConfig {
            setuid_helpers: true,
            ..KernelConfig::default()
        });
        let cfg = crate::ContainerConfig {
            ctype: crate::ContainerType::TypeII,
            image: Fs::new(),
        };
        let c = k.container_create(Kernel::HOST_USER_PID, cfg).unwrap();
        (k, c.init_pid)
    }

    fn observed(ctx: &mut SyscallCtx<'_>) -> Ids {
        Ids {
            uids: ctx.getresuid(),
            gids: ctx.getresgid(),
            groups: ctx.getgroups(),
        }
    }

    fn drop_caps(ctx: &mut SyscallCtx<'_>) {
        let empty = zr_syscalls::caps::CapSet::EMPTY;
        ctx.capset(empty, empty).unwrap();
    }

    #[test]
    fn capable_set_id_calls_change_what_ids_apply_says() {
        // The contract between the kernel and the consistent emulators:
        // what they pretend a set*id call did is what it does for root.
        let (mut k, pid) = type_ii();
        let mut ctx = k.ctx(pid);
        let (n, id) = (None, Some);
        let calls = [
            SysCall::Setresuid {
                r: id(5),
                e: id(6),
                s: id(7),
            },
            SysCall::Setreuid { r: id(8), e: n },
            SysCall::Setreuid { r: n, e: id(9) },
            SysCall::Setuid { uid: 10 },
            SysCall::Setresgid {
                r: id(11),
                e: n,
                s: id(12),
            },
            SysCall::Setregid {
                r: id(13),
                e: id(14),
            },
            SysCall::Setgid { gid: 15 },
            SysCall::Setgroups { groups: vec![3, 4] },
        ];
        for call in calls {
            let mut want = observed(&mut ctx);
            assert!(want.apply(&call), "{call:?}");
            assert_eq!(ctx.call(call.clone()), Ok(SysRet::Unit), "{call:?}");
            assert_eq!(observed(&mut ctx), want, "{call:?}");
        }
    }

    #[test]
    fn unprivileged_set_id_rules() {
        let (mut k, pid) = type_ii();
        let mut ctx = k.ctx(pid);
        ctx.setresuid(Some(5), Some(6), Some(7)).unwrap();
        ctx.setresgid(Some(15), Some(16), Some(17)).unwrap();
        drop_caps(&mut ctx);
        let eperm = Err(SysError::Errno(Errno::EPERM));

        ctx.setuid(7).unwrap();
        assert_eq!(ctx.getresuid(), (5, 7, 7), "only the effective uid moves");
        ctx.setgid(17).unwrap();
        assert_eq!(
            ctx.getresgid(),
            (15, 17, 17),
            "only the effective gid moves"
        );
        assert_eq!(ctx.setuid(9), eperm, "9 is none of the caller's uids");
        assert_eq!(
            ctx.setuid(70_000),
            Err(SysError::Errno(Errno::EINVAL)),
            "an unmapped id fails before the check that it is held"
        );
        assert_eq!(ctx.setresgid(None, Some(9), None), eperm);
        assert_eq!(
            (ctx.getresuid(), ctx.getresgid()),
            ((5, 7, 7), (15, 17, 17))
        );

        ctx.setresuid(None, Some(5), None).unwrap();
        assert_eq!(ctx.getresuid(), (5, 5, 7));
        let setregid = SysCall::Setregid {
            r: Some(17),
            e: Some(15),
        };
        assert_eq!(ctx.call(setregid), Ok(SysRet::Unit));
        assert_eq!(ctx.getresgid(), (17, 15, 17));
    }

    #[test]
    fn setfs_ids_return_the_previous_id() {
        fn setfs(ctx: &mut SyscallCtx<'_>, call: SysCall) -> u32 {
            match ctx.call(call) {
                Ok(SysRet::Id(old)) => old,
                other => panic!("setfs*id never fails: {other:?}"),
            }
        }
        let (fsuid, fsgid) = (
            |uid| SysCall::Setfsuid { uid },
            |gid| SysCall::Setfsgid { gid },
        );
        let (mut k, pid) = type_ii();
        let mut ctx = k.ctx(pid);
        assert_eq!(setfs(&mut ctx, fsuid(42)), 0);
        assert_eq!(setfs(&mut ctx, fsuid(70_000)), 42, "unmapped: unchanged");
        assert_eq!(setfs(&mut ctx, fsuid(0)), 42);
        assert_eq!(setfs(&mut ctx, fsgid(43)), 0);

        drop_caps(&mut ctx);
        assert_eq!(setfs(&mut ctx, fsgid(44)), 43, "44 is none of its gids");
        assert_eq!(setfs(&mut ctx, fsgid(0)), 43, "the real gid is held");
        assert_eq!(setfs(&mut ctx, fsgid(0)), 0);
    }

    #[test]
    fn the_filesystem_id_follows_the_effective_id() {
        // As in Linux (`new->fsuid = new->euid`): every set*id call resets
        // the filesystem id, even one that leaves the effective id alone.
        let (mut k, pid) = type_ii();
        let mut ctx = k.ctx(pid);
        let setfsuid = |uid| SysCall::Setfsuid { uid };
        assert_eq!(ctx.call(setfsuid(42)), Ok(SysRet::Id(0)));
        let setreuid = SysCall::Setreuid {
            r: Some(3),
            e: None,
        };
        assert_eq!(ctx.call(setreuid), Ok(SysRet::Unit));
        assert_eq!(ctx.call(setfsuid(0)), Ok(SysRet::Id(0)));
    }

    #[test]
    fn seccomp_install_needs_nnp() {
        let mut k = kernel();
        let prog =
            zr_seccomp::compile(&zr_seccomp::spec::zero_consistency(&[Arch::X8664])).unwrap();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        assert_eq!(
            ctx.seccomp_install(prog.clone()),
            Err(SysError::Errno(Errno::EACCES))
        );
        ctx.set_no_new_privs().unwrap();
        ctx.seccomp_install(prog).unwrap();
    }

    #[test]
    fn filter_fakes_chown_for_host_user() {
        let mut k = kernel();
        let prog =
            zr_seccomp::compile(&zr_seccomp::spec::zero_consistency(&[Arch::X8664])).unwrap();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        ctx.set_no_new_privs().unwrap();
        ctx.seccomp_install(prog).unwrap();
        // chown now "succeeds"...
        ctx.chown("/tmp", 0, 0).unwrap();
        // ...but the zero-consistency lie is visible: nothing changed.
        let st = ctx.stat("/tmp").unwrap();
        assert_eq!(st.uid, 0, "already was 0; key point is no EPERM");
        ctx.chown("/tmp", 4321, 4321).unwrap();
        assert_eq!(ctx.stat("/tmp").unwrap().uid, 0, "stat tells the truth");
        // kexec self-test (§5 class 4).
        ctx.kexec_load().unwrap();
    }

    #[test]
    fn kexec_load_eperm_without_filter() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        assert_eq!(ctx.kexec_load(), Err(SysError::Errno(Errno::EPERM)));
    }

    #[test]
    fn filter_taxes_every_syscall_counter() {
        let mut k = kernel();
        let before = k.counters;
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            let _ = ctx.getpid();
        }
        let unfiltered_cost = k.counters.since(&before).bpf_instructions;
        assert_eq!(unfiltered_cost, 0);

        let prog =
            zr_seccomp::compile(&zr_seccomp::spec::zero_consistency(&[Arch::X8664])).unwrap();
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            ctx.set_no_new_privs().unwrap();
            ctx.seccomp_install(prog).unwrap();
        }
        let before = k.counters;
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            let _ = ctx.getpid();
        }
        let filtered_cost = k.counters.since(&before).bpf_instructions;
        assert!(filtered_cost > 0, "§6: every syscall pays the filter tax");
    }

    #[test]
    fn kill_filter_kills() {
        let mut k = kernel();
        let mut spec = zr_seccomp::spec::zero_consistency(&[Arch::X8664]);
        for r in &mut spec.rules {
            if let zr_seccomp::Rule::Always(a) = &mut r.rule {
                *a = zr_seccomp::Action::KillProcess;
            }
        }
        let prog = zr_seccomp::compile(&spec).unwrap();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        ctx.set_no_new_privs().unwrap();
        ctx.seccomp_install(prog).unwrap();
        assert_eq!(ctx.chown("/tmp", 0, 0), Err(SysError::Killed));
        // Process is dead: every further syscall fails the same way.
        assert_eq!(ctx.call(SysCall::Getpid), Err(SysError::Killed));
    }

    #[test]
    fn umask_roundtrip() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        let old = ctx.umask(0o077);
        assert_eq!(old, 0o022);
        assert_eq!(ctx.umask(0o022), 0o077);
    }

    #[test]
    fn chdir_getcwd() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::INIT_PID);
        ctx.mkdir_p("/a/b", 0o755).unwrap();
        ctx.chdir("/a/b").unwrap();
        assert_eq!(ctx.getcwd(), "/a/b");
        // Relative paths resolve against cwd now.
        ctx.write_file("rel.txt", 0o644, b"x".to_vec()).unwrap();
        assert!(ctx.exists("/a/b/rel.txt"));
        ctx.chdir("..").unwrap();
        assert_eq!(ctx.getcwd(), "/a");
    }

    /// A preload shim that answers `lchown` and nothing else.
    struct LchownShim;

    impl SyscallHook for LchownShim {
        fn on_syscall(&mut self, _: &mut Kernel, _: Pid, call: &SysCall) -> HookVerdict {
            match call {
                SysCall::Lchown { .. } => HookVerdict::Emulated(Ok(SysRet::Unit)),
                _ => HookVerdict::PassThrough,
            }
        }
    }

    #[test]
    fn trace_records_dispositions() {
        // One call down each exit of the dispatch pipeline.
        let mut k = kernel();
        let pid = Kernel::HOST_USER_PID;
        let always = |sysno, action| zr_seccomp::SyscallRule {
            sysno,
            rule: zr_seccomp::Rule::Always(action),
        };
        let spec = zr_seccomp::FilterSpec {
            arches: vec![Arch::X8664],
            rules: vec![
                always(Sysno::Chown, Action::Errno(0)),
                always(Sysno::Setuid, Action::Errno(1)),
                always(Sysno::Getuid, Action::Trace(0)),
                always(Sysno::Setgid, Action::KillProcess),
            ],
            default_action: Action::Allow,
            unknown_arch_action: Action::KillProcess,
        };
        {
            let mut ctx = k.ctx(pid);
            ctx.set_no_new_privs().unwrap();
            ctx.seccomp_install(zr_seccomp::compile(&spec).unwrap())
                .unwrap();
        }
        k.set_preload_hook(Some(Box::new(LchownShim)));
        k.process_mut(pid).dynamic = true;
        k.process_mut(pid).preload_active = true;
        let before = k.counters;
        {
            let mut ctx = k.ctx(pid);
            ctx.getpid(); // executed
            assert_eq!(ctx.kexec_load(), Err(Errno::EPERM.into())); // kernel-refused
            ctx.chown("/tmp", 0, 0).unwrap(); // faked
            assert_eq!(ctx.setuid(0), Err(Errno::EPERM.into())); // filter-denied
            let getuid = ctx.call(SysCall::Getuid);
            assert_eq!(getuid, Err(Errno::ENOSYS.into())); // no tracer attached
            ctx.lchown("/tmp", 0, 0).unwrap(); // preload-answered
            assert_eq!(ctx.call(SysCall::Setgid { gid: 0 }), Err(SysError::Killed));
            // A dead process never enters the kernel again.
            assert_eq!(ctx.call(SysCall::Getpid), Err(SysError::Killed));
        }
        let c = k.counters.since(&before);
        assert_eq!(c.syscalls, 6, "{c:?}");
        assert_eq!(c.preload_hops, 1);
        assert_eq!(c.faked, 1);
        assert_eq!(c.denied, 1);
        assert_eq!(c.failed, 4, "kexec_load, setuid, getuid, setgid");
        assert_eq!(
            c.privileged(),
            5,
            "chown, setuid, kexec_load, setgid, lchown"
        );
        for sysno in [
            Sysno::Getpid,
            Sysno::KexecLoad,
            Sysno::Chown,
            Sysno::Setuid,
            Sysno::Getuid,
            Sysno::Lchown,
            Sysno::Setgid,
        ] {
            assert_eq!(c.calls(sysno), 1, "{sysno}");
        }
    }

    #[test]
    fn setgroups_denied_without_cap() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        assert_eq!(ctx.setgroups(&[1000]), Err(SysError::Errno(Errno::EPERM)));
        let mut ctx = k.ctx(Kernel::INIT_PID);
        ctx.setgroups(&[1, 2, 3]).unwrap();
        assert_eq!(ctx.getgroups(), vec![1, 2, 3]);
    }

    #[test]
    fn capset_cannot_grow() {
        let mut k = kernel();
        let mut ctx = k.ctx(Kernel::HOST_USER_PID);
        let full = zr_syscalls::caps::CapSet::full();
        assert_eq!(ctx.capset(full, full), Err(SysError::Errno(Errno::EPERM)));
        // Root can shrink.
        let mut ctx = k.ctx(Kernel::INIT_PID);
        let empty = zr_syscalls::caps::CapSet::EMPTY;
        ctx.capset(empty, empty).unwrap();
        let (eff, perm) = ctx.capget();
        assert!(eff.is_empty() && perm.is_empty());
    }

    #[test]
    fn arch_changes_syscall_identity_in_trace() {
        let mut k = kernel();
        k.process_mut(Kernel::HOST_USER_PID).arch = Arch::Aarch64;
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            let _ = ctx.chown("/tmp", 0, 0);
        }
        // On aarch64 there is no chown(2); libc used fchownat (footnote 7).
        assert_eq!(k.counters.calls(Sysno::Chown), 0);
        assert_eq!(k.counters.calls(Sysno::Fchownat), 1);
    }

    #[test]
    fn i386_uses_chown32() {
        let mut k = kernel();
        k.process_mut(Kernel::HOST_USER_PID).arch = Arch::I386;
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            let _ = ctx.chown("/tmp", 0, 0);
        }
        assert_eq!(k.counters.calls(Sysno::Chown32), 1);
    }

    #[test]
    fn console_write_is_a_syscall() {
        let mut k = kernel();
        let before = k.counters.syscalls;
        {
            let mut ctx = k.ctx(Kernel::HOST_USER_PID);
            ctx.println("hello");
        }
        assert_eq!(k.counters.syscalls, before + 1);
        assert_eq!(k.take_console(), vec!["hello".to_string()]);
    }
}
