//! Emulation logic shared by the consistent emulators.
//!
//! fakeroot (preload) and PRoot (ptrace) intercept at different layers
//! but *emulate the same calls the same way*: pretend to be root, record
//! metadata changes in a state store, and overlay that state onto reads.
//! This module holds the one implementation both wrap around their
//! respective stores. The pretended identity is a [`zr_kernel::Ids`],
//! the same type the kernel answers get\*id from and `seccomp+ids`
//! remembers faked set\*id calls in; the pretended metadata is a
//! [`StateDb`], reached through [`OverlayStore::with_db`].

use crate::statedb::StateDb;
use zr_kernel::{Ids, Kernel, Pid, SysCall, SysResult, SysRet};
use zr_syscalls::{mode, Errno};
use zr_vfs::inode::{Ino, Stat};

/// Where an emulator keeps its [`StateDb`] of pretended metadata: in its
/// own memory for PRoot, in a daemon thread for fakeroot.
pub trait OverlayStore {
    /// Run `f` against the database and return its result.
    fn with_db<R: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut StateDb) -> R + Send + 'static,
    ) -> R;
}

impl OverlayStore for StateDb {
    fn with_db<R: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut StateDb) -> R + Send + 'static,
    ) -> R {
        f(self)
    }
}

fn real(k: &mut Kernel, pid: Pid, call: SysCall) -> SysResult<SysRet> {
    k.syscall_nohook(pid, call)
}

fn real_stat(k: &mut Kernel, pid: Pid, path: &str, follow: bool) -> SysResult<Stat> {
    let call = if follow {
        SysCall::Stat { path: path.into() }
    } else {
        SysCall::Lstat { path: path.into() }
    };
    match real(k, pid, call)? {
        SysRet::Stat(st) => Ok(st),
        _ => Err(Errno::EINVAL.into()),
    }
}

/// Emulate `call` if it is one the consistent emulators handle.
/// `None` means "not ours — let it through".
pub fn emulate_call(
    k: &mut Kernel,
    pid: Pid,
    call: &SysCall,
    store: &mut impl OverlayStore,
    ids: &mut Ids,
) -> Option<SysResult<SysRet>> {
    // ---- consistent identity: reads report what writes pretended --------
    if let Some(ret) = ids.answer(call) {
        return Some(Ok(ret));
    }
    if ids.apply(call) {
        return Some(Ok(SysRet::Unit));
    }
    match call {
        SysCall::Capset { .. } => Some(Ok(SysRet::Unit)),

        // ---- metadata writes: record the lie ----------------------------
        SysCall::Chown { path, uid, gid } => {
            Some(emulate_chown(k, pid, store, path, *uid, *gid, true))
        }
        SysCall::Lchown { path, uid, gid } => {
            Some(emulate_chown(k, pid, store, path, *uid, *gid, false))
        }
        SysCall::Fchownat {
            path,
            uid,
            gid,
            nofollow,
        } => Some(emulate_chown(k, pid, store, path, *uid, *gid, !nofollow)),
        SysCall::Chmod { path, perm } => Some(emulate_chmod(k, pid, store, path, *perm)),
        SysCall::Mknod { path, mode: m, dev } | SysCall::Mknodat { path, mode: m, dev } => {
            if mode::is_device(*m) {
                Some(emulate_mknod_device(k, pid, store, path, *m, *dev))
            } else {
                None // non-device mknod works unprivileged; pass through
            }
        }
        SysCall::Setxattr { path, name, value } => Some(match real_stat(k, pid, path, true) {
            Ok(st) => {
                let (name, value) = (name.clone(), value.clone());
                store.with_db(move |db| db.set_xattr(st.ino, &name, value));
                Ok(SysRet::Unit)
            }
            Err(e) => Err(e),
        }),
        SysCall::Getxattr { path, name } => match real_stat(k, pid, path, true) {
            Ok(st) => {
                let name = name.clone();
                let value = store.with_db(move |db| db.get_xattr(st.ino, &name));
                value.map(|v| Ok(SysRet::Bytes(v)))
            }
            Err(e) => Some(Err(e)),
        },
        SysCall::Removexattr { path, name } => match real_stat(k, pid, path, true) {
            Ok(st) => {
                let name = name.clone();
                if store.with_db(move |db| db.remove_xattr(st.ino, &name)) {
                    Some(Ok(SysRet::Unit))
                } else {
                    None // fall through to the real (probably ENODATA)
                }
            }
            Err(e) => Some(Err(e)),
        },

        // ---- metadata reads: overlay the lie ------------------------------
        SysCall::Stat { path } => Some(match real_stat(k, pid, path, true) {
            Ok(st) => Ok(SysRet::Stat(store.with_db(move |db| db.overlay_stat(st)))),
            Err(e) => Err(e),
        }),
        SysCall::Lstat { path } => Some(match real_stat(k, pid, path, false) {
            Ok(st) => Ok(SysRet::Stat(store.with_db(move |db| db.overlay_stat(st)))),
            Err(e) => Err(e),
        }),

        // ---- state hygiene ---------------------------------------------------
        SysCall::Unlink { path } | SysCall::Rmdir { path } => {
            Some(remove_name(k, pid, store, call, path, None))
        }
        SysCall::Rename { old, new } => {
            let moving = real_stat(k, pid, old, false).ok().map(|st| st.ino);
            Some(remove_name(k, pid, store, call, new, moving))
        }

        _ => None,
    }
}

/// Run `call`, which removes the name `path`, and forget the overlay of
/// the inode behind that name if the call freed it: the VFS recycles
/// inode numbers, so a lie left behind would stick to the next file
/// created. An inode is freed with its last link (the VFS gives every
/// directory one); `moving` is the inode a rename puts under `path`,
/// which lives on.
fn remove_name(
    k: &mut Kernel,
    pid: Pid,
    store: &mut impl OverlayStore,
    call: &SysCall,
    path: &str,
    moving: Option<Ino>,
) -> SysResult<SysRet> {
    let victim = real_stat(k, pid, path, false);
    let result = real(k, pid, call.clone());
    if let (Ok(_), Ok(st)) = (&result, victim) {
        if st.nlink <= 1 && Some(st.ino) != moving {
            store.with_db(move |db| db.forget(st.ino));
        }
    }
    result
}

fn emulate_chown(
    k: &mut Kernel,
    pid: Pid,
    store: &mut impl OverlayStore,
    path: &str,
    uid: Option<u32>,
    gid: Option<u32>,
    follow: bool,
) -> SysResult<SysRet> {
    let st = real_stat(k, pid, path, follow)?; // ENOENT etc. stay honest
    store.with_db(move |db| db.set_owner(st.ino, uid, gid));
    Ok(SysRet::Unit)
}

fn emulate_chmod(
    k: &mut Kernel,
    pid: Pid,
    store: &mut impl OverlayStore,
    path: &str,
    perm: u32,
) -> SysResult<SysRet> {
    let st = real_stat(k, pid, path, true)?;
    // Apply for real where possible (the container user usually owns the
    // file, and real execute bits matter), and remember the full request
    // (including setuid bits an unprivileged chmod may not keep).
    let _ = real(
        k,
        pid,
        SysCall::Chmod {
            path: path.into(),
            perm,
        },
    );
    store.with_db(move |db| db.set_perm(st.ino, perm));
    Ok(SysRet::Unit)
}

fn emulate_mknod_device(
    k: &mut Kernel,
    pid: Pid,
    store: &mut impl OverlayStore,
    path: &str,
    m: u32,
    dev: u64,
) -> SysResult<SysRet> {
    // Placeholder regular file stands in for the device node.
    match real(
        k,
        pid,
        SysCall::WriteFile {
            path: path.into(),
            perm: m & 0o7777,
            data: Vec::new(),
        },
    ) {
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    let st = real_stat(k, pid, path, false)?;
    store.with_db(move |db| db.set_device(st.ino, mode::file_type(m), dev));
    Ok(SysRet::Unit)
}

/// Is `call` one the consistent emulators would intercept? (Used by the
/// accelerated-PRoot cost model: these are the calls its helper filter
/// marks for tracing.)
pub fn is_interesting(call: &SysCall) -> bool {
    matches!(
        call,
        SysCall::Getuid
            | SysCall::Geteuid
            | SysCall::Getgid
            | SysCall::Getegid
            | SysCall::Getresuid
            | SysCall::Getresgid
            | SysCall::Getgroups
            | SysCall::Setuid { .. }
            | SysCall::Setgid { .. }
            | SysCall::Setreuid { .. }
            | SysCall::Setregid { .. }
            | SysCall::Setresuid { .. }
            | SysCall::Setresgid { .. }
            | SysCall::Setgroups { .. }
            | SysCall::Capset { .. }
            | SysCall::Chown { .. }
            | SysCall::Lchown { .. }
            | SysCall::Fchownat { .. }
            | SysCall::Chmod { .. }
            | SysCall::Mknod { .. }
            | SysCall::Mknodat { .. }
            | SysCall::Setxattr { .. }
            | SysCall::Getxattr { .. }
            | SysCall::Removexattr { .. }
            | SysCall::Stat { .. }
            | SysCall::Lstat { .. }
            | SysCall::Unlink { .. }
            | SysCall::Rmdir { .. }
            | SysCall::Rename { .. }
    )
}
