//! The syscall surface as data, and the `Sys` trait — the model's *libc
//! boundary*.
//!
//! Simulated programs never touch the kernel directly: they hold a
//! `&mut dyn Sys` and issue [`SysCall`] values through it (usually via the
//! typed [`SysExt`] helpers). The kernel's `SyscallCtx` implements `Sys`
//! by dispatching; userspace emulators (the LD_PRELOAD fakeroot of §3.1)
//! implement it by *wrapping* another `Sys` — a faithful model of shared-
//! library interposition, including its blind spot: statically linked
//! programs are handed the raw context and bypass any wrapper.

use crate::cred::IdKind;
use zr_syscalls::caps::CapSet;
use zr_syscalls::Errno;
use zr_vfs::inode::Stat;

/// Everything a simulated program can ask of the OS.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the corresponding man pages
pub enum SysCall {
    // --- files ---------------------------------------------------------
    ReadFile {
        path: String,
    },
    WriteFile {
        path: String,
        perm: u32,
        data: Vec<u8>,
    },
    AppendFile {
        path: String,
        data: Vec<u8>,
    },
    Mkdir {
        path: String,
        perm: u32,
    },
    Unlink {
        path: String,
    },
    Rmdir {
        path: String,
    },
    Rename {
        old: String,
        new: String,
    },
    Symlink {
        target: String,
        linkpath: String,
    },
    Link {
        existing: String,
        newpath: String,
    },
    Readlink {
        path: String,
    },
    Stat {
        path: String,
    },
    Lstat {
        path: String,
    },
    ReadDir {
        path: String,
    },
    Chmod {
        path: String,
        perm: u32,
    },
    /// `chown(2)`: follow symlinks. `None` = leave unchanged (-1).
    Chown {
        path: String,
        uid: Option<u32>,
        gid: Option<u32>,
    },
    /// `lchown(2)`: operate on the symlink itself.
    Lchown {
        path: String,
        uid: Option<u32>,
        gid: Option<u32>,
    },
    /// `fchownat(2)` with `AT_SYMLINK_NOFOLLOW` optionally set.
    Fchownat {
        path: String,
        uid: Option<u32>,
        gid: Option<u32>,
        nofollow: bool,
    },
    /// `mknod(2)`: `mode` carries type bits; `dev` is the packed device.
    Mknod {
        path: String,
        mode: u32,
        dev: u64,
    },
    /// `mknodat(2)` (mode is the *third* argument — the filter cares).
    Mknodat {
        path: String,
        mode: u32,
        dev: u64,
    },
    Truncate {
        path: String,
        size: u64,
    },
    Utimens {
        path: String,
        mtime: u64,
    },
    Setxattr {
        path: String,
        name: String,
        value: Vec<u8>,
    },
    Getxattr {
        path: String,
        name: String,
    },
    Listxattr {
        path: String,
    },
    Removexattr {
        path: String,
        name: String,
    },

    // --- identity -------------------------------------------------------
    Getuid,
    Geteuid,
    Getgid,
    Getegid,
    Getresuid,
    Getresgid,
    Getgroups,
    Setuid {
        uid: u32,
    },
    Setgid {
        gid: u32,
    },
    Setreuid {
        r: Option<u32>,
        e: Option<u32>,
    },
    Setregid {
        r: Option<u32>,
        e: Option<u32>,
    },
    Setresuid {
        r: Option<u32>,
        e: Option<u32>,
        s: Option<u32>,
    },
    Setresgid {
        r: Option<u32>,
        e: Option<u32>,
        s: Option<u32>,
    },
    Setgroups {
        groups: Vec<u32>,
    },
    Setfsuid {
        uid: u32,
    },
    Setfsgid {
        gid: u32,
    },
    Capget,
    Capset {
        effective: CapSet,
        permitted: CapSet,
    },

    // --- process ----------------------------------------------------------
    Getpid,
    Umask {
        mask: u32,
    },
    Chdir {
        path: String,
    },
    Getcwd,
    /// `prctl(PR_SET_NO_NEW_PRIVS, 1)` — prerequisite for an unprivileged
    /// filter install.
    SetNoNewPrivs,
    /// `seccomp(SECCOMP_SET_MODE_FILTER)` with an already-compiled program.
    SeccompInstall {
        prog: zr_bpf::Program,
    },
    /// `kexec_load(2)` with null arguments — the filter self-test.
    KexecLoad,
    /// fork + execve + waitpid, collapsed: run `path` to completion.
    Spawn {
        path: String,
        argv: Vec<String>,
        env: Vec<(String, String)>,
    },
    /// `write(2)` to stdout: one console line. Goes through the full
    /// dispatch so output, too, pays the per-syscall filter tax (§6).
    ConsoleWrite {
        line: String,
    },
    /// `getrandom(2)`: `len` bytes of kernel entropy. The simulated
    /// stream is deterministic (seeded per kernel) so independent
    /// builds agree byte-for-byte — unless an audit-mode nondeterminism
    /// seed is injected to model a machine-local RNG.
    GetRandom {
        len: u64,
    },
}

impl SysCall {
    /// The kind of id a set\*id call sets, and its real, effective and
    /// saved ids (`None` = unchanged): `setuid`/`setgid` name all three,
    /// `setre*` the first two, `setres*` each as given. `None` for every
    /// other call.
    pub fn set_ids(&self) -> Option<(IdKind, [Option<u32>; 3])> {
        use IdKind::{Group, User};
        Some(match *self {
            SysCall::Setuid { uid } => (User, [Some(uid); 3]),
            SysCall::Setgid { gid } => (Group, [Some(gid); 3]),
            SysCall::Setreuid { r, e } => (User, [r, e, None]),
            SysCall::Setregid { r, e } => (Group, [r, e, None]),
            SysCall::Setresuid { r, e, s } => (User, [r, e, s]),
            SysCall::Setresgid { r, e, s } => (Group, [r, e, s]),
            _ => return None,
        })
    }
}

/// Values a syscall can return.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SysRet {
    Unit,
    Id(u32),
    Triple(u32, u32, u32),
    Groups(Vec<u32>),
    Stat(Stat),
    Bytes(Vec<u8>),
    Text(String),
    Entries(Vec<String>),
    Caps {
        effective: CapSet,
        permitted: CapSet,
    },
    Exit(i32),
    Mask(u32),
}

/// How a syscall can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysError {
    /// Ordinary errno.
    Errno(Errno),
    /// The process was killed (by a seccomp KILL disposition); the caller
    /// must unwind immediately.
    Killed,
}

impl From<Errno> for SysError {
    fn from(e: Errno) -> SysError {
        SysError::Errno(e)
    }
}

impl std::fmt::Display for SysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SysError::Errno(e) => write!(f, "{e}"),
            SysError::Killed => write!(f, "killed by seccomp filter"),
        }
    }
}

impl std::error::Error for SysError {}

/// Result of a syscall.
pub type SysResult<T> = Result<T, SysError>;

/// The libc boundary. One object-safe method so interposers (fakeroot)
/// forward with a single `match`.
pub trait Sys {
    /// Issue a syscall.
    fn call(&mut self, call: SysCall) -> SysResult<SysRet>;
}

macro_rules! expect_ret {
    ($value:expr, $pattern:pat => $out:expr, $what:literal) => {
        match $value {
            $pattern => Ok($out),
            other => unreachable!(
                concat!("kernel returned wrong shape for ", $what, ": {:?}"),
                other
            ),
        }
    };
}

/// Typed convenience wrappers over [`Sys::call`]. Blanket-implemented, so
/// `&mut dyn Sys` gets them all.
#[allow(missing_docs)] // thin wrappers; semantics documented on SysCall
pub trait SysExt: Sys {
    fn read_file(&mut self, path: &str) -> SysResult<Vec<u8>> {
        expect_ret!(self.call(SysCall::ReadFile { path: path.into() })?, SysRet::Bytes(b) => b, "read")
    }
    fn write_file(&mut self, path: &str, perm: u32, data: Vec<u8>) -> SysResult<()> {
        expect_ret!(self.call(SysCall::WriteFile { path: path.into(), perm, data })?, SysRet::Unit => (), "write")
    }
    fn append_file(&mut self, path: &str, data: &[u8]) -> SysResult<()> {
        expect_ret!(self.call(SysCall::AppendFile { path: path.into(), data: data.to_vec() })?, SysRet::Unit => (), "append")
    }
    fn mkdir(&mut self, path: &str, perm: u32) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Mkdir { path: path.into(), perm })?, SysRet::Unit => (), "mkdir")
    }
    /// `mkdir -p` built on mkdir/stat (a userspace convenience, like
    /// coreutils).
    fn mkdir_p(&mut self, path: &str, perm: u32) -> SysResult<()> {
        let norm = zr_vfs::path::normalize(path);
        let mut built = String::new();
        for comp in norm.split('/').filter(|c| !c.is_empty()) {
            built.push('/');
            built.push_str(comp);
            match self.mkdir(&built, perm) {
                Ok(()) => {}
                Err(SysError::Errno(Errno::EEXIST)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
    fn unlink(&mut self, path: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Unlink { path: path.into() })?, SysRet::Unit => (), "unlink")
    }
    fn rmdir(&mut self, path: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Rmdir { path: path.into() })?, SysRet::Unit => (), "rmdir")
    }
    fn rename(&mut self, old: &str, new: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Rename { old: old.into(), new: new.into() })?, SysRet::Unit => (), "rename")
    }
    fn symlink(&mut self, target: &str, linkpath: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Symlink { target: target.into(), linkpath: linkpath.into() })?, SysRet::Unit => (), "symlink")
    }
    fn link(&mut self, existing: &str, newpath: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Link { existing: existing.into(), newpath: newpath.into() })?, SysRet::Unit => (), "link")
    }
    fn readlink(&mut self, path: &str) -> SysResult<String> {
        expect_ret!(self.call(SysCall::Readlink { path: path.into() })?, SysRet::Text(t) => t, "readlink")
    }
    fn stat(&mut self, path: &str) -> SysResult<Stat> {
        expect_ret!(self.call(SysCall::Stat { path: path.into() })?, SysRet::Stat(s) => s, "stat")
    }
    fn lstat(&mut self, path: &str) -> SysResult<Stat> {
        expect_ret!(self.call(SysCall::Lstat { path: path.into() })?, SysRet::Stat(s) => s, "lstat")
    }
    fn exists(&mut self, path: &str) -> bool {
        self.stat(path).is_ok()
    }
    fn read_dir(&mut self, path: &str) -> SysResult<Vec<String>> {
        expect_ret!(self.call(SysCall::ReadDir { path: path.into() })?, SysRet::Entries(e) => e, "readdir")
    }
    fn chmod(&mut self, path: &str, perm: u32) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Chmod { path: path.into(), perm })?, SysRet::Unit => (), "chmod")
    }
    fn chown(&mut self, path: &str, uid: u32, gid: u32) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Chown { path: path.into(), uid: Some(uid), gid: Some(gid) })?, SysRet::Unit => (), "chown")
    }
    fn lchown(&mut self, path: &str, uid: u32, gid: u32) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Lchown { path: path.into(), uid: Some(uid), gid: Some(gid) })?, SysRet::Unit => (), "lchown")
    }
    fn fchownat(&mut self, path: &str, uid: u32, gid: u32, nofollow: bool) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Fchownat { path: path.into(), uid: Some(uid), gid: Some(gid), nofollow })?, SysRet::Unit => (), "fchownat")
    }
    fn mknod(&mut self, path: &str, mode: u32, dev: u64) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Mknod { path: path.into(), mode, dev })?, SysRet::Unit => (), "mknod")
    }
    fn mknodat(&mut self, path: &str, mode: u32, dev: u64) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Mknodat { path: path.into(), mode, dev })?, SysRet::Unit => (), "mknodat")
    }
    fn truncate(&mut self, path: &str, size: u64) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Truncate { path: path.into(), size })?, SysRet::Unit => (), "truncate")
    }
    fn utimens(&mut self, path: &str, mtime: u64) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Utimens { path: path.into(), mtime })?, SysRet::Unit => (), "utimens")
    }
    fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Setxattr { path: path.into(), name: name.into(), value: value.to_vec() })?, SysRet::Unit => (), "setxattr")
    }
    fn getxattr(&mut self, path: &str, name: &str) -> SysResult<Vec<u8>> {
        expect_ret!(self.call(SysCall::Getxattr { path: path.into(), name: name.into() })?, SysRet::Bytes(b) => b, "getxattr")
    }
    fn listxattr(&mut self, path: &str) -> SysResult<Vec<String>> {
        expect_ret!(self.call(SysCall::Listxattr { path: path.into() })?, SysRet::Entries(e) => e, "listxattr")
    }
    fn removexattr(&mut self, path: &str, name: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Removexattr { path: path.into(), name: name.into() })?, SysRet::Unit => (), "removexattr")
    }

    fn getuid(&mut self) -> u32 {
        match self.call(SysCall::Getuid) {
            Ok(SysRet::Id(u)) => u,
            other => unreachable!("getuid cannot fail: {other:?}"),
        }
    }
    fn geteuid(&mut self) -> u32 {
        match self.call(SysCall::Geteuid) {
            Ok(SysRet::Id(u)) => u,
            other => unreachable!("geteuid cannot fail: {other:?}"),
        }
    }
    fn getgid(&mut self) -> u32 {
        match self.call(SysCall::Getgid) {
            Ok(SysRet::Id(u)) => u,
            other => unreachable!("getgid cannot fail: {other:?}"),
        }
    }
    fn getegid(&mut self) -> u32 {
        match self.call(SysCall::Getegid) {
            Ok(SysRet::Id(u)) => u,
            other => unreachable!("getegid cannot fail: {other:?}"),
        }
    }
    fn getresuid(&mut self) -> (u32, u32, u32) {
        match self.call(SysCall::Getresuid) {
            Ok(SysRet::Triple(r, e, s)) => (r, e, s),
            other => unreachable!("getresuid cannot fail: {other:?}"),
        }
    }
    fn getresgid(&mut self) -> (u32, u32, u32) {
        match self.call(SysCall::Getresgid) {
            Ok(SysRet::Triple(r, e, s)) => (r, e, s),
            other => unreachable!("getresgid cannot fail: {other:?}"),
        }
    }
    fn getgroups(&mut self) -> Vec<u32> {
        match self.call(SysCall::Getgroups) {
            Ok(SysRet::Groups(g)) => g,
            other => unreachable!("getgroups cannot fail: {other:?}"),
        }
    }
    fn setuid(&mut self, uid: u32) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Setuid { uid })?, SysRet::Unit => (), "setuid")
    }
    fn setgid(&mut self, gid: u32) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Setgid { gid })?, SysRet::Unit => (), "setgid")
    }
    fn setresuid(&mut self, r: Option<u32>, e: Option<u32>, s: Option<u32>) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Setresuid { r, e, s })?, SysRet::Unit => (), "setresuid")
    }
    fn setresgid(&mut self, r: Option<u32>, e: Option<u32>, s: Option<u32>) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Setresgid { r, e, s })?, SysRet::Unit => (), "setresgid")
    }
    fn setgroups(&mut self, groups: &[u32]) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Setgroups { groups: groups.to_vec() })?, SysRet::Unit => (), "setgroups")
    }
    fn capget(&mut self) -> (CapSet, CapSet) {
        match self.call(SysCall::Capget) {
            Ok(SysRet::Caps {
                effective,
                permitted,
            }) => (effective, permitted),
            other => unreachable!("capget cannot fail: {other:?}"),
        }
    }
    fn capset(&mut self, effective: CapSet, permitted: CapSet) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Capset { effective, permitted })?, SysRet::Unit => (), "capset")
    }

    fn getpid(&mut self) -> u32 {
        match self.call(SysCall::Getpid) {
            Ok(SysRet::Id(p)) => p,
            other => unreachable!("getpid cannot fail: {other:?}"),
        }
    }
    fn umask(&mut self, mask: u32) -> u32 {
        match self.call(SysCall::Umask { mask }) {
            Ok(SysRet::Mask(old)) => old,
            other => unreachable!("umask cannot fail: {other:?}"),
        }
    }
    fn chdir(&mut self, path: &str) -> SysResult<()> {
        expect_ret!(self.call(SysCall::Chdir { path: path.into() })?, SysRet::Unit => (), "chdir")
    }
    fn getcwd(&mut self) -> String {
        match self.call(SysCall::Getcwd) {
            Ok(SysRet::Text(t)) => t,
            other => unreachable!("getcwd cannot fail: {other:?}"),
        }
    }
    fn set_no_new_privs(&mut self) -> SysResult<()> {
        expect_ret!(self.call(SysCall::SetNoNewPrivs)?, SysRet::Unit => (), "prctl")
    }
    fn seccomp_install(&mut self, prog: zr_bpf::Program) -> SysResult<()> {
        expect_ret!(self.call(SysCall::SeccompInstall { prog })?, SysRet::Unit => (), "seccomp")
    }
    fn kexec_load(&mut self) -> SysResult<()> {
        expect_ret!(self.call(SysCall::KexecLoad)?, SysRet::Unit => (), "kexec_load")
    }
    fn spawn(&mut self, path: &str, argv: &[&str], env: &[(&str, &str)]) -> SysResult<i32> {
        let call = SysCall::Spawn {
            path: path.into(),
            argv: argv.iter().map(|s| s.to_string()).collect(),
            env: env
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        expect_ret!(self.call(call)?, SysRet::Exit(code) => code, "spawn")
    }
    /// Spawn with owned argv/env (avoids &str gymnastics at call sites).
    fn spawn_owned(
        &mut self,
        path: &str,
        argv: Vec<String>,
        env: Vec<(String, String)>,
    ) -> SysResult<i32> {
        let call = SysCall::Spawn {
            path: path.into(),
            argv,
            env,
        };
        expect_ret!(self.call(call)?, SysRet::Exit(code) => code, "spawn")
    }
    /// Print one line to the build console (a `write(2)`).
    fn println(&mut self, line: impl Into<String>) {
        // Best effort, like ignoring a write error on stdout.
        let _ = self.call(SysCall::ConsoleWrite { line: line.into() });
    }
    fn getrandom(&mut self, len: u64) -> SysResult<Vec<u8>> {
        expect_ret!(self.call(SysCall::GetRandom { len })?, SysRet::Bytes(b) => b, "getrandom")
    }
}

impl<T: Sys + ?Sized> SysExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy Sys that answers a fixed uid, to exercise the blanket impl.
    struct FixedUid(u32);

    impl Sys for FixedUid {
        fn call(&mut self, call: SysCall) -> SysResult<SysRet> {
            match call {
                SysCall::Getuid | SysCall::Geteuid => Ok(SysRet::Id(self.0)),
                SysCall::Chown { .. } => Err(Errno::EPERM.into()),
                _ => Ok(SysRet::Unit),
            }
        }
    }

    #[test]
    fn ext_wrappers_route_through_call() {
        let mut s = FixedUid(42);
        assert_eq!(s.getuid(), 42);
        assert_eq!(s.geteuid(), 42);
        assert_eq!(s.chown("/x", 0, 0), Err(SysError::Errno(Errno::EPERM)));
        assert!(s.mkdir("/y", 0o755).is_ok());
    }

    #[test]
    fn dyn_sys_gets_the_extension_methods() {
        let mut s = FixedUid(7);
        let d: &mut dyn Sys = &mut s;
        assert_eq!(d.getuid(), 7);
    }

    #[test]
    fn sys_error_display() {
        assert_eq!(SysError::from(Errno::EPERM).to_string(), "EPERM");
        assert_eq!(SysError::Killed.to_string(), "killed by seccomp filter");
    }
}
