//! Inodes and their metadata.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::blob::Blob;
use zr_syscalls::mode;

/// Inode number.
pub type Ino = u64;

/// What an inode *is*. Regular file data lives in an `Arc`-shared
/// [`Blob`] — snapshots of the whole filesystem share payload bytes,
/// and a write swaps in a new blob (whole-file copy-on-write).
/// Directory entry maps sit behind their own `Arc` for the same
/// reason: copying an inode page after a snapshot clones one pointer
/// per directory, and only a directory actually being mutated pays for
/// a deep copy of its map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file with shared contents.
    File(Arc<Blob>),
    /// Directory: name → child inode, plus a parent pointer for `..`.
    Dir {
        /// Sorted entries (deterministic iteration for reproducible
        /// builds), copy-on-write shared between snapshots.
        entries: Arc<BTreeMap<String, Ino>>,
        /// `..`; the root points at itself.
        parent: Ino,
    },
    /// Symbolic link and its target path.
    Symlink(String),
    /// Character device (major/minor packed with `mode::makedev`).
    CharDev(u64),
    /// Block device.
    BlockDev(u64),
    /// Named pipe.
    Fifo,
    /// Unix-domain socket.
    Socket,
}

impl FileKind {
    /// The `S_IFMT` type bits for this kind.
    pub fn type_bits(&self) -> u32 {
        match self {
            FileKind::File(_) => mode::S_IFREG,
            FileKind::Dir { .. } => mode::S_IFDIR,
            FileKind::Symlink(_) => mode::S_IFLNK,
            FileKind::CharDev(_) => mode::S_IFCHR,
            FileKind::BlockDev(_) => mode::S_IFBLK,
            FileKind::Fifo => mode::S_IFIFO,
            FileKind::Socket => mode::S_IFSOCK,
        }
    }

    /// Logical size (file length; 0 for non-files, target length for
    /// symlinks, like Linux reports).
    pub fn size(&self) -> u64 {
        match self {
            FileKind::File(data) => data.len() as u64,
            FileKind::Symlink(t) => t.len() as u64,
            _ => 0,
        }
    }
}

/// Everything `stat(2)` reports (minus fields meaningless in the model).
///
/// `uid`/`gid` are **kernel ids** — global identities. Processes inside a
/// user namespace observe these through their id maps (`zr-kernel`
/// translates both directions), which is where the Type III restrictions
/// come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// Owner (kernel uid).
    pub uid: u32,
    /// Group (kernel gid).
    pub gid: u32,
    /// Permission bits incl. setuid/setgid/sticky (type bits *not*
    /// included here; they come from the kind).
    pub perm: u32,
    /// Hard-link count.
    pub nlink: u32,
    /// Logical modification time (ticks of the simulated clock).
    pub mtime: u64,
    /// Extended attributes.
    pub xattrs: BTreeMap<String, Vec<u8>>,
}

impl Metadata {
    /// Fresh metadata for a newly created object.
    pub fn new(uid: u32, gid: u32, perm: u32, now: u64) -> Metadata {
        Metadata {
            uid,
            gid,
            perm: perm & 0o7777,
            nlink: 1,
            mtime: now,
            xattrs: BTreeMap::new(),
        }
    }
}

/// One filesystem object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Its number.
    pub ino: Ino,
    /// What it is (and its payload).
    pub kind: FileKind,
    /// Its metadata.
    pub meta: Metadata,
}

impl Inode {
    /// Full `st_mode`: type bits | permission bits.
    pub fn st_mode(&self) -> u32 {
        self.kind.type_bits() | self.meta.perm
    }

    /// Device number for device nodes, 0 otherwise.
    pub fn rdev(&self) -> u64 {
        match self.kind {
            FileKind::CharDev(d) | FileKind::BlockDev(d) => d,
            _ => 0,
        }
    }

    /// Is this a directory?
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, FileKind::Dir { .. })
    }
}

/// The `stat(2)` result surfaced to simulated userspace. Ids here are
/// still kernel ids; the kernel maps them into the caller's namespace
/// before returning (unmapped ids appear as the overflow id 65534, just
/// like Linux).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// Type and permissions.
    pub mode: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Hard links.
    pub nlink: u32,
    /// Device number (for device nodes).
    pub rdev: u64,
    /// Modification time (logical ticks).
    pub mtime: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_bits_match_kind() {
        assert_eq!(FileKind::File(Blob::empty()).type_bits(), mode::S_IFREG);
        assert_eq!(
            FileKind::Dir {
                entries: Arc::new(BTreeMap::new()),
                parent: 1
            }
            .type_bits(),
            mode::S_IFDIR
        );
        assert_eq!(FileKind::Symlink("/x".into()).type_bits(), mode::S_IFLNK);
        assert_eq!(FileKind::CharDev(0).type_bits(), mode::S_IFCHR);
        assert_eq!(FileKind::BlockDev(0).type_bits(), mode::S_IFBLK);
        assert_eq!(FileKind::Fifo.type_bits(), mode::S_IFIFO);
        assert_eq!(FileKind::Socket.type_bits(), mode::S_IFSOCK);
    }

    #[test]
    fn st_mode_combines_type_and_perm() {
        let inode = Inode {
            ino: 5,
            kind: FileKind::File(Blob::new(b"hi".to_vec())),
            meta: Metadata::new(0, 0, 0o4755, 0),
        };
        assert_eq!(inode.st_mode(), mode::S_IFREG | 0o4755);
        assert_eq!(inode.kind.size(), 2);
    }

    #[test]
    fn perm_is_masked_to_12_bits() {
        let m = Metadata::new(0, 0, 0o777_7777, 0);
        assert_eq!(m.perm, 0o7777);
    }

    #[test]
    fn sizes() {
        assert_eq!(FileKind::Symlink("/usr/bin".into()).size(), 8);
        assert_eq!(FileKind::Fifo.size(), 0);
    }
}
