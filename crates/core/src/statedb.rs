//! The state database consistent emulators maintain.
//!
//! fakeroot and PRoot must remember every faked metadata change so later
//! reads can repeat the lie (§3.1: "all fakeroots maintain state in order
//! to provide a consistent emulated environment, e.g., so stat(2) is
//! consistent with prior chown(2)"). This module is that memory, keyed by
//! inode number, with the overlay logic that rewrites `stat` results.

use std::collections::HashMap;
use zr_syscalls::mode;
use zr_vfs::inode::{Ino, Stat};

/// The pretended metadata for one inode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Overlay {
    /// Faked owner.
    pub uid: Option<u32>,
    /// Faked group.
    pub gid: Option<u32>,
    /// Faked permission bits.
    pub perm: Option<u32>,
    /// Faked file type bits + device number (for mknod emulation: the
    /// real object is a placeholder regular file).
    pub device: Option<(u32, u64)>,
    /// Faked xattrs.
    pub xattrs: HashMap<String, Vec<u8>>,
}

impl Overlay {
    /// Rewrite `st` to show the pretended metadata.
    pub fn apply(&self, mut st: Stat) -> Stat {
        if let Some(uid) = self.uid {
            st.uid = uid;
        }
        if let Some(gid) = self.gid {
            st.gid = gid;
        }
        if let Some(perm) = self.perm {
            st.mode = (st.mode & mode::S_IFMT) | (perm & 0o7777);
        }
        if let Some((type_bits, dev)) = self.device {
            st.mode = type_bits | (st.mode & 0o7777);
            st.rdev = dev;
        }
        st
    }
}

/// Inode-keyed overlay store.
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    map: HashMap<Ino, Overlay>,
}

impl StateDb {
    /// Empty store.
    pub fn new() -> StateDb {
        StateDb::default()
    }

    /// Number of inodes with overlays.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Anything recorded?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Record a faked chown.
    pub fn set_owner(&mut self, ino: Ino, uid: Option<u32>, gid: Option<u32>) {
        let e = self.map.entry(ino).or_default();
        if uid.is_some() {
            e.uid = uid;
        }
        if gid.is_some() {
            e.gid = gid;
        }
    }

    /// Record a faked chmod.
    pub fn set_perm(&mut self, ino: Ino, perm: u32) {
        self.map.entry(ino).or_default().perm = Some(perm);
    }

    /// Record a faked device node (placeholder inode `ino`).
    pub fn set_device(&mut self, ino: Ino, type_bits: u32, dev: u64) {
        self.map.entry(ino).or_default().device = Some((type_bits, dev));
    }

    /// Record a faked xattr.
    pub fn set_xattr(&mut self, ino: Ino, name: &str, value: Vec<u8>) {
        self.map
            .entry(ino)
            .or_default()
            .xattrs
            .insert(name.to_string(), value);
    }

    /// Read back a faked xattr.
    pub fn get_xattr(&self, ino: Ino, name: &str) -> Option<Vec<u8>> {
        self.map.get(&ino).and_then(|o| o.xattrs.get(name)).cloned()
    }

    /// Remove a faked xattr; true if one existed.
    pub fn remove_xattr(&mut self, ino: Ino, name: &str) -> bool {
        self.map
            .get_mut(&ino)
            .is_some_and(|o| o.xattrs.remove(name).is_some())
    }

    /// Apply any overlay to a stat result.
    pub fn overlay_stat(&self, st: Stat) -> Stat {
        match self.map.get(&st.ino) {
            Some(o) => o.apply(st),
            None => st,
        }
    }

    /// Forget an inode (it was freed; the number may be recycled).
    pub fn forget(&mut self, ino: Ino) {
        self.map.remove(&ino);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_stat(ino: Ino) -> Stat {
        Stat {
            ino,
            mode: mode::S_IFREG | 0o644,
            uid: 0,
            gid: 0,
            size: 10,
            nlink: 1,
            rdev: 0,
            mtime: 5,
        }
    }

    #[test]
    fn owner_overlay() {
        let mut db = StateDb::new();
        db.set_owner(7, Some(123), None);
        let st = db.overlay_stat(base_stat(7));
        assert_eq!(st.uid, 123);
        assert_eq!(st.gid, 0, "gid untouched");
        db.set_owner(7, None, Some(55));
        let st = db.overlay_stat(base_stat(7));
        assert_eq!((st.uid, st.gid), (123, 55), "accumulates");
    }

    #[test]
    fn perm_overlay_keeps_type() {
        let mut db = StateDb::new();
        db.set_perm(1, 0o4755);
        let st = db.overlay_stat(base_stat(1));
        assert_eq!(st.mode, mode::S_IFREG | 0o4755);
    }

    #[test]
    fn device_overlay_rewrites_type() {
        let mut db = StateDb::new();
        db.set_device(3, mode::S_IFCHR, mode::makedev(1, 3));
        let st = db.overlay_stat(base_stat(3));
        assert_eq!(mode::file_type(st.mode), mode::S_IFCHR);
        assert_eq!(st.rdev, mode::makedev(1, 3));
        assert_eq!(st.mode & 0o777, 0o644, "perm survives");
    }

    #[test]
    fn unknown_ino_passthrough() {
        let db = StateDb::new();
        let st = base_stat(9);
        assert_eq!(db.overlay_stat(st), st);
    }

    #[test]
    fn forget_clears() {
        let mut db = StateDb::new();
        db.set_owner(4, Some(1), Some(1));
        assert_eq!(db.len(), 1);
        db.forget(4);
        assert!(db.is_empty());
        assert_eq!(db.overlay_stat(base_stat(4)).uid, 0);
    }

    #[test]
    fn xattr_roundtrip() {
        let mut db = StateDb::new();
        assert_eq!(db.get_xattr(2, "security.capability"), None);
        db.set_xattr(2, "security.capability", vec![1, 2]);
        assert_eq!(db.get_xattr(2, "security.capability"), Some(vec![1, 2]));
    }
}
