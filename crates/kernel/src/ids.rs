//! User namespaces, id maps, and namespace-relative capability checks.
//!
//! Ids come in two flavours, as in Linux: *kernel ids* (`kuid`/`kgid`,
//! global, what inodes and credentials store) and *namespace-local ids*
//! (what processes see and pass to syscalls). A namespace's `uid_map`
//! translates between them; ids with no mapping are invalid targets
//! (`EINVAL` from `chown`/`setuid`) and read back as the overflow id
//! 65534 — both behaviours are central to why Figure 1b fails.

use crate::cred::IdKind;
use zr_syscalls::caps::Cap;

/// The uid/gid that unmapped kernel ids display as (`/proc/sys/kernel/
/// overflowuid`).
pub const OVERFLOW_ID: u32 = 65534;

/// Index of a user namespace in the kernel's table.
pub type NsId = usize;

/// One extent of an id map: `count` ids starting at `inside_first` map to
/// kernel ids starting at `outside_first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdMap {
    /// First namespace-local id.
    pub inside_first: u32,
    /// First kernel id it maps to.
    pub outside_first: u32,
    /// Number of consecutive ids mapped.
    pub count: u32,
}

impl IdMap {
    /// Map a namespace-local id to a kernel id.
    fn map_to_kernel(self, inside: u32) -> Option<u32> {
        if inside >= self.inside_first && inside - self.inside_first < self.count {
            Some(self.outside_first + (inside - self.inside_first))
        } else {
            None
        }
    }

    /// Map a kernel id to a namespace-local id.
    fn map_to_inside(self, kernel: u32) -> Option<u32> {
        if kernel >= self.outside_first && kernel - self.outside_first < self.count {
            Some(self.inside_first + (kernel - self.outside_first))
        } else {
            None
        }
    }
}

/// A user namespace.
#[derive(Debug, Clone)]
pub struct UserNs {
    /// This namespace's id.
    pub id: NsId,
    /// Parent namespace (`None` only for the initial namespace).
    pub parent: Option<NsId>,
    /// Kernel uid of the creator — the owner has every capability *in*
    /// this namespace.
    pub owner_kuid: u32,
    /// uid extents.
    pub uid_map: Vec<IdMap>,
    /// gid extents.
    pub gid_map: Vec<IdMap>,
    /// Whether `setgroups(2)` is permitted (must be denied before an
    /// unprivileged gid_map write, per user_namespaces(7)).
    pub setgroups_allowed: bool,
}

impl UserNs {
    /// The initial namespace: identity maps for every id.
    pub fn init() -> UserNs {
        UserNs {
            id: 0,
            parent: None,
            owner_kuid: 0,
            uid_map: vec![IdMap {
                inside_first: 0,
                outside_first: 0,
                count: u32::MAX,
            }],
            gid_map: vec![IdMap {
                inside_first: 0,
                outside_first: 0,
                count: u32::MAX,
            }],
            setgroups_allowed: true,
        }
    }

    /// The extents that map ids of `kind`.
    fn map(&self, kind: IdKind) -> &[IdMap] {
        match kind {
            IdKind::User => &self.uid_map,
            IdKind::Group => &self.gid_map,
        }
    }

    /// Namespace-local id → kernel id (`None` if unmapped).
    pub fn make_kid(&self, kind: IdKind, id: u32) -> Option<u32> {
        self.map(kind).iter().find_map(|m| m.map_to_kernel(id))
    }

    /// Kernel id → namespace-local id ([`OVERFLOW_ID`] if unmapped).
    pub fn from_kid(&self, kind: IdKind, kid: u32) -> u32 {
        self.map(kind)
            .iter()
            .find_map(|m| m.map_to_inside(kid))
            .unwrap_or(OVERFLOW_ID)
    }
}

/// The kernel's namespace table.
#[derive(Debug, Clone)]
pub struct NsTable {
    table: Vec<UserNs>,
}

impl Default for NsTable {
    fn default() -> NsTable {
        NsTable::new()
    }
}

impl NsTable {
    /// Table containing only the initial namespace (id 0).
    pub fn new() -> NsTable {
        NsTable {
            table: vec![UserNs::init()],
        }
    }

    /// Borrow a namespace.
    pub fn get(&self, id: NsId) -> &UserNs {
        &self.table[id]
    }

    /// Mutably borrow a namespace.
    pub fn get_mut(&mut self, id: NsId) -> &mut UserNs {
        &mut self.table[id]
    }

    /// Create a child namespace of `parent`, owned by `owner_kuid`, with
    /// empty id maps (to be written before ids become usable).
    pub fn create_child(&mut self, parent: NsId, owner_kuid: u32) -> NsId {
        let id = self.table.len();
        self.table.push(UserNs {
            id,
            parent: Some(parent),
            owner_kuid,
            uid_map: Vec::new(),
            gid_map: Vec::new(),
            setgroups_allowed: true,
        });
        id
    }

    /// `ns_capable`: does a credential (in `cred_ns`, with `effective`
    /// capability bit for `cap`, euid `cred_euid_kuid`) hold `cap` over
    /// `target` namespace?
    ///
    /// Mirrors the kernel's `cap_capable` walk: ascend from the target; if
    /// we reach the credential's namespace, the answer is its capability
    /// bit; if the credential's namespace is the *parent* of some
    /// intermediate namespace that the credential's euid *owns*, the
    /// credential has every capability there.
    pub fn ns_capable(
        &self,
        cred_ns: NsId,
        cred_euid_kuid: u32,
        has_cap: bool,
        target: NsId,
        _cap: Cap,
    ) -> bool {
        let mut ns = target;
        loop {
            if ns == cred_ns {
                return has_cap;
            }
            let Some(parent) = self.get(ns).parent else {
                return false; // walked past the root without meeting cred_ns
            };
            if parent == cred_ns && self.get(ns).owner_kuid == cred_euid_kuid {
                return true; // owner of the child ns: all caps within it
            }
            ns = parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use IdKind::{Group, User};

    #[test]
    fn init_ns_is_identity() {
        let ns = UserNs::init();
        assert_eq!(ns.make_kid(User, 0), Some(0));
        assert_eq!(ns.make_kid(User, 12345), Some(12345));
        assert_eq!(ns.from_kid(User, 99), 99);
    }

    #[test]
    fn single_id_map_type_iii() {
        // The Charliecloud Type III map: container 0 <-> host 1000.
        let mut t = NsTable::new();
        let child = t.create_child(0, 1000);
        t.get_mut(child).uid_map.push(IdMap {
            inside_first: 0,
            outside_first: 1000,
            count: 1,
        });
        let ns = t.get(child);
        assert_eq!(ns.make_kid(User, 0), Some(1000));
        assert_eq!(ns.make_kid(User, 1), None, "only one id is mapped");
        assert_eq!(
            ns.make_kid(User, 998),
            None,
            "ssh_keys gid would be unmappable"
        );
        assert_eq!(ns.from_kid(User, 1000), 0);
        assert_eq!(
            ns.from_kid(User, 0),
            OVERFLOW_ID,
            "host root reads as nobody"
        );
        assert_eq!(ns.make_kid(Group, 0), None, "the gid map is its own");
        assert_eq!(ns.from_kid(Group, 1000), OVERFLOW_ID);
    }

    #[test]
    fn range_map_type_ii() {
        let mut t = NsTable::new();
        let child = t.create_child(0, 1000);
        t.get_mut(child).uid_map.push(IdMap {
            inside_first: 0,
            outside_first: 100_000,
            count: 65_536,
        });
        let ns = t.get(child);
        assert_eq!(ns.make_kid(User, 0), Some(100_000));
        assert_eq!(ns.make_kid(User, 998), Some(100_998));
        assert_eq!(ns.make_kid(User, 65_535), Some(165_535));
        assert_eq!(ns.make_kid(User, 65_536), None);
        assert_eq!(ns.from_kid(User, 100_998), 998);
    }

    #[test]
    fn ns_capable_same_ns_uses_bit() {
        let t = NsTable::new();
        assert!(t.ns_capable(0, 0, true, 0, Cap::Chown));
        assert!(!t.ns_capable(0, 0, false, 0, Cap::Chown));
    }

    #[test]
    fn container_root_not_capable_over_init() {
        // THE paper-critical property: full caps inside an unprivileged
        // user namespace grant nothing over init-owned objects.
        let mut t = NsTable::new();
        let child = t.create_child(0, 1000);
        assert!(
            !t.ns_capable(child, 1000, true, 0, Cap::Chown),
            "child ns caps must not reach the init namespace"
        );
    }

    #[test]
    fn owner_is_capable_over_child_ns() {
        let mut t = NsTable::new();
        let child = t.create_child(0, 1000);
        // The creating user (kuid 1000, in init ns) owns the child.
        assert!(t.ns_capable(0, 1000, false, child, Cap::SysAdmin));
        // A different user is not.
        assert!(!t.ns_capable(0, 1001, false, child, Cap::SysAdmin));
        // init root with the bit reaches anything below.
        assert!(t.ns_capable(0, 0, true, child, Cap::SysAdmin));
    }

    #[test]
    fn grandchild_walk() {
        let mut t = NsTable::new();
        let child = t.create_child(0, 1000);
        let grand = t.create_child(child, 1000);
        // init root reaches the grandchild via the bit.
        assert!(t.ns_capable(0, 0, true, grand, Cap::Chown));
        // child-ns cred with the bit reaches grandchild.
        assert!(t.ns_capable(child, 1000, true, grand, Cap::Chown));
        // grandchild cred cannot reach child.
        assert!(!t.ns_capable(grand, 1000, true, child, Cap::Chown));
    }
}
