//! Process credentials: uids, gids, groups, capability sets.
//!
//! All ids stored in a [`Cred`] are **kernel ids**; translation to and
//! from the process's user namespace happens at the syscall boundary in
//! `kernel.rs`, mirroring `struct cred` in Linux. [`Ids`] is a cred as
//! seen from its namespace: what the get\*id calls report. [`IdKind`]
//! names which of the two id sets a call is about, so uids and gids
//! share one code path.

use crate::ids::NsId;
use crate::sys::{SysCall, SysRet};
use zr_syscalls::caps::{Cap, CapSet};

/// Which kind of id a call names: uids or gids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdKind {
    /// User ids.
    User,
    /// Group ids.
    Group,
}

impl IdKind {
    /// The capability that lets a process set any id of this kind.
    pub fn cap(self) -> Cap {
        match self {
            IdKind::User => Cap::Setuid,
            IdKind::Group => Cap::Setgid,
        }
    }
}

/// A process's security context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cred {
    /// Real uid (kernel id).
    pub ruid: u32,
    /// Effective uid.
    pub euid: u32,
    /// Saved uid.
    pub suid: u32,
    /// Filesystem uid (tracks euid unless set explicitly).
    pub fsuid: u32,
    /// Real gid.
    pub rgid: u32,
    /// Effective gid.
    pub egid: u32,
    /// Saved gid.
    pub sgid: u32,
    /// Filesystem gid.
    pub fsgid: u32,
    /// Supplementary groups (kernel gids).
    pub groups: Vec<u32>,
    /// Effective capability set (relative to `userns`).
    pub effective: CapSet,
    /// Permitted capability set.
    pub permitted: CapSet,
    /// The user namespace the capabilities are relative to.
    pub userns: NsId,
}

impl Cred {
    /// Credentials for a process whose every id is `uid`/`gid`, with the
    /// given capability sets, in `userns`.
    pub fn new(uid: u32, gid: u32, caps: CapSet, userns: NsId) -> Cred {
        Cred {
            ruid: uid,
            euid: uid,
            suid: uid,
            fsuid: uid,
            rgid: gid,
            egid: gid,
            sgid: gid,
            fsgid: gid,
            groups: Vec::new(),
            effective: caps,
            permitted: caps,
            userns,
        }
    }

    /// True root in the initial namespace.
    pub fn init_root() -> Cred {
        Cred::new(0, 0, CapSet::full(), 0)
    }

    /// An unprivileged user in the initial namespace.
    pub fn init_user(uid: u32, gid: u32) -> Cred {
        Cred::new(uid, gid, CapSet::EMPTY, 0)
    }

    /// The real, effective, saved and filesystem ids of `kind`.
    pub fn ids_mut(&mut self, kind: IdKind) -> [&mut u32; 4] {
        let c = self;
        match kind {
            IdKind::User => [&mut c.ruid, &mut c.euid, &mut c.suid, &mut c.fsuid],
            IdKind::Group => [&mut c.rgid, &mut c.egid, &mut c.sgid, &mut c.fsgid],
        }
    }

    /// Group membership including the effective/filesystem gid.
    pub fn in_group(&self, kgid: u32) -> bool {
        self.fsgid == kgid || self.egid == kgid || self.groups.contains(&kgid)
    }
}

/// A process's identity in its own user namespace: the ids the get\*id
/// calls report and the set\*id calls change.
///
/// The kernel answers get\*id from one derived from the real [`Cred`].
/// Root emulators that remember a faked set\*id keep one per process as
/// the identity it *believes* it has: fakeroot and PRoot (§3), and the
/// `seccomp+ids` extension (§6 future work 2), which remembers nothing
/// else. apt's privilege-drop check needs exactly this memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ids {
    /// (ruid, euid, suid).
    pub uids: (u32, u32, u32),
    /// (rgid, egid, sgid).
    pub gids: (u32, u32, u32),
    /// Supplementary groups.
    pub groups: Vec<u32>,
}

impl Ids {
    /// Record `call` as if it succeeded, when it is a set\*id call:
    /// every id [`SysCall::set_ids`] names is set (all three for
    /// `setuid`/`setgid`), and `setgroups` replaces the groups. This is
    /// what the kernel does for a caller with the capability. Any other
    /// call returns false and changes nothing.
    pub fn apply(&mut self, call: &SysCall) -> bool {
        if let SysCall::Setgroups { groups } = call {
            self.groups.clone_from(groups);
            return true;
        }
        let Some((kind, named)) = call.set_ids() else {
            return false;
        };
        let (r, e, s) = match kind {
            IdKind::User => &mut self.uids,
            IdKind::Group => &mut self.gids,
        };
        for (id, new) in [r, e, s].into_iter().zip(named) {
            *id = new.unwrap_or(*id);
        }
        true
    }

    /// The reply to `call` when it is one of the seven get\*id calls;
    /// `None` for any other call.
    pub fn answer(&self, call: &SysCall) -> Option<SysRet> {
        let (u, g) = (self.uids, self.gids);
        Some(match call {
            SysCall::Getuid => SysRet::Id(u.0),
            SysCall::Geteuid => SysRet::Id(u.1),
            SysCall::Getgid => SysRet::Id(g.0),
            SysCall::Getegid => SysRet::Id(g.1),
            SysCall::Getresuid => SysRet::Triple(u.0, u.1, u.2),
            SysCall::Getresgid => SysRet::Triple(g.0, g.1, g.2),
            SysCall::Getgroups => SysRet::Groups(self.groups.clone()),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_syscalls::caps::Cap;

    #[test]
    fn new_sets_all_ids() {
        let c = Cred::new(7, 8, CapSet::EMPTY, 3);
        assert_eq!((c.ruid, c.euid, c.suid, c.fsuid), (7, 7, 7, 7));
        assert_eq!((c.rgid, c.egid, c.sgid, c.fsgid), (8, 8, 8, 8));
        assert_eq!(c.userns, 3);
    }

    #[test]
    fn init_root_has_all_caps() {
        let c = Cred::init_root();
        assert!(c.effective.has(Cap::Chown));
        assert!(c.effective.has(Cap::SysAdmin));
    }

    #[test]
    fn init_user_has_none() {
        let c = Cred::init_user(1000, 1000);
        assert!(c.effective.is_empty());
        assert!(c.permitted.is_empty());
    }

    #[test]
    fn membership_helpers() {
        let mut c = Cred::init_user(1000, 1000);
        *c.ids_mut(IdKind::User)[2] = 0;
        *c.ids_mut(IdKind::Group)[3] = 7;
        assert_eq!((c.ruid, c.euid, c.suid, c.fsuid), (1000, 1000, 0, 1000));
        assert_eq!((c.rgid, c.egid, c.sgid, c.fsgid), (1000, 1000, 1000, 7));
        assert!(c.in_group(1000));
        c.groups.push(44);
        assert!(c.in_group(44));
        assert!(!c.in_group(45));
    }

    fn start() -> Ids {
        Ids {
            uids: (1, 2, 3),
            gids: (4, 5, 6),
            groups: vec![7],
        }
    }

    #[test]
    fn set_id_calls_set_each_given_id() {
        let (n, a, b, c) = (None, Some(7), Some(8), Some(9));
        let (uids, gids) = ((1, 2, 3), (4, 5, 6));
        let cases = [
            (SysCall::Setuid { uid: 9 }, (9, 9, 9), gids),
            (SysCall::Setgid { gid: 9 }, uids, (9, 9, 9)),
            (SysCall::Setreuid { r: a, e: b }, (7, 8, 3), gids),
            (SysCall::Setreuid { r: a, e: n }, (7, 2, 3), gids),
            (SysCall::Setreuid { r: n, e: b }, (1, 8, 3), gids),
            (SysCall::Setreuid { r: n, e: n }, uids, gids),
            (SysCall::Setregid { r: a, e: b }, uids, (7, 8, 6)),
            (SysCall::Setregid { r: a, e: n }, uids, (7, 5, 6)),
            (SysCall::Setregid { r: n, e: b }, uids, (4, 8, 6)),
            (SysCall::Setregid { r: n, e: n }, uids, gids),
            (SysCall::Setresuid { r: a, e: b, s: c }, (7, 8, 9), gids),
            (SysCall::Setresuid { r: n, e: b, s: n }, (1, 8, 3), gids),
            (SysCall::Setresuid { r: a, e: n, s: c }, (7, 2, 9), gids),
            (SysCall::Setresuid { r: n, e: n, s: n }, uids, gids),
            (SysCall::Setresgid { r: a, e: b, s: c }, uids, (7, 8, 9)),
            (SysCall::Setresgid { r: n, e: b, s: n }, uids, (4, 8, 6)),
            (SysCall::Setresgid { r: a, e: n, s: c }, uids, (7, 5, 9)),
            (SysCall::Setresgid { r: n, e: n, s: n }, uids, gids),
        ];
        for (call, want_uids, want_gids) in cases {
            let mut ids = start();
            assert!(ids.apply(&call), "{call:?}");
            let want = (want_uids, want_gids, vec![7]);
            assert_eq!((ids.uids, ids.gids, ids.groups), want, "{call:?}");
        }
    }

    #[test]
    fn setgroups_replaces_the_groups() {
        for groups in [vec![10, 11], vec![]] {
            let mut ids = start();
            let call = SysCall::Setgroups {
                groups: groups.clone(),
            };
            assert!(ids.apply(&call));
            assert_eq!(ids, Ids { groups, ..start() });
        }
    }

    #[test]
    fn answers_each_get_id_call() {
        let ids = start();
        let answer = |call| ids.answer(&call);
        assert_eq!(answer(SysCall::Getuid), Some(SysRet::Id(1)));
        assert_eq!(answer(SysCall::Geteuid), Some(SysRet::Id(2)));
        assert_eq!(answer(SysCall::Getgid), Some(SysRet::Id(4)));
        assert_eq!(answer(SysCall::Getegid), Some(SysRet::Id(5)));
        assert_eq!(answer(SysCall::Getresuid), Some(SysRet::Triple(1, 2, 3)));
        assert_eq!(answer(SysCall::Getresgid), Some(SysRet::Triple(4, 5, 6)));
        assert_eq!(answer(SysCall::Getgroups), Some(SysRet::Groups(vec![7])));
    }

    #[test]
    fn other_calls_are_not_ids_business() {
        let others = [
            SysCall::Getpid,
            SysCall::Setfsuid { uid: 9 },
            SysCall::Setfsgid { gid: 9 },
            SysCall::Chown {
                path: "/f".into(),
                uid: Some(9),
                gid: Some(9),
            },
            SysCall::Capget,
        ];
        for call in others {
            let mut ids = start();
            assert_eq!(ids.answer(&call), None, "{call:?}");
            assert!(!ids.apply(&call), "{call:?}");
            assert_eq!(ids, start(), "{call:?} changed nothing");
        }
        let mut ids = start();
        assert!(!ids.apply(&SysCall::Getuid), "get*id records nothing");
        assert_eq!(ids, start());
        assert_eq!(ids.answer(&SysCall::Setuid { uid: 9 }), None);
    }
}
