//! Experiment E-consist: the consistency matrix of §6.
//!
//! Zero-consistency emulation tells *simple lies*: a faked chown is not
//! reflected by a later stat. Consistent emulators tell *complex lies*:
//! the pretended state is remembered and replayed. This file pins both
//! behaviours, per strategy, at the syscall level.

use zeroroot::core::{make, Mode, PrepareEnv};
use zeroroot::kernel::{ContainerConfig, ContainerType, Kernel};
use zeroroot::SysExt;
use zr_vfs::fs::Fs;

fn armed_container(mode: Mode) -> (Kernel, u32, Box<dyn zeroroot::RootEmulation>) {
    let mut k = Kernel::default_kernel();
    let mut image = Fs::new();
    image.mkdir_p("/usr/bin", 0o755).unwrap();
    // Provision fakeroot so every strategy can arm.
    let root = zr_vfs::Access::root();
    image
        .write_file("/usr/bin/fakeroot", 0o755, b"\x7fELF".to_vec(), &root)
        .unwrap();
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
    let strategy = make(mode);
    let env = PrepareEnv {
        fakeroot_in_image: true,
        image_libc: "glibc-2.36".into(),
        host_libc: "glibc-2.36".into(),
    };
    strategy
        .prepare(&mut k, c.init_pid, &env)
        .expect("arm strategy");
    (k, c.init_pid, strategy)
}

/// chown-then-stat: does the lie persist?
fn chown_stat_consistent(mode: Mode) -> (bool, bool) {
    let (mut k, pid, strategy) = armed_container(mode);
    let (chown_ok, observed);
    {
        let mut ctx = k.ctx(pid);
        ctx.write_file("/probe", 0o644, b"x".to_vec()).unwrap();
        chown_ok = ctx.chown("/probe", 42, 43).is_ok();
        let st = ctx.stat("/probe").unwrap();
        observed = (st.uid, st.gid) == (42, 43);
    }
    strategy.teardown(&mut k);
    (chown_ok, observed)
}

#[test]
fn none_mode_is_honest() {
    let (chown_ok, observed) = chown_stat_consistent(Mode::None);
    assert!(!chown_ok, "the kernel refuses");
    assert!(!observed);
}

#[test]
fn seccomp_lies_inconsistently() {
    let (chown_ok, observed) = chown_stat_consistent(Mode::Seccomp);
    assert!(chown_ok, "the filter reports success");
    assert!(!observed, "…but stat tells the truth: zero consistency");
}

#[test]
fn fakeroot_lies_consistently() {
    let (chown_ok, observed) = chown_stat_consistent(Mode::Fakeroot);
    assert!(chown_ok);
    assert!(observed, "the daemon remembers the lie");
}

#[test]
fn proot_lies_consistently() {
    for mode in [Mode::Proot, Mode::ProotAccelerated] {
        let (chown_ok, observed) = chown_stat_consistent(mode);
        assert!(chown_ok, "{mode:?}");
        assert!(observed, "{mode:?}");
    }
}

#[test]
fn id_consistency_is_ids_only() {
    // §6 future work 2 gives uid/gid consistency and nothing else.
    let (mut k, pid, strategy) = armed_container(Mode::SeccompIdConsistent);
    {
        let mut ctx = k.ctx(pid);
        ctx.setresuid(Some(100), Some(100), Some(100)).unwrap();
        assert_eq!(ctx.getresuid(), (100, 100, 100), "ids are consistent");
        ctx.write_file("/probe", 0o644, vec![]).unwrap();
        ctx.chown("/probe", 42, 43).unwrap();
        let st = ctx.stat("/probe").unwrap();
        assert_ne!((st.uid, st.gid), (42, 43), "files are still honest");
    }
    strategy.teardown(&mut k);
}

#[test]
fn consistent_emulators_survive_unlink_recreate() {
    // Stale state must not leak across inode reuse.
    for mode in [Mode::Fakeroot, Mode::Proot] {
        let (mut k, pid, strategy) = armed_container(mode);
        {
            let mut ctx = k.ctx(pid);
            ctx.write_file("/a", 0o644, vec![]).unwrap();
            ctx.chown("/a", 42, 43).unwrap();
            ctx.unlink("/a").unwrap();
            ctx.write_file("/b", 0o644, vec![]).unwrap();
            let st = ctx.stat("/b").unwrap();
            assert_eq!((st.uid, st.gid), (0, 0), "{mode:?}: no stale overlay");
        }
        strategy.teardown(&mut k);
    }
}

#[test]
fn consistent_emulators_forget_inodes_freed_by_rename_and_rmdir() {
    // A rename over an existing name and an rmdir free an inode just as
    // the last unlink does, and the VFS hands its number to the next
    // file created.
    for mode in [Mode::Fakeroot, Mode::Proot, Mode::ProotAccelerated] {
        let (mut k, pid, strategy) = armed_container(mode);
        {
            let mut ctx = k.ctx(pid);
            let owner = |ctx: &mut zeroroot::kernel::SyscallCtx<'_>, path: &str| {
                let st = ctx.stat(path).unwrap();
                (st.ino, st.uid, st.gid)
            };
            ctx.write_file("/a", 0o644, vec![]).unwrap();
            ctx.chown("/a", 42, 43).unwrap();
            ctx.write_file("/b", 0o644, vec![]).unwrap();
            ctx.chown("/b", 44, 45).unwrap();
            let (replaced, _, _) = owner(&mut ctx, "/a");
            let (moved, _, _) = owner(&mut ctx, "/b");
            ctx.rename("/b", "/a").unwrap();
            assert_eq!(owner(&mut ctx, "/a"), (moved, 44, 45), "{mode:?}");
            ctx.rename("/a", "/a").unwrap(); // onto itself: frees nothing
            assert_eq!(owner(&mut ctx, "/a"), (moved, 44, 45), "{mode:?}");
            ctx.write_file("/c", 0o644, vec![]).unwrap();
            let (ino, uid, gid) = owner(&mut ctx, "/c");
            assert_eq!(ino, replaced, "{mode:?}: the replaced inode is reused");
            assert_eq!((uid, gid), (0, 0), "{mode:?}: stale overlay after rename");

            ctx.mkdir("/d", 0o755).unwrap();
            ctx.chown("/d", 42, 43).unwrap();
            let (removed, _, _) = owner(&mut ctx, "/d");
            ctx.rmdir("/d").unwrap();
            ctx.write_file("/e", 0o644, vec![]).unwrap();
            let (ino, uid, gid) = owner(&mut ctx, "/e");
            assert_eq!(ino, removed, "{mode:?}: the removed inode is reused");
            assert_eq!((uid, gid), (0, 0), "{mode:?}: stale overlay after rmdir");

            // A replaced name whose inode has another link frees nothing.
            ctx.link("/e", "/f").unwrap();
            ctx.chown("/e", 46, 47).unwrap();
            ctx.rename("/c", "/e").unwrap();
            assert_eq!(owner(&mut ctx, "/f"), (removed, 46, 47), "{mode:?}");
        }
        strategy.teardown(&mut k);
    }
}

#[test]
fn ids_only_consistency_answers_like_the_full_emulators() {
    // §6 future work 2 keeps exactly the identity half of the consistent
    // emulators' memory: the same set*id sequence must read back the
    // same under all four, and as the starting identity under the plain
    // filter.
    use zeroroot::kernel::{Sys, SysCall};

    let consistent = [
        Mode::SeccompIdConsistent,
        Mode::Fakeroot,
        Mode::Proot,
        Mode::ProotAccelerated,
    ];
    for mode in consistent.into_iter().chain([Mode::Seccomp]) {
        let (mut k, pid, strategy) = armed_container(mode);
        let seen = {
            let mut ctx = k.ctx(pid);
            ctx.setgroups(&[4, 5]).unwrap();
            ctx.setresgid(Some(65534), Some(65534), Some(65534))
                .unwrap();
            ctx.setresuid(Some(100), Some(100), Some(100)).unwrap();
            ctx.call(SysCall::Setreuid {
                r: None,
                e: Some(7),
            })
            .unwrap();
            ctx.call(SysCall::Setregid {
                r: Some(8),
                e: None,
            })
            .unwrap();
            let (uids, gids) = (ctx.getresuid(), ctx.getresgid());
            assert_eq!((ctx.getuid(), ctx.geteuid()), (uids.0, uids.1), "{mode:?}");
            assert_eq!((ctx.getgid(), ctx.getegid()), (gids.0, gids.1), "{mode:?}");
            (uids, gids, ctx.getgroups())
        };
        strategy.teardown(&mut k);
        let expected = if mode == Mode::Seccomp {
            ((0, 0, 0), (0, 0, 0), vec![])
        } else {
            ((100, 7, 100), (8, 65534, 65534), vec![4, 5])
        };
        assert_eq!(seen, expected, "{mode:?}");
    }
}

#[test]
fn fake_device_nodes_only_exist_in_the_story() {
    // fakeroot/proot: mknod produces a placeholder whose stat claims
    // device-ness; seccomp: mknod produces nothing at all.
    use zeroroot::syscalls::mode::{file_type, S_IFCHR, S_IFREG};

    let (mut k, pid, strategy) = armed_container(Mode::Fakeroot);
    {
        let mut ctx = k.ctx(pid);
        ctx.mknod("/dev-null", S_IFCHR | 0o666, 0x103).unwrap();
        let st = ctx.stat("/dev-null").unwrap();
        assert_eq!(file_type(st.mode), S_IFCHR, "consistent: stat says device");
    }
    strategy.teardown(&mut k);
    // The backing object is really a regular file.
    let fsid = k.process(pid).fs;
    let real = k
        .fs(fsid)
        .stat(
            "/dev-null",
            &zr_vfs::Access::root(),
            zr_vfs::FollowMode::Follow,
        )
        .unwrap();
    assert_eq!(file_type(real.mode), S_IFREG, "placeholder under the lie");

    let (mut k, pid, strategy) = armed_container(Mode::Seccomp);
    {
        let mut ctx = k.ctx(pid);
        ctx.mknod("/dev-null", S_IFCHR | 0o666, 0x103).unwrap();
        assert!(!ctx.exists("/dev-null"), "zero consistency: nothing there");
    }
    strategy.teardown(&mut k);
}
