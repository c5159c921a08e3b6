//! The shared payload extractor — where the chown happens (or doesn't).
//!
//! rpm and dpkg behave like cpio/tar running as root: create each entry,
//! then `fchownat` it to the archive header's owner, **unconditionally**.
//! apk checks first and skips the call when ownership already matches —
//! the difference between Figure 1b and Figure 1a.

use crate::repo::{Package, PayloadKind, PkgFile};
use zr_kernel::{Sys, SysError, SysExt};
use zr_syscalls::{mode, Errno};

/// chown discipline during extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChownBehavior {
    /// cpio/tar-as-root: always issue the call (rpm, dpkg).
    Always,
    /// apk: stat first, skip the syscall if ownership already matches.
    SkipIfMatching,
}

/// Why an install failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// A chown was refused (the cpio failure).
    Chown {
        /// Path that failed.
        path: String,
        /// Errno observed.
        errno: Errno,
    },
    /// A mknod was refused.
    Mknod {
        /// Path that failed.
        path: String,
        /// Errno observed.
        errno: Errno,
    },
    /// Some other filesystem failure.
    Fs {
        /// Path that failed.
        path: String,
        /// Errno observed.
        errno: Errno,
    },
    /// The process was killed mid-extraction.
    Killed,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Chown { path, .. } => write!(f, "cpio: chown failed - {path}"),
            InstallError::Mknod { path, .. } => write!(f, "cpio: mknod failed - {path}"),
            InstallError::Fs { path, errno } => write!(f, "cpio: {path}: {errno}"),
            InstallError::Killed => write!(f, "killed"),
        }
    }
}

fn errno_of(e: SysError) -> Result<Errno, InstallError> {
    match e {
        SysError::Errno(errno) => Ok(errno),
        SysError::Killed => Err(InstallError::Killed),
    }
}

/// Extract one payload entry.
pub fn extract_file(
    sys: &mut dyn Sys,
    f: &PkgFile,
    chown: ChownBehavior,
) -> Result<(), InstallError> {
    let fs_err = |path: &str, e: SysError| -> InstallError {
        match errno_of(e) {
            Ok(errno) => InstallError::Fs {
                path: path.into(),
                errno,
            },
            Err(k) => k,
        }
    };

    match &f.kind {
        PayloadKind::Dir => {
            match sys.mkdir_p(&f.path, f.perm) {
                Ok(()) => {}
                Err(e) => return Err(fs_err(&f.path, e)),
            }
            if let Err(e) = sys.chmod(&f.path, f.perm) {
                return Err(fs_err(&f.path, e));
            }
        }
        PayloadKind::File(content) => {
            if let Some((parent, _)) = zr_vfs::path::split_parent(&f.path) {
                if let Err(e) = sys.mkdir_p(&parent, 0o755) {
                    return Err(fs_err(&parent, e));
                }
            }
            if let Err(e) = sys.write_file(&f.path, f.perm, content.clone()) {
                return Err(fs_err(&f.path, e));
            }
            // umask may have trimmed bits (setuid!); restore the exact
            // archive mode like cpio does.
            if let Err(e) = sys.chmod(&f.path, f.perm) {
                return Err(fs_err(&f.path, e));
            }
        }
        PayloadKind::Symlink(target) => {
            if let Err(e) = sys.symlink(target, &f.path) {
                if !matches!(e, SysError::Errno(Errno::EEXIST)) {
                    return Err(fs_err(&f.path, e));
                }
            }
        }
        PayloadKind::CharDev(major, minor) => {
            let dev = mode::makedev(*major, *minor);
            if let Err(e) = sys.mknod(&f.path, mode::S_IFCHR | f.perm, dev) {
                let errno = errno_of(e)?;
                return Err(InstallError::Mknod {
                    path: f.path.clone(),
                    errno,
                });
            }
        }
    }

    // Ownership: the crux of the whole paper.
    let wants_chown = match chown {
        ChownBehavior::Always => !matches!(f.kind, PayloadKind::CharDev(..)) || sys.exists(&f.path),
        ChownBehavior::SkipIfMatching => match sys.lstat(&f.path) {
            Ok(st) => st.uid != f.uid || st.gid != f.gid,
            Err(_) => false, // faked mknod: nothing to chown, apk skips
        },
    };
    if wants_chown {
        let nofollow = matches!(f.kind, PayloadKind::Symlink(_));
        match sys.fchownat(&f.path, f.uid, f.gid, nofollow) {
            Ok(()) => {}
            Err(e) => {
                // A faked-away device node leaves no path; cpio's chown
                // would report ENOENT under the filter... except the
                // filter fakes chown too, so this branch only triggers
                // without emulation.
                let errno = errno_of(e)?;
                return Err(InstallError::Chown {
                    path: f.path.clone(),
                    errno,
                });
            }
        }
    }
    Ok(())
}

/// Extract a whole package.
pub fn extract_package(
    sys: &mut dyn Sys,
    pkg: &Package,
    chown: ChownBehavior,
) -> Result<(), InstallError> {
    for f in &pkg.files {
        extract_file(sys, f, chown)?;
    }
    Ok(())
}

/// Does this error trigger a transaction rollback? (Everything but a
/// kill does; a killed process cannot roll anything back.)
pub fn rollback_is_needed(e: &InstallError) -> bool {
    !matches!(e, InstallError::Killed)
}

/// Best-effort rollback of a partially extracted package (yum's
/// "rolling back" message).
pub fn rollback_package(sys: &mut dyn Sys, pkg: &Package) {
    for f in pkg.files.iter().rev() {
        match f.kind {
            PayloadKind::Dir => {
                let _ = sys.rmdir(&f.path);
            }
            _ => {
                let _ = sys.unlink(&f.path);
            }
        }
    }
}

/// Run a package's post-install script through /bin/sh.
pub fn run_post_install(
    sys: &mut dyn Sys,
    pkg: &Package,
    env: &[(String, String)],
) -> Result<i32, SysError> {
    match &pkg.post_install {
        None => Ok(0),
        Some(script) => sys.spawn_owned(
            "/bin/sh",
            vec!["/bin/sh".into(), "-c".into(), script.clone()],
            env.to_vec(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::PkgFile;
    use zr_kernel::{ContainerConfig, ContainerType, Kernel};
    use zr_vfs::fs::Fs;

    fn container() -> (Kernel, u32) {
        let mut k = Kernel::default_kernel();
        let mut image = Fs::new();
        image.mkdir_p("/usr", 0o755).unwrap();
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
    fn root_owned_file_extracts_with_noop_chown() {
        let (mut k, pid) = container();
        let f = PkgFile::file("/usr/bin/x", 0o755, b"payload");
        let mut ctx = k.ctx(pid);
        extract_file(&mut ctx, &f, ChownBehavior::Always).expect("0:0 chown is a no-op");
        let st = ctx.stat("/usr/bin/x").unwrap();
        assert_eq!(st.mode & 0o777, 0o755);
    }

    #[test]
    fn foreign_owned_file_fails_like_cpio() {
        let (mut k, pid) = container();
        let f = PkgFile::file("/usr/bin/keysign", 0o4755, b"x").owned(0, 998);
        let mut ctx = k.ctx(pid);
        match extract_file(&mut ctx, &f, ChownBehavior::Always) {
            Err(InstallError::Chown { path, errno }) => {
                assert_eq!(path, "/usr/bin/keysign");
                assert_eq!(errno, Errno::EINVAL, "unmapped id");
            }
            other => panic!("expected chown failure, got {other:?}"),
        }
    }

    #[test]
    fn skip_if_matching_avoids_the_syscall() {
        let (mut k, pid) = container();
        let f = PkgFile::file("/usr/bin/quiet", 0o755, b"x");
        {
            let mut ctx = k.ctx(pid);
            extract_file(&mut ctx, &f, ChownBehavior::SkipIfMatching).unwrap();
        }
        assert_eq!(
            k.counters.privileged(),
            0,
            "apk-style extraction must not touch privileged syscalls"
        );
    }

    #[test]
    fn always_issues_the_syscall_even_when_matching() {
        let (mut k, pid) = container();
        let f = PkgFile::file("/usr/bin/loud", 0o755, b"x");
        {
            let mut ctx = k.ctx(pid);
            extract_file(&mut ctx, &f, ChownBehavior::Always).unwrap();
        }
        assert!(
            k.counters.privileged() > 0,
            "cpio-style extraction chowns unconditionally"
        );
    }

    #[test]
    fn device_node_fails_unprivileged() {
        let (mut k, pid) = container();
        let f = PkgFile {
            path: "/dev/null".into(),
            perm: 0o666,
            uid: 0,
            gid: 0,
            kind: PayloadKind::CharDev(1, 3),
        };
        let mut ctx = k.ctx(pid);
        assert!(matches!(
            extract_file(&mut ctx, &f, ChownBehavior::Always),
            Err(InstallError::Mknod {
                errno: Errno::EPERM,
                ..
            })
        ));
    }

    #[test]
    fn rollback_removes_files() {
        let (mut k, pid) = container();
        let pkg = crate::repo::Package {
            name: "p".into(),
            files: vec![
                PkgFile::dir("/opt-p", 0o755),
                PkgFile::file("/opt-p/a", 0o644, b"1"),
            ],
            ..Default::default()
        };
        let mut ctx = k.ctx(pid);
        extract_package(&mut ctx, &pkg, ChownBehavior::SkipIfMatching).unwrap();
        assert!(ctx.exists("/opt-p/a"));
        rollback_package(&mut ctx, &pkg);
        assert!(!ctx.exists("/opt-p/a"));
        assert!(!ctx.exists("/opt-p"));
    }

    #[test]
    fn setuid_bit_restored_after_umask() {
        let (mut k, pid) = container();
        let f = PkgFile::file("/usr/bin/su", 0o4755, b"x");
        let mut ctx = k.ctx(pid);
        extract_file(&mut ctx, &f, ChownBehavior::SkipIfMatching).unwrap();
        let st = ctx.stat("/usr/bin/su").unwrap();
        assert_eq!(st.mode & 0o7777, 0o4755);
    }
}
