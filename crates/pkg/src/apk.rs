//! apk(8) — Alpine's package manager (Figure 1a).
//!
//! Installs by writing files as the calling user and skipping ownership
//! calls whenever the observed owner already matches the archive header —
//! which, in a container where "root" is the image owner, is always. Net
//! effect: **zero privileged syscalls**, so `--force=none` works.

use std::sync::Arc;

use crate::install::{extract_package, run_post_install, ChownBehavior};
use crate::repo::Repo;
use zr_kernel::{ExecEnv, Program, Sys, SysExt};

/// The apk program.
pub struct Apk {
    repo: Arc<Repo>,
}

impl Apk {
    /// apk backed by `repo`.
    pub fn new(repo: Arc<Repo>) -> Apk {
        Apk { repo }
    }

    fn installed_count(&self, sys: &mut dyn Sys) -> usize {
        sys.read_file("/lib/apk/db/installed")
            .map(|data| {
                String::from_utf8_lossy(&data)
                    .lines()
                    .filter(|l| l.starts_with("P:"))
                    .count()
            })
            .unwrap_or(0)
    }

    fn add(&self, sys: &mut dyn Sys, env: &ExecEnv, names: &[&str]) -> i32 {
        sys.println(format!(
            "fetch {}/main/x86_64/APKINDEX.tar.gz",
            self.repo.url
        ));
        sys.println(format!(
            "fetch {}/community/x86_64/APKINDEX.tar.gz",
            self.repo.url
        ));

        let order = match self.repo.resolve(names) {
            Ok(o) => o,
            Err(e) => {
                sys.println(format!("ERROR: {e}"));
                return 1;
            }
        };
        let total = order.len();
        let mut installed_kib = 0u32;
        for (i, pkg) in order.iter().enumerate() {
            sys.println(format!(
                "({}/{}) Installing {} ({})",
                i + 1,
                total,
                pkg.name,
                pkg.version
            ));
            if let Err(e) = extract_package(sys, pkg, ChownBehavior::SkipIfMatching) {
                sys.println(format!("ERROR: {}: {e}", pkg.name));
                return 1;
            }
            let _ = sys.append_file(
                "/lib/apk/db/installed",
                format!("P:{}\nV:{}\n\n", pkg.name, pkg.version).as_bytes(),
            );
            if run_post_install(sys, pkg, &env.env).unwrap_or(1) != 0 {
                sys.println(format!("ERROR: {}: post-install failed", pkg.name));
                return 1;
            }
            installed_kib += pkg.size_kib;
        }
        for name in names {
            let _ = sys.append_file("/etc/apk/world", format!("{name}\n").as_bytes());
        }
        // Alpine's trigger line, then the summary.
        sys.println("Executing busybox-1.36.1-r15.trigger".to_string());
        let total_pkgs = self.installed_count(sys);
        let mib = (installed_kib / 1024).max(1) + 7; // base image floor
        sys.println(format!("OK: {mib} MiB in {total_pkgs} packages"));
        0
    }
}

impl Program for Apk {
    fn run(&mut self, sys: &mut dyn Sys, env: &mut ExecEnv) -> i32 {
        let args = env.args();
        let args: Vec<&str> = args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .copied()
            .collect();
        match args.split_first() {
            Some((&"add", names)) if !names.is_empty() => {
                let env_clone = env.clone();
                self.add(sys, &env_clone, names)
            }
            Some((&"update", _)) => {
                sys.println(format!(
                    "fetch {}/main/x86_64/APKINDEX.tar.gz",
                    self.repo.url
                ));
                sys.println("OK: 24 distinct packages available".to_string());
                0
            }
            _ => {
                sys.println("apk: usage: apk add PKG…".to_string());
                1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::alpine_repo;
    use zr_image::{ImageRef, Registry};
    use zr_kernel::{ContainerConfig, ContainerType, Kernel};

    fn alpine_container() -> (Kernel, u32) {
        let mut k = Kernel::default_kernel();
        let mut img = Registry::new()
            .pull(&ImageRef::parse("alpine:3.19").unwrap())
            .unwrap();
        img.chown_all(1000, 1000);
        let c = k
            .container_create(
                Kernel::HOST_USER_PID,
                ContainerConfig {
                    ctype: ContainerType::TypeIII,
                    image: img.fs,
                },
            )
            .unwrap();
        (k, c.init_pid)
    }

    #[test]
    fn apk_add_sl_no_privileged_syscalls() {
        // Figure 1a in miniature.
        let (mut k, pid) = alpine_container();
        let mut apk = Apk::new(Arc::new(alpine_repo()));
        let mut env = ExecEnv {
            argv: vec!["apk".into(), "add".into(), "sl".into()],
            ..Default::default()
        };
        let code = {
            let mut ctx = k.ctx(pid);
            apk.run(&mut ctx, &mut env)
        };
        assert_eq!(code, 0);
        assert_eq!(k.counters.privileged(), 0, "Figure 1a: no privileged calls");
        let console = k.take_console().join("\n");
        assert!(
            console.contains("(3/3) Installing sl (5.02-r1)"),
            "{console}"
        );
        assert!(console.contains("Executing busybox-1.36.1-r15.trigger"));
        assert!(console.contains("OK:"), "{console}");
        // The payload actually landed.
        let mut ctx = k.ctx(pid);
        assert!(ctx.exists("/usr/bin/sl"));
    }

    #[test]
    fn unknown_package_errors() {
        let (mut k, pid) = alpine_container();
        let mut apk = Apk::new(Arc::new(alpine_repo()));
        let mut env = ExecEnv {
            argv: vec!["apk".into(), "add".into(), "doom".into()],
            ..Default::default()
        };
        let code = {
            let mut ctx = k.ctx(pid);
            apk.run(&mut ctx, &mut env)
        };
        assert_eq!(code, 1);
    }
}
