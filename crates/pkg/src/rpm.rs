//! rpm(8) — the low-level installer whose cpio unpack is Figure 1b's
//! point of failure.
//!
//! rpm extracts each archive entry and chowns it to the header's owner,
//! *unconditionally*, aborting the transaction on the first failure:
//!
//! ```text
//! Error unpacking rpm package openssh-7.4p1-23.el7_9.x86_64
//! error: unpacking of archive failed on file …: cpio: chown
//! ```

use std::sync::Arc;

use crate::install::{extract_package, run_post_install, ChownBehavior, InstallError};
use crate::repo::{Package, Repo};
use zr_kernel::{ExecEnv, Program, Sys, SysExt};

/// Install a single package rpm-style. Prints the paper's log shapes.
/// `index`/`total` drive the `(3/3)`-style progress column.
pub fn rpm_install_one(
    sys: &mut dyn Sys,
    pkg: &Package,
    index: usize,
    total: usize,
    env: &[(String, String)],
) -> Result<(), InstallError> {
    sys.println(format!(
        "  Installing : {}-{}.x86_64 {:>20}/{}",
        pkg.name, pkg.version, index, total
    ));
    match extract_package(sys, pkg, ChownBehavior::Always) {
        Ok(()) => {}
        Err(e) => {
            sys.println(format!(
                "Error unpacking rpm package {}-{}.x86_64",
                pkg.name, pkg.version
            ));
            sys.println(format!("error: unpacking of archive failed: {e}"));
            return Err(e);
        }
    }
    let _ = sys.append_file(
        "/var/lib/rpm/Packages",
        format!("{}-{}\n", pkg.name, pkg.version).as_bytes(),
    );
    let _ = run_post_install(sys, pkg, env);
    Ok(())
}

/// The `/usr/bin/rpm` binary: `rpm -i NAME…` against the repo.
pub struct Rpm {
    repo: Arc<Repo>,
}

impl Rpm {
    /// rpm backed by `repo`.
    pub fn new(repo: Arc<Repo>) -> Rpm {
        Rpm { repo }
    }
}

impl Program for Rpm {
    fn run(&mut self, sys: &mut dyn Sys, env: &mut ExecEnv) -> i32 {
        let args = env.args();
        let names: Vec<&str> = args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .copied()
            .collect();
        if names.is_empty() || !args.iter().any(|a| a.starts_with("-i") || *a == "-U") {
            sys.println("rpm: usage: rpm -i PACKAGE…".to_string());
            return 1;
        }
        let order = match self.repo.resolve(&names) {
            Ok(o) => o,
            Err(e) => {
                sys.println(format!("error: {e}"));
                return 1;
            }
        };
        let total = order.len();
        for (i, pkg) in order.iter().enumerate() {
            if rpm_install_one(sys, pkg, i + 1, total, &env.env).is_err() {
                return 1;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::centos_repo;
    use zr_image::{ImageRef, Registry};
    use zr_kernel::{ContainerConfig, ContainerType, Kernel};

    fn centos_container() -> (Kernel, u32) {
        let mut k = Kernel::default_kernel();
        let mut img = Registry::new()
            .pull(&ImageRef::parse("centos:7").unwrap())
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
    fn rpm_install_openssh_fails_on_chown() {
        let (mut k, pid) = centos_container();
        let mut rpm = Rpm::new(Arc::new(centos_repo()));
        let mut env = ExecEnv {
            argv: vec!["rpm".into(), "-i".into(), "openssh".into()],
            ..Default::default()
        };
        let code = {
            let mut ctx = k.ctx(pid);
            rpm.run(&mut ctx, &mut env)
        };
        assert_eq!(code, 1);
        let console = k.take_console().join("\n");
        assert!(console.contains("cpio: chown"), "{console}");
        assert!(
            console.contains("Error unpacking rpm package openssh"),
            "{console}"
        );
    }

    #[test]
    fn rpm_install_sl_succeeds_all_root_files() {
        let (mut k, pid) = centos_container();
        let mut rpm = Rpm::new(Arc::new(centos_repo()));
        let mut env = ExecEnv {
            argv: vec!["rpm".into(), "-i".into(), "sl".into()],
            ..Default::default()
        };
        let code = {
            let mut ctx = k.ctx(pid);
            rpm.run(&mut ctx, &mut env)
        };
        assert_eq!(code, 0, "{:?}", k.take_console());
        // rpm DID issue privileged chown calls; they were no-ops.
        assert!(k.counters.privileged() > 0);
    }
}
