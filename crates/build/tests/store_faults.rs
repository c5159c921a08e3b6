//! A `--cache-dir` build under an injected store write error: the
//! layer persist that hits the fault is absorbed and counted, the build
//! still lands the fault-free digest, and a fresh builder on the same
//! directory reproduces it.
//!
//! The store is created before the plan is installed: its `format`
//! file is an atomic write that would otherwise absorb the fault.

use zeroroot_core::Mode;
use zr_build::{BuildOptions, Builder};
use zr_fault::{points, FaultPlan};
use zr_kernel::Kernel;

const DF: &str = "FROM alpine:3.19\nRUN echo one > /a\nRUN echo two > /b\n";

/// A scratch store directory, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_store_write_error_is_absorbed_by_a_cache_dir_build() {
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("zr-build-store-fault-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let opts = BuildOptions::new("t", Mode::Seccomp);
    let want = {
        let clean = Builder::new().build(&mut Kernel::default_kernel(), DF, &opts);
        assert!(clean.success, "{}", clean.log_text());
        clean.image.expect("fault-free image").digest()
    };

    zr_store::Cas::open(&dir.0).expect("create the store");
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::STORE_WRITE_ERR, 1, 0, 0));
    let (mut builder, disk) = Builder::with_cache_dir(&dir.0).expect("open cache dir");
    let faulted = builder.build(&mut Kernel::default_kernel(), DF, &opts);
    assert!(faulted.success, "{}", faulted.log_text());
    assert_eq!(faulted.image.expect("faulted image").digest(), want);
    assert_eq!(zr_fault::counters().injected, 1);
    assert_eq!(disk.error_count(), 1, "{:?}", disk.last_error());

    let (mut fresh, _) = Builder::with_cache_dir(&dir.0).expect("reopen cache dir");
    let replay = fresh.build(&mut Kernel::default_kernel(), DF, &opts);
    assert!(replay.success, "{}", replay.log_text());
    assert_eq!(replay.image.expect("replayed image").digest(), want);
}
