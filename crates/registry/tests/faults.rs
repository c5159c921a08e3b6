//! Pushes under injected server-side store faults: the server answers
//! 500, and the client's retry policy reruns the failed blob upload
//! instead of failing the whole push.
//!
//! A fault plan is process-wide, so every store this binary writes to
//! (the registry's CAS, the exported layout) is created before the
//! plan is installed: the CAS `format` file and the layout files are
//! atomic writes that would otherwise absorb the injected fault.

mod common;

use common::{exported_alpine, loopback, Scratch};
use zr_fault::{points, FaultPlan};
use zr_registry::RemoteRegistry;

#[test]
fn push_retries_a_server_store_write_error() {
    let scratch = Scratch::new("push-store-fault");
    let server = loopback(&scratch);
    let layout = exported_alpine(&scratch);
    let want = zr_store::import(&layout)
        .expect("import exported layout")
        .digest();
    let client = RemoteRegistry::new(server.addr().to_string());

    let _guard = zr_fault::install(&FaultPlan::new().counted(points::STORE_WRITE_ERR, 1, 0, 0));
    client
        .push_layout(&layout, "alpine", "3.19")
        .expect("a transient server store error is retried, not fatal");
    let c = zr_fault::counters();
    assert_eq!(c.injected, 1, "{c}");
    assert!(c.retries >= 1, "the 500 must be retried: {c}");

    let pulled = client.pull_image("alpine", "3.19").expect("pull image");
    assert_eq!(pulled.digest(), want);
}
