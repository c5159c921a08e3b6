//! Budget persistence: the store's byte ceiling survives reopen
//! without the flag, explicit flags override it, corruption is
//! quarantined, and a persisted budget is enforced at open.

mod common;

use common::Scratch;
use zr_store::Cas;

#[test]
fn budget_persists_across_reopen() {
    let dir = Scratch::new("budget-persist");
    {
        let cas = Cas::open(dir.path()).unwrap();
        assert_eq!(cas.budget(), 0, "a fresh store is unlimited");
        cas.set_budget(4096).unwrap();
    }
    {
        // Opened WITHOUT any flag: the recorded budget still applies.
        let cas = Cas::open(dir.path()).unwrap();
        assert_eq!(cas.budget(), 4096);
        // An explicit flag overrides, and the override persists too.
        cas.set_budget(8192).unwrap();
    }
    {
        let cas = Cas::open(dir.path()).unwrap();
        assert_eq!(cas.budget(), 8192);
        // set_budget(0) records "explicitly unlimited", not "unset".
        cas.set_budget(0).unwrap();
    }
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.budget(), 0);
}

#[test]
fn corrupt_config_is_quarantined_not_fatal() {
    let dir = Scratch::new("budget-corrupt");
    {
        let cas = Cas::open(dir.path()).unwrap();
        cas.set_budget(4096).unwrap();
    }
    std::fs::write(dir.join("config"), b"not a config record").unwrap();
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.budget(), 0, "corrupt config falls back to unlimited");
    assert!(
        cas.stats().corrupt_roots >= 1,
        "the quarantine must be counted"
    );
    assert!(
        !dir.join("config").exists(),
        "the corrupt record is removed, not re-read forever"
    );
    // The store still works, and a fresh budget can be recorded.
    cas.set_budget(2048).unwrap();
    drop(cas);
    assert_eq!(Cas::open(dir.path()).unwrap().budget(), 2048);
}

#[test]
fn persisted_budget_is_enforced_at_open() {
    let dir = Scratch::new("budget-enforce");
    {
        // Writer A never hears about any budget (opened before one is
        // recorded) and overfills the store...
        let writer = Cas::open(dir.path()).unwrap();
        // ...while writer B records a tiny budget; B's own view is
        // empty, so nothing is evicted yet.
        let config_only = Cas::open(dir.path()).unwrap();
        config_only.set_budget(64).unwrap();
        let digest = writer.put(&[7u8; 4096]).unwrap();
        writer.pin("fat-root", &[digest]).unwrap();
    }
    // The next open restores the 64-byte budget and enforces it
    // immediately: the over-budget root is evicted before the store is
    // handed out.
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.budget(), 64);
    assert!(cas.roots().is_empty(), "over-budget root evicted at open");
    assert!(cas.stats().evicted_roots >= 1);
}

#[test]
fn only_a_commit_that_pins_enforces_the_budget() {
    // A blob uploaded ahead of the pin that will name it (a registry
    // push) must not be evicted, nor evict anything, on arrival.
    let dir = Scratch::new("budget-bare-put");
    let cas = Cas::open(dir.path()).unwrap();
    let old = cas.put(&[1u8; 4096]).unwrap();
    cas.pin("old-root", std::slice::from_ref(&old)).unwrap();
    cas.set_budget(6 * 1024).unwrap();

    let fresh = cas.put(&[2u8; 4096]).unwrap();
    assert_eq!(
        cas.roots(),
        vec!["old-root".to_string()],
        "a put never evicts"
    );
    assert!(cas.stats().physical_bytes > cas.budget());
    assert!(cas.contains(&old) && cas.contains(&fresh));

    // The pin that names the new blob runs enforcement: the older root
    // goes, the freshly pinned blob stays.
    cas.pin("fresh-root", std::slice::from_ref(&fresh)).unwrap();
    assert_eq!(cas.roots(), vec!["fresh-root".to_string()]);
    assert!(!cas.contains(&old));
    assert_eq!(cas.get(&fresh).unwrap(), vec![2u8; 4096]);
}
