//! Byte accounting of the two in-memory caches under concurrent use:
//! the layer store's deduplicating ledger and the registry's
//! pull-through blob cache each stay within budget, and their counters
//! add up, when many threads insert, look up, pull and re-budget at
//! once.

use std::sync::{Arc, Barrier};

use zr_image::{
    CacheKey, Distro, ImageMeta, ImageRef, Layer, LayerState, LayerStore, Registry, StageSnapshot,
};
use zr_vfs::{Access, Fs};

fn layer(id: &CacheKey, parent: Option<&CacheKey>, fs: Fs) -> Layer {
    Layer {
        id: id.clone(),
        parent: parent.cloned(),
        fs,
        state: LayerState {
            args: vec![],
            stage: Some(StageSnapshot {
                meta: ImageMeta {
                    name: "t".into(),
                    tag: "1".into(),
                    distro: Distro::Alpine,
                    libc: "musl-1.2".into(),
                    env: vec![],
                    binaries: vec![],
                },
                env: vec![],
                shell: vec!["/bin/sh".into(), "-c".into()],
                cwd: "/".into(),
            }),
        },
    }
}

#[test]
fn concurrent_inserts_keep_layer_byte_accounting() {
    let store = LayerStore::new();
    // One 16 KiB blob every snapshot shares; each snapshot adds a small
    // file of its own.
    let mut base = Fs::new();
    base.write_file("/big", 0o644, vec![7u8; 16 * 1024], &Access::root())
        .unwrap();
    let start = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = store.clone();
            let base = base.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut parent: Option<CacheKey> = None;
                for i in 0..64 {
                    let instruction = format!("RUN t{t} step {i}");
                    let key = CacheKey::compute(parent.as_ref(), &instruction, "", "none");
                    let mut fs = base.clone();
                    let own = format!("{t}/{i}").into_bytes();
                    fs.write_file("/own", 0o644, own, &Access::root()).unwrap();
                    store.insert(layer(&key, parent.as_ref(), fs));
                    if let Some(p) = &parent {
                        let _ = store.peek_state(p);
                        let _ = store.materialize(p);
                    }
                    if i % 16 == 15 {
                        let kib = if store.budget() == 32 * 1024 { 64 } else { 32 };
                        store.set_budget(kib * 1024);
                    }
                    parent = Some(key);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(store.bytes() <= store.budget(), "{}", store.stats());
    assert!(store.stats().evictions > 0);
    store.clear();
    let stats = store.stats();
    assert_eq!((stats.bytes, stats.logical_bytes, stats.blobs), (0, 0, 0));
}

#[test]
fn concurrent_pulls_keep_blob_byte_accounting() {
    let r = Arc::new(Registry::new());
    let catalog: Vec<ImageRef> = Registry::catalog()
        .into_iter()
        .map(|reference| ImageRef::parse(reference).unwrap())
        .collect();
    for reference in &catalog {
        r.pull(reference).unwrap();
    }
    // Half the catalog fits: concurrent pulls keep evicting and
    // refetching while others hit.
    r.set_blob_budget(r.blob_bytes() / 2);
    let start = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let r = Arc::clone(&r);
            let catalog = catalog.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..40 {
                    r.pull(&catalog[(t + i) % catalog.len()]).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = r.stats();
    assert!(stats.blob_bytes <= stats.blob_budget, "{stats:?}");
    assert_eq!(stats.pulls, 5 + 8 * 40);
    assert_eq!(stats.fetches + stats.blob_hits, stats.pulls, "{stats:?}");
    assert!(stats.evictions >= 1, "{stats:?}");
}
