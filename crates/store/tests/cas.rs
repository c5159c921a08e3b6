//! CAS durability contract: atomic writes, verification on read,
//! gc from the pinned roots, crash-safe reopen, and two independent handles (the
//! moral equivalent of two processes) sharing one directory.

mod common;

use common::Scratch;
use proptest::prelude::*;
use std::sync::Arc;
use zr_store::{Cas, StoreError, FORMAT};

#[test]
fn put_get_roundtrip_and_dedup() {
    let dir = Scratch::new("roundtrip");
    let cas = Cas::open(dir.path()).unwrap();
    let digest = cas.put(b"hello world").unwrap();
    assert_eq!(digest.len(), 64);
    assert!(cas.contains(&digest));
    assert_eq!(cas.get(&digest).unwrap(), b"hello world");
    // Idempotent put: same content, no second write.
    let again = cas.put(b"hello world").unwrap();
    assert_eq!(again, digest);
    let stats = cas.stats();
    assert_eq!(stats.writes, 1);
    assert_eq!(stats.dedup_skips, 1);
    assert_eq!(stats.blobs, 1);
}

#[test]
fn corruption_is_detected_on_read() {
    let dir = Scratch::new("corrupt");
    let cas = Cas::open(dir.path()).unwrap();
    let digest = cas.put(b"pristine").unwrap();
    let path = dir.join(&format!("blobs/sha256/{digest}"));
    std::fs::write(&path, b"tampered").unwrap();
    assert!(matches!(cas.get(&digest), Err(StoreError::Corrupt(_))));
    assert!(matches!(cas.get_blob(&digest), Err(StoreError::Corrupt(_))));
}

#[test]
fn reopen_after_kill_recovers_partial_tmp_files() {
    let dir = Scratch::new("crash");
    let digest;
    {
        let cas = Cas::open(dir.path()).unwrap();
        digest = cas.put(b"survivor").unwrap();
        // Simulate a writer killed mid-put: a partial staging file that
        // never got renamed into place. The pid is above Linux's
        // pid_max, so the dead-writer check cannot mistake it for a
        // live process.
        std::fs::write(dir.join("tmp/w4194305-0.tmp"), b"torn wr").unwrap();
    }
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.stats().recovered_tmp, 1, "stray tmp file deleted");
    assert_eq!(cas.get(&digest).unwrap(), b"survivor", "real blob intact");
    assert!(
        std::fs::read_dir(dir.join("tmp")).unwrap().next().is_none(),
        "staging area is empty after recovery"
    );
}

#[test]
fn format_version_is_enforced() {
    let dir = Scratch::new("version");
    {
        Cas::open(dir.path()).unwrap();
    }
    assert_eq!(std::fs::read_to_string(dir.join("format")).unwrap(), FORMAT);
    std::fs::write(dir.join("format"), "zr-store-v999\n").unwrap();
    assert!(matches!(Cas::open(dir.path()), Err(StoreError::Corrupt(_))));
}

#[test]
fn gc_respects_roots_and_reopen_reloads_pins() {
    let dir = Scratch::new("gc");
    let cas = Cas::open(dir.path()).unwrap();
    let live = cas.put(b"pinned content").unwrap();
    let dead = cas.put(b"orphaned content").unwrap();
    let shared = cas.put(b"doubly pinned").unwrap();
    cas.pin("root-a", &[live.clone(), shared.clone()]).unwrap();
    cas.pin("root-b", std::slice::from_ref(&shared)).unwrap();
    assert_eq!(
        cas.roots(),
        vec!["root-a".to_string(), "root-b".to_string()]
    );

    let report = cas.gc().unwrap();
    assert_eq!(report.scanned, 3);
    assert_eq!(report.removed, 1);
    assert_eq!(report.live, 2);
    assert!(!cas.contains(&dead));
    assert!(cas.contains(&live));

    // Unpinning one root keeps the shared blob; unpinning both frees it.
    assert!(cas.unpin("root-a").unwrap());
    let report = cas.gc().unwrap();
    assert_eq!(report.removed, 1, "root-a's exclusive blob collected");
    assert!(cas.contains(&shared));
    assert!(!cas.contains(&live));

    // A fresh open reloads the pins from disk.
    let reopened = Cas::open(dir.path()).unwrap();
    assert_eq!(reopened.pinned("root-b"), Some(vec![shared.clone()]));
    assert!(!reopened.unpin("root-a").unwrap(), "already gone");
    assert!(reopened.unpin("root-b").unwrap());
    let report = reopened.gc().unwrap();
    assert_eq!(report.removed, 1);
    assert_eq!(report.live, 0);
}

#[test]
fn corrupt_root_pins_are_quarantined_not_fatal() {
    let dir = Scratch::new("bad-root");
    let live;
    {
        let cas = Cas::open(dir.path()).unwrap();
        live = cas.put(b"healthy content").unwrap();
        cas.pin("good-root", std::slice::from_ref(&live)).unwrap();
        std::fs::write(dir.join("roots/rotten"), b"not a pin record").unwrap();
    }
    // The store must reopen (a bricked --cache-dir with no repair
    // path is worse than a lost layer) …
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.stats().corrupt_roots, 1);
    assert!(!dir.join("roots/rotten").exists(), "quarantined");
    assert_eq!(cas.roots(), vec!["good-root".to_string()]);
    // … and gc still honors the healthy pin.
    let report = cas.gc().unwrap();
    assert_eq!(report.removed, 0);
    assert!(cas.contains(&live));
    // Corruption arriving *after* open aborts gc instead of
    // collecting on partial pin knowledge.
    std::fs::write(dir.join("roots/rotten2"), b"garbage").unwrap();
    assert!(matches!(cas.gc(), Err(StoreError::Corrupt(_))));
}

#[test]
fn two_handles_share_one_directory() {
    // Two independent opens — no shared memory, exactly what two
    // processes see. Writes through one handle are observable through
    // the other, and concurrent same-content puts stay consistent.
    let dir = Scratch::new("share");
    let a = Cas::open(dir.path()).unwrap();
    let b = Cas::open(dir.path()).unwrap();
    let digest = a.put(b"cross-process payload").unwrap();
    assert!(b.contains(&digest));
    assert_eq!(b.get(&digest).unwrap(), b"cross-process payload");

    let a = Arc::new(a);
    let b = Arc::new(b);
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let handle = if i % 2 == 0 {
                Arc::clone(&a)
            } else {
                Arc::clone(&b)
            };
            std::thread::spawn(move || {
                let mut digests = Vec::new();
                for k in 0..16 {
                    // Half the content is shared across workers (put
                    // races on the same digest), half is private.
                    digests.push(handle.put(format!("shared-{k}").as_bytes()).unwrap());
                    digests.push(handle.put(format!("private-{i}-{k}").as_bytes()).unwrap());
                }
                digests
            })
        })
        .collect();
    let mut all: Vec<String> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), 16 + 4 * 16, "16 shared + 64 private digests");
    for digest in &all {
        assert!(a.contains(digest) && b.contains(digest));
        a.get(digest).unwrap();
    }
}

#[test]
fn blob_reads_arrive_with_warm_digest_memos() {
    let dir = Scratch::new("memo");
    let cas = Cas::open(dir.path()).unwrap();
    let digest = cas.put(b"payload bytes").unwrap();
    let blob = cas.get_blob(&digest).unwrap();
    assert!(blob.sha_is_cached(), "no re-hash needed after a load");
    assert_eq!(blob.sha_hex(), digest);
}

#[test]
fn batch_commit_is_durable_through_a_fresh_open() {
    let dir = Scratch::new("batch");
    let small;
    let large;
    {
        let cas = Cas::open(dir.path()).unwrap();
        let mut batch = cas.batch();
        small = batch.put(b"batched small object").unwrap();
        // Above the chunking threshold: the batch stages chunks plus an
        // index, all under the same single group fsync.
        let big: Vec<u8> = (0..zr_store::CHUNK_THRESHOLD + 4096)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect();
        large = batch.put(&big).unwrap();
        batch
            .pin_with_deps("batch-root", &[small.clone(), large.clone()], &[])
            .unwrap();
        batch.commit().unwrap();
        assert!(
            std::fs::read_dir(dir.join("tmp")).unwrap().next().is_none(),
            "commit leaves no staging files and no write-ahead pack"
        );
        assert_eq!(cas.get(&small).unwrap(), b"batched small object");
        assert_eq!(cas.get(&large).unwrap(), big);
    }
    // A second open (the moral equivalent of the next process) sees
    // every object and the pin the batch wrote.
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.roots(), vec!["batch-root".to_string()]);
    assert_eq!(
        cas.pinned("batch-root"),
        Some(vec![small.clone(), large.clone()])
    );
    assert_eq!(cas.get(&small).unwrap(), b"batched small object");
    assert!(cas.contains(&large));
    cas.get(&large).unwrap();
    let report = cas.gc().unwrap();
    assert_eq!(report.removed, 0, "everything the batch wrote is pinned");
}

/// Hand-encode a dead writer's write-ahead pack: `(store-relative
/// destination, bytes)` per staged object, exactly what
/// `CasBatch::commit` fsyncs before its unsynced renames.
fn encode_test_pack(entries: &[(&str, &[u8])]) -> Vec<u8> {
    let mut enc = zr_store::codec::Enc::new("zr-pack-v1");
    enc.u64(entries.len() as u64);
    for (rel, data) in entries {
        enc.str(rel);
        enc.bytes(data);
    }
    enc.finish()
}

#[test]
fn dead_writer_pack_replays_and_repairs_torn_objects() {
    let dir = Scratch::new("pack-replay");
    let content = b"renamed but never synced".as_slice();
    let digest = zr_digest::hex(&zr_digest::Sha256::digest(content));
    {
        Cas::open(dir.path()).unwrap();
        // The crashed batch renamed this blob into place, but the data
        // fsync it relied on was the pack's — a power cut can leave the
        // renamed file torn. The pack survived (it was synced first).
        std::fs::write(dir.join(&format!("blobs/sha256/{digest}")), b"t\0rn").unwrap();
        let pack = encode_test_pack(&[(&format!("blobs/sha256/{digest}"), content)]);
        std::fs::write(dir.join("tmp/w4194305-0.pack"), pack).unwrap();
    }
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.stats().recovered_tmp, 1, "pack consumed");
    assert_eq!(
        cas.get(&digest).unwrap(),
        content,
        "replay rewrote the torn object with the packed bytes"
    );
    assert!(
        std::fs::read_dir(dir.join("tmp")).unwrap().next().is_none(),
        "pack deleted after replay"
    );
    // Replay is idempotent: a second crash between replay and pack
    // removal would just rewrite the same bytes.
    let pack = encode_test_pack(&[(&format!("blobs/sha256/{digest}"), content)]);
    std::fs::write(dir.join("tmp/w4194305-1.pack"), pack).unwrap();
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.get(&digest).unwrap(), content);
}

#[test]
fn truncated_pack_from_a_dead_writer_is_discarded() {
    // A pack that does not decode predates its own fsync, which means
    // the batch never renamed anything: discarding it loses nothing.
    let dir = Scratch::new("pack-torn");
    let digest;
    {
        let cas = Cas::open(dir.path()).unwrap();
        digest = cas.put(b"unrelated healthy blob").unwrap();
        let mut pack = encode_test_pack(&[("blobs/sha256/feed", b"x")]);
        pack.truncate(pack.len() - 3);
        std::fs::write(dir.join("tmp/w4194305-0.pack"), pack).unwrap();
        std::fs::write(dir.join("tmp/w4194305-1.pack"), b"not a pack at all").unwrap();
    }
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.stats().recovered_tmp, 2);
    assert_eq!(cas.get(&digest).unwrap(), b"unrelated healthy blob");
    assert!(std::fs::read_dir(dir.join("tmp")).unwrap().next().is_none());
}

#[test]
fn pack_replay_refuses_paths_that_escape_the_store() {
    let dir = Scratch::new("pack-escape");
    {
        Cas::open(dir.path()).unwrap();
        let pack = encode_test_pack(&[("../escaped-from-pack", b"evil"), ("/tmp/abs", b"evil")]);
        std::fs::write(dir.join("tmp/w4194305-0.pack"), pack).unwrap();
    }
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.stats().recovered_tmp, 1, "hostile pack still removed");
    let outside = dir.path().parent().unwrap().join("escaped-from-pack");
    assert!(!outside.exists(), "no write outside the store root");
}

proptest! {
    /// Crash-reopen durability mid-fsync: once a batch's write-ahead
    /// pack is on disk, *any* crash state of the renamed objects —
    /// landed intact, renamed but torn (the unsynced data lost), or
    /// never renamed at all — heals to the full batch on reopen.
    #[test]
    fn prop_pack_replay_heals_any_mid_commit_crash_state(
        contents in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..8),
        fates in prop::collection::vec(0u8..3, 8..=8),
    ) {
        let dir = Scratch::new("pack-prop");
        let mut entries: Vec<(String, Vec<u8>)> = Vec::new();
        {
            Cas::open(dir.path()).unwrap();
            for (i, content) in contents.iter().enumerate() {
                let digest = zr_digest::hex(&zr_digest::Sha256::digest(content));
                let rel = format!("blobs/sha256/{digest}");
                match fates[i] {
                    // Crash before this object's rename: nothing there.
                    0 => {}
                    // Renamed, then the power cut ate the unsynced data.
                    1 => std::fs::write(dir.join(&rel), b"torn").unwrap(),
                    // Rename and writeback both made it.
                    _ => std::fs::write(dir.join(&rel), content).unwrap(),
                }
                entries.push((rel, content.clone()));
            }
            let refs: Vec<(&str, &[u8])> =
                entries.iter().map(|(r, c)| (r.as_str(), c.as_slice())).collect();
            std::fs::write(dir.join("tmp/w4194305-0.pack"), encode_test_pack(&refs)).unwrap();
        }
        let cas = Cas::open(dir.path()).unwrap();
        for (rel, content) in &entries {
            let digest = rel.strip_prefix("blobs/sha256/").unwrap();
            prop_assert_eq!(&cas.get(digest).unwrap(), content, "object {} healed", digest);
        }
        prop_assert!(
            std::fs::read_dir(dir.join("tmp")).unwrap().next().is_none(),
            "pack consumed after replay"
        );
    }
}

#[test]
fn budget_evicts_least_recently_pinned_roots_first() {
    let dir = Scratch::new("budget");
    let cas = Cas::open(dir.path()).unwrap();
    let a = cas.put(&[1u8; 4096]).unwrap();
    let b = cas.put(&[2u8; 4096]).unwrap();
    let c = cas.put(&[3u8; 4096]).unwrap();
    cas.pin("root-a", std::slice::from_ref(&a)).unwrap();
    cas.pin("root-b", std::slice::from_ref(&b)).unwrap();
    cas.pin("root-c", std::slice::from_ref(&c)).unwrap();
    assert_eq!(cas.stats().physical_bytes, 3 * 4096);

    // 12 KiB pinned, 10 KiB allowed: exactly one root must go, and it
    // must be the oldest pin.
    cas.set_budget(10 * 1024).unwrap();
    assert_eq!(cas.budget(), 10 * 1024);
    let stats = cas.stats();
    assert_eq!(stats.evicted_roots, 1);
    assert!(stats.physical_bytes <= 10 * 1024);
    assert_eq!(
        cas.roots(),
        vec!["root-b".to_string(), "root-c".to_string()]
    );
    assert!(!cas.contains(&a), "evicted root's blob collected");
    assert_eq!(cas.get(&b).unwrap(), vec![2u8; 4096]);
    assert_eq!(cas.get(&c).unwrap(), vec![3u8; 4096]);

    // Re-pinning refreshes recency: root-b becomes the newest, so the
    // next squeeze evicts root-c.
    cas.pin("root-b", std::slice::from_ref(&b)).unwrap();
    cas.set_budget(6 * 1024).unwrap();
    assert_eq!(cas.roots(), vec!["root-b".to_string()]);
    assert_eq!(cas.get(&b).unwrap(), vec![2u8; 4096], "survivor readable");

    // The survivors are durable: a fresh open still has them.
    drop(cas);
    let cas = Cas::open(dir.path()).unwrap();
    assert_eq!(cas.roots(), vec!["root-b".to_string()]);
    assert_eq!(cas.get(&b).unwrap(), vec![2u8; 4096]);
}

#[test]
fn budget_eviction_cascades_to_dependent_roots() {
    let dir = Scratch::new("budget-deps");
    let cas = Cas::open(dir.path()).unwrap();
    let a = cas.put(&[4u8; 4096]).unwrap();
    let b = cas.put(&[5u8; 4096]).unwrap();
    let c = cas.put(&[6u8; 4096]).unwrap();
    // root-b is a delta that needs root-a's chain to reconstruct.
    cas.pin("root-a", std::slice::from_ref(&a)).unwrap();
    cas.pin_with_deps("root-b", std::slice::from_ref(&b), &["root-a".to_string()])
        .unwrap();
    cas.pin("root-c", std::slice::from_ref(&c)).unwrap();

    // Evicting the oldest root (root-a) must take root-b with it: a
    // surviving root-b could not be read without its dep.
    cas.set_budget(10 * 1024).unwrap();
    let stats = cas.stats();
    assert_eq!(stats.evicted_roots, 2, "dep eviction cascades");
    assert_eq!(cas.roots(), vec!["root-c".to_string()]);
    assert!(!cas.contains(&a));
    assert!(!cas.contains(&b));
    assert_eq!(cas.get(&c).unwrap(), vec![6u8; 4096]);
}
