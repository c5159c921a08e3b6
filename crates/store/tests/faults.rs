//! The store's write fault points on its one write path: each of
//! `store.write.err`, `store.write.torn`, `store.fsync.err` and
//! `store.rename.err` fails a one-object `Cas::put` and a multi-object
//! `CasBatch::commit` alike, leaves nothing readable, and loses nothing
//! to a fault-free retry or to crash recovery.
//!
//! A fault plan is process-wide, so these tests live in their own
//! binary (the other store suites run in parallel without the plan's
//! lock). Each store is created before its plan is installed, under an
//! empty plan of its own: the `format` file is itself an atomic write,
//! and a concurrently installed plan would fire on it.

mod common;

use common::Scratch;
use zr_digest::{hex, Sha256};
use zr_fault::{points, FaultPlan};
use zr_store::Cas;

const WRITE_POINTS: [&str; 4] = [
    points::STORE_WRITE_ERR,
    points::STORE_WRITE_TORN,
    points::STORE_FSYNC_ERR,
    points::STORE_RENAME_ERR,
];

fn digest_of(data: &[u8]) -> String {
    hex(&Sha256::digest(data))
}

/// A fresh store, created while holding the fault plane's lock with
/// nothing installed.
fn fresh_store(name: &str) -> (Scratch, Cas) {
    let _quiet = zr_fault::install(&FaultPlan::new());
    let dir = Scratch::new(name);
    let cas = Cas::open(dir.path()).unwrap();
    (dir, cas)
}

/// Hand this process's leftover staging files to a pid that cannot
/// exist — the same-process stand-in for a crash and reboot, since
/// recovery spares a live writer's files — then reopen the store.
fn reopen_after_writer_death(dir: &Scratch) -> Cas {
    let tmp = dir.join("tmp");
    let ours = format!("w{}-", std::process::id());
    for entry in std::fs::read_dir(&tmp).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rest) = name.strip_prefix(&ours) {
            std::fs::rename(entry.path(), tmp.join(format!("w4194305-{rest}"))).unwrap();
        }
    }
    let cas = Cas::open(dir.path()).unwrap();
    assert!(
        std::fs::read_dir(&tmp).unwrap().next().is_none(),
        "recovery consumed every leftover staging file"
    );
    cas
}

#[test]
fn every_write_point_fails_a_one_object_put_without_losing_the_retry() {
    let data = b"one object, one commit".as_slice();
    let digest = digest_of(data);
    for point in WRITE_POINTS {
        let (dir, cas) = fresh_store("fault-put");
        let _guard = zr_fault::install(&FaultPlan::new().counted(point, 1, 0, 0));

        assert!(cas.put(data).is_err(), "{point}: the put must fail");
        assert_eq!(zr_fault::counters().injected, 1, "{point} fired once");
        assert!(!cas.contains(&digest), "{point}: nothing landed");
        assert!(cas.get(&digest).is_err(), "{point}: nothing readable");

        assert_eq!(cas.put(data).unwrap(), digest, "{point}: retry");
        assert_eq!(cas.get(&digest).unwrap(), data);
        drop(cas);
        let cas = reopen_after_writer_death(&dir);
        assert_eq!(cas.get(&digest).unwrap(), data, "{point}: after reopen");
    }
}

#[test]
fn every_write_point_fails_a_multi_object_commit_without_losing_the_retry() {
    let payloads: Vec<Vec<u8>> = (0..4)
        .map(|i| format!("batched object {i}").into_bytes())
        .collect();
    let digests: Vec<String> = payloads.iter().map(|p| digest_of(p)).collect();
    let commit = |cas: &Cas| {
        let mut batch = cas.batch();
        for p in &payloads {
            batch.put(p).unwrap();
        }
        batch.pin_with_deps("batch-root", &digests, &[]).unwrap();
        batch.commit()
    };
    for point in WRITE_POINTS {
        let (dir, cas) = fresh_store("fault-batch");
        let _guard = zr_fault::install(&FaultPlan::new().counted(point, 1, 0, 0));

        assert!(commit(&cas).is_err(), "{point}: the commit must fail");
        assert_eq!(zr_fault::counters().injected, 1, "{point} fired once");
        for d in &digests {
            assert!(!cas.contains(d), "{point}: {d} must not land");
            assert!(cas.get(d).is_err(), "{point}: {d} must not read");
        }
        assert!(cas.roots().is_empty(), "{point}: no pin applied");

        commit(&cas).unwrap_or_else(|e| panic!("{point}: retry: {e}"));
        assert_eq!(cas.roots(), vec!["batch-root".to_string()]);
        drop(cas);
        let cas = reopen_after_writer_death(&dir);
        for (d, p) in digests.iter().zip(&payloads) {
            assert_eq!(&cas.get(d).unwrap(), p, "{point}: {d} after reopen");
        }
        assert_eq!(cas.roots(), vec!["batch-root".to_string()]);
    }
}

#[test]
fn a_commit_killed_with_its_pack_durable_is_replayed_at_reopen() {
    // Crash checkpoint 1: the streamed write-ahead pack is fsync'd and
    // nothing is renamed, so only pack replay can make these objects
    // readable — the streamed framing must decode as a pack record.
    let mut payloads: Vec<Vec<u8>> = (0..3)
        .map(|i| format!("replayed object {i}").into_bytes())
        .collect();
    payloads.push(
        (0..zr_store::CHUNK_THRESHOLD + 4096)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect(),
    );
    let digests: Vec<String> = payloads.iter().map(|p| digest_of(p)).collect();
    let (dir, cas) = fresh_store("fault-replay");
    let _guard = zr_fault::install(&FaultPlan::new().counted(points::STORE_COMMIT_CRASH, 1, 1, 0));
    let mut batch = cas.batch();
    for p in &payloads {
        // Shared blobs: the large one is staged as uncopied chunks.
        batch.put_blob(&zr_store::Blob::new(p.clone())).unwrap();
    }
    batch.pin_with_deps("replayed-root", &digests, &[]).unwrap();
    assert!(batch.commit().is_err(), "killed at checkpoint 1");
    for d in &digests {
        assert!(!cas.contains(d), "{d}: nothing renamed before the crash");
    }
    drop(cas);

    let cas = reopen_after_writer_death(&dir);
    for (d, p) in digests.iter().zip(&payloads) {
        assert_eq!(&cas.get(d).unwrap(), p, "{d} replayed from the pack");
    }
    assert_eq!(cas.roots(), vec!["replayed-root".to_string()]);
}

#[test]
fn a_deduplicated_put_commits_nothing() {
    // Re-putting stored content stages nothing, so its commit returns
    // before the first crash checkpoint and touches no write point.
    let (_dir, cas) = fresh_store("fault-dedup");
    let digest = {
        let _quiet = zr_fault::install(&FaultPlan::new());
        cas.put(b"already stored").unwrap()
    };
    let _guard = zr_fault::install(
        &FaultPlan::new()
            .counted(points::STORE_COMMIT_CRASH, 1, 0, 0)
            .counted(points::STORE_WRITE_ERR, 1, 0, 0),
    );
    assert_eq!(cas.put(b"already stored").unwrap(), digest);
    assert_eq!(zr_fault::counters().injected, 0, "no fault point reached");
}
