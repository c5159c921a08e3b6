//! The durable tier behind `zr_image::LayerStore` — what `--cache-dir`
//! opens.
//!
//! Each cached layer becomes one record under `layers/<cache key>`:
//! the replayable builder state (resolved ARGs, stage metadata, ENV,
//! SHELL, cwd) plus a reference to its filesystem tree. The tree
//! reference comes in two forms:
//!
//! * **Full** — the digest of a complete canonical tree record (a CAS
//!   blob), as parentless layers and deep chains use.
//! * **Delta** — the digest of a *delta blob* encoding only the entries
//!   added/modified/removed relative to the parent layer's record,
//!   plus the digest the reconstructed full record must hash to.
//!   Persisting a warm one-instruction layer then costs O(changes),
//!   not O(image): a handful of staged objects and one short pin
//!   instead of a 10k-entry record and a 10k-digest pin.
//!
//! Delta chains are bounded ([`MAX_DELTA_DEPTH`]): past the bound the
//! layer re-persists in full, so replay is O(chain·changes) and a full
//! record exists every few layers for chunk-level dedup to land on.
//! Reconstruction is digest-checked — the patched, re-sorted, re-framed
//! record must hash to exactly what a fresh full encoding would, or the
//! layer reads as corrupt (and therefore as a self-healing miss).
//!
//! Tree records, delta blobs and file payloads are ordinary [`Cas`]
//! objects — layers that share snapshots share bytes on disk exactly as
//! they do in memory — and every layer pins its *new* objects under a
//! root named by its key, with delta layers declaring a root dependency
//! on their parent so budget eviction never strands a chain suffix.
//!
//! Persistence failures are absorbed (a full disk must not fail a
//! build) but counted and kept: [`DiskLayers::error_count`] /
//! [`DiskLayers::last_error`] surface them to the CLI.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zr_digest::{hex, Sha256};
use zr_image::{CacheKey, Layer, LayerPersistence, LayerState, LayerStore, StageSnapshot};

use crate::cas::{valid_digest, Cas};
use crate::codec::{Dec, Enc};
use crate::error::{Result, StoreError};
use crate::meta::{decode_meta, encode_meta};
use crate::tree::{
    assemble_tree_record, decode_tree, encode_tree_entries, hash_tree_record, split_tree_record,
    walk_order, TreeEntry,
};

/// Layer record: tagged full/delta tree reference.
const LAYER_MAGIC: &str = "zr-layer-rec-v2";
/// Delta blob: entry-level diff against the parent's tree record.
const DELTA_MAGIC: &str = "zr-tree-delta-v1";

/// Longest allowed delta chain before a layer re-persists in full.
/// Replay cost is O(depth · changes); 8 keeps that negligible while a
/// 1-file change on a 10k-file image still persists O(1) records in
/// the common case.
pub const MAX_DELTA_DEPTH: u64 = 8;

/// Recently persisted/loaded tree records this handle keeps split into
/// entries, so a child layer can diff against its parent without
/// re-reading or re-encoding anything.
const TREE_CACHE_CAP: usize = 8;

/// Counters for one [`DiskLayers`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskLayerStats {
    /// Layers written by this handle.
    pub persisted: u64,
    /// Of those, layers written as parent-relative deltas (the rest
    /// were full records: parentless, chain too deep, or parent
    /// unavailable).
    pub delta_persisted: u64,
    /// Layers loaded by this handle.
    pub loaded: u64,
    /// Persist/load operations that failed (absorbed, not raised).
    pub errors: u64,
}

impl std::fmt::Display for DiskLayerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} layers persisted ({} as deltas), {} loaded, {} errors",
            self.persisted, self.delta_persisted, self.loaded, self.errors
        )
    }
}

/// How a layer record references its filesystem tree.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TreeRef {
    /// Digest of the complete canonical tree record blob.
    Full { digest: String },
    /// Digest of a delta blob, the chain depth (1 = parent is full),
    /// and the digest the reconstructed full record must hash to.
    Delta {
        delta_digest: String,
        depth: u64,
        full_digest: String,
    },
}

/// A tree held split into entries for delta diffing.
#[derive(Debug, Clone)]
struct CachedTree {
    entries: Arc<Vec<TreeEntry>>,
    /// Digest of this layer's stored tree *object* (full record blob
    /// or delta blob) — what a child delta names as its parent.
    object_digest: String,
    /// 0 for a full record, else the delta chain depth.
    depth: u64,
}

#[derive(Debug, Default)]
struct TreeCache {
    order: VecDeque<CacheKey>,
    map: HashMap<CacheKey, CachedTree>,
}

impl TreeCache {
    fn get(&self, key: &CacheKey) -> Option<CachedTree> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: CacheKey, tree: CachedTree) {
        if self.map.insert(key.clone(), tree).is_none() {
            self.order.push_back(key);
            if self.order.len() > TREE_CACHE_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        if self.map.remove(key).is_some() {
            self.order.retain(|k| k != key);
        }
    }
}

/// The on-disk layer tier. Implements [`LayerPersistence`], so attach
/// it to a [`LayerStore`] (or use [`open_layer_store`]) and every
/// insert is written through, every miss consults disk.
#[derive(Debug)]
pub struct DiskLayers {
    cas: Cas,
    persisted: AtomicU64,
    delta_persisted: AtomicU64,
    loaded: AtomicU64,
    errors: AtomicU64,
    last_error: Mutex<Option<String>>,
    /// Directory-fsync failures are surfaced through `note_error` once
    /// per handle (they repeat on every write on filesystems that
    /// refuse dir fsync — one line, not a flood).
    dir_fsync_noted: AtomicBool,
    trees: Mutex<TreeCache>,
}

impl DiskLayers {
    /// The layer tier of an open store.
    pub fn new(cas: Cas) -> DiskLayers {
        DiskLayers {
            cas,
            persisted: AtomicU64::new(0),
            delta_persisted: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            dir_fsync_noted: AtomicBool::new(false),
            trees: Mutex::new(TreeCache::default()),
        }
    }

    /// The underlying content-addressed store.
    pub fn cas(&self) -> &Cas {
        &self.cas
    }

    /// Counters.
    pub fn stats(&self) -> DiskLayerStats {
        DiskLayerStats {
            persisted: self.persisted.load(Ordering::Relaxed),
            delta_persisted: self.delta_persisted.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Operations that failed since open.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The most recent absorbed error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn note_error(&self, context: &str, e: &StoreError) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        *self
            .last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(format!("{context}: {e}"));
    }

    /// Surface directory-fsync failures (counted in [`Cas`] stats) as
    /// one absorbed error per handle — visible in `store stats`, not a
    /// flood in the log.
    fn note_dir_fsync_failures(&self) {
        let failures = self.cas.stats().dir_fsync_failures;
        if failures > 0 && !self.dir_fsync_noted.swap(true, Ordering::Relaxed) {
            let e = StoreError::from(std::io::Error::other(
                "directory fsync failed; content is intact but names may \
                 not survive a power cut (counted in store stats)",
            ));
            self.note_error("dir-fsync", &e);
        }
    }

    fn lock_trees(&self) -> std::sync::MutexGuard<'_, TreeCache> {
        self.trees
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Durably remove one layer: its record and its pin (blobs become
    /// collectable unless another layer shares them).
    pub fn remove(&self, key: &CacheKey) -> Result<bool> {
        let path = self.cas.layers_dir().join(key.as_hex());
        let existed = match std::fs::remove_file(path) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e.into()),
        };
        self.cas.unpin(key.as_hex())?;
        self.lock_trees().remove(key);
        Ok(existed)
    }

    /// The parent tree to delta against, if the delta route is open:
    /// cached entries, or re-derivable from the in-memory parent layer.
    fn parent_tree(&self, parent_key: &CacheKey, parent: Option<&Layer>) -> Option<CachedTree> {
        if let Some(cached) = self.lock_trees().get(parent_key) {
            return Some(cached);
        }
        let parent = parent?;
        // The parent is in memory but its split record is not cached:
        // re-encode its entries (pure — blob digests are memoized, no
        // I/O) and locate its stored tree object via its record.
        let entries = encode_tree_entries(&parent.fs, |blob| Ok(blob.sha_hex())).ok()?;
        let parts = self.read_record(parent_key).ok().flatten()?;
        let (object_digest, depth) = match parts.tree_ref {
            TreeRef::Full { digest } => (digest, 0),
            TreeRef::Delta {
                delta_digest,
                depth,
                ..
            } => (delta_digest, depth),
        };
        let cached = CachedTree {
            entries: Arc::new(entries),
            object_digest,
            depth,
        };
        self.lock_trees().insert(parent_key.clone(), cached.clone());
        Some(cached)
    }

    /// Persist `layer`, as a delta against `parent` when possible.
    /// Returns whether a delta was written.
    fn persist_inner(&self, layer: &Layer, parent: Option<&Layer>) -> Result<bool> {
        // Route first: the delta path only ever touches the *changed*
        // payload blobs, so it must not pay for collecting all of them.
        let parent_tree = layer.parent.as_ref().and_then(|parent_key| {
            let tree = self.parent_tree(parent_key, parent)?;
            // The chain bound, and the eviction guard: a delta against
            // an object gc already collected would be unreadable.
            if tree.depth + 1 > MAX_DELTA_DEPTH || !self.cas.contains(&tree.object_digest) {
                return None;
            }
            Some((parent_key.clone(), tree))
        });

        let (tree_ref, entries, cached, delta) = match parent_tree {
            Some((parent_key, tree)) => {
                // Pure walk: blob digests are memoized, nothing is
                // collected beyond the entry bytes themselves.
                let entries = encode_tree_entries(&layer.fs, |blob| Ok(blob.sha_hex()))?;
                let tree_ref = self.persist_delta(layer, &parent_key, &tree, &entries)?;
                let depth = tree.depth + 1;
                (tree_ref, entries, depth, true)
            }
            None => {
                // The full path stores every payload, so capture the
                // blobs as the walk hands them out.
                let mut blobs_by_digest = HashMap::new();
                let entries = encode_tree_entries(&layer.fs, |blob| {
                    let digest = blob.sha_hex();
                    blobs_by_digest.insert(digest.clone(), Arc::clone(blob));
                    Ok(digest)
                })?;
                let tree_ref = self.persist_full(layer, &entries, &blobs_by_digest)?;
                (tree_ref, entries, 0, false)
            }
        };
        let object_digest = match &tree_ref {
            TreeRef::Full { digest } => digest.clone(),
            TreeRef::Delta { delta_digest, .. } => delta_digest.clone(),
        };
        self.lock_trees().insert(
            layer.id.clone(),
            CachedTree {
                entries: Arc::new(entries),
                object_digest,
                depth: cached,
            },
        );
        Ok(delta)
    }

    /// Write a full record: every payload blob, the assembled record,
    /// one pin over all of it, then the layer record.
    fn persist_full(
        &self,
        layer: &Layer,
        entries: &[TreeEntry],
        blobs: &HashMap<String, Arc<zr_vfs::Blob>>,
    ) -> Result<TreeRef> {
        let record = assemble_tree_record(entries);
        let mut batch = self.cas.batch();
        let mut digests: Vec<String> = Vec::new();
        for entry in entries {
            if let Some(digest) = &entry.file_digest {
                if let Some(blob) = blobs.get(digest) {
                    batch.put_blob(blob)?;
                }
                digests.push(digest.clone());
            }
        }
        let tree_digest = batch.put(&record)?;
        digests.push(tree_digest.clone());
        digests.sort();
        digests.dedup();
        let tree_ref = TreeRef::Full {
            digest: tree_digest,
        };
        // Pin before the record lands: a record must never name blobs
        // gc could be collecting concurrently.
        batch.pin_with_deps(layer.id.as_hex(), &digests, &[])?;
        batch.write_record(
            self.cas.layers_dir().join(layer.id.as_hex()),
            &encode_layer_record(layer, &tree_ref),
        );
        batch.commit()?;
        Ok(tree_ref)
    }

    /// Write a delta record: only the changed payload blobs, one delta
    /// blob, a pin over the new objects (depending on the parent's
    /// root for everything unchanged), then the layer record.
    fn persist_delta(
        &self,
        layer: &Layer,
        parent_key: &CacheKey,
        parent: &CachedTree,
        entries: &[TreeEntry],
    ) -> Result<TreeRef> {
        // Both entry lists are in walk order, so one merge pass yields
        // both diff sides — no maps, no hashing of unchanged paths.
        let mut removed: Vec<&str> = Vec::new();
        let mut upserts: Vec<&TreeEntry> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < parent.entries.len() && j < entries.len() {
            match walk_order(&parent.entries[i].path, &entries[j].path) {
                std::cmp::Ordering::Less => {
                    removed.push(parent.entries[i].path.as_str());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    upserts.push(&entries[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if parent.entries[i].bytes != entries[j].bytes {
                        upserts.push(&entries[j]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        removed.extend(parent.entries[i..].iter().map(|e| e.path.as_str()));
        upserts.extend(entries[j..].iter());

        // The digest the reconstructed record must reproduce —
        // computed from the same entries a full persist would write,
        // so delta and full encodings are provably interchangeable.
        let full_digest = hash_tree_record(entries);

        let parent_is_delta = parent.depth > 0;
        let mut enc = Enc::new(DELTA_MAGIC);
        enc.u8(u8::from(parent_is_delta));
        enc.str(&parent.object_digest);
        enc.u64(removed.len() as u64);
        for path in &removed {
            enc.str(path);
        }
        enc.u64(upserts.len() as u64);
        for entry in &upserts {
            enc.str(&entry.path);
            enc.bytes(&entry.bytes);
        }

        let mut batch = self.cas.batch();
        let mut digests: Vec<String> = Vec::new();
        let root_acc = zr_vfs::Access::root();
        for entry in &upserts {
            if let Some(digest) = &entry.file_digest {
                let blob = layer
                    .fs
                    .read_file_blob(&entry.path, &root_acc)
                    .map_err(|e| {
                        StoreError::corrupt(format!("{}: walked but unreadable: {e}", entry.path))
                    })?;
                batch.put_blob(&blob)?;
                digests.push(digest.clone());
            }
        }
        let delta_digest = batch.put(&enc.finish())?;
        digests.push(delta_digest.clone());
        digests.sort();
        digests.dedup();
        let tree_ref = TreeRef::Delta {
            delta_digest,
            depth: parent.depth + 1,
            full_digest,
        };
        // Pin (with the parent chain as a dependency) before the
        // record lands — same crash ordering as the full path.
        batch.pin_with_deps(
            layer.id.as_hex(),
            &digests,
            std::slice::from_ref(&parent_key.as_hex().to_string()),
        )?;
        batch.write_record(
            self.cas.layers_dir().join(layer.id.as_hex()),
            &encode_layer_record(layer, &tree_ref),
        );
        batch.commit()?;
        Ok(tree_ref)
    }

    /// Read and decode one layer record — everything but the
    /// filesystem, which lives behind the tree reference in the CAS.
    fn read_record(&self, key: &CacheKey) -> Result<Option<RecordParts>> {
        let path = self.cas.layers_dir().join(key.as_hex());
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        decode_layer_record(&bytes, key).map(Some)
    }

    /// Rebuild the complete canonical tree record bytes behind a tree
    /// reference. Full references verify through [`Cas::get`]; delta
    /// references walk the chain to its base record, patch entries
    /// oldest-first, re-sort into walk order, re-frame, and verify the
    /// result hashes to exactly the recorded full digest.
    fn reconstruct_record(&self, tree_ref: &TreeRef) -> Result<Vec<u8>> {
        let (delta_digest, full_digest) = match tree_ref {
            TreeRef::Full { digest } => return self.cas.get(digest),
            TreeRef::Delta {
                delta_digest,
                full_digest,
                ..
            } => (delta_digest, full_digest),
        };
        // Walk down to the base full record, collecting deltas
        // newest-first. The depth bound doubles as a cycle guard.
        let mut deltas: Vec<DeltaParts> = Vec::new();
        let mut cursor = delta_digest.clone();
        let base = loop {
            if deltas.len() as u64 >= MAX_DELTA_DEPTH {
                return Err(StoreError::corrupt(format!(
                    "delta chain exceeds depth {MAX_DELTA_DEPTH} at {cursor}"
                )));
            }
            let delta = decode_delta(&self.cas.get(&cursor)?)?;
            let parent_is_delta = delta.parent_is_delta;
            let parent_digest = delta.parent_digest.clone();
            deltas.push(delta);
            if !parent_is_delta {
                break self.cas.get(&parent_digest)?;
            }
            cursor = parent_digest;
        };
        let mut by_path: HashMap<String, Vec<u8>> = split_tree_record(&base)?
            .into_iter()
            .map(|e| (e.path, e.bytes))
            .collect();
        for delta in deltas.iter().rev() {
            for path in &delta.removed {
                by_path.remove(path);
            }
            for (path, bytes) in &delta.upserts {
                by_path.insert(path.clone(), bytes.clone());
            }
        }
        // Re-sort into the walk's pre-order (component-wise, *not*
        // byte-wise — "/d.x" walks after "/d/y") and re-frame.
        let mut paths: Vec<&String> = by_path.keys().collect();
        paths.sort_by(|a, b| walk_order(a, b));
        let entries: Vec<TreeEntry> = paths
            .into_iter()
            .map(|p| TreeEntry {
                path: p.clone(),
                bytes: by_path[p].clone(),
                file_digest: None,
            })
            .collect();
        let record = assemble_tree_record(&entries);
        let found = hex(&Sha256::digest(&record));
        if &found != full_digest {
            return Err(StoreError::corrupt(format!(
                "delta reconstruction hashes to {found}, record says {full_digest}"
            )));
        }
        Ok(record)
    }

    fn load_inner(&self, key: &CacheKey) -> Result<Option<Layer>> {
        let Some(parts) = self.read_record(key)? else {
            return Ok(None);
        };
        let record = self.reconstruct_record(&parts.tree_ref)?;
        let fs = decode_tree(&record, |digest| self.cas.get_blob(digest))?;
        // Cache the split record so a warm-replayed child persists as
        // a delta against this layer instead of a full record.
        let (object_digest, depth) = match &parts.tree_ref {
            TreeRef::Full { digest } => (digest.clone(), 0),
            TreeRef::Delta {
                delta_digest,
                depth,
                ..
            } => (delta_digest.clone(), *depth),
        };
        self.lock_trees().insert(
            key.clone(),
            CachedTree {
                entries: Arc::new(split_tree_record(&record)?),
                object_digest,
                depth,
            },
        );
        Ok(Some(Layer {
            id: key.clone(),
            parent: parts.parent,
            fs,
            state: parts.state,
        }))
    }
}

/// A decoded layer record, filesystem not yet materialized.
struct RecordParts {
    parent: Option<CacheKey>,
    state: LayerState,
    tree_ref: TreeRef,
}

/// A decoded delta blob.
struct DeltaParts {
    parent_is_delta: bool,
    parent_digest: String,
    removed: Vec<String>,
    upserts: Vec<(String, Vec<u8>)>,
}

fn encode_layer_record(layer: &Layer, tree_ref: &TreeRef) -> Vec<u8> {
    let mut enc = Enc::new(LAYER_MAGIC);
    enc.str(layer.id.as_hex());
    match &layer.parent {
        Some(parent) => {
            enc.u8(1);
            enc.str(parent.as_hex());
        }
        None => {
            enc.u8(0);
        }
    }
    enc.u64(layer.state.args.len() as u64);
    for (k, v) in &layer.state.args {
        enc.str(k);
        enc.str(v);
    }
    match &layer.state.stage {
        Some(stage) => {
            enc.u8(1);
            encode_meta(&mut enc, &stage.meta);
            enc.u64(stage.env.len() as u64);
            for (k, v) in &stage.env {
                enc.str(k);
                enc.str(v);
            }
            enc.u64(stage.shell.len() as u64);
            for s in &stage.shell {
                enc.str(s);
            }
            enc.str(&stage.cwd);
        }
        None => {
            enc.u8(0);
        }
    }
    match tree_ref {
        TreeRef::Full { digest } => {
            enc.u8(0);
            enc.str(digest);
        }
        TreeRef::Delta {
            delta_digest,
            depth,
            full_digest,
        } => {
            enc.u8(1);
            enc.str(delta_digest);
            enc.u64(*depth);
            enc.str(full_digest);
        }
    }
    enc.finish()
}

/// Decode a layer record. Only the current magic is accepted: a record
/// in any other form reads as corrupt, which the load path absorbs as
/// a cache miss and heals by re-persisting the layer.
fn decode_layer_record(bytes: &[u8], key: &CacheKey) -> Result<RecordParts> {
    let mut dec = Dec::new(bytes, LAYER_MAGIC)?;
    let id_hex = dec.str()?;
    let id = CacheKey::from_hex(&id_hex)
        .ok_or_else(|| StoreError::corrupt(format!("bad layer key {id_hex:?}")))?;
    if &id != key {
        return Err(StoreError::corrupt(format!(
            "layer record {} claims key {}",
            key.as_hex(),
            id_hex
        )));
    }
    let parent = match dec.u8()? {
        0 => None,
        1 => {
            let hex = dec.str()?;
            Some(
                CacheKey::from_hex(&hex)
                    .ok_or_else(|| StoreError::corrupt(format!("bad parent key {hex:?}")))?,
            )
        }
        other => {
            return Err(StoreError::corrupt(format!("bad parent tag {other}")));
        }
    };
    let arg_count = dec.u64()?;
    let mut args = Vec::new();
    for _ in 0..arg_count {
        let k = dec.str()?;
        let v = dec.str()?;
        args.push((k, v));
    }
    let stage = match dec.u8()? {
        0 => None,
        1 => {
            let meta = decode_meta(&mut dec)?;
            let env_count = dec.u64()?;
            let mut env = Vec::new();
            for _ in 0..env_count {
                let k = dec.str()?;
                let v = dec.str()?;
                env.push((k, v));
            }
            let shell_count = dec.u64()?;
            let mut shell = Vec::new();
            for _ in 0..shell_count {
                shell.push(dec.str()?);
            }
            let cwd = dec.str()?;
            Some(StageSnapshot {
                meta,
                env,
                shell,
                cwd,
            })
        }
        other => {
            return Err(StoreError::corrupt(format!("bad stage tag {other}")));
        }
    };
    let tree_ref = match dec.u8()? {
        0 => TreeRef::Full {
            digest: expect_digest(dec.str()?)?,
        },
        1 => {
            let delta_digest = expect_digest(dec.str()?)?;
            let depth = dec.u64()?;
            let full_digest = expect_digest(dec.str()?)?;
            TreeRef::Delta {
                delta_digest,
                depth,
                full_digest,
            }
        }
        other => {
            return Err(StoreError::corrupt(format!("bad tree-ref tag {other}")));
        }
    };
    dec.done()?;
    Ok(RecordParts {
        parent,
        state: LayerState { args, stage },
        tree_ref,
    })
}

fn expect_digest(s: String) -> Result<String> {
    if valid_digest(&s) {
        Ok(s)
    } else {
        Err(StoreError::corrupt(format!("bad tree digest {s:?}")))
    }
}

fn decode_delta(bytes: &[u8]) -> Result<DeltaParts> {
    let mut dec = Dec::new(bytes, DELTA_MAGIC)?;
    let parent_is_delta = match dec.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::corrupt(format!("bad delta parent tag {other}")));
        }
    };
    let parent_digest = expect_digest(dec.str()?)?;
    let removed_count = dec.u64()?;
    let mut removed = Vec::new();
    for _ in 0..removed_count {
        removed.push(dec.str()?);
    }
    let upsert_count = dec.u64()?;
    let mut upserts = Vec::new();
    for _ in 0..upsert_count {
        let path = dec.str()?;
        let bytes = dec.bytes()?.to_vec();
        upserts.push((path, bytes));
    }
    dec.done()?;
    Ok(DeltaParts {
        parent_is_delta,
        parent_digest,
        removed,
        upserts,
    })
}

impl LayerPersistence for DiskLayers {
    fn persist(&self, layer: &Layer) {
        self.persist_with_parent(layer, None);
    }

    fn persist_with_parent(&self, layer: &Layer, parent: Option<&Layer>) {
        match self.persist_inner(layer, parent) {
            Ok(delta) => {
                self.persisted.fetch_add(1, Ordering::Relaxed);
                if delta {
                    self.delta_persisted.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => self.note_error(&format!("persist {}", layer.id.short()), &e),
        }
        self.note_dir_fsync_failures();
    }

    fn load(&self, key: &CacheKey) -> Option<Layer> {
        match self.load_inner(key) {
            Ok(Some(layer)) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                Some(layer)
            }
            Ok(None) => None,
            Err(e) => {
                // Corruption reads as a miss: the build re-executes and
                // re-persists, healing the record.
                self.note_error(&format!("load {}", key.short()), &e);
                None
            }
        }
    }

    fn load_state(&self, key: &CacheKey) -> Option<zr_image::LayerState> {
        // The chain-walk fast path: record only, no tree fetch, no
        // payload blobs — a cold-open replay reads O(state) per
        // prefix layer and materializes one filesystem at the end.
        match self.read_record(key) {
            Ok(Some(parts)) => Some(parts.state),
            Ok(None) => None,
            Err(e) => {
                self.note_error(&format!("load {}", key.short()), &e);
                None
            }
        }
    }

    fn has(&self, key: &CacheKey) -> bool {
        self.cas.layers_dir().join(key.as_hex()).exists()
    }

    fn keys(&self) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = std::fs::read_dir(self.cas.layers_dir())
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| CacheKey::from_hex(&e.file_name().to_string_lossy()))
                    .collect()
            })
            .unwrap_or_default();
        keys.sort();
        keys
    }
}

/// Open (or create) a persistent layer store at `dir`: a fresh
/// in-memory [`LayerStore`] attached to the directory's durable tier.
/// This is the `--cache-dir` entry point — a second process opening
/// the same directory replays the first one's layers.
pub fn open_layer_store(dir: impl AsRef<Path>) -> Result<(LayerStore, Arc<DiskLayers>)> {
    let cas = Cas::open(dir)?;
    let disk = Arc::new(DiskLayers::new(cas));
    let store = LayerStore::new();
    store.set_persistence(disk.clone());
    Ok((store, disk))
}
