//! The instruction-level layer cache (ch-image's build cache).
//!
//! Every successfully executed Dockerfile instruction snapshots the
//! container filesystem into a [`Layer`], addressed by a [`CacheKey`]
//! over (parent layer, normalized instruction text, build-context
//! digest, strategy configuration). A rebuild walks the same key chain
//! and restores snapshots instead of executing, until the first key the
//! store does not know — ch-image's `N* INSTR` hit versus `N. INSTR`
//! miss markers, which is where iterative unprivileged builds get their
//! speed.
//!
//! The store is builder-side state (it lives in `zr-build`'s
//! `Builder`, beside the registry handle), but the *data model* belongs
//! here with the other image storage types. One [`LayerStore`] is
//! shared by every worker of a scheduler; a single lock guards its
//! entries, blob ledger, LRU clock and counters, and is held for map
//! and counter work only.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use zeroroot_core::digest::FieldDigest;
use zeroroot_core::sync::lock_or_poisoned;
use zr_vfs::fs::Fs;
use zr_vfs::FileKind;

use crate::image::ImageMeta;

/// A layer cache key: 64 hex characters of a field-delimited SHA-256
/// over everything that decides an instruction's outcome.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// Compute the key for one instruction.
    ///
    /// * `parent` — the previous instruction's key (`None` for the
    ///   first instruction), chaining the whole prefix into this key.
    /// * `instruction` — the normalized instruction text (ARG values
    ///   resolved, FROM references substituted).
    /// * `context` — digest of the build-context content COPY/ADD
    ///   sources refer to; empty for instructions without context.
    /// * `config` — the active strategy configuration (`--force` flag,
    ///   container type, host libc): a strategy change must invalidate
    ///   the chain because the same RUN behaves differently under it.
    pub fn compute(
        parent: Option<&CacheKey>,
        instruction: &str,
        context: &str,
        config: &str,
    ) -> CacheKey {
        let mut d = FieldDigest::new("zr-layer-v1");
        d.field(parent.map_or("", |p| p.as_hex()).as_bytes())
            .field(instruction.as_bytes())
            .field(context.as_bytes())
            .field(config.as_bytes());
        CacheKey(d.finish())
    }

    /// Re-admit a key from its hex rendering (how the persistent store
    /// names layer records on disk). `None` unless it is exactly 64
    /// lowercase hex characters — file names never round-trip into
    /// keys by accident.
    pub fn from_hex(hex: &str) -> Option<CacheKey> {
        let well_formed = hex.len() == 64
            && hex
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
        well_formed.then(|| CacheKey(hex.to_string()))
    }

    /// The hex rendering (stable, ordered, log-friendly).
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// Abbreviated id for logs (`git log --oneline` style).
    pub fn short(&self) -> &str {
        &self.0[..12]
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The builder-side stage state a snapshot must restore besides the
/// filesystem: metadata, ENV/SHELL state, and the working directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Image metadata as of this layer.
    pub meta: ImageMeta,
    /// Effective ENV state (image defaults + ENV instructions).
    pub env: Vec<(String, String)>,
    /// The SHELL prefix for shell-form RUN.
    pub shell: Vec<String>,
    /// Working directory (WORKDIR state).
    pub cwd: String,
}

/// Everything a replay needs to continue *after* this layer without
/// executing anything up to and including it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerState {
    /// ARG values accumulated so far (resolved).
    pub args: Vec<(String, String)>,
    /// Stage state; `None` for layers before the first FROM (a
    /// Dockerfile may open with ARG instructions).
    pub stage: Option<StageSnapshot>,
}

/// One cached layer: the filesystem snapshot plus replayable state.
#[derive(Debug, Clone)]
pub struct Layer {
    /// This layer's cache key.
    pub id: CacheKey,
    /// The parent layer's key (`None` for the first instruction).
    pub parent: Option<CacheKey>,
    /// Filesystem snapshot taken after the instruction ran (empty for
    /// pre-FROM layers, which have no stage filesystem yet).
    pub fs: Fs,
    /// Replayable builder state.
    pub state: LayerState,
}

/// Fixed per-inode overhead (metadata, directory entries) the
/// `--cache-limit` budget charges on top of payload bytes.
const INODE_OVERHEAD: u64 = 256;

/// The non-payload footprint of one layer: per-inode overhead plus
/// symlink targets. File payload bytes are charged through the shared
/// blob ledger instead, so snapshots that share blobs are charged for
/// them once, not once per layer.
fn layer_overhead(layer: &Layer) -> u64 {
    layer
        .fs
        .inodes()
        .map(|inode| {
            INODE_OVERHEAD
                + match &inode.kind {
                    FileKind::Symlink(target) => target.len() as u64,
                    _ => 0,
                }
        })
        .sum()
}

/// Every file blob of a layer as `(content digest, length)` — one
/// entry per inode (hard links count once). Forces each blob's
/// memoized SHA-256; for a snapshot chain this hashes only blobs no
/// earlier layer has been charged for.
fn blob_inventory(layer: &Layer) -> Vec<(String, u64)> {
    layer
        .fs
        .blobs()
        .map(|blob| (blob.sha_hex(), blob.len() as u64))
        .collect()
}

/// One stored layer plus the bookkeeping eviction and the dedup ledger
/// need. The layer sits behind an `Arc` so lookups hand out O(1)
/// clones — the store lock is never held across an O(image) filesystem
/// copy.
#[derive(Debug, Clone)]
struct Entry {
    layer: Arc<Layer>,
    /// Non-payload footprint (inode overhead + symlink targets).
    overhead: u64,
    /// What this layer would cost stored as a full copy (overhead +
    /// every payload byte) — the dedup savings baseline.
    logical_bytes: u64,
    /// The blobs this layer references, for ledger release on removal.
    inventory: Vec<(String, u64)>,
    /// Logical clock value of the last hit (or the insert) — the LRU
    /// ordering eviction walks.
    last_hit: u64,
}

/// Aggregate counters for a [`LayerStore`], across every builder
/// sharing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Layers currently stored.
    pub layers: usize,
    /// Approximate bytes currently stored, **deduplicated**: a payload
    /// blob shared by many snapshots is charged once. This is what the
    /// budget bounds.
    pub bytes: u64,
    /// What the same layers would cost stored as full copies (the
    /// pre-CoW accounting); `logical_bytes - bytes` is the dedup win.
    pub logical_bytes: u64,
    /// Distinct payload blobs currently charged in the ledger.
    pub blobs: u64,
    /// The configured size budget (0 = unlimited).
    pub budget: u64,
    /// Lookups that found a layer (lifetime, cross-build).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Layers evicted to respect the budget.
    pub evictions: u64,
    /// Hits served by the persistence tier — layers this process never
    /// built or inserted, replayed from disk (subset of `hits`).
    pub disk_hits: u64,
}

impl StoreStats {
    /// Bytes the blob-level dedup saves over storing full copies.
    pub fn dedup_saved(&self) -> u64 {
        self.logical_bytes.saturating_sub(self.bytes)
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} layers, {} bytes ({} logical, {} saved by dedup, {} blobs), \
             {} hits ({} from disk), {} misses, {} evictions",
            self.layers,
            self.bytes,
            self.logical_bytes,
            self.dedup_saved(),
            self.blobs,
            self.hits,
            self.disk_hits,
            self.misses,
            self.evictions
        )
    }
}

/// A durable backing tier for a [`LayerStore`] — the hook `zr-store`
/// plugs its on-disk content-addressed store into.
///
/// The in-memory store stays the source of truth for the hot set; the
/// persistence tier sees every insert (write-through) and is consulted
/// on lookup misses, so a fresh process pointed at a warm store replays
/// builds it never executed. Implementations must tolerate concurrent
/// callers and absorb their own I/O errors (a failed persist must not
/// fail a build; a failed load is a miss).
pub trait LayerPersistence: Send + Sync + std::fmt::Debug {
    /// Durably record a layer (idempotent: layers are content-addressed
    /// by their cache key).
    fn persist(&self, layer: &Layer);
    /// [`persist`](Self::persist) with the layer's parent supplied when
    /// the caller still holds it — implementations can encode the layer
    /// as a delta against the parent instead of a full record. The
    /// default ignores the parent and persists in full, so existing
    /// implementations stay correct unchanged.
    fn persist_with_parent(&self, layer: &Layer, parent: Option<&Layer>) {
        let _ = parent;
        self.persist(layer);
    }
    /// Load a layer by key; `None` for unknown keys *and* for layers
    /// that fail to deserialize (corruption reads as a cache miss).
    fn load(&self, key: &CacheKey) -> Option<Layer>;
    /// Load only a layer's replayable *state* — what the builder's
    /// chain walk consults for every layer of a cached prefix. The
    /// default materializes the whole layer; implementations should
    /// override it to skip the filesystem, keeping the walk O(state)
    /// with exactly one full materialization (the deepest hit).
    fn load_state(&self, key: &CacheKey) -> Option<LayerState> {
        self.load(key).map(|layer| layer.state)
    }
    /// Is the key durably stored? (No deserialization.)
    fn has(&self, key: &CacheKey) -> bool;
    /// Every durably stored key, sorted.
    fn keys(&self) -> Vec<CacheKey>;
}

/// Everything a [`LayerStore`]'s one lock guards. Only map, ledger and
/// counter work runs under it: snapshots are inventoried before it is
/// taken ([`Entry::new`]) and persistence I/O runs after it is released.
#[derive(Debug, Default)]
struct StoreState {
    entries: BTreeMap<CacheKey, Entry>,
    /// The blob dedup ledger: content digest → (length, layers holding
    /// it). Bytes are charged when a blob's first layer arrives and
    /// released when its last layer leaves.
    ledger: HashMap<String, (u64, u64)>,
    /// Logical LRU clock (bumped on every hit and insert).
    clock: u64,
    /// Size budget in bytes; 0 means unlimited.
    budget: u64,
    /// Approximate deduplicated bytes stored.
    bytes: u64,
    /// What full copies would cost (sum of per-layer logical bytes).
    logical_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Lookups served by the persistence tier (subset of `hits`).
    disk_hits: u64,
    /// Optional durable backing tier (write-through + miss
    /// fallthrough). Cloned out of the lock before any I/O.
    disk: Option<Arc<dyn LayerPersistence>>,
}

impl Entry {
    /// An entry for `layer`, its footprint and blob inventory computed
    /// here, before any lock: the blob digests this forces are memoized
    /// in the blobs themselves, so snapshot chains only ever hash new
    /// bytes. [`StoreState::store`] stamps the LRU position.
    fn new(layer: Layer) -> Entry {
        let overhead = layer_overhead(&layer);
        let inventory = blob_inventory(&layer);
        let logical_bytes = overhead + inventory.iter().map(|(_, len)| len).sum::<u64>();
        Entry {
            layer: Arc::new(layer),
            overhead,
            logical_bytes,
            inventory,
            last_hit: 0,
        }
    }
}

impl StoreState {
    /// A memory hit: refresh the entry's LRU position, count the hit
    /// when asked, and hand out the shared layer.
    fn hit(&mut self, key: &CacheKey, count_stats: bool) -> Option<Arc<Layer>> {
        let entry = self.entries.get_mut(key)?;
        self.clock += 1;
        entry.last_hit = self.clock;
        if count_stats {
            self.hits += 1;
        }
        Some(Arc::clone(&entry.layer))
    }

    /// Count a lookup the persistence tier answered (`found`) or that
    /// missed everywhere.
    fn count_fallthrough(&mut self, found: bool) {
        if found {
            self.hits += 1;
            self.disk_hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Save an entry under its key (replacing an equal key — the
    /// content address makes the old and new layer interchangeable) as
    /// the most recently used, then evict down to the budget.
    fn store(&mut self, mut entry: Entry) {
        self.clock += 1;
        entry.last_hit = self.clock;
        self.charge(&entry);
        if let Some(old) = self.entries.insert(entry.layer.id.clone(), entry) {
            self.release(&old);
        }
        self.enforce_budget();
    }

    /// Charge an entry's footprint: overhead unconditionally, payload
    /// blobs only on their first reference (the dedup win). A digest is
    /// cloned only for a blob the ledger does not hold yet.
    fn charge(&mut self, entry: &Entry) {
        let mut new_bytes = entry.overhead;
        for (sha, len) in &entry.inventory {
            match self.ledger.get_mut(sha) {
                Some(slot) => slot.1 += 1,
                None => {
                    self.ledger.insert(sha.clone(), (*len, 1));
                    new_bytes += len;
                }
            }
        }
        self.bytes += new_bytes;
        self.logical_bytes += entry.logical_bytes;
    }

    /// Release an entry already removed from the map: overhead
    /// immediately, each payload blob when its last referencing layer
    /// is gone.
    fn release(&mut self, entry: &Entry) {
        let mut freed = entry.overhead;
        for (sha, len) in &entry.inventory {
            if let Some(slot) = self.ledger.get_mut(sha) {
                slot.1 -= 1;
                if slot.1 == 0 {
                    freed += len;
                    self.ledger.remove(sha);
                }
            }
        }
        self.bytes -= freed;
        self.logical_bytes -= entry.logical_bytes;
    }

    /// Evict least-recently-hit layers until the store fits its budget,
    /// in one pass: entries are taken in LRU order until the
    /// deduplicated byte counter fits. Evicting a layer only frees
    /// payload bytes its blobs no longer share with a surviving layer,
    /// so the counter is re-read after each removal instead of
    /// predicting sizes.
    fn enforce_budget(&mut self) {
        if self.budget == 0 || self.bytes <= self.budget {
            return;
        }
        let mut lru: Vec<(u64, CacheKey)> = self
            .entries
            .iter()
            .map(|(key, entry)| (entry.last_hit, key.clone()))
            .collect();
        lru.sort_unstable_by_key(|(last_hit, _)| *last_hit);
        for (_, key) in lru {
            if self.bytes <= self.budget {
                break;
            }
            if let Some(old) = self.entries.remove(&key) {
                self.release(&old);
                self.evictions += 1;
            }
        }
    }
}

/// Content-addressed storage for layers, keyed by [`CacheKey`].
///
/// The store is a *shared handle*: cloning shares the underlying
/// storage (`Arc`), every method takes `&self`, and one lock guards the
/// whole cache state — concurrent builds of similar Dockerfiles get
/// cross-build cache hits instead of duplicate snapshots. The lock is
/// held for map, ledger and counter work only, never across a snapshot
/// inventory or persistence I/O.
///
/// An optional size budget caps growth: when an insert pushes the
/// store past its budget, the least-recently-hit layers are evicted
/// until it fits. Evicting a mid-chain layer only shortens future
/// replays (the chain walk stops at the first missing key); it can
/// never corrupt a build.
#[derive(Debug, Clone, Default)]
pub struct LayerStore {
    state: Arc<Mutex<StoreState>>,
}

impl LayerStore {
    /// An empty, unbounded store.
    pub fn new() -> LayerStore {
        LayerStore::default()
    }

    /// An empty store that evicts least-recently-hit layers once its
    /// approximate size exceeds `bytes` (0 = unlimited).
    pub fn with_budget(bytes: u64) -> LayerStore {
        let store = LayerStore::new();
        store.set_budget(bytes);
        store
    }

    fn lock(&self) -> MutexGuard<'_, StoreState> {
        lock_or_poisoned(&self.state)
    }

    /// Change the size budget (0 = unlimited) and enforce it.
    pub fn set_budget(&self, bytes: u64) {
        let mut state = self.lock();
        state.budget = bytes;
        state.enforce_budget();
    }

    /// The configured size budget (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.lock().budget
    }

    /// Attach a durable backing tier. Every subsequent insert is
    /// written through to it and every lookup miss falls through to it,
    /// so two processes attached to the same store directory share a
    /// warm cache across their lifetimes.
    pub fn set_persistence(&self, disk: Arc<dyn LayerPersistence>) {
        self.lock().disk = Some(disk);
    }

    /// The attached persistence tier, if any.
    pub fn persistence(&self) -> Option<Arc<dyn LayerPersistence>> {
        self.lock().disk.clone()
    }

    /// Save a layer under its own key (replaces an equal key — the
    /// content address makes the old and new layer interchangeable),
    /// then evict down to the budget if necessary. With a persistence
    /// tier attached the layer is also written through to disk.
    pub fn insert(&self, layer: Layer) {
        let entry = Entry::new(layer);
        let layer = Arc::clone(&entry.layer);
        let (disk, parent) = {
            let mut state = self.lock();
            state.store(entry);
            let Some(disk) = state.disk.clone() else {
                return;
            };
            // The parent rides along (when still in memory) so the
            // disk tier can encode a delta instead of a full record.
            let parent = layer
                .parent
                .as_ref()
                .and_then(|p| state.entries.get(p))
                .map(|entry| Arc::clone(&entry.layer));
            (disk, parent)
        };
        // Outside the lock: persistence does real I/O.
        disk.persist_with_parent(&layer, parent.as_deref());
    }

    /// Shared core of [`get`](Self::get) and
    /// [`materialize`](Self::materialize): LRU refresh on a hit and
    /// optional stat counting. A memory miss falls through to the
    /// persistence tier (outside the lock — disk loads do real I/O); a
    /// disk hit is promoted into memory and counts as a hit.
    fn lookup(&self, key: &CacheKey, count_stats: bool) -> Option<Arc<Layer>> {
        let disk = {
            let mut state = self.lock();
            if let Some(layer) = state.hit(key, count_stats) {
                return Some(layer);
            }
            state.disk.clone()
        };
        let loaded = disk.and_then(|disk| disk.load(key));
        // Promote without re-persisting (the disk already has it). A
        // concurrent promotion of the same key is idempotent:
        // content-addressed layers replace interchangeably.
        let entry = loaded.map(Entry::new);
        let layer = entry.as_ref().map(|entry| Arc::clone(&entry.layer));
        let mut state = self.lock();
        if count_stats {
            state.count_fallthrough(entry.is_some());
        }
        if let Some(entry) = entry {
            state.store(entry);
        }
        layer
    }

    /// Look a layer up by key; a hit refreshes the layer's LRU
    /// position. The returned handle is an O(1) `Arc` clone — no
    /// filesystem copy happens, under the store lock or after it.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Layer>> {
        self.lookup(key, true)
    }

    /// Clone only the replayable *state* of a cached layer — no
    /// filesystem copy. The builder's chain walk consults every layer
    /// of a cached prefix but materializes just the deepest one; this
    /// keeps the walk O(state), not O(image) — *including* on the
    /// disk tier, where a miss asks the persistence layer for the
    /// state record alone (no tree deserialization, no promotion).
    /// Counts as a hit (LRU refresh included), exactly like
    /// [`LayerStore::get`].
    pub fn peek_state(&self, key: &CacheKey) -> Option<LayerState> {
        let disk = {
            let mut state = self.lock();
            match state.hit(key, true) {
                Some(layer) => {
                    drop(state);
                    return Some(layer.state.clone());
                }
                None => state.disk.clone(),
            }
        };
        let found = disk.and_then(|disk| disk.load_state(key));
        self.lock().count_fallthrough(found.is_some());
        found
    }

    /// The second half of a peek-then-materialize sequence: fetch the
    /// full layer for a key [`peek_state`](Self::peek_state) already
    /// counted, refreshing its LRU position but *not* the hit/miss
    /// counters — one logical lookup stays one statistic.
    pub fn materialize(&self, key: &CacheKey) -> Option<Arc<Layer>> {
        self.lookup(key, false)
    }

    /// Is the key cached, in memory or on the persistence tier? (No
    /// stats, no LRU refresh, no promotion.)
    pub fn contains(&self, key: &CacheKey) -> bool {
        let disk = {
            let state = self.lock();
            if state.entries.contains_key(key) {
                return true;
            }
            state.disk.clone()
        };
        disk.is_some_and(|disk| disk.has(key))
    }

    /// Drop every in-memory layer (what a `build --no-cache` followed
    /// by prune would do; also test isolation). Usage counters survive;
    /// the persistence tier is untouched — durable layers are removed
    /// by the store's own garbage collection, never by a cache prune.
    pub fn clear(&self) {
        let mut state = self.lock();
        let entries = std::mem::take(&mut state.entries);
        state.ledger.clear();
        state.bytes = 0;
        state.logical_bytes = 0;
        drop(state);
        // The layers themselves are freed after the lock is released.
        drop(entries);
    }

    /// Number of cached layers.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate deduplicated bytes stored (shared payload blobs
    /// charged once across all layers).
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// All keys, sorted (deterministic iteration for reports).
    pub fn keys(&self) -> Vec<CacheKey> {
        self.lock().entries.keys().cloned().collect()
    }

    /// Aggregate usage counters.
    pub fn stats(&self) -> StoreStats {
        let state = self.lock();
        StoreStats {
            layers: state.entries.len(),
            bytes: state.bytes,
            logical_bytes: state.logical_bytes,
            blobs: state.ledger.len() as u64,
            budget: state.budget,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            disk_hits: state.disk_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Distro;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn meta() -> ImageMeta {
        ImageMeta {
            name: "t".into(),
            tag: "1".into(),
            distro: Distro::Alpine,
            libc: "musl-1.2".into(),
            env: vec![],
            binaries: vec![],
        }
    }

    fn layer(id: &CacheKey, parent: Option<&CacheKey>) -> Layer {
        Layer {
            id: id.clone(),
            parent: parent.cloned(),
            fs: Fs::new(),
            state: LayerState {
                args: vec![],
                stage: Some(StageSnapshot {
                    meta: meta(),
                    env: vec![],
                    shell: vec!["/bin/sh".into(), "-c".into()],
                    cwd: "/".into(),
                }),
            },
        }
    }

    #[test]
    fn keys_are_deterministic() {
        let a = CacheKey::compute(None, "FROM alpine:3.19", "", "seccomp");
        let b = CacheKey::compute(None, "FROM alpine:3.19", "", "seccomp");
        assert_eq!(a, b);
        assert_eq!(a.as_hex().len(), 64);
        assert_eq!(a.short().len(), 12);
        assert_eq!(a.to_string(), a.as_hex());
    }

    #[test]
    fn every_field_discriminates() {
        let parent = CacheKey::compute(None, "FROM alpine:3.19", "", "seccomp");
        let base = CacheKey::compute(Some(&parent), "RUN true", "ctx", "seccomp");
        assert_ne!(base, CacheKey::compute(None, "RUN true", "ctx", "seccomp"));
        assert_ne!(
            base,
            CacheKey::compute(Some(&parent), "RUN false", "ctx", "seccomp")
        );
        assert_ne!(
            base,
            CacheKey::compute(Some(&parent), "RUN true", "ctx2", "seccomp")
        );
        assert_ne!(
            base,
            CacheKey::compute(Some(&parent), "RUN true", "ctx", "fakeroot")
        );
    }

    #[test]
    fn store_roundtrip() {
        let store = LayerStore::new();
        assert!(store.is_empty());
        let k1 = CacheKey::compute(None, "FROM alpine:3.19", "", "none");
        let k2 = CacheKey::compute(Some(&k1), "RUN true", "", "none");
        store.insert(layer(&k1, None));
        store.insert(layer(&k2, Some(&k1)));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&k1));
        assert_eq!(store.get(&k2).unwrap().parent.as_ref(), Some(&k1));
        assert_eq!(store.keys().len(), 2);
        store.clear();
        assert!(store.is_empty());
        assert!(store.get(&k1).is_none());
    }

    #[test]
    fn clones_share_storage() {
        let store = LayerStore::new();
        let handle = store.clone();
        let k = CacheKey::compute(None, "FROM alpine:3.19", "", "none");
        store.insert(layer(&k, None));
        assert!(handle.contains(&k), "clone sees the insert");
        assert_eq!(handle.len(), 1);
        handle.clear();
        assert!(store.is_empty(), "clear through either handle");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let store = LayerStore::new();
        let k = CacheKey::compute(None, "FROM alpine:3.19", "", "none");
        let missing = CacheKey::compute(None, "RUN nope", "", "none");
        store.insert(layer(&k, None));
        assert!(store.get(&k).is_some());
        assert!(store.get(&missing).is_none());
        let stats = store.stats();
        assert_eq!(stats.layers, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!(stats.bytes > 0, "layers have a nonzero footprint");
        assert!(stats.to_string().contains("1 hits"));
    }

    /// A layer whose filesystem carries `bytes` of file payload,
    /// *distinct per key* (the id is stamped into the bytes) so LRU
    /// tests measure eviction, not blob dedup.
    fn sized_layer(id: &CacheKey, bytes: usize) -> Layer {
        let mut l = layer(id, None);
        let root = zr_vfs::Access::root();
        let mut data = vec![0u8; bytes];
        let stamp = id.as_hex().as_bytes();
        data[..stamp.len().min(bytes)].copy_from_slice(&stamp[..stamp.len().min(bytes)]);
        l.fs.mkdir_p("/data", 0o755).unwrap();
        l.fs.write_file("/data/blob", 0o644, data, &root).unwrap();
        l
    }

    #[test]
    fn budget_evicts_least_recently_hit() {
        let store = LayerStore::new();
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::compute(None, &format!("RUN step-{i}"), "", "none"))
            .collect();
        for k in &keys {
            store.insert(sized_layer(k, 4096));
        }
        let four = store.bytes();
        // Refresh key 0 so key 1 becomes the LRU victim.
        assert!(store.get(&keys[0]).is_some());
        // Budget for roughly three of the four layers.
        store.set_budget(four - 2048);
        assert!(store.bytes() <= store.budget(), "evicted down to budget");
        assert!(!store.contains(&keys[1]), "LRU layer evicted first");
        assert!(store.contains(&keys[0]), "recently hit layer survives");
        assert!(store.stats().evictions >= 1);
    }

    #[test]
    fn shared_blobs_are_charged_once() {
        let store = LayerStore::new();
        let root = zr_vfs::Access::root();
        // One base fs with a 8 KiB payload; two snapshot layers share
        // it (the second adds a small file, CoW-style).
        let k1 = CacheKey::compute(None, "FROM base", "", "none");
        let k2 = CacheKey::compute(Some(&k1), "RUN touch /x", "", "none");
        let mut base = Fs::new();
        base.write_file("/big", 0o644, vec![9u8; 8192], &root)
            .unwrap();
        let mut l1 = layer(&k1, None);
        l1.fs = base.clone();
        let mut l2 = layer(&k2, Some(&k1));
        let mut snap = base.clone();
        snap.write_file("/x", 0o644, b"tiny".to_vec(), &root)
            .unwrap();
        l2.fs = snap;

        store.insert(l1);
        let after_one = store.bytes();
        store.insert(l2);
        let stats = store.stats();
        assert!(
            store.bytes() < after_one + 8192,
            "the shared 8 KiB blob must not be charged twice: \
             one layer {after_one}, both {}",
            store.bytes()
        );
        assert!(stats.logical_bytes > stats.bytes, "dedup saves bytes");
        assert!(stats.dedup_saved() >= 8192);
        assert_eq!(stats.blobs, 2, "big blob + tiny blob");
        // Evicting the first layer must keep the shared blob charged
        // (the second still references it) …
        let before = store.bytes();
        store.insert({
            // replace k1 with itself to exercise replace-release
            let mut l = layer(&k1, None);
            l.fs = base.clone();
            l
        });
        assert_eq!(store.bytes(), before, "replacement is byte-neutral");
        store.clear();
        assert_eq!(store.bytes(), 0, "clear releases everything");
        assert_eq!(store.stats().blobs, 0);
        assert_eq!(store.stats().logical_bytes, 0);
    }

    /// An in-memory stand-in for the on-disk tier: enough to pin the
    /// write-through / fallthrough / promotion contract without
    /// touching a filesystem (zr-store's integration tests do that).
    #[derive(Debug, Default)]
    struct MockDisk {
        layers: Mutex<BTreeMap<CacheKey, Layer>>,
        persists: AtomicU64,
        loads: AtomicU64,
    }

    impl LayerPersistence for MockDisk {
        fn persist(&self, layer: &Layer) {
            self.persists.fetch_add(1, Ordering::Relaxed);
            lock_or_poisoned(&self.layers).insert(layer.id.clone(), layer.clone());
        }
        fn load(&self, key: &CacheKey) -> Option<Layer> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            lock_or_poisoned(&self.layers).get(key).cloned()
        }
        fn has(&self, key: &CacheKey) -> bool {
            lock_or_poisoned(&self.layers).contains_key(key)
        }
        fn keys(&self) -> Vec<CacheKey> {
            lock_or_poisoned(&self.layers).keys().cloned().collect()
        }
    }

    #[test]
    fn persistence_tier_sees_inserts_and_serves_misses() {
        let disk = Arc::new(MockDisk::default());
        let store = LayerStore::new();
        store.set_persistence(disk.clone());
        let k = CacheKey::compute(None, "FROM alpine:3.19", "", "none");
        store.insert(layer(&k, None));
        assert_eq!(disk.persists.load(Ordering::Relaxed), 1, "write-through");

        // A second handle over the same disk (a "second process"): its
        // memory is cold, the lookup falls through and promotes.
        let second = LayerStore::new();
        second.set_persistence(disk.clone());
        assert!(second.contains(&k), "contains consults the disk tier");
        assert!(second.get(&k).is_some(), "miss falls through to disk");
        let stats = second.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (1, 1, 0));
        assert_eq!(second.len(), 1, "disk hit promoted into memory");
        // The promotion must not echo back to disk.
        assert_eq!(disk.persists.load(Ordering::Relaxed), 1);
        // Promoted layers answer from memory from now on.
        let loads = disk.loads.load(Ordering::Relaxed);
        assert!(second.get(&k).is_some());
        assert_eq!(disk.loads.load(Ordering::Relaxed), loads);
        assert_eq!(second.stats().disk_hits, 1);

        // clear() prunes memory only; the durable tier survives.
        second.clear();
        assert!(second.is_empty());
        assert!(disk.has(&k));
        assert!(second.get(&k).is_some(), "reload after prune");
    }

    #[test]
    fn inserts_respect_the_budget() {
        let store = LayerStore::with_budget(12 * 1024);
        for i in 0..32 {
            let k = CacheKey::compute(None, &format!("RUN step-{i}"), "", "none");
            store.insert(sized_layer(&k, 4096));
        }
        assert!(store.bytes() <= store.budget());
        assert!(store.len() < 32, "older layers were evicted");
        assert!(store.stats().evictions > 0);
        // Zero budget means unlimited again.
        store.set_budget(0);
        let before = store.len();
        let k = CacheKey::compute(None, "RUN one-more", "", "none");
        store.insert(sized_layer(&k, 4096));
        assert_eq!(store.len(), before + 1);
    }
}
