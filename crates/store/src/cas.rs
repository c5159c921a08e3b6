//! The persistent content-addressed store.
//!
//! On-disk layout, versioned by the `format` file:
//!
//! ```text
//! <root>/
//!   format                  # "zr-store-v1\n"
//!   config                  # versioned store config (the byte budget)
//!   blobs/sha256/<64 hex>   # content, named by its SHA-256
//!   chunks/<64 hex>         # chunk-index records for large blobs,
//!                           #   named by the *logical* digest
//!   tmp/                    # staging for atomic writes (emptied at open)
//!   roots/<name>            # pin records: the digests a named root holds live
//!   layers/<cache key>      # layer records (written by DiskLayers)
//! ```
//!
//! Every write is *atomic*: bytes go to a unique file under `tmp/`, are
//! fsync'd, and land under their final name with a `rename` — a reader
//! (or a second process) observes either nothing or the complete,
//! verified content, never a torn write. Reopening after a crash is
//! therefore trivial: stray `tmp/` files are deleted and everything
//! else is trusted until its digest says otherwise (every `get`
//! re-verifies).
//!
//! Large blobs (≥ [`CHUNK_THRESHOLD`]) are stored *chunked*:
//! content-defined spans become ordinary blob objects and a small index
//! record under `chunks/` maps the logical digest to its chunk
//! sequence. Reads reassemble and verify the whole logical content, so
//! chunking is invisible above this module — but an appended log or
//! edited archive re-stores only the chunks that changed.
//!
//! Every write takes one path, [`CasBatch::commit`]: [`Cas::put`],
//! [`Cas::put_blob`], [`Cas::pin_with_deps`] and [`Cas::set_budget`]
//! each stage into a batch and commit it, so the store's fault points
//! and crash checkpoints cover a registry upload, a pin and a layer
//! persist alike. A batch stages objects in memory (a shared [`Blob`]
//! by `Arc`, uncopied). One object commits as a synced tmp+rename; many
//! become durable with a *single* data fsync — a write-ahead pack
//! under `tmp/` streams every staged byte, the object files then land
//! via unsynced tmp+rename (readers still never see a torn write), and
//! one fsync per touched directory seals the names. If the writer
//! crashes after the pack fsync, reopening replays the pack and
//! rewrites its objects; if it crashes before, no rename ever
//! happened.
//!
//! Deletion is garbage collection, not eviction: named *roots* pin the
//! digests they reference (a layer pins its tree record and payload
//! blobs; nothing else is reachable), and [`Cas::gc`] removes the
//! blobs no root references. A root may also declare *dependencies* on
//! other roots (a delta layer record needs its parent chain); eviction
//! under [`Cas::set_budget`] respects them — dropping a root drops the
//! roots built on top of it, never out from under them. Two processes
//! sharing a store directory coordinate purely through the filesystem:
//! puts are idempotent (content addressing), pins are whole-file
//! renames.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zr_digest::{hex, Sha256};
use zr_vfs::Blob;

use crate::chunk::{chunk_spans, CHUNK_THRESHOLD};
use crate::codec::{Dec, Enc};
use crate::error::{Result, StoreError};

/// The store format version written to `<root>/format`.
pub const FORMAT: &str = "zr-store-v1\n";

/// Pin record with an LRU sequence number and root dependencies.
const ROOTS_MAGIC: &str = "zr-roots-v2";
/// Chunk-index record: logical length plus (chunk digest, length) pairs.
const CHUNKS_MAGIC: &str = "zr-chunks-v1";

/// Store config record (`<root>/config`): the persistent settings the
/// `format` version file is too coarse for — today just the physical
/// byte budget. Written by [`Cas::set_budget`], restored at
/// [`Cas::open`], so a store limited once stays limited across opens
/// that never pass the flag.
const CONFIG_MAGIC: &str = "zr-config-v1";

/// Write-ahead pack a batch commit stages under `tmp/`: every staged
/// destination and its bytes, made durable with a single fsync.
const PACK_MAGIC: &str = "zr-pack-v1";

/// Usage counters for one [`Cas`] handle plus the open-time census.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CasStats {
    /// Blob objects present (open-time census plus this handle's
    /// writes). Chunk objects count individually.
    pub blobs: u64,
    /// Payload bytes present across blob objects.
    pub bytes: u64,
    /// Physical bytes the store occupies: blob payloads plus
    /// chunk-index records. This is what [`Cas::set_budget`] bounds.
    pub physical_bytes: u64,
    /// Blob objects this handle wrote (each chunk of a chunked put
    /// counts once).
    pub writes: u64,
    /// Bytes this handle wrote.
    pub written_bytes: u64,
    /// Blobs this handle read back.
    pub reads: u64,
    /// Bytes this handle read back.
    pub read_bytes: u64,
    /// Puts skipped because the content already existed — the
    /// cross-process dedup win.
    pub dedup_skips: u64,
    /// Chunk-index records present (large blobs stored chunked).
    pub chunk_indexes: u64,
    /// Logical bytes that chunked puts did *not* rewrite because the
    /// chunk already existed — the content-defined-chunking win.
    pub chunk_dedup_saved: u64,
    /// Roots evicted by budget enforcement (includes dependent roots
    /// dropped alongside their parent).
    pub evicted_roots: u64,
    /// Directory fsyncs that failed. The rename itself succeeded, so
    /// content is never torn — but the *name* may not survive a power
    /// cut. Surfaced (once per handle) by `DiskLayers`.
    pub dir_fsync_failures: u64,
    /// Stray staging files deleted at open (crash leftovers).
    pub recovered_tmp: u64,
    /// Unparseable records quarantined at open: root pins (their
    /// layers read as cache misses and re-persist on the next build —
    /// the same self-healing path a corrupt layer record takes) and
    /// the store config record (the store reopens unbounded; the next
    /// `set_budget` rewrites it).
    pub corrupt_roots: u64,
}

impl std::fmt::Display for CasStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} blobs, {} bytes ({} physical, {} chunk indexes); this handle: \
             {} writes ({} bytes), {} reads ({} bytes), {} dedup skips, \
             {} chunk-dedup bytes saved, {} roots evicted, {} tmp recovered, \
             {} dir-fsync failures",
            self.blobs,
            self.bytes,
            self.physical_bytes,
            self.chunk_indexes,
            self.writes,
            self.written_bytes,
            self.reads,
            self.read_bytes,
            self.dedup_skips,
            self.chunk_dedup_saved,
            self.evicted_roots,
            self.recovered_tmp,
            self.dir_fsync_failures
        )
    }
}

/// What [`Cas::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Objects examined (blobs and chunk indexes).
    pub scanned: u64,
    /// Unreferenced objects removed.
    pub removed: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Objects kept (pinned by at least one root).
    pub live: u64,
}

/// One root's pin record, in memory.
#[derive(Debug, Clone, Default)]
struct RootMeta {
    /// LRU age: the pin clock when this root was last (re)pinned.
    seq: u64,
    /// Names of roots this one needs readable (a delta record's
    /// parent chain).
    deps: Vec<String>,
    /// The digests this root holds live.
    digests: Vec<String>,
}

#[derive(Debug, Default)]
struct CasState {
    /// root name → pin record (to order eviction; read by `pinned`).
    roots: HashMap<String, RootMeta>,
    /// Digests this handle knows are on disk (open-time census plus
    /// every put since). A hot-path `put` of known content is one hash
    /// lookup, not a `stat(2)` — the per-instruction persist of a
    /// mostly-unchanged tree touches the filesystem only for new
    /// blobs. Misses still fall through to a real existence check, so
    /// a sibling process's writes are never re-done either. Logical
    /// digests of chunked blobs are known too.
    known: HashSet<String>,
    /// Bytes held by chunk-index records (part of physical_bytes).
    index_bytes: u64,
    /// Monotonic pin counter — the LRU clock for budget eviction.
    pin_clock: u64,
    /// Physical-byte ceiling; 0 = unlimited (mirrors `--store-limit`).
    budget: u64,
    stats: CasStats,
}

impl CasState {
    fn physical_bytes(&self) -> u64 {
        self.stats.bytes + self.index_bytes
    }
}

#[derive(Debug)]
struct CasInner {
    root: PathBuf,
    state: Mutex<CasState>,
}

/// A handle on a persistent content-addressed store. Cloning shares
/// the handle; two *independent* opens of the same directory (two
/// processes) are also safe — all coordination is atomic-rename.
#[derive(Debug, Clone)]
pub struct Cas {
    inner: Arc<CasInner>,
}

/// Is `s` a well-formed lowercase sha256 hex digest? (Also the
/// path-traversal guard: digests become file names.)
pub fn valid_digest(s: &str) -> bool {
    s.len() == 64
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Is `s` safe as a root/record file name?
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b))
        && !s.starts_with('.')
}

fn staging_path(tmp_dir: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_dir.join(format!("w{}-{seq}.tmp", std::process::id()))
}

/// Fsync `path`'s parent directory so the rename that landed there
/// survives a power cut. Returns whether the sync succeeded — some
/// filesystems refuse directory fsync, and callers count (rather than
/// silently drop) those refusals.
fn sync_parent_dir(path: &Path) -> bool {
    match path.parent().map(fs::File::open) {
        Some(Ok(dir)) => dir.sync_all().is_ok(),
        _ => false,
    }
}

/// The error shape an injected store fault surfaces as: an ordinary
/// I/O error, so no caller can tell injected from real.
fn injected(message: &str) -> StoreError {
    StoreError::Io(std::io::Error::other(message.to_string()))
}

/// One crash checkpoint inside the batched commit: when the installed
/// fault plan fires `store.commit.crash` here, the commit stops dead —
/// no cleanup, no further renames — leaving the on-disk state exactly
/// as a power cut at that instant would. The crash-point sweep in
/// paper-report drives every checkpoint in turn and reopens the store
/// after each.
fn commit_crash_point() -> Result<()> {
    if zr_fault::fires(zr_fault::points::STORE_COMMIT_CRASH) {
        return Err(injected("injected crash inside batch commit"));
    }
    Ok(())
}

/// How many bytes of a `len`-byte write an injected torn write keeps:
/// the point's arg, or half when the plan sets none.
fn torn_keep(arg: u64, len: u64) -> u64 {
    if arg == 0 {
        len / 2
    } else {
        arg.min(len)
    }
}

/// Write `data` to `path` atomically: staging file in `tmp`, fsync,
/// rename. Used where no [`Cas`] handle exists yet or none applies:
/// the `format` file at open, pack replay, and the OCI exporter.
/// Staging names are unique per process (pid) *and* per write (a
/// process-global counter), so any number of handles and threads can
/// stage into one directory without collisions. Returns whether the
/// directory fsync that makes the *name* durable succeeded.
pub(crate) fn atomic_write(tmp_dir: &Path, path: &Path, data: &[u8]) -> Result<bool> {
    let staging = staging_path(tmp_dir);
    write_synced(&staging, data)?;
    rename_staged(&staging, path)?;
    Ok(sync_parent_dir(path))
}

/// First half of an atomic write: `data` lands in the staging file and
/// is fsync'd. Nothing is visible under a final name yet.
///
/// Fault plane: `store.write.err` fails before any byte lands;
/// `store.write.torn` leaves a prefix in staging (arg = bytes kept,
/// default half) and errors; `store.fsync.err` fails the fsync with the
/// unsynced staging file left behind, as a real failure would.
fn write_synced(staging: &Path, data: &[u8]) -> Result<()> {
    if zr_fault::fires(zr_fault::points::STORE_WRITE_ERR) {
        return Err(injected("injected store write error"));
    }
    if let Some(arg) = zr_fault::hit(zr_fault::points::STORE_WRITE_TORN) {
        let keep = torn_keep(arg, data.len() as u64) as usize;
        let _ = fs::write(staging, &data[..keep]);
        return Err(injected("injected torn store write"));
    }
    let mut f = fs::File::create(staging)?;
    f.write_all(data)?;
    if zr_fault::fires(zr_fault::points::STORE_FSYNC_ERR) {
        return Err(injected("injected store fsync error"));
    }
    f.sync_all()?;
    Ok(())
}

/// Second half of an atomic write: publish a staging file under its
/// final name. On failure (`store.rename.err` or a real one) the
/// staging file is removed.
fn rename_staged(staging: &Path, path: &Path) -> Result<()> {
    let renamed = if zr_fault::fires(zr_fault::points::STORE_RENAME_ERR) {
        Err(injected("injected store rename error"))
    } else {
        fs::rename(staging, path).map_err(StoreError::from)
    };
    if renamed.is_err() {
        let _ = fs::remove_file(staging);
    }
    renamed
}

impl Cas {
    /// Open (or create) a store rooted at `dir`.
    ///
    /// Creation writes the `format` version file; reopening verifies
    /// it. Stray staging files from a crashed writer are removed, the
    /// blob and chunk-index census is taken, and every root pin record
    /// is loaded into the in-memory pin index (LRU age, dependencies and
    /// digests per root).
    pub fn open(dir: impl AsRef<Path>) -> Result<Cas> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("blobs/sha256"))?;
        fs::create_dir_all(root.join("chunks"))?;
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("roots"))?;
        fs::create_dir_all(root.join("layers"))?;

        let inner = CasInner {
            root,
            state: Mutex::new(CasState::default()),
        };
        let cas = Cas {
            inner: Arc::new(inner),
        };

        // Version handshake.
        let format_path = cas.inner.root.join("format");
        match fs::read_to_string(&format_path) {
            Ok(found) if found == FORMAT => {}
            Ok(found) => {
                return Err(StoreError::corrupt(format!(
                    "store format mismatch: found {:?}, this build speaks {:?}",
                    found.trim_end(),
                    FORMAT.trim_end()
                )));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                atomic_write(&cas.inner.root.join("tmp"), &format_path, FORMAT.as_bytes())?;
            }
            Err(e) => return Err(e.into()),
        }

        let mut state = cas.lock();
        // Restore the persisted config (the byte budget) so a store
        // limited by one open stays limited for every later open that
        // never passes the flag. A config that does not parse is
        // quarantined like a corrupt pin — the store reopens unbounded
        // rather than bricked, and the next set_budget rewrites it.
        let config_path = cas.inner.root.join("config");
        match fs::read(&config_path) {
            Ok(bytes) => match decode_config(&bytes) {
                Ok(budget) => state.budget = budget,
                Err(_) => {
                    let _ = fs::remove_file(&config_path);
                    state.stats.corrupt_roots += 1;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        // Crash recovery: a staging file that never got renamed is
        // garbage *if its writer is gone*. Staging names carry the
        // writer's pid; a pid still alive (same process opening a
        // second handle, or a sibling process mid-put) keeps its
        // files — deleting them would tear a concurrent write. A dead
        // writer's `.pack` file is its batch's write-ahead record:
        // replayed (rewriting every object in it with a synced write)
        // before removal, because the batch's own renames were
        // deliberately unsynced.
        for entry in fs::read_dir(cas.inner.root.join("tmp"))?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if staging_writer_alive(&name) {
                continue;
            }
            if name.ends_with(".pack") {
                if let Ok(bytes) = fs::read(entry.path()) {
                    // An undecodable pack predates its own fsync, so
                    // its batch never renamed anything: only discard.
                    let _ = replay_pack(&cas.inner.root, &bytes);
                }
            }
            if fs::remove_file(entry.path()).is_ok() {
                state.stats.recovered_tmp += 1;
            }
        }
        // Blob census.
        for entry in fs::read_dir(cas.inner.root.join("blobs/sha256"))?.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    state.stats.blobs += 1;
                    state.stats.bytes += meta.len();
                    state
                        .known
                        .insert(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
        // Chunk-index census: the logical digests are known (a re-put
        // of the same large content is a pure dedup skip), the record
        // bytes count toward the physical footprint.
        for entry in fs::read_dir(cas.inner.root.join("chunks"))?.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    state.stats.chunk_indexes += 1;
                    state.index_bytes += meta.len();
                    state
                        .known
                        .insert(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
        // Pin index from the pin records. A pin that does not
        // parse must not brick the store: it is quarantined (removed)
        // so its layer reads as a miss, re-executes, and re-pins —
        // the same healing path a corrupt layer record takes. (Pins
        // are written atomically, so this only happens under real
        // on-disk corruption, not a crash.)
        for entry in fs::read_dir(cas.inner.root.join("roots"))?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = match fs::read(entry.path()) {
                Ok(bytes) => bytes,
                // A sibling process unpinned (or quarantined) this
                // root between our read_dir and read: skip it, the
                // same outcome as iterating a moment later.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            match decode_root(&bytes) {
                Ok(meta) => {
                    state.pin_clock = state.pin_clock.max(meta.seq);
                    state.roots.insert(name, meta);
                }
                Err(_) => {
                    let _ = fs::remove_file(entry.path());
                    // A layer record whose pin is gone would lose its
                    // blobs to the next gc anyway; drop it now so the
                    // miss is immediate instead of a later fetch error.
                    let _ = fs::remove_file(cas.inner.root.join("layers").join(&name));
                    state.stats.corrupt_roots += 1;
                }
            }
        }
        drop(state);
        // A restored budget binds immediately: a store that grew past
        // its recorded ceiling while no handle was open (a sibling
        // process without the limit never existed — but crash timing
        // can leave one) is trimmed here, not on the next pin.
        cas.enforce_budget()?;
        Ok(cas)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CasState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The store's root directory.
    pub fn root_dir(&self) -> &Path {
        &self.inner.root
    }

    fn blob_path(&self, digest: &str) -> PathBuf {
        self.inner.root.join("blobs/sha256").join(digest)
    }

    fn chunk_index_path(&self, digest: &str) -> PathBuf {
        self.inner.root.join("chunks").join(digest)
    }

    /// The `layers/` directory (record space for `DiskLayers`).
    pub(crate) fn layers_dir(&self) -> PathBuf {
        self.inner.root.join("layers")
    }

    /// Open a write batch: stage objects, pins and records, then make
    /// them durable together in [`CasBatch::commit`].
    pub fn batch(&self) -> CasBatch {
        CasBatch {
            cas: self.clone(),
            staged: Vec::new(),
            staged_digests: HashSet::new(),
            pins: Vec::new(),
        }
    }

    /// Store `data`, returning its digest. Idempotent: existing content
    /// is not rewritten (and counts as a dedup skip). Content at or
    /// above the chunking threshold is stored as chunks plus an index.
    pub fn put(&self, data: &[u8]) -> Result<String> {
        let mut batch = self.batch();
        let digest = batch.put(data)?;
        batch.commit()?;
        Ok(digest)
    }

    /// Store an already-digested [`Blob`] (the memoized SHA-256 means
    /// no re-hash, and the payload is not copied).
    pub fn put_blob(&self, blob: &Arc<Blob>) -> Result<String> {
        let mut batch = self.batch();
        let digest = batch.put_blob(blob)?;
        batch.commit()?;
        Ok(digest)
    }

    /// Is the digest present (whole or chunked)?
    pub fn contains(&self, digest: &str) -> bool {
        valid_digest(digest)
            && (self.blob_path(digest).exists() || self.chunk_index_path(digest).exists())
    }

    /// Read the raw payload for a digest: the whole blob if present,
    /// otherwise reassembled from its chunk index. Verification is the
    /// caller's job (both callers verify the *logical* digest, which
    /// subsumes per-chunk checks).
    fn read_payload(&self, digest: &str) -> Result<Vec<u8>> {
        let whole = match fs::read(self.blob_path(digest)) {
            Ok(data) => return Ok(data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => e,
            Err(e) => return Err(e.into()),
        };
        let index = match fs::read(self.chunk_index_path(digest)) {
            Ok(bytes) => bytes,
            // Neither form exists: report the original blob miss.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(whole.into()),
            Err(e) => return Err(e.into()),
        };
        let (total, chunks) = decode_chunk_index(&index)?;
        let total = usize::try_from(total)
            .map_err(|_| StoreError::corrupt(format!("chunk index {digest}: absurd length")))?;
        let mut out = Vec::with_capacity(total);
        for (chunk_digest, len) in &chunks {
            let chunk = fs::read(self.blob_path(chunk_digest))?;
            if chunk.len() as u64 != *len {
                return Err(StoreError::corrupt(format!(
                    "chunk {chunk_digest} of {digest}: length {} != recorded {len}",
                    chunk.len()
                )));
            }
            out.extend_from_slice(&chunk);
        }
        if out.len() != total {
            return Err(StoreError::corrupt(format!(
                "chunked blob {digest}: reassembled {} bytes, index says {total}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Read a blob back, verifying its content against its name —
    /// silent corruption reads as [`StoreError::Corrupt`], never as
    /// wrong bytes.
    pub fn get(&self, digest: &str) -> Result<Vec<u8>> {
        if !valid_digest(digest) {
            return Err(StoreError::corrupt(format!("bad digest {digest:?}")));
        }
        let data = self.read_payload(digest)?;
        if hex(&Sha256::digest(&data)) != digest {
            return Err(StoreError::corrupt(format!(
                "blob {digest} fails verification"
            )));
        }
        let mut state = self.lock();
        state.stats.reads += 1;
        state.stats.read_bytes += data.len() as u64;
        Ok(data)
    }

    /// Read a blob back as a shared [`Blob`] whose digest memo arrives
    /// warm — a reloaded filesystem re-digests no payload bytes.
    pub fn get_blob(&self, digest: &str) -> Result<Arc<Blob>> {
        if !valid_digest(digest) {
            return Err(StoreError::corrupt(format!("bad digest {digest:?}")));
        }
        let data = self.read_payload(digest)?;
        let mut sha = [0u8; 32];
        for (i, chunk) in digest.as_bytes().chunks(2).enumerate() {
            let s = std::str::from_utf8(chunk).expect("hex");
            sha[i] = u8::from_str_radix(s, 16).expect("hex");
        }
        let len = data.len() as u64;
        let blob = Blob::with_sha(data, sha)
            .ok_or_else(|| StoreError::corrupt(format!("blob {digest} fails verification")))?;
        let mut state = self.lock();
        state.stats.reads += 1;
        state.stats.read_bytes += len;
        Ok(blob)
    }

    /// Pin `digests` under a named root: they survive [`gc`](Self::gc)
    /// until the root is re-pinned without them or unpinned. Re-pinning
    /// a name replaces its digest set atomically.
    pub fn pin(&self, name: &str, digests: &[String]) -> Result<()> {
        self.pin_with_deps(name, digests, &[])
    }

    /// [`pin`](Self::pin), plus a declaration that this root needs the
    /// named `deps` roots readable (a delta layer record is useless
    /// without its parent chain). Budget eviction never removes a dep
    /// while a dependent survives — it removes the dependents too.
    pub fn pin_with_deps(&self, name: &str, digests: &[String], deps: &[String]) -> Result<()> {
        let mut batch = self.batch();
        batch.pin_with_deps(name, digests, deps)?;
        batch.commit()
    }

    /// Remove a named root; its blobs become collectable unless another
    /// root pins them. Returns whether the root existed.
    pub fn unpin(&self, name: &str) -> Result<bool> {
        if !valid_name(name) {
            return Err(StoreError::corrupt(format!("bad root name {name:?}")));
        }
        let existed = match fs::remove_file(self.inner.root.join("roots").join(name)) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e.into()),
        };
        self.lock().roots.remove(name);
        Ok(existed)
    }

    /// The named roots, sorted.
    pub fn roots(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().roots.keys().cloned().collect();
        names.sort();
        names
    }

    /// The digests a named root pins, in the order they were pinned
    /// (`None` if no such root). The registry's tag records lean on
    /// the ordering: a tag pin lists the manifest digest first.
    pub fn pinned(&self, name: &str) -> Option<Vec<String>> {
        self.lock().roots.get(name).map(|m| m.digests.clone())
    }

    /// Bound the store's physical footprint (blob payloads plus chunk
    /// indexes). 0 = unlimited. Enforcement runs immediately and after
    /// every pin/batch commit: while over budget, the least-recently-
    /// pinned root — together with every root depending on it — is
    /// evicted and the orphaned objects collected. Still-pinned roots
    /// always stay fully readable.
    ///
    /// The budget is *persistent*: it is recorded in the store's
    /// versioned config record and restored by every later
    /// [`open`](Self::open), so a store limited once stays limited
    /// even for opens that never pass the flag. Calling `set_budget`
    /// again (an explicit flag) overwrites the record — including
    /// `set_budget(0)`, which records "explicitly unlimited".
    pub fn set_budget(&self, bytes: u64) -> Result<()> {
        let mut batch = self.batch();
        batch.write_record(self.inner.root.join("config"), &encode_config(bytes));
        batch.commit()?;
        self.lock().budget = bytes;
        self.enforce_budget()
    }

    /// The configured physical-byte ceiling (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.lock().budget
    }

    fn enforce_budget(&self) -> Result<()> {
        loop {
            let victims = {
                let state = self.lock();
                if state.budget == 0 || state.physical_bytes() <= state.budget {
                    return Ok(());
                }
                match pick_eviction_victims(&state.roots) {
                    Some(v) => v,
                    // Nothing pinned and still over budget: everything
                    // unreferenced was (or will be) gc'd; nothing more
                    // eviction can legally free.
                    None => return Ok(()),
                }
            };
            for name in &victims {
                let _ = fs::remove_file(self.inner.root.join("roots").join(name));
                let _ = fs::remove_file(self.inner.root.join("layers").join(name));
            }
            {
                let mut state = self.lock();
                for name in &victims {
                    if state.roots.remove(name).is_some() {
                        state.stats.evicted_roots += 1;
                    }
                }
            }
            self.gc()?;
        }
    }

    /// Remove every blob no root references. Safe against concurrent
    /// writers in the common flows (a writer pins *after* putting; gc
    /// may collect a blob whose pin lost the race — the writer's next
    /// put restores it, content addressing makes that loss-free but
    /// wasteful, so run gc quiesced when it matters).
    pub fn gc(&self) -> Result<GcReport> {
        let mut report = GcReport::default();
        // Re-read pins from disk so a sibling process's roots count.
        // An unparseable pin aborts the collection: deleting blobs on
        // partial pin knowledge could free content a healthy root
        // still references. (Open quarantines corrupt pins, so this
        // only trips on corruption that arrived after open.)
        let mut live: HashSet<String> = HashSet::new();
        for entry in fs::read_dir(self.inner.root.join("roots"))?.flatten() {
            let bytes = match fs::read(entry.path()) {
                Ok(bytes) => bytes,
                // Unpinned by a sibling between read_dir and read —
                // same as not having seen it at all.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            let meta = decode_root(&bytes).map_err(|e| {
                StoreError::corrupt(format!(
                    "gc: root {} does not parse ({e}); reopen the store to quarantine it",
                    entry.file_name().to_string_lossy()
                ))
            })?;
            live.extend(meta.digests);
        }
        // Chunk indexes: a live logical digest keeps its index record
        // and marks its chunk objects live; a dead one is removed with
        // its (otherwise unreferenced) chunks swept below.
        let mut surviving_indexes: Vec<(String, u64)> = Vec::new();
        for entry in fs::read_dir(self.inner.root.join("chunks"))?.flatten() {
            report.scanned += 1;
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if live.contains(&name) {
                let bytes = match fs::read(entry.path()) {
                    Ok(bytes) => bytes,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e.into()),
                };
                let (_, chunks) = decode_chunk_index(&bytes).map_err(|e| {
                    StoreError::corrupt(format!("gc: chunk index {name} does not parse ({e})"))
                })?;
                live.extend(chunks.into_iter().map(|(chunk_digest, _)| chunk_digest));
                report.live += 1;
                surviving_indexes.push((name, bytes.len() as u64));
            } else if fs::remove_file(entry.path()).is_ok() {
                report.removed += 1;
                report.freed_bytes += len;
            }
        }
        let mut survivors = HashSet::new();
        let mut live_blobs = 0u64;
        let mut live_bytes = 0u64;
        for entry in fs::read_dir(self.inner.root.join("blobs/sha256"))?.flatten() {
            report.scanned += 1;
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if live.contains(&name) {
                report.live += 1;
                live_blobs += 1;
                live_bytes += len;
                survivors.insert(name);
                continue;
            }
            if fs::remove_file(entry.path()).is_ok() {
                report.removed += 1;
                report.freed_bytes += len;
            }
        }
        let mut state = self.lock();
        // The known-digest fast path must forget collected blobs, or a
        // later put of the same content would be skipped unwritten.
        state.known = survivors;
        state.stats.blobs = live_blobs;
        state.stats.bytes = live_bytes;
        state.stats.chunk_indexes = surviving_indexes.len() as u64;
        state.index_bytes = surviving_indexes.iter().map(|(_, len)| len).sum();
        for (name, _) in surviving_indexes {
            state.known.insert(name);
        }
        Ok(report)
    }

    /// Usage counters.
    pub fn stats(&self) -> CasStats {
        let state = self.lock();
        let mut stats = state.stats;
        stats.physical_bytes = state.physical_bytes();
        stats
    }
}

/// A staged-but-unwritten object inside a [`CasBatch`]. Bytes are held
/// in memory (blobs by `Arc`, so staging a payload copies nothing) and
/// hit the disk only in [`CasBatch::commit`]'s parallel write pass.
#[derive(Debug)]
struct StagedFile {
    data: StagedData,
    tmp: PathBuf,
    dest: PathBuf,
    kind: StagedKind,
}

#[derive(Debug)]
enum StagedData {
    Owned(Vec<u8>),
    Blob(Arc<Blob>),
    /// A chunk of a large blob: `(blob, start, end)`.
    BlobChunk(Arc<Blob>, usize, usize),
}

impl StagedData {
    fn bytes(&self) -> &[u8] {
        match self {
            StagedData::Owned(v) => v,
            StagedData::Blob(b) => b.data(),
            StagedData::BlobChunk(b, start, end) => &b.data()[*start..*end],
        }
    }
}

#[derive(Debug)]
enum StagedKind {
    /// A content-addressed object under `blobs/sha256/`.
    Blob { digest: String },
    /// A chunk-index record; `saved` is the chunk-dedup byte win.
    Index { digest: String, saved: u64 },
    /// A pin or layer record (bookkeeping handled separately).
    Record,
}

/// A write batch — the store's one write path. Objects, pins and
/// records are staged *in memory*, and [`commit`](CasBatch::commit)
/// makes the whole group durable: one object through a synced
/// tmp+rename, several with one data fsync — a write-ahead pack under
/// `tmp/` — followed by unsynced tmp+rename per object and a single
/// fsync per touched directory. The pack fsync happens before any
/// rename, so a crash mid-commit leaves either nothing renamed (the
/// undecodable pack is discarded at reopen) or a durable pack that
/// reopen *replays*, rewriting every object the batch named — never
/// torn content. Renames land in staging order, so a layer's pin is
/// renamed before its record.
#[derive(Debug)]
pub struct CasBatch {
    cas: Cas,
    staged: Vec<StagedFile>,
    /// Digests staged in this batch (not yet in `known`).
    staged_digests: HashSet<String>,
    /// Pins staged in this batch, added to the in-memory pin index at
    /// commit.
    pins: Vec<(String, RootMeta)>,
}

impl CasBatch {
    /// Stage `data`, returning its digest. Dedup against the store and
    /// against earlier objects in this batch.
    pub fn put(&mut self, data: &[u8]) -> Result<String> {
        let digest = hex(&Sha256::digest(data));
        if self.is_present(&digest) {
            self.cas.lock().stats.dedup_skips += 1;
            return Ok(digest);
        }
        if data.len() >= CHUNK_THRESHOLD {
            self.put_chunked(&digest, data, None);
        } else {
            self.stage_blob(&digest, StagedData::Owned(data.to_vec()));
        }
        Ok(digest)
    }

    /// Stage an already-digested [`Blob`] (no re-hash, no copy: the
    /// batch holds the `Arc` until commit writes it out).
    pub fn put_blob(&mut self, blob: &Arc<Blob>) -> Result<String> {
        let digest = blob.sha_hex();
        if self.is_present(&digest) {
            self.cas.lock().stats.dedup_skips += 1;
            return Ok(digest);
        }
        if blob.data().len() >= CHUNK_THRESHOLD {
            self.put_chunked(&digest, blob.data(), Some(blob));
        } else {
            self.stage_blob(&digest, StagedData::Blob(Arc::clone(blob)));
        }
        Ok(digest)
    }

    fn stage_blob(&mut self, digest: &str, data: StagedData) {
        let dest = self.cas.blob_path(digest);
        let kind = StagedKind::Blob {
            digest: digest.to_string(),
        };
        self.stage(dest, data, kind);
        self.staged_digests.insert(digest.to_string());
    }

    fn put_chunked(&mut self, digest: &str, data: &[u8], source: Option<&Arc<Blob>>) {
        let mut chunks: Vec<(String, u64)> = Vec::new();
        let mut saved = 0u64;
        for (start, end) in chunk_spans(data) {
            let chunk = &data[start..end];
            let chunk_digest = hex(&Sha256::digest(chunk));
            if self.is_present(&chunk_digest) {
                saved += chunk.len() as u64;
            } else {
                let staged = match source {
                    Some(blob) => StagedData::BlobChunk(Arc::clone(blob), start, end),
                    None => StagedData::Owned(chunk.to_vec()),
                };
                self.stage_blob(&chunk_digest, staged);
            }
            chunks.push((chunk_digest, chunk.len() as u64));
        }
        let record = encode_chunk_index(data.len() as u64, &chunks);
        let dest = self.cas.chunk_index_path(digest);
        let kind = StagedKind::Index {
            digest: digest.to_string(),
            saved,
        };
        self.stage(dest, StagedData::Owned(record), kind);
        self.staged_digests.insert(digest.to_string());
    }

    /// Stage a non-content-addressed record file (layer records, the
    /// store config).
    pub(crate) fn write_record(&mut self, dest: PathBuf, data: &[u8]) {
        self.stage(dest, StagedData::Owned(data.to_vec()), StagedKind::Record);
    }

    /// Stage a pin record (see [`Cas::pin_with_deps`]). The pin's
    /// staging position matters: stage it *before* the record that
    /// depends on it, and commit renames them in that order.
    pub fn pin_with_deps(&mut self, name: &str, digests: &[String], deps: &[String]) -> Result<()> {
        if !valid_name(name) {
            return Err(StoreError::corrupt(format!("bad root name {name:?}")));
        }
        for d in digests {
            if !valid_digest(d) {
                return Err(StoreError::corrupt(format!("bad digest {d:?}")));
            }
        }
        for dep in deps {
            if !valid_name(dep) {
                return Err(StoreError::corrupt(format!("bad dep root name {dep:?}")));
            }
        }
        let seq = {
            let mut state = self.cas.lock();
            state.pin_clock += 1;
            state.pin_clock
        };
        let record = encode_root(seq, deps, digests);
        let dest = self.cas.inner.root.join("roots").join(name);
        self.stage(dest, StagedData::Owned(record), StagedKind::Record);
        let meta = RootMeta {
            seq,
            deps: deps.to_vec(),
            digests: digests.to_vec(),
        };
        self.pins.push((name.to_string(), meta));
        Ok(())
    }

    /// Is this digest already durable or staged in this batch?
    fn is_present(&self, digest: &str) -> bool {
        if self.staged_digests.contains(digest) {
            return true;
        }
        {
            let state = self.cas.lock();
            if state.known.contains(digest) {
                return true;
            }
        }
        self.cas.blob_path(digest).exists() || self.cas.chunk_index_path(digest).exists()
    }

    fn stage(&mut self, dest: PathBuf, data: StagedData, kind: StagedKind) {
        let tmp = staging_path(&self.cas.inner.root.join("tmp"));
        self.staged.push(StagedFile {
            data,
            tmp,
            dest,
            kind,
        });
    }

    /// Make every staged object durable with *one* data fsync for the
    /// whole batch: a write-ahead pack under `tmp/` holds every staged
    /// byte and destination and is fsync'd first; the object files are
    /// then written and renamed *unsynced* (tmp+rename still hides
    /// partial writes from concurrent readers); one fsync per touched
    /// directory makes the names durable; the pack is deleted last. A
    /// crash anywhere after the pack fsync replays the pack on the
    /// next open, rewriting every object in it — so a renamed-but-
    /// unsynced object can never survive a power cut torn. A crash
    /// before the pack fsync leaves no renamed objects at all. On a
    /// reported error after the pack landed, the pack is *kept* for
    /// the same replay path to repair.
    ///
    /// A single object skips the pack: its staging file is written and
    /// fsync'd, then renamed — the two halves of an atomic write, with
    /// its fault points. A multi-object commit fires `store.write.err`,
    /// `store.write.torn` and `store.fsync.err` at the pack and
    /// `store.rename.err` at each rename. A batch with nothing staged
    /// returns at once, and only one that staged a pin runs budget
    /// enforcement: a bare put (a blob uploaded ahead of its manifest)
    /// never evicts.
    pub fn commit(mut self) -> Result<()> {
        let files = std::mem::take(&mut self.staged);
        if files.is_empty() {
            return Ok(());
        }
        let pins = std::mem::take(&mut self.pins);
        let mut dir_failures = 0u64;
        // Crash checkpoint 0: nothing staged, nothing durable.
        commit_crash_point()?;

        // Write-ahead pack (skipped for one file, where a plain
        // synced write costs the same). The pack fsync — the one real
        // journal wait in the whole commit — runs on a helper thread
        // while this thread writes the object staging files, which are
        // invisible until renamed. No rename is issued before the
        // fsync completes, so the crash ordering is untouched.
        let pack = if files.len() > 1 {
            let path = staging_path(&self.cas.inner.root.join("tmp")).with_extension("pack");
            let pack_file = write_pack(&path, &self.cas.inner.root, &files)?;
            let mut stage_err: Option<std::io::Error> = None;
            let sync_result = std::thread::scope(|scope| {
                let sync = scope.spawn(|| {
                    if zr_fault::fires(zr_fault::points::STORE_FSYNC_ERR) {
                        return Err(std::io::Error::other("injected store fsync error"));
                    }
                    pack_file.sync_data()?;
                    Ok::<bool, std::io::Error>(sync_parent_dir(&path))
                });
                for f in &files {
                    let written = fs::File::create(&f.tmp)
                        .and_then(|mut file| file.write_all(f.data.bytes()));
                    if let Err(e) = written {
                        stage_err = Some(e);
                        break;
                    }
                }
                sync.join().expect("pack fsync thread panicked")
            });
            // Any failure here precedes the first rename, so the pack
            // carries no obligations yet and everything is removable.
            let failed = match (sync_result, stage_err) {
                (Err(e), _) | (Ok(_), Some(e)) => Some(e),
                (Ok(tmp_dir_synced), None) => {
                    if !tmp_dir_synced {
                        dir_failures += 1;
                    }
                    None
                }
            };
            if let Some(e) = failed {
                let _ = fs::remove_file(&path);
                for f in &files {
                    let _ = fs::remove_file(&f.tmp);
                }
                return Err(e.into());
            }
            // Crash checkpoint 1: the pack is durable, nothing renamed.
            commit_crash_point()?;
            Some(path)
        } else {
            None
        };

        // Renames, in staging order (pin before layer record). The
        // packless single-file case writes and syncs inline.
        for (i, f) in files.iter().enumerate() {
            let landed = match &pack {
                Some(_) => rename_staged(&f.tmp, &f.dest),
                None => write_synced(&f.tmp, f.data.bytes())
                    .and_then(|()| rename_staged(&f.tmp, &f.dest)),
            };
            if let Err(e) = landed {
                for rest in &files[i + 1..] {
                    let _ = fs::remove_file(&rest.tmp);
                }
                // The pack stays: earlier renames in this batch may
                // hold unsynced data, and replay-on-reopen repairs
                // exactly that.
                return Err(e);
            }
            // Crash checkpoint 2: the first rename landed, the rest are
            // still staging files.
            if i == 0 {
                commit_crash_point()?;
            }
        }
        // Crash checkpoint 3: every rename landed, no name durable yet.
        commit_crash_point()?;

        // One directory fsync per touched directory.
        let dirs: BTreeSet<&Path> = files.iter().filter_map(|f| f.dest.parent()).collect();
        for dir in dirs {
            let synced = matches!(fs::File::open(dir), Ok(d) if d.sync_all().is_ok());
            if !synced {
                dir_failures += 1;
            }
        }
        // Crash checkpoint 4: names durable, the pack still present.
        commit_crash_point()?;

        // Every object is durable and named; the write-ahead pack has
        // done its job. (A leftover pack is harmless — replay is
        // idempotent.)
        if let Some(pack) = pack {
            let _ = fs::remove_file(pack);
        }
        // Crash checkpoint 5: fully committed on disk; only this
        // handle's in-memory bookkeeping is lost.
        commit_crash_point()?;

        let mut state = self.cas.lock();
        state.stats.dir_fsync_failures += dir_failures;
        for f in &files {
            match &f.kind {
                StagedKind::Blob { digest } => {
                    let len = f.data.bytes().len() as u64;
                    state.known.insert(digest.clone());
                    state.stats.writes += 1;
                    state.stats.written_bytes += len;
                    state.stats.blobs += 1;
                    state.stats.bytes += len;
                }
                StagedKind::Index { digest, saved } => {
                    state.known.insert(digest.clone());
                    state.stats.chunk_indexes += 1;
                    state.index_bytes += f.data.bytes().len() as u64;
                    state.stats.chunk_dedup_saved += saved;
                }
                StagedKind::Record => {}
            }
        }
        let pinned = !pins.is_empty();
        state.roots.extend(pins);
        drop(state);
        if !pinned {
            return Ok(());
        }
        self.cas.enforce_budget()
    }
}

impl Drop for CasBatch {
    fn drop(&mut self) {
        // An abandoned batch must not leak staging files (they would
        // survive until this process exits and a reopen sweeps them).
        for f in &self.staged {
            let _ = fs::remove_file(&f.tmp);
        }
    }
}

/// Stream a multi-object commit's write-ahead pack to `path`: every
/// staged destination (store-relative) and its bytes, in staging order,
/// framed as one `zr-pack-v1` codec record but written straight from
/// the staged payloads, never assembled in memory. The pack carries the
/// commit's write-side fault points: `store.write.err` before the file
/// exists, `store.write.torn` as a prefix left behind. A real write
/// error removes the partial pack — no rename has happened yet, so it
/// carries no obligations.
fn write_pack(path: &Path, root: &Path, files: &[StagedFile]) -> Result<fs::File> {
    if zr_fault::fires(zr_fault::points::STORE_WRITE_ERR) {
        return Err(injected("injected store write error"));
    }
    let streamed = (|| -> Result<fs::File> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        let mut head = Enc::new(PACK_MAGIC);
        head.u64(files.len() as u64);
        out.write_all(&head.finish())?;
        for f in files {
            let rel = f
                .dest
                .strip_prefix(root)
                .map_err(|_| StoreError::corrupt("staged destination outside the store root"))?;
            let data = f.data.bytes();
            // `Enc::bytes` framing, with the payload written in place.
            let mut head = Enc::raw();
            head.str(&rel.to_string_lossy()).u64(data.len() as u64);
            out.write_all(&head.finish())?;
            out.write_all(data)?;
        }
        Ok(out
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?)
    })();
    let file = match streamed {
        Ok(file) => file,
        Err(e) => {
            let _ = fs::remove_file(path);
            return Err(e);
        }
    };
    if let Some(arg) = zr_fault::hit(zr_fault::points::STORE_WRITE_TORN) {
        let _ = file.set_len(torn_keep(arg, file.metadata()?.len()));
        return Err(injected("injected torn store write"));
    }
    Ok(file)
}

/// Replay a crashed writer's write-ahead pack: rewrite every object it
/// names with a full synced `atomic_write`. Idempotent — content
/// addressing makes rewriting an intact object a no-op in effect — and
/// safe to run on a pack whose batch already finished. A pack that
/// fails to decode is from a writer that crashed *before* the pack
/// fsync, i.e. before any rename: nothing to repair.
fn replay_pack(root: &Path, bytes: &[u8]) -> Result<()> {
    let mut dec = Dec::new(bytes, PACK_MAGIC)?;
    let count = dec.u64()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let rel = dec.str()?;
        let ok = !rel.is_empty()
            && Path::new(&rel)
                .components()
                .all(|c| matches!(c, std::path::Component::Normal(_)));
        if !ok {
            return Err(StoreError::corrupt("pack entry escapes the store root"));
        }
        entries.push((root.join(&rel), dec.bytes()?.to_vec()));
    }
    dec.done()?;
    for (dest, data) in entries {
        atomic_write(&root.join("tmp"), &dest, &data)?;
    }
    Ok(())
}

/// Choose the eviction victim set: the root with the smallest
/// *effective* age together with every root that (transitively)
/// depends on it. Effective age is the root's own pin seq maxed over
/// all its dependents' — a parent whose child was pinned recently is
/// recent, so an active delta chain is never cut in the middle.
fn pick_eviction_victims(roots: &HashMap<String, RootMeta>) -> Option<Vec<String>> {
    if roots.is_empty() {
        return None;
    }
    let mut effective: HashMap<&str, u64> =
        roots.iter().map(|(n, m)| (n.as_str(), m.seq)).collect();
    // Push each root's effective age down into its deps until stable.
    // Dep edges form chains bounded by the delta-depth limit, so this
    // settles in a handful of passes; the cap is a cycle guard.
    for _ in 0..=roots.len() {
        let mut changed = false;
        for (name, meta) in roots {
            let own = effective[name.as_str()];
            for dep in &meta.deps {
                if let Some(slot) = effective.get_mut(dep.as_str()) {
                    if *slot < own {
                        *slot = own;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let victim = effective
        .iter()
        .min_by_key(|(name, seq)| (**seq, name.to_string()))
        .map(|(name, _)| name.to_string())?;
    // The victim's dependent closure goes with it: a delta record
    // whose parent is gone is unreadable, so it must not survive.
    let mut victims: Vec<String> = Vec::new();
    let mut queue = vec![victim];
    let mut seen = HashSet::new();
    while let Some(name) = queue.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        for (dependent, meta) in roots {
            if meta.deps.contains(&name) {
                queue.push(dependent.clone());
            }
        }
        victims.push(name);
    }
    Some(victims)
}

/// Is the process that staged this file still alive? Staging names are
/// `w<pid>-<seq>.tmp`; our own pid is always alive, other pids are
/// checked via `/proc` (on a platform without procfs every foreign
/// writer looks dead, which only re-tears writes that were already
/// racing a crash-recovery open).
fn staging_writer_alive(name: &str) -> bool {
    let pid = name
        .strip_prefix('w')
        .and_then(|rest| rest.split('-').next())
        .and_then(|pid| pid.parse::<u32>().ok());
    match pid {
        Some(pid) if pid == std::process::id() => true,
        Some(pid) => Path::new("/proc").join(pid.to_string()).exists(),
        None => false,
    }
}

fn encode_root(seq: u64, deps: &[String], digests: &[String]) -> Vec<u8> {
    let mut enc = Enc::new(ROOTS_MAGIC);
    enc.u64(seq);
    enc.u64(deps.len() as u64);
    for dep in deps {
        enc.str(dep);
    }
    enc.u64(digests.len() as u64);
    for d in digests {
        enc.str(d);
    }
    enc.finish()
}

/// Decode a pin record (seq + deps + digests). Only the current magic
/// is accepted: a record in any other form reads as corrupt, and
/// [`Cas::open`] quarantines it and counts it in
/// [`CasStats::corrupt_roots`].
fn decode_root(bytes: &[u8]) -> Result<RootMeta> {
    let mut dec = Dec::new(bytes, ROOTS_MAGIC)?;
    let seq = dec.u64()?;
    let dep_count = dec.u64()?;
    let mut deps = Vec::new();
    for _ in 0..dep_count {
        let dep = dec.str()?;
        if !valid_name(&dep) {
            return Err(StoreError::corrupt(format!("bad dep root name {dep:?}")));
        }
        deps.push(dep);
    }
    let count = dec.u64()?;
    let mut digests = Vec::new();
    for _ in 0..count {
        let d = dec.str()?;
        if !valid_digest(&d) {
            return Err(StoreError::corrupt(format!("bad pinned digest {d:?}")));
        }
        digests.push(d);
    }
    dec.done()?;
    Ok(RootMeta { seq, deps, digests })
}

/// Encode the store config record: just the byte budget today; the
/// magic gives future fields a versioned home.
fn encode_config(budget: u64) -> Vec<u8> {
    let mut enc = Enc::new(CONFIG_MAGIC);
    enc.u64(budget);
    enc.finish()
}

fn decode_config(bytes: &[u8]) -> Result<u64> {
    let mut dec = Dec::new(bytes, CONFIG_MAGIC)?;
    let budget = dec.u64()?;
    dec.done()?;
    Ok(budget)
}

fn encode_chunk_index(total: u64, chunks: &[(String, u64)]) -> Vec<u8> {
    let mut enc = Enc::new(CHUNKS_MAGIC);
    enc.u64(total);
    enc.u64(chunks.len() as u64);
    for (digest, len) in chunks {
        enc.str(digest);
        enc.u64(*len);
    }
    enc.finish()
}

fn decode_chunk_index(bytes: &[u8]) -> Result<(u64, Vec<(String, u64)>)> {
    let mut dec = Dec::new(bytes, CHUNKS_MAGIC)?;
    let total = dec.u64()?;
    let count = dec.u64()?;
    let mut chunks = Vec::new();
    for _ in 0..count {
        let digest = dec.str()?;
        if !valid_digest(&digest) {
            return Err(StoreError::corrupt(format!("bad chunk digest {digest:?}")));
        }
        let len = dec.u64()?;
        chunks.push((digest, len));
    }
    dec.done()?;
    Ok((total, chunks))
}
