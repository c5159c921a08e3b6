//! The registry simulator: fabricates the paper's base images.
//!
//! Each base carries the filesystem skeleton, `/etc/os-release`, shells
//! and package-manager binaries (as real inodes with permission bits —
//! their behaviour is registered separately from `zr-pkg`), and the libc
//! identity used by the bind-mount compatibility experiment.
//!
//! [`ShardedRegistry`] puts a pull-through blob cache in front of a
//! [`RegistryBackend`] (this catalog, or a live endpoint). The cache
//! is the one place a pulled base lives: it keeps every image it
//! fetched for the registry's lifetime. One lock guards the cache and
//! its counters; fetches run under per-reference fetch locks, so a
//! fetch never holds the cache lock and pulls of different references
//! never wait on each other.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use zeroroot_core::sync::lock_or_poisoned;

use crate::image::{BinKind, BinarySpec, Distro, Image, ImageMeta, ImageRef, Linkage};
use zr_syscalls::Errno;
use zr_vfs::access::Access;
use zr_vfs::fs::Fs;

/// A fake ELF payload so executables have plausible bytes.
fn elf(name: &str) -> Vec<u8> {
    let mut v = b"\x7fELF".to_vec();
    v.extend_from_slice(name.as_bytes());
    v
}

fn base_skeleton(fs: &mut Fs) {
    for dir in [
        "/bin",
        "/sbin",
        "/usr/bin",
        "/usr/sbin",
        "/usr/lib",
        "/etc",
        "/var/lib",
        "/var/cache",
        "/var/log",
        "/tmp",
        "/root",
        "/home",
        "/dev",
        "/proc",
        "/sys",
        "/run",
    ] {
        fs.mkdir_p(dir, 0o755).expect("skeleton dir");
    }
    let root = Access::root();
    fs.set_perm(
        fs.resolve("/tmp", &root, zr_vfs::FollowMode::Follow)
            .expect("tmp"),
        0o1777,
    )
    .expect("tmp sticky");
}

fn add_binaries(fs: &mut Fs, meta: &ImageMeta) {
    let root = Access::root();
    for b in &meta.binaries {
        if let Some((parent, _)) = zr_vfs::path::split_parent(&b.path) {
            fs.mkdir_p(&parent, 0o755).expect("bin dir");
        }
        fs.write_file(&b.path, 0o755, elf(&b.path), &root)
            .expect("binary");
    }
}

fn write_etc(fs: &mut Fs, distro: Distro, version: &str, pretty: &str) {
    let root = Access::root();
    let os_release = format!(
        "ID={}\nVERSION_ID={}\nPRETTY_NAME=\"{}\"\n",
        distro.id(),
        version,
        pretty
    );
    fs.write_file("/etc/os-release", 0o644, os_release.into_bytes(), &root)
        .expect("os-release");
    fs.write_file(
        "/etc/passwd",
        0o644,
        b"root:x:0:0:root:/root:/bin/sh\nnobody:x:65534:65534::/:/sbin/nologin\n".to_vec(),
        &root,
    )
    .expect("passwd");
    fs.write_file(
        "/etc/group",
        0o644,
        b"root:x:0:\nnogroup:x:65534:\n".to_vec(),
        &root,
    )
    .expect("group");
}

fn alpine_3_19() -> Image {
    let meta = ImageMeta {
        name: "alpine".into(),
        tag: "3.19".into(),
        distro: Distro::Alpine,
        libc: "musl-1.2.4".into(),
        env: vec![("PATH".into(), "/usr/bin:/bin:/usr/sbin:/sbin".into())],
        binaries: vec![
            // busybox provides the shell; it is statically linked — the
            // §6 compatibility case against LD_PRELOAD.
            BinarySpec::new("/bin/busybox", BinKind::Busybox, Linkage::Static),
            BinarySpec::new("/sbin/apk", BinKind::Apk, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/id", BinKind::Id, Linkage::Static),
            BinarySpec::new("/usr/bin/true", BinKind::True, Linkage::Static),
            BinarySpec::new("/bin/chown", BinKind::ChownTool, Linkage::Static),
            BinarySpec::new("/bin/mknod", BinKind::MknodTool, Linkage::Static),
        ],
    };
    let mut fs = Fs::new();
    base_skeleton(&mut fs);
    write_etc(&mut fs, Distro::Alpine, "3.19.1", "Alpine Linux v3.19");
    add_binaries(&mut fs, &meta);
    let root = Access::root();
    // /bin/sh is a symlink to busybox, as on real Alpine.
    fs.symlink("/bin/busybox", "/bin/sh", &root)
        .expect("sh link");
    fs.mkdir_p("/etc/apk", 0o755).expect("apk dir");
    fs.write_file("/etc/apk/world", 0o644, b"busybox\n".to_vec(), &root)
        .expect("world");
    fs.mkdir_p("/lib/apk/db", 0o755).expect("apk db");
    fs.write_file(
        "/lib/apk/db/installed",
        0o644,
        b"P:busybox\nV:1.36.1-r15\n\n".to_vec(),
        &root,
    )
    .expect("apk installed db");
    Image { meta, fs }
}

fn centos_7() -> Image {
    let meta = ImageMeta {
        name: "centos".into(),
        tag: "7".into(),
        distro: Distro::Centos,
        libc: "glibc-2.17".into(),
        env: vec![("PATH".into(), "/usr/bin:/bin:/usr/sbin:/sbin".into())],
        binaries: vec![
            BinarySpec::new("/bin/bash", BinKind::Shell, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/rpm", BinKind::Rpm, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/yum", BinKind::Yum, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/id", BinKind::Id, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/true", BinKind::True, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/chown", BinKind::ChownTool, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/mknod", BinKind::MknodTool, Linkage::Dynamic),
        ],
    };
    let mut fs = Fs::new();
    base_skeleton(&mut fs);
    write_etc(&mut fs, Distro::Centos, "7", "CentOS Linux 7 (Core)");
    add_binaries(&mut fs, &meta);
    let root = Access::root();
    fs.write_file(
        "/etc/redhat-release",
        0o644,
        b"CentOS Linux release 7.9.2009 (Core)\n".to_vec(),
        &root,
    )
    .expect("redhat-release");
    fs.symlink("/bin/bash", "/bin/sh", &root).expect("sh link");
    fs.mkdir_p("/var/lib/rpm", 0o755).expect("rpmdb dir");
    fs.write_file("/var/lib/rpm/Packages", 0o644, b"rpmdb\n".to_vec(), &root)
        .expect("rpmdb");
    fs.mkdir_p("/var/cache/yum", 0o755).expect("yum cache");
    Image { meta, fs }
}

fn debian_12() -> Image {
    let meta = ImageMeta {
        name: "debian".into(),
        tag: "12".into(),
        distro: Distro::Debian,
        libc: "glibc-2.36".into(),
        env: vec![("PATH".into(), "/usr/bin:/bin:/usr/sbin:/sbin".into())],
        binaries: vec![
            BinarySpec::new("/usr/bin/dash", BinKind::Shell, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/dpkg", BinKind::Dpkg, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/apt", BinKind::Apt, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/apt-get", BinKind::AptGet, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/id", BinKind::Id, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/true", BinKind::True, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/chown", BinKind::ChownTool, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/mknod", BinKind::MknodTool, Linkage::Dynamic),
            BinarySpec::new(
                "/usr/sbin/unminimize",
                BinKind::Unminimize,
                Linkage::Dynamic,
            ),
        ],
    };
    let mut fs = Fs::new();
    base_skeleton(&mut fs);
    write_etc(
        &mut fs,
        Distro::Debian,
        "12",
        "Debian GNU/Linux 12 (bookworm)",
    );
    add_binaries(&mut fs, &meta);
    let root = Access::root();
    fs.write_file("/etc/debian_version", 0o644, b"12.5\n".to_vec(), &root)
        .expect("debian_version");
    fs.symlink("/usr/bin/dash", "/bin/sh", &root)
        .expect("sh link");
    fs.mkdir_p("/var/lib/dpkg", 0o755).expect("dpkg dir");
    fs.write_file("/var/lib/dpkg/status", 0o644, Vec::new(), &root)
        .expect("dpkg status");
    // The _apt user exists for apt's privilege-dropping sandbox.
    fs.append_file(
        "/etc/passwd",
        b"_apt:x:100:65534::/nonexistent:/usr/sbin/nologin\n",
        &root,
    )
    .expect("passwd _apt");
    Image { meta, fs }
}

fn fedora_40() -> Image {
    let mut img = centos_7();
    img.meta.name = "fedora".into();
    img.meta.tag = "40".into();
    img.meta.distro = Distro::Fedora;
    img.meta.libc = "glibc-2.39".into();
    img.meta.binaries.push(BinarySpec::new(
        "/usr/bin/dnf",
        BinKind::Dnf,
        Linkage::Dynamic,
    ));
    let root = Access::root();
    img.fs
        .write_file("/usr/bin/dnf", 0o755, elf("/usr/bin/dnf"), &root)
        .expect("dnf binary");
    img.fs
        .write_file(
            "/etc/os-release",
            0o644,
            b"ID=fedora\nVERSION_ID=40\nPRETTY_NAME=\"Fedora Linux 40\"\n".to_vec(),
            &root,
        )
        .expect("os-release");
    img
}

fn scratch() -> Image {
    let mut fs = Fs::new();
    base_skeleton(&mut fs);
    Image {
        meta: ImageMeta {
            name: "scratch".into(),
            tag: "latest".into(),
            distro: Distro::Scratch,
            libc: String::new(),
            env: vec![],
            binaries: vec![],
        },
        fs,
    }
}

/// Materialize a base image from scratch (the "network fetch" of the
/// simulator — the expensive step the pull-through cache elides).
fn materialize(reference: &ImageRef) -> Result<Image, Errno> {
    match (reference.name.as_str(), reference.tag.as_str()) {
        ("alpine", "3.19") => Ok(alpine_3_19()),
        ("centos", "7") => Ok(centos_7()),
        ("debian", "12") => Ok(debian_12()),
        ("fedora", "40") => Ok(fedora_40()),
        ("scratch", _) => Ok(scratch()),
        _ => Err(Errno::ENOENT),
    }
}

/// Where a [`ShardedRegistry`] gets the images its pull-through cache
/// does not hold.
///
/// The default [`CatalogBackend`] fabricates the paper's catalog
/// in-process (the simulator); `zr-registry` provides a backend that
/// resolves references against a live OCI distribution endpoint over
/// HTTP. Everything above the backend — the blob cache, the
/// per-reference fetch locks, the modeled [`PullCost`] — is identical
/// either way, so `FROM` works the same against both.
pub trait RegistryBackend: Send + Sync + std::fmt::Debug {
    /// Fetch one image: the expensive "network" step the pull-through
    /// cache elides. Called under the per-reference fetch lock, so
    /// concurrent pulls of the same reference fetch exactly once.
    fn fetch(&self, reference: &ImageRef) -> Result<Image, Errno>;
}

/// The simulator backend: materializes the built-in catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogBackend;

impl RegistryBackend for CatalogBackend {
    fn fetch(&self, reference: &ImageRef) -> Result<Image, Errno> {
        materialize(reference)
    }
}

/// Modeled network cost of talking to the registry, so the bench harness
/// can measure how well concurrent builders overlap their pulls.
///
/// Both components default to zero (tests stay fast); the scheduler
/// benches dial them up to model a real registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PullCost {
    /// Round trip paid by *every* pull (manifest check), slept outside
    /// any lock — concurrent pulls overlap it.
    pub round_trip: Duration,
    /// Blob transfer paid only when the pull-through cache misses,
    /// slept while holding that reference's fetch lock — a second pull
    /// of the *same* base waits for the first fetch instead of
    /// fetching again, while pulls of other references proceed.
    pub fetch: Duration,
}

/// Counters describing how a [`ShardedRegistry`] has been used.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Pull requests served.
    pub pulls: u64,
    /// Pulls that had to materialize the image (pull-through misses).
    pub fetches: u64,
    /// Pulls satisfied out of the blob cache.
    pub blob_hits: u64,
}

/// Everything the registry's cache lock guards: every image fetched so
/// far, keyed by reference, and the usage counters. Only map and
/// counter work runs under it — fetches and the modeled [`PullCost`]
/// sleeps never do.
#[derive(Debug, Default)]
struct BlobCache {
    images: HashMap<String, Image>,
    pulls: u64,
    fetches: u64,
    blob_hits: u64,
}

impl BlobCache {
    /// A cache hit: count it and hand out a copy of the image.
    fn hit(&mut self, key: &str) -> Option<Image> {
        let image = self.images.get(key)?.clone();
        self.blob_hits += 1;
        Some(image)
    }
}

/// The registry simulator's pull-through cache, shared by concurrent
/// builders.
///
/// One lock guards the whole blob cache and its counters; it is held
/// for a map lookup or insert and a counter bump, so a cached pull
/// takes it once and clones the blob (an O(1) filesystem handle).
/// Fetches run under *per-reference* fetch locks instead: builders
/// pulling the *same* missing base materialize it once and share the
/// blob, while pulls of *different* references never wait on each
/// other's fetch. `pull` takes `&self` — one registry handle (behind
/// an `Arc`) serves every worker in a build scheduler.
///
/// The cache is the one place a pulled base lives: it keeps every image
/// it fetched for the registry's lifetime, so a reference is fetched at
/// most once and a later outage can never fail its pull.
#[derive(Debug)]
pub struct ShardedRegistry {
    cache: Mutex<BlobCache>,
    /// Per-reference fetch locks: concurrent pulls of the *same*
    /// missing reference serialize on one of these (the second waits,
    /// then hits the cache) while the cache stays free for other
    /// references — the fetch sleep is never paid under `cache`.
    fetching: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    cost: PullCost,
    /// Where cache misses are fetched from (simulator or live wire).
    backend: Arc<dyn RegistryBackend>,
}

/// The registry's plain name. `ShardedRegistry` is the historical one,
/// from when the cache was split across separately locked shards.
pub type Registry = ShardedRegistry;

impl Default for ShardedRegistry {
    fn default() -> ShardedRegistry {
        ShardedRegistry::new()
    }
}

impl ShardedRegistry {
    /// The shard count callers used to pass to
    /// [`with_cost`](Self::with_cost); the registry is no longer
    /// sharded and ignores it.
    pub const DEFAULT_SHARDS: usize = 8;

    /// A fresh registry over the built-in catalog with no modeled
    /// latency.
    pub fn new() -> ShardedRegistry {
        ShardedRegistry::with_backend(PullCost::default(), Arc::new(CatalogBackend))
    }

    /// A registry with a modeled [`PullCost`], fetching misses from the
    /// built-in catalog. `shards` is ignored: the cache is one locked
    /// map (the argument stays for existing callers).
    pub fn with_cost(shards: usize, cost: PullCost) -> ShardedRegistry {
        let _ = shards;
        ShardedRegistry::with_backend(cost, Arc::new(CatalogBackend))
    }

    /// A registry whose cache misses are fetched from `backend` — the
    /// seam `zr-registry` plugs a live OCI distribution endpoint into.
    /// The pull-through blob cache and the per-reference fetch locks
    /// sit *above* the backend and apply to both.
    pub fn with_backend(cost: PullCost, backend: Arc<dyn RegistryBackend>) -> ShardedRegistry {
        ShardedRegistry {
            cache: Mutex::default(),
            fetching: Mutex::default(),
            cost,
            backend,
        }
    }

    fn cache(&self) -> MutexGuard<'_, BlobCache> {
        lock_or_poisoned(&self.cache)
    }

    /// Known references.
    pub fn catalog() -> Vec<&'static str> {
        vec![
            "alpine:3.19",
            "centos:7",
            "debian:12",
            "fedora:40",
            "scratch:latest",
        ]
    }

    /// The fetch lock for one reference (created on first use).
    fn fetch_lock(&self, key: &str) -> Arc<Mutex<()>> {
        lock_or_poisoned(&self.fetching)
            .entry(key.to_string())
            .or_default()
            .clone()
    }

    /// Drop the fetch lock entry once the blob is cached.
    fn release_fetch_lock(&self, key: &str) {
        lock_or_poisoned(&self.fetching).remove(key);
    }

    /// Pull an image. Ownership is left as materialized-by-root; callers
    /// (the builder) re-own to the unpacking user via
    /// [`Image::chown_all`].
    ///
    /// The first pull of a reference materializes ("fetches") it and
    /// seeds the pull-through cache; later pulls — including concurrent
    /// ones from other builder threads — clone the cached blob.
    pub fn pull(&self, reference: &ImageRef) -> Result<Image, Errno> {
        let key = reference.to_string();
        if !self.cost.round_trip.is_zero() {
            // Manifest round trip: every pull pays it, nobody holds a
            // lock over it, so concurrent pulls overlap.
            std::thread::sleep(self.cost.round_trip);
        }
        {
            let mut cache = self.cache();
            cache.pulls += 1;
            if let Some(image) = cache.hit(&key) {
                return Ok(image);
            }
        }
        // Miss: serialize on the *per-reference* fetch lock — never on
        // the cache — so a concurrent pull of the same base waits for
        // this transfer (then hits the cache) while pulls of other
        // references proceed untouched.
        let fetch_lock = self.fetch_lock(&key);
        let _fetching = lock_or_poisoned(&fetch_lock);
        let cached = self.cache().hit(&key);
        if let Some(image) = cached {
            // Another puller finished the fetch while we waited — and
            // may already have dropped the lock entry, in which case
            // fetch_lock() above re-created it; remove it again so the
            // map never retains entries for cached references.
            self.release_fetch_lock(&key);
            return Ok(image);
        }
        // Fault point: `registry.pull.err` fails the fetch itself, as
        // if the transfer died after the manifest round trip. Cached
        // pulls above are unaffected — only real fetches can fail.
        if zr_fault::fires(zr_fault::points::REGISTRY_PULL_ERR) {
            self.release_fetch_lock(&key);
            return Err(Errno::EIO);
        }
        let image = match self.backend.fetch(reference) {
            Ok(image) => image,
            Err(errno) => {
                self.release_fetch_lock(&key);
                return Err(errno);
            }
        };
        if !self.cost.fetch.is_zero() {
            std::thread::sleep(self.cost.fetch);
        }
        {
            let mut cache = self.cache();
            cache.fetches += 1;
            cache.images.insert(key.clone(), image.clone());
        }
        self.release_fetch_lock(&key);
        Ok(image)
    }

    /// Usage counters.
    pub fn stats(&self) -> RegistryStats {
        let cache = self.cache();
        RegistryStats {
            pulls: cache.pulls,
            fetches: cache.fetches,
            // Counted directly, not derived: a failed pull (unknown
            // reference) is neither a fetch nor a blob hit.
            blob_hits: cache.blob_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_vfs::FollowMode;

    use std::sync::Arc;

    fn pull(r: &str) -> Image {
        Registry::new().pull(&ImageRef::parse(r).unwrap()).unwrap()
    }

    #[test]
    fn catalog_pulls() {
        for reference in Registry::catalog() {
            let img = pull(reference);
            assert!(
                img.fs.inode_count() > 10,
                "{reference} should have a skeleton"
            );
        }
    }

    #[test]
    fn unknown_image_enoent() {
        let r = Registry::new();
        assert_eq!(
            r.pull(&ImageRef::parse("nosuch:1").unwrap()).err(),
            Some(Errno::ENOENT)
        );
        // A failed pull counts as a pull but as neither a fetch nor a
        // blob hit.
        let stats = r.stats();
        assert_eq!((stats.pulls, stats.fetches, stats.blob_hits), (1, 0, 0));
    }

    #[test]
    fn alpine_has_static_busybox_sh() {
        let img = pull("alpine:3.19");
        let access = Access::root();
        let target = img.fs.readlink("/bin/sh", &access).unwrap();
        assert_eq!(target, "/bin/busybox");
        let spec = img.meta.binary_at("/bin/busybox").unwrap();
        assert_eq!(spec.linkage, Linkage::Static);
        assert_eq!(img.meta.libc, "musl-1.2.4");
    }

    #[test]
    fn centos_has_rpm_and_yum() {
        let img = pull("centos:7");
        assert!(img.meta.binary_at("/usr/bin/rpm").is_some());
        assert!(img.meta.binary_at("/usr/bin/yum").is_some());
        let access = Access::root();
        assert!(img
            .fs
            .stat("/var/lib/rpm/Packages", &access, FollowMode::Follow)
            .is_ok());
        assert_eq!(img.meta.libc, "glibc-2.17");
    }

    #[test]
    fn debian_has_apt_and_apt_user() {
        let img = pull("debian:12");
        assert!(img.meta.binary_at("/usr/bin/apt-get").is_some());
        let access = Access::root();
        let passwd = img.fs.read_file("/etc/passwd", &access).unwrap();
        assert!(String::from_utf8(passwd).unwrap().contains("_apt:x:100:"));
    }

    #[test]
    fn binaries_are_executable_inodes() {
        let img = pull("centos:7");
        let access = Access::root();
        let st = img
            .fs
            .stat("/usr/bin/yum", &access, FollowMode::Follow)
            .unwrap();
        assert_eq!(st.mode & 0o111, 0o111);
        let bytes = img.fs.read_file("/usr/bin/yum", &access).unwrap();
        assert!(bytes.starts_with(b"\x7fELF"));
    }

    #[test]
    fn pull_counts_and_blob_cache() {
        let r = Registry::new();
        let reference = ImageRef::parse("alpine:3.19").unwrap();
        let _ = r.pull(&reference);
        let _ = r.pull(&reference);
        // The second pull came out of the pull-through cache.
        let stats = r.stats();
        assert_eq!((stats.pulls, stats.fetches, stats.blob_hits), (2, 1, 1));
    }

    #[test]
    fn cached_blob_is_a_private_copy() {
        let r = Registry::new();
        let reference = ImageRef::parse("alpine:3.19").unwrap();
        let mut first = r.pull(&reference).unwrap();
        // Mutating the pulled image (as the builder's chown_all does)
        // must not corrupt the cached blob other builders will receive.
        first.chown_all(4242, 4242);
        let second = r.pull(&reference).unwrap();
        let st = second
            .fs
            .stat("/bin/busybox", &Access::root(), zr_vfs::FollowMode::Follow)
            .unwrap();
        assert_ne!(st.uid, 4242);
    }

    #[test]
    fn concurrent_pulls_fetch_each_base_once() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for i in 0..16 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let reference = if i % 2 == 0 {
                    "alpine:3.19"
                } else {
                    "debian:12"
                };
                r.pull(&ImageRef::parse(reference).unwrap()).unwrap()
            }));
        }
        for h in handles {
            let img = h.join().unwrap();
            assert!(img.fs.inode_count() > 10);
        }
        let stats = r.stats();
        assert_eq!(stats.pulls, 16);
        assert_eq!(stats.fetches, 2, "one fetch per distinct base");
    }

    #[test]
    fn modeled_latency_is_paid_once_per_fetch() {
        let cost = PullCost {
            round_trip: Duration::from_millis(1),
            fetch: Duration::from_millis(10),
        };
        let r = ShardedRegistry::with_cost(4, cost);
        let reference = ImageRef::parse("alpine:3.19").unwrap();
        let t0 = std::time::Instant::now();
        let _ = r.pull(&reference);
        let cold = t0.elapsed();
        let _ = r.pull(&reference);
        assert!(
            cold >= Duration::from_millis(11),
            "cold pull pays rtt+fetch"
        );
        // The warm pull skipping the fetch is asserted on counters
        // (deterministic), not on a wall-clock upper bound (a loaded
        // CI runner can stretch any such bound).
        let stats = r.stats();
        assert_eq!(stats.fetches, 1, "warm pull skips the fetch");
        assert_eq!(stats.blob_hits, 1);
    }
}
