//! Deterministic OCI image layout export/import.
//!
//! [`export`] serializes a built [`Image`] into an [OCI image layout]:
//! `oci-layout`, `index.json`, and content-addressed blobs for the
//! manifest, the config, and one canonical layer tar (sorted entries,
//! zeroed timestamps, numeric owners). [`export_diff`] emits two
//! layers — the base tree plus an overlay diff with `.wh.` whiteouts —
//! exercising the layered path end to end. Export is byte-reproducible:
//! the same image always produces the same layout, so layout digests
//! are identities, not artifacts of the packer run.
//!
//! [`import`] walks the layout back (index → manifest → config +
//! layers, every blob re-verified against its digest), stacks the
//! layers with whiteout handling, and rebuilds the *exact* `Image` —
//! `Image::digest` is byte-identical across an export/import round
//! trip, which is what the `O-oci` paper-report gate pins.
//!
//! This module is the only reader of a layout. Every digest is checked
//! once, where a manifest is parsed ([`parse_manifest`], [`inspect`]):
//! a name that is not 64 lowercase hex is refused there, so every
//! [`OciSummary`] holds valid digests only. Every blob is verified
//! once, by the reader at the boundary it crosses:
//! [`read_layout_blob`] for a layout on disk, the registry client's
//! fetch for the wire.
//!
//! JSON field order is fixed by the writer (canonical), and the image
//! metadata the simulator needs beyond OCI's schema rides in a
//! `zeroroot` extension object inside the config.
//!
//! [OCI image layout]: https://github.com/opencontainers/image-spec

use std::path::Path;

use zr_digest::{hex, Sha256};
use zr_image::{BinarySpec, Distro, Image, ImageMeta};
use zr_vfs::fs::Fs;

use crate::cas::{atomic_write, valid_digest};
use crate::error::{Result, StoreError};
use crate::json::{escape, Json};
use crate::meta::{
    binkind_tag, distro_tag, linkage_tag, parse_binkind, parse_distro, parse_linkage,
};
use crate::tar::{apply_tar, diff_to_tar, tree_to_tar, tree_to_tar_with, TarOpts};

const MEDIA_MANIFEST: &str = "application/vnd.oci.image.manifest.v1+json";
const MEDIA_CONFIG: &str = "application/vnd.oci.image.config.v1+json";
const MEDIA_LAYER: &str = "application/vnd.oci.image.layer.v1.tar";
const REF_ANNOTATION: &str = "org.opencontainers.image.ref.name";

/// Export behavior: the canonical exporter plus "naive packer"
/// switches. Non-default values model the packers the paper blames for
/// irreproducibility ("It's Not Just Timestamps") so the audit
/// subsystem can *force* each divergence class and prove the
/// classifier names it; the default is byte-reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportOpts {
    /// Layer-packer behavior (mtimes, entry order).
    pub tar: TarOpts,
    /// Shuffle top-level config-JSON key order with this seed instead
    /// of writing the canonical order.
    pub json_key_seed: Option<u64>,
}

/// What an export produced / an inspect found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OciSummary {
    /// The `org.opencontainers.image.ref.name` annotation ("name:tag").
    pub ref_name: String,
    /// Manifest blob digest (bare hex).
    pub manifest_digest: String,
    /// Config blob digest (bare hex).
    pub config_digest: String,
    /// Layer blob digests in application order (bare hex).
    pub layer_digests: Vec<String>,
    /// Layer sizes in bytes, same order.
    pub layer_sizes: Vec<u64>,
}

impl std::fmt::Display for OciSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "ref:      {}", self.ref_name)?;
        writeln!(f, "manifest: sha256:{}", self.manifest_digest)?;
        writeln!(f, "config:   sha256:{}", self.config_digest)?;
        for (d, s) in self.layer_digests.iter().zip(&self.layer_sizes) {
            writeln!(f, "layer:    sha256:{d} ({s} bytes)")?;
        }
        Ok(())
    }
}

struct LayoutWriter<'a> {
    dir: &'a Path,
}

impl<'a> LayoutWriter<'a> {
    fn new(dir: &'a Path) -> Result<LayoutWriter<'a>> {
        std::fs::create_dir_all(dir.join("blobs/sha256"))?;
        std::fs::create_dir_all(dir.join(".staging"))?;
        Ok(LayoutWriter { dir })
    }

    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        // Layout exports are regenerable; a failed directory fsync is
        // not worth failing the export over.
        atomic_write(&self.dir.join(".staging"), path, data)?;
        Ok(())
    }

    /// Hash freshly produced `data` and store it under its digest.
    fn put_blob(&self, data: &[u8]) -> Result<String> {
        let digest = hex(&Sha256::digest(data));
        self.put_verified(&digest, data)?;
        Ok(digest)
    }

    /// Store `data` under `digest`, which the caller has already
    /// validated and verified `data` against.
    fn put_verified(&self, digest: &str, data: &[u8]) -> Result<()> {
        let path = self.dir.join("blobs/sha256").join(digest);
        if !path.exists() {
            self.write(&path, data)?;
        }
        Ok(())
    }

    fn finish(self) {
        let _ = std::fs::remove_dir_all(self.dir.join(".staging"));
    }
}

/// The canonical config JSON (fixed field order; the `zeroroot` object
/// carries the metadata OCI's schema has no home for).
fn config_json(meta: &ImageMeta, diff_ids: &[String], key_seed: Option<u64>) -> String {
    let env_strings: Vec<String> = meta
        .env
        .iter()
        .map(|(k, v)| format!("\"{}\"", escape(&format!("{k}={v}"))))
        .collect();
    let diff_list: Vec<String> = diff_ids.iter().map(|d| format!("\"sha256:{d}\"")).collect();
    let env_pairs: Vec<String> = meta
        .env
        .iter()
        .map(|(k, v)| format!("[\"{}\",\"{}\"]", escape(k), escape(v)))
        .collect();
    let binaries: Vec<String> = meta
        .binaries
        .iter()
        .map(|b| {
            format!(
                "{{\"kind\":\"{}\",\"linkage\":\"{}\",\"path\":\"{}\"}}",
                binkind_tag(b.kind),
                linkage_tag(b.linkage),
                escape(&b.path)
            )
        })
        .collect();
    // Top-level members as (key, rendered value) pairs, listed in the
    // canonical (sorted) order the reproducible writer emits.
    let mut members: Vec<(&str, String)> = vec![
        ("architecture", "\"amd64\"".to_string()),
        (
            "config",
            format!("{{\"Env\":[{}]}}", env_strings.join(",")),
        ),
        ("created", "\"1970-01-01T00:00:00Z\"".to_string()),
        (
            "history",
            "[{\"created\":\"1970-01-01T00:00:00Z\",\"created_by\":\"zr export\"}]".to_string(),
        ),
        ("os", "\"linux\"".to_string()),
        (
            "rootfs",
            format!(
                "{{\"diff_ids\":[{}],\"type\":\"layers\"}}",
                diff_list.join(",")
            ),
        ),
        (
            "zeroroot",
            format!(
                "{{\"binaries\":[{}],\"distro\":\"{}\",\"env\":[{}],\"libc\":\"{}\",\"name\":\"{}\",\"tag\":\"{}\"}}",
                binaries.join(","),
                distro_tag(meta.distro),
                env_pairs.join(","),
                escape(&meta.libc),
                escape(&meta.name),
                escape(&meta.tag),
            ),
        ),
    ];
    if let Some(seed) = key_seed {
        // The "hash-map serializer" failure mode: semantically equal
        // JSON, different bytes. Deterministic per seed so audits are
        // replayable.
        members.sort_by_key(|(key, _)| {
            let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
            for &b in key.as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                h ^= h >> 29;
            }
            h
        });
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn descriptor(media: &str, digest: &str, size: usize) -> String {
    format!("{{\"mediaType\":\"{media}\",\"digest\":\"sha256:{digest}\",\"size\":{size}}}")
}

/// The canonical single-entry `index.json`. Shared by [`export`] and
/// [`write_layout`] so a pulled layout is byte-identical to the layout
/// the pushing side exported.
fn index_json(manifest_digest: &str, manifest_size: usize, ref_name: &str) -> String {
    format!(
        "{{\"schemaVersion\":2,\"manifests\":[{{\"mediaType\":\"{MEDIA_MANIFEST}\",\
         \"digest\":\"sha256:{manifest_digest}\",\"size\":{manifest_size},\
         \"annotations\":{{\"{REF_ANNOTATION}\":\"{}\"}}}}]}}",
        escape(ref_name),
    )
}

fn export_impl(
    meta: &ImageMeta,
    layers: Vec<Vec<u8>>,
    dir: &Path,
    key_seed: Option<u64>,
) -> Result<OciSummary> {
    let writer = LayoutWriter::new(dir)?;
    let mut layer_digests = Vec::new();
    let mut layer_sizes = Vec::new();
    let mut layer_descriptors = Vec::new();
    for tar in &layers {
        let digest = writer.put_blob(tar)?;
        layer_descriptors.push(descriptor(MEDIA_LAYER, &digest, tar.len()));
        layer_sizes.push(tar.len() as u64);
        layer_digests.push(digest);
    }
    // Layers are uncompressed, so diff_ids coincide with layer digests.
    let config = config_json(meta, &layer_digests, key_seed);
    let config_digest = writer.put_blob(config.as_bytes())?;

    let manifest = format!(
        "{{\"schemaVersion\":2,\"mediaType\":\"{MEDIA_MANIFEST}\",\"config\":{},\"layers\":[{}]}}",
        descriptor(MEDIA_CONFIG, &config_digest, config.len()),
        layer_descriptors.join(","),
    );
    let manifest_digest = writer.put_blob(manifest.as_bytes())?;

    let ref_name = meta.reference();
    let index = index_json(&manifest_digest, manifest.len(), &ref_name);
    writer.write(&dir.join("index.json"), index.as_bytes())?;
    writer.write(
        &dir.join("oci-layout"),
        b"{\"imageLayoutVersion\":\"1.0.0\"}",
    )?;
    writer.finish();
    Ok(OciSummary {
        ref_name,
        manifest_digest,
        config_digest,
        layer_digests,
        layer_sizes,
    })
}

/// Export `image` as a single-layer OCI image layout at `dir`.
pub fn export(image: &Image, dir: impl AsRef<Path>) -> Result<OciSummary> {
    export_impl(
        &image.meta,
        vec![tree_to_tar(&image.fs)?],
        dir.as_ref(),
        None,
    )
}

/// [`export`] with explicit packer/serializer behavior. The audit
/// subsystem uses the non-default switches to produce the *naive*
/// layout a non-reproducible toolchain would, and then proves the
/// differ attributes every resulting divergence to the right class.
pub fn export_with(image: &Image, dir: impl AsRef<Path>, opts: ExportOpts) -> Result<OciSummary> {
    export_impl(
        &image.meta,
        vec![tree_to_tar_with(&image.fs, opts.tar)?],
        dir.as_ref(),
        opts.json_key_seed,
    )
}

/// Export `image` as *two* layers: `base`'s full tree plus the
/// `image − base` overlay diff (whiteouts for deletions). Importing
/// reproduces `image` exactly; the layered path is the distribution
/// shape a registry push will use.
pub fn export_diff(image: &Image, base: &Fs, dir: impl AsRef<Path>) -> Result<OciSummary> {
    export_impl(
        &image.meta,
        vec![tree_to_tar(base)?, diff_to_tar(base, &image.fs)?],
        dir.as_ref(),
        None,
    )
}

/// Read one blob out of the OCI layout at `dir` and verify it against
/// `digest` (bare hex) — the one reader of layout blobs. The digest
/// doubles as the file name, so it is validated *before* the path join:
/// a crafted manifest cannot walk out of the layout directory.
pub fn read_layout_blob(dir: &Path, digest: &str) -> Result<Vec<u8>> {
    if !valid_digest(digest) {
        return Err(StoreError::corrupt(format!(
            "layout references malformed digest {digest:?}"
        )));
    }
    let data = std::fs::read(dir.join("blobs/sha256").join(digest))?;
    if hex(&Sha256::digest(&data)) != digest {
        return Err(StoreError::corrupt(format!(
            "layout blob {digest} fails verification"
        )));
    }
    Ok(data)
}

/// A descriptor's `sha256:` digest as bare hex, refused unless it is
/// 64 lowercase hex characters.
fn bare_digest(descriptor: &Json, what: &str) -> Result<String> {
    let digest = descriptor
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|d| d.strip_prefix("sha256:"))
        .ok_or_else(|| StoreError::corrupt(format!("{what}: missing sha256 digest")))?;
    if !valid_digest(digest) {
        return Err(StoreError::corrupt(format!(
            "{what}: malformed digest {digest:?}"
        )));
    }
    Ok(digest.to_string())
}

/// Parse manifest bytes stored under `manifest_digest` into an
/// [`OciSummary`], validating every digest the manifest names.
fn summary_from_manifest(
    ref_name: String,
    manifest_digest: String,
    manifest_bytes: &[u8],
) -> Result<OciSummary> {
    let manifest = Json::parse(
        std::str::from_utf8(manifest_bytes)
            .map_err(|_| StoreError::corrupt("manifest is not UTF-8"))?,
    )?;
    let config_digest = bare_digest(
        manifest
            .get("config")
            .ok_or_else(|| StoreError::corrupt("manifest: no config"))?,
        "config",
    )?;
    let layers = manifest
        .get("layers")
        .and_then(Json::as_arr)
        .ok_or_else(|| StoreError::corrupt("manifest: no layers"))?;
    let mut layer_digests = Vec::new();
    let mut layer_sizes = Vec::new();
    for layer in layers {
        layer_digests.push(bare_digest(layer, "layer")?);
        layer_sizes.push(layer.get("size").and_then(Json::as_u64).unwrap_or(0));
    }
    Ok(OciSummary {
        ref_name,
        manifest_digest,
        config_digest,
        layer_digests,
        layer_sizes,
    })
}

/// Parse manifest bytes — as fetched off the wire, no layout directory
/// involved — into an [`OciSummary`]. The manifest digest is computed
/// from the bytes, so the summary is self-authenticating.
pub fn parse_manifest(ref_name: &str, manifest_bytes: &[u8]) -> Result<OciSummary> {
    summary_from_manifest(
        ref_name.to_string(),
        hex(&Sha256::digest(manifest_bytes)),
        manifest_bytes,
    )
}

/// Materialize an [`Image`] from a manifest plus a blob fetcher (the
/// registry client's pull path; [`materialize_layout`] is the same
/// assembly with the fetcher reading layout files). `fetch` returns the
/// bytes of the blob it is asked for, already verified against that
/// digest; they are not hashed again here.
pub fn assemble(
    ref_name: &str,
    manifest_bytes: &[u8],
    fetch: &mut dyn FnMut(&str) -> Result<Vec<u8>>,
) -> Result<Image> {
    materialize(&parse_manifest(ref_name, manifest_bytes)?, fetch)
}

/// Fetch the config and layers `summary` names and stack the layers.
fn materialize(
    summary: &OciSummary,
    fetch: &mut dyn FnMut(&str) -> Result<Vec<u8>>,
) -> Result<Image> {
    let config_bytes = fetch(&summary.config_digest)?;
    let config = Json::parse(
        std::str::from_utf8(&config_bytes)
            .map_err(|_| StoreError::corrupt("config is not UTF-8"))?,
    )?;
    let meta = meta_from_config(&config, &summary.ref_name)?;
    let mut fs = Fs::new();
    for digest in &summary.layer_digests {
        apply_tar(&mut fs, &fetch(digest)?)?;
    }
    Ok(Image { meta, fs })
}

/// Write a full OCI layout at `dir` from a manifest plus a blob
/// fetcher — the `pull` path's mirror of [`export`] — and materialize
/// its [`Image`] in the same pass: each blob (config, then layers in
/// manifest order) is fetched once, stored and applied. As for
/// [`assemble`], `fetch` returns bytes already verified against the
/// digest it was asked for, and each blob is stored under that digest
/// without being hashed again. The index is generated by the same
/// canonical writer as export, so pulling a zeroroot-pushed image
/// reproduces the exported layout byte for byte.
pub fn write_layout(
    dir: impl AsRef<Path>,
    ref_name: &str,
    manifest_bytes: &[u8],
    fetch: &mut dyn FnMut(&str) -> Result<Vec<u8>>,
) -> Result<(OciSummary, Image)> {
    let dir = dir.as_ref();
    let summary = parse_manifest(ref_name, manifest_bytes)?;
    let writer = LayoutWriter::new(dir)?;
    writer.put_verified(&summary.manifest_digest, manifest_bytes)?;
    let image = materialize(&summary, &mut |digest| {
        let data = fetch(digest)?;
        writer.put_verified(digest, &data)?;
        Ok(data)
    })?;
    let index = index_json(&summary.manifest_digest, manifest_bytes.len(), ref_name);
    writer.write(&dir.join("index.json"), index.as_bytes())?;
    writer.write(
        &dir.join("oci-layout"),
        b"{\"imageLayoutVersion\":\"1.0.0\"}",
    )?;
    writer.finish();
    Ok((summary, image))
}

fn meta_from_config(config: &Json, ref_name: &str) -> Result<ImageMeta> {
    if let Some(zr) = config.get("zeroroot") {
        let field = |key: &str| -> Result<String> {
            zr.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| StoreError::corrupt(format!("zeroroot config: missing {key}")))
        };
        let mut env = Vec::new();
        for pair in zr.get("env").and_then(Json::as_arr).unwrap_or(&[]) {
            match pair.as_arr() {
                Some([k, v]) => env.push((
                    k.as_str().unwrap_or_default().to_string(),
                    v.as_str().unwrap_or_default().to_string(),
                )),
                _ => return Err(StoreError::corrupt("zeroroot config: bad env pair")),
            }
        }
        let mut binaries = Vec::new();
        for b in zr.get("binaries").and_then(Json::as_arr).unwrap_or(&[]) {
            let get = |key: &str| -> Result<&str> {
                b.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| StoreError::corrupt(format!("zeroroot binary: missing {key}")))
            };
            binaries.push(BinarySpec {
                path: get("path")?.to_string(),
                kind: parse_binkind(get("kind")?)?,
                linkage: parse_linkage(get("linkage")?)?,
            });
        }
        return Ok(ImageMeta {
            name: field("name")?,
            tag: field("tag")?,
            distro: parse_distro(&field("distro")?)?,
            libc: field("libc")?,
            env,
            binaries,
        });
    }
    // A foreign OCI image: synthesize what we can.
    let (name, tag) = ref_name.split_once(':').unwrap_or((ref_name, "latest"));
    let env = config
        .get("config")
        .and_then(|c| c.get("Env"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ImageMeta {
        name: name.to_string(),
        tag: tag.to_string(),
        distro: Distro::Scratch,
        libc: String::new(),
        env,
        binaries: Vec::new(),
    })
}

/// Import an OCI image layout back into an [`Image`]: every blob is
/// verified, layers stack in manifest order with whiteouts honored,
/// and a zeroroot-exported layout reproduces a byte-identical
/// `Image::digest`.
pub fn import(dir: impl AsRef<Path>) -> Result<Image> {
    let dir = dir.as_ref();
    materialize_layout(dir, &inspect(dir)?)
}

/// [`import`] for a caller that already holds the layout's
/// [`inspect`] summary: only the config and layer blobs are read (each
/// verified), the index and manifest are not parsed again.
pub fn materialize_layout(dir: impl AsRef<Path>, summary: &OciSummary) -> Result<Image> {
    let dir = dir.as_ref();
    materialize(summary, &mut |digest| read_layout_blob(dir, digest))
}

/// Summarize a layout from its index and manifest alone: the manifest
/// blob is read and verified and every digest it names is validated,
/// but no config or layer content is read.
pub fn inspect(dir: impl AsRef<Path>) -> Result<OciSummary> {
    let dir = dir.as_ref();
    let index_text = std::fs::read_to_string(dir.join("index.json"))?;
    let index = Json::parse(&index_text)?;
    let manifests = index
        .get("manifests")
        .and_then(Json::as_arr)
        .ok_or_else(|| StoreError::corrupt("index.json: no manifests"))?;
    let entry = manifests
        .first()
        .ok_or_else(|| StoreError::corrupt("index.json: empty manifest list"))?;
    let manifest_digest = bare_digest(entry, "index manifest")?;
    let ref_name = entry
        .get("annotations")
        .and_then(|a| a.get(REF_ANNOTATION))
        .and_then(Json::as_str)
        .unwrap_or("imported:latest")
        .to_string();
    let manifest_bytes = read_layout_blob(dir, &manifest_digest)?;
    summary_from_manifest(ref_name, manifest_digest, &manifest_bytes)
}
