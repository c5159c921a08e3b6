//! Blob-by-blob layout diffing with a typed divergence taxonomy.
//!
//! A reproducibility failure that surfaces as "digest mismatch" is
//! undiagnosable; the differ's job is attribution. It walks two OCI
//! layouts top-down (index → manifest → config + layers), and for
//! every blob pair that differs it drills into the *format* — tar
//! entries, JSON members — to say which path diverged and in which
//! field. Derivative divergence is suppressed: when layers differ,
//! the config's `rootfs.diff_ids` necessarily differ too, and
//! repeating that tells the user nothing.
//!
//! Layouts are read only through `zr_store`'s reader: a digest that
//! is not hex is refused where the manifest is parsed, and every blob
//! the manifests name is verified as it is read, so a tampered blob is
//! an error, never a divergence.

use std::collections::BTreeSet;
use std::path::Path;

use zr_store::json::Json;
use zr_store::{inspect, list_entries, read_layout_blob, TarEntry};

use crate::harness::{AuditError, AuditOutcome, Result};

/// The divergence taxonomy — every way two layouts of "the same" image
/// have been observed to differ, per the paper's §6 survey of
/// non-reproducible packers ("It's Not Just Timestamps").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivergenceClass {
    /// Tar entry mtimes differ (timestamps a canonical packer zeroes).
    TarMtime,
    /// Same entries, different archive order (readdir-order packing).
    TarOrdering,
    /// uid/gid or permission bits differ on the same path.
    OwnerMode,
    /// JSON blobs are semantically identical but serialized with a
    /// different member order (hash-map serializers).
    JsonKeyOrder,
    /// The manifests disagree about how many layers the image has.
    LayerCount,
    /// Actual content differs: file bytes, link targets, file type,
    /// or a semantic JSON field — with path-level drill-down.
    PayloadContent,
    /// A path exists in one layout's layer but not the other's.
    EntryPresence,
}

impl DivergenceClass {
    /// The stable kebab-case name used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceClass::TarMtime => "tar-mtime",
            DivergenceClass::TarOrdering => "tar-ordering",
            DivergenceClass::OwnerMode => "owner-mode",
            DivergenceClass::JsonKeyOrder => "json-key-order",
            DivergenceClass::LayerCount => "layer-count",
            DivergenceClass::PayloadContent => "payload-content",
            DivergenceClass::EntryPresence => "entry-presence",
        }
    }
}

impl std::fmt::Display for DivergenceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One classified divergence between two layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which taxonomy class this divergence falls into.
    pub class: DivergenceClass,
    /// Which blob it was found in (`config`, `manifest`, `layer[N]`).
    pub blob: String,
    /// Drill-down path inside the blob: an image path for layers, a
    /// `/member` pointer for JSON blobs.
    pub path: Option<String>,
    /// Human-readable specifics (the observed values on each side).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>15}] {}", self.class.name(), self.blob)?;
        if let Some(path) = &self.path {
            write!(f, " {path}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Diff two OCI image layouts and classify every divergence. An empty
/// result is the audit's "clean" verdict: the config and layer blobs
/// the manifests reference are byte-for-byte identical.
pub fn diff_layouts(dir_a: &Path, dir_b: &Path) -> Result<Vec<Divergence>> {
    Ok(audit_layouts(dir_a, dir_b)?.divergences)
}

/// Inspect two OCI image layouts and classify every divergence: the
/// one constructor of an [`AuditOutcome`], for built arms and for
/// layouts already on disk alike. Every config and layer blob is read,
/// and so verified, even where both manifests name the same digest.
/// Only those blobs are compared: `index.json` (and the ref name it
/// annotates) is outside the comparison, so two layouts that name the
/// same image under different tags audit clean.
pub fn audit_layouts(dir_a: &Path, dir_b: &Path) -> Result<AuditOutcome> {
    let sa = inspect(dir_a)?;
    let sb = inspect(dir_b)?;
    let mut out = Vec::new();

    // Layers first: config divergence in `rootfs.diff_ids` is
    // derivative of layer divergence and gets suppressed below.
    let mut layers_differ = false;
    if sa.layer_digests.len() != sb.layer_digests.len() {
        layers_differ = true;
        out.push(Divergence {
            class: DivergenceClass::LayerCount,
            blob: "manifest".into(),
            path: None,
            detail: format!(
                "{} layers vs {}",
                sa.layer_digests.len(),
                sb.layer_digests.len()
            ),
        });
    }
    for (i, (da, db)) in sa.layer_digests.iter().zip(&sb.layer_digests).enumerate() {
        let (tar_a, tar_b) = (read_layout_blob(dir_a, da)?, read_layout_blob(dir_b, db)?);
        if da != db {
            layers_differ = true;
            diff_layer(i, &tar_a, &tar_b, &mut out)?;
        }
    }
    // Layers only one arm has are read too, so they are verified.
    for digest in sa.layer_digests.iter().skip(sb.layer_digests.len()) {
        read_layout_blob(dir_a, digest)?;
    }
    for digest in sb.layer_digests.iter().skip(sa.layer_digests.len()) {
        read_layout_blob(dir_b, digest)?;
    }
    let config_a = read_layout_blob(dir_a, &sa.config_digest)?;
    let config_b = read_layout_blob(dir_b, &sb.config_digest)?;
    if sa.config_digest != sb.config_digest {
        diff_config(&config_a, &config_b, layers_differ, &mut out)?;
    }
    Ok(AuditOutcome {
        summary_a: sa,
        summary_b: sb,
        dir_a: dir_a.to_path_buf(),
        dir_b: dir_b.to_path_buf(),
        divergences: out,
    })
}

/// Are two JSON values semantically equal? Objects compare as maps
/// (member order ignored — that difference is exactly the
/// [`DivergenceClass::JsonKeyOrder`] class); arrays stay ordered.
fn json_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            if fa.len() != fb.len() {
                return false;
            }
            let mut sa: Vec<&(String, Json)> = fa.iter().collect();
            let mut sb: Vec<&(String, Json)> = fb.iter().collect();
            sa.sort_by_key(|(k, _)| k);
            sb.sort_by_key(|(k, _)| k);
            sa.iter()
                .zip(&sb)
                .all(|((ka, va), (kb, vb))| ka == kb && json_eq(va, vb))
        }
        (Json::Arr(ia), Json::Arr(ib)) => {
            ia.len() == ib.len() && ia.iter().zip(ib).all(|(x, y)| json_eq(x, y))
        }
        _ => a == b,
    }
}

fn parse_json(bytes: &[u8], what: &str) -> Result<Json> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| AuditError::Diff(format!("{what} blob is not UTF-8")))?;
    Ok(Json::parse(text)?)
}

fn diff_config(
    bytes_a: &[u8],
    bytes_b: &[u8],
    layers_differ: bool,
    out: &mut Vec<Divergence>,
) -> Result<()> {
    let ja = parse_json(bytes_a, "config")?;
    let jb = parse_json(bytes_b, "config")?;
    if json_eq(&ja, &jb) {
        out.push(Divergence {
            class: DivergenceClass::JsonKeyOrder,
            blob: "config".into(),
            path: None,
            detail: "semantically identical JSON serialized in a different member order".into(),
        });
        return Ok(());
    }
    // Semantic difference: attribute it to top-level members.
    let keys: BTreeSet<&str> = member_keys(&ja).chain(member_keys(&jb)).collect();
    let before = out.len();
    for key in keys {
        let (va, vb) = (ja.get(key), jb.get(key));
        let equal = match (va, vb) {
            (Some(x), Some(y)) => json_eq(x, y),
            (None, None) => true,
            _ => false,
        };
        if equal {
            continue;
        }
        if key == "rootfs" && layers_differ {
            // diff_ids follow the layer digests; already reported.
            continue;
        }
        out.push(Divergence {
            class: DivergenceClass::PayloadContent,
            blob: "config".into(),
            path: Some(format!("/{key}")),
            detail: match (va, vb) {
                (Some(_), None) => "member present only in arm A".into(),
                (None, Some(_)) => "member present only in arm B".into(),
                _ => "member values differ".into(),
            },
        });
    }
    if out.len() == before && !layers_differ {
        // Bytes differ but nothing attributable — never stay silent.
        out.push(Divergence {
            class: DivergenceClass::PayloadContent,
            blob: "config".into(),
            path: None,
            detail: "config bytes differ".into(),
        });
    }
    Ok(())
}

fn member_keys(json: &Json) -> impl Iterator<Item = &str> {
    match json {
        Json::Obj(fields) => fields.iter(),
        _ => [].iter(),
    }
    .map(|(k, _)| k.as_str())
}

fn diff_layer(index: usize, tar_a: &[u8], tar_b: &[u8], out: &mut Vec<Divergence>) -> Result<()> {
    let blob = format!("layer[{index}]");
    let ea = list_entries(tar_a)?;
    let eb = list_entries(tar_b)?;
    let order_a: Vec<&str> = ea.iter().map(|e| e.path.as_str()).collect();
    let order_b: Vec<&str> = eb.iter().map(|e| e.path.as_str()).collect();
    let set_a: BTreeSet<&str> = order_a.iter().copied().collect();
    let set_b: BTreeSet<&str> = order_b.iter().copied().collect();

    let before = out.len();
    for path in set_a.difference(&set_b) {
        out.push(Divergence {
            class: DivergenceClass::EntryPresence,
            blob: blob.clone(),
            path: Some((*path).to_string()),
            detail: "entry present only in arm A".into(),
        });
    }
    for path in set_b.difference(&set_a) {
        out.push(Divergence {
            class: DivergenceClass::EntryPresence,
            blob: blob.clone(),
            path: Some((*path).to_string()),
            detail: "entry present only in arm B".into(),
        });
    }
    if set_a == set_b && order_a != order_b {
        let first = order_a
            .iter()
            .zip(&order_b)
            .position(|(x, y)| x != y)
            .unwrap_or(0);
        out.push(Divergence {
            class: DivergenceClass::TarOrdering,
            blob: blob.clone(),
            path: None,
            detail: format!(
                "same entries, different order (first at position {first}: {:?} vs {:?})",
                order_a[first], order_b[first]
            ),
        });
    }

    let find = |entries: &'_ [TarEntry], path: &str| -> usize {
        entries
            .iter()
            .position(|e| e.path == path)
            .expect("common path")
    };
    for path in set_a.intersection(&set_b) {
        let a = &ea[find(&ea, path)];
        let b = &eb[find(&eb, path)];
        if a.mtime != b.mtime {
            out.push(Divergence {
                class: DivergenceClass::TarMtime,
                blob: blob.clone(),
                path: Some((*path).to_string()),
                detail: format!("mtime {} vs {}", a.mtime, b.mtime),
            });
        }
        if (a.uid, a.gid, a.mode) != (b.uid, b.gid, b.mode) {
            out.push(Divergence {
                class: DivergenceClass::OwnerMode,
                blob: blob.clone(),
                path: Some((*path).to_string()),
                detail: format!(
                    "{}:{} mode {:o} vs {}:{} mode {:o}",
                    a.uid, a.gid, a.mode, b.uid, b.gid, b.mode
                ),
            });
        }
        if (a.typeflag, &a.linkname, &a.data) != (b.typeflag, &b.linkname, &b.data) {
            out.push(Divergence {
                class: DivergenceClass::PayloadContent,
                blob: blob.clone(),
                path: Some((*path).to_string()),
                detail: if a.typeflag != b.typeflag {
                    format!(
                        "file type {:?} vs {:?}",
                        a.typeflag as char, b.typeflag as char
                    )
                } else if a.linkname != b.linkname {
                    format!("link target {:?} vs {:?}", a.linkname, b.linkname)
                } else {
                    format!("{} vs {} content bytes", a.data.len(), b.data.len())
                },
            });
        }
    }
    if out.len() == before {
        // The digests differ but every entry compared equal (e.g. raw
        // padding variance) — report rather than silently pass.
        out.push(Divergence {
            class: DivergenceClass::PayloadContent,
            blob,
            path: None,
            detail: "layer bytes differ but entries compare equal".into(),
        });
    }
    Ok(())
}
