//! # zr-store — the persistent bottom half of the build stack
//!
//! Everything above this crate works on in-memory images; this crate
//! makes the results *durable and exchangeable*:
//!
//! * [`Cas`] — a crash-safe, content-addressed blob store
//!   (`blobs/sha256/<digest>`, atomic tmp+rename writes, refcounting
//!   roots, [`Cas::gc`]). File payloads, tree records and layer
//!   records all live here, so snapshots that share content share
//!   disk bytes exactly as they share memory.
//! * [`DiskLayers`] / [`open_layer_store`] — the durable tier behind
//!   `zr_image::LayerStore`: every cached layer is written through to
//!   disk and read back on a miss, so a *second process* pointed at
//!   the same `--cache-dir` replays a warm build without executing a
//!   single instruction (the `O-oci` paper-report gate).
//! * [`oci`] — a deterministic OCI image-layout exporter/importer:
//!   sorted canonical tars with zeroed timestamps and `.wh.` whiteout
//!   handling, manifest/config JSON with fixed field order, and a
//!   byte-identical `Image::digest` across export → import.
//!
//! The layering rule: `zr-vfs` knows how to (de)serialize a blob
//! (`Blob::with_sha` keeps digest memos warm across a reload),
//! `zr-image` owns the in-memory cache and its persistence *trait*,
//! and this crate owns every byte that touches a disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cas;
pub mod chunk;
pub mod codec;
mod error;
pub mod json;
pub mod layers;
pub mod meta;
pub mod oci;
pub mod tar;
pub mod tree;

pub use cas::{Cas, CasBatch, CasStats, GcReport, FORMAT};
pub use chunk::{chunk_spans, CHUNK_THRESHOLD, MAX_CHUNK, MIN_CHUNK};
pub use error::{Result, StoreError};
pub use layers::{open_layer_store, DiskLayerStats, DiskLayers, MAX_DELTA_DEPTH};
pub use oci::{
    assemble, export, export_diff, export_with, import, inspect, materialize_layout,
    parse_manifest, read_layout_blob, write_layout, ExportOpts, OciSummary,
};
pub use tar::{list_entries, TarEntry, TarOpts};
/// The shared payload type [`Cas::put_blob`] and [`CasBatch::put_blob`]
/// stage without copying (re-exported so writers need no `zr-vfs`
/// dependency of their own).
pub use zr_vfs::Blob;
