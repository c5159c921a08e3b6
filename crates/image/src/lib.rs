//! # zr-image — container images and the registry simulator
//!
//! Images are a metadata record ([`ImageMeta`]) plus a materialized root
//! filesystem (`zr_vfs::Fs`). Like Charliecloud's storage directory, an
//! image on "disk" is just a tree owned by the unprivileged user — base
//! tarballs may *say* files belong to root, but an unprivileged unpack
//! makes them the user's, which is precisely why in-container root sees
//! its image as root-owned through the single-id map.
//!
//! The [`registry`] module fabricates the paper's base images
//! (`alpine:3.19`, `centos:7`, `debian:12`, `fedora:40`) with their
//! package managers, shells, and distro quirks; `zr-pkg` supplies the
//! *behaviour* of those binaries, keyed by [`BinKind`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod layer;
pub mod registry;

/// Fixed per-inode overhead (metadata, directory entries) both byte
/// budgets — the layer store's and the registry blob cache's — charge
/// on top of payload bytes, so `--cache-limit` and `--blob-limit`
/// share one size model.
pub(crate) const INODE_OVERHEAD: u64 = 256;

pub use image::{BinKind, BinarySpec, Distro, Image, ImageMeta, ImageRef, Linkage};
pub use layer::{
    CacheKey, Layer, LayerPersistence, LayerState, LayerStore, StageSnapshot, StoreStats,
};
pub use registry::{
    CatalogBackend, PullCost, Registry, RegistryBackend, RegistryStats, ShardedRegistry,
};
