//! Export → import round trips through a real on-disk OCI layout:
//! byte-identical `Image::digest`, deterministic layouts, layered
//! export with whiteouts, and a property test over arbitrary
//! filesystem mutation sequences.

mod common;

use common::Scratch;
use proptest::prelude::*;

use zr_image::{BinKind, BinarySpec, Distro, Image, ImageMeta, Linkage};
use zr_store::{export, export_diff, import, inspect};
use zr_vfs::fs::{FollowMode, Fs};
use zr_vfs::Access;

fn sample_meta() -> ImageMeta {
    ImageMeta {
        name: "demo".into(),
        tag: "1".into(),
        distro: Distro::Debian,
        libc: "glibc-2.36".into(),
        env: vec![
            ("PATH".into(), "/usr/bin:/bin".into()),
            ("OPT".into(), "a=b,c".into()),
        ],
        binaries: vec![
            BinarySpec::new("/bin/sh", BinKind::Shell, Linkage::Dynamic),
            BinarySpec::new("/usr/bin/apt-get", BinKind::AptGet, Linkage::Dynamic),
        ],
    }
}

fn sample_image() -> Image {
    let root = Access::root();
    let mut fs = Fs::new();
    fs.mkdir_p("/usr/bin", 0o755).unwrap();
    fs.mkdir_p("/etc", 0o755).unwrap();
    fs.write_file("/bin-sh", 0o755, b"#!sh".to_vec(), &root)
        .unwrap();
    fs.write_file("/etc/passwd", 0o644, b"root:x:0:0\n".to_vec(), &root)
        .unwrap();
    fs.symlink("passwd", "/etc/alias", &root).unwrap();
    fs.link("/etc/passwd", "/etc/passwd.bak", &root).unwrap();
    let ino = fs
        .resolve("/etc/passwd", &root, FollowMode::Follow)
        .unwrap();
    fs.set_owner(ino, 1000, 1000).unwrap();
    Image {
        meta: sample_meta(),
        fs,
    }
}

#[test]
fn export_import_is_digest_identical() {
    let dir = Scratch::new("oci-rt");
    let image = sample_image();
    let summary = export(&image, dir.path()).unwrap();
    assert_eq!(summary.ref_name, "demo:1");
    assert_eq!(summary.layer_digests.len(), 1);

    let back = import(dir.path()).unwrap();
    assert_eq!(back.meta, image.meta, "metadata round-trips exactly");
    assert_eq!(
        back.digest(),
        image.digest(),
        "Image::digest is byte-identical across export → import"
    );
    assert_eq!(back.digest(), back.digest_uncached());

    // inspect() agrees with what export said, without materializing.
    let seen = inspect(dir.path()).unwrap();
    assert_eq!(seen, summary);
}

#[test]
fn exports_are_byte_reproducible() {
    let image = sample_image();
    let a = Scratch::new("oci-det-a");
    let b = Scratch::new("oci-det-b");
    let sa = export(&image, a.path()).unwrap();
    let sb = export(&image, b.path()).unwrap();
    assert_eq!(sa, sb, "same image, same digests");
    for rel in ["index.json", "oci-layout"] {
        assert_eq!(
            std::fs::read(a.join(rel)).unwrap(),
            std::fs::read(b.join(rel)).unwrap(),
            "{rel} must be byte-identical"
        );
    }
    assert_eq!(
        std::fs::read(a.join(&format!("blobs/sha256/{}", sa.manifest_digest))).unwrap(),
        std::fs::read(b.join(&format!("blobs/sha256/{}", sb.manifest_digest))).unwrap()
    );
    assert!(
        !a.join(".staging").exists(),
        "no staging residue in a finished layout"
    );
}

#[test]
fn layered_export_applies_whiteouts_on_import() {
    let root = Access::root();
    let base_image = sample_image();
    let mut image = Image {
        meta: sample_meta(),
        fs: base_image.fs.clone(),
    };
    // The top layer deletes a file, replaces a symlink's target, and
    // adds a new tree — deletions must survive the layout round trip.
    image.fs.unlink("/etc/alias", &root).unwrap();
    image.fs.unlink("/etc/passwd.bak", &root).unwrap();
    image.fs.mkdir_p("/srv/app", 0o700).unwrap();
    image
        .fs
        .write_file("/srv/app/cfg", 0o600, b"secret".to_vec(), &root)
        .unwrap();

    let dir = Scratch::new("oci-layers");
    let summary = export_diff(&image, &base_image.fs, dir.path()).unwrap();
    assert_eq!(summary.layer_digests.len(), 2, "base + diff");

    let back = import(dir.path()).unwrap();
    assert_eq!(back.digest(), image.digest());
    assert!(
        back.fs
            .stat("/etc/alias", &root, FollowMode::NoFollow)
            .is_err(),
        "whiteout deleted the symlink"
    );
    assert_eq!(back.fs.read_file("/srv/app/cfg", &root).unwrap(), b"secret");
}

#[test]
fn foreign_layouts_without_zeroroot_config_still_import() {
    // Strip the zeroroot extension to simulate an image produced by
    // another builder: import degrades gracefully instead of failing.
    let dir = Scratch::new("oci-foreign");
    let image = sample_image();
    let summary = export(&image, dir.path()).unwrap();
    let config_path = dir.join(&format!("blobs/sha256/{}", summary.config_digest));
    let config = std::fs::read_to_string(&config_path).unwrap();
    let stripped = {
        let start = config.find(",\"zeroroot\"").unwrap();
        format!("{}{}", &config[..start], "}")
    };
    // Content addressing: the stripped config is a different blob, so
    // the manifest must be rewritten to point at it.
    let new_digest = {
        use zr_digest::{hex, Sha256};
        hex(&Sha256::digest(stripped.as_bytes()))
    };
    std::fs::write(dir.join(&format!("blobs/sha256/{new_digest}")), &stripped).unwrap();
    let manifest_path = dir.join(&format!("blobs/sha256/{}", summary.manifest_digest));
    let manifest = std::fs::read_to_string(&manifest_path)
        .unwrap()
        .replace(&summary.config_digest, &new_digest)
        .replace(
            &format!("\"size\":{}", config.len()),
            &format!("\"size\":{}", stripped.len()),
        );
    let new_manifest_digest = {
        use zr_digest::{hex, Sha256};
        hex(&Sha256::digest(manifest.as_bytes()))
    };
    std::fs::write(
        dir.join(&format!("blobs/sha256/{new_manifest_digest}")),
        &manifest,
    )
    .unwrap();
    let index = std::fs::read_to_string(dir.join("index.json"))
        .unwrap()
        .replace(&summary.manifest_digest, &new_manifest_digest)
        .replace(
            &format!("\"size\":{}", std::fs::read(&manifest_path).unwrap().len()),
            &format!("\"size\":{}", manifest.len()),
        );
    std::fs::write(dir.join("index.json"), index).unwrap();

    let back = import(dir.path()).unwrap();
    assert_eq!(back.meta.name, "demo");
    assert_eq!(back.meta.distro, Distro::Scratch, "foreign: no distro info");
    assert_eq!(
        back.fs.tree_digest(),
        image.fs.tree_digest(),
        "the filesystem still round-trips"
    );
}

fn assert_malformed<T: std::fmt::Debug>(result: zr_store::Result<T>) {
    match result {
        Err(zr_store::StoreError::Corrupt(msg)) => {
            assert!(msg.contains("malformed digest"), "{msg}")
        }
        other => panic!("expected corrupt error, got {other:?}"),
    }
}

#[test]
fn traversal_digests_in_a_crafted_layout_are_rejected() {
    // A hostile index.json must not be able to join "../" segments
    // into the blob path — malformed digests fail before any read.
    let dir = Scratch::new("oci-traversal");
    let image = sample_image();
    let summary = export(&image, dir.path()).unwrap();
    let index = std::fs::read_to_string(dir.join("index.json"))
        .unwrap()
        .replace(&summary.manifest_digest, "../../../../../../etc/passwd");
    std::fs::write(dir.join("index.json"), index).unwrap();
    assert_malformed(import(dir.path()));

    // The same walk through a layer descriptor of a validly stored,
    // re-hashed manifest: refused where the manifest is parsed, so no
    // reader of the manifest gets as far as the file it points at.
    let dir = Scratch::new("oci-traversal-layer");
    let summary = export(&image, dir.path()).unwrap();
    let layer = dir.join(&format!("blobs/sha256/{}", summary.layer_digests[0]));
    std::fs::copy(layer, dir.join("outside.tar")).unwrap();
    let manifest_path = dir.join(&format!("blobs/sha256/{}", summary.manifest_digest));
    let manifest = std::fs::read_to_string(manifest_path)
        .unwrap()
        .replace(&summary.layer_digests[0], "../../outside.tar");
    let manifest_digest = {
        use zr_digest::{hex, Sha256};
        hex(&Sha256::digest(manifest.as_bytes()))
    };
    std::fs::write(
        dir.join(&format!("blobs/sha256/{manifest_digest}")),
        &manifest,
    )
    .unwrap();
    let index = std::fs::read_to_string(dir.join("index.json"))
        .unwrap()
        .replace(&summary.manifest_digest, &manifest_digest);
    std::fs::write(dir.join("index.json"), index).unwrap();
    assert_malformed(inspect(dir.path()));
    assert_malformed(import(dir.path()));
    assert_malformed(zr_store::parse_manifest("demo:1", manifest.as_bytes()));
}

#[test]
fn tampered_layer_blobs_are_rejected() {
    let dir = Scratch::new("oci-tamper");
    let image = sample_image();
    let summary = export(&image, dir.path()).unwrap();
    let layer = dir.join(&format!("blobs/sha256/{}", summary.layer_digests[0]));
    let mut bytes = std::fs::read(&layer).unwrap();
    bytes[700] ^= 1; // flip one payload bit
    std::fs::write(&layer, bytes).unwrap();
    assert!(import(dir.path()).is_err(), "verification catches the flip");
}

/// Interpret one encoded op against `fs` (the cow_props universe —
/// sockets included, carried through the tar as PAX extension records).
fn apply_op(fs: &mut Fs, op: (u8, u8, u8)) {
    let (kind, target, payload) = op;
    let name = format!("/f{}", target % 8);
    let other = format!("/f{}", payload % 8);
    let nested = format!("/d{}/g{}", target % 3, payload % 4);
    let acc = Access::root();
    match kind % 13 {
        0 | 1 => {
            let _ = fs.write_file(&name, 0o644, vec![payload; payload as usize % 64 + 1], &acc);
        }
        2 => {
            let _ = fs.mkdir_p(&format!("/d{}", target % 3), 0o755);
            let _ = fs.write_file(&nested, 0o640, vec![payload; 8], &acc);
        }
        3 => {
            let _ = fs.append_file(&name, &[payload], &acc);
        }
        4 => {
            if let Ok(ino) = fs.resolve(&name, &acc, FollowMode::NoFollow) {
                let _ = fs.set_perm(ino, 0o600 | u32::from(payload % 0o200));
            }
        }
        5 => {
            if let Ok(ino) = fs.resolve(&name, &acc, FollowMode::NoFollow) {
                let _ = fs.set_owner(ino, u32::from(payload), u32::from(target));
            }
        }
        6 => {
            let _ = fs.unlink(&name, &acc);
        }
        7 => {
            let _ = fs.link(&name, &other, &acc);
        }
        8 => {
            let _ = fs.rename(&name, &other, &acc);
        }
        9 => {
            let _ = fs.symlink(&other, &name, &acc);
        }
        10 => {
            use zr_syscalls::mode::makedev;
            let _ = fs.mknod(
                &name,
                zr_vfs::FileKind::CharDev(makedev(u32::from(target), u32::from(payload))),
                0o660,
                &acc,
            );
        }
        11 => {
            let _ = fs.mknod(&name, zr_vfs::FileKind::Socket, 0o700, &acc);
        }
        _ => {
            if let Ok(ino) = fs.resolve(&name, &acc, FollowMode::NoFollow) {
                let _ = fs.set_xattr(ino, "user.p", &[payload]);
            }
        }
    }
}

proptest! {
    /// Whatever sequence of filesystem mutations a build performs, the
    /// exported layout imports back to a byte-identical image digest.
    #[test]
    fn prop_export_import_digest_equality(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..24),
    ) {
        let mut fs = Fs::new();
        for op in ops {
            apply_op(&mut fs, op);
        }
        let image = Image { meta: sample_meta(), fs };
        let dir = Scratch::new("oci-prop");
        export(&image, dir.path()).unwrap();
        let back = import(dir.path()).unwrap();
        prop_assert_eq!(back.digest(), image.digest());
        prop_assert_eq!(back.meta, image.meta);
    }

    /// The diff-layer path holds the same property: base + whiteout
    /// overlay imports to the mutated image's exact digest.
    #[test]
    fn prop_layered_export_digest_equality(
        setup in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..12),
        edits in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..12),
    ) {
        let mut base = Fs::new();
        for op in setup {
            apply_op(&mut base, op);
        }
        let mut top = base.clone();
        for op in edits {
            apply_op(&mut top, op);
        }
        let image = Image { meta: sample_meta(), fs: top };
        let dir = Scratch::new("oci-prop-diff");
        export_diff(&image, &base, dir.path()).unwrap();
        let back = import(dir.path()).unwrap();
        prop_assert_eq!(back.digest(), image.digest());
    }
}
