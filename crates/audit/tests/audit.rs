//! The audit subsystem's force/suppress matrix.
//!
//! For every divergence class in the taxonomy: *force* it by injecting
//! the corresponding nondeterminism source (or naive-packer switch)
//! into one arm and assert the auditor names the class — then run the
//! same pair with injection off and assert the canonical pipeline
//! suppresses it. A class the auditor can only report as "content
//! differs" would fail these tests.

mod common;

use common::Scratch;
use zr_audit::{audit_build, diff_layouts, ArmSpec, DivergenceClass};
use zr_store::{export, export_diff, ExportOpts, TarOpts};
use zr_vfs::{Access, Fs, Nondeterminism};

const DF: &str = "FROM alpine:3.19\nRUN echo hello > /greeting\nRUN uuidgen > /uuid\n";

/// A small diamond multi-stage build (no entropy consumers, so the
/// per-stage kernels of the parallel arm agree with the single serial
/// kernel).
const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
                       FROM base AS left\nRUN echo l > /left\n\
                       FROM base AS right\nRUN echo r > /right\n\
                       FROM base AS final\n\
                       COPY --from=left /left /left\n\
                       COPY --from=right /right /right\n";

fn raw_tar() -> ExportOpts {
    ExportOpts {
        tar: TarOpts {
            preserve_mtimes: true,
            readdir_order: true,
        },
        json_key_seed: None,
    }
}

fn classes(outcome: &zr_audit::AuditOutcome) -> Vec<DivergenceClass> {
    outcome.divergences.iter().map(|d| d.class).collect()
}

#[test]
fn identical_builds_are_clean() {
    let scratch = Scratch::new("clean");
    let outcome = audit_build(DF, &ArmSpec::default(), &ArmSpec::default(), scratch.path())
        .expect("audit runs");
    assert!(
        outcome.clean(),
        "independent builds must agree:\n{}",
        zr_audit::render_human(&outcome)
    );
    assert_eq!(
        outcome.summary_a.manifest_digest,
        outcome.summary_b.manifest_digest
    );
}

#[test]
fn serial_vs_parallel_builds_are_clean() {
    let scratch = Scratch::new("jobs");
    let serial = ArmSpec::default();
    let parallel = ArmSpec {
        jobs: 8,
        ..ArmSpec::default()
    };
    let outcome = audit_build(DIAMOND, &serial, &parallel, scratch.path()).expect("audit runs");
    assert!(
        outcome.clean(),
        "worker count must not leak into the layout:\n{}",
        zr_audit::render_human(&outcome)
    );
}

#[test]
fn clock_skew_forces_tar_mtime_and_normalizer_suppresses_it() {
    let skewed = ArmSpec {
        nondet: Nondeterminism {
            clock_skew: 100_000,
            ..Nondeterminism::default()
        },
        export: raw_tar(),
        ..ArmSpec::default()
    };
    let naive = ArmSpec {
        export: raw_tar(),
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("skew-raw");
    let outcome = audit_build(DF, &naive, &skewed, scratch.path()).expect("audit runs");
    assert!(
        classes(&outcome).contains(&DivergenceClass::TarMtime),
        "skewed clock through a naive packer must be named tar-mtime:\n{}",
        zr_audit::render_human(&outcome)
    );

    // Same skew, canonical packer: zeroed timestamps suppress it.
    let skewed_canonical = ArmSpec {
        nondet: skewed.nondet.clone(),
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("skew-canonical");
    let outcome = audit_build(DF, &ArmSpec::default(), &skewed_canonical, scratch.path())
        .expect("audit runs");
    assert!(
        outcome.clean(),
        "the canonical packer must suppress mtime skew:\n{}",
        zr_audit::render_human(&outcome)
    );
}

#[test]
fn readdir_shuffle_forces_tar_ordering_and_sorted_walk_suppresses_it() {
    let shuffled = ArmSpec {
        nondet: Nondeterminism {
            shuffle_readdir: Some(7),
            ..Nondeterminism::default()
        },
        export: ExportOpts {
            tar: TarOpts {
                preserve_mtimes: false,
                readdir_order: true,
            },
            json_key_seed: None,
        },
        ..ArmSpec::default()
    };
    let naive = ArmSpec {
        export: shuffled.export,
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("shuffle-raw");
    let outcome = audit_build(DF, &naive, &shuffled, scratch.path()).expect("audit runs");
    assert!(
        classes(&outcome).contains(&DivergenceClass::TarOrdering),
        "shuffled readdir through a readdir-order packer must be named tar-ordering:\n{}",
        zr_audit::render_human(&outcome)
    );

    // Same shuffle, canonical (sorted-walk) packer: suppressed.
    let shuffled_canonical = ArmSpec {
        nondet: shuffled.nondet.clone(),
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("shuffle-canonical");
    let outcome = audit_build(DF, &ArmSpec::default(), &shuffled_canonical, scratch.path())
        .expect("audit runs");
    assert!(
        outcome.clean(),
        "the sorted walk must suppress readdir order:\n{}",
        zr_audit::render_human(&outcome)
    );
}

#[test]
fn alternate_default_ids_force_owner_mode() {
    // Ownership is *content*: the canonical exporter carries uid/gid,
    // so this class must surface even without naive-packer switches.
    let chowned = ArmSpec {
        nondet: Nondeterminism {
            default_ids: Some((4242, 4343)),
            ..Nondeterminism::default()
        },
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("ids");
    let outcome =
        audit_build(DF, &ArmSpec::default(), &chowned, scratch.path()).expect("audit runs");
    let classes = classes(&outcome);
    assert!(
        classes.contains(&DivergenceClass::OwnerMode),
        "alternate default ids must be named owner-mode:\n{}",
        zr_audit::render_human(&outcome)
    );
    let owner = outcome
        .divergences
        .iter()
        .find(|d| d.class == DivergenceClass::OwnerMode)
        .unwrap();
    assert!(
        owner.detail.contains("4242"),
        "detail names the observed ids: {owner:?}"
    );
    assert!(owner.path.is_some(), "owner divergence names the path");
}

#[test]
fn entropy_seed_forces_payload_content_with_path() {
    let seeded = ArmSpec {
        nondet: Nondeterminism {
            gen_seed: Some(5),
            ..Nondeterminism::default()
        },
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("entropy");
    let outcome =
        audit_build(DF, &ArmSpec::default(), &seeded, scratch.path()).expect("audit runs");
    let payload: Vec<_> = outcome
        .divergences
        .iter()
        .filter(|d| d.class == DivergenceClass::PayloadContent)
        .collect();
    assert!(
        payload.iter().any(|d| d.path.as_deref() == Some("/uuid")),
        "a diverging generated file must be drilled down to its path:\n{}",
        zr_audit::render_human(&outcome)
    );
    // Only the generated file's payload diverges — not the static one.
    assert!(
        !payload
            .iter()
            .any(|d| d.path.as_deref() == Some("/greeting")),
        "static content must not be blamed:\n{}",
        zr_audit::render_human(&outcome)
    );
}

#[test]
fn json_key_shuffle_forces_json_key_order() {
    let shuffled = ArmSpec {
        export: ExportOpts {
            tar: TarOpts::default(),
            json_key_seed: Some(3),
        },
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("json");
    let outcome =
        audit_build(DF, &ArmSpec::default(), &shuffled, scratch.path()).expect("audit runs");
    assert_eq!(
        classes(&outcome),
        vec![DivergenceClass::JsonKeyOrder],
        "a reordered config must be named json-key-order, and nothing else:\n{}",
        zr_audit::render_human(&outcome)
    );
}

fn tiny_image(extra: Option<&str>) -> zr_image::Image {
    let root = Access::root();
    let mut fs = Fs::new();
    fs.mkdir_p("/etc", 0o755).unwrap();
    fs.write_file("/etc/os-release", 0o644, b"ID=test".to_vec(), &root)
        .unwrap();
    if let Some(path) = extra {
        fs.write_file(path, 0o644, b"x".to_vec(), &root).unwrap();
    }
    zr_image::Image {
        meta: zr_image::ImageMeta {
            name: "tiny".into(),
            tag: "latest".into(),
            distro: zr_image::Distro::Scratch,
            libc: String::new(),
            env: vec![],
            binaries: vec![],
        },
        fs,
    }
}

#[test]
fn layer_count_mismatch_is_classified() {
    let scratch = Scratch::new("layer-count");
    let image = tiny_image(None);
    let base = Fs::new();
    export(&image, scratch.path().join("arm-a")).unwrap();
    export_diff(&image, &base, scratch.path().join("arm-b")).unwrap();
    let divergences =
        diff_layouts(&scratch.path().join("arm-a"), &scratch.path().join("arm-b")).unwrap();
    assert!(
        divergences
            .iter()
            .any(|d| d.class == DivergenceClass::LayerCount),
        "{divergences:?}"
    );
}

#[test]
fn entry_presence_is_classified_with_the_path() {
    let scratch = Scratch::new("presence");
    export(&tiny_image(None), scratch.path().join("arm-a")).unwrap();
    export(
        &tiny_image(Some("/etc/extra")),
        scratch.path().join("arm-b"),
    )
    .unwrap();
    let divergences =
        diff_layouts(&scratch.path().join("arm-a"), &scratch.path().join("arm-b")).unwrap();
    let presence = divergences
        .iter()
        .find(|d| d.class == DivergenceClass::EntryPresence)
        .expect("entry-presence reported");
    assert_eq!(presence.path.as_deref(), Some("/etc/extra"));
    assert!(presence.detail.contains("arm B"), "{presence:?}");
}

#[test]
fn a_layer_digest_pointing_outside_the_layouts_is_refused() {
    // Arm B's re-hashed manifest names a valid layer tar that lies
    // outside both layouts: the differ must refuse the digest, not
    // read that file and diff its entries as arm B's layer.
    let scratch = Scratch::new("outside");
    let (dir_a, dir_b) = (scratch.path().join("arm-a"), scratch.path().join("arm-b"));
    export(&tiny_image(None), &dir_a).unwrap();
    let summary = export(&tiny_image(None), &dir_b).unwrap();
    let other = scratch.path().join("other");
    let outside = export(&tiny_image(Some("/etc/secret-outside-file")), &other).unwrap();
    std::fs::copy(
        other.join(format!("blobs/sha256/{}", outside.layer_digests[0])),
        scratch.path().join("outside.tar"),
    )
    .unwrap();
    std::fs::remove_dir_all(&other).unwrap();

    let blob = |digest: &str| dir_b.join(format!("blobs/sha256/{digest}"));
    let manifest = std::fs::read_to_string(blob(&summary.manifest_digest))
        .unwrap()
        .replace(&summary.layer_digests[0], "../../../outside.tar");
    let manifest_digest = zr_store::Blob::new(manifest.clone().into_bytes()).sha_hex();
    std::fs::write(blob(&manifest_digest), &manifest).unwrap();
    let index = std::fs::read_to_string(dir_b.join("index.json"))
        .unwrap()
        .replace(&summary.manifest_digest, &manifest_digest);
    std::fs::write(dir_b.join("index.json"), index).unwrap();

    let err = diff_layouts(&dir_a, &dir_b).expect_err("a traversal digest is an error");
    assert!(err.to_string().contains("malformed digest"), "{err}");
}

#[test]
fn a_clean_verdict_names_the_blobs_it_compared() {
    // The two layouts differ only in the ref name `index.json`
    // annotates, which the audit does not compare: the verdict is
    // clean, and it claims only the config and layer blobs.
    let scratch = Scratch::new("index-ref");
    let (dir_a, dir_b) = (scratch.path().join("arm-a"), scratch.path().join("arm-b"));
    export(&tiny_image(None), &dir_a).unwrap();
    export(&tiny_image(None), &dir_b).unwrap();
    let index = std::fs::read_to_string(dir_b.join("index.json")).unwrap();
    let retagged = index.replace("tiny:latest", "tiny:retagged");
    assert_ne!(index, retagged, "the index annotates the ref name");
    std::fs::write(dir_b.join("index.json"), retagged).unwrap();

    let outcome = zr_audit::audit_layouts(&dir_a, &dir_b).expect("audit runs");
    assert_eq!(outcome.summary_b.ref_name, "tiny:retagged");
    let human = zr_audit::render_human(&outcome);
    assert!(outcome.clean(), "{human}");
    assert!(
        human.contains("verdict: CLEAN — config and layer blobs are byte-for-byte identical"),
        "{human}"
    );
    assert!(!human.contains("layouts are"), "{human}");
}

#[test]
fn naive_export_of_the_same_build_is_still_clean() {
    // The naive packer is deterministic too: both arms raw → clean.
    // (Detection tests above diverge because the *inputs* differ, not
    // because raw packing is itself random.)
    let naive = ArmSpec {
        export: raw_tar(),
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("raw-clean");
    let outcome = audit_build(DF, &naive, &naive, scratch.path()).expect("audit runs");
    assert!(outcome.clean(), "{}", zr_audit::render_human(&outcome));
}

#[test]
fn reports_render_both_ways() {
    let seeded = ArmSpec {
        nondet: Nondeterminism {
            gen_seed: Some(9),
            ..Nondeterminism::default()
        },
        ..ArmSpec::default()
    };
    let scratch = Scratch::new("render");
    let outcome =
        audit_build(DF, &ArmSpec::default(), &seeded, scratch.path()).expect("audit runs");
    let human = zr_audit::render_human(&outcome);
    assert!(human.contains("DIVERGENT"), "{human}");
    assert!(human.contains("payload-content"), "{human}");
    let json = zr_audit::render_json(&outcome);
    assert!(json.contains("\"clean\":false"), "{json}");
    assert!(json.contains("\"class\":\"payload-content\""), "{json}");
    // The machine report parses back.
    let parsed = zr_store::json::Json::parse(&json).expect("valid JSON");
    assert_eq!(
        parsed.get("clean"),
        Some(&zr_store::json::Json::Bool(false))
    );
}
