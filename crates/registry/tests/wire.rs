//! End-to-end wire tests: layouts and images pushed and pulled through
//! a live loopback endpoint, alone and under concurrency — including
//! uploads whose connection dies mid-chunk, responses cut or stalled
//! mid-body, and bit flips the digest checks must catch (all via the
//! shared [`zr_fault::chaos`] proxy).

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use common::{exported_alpine, loopback, Scratch};
use zr_digest::{hex, Sha256};
use zr_fault::chaos::{chaos_proxy, ChaosMode};
use zr_image::RegistryBackend;
use zr_registry::{RemoteRegistry, WireBackend, CHUNK_SIZE};

fn catalog_image(reference: &str) -> zr_image::Image {
    let reference = zr_image::ImageRef::parse(reference).expect("parse reference");
    zr_image::CatalogBackend
        .fetch(&reference)
        .expect("materialize catalog image")
}

#[test]
fn push_pull_roundtrip_is_byte_identical() {
    let scratch = Scratch::new("roundtrip");
    let server = loopback(&scratch);
    let layout = exported_alpine(&scratch);
    let original = zr_store::import(&layout).expect("import exported layout");

    let client = RemoteRegistry::new(server.addr().to_string());
    client.ping().expect("api version check");
    client
        .push_layout(&layout, "alpine", "3.19")
        .expect("push layout");

    // Wire image == exported image, digest for digest.
    let pulled = client.pull_image("alpine", "3.19").expect("pull image");
    assert_eq!(pulled.digest(), original.digest());

    // Pulled layout == pushed layout, file for file.
    let pulled_dir = scratch.join("pulled");
    let (summary, pulled_layout_image) = client
        .pull_layout("alpine", "3.19", &pulled_dir)
        .expect("pull layout");
    assert_eq!(pulled_layout_image.digest(), original.digest());
    let pushed_summary = zr_store::inspect(&layout).expect("inspect source");
    assert_eq!(summary, pushed_summary);
    for file in ["index.json", "oci-layout"] {
        assert_eq!(
            std::fs::read(layout.join(file)).expect("source file"),
            std::fs::read(pulled_dir.join(file)).expect("pulled file"),
            "{file} must round-trip byte-identically"
        );
    }
    assert_eq!(
        zr_store::import(&pulled_dir)
            .expect("import pulled")
            .digest(),
        original.digest()
    );
}

#[test]
fn a_layout_whose_layer_digest_walks_outside_it_is_not_pushed() {
    // The re-hashed manifest names a layer blob outside the layout
    // directory; the push must refuse the digest before reading that
    // file, let alone uploading it.
    let scratch = Scratch::new("outside");
    let server = loopback(&scratch);
    let layout = exported_alpine(&scratch);
    let summary = zr_store::inspect(&layout).expect("inspect layout");
    let blob = |digest: &str| layout.join(format!("blobs/sha256/{digest}"));
    std::fs::copy(blob(&summary.layer_digests[0]), scratch.join("outside.tar"))
        .expect("place the outside file");
    let manifest = std::fs::read_to_string(blob(&summary.manifest_digest))
        .expect("read manifest")
        .replace(&summary.layer_digests[0], "../../../outside.tar");
    let manifest_digest = hex(&Sha256::digest(manifest.as_bytes()));
    std::fs::write(blob(&manifest_digest), &manifest).expect("store crafted manifest");
    let index = std::fs::read_to_string(layout.join("index.json"))
        .expect("read index")
        .replace(&summary.manifest_digest, &manifest_digest);
    std::fs::write(layout.join("index.json"), index).expect("rewrite index");

    let client = RemoteRegistry::new(server.addr().to_string());
    let err = client
        .push_layout(&layout, "alpine", "outside")
        .expect_err("a traversal digest is refused");
    assert!(err.to_string().contains("malformed digest"), "{err}");
    assert_eq!(
        client
            .manifest("alpine", "outside")
            .map(|_| ())
            .unwrap_err()
            .status(),
        Some(404),
        "nothing was tagged"
    );
}

#[test]
fn a_second_push_is_idempotent_and_a_repush_replaces_the_tag() {
    let scratch = Scratch::new("repush");
    let server = loopback(&scratch);
    let layout = exported_alpine(&scratch);
    let client = RemoteRegistry::new(server.addr().to_string());

    client.push_layout(&layout, "demo", "v1").expect("push");
    client.push_layout(&layout, "demo", "v1").expect("re-push");
    // The same content under a second tag resolves identically.
    client
        .push_layout(&layout, "demo", "v2")
        .expect("tag again");
    let (m1, d1) = client.manifest("demo", "v1").expect("manifest v1");
    let (m2, d2) = client.manifest("demo", "v2").expect("manifest v2");
    assert_eq!(m1, m2);
    assert_eq!(d1, d2);
}

#[test]
fn unknown_references_are_not_found() {
    let scratch = Scratch::new("missing");
    let server = loopback(&scratch);
    let client = RemoteRegistry::new(server.addr().to_string());
    let err = client.manifest("ghost", "latest").expect_err("must 404");
    assert_eq!(err.status(), Some(404));
    assert!(!client
        .has_blob("ghost", &"0".repeat(64))
        .expect("probe must not error"));
}

#[test]
fn concurrent_clients_agree_on_digests() {
    const CLIENTS: usize = 8;
    let scratch = Scratch::new("concurrent");
    let server = loopback(&scratch);
    let layout = Arc::new(exported_alpine(&scratch));
    let expected = zr_store::import(layout.as_path()).expect("import").digest();
    let addr = server.addr().to_string();

    // N clients push and pull the same reference at once; every pull —
    // interleaved with re-pushes however the scheduler likes — must
    // come back byte-identical.
    let digests: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let layout = Arc::clone(&layout);
                scope.spawn(move || {
                    let client = RemoteRegistry::new(addr);
                    client
                        .push_layout(layout.as_path(), "shared", "latest")
                        .expect("concurrent push");
                    client
                        .pull_image("shared", "latest")
                        .expect("concurrent pull")
                        .digest()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for digest in &digests {
        assert_eq!(digest, &expected);
    }
}

/// One raw exchange: send `request` verbatim, read to EOF.
fn raw(addr: &SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    String::from_utf8_lossy(&response).into_owned()
}

fn raw_patch(addr: &SocketAddr, location: &str, chunk: &[u8]) -> String {
    let mut request = format!(
        "PATCH {location} HTTP/1.1\r\nHost: zr\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        chunk.len()
    )
    .into_bytes();
    request.extend_from_slice(chunk);
    raw(addr, &request)
}

#[test]
fn a_killed_chunk_is_discarded_and_the_session_resumes() {
    let scratch = Scratch::new("resume-raw");
    let server = loopback(&scratch);
    let addr = server.addr();
    let client = RemoteRegistry::new(addr.to_string());

    let start = raw(
        &addr,
        b"POST /v2/demo/blobs/uploads/ HTTP/1.1\r\nHost: zr\r\nConnection: close\r\n\r\n",
    );
    let location = start
        .lines()
        .find_map(|line| line.strip_prefix("Location: "))
        .expect("upload Location")
        .to_string();
    // A fresh session has committed nothing.
    assert_eq!(client.upload_offset(&location).expect("probe"), 0);

    let first = b"the first chunk, fully delivered";
    assert!(raw_patch(&addr, &location, first).starts_with("HTTP/1.1 202"));

    // The uploader dies mid-chunk: the request promises 64 bytes,
    // delivers 13, and the connection drops.
    let torn =
        format!("PATCH {location} HTTP/1.1\r\nHost: zr\r\nContent-Length: 64\r\n\r\npartial bytes");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(torn.as_bytes()).expect("send torn chunk");
    stream.shutdown(Shutdown::Both).expect("kill connection");
    drop(stream);

    // The torn chunk left no trace — chunks land atomically — so the
    // session still holds exactly the first chunk, and a resuming
    // client picks up from the server's committed offset.
    assert_eq!(client.upload_offset(&location).expect("probe"), first.len());
    let second = b" + the rest, delivered after resuming";
    assert!(raw_patch(&addr, &location, second).starts_with("HTTP/1.1 202"));

    let blob: Vec<u8> = [first.as_slice(), second.as_slice()].concat();
    let digest = hex(&Sha256::digest(&blob));
    let put = raw(
        &addr,
        format!(
            "PUT {location}?digest=sha256:{digest} HTTP/1.1\r\nHost: zr\r\n\
             Connection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .as_bytes(),
    );
    assert!(put.starts_with("HTTP/1.1 201"));
    assert_eq!(client.blob("demo", &digest).expect("fetch"), blob);
}

#[test]
fn push_blob_survives_a_connection_killed_mid_chunk() {
    let scratch = Scratch::new("resume-push");
    let server = loopback(&scratch);
    // push_blob's wire schedule for a two-chunk blob: HEAD probe (0),
    // POST open (1), PATCH chunk one (2), PATCH chunk two (3), PUT
    // finalize. Cut connection 3 five hundred bytes in — mid way
    // through the second chunk's request.
    let proxy = chaos_proxy(
        server.addr(),
        ChaosMode::KillAfter {
            conn: 3,
            bytes: 500,
        },
    );
    let client = RemoteRegistry::new(proxy.to_string());

    let blob: Vec<u8> = (0..CHUNK_SIZE + 4321)
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    let digest = client
        .push_blob("demo", &blob)
        .expect("push survives the cut");
    assert_eq!(digest, hex(&Sha256::digest(&blob)));

    // Straight off the server (no proxy): the blob arrived whole, with
    // no bytes doubled or dropped around the resume point.
    let direct = RemoteRegistry::new(server.addr().to_string());
    assert!(direct.has_blob("demo", &digest).expect("probe"));
    assert_eq!(direct.blob("demo", &digest).expect("fetch"), blob);
}

#[test]
fn wire_backend_feeds_the_sharded_registry() {
    let scratch = Scratch::new("backend");
    let server = loopback(&scratch);
    let layout = exported_alpine(&scratch);
    let client = RemoteRegistry::new(server.addr().to_string());
    client
        .push_layout(&layout, "alpine", "3.19")
        .expect("push base image");

    let registry = zr_image::ShardedRegistry::with_backend(
        zr_image::PullCost::default(),
        Arc::new(WireBackend::new(server.addr().to_string())),
    );
    let reference = zr_image::ImageRef::parse("alpine:3.19").expect("reference");
    let first = registry.pull(&reference).expect("wire pull");
    assert_eq!(first.digest(), catalog_image("alpine:3.19").digest());
    // The second pull is a blob-cache hit: no second wire fetch.
    let before = registry.stats().fetches;
    let second = registry.pull(&reference).expect("cached pull");
    assert_eq!(second.digest(), first.digest());
    assert_eq!(registry.stats().fetches, before);

    // A reference the endpoint has never seen surfaces as ENOENT, the
    // same error shape the catalog gives.
    let missing = zr_image::ImageRef::parse("ghost:1.0").expect("reference");
    assert!(registry.pull(&missing).is_err());
}

#[test]
fn blob_pull_retries_past_a_bit_flipped_response() {
    let scratch = Scratch::new("bit-flip");
    let server = loopback(&scratch);
    let blob: Vec<u8> = (0..100_000).map(|i| (i * 7 % 253) as u8).collect();
    let digest = RemoteRegistry::new(server.addr().to_string())
        .push_blob("demo", &blob)
        .expect("seed blob");

    // The flip lands well inside the response body (headers are well
    // under a kilobyte): the first GET comes back corrupted, fails
    // digest verification, and the retry's clean connection succeeds.
    let proxy = chaos_proxy(
        server.addr(),
        ChaosMode::BitFlip {
            conn: 0,
            offset: 50_000,
        },
    );
    let client = RemoteRegistry::new(proxy.to_string());
    assert_eq!(
        client.blob("demo", &digest).expect("retried fetch"),
        blob,
        "the corrupted attempt must never be returned"
    );

    // Without retries, the same corruption is fatal — proving the
    // first fetch really was flipped, not silently clean.
    let proxy = chaos_proxy(
        server.addr(),
        ChaosMode::BitFlip {
            conn: 0,
            offset: 50_000,
        },
    );
    let once = RemoteRegistry::new(proxy.to_string()).with_retry(zr_fault::RetryPolicy::none());
    let err = once
        .blob("demo", &digest)
        .expect_err("must fail verification");
    assert!(
        err.to_string().contains("digest verification"),
        "unexpected error: {err}"
    );
}

#[test]
fn manifest_fetch_retries_past_a_stalled_response() {
    let scratch = Scratch::new("stall");
    let server = loopback(&scratch);
    let layout = exported_alpine(&scratch);
    RemoteRegistry::new(server.addr().to_string())
        .push_layout(&layout, "alpine", "3.19")
        .expect("seed manifest");

    // The proxy sits on connection 0's response for longer than the
    // client's deadline: the first attempt times out (a transient
    // error), the retry's clean connection answers immediately.
    let proxy = chaos_proxy(
        server.addr(),
        ChaosMode::StallResponse {
            conn: 0,
            delay: Duration::from_millis(500),
        },
    );
    let client =
        RemoteRegistry::new(proxy.to_string()).with_timeout(Some(Duration::from_millis(100)));
    let (manifest, digest) = client.manifest("alpine", "3.19").expect("retried fetch");
    let (direct, want) = RemoteRegistry::new(server.addr().to_string())
        .manifest("alpine", "3.19")
        .expect("direct fetch");
    assert_eq!(manifest, direct);
    assert_eq!(digest, want);
}
