//! The pulling/pushing half: an HTTP client for the distribution API,
//! layout-level push/pull built on it, and the [`WireBackend`] that
//! plugs a live endpoint into `ShardedRegistry` so `FROM` resolves
//! over the wire.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use zr_digest::{hex, Sha256};
use zr_fault::RetryPolicy;
use zr_image::{Image, ImageRef, RegistryBackend};
use zr_store::{OciSummary, StoreError};
use zr_syscalls::Errno;

use crate::error::{RegistryError, Result};
use crate::http::{read_response, write_request, Response};
use crate::server::MEDIA_MANIFEST;

/// Blobs above this use the `PATCH` session protocol; smaller ones go
/// up in one monolithic `POST`.
pub const CHUNK_SIZE: usize = 1024 * 1024;

/// How many transport failures one chunked upload absorbs before the
/// client gives up. Each failure costs one probe round trip; a server
/// that keeps dropping connections is not worth hammering.
pub const MAX_RESUMES: usize = 3;

/// Default per-request wire deadline: every read and write on a client
/// connection must make progress within this window, so a stalled
/// server surfaces as a (transient, retryable) timeout instead of a
/// hung build.
pub const WIRE_TIMEOUT: Duration = Duration::from_secs(10);

/// Did this error come from a read/write deadline?
fn is_timeout(e: &RegistryError) -> bool {
    matches!(e, RegistryError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ))
}

/// The committed byte count a `Range: 0-<last>` header reports. The
/// server omits the header while the session is empty, so `0-0` is
/// unambiguously one byte.
fn committed_bytes(response: &Response) -> Result<usize> {
    let Some(range) = response.get_header("Range") else {
        return Ok(0);
    };
    range
        .strip_prefix("0-")
        .and_then(|last| last.parse::<usize>().ok())
        .map(|last| last + 1)
        .ok_or_else(|| RegistryError::protocol(format!("unparseable Range {range:?}")))
}

/// A client for one OCI distribution endpoint (`host:port`). One TCP
/// connection per exchange — plenty for loopback, and it keeps the
/// failure model trivial. Transient failures — transport errors and
/// 5xx answers — are retried under the client's [`RetryPolicy`] on
/// both sides: manifest and blob fetches, each blob push (probe plus
/// upload) and the manifest push. Every connection carries a
/// read/write deadline so a stalled peer times out instead of hanging
/// the build.
#[derive(Debug, Clone)]
pub struct RemoteRegistry {
    addr: String,
    retry: RetryPolicy,
    timeout: Option<Duration>,
}

impl RemoteRegistry {
    /// A client for the endpoint at `addr` (e.g. `127.0.0.1:7707`),
    /// with the default retry policy and [`WIRE_TIMEOUT`] deadline.
    pub fn new(addr: impl Into<String>) -> RemoteRegistry {
        RemoteRegistry {
            addr: addr.into(),
            retry: RetryPolicy::default(),
            timeout: Some(WIRE_TIMEOUT),
        }
    }

    /// Replace the retry policy (builder style). `RetryPolicy::none()`
    /// restores the old fail-on-first-error pull behavior.
    pub fn with_retry(mut self, retry: RetryPolicy) -> RemoteRegistry {
        self.retry = retry;
        self
    }

    /// Replace the per-request wire deadline (`None` = block forever).
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> RemoteRegistry {
        self.timeout = timeout;
        self
    }

    fn exchange(
        &self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<Response> {
        if zr_fault::fires(zr_fault::points::WIRE_CLIENT_RESET) {
            return Err(RegistryError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected connection reset",
            )));
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        let mut writer = stream.try_clone()?;
        write_request(&mut writer, method, target, content_type, body)?;
        let response = read_response(&mut BufReader::new(stream), method == "HEAD");
        if let Err(e) = &response {
            if is_timeout(e) {
                zr_fault::count_timeout();
            }
        }
        response
    }

    /// Like [`exchange`](Self::exchange), but a non-2xx status becomes
    /// a [`RegistryError::Status`].
    fn expect(
        &self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<Response> {
        let response = self.exchange(method, target, content_type, body)?;
        if !(200..300).contains(&response.status) {
            return Err(RegistryError::Status {
                status: response.status,
                message: String::from_utf8_lossy(&response.body).into_owned(),
            });
        }
        Ok(response)
    }

    /// API version check (`GET /v2/`).
    pub fn ping(&self) -> Result<()> {
        self.expect("GET", "/v2/", None, &[]).map(|_| ())
    }

    /// Fetch a manifest by tag or digest; returns the bytes and their
    /// verified bare-hex digest. Transient transport errors are
    /// retried under the client's policy; refusals (4xx) stay fatal.
    pub fn manifest(&self, name: &str, reference: &str) -> Result<(Vec<u8>, String)> {
        self.retry.run(RegistryError::transient, |_| {
            self.manifest_once(name, reference)
        })
    }

    fn manifest_once(&self, name: &str, reference: &str) -> Result<(Vec<u8>, String)> {
        let response = self.expect(
            "GET",
            &format!("/v2/{name}/manifests/{reference}"),
            None,
            &[],
        )?;
        let digest = hex(&Sha256::digest(&response.body));
        if let Some(claimed) = response.get_header("Docker-Content-Digest") {
            if claimed != format!("sha256:{digest}") {
                return Err(RegistryError::protocol(
                    "manifest fails digest verification",
                ));
            }
        }
        Ok((response.body, digest))
    }

    /// Whether the endpoint already has blob `digest` (bare hex).
    pub fn has_blob(&self, name: &str, digest: &str) -> Result<bool> {
        let response = self.exchange(
            "HEAD",
            &format!("/v2/{name}/blobs/sha256:{digest}"),
            None,
            &[],
        )?;
        Ok(response.status == 200)
    }

    /// Fetch and digest-verify blob `digest` (bare hex). Transient
    /// transport errors — including a fetched body that fails digest
    /// verification, the wire picture of in-flight corruption — are
    /// retried under the client's policy.
    pub fn blob(&self, name: &str, digest: &str) -> Result<Vec<u8>> {
        self.retry
            .run(RegistryError::transient, |_| self.blob_once(name, digest))
    }

    fn blob_once(&self, name: &str, digest: &str) -> Result<Vec<u8>> {
        let response = self.expect(
            "GET",
            &format!("/v2/{name}/blobs/sha256:{digest}"),
            None,
            &[],
        )?;
        if hex(&Sha256::digest(&response.body)) != digest {
            return Err(RegistryError::protocol(format!(
                "blob sha256:{digest} fails digest verification"
            )));
        }
        Ok(response.body)
    }

    /// Upload one blob (idempotent: already-present blobs are skipped
    /// after a `HEAD` probe). Small blobs go monolithic; larger ones
    /// through an upload session in [`CHUNK_SIZE`] pieces. A chunk
    /// whose connection dies does not restart the blob: the client
    /// probes the session for the server's committed offset and
    /// resumes from there, up to [`MAX_RESUMES`] times. Any other
    /// transient failure (a 500 from the server's store, say) reruns
    /// the whole probe-plus-upload under the client's retry policy.
    pub fn push_blob(&self, name: &str, data: &[u8]) -> Result<String> {
        let digest = hex(&Sha256::digest(data));
        self.retry.run(RegistryError::transient, |_| {
            self.push_blob_once(name, data, &digest)
        })?;
        Ok(digest)
    }

    fn push_blob_once(&self, name: &str, data: &[u8], digest: &str) -> Result<()> {
        if self.has_blob(name, digest)? {
            return Ok(());
        }
        if data.len() <= CHUNK_SIZE {
            self.expect(
                "POST",
                &format!("/v2/{name}/blobs/uploads/?digest=sha256:{digest}"),
                Some("application/octet-stream"),
                data,
            )?;
            return Ok(());
        }
        let start = self.expect("POST", &format!("/v2/{name}/blobs/uploads/"), None, &[])?;
        let location = start
            .get_header("Location")
            .ok_or_else(|| RegistryError::protocol("upload start without Location"))?
            .to_string();
        let mut offset = 0;
        let mut resumes = 0;
        while offset < data.len() {
            let end = data.len().min(offset + CHUNK_SIZE);
            let chunk = &data[offset..end];
            match self.expect("PATCH", &location, Some("application/octet-stream"), chunk) {
                // The server's committed total is authoritative — a
                // mid-write offset never drifts out of sync with it.
                Ok(response) => offset = committed_bytes(&response)?,
                // The server answered and refused (4xx); retrying the
                // same bytes cannot change its mind. Transport errors
                // *and* 5xx answers resume from the committed offset.
                Err(refusal) if !refusal.transient() => return Err(refusal),
                Err(transport) => {
                    resumes += 1;
                    if resumes > MAX_RESUMES {
                        return Err(transport);
                    }
                    zr_fault::count_retry();
                    offset = self.upload_offset(&location)?;
                }
            }
        }
        self.expect(
            "PUT",
            &format!("{location}?digest=sha256:{digest}"),
            None,
            &[],
        )?;
        Ok(())
    }

    /// How many bytes of upload session `location` the server has
    /// committed — the offset an interrupted
    /// [`push_blob`](Self::push_blob) (or any out-of-band uploader)
    /// resumes from.
    pub fn upload_offset(&self, location: &str) -> Result<usize> {
        committed_bytes(&self.expect("GET", location, None, &[])?)
    }

    /// Push a manifest under `reference` (tag or `sha256:` digest);
    /// its config and layer blobs must already be uploaded. Transient
    /// failures are retried under the client's policy.
    pub fn put_manifest(&self, name: &str, reference: &str, manifest: &[u8]) -> Result<String> {
        let response = self.retry.run(RegistryError::transient, |_| {
            self.expect(
                "PUT",
                &format!("/v2/{name}/manifests/{reference}"),
                Some(MEDIA_MANIFEST),
                manifest,
            )
        })?;
        Ok(response
            .get_header("Docker-Content-Digest")
            .unwrap_or_default()
            .trim_start_matches("sha256:")
            .to_string())
    }

    /// Push an on-disk OCI layout (a `zr export` output) to the
    /// endpoint under `name:tag`: config and layer blobs first (each
    /// verified once by `zr_store::read_layout_blob` and pushed under
    /// the manifest's digest; the server verifies again on receipt),
    /// the manifest last, so the reference only appears once
    /// everything it needs is present.
    pub fn push_layout(&self, dir: impl AsRef<Path>, name: &str, tag: &str) -> Result<OciSummary> {
        let dir = dir.as_ref();
        let summary = zr_store::inspect(dir)?;
        for digest in summary.layer_digests.iter().chain([&summary.config_digest]) {
            let data = zr_store::read_layout_blob(dir, digest)?;
            self.retry.run(RegistryError::transient, |_| {
                self.push_blob_once(name, &data, digest)
            })?;
        }
        let manifest = zr_store::read_layout_blob(dir, &summary.manifest_digest)?;
        self.put_manifest(name, tag, &manifest)?;
        Ok(summary)
    }

    /// Pull `name:tag` into an on-disk OCI layout at `dir` — the wire
    /// mirror of `zr export`. A zeroroot-pushed image round-trips to a
    /// byte-identical layout.
    pub fn pull_layout(&self, name: &str, tag: &str, dir: impl AsRef<Path>) -> Result<OciSummary> {
        let (manifest, _) = self.manifest(name, tag)?;
        let ref_name = format!("{name}:{tag}");
        zr_store::write_layout(dir, &ref_name, &manifest, &mut |digest| {
            self.blob(name, digest).map_err(wire_to_store)
        })
        .map_err(RegistryError::Store)
    }

    /// Pull `name:tag` straight into an in-memory [`Image`] (the
    /// backend path `FROM` uses): manifest, config, and layers fetched
    /// and verified, layers stacked with whiteout handling.
    pub fn pull_image(&self, name: &str, tag: &str) -> Result<Image> {
        let (manifest, _) = self.manifest(name, tag)?;
        let ref_name = format!("{name}:{tag}");
        zr_store::assemble(&ref_name, &manifest, &mut |digest| {
            self.blob(name, digest).map_err(wire_to_store)
        })
        .map_err(RegistryError::Store)
    }
}

fn wire_to_store(e: RegistryError) -> StoreError {
    match e {
        RegistryError::Store(e) => e,
        other => StoreError::corrupt(format!("wire: {other}")),
    }
}

/// A [`RegistryBackend`] that resolves `FROM` references against a
/// live distribution endpoint. Everything above it — the pull-through
/// blob cache, per-reference fetch locks — is the existing
/// `ShardedRegistry` machinery; only the miss path changes from the
/// built-in catalog to HTTP.
#[derive(Debug, Clone)]
pub struct WireBackend {
    remote: RemoteRegistry,
}

impl WireBackend {
    /// A backend fetching from the endpoint at `addr`.
    pub fn new(addr: impl Into<String>) -> WireBackend {
        WireBackend {
            remote: RemoteRegistry::new(addr),
        }
    }

    /// A backend over a pre-configured client (custom retry policy or
    /// wire deadline — the CLI's `--retry`/`--timeout` knobs).
    pub fn with_client(remote: RemoteRegistry) -> WireBackend {
        WireBackend { remote }
    }
}

impl RegistryBackend for WireBackend {
    fn fetch(&self, reference: &ImageRef) -> std::result::Result<Image, Errno> {
        self.remote
            .pull_image(&reference.name, &reference.tag)
            .map_err(|e| match e.status() {
                Some(404) => Errno::ENOENT,
                _ => Errno::EIO,
            })
    }
}
