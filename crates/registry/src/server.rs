//! The serving half: OCI distribution routes over a [`Cas`].
//!
//! ```text
//! GET      /v2/                                  api version check
//! GET/HEAD /v2/<name>/manifests/<ref>            ref = tag | sha256:<hex>
//! PUT      /v2/<name>/manifests/<ref>            push a manifest, pin the tag
//! GET/HEAD /v2/<name>/blobs/sha256:<hex>         fetch a verified blob
//! POST     /v2/<name>/blobs/uploads/?digest=…    monolithic upload
//! POST     /v2/<name>/blobs/uploads/             open an upload session
//! PATCH    /v2/<name>/blobs/uploads/<id>         append a chunk
//! GET      /v2/<name>/blobs/uploads/<id>         progress probe (resume)
//! PUT      /v2/<name>/blobs/uploads/<id>?digest=…  finalize (verify + store)
//! ```
//!
//! Tags are stored as CAS root pins (`reg-<hash of name:tag>`) whose
//! digest list leads with the manifest: resolving a tag is one pin
//! lookup, the pin keeps every referenced blob safe from `gc`, and a
//! re-push replaces the tag atomically. Every transfer is digest
//! verified — uploads before a byte is admitted, downloads by the CAS
//! read path itself.
//!
//! Every write goes through one [`zr_store::CasBatch`] commit: an
//! upload body moves into the batch as a shared [`Blob`] (hashed once
//! for both the digest check and the store, never copied), and a
//! manifest lands together with its tag pin.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use zr_digest::{hex, Sha256};
use zr_store::cas::valid_digest;
use zr_store::{Blob, Cas};

use crate::error::{RegistryError, Result};
use crate::http::{
    read_request, write_response, write_response_truncated, Request, Response, MAX_BODY,
};

pub(crate) const MEDIA_MANIFEST: &str = "application/vnd.oci.image.manifest.v1+json";
const MEDIA_OCTETS: &str = "application/octet-stream";

/// Per-connection socket deadline: a peer that stops making progress
/// (a half-open connection, a stalled uploader) is dropped instead of
/// pinning its handler thread forever. Generous — client deadlines are
/// the tight ones.
const SERVER_TIMEOUT: Duration = Duration::from_secs(30);

/// One in-flight (PATCH-session) upload.
struct Upload {
    data: Vec<u8>,
}

struct State {
    cas: Cas,
    uploads: Mutex<HashMap<u64, Upload>>,
    next_upload: AtomicU64,
    /// Per-reference write locks: concurrent pushes of one `name:tag`
    /// serialize, so a reader never observes a half-replaced tag.
    tag_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    shutdown: AtomicBool,
}

/// A live registry endpoint: a listener, its acceptor thread, and the
/// [`Cas`] it serves. Shuts down on [`shutdown`](Self::shutdown) or
/// drop.
pub struct RegistryServer {
    addr: SocketAddr,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
}

/// Serve the OCI distribution API for `cas` on `addr` (use port 0 to
/// let the OS pick; the bound address is [`RegistryServer::addr`]).
pub fn serve(cas: Cas, addr: &str) -> Result<RegistryServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(State {
        cas,
        uploads: Mutex::new(HashMap::new()),
        next_upload: AtomicU64::new(1),
        tag_locks: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
    });
    let accept_state = Arc::clone(&state);
    let acceptor = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&accept_state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
    });
    Ok(RegistryServer {
        addr,
        state,
        acceptor: Some(acceptor),
    })
}

impl RegistryServer {
    /// The bound address (`127.0.0.1:<port>` for loopback serves).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the acceptor thread.
    /// Already-accepted connections finish their in-flight exchange.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking `accept` with a self-connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for RegistryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

fn handle_connection(state: &State, stream: TcpStream) {
    // Fault plane: `wire.server.reset` drops the connection before a
    // byte is read — the peer sees a reset/EOF where an answer should
    // have been.
    if zr_fault::fires(zr_fault::points::WIRE_SERVER_RESET) {
        return;
    }
    let _ = stream.set_read_timeout(Some(SERVER_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SERVER_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // peer closed cleanly
            Err(e) => {
                // A malformed request gets its diagnosis, then the
                // connection drops: framing is no longer trustworthy.
                let status = e.status().unwrap_or(400);
                let response = Response::error(status, &e.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
        };
        // `wire.server.stall`: sit on the answer (arg = milliseconds,
        // default 100) — long enough to trip a client read deadline
        // when the plan's arg exceeds it.
        if let Some(ms) = zr_fault::hit(zr_fault::points::WIRE_SERVER_STALL) {
            std::thread::sleep(Duration::from_millis(if ms == 0 { 100 } else { ms }));
        }
        let head = request.method == "HEAD";
        let close = request.wants_close();
        // `wire.server.http500`: answer 500 instead of dispatching.
        let response = if zr_fault::fires(zr_fault::points::WIRE_SERVER_HTTP500) {
            Response::error(500, "injected internal error")
        } else {
            dispatch(state, request)
        };
        // `wire.server.truncate`: send the full headers but cut the
        // body short (arg = bytes kept, default half) and drop the
        // connection — a response dying mid-body.
        if let Some(keep) = zr_fault::hit(zr_fault::points::WIRE_SERVER_TRUNCATE) {
            let keep = if keep == 0 {
                response.body.len() / 2
            } else {
                (keep as usize).min(response.body.len())
            };
            let _ = write_response_truncated(&mut writer, &response, keep);
            return;
        }
        if write_response(&mut writer, &response, !head).is_err() {
            return;
        }
        if close || state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// One path component of a repository name (or a tag): the same
/// conservative alphabet the CAS accepts for root names, so a crafted
/// request cannot traverse out of any namespace.
fn valid_component(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && !s.starts_with('.')
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// A wire digest `sha256:<64 hex>` → bare hex.
fn bare_digest(digest: &str) -> Option<&str> {
    digest.strip_prefix("sha256:").filter(|h| valid_digest(h))
}

/// The CAS root name a tag pin lives under. Hashed, so arbitrary-depth
/// repository names fit the CAS's flat, length-limited namespace.
pub(crate) fn tag_pin(name: &str, tag: &str) -> String {
    format!(
        "reg-{}",
        hex(&Sha256::digest(format!("{name}\n{tag}").as_bytes()))
    )
}

/// The parsed interesting part of a `/v2/...` path.
enum Route<'a> {
    Root,
    Manifest { name: String, reference: &'a str },
    // The name is validated during parsing but blobs are one shared
    // content-addressed namespace, so it plays no further part.
    Blob { digest: &'a str },
    UploadStart { name: String },
    Upload { name: String, id: u64 },
}

fn parse_route(path: &str) -> Option<Route<'_>> {
    let rest = path.strip_prefix("/v2")?;
    if rest.is_empty() || rest == "/" {
        return Some(Route::Root);
    }
    let segments: Vec<&str> = rest.strip_prefix('/')?.split('/').collect();
    let name_of = |parts: &[&str]| -> Option<String> {
        if parts.is_empty() || !parts.iter().all(|c| valid_component(c)) {
            return None;
        }
        let name = parts.join("/");
        (name.len() <= 200).then_some(name)
    };
    // …/blobs/uploads/ and …/blobs/uploads/<id> before …/blobs/<digest>:
    // "uploads" is a reserved word in the blob namespace.
    if let [head @ .., kind, upload, arg] = segments.as_slice() {
        if *kind == "blobs" && *upload == "uploads" {
            if arg.is_empty() {
                return Some(Route::UploadStart {
                    name: name_of(head)?,
                });
            }
            return Some(Route::Upload {
                name: name_of(head)?,
                id: arg.parse().ok()?,
            });
        }
    }
    if let [head @ .., kind, upload] = segments.as_slice() {
        if *kind == "blobs" && *upload == "uploads" {
            return Some(Route::UploadStart {
                name: name_of(head)?,
            });
        }
    }
    if let [head @ .., kind, arg] = segments.as_slice() {
        match *kind {
            "manifests" => {
                return Some(Route::Manifest {
                    name: name_of(head)?,
                    reference: arg,
                })
            }
            "blobs" => {
                name_of(head)?;
                return Some(Route::Blob { digest: arg });
            }
            _ => {}
        }
    }
    None
}

fn dispatch(state: &State, mut request: Request) -> Response {
    // Handlers that store a body take ownership of it.
    let body = std::mem::take(&mut request.body);
    let Some(route) = parse_route(request.path()) else {
        return Response::error(404, "unknown route");
    };
    let method = request.method.as_str();
    let result = match route {
        Route::Root => match method {
            "GET" | "HEAD" => Ok(Response::with_body(200, "application/json", b"{}".to_vec())),
            _ => Err(method_not_allowed()),
        },
        Route::Manifest { name, reference } => match method {
            "GET" | "HEAD" => get_manifest(state, &name, reference),
            "PUT" => put_manifest(state, &name, reference, body),
            _ => Err(method_not_allowed()),
        },
        Route::Blob { digest } => match method {
            "GET" | "HEAD" => get_blob(state, digest),
            _ => Err(method_not_allowed()),
        },
        Route::UploadStart { name } => match method {
            "POST" => start_upload(state, &name, &request, body),
            _ => Err(method_not_allowed()),
        },
        Route::Upload { name, id } => match method {
            "PATCH" => patch_upload(state, &name, id, &body),
            "PUT" => finish_upload(state, &name, id, &request, body),
            "GET" => upload_status(state, id),
            _ => Err(method_not_allowed()),
        },
    };
    result.unwrap_or_else(|e| match e {
        RegistryError::Status { status, message } => Response::error(status, &message),
        other => Response::error(500, &other.to_string()),
    })
}

fn method_not_allowed() -> RegistryError {
    RegistryError::Status {
        status: 405,
        message: "method not allowed".into(),
    }
}

fn status(code: u16, message: impl Into<String>) -> RegistryError {
    RegistryError::Status {
        status: code,
        message: message.into(),
    }
}

/// Resolve a manifest reference (tag or digest) to its bare hex digest.
fn resolve_manifest(state: &State, name: &str, reference: &str) -> Result<String> {
    if let Some(hex_digest) = bare_digest(reference) {
        return Ok(hex_digest.to_string());
    }
    if !valid_component(reference) {
        return Err(status(400, format!("invalid reference {reference:?}")));
    }
    state
        .cas
        .pinned(&tag_pin(name, reference))
        .and_then(|digests| digests.first().cloned())
        .ok_or_else(|| status(404, format!("manifest unknown: {name}:{reference}")))
}

fn get_manifest(state: &State, name: &str, reference: &str) -> Result<Response> {
    let digest = resolve_manifest(state, name, reference)?;
    let body = state
        .cas
        .get(&digest)
        .map_err(|_| status(404, format!("manifest unknown: sha256:{digest}")))?;
    Ok(Response::with_body(200, MEDIA_MANIFEST, body)
        .header("Docker-Content-Digest", &format!("sha256:{digest}")))
}

fn put_manifest(state: &State, name: &str, reference: &str, body: Vec<u8>) -> Result<Response> {
    let manifest = Blob::new(body);
    let digest = manifest.sha_hex();
    // By-digest push must name the digest it carries.
    if let Some(expected) = bare_digest(reference) {
        if expected != digest {
            return Err(status(400, "manifest digest mismatch"));
        }
    } else if !valid_component(reference) {
        return Err(status(400, format!("invalid reference {reference:?}")));
    }
    let summary = zr_store::parse_manifest(&format!("{name}:{reference}"), manifest.data())
        .map_err(|e| status(400, format!("invalid manifest: {e}")))?;
    let mut pinned = vec![digest.clone(), summary.config_digest.clone()];
    pinned.extend(summary.layer_digests.iter().cloned());
    for blob in &pinned[1..] {
        if !state.cas.contains(blob) {
            return Err(status(
                400,
                format!("manifest references unknown blob sha256:{blob}"),
            ));
        }
    }
    // Serialize same-reference pushes: last writer wins atomically.
    let lock = {
        let mut locks = state
            .tag_locks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(locks.entry(format!("{name}:{reference}")).or_default())
    };
    let _guard = lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut batch = state.cas.batch();
    batch.put_blob(&manifest)?;
    batch.pin_with_deps(&tag_pin(name, reference), &pinned, &[])?;
    batch.commit()?;
    Ok(Response::new(201)
        .header("Location", &format!("/v2/{name}/manifests/sha256:{digest}"))
        .header("Docker-Content-Digest", &format!("sha256:{digest}")))
}

fn get_blob(state: &State, digest: &str) -> Result<Response> {
    let hex_digest =
        bare_digest(digest).ok_or_else(|| status(400, format!("invalid digest {digest:?}")))?;
    let body = state
        .cas
        .get(hex_digest)
        .map_err(|_| status(404, format!("blob unknown: {digest}")))?;
    Ok(Response::with_body(200, MEDIA_OCTETS, body)
        .header("Docker-Content-Digest", &format!("sha256:{hex_digest}")))
}

/// Admit `data` iff it hashes to the digest the client claimed. No
/// pin is staged, so admitting a blob never triggers budget eviction.
fn admit_blob(state: &State, name: &str, claimed: &str, data: Vec<u8>) -> Result<Response> {
    let hex_digest =
        bare_digest(claimed).ok_or_else(|| status(400, format!("invalid digest {claimed:?}")))?;
    let blob = Blob::new(data);
    if blob.sha_hex() != hex_digest {
        return Err(status(
            400,
            format!("upload fails digest verification ({claimed})"),
        ));
    }
    let mut batch = state.cas.batch();
    batch.put_blob(&blob)?;
    batch.commit()?;
    Ok(Response::new(201)
        .header("Location", &format!("/v2/{name}/blobs/sha256:{hex_digest}"))
        .header("Docker-Content-Digest", &format!("sha256:{hex_digest}")))
}

fn start_upload(state: &State, name: &str, request: &Request, body: Vec<u8>) -> Result<Response> {
    if let Some(claimed) = request.query("digest") {
        // Monolithic: one POST carries the whole blob.
        return admit_blob(state, name, claimed, body);
    }
    let id = state.next_upload.fetch_add(1, Ordering::SeqCst);
    state
        .uploads
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(id, Upload { data: body });
    Ok(Response::new(202)
        .header("Location", &format!("/v2/{name}/blobs/uploads/{id}"))
        .header("Docker-Upload-UUID", &id.to_string())
        .header("Range", "0-0"))
}

fn with_upload<T>(state: &State, id: u64, f: impl FnOnce(&mut Upload) -> Result<T>) -> Result<T> {
    let mut uploads = state
        .uploads
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let upload = uploads
        .get_mut(&id)
        .ok_or_else(|| status(404, format!("upload session {id} unknown")))?;
    f(upload)
}

/// The committed-bytes `Range` header (inclusive last byte index),
/// omitted while the session is empty so `0-0` always means exactly
/// one byte — a resuming client can trust `end + 1` as the offset.
fn with_range(response: Response, id: u64, total: usize) -> Response {
    let response = response.header("Docker-Upload-UUID", &id.to_string());
    if total == 0 {
        return response;
    }
    response.header("Range", &format!("0-{}", total - 1))
}

fn patch_upload(state: &State, _name: &str, id: u64, chunk: &[u8]) -> Result<Response> {
    let total = with_upload(state, id, |upload| {
        if upload.data.len() + chunk.len() > MAX_BODY {
            return Err(status(413, "upload exceeds the size limit"));
        }
        upload.data.extend_from_slice(chunk);
        Ok(upload.data.len())
    })?;
    Ok(with_range(Response::new(202), id, total))
}

/// Session progress (`GET`): how much the server has committed, for a
/// client resuming after an interrupted chunk.
fn upload_status(state: &State, id: u64) -> Result<Response> {
    let total = with_upload(state, id, |upload| Ok(upload.data.len()))?;
    Ok(with_range(Response::new(204), id, total))
}

fn finish_upload(
    state: &State,
    name: &str,
    id: u64,
    request: &Request,
    body: Vec<u8>,
) -> Result<Response> {
    let claimed = request
        .query("digest")
        .ok_or_else(|| status(400, "finalize needs ?digest="))?;
    // The session ends here either way: a digest mismatch throws the
    // accumulated bytes away (the client must restart), success admits
    // them to the CAS.
    let mut data = {
        let mut uploads = state
            .uploads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        uploads
            .remove(&id)
            .ok_or_else(|| status(404, format!("upload session {id} unknown")))?
            .data
    };
    data.extend_from_slice(&body);
    admit_blob(state, name, claimed, data)
}
