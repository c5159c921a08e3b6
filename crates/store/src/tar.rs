//! Deterministic ustar archives over `zr_vfs::Fs` — the layer format
//! inside an OCI image layout.
//!
//! The writer is canonical by construction: entries in sorted pre-order
//! (the `walk_paths` order), timestamps zeroed, numeric owners only,
//! empty uname/gname — the same tree always produces the same bytes,
//! which is what makes exported layer digests reproducible ("It's Not
//! Just Timestamps": the nondeterminism is in the packers, not the
//! content).
//!
//! [`diff_to_tar`] emits an overlayfs-style *diff* layer: entries for
//! added/changed paths plus `.wh.<name>` whiteout markers for
//! deletions; [`apply_tar`] understands both whiteouts and the
//! `.wh..wh..opq` opaque-directory marker, so stacked layers import
//! with deletions honored.

use std::collections::HashMap;
use std::sync::Arc;

use zr_syscalls::mode::{
    major, makedev, minor, S_IFBLK, S_IFCHR, S_IFDIR, S_IFIFO, S_IFLNK, S_IFMT, S_IFREG, S_IFSOCK,
};
use zr_vfs::fs::{FollowMode, Fs};
use zr_vfs::inode::Stat;
use zr_vfs::{join, Access, Blob, FileKind};

use crate::error::{Result, StoreError};
use crate::tree::remove_recursive;

const BLOCK: usize = 512;

/// The PAX extended-header record marking the next entry as a socket.
/// Format per POSIX pax: `"<len> <key>=<value>\n"` where `len` counts
/// the whole record including itself — here exactly 16 bytes.
const PAX_SOCK_RECORD: &[u8] = b"16 ZR.type=sock\n";

/// Packer behavior knobs. The default is the canonical packer the
/// reproducibility claim rests on; the non-default switches model a
/// *naive* packer (mtimes preserved, readdir ordering) so the audit
/// subsystem can force — and then classify — each divergence class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TarOpts {
    /// Preserve inode mtimes in entry headers instead of zeroing them.
    pub preserve_mtimes: bool,
    /// Emit entries in raw `read_dir` order (which honors an injected
    /// readdir shuffle) instead of sorted pre-order.
    pub readdir_order: bool,
}

/// One parsed tar entry, as [`list_entries`] returns it: what
/// [`apply_tar`] applies, and what a layout differ compares field by
/// field (mtime vs owner vs bytes) instead of "blob differs".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TarEntry {
    /// Absolute path inside the image ("/" for the root entry).
    pub path: String,
    /// The ustar typeflag byte (`b'0'` file, `b'5'` dir, ...).
    pub typeflag: u8,
    /// Permission bits (no file type).
    pub mode: u32,
    /// Owner uid as stored in the header.
    pub uid: u32,
    /// Owner gid as stored in the header.
    pub gid: u32,
    /// Modification time (0 in canonical layers).
    pub mtime: u64,
    /// Hard/symlink target ("" otherwise).
    pub linkname: String,
    /// Device number of a char/block device entry (0 otherwise).
    pub dev: u64,
    /// File payload (empty for non-regular entries).
    pub data: Vec<u8>,
    /// A preceding PAX header marked this entry as a socket.
    pub sock: bool,
}

/// Map an image path to its tar member name (`/` → `./`, directories
/// get a trailing slash, no leading slash).
fn tar_name(path: &str, is_dir: bool) -> String {
    if path == "/" {
        return "./".to_string();
    }
    let rel = path.trim_start_matches('/');
    if is_dir {
        format!("{rel}/")
    } else {
        rel.to_string()
    }
}

/// Inverse of [`tar_name`].
fn image_path(name: &str) -> String {
    let trimmed = name
        .trim_start_matches("./")
        .trim_start_matches('/')
        .trim_end_matches('/');
    if trimmed.is_empty() {
        "/".to_string()
    } else {
        format!("/{trimmed}")
    }
}

/// Does any component of this image path carry the reserved whiteout
/// prefix? Such a file would be *read back as a deletion* by every
/// OCI layer applier (ours included), silently corrupting the round
/// trip — the writer refuses it.
fn has_reserved_whiteout_name(path: &str) -> bool {
    path.split('/').any(|comp| comp.starts_with(".wh."))
}

fn octal(buf: &mut [u8], value: u64) -> Result<()> {
    // "%0*o\0": width is buf.len()-1, NUL-terminated.
    let width = buf.len() - 1;
    let text = format!("{value:o}");
    if text.len() > width {
        return Err(StoreError::corrupt(format!(
            "tar: value {value} overflows a {width}-digit octal field \
             (uid/gid above 0o{} or oversized content have no ustar encoding)",
            "7".repeat(width)
        )));
    }
    let pad = width - text.len();
    for b in &mut buf[..pad] {
        *b = b'0';
    }
    buf[pad..width].copy_from_slice(text.as_bytes());
    buf[width] = 0;
    Ok(())
}

fn parse_octal(field: &[u8]) -> Result<u64> {
    let text: String = field
        .iter()
        .take_while(|&&b| b != 0)
        .map(|&b| b as char)
        .collect();
    let text = text.trim();
    if text.is_empty() {
        return Ok(0);
    }
    u64::from_str_radix(text, 8)
        .map_err(|_| StoreError::corrupt(format!("tar: bad octal field {text:?}")))
}

/// Split a member name into (prefix, name) per ustar rules.
fn split_name(full: &str) -> Result<(String, String)> {
    if full.len() <= 100 {
        return Ok((String::new(), full.to_string()));
    }
    // Split at a '/' so that name <= 100 and prefix <= 155.
    for (i, _) in full.match_indices('/') {
        let (prefix, rest) = full.split_at(i);
        let name = &rest[1..];
        if !name.is_empty() && name.len() <= 100 && prefix.len() <= 155 {
            return Ok((prefix.to_string(), name.to_string()));
        }
    }
    Err(StoreError::corrupt(format!(
        "tar: path too long for ustar: {full:?}"
    )))
}

struct RawEntry<'a> {
    name: String,
    typeflag: u8,
    mode: u32,
    uid: u32,
    gid: u32,
    mtime: u64,
    linkname: &'a str,
    dev: Option<(u32, u32)>,
    data: &'a [u8],
}

fn write_entry(out: &mut Vec<u8>, e: RawEntry<'_>) -> Result<()> {
    let mut header = [0u8; BLOCK];
    let (prefix, name) = split_name(&e.name)?;
    if e.linkname.len() > 100 {
        return Err(StoreError::corrupt(format!(
            "tar: link target too long: {:?}",
            e.linkname
        )));
    }
    header[..name.len()].copy_from_slice(name.as_bytes());
    octal(&mut header[100..108], u64::from(e.mode))?;
    octal(&mut header[108..116], u64::from(e.uid))?;
    octal(&mut header[116..124], u64::from(e.gid))?;
    octal(&mut header[124..136], e.data.len() as u64)?;
    octal(&mut header[136..148], e.mtime)?; // zero unless a naive packer
    header[156] = e.typeflag;
    header[157..157 + e.linkname.len()].copy_from_slice(e.linkname.as_bytes());
    header[257..263].copy_from_slice(b"ustar\0");
    header[263..265].copy_from_slice(b"00");
    if let Some((maj, min)) = e.dev {
        octal(&mut header[329..337], u64::from(maj))?;
        octal(&mut header[337..345], u64::from(min))?;
    }
    header[345..345 + prefix.len()].copy_from_slice(prefix.as_bytes());
    // Checksum: the field counts as spaces while summing.
    header[148..156].copy_from_slice(b"        ");
    let sum: u64 = header.iter().map(|&b| u64::from(b)).sum();
    let text = format!("{sum:06o}");
    header[148..154].copy_from_slice(text.as_bytes());
    header[154] = 0;
    header[155] = b' ';

    out.extend_from_slice(&header);
    out.extend_from_slice(e.data);
    let pad = (BLOCK - e.data.len() % BLOCK) % BLOCK;
    out.extend(std::iter::repeat_n(0u8, pad));
    Ok(())
}

/// Serialize one path of `fs` into `out`. `first_path` powers hardlink
/// detection; `None` disables it (diff layers emit full copies).
fn write_path(
    out: &mut Vec<u8>,
    fs: &Fs,
    path: &str,
    st: &Stat,
    first_path: Option<&mut HashMap<u64, String>>,
    opts: TarOpts,
) -> Result<()> {
    let root = Access::root();
    if has_reserved_whiteout_name(path) {
        return Err(StoreError::corrupt(format!(
            "tar: {path}: \".wh.\"-prefixed names are reserved for whiteout \
             markers and would read back as deletions"
        )));
    }
    let perm = st.mode & 0o7777;
    let kind = st.mode & S_IFMT;
    let mtime = if opts.preserve_mtimes { st.mtime } else { 0 };
    if kind != S_IFDIR {
        if let Some(first) = first_path {
            if let Some(earlier) = first.get(&st.ino) {
                return write_entry(
                    out,
                    RawEntry {
                        name: tar_name(path, false),
                        typeflag: b'1',
                        mode: perm,
                        uid: st.uid,
                        gid: st.gid,
                        mtime,
                        linkname: &tar_name(earlier, false),
                        dev: None,
                        data: &[],
                    },
                );
            }
            first.insert(st.ino, path.to_string());
        }
    }
    type EntryShape = (u8, String, Option<(u32, u32)>, Option<Arc<Blob>>);
    let (typeflag, linkname, dev, blob): EntryShape = match kind {
        S_IFDIR => (b'5', String::new(), None, None),
        S_IFREG => {
            let blob = fs
                .read_file_blob(path, &root)
                .map_err(|e| StoreError::corrupt(format!("tar: read {path}: {e}")))?;
            (b'0', String::new(), None, Some(blob))
        }
        S_IFLNK => {
            let target = fs
                .readlink(path, &root)
                .map_err(|e| StoreError::corrupt(format!("tar: readlink {path}: {e}")))?;
            (b'2', target, None, None)
        }
        S_IFCHR => (
            b'3',
            String::new(),
            Some((major(st.rdev), minor(st.rdev))),
            None,
        ),
        S_IFBLK => (
            b'4',
            String::new(),
            Some((major(st.rdev), minor(st.rdev))),
            None,
        ),
        S_IFIFO => (b'6', String::new(), None, None),
        S_IFSOCK => {
            // ustar has no socket type. Emit a PAX extended header
            // (`ZR.type=sock`) ahead of a fifo-typed placeholder that
            // carries the socket's metadata: our reader (and any
            // pax-aware one) restores a socket, legacy readers degrade
            // to a fifo instead of failing the whole import.
            write_entry(
                out,
                RawEntry {
                    name: tar_name(path, false),
                    typeflag: b'x',
                    mode: perm,
                    uid: st.uid,
                    gid: st.gid,
                    mtime,
                    linkname: "",
                    dev: None,
                    data: PAX_SOCK_RECORD,
                },
            )?;
            (b'6', String::new(), None, None)
        }
        other => {
            return Err(StoreError::corrupt(format!(
                "tar: {path}: file type {other:o} has no ustar representation"
            )));
        }
    };
    write_entry(
        out,
        RawEntry {
            name: tar_name(path, kind == S_IFDIR),
            typeflag,
            mode: perm,
            uid: st.uid,
            gid: st.gid,
            mtime,
            linkname: &linkname,
            dev,
            data: blob.as_deref().map(Blob::data).unwrap_or(&[]),
        },
    )
}

/// Serialize a whole tree as one deterministic layer tar.
pub fn tree_to_tar(fs: &Fs) -> Result<Vec<u8>> {
    tree_to_tar_with(fs, TarOpts::default())
}

/// [`tree_to_tar`] with explicit packer behavior — `opts` other than
/// the default produce a *naive* (non-canonical) layer for the audit
/// subsystem's forcing tests.
pub fn tree_to_tar_with(fs: &Fs, opts: TarOpts) -> Result<Vec<u8>> {
    let root = Access::root();
    let mut out = Vec::new();
    let mut first_path: HashMap<u64, String> = HashMap::new();
    let walk = if opts.readdir_order {
        fs.walk_paths_readdir(&root)
    } else {
        fs.walk_paths(&root)
    };
    for (path, st) in walk {
        write_path(&mut out, fs, &path, &st, Some(&mut first_path), opts)?;
    }
    out.extend(std::iter::repeat_n(0u8, 2 * BLOCK));
    Ok(out)
}

/// Does `top` differ from `base` at `path`? (Content identity, not
/// timestamps: mode, ownership, device numbers, symlink target, file
/// bytes.)
fn changed(base: &Fs, top: &Fs, path: &str, b: &Stat, t: &Stat) -> bool {
    if (b.mode, b.uid, b.gid, b.rdev) != (t.mode, t.uid, t.gid, t.rdev) {
        return true;
    }
    let root = Access::root();
    match t.mode & S_IFMT {
        S_IFREG => {
            let old = base.read_file_blob(path, &root);
            let new = top.read_file_blob(path, &root);
            match (old, new) {
                // Pointer-equal blobs (the snapshot case) short-circuit
                // inside Blob's PartialEq; otherwise bytes compare.
                (Ok(old), Ok(new)) => old != new,
                _ => true,
            }
        }
        S_IFLNK => base.readlink(path, &root).ok() != top.readlink(path, &root).ok(),
        _ => false,
    }
}

/// Serialize the difference `top − base` as an overlay diff layer:
/// added and changed paths as entries, deletions as `.wh.` whiteouts.
/// Applying the result on top of `base` with [`apply_tar`] reproduces
/// `top`'s content (hard-link structure is flattened: a diff layer
/// carries full copies).
pub fn diff_to_tar(base: &Fs, top: &Fs) -> Result<Vec<u8>> {
    let root = Access::root();
    let base_paths: HashMap<String, Stat> = base.walk_paths(&root).into_iter().collect();
    let top_walk = top.walk_paths(&root);
    let top_paths: HashMap<String, Stat> = top_walk.iter().map(|(p, s)| (p.clone(), *s)).collect();

    // Deletions become whiteout pseudo-paths so one sorted pass emits
    // everything parents-first, whiteouts before same-name re-adds.
    let mut events: Vec<(String, Option<Stat>)> = Vec::new();
    for (path, st) in &top_walk {
        let emit = match base_paths.get(path) {
            Some(b) => changed(base, top, path, b, st),
            None => true,
        };
        if emit {
            events.push((path.clone(), Some(*st)));
        }
    }
    for path in base_paths.keys() {
        if top_paths.contains_key(path) {
            continue;
        }
        // Only the topmost deleted path in a still-existing directory
        // needs a whiteout; deeper paths vanish with it.
        let (parent, name) = match zr_vfs::split_parent(path) {
            Some(pair) => pair,
            None => continue, // root never vanishes
        };
        let parent_is_dir = top_paths
            .get(&if parent.is_empty() {
                "/".to_string()
            } else {
                parent.clone()
            })
            .map(|st| st.mode & S_IFMT == S_IFDIR)
            .unwrap_or(false);
        if parent_is_dir {
            events.push((join(&parent, &format!(".wh.{name}")), None));
        }
    }
    events.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = Vec::new();
    for (path, st) in &events {
        match st {
            Some(st) => write_path(&mut out, top, path, st, None, TarOpts::default())?,
            None => write_entry(
                &mut out,
                RawEntry {
                    name: tar_name(path, false),
                    typeflag: b'0',
                    mode: 0,
                    uid: 0,
                    gid: 0,
                    mtime: 0,
                    linkname: "",
                    dev: None,
                    data: &[],
                },
            )?,
        }
    }
    out.extend(std::iter::repeat_n(0u8, 2 * BLOCK));
    Ok(out)
}

/// Does this PAX extended-header payload contain `key=value`?
fn pax_has(data: &[u8], key: &str, value: &str) -> bool {
    String::from_utf8_lossy(data).lines().any(|line| {
        line.split_once(' ')
            .and_then(|(_, rec)| rec.split_once('='))
            .map(|(k, v)| k == key && v == value)
            .unwrap_or(false)
    })
}

/// Parse a layer tar into its entries (PAX headers are folded into the
/// entries they qualify, as in [`apply_tar`]).
pub fn list_entries(tar: &[u8]) -> Result<Vec<TarEntry>> {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    let mut pending_sock = false;
    while pos + BLOCK <= tar.len() {
        let header = &tar[pos..pos + BLOCK];
        if header.iter().all(|&b| b == 0) {
            break; // end-of-archive marker
        }
        if &header[257..262] != b"ustar" {
            return Err(StoreError::corrupt(format!(
                "tar: bad magic in header at byte {pos}"
            )));
        }
        // Verify the checksum (field counts as spaces).
        let stated = parse_octal(&header[148..156])?;
        let sum: u64 = header
            .iter()
            .enumerate()
            .map(|(i, &b)| u64::from(if (148..156).contains(&i) { b' ' } else { b }))
            .sum();
        if stated != sum {
            return Err(StoreError::corrupt(format!(
                "tar: checksum mismatch at byte {pos}"
            )));
        }
        let field_str = |range: std::ops::Range<usize>| -> String {
            let bytes: Vec<u8> = header[range]
                .iter()
                .take_while(|&&b| b != 0)
                .copied()
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        };
        let name = field_str(0..100);
        let prefix = field_str(345..500);
        let full = if prefix.is_empty() {
            name
        } else {
            format!("{prefix}/{name}")
        };
        let size = parse_octal(&header[124..136])? as usize;
        let typeflag = header[156];
        let data_start = pos + BLOCK;
        let data_end = data_start + size;
        if data_end > tar.len() {
            return Err(StoreError::corrupt(format!(
                "tar: truncated data for {full:?}"
            )));
        }
        if typeflag == b'x' {
            // PAX extended header: its records qualify the *next*
            // entry and it is not itself a filesystem object.
            pending_sock = pax_has(&tar[data_start..data_end], "ZR.type", "sock");
            pos = data_end + (BLOCK - size % BLOCK) % BLOCK;
            continue;
        }
        entries.push(TarEntry {
            path: image_path(&full),
            typeflag,
            mode: (parse_octal(&header[100..108])? & 0o7777) as u32,
            uid: parse_octal(&header[108..116])? as u32,
            gid: parse_octal(&header[116..124])? as u32,
            mtime: parse_octal(&header[136..148])?,
            linkname: field_str(157..257),
            dev: makedev(
                parse_octal(&header[329..337])? as u32,
                parse_octal(&header[337..345])? as u32,
            ),
            data: tar[data_start..data_end].to_vec(),
            sock: std::mem::take(&mut pending_sock),
        });
        pos = data_end + (BLOCK - size % BLOCK) % BLOCK;
    }
    Ok(entries)
}

/// Apply one layer tar on top of `fs`, honoring whiteouts and opaque
/// markers — the OCI layer application step.
pub fn apply_tar(fs: &mut Fs, tar: &[u8]) -> Result<()> {
    let root = Access::root();
    for mut e in list_entries(tar)? {
        let (parent, name) = zr_vfs::split_parent(&e.path)
            .map(|(p, n)| (if p.is_empty() { "/".into() } else { p }, n.to_string()))
            .unwrap_or_else(|| ("/".to_string(), String::new()));

        // Whiteout family first: they are named, not typed.
        if name == ".wh..wh..opq" {
            for (child, _) in fs.read_dir(&parent, &root).unwrap_or_default() {
                let _ = remove_recursive(fs, &join(&parent, &child));
            }
            continue;
        }
        if let Some(victim) = name.strip_prefix(".wh.") {
            let _ = remove_recursive(fs, &join(&parent, victim));
            continue;
        }

        let apply = |e: &mut TarEntry,
                     fs: &mut Fs|
         -> std::result::Result<(), zr_syscalls::Errno> {
            let existing = fs.stat(&e.path, &root, FollowMode::NoFollow).ok();
            let is_dir_entry = e.typeflag == b'5';
            if let Some(st) = existing {
                let was_dir = st.mode & S_IFMT == S_IFDIR;
                // Replacing a dir with a non-dir (or any non-dir with
                // anything) clears the old object first; a dir entry
                // over an existing dir just refreshes metadata.
                if !(was_dir && is_dir_entry) {
                    remove_recursive(fs, &e.path)?;
                }
            }
            let ino = match e.typeflag {
                b'5' => {
                    if e.path == "/" {
                        fs.root()
                    } else {
                        fs.mkdir_p(&e.path, 0o755)?
                    }
                }
                // The payload moves out of the entry — one copy from
                // the tar buffer to the filesystem, not two.
                b'0' | 0 => fs.create_file(&e.path, 0o644, std::mem::take(&mut e.data), &root)?,
                b'1' => {
                    fs.link(&image_path(&e.linkname), &e.path, &root)?;
                    // Metadata lives on the link target; done.
                    return Ok(());
                }
                b'2' => fs.symlink(&e.linkname, &e.path, &root)?,
                b'3' => fs.mknod(&e.path, FileKind::CharDev(e.dev), 0o644, &root)?,
                b'4' => fs.mknod(&e.path, FileKind::BlockDev(e.dev), 0o644, &root)?,
                b'6' => {
                    let kind = if e.sock {
                        FileKind::Socket
                    } else {
                        FileKind::Fifo
                    };
                    fs.mknod(&e.path, kind, 0o644, &root)?
                }
                _ => return Err(zr_syscalls::Errno::EINVAL),
            };
            fs.set_owner(ino, e.uid, e.gid)?;
            fs.set_perm(ino, e.mode)?;
            fs.set_mtime(ino, e.mtime)?;
            Ok(())
        };
        apply(&mut e, fs)
            .map_err(|err| StoreError::corrupt(format!("tar: apply {}: {err}", e.path)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fs {
        let root = Access::root();
        let mut fs = Fs::new();
        fs.mkdir_p("/usr/bin", 0o755).unwrap();
        fs.write_file("/usr/bin/sh", 0o755, b"#!sh".to_vec(), &root)
            .unwrap();
        fs.link("/usr/bin/sh", "/usr/bin/bash", &root).unwrap();
        fs.symlink("sh", "/usr/bin/dash", &root).unwrap();
        fs.mknod("/null", FileKind::CharDev(makedev(1, 3)), 0o666, &root)
            .unwrap();
        fs.mknod("/pipe", FileKind::Fifo, 0o600, &root).unwrap();
        let ino = fs
            .resolve("/usr/bin/sh", &root, FollowMode::Follow)
            .unwrap();
        fs.set_owner(ino, 10, 20).unwrap();
        fs
    }

    #[test]
    fn tree_tar_roundtrips_and_is_deterministic() {
        let fs = sample();
        let tar = tree_to_tar(&fs).unwrap();
        assert_eq!(tar, tree_to_tar(&fs).unwrap(), "canonical bytes");
        assert_eq!(tar.len() % BLOCK, 0);
        let mut rebuilt = Fs::new();
        apply_tar(&mut rebuilt, &tar).unwrap();
        assert_eq!(rebuilt.tree_digest(), fs.tree_digest());
        let root = Access::root();
        let a = rebuilt
            .stat("/usr/bin/sh", &root, FollowMode::Follow)
            .unwrap();
        let b = rebuilt
            .stat("/usr/bin/bash", &root, FollowMode::Follow)
            .unwrap();
        assert_eq!(a.ino, b.ino, "hard links survive the tar");
        assert_eq!((a.uid, a.gid), (10, 20));
        let dev = rebuilt.stat("/null", &root, FollowMode::Follow).unwrap();
        assert_eq!((major(dev.rdev), minor(dev.rdev)), (1, 3));
    }

    #[test]
    fn naive_packer_changes_bytes_but_not_content() {
        let fs = sample();
        let canonical = tree_to_tar(&fs).unwrap();
        let raw = tree_to_tar_with(
            &fs,
            TarOpts {
                preserve_mtimes: true,
                readdir_order: false,
            },
        )
        .unwrap();
        assert_ne!(canonical, raw, "preserved mtimes change the bytes");
        assert!(
            list_entries(&raw).unwrap().iter().any(|e| e.mtime > 0),
            "raw layer carries real mtimes"
        );
        assert!(
            list_entries(&canonical)
                .unwrap()
                .iter()
                .all(|e| e.mtime == 0),
            "canonical layer zeroes them"
        );
        let mut rebuilt = Fs::new();
        apply_tar(&mut rebuilt, &raw).unwrap();
        assert_eq!(rebuilt.tree_digest(), fs.tree_digest(), "same content");
    }

    #[test]
    fn diff_layers_carry_whiteouts() {
        let root = Access::root();
        let base = sample();
        let mut top = base.clone();
        top.unlink("/usr/bin/dash", &root).unwrap();
        top.write_file("/usr/bin/new", 0o644, b"n".to_vec(), &root)
            .unwrap();
        top.write_file("/usr/bin/sh", 0o755, b"#!changed".to_vec(), &root)
            .unwrap();

        let diff = diff_to_tar(&base, &top).unwrap();
        let names: Vec<String> = list_entries(&diff)
            .unwrap()
            .into_iter()
            .map(|e| e.path)
            .collect();
        assert!(
            names.contains(&"/usr/bin/.wh.dash".to_string()),
            "{names:?}"
        );
        assert!(!names.contains(&"/usr/bin/dash".to_string()));

        let mut merged = base.clone();
        apply_tar(&mut merged, &diff).unwrap();
        assert_eq!(merged.tree_digest(), top.tree_digest());
    }

    #[test]
    fn deleted_subtrees_whiteout_only_the_top() {
        let root = Access::root();
        let mut base = Fs::new();
        base.mkdir_p("/a/b/c", 0o755).unwrap();
        base.write_file("/a/b/c/f", 0o644, b"x".to_vec(), &root)
            .unwrap();
        let mut top = base.clone();
        remove_recursive(&mut top, "/a/b").unwrap();
        let diff = diff_to_tar(&base, &top).unwrap();
        let names: Vec<String> = list_entries(&diff)
            .unwrap()
            .into_iter()
            .map(|e| e.path)
            .collect();
        assert_eq!(names, vec!["/a/.wh.b".to_string()], "one whiteout, topmost");
        let mut merged = base.clone();
        apply_tar(&mut merged, &diff).unwrap();
        assert_eq!(merged.tree_digest(), top.tree_digest());
    }

    #[test]
    fn opaque_marker_clears_a_directory() {
        let root = Access::root();
        let mut fs = Fs::new();
        fs.mkdir_p("/cfg", 0o755).unwrap();
        fs.write_file("/cfg/old", 0o644, b"x".to_vec(), &root)
            .unwrap();
        let mut tar = Vec::new();
        write_entry(
            &mut tar,
            RawEntry {
                name: "cfg/.wh..wh..opq".into(),
                typeflag: b'0',
                mode: 0,
                uid: 0,
                gid: 0,
                mtime: 0,
                linkname: "",
                dev: None,
                data: &[],
            },
        )
        .unwrap();
        write_entry(
            &mut tar,
            RawEntry {
                name: "cfg/new".into(),
                typeflag: b'0',
                mode: 0o644,
                uid: 0,
                gid: 0,
                mtime: 0,
                linkname: "",
                dev: None,
                data: b"y",
            },
        )
        .unwrap();
        tar.extend(std::iter::repeat_n(0u8, 2 * BLOCK));
        apply_tar(&mut fs, &tar).unwrap();
        assert!(fs.stat("/cfg/old", &root, FollowMode::NoFollow).is_err());
        assert_eq!(fs.read_file("/cfg/new", &root).unwrap(), b"y");
    }

    #[test]
    fn long_paths_use_the_prefix_field() {
        let root = Access::root();
        let mut fs = Fs::new();
        let deep = format!("/{}/{}", "a".repeat(90), "b".repeat(90));
        fs.mkdir_p(zr_vfs::split_parent(&deep).unwrap().0.as_str(), 0o755)
            .unwrap();
        fs.write_file(&deep, 0o644, b"deep".to_vec(), &root)
            .unwrap();
        let tar = tree_to_tar(&fs).unwrap();
        let mut rebuilt = Fs::new();
        apply_tar(&mut rebuilt, &tar).unwrap();
        assert_eq!(rebuilt.read_file(&deep, &root).unwrap(), b"deep");
        assert_eq!(rebuilt.tree_digest(), fs.tree_digest());
    }

    #[test]
    fn reserved_whiteout_names_are_rejected_by_the_writer() {
        // A file literally named ".wh.x" would read back as a
        // *deletion* of "x" — the writer must refuse it rather than
        // silently corrupt the round trip.
        let root = Access::root();
        let mut fs = Fs::new();
        fs.mkdir_p("/etc", 0o755).unwrap();
        fs.write_file("/etc/.wh.conf", 0o644, b"x".to_vec(), &root)
            .unwrap();
        assert!(matches!(tree_to_tar(&fs), Err(StoreError::Corrupt(_))));
        let base = Fs::new();
        assert!(matches!(
            diff_to_tar(&base, &fs),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_octal_fields_error_instead_of_panicking() {
        // uid 4294967294 (the common "nobody" overflow id) does not
        // fit ustar's 7-digit octal owner field.
        let root = Access::root();
        let mut fs = Fs::new();
        let ino = fs.create_file("/f", 0o644, b"x".to_vec(), &root).unwrap();
        fs.set_owner(ino, u32::MAX - 1, 0).unwrap();
        match tree_to_tar(&fs) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("octal"), "{msg}")
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn sockets_round_trip_via_pax_records() {
        let root = Access::root();
        let mut fs = Fs::new();
        fs.mknod("/sock", FileKind::Socket, 0o755, &root).unwrap();
        let ino = fs.resolve("/sock", &root, FollowMode::NoFollow).unwrap();
        fs.set_owner(ino, 3, 4).unwrap();
        let tar = tree_to_tar(&fs).unwrap();
        assert_eq!(tar, tree_to_tar(&fs).unwrap(), "canonical bytes");
        let mut rebuilt = Fs::new();
        apply_tar(&mut rebuilt, &tar).unwrap();
        assert_eq!(rebuilt.tree_digest(), fs.tree_digest());
        let st = rebuilt.stat("/sock", &root, FollowMode::NoFollow).unwrap();
        assert_eq!(st.mode & S_IFMT, S_IFSOCK, "socket, not fifo");
        assert_eq!((st.uid, st.gid), (3, 4));
        // The PAX marker must not leak onto genuine fifos.
        let mut plain = Fs::new();
        plain.mknod("/pipe", FileKind::Fifo, 0o600, &root).unwrap();
        let mut rt = Fs::new();
        apply_tar(&mut rt, &tree_to_tar(&plain).unwrap()).unwrap();
        assert_eq!(rt.tree_digest(), plain.tree_digest());
    }
}
