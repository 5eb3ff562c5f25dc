//! Append-only record log with torn-tail recovery: the on-disk framing
//! shared by the durable chunk segments, the refcount logs and the
//! metadata journal.
//!
//! ## Format
//!
//! A v1 file starts with [`FILE_HEADER`]: the magic `BFFRLOG` and the
//! format version byte `1`. Records follow, each framed as
//! `[u32 len LE][u64 checksum LE][payload]`, where the checksum is
//! [`checksum`]: XXH64 (seed 0, [`crate::digest::Hasher`]) over the
//! payload. It catches torn writes and bit rot, not adversaries.
//!
//! A v0 file has no header and the same frame, checksummed with
//! [`fnv64`] (byte-serial FNV-1a, 12–14× slower per byte). The magic's
//! first four bytes, read as a v0 length, exceed [`MAX_RECORD`], so no
//! v0 file reads as v1. [`RecordLog::open`] upgrades a v0 file once: it
//! writes the intact records as a v1 file beside it, fsyncs that, renames
//! it over the original and fsyncs the directory. A crash before the
//! rename leaves the v0 original intact (and the next open upgrades it
//! again), so a v0 file is never appended to and `fnv64` is read only by
//! that upgrade.
//!
//! ## Recovery
//!
//! A crash — including `kill -9` mid-`write` — can leave at most a *torn
//! tail*: a prefix of a record at the end of the file. `open` scans the
//! file front to back, hands each intact record to the caller's visitor
//! as a view into the file's bytes (no per-record copy), stops at the
//! first record that is short, oversized or checksum-corrupt, and
//! truncates the file back to the last good byte. Truncation matters:
//! appending after an untruncated torn tail would strand every later
//! record behind unparseable bytes, silently losing them on the *next*
//! replay. A file cut inside its header holds no record: it opens as an
//! empty v1 log.
//!
//! ## Appending
//!
//! An append is split in two. [`Sealed::new`] frames and checksums a
//! payload — the pass over its bytes — and needs no access to the log,
//! so callers seal before they take whatever lock serializes their
//! appends. [`RecordLog::append`] then hands the frame header and the
//! payload (and, for a log's first record, the file header) to one
//! `write_vectored`, with no copy into a frame buffer; durability still
//! requires a sync ([`RecordLog::sync_handle`] or
//! [`RecordLog::sync_force`]).
//!
//! The file is created lazily on first append, so opening a log that is
//! never written leaves no artifact on disk — a server process that
//! hosts only manager roles never materializes provider segment files.
//! A file's directory entry is durable only once its directory is
//! fsynced, so creating a log file fsyncs its directory, and so does
//! every rename ([`RecordLog::rewrite`] and the upgrade). Without that a
//! power loss could drop a whole new segment, acked records included.
//!
//! Policy split, matching the recovery model:
//! - **Replay never panics.** Any corruption maps to "discard the
//!   tail"; callers decide what a lost suffix means. The one refusal is
//!   a header naming a version this code does not know: that file is not
//!   truncated, `open` returns `InvalidData`.
//! - **Live appends are fail-stop.** An I/O error while the process is
//!   the active writer means the durability contract can no longer be
//!   honored, so append/sync return the error and callers escalate.

use crate::digest::Digest;
use bytes::Bytes;
use std::ffi::OsString;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Framing overhead per record: u32 length + u64 checksum.
pub const RECORD_HEADER: u64 = 12;

/// Upper bound on a single record's payload. Anything larger in a
/// length header is treated as corruption, which stops a flipped
/// high bit from triggering a multi-gigabyte allocation during replay.
pub const MAX_RECORD: u32 = 256 << 20;

/// The first bytes of every v1 file: the magic `BFFRLOG`, then the
/// format version.
pub const FILE_HEADER: [u8; 8] = *b"BFFRLOG\x01";

/// The magic alone, without the version byte.
const MAGIC: &[u8] = FILE_HEADER.split_at(7).0;

// A v0 file's first four bytes are a record length of at most
// MAX_RECORD; the magic's are not, so the formats cannot be confused.
const _: () = assert!(
    u32::from_le_bytes([
        FILE_HEADER[0],
        FILE_HEADER[1],
        FILE_HEADER[2],
        FILE_HEADER[3]
    ]) > MAX_RECORD
);

/// The v1 record checksum: XXH64 (seed 0) over the payload.
pub fn checksum(payload: &[u8]) -> u64 {
    Digest::of(payload).0
}

/// The v0 record checksum: FNV-1a 64 over the payload. Only the upgrade
/// reader of [`RecordLog::open`] verifies with it; no v0 record is
/// written any more.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The frame header of a v1 record holding `payload`.
fn frame_head(payload: &[u8]) -> [u8; RECORD_HEADER as usize] {
    assert!(
        payload.len() as u64 <= MAX_RECORD as u64,
        "record exceeds MAX_RECORD"
    );
    let mut head = [0u8; RECORD_HEADER as usize];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&checksum(payload).to_le_bytes());
    head
}

/// A record ready for [`RecordLog::append`]: its payload and its v1
/// frame header, checksum included.
#[derive(Debug, Clone)]
pub struct Sealed {
    head: [u8; RECORD_HEADER as usize],
    payload: Vec<u8>,
}

impl Sealed {
    /// Frame and checksum `payload`. Panics past [`MAX_RECORD`].
    pub fn new(payload: Vec<u8>) -> Self {
        Sealed {
            head: frame_head(&payload),
            payload,
        }
    }

    /// The record's payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

/// How a file's bytes are laid out (see the module docs).
enum Format {
    /// No record: empty, or a v1 file cut inside its header.
    Headerless,
    V0,
    V1,
}

impl Format {
    fn of(buf: &[u8]) -> io::Result<Format> {
        if buf.len() < FILE_HEADER.len() && FILE_HEADER.starts_with(buf) {
            Ok(Format::Headerless)
        } else if buf.starts_with(&FILE_HEADER) {
            Ok(Format::V1)
        } else if buf.starts_with(MAGIC) {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record log version {} is unknown", buf[MAGIC.len()]),
            ))
        } else {
            Ok(Format::V0)
        }
    }
}

/// Walk the intact records of `buf` from `pos`, each verified with
/// `sum`, passing each one's frame offset and payload range to `each`.
/// Returns the end of the last intact record.
fn scan(
    buf: &[u8],
    mut pos: usize,
    sum: fn(&[u8]) -> u64,
    mut each: impl FnMut(usize, Range<usize>),
) -> usize {
    const HEAD: usize = RECORD_HEADER as usize;
    loop {
        let rest = &buf[pos..];
        if rest.len() < HEAD {
            return pos;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let stored = u64::from_le_bytes(rest[4..HEAD].try_into().expect("8 bytes"));
        if len > MAX_RECORD || rest.len() < HEAD + len as usize {
            return pos;
        }
        let body = pos + HEAD..pos + HEAD + len as usize;
        if sum(&buf[body.clone()]) != stored {
            return pos;
        }
        pos = body.end;
        each(body.start - HEAD, body);
    }
}

/// The directory `path` lives in (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsync the directory holding `path`, making its entries — a file just
/// created or renamed there — survive a power loss.
fn sync_parent(path: &Path) -> io::Result<()> {
    File::open(parent_dir(path))?.sync_all()
}

/// Create `dir` and any missing ancestors, each made durable in its
/// parent.
fn create_dir_durable(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        return Ok(());
    }
    let parent = parent_dir(dir);
    if parent != dir {
        create_dir_durable(parent)?;
    }
    match std::fs::create_dir(dir) {
        Err(e) if e.kind() != io::ErrorKind::AlreadyExists => return Err(e),
        _ => {}
    }
    sync_parent(dir)
}

/// The temp file a rewrite or an upgrade of the log at `path` fills
/// before renaming it over `path`: `path` with `.tmp` appended.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut tmp: OsString = path.as_os_str().into();
    tmp.push(".tmp");
    tmp.into()
}

/// Replace `path` with a file holding `bytes`: write them to a temp file
/// beside it, fsync it, rename it over `path`, fsync the directory. A
/// crash before the rename leaves the old file untouched. Returns the
/// new file, positioned at its end.
fn replace(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let tmp = temp_path(path);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    sync_parent(path)?;
    Ok(file)
}

/// `file.write_vectored` until every byte of `bufs` is written.
fn write_all_vectored(file: &mut File, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match file.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// An append-only checksummed record file.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    /// Open lazily: `None` until the first append (or if the file
    /// already existed at open).
    file: Option<File>,
    /// Byte length of the durable prefix (file size after truncation);
    /// 0 until the file header is written with the first record.
    len: u64,
    /// Whether bytes were appended since the last sync or claim.
    dirty: bool,
}

impl RecordLog {
    /// Open (or prepare to create) the log at `path`, upgrading a v0 file
    /// to v1 first. Calls `visit` with each intact record's frame offset
    /// and payload, in append order; the payload is a view into the
    /// file's bytes, so a caller that keeps a slice of it keeps the whole
    /// buffer alive. Returns the log positioned for appends and whether a
    /// torn or corrupt tail was discarded.
    pub fn open(path: &Path, mut visit: impl FnMut(u64, &Bytes)) -> io::Result<(RecordLog, bool)> {
        let mut log = RecordLog {
            path: path.to_path_buf(),
            file: None,
            len: 0,
            dirty: false,
        };
        let mut file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((log, false)),
            Err(e) => return Err(e),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut on_disk = buf.len();
        let mut torn = false;
        match Format::of(&buf)? {
            Format::Headerless => buf.clear(),
            Format::V1 => {}
            Format::V0 => {
                let mut v1 = FILE_HEADER.to_vec();
                let end = scan(&buf, 0, fnv64, |_, body| {
                    let payload = &buf[body];
                    v1.extend_from_slice(&frame_head(payload));
                    v1.extend_from_slice(payload);
                });
                torn = end != buf.len();
                file = replace(path, &v1)?;
                on_disk = v1.len();
                buf = v1;
            }
        }
        let buf = Bytes::from(buf);
        let start = if buf.is_empty() { 0 } else { FILE_HEADER.len() };
        let good_end = scan(&buf, start, checksum, |off, body| {
            visit(off as u64, &buf.slice(body))
        });
        if good_end != on_disk {
            // Chop the tail so future appends extend a clean prefix
            // instead of burying themselves behind it.
            torn = true;
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        log.file = Some(file);
        log.len = good_end as u64;
        Ok((log, torn))
    }

    /// Replace the log at `path` with a v1 file holding exactly
    /// `records`, atomically (temp file, fsync, rename, directory fsync:
    /// a crash leaves either the old log or the new one), and open it
    /// for appends.
    pub fn rewrite<'a>(
        path: &Path,
        records: impl IntoIterator<Item = &'a Sealed>,
    ) -> io::Result<RecordLog> {
        let mut bytes = FILE_HEADER.to_vec();
        for rec in records {
            bytes.extend_from_slice(&rec.head);
            bytes.extend_from_slice(&rec.payload);
        }
        Ok(RecordLog {
            path: path.to_path_buf(),
            file: Some(replace(path, &bytes)?),
            len: bytes.len() as u64,
            dirty: false,
        })
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durable byte length (file header and framing included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file holds nothing yet, not even its header.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Framed size of a payload of `n` bytes.
    pub fn framed_len(n: usize) -> u64 {
        RECORD_HEADER + n as u64
    }

    fn ensure_file(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            create_dir_durable(parent_dir(&self.path))?;
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            sync_parent(&self.path)?;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().unwrap())
    }

    /// Append one sealed record, returning the offset its frame starts
    /// at. One `write_vectored` carries the frame header and the payload
    /// (after the file header, for the first record), so the kernel sees
    /// them together and nothing is copied into a frame buffer.
    pub fn append(&mut self, rec: &Sealed) -> io::Result<u64> {
        let file_header: &[u8] = if self.len == 0 { &FILE_HEADER } else { &[] };
        let off = self.len + file_header.len() as u64;
        let file = self.ensure_file()?;
        write_all_vectored(
            file,
            &mut [
                IoSlice::new(file_header),
                IoSlice::new(&rec.head),
                IoSlice::new(&rec.payload),
            ],
        )?;
        self.len = off + Self::framed_len(rec.payload.len());
        self.dirty = true;
        Ok(off)
    }

    /// Read back `len` payload bytes of the record whose frame starts at
    /// `off` (one `pread` of the whole frame), verifying the checksum.
    /// Returns `None` (never panics, never returns corrupt bytes) if the
    /// stored record fails verification — the caller treats that as data
    /// loss on this replica.
    pub fn read_record(&self, off: u64, len: u32) -> io::Result<Option<Bytes>> {
        let Some(file) = self.file.as_ref() else {
            return Ok(None);
        };
        let framed = Self::framed_len(len as usize);
        if off + framed > self.len {
            return Ok(None);
        }
        let mut frame = vec![0u8; framed as usize];
        if file.read_exact_at(&mut frame, off).is_err() {
            return Ok(None);
        }
        let (head, payload) = frame.split_at(RECORD_HEADER as usize);
        if head[..4] != len.to_le_bytes() || head[4..] != checksum(payload).to_le_bytes() {
            return Ok(None);
        }
        Ok(Some(Bytes::from(frame).slice(RECORD_HEADER as usize..)))
    }

    /// Claim the pending appends for an *out-of-lock* fsync: returns an
    /// independently-owned handle (`try_clone`) to the underlying file
    /// and clears the dirty flag, or `None` when nothing was appended
    /// since the last sync. The caller must `sync_data` the handle
    /// before acking anything appended before this call — this is how a
    /// group-commit leader fsyncs the log while appenders keep the
    /// owning lock busy.
    ///
    /// The dirty flag is cleared *before* the fsync completes, so an
    /// fsync failure after the claim loses it; callers are fail-stop on
    /// live sync errors, matching the module policy.
    pub fn sync_handle(&mut self) -> io::Result<Option<File>> {
        if !self.dirty {
            return Ok(None);
        }
        let f = self
            .file
            .as_ref()
            .expect("dirty log has an open file")
            .try_clone()?;
        self.dirty = false;
        Ok(Some(f))
    }

    /// `fdatasync` unconditionally, even when the dirty flag was claimed
    /// by an in-flight [`RecordLog::sync_handle`] holder. The seal
    /// barriers (segment rotation and compaction) use this so "sealed ⇒
    /// durable" holds regardless of what a concurrent group-commit
    /// leader has claimed but not yet flushed.
    pub fn sync_force(&mut self) -> io::Result<()> {
        if let Some(f) = self.file.as_mut() {
            f.sync_data()?;
        }
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bff-log-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    /// Open `path`, collecting every record.
    fn open(path: &Path) -> (Vec<(u64, Vec<u8>)>, RecordLog, bool) {
        let mut recs = Vec::new();
        let (log, torn) = RecordLog::open(path, |off, p| recs.push((off, p.to_vec()))).unwrap();
        (recs, log, torn)
    }

    fn append(log: &mut RecordLog, payload: &[u8]) -> u64 {
        log.append(&Sealed::new(payload.to_vec())).unwrap()
    }

    /// A v0 file holding `payloads`, as the FNV format wrote it.
    fn v0_file(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(&fnv64(p).to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = scratch("roundtrip");
        let (recs, mut log, torn) = open(&path);
        assert!(recs.is_empty() && !torn);
        let o1 = append(&mut log, b"alpha");
        let o2 = append(&mut log, b"beta-bytes");
        assert_eq!(
            o1,
            FILE_HEADER.len() as u64,
            "the first record follows the header"
        );
        log.sync_force().unwrap();
        assert_eq!(&log.read_record(o1, 5).unwrap().unwrap()[..], b"alpha");
        drop(log);
        let (recs, log, torn) = open(&path);
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (o1, b"alpha".to_vec()));
        assert_eq!(recs[1], (o2, b"beta-bytes".to_vec()));
        assert_eq!(
            &log.read_record(o2, 10).unwrap().unwrap()[..],
            b"beta-bytes"
        );
        assert!(std::fs::read(&path).unwrap().starts_with(&FILE_HEADER));
    }

    #[test]
    fn unwritten_log_leaves_no_file() {
        let path = scratch("lazy");
        let (_, log, _) = open(&path);
        drop(log);
        assert!(!path.exists());
    }

    #[test]
    fn torn_tail_truncated_on_reopen() {
        let path = scratch("torn");
        let (_, mut log, _) = open(&path);
        append(&mut log, b"keep-me");
        append(&mut log, b"lose-me");
        log.sync_force().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        drop(log);
        // Tear the second record three bytes short of complete.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let (recs, mut log, torn) = open(&path);
        assert!(torn);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, b"keep-me");
        // Appends extend the clean prefix.
        append(&mut log, b"after");
        log.sync_force().unwrap();
        drop(log);
        let (recs, _, torn) = open(&path);
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].1, b"after");
    }

    #[test]
    fn corrupt_payload_rejected_on_read_and_replay() {
        let path = scratch("corrupt");
        let (_, mut log, _) = open(&path);
        let off = append(&mut log, b"pristine");
        log.sync_force().unwrap();
        drop(log);
        // Flip a payload byte in place.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(b"X", off + RECORD_HEADER + 2).unwrap();
        drop(f);
        let (recs, log, torn) = open(&path);
        assert!(torn, "checksum mismatch discards the record");
        assert!(recs.is_empty());
        assert_eq!(log.read_record(off, 8).unwrap(), None);
    }

    #[test]
    fn absurd_length_header_is_corruption_not_alloc() {
        let path = scratch("hugelen");
        std::fs::write(&path, (u32::MAX).to_le_bytes()).unwrap();
        let (recs, _, torn) = open(&path);
        assert!(torn);
        assert!(recs.is_empty());
    }

    #[test]
    fn an_unknown_version_is_refused_not_truncated() {
        let path = scratch("v9");
        let mut bytes = FILE_HEADER.to_vec();
        bytes[MAGIC.len()] = 9;
        bytes.extend_from_slice(b"whatever follows");
        std::fs::write(&path, &bytes).unwrap();
        let err = RecordLog::open(&path, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn a_log_opened_from_a_v0_file_appends_v1_records_only() {
        let path = scratch("v0");
        let mut v0 = v0_file(&[b"old-one", b"old-two"]);
        v0.extend_from_slice(&[7, 0]); // a torn tail
        std::fs::write(&path, &v0).unwrap();
        let (recs, mut log, torn) = open(&path);
        assert!(torn, "the torn v0 tail is dropped by the upgrade");
        let payloads: Vec<&[u8]> = recs.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, [&b"old-one"[..], b"old-two"]);
        let off = append(&mut log, b"new");
        drop(log);
        // The whole file is v1 now: header, then XXH64 frames only.
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(&FILE_HEADER));
        let mut v1 = Vec::new();
        let end = scan(&bytes, FILE_HEADER.len(), checksum, |off, body| {
            v1.push((off as u64, bytes[body].to_vec()))
        });
        assert_eq!(end, bytes.len());
        assert_eq!(v1.len(), 3);
        assert_eq!(v1[2], (off, b"new".to_vec()));
        assert_eq!(open(&path).0, v1);
        assert!(
            !temp_path(&path).exists(),
            "the upgrade renamed its temp file"
        );
    }

    #[test]
    fn rewrite_replaces_the_log() {
        let path = scratch("rewrite");
        let (_, mut log, _) = open(&path);
        append(&mut log, b"stale");
        drop(log);
        let fresh = Sealed::new(b"fresh".to_vec());
        let mut log = RecordLog::rewrite(&path, [&fresh]).unwrap();
        let off = append(&mut log, b"next");
        drop(log);
        let (recs, _, torn) = open(&path);
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1, b"fresh");
        assert_eq!(recs[1], (off, b"next".to_vec()));
    }

    #[test]
    fn creating_a_log_creates_its_directories() {
        let path = scratch("mkdir").with_file_name("a/b/test.log");
        let (_, mut log, _) = open(&path);
        append(&mut log, b"deep");
        drop(log);
        assert_eq!(open(&path).0.len(), 1);
    }
}
