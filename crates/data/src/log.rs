//! Append-only record log with torn-tail recovery: the on-disk framing
//! shared by the durable chunk segments and the metadata journal.
//!
//! Every record travels as `[u32 len LE][u64 checksum LE][payload]`,
//! where the checksum is FNV-1a 64 over the payload bytes. A crash —
//! including `kill -9` mid-`write` — can leave at most a *torn tail*:
//! a prefix of a record at the end of the file. [`RecordLog::open`]
//! scans the file front to back, stops at the first record that is
//! short, oversized or checksum-corrupt, and truncates the file back to
//! the last good byte. Truncation matters: appending after an
//! untruncated torn tail would strand every later record behind
//! unparseable bytes, silently losing them on the *next* replay.
//!
//! The file is created lazily on first append, so opening a log that is
//! never written leaves no artifact on disk — a server process that
//! hosts only manager roles never materializes provider segment files.
//!
//! Policy split, matching the recovery model:
//! - **Replay never panics.** Any corruption maps to "discard the
//!   tail"; callers decide what a lost suffix means.
//! - **Live appends are fail-stop.** An I/O error while the process is
//!   the active writer means the durability contract can no longer be
//!   honored, so append/sync return the error and callers escalate.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Framing overhead per record: u32 length + u64 checksum.
pub const RECORD_HEADER: u64 = 12;

/// Upper bound on a single record's payload. Anything larger in a
/// length header is treated as corruption, which stops a flipped
/// high bit from triggering a multi-gigabyte allocation during replay.
pub const MAX_RECORD: u32 = 256 << 20;

/// FNV-1a 64-bit over `data` — the record checksum. Not cryptographic;
/// it exists to catch torn writes and bit rot, not adversaries.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One recovered record: its byte offset in the file (header included)
/// and its payload.
pub type Recovered = (u64, Vec<u8>);

/// An append-only checksummed record file.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    /// Open lazily: `None` until the first append (or if the file
    /// already existed at open).
    file: Option<File>,
    /// Byte length of the durable prefix (file size after truncation).
    len: u64,
    /// Whether bytes were appended since the last sync or claim.
    dirty: bool,
}

impl RecordLog {
    /// Open (or prepare to create) the log at `path`, replaying every
    /// intact record. Returns the records in append order, the log
    /// positioned for appends, and whether a torn/corrupt tail was
    /// discarded.
    pub fn open(path: &Path) -> io::Result<(Vec<Recovered>, RecordLog, bool)> {
        let mut records = Vec::new();
        let mut torn = false;
        let mut good_end = 0u64;
        let file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                let mut pos = 0usize;
                loop {
                    let rest = &buf[pos..];
                    if rest.is_empty() {
                        break;
                    }
                    if rest.len() < RECORD_HEADER as usize {
                        torn = true;
                        break;
                    }
                    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
                    let sum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
                    let body_end = RECORD_HEADER as usize + len as usize;
                    if len > MAX_RECORD || rest.len() < body_end {
                        torn = true;
                        break;
                    }
                    let payload = &rest[RECORD_HEADER as usize..body_end];
                    if fnv64(payload) != sum {
                        torn = true;
                        break;
                    }
                    records.push((pos as u64, payload.to_vec()));
                    pos += body_end;
                    good_end = pos as u64;
                }
                if torn {
                    // Chop the tail so future appends extend a clean
                    // prefix instead of burying themselves behind it.
                    f.set_len(good_end)?;
                    f.sync_data()?;
                }
                f.seek(SeekFrom::Start(good_end))?;
                Some(f)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let log = RecordLog {
            path: path.to_path_buf(),
            file,
            len: good_end,
            dirty: false,
        };
        Ok((records, log, torn))
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durable byte length (framing included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended (and nothing was recovered).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Framed size of a payload of `n` bytes.
    pub fn framed_len(n: usize) -> u64 {
        RECORD_HEADER + n as u64
    }

    fn ensure_file(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            if let Some(parent) = self.path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().unwrap())
    }

    /// Append one record, returning the offset its frame starts at.
    /// The record is written with a single `write_all`, so the kernel
    /// sees header and payload together; durability still requires a
    /// sync ([`RecordLog::sync_handle`] or [`RecordLog::sync_force`]).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(
            payload.len() as u64 <= MAX_RECORD as u64,
            "record exceeds MAX_RECORD"
        );
        let off = self.len;
        let mut frame = Vec::with_capacity(RECORD_HEADER as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let file = self.ensure_file()?;
        file.write_all(&frame)?;
        self.len = off + frame.len() as u64;
        self.dirty = true;
        Ok(off)
    }

    /// Read back `len` payload bytes of the record whose frame starts at
    /// `off`, verifying the checksum. Returns `None` (never panics, never
    /// returns corrupt bytes) if the stored record fails verification —
    /// the caller treats that as data loss on this replica.
    pub fn read_record(&self, off: u64, len: u32) -> io::Result<Option<Vec<u8>>> {
        let Some(file) = self.file.as_ref() else {
            return Ok(None);
        };
        if off + Self::framed_len(len as usize) > self.len {
            return Ok(None);
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        if file.read_exact_at(&mut header, off).is_err() {
            return Ok(None);
        }
        let stored_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        if stored_len != len {
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        if file
            .read_exact_at(&mut payload, off + RECORD_HEADER)
            .is_err()
        {
            return Ok(None);
        }
        if fnv64(&payload) != sum {
            return Ok(None);
        }
        Ok(Some(payload))
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

    #[test]
    fn roundtrip_and_reopen() {
        let path = scratch("roundtrip");
        let (recs, mut log, torn) = RecordLog::open(&path).unwrap();
        assert!(recs.is_empty() && !torn);
        let o1 = log.append(b"alpha").unwrap();
        let o2 = log.append(b"beta-bytes").unwrap();
        log.sync_force().unwrap();
        assert_eq!(log.read_record(o1, 5).unwrap().unwrap(), b"alpha");
        drop(log);
        let (recs, log, torn) = RecordLog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (o1, b"alpha".to_vec()));
        assert_eq!(recs[1], (o2, b"beta-bytes".to_vec()));
        assert_eq!(log.read_record(o2, 10).unwrap().unwrap(), b"beta-bytes");
    }

    #[test]
    fn unwritten_log_leaves_no_file() {
        let path = scratch("lazy");
        let (_, log, _) = RecordLog::open(&path).unwrap();
        drop(log);
        assert!(!path.exists());
    }

    #[test]
    fn torn_tail_truncated_on_reopen() {
        let path = scratch("torn");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        log.append(b"keep-me").unwrap();
        log.append(b"lose-me").unwrap();
        log.sync_force().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        drop(log);
        // Tear the second record three bytes short of complete.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let (recs, mut log, torn) = RecordLog::open(&path).unwrap();
        assert!(torn);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, b"keep-me");
        // Appends extend the clean prefix.
        log.append(b"after").unwrap();
        log.sync_force().unwrap();
        drop(log);
        let (recs, _, torn) = RecordLog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].1, b"after");
    }

    #[test]
    fn corrupt_payload_rejected_on_read_and_replay() {
        let path = scratch("corrupt");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        let off = log.append(b"pristine").unwrap();
        log.sync_force().unwrap();
        drop(log);
        // Flip a payload byte in place.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(b"X", RECORD_HEADER + 2).unwrap();
        drop(f);
        let (recs, log, torn) = RecordLog::open(&path).unwrap();
        assert!(torn, "checksum mismatch discards the record");
        assert!(recs.is_empty());
        assert_eq!(log.read_record(off, 8).unwrap(), None);
    }

    #[test]
    fn absurd_length_header_is_corruption_not_alloc() {
        let path = scratch("hugelen");
        std::fs::write(&path, (u32::MAX).to_le_bytes()).unwrap();
        let (recs, _, torn) = RecordLog::open(&path).unwrap();
        assert!(torn);
        assert!(recs.is_empty());
    }
}
