//! Durability: the log-structured chunk store behind disk-backed
//! providers and the mutation journal behind the manager roles.
//!
//! Everything here is built on `bff_data::RecordLog` (checksummed
//! append-only records with torn-tail truncation) and the `bff_wire`
//! codec (the journal reuses [`VmReq`]'s wire form, so the journal
//! format *is* the protocol format).
//!
//! ## Chunk segments ([`SegmentStore`])
//!
//! Chunk data lives in numbered segment files `seg-N.log` under the
//! provider's directory. The active (highest-numbered) segment takes
//! appends; once it passes `segment_bytes` it is sealed and a new one
//! starts. Two record kinds exist in segments:
//!
//! - `Put { id, data }` — replay upserts the per-chunk index;
//! - `Free { id }` — a GC tombstone; replay removes the id.
//!
//! A sealed segment whose live fraction falls below ½ is compacted:
//! its still-live `Put` records are re-appended to the active segment,
//! its tombstones for ids absent from the index are carried forward
//! (they may shadow `Put`s in *other* segments), and the file is
//! deleted. Compaction runs inside the `free` that tipped the segment,
//! under the provider's lock, so it reads only what it moves: the live
//! records are found through the index and read one by one, the
//! tombstones come from the segment's in-memory id list — the file is
//! never re-scanned. A segment is mostly dead by then (a snapshot
//! rotation frees nearly everything it wrote), and re-reading all of it
//! stalled every client of the provider for the time it takes to read
//! and checksum `segment_bytes`.
//!
//! ## Refcount log (`refs.log`)
//!
//! Dedup refcount deltas live in a *separate* log, not in segments:
//! compaction drops whole segment files, and a delta for a chunk whose
//! data lives elsewhere must survive that. The log carries
//! `Retain`/`Release` deltas against an implicit base count of 1 (a
//! put *is* the first reference) and is periodically rewritten as one
//! absolute `Snapshot` record (tmp file + fsync + atomic rename).
//! Lost un-synced `Release` records are a bounded leak, never
//! corruption; `Free` tombstones in the data log keep a rewritten
//! refs.log from resurrecting freed chunks.
//!
//! ## Manager journal ([`Journal`])
//!
//! One `journal.log` per server process records every version-manager
//! mutation (`VmOp`), every metadata-node write (`MetaNodes`), and
//! high-water marks for the two id allocators (`KeyMark`/`ChunkMark`).
//! Marks reserve [`MARK_STRIDE`] ids ahead, so the fsync cost of
//! making an allocation durable is paid once per stride, and a crash
//! can only *skip* ids, never reuse them — reuse would violate the
//! write-once metadata and chunk-id-never-different-data invariants.
//!
//! Two processes must never share a data directory: each one truncates
//! and appends its logs as the exclusive writer.

use crate::api::{BlobConfig, ChunkId, NodeKey, TreeNode};
use bff_data::{FastMap, Payload, RecordLog};
use bff_wire::msg::VmReq;
// The vendored `parking_lot` shim has no Condvar; the coordinator's
// park/wake state uses `std::sync` directly (by-value guard API).
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as SyncMutex};
use std::time::{Duration, Instant};

/// Ids reserved ahead of each durable allocator mark: one fsync buys
/// this many `ReserveKeys`/`Allocate` acks.
pub const MARK_STRIDE: u64 = 65_536;

/// Seal the active segment once it holds this many bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// Rewrite `refs.log` as one absolute snapshot after this many delta
/// records.
const REFS_REWRITE_OPS: u64 = 8_192;

/// Compact a sealed segment when its live fraction drops below this.
const COMPACT_LIVE_FRAC: f64 = 0.5;

// ---------------------------------------------------------------------
// Record types.
// ---------------------------------------------------------------------

bff_wire::wire_enum! {
    /// A record in a chunk segment file.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ChunkRecord: "chunk record" {
        /// Chunk bytes; replay upserts the index.
        0 => Put { id: ChunkId, data: Payload },
        /// GC tombstone; replay removes the id from the index.
        1 => Free { id: ChunkId },
    }
}

bff_wire::wire_enum! {
    /// A record in the refcount log.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RefRecord: "ref record" {
        /// Add `n` references to `id`.
        0 => Retain { id: ChunkId, n: u64 },
        /// Drop `n` references from `id`.
        1 => Release { id: ChunkId, n: u64 },
        /// Absolute counts replacing all earlier records. Only counts ≠ 1
        /// are listed — every indexed chunk has an implicit count of 1.
        2 => Snapshot(counts: Vec<(ChunkId, u64)>),
    }
}

bff_wire::wire_enum! {
    /// A record in the manager journal.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalRecord: "journal record" {
        /// A successful version-manager mutation, in protocol wire form.
        0 => VmOp(op: VmReq),
        /// Metadata nodes written to shard `shard`.
        1 => MetaNodes {
            shard: u32,
            nodes: Vec<(NodeKey, TreeNode)>,
        },
        /// Durable high-water mark of the metadata node-key allocator.
        2 => KeyMark(next: u64),
        /// Durable high-water mark of the chunk-id allocator.
        3 => ChunkMark(next: u64),
    }
}

// ---------------------------------------------------------------------
// Group commit.
// ---------------------------------------------------------------------

/// Durability counters shared by every commit coordinator of one
/// deployment: how many fsync barriers were issued, how many acks they
/// covered, and the worst ticket wait. Lock-free to read — the
/// observability behind the BENCH_9 `acks_per_fsync` gate.
#[derive(Debug, Default)]
pub struct DurabilityStats {
    fsyncs: AtomicU64,
    acks: AtomicU64,
    max_wait_ns: AtomicU64,
}

impl DurabilityStats {
    /// Record one completed fsync barrier (one `sync_data` round, however
    /// many files it covered).
    pub fn note_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one acknowledged operation whose durability barrier took
    /// `waited` from barrier entry to ack.
    pub fn note_ack(&self, waited: Duration) {
        self.acks.fetch_add(1, Ordering::Relaxed);
        self.max_wait_ns
            .fetch_max(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> DurabilityCounters {
        let fsyncs = self.fsyncs.load(Ordering::Relaxed);
        let acks = self.acks.load(Ordering::Relaxed);
        DurabilityCounters {
            fsyncs,
            acks,
            acks_per_fsync: acks as f64 / fsyncs.max(1) as f64,
            max_wait_us: self.max_wait_ns.load(Ordering::Relaxed) / 1_000,
        }
    }
}

/// A [`DurabilityStats`] snapshot (plain values, for metrics surfaces).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DurabilityCounters {
    /// Fsync barriers issued (one per `sync_data` round, not per file).
    pub fsyncs: u64,
    /// Acknowledged operations those barriers covered.
    pub acks: u64,
    /// `acks / fsyncs` — above 1.0 means group commit is amortizing.
    pub acks_per_fsync: f64,
    /// Longest wall-clock wait from barrier entry to ack, microseconds.
    pub max_wait_us: u64,
}

/// How a durable log's commit-ack barrier is crossed: the group-commit
/// window plus the shared counters. One policy per deployment; its
/// `stats` arc is shared by every coordinator built from it.
#[derive(Debug, Clone)]
pub struct CommitPolicy {
    /// Upper bound on a follower's wait for a leader's sync; a lone
    /// writer never waits longer than this before taking over.
    pub flush_interval: Duration,
    /// Deployment-wide durability counters.
    pub stats: Arc<DurabilityStats>,
}

impl CommitPolicy {
    /// The policy a [`BlobConfig`] asks for (its `flush_interval_us`).
    pub fn from_config(cfg: &BlobConfig) -> Self {
        CommitPolicy {
            flush_interval: Duration::from_micros(cfg.flush_interval_us.max(1)),
            stats: Arc::new(DurabilityStats::default()),
        }
    }

    /// A coordinator for one durable log under this policy.
    pub fn coordinator(&self) -> Arc<GroupCommit> {
        Arc::new(GroupCommit::new(
            self.flush_interval,
            Arc::clone(&self.stats),
        ))
    }
}

#[derive(Debug, Default)]
struct GcState {
    /// Tickets issued (monotonic append high-water mark).
    appended: u64,
    /// Highest ticket covered by a *completed* sync.
    synced: u64,
    /// Whether a leader's sync is in flight.
    leader: bool,
}

/// The group-commit coordinator of one durable log (leader/follower
/// fsync batching).
///
/// Appenders take a [`GroupCommit::ticket`] *after* their append is in
/// the log (typically still under the log's lock), release the lock,
/// then park in [`GroupCommit::commit`]. The first committer to find no
/// leader becomes one: it captures the ticket high-water mark, runs the
/// caller's sync closure (which fsyncs every append at-or-before that
/// mark) *outside* the coordinator lock, then wakes the whole cohort.
/// Followers whose ticket the mark covers ack without ever touching the
/// disk — N concurrent acks cost ~1 fsync. Natural batching: appends
/// that arrive during a leader's fsync pile up behind the next barrier.
/// A follower waits at most `window` before re-checking (and, with the
/// leader gone, taking over), so a lone writer's ack is never delayed
/// past the window by a vanished cohort.
#[derive(Debug)]
pub struct GroupCommit {
    state: SyncMutex<GcState>,
    cv: Condvar,
    window: Duration,
    stats: Arc<DurabilityStats>,
}

impl GroupCommit {
    /// A coordinator with the given lone-writer wait bound.
    pub fn new(window: Duration, stats: Arc<DurabilityStats>) -> Self {
        GroupCommit {
            state: SyncMutex::new(GcState::default()),
            cv: Condvar::new(),
            window,
            stats,
        }
    }

    /// Issue a sync ticket. Must be called *after* the append it covers
    /// is in the log (the log's own lock serializes append-then-ticket
    /// against a leader capturing the high-water mark).
    pub fn ticket(&self) -> u64 {
        let mut st = self.state.lock().expect("group-commit state");
        st.appended += 1;
        st.appended
    }

    /// Park until a sync covering `ticket` has completed, becoming the
    /// leader that issues it if nobody else is. `sync` must make every
    /// append at-or-before the current ticket high-water mark durable;
    /// it runs with no coordinator lock held, so appenders keep
    /// interleaving while the disk works. Fsync-before-ack: this returns
    /// only after such a sync *completed*.
    pub fn commit(&self, ticket: u64, mut sync: impl FnMut() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let mut st = self.state.lock().expect("group-commit state");
        loop {
            if st.synced >= ticket {
                drop(st);
                self.stats.note_ack(started.elapsed());
                return Ok(());
            }
            if !st.leader {
                st.leader = true;
                let target = st.appended;
                drop(st);
                let res = sync();
                st = self.state.lock().expect("group-commit state");
                st.leader = false;
                if res.is_ok() {
                    // target ≥ ticket: our ticket predates the capture.
                    st.synced = st.synced.max(target);
                    self.stats.note_fsync();
                }
                self.cv.notify_all();
                res?;
            } else {
                // Bounded park: on timeout, loop around and (with the
                // leader gone) take over rather than waiting forever.
                st = self
                    .cv
                    .wait_timeout(st, self.window)
                    .expect("group-commit state")
                    .0;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Segment store.
// ---------------------------------------------------------------------

/// Where a chunk's `Put` record lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u64,
    off: u64,
    /// Encoded record payload length (what `read_record` needs).
    enc_len: u32,
    /// The chunk's logical byte length (live-byte accounting).
    data_len: u64,
}

#[derive(Debug)]
struct Segment {
    log: RecordLog,
    /// Framed bytes of all records ever appended.
    total: u64,
    /// Framed bytes of `Put` records still in the index.
    live: u64,
    /// Ids of this segment's `Free` tombstones, in append order — what
    /// compaction has to consider carrying forward, kept here so that it
    /// need not re-read the file.
    frees: Vec<ChunkId>,
}

impl Segment {
    fn new(log: RecordLog) -> Self {
        Segment {
            total: log.len(),
            log,
            live: 0,
            frees: Vec::new(),
        }
    }
}

/// What a [`SegmentStore::open`] recovered.
#[derive(Debug, Default, Clone)]
pub struct SegmentRecovery {
    /// Chunks restored into the index.
    pub chunks: usize,
    /// Their logical bytes.
    pub chunk_bytes: u64,
    /// Files whose tail was torn and truncated.
    pub torn_files: usize,
}

/// The log-structured on-disk chunk store of one provider.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    segments: BTreeMap<u64, Segment>,
    active: u64,
    index: FastMap<ChunkId, Loc>,
    segment_bytes: u64,
    refs_log: RecordLog,
    /// Delta records appended to `refs_log` since the last snapshot
    /// rewrite.
    refs_ops: u64,
}

fn seg_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n}.log"))
}

impl SegmentStore {
    /// Open (or create) the store under `dir`, replaying every segment
    /// and the refcount log. Returns the store, the recovered refcounts
    /// (implicit base 1 made explicit for every indexed chunk), and
    /// recovery statistics. Replay never panics: torn tails are
    /// truncated, undecodable records discarded.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
    ) -> io::Result<(Self, FastMap<ChunkId, u64>, SegmentRecovery)> {
        let mut stats = SegmentRecovery::default();
        // Discover segment files. The directory may not exist yet (lazy
        // creation), which reads as an empty store.
        let mut seg_nos: Vec<u64> = Vec::new();
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                for entry in entries {
                    let name = entry?.file_name();
                    let name = name.to_string_lossy();
                    if let Some(num) = name
                        .strip_prefix("seg-")
                        .and_then(|s| s.strip_suffix(".log"))
                    {
                        if let Ok(n) = num.parse::<u64>() {
                            seg_nos.push(n);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        seg_nos.sort_unstable();

        // Replay segments in creation order: later records win.
        let mut segments = BTreeMap::new();
        let mut index: FastMap<ChunkId, Loc> = FastMap::default();
        for &n in &seg_nos {
            let (records, log, torn) = RecordLog::open(&seg_path(dir, n))?;
            stats.torn_files += torn as usize;
            let mut seg = Segment::new(log);
            for (off, payload) in records {
                match bff_wire::decode::<ChunkRecord>(&payload) {
                    Ok(ChunkRecord::Put { id, data }) => {
                        let framed = RecordLog::framed_len(payload.len());
                        if let Some(prev) = index.insert(
                            id,
                            Loc {
                                seg: n,
                                off,
                                enc_len: payload.len() as u32,
                                data_len: data.len(),
                            },
                        ) {
                            // A replica-retry duplicate: the earlier
                            // copy's bytes are dead weight now.
                            if prev.seg == n {
                                seg.live -= RecordLog::framed_len(prev.enc_len as usize);
                            } else if let Some(s) = segments.get_mut(&prev.seg) {
                                let s: &mut Segment = s;
                                s.live -= RecordLog::framed_len(prev.enc_len as usize);
                            }
                        }
                        seg.live += framed;
                    }
                    Ok(ChunkRecord::Free { id }) => {
                        seg.frees.push(id);
                        if let Some(prev) = index.remove(&id) {
                            let framed = RecordLog::framed_len(prev.enc_len as usize);
                            if prev.seg == n {
                                seg.live -= framed;
                            } else if let Some(s) = segments.get_mut(&prev.seg) {
                                let s: &mut Segment = s;
                                s.live -= framed;
                            }
                        }
                    }
                    // An undecodable (but checksum-clean) record means
                    // version skew; skipping it loses at most that
                    // record, never the file.
                    Err(_) => {}
                }
            }
            segments.insert(n, seg);
        }
        let active = seg_nos.last().copied().unwrap_or(0);
        if segments.is_empty() {
            let (_, log, _) = RecordLog::open(&seg_path(dir, 0))?;
            segments.insert(0, Segment::new(log));
        }

        // Replay the refcount log against the recovered index.
        let (ref_records, refs_log, refs_torn) = RecordLog::open(&dir.join("refs.log"))?;
        stats.torn_files += refs_torn as usize;
        let mut counts: FastMap<ChunkId, u64> = FastMap::default();
        let mut refs_ops = 0u64;
        for (_, payload) in ref_records {
            match bff_wire::decode::<RefRecord>(&payload) {
                Ok(RefRecord::Snapshot(list)) => {
                    counts.clear();
                    refs_ops = 0;
                    for (id, n) in list {
                        if index.contains_key(&id) {
                            counts.insert(id, n);
                        }
                    }
                }
                Ok(RefRecord::Retain { id, n }) => {
                    refs_ops += 1;
                    if index.contains_key(&id) {
                        *counts.entry(id).or_insert(1) += n;
                    }
                }
                Ok(RefRecord::Release { id, n }) => {
                    refs_ops += 1;
                    if !index.contains_key(&id) {
                        continue;
                    }
                    let cur = counts.entry(id).or_insert(1);
                    *cur = cur.saturating_sub(n);
                    if *cur == 0 {
                        // The matching Free record was lost with an
                        // unsynced tail: honor the release anyway.
                        counts.remove(&id);
                        index.remove(&id);
                    }
                }
                Err(_) => {}
            }
        }
        // Rebuild live-byte accounting after release-driven removals and
        // materialize the implicit base count for every surviving chunk.
        for seg in segments.values_mut() {
            seg.live = 0;
        }
        let mut refs: FastMap<ChunkId, u64> = FastMap::default();
        for (&id, loc) in &index {
            if let Some(seg) = segments.get_mut(&loc.seg) {
                seg.live += RecordLog::framed_len(loc.enc_len as usize);
            }
            stats.chunks += 1;
            stats.chunk_bytes += loc.data_len;
            refs.insert(id, counts.get(&id).copied().unwrap_or(1));
        }

        let store = SegmentStore {
            dir: dir.to_path_buf(),
            segments,
            active,
            index,
            segment_bytes: segment_bytes.max(1),
            refs_log,
            refs_ops,
        };
        Ok((store, refs, stats))
    }

    /// Whether `id` is stored.
    pub fn contains(&self, id: ChunkId) -> bool {
        self.index.contains_key(&id)
    }

    /// Logical byte length of `id`, if stored.
    pub fn data_len(&self, id: ChunkId) -> Option<u64> {
        self.index.get(&id).map(|l| l.data_len)
    }

    /// Number of chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    fn active_seg(&mut self) -> &mut Segment {
        self.segments
            .get_mut(&self.active)
            .expect("active segment exists")
    }

    fn rotate_if_full(&mut self) -> io::Result<()> {
        if self.active_seg().log.len() < self.segment_bytes {
            return Ok(());
        }
        // Seal by fsyncing the outgoing segment, then start the next.
        // Forced, not dirty-gated: a group-commit leader may hold an
        // unflushed claim on this segment, and "sealed ⇒ durable" is
        // what lets a group sync cover only the active segment.
        self.active_seg().log.sync_force()?;
        let next = self.active + 1;
        let (_, log, _) = RecordLog::open(&seg_path(&self.dir, next))?;
        self.segments.insert(next, Segment::new(log));
        self.active = next;
        Ok(())
    }

    /// Append a `Put` record for `id`. Idempotent: an id already in the
    /// index is left untouched (chunk ids never carry different data).
    /// Returns `true` if the chunk was newly stored.
    pub fn put(&mut self, id: ChunkId, data: &Payload) -> io::Result<bool> {
        if self.index.contains_key(&id) {
            return Ok(false);
        }
        let payload = bff_wire::encode(&ChunkRecord::Put {
            id,
            data: data.clone(),
        });
        let seg = self.active;
        let s = self.active_seg();
        let off = s.log.append(&payload)?;
        let framed = RecordLog::framed_len(payload.len());
        s.total += framed;
        s.live += framed;
        self.index.insert(
            id,
            Loc {
                seg,
                off,
                enc_len: payload.len() as u32,
                data_len: data.len(),
            },
        );
        self.rotate_if_full()?;
        Ok(true)
    }

    /// Append a `Free` tombstone and drop `id` from the index. May
    /// trigger compaction of the segment that held the chunk.
    pub fn free(&mut self, id: ChunkId) -> io::Result<()> {
        let Some(loc) = self.index.remove(&id) else {
            return Ok(());
        };
        self.append_free(id)?;
        let framed = RecordLog::framed_len(loc.enc_len as usize);
        if let Some(seg) = self.segments.get_mut(&loc.seg) {
            seg.live -= framed.min(seg.live);
        }
        self.rotate_if_full()?;
        self.maybe_compact(loc.seg)?;
        Ok(())
    }

    /// Read `id`'s bytes back, verifying the stored checksum. `None`
    /// means absent *or* failed verification — corrupt bytes are never
    /// returned, the caller falls back to another replica.
    pub fn read(&self, id: ChunkId) -> Option<Payload> {
        let loc = self.index.get(&id)?;
        let seg = self.segments.get(&loc.seg)?;
        let payload = seg.log.read_record(loc.off, loc.enc_len).ok()??;
        match bff_wire::decode::<ChunkRecord>(&payload) {
            Ok(ChunkRecord::Put { id: got, data }) if got == id => Some(data),
            _ => None,
        }
    }

    /// Append a refcount delta (durable once a sync claims it, see
    /// [`SegmentStore::sync_handles`]).
    pub fn log_retain(&mut self, id: ChunkId, n: u64) -> io::Result<()> {
        self.append_ref(&RefRecord::Retain { id, n })
    }

    /// Append a release delta. Deliberately *not* synced on the ack
    /// path: losing one is a bounded storage leak, not corruption.
    pub fn log_release(&mut self, id: ChunkId, n: u64) -> io::Result<()> {
        self.append_ref(&RefRecord::Release { id, n })
    }

    fn append_ref(&mut self, rec: &RefRecord) -> io::Result<()> {
        self.refs_log.append(&bff_wire::encode(rec))?;
        self.refs_ops += 1;
        Ok(())
    }

    /// Rewrite `refs.log` as one absolute `Snapshot` if enough deltas
    /// have accumulated. `counts` is the provider's authoritative
    /// refcount map.
    pub fn maybe_rewrite_refs(&mut self, counts: &FastMap<ChunkId, u64>) -> io::Result<()> {
        if self.refs_ops < REFS_REWRITE_OPS {
            return Ok(());
        }
        let non_unit: Vec<(ChunkId, u64)> = counts
            .iter()
            .filter(|(_, &n)| n != 1)
            .map(|(&id, &n)| (id, n))
            .collect();
        let tmp = self.dir.join("refs.log.tmp");
        let _ = std::fs::remove_file(&tmp);
        let (_, mut fresh, _) = RecordLog::open(&tmp)?;
        fresh.append(&bff_wire::encode(&RefRecord::Snapshot(non_unit)))?;
        fresh.sync_force()?;
        drop(fresh);
        let live = self.dir.join("refs.log");
        std::fs::rename(&tmp, &live)?;
        let (_, log, _) = RecordLog::open(&live)?;
        self.refs_log = log;
        self.refs_ops = 0;
        Ok(())
    }

    fn maybe_compact(&mut self, seg_no: u64) -> io::Result<()> {
        if seg_no == self.active {
            return Ok(());
        }
        let Some(seg) = self.segments.get(&seg_no) else {
            return Ok(());
        };
        if seg.total == 0 || (seg.live as f64 / seg.total as f64) >= COMPACT_LIVE_FRAC {
            return Ok(());
        }
        self.compact(seg_no)
    }

    /// Append a `Free` tombstone for `id` to the active segment.
    fn append_free(&mut self, id: ChunkId) -> io::Result<()> {
        let payload = bff_wire::encode(&ChunkRecord::Free { id });
        let s = self.active_seg();
        s.log.append(&payload)?;
        s.total += RecordLog::framed_len(payload.len());
        s.frees.push(id);
        Ok(())
    }

    /// Rewrite sealed segment `seg_no`: carry live puts and still-needed
    /// tombstones into the active segment, then delete the file. Reads
    /// the live records only (see the module header).
    fn compact(&mut self, seg_no: u64) -> io::Result<()> {
        let Some(old) = self.segments.remove(&seg_no) else {
            return Ok(());
        };
        // The index knows what is live here; file order keeps the
        // rewrite deterministic.
        let mut live: Vec<(ChunkId, Loc)> = (self.index.iter())
            .filter(|(_, loc)| loc.seg == seg_no)
            .map(|(&id, &loc)| (id, loc))
            .collect();
        live.sort_unstable_by_key(|(_, loc)| loc.off);
        for (id, loc) in live {
            // A record that fails its checksum cannot be moved; it reads
            // as absent from now on, like any chunk `read` cannot verify.
            let Some(payload) = old.log.read_record(loc.off, loc.enc_len)? else {
                continue;
            };
            let seg = self.active;
            let s = self.active_seg();
            let off = s.log.append(&payload)?;
            let framed = RecordLog::framed_len(payload.len());
            s.total += framed;
            s.live += framed;
            self.index.insert(id, Loc { seg, off, ..loc });
            self.rotate_if_full()?;
        }
        // A tombstone for a chunk still absent from the index may be
        // shadowing a Put in an *older* segment; carry it forward.
        for id in old.frees {
            if !self.index.contains_key(&id) {
                self.append_free(id)?;
            }
        }
        // Compaction moves committed data, so the copies must be durable
        // before the source file disappears. Forced for the same reason
        // as rotation's seal: regardless of in-flight group-commit claims.
        self.active_seg().log.sync_force()?;
        std::fs::remove_file(seg_path(&self.dir, seg_no))?;
        Ok(())
    }

    /// Claim the pending appends for the commit-ack barrier: handles for
    /// the active segment and the refcount log (empty when clean). The
    /// group-commit leader grabs these under the store's owning lock,
    /// drops it, then `sync_data`s the handles while appenders keep
    /// going — see [`RecordLog::sync_handle`] for the claim semantics.
    /// Sealed segments need no fsync here: rotation and compaction force
    /// one before sealing, so every append at-or-before the current
    /// high-water mark is covered by these two files alone.
    pub fn sync_handles(&mut self) -> io::Result<Vec<File>> {
        let mut out = Vec::with_capacity(2);
        if let Some(f) = self.active_seg().log.sync_handle()? {
            out.push(f);
        }
        if let Some(f) = self.refs_log.sync_handle()? {
            out.push(f);
        }
        Ok(out)
    }

    /// Total framed bytes across all segment files (compaction
    /// diagnostics).
    pub fn disk_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.log.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Manager journal.
// ---------------------------------------------------------------------

/// The manager-side mutation journal of one server process.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    key_mark: u64,
    chunk_mark: u64,
}

impl Journal {
    /// Open (or create) the journal at `path`, returning the replayable
    /// records in append order and whether a torn tail was discarded.
    pub fn open(path: &Path) -> io::Result<(Vec<JournalRecord>, Journal, bool)> {
        let (raw, log, torn) = RecordLog::open(path)?;
        let mut records = Vec::with_capacity(raw.len());
        let (mut key_mark, mut chunk_mark) = (0u64, 0u64);
        for (_, payload) in raw {
            // Checksum-clean but undecodable means version skew; skip
            // the record rather than the journal.
            let Ok(rec) = bff_wire::decode::<JournalRecord>(&payload) else {
                continue;
            };
            match rec {
                JournalRecord::KeyMark(k) => key_mark = key_mark.max(k),
                JournalRecord::ChunkMark(c) => chunk_mark = chunk_mark.max(c),
                _ => {}
            }
            records.push(rec);
        }
        Ok((
            records,
            Journal {
                log,
                key_mark,
                chunk_mark,
            },
            torn,
        ))
    }

    /// Journal a successful version-manager mutation. Append-only: the
    /// fsync-before-ack barrier is crossed by the caller *after* the
    /// state-machine lock is released (via a [`GroupCommit`] ticket), so
    /// concurrent mutations interleave their appends and share one
    /// `sync_data`.
    pub fn append_vm(&mut self, op: &VmReq) -> io::Result<()> {
        self.log
            .append(&bff_wire::encode(&JournalRecord::VmOp(op.clone())))?;
        Ok(())
    }

    /// Journal a metadata-node write. Not fsynced here: metadata nodes
    /// are unreachable until the publish that references them, and the
    /// publish's own fsync covers everything appended before it.
    pub fn append_meta(&mut self, shard: u32, nodes: &[(NodeKey, TreeNode)]) -> io::Result<()> {
        let rec = JournalRecord::MetaNodes {
            shard,
            nodes: nodes.to_vec(),
        };
        self.log.append(&bff_wire::encode(&rec))?;
        Ok(())
    }

    /// Make the node-key allocator durable up to at least `next`:
    /// appends a new mark only when `next` crosses the last persisted
    /// one (one barrier per [`MARK_STRIDE`] ids). Returns whether a
    /// mark was appended — `true` means the caller must cross the sync
    /// barrier before acking the reservation.
    pub fn note_key(&mut self, next: u64) -> io::Result<bool> {
        if next <= self.key_mark {
            return Ok(false);
        }
        self.key_mark = next + MARK_STRIDE;
        self.log
            .append(&bff_wire::encode(&JournalRecord::KeyMark(self.key_mark)))?;
        Ok(true)
    }

    /// [`Journal::note_key`] for the chunk-id allocator.
    pub fn note_chunk(&mut self, next: u64) -> io::Result<bool> {
        if next <= self.chunk_mark {
            return Ok(false);
        }
        self.chunk_mark = next + MARK_STRIDE;
        self.log
            .append(&bff_wire::encode(&JournalRecord::ChunkMark(
                self.chunk_mark,
            )))?;
        Ok(true)
    }

    /// Claim the pending appends for an out-of-lock fsync (the
    /// group-commit leader path) — see [`RecordLog::sync_handle`].
    pub fn sync_handle(&mut self) -> io::Result<Option<File>> {
        self.log.sync_handle()
    }
}

/// What a [`crate::server::ServerState::recover`] restored, for the
/// server process to report before announcing readiness.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Journal records replayed into the manager roles.
    pub journal_records: usize,
    /// Whether the journal had a torn tail.
    pub journal_torn: bool,
    /// Chunks restored across all providers.
    pub chunks: usize,
    /// Their logical bytes.
    pub chunk_bytes: u64,
    /// Segment/ref files with truncated torn tails.
    pub torn_files: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bff-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(seed: u64, len: u64) -> Payload {
        Payload::synth(seed, 0, len)
    }

    /// Cross the commit-ack barrier the way a group-commit leader does:
    /// claim the pending appends, then `sync_data` them.
    fn sync(s: &mut SegmentStore) {
        for f in s.sync_handles().unwrap() {
            f.sync_data().unwrap();
        }
    }

    #[test]
    fn segment_store_roundtrip_and_recovery() {
        let dir = scratch("roundtrip");
        {
            let (mut s, refs, stats) = SegmentStore::open(&dir, 1 << 20).unwrap();
            assert_eq!(stats.chunks, 0);
            assert!(refs.is_empty());
            assert!(s.put(ChunkId(1), &payload(7, 1000)).unwrap());
            assert!(!s.put(ChunkId(1), &payload(7, 1000)).unwrap(), "idempotent");
            assert!(s.put(ChunkId(2), &payload(9, 500)).unwrap());
            s.log_retain(ChunkId(1), 2).unwrap();
            sync(&mut s);
            assert!(s.read(ChunkId(1)).unwrap().content_eq(&payload(7, 1000)));
        }
        let (s, refs, stats) = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.chunk_bytes, 1500);
        assert_eq!(stats.torn_files, 0);
        assert_eq!(refs.get(&ChunkId(1)), Some(&3), "1 implicit + 2 retained");
        assert_eq!(refs.get(&ChunkId(2)), Some(&1), "implicit base");
        assert!(s.read(ChunkId(2)).unwrap().content_eq(&payload(9, 500)));
        assert!(s.read(ChunkId(3)).is_none());
    }

    #[test]
    fn free_tombstone_survives_restart() {
        let dir = scratch("free");
        {
            let (mut s, _, _) = SegmentStore::open(&dir, 1 << 20).unwrap();
            s.put(ChunkId(1), &payload(1, 100)).unwrap();
            s.put(ChunkId(2), &payload(2, 100)).unwrap();
            s.free(ChunkId(1)).unwrap();
            sync(&mut s);
        }
        let (s, refs, stats) = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(stats.chunks, 1);
        assert!(s.read(ChunkId(1)).is_none());
        assert!(!refs.contains_key(&ChunkId(1)));
        assert!(s.contains(ChunkId(2)));
    }

    #[test]
    fn rotation_and_compaction_preserve_live_chunks() {
        let dir = scratch("compact");
        let seg_bytes = 4 * 1024;
        let (mut s, _, _) = SegmentStore::open(&dir, seg_bytes).unwrap();
        // Fill several segments with literal (incompressible on the
        // wire) payloads so rotation actually happens.
        let blob = |i: u64| {
            Payload::from_bytes((0..512).map(|b| (b as u8) ^ i as u8).collect::<Vec<u8>>())
        };
        for i in 0..64u64 {
            s.put(ChunkId(i + 1), &blob(i)).unwrap();
        }
        assert!(s.segments.len() > 1, "rotation produced sealed segments");
        // Free most chunks: sealed segments drop below the live
        // threshold and compact away.
        for i in 0..56u64 {
            s.free(ChunkId(i + 1)).unwrap();
        }
        sync(&mut s);
        for i in 56..64u64 {
            assert!(
                s.read(ChunkId(i + 1)).unwrap().content_eq(&blob(i)),
                "chunk {i} survives compaction"
            );
        }
        let disk = s.disk_bytes();
        drop(s);
        // Recovery after compaction sees exactly the survivors.
        let (s, _, stats) = SegmentStore::open(&dir, seg_bytes).unwrap();
        assert_eq!(stats.chunks, 8);
        assert_eq!(s.disk_bytes(), disk);
        for i in 56..64u64 {
            assert!(s.read(ChunkId(i + 1)).unwrap().content_eq(&blob(i)));
        }
    }

    #[test]
    fn compaction_carries_tombstones_it_learned_from_replay() {
        let dir = scratch("carry");
        let seg_bytes = 4 * 1024;
        let blob = |i: u64| {
            Payload::from_bytes((0..512).map(|b| (b as u8) ^ i as u8).collect::<Vec<u8>>())
        };
        // Put fresh ids until the active segment seals; the ids it got.
        let fill = |s: &mut SegmentStore, next: &mut u64| {
            let (sealing, mut ids) = (s.active, Vec::new());
            while s.active == sealing {
                s.put(ChunkId(*next), &blob(*next)).unwrap();
                ids.push(*next);
                *next += 1;
            }
            ids
        };
        let (mut s, _, _) = SegmentStore::open(&dir, seg_bytes).unwrap();
        let mut next = 1u64;
        let first = fill(&mut s, &mut next);
        // The tombstone of a chunk of segment 0 lands in segment 1 …
        s.free(ChunkId(first[0])).unwrap();
        let second = fill(&mut s, &mut next);
        assert_eq!((s.active, s.segments.len()), (2, 3));
        sync(&mut s);
        drop(s);
        // … and is known again after a restart, from replay alone.
        let (mut s, _, _) = SegmentStore::open(&dir, seg_bytes).unwrap();
        assert_eq!(s.segments[&1].frees, vec![ChunkId(first[0])]);
        // Free most of segment 1: it compacts away, segment 0 stays, and
        // the tombstone that shadows segment 0's Put moves on.
        let (doomed, kept) = second.split_at(second.len() / 2 + 1);
        for &id in doomed {
            s.free(ChunkId(id)).unwrap();
        }
        assert!(s.segments.contains_key(&0) && !s.segments.contains_key(&1));
        assert!(!seg_path(&dir, 1).exists());
        assert!(s.segments[&2].frees.contains(&ChunkId(first[0])));
        sync(&mut s);
        drop(s);
        let (s, _, stats) = SegmentStore::open(&dir, seg_bytes).unwrap();
        assert_eq!(stats.chunks, first.len() - 1 + kept.len());
        assert!(s.read(ChunkId(first[0])).is_none(), "no resurrection");
        for &id in first[1..].iter().chain(kept) {
            assert!(s.read(ChunkId(id)).unwrap().content_eq(&blob(id)));
        }
    }

    #[test]
    fn refs_rewrite_keeps_counts() {
        let dir = scratch("refsrw");
        let (mut s, _, _) = SegmentStore::open(&dir, 1 << 20).unwrap();
        s.put(ChunkId(1), &payload(1, 64)).unwrap();
        s.put(ChunkId(2), &payload(2, 64)).unwrap();
        s.log_retain(ChunkId(1), 4).unwrap();
        s.refs_ops = REFS_REWRITE_OPS; // force the rewrite path
        let mut counts = FastMap::default();
        counts.insert(ChunkId(1), 5u64);
        counts.insert(ChunkId(2), 1u64);
        s.maybe_rewrite_refs(&counts).unwrap();
        sync(&mut s);
        drop(s);
        let (_, refs, _) = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(refs.get(&ChunkId(1)), Some(&5));
        assert_eq!(refs.get(&ChunkId(2)), Some(&1));
    }

    #[test]
    fn group_commit_acks_every_ticket_and_batches_fsyncs() {
        let dir = scratch("gc");
        std::fs::create_dir_all(&dir).unwrap();
        let (_, log, _) = RecordLog::open(&dir.join("gc.log")).unwrap();
        let log = Arc::new(Mutex::new(log));
        let stats = Arc::new(DurabilityStats::default());
        let gc = Arc::new(GroupCommit::new(
            Duration::from_micros(500),
            Arc::clone(&stats),
        ));
        const WRITERS: usize = 8;
        const APPENDS: usize = 16;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (log, gc) = (Arc::clone(&log), Arc::clone(&gc));
                scope.spawn(move || {
                    for i in 0..APPENDS {
                        let ticket = {
                            let mut log = log.lock();
                            log.append(format!("{w}:{i}").as_bytes()).unwrap();
                            gc.ticket()
                        };
                        gc.commit(ticket, || {
                            let handle = log.lock().sync_handle()?;
                            if let Some(f) = handle {
                                f.sync_data()?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.acks, (WRITERS * APPENDS) as u64, "every commit acked");
        assert!(snap.fsyncs >= 1 && snap.fsyncs <= snap.acks);
        // Every acked append survives a reopen (the barrier is real).
        drop(log);
        let (recs, _, torn) = RecordLog::open(&dir.join("gc.log")).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), WRITERS * APPENDS);
    }

    #[test]
    fn group_commit_lone_writer_is_bounded_by_window() {
        // A single committer with no cohort must become leader and
        // return promptly (no eternal park waiting for followers).
        let stats = Arc::new(DurabilityStats::default());
        let gc = GroupCommit::new(Duration::from_millis(50), Arc::clone(&stats));
        let ticket = gc.ticket();
        let started = Instant::now();
        gc.commit(ticket, || Ok(())).unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "lone writer led immediately instead of parking"
        );
        assert_eq!(stats.snapshot().acks, 1);
    }

    #[test]
    fn journal_replay_and_marks() {
        let dir = scratch("journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        {
            let (records, mut j, torn) = Journal::open(&path).unwrap();
            assert!(records.is_empty() && !torn);
            j.append_vm(&VmReq::CreateBlob {
                size: 1 << 20,
                chunk_size: 4096,
            })
            .unwrap();
            j.note_key(100).unwrap();
            j.note_key(200).unwrap(); // inside the stride: no new mark
            j.note_chunk(7).unwrap();
            let node = TreeNode::Inner {
                left: NodeKey(1),
                right: NodeKey::NULL,
            };
            j.append_meta(3, &[(NodeKey(9), node)]).unwrap();
        }
        let (records, _, torn) = Journal::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 4, "second note_key was absorbed");
        assert!(matches!(records[0], JournalRecord::VmOp(_)));
        assert!(matches!(records[1], JournalRecord::KeyMark(k) if k >= 100 + MARK_STRIDE));
        assert!(matches!(records[2], JournalRecord::ChunkMark(c) if c >= 7 + MARK_STRIDE));
        assert!(matches!(
            records[3],
            JournalRecord::MetaNodes { shard: 3, .. }
        ));
    }

    /// A record's `BadTag` context must be interned, or the error would
    /// cross the wire as `"?"`.
    #[test]
    fn record_contexts_are_interned() {
        for ctx in [
            ChunkRecord::CONTEXT,
            RefRecord::CONTEXT,
            JournalRecord::CONTEXT,
        ] {
            let e = bff_wire::WireError::BadTag(ctx, 9);
            assert_eq!(bff_wire::decode(&bff_wire::encode(&e)), Ok(e));
        }
    }
}
