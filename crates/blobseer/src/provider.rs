//! Chunk providers: the per-node stores that together form the common
//! storage pool aggregated from compute-node local disks (§3.1.1).
//!
//! A provider is a passive state machine; the client charges its fabric
//! costs (transfer to/from the provider node, disk read/write at the
//! provider) around these calls. The `hot` set models the provider host's
//! page cache: a chunk read once is served from memory afterwards.
//!
//! [`ProviderStore`] is the sharded container the service deploys:
//! one lock per provider (a shard), dense slot addressing instead of a
//! hashed map, and aggregate counters maintained with atomics. Fetch and
//! push tasks touching *distinct* providers therefore never contend on a
//! shared lock, which is what lets the fabric express the per-provider
//! parallelism of the paper's transfer scheme (§3.1.3), and the service's
//! storage metrics (`total_stored_bytes`, `total_chunks`) never stop the
//! data plane to aggregate.

use crate::api::ChunkId;
use crate::durable::{
    CommitPolicy, GroupCommit, SegmentRecovery, SegmentStore, DEFAULT_SEGMENT_BYTES,
};
use bff_data::{ContentDigest, ContentKey, FastMap, FastSet, Payload};
use bff_net::NodeId;
use bff_wire::msg::RetainOutcome;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a provider keeps chunk bytes: the historical in-memory map, or
/// the log-structured segment files of `crate::durable`.
///
/// The disk backend is fail-stop on *live* I/O errors (an append or
/// fsync failure panics — the durability contract can no longer be
/// honored), while recovery and reads never panic: corrupt records are
/// discarded or served as absent, and the client fails over to another
/// replica.
#[derive(Debug)]
enum ChunkStore {
    Mem(FastMap<ChunkId, Payload>),
    Disk(Box<SegmentStore>),
}

impl Default for ChunkStore {
    fn default() -> Self {
        ChunkStore::Mem(FastMap::default())
    }
}

/// One provider's chunk store.
#[derive(Debug, Default)]
pub struct Provider {
    chunks: ChunkStore,
    hot: FastSet<ChunkId>,
    stored_bytes: u64,
    /// Dedup reference counts: how many published leaf descriptors point
    /// at each chunk through the content-addressed write path. A fresh
    /// put starts at 1; every commit-by-reference retains once per use.
    /// Invariant: a refs entry exists iff the chunk exists, and is ≥ 1 —
    /// so a release can never underflow (releasing an absent chunk is a
    /// no-op, and a count that reaches 0 removes both together).
    refs: FastMap<ChunkId, u64>,
    /// `(length, digest)` of the *stored* bytes of the chunks a commit
    /// has asked to reference, computed on first use (in the digest
    /// strength the commit asked in) and dropped with the chunk. A chunk
    /// id's bytes never change, so an entry is never stale.
    keys: FastMap<ChunkId, ContentKey>,
}

/// Stored chunks a [`Provider::retain_matching`] batch needs digested
/// before it can be judged: `(id, stored bytes, strong digest wanted)`.
type Undigested = Vec<(ChunkId, Payload, bool)>;

/// Whether `key` carries the strong (SHA-256) digest. Keys of different
/// strengths never compare equal, so a stored chunk is digested in the
/// strength the commit asks in.
fn is_strong(key: &ContentKey) -> bool {
    matches!(key.1, ContentDigest::Strong(_))
}

impl Provider {
    /// Empty in-memory provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a disk-backed provider under `dir`, replaying
    /// its segment files and refcount log. The page-cache model starts
    /// cold: a restarted host serves its first read of each chunk from
    /// disk.
    pub fn recover(dir: &Path, segment_bytes: u64) -> std::io::Result<(Self, SegmentRecovery)> {
        let (store, refs, stats) = SegmentStore::open(dir, segment_bytes)?;
        Ok((
            Provider {
                chunks: ChunkStore::Disk(Box::new(store)),
                hot: FastSet::default(),
                stored_bytes: stats.chunk_bytes,
                refs,
                keys: FastMap::default(),
            },
            stats,
        ))
    }

    /// Store a chunk, returning `(byte delta, newly stored)`. Chunk ids
    /// are globally unique, so an insert never replaces different data;
    /// re-putting the same id (replica retry) is idempotent with delta 0.
    /// The delta is signed so counters stay truthful even if a future
    /// caller breaks the never-different-data assumption.
    pub fn put(&mut self, id: ChunkId, data: Payload) -> (i64, bool) {
        let (delta, is_new) = match &mut self.chunks {
            ChunkStore::Mem(chunks) => {
                let new_len = data.len() as i64;
                let (prev_len, is_new) = match chunks.insert(id, data) {
                    Some(prev) => (prev.len() as i64, false),
                    None => (0, true),
                };
                (new_len - prev_len, is_new)
            }
            ChunkStore::Disk(store) => {
                let is_new = store.put(id, &data).expect("provider segment append");
                (if is_new { data.len() as i64 } else { 0 }, is_new)
            }
        };
        if is_new {
            self.refs.insert(id, 1);
        }
        self.stored_bytes = (self.stored_bytes as i64 + delta) as u64;
        // Freshly written data sits in the page cache.
        self.hot.insert(id);
        (delta, is_new)
    }

    /// Add one dedup reference to a stored chunk. Returns `false` (and
    /// changes nothing) if the chunk is not present — the caller treats
    /// that as a stale digest-index hit.
    pub fn retain(&mut self, id: ChunkId) -> bool {
        self.retain_n(id, 1)
    }

    /// Add `n` dedup references in one shard acquisition (the
    /// intra-commit duplicate path: a commit of N identical chunks bumps
    /// once by N−1 per replica instead of N−1 times).
    pub fn retain_n(&mut self, id: ChunkId, n: u64) -> bool {
        debug_assert!(n > 0, "retaining zero references is meaningless");
        if !self.has(id) {
            return false;
        }
        *self.refs.entry(id).or_insert(0) += n;
        if let ChunkStore::Disk(store) = &mut self.chunks {
            store.log_retain(id, n).expect("provider refs append");
            store
                .maybe_rewrite_refs(&self.refs)
                .expect("provider refs rewrite");
        }
        true
    }

    /// Commit by reference, verified where the bytes are: per entry, add
    /// one dedup reference iff the *stored* chunk has the entry's length
    /// and digest (an id listed twice gains two). All-or-nothing on what
    /// the provider knows: if a stored chunk named by the batch has not
    /// been digested yet (in the strength the entry asks in), nothing is
    /// retained and those chunks come back as `Err` — the caller digests
    /// them *outside* the shard lock, files the keys with
    /// [`Provider::note_keys`] and asks again. Once the keys are filed a
    /// batch costs a map lookup per entry, never O(chunk) work.
    pub fn retain_matching(
        &mut self,
        entries: &[(ChunkId, ContentKey)],
    ) -> Result<Vec<RetainOutcome>, Undigested> {
        let mut undigested = Undigested::new();
        let mut asked: FastSet<ChunkId> = FastSet::default();
        for (id, key) in entries {
            let known = self
                .keys
                .get(id)
                .is_some_and(|stored| is_strong(stored) == is_strong(key));
            if !known && asked.insert(*id) {
                if let Some(data) = self.peek(*id) {
                    undigested.push((*id, data, is_strong(key)));
                }
            }
        }
        if !undigested.is_empty() {
            return Err(undigested);
        }
        Ok(entries
            .iter()
            .map(|(id, key)| match self.keys.get(id).copied() {
                Some(stored) if stored != *key => RetainOutcome::Mismatch,
                Some(_) if self.retain(*id) => RetainOutcome::Retained,
                // Not stored here (or unreadable: a record that fails
                // its checksum reads as absent): a stale index entry.
                _ => RetainOutcome::Gone,
            })
            .collect())
    }

    /// File the content keys of stored chunks (see
    /// [`Provider::retain_matching`]). A chunk freed while its key was
    /// being computed is skipped: keys live and die with their chunk.
    pub fn note_keys(&mut self, keys: impl IntoIterator<Item = (ChunkId, ContentKey)>) {
        for (id, key) in keys {
            if self.has(id) {
                self.keys.insert(id, key);
            }
        }
    }

    /// Drop one dedup reference. When the count reaches zero the chunk
    /// (and its page-cache entry) is removed and its bytes freed.
    /// Releasing an absent chunk — including a double release after the
    /// count already hit zero — is a harmless no-op: the count can never
    /// underflow. Returns `(freed bytes, chunk removed, reference
    /// dropped)`.
    pub fn release(&mut self, id: ChunkId) -> (u64, bool, bool) {
        self.release_n(id, 1)
    }

    /// Drop up to `n` dedup references in one shard acquisition (the
    /// rollback twin of [`Provider::retain_n`]). Saturates at zero —
    /// over-releasing removes the chunk and stops, it never underflows.
    pub fn release_n(&mut self, id: ChunkId, n: u64) -> (u64, bool, bool) {
        debug_assert!(n > 0, "releasing zero references is meaningless");
        let Some(count) = self.refs.get_mut(&id) else {
            return (0, false, false);
        };
        debug_assert!(*count >= 1, "refs entry exists ⇒ count ≥ 1");
        *count = count.saturating_sub(n);
        let emptied = *count == 0;
        if emptied {
            self.refs.remove(&id);
            self.hot.remove(&id);
            self.keys.remove(&id);
        }
        let freed = match &mut self.chunks {
            ChunkStore::Mem(chunks) => {
                if emptied {
                    chunks.remove(&id).map_or(0, |p| p.len())
                } else {
                    0
                }
            }
            ChunkStore::Disk(store) => {
                store.log_release(id, n).expect("provider refs append");
                let freed = if emptied {
                    let len = store.data_len(id).unwrap_or(0);
                    store.free(id).expect("provider free append");
                    len
                } else {
                    0
                };
                store
                    .maybe_rewrite_refs(&self.refs)
                    .expect("provider refs rewrite");
                freed
            }
        };
        if !emptied {
            return (0, false, true);
        }
        self.stored_bytes -= freed;
        (freed, true, true)
    }

    /// Current dedup reference count of a chunk (`None` if absent).
    pub fn refcount(&self, id: ChunkId) -> Option<u64> {
        self.refs.get(&id).copied()
    }

    /// Fetch a chunk, reporting whether it was already cached in memory
    /// (`true`) or needs a disk read charged (`false`).
    pub fn get(&mut self, id: ChunkId) -> Option<(Payload, bool)> {
        let data = match &self.chunks {
            ChunkStore::Mem(chunks) => chunks.get(&id)?.clone(),
            // A record that fails checksum verification reads as
            // absent: corrupt bytes are never served, the client fails
            // over to another replica.
            ChunkStore::Disk(store) => store.read(id)?,
        };
        let was_hot = !self.hot.insert(id);
        Some((data, was_hot))
    }

    /// Whether the chunk is present.
    pub fn has(&self, id: ChunkId) -> bool {
        match &self.chunks {
            ChunkStore::Mem(chunks) => chunks.contains_key(&id),
            ChunkStore::Disk(store) => store.contains(id),
        }
    }

    /// Read a stored chunk without touching the page-cache model — a
    /// metadata-side integrity check (dedup hit verification), not a
    /// data-plane read, so it must not warm the `hot` set.
    pub fn peek(&self, id: ChunkId) -> Option<Payload> {
        match &self.chunks {
            ChunkStore::Mem(chunks) => chunks.get(&id).cloned(),
            ChunkStore::Disk(store) => store.read(id),
        }
    }

    /// Claim the pending appends for an out-of-lock fsync (the
    /// group-commit leader path; empty for the in-memory backend) —
    /// see [`SegmentStore::sync_handles`]. Fail-stop on I/O errors: a
    /// provider that cannot fsync cannot honor the acks it already
    /// implies.
    pub fn sync_handles(&mut self) -> Vec<File> {
        match &mut self.chunks {
            ChunkStore::Disk(store) => store.sync_handles().expect("provider sync handles"),
            ChunkStore::Mem(_) => Vec::new(),
        }
    }

    /// Total payload bytes stored (the storage-consumption metric behind
    /// the paper's "storage and bandwidth usage reduced by as much as
    /// 90%" claim).
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Number of chunks stored.
    pub fn chunk_count(&self) -> usize {
        match &self.chunks {
            ChunkStore::Mem(chunks) => chunks.len(),
            ChunkStore::Disk(store) => store.chunk_count(),
        }
    }

    /// Drop the page-cache model state (e.g. to simulate memory pressure
    /// in ablations).
    pub fn drop_caches(&mut self) {
        self.hot.clear();
    }
}

/// The deployed provider set, sharded one lock per provider.
///
/// Addressing is dense: node → slot resolves once through a small map
/// built at deploy time, and everything after is a vector index. The
/// aggregate storage metrics are kept in atomics updated on
/// [`ProviderStore::put`], so reading them never takes any shard lock —
/// the service can report storage consumption while writes are in flight
/// without perturbing them.
#[derive(Debug)]
pub struct ProviderStore {
    /// Provider nodes in topology order (slot i ↔ nodes[i]).
    nodes: Vec<NodeId>,
    slot_of: HashMap<NodeId, usize>,
    shards: Vec<Mutex<Provider>>,
    /// One commit coordinator per shard (separate files, separate
    /// barriers), present only for durable deployments: `None` means
    /// in-memory providers, whose acks cross no barrier.
    commit: Option<Vec<Arc<GroupCommit>>>,
    stored_bytes: AtomicU64,
    chunks: AtomicU64,
}

impl ProviderStore {
    /// Deploy one provider per node.
    pub fn new(nodes: &[NodeId]) -> Self {
        Self {
            nodes: nodes.to_vec(),
            slot_of: nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect(),
            shards: nodes.iter().map(|_| Mutex::new(Provider::new())).collect(),
            commit: None,
            stored_bytes: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        }
    }

    /// Deploy disk-backed providers, one per node, each replaying its
    /// own directory `<base_dir>/provider-<node>/`, each behind its own
    /// group-commit coordinator built from `policy`. The aggregate
    /// counters start from the recovered per-shard truth.
    pub fn recover(
        nodes: &[NodeId],
        base_dir: &Path,
        policy: &CommitPolicy,
    ) -> std::io::Result<(Self, SegmentRecovery)> {
        let mut shards = Vec::with_capacity(nodes.len());
        let mut total = SegmentRecovery::default();
        for node in nodes {
            let dir = base_dir.join(format!("provider-{}", node.0));
            let (p, stats) = Provider::recover(&dir, DEFAULT_SEGMENT_BYTES)?;
            total.chunks += stats.chunks;
            total.chunk_bytes += stats.chunk_bytes;
            total.torn_files += stats.torn_files;
            shards.push(Mutex::new(p));
        }
        let commit = Some(nodes.iter().map(|_| policy.coordinator()).collect());
        Ok((
            Self {
                nodes: nodes.to_vec(),
                slot_of: nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect(),
                shards,
                commit,
                stored_bytes: AtomicU64::new(total.chunk_bytes),
                chunks: AtomicU64::new(total.chunks as u64),
            },
            total,
        ))
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the store has no providers.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Whether `node` hosts a provider.
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot_of.contains_key(&node)
    }

    /// Lock `node`'s provider shard. Holding one shard does not block any
    /// other provider.
    pub fn lock(&self, node: NodeId) -> Option<MutexGuard<'_, Provider>> {
        self.slot_of.get(&node).map(|&i| self.shards[i].lock())
    }

    /// Fold one shard outcome into the aggregate counters (`chunks < 0`
    /// after a release removed chunks).
    fn apply_delta(&self, bytes: i64, chunks: i64) {
        match bytes.cmp(&0) {
            std::cmp::Ordering::Greater => {
                self.stored_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                self.stored_bytes
                    .fetch_sub(bytes.unsigned_abs(), Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
        match chunks.cmp(&0) {
            std::cmp::Ordering::Greater => {
                self.chunks.fetch_add(chunks as u64, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                self.chunks
                    .fetch_sub(chunks.unsigned_abs(), Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Run `op` on `slot`'s provider under its shard lock, then cross
    /// the commit-ack durability barrier before returning. `op` returns
    /// `(out, barrier)`; with `barrier == false` (failed op, nothing
    /// appended) the barrier is skipped, as it is on in-memory providers.
    ///
    /// The sync ticket is taken under the shard lock (so
    /// append-then-ticket is ordered against the leader's high-water
    /// capture), the lock drops, and the committer parks — appends on
    /// this shard keep interleaving while one leader fsyncs for the
    /// whole cohort. The leader re-takes the shard lock only long
    /// enough to claim file handles; the `sync_data` itself runs
    /// lock-free.
    fn committed<T>(&self, slot: usize, op: impl FnOnce(&mut Provider) -> (T, bool)) -> T {
        let gc = self.commit.as_ref().map(|coordinators| &coordinators[slot]);
        let (out, ticket) = {
            let mut shard = self.shards[slot].lock();
            let (out, barrier) = op(&mut shard);
            (out, gc.filter(|_| barrier).map(|gc| (gc, gc.ticket())))
        };
        if let Some((gc, ticket)) = ticket {
            gc.commit(ticket, || {
                let handles = self.shards[slot].lock().sync_handles();
                for f in &handles {
                    f.sync_data()?;
                }
                Ok(())
            })
            .expect("provider group sync");
        }
        out
    }

    /// Store a chunk at `node`, maintaining the aggregate counters.
    /// Durable before return on disk-backed providers (the ack
    /// barrier). Returns `false` if `node` hosts no provider.
    pub fn put(&self, node: NodeId, id: ChunkId, data: Payload) -> bool {
        let Some(&slot) = self.slot_of.get(&node) else {
            return false;
        };
        let (bytes, is_new) = self.committed(slot, |shard| (shard.put(id, data), true));
        self.apply_delta(bytes, is_new as i64);
        true
    }

    /// Add one dedup reference to `id` at `node` (see
    /// [`Provider::retain`]). Returns `false` if the node hosts no
    /// provider or the chunk is absent.
    pub fn retain(&self, node: NodeId, id: ChunkId) -> bool {
        self.retain_n(node, id, 1)
    }

    /// Add `n` dedup references under one shard acquisition (see
    /// [`Provider::retain_n`]). Durable before return on disk-backed
    /// providers: a commit-by-reference ack is a durability promise for
    /// the reference, exactly like a put's for the bytes.
    pub fn retain_n(&self, node: NodeId, id: ChunkId, n: u64) -> bool {
        match self.slot_of.get(&node) {
            // A rejected retain (stale digest hit) appends nothing and
            // promises nothing: no barrier.
            Some(&slot) => self.committed(slot, |shard| {
                let ok = shard.retain_n(id, n);
                (ok, ok)
            }),
            None => false,
        }
    }

    /// Commit by reference: judge and retain `entries` at `node` under
    /// one shard acquisition and one durability barrier (see
    /// [`Provider::retain_matching`]; a commit-by-reference ack is a
    /// durability promise for the reference, exactly like a put's for
    /// the bytes). The first batch to name a chunk pays a second
    /// acquisition: the stored bytes are digested in between, with no
    /// lock held. A node that hosts no provider stores nothing.
    pub fn retain_matching(
        &self,
        node: NodeId,
        entries: &[(ChunkId, ContentKey)],
    ) -> Vec<RetainOutcome> {
        let Some(&slot) = self.slot_of.get(&node) else {
            return vec![RetainOutcome::Gone; entries.len()];
        };
        let mut digested: Vec<(ChunkId, ContentKey)> = Vec::new();
        loop {
            let judged = self.committed(slot, |shard| {
                shard.note_keys(digested.drain(..));
                let judged = shard.retain_matching(entries);
                // A batch that retained nothing appended nothing and
                // promises nothing: no barrier.
                let barrier = judged
                    .as_ref()
                    .is_ok_and(|outcomes| outcomes.contains(&RetainOutcome::Retained));
                (judged, barrier)
            });
            match judged {
                Ok(outcomes) => return outcomes,
                Err(undigested) => digested.extend(
                    undigested
                        .into_iter()
                        .map(|(id, data, strong)| (id, (data.len(), data.content_digest(strong)))),
                ),
            }
        }
    }

    /// Drop one dedup reference to `id` at `node`, maintaining the
    /// aggregate counters (see [`Provider::release`]). Never underflows;
    /// returns `true` only when a reference was actually dropped.
    pub fn release(&self, node: NodeId, id: ChunkId) -> bool {
        self.release_counted(node, &[id])[0].2
    }

    /// Drop one dedup reference per entry of `ids` under one shard
    /// acquisition, with the garbage collector's view of each: `(bytes
    /// freed, chunk removed, reference dropped)`, in order. An id listed
    /// twice loses two references. The aggregate counters stay exact —
    /// releases that remove chunks decrement them in the same call. A
    /// node that hosts no provider drops nothing.
    pub fn release_counted(&self, node: NodeId, ids: &[ChunkId]) -> Vec<(u64, bool, bool)> {
        let Some(&slot) = self.slot_of.get(&node) else {
            return vec![(0, false, false); ids.len()];
        };
        let outcomes: Vec<(u64, bool, bool)> = {
            let mut shard = self.shards[slot].lock();
            ids.iter().map(|&id| shard.release(id)).collect()
        };
        let freed: u64 = outcomes.iter().map(|o| o.0).sum();
        let removed = outcomes.iter().filter(|o| o.1).count();
        self.apply_delta(-(freed as i64), -(removed as i64));
        outcomes
    }

    /// Dedup reference count of `id` at `node` (`None` if either is
    /// absent).
    pub fn refcount(&self, node: NodeId, id: ChunkId) -> Option<u64> {
        let &slot = self.slot_of.get(&node)?;
        self.shards[slot].lock().refcount(id)
    }

    /// Store a whole batch of chunks at `node` under one shard
    /// acquisition and one counter update (the write-side twin of the
    /// batched fetch path). Returns `false` if `node` hosts no provider.
    pub fn put_batch<I>(&self, node: NodeId, items: I) -> bool
    where
        I: IntoIterator<Item = (ChunkId, Payload)>,
    {
        let Some(&slot) = self.slot_of.get(&node) else {
            return false;
        };
        // One barrier for the whole batch — and under group commit, one
        // shared with every other shard-mate batch in flight.
        let (bytes, new_chunks) = self.committed(slot, |shard| {
            let (mut bytes, mut new_chunks) = (0i64, 0i64);
            for (id, data) in items {
                let (delta, is_new) = shard.put(id, data);
                bytes += delta;
                new_chunks += is_new as i64;
            }
            ((bytes, new_chunks), true)
        });
        self.apply_delta(bytes, new_chunks);
        true
    }

    /// Total payload bytes stored across all providers (lock-free; shared
    /// chunks are stored once, so snapshots that share content do not
    /// multiply it).
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes.load(Ordering::Relaxed)
    }

    /// Total chunks stored across all providers (lock-free).
    pub fn total_chunks(&self) -> usize {
        self.chunks.load(Ordering::Relaxed) as usize
    }

    /// Per-provider stored bytes, in topology order (balance
    /// diagnostics).
    pub fn loads(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.lock().stored_bytes())
            .collect()
    }

    /// The provider nodes, in topology order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Drop all simulated page caches (ablations).
    pub fn drop_caches(&self) {
        for s in &self.shards {
            s.lock().drop_caches();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let mut p = Provider::new();
        p.put(ChunkId(1), Payload::synth(7, 0, 100));
        let (data, hot) = p.get(ChunkId(1)).unwrap();
        assert!(data.content_eq(&Payload::synth(7, 0, 100)));
        assert!(hot, "fresh writes are page-cache hot");
        assert_eq!(p.stored_bytes(), 100);
    }

    #[test]
    fn missing_chunk_is_none() {
        let mut p = Provider::new();
        assert!(p.get(ChunkId(9)).is_none());
    }

    #[test]
    fn cold_read_then_hot() {
        let mut p = Provider::new();
        p.put(ChunkId(1), Payload::zeros(10));
        p.drop_caches();
        let (_, hot1) = p.get(ChunkId(1)).unwrap();
        assert!(!hot1, "first read after cache drop is cold");
        let (_, hot2) = p.get(ChunkId(1)).unwrap();
        assert!(hot2, "second read is hot");
    }

    #[test]
    fn idempotent_put_does_not_double_count() {
        let mut p = Provider::new();
        assert_eq!(p.put(ChunkId(1), Payload::zeros(100)), (100, true));
        assert_eq!(p.put(ChunkId(1), Payload::zeros(100)), (0, false));
        assert_eq!(p.stored_bytes(), 100);
        assert_eq!(p.chunk_count(), 1);
    }

    #[test]
    fn counters_stay_truthful_on_length_changing_reput() {
        // Chunk ids never carry different data in the protocol, but the
        // counters must not silently drift if that assumption is ever
        // broken: a length-changing re-put and a zero-length chunk both
        // keep aggregates equal to the per-shard truth.
        let store = ProviderStore::new(&[NodeId(0)]);
        store.put(NodeId(0), ChunkId(1), Payload::zeros(100));
        store.put(NodeId(0), ChunkId(1), Payload::zeros(50));
        assert_eq!(store.total_stored_bytes(), 50);
        assert_eq!(store.loads(), vec![50]);
        assert_eq!(store.total_chunks(), 1);
        store.put(NodeId(0), ChunkId(2), Payload::zeros(0));
        assert_eq!(store.total_chunks(), 2, "empty chunks are still chunks");
    }

    #[test]
    fn retain_release_lifecycle() {
        let mut p = Provider::new();
        p.put(ChunkId(1), Payload::zeros(100));
        assert_eq!(p.refcount(ChunkId(1)), Some(1));
        assert!(p.retain(ChunkId(1)));
        assert_eq!(p.refcount(ChunkId(1)), Some(2));
        assert_eq!(p.release(ChunkId(1)), (0, false, true));
        // Final release frees the chunk.
        assert_eq!(p.release(ChunkId(1)), (100, true, true));
        assert!(p.get(ChunkId(1)).is_none());
        assert_eq!(p.stored_bytes(), 0);
        // Double release after removal: no-op, never underflows.
        assert_eq!(p.release(ChunkId(1)), (0, false, false));
        assert_eq!(p.refcount(ChunkId(1)), None);
        // Retaining an absent chunk fails cleanly.
        assert!(!p.retain(ChunkId(1)));
    }

    #[test]
    fn store_release_maintains_aggregates() {
        let store = ProviderStore::new(&[NodeId(0), NodeId(1)]);
        store.put(NodeId(0), ChunkId(1), Payload::zeros(64));
        store.put(NodeId(1), ChunkId(1), Payload::zeros(64)); // replica
        assert!(store.retain(NodeId(0), ChunkId(1)));
        assert_eq!(store.refcount(NodeId(0), ChunkId(1)), Some(2));
        // Release down to zero on node 0 only.
        assert!(store.release(NodeId(0), ChunkId(1)));
        assert!(store.release(NodeId(0), ChunkId(1)));
        assert!(!store.release(NodeId(0), ChunkId(1)), "no underflow");
        assert_eq!(store.total_stored_bytes(), 64, "replica on 1 remains");
        assert_eq!(store.total_chunks(), 1);
        assert_eq!(store.loads(), vec![0, 64]);
        // Unknown node is a clean no-op.
        assert!(!store.retain(NodeId(9), ChunkId(1)));
        assert!(!store.release(NodeId(9), ChunkId(1)));
    }

    #[test]
    fn store_addresses_by_node_and_tracks_totals() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let store = ProviderStore::new(&nodes);
        assert_eq!(store.len(), 4);
        assert!(store.contains(NodeId(2)));
        assert!(!store.contains(NodeId(9)));
        assert!(store.put(NodeId(1), ChunkId(1), Payload::zeros(64)));
        assert!(store.put(NodeId(3), ChunkId(2), Payload::zeros(36)));
        // Idempotent replica retry does not double count.
        assert!(store.put(NodeId(1), ChunkId(1), Payload::zeros(64)));
        assert!(!store.put(NodeId(9), ChunkId(3), Payload::zeros(8)));
        assert_eq!(store.total_stored_bytes(), 100);
        assert_eq!(store.total_chunks(), 2);
        assert_eq!(store.loads(), vec![0, 64, 0, 36]);
        let (data, _) = store.lock(NodeId(1)).unwrap().get(ChunkId(1)).unwrap();
        assert_eq!(data.len(), 64);
    }

    #[test]
    fn distinct_provider_shards_do_not_contend() {
        // Two threads each take and hold a different provider's shard at
        // the same time; a shared store lock would deadlock this rendezvous
        // (both threads must be inside their critical section concurrently
        // before either leaves).
        let store = Arc::new(ProviderStore::new(&[NodeId(0), NodeId(1)]));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = [NodeId(0), NodeId(1)]
            .into_iter()
            .map(|node| {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut shard = store.lock(node).unwrap();
                    // Rendezvous *while holding* the shard: only possible
                    // if the two locks are independent.
                    barrier.wait();
                    shard.put(ChunkId(node.0 as u64 + 1), Payload::zeros(10));
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no deadlock between distinct shards");
        }
        assert_eq!(store.loads(), vec![10, 10]);
    }

    #[test]
    fn totals_are_lock_free_under_a_held_shard() {
        // Aggregate metrics must not take shard locks: read them while a
        // shard guard is held.
        let store = ProviderStore::new(&[NodeId(0), NodeId(1)]);
        store.put(NodeId(1), ChunkId(1), Payload::zeros(50));
        let _held = store.lock(NodeId(0)).unwrap();
        assert_eq!(store.total_stored_bytes(), 50);
        assert_eq!(store.total_chunks(), 1);
    }
}
