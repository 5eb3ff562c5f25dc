//! The per-node shared metadata/cache module ([`NodeContext`]).
//!
//! The paper's compute nodes run one FUSE process per node, shared by
//! every co-located VM (§3.1.3, §4.1): its metadata cache and dedup
//! knowledge are node-wide, not per-image. This module is that process's
//! state in our model. Every [`crate::Client`] created for a node
//! attaches to the node's `NodeContext` (the [`crate::BlobStore`] keeps
//! one per node), so co-located clients share:
//!
//! * **The chunk-descriptor cache** — per-`(blob, version)` entries of
//!   resolved chunk descriptors, sharded like
//!   [`crate::provider::ProviderStore`] slots (one lock per shard, so
//!   co-located VMs resolving different snapshots never contend), with
//!   per-entry LRU eviction bounded by
//!   [`crate::BlobConfig::desc_cache_versions`]. Snapshots are immutable,
//!   so entries are never *stale* — the bound only caps memory. This
//!   replaces the old per-client cache whose wholesale eviction flushed
//!   everything once a client had touched too many versions.
//! * **The tree-node cache** — `NodeKey → TreeNode`, every segment-tree
//!   node a descent on this node has fetched or a commit from this node
//!   has stored. A snapshot shares all but the changed paths of its tree
//!   with the version it was made from, so a handle resolving a version
//!   the node has never opened fetches the *diff* against what the node
//!   has seen, not the tree. Sharing is safe because node keys are
//!   reserved through the version manager's journal before the ack and
//!   never reused, a stored node is never rewritten, and a node that was
//!   not stored (a failed commit) is never inserted; a cached node no
//!   live root reaches is unreachable, not wrong. One lock, taken once
//!   per descent level for the batch lookup and once for the batch
//!   insert; bounded by [`TREE_NODE_CACHE_ENTRIES`] and evicted
//!   least-recently-*used* (the base image's nodes carry the oldest keys
//!   and are the hottest). Deletes drop nothing here: recency ages dead
//!   nodes out.
//! * **The version facts** — `(blob, version) →` root, size, chunk size
//!   and span, fixed at publish, so opening a version the node knows
//!   costs no version-manager call. Bounded with the trackers by
//!   `desc_cache_versions`; [`NodeContext::purge_version`] drops them, so
//!   a delete through any handle of the store ends every handle's
//!   ability to resolve the version — an answer a racing reader obtained
//!   before the purge is not filed after it. (The fan-out is per
//!   [`crate::BlobStore`]: a second client *process* learns of a delete
//!   when its entry ages out, exactly like its descriptor cache.)
//!
//! These two took over from the per-handle maps `Client` used to own,
//! which were born empty on every boot and every GC.
//! * **The content-digest index** — maps `(length, digest)` of committed
//!   chunk payloads to their live descriptors. `Client::write_chunks`
//!   consults it before pushing replicas: a chunk whose content already
//!   has live replicas is committed *by reference* (descriptor reuse plus
//!   a provider-side refcount bump) instead of re-replicated, so snapshot
//!   storage grows with dirty *unique* bytes, not dirty bytes (§3.1.3's
//!   dedup claim, now exploited on the write side).
//! * **The access trackers and chunk-data cache** — the node half of the
//!   adaptive prefetching pipeline. Trackers record each snapshot's
//!   first-touch chunk order (batched into
//!   [`crate::board::PatternBoard`] publishes), the node's *replica* of
//!   the board's merged peer sequence (see [`crate::board`]) and the
//!   prefetcher's claim/cursor state over it; the chunk cache holds
//!   prefetched (and, while prefetching is on, demand-fetched) chunk
//!   payloads that `Client::read_multi` serves without touching
//!   providers — which is also how co-located VMs share each other's
//!   fetched data.
//!
//! Every one of these is bounded by one [`LruMap`] (the descriptor
//! cache by one per shard): an entry bound for the version-keyed state
//! and the two indexes, a byte bound for the chunk cache, whose evicted
//! entries come back so unused read-ahead still counts as waste.
//! Aggregate hit/miss, dedup and prefetch counters are atomics:
//! experiments read them without stopping the data plane.

use crate::api::{BlobConfig, BlobId, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
use bff_data::{ContentKey, DigestIndex, FastMap, FastSet, LruMap, Payload, RangeSet, U64Hasher};
use bff_wire::msg::{BoardSync, VersionInfo};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Descriptor-cache shards per node. Like the provider store, sharding
/// exists so concurrent co-located clients touching *different*
/// snapshots never contend on one lock; 8 shards cover the per-node VM
/// counts of the paper's multideployment experiments.
pub const DESC_SHARDS: usize = 8;

/// Entry bound of the node-shared tree-node cache. A cached node is
/// ~100 B (key, stamp, two child keys or a descriptor, queue slot), so
/// the bound is ≈ 6 MiB per node: 200 × the ≈ 300 nodes a rotating
/// boot/snapshot/GC storm keeps live per node, 10 × a cold deployment of
/// 48 images of 127 nodes each. A constant, not a [`BlobConfig`] field:
/// no caller needs a second value, and a miss costs one metadata round.
pub const TREE_NODE_CACHE_ENTRIES: usize = 1 << 16;

/// First-touch accesses a node accumulates before publishing a summary
/// batch to the cluster [`crate::board::PatternBoard`]. Batching keeps
/// the control traffic one small message per several chunk faults
/// instead of one per fault; keeping the batch small keeps the pattern
/// *timely* — a peer one batch behind still prefetches most of the
/// window.
pub const PUBLISH_BATCH: usize = 8;

/// Cap on the first-touch sequence recorded per `(blob, version)`:
/// beyond this, accesses still count for dedup/seen purposes but the
/// *order* stops growing (a boot touches a few thousand chunks; the cap
/// only guards against pathological full-image scans).
const ACCESS_ORDER_CAP: usize = 1 << 14;

/// How a chunk payload entered the node-shared chunk cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOrigin {
    /// Fetched ahead of need by the prefetch pipeline.
    Prefetch,
    /// Fetched by a demand read (cached so co-located VMs share it).
    Demand,
}

/// Per-`(blob, version)` access-pattern state: what this node has
/// touched (and in which first-touch order), how much of that order has
/// been published to the cluster board, what the board has sent back
/// (the node's replica of the merged peer sequence), and how far into it
/// the node's prefetcher has advanced.
#[derive(Debug, Default)]
struct AccessTracker {
    /// Chunk indices this node has accessed (demand reads).
    seen: FastSet<u64>,
    /// First-touch order of `seen` (bounded by [`ACCESS_ORDER_CAP`]).
    order: Vec<u64>,
    /// Prefix of `order` already published to the board.
    published: usize,
    /// Chunk indices the prefetcher has already claimed (fetched or
    /// in flight) — never re-claimed, so a chunk is prefetched at most
    /// once per node.
    claimed: FastSet<u64>,
    /// The replica: the prefix of the board's merged peer sequence this
    /// node has been sent, in board order (the board only appends).
    peer_seq: Vec<u64>,
    /// Whether each replica entry was cohort-confirmed when it was sent
    /// (membership of `peer_seq` by chunk index). A reply never repeats
    /// an entry, so a flag can lag the board's.
    peer_confirmed: FastMap<u64, bool>,
    /// Whether the snapshot had a cohort (enough distinct publishers for
    /// the confidence filter to apply) at the last sync.
    cohort: bool,
    /// Position in `peer_seq` up to which candidates have been consumed.
    cursor: usize,
}

/// One payload in the node-shared chunk-data cache (prefetched and
/// demand-fetched chunks, keyed by [`ChunkId`], weighed in bytes). Chunk
/// ids are never reused and a chunk's bytes are immutable while any
/// descriptor references it, so entries can never go stale — the bound
/// only caps memory.
#[derive(Debug)]
struct CachedChunk {
    data: Payload,
    origin: ChunkOrigin,
    /// Whether a demand read ever consumed this entry.
    used: bool,
}

impl CachedChunk {
    /// Read ahead and not yet consumed by a demand read: its first hit
    /// is a prefetch hit, its eviction prefetch waste.
    fn unused_prefetch(&self) -> bool {
        self.origin == ChunkOrigin::Prefetch && !self.used
    }
}

/// Snapshot of a context's prefetch counters (see
/// [`NodeContext::prefetch_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Chunks fetched ahead of need by [`crate::Client::prefetch_chunks`].
    pub prefetched_chunks: u64,
    /// Payload bytes those fetches moved.
    pub prefetched_bytes: u64,
    /// Demand chunk reads served from a *prefetched* cache entry.
    pub hits: u64,
    /// Payload bytes those hits did not re-fetch from providers.
    pub hit_bytes: u64,
    /// Prefetched entries evicted (or overwritten) without ever serving
    /// a demand read — the waste half of the hit/waste trade-off.
    pub wasted_chunks: u64,
    /// Demand chunk reads served from the cache regardless of entry
    /// origin (includes co-located demand sharing).
    pub cache_hits: u64,
    /// Chunks resident in the node's chunk cache right now.
    pub cached_chunks: usize,
    /// Bytes resident in the node's chunk cache right now.
    pub cached_bytes: u64,
}

impl PrefetchStats {
    /// Fraction of prefetched chunks that served a demand read, in
    /// `[0, 1]` (0 when nothing was prefetched).
    pub fn hit_rate(&self) -> f64 {
        if self.prefetched_chunks == 0 {
            return 0.0;
        }
        self.hits as f64 / self.prefetched_chunks as f64
    }
}

/// The resolved chunk descriptors of one snapshot (the paper's §4.1
/// metadata cache). An index inside `resolved` but absent from `descs`
/// is a known-unwritten chunk (reads as zeros) — that negative knowledge
/// also skips the metadata plane on re-reads.
#[derive(Debug, Clone, Default)]
pub struct DescCache {
    /// Chunk-index ranges already resolved against the metadata plane.
    pub(crate) resolved: RangeSet,
    /// Descriptors of the resolved chunks that exist.
    pub(crate) descs: FastMap<u64, ChunkDesc>,
}

/// Snapshot of a context's aggregate counters (see
/// [`NodeContext::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Chunk lookups served from the descriptor cache (incl. negative
    /// knowledge).
    pub desc_hits: u64,
    /// Chunk lookups that needed a metadata-plane descent.
    pub desc_misses: u64,
    /// Commit chunks published by reference instead of re-replicated.
    pub dedup_hits: u64,
    /// Payload bytes those reference commits did *not* push.
    pub dedup_reused_bytes: u64,
    /// `(blob, version)` entries currently cached.
    pub desc_entries: usize,
    /// Tree nodes a descent found in the node-shared tree-node cache.
    pub node_hits: u64,
    /// Tree nodes a descent had to fetch from the metadata shards.
    pub node_misses: u64,
}

impl CacheStats {
    /// Descriptor-cache hit rate in `[0, 1]` (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.desc_hits + self.desc_misses;
        if total == 0 {
            return 0.0;
        }
        self.desc_hits as f64 / total as f64
    }
}

/// What the version manager said per `(blob, version)`, and how many
/// purges the map has seen: an answer obtained before a purge is not
/// filed after it (see [`NodeContext::record_version_facts`]).
#[derive(Debug)]
struct VersionFacts {
    known: LruMap<(BlobId, Version), VersionInfo>,
    purges: u64,
}

/// The node-shared cache module (see module docs).
#[derive(Debug)]
pub struct NodeContext {
    /// The descriptor cache. The node-wide entry bound is distributed
    /// exactly over the shards (shard `i` holds `capacity/n + (i <
    /// capacity % n)` entries), so the configured `desc_cache_versions`
    /// is honored to the entry — never rounded up per shard.
    shards: Vec<Mutex<LruMap<(BlobId, Version), DescCache>>>,
    capacity: usize,
    desc_hits: AtomicU64,
    desc_misses: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_reused_bytes: AtomicU64,
    digests: Mutex<DigestIndex<ChunkDesc>>,
    /// Every tree node this node has fetched or stored (see module docs).
    tree_nodes: Mutex<LruMap<NodeKey, TreeNode>>,
    node_hits: AtomicU64,
    node_misses: AtomicU64,
    /// The version manager's answer per `(blob, version)`, bounded like
    /// the trackers and dropped by [`NodeContext::purge_version`].
    versions: Mutex<VersionFacts>,
    /// Per-`(blob, version)` access-pattern trackers (prefetch plane),
    /// bounded like the descriptor cache.
    trackers: Mutex<LruMap<(BlobId, Version), AccessTracker>>,
    /// The node-shared chunk-data cache (prefetch plane), bounded in
    /// bytes.
    chunks: Mutex<LruMap<ChunkId, CachedChunk>>,
    /// Whether `chunks` can hold anything (prefetch on, non-zero
    /// bound): a disabled cache answers without taking its lock.
    chunk_cache_on: bool,
    /// Whether a background read-ahead step is currently in flight for
    /// this node (one at a time: the in-flight budget is one
    /// `prefetch_window`-sized step).
    prefetch_inflight: std::sync::atomic::AtomicBool,
    prefetched_chunks: AtomicU64,
    prefetched_bytes: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_hit_bytes: AtomicU64,
    prefetch_wasted: AtomicU64,
    chunk_cache_hits: AtomicU64,
}

impl NodeContext {
    /// A context sized from the service configuration. Small capacities
    /// use fewer shards so every shard keeps a bound ≥ 1 while the
    /// total stays exactly `desc_cache_versions`.
    pub fn new(cfg: &BlobConfig) -> Self {
        Self::with_tree_node_capacity(cfg, TREE_NODE_CACHE_ENTRIES)
    }

    /// [`NodeContext::new`] with an explicit tree-node bound (tests of
    /// the bound itself; 0 disables the cache).
    pub(crate) fn with_tree_node_capacity(cfg: &BlobConfig, tree_nodes: usize) -> Self {
        let capacity = cfg.desc_cache_versions.max(1);
        let shard_count = DESC_SHARDS.min(capacity);
        let chunk_cache_bytes = if cfg.prefetch {
            cfg.chunk_cache_bytes
        } else {
            0
        };
        Self {
            shards: (0..shard_count)
                .map(|i| capacity / shard_count + usize::from(i < capacity % shard_count))
                .map(|bound| Mutex::new(LruMap::new(bound)))
                .collect(),
            capacity,
            desc_hits: AtomicU64::new(0),
            desc_misses: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup_reused_bytes: AtomicU64::new(0),
            digests: Mutex::new(DigestIndex::new(cfg.digest_index_chunks)),
            tree_nodes: Mutex::new(LruMap::new(tree_nodes)),
            node_hits: AtomicU64::new(0),
            node_misses: AtomicU64::new(0),
            versions: Mutex::new(VersionFacts {
                known: LruMap::new(capacity),
                purges: 0,
            }),
            trackers: Mutex::new(LruMap::new(capacity)),
            chunks: Mutex::new(LruMap::new(
                usize::try_from(chunk_cache_bytes).unwrap_or(usize::MAX),
            )),
            chunk_cache_on: chunk_cache_bytes > 0,
            prefetch_inflight: std::sync::atomic::AtomicBool::new(false),
            prefetched_chunks: AtomicU64::new(0),
            prefetched_bytes: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_hit_bytes: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            chunk_cache_hits: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &(BlobId, Version)) -> usize {
        let mut h = U64Hasher::default();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Run `f` over the entry for `key`, creating it empty if absent and
    /// marking it most-recently used. Inserting into a full shard evicts
    /// that shard's least-recently-used entry — and only that entry; the
    /// rest of the cache is untouched (unlike the old wholesale clear).
    pub fn with_entry<R>(&self, key: (BlobId, Version), f: impl FnOnce(&mut DescCache) -> R) -> R {
        let mut shard = self.shards[self.shard_of(&key)].lock();
        f(shard
            .get_or_insert_with(key, DescCache::default)
            .expect("every shard holds at least one entry"))
    }

    /// Clone the entry for `key` if cached (marks it used). The CLONE
    /// carryover path: a clone's `Version(1)` *is* the source tree.
    pub fn entry_snapshot(&self, key: (BlobId, Version)) -> Option<DescCache> {
        self.shards[self.shard_of(&key)]
            .lock()
            .get_refresh(&key)
            .cloned()
    }

    /// Remove and return the entry for `key`. The COMMIT seeding path
    /// *moves* the base version's entry onto the new snapshot — cloning
    /// would copy O(resolved chunks) per commit along a commit chain.
    pub fn take_entry(&self, key: (BlobId, Version)) -> Option<DescCache> {
        self.shards[self.shard_of(&key)].lock().remove(&key)
    }

    /// Insert (or replace) the entry for `key`, marking it
    /// most-recently used and evicting the shard's LRU entry if needed.
    pub fn insert_entry(&self, key: (BlobId, Version), cache: DescCache) {
        self.shards[self.shard_of(&key)].lock().insert(key, cache);
    }

    /// Total `(blob, version)` entries cached right now.
    pub fn desc_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// The node-wide entry bound (`desc_entries` never exceeds it);
    /// exactly the configured `desc_cache_versions`.
    pub fn desc_capacity(&self) -> usize {
        self.capacity
    }

    /// Record the outcome of a descriptor resolution: `hits` chunks came
    /// from the cache, `misses` needed the metadata plane.
    pub(crate) fn note_desc_lookup(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.desc_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.desc_misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Record a commit-by-reference of `chunks` chunks / `bytes` bytes.
    pub(crate) fn note_dedup(&self, chunks: u64, bytes: u64) {
        self.dedup_hits.fetch_add(chunks, Ordering::Relaxed);
        self.dedup_reused_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Look up a content key in the digest index.
    pub(crate) fn digest_lookup(&self, key: &ContentKey) -> Option<ChunkDesc> {
        self.digests.lock().get(key).cloned()
    }

    /// Record (or refresh) the descriptor holding `key`'s content.
    pub(crate) fn digest_record(&self, key: ContentKey, desc: ChunkDesc) {
        self.digests.lock().insert(key, desc);
    }

    /// Drop a digest entry found stale (no live replicas retained).
    pub(crate) fn digest_forget(&self, key: &ContentKey) {
        self.digests.lock().remove(key);
    }

    /// Number of content keys currently indexed.
    pub fn digest_entries(&self) -> usize {
        self.digests.lock().len()
    }

    // --- Immutable metadata: tree nodes and version facts -------------

    /// Batch lookup for one descent level: one lock acquisition, a hit
    /// marks the node most-recently used.
    pub(crate) fn tree_nodes_get(&self, keys: &[NodeKey]) -> Vec<Option<TreeNode>> {
        let found: Vec<Option<TreeNode>> = {
            let mut cache = self.tree_nodes.lock();
            keys.iter().map(|k| cache.get_refresh(k).cloned()).collect()
        };
        let hits = found.iter().flatten().count() as u64;
        self.node_hits.fetch_add(hits, Ordering::Relaxed);
        self.node_misses
            .fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
        found
    }

    /// Batch insert, one lock acquisition. Only nodes the metadata
    /// shards hold may be inserted — fetched ones, or stored ones after
    /// the write was acknowledged — because every co-located handle
    /// trusts what it finds here.
    pub(crate) fn tree_nodes_insert(&self, nodes: impl IntoIterator<Item = (NodeKey, TreeNode)>) {
        let mut cache = self.tree_nodes.lock();
        for (key, node) in nodes {
            cache.insert(key, node);
        }
    }

    /// Tree nodes cached right now (never above
    /// [`TREE_NODE_CACHE_ENTRIES`]).
    pub fn tree_node_entries(&self) -> usize {
        self.tree_nodes.lock().len()
    }

    /// What this node knows about `(blob, version)`; on a miss, the
    /// purge count to hand back to [`NodeContext::record_version_facts`]
    /// with the version manager's answer.
    pub(crate) fn version_facts(&self, key: (BlobId, Version)) -> Result<VersionInfo, u64> {
        let mut facts = self.versions.lock();
        facts.known.get_refresh(&key).copied().ok_or(facts.purges)
    }

    /// Purges applied to the version facts so far: read it *before*
    /// asking the version manager (a commit does, before it publishes).
    pub(crate) fn version_purges(&self) -> u64 {
        self.versions.lock().purges
    }

    /// Remember the version manager's answer for `key` (or what a
    /// commit from this node just published) — unless a purge ran since
    /// the caller saw purge count `seen`: the answer may then predate a
    /// delete of `key`, and a deleted version must not come back into a
    /// map every co-located handle trusts. The caller's own operation
    /// began before that delete and may still use the answer; the next
    /// one asks again.
    pub(crate) fn record_version_facts(
        &self,
        key: (BlobId, Version),
        info: VersionInfo,
        seen: u64,
    ) {
        let mut facts = self.versions.lock();
        if facts.purges == seen {
            facts.known.insert(key, info);
        }
    }

    /// CLONE made `alias` a second name for the tree `key` names: if the
    /// node knows `key`, it knows `alias` — same root, size, chunk size
    /// and span. One lock, so the copy cannot straddle a purge: either
    /// `key` is still known (the version manager just cloned it, so it
    /// was live, and nobody can have deleted a clone this call has not
    /// returned yet) or nothing is filed and the next lookup asks.
    pub(crate) fn alias_version_facts(&self, key: (BlobId, Version), alias: (BlobId, Version)) {
        let mut facts = self.versions.lock();
        if let Some(info) = facts.known.get_refresh(&key).copied() {
            facts.known.insert(alias, info);
        }
    }

    /// Snapshot-delete eviction, version-keyed state: drop the deleted
    /// `(blob, version)`'s facts, descriptor-cache entry and access
    /// tracker. Without its facts no handle on this node resolves the
    /// version again — the next attempt asks the version manager and
    /// gets `NoSuchVersion`. The other two would not corrupt anything
    /// (snapshots are immutable and chunk ids are never reused), but
    /// they would pin memory for a snapshot that can never be read again.
    pub fn purge_version(&self, key: (BlobId, Version)) {
        {
            let mut facts = self.versions.lock();
            facts.known.remove(&key);
            facts.purges += 1;
        }
        self.take_entry(key);
        self.trackers.lock().remove(&key);
    }

    /// Snapshot-delete eviction, chunk-keyed state: drop freed chunk
    /// ids from the digest index (a later identical commit must push
    /// fresh, not reference a reclaimed chunk) and from the chunk-data
    /// cache (the payload has no live referents left). Prefetched
    /// entries evicted this way count as waste — the read-ahead moved
    /// bytes no demand read ever consumed.
    pub fn purge_chunks(&self, freed: &FastSet<ChunkId>) {
        self.digests
            .lock()
            .remove_matching(|_, desc| freed.contains(&desc.id));
        let mut cache = self.chunks.lock();
        for id in freed {
            if cache.remove(id).is_some_and(|e| e.unused_prefetch()) {
                self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Payload bytes committed by reference so far, node-wide across
    /// every attached client — one Relaxed atomic load, no locks. For
    /// per-commit attribution use
    /// `Client::write_chunks_accounted` instead: deltas of this shared
    /// counter interleave across co-located committers.
    pub fn dedup_reused_bytes(&self) -> u64 {
        self.dedup_reused_bytes.load(Ordering::Relaxed)
    }

    // --- Access-pattern tracking (the prefetch plane) ---------------

    /// Run `f` over the tracker for `key`, creating it if absent and
    /// marking it most-recently used. Trackers are per-`(blob, version)`
    /// state of the same lifecycle class as descriptor-cache entries,
    /// so they share the `desc_cache_versions` bound: inserting beyond
    /// it evicts the least-recently-used tracker (an evicted snapshot's
    /// pattern state simply rebuilds if it is ever deployed again).
    fn with_tracker<R>(
        &self,
        key: (BlobId, Version),
        f: impl FnOnce(&mut AccessTracker) -> R,
    ) -> R {
        let mut trackers = self.trackers.lock();
        f(trackers
            .get_or_insert_with(key, AccessTracker::default)
            .expect("the tracker bound is at least one"))
    }

    /// Record demand accesses to chunk `indices` of `key`, in access
    /// order (first touch counts; repeats are free). Returns a batch of
    /// so-far-unpublished first-touch indices once at least
    /// [`PUBLISH_BATCH`] have accumulated — the caller ships that batch
    /// to the cluster [`crate::board::PatternBoard`] and charges the
    /// fabric for it.
    pub fn note_accesses(
        &self,
        key: (BlobId, Version),
        indices: impl IntoIterator<Item = u64>,
    ) -> Option<Vec<u64>> {
        self.with_tracker(key, |t| {
            for idx in indices {
                if t.seen.insert(idx) && t.order.len() < ACCESS_ORDER_CAP {
                    t.order.push(idx);
                }
            }
            if t.order.len() - t.published >= PUBLISH_BATCH {
                let batch = t.order[t.published..].to_vec();
                t.published = t.order.len();
                Some(batch)
            } else {
                None
            }
        })
    }

    /// The subset of a first-touch `batch` still worth publishing, judged
    /// by the node's board replica: the indices the replica does not
    /// hold, plus held ones it has not seen cohort-confirmed (an extra
    /// confirmation strengthens the confidence signal). Once the pattern
    /// has both converged *and* been confirmed the control plane goes
    /// quiet. Also returns the replica's length — where the publish's
    /// reply should start.
    pub fn unconfirmed_of(&self, key: (BlobId, Version), batch: Vec<u64>) -> (Vec<u64>, usize) {
        self.with_tracker(key, |t| {
            let novel = batch
                .into_iter()
                .filter(|idx| !t.peer_confirmed.get(idx).copied().unwrap_or(false))
                .collect();
            (novel, t.peer_seq.len())
        })
    }

    /// File the board's answer to a sync this node sent with its replica
    /// at `from` entries. Returns whether the replica now extends past
    /// the prefetch cursor.
    ///
    /// Entries a co-located handle's sync filed in the meantime are
    /// skipped; an answer that starts past the replica's end (the
    /// tracker was evicted and rebuilt since) is dropped — the next sync
    /// asks from the right place. A board whose sequence is *shorter*
    /// than `from` has lost the pattern (eviction, restart): the replica
    /// describes a sequence that no longer exists and starts over.
    pub fn board_synced(&self, key: (BlobId, Version), from: usize, sync: BoardSync) -> bool {
        self.with_tracker(key, |t| {
            if sync.len < from {
                t.peer_seq.clear();
                t.peer_confirmed.clear();
                t.cursor = 0;
            } else if let Some(known) = t.peer_seq.len().checked_sub(from) {
                for (idx, confirmed) in sync.tail.into_iter().skip(known) {
                    t.peer_seq.push(idx);
                    t.peer_confirmed.insert(idx, confirmed);
                }
            }
            t.cohort = sync.cohort;
            t.cursor < t.peer_seq.len()
        })
    }

    /// Claim the next up-to-`max` prefetch candidates for `key` out of
    /// the node's replica of the peer access sequence: chunks this node
    /// has neither accessed nor already claimed. Claimed chunks are never
    /// handed out twice, so each chunk is prefetched at most once per
    /// node; the per-key cursor makes repeated calls walk the replica
    /// incrementally.
    ///
    /// Once the snapshot has a cohort, entries the replica has not seen
    /// confirmed — chunks only one cohort member reported — are walked
    /// past *without* claiming. They stay on demand; skipping them is
    /// the waste the confidence filter trades for. A chunk confirmed
    /// only after the cursor passed it is simply never prefetched —
    /// best-effort, like every other prefetch miss.
    pub fn claim_prefetch(&self, key: (BlobId, Version), max: usize) -> Vec<u64> {
        if max == 0 {
            return Vec::new();
        }
        self.with_tracker(key, |t| {
            let mut out = Vec::new();
            while t.cursor < t.peer_seq.len() && out.len() < max {
                let idx = t.peer_seq[t.cursor];
                let ok = !t.cohort || t.peer_confirmed[&idx];
                t.cursor += 1;
                if ok && !t.seen.contains(&idx) && t.claimed.insert(idx) {
                    out.push(idx);
                }
            }
            out
        })
    }

    /// Where the prefetcher stands on `key`: whether the replica extends
    /// past the cursor (may be a false positive when the remainder is
    /// already seen — [`NodeContext::claim_prefetch`] settles that), the
    /// replica's length, and how many distinct chunks of the snapshot
    /// this node has touched.
    pub fn prefetch_progress(&self, key: (BlobId, Version)) -> (bool, usize, usize) {
        self.trackers.lock().get(&key).map_or((false, 0, 0), |t| {
            (t.cursor < t.peer_seq.len(), t.peer_seq.len(), t.seen.len())
        })
    }

    // --- The node-shared chunk-data cache ---------------------------

    /// Look up a read's chunk payloads in the node-shared chunk cache,
    /// under one lock acquisition for the whole lookup plan. A hit marks
    /// the entry used (a prefetched entry's first use counts toward the
    /// prefetch hit statistics) and most-recently used.
    pub fn chunk_cache_get_batch(&self, ids: &[ChunkId]) -> Vec<Option<Payload>> {
        if !self.chunk_cache_on || ids.is_empty() {
            return vec![None; ids.len()];
        }
        let mut cache = self.chunks.lock();
        ids.iter()
            .map(|id| {
                let entry = cache.get_refresh_mut(id)?;
                if entry.unused_prefetch() {
                    self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                    self.prefetch_hit_bytes
                        .fetch_add(entry.data.len(), Ordering::Relaxed);
                }
                entry.used = true;
                self.chunk_cache_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.data.clone())
            })
            .collect()
    }

    /// Whether a chunk is resident in the node-shared chunk cache,
    /// without touching hit statistics or LRU order (prefetch-side
    /// dedup check, not a demand read).
    pub fn chunk_cache_contains(&self, id: ChunkId) -> bool {
        self.chunk_cache_on && self.chunks.lock().get(&id).is_some()
    }

    /// Insert a fetched chunk into the node-shared cache, evicting LRU
    /// entries past the byte bound. An already-present id is only
    /// refreshed (chunk ids are immutable content — re-inserting the
    /// same bytes is a no-op).
    pub fn chunk_cache_insert(&self, id: ChunkId, data: Payload, origin: ChunkOrigin) {
        if !self.chunk_cache_on {
            return;
        }
        let mut cache = self.chunks.lock();
        if cache.get_refresh(&id).is_some() {
            return;
        }
        let bytes = data.len();
        let entry = CachedChunk {
            data,
            origin,
            used: false,
        };
        for (_, evicted) in cache.insert_weighted(id, entry, bytes) {
            if evicted.unused_prefetch() {
                self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Try to claim the node's single background read-ahead slot.
    /// Returns `false` while a step is already in flight — the caller
    /// skips this idle burst rather than queueing (the in-flight budget
    /// is one bounded step per node).
    pub fn try_begin_prefetch(&self) -> bool {
        !self
            .prefetch_inflight
            .swap(true, std::sync::atomic::Ordering::AcqRel)
    }

    /// Release the read-ahead slot (paired with
    /// [`NodeContext::try_begin_prefetch`]).
    pub fn end_prefetch(&self) {
        self.prefetch_inflight
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Record that the prefetcher landed `chunks` chunks / `bytes` bytes
    /// in the cache.
    pub(crate) fn note_prefetched(&self, chunks: u64, bytes: u64) {
        self.prefetched_chunks.fetch_add(chunks, Ordering::Relaxed);
        self.prefetched_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Prefetch/chunk-cache counters (one lock for the residency pair,
    /// atomics otherwise).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        let (cached_chunks, cached_bytes) = {
            let cache = self.chunks.lock();
            (cache.len(), cache.weight())
        };
        PrefetchStats {
            prefetched_chunks: self.prefetched_chunks.load(Ordering::Relaxed),
            prefetched_bytes: self.prefetched_bytes.load(Ordering::Relaxed),
            hits: self.prefetch_hits.load(Ordering::Relaxed),
            hit_bytes: self.prefetch_hit_bytes.load(Ordering::Relaxed),
            wasted_chunks: self.prefetch_wasted.load(Ordering::Relaxed),
            cache_hits: self.chunk_cache_hits.load(Ordering::Relaxed),
            cached_chunks,
            cached_bytes,
        }
    }

    /// Aggregate counters, read lock-free except for the entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            desc_hits: self.desc_hits.load(Ordering::Relaxed),
            desc_misses: self.desc_misses.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_reused_bytes: self.dedup_reused_bytes.load(Ordering::Relaxed),
            desc_entries: self.desc_entries(),
            node_hits: self.node_hits.load(Ordering::Relaxed),
            node_misses: self.node_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ChunkId;
    use bff_net::NodeId;
    use std::sync::Arc;

    fn ctx(versions: usize) -> NodeContext {
        NodeContext::new(&BlobConfig {
            desc_cache_versions: versions,
            ..Default::default()
        })
    }

    fn desc(id: u64) -> ChunkDesc {
        ChunkDesc {
            id: ChunkId(id),
            replicas: Arc::from([NodeId(0)].as_slice()),
        }
    }

    #[test]
    fn entries_bounded_and_lru_evicted_per_shard() {
        let c = ctx(16);
        assert_eq!(c.desc_capacity(), 16);
        // Insert far more entries than capacity.
        for v in 1..=200u64 {
            c.with_entry((BlobId(1), Version(v)), |e| {
                e.descs.insert(0, desc(v));
            });
        }
        assert!(c.desc_entries() <= c.desc_capacity());
        // The most recent entry survived (it is the newest in its shard).
        assert!(c.entry_snapshot((BlobId(1), Version(200))).is_some());
    }

    #[test]
    fn capacity_is_exact_for_any_configuration() {
        // The configured bound is honored to the entry — including
        // values smaller than, and not divisible by, the shard count.
        for cap in [1usize, 3, 4, 10, 16, 64, 100] {
            let c = ctx(cap);
            assert_eq!(c.desc_capacity(), cap, "configured {cap}");
            for v in 1..=(cap as u64 * 20) {
                c.with_entry((BlobId(1), Version(v)), |_| {});
            }
            assert!(
                c.desc_entries() <= cap,
                "configured {cap}, holding {}",
                c.desc_entries()
            );
        }
    }

    #[test]
    fn recently_used_entries_survive_churn() {
        // Shard capacity 8: the hot entry (re-touched every other step)
        // can only be a shard's LRU victim if 7 churn entries landed in
        // its shard within 2 steps — impossible, so it must survive.
        let c = ctx(64);
        let hot = (BlobId(7), Version(1));
        c.with_entry(hot, |e| {
            e.descs.insert(0, desc(99));
        });
        // Churn many one-shot entries, re-touching the hot one often
        // enough that it is never its shard's LRU victim.
        for v in 1..=500u64 {
            c.with_entry((BlobId(1), Version(v)), |_| {});
            if v % 2 == 0 {
                assert!(
                    c.entry_snapshot(hot).is_some(),
                    "hot entry evicted at churn step {v}"
                );
            }
        }
        let got = c.entry_snapshot(hot).expect("hot entry survives churn");
        assert!(got.descs.contains_key(&0));
        assert!(c.desc_entries() <= c.desc_capacity());
    }

    #[test]
    fn take_and_insert_move_entries_between_keys() {
        let c = ctx(16);
        let a = (BlobId(1), Version(1));
        let b = (BlobId(1), Version(2));
        c.with_entry(a, |e| {
            e.resolved.insert(0..4);
            e.descs.insert(2, desc(5));
        });
        let moved = c.take_entry(a).expect("present");
        assert!(c.entry_snapshot(a).is_none(), "take removes");
        c.insert_entry(b, moved);
        let got = c.entry_snapshot(b).expect("moved entry");
        assert_eq!(got.descs.get(&2), Some(&desc(5)));
    }

    #[test]
    fn counters_accumulate() {
        let c = ctx(8);
        c.note_desc_lookup(3, 1);
        c.note_desc_lookup(0, 2);
        c.note_dedup(2, 256);
        let s = c.stats();
        assert_eq!((s.desc_hits, s.desc_misses), (3, 3));
        assert_eq!((s.dedup_hits, s.dedup_reused_bytes), (2, 256));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn access_tracking_batches_publishes() {
        let half = PUBLISH_BATCH as u64 / 2;
        let c = ctx(8);
        let key = (BlobId(1), Version(1));
        // Below the batch threshold: nothing to publish yet.
        assert!(c.note_accesses(key, 0..half).is_none());
        // Crossing it returns every unpublished first-touch index, in
        // order, with repeats deduplicated.
        let second: Vec<u64> = (0..half) // repeats: already seen
            .chain(half..2 * PUBLISH_BATCH as u64)
            .collect();
        let batch = c.note_accesses(key, second).expect("threshold crossed");
        assert_eq!(batch, (0..2 * PUBLISH_BATCH as u64).collect::<Vec<u64>>());
        // Re-touching published chunks never re-publishes them.
        assert!(c.note_accesses(key, 0..2 * PUBLISH_BATCH as u64).is_none());
    }

    /// A board answer carrying `tail` (entry, confirmed) from `from` on.
    fn answer(from: usize, tail: &[(u64, bool)], cohort: bool) -> BoardSync {
        BoardSync {
            len: from + tail.len(),
            cohort,
            tail: tail.to_vec(),
        }
    }

    #[test]
    fn claim_prefetch_walks_peer_sequence_once() {
        let c = ctx(8);
        let key = (BlobId(2), Version(1));
        c.note_accesses(key, [3u64, 4]);
        assert_eq!(c.prefetch_progress(key), (false, 0, 2));
        let seq: Vec<(u64, bool)> = (0..10).map(|i| (i, false)).collect();
        assert!(c.board_synced(key, 0, answer(0, &seq, false)));
        assert_eq!(c.prefetch_progress(key), (true, 10, 2));
        // Seen chunks (3, 4) are skipped; claims are bounded.
        assert_eq!(c.claim_prefetch(key, 4), vec![0, 1, 2, 5]);
        assert_eq!(c.claim_prefetch(key, 100), vec![6, 7, 8, 9]);
        assert_eq!(c.prefetch_progress(key), (false, 10, 2));
        // Nothing is ever claimed twice.
        assert!(c.claim_prefetch(key, 100).is_empty());
    }

    #[test]
    fn claim_prefetch_skips_unconfident_chunks_without_claiming() {
        let c = ctx(8);
        let key = (BlobId(3), Version(1));
        let seq = [(10, true), (11, false), (12, true), (13, false)];
        c.board_synced(key, 0, answer(0, &seq, true));
        assert_eq!(c.claim_prefetch(key, 10), vec![10, 12]);
        // The cursor consumed the whole sequence: unconfident chunks are
        // walked past, not queued for later.
        assert_eq!(c.prefetch_progress(key), (false, 4, 0));
        assert!(c.claim_prefetch(key, 10).is_empty());
        // Without a cohort the same flags filter nothing.
        let lone = (BlobId(3), Version(2));
        c.board_synced(lone, 0, answer(0, &seq, false));
        assert_eq!(c.claim_prefetch(lone, 10), vec![10, 11, 12, 13]);
    }

    #[test]
    fn the_replica_filters_publishes_until_the_cohort_confirms() {
        let c = ctx(8);
        let key = (BlobId(4), Version(1));
        // An empty replica calls everything novel.
        assert_eq!(c.unconfirmed_of(key, vec![1, 2, 5]), (vec![1, 2, 5], 0));
        // Held but unconfirmed entries are still worth a confirmation;
        // confirmed ones are not, unknown ones always are.
        c.board_synced(key, 0, answer(0, &[(1, true), (2, false)], true));
        assert_eq!(c.unconfirmed_of(key, vec![1, 2, 7]), (vec![2, 7], 2));
        assert_eq!(c.unconfirmed_of(key, vec![1]), (vec![], 2));
    }

    #[test]
    fn a_sync_answer_extends_the_replica_exactly_once() {
        let c = ctx(8);
        let key = (BlobId(5), Version(1));
        c.board_synced(key, 0, answer(0, &[(1, true), (2, true)], true));
        // Two co-located handles asked from 2; the second answer repeats
        // what the first filed and adds one entry.
        c.board_synced(key, 2, answer(2, &[(3, true)], true));
        c.board_synced(key, 2, answer(2, &[(3, true), (4, true)], true));
        assert_eq!(c.prefetch_progress(key), (true, 4, 0));
        // An answer that starts past the replica's end is dropped.
        c.board_synced(key, 9, answer(9, &[(99, true)], true));
        assert_eq!(c.claim_prefetch(key, 10), vec![1, 2, 3, 4]);
        // A board that has less than the replica lost the pattern: the
        // replica starts over, the claims made stay made.
        let lost = BoardSync {
            len: 1,
            ..answer(4, &[], false)
        };
        assert!(!c.board_synced(key, 4, lost));
        assert_eq!(c.prefetch_progress(key), (false, 0, 0));
        c.board_synced(key, 0, answer(0, &[(4, false), (5, false)], false));
        assert_eq!(c.claim_prefetch(key, 10), vec![5]);
        // It leaves with the version.
        c.purge_version(key);
        assert_eq!(c.prefetch_progress(key), (false, 0, 0));
        assert_eq!(c.unconfirmed_of(key, vec![1]), (vec![1], 0));
    }

    fn chunk_ctx(cache_bytes: u64) -> NodeContext {
        NodeContext::new(&BlobConfig {
            prefetch: true,
            chunk_cache_bytes: cache_bytes,
            ..Default::default()
        })
    }

    /// A one-chunk demand lookup.
    fn cached(c: &NodeContext, id: u64) -> Option<Payload> {
        c.chunk_cache_get_batch(&[ChunkId(id)]).remove(0)
    }

    #[test]
    fn chunk_cache_roundtrip_counts_hits() {
        let c = chunk_ctx(1 << 20);
        let p = bff_data::Payload::synth(9, 0, 100);
        assert!(cached(&c, 1).is_none());
        c.chunk_cache_insert(ChunkId(1), p.clone(), ChunkOrigin::Prefetch);
        assert!(c.chunk_cache_contains(ChunkId(1)));
        let got = cached(&c, 1).expect("cached");
        assert!(got.content_eq(&p));
        let s = c.prefetch_stats();
        // First use of a prefetched entry counts as a prefetch hit ...
        assert_eq!((s.hits, s.hit_bytes), (1, 100));
        // ... later uses only as plain cache hits.
        cached(&c, 1).expect("still cached");
        let s = c.prefetch_stats();
        assert_eq!((s.hits, s.cache_hits), (1, 2));
        assert_eq!((s.cached_chunks, s.cached_bytes), (1, 100));
    }

    #[test]
    fn chunk_cache_bounded_lru_counts_waste() {
        let c = chunk_ctx(300);
        for i in 1..=3u64 {
            c.chunk_cache_insert(
                ChunkId(i),
                bff_data::Payload::zeros(100),
                ChunkOrigin::Prefetch,
            );
        }
        // Touch 1 so 2 is the LRU victim when 4 arrives.
        cached(&c, 1).unwrap();
        c.chunk_cache_insert(
            ChunkId(4),
            bff_data::Payload::zeros(100),
            ChunkOrigin::Demand,
        );
        assert!(!c.chunk_cache_contains(ChunkId(2)), "LRU victim evicted");
        assert!(c.chunk_cache_contains(ChunkId(1)));
        let s = c.prefetch_stats();
        assert_eq!(s.cached_bytes, 300, "byte bound holds");
        assert_eq!(
            s.wasted_chunks, 1,
            "an unused prefetched entry evicted counts as waste"
        );
    }

    #[test]
    fn trackers_bounded_by_desc_cache_versions() {
        let c = NodeContext::new(&BlobConfig {
            prefetch: true,
            desc_cache_versions: 8,
            ..Default::default()
        });
        for v in 1..=100u64 {
            c.note_accesses((BlobId(1), Version(v)), 0..3);
        }
        let held = c.trackers.lock().len();
        assert!(held <= 8, "trackers grew to {held} for bound 8");
        // The most recent tracker survived with its state.
        let recent = (BlobId(1), Version(100));
        assert_eq!(c.prefetch_progress(recent), (false, 0, 3));
        let seq: Vec<(u64, bool)> = (0..6).map(|i| (i, false)).collect();
        c.board_synced(recent, 0, answer(0, &seq, false));
        assert_eq!(
            c.claim_prefetch(recent, 10),
            vec![3, 4, 5],
            "recent tracker kept its seen set through churn"
        );
    }

    #[test]
    fn zero_capacity_chunk_cache_is_inert() {
        let c = chunk_ctx(0);
        c.chunk_cache_insert(
            ChunkId(1),
            bff_data::Payload::zeros(10),
            ChunkOrigin::Demand,
        );
        assert!(!c.chunk_cache_contains(ChunkId(1)));
        assert!(cached(&c, 1).is_none());
        // Prefetch off disables the cache regardless of the byte bound.
        let off = NodeContext::new(&BlobConfig {
            prefetch: false,
            chunk_cache_bytes: 1 << 20,
            ..Default::default()
        });
        off.chunk_cache_insert(
            ChunkId(1),
            bff_data::Payload::zeros(10),
            ChunkOrigin::Demand,
        );
        assert!(!off.chunk_cache_contains(ChunkId(1)));
    }

    fn inner(id: u64) -> TreeNode {
        TreeNode::Inner {
            left: NodeKey(id),
            right: NodeKey::NULL,
        }
    }

    #[test]
    fn tree_node_cache_is_bounded_and_keeps_what_is_used() {
        const CAP: usize = 64;
        let c = NodeContext::with_tree_node_capacity(&BlobConfig::default(), CAP);
        // The base image's nodes: oldest keys, touched by every descent.
        let hot: Vec<NodeKey> = (1..=8).map(NodeKey).collect();
        c.tree_nodes_insert(hot.iter().map(|&k| (k, inner(k.0))));
        // Ten times the bound of nodes nobody asks for again, a descent
        // over the hot set in between.
        for batch in 0..(10 * CAP as u64 / 4) {
            let first = 1000 + 4 * batch;
            c.tree_nodes_insert((first..first + 4).map(|k| (NodeKey(k), inner(k))));
            assert!(c.tree_node_entries() <= CAP);
            let got = c.tree_nodes_get(&hot);
            assert!(
                got.iter().all(Option::is_some),
                "insertion-order eviction would have dropped the hot set by batch {batch}"
            );
        }
        assert_eq!(c.tree_node_entries(), CAP);
        assert_eq!(c.tree_nodes_get(&hot)[3], Some(inner(4)));
        // The churn itself is gone except for its newest nodes.
        assert_eq!(c.tree_nodes_get(&[NodeKey(1000)]), vec![None]);
        let s = c.stats();
        assert_eq!(s.node_misses, 1);
        assert_eq!(s.node_hits, 8 * (10 * CAP as u64 / 4 + 1));
    }

    #[test]
    fn version_facts_share_the_version_bound_and_leave_with_the_version() {
        let c = ctx(4);
        let facts = |root: u64| VersionInfo {
            root: NodeKey(root),
            size: 1 << 20,
            chunk_size: 1 << 16,
            span: 16,
        };
        for v in 1..=40u64 {
            c.record_version_facts((BlobId(1), Version(v)), facts(v), 0);
            // The base image stays known however many snapshots pass.
            if v > 1 {
                assert_eq!(c.version_facts((BlobId(1), Version(1))), Ok(facts(1)));
            }
        }
        assert!(c.versions.lock().known.len() <= 4);
        assert_eq!(c.version_facts((BlobId(1), Version(40))), Ok(facts(40)));
        assert_eq!(c.version_facts((BlobId(1), Version(20))), Err(0));
        c.purge_version((BlobId(1), Version(40)));
        assert_eq!(c.version_facts((BlobId(1), Version(40))), Err(1));
        // An answer obtained before the purge must not bring it back...
        c.record_version_facts((BlobId(1), Version(40)), facts(40), 0);
        assert_eq!(c.version_facts((BlobId(1), Version(40))), Err(1));
        // ...one obtained after it is as good as any.
        c.record_version_facts((BlobId(1), Version(41)), facts(41), c.version_purges());
        assert_eq!(c.version_facts((BlobId(1), Version(41))), Ok(facts(41)));
        // A clone is known as soon as its source is, and only then.
        c.alias_version_facts((BlobId(1), Version(41)), (BlobId(2), Version(1)));
        assert_eq!(c.version_facts((BlobId(2), Version(1))), Ok(facts(41)));
        c.alias_version_facts((BlobId(1), Version(40)), (BlobId(3), Version(1)));
        assert_eq!(c.version_facts((BlobId(3), Version(1))), Err(1));
    }

    #[test]
    fn digest_index_roundtrip() {
        let c = ctx(8);
        let key = (128u64, bff_data::ContentDigest::Weak(bff_data::Digest(42)));
        assert!(c.digest_lookup(&key).is_none());
        c.digest_record(key, desc(9));
        assert_eq!(c.digest_lookup(&key), Some(desc(9)));
        c.digest_forget(&key);
        assert!(c.digest_lookup(&key).is_none());
    }
}
