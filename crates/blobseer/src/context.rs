//! The per-node shared metadata/cache module ([`NodeContext`]).
//!
//! The paper's compute nodes run one FUSE process per node, shared by
//! every co-located VM (§3.1.3, §4.1): its metadata cache and dedup
//! knowledge are node-wide, not per-image. This module is that process's
//! state in our model. Every [`crate::Client`] created for a node
//! attaches to the node's `NodeContext` (the [`crate::BlobStore`] keeps
//! one per node), so co-located clients share:
//!
//! * **The metadata cache** — `NodeKey → TreeNode`, every segment-tree
//!   node a descent on this node has fetched or a commit from this node
//!   has stored: the one place a read resolves chunk descriptors from.
//!   A read first walks the cached nodes from its version's root under
//!   one lock (`NodeContext::walk_cached`) and fetches only the
//!   frontier it could not look into. Nodes are keyed by identity, so
//!   one entry serves every version that reaches it: a snapshot shares
//!   all but the changed paths of its tree with the version it was made
//!   from (a handle resolving a version the node has never opened
//!   fetches the *diff* against what the node has seen, not the tree), a
//!   clone's first version *is* its source's root, and a commit caches
//!   the nodes it stores, so neither needs any per-version state carried
//!   over. Sharing is safe because node keys are reserved through the
//!   version manager's journal before the ack and never reused, a stored
//!   node is never rewritten, and a node that was not stored (a failed
//!   commit) is never inserted; a cached node no live root reaches is
//!   unreachable, not wrong. Bounded by [`TREE_NODE_CACHE_ENTRIES`] and
//!   evicted least-recently-*used* (the base image's nodes carry the
//!   oldest keys and are the hottest). Deletes drop nothing here:
//!   recency ages dead nodes out.
//! * **The version facts** — `(blob, version) →` root, size, chunk size
//!   and span, fixed at publish, so opening a version the node knows
//!   costs no version-manager call. Bounded with the trackers by
//!   `desc_cache_versions`; [`NodeContext::purge_version`] drops them, so
//!   a delete through any handle of the store ends every handle's
//!   ability to resolve the version — an answer a racing reader obtained
//!   before the purge is not filed after it. (The fan-out is per
//!   [`crate::BlobStore`]: a second client *process* learns of a delete
//!   when its entry ages out.)
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
//!   adaptive prefetching pipeline. Trackers record every chunk of a
//!   snapshot a guest touched and, in first-touch order, the ones its
//!   read *moved* (fetched from a provider, or served by a read-ahead
//!   entry's first use): only those are batched into
//!   [`crate::board::PatternBoard`] publishes, so a node that boots a
//!   new snapshot out of chunks it already holds teaches the board
//!   nothing. They also hold the node's *replica* of the board's merged
//!   peer sequence (see [`crate::board`]) and the prefetcher's state
//!   over it, which [`NodeContext::read_ahead`] decides on; the chunk
//!   cache holds prefetched (and, while prefetching is on,
//!   demand-fetched) chunk payloads that `Client::read_multi` serves
//!   without touching providers — which is also how co-located VMs
//!   share each other's fetched data.
//!
//! Every one of these is bounded by one [`LruMap`]: an entry bound for
//! the version-keyed state and the two indexes, a byte bound for the
//! chunk cache, whose evicted entries come back so unused read-ahead
//! still counts as waste.
//! Aggregate hit/miss, dedup and prefetch counters are atomics:
//! experiments read them without stopping the data plane.

use crate::api::{BlobConfig, BlobId, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
use crate::segtree::{self, Walk, Wants};
use bff_data::{ContentKey, DigestIndex, FastMap, FastSet, LruMap, Payload};
use bff_wire::msg::{BoardSync, VersionInfo};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// touched, the first-touch order of what its reads moved, how much of
/// that order has been published to the cluster board, what the board
/// has sent back (the node's replica of the merged peer sequence), and
/// how far into it the node's prefetcher has advanced.
#[derive(Debug, Default)]
struct AccessTracker {
    /// Chunk indices this node has accessed (guest reads), moved or not:
    /// the prefetcher never claims one, and a node that has touched
    /// every chunk stops polling the board.
    seen: FastSet<u64>,
    /// First-touch order of the `seen` chunks whose first touch moved
    /// them (bounded by [`ACCESS_ORDER_CAP`]): what the node publishes.
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
    /// Whether the node has exchanged with the board since its last
    /// demand read that fetched from a provider (false on a new tracker):
    /// until the pattern misses again, the replica holds all there is.
    board_current: bool,
}

/// What a read-ahead step for one snapshot does next: the answer of
/// [`NodeContext::read_ahead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAhead {
    /// The replica extends past the prefetch cursor: claim from it.
    Claim,
    /// Ask the board first for the entries past the replica's `from`.
    Poll { from: usize },
    /// Nothing to read ahead and nothing to ask.
    Idle,
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

/// One hit of [`NodeContext::chunk_cache_get_batch`].
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The chunk's bytes.
    pub data: Payload,
    /// Whether this hit is the first use of a read-ahead entry: the
    /// chunk was moved for this read, ahead of time and on the peer
    /// pattern's word, so the read confirms that pattern. Any other hit
    /// is an entry an earlier read landed or already used.
    pub read_ahead: bool,
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
    /// Board exchanges this node asked for that published a first-touch
    /// batch.
    pub board_publishes: u64,
    /// Board exchanges this node asked for with an empty batch: polls of
    /// the peer sequence.
    pub board_polls: u64,
    /// Guest reads that fetched at least one chunk from a provider: the
    /// read-ahead pattern's misses, the evidence a poll waits for.
    pub demand_fetch_steps: u64,
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

/// Snapshot of a context's aggregate counters (see
/// [`NodeContext::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Chunk lookups a read resolved by walking cached tree nodes alone
    /// (a chunk under a NULL subtree counts: it reads as zeros).
    pub desc_hits: u64,
    /// Chunk lookups under a node the walk found uncached, resolved by
    /// fetching from the metadata shards.
    pub desc_misses: u64,
    /// Commit chunks published by reference instead of re-replicated.
    pub dedup_hits: u64,
    /// Payload bytes those reference commits did *not* push.
    pub dedup_reused_bytes: u64,
    /// Tree nodes a walk or descent found in the node's metadata cache.
    pub node_hits: u64,
    /// Tree nodes a descent had to fetch from the metadata shards.
    pub node_misses: u64,
}

impl CacheStats {
    /// Chunk-lookup hit rate in `[0, 1]` (0 when no lookups).
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
    /// bounded like the version facts.
    trackers: Mutex<LruMap<(BlobId, Version), AccessTracker>>,
    /// The node-shared chunk-data cache (prefetch plane), bounded in
    /// bytes.
    chunks: Mutex<LruMap<ChunkId, CachedChunk>>,
    /// Whether the prefetch plane runs: the flag is on *and* the chunk
    /// cache can hold a chunk (below the chunk size every insert
    /// self-evicts, so a prefetched chunk would be fetched twice). Off,
    /// the cache is empty and answers without taking its lock.
    prefetch: bool,
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
    board_publishes: AtomicU64,
    board_polls: AtomicU64,
    demand_fetch_steps: AtomicU64,
}

impl NodeContext {
    /// A context sized from the service configuration.
    pub fn new(cfg: &BlobConfig) -> Self {
        Self::with_tree_node_capacity(cfg, TREE_NODE_CACHE_ENTRIES)
    }

    /// [`NodeContext::new`] with an explicit tree-node bound (tests of
    /// the bound itself; 0 disables the cache).
    pub(crate) fn with_tree_node_capacity(cfg: &BlobConfig, tree_nodes: usize) -> Self {
        let versions = cfg.desc_cache_versions.max(1);
        let prefetch = cfg.prefetch && cfg.chunk_cache_bytes >= cfg.chunk_size;
        let chunk_cache_bytes = if prefetch { cfg.chunk_cache_bytes } else { 0 };
        Self {
            desc_hits: AtomicU64::new(0),
            desc_misses: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup_reused_bytes: AtomicU64::new(0),
            digests: Mutex::new(DigestIndex::new(cfg.digest_index_chunks)),
            tree_nodes: Mutex::new(LruMap::new(tree_nodes)),
            node_hits: AtomicU64::new(0),
            node_misses: AtomicU64::new(0),
            versions: Mutex::new(VersionFacts {
                known: LruMap::new(versions),
                purges: 0,
            }),
            trackers: Mutex::new(LruMap::new(versions)),
            chunks: Mutex::new(LruMap::new(
                usize::try_from(chunk_cache_bytes).unwrap_or(usize::MAX),
            )),
            prefetch,
            prefetch_inflight: std::sync::atomic::AtomicBool::new(false),
            prefetched_chunks: AtomicU64::new(0),
            prefetched_bytes: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_hit_bytes: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            chunk_cache_hits: AtomicU64::new(0),
            board_publishes: AtomicU64::new(0),
            board_polls: AtomicU64::new(0),
            demand_fetch_steps: AtomicU64::new(0),
        }
    }

    /// Whether the prefetch plane runs on this node (see the field).
    pub(crate) fn prefetch_on(&self) -> bool {
        self.prefetch
    }

    /// Record the outcome of a descriptor resolution: `hits` chunks the
    /// cached walk reached, `misses` under its frontier.
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

    /// Walk the cached nodes of the tree at `root` over `wants`, under
    /// one lock acquisition: the wanted leaves reached, and the frontier
    /// of uncached nodes for [`segtree::collect_leaves_from`] to fetch.
    /// A node reached counts as a node hit and is marked used; the
    /// frontier is counted by the descent that fetches it.
    pub(crate) fn walk_cached(&self, root: NodeKey, span: u64, wants: &Wants) -> Walk {
        let mut hits = 0u64;
        let walk = {
            let mut cache = self.tree_nodes.lock();
            segtree::walk_cached(root, span, wants, |key| {
                let node = cache.get_refresh(&key).cloned();
                hits += u64::from(node.is_some());
                node
            })
        };
        self.node_hits.fetch_add(hits, Ordering::Relaxed);
        walk
    }

    /// Batch lookup for one descent level: one lock acquisition, a hit
    /// marks the node used.
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
    /// `(blob, version)`'s facts and access tracker. Without its facts no
    /// handle on this node resolves the version again — the next attempt
    /// asks the version manager and gets `NoSuchVersion`. The tracker
    /// would not corrupt anything, but it would pin memory for a
    /// snapshot that can never be read again.
    pub fn purge_version(&self, key: (BlobId, Version)) {
        {
            let mut facts = self.versions.lock();
            facts.known.remove(&key);
            facts.purges += 1;
        }
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
    /// marking it used. Trackers are per-`(blob, version)` state of the
    /// same lifecycle class as the version facts, so they share the
    /// `desc_cache_versions` bound: inserting beyond
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

    /// Record a guest read's touches of `key`, in access order, each as
    /// `(chunk index, moved)`: whether the read moved the chunk (fetched
    /// it, or used a read-ahead entry for the first time) rather than
    /// finding it resident. Every first touch counts as seen; only a
    /// first touch that moved the chunk joins the published order, and
    /// repeats are free. `fetched`: the read fetched from a provider, a
    /// miss of the pattern (a read-ahead entry's first use is not one).
    /// Returns a batch of so-far-unpublished entries of that order once
    /// at least [`PUBLISH_BATCH`] have accumulated — the caller ships
    /// that batch to the cluster [`crate::board::PatternBoard`], and pays
    /// for it.
    pub fn note_accesses(
        &self,
        key: (BlobId, Version),
        touches: impl IntoIterator<Item = (u64, bool)>,
        fetched: bool,
    ) -> Option<Vec<u64>> {
        if fetched {
            self.demand_fetch_steps.fetch_add(1, Ordering::Relaxed);
        }
        self.with_tracker(key, |t| {
            t.board_current &= !fetched;
            for (idx, moved) in touches {
                if t.seen.insert(idx) && moved && t.order.len() < ACCESS_ORDER_CAP {
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
    /// at `from` entries.
    ///
    /// Entries a co-located handle's sync filed in the meantime are
    /// skipped; an answer that starts past the replica's end (the
    /// tracker was evicted and rebuilt since) is dropped — the next sync
    /// asks from the right place. A board whose sequence is *shorter*
    /// than `from` has lost the pattern (eviction, restart): the replica
    /// describes a sequence that no longer exists and starts over.
    pub fn board_synced(&self, key: (BlobId, Version), from: usize, sync: BoardSync) {
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

    /// The one read-ahead decision for `key`, from local state alone:
    /// claim while the replica extends past the cursor; once it is
    /// consumed, poll only if the node has never exchanged with the
    /// board about `key` or a demand read missed since the last exchange
    /// — unless it has touched every chunk of the snapshot. Always
    /// [`ReadAhead::Idle`] with the prefetch plane off.
    pub fn read_ahead(&self, key: (BlobId, Version)) -> ReadAhead {
        if !self.prefetch {
            return ReadAhead::Idle;
        }
        let chunks = self
            .version_facts(key)
            .map_or(u64::MAX, |m| m.size.div_ceil(m.chunk_size));
        self.with_tracker(key, |t| {
            if t.cursor < t.peer_seq.len() {
                ReadAhead::Claim
            } else if t.board_current || t.seen.len() as u64 >= chunks {
                ReadAhead::Idle
            } else {
                ReadAhead::Poll {
                    from: t.peer_seq.len(),
                }
            }
        })
    }

    // --- The node-shared chunk-data cache ---------------------------

    /// Look up a read's chunk payloads in the node-shared chunk cache,
    /// under one lock acquisition for the whole lookup plan. A hit marks
    /// the entry used, for the prefetch hit statistics (a prefetched
    /// entry's first use, which the hit reports) and for eviction.
    pub fn chunk_cache_get_batch(&self, ids: &[ChunkId]) -> Vec<Option<CacheHit>> {
        if !self.prefetch || ids.is_empty() {
            return vec![None; ids.len()];
        }
        let mut cache = self.chunks.lock();
        ids.iter()
            .map(|id| {
                let entry = cache.get_refresh_mut(id)?;
                let read_ahead = entry.unused_prefetch();
                if read_ahead {
                    self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                    self.prefetch_hit_bytes
                        .fetch_add(entry.data.len(), Ordering::Relaxed);
                }
                entry.used = true;
                self.chunk_cache_hits.fetch_add(1, Ordering::Relaxed);
                Some(CacheHit {
                    data: entry.data.clone(),
                    read_ahead,
                })
            })
            .collect()
    }

    /// Whether a chunk is resident in the node-shared chunk cache,
    /// without touching hit statistics or LRU order (prefetch-side
    /// dedup check, not a demand read).
    pub fn chunk_cache_contains(&self, id: ChunkId) -> bool {
        self.prefetch && self.chunks.lock().get(&id).is_some()
    }

    /// Insert a fetched chunk into the node-shared cache, evicting LRU
    /// entries past the byte bound. An already-present id is only
    /// refreshed (chunk ids are immutable content — re-inserting the
    /// same bytes is a no-op).
    pub fn chunk_cache_insert(&self, id: ChunkId, data: Payload, origin: ChunkOrigin) {
        if !self.prefetch {
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

    /// Record that this node is about to ask the board for one exchange
    /// on `key`: a publish, or a poll when `poll`. Either brings the
    /// replica up to date, so even a failed one waits for a demand miss.
    pub(crate) fn note_board_sync(&self, key: (BlobId, Version), poll: bool) {
        let counter = if poll {
            &self.board_polls
        } else {
            &self.board_publishes
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.with_tracker(key, |t| t.board_current = true);
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
            board_publishes: self.board_publishes.load(Ordering::Relaxed),
            board_polls: self.board_polls.load(Ordering::Relaxed),
            demand_fetch_steps: self.demand_fetch_steps.load(Ordering::Relaxed),
        }
    }

    /// Aggregate counters, read lock-free.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            desc_hits: self.desc_hits.load(Ordering::Relaxed),
            desc_misses: self.desc_misses.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_reused_bytes: self.dedup_reused_bytes.load(Ordering::Relaxed),
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

    /// A context with the prefetch plane on, whatever `BFF_PREFETCH`
    /// says.
    fn ctx(versions: usize) -> NodeContext {
        NodeContext::new(&BlobConfig {
            desc_cache_versions: versions,
            prefetch: true,
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

    /// Touches of `indices` that all moved their chunk.
    fn moved(indices: impl IntoIterator<Item = u64>) -> impl Iterator<Item = (u64, bool)> {
        indices.into_iter().map(|idx| (idx, true))
    }

    #[test]
    fn access_tracking_batches_publishes() {
        let half = PUBLISH_BATCH as u64 / 2;
        let c = ctx(8);
        let key = (BlobId(1), Version(1));
        // Below the batch threshold: nothing to publish yet.
        assert!(c.note_accesses(key, moved(0..half), true).is_none());
        // Crossing it returns every unpublished first-touch index, in
        // order, with repeats deduplicated.
        let second: Vec<u64> = (0..half) // repeats: already seen
            .chain(half..2 * PUBLISH_BATCH as u64)
            .collect();
        let batch = c
            .note_accesses(key, moved(second), true)
            .expect("threshold crossed");
        assert_eq!(batch, (0..2 * PUBLISH_BATCH as u64).collect::<Vec<u64>>());
        // Re-touching published chunks never re-publishes them.
        assert!(c
            .note_accesses(key, moved(0..2 * PUBLISH_BATCH as u64), true)
            .is_none());
    }

    #[test]
    fn a_touch_that_moved_nothing_is_seen_but_never_published() {
        let batch = PUBLISH_BATCH as u64;
        let c = ctx(8);
        let key = (BlobId(1), Version(2));
        // A whole batch served from entries earlier reads landed (for
        // this version or another that shares the chunks): seen, so the
        // prefetcher skips them, but nothing to publish.
        assert!(c
            .note_accesses(key, (0..batch).map(|i| (i, false)), false)
            .is_none());
        // A later touch that does move them publishes nothing either:
        // the first touch decided.
        assert!(c.note_accesses(key, moved(0..batch), true).is_none());
        // Moved chunks, interleaved with resident ones, publish in
        // first-touch order once a batch of them accumulates.
        let mixed = (batch..3 * batch).map(|i| (i, i % 2 == 0));
        assert_eq!(
            c.note_accesses(key, mixed, true),
            Some((batch..3 * batch).filter(|i| i % 2 == 0).collect())
        );
        let seq: Vec<(u64, bool)> = (0..3 * batch + 2).map(|i| (i, false)).collect();
        c.board_synced(key, 0, answer(0, &seq, false));
        assert_eq!(
            c.claim_prefetch(key, 100),
            vec![3 * batch, 3 * batch + 1],
            "every touched chunk is seen, moved or not"
        );
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
        c.note_accesses(key, moved([3, 4]), true);
        let seq: Vec<(u64, bool)> = (0..10).map(|i| (i, false)).collect();
        c.board_synced(key, 0, answer(0, &seq, false));
        assert_eq!(c.read_ahead(key), ReadAhead::Claim);
        // Seen chunks (3, 4) are skipped; claims are bounded.
        assert_eq!(c.claim_prefetch(key, 4), vec![0, 1, 2, 5]);
        assert_eq!(c.claim_prefetch(key, 100), vec![6, 7, 8, 9]);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 10 });
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
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 4 });
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
        assert_eq!(c.read_ahead(key), ReadAhead::Claim);
        // An answer that starts past the replica's end is dropped.
        c.board_synced(key, 9, answer(9, &[(99, true)], true));
        assert_eq!(c.claim_prefetch(key, 10), vec![1, 2, 3, 4]);
        // A board that has less than the replica lost the pattern: the
        // replica starts over, the claims made stay made.
        let lost = BoardSync {
            len: 1,
            ..answer(4, &[], false)
        };
        c.board_synced(key, 4, lost);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 0 });
        c.board_synced(key, 0, answer(0, &[(4, false), (5, false)], false));
        assert_eq!(c.claim_prefetch(key, 10), vec![5]);
        // It leaves with the version.
        c.purge_version(key);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 0 });
        assert_eq!(c.unconfirmed_of(key, vec![1]), (vec![1], 0));
    }

    /// A prefetching context whose cache holds `cache_bytes` of the
    /// 100-byte chunks these tests insert.
    /// A prefetching context that knows `key` as a snapshot of `chunks`
    /// chunks.
    fn snapshot_ctx(key: (BlobId, Version), chunks: u64) -> NodeContext {
        let c = ctx(8);
        let info = VersionInfo {
            root: NodeKey(1),
            size: chunks * 128,
            chunk_size: 128,
            span: chunks.next_power_of_two(),
        };
        c.record_version_facts(key, info, 0);
        c
    }

    /// One exchange the way the client makes it: noted, then answered.
    fn exchange(c: &NodeContext, key: (BlobId, Version), poll: bool, from: usize, tail: &[u64]) {
        c.note_board_sync(key, poll);
        let tail: Vec<(u64, bool)> = tail.iter().map(|&i| (i, true)).collect();
        c.board_synced(key, from, answer(from, &tail, true));
    }

    #[test]
    fn read_ahead_polls_a_snapshot_it_never_asked_about() {
        let key = (BlobId(6), Version(1));
        let c = snapshot_ctx(key, 32);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 0 });
        // Reads that fetched nothing are no exchange.
        c.note_accesses(key, moved(0..4), false);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 0 });
        exchange(&c, key, true, 0, &[]);
        assert_eq!(c.read_ahead(key), ReadAhead::Idle);
        assert_eq!(c.prefetch_stats().board_polls, 1);
    }

    #[test]
    fn read_ahead_polls_once_per_demand_miss_since_the_last_exchange() {
        let key = (BlobId(6), Version(2));
        let c = snapshot_ctx(key, 32);
        exchange(&c, key, true, 0, &[0, 1]);
        assert_eq!(c.claim_prefetch(key, 10), vec![0, 1]);
        assert_eq!(c.read_ahead(key), ReadAhead::Idle);
        // A read fetched from a provider: the pattern missed.
        c.note_accesses(key, moved(5..7), true);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 2 });
        exchange(&c, key, true, 2, &[]);
        assert_eq!(c.read_ahead(key), ReadAhead::Idle);
        // A publish is an exchange too.
        c.note_accesses(key, moved(7..8), true);
        exchange(&c, key, false, 2, &[7]);
        assert_eq!(c.claim_prefetch(key, 10), Vec::<u64>::new());
        assert_eq!(c.read_ahead(key), ReadAhead::Idle);
        assert_eq!(c.prefetch_stats().demand_fetch_steps, 2);
    }

    #[test]
    fn read_ahead_hits_are_no_reason_to_poll() {
        let key = (BlobId(6), Version(3));
        let c = snapshot_ctx(key, 32);
        exchange(&c, key, true, 0, &[0, 1, 2, 3]);
        assert_eq!(c.claim_prefetch(key, 10), vec![0, 1, 2, 3]);
        // The guest reads the four read-ahead entries: each first use
        // moved its chunk (it publishes), but nothing was fetched.
        c.note_accesses(key, moved(0..4), false);
        assert_eq!(c.read_ahead(key), ReadAhead::Idle);
        assert_eq!(c.prefetch_stats().demand_fetch_steps, 0);
    }

    #[test]
    fn read_ahead_asks_nothing_about_a_snapshot_it_read_whole() {
        let key = (BlobId(6), Version(4));
        let c = snapshot_ctx(key, 8);
        // Never exchanged, and every read missed; but nothing is left.
        c.note_accesses(key, moved(0..8), true);
        assert_eq!(c.read_ahead(key), ReadAhead::Idle);
    }

    #[test]
    fn read_ahead_claims_from_a_replica_ahead_of_its_cursor_without_a_poll() {
        let key = (BlobId(6), Version(5));
        let c = snapshot_ctx(key, 32);
        exchange(&c, key, true, 0, &[0, 1, 2, 3]);
        // A miss does not send a node with work in hand to the board.
        c.note_accesses(key, moved(10..12), true);
        assert_eq!(c.read_ahead(key), ReadAhead::Claim);
        assert_eq!(c.claim_prefetch(key, 2), vec![0, 1]);
        assert_eq!(c.read_ahead(key), ReadAhead::Claim);
        assert_eq!(c.claim_prefetch(key, 2), vec![2, 3]);
        assert_eq!(c.read_ahead(key), ReadAhead::Poll { from: 4 });
        // Off, the plane decides nothing.
        let off = NodeContext::new(&BlobConfig {
            prefetch: false,
            ..Default::default()
        });
        assert_eq!(off.read_ahead(key), ReadAhead::Idle);
    }

    fn chunk_ctx(cache_bytes: u64) -> NodeContext {
        NodeContext::new(&BlobConfig {
            prefetch: true,
            chunk_size: 100,
            chunk_cache_bytes: cache_bytes,
            ..Default::default()
        })
    }

    /// A one-chunk demand lookup.
    fn cached(c: &NodeContext, id: u64) -> Option<CacheHit> {
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
        assert!(got.data.content_eq(&p));
        // First use of a prefetched entry counts as a prefetch hit, and
        // the hit says so ...
        assert!(got.read_ahead);
        let s = c.prefetch_stats();
        assert_eq!((s.hits, s.hit_bytes), (1, 100));
        // ... later uses only as plain cache hits.
        assert!(!cached(&c, 1).expect("still cached").read_ahead);
        let s = c.prefetch_stats();
        assert_eq!((s.hits, s.cache_hits), (1, 2));
        assert_eq!((s.cached_chunks, s.cached_bytes), (1, 100));
        // A demand-landed entry is never a read-ahead hit.
        c.chunk_cache_insert(ChunkId(2), p, ChunkOrigin::Demand);
        assert!(!cached(&c, 2).expect("cached").read_ahead);
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
            c.note_accesses((BlobId(1), Version(v)), moved(0..3), true);
        }
        let held = c.trackers.lock().len();
        assert!(held <= 8, "trackers grew to {held} for bound 8");
        // The most recent tracker survived with its state.
        let recent = (BlobId(1), Version(100));
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
