//! The BlobSeer client: the protocol logic executed by compute nodes.
//!
//! Reads descend the distributed segment tree (batched per level, cached
//! per *node* in the [`NodeContext`] — tree nodes are immutable, so
//! caching is trivially coherent, and a handle owns no cache of its own)
//! and then fetch the covered chunks *in parallel* from their providers,
//! which is what distributes the I/O workload under the multideployment
//! pattern (§3.1.3). Writes allocate providers round-robin (skipping
//! providers the fabric reports down), push chunks through the batched
//! replication pipeline, shadow the metadata tree, and publish the new
//! snapshot at the version manager.
//!
//! # The vectored read pipeline
//!
//! [`Client::read_multi`] is the batched data plane the mirroring module
//! drives; per-run [`Client::read`] is a thin wrapper over it. It differs
//! from a per-run read loop in three ways:
//!
//! 1. **Single descent** — all requested runs are planned in one
//!    level-by-level walk of the segment tree
//!    ([`segtree::collect_leaves_multi`]), so a plan of R runs costs at
//!    most `tree depth` metadata rounds, not `R × depth` (§3.2: metadata
//!    is accessed in parallel, grouped per level). A level fetches only
//!    the nodes this *node* has never seen: a snapshot shares all but
//!    the changed paths with its base, so booting a snapshot of an image
//!    the node knows reads the diff, not the tree.
//! 2. **Descriptor cache** — resolved chunk descriptors are cached per
//!    `(blob, version)` in the *node-shared* [`NodeContext`] (§4.1's
//!    metadata cache lives in the per-node FUSE process, shared by every
//!    co-located VM). Snapshots are immutable, so entries never go
//!    stale; repeated boot-time reads of the same snapshot skip the
//!    metadata plane entirely — even from a different co-located client.
//!    `write_chunks` seeds the new version's entry from its base plus
//!    the published delta, and `clone_blob` carries the source entry
//!    over to the clone. Eviction is per-entry LRU, bounded by
//!    [`BlobConfig::desc_cache_versions`].
//! 3. **Per-provider batching** — the chunk fetches of the whole plan are
//!    grouped by provider and issued as one batched transfer each, with
//!    per-chunk replica failover as the fallback path.
//!
//! # The batched replication write pipeline
//!
//! [`Client::write_chunks`] is the write-side twin. The update set is
//! pushed according to [`ReplicationMode`]:
//!
//! * **Fan-out** (default) — every `(chunk, replica)` pair is grouped by
//!   destination provider; each provider receives its whole group as one
//!   batched transfer + one batched (write-back) disk write, providers in
//!   parallel. The sharded [`crate::provider::ProviderStore`] means those
//!   parallel pushes never contend on a shared lock.
//! * **Chain** — chunks sharing a replica chain are pushed once to the
//!   first replica, which forwards the batch down the chain, so the
//!   client's egress is `1×` the payload.
//! * **Sequential** — the pre-batching reference (one push per chunk,
//!   replicas in order), kept for equivalence tests and as the baseline
//!   the CI `bench-regression` gate measures against.
//!
//! All modes have *per-replica failover*: a replica that cannot take its
//! batch (down node, mid-transfer failure) is dropped from the published
//! chunk descriptor rather than failing the write; the write only errors
//! if a chunk retains no replica at all.
//!
//! # Adaptive cross-VM prefetching
//!
//! With [`BlobConfig::prefetch`] on (default; `BFF_PREFETCH=0` off),
//! the read path becomes *anticipatory*. Image layers hint their read
//! misses ([`Client::hint_access`]); the node context batches the
//! first-touch chunk order and publishes it to the cluster
//! [`crate::board::PatternBoard`] (hosted beside the provider manager,
//! gossiped to the compute nodes via a `bff_bcast` tree). A node running
//! behind its cohort — a VM that booted later, or was co-deployed with a
//! skew — computes the predicted next-chunk window off the node's
//! replica of the board's sequence (see [`crate::board`] for when a
//! frame actually goes to the board) and issues
//! [`Client::prefetch_chunks`]: an asynchronous batched
//! read-ahead, bounded by [`BlobConfig::prefetch_window`] chunks per
//! step, that lands fetched chunks in the node-shared chunk cache.
//! `read_multi` consults that cache *before* touching providers, so a
//! predicted chunk costs the demand path nothing; the hypervisor model
//! overlaps prefetch steps with guest compute bursts, hiding the
//! transfers behind CPU time on the simulated fabric. Prefetch is
//! strictly best-effort: per-chunk replica failover like the demand
//! path, failed chunks simply stay on demand, and snapshot content is
//! byte-identical with prefetch on or off.
//!
//! # Content-addressed write dedup
//!
//! When [`BlobConfig::dedup`] is on, `write_chunks` content-addresses
//! the update set before touching the provider manager: identical
//! payloads *within* the commit collapse to one stored chunk, and
//! payloads whose `(length, digest)` already map to live replicas in the
//! node's [`NodeContext`] digest index are committed **by reference** —
//! the published leaf reuses the existing descriptor and bumps a
//! provider-side refcount instead of re-replicating the bytes — once
//! the provider has found its *stored* chunk to have that length and
//! digest (`Client::dedup_probe`). Snapshot storage therefore grows with
//! dirty *unique* bytes, not dirty bytes (the write-side half of
//! §3.1.3's dedup claim). A commit that fails to publish (conflict,
//! network) releases every reference it took; releases never underflow.

use crate::api::{
    BlobConfig, BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, NodeKey, ReplicationMode,
    TreeNode, Version,
};
use crate::board;
use crate::context::{ChunkOrigin, NodeContext};
use crate::meta::partition_of;
use crate::segtree::{self, NodeIo};
use crate::service::{BlobStore, Fetched};
use bff_data::{chunk_cover, chunk_range, intersect, ByteRange, ContentKey, Payload};
use bff_data::{FastMap, FastSet};
use bff_net::{NetError, NodeId};
use bff_wire::msg::RetainOutcome;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cached per-(blob, version) metadata (the version manager's wire
/// answer, cached verbatim).
use bff_wire::msg::VersionInfo as VersionMeta;

/// A client handle bound to one cluster node. All clients on a node
/// share that node's [`NodeContext`] — every cache lives there, the
/// handle owns none — exactly as co-located VMs share the paper's
/// per-node FUSE process.
#[derive(Clone)]
pub struct Client {
    store: Arc<BlobStore>,
    node: NodeId,
    ctx: Arc<NodeContext>,
    /// Diagnostic: number of `NodeIo::fetch` rounds issued (tests assert
    /// the single-descent bound; see `read_multi`).
    meta_fetch_calls: Arc<AtomicU64>,
}

impl Client {
    /// Create a client for the process running on `node`, attached to
    /// the node's shared [`NodeContext`].
    pub fn new(store: Arc<BlobStore>, node: NodeId) -> Self {
        let ctx = store.node_context(node);
        Self::with_context(store, node, ctx)
    }

    /// Create a client attached to an explicit context (tests and
    /// special deployments; [`Client::new`] is the normal path).
    pub fn with_context(store: Arc<BlobStore>, node: NodeId, ctx: Arc<NodeContext>) -> Self {
        Self {
            store,
            node,
            ctx,
            meta_fetch_calls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The node-shared cache module this client attaches to.
    pub fn context(&self) -> &Arc<NodeContext> {
        &self.ctx
    }

    /// Number of metadata fetch rounds (`NodeIo::fetch` calls) this client
    /// has issued. Each call is one level of a segment-tree descent; the
    /// vectored read path bounds them at `tree depth` per plan.
    pub fn meta_fetch_calls(&self) -> u64 {
        self.meta_fetch_calls.load(Ordering::Relaxed)
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The service this client talks to.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    fn cfg(&self) -> &BlobConfig {
        self.store.config()
    }

    /// Whether the adaptive prefetch pipeline is active. Requires both
    /// the feature flag *and* a chunk cache that can hold at least one
    /// chunk: without somewhere to land read-ahead data (disabled, or
    /// bounded below the chunk size so every insert self-evicts),
    /// tracking, publishing and prefetching would be pure overhead — a
    /// prefetched chunk would be fetched, dropped, and fetched again on
    /// demand.
    fn prefetch_enabled(&self) -> bool {
        let cfg = self.cfg();
        cfg.prefetch && cfg.chunk_cache_bytes >= cfg.chunk_size
    }

    /// Create an empty blob of `size` bytes (chunk size from config).
    pub fn create_blob(&self, size: u64) -> BlobResult<BlobId> {
        let cs = self.cfg().chunk_size;
        self.control_rpc(self.store.topology().vmanager)?;
        self.store.vm_create_blob(size, cs)
    }

    /// CLONE: a new first-class blob sharing all content with
    /// `(src, version)` (§3.1.4).
    pub fn clone_blob(&self, src: BlobId, version: Version) -> BlobResult<BlobId> {
        self.control_rpc(self.store.topology().vmanager)?;
        let id = self.store.vm_clone_blob(src, version)?;
        // The clone's Version(1) *is* the source tree: what the node
        // knows about the source — its facts (root, size, chunk size and
        // span are the clone's too, so the COMMIT that follows asks the
        // version manager nothing) and its descriptor cache — carries
        // over verbatim.
        self.ctx
            .alias_version_facts((src, version), (id, Version(1)));
        if let Some(entry) = self.ctx.entry_snapshot((src, version)) {
            self.ctx.insert_entry((id, Version(1)), entry);
        }
        Ok(id)
    }

    /// Latest published version of a blob.
    pub fn latest_version(&self, blob: BlobId) -> BlobResult<Version> {
        self.control_rpc(self.store.topology().vmanager)?;
        self.store.vm_latest(blob)
    }

    /// Logical size of the snapshot `(blob, version)`: what opening it
    /// needs to know. Served from the node's version facts — the lookup
    /// every read of the snapshot makes anyway — so it costs one
    /// version-manager round for a version this node has never seen and
    /// none after that.
    pub fn snapshot_size(&self, blob: BlobId, version: Version) -> BlobResult<u64> {
        Ok(self.version_meta(blob, version)?.size)
    }

    /// The still-live (published, undeleted) snapshot versions of a
    /// blob, ascending — the set a "drop this whole lineage" caller
    /// passes to [`Client::delete_snapshots`], which rejects versions
    /// already deleted.
    pub fn live_snapshots(&self, blob: BlobId) -> BlobResult<Vec<Version>> {
        self.control_rpc(self.store.topology().vmanager)?;
        self.store.vm_live_snapshots(blob)
    }

    fn control_rpc(&self, to: NodeId) -> Result<(), NetError> {
        let c = self.cfg().control_bytes;
        self.store.fabric.rpc(self.node, to, c, c)
    }

    fn version_meta(&self, blob: BlobId, version: Version) -> BlobResult<VersionMeta> {
        let seen = match self.ctx.version_facts((blob, version)) {
            Ok(m) => return Ok(m),
            Err(purges) => purges,
        };
        self.control_rpc(self.store.topology().vmanager)?;
        let m = self.store.vm_version_meta(blob, version)?;
        self.ctx.record_version_facts((blob, version), m, seen);
        Ok(m)
    }

    /// Read `range` of `(blob, version)`. Unwritten regions read as
    /// zeros. A thin wrapper over the vectored [`Client::read_multi`]
    /// pipeline (one-range plan), so even single-range callers get the
    /// descriptor cache and batched per-provider fetches with replica
    /// failover.
    pub fn read(&self, blob: BlobId, version: Version, range: Range<u64>) -> BlobResult<Payload> {
        Ok(self
            .read_multi(blob, version, std::slice::from_ref(&range))?
            .pop()
            .expect("one payload per range"))
    }

    /// Vectored read: fetch every range of `(blob, version)` in one
    /// batched pipeline, returning one payload per input range (unwritten
    /// regions read as zeros, like [`Client::read`]).
    ///
    /// All ranges are planned together: one segment-tree descent for the
    /// union of their chunk covers (at most `tree depth` metadata rounds
    /// total — see [`segtree::collect_leaves_multi`]), served first from
    /// the per-`(blob, version)` descriptor cache, and the chunk fetches
    /// are grouped per provider into batched transfers with per-chunk
    /// replica failover as fallback. Byte-for-byte equivalent to calling
    /// [`Client::read`] once per range; strictly cheaper in metadata
    /// rounds and per-message overheads.
    pub fn read_multi(
        &self,
        blob: BlobId,
        version: Version,
        ranges: &[ByteRange],
    ) -> BlobResult<Vec<Payload>> {
        let meta = self.version_meta(blob, version)?;
        for range in ranges {
            if range.start > range.end || range.end > meta.size {
                return Err(BlobError::OutOfBounds {
                    offset: range.start,
                    len: range.end.saturating_sub(range.start),
                    size: meta.size,
                });
            }
        }
        // Union of chunk covers, as sorted disjoint index runs.
        let mut cover_runs: Vec<Range<u64>> = ranges
            .iter()
            .filter(|r| r.start < r.end)
            .map(|r| chunk_cover(r, meta.chunk_size))
            .collect();
        cover_runs.sort_by_key(|r| r.start);
        cover_runs.dedup_by(|next, prev| {
            if next.start <= prev.end {
                prev.end = prev.end.max(next.end);
                true
            } else {
                false
            }
        });

        // Resolve descriptors: the node-shared cache first, then one
        // descent for the rest.
        let descs = self.resolve_descs(blob, version, &meta, &cover_runs)?;

        // Serve written chunks from the node-shared chunk cache first
        // (prefetched or demand-cached by any co-located client), then
        // batch-fetch the remainder from the providers. Demand fetches
        // are cached too while prefetching is on, so co-located VMs
        // share each other's fetched data exactly as they share the
        // paper's per-node module state.
        let cache_data = self.prefetch_enabled();
        let mut fetched: HashMap<u64, Payload> = HashMap::new();
        let mut fetch: Vec<(u64, ChunkDesc, u64)> = Vec::new();
        // Build the lookup plan first, then consult the cache in ONE
        // batched acquisition: per-chunk lock round trips on this path
        // are the cache's main contention cost under real concurrency
        // (`coarse_cache_locks` re-enables them for the load-sweep
        // ablation — hit/miss results are identical either way).
        let mut plan: Vec<(u64, ChunkDesc, u64)> = Vec::new();
        for run in &cover_runs {
            for idx in run.clone() {
                if let Some(desc) = descs.get(&idx) {
                    let cr = chunk_range(idx, meta.chunk_size, meta.size);
                    plan.push((idx, desc.clone(), cr.end - cr.start));
                }
            }
        }
        let cached: Vec<Option<Payload>> = if self.cfg().coarse_cache_locks {
            plan.iter()
                .map(|(_, desc, _)| self.ctx.chunk_cache_get(desc.id))
                .collect()
        } else {
            let ids: Vec<ChunkId> = plan.iter().map(|(_, desc, _)| desc.id).collect();
            self.ctx.chunk_cache_get_batch(&ids)
        };
        for ((idx, desc, len), data) in plan.into_iter().zip(cached) {
            match data {
                Some(data) => {
                    debug_assert_eq!(data.len(), len, "cached chunk length");
                    fetched.insert(idx, data);
                }
                None => fetch.push((idx, desc, len)),
            }
        }
        for (idx, res) in self.fetch_chunks_results(&fetch) {
            let data = res?;
            if cache_data {
                let id = descs.get(&idx).expect("fetched chunks have descs").id;
                self.ctx
                    .chunk_cache_insert(id, data.clone(), ChunkOrigin::Demand);
            }
            fetched.insert(idx, data);
        }

        // Assemble each requested range from chunk slices (zero-copy) and
        // zero fill.
        let mut out = Vec::with_capacity(ranges.len());
        for range in ranges {
            let mut payload = Payload::empty();
            for idx in chunk_cover(range, meta.chunk_size) {
                let cr = chunk_range(idx, meta.chunk_size, meta.size);
                let want = intersect(&cr, range);
                if want.start >= want.end {
                    continue;
                }
                match fetched.get(&idx) {
                    Some(p) => {
                        debug_assert_eq!(p.len(), cr.end - cr.start, "stored chunk length");
                        payload.append(p.slice(want.start - cr.start, want.end - cr.start));
                    }
                    None => payload.append(Payload::zeros(want.end - want.start)),
                }
            }
            debug_assert_eq!(payload.len(), range.end - range.start);
            out.push(payload);
        }
        Ok(out)
    }

    /// Access hint from the image layer: the guest on this node demanded
    /// `ranges` of `(blob, version)`. The node's [`NodeContext`] records
    /// the first-touch chunk order; once [`crate::context::PUBLISH_BATCH`]
    /// new chunks accumulate, the batch is published to the cluster
    /// [`PatternBoard`](crate::board::PatternBoard) (one control RPC to
    /// the provider-manager node, then a gossip round to the compute
    /// nodes). No-op when prefetching is off.
    ///
    /// Hints are *advisory*: they never move data and never fail — a
    /// publish that cannot reach the board (manager down) is dropped.
    pub fn hint_access(&self, blob: BlobId, version: Version, ranges: &[ByteRange]) {
        if !self.prefetch_enabled() {
            return;
        }
        let Ok(meta) = self.version_meta(blob, version) else {
            return;
        };
        let indices = ranges
            .iter()
            .filter(|r| r.start < r.end && r.end <= meta.size)
            .flat_map(|r| chunk_cover(r, meta.chunk_size));
        if let Some(batch) = self.ctx.note_accesses((blob, version), indices) {
            self.publish_pattern(blob, version, batch);
        }
    }

    /// Publish a first-touch batch to the cluster board and gossip the
    /// update to the other compute nodes (see [`crate::board`]). The
    /// batch is first filtered against the node's board replica: indices
    /// the replica holds *and* has seen confirmed by
    /// [`BlobConfig::prefetch_min_publishers`] distinct publishers are
    /// not re-published, so once the access pattern converges and is
    /// cohort-confirmed the control plane goes quiet — no frame, no
    /// charge. The publish's reply refreshes the replica.
    fn publish_pattern(&self, blob: BlobId, version: Version, batch: Vec<u64>) {
        let key = (blob, version);
        let (batch, from) = self.ctx.unconfirmed_of(key, batch);
        if batch.is_empty() {
            return;
        }
        let summary_bytes = self.cfg().control_bytes + 8 * batch.len() as u64;
        if !self.charge_host_publish(summary_bytes) {
            return; // board unreachable: drop the batch, keep booting
        }
        self.sync_board_replica(key, batch, from);
    }

    /// One exchange with the board on behalf of the node's replica of
    /// `key`'s peer sequence, which holds `from` entries: publish `batch`
    /// (empty = a poll) and file the answer. Returns whether the replica
    /// now extends past the prefetch cursor. Best-effort: a transport
    /// failure reads as "the board has nothing new", which only costs
    /// prefetch opportunity.
    fn sync_board_replica(&self, key: (BlobId, Version), batch: Vec<u64>, from: usize) -> bool {
        let min_pub = self.cfg().prefetch_min_publishers;
        self.store
            .board_sync(key, self.node, batch, from, min_pub)
            .is_some_and(|sync| self.ctx.board_synced(key, from, sync))
    }

    /// Pay the control round that carries a `summary_bytes`-sized
    /// update to the cluster service host beside the provider manager
    /// and — when the host is reachable — charge the gossip fan-out
    /// that disseminates it to the other compute nodes along the
    /// `bff_bcast` tree. This is the shared transport of the pattern
    /// board, the cluster dedup index and the GC eviction round.
    /// Returns whether the host took the update; callers drop their
    /// batch otherwise (every publish is best-effort).
    fn charge_host_publish(&self, summary_bytes: u64) -> bool {
        let host = self.store.topo.pmanager;
        let c = self.cfg().control_bytes;
        if self.store.fabric.is_down(host)
            || self
                .store
                .fabric
                .rpc(self.node, host, summary_bytes, c)
                .is_err()
        {
            return false;
        }
        let targets: Vec<NodeId> = self
            .store
            .topo
            .providers
            .iter()
            .copied()
            .filter(|&n| n != host && n != self.node)
            .collect();
        board::gossip_charge(&self.store.fabric, host, &targets, summary_bytes);
        true
    }

    /// Whether an asynchronous read-ahead step for `(blob, version)`
    /// could make progress: prefetching is on and the node's replica of
    /// the board's peer sequence extends past this node's prefetch
    /// cursor. Local state, and never a fabric charge, so the hypervisor
    /// can poll it before every guest compute burst — unless the replica
    /// is consumed *and* the node has not yet touched every chunk of the
    /// snapshot: then, and only then, it asks the board whether the
    /// cohort has moved on (one poll; a node that has read the whole
    /// image has nothing left to read ahead and asks nothing).
    pub fn has_prefetch_work(&self, blob: BlobId, version: Version) -> bool {
        if !self.prefetch_enabled() {
            return false;
        }
        let key = (blob, version);
        let (behind, replica_len, touched) = self.ctx.prefetch_progress(key);
        if behind {
            return true;
        }
        let read_it_all = self
            .ctx
            .version_facts(key)
            .is_ok_and(|m| touched as u64 >= m.size.div_ceil(m.chunk_size));
        !read_it_all && self.sync_board_replica(key, Vec::new(), replica_len)
    }

    /// Asynchronous batched read-ahead: claim up to `max_chunks` chunks
    /// the cohort touched but this node has not (the predicted
    /// next-chunk window off the [`PatternBoard`](crate::board::PatternBoard)
    /// sequence), resolve their descriptors, fetch them through the
    /// batched per-provider pipeline and land them in the node-shared
    /// chunk cache, where [`Client::read_multi`] serves them without
    /// touching the providers again.
    ///
    /// Best-effort semantics: chunks whose every replica is down are
    /// skipped (per-chunk failover first, like the demand path — a
    /// provider lost mid-prefetch costs nothing but that chunk), and the
    /// call returns how many chunks actually landed. Claimed chunks are
    /// never re-claimed, so a chunk is prefetched at most once per node
    /// and a later demand read is the only retry path. Returns `Ok(0)`
    /// immediately when prefetching is off or nothing is predicted.
    pub fn prefetch_chunks(
        &self,
        blob: BlobId,
        version: Version,
        max_chunks: usize,
    ) -> BlobResult<usize> {
        // Refreshes a consumed replica first (see `has_prefetch_work`);
        // a step the hypervisor's poll already vouched for asks nothing.
        if max_chunks == 0 || !self.has_prefetch_work(blob, version) {
            return Ok(0);
        }
        let candidates = self.ctx.claim_prefetch((blob, version), max_chunks);
        if candidates.is_empty() {
            return Ok(0);
        }
        let meta = self.version_meta(blob, version)?;
        // Coalesce the claimed indices into maximal runs for the single
        // descent (claims come board-ordered, not index-ordered).
        let mut idxs: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|&i| i < meta.span)
            .collect();
        idxs.sort_unstable();
        idxs.dedup();
        if idxs.is_empty() {
            return Ok(0);
        }
        let mut runs: Vec<Range<u64>> = Vec::new();
        for &i in &idxs {
            match runs.last_mut() {
                Some(r) if r.end == i => r.end = i + 1,
                _ => runs.push(i..i + 1),
            }
        }
        let descs = self.resolve_descs(blob, version, &meta, &runs)?;
        // Fetch in *peer-access order* (the order the guests will
        // demand), not index order — read-ahead must stay ahead of the
        // stream it predicts.
        let fetch: Vec<(u64, ChunkDesc, u64)> = candidates
            .iter()
            .filter_map(|&idx| {
                let desc = descs.get(&idx)?; // unwritten chunks: nothing to move
                if self.ctx.chunk_cache_contains(desc.id) {
                    return None; // a co-located client already landed it
                }
                let cr = chunk_range(idx, meta.chunk_size, meta.size);
                Some((idx, desc.clone(), cr.end - cr.start))
            })
            .collect();
        // Land the window in small batched sub-fetches so early chunks
        // become servable while later ones are still on the wire — a
        // wide in-flight budget must not turn the whole window into one
        // all-or-nothing arrival that demand reads race past. Each
        // sub-batch is re-filtered against the cache right before its
        // fetch: a chunk a demand read landed mid-step is not fetched a
        // second time.
        const SUB_BATCH: usize = 8;
        let (mut landed, mut bytes) = (0u64, 0u64);
        for group in fetch.chunks(SUB_BATCH) {
            let group: Vec<(u64, ChunkDesc, u64)> = group
                .iter()
                .filter(|(_, desc, _)| !self.ctx.chunk_cache_contains(desc.id))
                .cloned()
                .collect();
            for (idx, res) in self.fetch_chunks_results(&group) {
                if let Ok(data) = res {
                    bytes += data.len();
                    landed += 1;
                    let id = descs.get(&idx).expect("fetched chunks have descs").id;
                    self.ctx.chunk_cache_insert(id, data, ChunkOrigin::Prefetch);
                }
            }
        }
        if landed > 0 {
            self.ctx.note_prefetched(landed, bytes);
        }
        Ok(landed as usize)
    }

    /// Resolve the chunk descriptors covering `cover_runs` (sorted
    /// disjoint index runs): the node-shared descriptor cache first, then
    /// a *single* segment-tree descent for the remainder. Chunk-granular
    /// hit/miss counts feed the context's aggregate counters. Indices
    /// absent from the returned map are unwritten (read as zeros).
    fn resolve_descs(
        &self,
        blob: BlobId,
        version: Version,
        meta: &VersionMeta,
        cover_runs: &[Range<u64>],
    ) -> BlobResult<FastMap<u64, ChunkDesc>> {
        let mut descs: FastMap<u64, ChunkDesc> = FastMap::default();
        let mut missing: Vec<Range<u64>> = Vec::new();
        let (hits, misses) = self.ctx.with_entry((blob, version), |entry| {
            let (mut hits, mut misses) = (0u64, 0u64);
            for run in cover_runs {
                // Cached descriptors for the already-resolved parts.
                for resolved in entry.resolved.runs_within(run) {
                    hits += resolved.end - resolved.start;
                    for i in resolved {
                        if let Some(d) = entry.descs.get(&i) {
                            descs.insert(i, d.clone());
                        }
                    }
                }
                // The remainder needs the (single) descent below.
                for gap in entry.resolved.gaps_within(run) {
                    misses += gap.end - gap.start;
                    missing.push(gap);
                }
            }
            (hits, misses)
        });
        self.ctx.note_desc_lookup(hits, misses);
        if !missing.is_empty() {
            let leaves = {
                let mut io = ClientNodeIo { client: self };
                segtree::collect_leaves_multi(&mut io, meta.root, meta.span, &missing)?
            };
            self.ctx.with_entry((blob, version), |entry| {
                for (i, d) in leaves {
                    entry.descs.insert(i, d.clone());
                    descs.insert(i, d);
                }
                for run in missing {
                    entry.resolved.insert(run);
                }
            });
        }
        Ok(descs)
    }

    /// Fetch `chunks` (index, descriptor, stored length), grouped by
    /// provider: each provider serves its group as one batched disk read +
    /// one batched transfer, providers in parallel. The read plan is one
    /// wait: every reachable provider's `Fetch` is in flight before the
    /// first reply is read, and only then does each group charge the
    /// fabric. Chunks whose batch fails fall back to per-chunk
    /// [`fetch_chunk`] replica failover. Returns one result per chunk —
    /// the demand path propagates the first error, the prefetch path
    /// tolerates per-chunk failures.
    fn fetch_chunks_results(&self, chunks: &[(u64, ChunkDesc, u64)]) -> ChunkResults {
        if chunks.is_empty() {
            return Vec::new();
        }
        // Preferred replica per chunk, spread like fetch_chunk so batched
        // and per-chunk paths load the same copies. Ascending provider
        // order: deterministic requests and task order.
        let mut by_provider: BTreeMap<NodeId, Vec<(u64, ChunkDesc, u64)>> = BTreeMap::new();
        for (idx, desc, len) in chunks {
            let k = desc.replicas.len();
            debug_assert!(k > 0);
            let preferred = desc.replicas[(desc.id.0 as usize + self.node.index()) % k];
            by_provider
                .entry(preferred)
                .or_default()
                .push((*idx, desc.clone(), *len));
        }
        // Scatter. A provider that is down (or is none) is not asked: its
        // group goes straight to the failover path, as does a group
        // whose exchange fails. Decided once per provider — replies pair
        // with groups by position.
        let store = &self.store;
        let asked: Vec<bool> = by_provider
            .keys()
            .map(|&prov| !store.fabric.is_down(prov) && store.is_provider(prov))
            .collect();
        let mut served: Vec<Option<Fetched>> = Vec::with_capacity(asked.len());
        let requests = by_provider
            .iter()
            .zip(&asked)
            .filter(|(_, &asked)| asked)
            .map(|((&prov, group), _)| (prov, group.iter().map(|(_, desc, _)| desc.id).collect()));
        store.provider_fetch_many(requests, |reply| served.push(reply.ok()));
        let mut served = served.into_iter();
        // Gather: per provider, the batched charges and any failover.
        let results: Arc<Mutex<ChunkResults>> =
            Arc::new(Mutex::new(Vec::with_capacity(chunks.len())));
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = by_provider
            .into_iter()
            .zip(asked)
            .map(|((prov, group), asked)| {
                let served = if asked {
                    served.next().expect("one reply per request")
                } else {
                    None
                };
                let store = Arc::clone(&self.store);
                let results = Arc::clone(&results);
                let me = self.node;
                Box::new(move || {
                    let got = settle_chunk_batch(&store, me, prov, group, served);
                    results.lock().extend(got);
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        self.store.fabric.par_join(tasks);
        Arc::try_unwrap(results)
            .unwrap_or_else(|a| Mutex::new(a.lock().clone()))
            .into_inner()
    }

    /// Write `data` at `offset` on top of `(blob, base)` and publish the
    /// result as the next snapshot. Partially covered chunks are
    /// read-modify-written against the base version.
    pub fn write(
        &self,
        blob: BlobId,
        base: Version,
        offset: u64,
        data: Payload,
    ) -> BlobResult<Version> {
        let meta = self.version_meta(blob, base)?;
        let len = data.len();
        if offset + len > meta.size {
            return Err(BlobError::OutOfBounds {
                offset,
                len,
                size: meta.size,
            });
        }
        if len == 0 {
            return Err(BlobError::BadInput("empty write"));
        }
        let range = offset..offset + len;
        let cover = chunk_cover(&range, meta.chunk_size);
        let mut updates: Vec<(u64, Payload)> =
            Vec::with_capacity((cover.end - cover.start) as usize);
        for idx in cover {
            let cr = chunk_range(idx, meta.chunk_size, meta.size);
            let part = intersect(&cr, &range);
            let piece = data.slice(part.start - offset, part.end - offset);
            let full = if part == cr {
                piece
            } else {
                // Read-modify-write against the base snapshot, splicing
                // the patch in place (no head/tail rope rebuild).
                let mut old = self.read(blob, base, cr.clone())?;
                old.overwrite_in_place(part.start - cr.start, piece);
                old
            };
            updates.push((idx, full));
        }
        self.write_chunks(blob, base, updates)
    }

    /// Publish a snapshot from whole-chunk updates (the COMMIT fast path:
    /// the mirroring module gap-fills chunks locally, so every modified
    /// chunk arrives complete). `updates` maps chunk index → full chunk
    /// payload.
    ///
    /// With [`BlobConfig::dedup`] on, identical payloads within the
    /// commit collapse to one stored chunk and payloads already indexed
    /// by content in the node's [`NodeContext`] are committed by
    /// reference (see the module docs). A failed publish releases every
    /// provider-side reference the commit took.
    pub fn write_chunks(
        &self,
        blob: BlobId,
        base: Version,
        updates: Vec<(u64, Payload)>,
    ) -> BlobResult<Version> {
        self.write_chunks_accounted(blob, base, updates)
            .map(|(v, _)| v)
    }

    /// [`Client::write_chunks`], additionally returning the payload
    /// bytes *this commit* published by reference (index reuse +
    /// intra-commit collapse). Callers attributing dedup savings to one
    /// image (e.g. the mirror's COMMIT stats) must use this rather than
    /// delta-reading the node-shared [`NodeContext`] counters, which
    /// interleave across co-located committers.
    pub fn write_chunks_accounted(
        &self,
        blob: BlobId,
        base: Version,
        updates: Vec<(u64, Payload)>,
    ) -> BlobResult<(Version, u64)> {
        let meta = self.version_meta(blob, base)?;
        if updates.is_empty() {
            return Err(BlobError::BadInput("empty update set"));
        }
        for (idx, data) in &updates {
            let cr = chunk_range(*idx, meta.chunk_size, meta.size);
            if data.len() != cr.end - cr.start {
                return Err(BlobError::BadInput("update is not a full chunk"));
            }
        }

        // Content-address the update set: one `UniqueChunk` per distinct
        // payload, `slot_of[s]` mapping each update slot to its unique.
        // With dedup off every slot is its own unique and no digest is
        // computed.
        let (mut uniques, slot_of) = self.plan_commit(&updates);
        // Every provider-side reference this commit acquires, recorded
        // so a failed publish can roll all of them back.
        let mut retained: Vec<(NodeId, ChunkId)> = Vec::new();
        if self.cfg().dedup {
            self.dedup_probe(&mut uniques, &mut retained);
        }
        let mut reused_bytes = 0u64;
        let result = self.publish_planned(
            blob,
            base,
            meta,
            &updates,
            &uniques,
            &slot_of,
            &mut retained,
            &mut reused_bytes,
        );
        if result.is_err() {
            // Roll back: drop every reference taken above, one batch per
            // provider, all in one step. A release never underflows, so
            // a partial rollback racing other commits stays safe; a
            // provider that cannot be reached keeps its share (a bounded
            // leak, like skipping a down provider) and costs the others
            // nothing.
            let mut by_prov: BTreeMap<NodeId, Vec<ChunkId>> = BTreeMap::new();
            for (prov, id) in retained {
                by_prov.entry(prov).or_default().push(id);
            }
            self.store
                .provider_release_counted(by_prov.into_iter(), |_| {});
        }
        result.map(|v| (v, reused_bytes))
    }

    /// Group the update set by content. Returns the distinct payloads
    /// (first-appearance order) and the slot → unique mapping.
    fn plan_commit(&self, updates: &[(u64, Payload)]) -> (Vec<UniqueChunk>, Vec<usize>) {
        let mut uniques: Vec<UniqueChunk> = Vec::with_capacity(updates.len());
        let mut slot_of: Vec<usize> = Vec::with_capacity(updates.len());
        if self.cfg().dedup {
            let strong = self.cfg().strong_digest;
            let mut by_key: FastMap<ContentKey, usize> = FastMap::default();
            for (slot, (_, data)) in updates.iter().enumerate() {
                let key = (data.len(), data.content_digest(strong));
                let u = *by_key.entry(key).or_insert_with(|| {
                    uniques.push(UniqueChunk {
                        key: Some(key),
                        first_slot: slot,
                        uses: 0,
                        reused: None,
                    });
                    uniques.len() - 1
                });
                uniques[u].uses += 1;
                slot_of.push(u);
            }
        } else {
            for slot in 0..updates.len() {
                uniques.push(UniqueChunk {
                    key: None,
                    first_slot: slot,
                    uses: 1,
                    reused: None,
                });
                slot_of.push(slot);
            }
        }
        (uniques, slot_of)
    }

    /// Probe the node's digest index — then, on a miss, the node's
    /// gossiped replica of the cluster-wide
    /// [`crate::cluster::ClusterIndex`] — for each unique payload and
    /// validate the hits where the bytes are: every reachable provider
    /// holding a candidate gets **one** batch of `(chunk id, content
    /// key)` entries, all providers in one step (one control RPC charged
    /// per provider, as for any batched round). The provider compares
    /// each key with the length and digest of the chunk *it stores* and
    /// takes the reference iff they are equal — so what a hit guarantees
    /// is digest equality against the stored bytes, never just against
    /// an index entry: 64 bits of it by default,
    /// [`BlobConfig::strong_digest`] for the collision-resistant mode;
    /// one path for both, and no chunk travels to be compared.
    /// Replicas that are down, unreachable or no longer hold the chunk
    /// drop out — exactly the push pipeline's per-replica failover
    /// semantics. A hit whose chunk is gone everywhere is forgotten in
    /// both indexes; a mismatch (the index entry points at other
    /// content) keeps the entry — it is still correct for the *other*
    /// payload — and pushes fresh. Cluster hits ride the identical
    /// validation and rollback path as node-local ones.
    fn dedup_probe(&self, uniques: &mut [UniqueChunk], retained: &mut Vec<(NodeId, ChunkId)>) {
        let cluster_on = self.cfg().cluster_dedup;
        let mut candidates: Vec<(usize, ContentKey, ChunkDesc)> = Vec::new();
        let mut cluster_misses: Vec<(usize, ContentKey)> = Vec::new();
        for (u, unique) in uniques.iter().enumerate() {
            let key = unique.key.expect("dedup plan carries keys");
            if let Some(desc) = self.ctx.digest_lookup(&key) {
                candidates.push((u, key, desc));
            } else if cluster_on {
                if self.cfg().coarse_cluster_probe {
                    // Ablation: the pre-wall-clock per-key exclusive probe.
                    if let Some(desc) = self.store.cluster_get_exclusive(&key) {
                        candidates.push((u, key, desc));
                    }
                } else {
                    cluster_misses.push((u, key));
                }
            }
        }
        // Probe every node-index miss under ONE shared acquisition of the
        // cluster index: commits probing concurrently share the lock, and
        // a commit never pays more than one acquisition however many
        // chunks it carries.
        if !cluster_misses.is_empty() {
            let keys: Vec<ContentKey> = cluster_misses.iter().map(|&(_, key)| key).collect();
            let hits = self.store.cluster_get(keys);
            for ((u, key), hit) in cluster_misses.into_iter().zip(hits) {
                if let Some(desc) = hit {
                    candidates.push((u, key, desc));
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        // Each provider's share of the candidates — `(candidate, chunk
        // id, key)` per replica it holds — in ascending provider order
        // (deterministic RPCs).
        let mut batches: BTreeMap<NodeId, Vec<(usize, ChunkId, ContentKey)>> = BTreeMap::new();
        for (c, (_, key, desc)) in candidates.iter().enumerate() {
            for &prov in desc.replicas.iter() {
                batches.entry(prov).or_default().push((c, desc.id, *key));
            }
        }
        let c = self.cfg().control_bytes;
        let fabric = &self.store.fabric;
        batches
            .retain(|&prov, _| !fabric.is_down(prov) && fabric.rpc(self.node, prov, c, c).is_ok());
        // Per candidate: the replicas that took the reference, and
        // whether any replica found other content under the id.
        let mut took: Vec<Vec<NodeId>> = vec![Vec::new(); candidates.len()];
        let mut mismatched = vec![false; candidates.len()];
        let mut asked = batches.iter();
        let requests = batches.iter().map(|(&prov, entries)| {
            let entries = entries.iter().map(|&(_, id, key)| (id, key)).collect();
            (prov, entries)
        });
        self.store.provider_retain(requests, |outcomes| {
            let (&prov, entries) = asked.next().expect("one answer per batch");
            for (&(c, id, _), outcome) in entries.iter().zip(outcomes) {
                match outcome {
                    RetainOutcome::Retained => {
                        took[c].push(prov);
                        retained.push((prov, id));
                    }
                    RetainOutcome::Mismatch => mismatched[c] = true,
                    RetainOutcome::Gone => {}
                }
            }
        });
        for (c, (u, key, desc)) in candidates.into_iter().enumerate() {
            let survivors: Vec<NodeId> = desc
                .replicas
                .iter()
                .copied()
                .filter(|prov| took[c].contains(prov))
                .collect();
            if !survivors.is_empty() {
                uniques[u].reused = Some(ChunkDesc {
                    id: desc.id,
                    replicas: survivors.into(),
                });
            } else if !mismatched[c] {
                self.forget_stale_hit(&key);
            }
        }
    }

    /// A validated dedup hit turned out to point at content that no
    /// longer exists anywhere (e.g. snapshot GC reclaimed it): drop the
    /// entry from both the node index and the cluster replica, wherever
    /// it lives — a stale key is stale in either.
    fn forget_stale_hit(&self, key: &ContentKey) {
        self.ctx.digest_forget(key);
        if self.cfg().cluster_dedup {
            self.store.cluster_forget(key);
        }
    }

    /// Allocate, push and publish a content-planned commit. Any error
    /// propagates to `write_chunks`, which rolls back `retained`.
    #[allow(clippy::too_many_arguments)]
    fn publish_planned(
        &self,
        blob: BlobId,
        base: Version,
        meta: VersionMeta,
        updates: &[(u64, Payload)],
        uniques: &[UniqueChunk],
        slot_of: &[usize],
        retained: &mut Vec<(NodeId, ChunkId)>,
        reused_out: &mut u64,
    ) -> BlobResult<Version> {
        // 1. Allocate chunk ids + providers for the uniques that need
        //    fresh storage (one provider-manager RPC, skipped entirely
        //    when every chunk commits by reference), avoiding providers
        //    the fabric currently reports down.
        let fresh: Vec<usize> = (0..uniques.len())
            .filter(|&u| uniques[u].reused.is_none())
            .collect();
        let mut unique_descs: Vec<Option<ChunkDesc>> =
            uniques.iter().map(|u| u.reused.clone()).collect();
        if !fresh.is_empty() {
            let n = fresh.len();
            let c = self.cfg().control_bytes;
            self.store.fabric.rpc(
                self.node,
                self.store.topology().pmanager,
                c,
                c + 24 * n as u64,
            )?;
            let down: Vec<bool> = self
                .store
                .topology()
                .providers
                .iter()
                .map(|&p| self.store.fabric.is_down(p))
                .collect();
            let descs = self
                .store
                .pm_allocate(n, meta.chunk_size, self.cfg().replication, down)?;
            // A fresh put stores each replica at refcount 1 — record that
            // implicit reference *before* pushing, so a failed push or
            // publish releases (and thereby frees) whatever actually got
            // stored instead of orphaning it on the providers. Releasing
            // a replica the push never reached is a no-op.
            for desc in &descs {
                for &prov in desc.replicas.iter() {
                    retained.push((prov, desc.id));
                }
            }

            // 2. Push the distinct payloads through the configured
            //    replication pipeline (fan-out / chain / sequential) with
            //    per-replica failover — deduplicated bytes never reach
            //    the wire.
            let fresh_updates: Arc<Vec<(u64, Payload)>> = Arc::new(
                fresh
                    .iter()
                    .map(|&u| updates[uniques[u].first_slot].clone())
                    .collect(),
            );
            let pushed = self.push_chunks(&fresh_updates, descs)?;
            for (&u, desc) in fresh.iter().zip(pushed) {
                unique_descs[u] = Some(desc);
            }
        }

        // 3. Extra intra-commit uses take one more provider-side
        //    reference each (a fresh put starts at refcount 1 — its
        //    first use; a validated reuse already retained once): one
        //    batch per provider, all in one step, the id listed once per
        //    extra use.
        let mut dedup_chunks = 0u64;
        let mut dedup_bytes = 0u64;
        let mut extra: BTreeMap<NodeId, Vec<(ChunkId, ContentKey)>> = BTreeMap::new();
        for (u, unique) in uniques.iter().enumerate() {
            let desc = unique_descs[u].as_ref().expect("filled above");
            for _ in 1..unique.uses {
                let key = unique.key.expect("only a dedup plan collapses slots");
                for &prov in desc.replicas.iter() {
                    extra.entry(prov).or_default().push((desc.id, key));
                }
            }
            let len = updates[unique.first_slot].1.len();
            if unique.reused.is_some() {
                dedup_chunks += unique.uses;
                dedup_bytes += len * unique.uses;
            } else if unique.uses > 1 {
                dedup_chunks += unique.uses - 1;
                dedup_bytes += len * (unique.uses - 1);
            }
        }
        let mut asked = extra.iter();
        let requests = extra.iter().map(|(&prov, entries)| (prov, entries.clone()));
        self.store.provider_retain(requests, |outcomes| {
            let (&prov, entries) = asked.next().expect("one answer per batch");
            for (&(id, _), outcome) in entries.iter().zip(outcomes) {
                if outcome == RetainOutcome::Retained {
                    retained.push((prov, id));
                }
            }
        });

        // 4. Shadow the metadata tree with one descriptor per slot.
        let update_map: FastMap<u64, ChunkDesc> = updates
            .iter()
            .enumerate()
            .map(|(slot, (i, _))| {
                (
                    *i,
                    unique_descs[slot_of[slot]].clone().expect("filled above"),
                )
            })
            .collect();
        let new_root = {
            let mut io = ClientNodeIo { client: self };
            segtree::build_new_tree(&mut io, meta.root, meta.span, &update_map)?
        };

        // 5. Publish at the version manager (the total-order point).
        self.control_rpc(self.store.topology().vmanager)?;
        let seen = self.ctx.version_purges();
        let v = self.store.vm_publish(blob, base, new_root)?;
        self.ctx.record_version_facts(
            (blob, v),
            VersionMeta {
                root: new_root,
                ..meta
            },
            seen,
        );
        // The commit is durable: record its content for future reuse and
        // account the dedup savings.
        if self.cfg().dedup {
            for (u, unique) in uniques.iter().enumerate() {
                if let Some(key) = unique.key {
                    let desc = unique_descs[u].clone().expect("filled above");
                    self.ctx.digest_record(key, desc);
                }
            }
            if dedup_chunks > 0 {
                self.ctx.note_dedup(dedup_chunks, dedup_bytes);
            }
            *reused_out = dedup_bytes;
            self.publish_cluster_entries(uniques, &unique_descs);
        }
        // Seed the new snapshot's descriptor cache: everything resolved
        // for the base still holds (unmodified subtrees are shared), plus
        // the delta just published. The committing client — or any
        // co-located one — can then read the snapshot back without
        // touching the metadata plane. The base entry is *moved*, not
        // cloned: a commit chain would otherwise copy O(resolved chunks)
        // per commit; a later read of the base version simply re-resolves.
        {
            let mut entry = self.ctx.take_entry((blob, base)).unwrap_or_default();
            // Coalesce the updated indices into maximal runs first: a
            // full-image commit is then one range insert, not one per
            // chunk.
            let mut idxs: Vec<u64> = update_map.keys().copied().collect();
            idxs.sort_unstable();
            let mut run_start = idxs[0];
            let mut run_end = idxs[0] + 1;
            for &i in &idxs[1..] {
                if i == run_end {
                    run_end = i + 1;
                } else {
                    entry.resolved.insert(run_start..run_end);
                    (run_start, run_end) = (i, i + 1);
                }
            }
            entry.resolved.insert(run_start..run_end);
            for (i, d) in &update_map {
                entry.descs.insert(*i, d.clone());
            }
            self.ctx.insert_entry((blob, v), entry);
        }
        Ok(v)
    }

    /// Push a durable commit's content keys to the cluster-wide dedup
    /// index: one request carries them to the index host beside the
    /// provider manager, which files the keys it does not already hold
    /// and answers how many that was. Only those are charged — one
    /// control RPC plus the gossip that carries the update to the other
    /// compute nodes along the broadcast tree; content the cluster
    /// already indexes (the common converged boot path) costs nothing.
    /// Best-effort like every index update: an unreachable host just
    /// drops the batch.
    fn publish_cluster_entries(&self, uniques: &[UniqueChunk], unique_descs: &[Option<ChunkDesc>]) {
        if !self.cfg().cluster_dedup || self.store.fabric.is_down(self.store.topo.pmanager) {
            return; // index host unreachable: skip, the content stays node-local
        }
        let entries: Vec<(ContentKey, ChunkDesc)> = uniques
            .iter()
            .enumerate()
            .filter_map(|(u, unique)| {
                let key = unique.key?;
                Some((key, unique_descs[u].clone().expect("filled above")))
            })
            .collect();
        let novel = self.store.cluster_record(entries);
        if novel > 0 {
            // One control round per commit: key + descriptor summaries
            // are ~48 bytes each (length, digest, chunk id, replica set).
            self.charge_host_publish(self.cfg().control_bytes + 48 * novel as u64);
        }
    }

    /// Convenience: create a blob and publish `data` as `Version(1)` — the
    /// "upload image to the repository" client operation from Fig. 1.
    pub fn upload(&self, data: Payload) -> BlobResult<(BlobId, Version)> {
        let blob = self.create_blob(data.len())?;
        let v = self.write(blob, Version(0), 0, data)?;
        Ok((blob, v))
    }

    /// Delete one snapshot and reclaim the chunk storage nothing else
    /// references (see [`Client::delete_snapshots`]).
    pub fn delete_snapshot(&self, blob: BlobId, version: Version) -> BlobResult<GcReport> {
        self.delete_snapshots(blob, std::slice::from_ref(&version))
    }

    /// Delete a batch of snapshots of `blob` and garbage-collect the
    /// chunk storage that only they referenced.
    ///
    /// The version manager marks the versions dead (one control RPC,
    /// all-or-nothing) and hands back every live root of the blob's
    /// *clone family*, each once — the only trees that can share
    /// metadata nodes with the deleted ones. The collector descends the
    /// dead and the live trees together, one metadata round per level,
    /// abandoning every subtree a live tree shares
    /// ([`segtree::collect_dead_leaves`]): it reads the paths on which
    /// the deleted versions differ from their family, not the family's
    /// trees. A leaf only dead roots reach holds exactly one
    /// provider-side reference per acked replica in its descriptor — the
    /// write path's refcount invariant — so releasing those references
    /// (one batched RPC per provider, down providers skipped) frees
    /// precisely the chunks no surviving snapshot can reach, and never a
    /// shared one. Zero-ref chunks are removed by the providers with the
    /// aggregate storage counters maintained exactly.
    ///
    /// Freed chunks are evicted from the cluster dedup index, every
    /// node's digest index and chunk cache, and the deleted versions'
    /// descriptor-cache entries and board patterns are dropped (one
    /// control RPC to the index host plus a gossip round charge; the
    /// eviction is a cache/index hygiene matter — a stale entry that
    /// survives, e.g. across a partition, self-heals at its next
    /// validated use).
    ///
    /// Errors after the marking RPC leave the versions deleted with
    /// their references unreleased — a bounded leak, never a wrong
    /// free. The mark is journaled on a durable deployment, so a crash
    /// at that point recovers to the same state: re-deleting is not
    /// possible (the versions no longer resolve), and nothing records
    /// which releases were still owed.
    pub fn delete_snapshots(&self, blob: BlobId, versions: &[Version]) -> BlobResult<GcReport> {
        if versions.is_empty() {
            return Ok(GcReport::default());
        }
        // 1. Serialize the delete at the version manager and snapshot
        //    the family's live-root frontier under the same lock.
        self.control_rpc(self.store.topology().vmanager)?;
        let outcome = self.store.vm_delete_snapshots(blob, versions)?;
        // The versions are dead from here on, whatever happens below:
        // no handle of this store may resolve them from a cache again.
        let keys: Vec<(BlobId, Version)> = versions.iter().map(|&v| (blob, v)).collect();
        self.store.purge_versions(&keys);

        // 2. Reachability diff by leaf node key: dead = reachable from a
        //    deleted root and from no live one.
        let dead = segtree::collect_dead_leaves(
            &mut ClientNodeIo { client: self },
            &outcome.dead_roots,
            &outcome.live_roots,
            outcome.span,
        )?;
        let mut report = GcReport {
            deleted_versions: versions.len(),
            dead_leaves: dead.len() as u64,
            ..GcReport::default()
        };

        // 3. Release the dead leaves' references on every acked replica,
        //    one batch per provider. A down or unreachable provider is
        //    skipped with its whole batch — its copy is gone with it (or
        //    will resurface as an orphan a future stale-hit validation
        //    cleans up); the storm must not fail because one node died
        //    mid-release.
        // Ascending provider order: deterministic RPCs.
        let mut by_prov: BTreeMap<NodeId, Vec<ChunkId>> = BTreeMap::new();
        for (_, desc) in &dead {
            for &prov in desc.replicas.iter() {
                by_prov.entry(prov).or_default().push(desc.id);
            }
        }
        let c = self.cfg().control_bytes;
        let mut freed_ids: FastSet<ChunkId> = FastSet::default();
        let fabric = &self.store.fabric;
        by_prov.retain(|&prov, ids| {
            !fabric.is_down(prov)
                && fabric
                    .rpc(self.node, prov, c + 8 * ids.len() as u64, c)
                    .is_ok()
        });
        // All surviving batches in one step: one wait for the release.
        let mut asked = by_prov.values();
        self.store.provider_release_counted(
            by_prov.iter().map(|(&prov, ids)| (prov, ids.clone())),
            |released| {
                let ids = asked.next().expect("one outcome per batch");
                for (&id, (bytes, removed, dropped)) in ids.iter().zip(released) {
                    report.released_refs += dropped as u64;
                    if removed {
                        report.freed_chunks += 1;
                        report.freed_bytes += bytes;
                        freed_ids.insert(id);
                    }
                }
            },
        );

        // 4. Evict the freed entries cluster-wide: board patterns of
        //    the dead versions, digest/chunk-cache entries of the freed
        //    chunks, on the index host and every node replica. Charged
        //    as one control RPC plus a gossip round when the host is
        //    reachable; the eviction itself is applied regardless
        //    (replicas converge eventually — stale survivors self-heal
        //    at validation).
        let summary_bytes = c + 8 * (keys.len() + freed_ids.len()) as u64;
        self.charge_host_publish(summary_bytes);
        self.store.purge_deleted(&keys, &freed_ids);
        Ok(report)
    }

    /// Push the update set through the configured replication pipeline
    /// and reduce each descriptor to the replicas that acknowledged
    /// (in allocation order, so all modes publish identical replica
    /// sets when nothing fails). Errors only if a chunk retains no
    /// replica.
    ///
    /// The update set and descriptors are shared with the push tasks by
    /// refcount; each replica push clones exactly one payload rope (the
    /// copy that provider stores).
    fn push_chunks(
        &self,
        updates: &Arc<Vec<(u64, Payload)>>,
        descs: Vec<ChunkDesc>,
    ) -> BlobResult<Vec<ChunkDesc>> {
        let descs = Arc::new(descs);
        let outcome = match self.cfg().replication_mode {
            ReplicationMode::Fanout => self.push_fanout(updates, &descs),
            ReplicationMode::Chain => self.push_chain(updates, &descs),
            ReplicationMode::ChainPipelined => self.push_chain_pipelined(updates, &descs),
            ReplicationMode::Sequential => self.push_sequential(updates, &descs),
        };
        let mut out = Vec::with_capacity(descs.len());
        for (slot, desc) in descs.iter().enumerate() {
            let acked = &outcome.acked[slot];
            let survivors: Vec<NodeId> = desc
                .replicas
                .iter()
                .copied()
                .filter(|p| acked.contains(p))
                .collect();
            if survivors.is_empty() {
                return Err(outcome.errors[slot]
                    .clone()
                    .unwrap_or(BlobError::ChunkUnavailable(desc.id)));
            }
            out.push(ChunkDesc {
                id: desc.id,
                replicas: survivors.into(),
            });
        }
        Ok(out)
    }

    /// Fan-out: every `(chunk, replica)` pair grouped by destination
    /// provider; one batched transfer + disk write per provider, all
    /// providers in parallel.
    fn push_fanout(
        &self,
        updates: &Arc<Vec<(u64, Payload)>>,
        descs: &Arc<Vec<ChunkDesc>>,
    ) -> PushOutcome {
        let mut by_provider: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (slot, desc) in descs.iter().enumerate() {
            for &prov in desc.replicas.iter() {
                by_provider.entry(prov).or_default().push(slot);
            }
        }
        let mut providers: Vec<NodeId> = by_provider.keys().copied().collect();
        providers.sort_unstable(); // deterministic task order
        let outcome = Arc::new(Mutex::new(PushOutcome::new(descs.len())));
        let async_writes = self.cfg().async_writes;
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = providers
            .into_iter()
            .map(|prov| {
                let slots = by_provider.remove(&prov).expect("grouped above");
                let updates = Arc::clone(updates);
                let descs = Arc::clone(descs);
                let store = Arc::clone(&self.store);
                let outcome = Arc::clone(&outcome);
                let me = self.node;
                Box::new(move || {
                    let res = push_slots(&store, me, prov, &updates, &descs, &slots, async_writes);
                    record_slots(&outcome, prov, &slots, res);
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        self.store.fabric.par_join(tasks);
        unwrap_shared(outcome)
    }

    /// Chain: chunks sharing a replica chain are pushed once to the first
    /// replica; each live hop forwards the batch to the next. A dead hop
    /// is skipped and the next hop is fed from the last live holder.
    fn push_chain(
        &self,
        updates: &Arc<Vec<(u64, Payload)>>,
        descs: &Arc<Vec<ChunkDesc>>,
    ) -> PushOutcome {
        let mut by_chain: HashMap<Arc<[NodeId]>, Vec<usize>> = HashMap::new();
        for (slot, desc) in descs.iter().enumerate() {
            by_chain
                .entry(desc.replicas.clone())
                .or_default()
                .push(slot);
        }
        let mut chains: Vec<Arc<[NodeId]>> = by_chain.keys().cloned().collect();
        chains.sort_unstable(); // deterministic task order
        let outcome = Arc::new(Mutex::new(PushOutcome::new(descs.len())));
        let async_writes = self.cfg().async_writes;
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = chains
            .into_iter()
            .map(|chain| {
                let slots = by_chain.remove(&chain).expect("grouped above");
                let updates = Arc::clone(updates);
                let descs = Arc::clone(descs);
                let store = Arc::clone(&self.store);
                let outcome = Arc::clone(&outcome);
                let me = self.node;
                Box::new(move || {
                    let mut src = me;
                    for &prov in chain.iter() {
                        match push_slots(&store, src, prov, &updates, &descs, &slots, async_writes)
                        {
                            Ok(()) => {
                                record_slots(&outcome, prov, &slots, Ok(()));
                                src = prov;
                            }
                            Err(e) => record_slots(&outcome, prov, &slots, Err(e)),
                        }
                    }
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        self.store.fabric.par_join(tasks);
        unwrap_shared(outcome)
    }

    /// Pipelined chain: chunks stream down each replica chain in
    /// *waves* — in wave `w`, chunk `j` moves over hop `w − j`, so hop
    /// `n+1` forwards chunk `j` while hop `n` is already receiving
    /// chunk `j+1`. Each link therefore carries one chunk at a time
    /// (streaming on an established connection), and the chain's
    /// completion latency collapses from `hops × batch time` (the
    /// store-and-forward [`Client::push_chain`]) towards
    /// `batch time + hops × chunk time` — the Frisbee-style pipelining
    /// the broadcast ablations show, applied to replication. Client
    /// egress stays `1×` the payload; the price is one message per
    /// `(chunk, hop)` instead of one per hop.
    ///
    /// Failover is chunk-granular with [`Client::push_chain`]'s
    /// semantics: a dead hop is skipped for that chunk and the next hop
    /// is fed from the chunk's last live holder.
    fn push_chain_pipelined(
        &self,
        updates: &Arc<Vec<(u64, Payload)>>,
        descs: &Arc<Vec<ChunkDesc>>,
    ) -> PushOutcome {
        let mut by_chain: HashMap<Arc<[NodeId]>, Vec<usize>> = HashMap::new();
        for (slot, desc) in descs.iter().enumerate() {
            by_chain
                .entry(desc.replicas.clone())
                .or_default()
                .push(slot);
        }
        let mut chains: Vec<Arc<[NodeId]>> = by_chain.keys().cloned().collect();
        chains.sort_unstable(); // deterministic task order
        let outcome = Arc::new(Mutex::new(PushOutcome::new(descs.len())));
        let async_writes = self.cfg().async_writes;
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = chains
            .into_iter()
            .map(|chain| {
                let slots = by_chain.remove(&chain).expect("grouped above");
                let updates = Arc::clone(updates);
                let descs = Arc::clone(descs);
                let store = Arc::clone(&self.store);
                let outcome = Arc::clone(&outcome);
                let me = self.node;
                Box::new(move || {
                    let (m, k) = (slots.len(), chain.len());
                    // Last live holder of each chunk (starts at the
                    // client); advanced as hops acknowledge.
                    let mut src_of: Vec<NodeId> = vec![me; m];
                    for wave in 0..m + k - 1 {
                        // Transfers of one wave ride distinct links
                        // (chunk j on hop w−j), so they run
                        // concurrently; the wave barrier is what
                        // serializes consecutive chunks on each link.
                        let active: Vec<usize> =
                            (wave.saturating_sub(k - 1)..=wave.min(m - 1)).collect();
                        let wave_res: WaveResults =
                            Arc::new(Mutex::new(Vec::with_capacity(active.len())));
                        let wave_tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = active
                            .iter()
                            .map(|&j| {
                                let hop = chain[wave - j];
                                let src = src_of[j];
                                let slot = slots[j];
                                let updates = Arc::clone(&updates);
                                let descs = Arc::clone(&descs);
                                let store = Arc::clone(&store);
                                let wave_res = Arc::clone(&wave_res);
                                Box::new(move || {
                                    let res = push_slots(
                                        &store,
                                        src,
                                        hop,
                                        &updates,
                                        &descs,
                                        &[slot],
                                        async_writes,
                                    );
                                    wave_res.lock().push((j, hop, res));
                                })
                                    as Box<dyn FnOnce() + Send + 'static>
                            })
                            .collect();
                        store.fabric.par_join(wave_tasks);
                        for (j, hop, res) in wave_res.lock().drain(..) {
                            match res {
                                Ok(()) => {
                                    record_slots(&outcome, hop, &[slots[j]], Ok(()));
                                    src_of[j] = hop;
                                }
                                Err(e) => record_slots(&outcome, hop, &[slots[j]], Err(e)),
                            }
                        }
                    }
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        self.store.fabric.par_join(tasks);
        unwrap_shared(outcome)
    }

    /// Sequential reference: one push per chunk, replicas in order
    /// (the pre-batching behaviour, with the same failover semantics).
    fn push_sequential(
        &self,
        updates: &Arc<Vec<(u64, Payload)>>,
        descs: &Arc<Vec<ChunkDesc>>,
    ) -> PushOutcome {
        let outcome = Arc::new(Mutex::new(PushOutcome::new(descs.len())));
        let async_writes = self.cfg().async_writes;
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = (0..descs.len())
            .map(|slot| {
                let replicas = Arc::clone(&descs[slot].replicas);
                let updates = Arc::clone(updates);
                let descs = Arc::clone(descs);
                let store = Arc::clone(&self.store);
                let outcome = Arc::clone(&outcome);
                let me = self.node;
                Box::new(move || {
                    let slots = [slot];
                    for &prov in replicas.iter() {
                        let res =
                            push_slots(&store, me, prov, &updates, &descs, &slots, async_writes);
                        record_slots(&outcome, prov, &slots, res);
                    }
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        self.store.fabric.par_join(tasks);
        unwrap_shared(outcome)
    }
}

/// What a snapshot delete reclaimed (see [`Client::delete_snapshots`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Versions marked dead at the version manager.
    pub deleted_versions: usize,
    /// Metadata leaf nodes reachable only from the deleted versions.
    pub dead_leaves: u64,
    /// Provider-side chunk references released (one per dead leaf per
    /// reachable acked replica).
    pub released_refs: u64,
    /// Chunk *replica instances* whose refcount reached zero and were
    /// removed from their provider.
    pub freed_chunks: u64,
    /// Provider storage bytes those removals reclaimed (replicas
    /// counted separately, matching `total_stored_bytes`).
    pub freed_bytes: u64,
}

/// One distinct payload content within a commit's update set.
#[derive(Debug)]
struct UniqueChunk {
    /// Content key, `None` when dedup is off (no digest computed).
    key: Option<ContentKey>,
    /// First update slot carrying this content (its payload is pushed).
    first_slot: usize,
    /// How many update slots carry this content.
    uses: u64,
    /// Validated digest-index hit: commit by reference to this
    /// descriptor instead of pushing.
    reused: Option<ChunkDesc>,
}

/// Per-chunk fetch outcomes keyed by chunk index.
type ChunkResults = Vec<(u64, BlobResult<Payload>)>;

/// One pipelined-chain wave's outcomes: `(chain slot, hop, result)`.
type WaveResults = Arc<Mutex<Vec<(usize, NodeId, BlobResult<()>)>>>;

/// Fetch one chunk with replica failover. The preferred replica is spread
/// by chunk id and reader so concurrent readers don't gang up on one copy.
fn fetch_chunk(
    store: &Arc<BlobStore>,
    me: NodeId,
    desc: &ChunkDesc,
    len: u64,
) -> BlobResult<Payload> {
    let k = desc.replicas.len();
    debug_assert!(k > 0);
    let start = (desc.id.0 as usize + me.index()) % k;
    let mut last: BlobError = BlobError::ChunkUnavailable(desc.id);
    for i in 0..k {
        let prov = desc.replicas[(start + i) % k];
        if store.fabric.is_down(prov) {
            last = BlobError::Net(NetError::NodeDown(prov));
            continue;
        }
        let got = match store.provider_fetch(prov, vec![desc.id]) {
            Ok(mut served) => served.pop().flatten(),
            Err(e) => {
                // Transport failure: this replica is unreachable, try
                // the next one — same failover as a down node.
                last = e;
                continue;
            }
        };
        let Some((data, hot)) = got else {
            last = BlobError::ChunkUnavailable(desc.id);
            continue;
        };
        let serve = || -> Result<(), NetError> {
            if !hot || !store.config().provider_read_cache {
                store.fabric.disk_read(prov, len)?;
            }
            store.fabric.transfer(prov, me, len)
        };
        match serve() {
            Ok(()) => {
                debug_assert_eq!(data.len(), len);
                return Ok(data);
            }
            Err(e) => last = BlobError::Net(e),
        }
    }
    Err(last)
}

/// Settle one provider's slice of a batched read plan, given its answer
/// (`None`: not asked or the exchange failed): all chunks present at
/// `prov` are charged as one batched disk read (cold bytes only) and one
/// batched transfer — the per-message savings behind the vectored
/// pipeline. Chunks the provider did not serve (missing, node down, or a
/// mid-batch fabric failure) fall back to per-chunk [`fetch_chunk`]
/// replica failover, preserving availability semantics.
fn settle_chunk_batch(
    store: &Arc<BlobStore>,
    me: NodeId,
    prov: NodeId,
    group: Vec<(u64, ChunkDesc, u64)>,
    served: Option<Fetched>,
) -> ChunkResults {
    let mut got: Vec<(u64, ChunkDesc, u64, Payload)> = Vec::with_capacity(group.len());
    let mut fallback: Vec<(u64, ChunkDesc, u64)> = Vec::new();
    let (mut total, mut cold) = (0u64, 0u64);
    match served {
        Some(served) => {
            let read_cache = store.config().provider_read_cache;
            for ((idx, desc, len), res) in group.into_iter().zip(served) {
                match res {
                    Some((data, hot)) => {
                        debug_assert_eq!(data.len(), len);
                        total += len;
                        if !hot || !read_cache {
                            cold += len;
                        }
                        got.push((idx, desc, len, data));
                    }
                    None => fallback.push((idx, desc, len)),
                }
            }
        }
        // The whole batch retries through the per-chunk failover path
        // (it skips unreachable nodes).
        None => fallback = group,
    }
    let mut out: ChunkResults = Vec::with_capacity(got.len() + fallback.len());
    if !got.is_empty() {
        let serve = || -> Result<(), NetError> {
            if cold > 0 {
                store.fabric.disk_read(prov, cold)?;
            }
            store.fabric.transfer(prov, me, total)
        };
        match serve() {
            Ok(()) => out.extend(got.into_iter().map(|(idx, _, _, data)| (idx, Ok(data)))),
            // The provider failed mid-batch: retry every chunk through the
            // failover path (it skips down nodes).
            Err(_) => fallback.extend(got.into_iter().map(|(idx, desc, len, _)| (idx, desc, len))),
        }
    }
    for (idx, desc, len) in fallback {
        out.push((idx, fetch_chunk(store, me, &desc, len)));
    }
    out
}

/// Per-chunk push results, indexed like the update set.
#[derive(Debug, Default)]
struct PushOutcome {
    /// Replicas that acknowledged each chunk (completion order; reduced
    /// against the descriptor's allocation order afterwards).
    acked: Vec<Vec<NodeId>>,
    /// Last push failure seen per chunk.
    errors: Vec<Option<BlobError>>,
}

impl PushOutcome {
    fn new(n: usize) -> Self {
        Self {
            acked: vec![Vec::new(); n],
            errors: vec![None; n],
        }
    }
}

/// Push the chunks at `slots` from `src` to provider `prov`: one
/// transfer + one (write-back) disk write for the whole group, chunks
/// stored under a single shard acquisition — the per-message savings
/// mirroring the batched read path. The payload rope is cloned once per
/// stored replica (the copy the provider keeps).
fn push_slots(
    store: &Arc<BlobStore>,
    src: NodeId,
    prov: NodeId,
    updates: &[(u64, Payload)],
    descs: &[ChunkDesc],
    slots: &[usize],
    async_writes: bool,
) -> BlobResult<()> {
    if !store.is_provider(prov) {
        return Err(BlobError::ChunkUnavailable(descs[slots[0]].id));
    }
    let total: u64 = slots.iter().map(|&s| updates[s].1.len()).sum();
    store.fabric.transfer(src, prov, total)?;
    store.provider_put(
        prov,
        slots
            .iter()
            .map(|&s| (descs[s].id, updates[s].1.clone()))
            .collect(),
    )?;
    if async_writes {
        store.fabric.disk_write_cached(prov, total)?;
    } else {
        store.fabric.disk_write(prov, total)?;
    }
    Ok(())
}

/// Record a push outcome at `prov` for every chunk it carried.
fn record_slots(outcome: &Mutex<PushOutcome>, prov: NodeId, slots: &[usize], res: BlobResult<()>) {
    let mut o = outcome.lock();
    match res {
        Ok(()) => {
            for &slot in slots {
                o.acked[slot].push(prov);
            }
        }
        Err(e) => {
            for &slot in slots {
                o.errors[slot] = Some(e.clone());
            }
        }
    }
}

/// Take the outcome back out of the shared task-side handle.
fn unwrap_shared(outcome: Arc<Mutex<PushOutcome>>) -> PushOutcome {
    Arc::try_unwrap(outcome)
        .unwrap_or_else(|a| Mutex::new(std::mem::take(&mut *a.lock())))
        .into_inner()
}

/// Metadata I/O through the node-shared tree-node cache, with per-shard
/// batched RPCs for what the node has never seen.
struct ClientNodeIo<'a> {
    client: &'a Client,
}

impl ClientNodeIo<'_> {
    fn shard_count(&self) -> usize {
        self.client.store.meta_shards()
    }
}

impl NodeIo for ClientNodeIo<'_> {
    fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
        self.client.meta_fetch_calls.fetch_add(1, Ordering::Relaxed);
        let store = &self.client.store;
        // Serve what this node has seen first (nodes are immutable).
        let mut out = self.client.ctx.tree_nodes_get(keys);
        let misses: Vec<(usize, NodeKey)> = keys
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| out[i].is_none())
            .collect();
        if misses.is_empty() {
            return Ok(out.into_iter().flatten().collect());
        }
        // Group misses by shard (dense buckets, ascending shard order —
        // deterministic RPCs); one RPC per shard (the "one metadata round
        // per level" batching).
        let mut by_shard: Vec<Vec<(usize, NodeKey)>> = vec![Vec::new(); self.shard_count()];
        for &(i, k) in &misses {
            by_shard[partition_of(k, self.shard_count())].push((i, k));
        }
        let groups = || by_shard.iter().enumerate().filter(|(_, g)| !g.is_empty());
        let cfg = store.config();
        for (shard, group) in groups() {
            store.fabric.rpc(
                self.client.node,
                store.topo.metadata[shard],
                cfg.control_bytes + 8 * group.len() as u64,
                cfg.node_bytes * group.len() as u64,
            )?;
        }
        // Every shard of the level in one step: one wait per level.
        let mut asked = groups();
        let mut failed = None;
        store.meta_read_nodes(
            groups().map(|(shard, group)| (shard, group.iter().map(|&(_, k)| k).collect())),
            |nodes| {
                let (_, group) = asked.next().expect("one outcome per shard");
                match nodes {
                    Ok(nodes) => {
                        for (&(i, _), node) in group.iter().zip(nodes) {
                            out[i] = Some(node);
                        }
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        let fetched = misses
            .iter()
            .map(|&(i, k)| (k, out[i].clone().expect("filled")));
        self.client.ctx.tree_nodes_insert(fetched);
        Ok(out.into_iter().map(|o| o.expect("filled")).collect())
    }

    fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>> {
        let store = &self.client.store;
        let c = store.config().control_bytes;
        store
            .fabric
            .rpc(self.client.node, store.topo.vmanager, c, c)?;
        store.vm_reserve_keys(n)
    }

    fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
        let store = &self.client.store;
        // Cacheable once the shards hold them (cheap clones: inner nodes
        // are two keys, leaves share their replica set by refcount).
        let stored = nodes.clone();
        // Dense shard buckets, nodes moved (not cloned); ascending shard
        // order keeps RPCs deterministic.
        let mut by_shard: Vec<Vec<(NodeKey, TreeNode)>> = vec![Vec::new(); self.shard_count()];
        for (k, n) in nodes {
            by_shard[partition_of(k, self.shard_count())].push((k, n));
        }
        let cfg = store.config();
        for (shard, group) in by_shard.iter().enumerate() {
            if !group.is_empty() {
                store.fabric.rpc(
                    self.client.node,
                    store.topo.metadata[shard],
                    cfg.node_bytes * group.len() as u64,
                    cfg.control_bytes,
                )?;
            }
        }
        // Every shard of the commit in one step.
        let groups = by_shard.into_iter().enumerate();
        store.meta_write_nodes(groups.filter(|(_, g)| !g.is_empty()))?;
        // Only now: the cache is shared, and a commit that failed above
        // must not plant nodes no shard holds (nor evict useful ones).
        self.client.ctx.tree_nodes_insert(stored);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::BlobTopology;
    use bff_net::{Fabric, LocalFabric};

    fn setup(nodes: u32) -> (Arc<LocalFabric>, Client) {
        let fabric = LocalFabric::new(nodes as usize + 1);
        let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(nodes));
        let cfg = BlobConfig {
            chunk_size: 128,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        (fabric, client)
    }

    #[test]
    fn upload_then_read_back() {
        let (_f, client) = setup(4);
        let data = Payload::synth(1, 0, 1000);
        let (blob, v) = client.upload(data.clone()).unwrap();
        assert_eq!(v, Version(1));
        let got = client.read(blob, v, 0..1000).unwrap();
        assert!(got.content_eq(&data));
        // Sub-range reads.
        let got = client.read(blob, v, 100..300).unwrap();
        assert!(got.content_eq(&data.slice(100, 300)));
    }

    #[test]
    fn empty_blob_reads_zeros() {
        let (_f, client) = setup(2);
        let blob = client.create_blob(500).unwrap();
        let got = client.read(blob, Version(0), 0..500).unwrap();
        assert!(got.content_eq(&Payload::zeros(500)));
    }

    #[test]
    fn unaligned_write_read_modify_writes() {
        let (_f, client) = setup(4);
        let base = Payload::synth(2, 0, 1000);
        let (blob, v1) = client.upload(base.clone()).unwrap();
        // Overwrite 50..200 (chunk size 128: spans chunks 0 and 1).
        let patch = Payload::from(vec![0xABu8; 150]);
        let v2 = client.write(blob, v1, 50, patch.clone()).unwrap();
        assert_eq!(v2, Version(2));
        let got = client.read(blob, v2, 0..1000).unwrap();
        let expect = base.overwrite(50, patch);
        assert!(got.content_eq(&expect));
        // v1 still reads the original (shadowing).
        let got1 = client.read(blob, v1, 0..1000).unwrap();
        assert!(got1.content_eq(&base));
    }

    #[test]
    fn snapshots_are_totally_ordered_and_immutable() {
        let (_f, client) = setup(3);
        let (blob, v1) = client.upload(Payload::zeros(512)).unwrap();
        let mut versions = vec![v1];
        let mut expect = vec![Payload::zeros(512)];
        for i in 0..4u64 {
            let patch = Payload::synth(100 + i, 0, 64);
            let base = *versions.last().expect("non-empty");
            let v = client.write(blob, base, i * 128, patch.clone()).unwrap();
            versions.push(v);
            let prev = expect.last().expect("non-empty").clone();
            expect.push(prev.overwrite(i * 128, patch));
        }
        for (v, e) in versions.iter().zip(&expect) {
            let got = client.read(blob, *v, 0..512).unwrap();
            assert!(got.content_eq(e), "version {v} mismatch");
        }
    }

    #[test]
    fn conflicting_write_rejected() {
        let (_f, client) = setup(2);
        let (blob, v1) = client.upload(Payload::zeros(256)).unwrap();
        client
            .write(blob, v1, 0, Payload::from(vec![1u8; 10]))
            .unwrap();
        let err = client
            .write(blob, v1, 0, Payload::from(vec![2u8; 10]))
            .unwrap_err();
        assert!(matches!(err, BlobError::Conflict { .. }));
    }

    #[test]
    fn clone_is_independent_and_cheap() {
        let (_f, client) = setup(4);
        let base = Payload::synth(5, 0, 1024);
        let (a, va) = client.upload(base.clone()).unwrap();
        let chunks_before = client.store().total_chunks();
        let b = client.clone_blob(a, va).unwrap();
        assert_eq!(
            client.store().total_chunks(),
            chunks_before,
            "CLONE stores no chunk data"
        );
        // Clone reads identical content.
        let got = client.read(b, Version(1), 0..1024).unwrap();
        assert!(got.content_eq(&base));
        // Diverge the clone; origin unchanged.
        let vb = client
            .write(b, Version(1), 0, Payload::from(vec![9u8; 100]))
            .unwrap();
        let got_a = client.read(a, va, 0..1024).unwrap();
        assert!(got_a.content_eq(&base));
        let got_b = client.read(b, vb, 0..100).unwrap();
        assert!(got_b.content_eq(&Payload::from(vec![9u8; 100])));
    }

    #[test]
    fn commit_stores_only_differences() {
        let (_f, client) = setup(4);
        let image = Payload::synth(6, 0, 4096); // 32 chunks of 128
        let (a, va) = client.upload(image).unwrap();
        let bytes_initial = client.store().total_stored_bytes();
        assert_eq!(bytes_initial, 4096);
        let b = client.clone_blob(a, va).unwrap();
        // Dirty one chunk.
        client
            .write_chunks(b, Version(1), vec![(3, Payload::synth(7, 0, 128))])
            .unwrap();
        let bytes_after = client.store().total_stored_bytes();
        assert_eq!(
            bytes_after - bytes_initial,
            128,
            "one chunk of new data only"
        );
    }

    #[test]
    fn replication_survives_provider_failure() {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 2,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let data = Payload::synth(8, 0, 1024);
        let (blob, v) = client.upload(data.clone()).unwrap();
        // Kill one provider; all chunks must still be readable.
        fabric.fail_node(NodeId(2));
        let got = client.read(blob, v, 0..1024).unwrap();
        assert!(got.content_eq(&data));
    }

    #[test]
    fn unreplicated_chunk_lost_on_failure() {
        let fabric = LocalFabric::new(3);
        let compute: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(2));
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 1,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let (blob, v) = client.upload(Payload::synth(9, 0, 512)).unwrap();
        fabric.fail_node(NodeId(1));
        let err = client.read(blob, v, 0..512).unwrap_err();
        assert!(matches!(err, BlobError::Net(NetError::NodeDown(_))));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (_f, client) = setup(2);
        let (blob, v) = client.upload(Payload::zeros(100)).unwrap();
        assert!(matches!(
            client.read(blob, v, 50..200),
            Err(BlobError::OutOfBounds { .. })
        ));
        assert!(matches!(
            client.write(blob, v, 90, Payload::zeros(20)),
            Err(BlobError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_multi_equivalent_to_per_run_reads() {
        let (_f, client) = setup(4);
        let data = Payload::synth(21, 0, 4096); // 32 chunks of 128
        let (blob, v) = client.upload(data.clone()).unwrap();
        // Mix of aligned, unaligned, overlapping, empty and whole ranges.
        let plans: Vec<Vec<Range<u64>>> = vec![
            vec![0..4096],
            vec![0..128, 256..384, 4000..4096],
            vec![10..50, 50..300, 299..301, 77..77],
            vec![4095..4096, 0..1],
            vec![],
        ];
        for plan in plans {
            let multi = client.read_multi(blob, v, &plan).unwrap();
            assert_eq!(multi.len(), plan.len());
            for (r, got) in plan.iter().zip(&multi) {
                let single = client.read(blob, v, r.clone()).unwrap();
                assert!(
                    got.content_eq(&single),
                    "range {r:?} differs between read and read_multi"
                );
            }
        }
        // Sparse blob: unwritten chunks read as zeros on both paths.
        let sparse = client.create_blob(1024).unwrap();
        let v1 = client
            .write(sparse, Version(0), 600, Payload::synth(3, 0, 50))
            .unwrap();
        let plan = vec![0..1024, 500..700, 0..128];
        let multi = client.read_multi(sparse, v1, &plan).unwrap();
        for (r, got) in plan.iter().zip(&multi) {
            let single = client.read(sparse, v1, r.clone()).unwrap();
            assert!(got.content_eq(&single), "sparse range {r:?} differs");
        }
    }

    #[test]
    fn read_multi_bounds_checked() {
        let (_f, client) = setup(2);
        let (blob, v) = client.upload(Payload::zeros(100)).unwrap();
        assert!(matches!(
            client.read_multi(blob, v, &[0..10, 50..200]),
            Err(BlobError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn cold_read_plan_costs_at_most_tree_depth_fetch_rounds() {
        // The acceptance bound: R non-local runs cost <= depth rounds
        // total, not R × depth. 4096 bytes / 128 = 32 chunks, span 32,
        // depth log2(32)+1 = 6.
        let (_f, client) = setup(4);
        let (blob, v) = client.upload(Payload::synth(22, 0, 4096)).unwrap();
        let plan: Vec<Range<u64>> = (0..16).map(|i| (i * 256)..(i * 256 + 64)).collect();
        let depth = 32u64.ilog2() as u64 + 1;

        // Per-run path on a fresh client: one descent per run.
        let per_run = Client::new(Arc::clone(client.store()), NodeId(1));
        for r in &plan {
            per_run.read(blob, v, r.clone()).unwrap();
        }
        let per_run_rounds = per_run.meta_fetch_calls();
        assert!(
            per_run_rounds >= plan.len() as u64 * 2,
            "per-run path descends per run (got {per_run_rounds} rounds)"
        );

        // Vectored path on another fresh client: a single descent.
        let multi = Client::new(Arc::clone(client.store()), NodeId(2));
        multi.read_multi(blob, v, &plan).unwrap();
        assert!(
            multi.meta_fetch_calls() <= depth,
            "cold vectored plan took {} rounds, depth is {depth}",
            multi.meta_fetch_calls()
        );

        // Warm re-read of the same plan: the descriptor cache skips the
        // metadata plane entirely (the paper's compute-node cache effect).
        let before = multi.meta_fetch_calls();
        multi.read_multi(blob, v, &plan).unwrap();
        assert_eq!(
            multi.meta_fetch_calls(),
            before,
            "warm reads must not descend the tree"
        );
        // A full read resolves the remaining chunks once, then is free too.
        multi
            .read_multi(blob, v, std::slice::from_ref(&(0..4096)))
            .unwrap();
        let after_full = multi.meta_fetch_calls();
        multi
            .read_multi(blob, v, std::slice::from_ref(&(0..4096)))
            .unwrap();
        assert_eq!(multi.meta_fetch_calls(), after_full);
    }

    #[test]
    fn desc_cache_never_serves_stale_versions() {
        // read → commit from another client → read must observe the new
        // version: versions are explicit, so the second read targets the
        // *new* snapshot and must see its content, never v1 descriptors.
        let (_f, client_a) = setup(4);
        let data = Payload::synth(30, 0, 1024);
        let (blob, v1) = client_a.upload(data.clone()).unwrap();
        let a = Client::new(Arc::clone(client_a.store()), NodeId(1));
        let warm = a
            .read_multi(blob, v1, std::slice::from_ref(&(0..1024)))
            .unwrap();
        assert!(warm[0].content_eq(&data));

        // Another client commits a new snapshot.
        let b = Client::new(Arc::clone(client_a.store()), NodeId(2));
        let patch = Payload::synth(31, 0, 128);
        let v2 = b.write_chunks(blob, v1, vec![(2, patch.clone())]).unwrap();
        assert_eq!(b.latest_version(blob).unwrap(), v2);

        // Client A discovers the new version and reads it: fresh content.
        let latest = a.latest_version(blob).unwrap();
        assert_eq!(latest, v2);
        let got = a.read_multi(blob, latest, &[256..384, 0..128]).unwrap();
        assert!(got[0].content_eq(&patch), "must observe the new chunk");
        assert!(got[1].content_eq(&data.slice(0, 128)));
        // And v1 still reads the original (snapshots immutable).
        let old = a
            .read_multi(blob, v1, std::slice::from_ref(&(256..384)))
            .unwrap();
        assert!(old[0].content_eq(&data.slice(256, 384)));
    }

    #[test]
    fn committer_reads_own_snapshot_without_metadata_rounds() {
        // write_chunks seeds the descriptor cache for the new version
        // (base entry + published delta).
        let (_f, client) = setup(4);
        let (blob, v1) = client.upload(Payload::synth(33, 0, 1024)).unwrap();
        client
            .read_multi(blob, v1, std::slice::from_ref(&(0..1024)))
            .unwrap(); // resolve v1 fully
        let v2 = client
            .write_chunks(blob, v1, vec![(0, Payload::synth(34, 0, 128))])
            .unwrap();
        // The commit itself descends (tree shadowing); the *read* of the
        // freshly published snapshot must not.
        let rounds_after_commit = client.meta_fetch_calls();
        client
            .read_multi(blob, v2, std::slice::from_ref(&(0..1024)))
            .unwrap();
        assert_eq!(
            client.meta_fetch_calls(),
            rounds_after_commit,
            "reading a self-committed snapshot must be metadata-free"
        );
    }

    #[test]
    fn clone_carries_descriptor_cache_over() {
        let (_f, client) = setup(4);
        let data = Payload::synth(35, 0, 1024);
        let (blob, v) = client.upload(data.clone()).unwrap();
        client
            .read_multi(blob, v, std::slice::from_ref(&(0..1024)))
            .unwrap();
        let rounds = client.meta_fetch_calls();
        let cloned = client.clone_blob(blob, v).unwrap();
        let got = client
            .read_multi(cloned, Version(1), std::slice::from_ref(&(0..1024)))
            .unwrap();
        assert!(got[0].content_eq(&data));
        assert_eq!(
            client.meta_fetch_calls(),
            rounds,
            "clone shares the source tree, so its cache carries over"
        );
    }

    #[test]
    fn read_multi_survives_provider_failure() {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 2,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let data = Payload::synth(36, 0, 2048);
        let (blob, v) = client.upload(data.clone()).unwrap();
        fabric.fail_node(NodeId(2));
        let got = client.read_multi(blob, v, &[0..2048, 100..300]).unwrap();
        assert!(
            got[0].content_eq(&data),
            "batched path must fail over per chunk"
        );
        assert!(got[1].content_eq(&data.slice(100, 300)));
    }

    /// A fabric with a *stale failure detector*: operations against down
    /// nodes fail (the inner fabric's truth), but `is_down` claims
    /// everything is up — so allocation cannot avoid the dead provider
    /// and the push-side per-replica failover has to handle it.
    struct StaleViewFabric {
        inner: Arc<LocalFabric>,
    }

    impl Fabric for StaleViewFabric {
        fn now_us(&self) -> u64 {
            self.inner.now_us()
        }
        fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> Result<(), NetError> {
            self.inner.transfer(src, dst, bytes)
        }
        fn transfer_all(&self, xfers: &[bff_net::Transfer]) -> Result<(), NetError> {
            self.inner.transfer_all(xfers)
        }
        fn rpc(&self, src: NodeId, dst: NodeId, req: u64, resp: u64) -> Result<(), NetError> {
            self.inner.rpc(src, dst, req, resp)
        }
        fn disk_read(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
            self.inner.disk_read(node, bytes)
        }
        fn disk_write(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
            self.inner.disk_write(node, bytes)
        }
        fn disk_write_cached(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
            self.inner.disk_write_cached(node, bytes)
        }
        fn disk_sync(&self, node: NodeId) -> Result<(), NetError> {
            self.inner.disk_sync(node)
        }
        fn compute(&self, node: NodeId, micros: u64) {
            self.inner.compute(node, micros)
        }
        fn is_down(&self, _node: NodeId) -> bool {
            false // the stale view
        }
        fn stats(&self) -> &bff_net::TrafficStats {
            self.inner.stats()
        }
    }

    fn setup_mode(
        nodes: u32,
        replication: usize,
        mode: crate::api::ReplicationMode,
    ) -> (Arc<LocalFabric>, Client) {
        let fabric = LocalFabric::new(nodes as usize + 1);
        let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(nodes));
        let cfg = BlobConfig {
            chunk_size: 128,
            replication,
            replication_mode: mode,
            // These tests count data-plane transfers and messages; the
            // cluster index's publish gossip would shift the counts.
            cluster_dedup: false,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        (fabric, Client::new(store, NodeId(0)))
    }

    /// Which providers hold each chunk id, as one sorted fingerprint per
    /// store (chunk ids are allocated deterministically, so equal
    /// fingerprints mean identical replica sets).
    fn replica_fingerprint(client: &Client, max_chunk: u64) -> Vec<(u64, Vec<u32>)> {
        let store = client.store();
        let mut out = Vec::new();
        for id in 1..=max_chunk {
            let mut holders: Vec<u32> = store
                .topology()
                .providers
                .iter()
                .filter(|&&p| {
                    store
                        .providers()
                        .lock(p)
                        .unwrap()
                        .has(crate::api::ChunkId(id))
                })
                .map(|p| p.0)
                .collect();
            holders.sort_unstable();
            out.push((id, holders));
        }
        out
    }

    #[test]
    fn replication_modes_equivalent_to_sequential_reference() {
        // Chain and fan-out must produce byte-identical blob contents and
        // identical replica sets vs the sequential-push reference.
        use crate::api::ReplicationMode::*;
        let image = Payload::synth(70, 0, 2048); // 16 chunks of 128
        let patch: Vec<(u64, Payload)> = vec![
            (0, Payload::synth(71, 0, 128)),
            (5, Payload::synth(72, 0, 128)),
            (15, Payload::synth(73, 0, 128)),
        ];
        let mut results = Vec::new();
        for mode in [Sequential, Fanout, Chain, ChainPipelined] {
            let (_f, client) = setup_mode(4, 3, mode);
            let (blob, v1) = client.upload(image.clone()).unwrap();
            let v2 = client.write_chunks(blob, v1, patch.clone()).unwrap();
            let content = client.read(blob, v2, 0..2048).unwrap();
            let fingerprint = replica_fingerprint(&client, 16 + 3);
            let loads = client.store().provider_loads();
            results.push((mode, content, fingerprint, loads));
        }
        let (_, ref_content, ref_fp, ref_loads) = &results[0];
        for (mode, content, fp, loads) in &results[1..] {
            assert!(
                content.content_eq(ref_content),
                "{mode:?} content differs from sequential reference"
            );
            assert_eq!(fp, ref_fp, "{mode:?} replica sets differ");
            assert_eq!(loads, ref_loads, "{mode:?} per-provider loads differ");
        }
        // Every chunk got its full replica set.
        assert!(ref_fp.iter().all(|(_, holders)| holders.len() == 3));
    }

    #[test]
    fn fanout_batches_one_transfer_per_provider() {
        use crate::api::ReplicationMode::*;
        let updates: Vec<(u64, Payload)> = (0..16)
            .map(|i| (i, Payload::synth(80 + i, 0, 128)))
            .collect();
        let count_transfers = |mode| {
            // Write from the service node so every push crosses the
            // network (self-transfers are free and uncounted).
            let (f, client) = setup_mode(4, 2, mode);
            let client = Client::new(Arc::clone(client.store()), NodeId(4));
            let blob = client.create_blob(2048).unwrap();
            let before = f.stats().transfer_count();
            client
                .write_chunks(blob, Version(0), updates.clone())
                .unwrap();
            f.stats().transfer_count() - before
        };
        let sequential = count_transfers(Sequential);
        let fanout = count_transfers(Fanout);
        let chain = count_transfers(Chain);
        // Sequential: one transfer per (chunk, replica) = 32. Batched
        // modes: one per provider group / chain hop — bounded by
        // providers × replication = 8, not by the chunk count.
        assert_eq!(sequential, 32);
        assert!(fanout <= 8, "fanout used {fanout} transfers");
        assert!(chain <= 8, "chain used {chain} transfers");
    }

    #[test]
    fn chain_offloads_client_egress_to_providers() {
        use crate::api::ReplicationMode::*;
        let updates: Vec<(u64, Payload)> = (0..8)
            .map(|i| (i, Payload::synth(90 + i, 0, 128)))
            .collect();
        let egress = |mode| {
            // Service-node writer: all pushes cross the network.
            let (f, client) = setup_mode(4, 2, mode);
            let client = Client::new(Arc::clone(client.store()), NodeId(4));
            let blob = client.create_blob(1024).unwrap();
            f.stats().reset();
            client
                .write_chunks(blob, Version(0), updates.clone())
                .unwrap();
            (
                f.stats().node(NodeId(4)).sent,
                f.stats().total_network_bytes(),
            )
        };
        let (fan_sent, fan_total) = egress(Fanout);
        let (chain_sent, chain_total) = egress(Chain);
        // Both move the same payload volume in total...
        assert_eq!(fan_total, chain_total);
        // ...but the chain client sends each byte once, the fan-out
        // client once per replica. (Client egress also carries the
        // metadata/control bytes, identical in both.)
        assert_eq!(fan_sent - chain_sent, 8 * 128);
    }

    /// Providers on `0..providers`, managers *and metadata* on the
    /// service node — so failing a provider kills only its chunk store,
    /// not a metadata shard (the paper's metadata servers are a separate
    /// concern from provider failure).
    fn topo_service_meta(providers: u32, service: u32) -> BlobTopology {
        BlobTopology {
            vmanager: NodeId(service),
            pmanager: NodeId(service),
            metadata: vec![NodeId(service)],
            providers: (0..providers).map(NodeId).collect(),
        }
    }

    #[test]
    fn write_skips_down_providers_at_allocation() {
        let fabric = LocalFabric::new(5);
        let cfg = BlobConfig {
            chunk_size: 128,
            ..Default::default()
        };
        let store = BlobStore::new(
            cfg,
            topo_service_meta(4, 4),
            fabric.clone() as Arc<dyn Fabric>,
        );
        let client = Client::new(store, NodeId(4));
        fabric.fail_node(NodeId(2));
        let data = Payload::synth(60, 0, 2048); // 16 chunks over 4 providers
        let (blob, v) = client.upload(data.clone()).unwrap();
        let loads = client.store().provider_loads();
        assert_eq!(loads[2], 0, "down provider must receive no chunks");
        assert_eq!(loads.iter().sum::<u64>(), 2048);
        // Everything reads back without touching the dead node.
        let got = client.read(blob, v, 0..2048).unwrap();
        assert!(got.content_eq(&data));
    }

    #[test]
    fn per_replica_failover_publishes_surviving_replicas() {
        // A provider dies between the failure detector's last sweep and
        // the push (stale view): allocation still targets it, so the
        // pipeline must drop that replica and publish the survivors.
        for mode in [
            crate::api::ReplicationMode::Sequential,
            crate::api::ReplicationMode::Fanout,
            crate::api::ReplicationMode::Chain,
            crate::api::ReplicationMode::ChainPipelined,
        ] {
            let inner = LocalFabric::new(4);
            let fabric: Arc<dyn Fabric> = Arc::new(StaleViewFabric {
                inner: Arc::clone(&inner),
            });
            let cfg = BlobConfig {
                chunk_size: 128,
                replication: 3,
                replication_mode: mode,
                ..Default::default()
            };
            let store = BlobStore::new(cfg, topo_service_meta(3, 3), fabric);
            let client = Client::new(store, NodeId(3));
            inner.fail_node(NodeId(1));
            let data = Payload::synth(61, 0, 512);
            let (blob, v) = client.upload(data.clone()).unwrap();
            // The dead replica stored nothing; the others hold everything.
            let loads = client.store().provider_loads();
            assert_eq!(loads[1], 0, "{mode:?}: dead replica must hold nothing");
            assert_eq!(loads[0], 512, "{mode:?}");
            assert_eq!(loads[2], 512, "{mode:?}");
            // Reads succeed off the surviving replicas.
            let got = client.read(blob, v, 0..512).unwrap();
            assert!(got.content_eq(&data), "{mode:?}");
        }
    }

    #[test]
    fn write_fails_only_when_no_replica_survives() {
        let inner = LocalFabric::new(3);
        let fabric: Arc<dyn Fabric> = Arc::new(StaleViewFabric {
            inner: Arc::clone(&inner),
        });
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 2,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo_service_meta(2, 2), fabric);
        let client = Client::new(store, NodeId(2));
        let blob = client.create_blob(128).unwrap();
        inner.fail_node(NodeId(0));
        inner.fail_node(NodeId(1));
        let err = client
            .write_chunks(blob, Version(0), vec![(0, Payload::zeros(128))])
            .unwrap_err();
        assert!(matches!(err, BlobError::Net(NetError::NodeDown(_))));
    }

    /// Setup with an explicit dedup setting (tests must not depend on
    /// the `BFF_DEDUP` environment default — CI flips it).
    fn setup_dedup(nodes: u32, replication: usize, dedup: bool) -> (Arc<LocalFabric>, Client) {
        let fabric = LocalFabric::new(nodes as usize + 1);
        let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(nodes));
        let cfg = BlobConfig {
            chunk_size: 128,
            replication,
            dedup,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        (fabric, Client::new(store, NodeId(0)))
    }

    /// Refcounts of chunk `id` across all providers holding it.
    fn refcounts(client: &Client, id: u64) -> Vec<u64> {
        client
            .store()
            .topology()
            .providers
            .iter()
            .filter_map(|&p| {
                client
                    .store()
                    .providers()
                    .refcount(p, crate::api::ChunkId(id))
            })
            .collect()
    }

    #[test]
    fn lru_cache_survives_long_version_churn() {
        // Regression for the old wholesale eviction: resolving >64
        // snapshots used to flush the *entire* descriptor cache, so a
        // frequently-read snapshot paid fresh metadata descents over and
        // over. With per-entry LRU, the hot entry stays resident through
        // arbitrary churn.
        let (_f, client) = setup(4);
        let hot_data = Payload::synth(40, 0, 1024);
        let (hot, vhot) = client.upload(hot_data).unwrap(); // 8 chunks, fully seeded
        let churn = client.create_blob(128).unwrap();
        let mut versions = vec![Version(0)];
        for i in 0..150u64 {
            let v = client
                .write(
                    churn,
                    *versions.last().unwrap(),
                    0,
                    Payload::synth(50 + i, 0, 128),
                )
                .unwrap();
            versions.push(v);
        }
        // Touch 150 distinct (blob, version) entries — far past the
        // 64-version bound — re-reading the hot snapshot throughout.
        for (i, v) in versions.iter().skip(1).enumerate() {
            client.read(churn, *v, 0..128).unwrap();
            if i % 2 == 0 {
                let before = client.meta_fetch_calls();
                client.read(hot, vhot, 0..1024).unwrap();
                assert_eq!(
                    client.meta_fetch_calls(),
                    before,
                    "hot snapshot re-resolved at churn step {i}: the cache \
                     was flushed wholesale"
                );
            }
        }
        let ctx = client.context();
        assert!(
            ctx.desc_entries() <= ctx.desc_capacity(),
            "LRU bound violated: {} > {}",
            ctx.desc_entries(),
            ctx.desc_capacity()
        );
    }

    #[test]
    fn dedup_commits_identical_content_by_reference() {
        let (_f, client) = setup_dedup(4, 1, true);
        let (a, va) = client.upload(Payload::synth(60, 0, 512)).unwrap(); // ids 1..=4
        let content = Payload::synth(77, 0, 128);
        let v2 = client
            .write_chunks(a, va, vec![(0, content.clone())])
            .unwrap(); // id 5
        let stored = client.store().total_stored_bytes();
        assert_eq!(refcounts(&client, 5), vec![1]);

        // A different blob commits the same bytes: no new storage, the
        // leaf references chunk 5 and bumps its refcount.
        let b = client.create_blob(512).unwrap();
        let vb = client
            .write_chunks(b, Version(0), vec![(1, content.clone())])
            .unwrap();
        assert_eq!(
            client.store().total_stored_bytes(),
            stored,
            "identical content must not grow provider storage"
        );
        assert_eq!(refcounts(&client, 5), vec![2]);
        let got = client.read(b, vb, 128..256).unwrap();
        assert!(got.content_eq(&content));
        // The origin snapshot still reads its copy.
        let got = client.read(a, v2, 0..128).unwrap();
        assert!(got.content_eq(&content));
        assert_eq!(client.context().stats().dedup_hits, 1);

        // Dedup off: the same sequence stores the chunk twice.
        let (_f2, off) = setup_dedup(4, 1, false);
        let (a2, va2) = off.upload(Payload::synth(60, 0, 512)).unwrap();
        off.write_chunks(a2, va2, vec![(0, content.clone())])
            .unwrap();
        let stored_off = off.store().total_stored_bytes();
        let b2 = off.create_blob(512).unwrap();
        off.write_chunks(b2, Version(0), vec![(1, content.clone())])
            .unwrap();
        assert_eq!(off.store().total_stored_bytes(), stored_off + 128);
    }

    #[test]
    fn intra_commit_duplicates_collapse() {
        let (_f, client) = setup_dedup(4, 1, true);
        // Four identical all-zero chunks upload as one stored chunk with
        // four references.
        let (blob, v) = client.upload(Payload::zeros(512)).unwrap();
        assert_eq!(client.store().total_stored_bytes(), 128);
        assert_eq!(client.store().total_chunks(), 1);
        assert_eq!(refcounts(&client, 1), vec![4]);
        let got = client.read(blob, v, 0..512).unwrap();
        assert!(got.content_eq(&Payload::zeros(512)));
    }

    #[test]
    fn dedup_reads_byte_identical_to_dedup_off() {
        // The same commit sequence through both configurations must be
        // byte-identical on every snapshot (the content-plane invariant
        // the property suite checks at scale).
        let patches: Vec<(u64, Payload)> = vec![
            (0, Payload::zeros(128)),
            (3, Payload::synth(81, 0, 128)),
            (5, Payload::zeros(128)),
            (7, Payload::synth(81, 0, 128)),
        ];
        let mut snapshots: Vec<Vec<Payload>> = Vec::new();
        for dedup in [true, false] {
            let (_f, client) = setup_dedup(4, 2, dedup);
            let (blob, v1) = client.upload(Payload::synth(80, 0, 1024)).unwrap();
            let v2 = client.write_chunks(blob, v1, patches.clone()).unwrap();
            let v3 = client
                .write_chunks(blob, v2, vec![(1, Payload::zeros(128))])
                .unwrap();
            snapshots.push(
                [v1, v2, v3]
                    .iter()
                    .map(|&v| client.read(blob, v, 0..1024).unwrap())
                    .collect(),
            );
        }
        for (on, off) in snapshots[0].iter().zip(&snapshots[1]) {
            assert!(on.content_eq(off), "dedup changed snapshot content");
        }
    }

    #[test]
    fn dedup_conflict_rolls_back_refcounts() {
        let (_f, client) = setup_dedup(4, 2, true);
        let (blob, v1) = client.upload(Payload::synth(90, 0, 512)).unwrap();
        let content = Payload::synth(91, 0, 128);
        client
            .write_chunks(blob, v1, vec![(0, content.clone())])
            .unwrap(); // id 5
        let before = refcounts(&client, 5);
        assert_eq!(before, vec![1, 1], "one reference per replica");
        // A second commit from the same base dedups onto chunk 5, then
        // loses the publish race: its references must be released.
        let err = client
            .write_chunks(blob, v1, vec![(1, content.clone())])
            .unwrap_err();
        assert!(matches!(err, BlobError::Conflict { .. }));
        assert_eq!(
            refcounts(&client, 5),
            before,
            "failed publish must release its dedup references"
        );
        // Releasing a chunk that was never stored is a clean no-op.
        assert!(!client
            .store()
            .providers()
            .release(NodeId(0), crate::api::ChunkId(999)));
    }

    #[test]
    fn accounted_commit_reports_only_its_own_reuse() {
        // Two co-located clients share one NodeContext; each commit must
        // report exactly its own by-reference bytes, not a delta of the
        // shared counters (which interleave across committers).
        let (_f, c1) = setup_dedup(4, 1, true);
        let c2 = Client::new(Arc::clone(c1.store()), NodeId(0));
        let (b1, v1) = c1.upload(Payload::synth(80, 0, 512)).unwrap();
        let (b2, v2) = c2.upload(Payload::synth(81, 0, 512)).unwrap();
        let shared = Payload::synth(82, 0, 128);
        // c1 stores the content fresh: nothing reused.
        let (v1b, r1) = c1
            .write_chunks_accounted(b1, v1, vec![(0, shared.clone())])
            .unwrap();
        assert_eq!(r1, 0, "fresh content must report zero reuse");
        // c2 commits the same content (index hit) plus a fresh chunk:
        // exactly the shared chunk's bytes are reported, never c1's.
        let (_, r2) = c2
            .write_chunks_accounted(
                b2,
                v2,
                vec![(0, shared.clone()), (1, Payload::synth(83, 0, 128))],
            )
            .unwrap();
        assert_eq!(r2, 128, "exactly the deduped chunk's bytes");
        // An intra-commit collapse is attributed to the committing
        // client as well: 3 identical fresh chunks -> 2 by reference.
        let fresh = Payload::synth(84, 0, 128);
        let (_, r3) = c1
            .write_chunks_accounted(
                b1,
                v1b,
                vec![(1, fresh.clone()), (2, fresh.clone()), (3, fresh.clone())],
            )
            .unwrap();
        assert_eq!(r3, 256, "uses beyond the first commit by reference");
    }

    #[test]
    fn digest_collision_never_publishes_wrong_bytes() {
        use crate::api::ChunkId;
        let (_f, client) = setup_dedup(4, 1, true);
        let (blob, v1) = client.upload(Payload::synth(98, 0, 512)).unwrap(); // ids 1..=4
        let a = Payload::synth(99, 0, 128);
        let b = Payload::from(vec![0x5Au8; 128]);
        let v2 = client.write_chunks(blob, v1, vec![(0, a.clone())]).unwrap(); // id 5 stores A
                                                                               // Poison the digest index: claim B's content key maps to the
                                                                               // chunk storing A — a simulated 64-bit digest collision.
        let prov = client
            .store()
            .topology()
            .providers
            .iter()
            .copied()
            .find(|&p| client.store().providers().refcount(p, ChunkId(5)).is_some())
            .expect("chunk 5 stored somewhere");
        client.context().digest_record(
            (b.len(), b.content_digest(false)),
            ChunkDesc {
                id: ChunkId(5),
                replicas: vec![prov].into(),
            },
        );
        // Committing B must detect the mismatch, push fresh, and leave
        // chunk 5's refcount untouched.
        let stored = client.store().total_stored_bytes();
        let v3 = client.write_chunks(blob, v2, vec![(1, b.clone())]).unwrap();
        assert_eq!(client.store().total_stored_bytes(), stored + 128);
        assert_eq!(refcounts(&client, 5), vec![1]);
        let got = client.read(blob, v3, 128..256).unwrap();
        assert!(
            got.content_eq(&b),
            "a digest collision must never publish the wrong bytes"
        );
    }

    #[test]
    fn failed_publish_releases_freshly_pushed_chunks() {
        // A commit that loses the publish race has already pushed its
        // *new* chunks to the providers; the rollback must release them
        // (fresh puts carry refcount 1), not orphan them — otherwise
        // provider storage grows without bound under commit contention.
        for dedup in [true, false] {
            let (_f, client) = setup_dedup(4, 2, dedup);
            let (blob, v1) = client.upload(Payload::synth(95, 0, 512)).unwrap();
            client
                .write_chunks(blob, v1, vec![(0, Payload::synth(96, 0, 128))])
                .unwrap();
            let stored = client.store().total_stored_bytes();
            let chunks = client.store().total_chunks();
            // Conflicting commit with brand-new content.
            let err = client
                .write_chunks(blob, v1, vec![(1, Payload::synth(97, 0, 128))])
                .unwrap_err();
            assert!(matches!(err, BlobError::Conflict { .. }), "dedup={dedup}");
            assert_eq!(
                client.store().total_stored_bytes(),
                stored,
                "dedup={dedup}: conflicted push left orphaned bytes"
            );
            assert_eq!(client.store().total_chunks(), chunks, "dedup={dedup}");
        }
    }

    #[test]
    fn chain_pipelined_keeps_client_egress_at_one_x() {
        use crate::api::ReplicationMode::*;
        let updates: Vec<(u64, Payload)> = (0..8)
            .map(|i| (i, Payload::synth(110 + i, 0, 128)))
            .collect();
        let egress = |mode| {
            let (f, client) = setup_mode(4, 2, mode);
            let client = Client::new(Arc::clone(client.store()), NodeId(4));
            let blob = client.create_blob(1024).unwrap();
            f.stats().reset();
            client
                .write_chunks(blob, Version(0), updates.clone())
                .unwrap();
            (
                f.stats().node(NodeId(4)).sent,
                f.stats().total_network_bytes(),
            )
        };
        let (chain_sent, chain_total) = egress(Chain);
        let (pipe_sent, pipe_total) = egress(ChainPipelined);
        // Same payload volume end to end, and the pipelined client also
        // sends each byte exactly once — pipelining reshapes the
        // transfers (one per (chunk, hop) instead of one per hop), it
        // does not move more data.
        assert_eq!(chain_total, pipe_total);
        assert_eq!(chain_sent, pipe_sent);
    }

    /// Setup with prefetch explicitly on and a second node's client, so
    /// the cross-node pattern flow (hint → board → prefetch) is
    /// observable regardless of the `BFF_PREFETCH` environment.
    fn setup_prefetch(chunk_size: u64) -> (Arc<LocalFabric>, Client, Client) {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size,
            prefetch: true,
            // These tests pin the unfiltered read-ahead mechanics; the
            // confidence filter has its own tests below.
            prefetch_min_publishers: 1,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let a = Client::new(Arc::clone(&store), NodeId(0));
        let b = Client::new(store, NodeId(1));
        (fabric, a, b)
    }

    #[test]
    fn hints_publish_peer_pattern_and_prefetch_lands_in_cache() {
        let (_f, a, b) = setup_prefetch(128);
        let data = Payload::synth(120, 0, 4096); // 32 chunks
        let (blob, v) = a.upload(data.clone()).unwrap();
        // Node 0's VM faults in a boot-like window: the hint publishes
        // its first-touch order to the board.
        a.hint_access(blob, v, std::slice::from_ref(&(0..2048)));
        let seq = a
            .store()
            .pattern_board()
            .sequence((blob, v))
            .expect("pattern published");
        assert_eq!(*seq, (0..16).collect::<Vec<u64>>());

        // Node 1 has touched nothing: a prefetch step pulls the peer
        // window into ITS node-shared chunk cache.
        assert!(b.has_prefetch_work(blob, v));
        let landed = b.prefetch_chunks(blob, v, 8).unwrap();
        assert_eq!(landed, 8);
        let stats = b.context().prefetch_stats();
        assert_eq!(stats.prefetched_chunks, 8);
        assert_eq!(stats.prefetched_bytes, 8 * 128);
        assert_eq!(stats.cached_chunks, 8);

        // The demand read of the prefetched window is served from the
        // cache: zero provider traffic, byte-identical content.
        let transfers_before = _f.stats().transfer_count();
        let got = b.read(blob, v, 0..1024).unwrap();
        assert!(got.content_eq(&data.slice(0, 1024)));
        assert_eq!(
            _f.stats().transfer_count(),
            transfers_before,
            "prefetched chunks must not be re-fetched from providers"
        );
        let stats = b.context().prefetch_stats();
        assert_eq!(stats.hits, 8, "every prefetched chunk served a read");
        assert_eq!(stats.wasted_chunks, 0);
    }

    #[test]
    fn prefetch_is_incremental_and_never_refetches() {
        let (_f, a, b) = setup_prefetch(128);
        let (blob, v) = a.upload(Payload::synth(121, 0, 4096)).unwrap();
        a.hint_access(blob, v, std::slice::from_ref(&(0..4096)));
        // Two bounded steps walk the peer sequence incrementally.
        assert_eq!(b.prefetch_chunks(blob, v, 10).unwrap(), 10);
        assert_eq!(b.prefetch_chunks(blob, v, 10).unwrap(), 10);
        // A chunk is claimed at most once per node: replaying the
        // sequence fetches only the remainder, then nothing.
        assert_eq!(b.prefetch_chunks(blob, v, 100).unwrap(), 12);
        assert!(!b.has_prefetch_work(blob, v));
        assert_eq!(b.prefetch_chunks(blob, v, 100).unwrap(), 0);
        assert_eq!(b.context().prefetch_stats().prefetched_chunks, 32);
    }

    #[test]
    fn prefetch_skips_chunks_this_node_already_read() {
        let (_f, a, b) = setup_prefetch(128);
        let (blob, v) = a.upload(Payload::synth(122, 0, 2048)).unwrap();
        a.hint_access(blob, v, std::slice::from_ref(&(0..2048)));
        // Node 1 demand-reads half the window first.
        b.read(blob, v, 0..1024).unwrap();
        b.hint_access(blob, v, std::slice::from_ref(&(0..1024)));
        let landed = b.prefetch_chunks(blob, v, 100).unwrap();
        assert_eq!(landed, 8, "only the unseen half is prefetched");
    }

    #[test]
    fn prefetch_disabled_is_inert() {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 128,
            prefetch: false,
            ..Default::default()
        };
        let off_store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let off = Client::new(off_store, NodeId(0));
        let (blob, v) = off.upload(Payload::synth(123, 0, 1024)).unwrap();
        off.hint_access(blob, v, std::slice::from_ref(&(0..1024)));
        assert!(off.store().pattern_board().is_empty());
        assert!(!off.has_prefetch_work(blob, v));
        assert_eq!(off.prefetch_chunks(blob, v, 8).unwrap(), 0);
        assert_eq!(off.context().prefetch_stats(), Default::default());

        // A chunk cache that cannot hold one chunk — zero, or bounded
        // below the chunk size so every insert would self-evict —
        // disables the pipeline too, even with the flag on: read-ahead
        // with nowhere to land the data would fetch every predicted
        // chunk twice.
        for cache_bytes in [0u64, 64] {
            let fabric = LocalFabric::new(5);
            let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
            let topo = BlobTopology::colocated(&compute, NodeId(4));
            let cfg = BlobConfig {
                chunk_size: 128,
                prefetch: true,
                chunk_cache_bytes: cache_bytes,
                ..Default::default()
            };
            let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
            let capless = Client::new(store, NodeId(0));
            let (blob, v) = capless.upload(Payload::synth(124, 0, 4096)).unwrap();
            capless.hint_access(blob, v, std::slice::from_ref(&(0..4096)));
            assert!(capless.store().pattern_board().is_empty());
            assert!(!capless.has_prefetch_work(blob, v));
            let transfers = fabric.stats().transfer_count();
            assert_eq!(capless.prefetch_chunks(blob, v, 8).unwrap(), 0);
            assert_eq!(
                fabric.stats().transfer_count(),
                transfers,
                "cache bound {cache_bytes}: capless prefetch must move nothing"
            );
            assert_eq!(capless.context().prefetch_stats(), Default::default());
        }
    }

    #[test]
    fn strong_digest_dedups_without_byte_verify() {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 128,
            dedup: true,
            strong_digest: true,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let (a, va) = client.upload(Payload::synth(60, 0, 512)).unwrap();
        let content = Payload::synth(77, 0, 128);
        client
            .write_chunks(a, va, vec![(0, content.clone())])
            .unwrap();
        let stored = client.store().total_stored_bytes();
        // Same bytes from another blob: committed by reference off the
        // SHA-256 index, no storage growth, content correct.
        let b = client.create_blob(512).unwrap();
        let vb = client
            .write_chunks(b, Version(0), vec![(1, content.clone())])
            .unwrap();
        assert_eq!(client.store().total_stored_bytes(), stored);
        let got = client.read(b, vb, 128..256).unwrap();
        assert!(got.content_eq(&content));
        assert_eq!(client.context().stats().dedup_hits, 1);
    }

    #[test]
    fn metadata_nodes_shared_across_snapshots() {
        let (_f, client) = setup(4);
        // 8 chunks; snapshot twice touching one chunk each time.
        let (blob, v1) = client.upload(Payload::synth(10, 0, 1024)).unwrap();
        let nodes_v1 = client.store().total_metadata_nodes();
        client
            .write_chunks(blob, v1, vec![(0, Payload::synth(11, 0, 128))])
            .unwrap();
        let added = client.store().total_metadata_nodes() - nodes_v1;
        // span 8 -> depth 4 path (leaf + 2 inners + root).
        assert_eq!(added, 4, "path copy only: {added} nodes added");
    }

    /// Setup with explicit dedup *and* cluster-dedup settings plus two
    /// clients on distinct nodes (tests must not depend on the
    /// `BFF_DEDUP`/`BFF_CLUSTER_DEDUP` environment defaults — CI flips
    /// them).
    fn setup_cluster(cluster: bool) -> (Arc<LocalFabric>, Client, Client) {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 128,
            dedup: true,
            cluster_dedup: cluster,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let a = Client::new(Arc::clone(&store), NodeId(0));
        let b = Client::new(store, NodeId(1));
        (fabric, a, b)
    }

    #[test]
    fn cluster_dedup_commits_cross_node_content_by_reference() {
        let (_f, a, b) = setup_cluster(true);
        let content = Payload::synth(200, 0, 128);
        let (blob_a, va) = a.upload(Payload::synth(201, 0, 512)).unwrap();
        let _v2 = a
            .write_chunks(blob_a, va, vec![(0, content.clone())])
            .unwrap(); // id 5
        let stored = a.store().total_stored_bytes();
        assert_eq!(refcounts(&a, 5), vec![1]);

        // A *different node* commits the same bytes: its node index has
        // never seen them, but the cluster replica has — the commit
        // references chunk 5 instead of pushing a sixth chunk.
        let blob_b = b.create_blob(512).unwrap();
        let vb = b
            .write_chunks(blob_b, Version(0), vec![(3, content.clone())])
            .unwrap();
        assert_eq!(
            b.store().total_stored_bytes(),
            stored,
            "cross-node identical content must not grow provider storage"
        );
        assert_eq!(refcounts(&b, 5), vec![2]);
        assert_eq!(b.context().stats().dedup_hits, 1, "hit counted on node 1");
        let got = b.read(blob_b, vb, 3 * 128..4 * 128).unwrap();
        assert!(got.content_eq(&content));

        // Node-local-only dedup stores the second copy.
        let (_f2, a2, b2) = setup_cluster(false);
        let (blob_a2, va2) = a2.upload(Payload::synth(201, 0, 512)).unwrap();
        a2.write_chunks(blob_a2, va2, vec![(0, content.clone())])
            .unwrap();
        let stored_off = a2.store().total_stored_bytes();
        let blob_b2 = b2.create_blob(512).unwrap();
        b2.write_chunks(blob_b2, Version(0), vec![(3, content.clone())])
            .unwrap();
        assert_eq!(b2.store().total_stored_bytes(), stored_off + 128);
    }

    #[test]
    fn cluster_publishes_are_novelty_filtered() {
        let (f, a, b) = setup_cluster(true);
        let content = Payload::synth(210, 0, 128);
        let blob_a = a.create_blob(128).unwrap();
        a.write_chunks(blob_a, Version(0), vec![(0, content.clone())])
            .unwrap();
        let indexed = a.store().cluster_index().read().len();
        assert_eq!(indexed, 1, "the commit published its content key");
        // A second node committing the same content publishes nothing
        // new: same index size, and the only control traffic beyond the
        // commit itself is the validation/retain round.
        let msgs_before = f.stats().transfer_count();
        let blob_b = b.create_blob(128).unwrap();
        b.write_chunks(blob_b, Version(0), vec![(0, content.clone())])
            .unwrap();
        let _ = msgs_before;
        assert_eq!(
            b.store().cluster_index().read().len(),
            indexed,
            "an already-indexed key is not re-published"
        );
    }

    /// The scatter-gather request path moves waits, never modelled cost:
    /// a cold 64-chunk boot (sixteen 4-chunk reads) and a snapshot delete
    /// charge the fabric exactly what the per-destination calls charged —
    /// the pinned values were recorded on the commit before the batch
    /// steps landed — and the same under every transport.
    #[test]
    fn batched_steps_charge_the_fabric_what_per_destination_calls_did() {
        use crate::api::TransportMode::*;
        for transport in [Direct, Codec, Socket] {
            let fabric = LocalFabric::new(5);
            let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
            let topo = BlobTopology::colocated(&compute, NodeId(4));
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: false,
                cluster_dedup: false,
                prefetch: false,
                transport,
                ..Default::default()
            };
            let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
            let writer = Client::new(Arc::clone(&store), NodeId(0));
            let (blob, v1) = writer.upload(Payload::synth(7, 0, 64 * 128)).unwrap();
            let v2 = writer
                .write(blob, v1, 5 * 128, Payload::synth(8, 0, 4 * 128))
                .unwrap();
            let counters = || {
                let s = fabric.stats();
                let seen = (s.total_network_bytes(), s.rpc_count(), s.transfer_count());
                s.reset();
                seen
            };
            counters();
            // Another node: empty descriptor, node and chunk caches.
            let reader = Client::new(Arc::clone(&store), NodeId(1));
            for read in 0..16u64 {
                let range = read * 512..(read + 1) * 512;
                reader.read(blob, v2, range).unwrap();
            }
            assert_eq!(counters(), (20992, 75, 46), "cold boot under {transport:?}");
            // A third node: the collector's descent starts cold too.
            let collector = Client::new(Arc::clone(&store), NodeId(2));
            let report = collector.delete_snapshot(blob, v2).unwrap();
            assert_eq!(report.freed_chunks, 4);
            assert_eq!(counters(), (3928, 18, 3), "delete under {transport:?}");
        }
    }

    /// A delete through one handle ends the version for *every* handle
    /// of the store: what a node knows about a version lives in its
    /// context, and the delete purges every context the moment the
    /// version manager has marked the version dead. (The per-handle
    /// cache this replaced kept answering from the other handle's copy:
    /// `ChunkUnavailable` once the chunks were freed, or a successful
    /// read of a deleted snapshot when dedup kept them alive.)
    #[test]
    fn a_delete_ends_the_version_for_every_handle_of_the_store() {
        use crate::api::TransportMode::*;
        for transport in [Direct, Codec, Socket] {
            let fabric = LocalFabric::new(5);
            let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: true,
                transport,
                ..Default::default()
            };
            let store = BlobStore::new(
                cfg,
                BlobTopology::colocated(&compute, NodeId(4)),
                fabric as Arc<dyn Fabric>,
            );
            let deleter = Client::new(Arc::clone(&store), NodeId(0));
            let neighbour = Client::new(Arc::clone(&store), NodeId(0));
            let remote = Client::new(Arc::clone(&store), NodeId(1));
            let image = Payload::synth(60, 0, 1024);
            let (blob, v1) = deleter.upload(image.clone()).unwrap();
            // v2: one chunk of its own, one that dedup shares with v1.
            let updates = vec![(1, Payload::synth(61, 0, 128)), (2, image.slice(0, 128))];
            let v2 = deleter.write_chunks(blob, v1, updates).unwrap();
            // Every handle has resolved v2 before it dies.
            for handle in [&deleter, &neighbour, &remote] {
                handle.read(blob, v2, 0..1024).unwrap();
            }
            deleter.delete_snapshot(blob, v2).unwrap();
            for (who, handle) in [
                ("the deleter", &deleter),
                ("a co-located handle", &neighbour),
                ("a handle on another node", &remote),
            ] {
                for range in [0..1024, 256..384] {
                    assert_eq!(
                        handle.read(blob, v2, range).unwrap_err(),
                        BlobError::NoSuchVersion(blob, v2),
                        "{who} under {transport:?}"
                    );
                }
                assert_eq!(
                    handle.snapshot_size(blob, v2).unwrap_err(),
                    BlobError::NoSuchVersion(blob, v2),
                    "{who} under {transport:?}"
                );
                assert!(handle.read(blob, v1, 0..1024).unwrap().content_eq(&image));
            }
        }
    }

    /// The interleaving a racing read can produce, step by step: a
    /// reader misses the node's facts and gets the version manager's
    /// answer, the version is deleted (mark, purge, collection, purge),
    /// and only then does the reader file the answer. The late answer is
    /// dropped: every handle of the node keeps getting `NoSuchVersion`.
    #[test]
    fn an_answer_older_than_the_delete_is_not_filed() {
        let (_f, a, b) = setup_cluster(true);
        let image = Payload::synth(70, 0, 1024);
        let (blob, v1) = b.upload(image.clone()).unwrap();
        let v2 = b
            .write_chunks(blob, v1, vec![(1, Payload::synth(71, 0, 128))])
            .unwrap();
        let seen = a.ctx.version_facts((blob, v2)).unwrap_err();
        let answer = a.store.vm_version_meta(blob, v2).unwrap();
        b.delete_snapshot(blob, v2).unwrap();
        a.ctx.record_version_facts((blob, v2), answer, seen);
        let fresh = Client::new(Arc::clone(a.store()), NodeId(0));
        for handle in [&a, &fresh] {
            assert_eq!(
                handle.read(blob, v2, 0..1024).unwrap_err(),
                BlobError::NoSuchVersion(blob, v2)
            );
            assert!(handle.read(blob, v1, 0..1024).unwrap().content_eq(&image));
        }
    }

    /// The tree-node bound is a memory cap, never a correctness input:
    /// with no cache at all, or one far smaller than a single tree, every
    /// read, commit and delete answers as the default context does.
    #[test]
    fn tiny_tree_node_caches_stay_correct() {
        for cap in [0usize, 1, 3, 16] {
            let (_f, seed) = setup(4);
            let store = Arc::clone(seed.store());
            let ctx = Arc::new(NodeContext::with_tree_node_capacity(store.config(), cap));
            let client = Client::with_context(Arc::clone(&store), NodeId(0), Arc::clone(&ctx));
            let image = Payload::synth(70, 0, 64 * 128);
            let (blob, v1) = client.upload(image.clone()).unwrap();
            let patch = Payload::synth(71, 0, 3 * 128);
            let v2 = client.write(blob, v1, 32 * 128, patch.clone()).unwrap();
            assert!(ctx.tree_node_entries() <= cap, "cap {cap}");
            // Cold descriptor caches on both sides: the descents run.
            let fresh = Arc::new(NodeContext::with_tree_node_capacity(store.config(), cap));
            let bounded = Client::with_context(Arc::clone(&store), NodeId(1), Arc::clone(&fresh));
            let reference = Client::new(Arc::clone(&store), NodeId(2));
            for (v, want) in [(v1, image.clone()), (v2, image.overwrite(32 * 128, patch))] {
                for range in [0..64 * 128, 31 * 128..36 * 128, 100..200] {
                    let got = bounded.read(blob, v, range.clone()).unwrap();
                    assert!(got.content_eq(&want.slice(range.start, range.end)));
                    let same = reference.read(blob, v, range).unwrap();
                    assert!(got.content_eq(&same), "cap {cap}");
                }
            }
            assert!(fresh.tree_node_entries() <= cap, "cap {cap}");
            let report = bounded.delete_snapshot(blob, v2).unwrap();
            assert_eq!(report.dead_leaves, 3, "cap {cap}");
        }
    }

    #[test]
    fn gc_reclaims_unique_chunks_and_preserves_survivors() {
        let (_f, a, _b) = setup_cluster(true);
        let image = Payload::synth(220, 0, 1024); // 8 chunks
        let (blob, v1) = a.upload(image.clone()).unwrap();
        let stored_v1 = a.store().total_stored_bytes();
        // v2 rewrites chunks 2 and 3 with fresh content.
        let v2 = a
            .write_chunks(
                blob,
                v1,
                vec![
                    (2, Payload::synth(221, 0, 128)),
                    (3, Payload::synth(222, 0, 128)),
                ],
            )
            .unwrap();
        assert_eq!(a.store().total_stored_bytes(), stored_v1 + 256);

        let report = a.delete_snapshot(blob, v2).unwrap();
        assert_eq!(report.deleted_versions, 1);
        assert_eq!(report.dead_leaves, 2, "only v2's shadowed leaves die");
        assert_eq!(report.freed_chunks, 2);
        assert_eq!(report.freed_bytes, 256);
        assert_eq!(
            a.store().total_stored_bytes(),
            stored_v1,
            "v2's unique bytes reclaimed exactly"
        );
        // The surviving snapshot is byte-identical; the deleted one is
        // gone for good.
        let got = a.read(blob, v1, 0..1024).unwrap();
        assert!(got.content_eq(&image));
        assert!(matches!(
            a.read(blob, v2, 0..1024),
            Err(BlobError::NoSuchVersion(_, _))
        ));
        assert!(matches!(
            a.delete_snapshot(blob, v2),
            Err(BlobError::NoSuchVersion(_, _))
        ));
        assert!(matches!(
            a.delete_snapshot(blob, Version(0)),
            Err(BlobError::BadInput(_))
        ));
    }

    #[test]
    fn gc_middle_of_chain_keeps_neighbors_byte_identical() {
        let (_f, a, _b) = setup_cluster(true);
        let (blob, v1) = a.upload(Payload::synth(230, 0, 512)).unwrap();
        let v2 = a
            .write_chunks(blob, v1, vec![(1, Payload::synth(231, 0, 128))])
            .unwrap();
        let v3 = a
            .write_chunks(blob, v2, vec![(1, Payload::synth(232, 0, 128))])
            .unwrap();
        let before_v1 = a.read(blob, v1, 0..512).unwrap();
        let before_v3 = a.read(blob, v3, 0..512).unwrap();
        let stored = a.store().total_stored_bytes();
        let report = a.delete_snapshot(blob, v2).unwrap();
        assert_eq!(report.freed_bytes, 128, "v2's private chunk only");
        assert_eq!(a.store().total_stored_bytes(), stored - 128);
        assert!(a.read(blob, v1, 0..512).unwrap().content_eq(&before_v1));
        assert!(a.read(blob, v3, 0..512).unwrap().content_eq(&before_v3));
    }

    #[test]
    fn gc_never_frees_chunks_shared_by_dedup_reference() {
        let (_f, a, b) = setup_cluster(true);
        let content = Payload::synth(240, 0, 128);
        let blob_a = a.create_blob(128).unwrap();
        let va = a
            .write_chunks(blob_a, Version(0), vec![(0, content.clone())])
            .unwrap();
        // Node 1 commits the same bytes by cluster reference (refcount 2).
        let blob_b = b.create_blob(128).unwrap();
        let vb = b
            .write_chunks(blob_b, Version(0), vec![(0, content.clone())])
            .unwrap();
        assert_eq!(refcounts(&a, 1), vec![2]);
        // Deleting one snapshot releases one reference; the bytes stay.
        let report = a.delete_snapshot(blob_a, va).unwrap();
        assert_eq!(report.released_refs, 1);
        assert_eq!(report.freed_chunks, 0, "the other lineage still refs it");
        assert_eq!(refcounts(&a, 1), vec![1]);
        assert!(b.read(blob_b, vb, 0..128).unwrap().content_eq(&content));
        // Deleting the second snapshot frees the chunk for real.
        let report = b.delete_snapshot(blob_b, vb).unwrap();
        assert_eq!((report.freed_chunks, report.freed_bytes), (1, 128));
        assert_eq!(refcounts(&a, 1), Vec::<u64>::new());
    }

    #[test]
    fn gc_respects_clone_aliases_across_blobs() {
        let (_f, a, _b) = setup_cluster(true);
        let image = Payload::synth(250, 0, 512);
        let (blob, v1) = a.upload(image.clone()).unwrap();
        let clone = a.clone_blob(blob, v1).unwrap();
        let stored = a.store().total_stored_bytes();
        // The clone's Version(1) *is* the source tree: deleting the
        // source version must free nothing while the alias lives.
        let report = a.delete_snapshot(blob, v1).unwrap();
        assert_eq!(report.dead_leaves, 0, "alias root keeps every leaf live");
        assert_eq!(a.store().total_stored_bytes(), stored);
        let got = a.read(clone, Version(1), 0..512).unwrap();
        assert!(got.content_eq(&image));
        // Once the alias goes too, the tree is unreachable and frees.
        let report = a.delete_snapshot(clone, Version(1)).unwrap();
        assert_eq!(report.freed_bytes, 512);
        assert_eq!(a.store().total_stored_bytes(), 0);
    }

    #[test]
    fn gc_delete_then_rewrite_identical_content_roundtrips() {
        // The delete→rewrite path: indexes may still carry entries for
        // reclaimed chunks; validation must catch them (retain fails),
        // push fresh bytes, and read back the identical content.
        for strong in [false, true] {
            let fabric = LocalFabric::new(5);
            let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
            let topo = BlobTopology::colocated(&compute, NodeId(4));
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: true,
                cluster_dedup: true,
                strong_digest: strong,
                ..Default::default()
            };
            let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
            let a = Client::new(Arc::clone(&store), NodeId(0));
            let b = Client::new(store, NodeId(1));
            let content = Payload::synth(260, 0, 128);
            let blob = a.create_blob(128).unwrap();
            let v = a
                .write_chunks(blob, Version(0), vec![(0, content.clone())])
                .unwrap();
            a.delete_snapshot(blob, v).unwrap();
            assert_eq!(a.store().total_stored_bytes(), 0);
            // Rewrite the same bytes from the *other* node (its caches
            // never saw the delete's origin): must store fresh and read
            // back byte-identical.
            let blob2 = b.create_blob(128).unwrap();
            let v2 = b
                .write_chunks(blob2, Version(0), vec![(0, content.clone())])
                .unwrap();
            assert_eq!(
                b.store().total_stored_bytes(),
                128,
                "strong={strong}: rewrite stores fresh bytes"
            );
            let got = b.read(blob2, v2, 0..128).unwrap();
            assert!(got.content_eq(&content), "strong={strong}");
        }
    }

    #[test]
    fn gc_evicts_freed_chunks_from_indexes_and_caches() {
        let (_f, a, b) = setup_cluster(true);
        let content = Payload::synth(270, 0, 128);
        let blob = a.create_blob(128).unwrap();
        let v = a
            .write_chunks(blob, Version(0), vec![(0, content.clone())])
            .unwrap();
        assert_eq!(a.store().cluster_index().read().len(), 1);
        assert!(a.context().digest_entries() > 0);
        let report = a.delete_snapshot(blob, v).unwrap();
        assert_eq!(report.freed_chunks, 1);
        assert_eq!(
            a.store().cluster_index().read().len(),
            0,
            "freed chunk evicted from the cluster index"
        );
        assert_eq!(
            a.context().digest_entries(),
            0,
            "freed chunk evicted from the node digest index"
        );
        let _ = b;
    }

    #[test]
    fn prefetch_confidence_skips_single_publisher_chunks() {
        let fabric = LocalFabric::new(5);
        let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 128,
            prefetch: true,
            prefetch_min_publishers: 2, // explicit: tests must not drift
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let a = Client::new(Arc::clone(&store), NodeId(0));
        let c = Client::new(Arc::clone(&store), NodeId(2));
        let (blob, v) = a.upload(Payload::synth(280, 0, 4096)).unwrap(); // 32 chunks
        let key = (blob, v);
        // One publisher so far: everything it reports is prefetchable.
        store
            .pattern_board()
            .merge(key, NodeId(0), &(0..16).collect::<Vec<u64>>());
        // A second cohort member confirms only the first half; the tail
        // 8..16 stays single-publisher (private divergence).
        store
            .pattern_board()
            .merge(key, NodeId(1), &(0..8).collect::<Vec<u64>>());
        let landed = c.prefetch_chunks(blob, v, 100).unwrap();
        assert_eq!(landed, 8, "only cohort-confirmed chunks are prefetched");
        let stats = c.context().prefetch_stats();
        assert_eq!(stats.prefetched_chunks, 8);
        // The unconfirmed tail was consumed, not deferred: nothing more
        // to do until new pattern data arrives.
        assert_eq!(c.prefetch_chunks(blob, v, 100).unwrap(), 0);
    }
}
