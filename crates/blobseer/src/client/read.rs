//! The vectored read pipeline: plan the union of a read's chunk covers,
//! resolve their descriptors, serve what the node-shared chunk cache
//! holds, fetch the rest in one [`Step`] grouped by provider, assemble.
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
//!    `(blob, version)` in the *node-shared* [`crate::NodeContext`]
//!    (§4.1's metadata cache lives in the per-node FUSE process, shared
//!    by every co-located VM). Snapshots are immutable, so entries never
//!    go stale; repeated boot-time reads of the same snapshot skip the
//!    metadata plane entirely — even from a different co-located client.
//!    A commit seeds the new version's entry from its base plus the
//!    published delta, and `clone_blob` carries the source entry over to
//!    the clone. Eviction is per-entry LRU, bounded by
//!    [`crate::BlobConfig::desc_cache_versions`].
//! 3. **Per-provider batching** — the chunk fetches of the whole plan are
//!    grouped by provider and issued as one batched transfer each, with
//!    per-chunk replica failover as the fallback path.

use super::step::{self, Step};
use super::{Client, VersionMeta};
use crate::api::{BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, Version};
use crate::context::ChunkOrigin;
use crate::segtree;
use crate::service::{BlobStore, Fetched};
use bff_data::{chunk_cover, chunk_range, coalesce_runs, intersect, ByteRange, FastMap, Payload};
use bff_net::{NetError, NodeId};
use bff_wire::msg::{ProviderReq, Req};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// Per-chunk fetch outcomes keyed by chunk index.
pub(super) type ChunkResults = Vec<(u64, BlobResult<Payload>)>;

impl Client {
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
    /// batched pipeline (see the module docs), returning one payload per
    /// input range (unwritten regions read as zeros). Byte-for-byte
    /// equivalent to calling [`Client::read`] once per range; strictly
    /// cheaper in metadata rounds and per-message overheads.
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
        let cover_runs = coalesce_runs(ranges.iter().map(|r| chunk_cover(r, meta.chunk_size)));

        // Resolve descriptors: the node-shared cache first, then one
        // descent for the rest.
        let descs = self.resolve_descs(blob, version, &meta, &cover_runs)?;

        // Serve written chunks from the node-shared chunk cache first
        // (prefetched or demand-cached by any co-located client) — one
        // lock acquisition for the whole plan — then batch-fetch the
        // remainder from the providers. Demand fetches are cached too
        // while prefetching is on, so co-located VMs share each other's
        // fetched data exactly as they share the paper's per-node module
        // state.
        let mut plan: Vec<(u64, ChunkDesc, u64)> = Vec::new();
        for run in &cover_runs {
            for idx in run.clone() {
                if let Some(desc) = descs.get(&idx) {
                    let cr = chunk_range(idx, meta.chunk_size, meta.size);
                    plan.push((idx, desc.clone(), cr.end - cr.start));
                }
            }
        }
        let ids: Vec<ChunkId> = plan.iter().map(|(_, desc, _)| desc.id).collect();
        let cached = self.ctx.chunk_cache_get_batch(&ids);
        let mut fetched: HashMap<u64, Payload> = HashMap::new();
        let mut fetch: Vec<(u64, ChunkDesc, u64)> = Vec::new();
        for ((idx, desc, len), data) in plan.into_iter().zip(cached) {
            match data {
                Some(data) => {
                    debug_assert_eq!(data.len(), len, "cached chunk length");
                    fetched.insert(idx, data);
                }
                None => fetch.push((idx, desc, len)),
            }
        }
        let cache_data = self.prefetch_enabled();
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
        // zero fill. Every fetched chunk has its stored length: the fetch
        // step refuses any other.
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
                    Some(p) => payload.append(p.slice(want.start - cr.start, want.end - cr.start)),
                    None => payload.append(Payload::zeros(want.end - want.start)),
                }
            }
            debug_assert_eq!(payload.len(), range.end - range.start);
            out.push(payload);
        }
        Ok(out)
    }

    /// Resolve the chunk descriptors covering `cover_runs` (sorted
    /// disjoint index runs): the node-shared descriptor cache first, then
    /// a *single* segment-tree descent for the remainder. Chunk-granular
    /// hit/miss counts feed the context's aggregate counters. Indices
    /// absent from the returned map are unwritten (read as zeros).
    pub(super) fn resolve_descs(
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
            let leaves =
                segtree::collect_leaves_multi(&mut self.node_io(), meta.root, meta.span, &missing)?;
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

    /// Fetch `chunks` (index, descriptor, stored length) in one step,
    /// grouped by each chunk's preferred replica: every reachable
    /// provider's `Fetch` is in flight before the first reply is read,
    /// and only then does each group charge the fabric — one batched
    /// disk read and one batched transfer, providers in parallel. A group
    /// whose provider is down (or is none), whose exchange fails or whose
    /// reply is malformed falls back to per-chunk [`fetch_chunk`] replica
    /// failover. Returns one result per chunk — the demand path
    /// propagates the first error, the prefetch path tolerates per-chunk
    /// failures.
    pub(super) fn fetch_chunks_results(&self, chunks: &[(u64, ChunkDesc, u64)]) -> ChunkResults {
        if chunks.is_empty() {
            return Vec::new();
        }
        // The preferred replica of each chunk, as `fetch_chunk` spreads
        // them, so batched and per-chunk paths load the same copies.
        let mut fetch = Step::new();
        for (idx, desc, len) in chunks {
            let preferred = desc.replicas[preferred_slot(desc, self.node)];
            fetch.add(preferred, (*idx, desc.clone(), *len));
        }
        let store = &self.store;
        let results: Arc<Mutex<ChunkResults>> =
            Arc::new(Mutex::new(Vec::with_capacity(chunks.len())));
        let mut tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
        let Ok(()) = fetch.run(
            store,
            |prov, group| {
                let reachable = !store.fabric.is_down(prov) && store.is_provider(prov);
                Ok::<_, Infallible>(reachable.then(|| Req::Provider {
                    node: prov,
                    req: ProviderReq::Fetch(group.iter().map(|(_, desc, _)| desc.id).collect()),
                }))
            },
            step::fetched,
            // Per provider, the batched charges and any failover — run
            // under `par_join`, which is what the simulated figures time.
            |prov, group, reply| {
                let served = reply.and_then(Result::ok);
                let (store, results, me) = (Arc::clone(store), Arc::clone(&results), self.node);
                tasks.push(Box::new(move || {
                    let got = settle_chunk_batch(&store, me, prov, group, served);
                    results.lock().extend(got);
                }));
            },
        );
        self.store.fabric.par_join(tasks);
        Arc::try_unwrap(results)
            .unwrap_or_else(|a| Mutex::new(a.lock().clone()))
            .into_inner()
    }
}

/// The replica a reader on `me` tries first, spread by chunk id and
/// reader so concurrent readers don't gang up on one copy.
fn preferred_slot(desc: &ChunkDesc, me: NodeId) -> usize {
    debug_assert!(!desc.replicas.is_empty());
    (desc.id.0 as usize + me.index()) % desc.replicas.len()
}

/// Fetch one chunk with replica failover, starting at the preferred
/// replica. A replica that is down, unreachable, does not hold the
/// chunk or answers with anything but one chunk of `len` bytes has
/// failed; the next one is tried.
fn fetch_chunk(
    store: &Arc<BlobStore>,
    me: NodeId,
    desc: &ChunkDesc,
    len: u64,
) -> BlobResult<Payload> {
    let k = desc.replicas.len();
    let start = preferred_slot(desc, me);
    let mut last: BlobError = BlobError::ChunkUnavailable(desc.id);
    for i in 0..k {
        let prov = desc.replicas[(start + i) % k];
        if store.fabric.is_down(prov) {
            last = BlobError::Net(NetError::NodeDown(prov));
            continue;
        }
        let got = match store.provider_fetch(prov, vec![desc.id]) {
            Ok(mut served) if served.len() == 1 => served.pop().flatten(),
            Ok(_) => None,
            Err(e) => {
                // Transport failure: this replica is unreachable, try
                // the next one — same failover as a down node.
                last = e;
                continue;
            }
        };
        let Some((data, hot)) = got.filter(|(data, _)| data.len() == len) else {
            last = BlobError::ChunkUnavailable(desc.id);
            continue;
        };
        let serve = || -> Result<(), NetError> {
            if !hot {
                store.fabric.disk_read(prov, len)?;
            }
            store.fabric.transfer(prov, me, len)
        };
        match serve() {
            Ok(()) => return Ok(data),
            Err(e) => last = BlobError::Net(e),
        }
    }
    Err(last)
}

/// Settle one provider's slice of a batched read plan, given its answer
/// (`None`: not asked, or the exchange failed): all chunks served at
/// `prov` are charged as one batched disk read (cold bytes only) and one
/// batched transfer — the per-message savings behind the vectored
/// pipeline. Chunks the provider did not serve (missing, of the wrong
/// length, node down, or a mid-batch fabric failure) fall back to
/// per-chunk [`fetch_chunk`] replica failover, preserving availability
/// semantics.
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
        // One answer per chunk: the step checked the reply's arity.
        Some(served) => {
            for ((idx, desc, len), res) in group.into_iter().zip(served) {
                match res {
                    Some((data, hot)) if data.len() == len => {
                        total += len;
                        if !hot {
                            cold += len;
                        }
                        got.push((idx, desc, len, data));
                    }
                    _ => fallback.push((idx, desc, len)),
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

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

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
    fn replication_survives_provider_failure() {
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 2,
            ..Default::default()
        };
        let (fabric, store) = deploy(4, cfg);
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
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 1,
            ..Default::default()
        };
        let (fabric, store) = deploy(2, cfg);
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
        let cfg = BlobConfig {
            chunk_size: 128,
            replication: 2,
            ..Default::default()
        };
        let (fabric, store) = deploy(4, cfg);
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
}
