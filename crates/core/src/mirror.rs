//! The mirroring module: on-demand VM image mirroring with transparent
//! snapshotting (§3.1.2, §3.3, §4.2) — the paper's core contribution.
//!
//! A [`MirroredImage`] presents a raw image to the hypervisor. Reads that
//! touch regions not yet available locally trigger remote fetches from the
//! versioning repository (whole minimal chunk covers, strategy 1); writes
//! always go to the local mirror, gap-filling so each chunk keeps a single
//! contiguous local region (strategy 2). `CLONE` rebinds the image to a
//! fresh first-class blob sharing all content with its origin; `COMMIT`
//! publishes exactly the dirty chunks as a new standalone snapshot.
//!
//! Cost model hooks: every remote fetch moves through the repository
//! client (network + provider disks), every local mirror write is charged
//! as an mmap-style write-back disk write, and every operation pays the
//! configured FUSE crossing overhead — the knobs behind Figs. 6 and 7.

use crate::chunkmap::ChunkMap;
use crate::localstore::LocalStore;
use bff_blobseer::{BlobId, BlobResult, Client, ReadAhead, Version};
use bff_data::{ByteRange, Payload};
use bff_net::{Fabric, NodeId};
use std::sync::Arc;

/// Mirroring behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct MirrorConfig {
    /// Strategy 1: fetch the full minimal chunk cover on read misses.
    pub prefetch_whole_chunks: bool,
    /// Strategy 2: keep one contiguous local region per chunk by
    /// gap-filling before scattered writes.
    pub gap_fill: bool,
    /// FUSE user/kernel crossing cost charged on writes and on reads
    /// that miss locally, us. Locally cached reads do *not* pay it: the
    /// kernel VFS cache serves them without a userspace crossing (§4.1:
    /// "FUSE takes advantage of the kernel-level virtual file system,
    /// which benefits of the cache management implemented in the
    /// kernel"). This is why Fig. 6 shows equal read throughput.
    pub fuse_op_overhead_us: u64,
    /// Syscall cost of a locally served read, us.
    pub read_syscall_us: u64,
    /// Page-cache copy bandwidth for locally served reads, bytes/us
    /// (0 disables the charge).
    pub read_bw: f64,
    /// Charge local mirror writes as write-back (mmap) instead of
    /// write-through. The paper's module mmaps the mirror file (§4.2).
    pub writeback: bool,
}

impl Default for MirrorConfig {
    fn default() -> Self {
        Self {
            prefetch_whole_chunks: true,
            gap_fill: true,
            fuse_op_overhead_us: 12,
            read_syscall_us: 4,
            read_bw: 550.0,
            writeback: true,
        }
    }
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// Bytes fetched from the repository (includes prefetch overshoot):
    /// the sum of planned run lengths, independent of how the transport
    /// batches them.
    pub remote_bytes: u64,
    /// Remote fetch *runs* served: one per contiguous planned range, the
    /// paper-level accounting unit. The vectored pipeline may satisfy
    /// many runs with a single descent and batched provider transfers;
    /// this counter is deliberately transport-independent so stats are
    /// byte-identical between the per-run and batched paths.
    pub remote_fetches: u64,
    /// Bytes fetched purely to fill write gaps (strategy 2).
    pub gap_fill_bytes: u64,
    /// Read operations served.
    pub reads: u64,
    /// Write operations served.
    pub writes: u64,
    /// Bytes committed across all COMMITs (full dirty chunks).
    pub committed_bytes: u64,
    /// Of `committed_bytes`, bytes the repository published *by
    /// reference* through content-addressed dedup instead of pushing
    /// (0 when [`bff_blobseer::BlobConfig::dedup`] is off). Reported
    /// per commit by the repository client, so the attribution is exact
    /// per image even with co-located VMs committing concurrently.
    pub deduped_bytes: u64,
}

/// A VM image mirrored on a compute node.
///
/// Not `Sync`: an image belongs to the single hypervisor thread of its VM,
/// exactly as a FUSE-mounted file belongs to its opener. Share across
/// threads at the [`crate::vfs::VirtualFs`] layer if needed.
pub struct MirroredImage {
    client: Client,
    blob: BlobId,
    /// The repository snapshot this mirror is based on; COMMIT advances it.
    base: Version,
    node: NodeId,
    fabric: Arc<dyn Fabric>,
    store: Box<dyn LocalStore>,
    map: ChunkMap,
    cfg: MirrorConfig,
    stats: MirrorStats,
}

impl MirroredImage {
    /// Open `(blob, version)` for mirroring into `store`. The store must
    /// be empty or carry state saved by [`Self::close`] for this image.
    pub fn open(
        client: Client,
        blob: BlobId,
        version: Version,
        store: Box<dyn LocalStore>,
        cfg: MirrorConfig,
    ) -> BlobResult<Self> {
        let size = client.snapshot_size(blob, version)?;
        assert_eq!(store.len(), size, "local store must match image size");
        let chunk_size = client.store().config().chunk_size;
        let node = client.node();
        let fabric = Arc::clone(client.store().fabric());
        Ok(Self {
            client,
            blob,
            base: version,
            node,
            fabric,
            store,
            map: ChunkMap::new(size, chunk_size),
            cfg,
            stats: MirrorStats::default(),
        })
    }

    /// Reopen a previously closed mirror from its saved modification
    /// metadata (§4.2: reopening restores the local modification state).
    pub fn reopen(
        client: Client,
        store: Box<dyn LocalStore>,
        cfg: MirrorConfig,
        saved: &SavedMirror,
    ) -> BlobResult<Self> {
        let map = ChunkMap::deserialize(&saved.chunk_map)
            .map_err(|_| bff_blobseer::BlobError::BadInput("corrupt mirror metadata"))?;
        assert_eq!(store.len(), map.image_len(), "store/metadata size mismatch");
        let node = client.node();
        let fabric = Arc::clone(client.store().fabric());
        Ok(Self {
            client,
            blob: saved.blob,
            base: saved.base,
            node,
            fabric,
            store,
            map,
            cfg,
            stats: MirrorStats::default(),
        })
    }

    /// Image size in bytes.
    pub fn len(&self) -> u64 {
        self.map.image_len()
    }

    /// Whether the image is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blob currently backing this image (changes after CLONE).
    pub fn blob(&self) -> BlobId {
        self.blob
    }

    /// The repository snapshot the mirror is based on.
    pub fn base_version(&self) -> Version {
        self.base
    }

    /// Operation counters.
    pub fn stats(&self) -> MirrorStats {
        self.stats
    }

    /// Local-modification bookkeeping (tests / fragmentation metrics).
    pub fn chunk_map(&self) -> &ChunkMap {
        &self.map
    }

    fn charge_fuse_op(&self) {
        if self.cfg.fuse_op_overhead_us > 0 {
            self.fabric.compute(self.node, self.cfg.fuse_op_overhead_us);
        }
    }

    fn charge_local_write(&self, bytes: u64) -> BlobResult<()> {
        if self.cfg.writeback {
            self.fabric.disk_write_cached(self.node, bytes)?;
        } else {
            self.fabric.disk_write(self.node, bytes)?;
        }
        Ok(())
    }

    /// Fetch `plan` ranges from the repository and merge them into the
    /// local mirror. Local content wins: fetched data only fills the
    /// sub-ranges not yet present (they may hold newer local writes).
    ///
    /// The whole plan is handed to the repository's vectored read in one
    /// call: one segment-tree descent for all runs (instead of one per
    /// run), none for the tree nodes this node already holds, and
    /// per-provider batched chunk transfers. A guest read's misses go
    /// through [`Client::read_multi_hinted`], which feeds the prefetch
    /// plane; a `gap_fill` goes through [`Client::read_multi`], which
    /// does not (and is counted in `gap_fill_bytes`). Accounting is
    /// unchanged: `remote_bytes` sums the run lengths and
    /// `remote_fetches` counts plan runs, exactly as the former per-run
    /// loop did.
    fn fetch_and_merge(&mut self, plan: Vec<ByteRange>, gap_fill: bool) -> BlobResult<()> {
        if plan.is_empty() {
            return Ok(());
        }
        let payloads = if gap_fill {
            self.client.read_multi(self.blob, self.base, &plan)?
        } else {
            self.client.read_multi_hinted(self.blob, self.base, &plan)?
        };
        for (run, data) in plan.into_iter().zip(payloads) {
            let len = run.end - run.start;
            self.stats.remote_bytes += len;
            self.stats.remote_fetches += 1;
            if gap_fill {
                self.stats.gap_fill_bytes += len;
            }
            // Merge via zero-copy payload slices: only the gaps are
            // written, so newer local writes inside the run survive.
            for gap in self.map.local_gaps_within(&run) {
                let rel = gap.start - run.start..gap.end - run.start;
                self.store.write(gap.start, &data.slice(rel.start, rel.end));
            }
            // Mirroring writes the fetched content to the local disk.
            self.charge_local_write(len)?;
            self.map.note_fetched(run);
        }
        Ok(())
    }

    /// Read `range`, fetching missing content on demand (§3.1.2: reads on
    /// regions not available locally mirror the content first, then serve
    /// locally): [`MirroredImage::read_multi`] of one range.
    pub fn read(&mut self, range: ByteRange) -> BlobResult<Payload> {
        let mut got = self.read_multi(std::slice::from_ref(&range))?;
        Ok(got.pop().expect("one payload per range"))
    }

    /// Vectored read: serve several ranges as one request, fetching all
    /// their missing content in a single batched repository plan. The
    /// per-range plans are deduplicated against each other (overlapping
    /// ranges fetch shared chunks once, exactly like sequential reads
    /// would), handed to [`Client::read_multi`] in one call, and each
    /// range is then served from the local mirror. Content and
    /// paper-accounting stats (`remote_bytes`, `remote_fetches`, `reads`)
    /// are identical to reading each range on its own.
    pub fn read_multi(&mut self, ranges: &[ByteRange]) -> BlobResult<Vec<Payload>> {
        let mut plan: Vec<ByteRange> = Vec::new();
        let mut planned = bff_data::RangeSet::new();
        for range in ranges {
            assert!(range.end <= self.len(), "read beyond image");
            self.stats.reads += 1;
            let runs = self.map.plan_read(range, self.cfg.prefetch_whole_chunks);
            if runs.is_empty() {
                // Locally cached: served by the kernel VFS cache.
                let mut cost = self.cfg.read_syscall_us;
                if self.cfg.read_bw > 0.0 {
                    cost += ((range.end - range.start) as f64 / self.cfg.read_bw).ceil() as u64;
                }
                if cost > 0 {
                    self.fabric.compute(self.node, cost);
                }
            } else {
                // Like the paper's FUSE module, the per-node context only
                // *observes* reads that miss locally (cached reads never
                // cross into userspace, §4.1): exactly the planned fetch
                // runs reach the repository as a hinted read, and of
                // their chunks the ones that read moves feed the
                // first-touch order published to the cluster
                // PatternBoard.
                self.charge_fuse_op();
                for run in runs {
                    // Later ranges may re-plan chunks an earlier range
                    // already covers; fetch each region once.
                    plan.extend(planned.gaps_within(&run));
                    planned.insert(run);
                }
            }
        }
        self.fetch_and_merge(plan, false)?;
        Ok(ranges.iter().map(|r| self.store.read(r)).collect())
    }

    /// Write `data` at `offset`. Writes are always performed locally
    /// (§3.1.2); strategy 2 first fills any gap in the touched chunks.
    pub fn write(&mut self, offset: u64, data: Payload) -> BlobResult<()> {
        let range = offset..offset + data.len();
        assert!(range.end <= self.len(), "write beyond image");
        self.charge_fuse_op();
        self.stats.writes += 1;
        if data.is_empty() {
            return Ok(());
        }
        if self.cfg.gap_fill {
            let gaps = self.map.plan_write_gaps(&range);
            self.fetch_and_merge(gaps, true)?;
        }
        self.store.write(offset, &data);
        self.charge_local_write(data.len())?;
        self.map.note_written(range, self.cfg.gap_fill);
        if self.cfg.gap_fill && self.cfg.prefetch_whole_chunks {
            debug_assert!(self.map.check_single_region_invariant().is_ok());
        }
        Ok(())
    }

    /// Kick one *asynchronous* read-ahead step — the adaptive
    /// prefetching pipeline (§3.1.3: co-deployed VMs touch nearly
    /// identical chunk sequences, so the module pulls what the cohort's
    /// PatternBoard predicts while the guest computes). The hypervisor
    /// pokes this at open and at every guest compute burst: unless the
    /// node's local decision ([`bff_blobseer::NodeContext::read_ahead`])
    /// is to do nothing or a step is already in flight, one bounded step
    /// ([`bff_blobseer::BlobConfig::prefetch_window`] chunks), which
    /// sends the poll if there is one, is handed to
    /// [`Fabric::spawn_detached`]. On the simulator that is a
    /// concurrent process: the guest's timeline continues at once, and
    /// the prefetch transfers contend with (and hide behind) its compute
    /// and demand I/O instead of extending them. On
    /// [`LocalFabric`](bff_net::LocalFabric) the step runs inline on the
    /// calling thread, so this returns only after the step has fetched
    /// its window.
    ///
    /// Returns whether a step was started. `false` — starting nothing
    /// and charging nothing — when prefetching is off, the replica is
    /// consumed with no reason to poll, or a step is still in flight;
    /// with `BFF_PREFETCH=0` the path is therefore
    /// bit-identical to the pre-prefetch model.
    pub fn poke_prefetch(&mut self) -> bool {
        let ctx = Arc::clone(self.client.context());
        if ctx.read_ahead((self.blob, self.base)) == ReadAhead::Idle || !ctx.try_begin_prefetch() {
            return false; // nothing to do, or a step in flight: budget of one
        }
        let client = self.client.clone();
        let (blob, base) = (self.blob, self.base);
        let window = client.store().config().prefetch_window;
        self.fabric.spawn_detached(Box::new(move || {
            // Best-effort: a failed step (managers unreachable) only
            // means this window stays on demand.
            let _ = client.prefetch_chunks(blob, base, window);
            ctx.end_prefetch();
        }));
        true
    }

    /// CLONE (ioctl): rebind this image to a new first-class blob that
    /// shares all content with the current base snapshot. Local state
    /// (mirrored content, dirty regions) carries over untouched. Returns
    /// the new blob id.
    pub fn clone_image(&mut self) -> BlobResult<BlobId> {
        let new_blob = self.client.clone_blob(self.blob, self.base)?;
        self.blob = new_blob;
        // The clone's Version(1) is the old base snapshot's tree.
        self.base = Version(1);
        Ok(new_blob)
    }

    /// COMMIT (ioctl): publish all local modifications as a new snapshot
    /// of the backing blob. Only dirty chunks are transferred (partially
    /// dirty edge chunks are completed from local/remote content first).
    /// Returns the published version; a commit with no local
    /// modifications is a no-op returning the current base.
    pub fn commit(&mut self) -> BlobResult<Version> {
        let dirty = self.map.dirty_chunks();
        if dirty.is_empty() {
            return Ok(self.base);
        }
        let chunk_size = self.map.chunk_size();
        let image_len = self.len();
        // Complete partially local dirty chunks: publishing works at chunk
        // granularity, so the clean remainder must be present locally.
        let mut fill = Vec::new();
        for &idx in &dirty {
            if !self.map.is_chunk_local(idx) {
                let cr = bff_data::chunk_range(idx, chunk_size, image_len);
                fill.extend(self.map.plan_read(&cr, true));
            }
        }
        self.fetch_and_merge(fill, true)?;

        let updates: Vec<(u64, Payload)> = dirty
            .iter()
            .map(|&idx| {
                let cr = bff_data::chunk_range(idx, chunk_size, image_len);
                (idx, self.store.read(&cr))
            })
            .collect();
        let committed: u64 = updates.iter().map(|(_, p)| p.len()).sum();
        // Dirty chunks whose content already has live replicas commit by
        // reference (§3.1.3 dedup); account the bytes that therefore
        // never left this node. The commit reports its own reuse — a
        // delta over the node-shared counters would fold in co-located
        // VMs committing concurrently.
        let (v, reused) = self
            .client
            .write_chunks_accounted(self.blob, self.base, updates)?;
        self.stats.deduped_bytes += reused;
        self.stats.committed_bytes += committed;
        self.base = v;
        self.map.clear_dirty();
        Ok(v)
    }

    /// Close the mirror, persisting the local-modification metadata next
    /// to the mirror file (§4.2). The local store itself is returned to
    /// the caller, who owns its lifecycle.
    pub fn close(self) -> (SavedMirror, Box<dyn LocalStore>) {
        let meta = SavedMirror {
            blob: self.blob,
            base: self.base,
            chunk_map: self.map.serialize(),
        };
        (meta, self.store)
    }
}

/// Mirror state persisted on close and consumed by
/// [`MirroredImage::reopen`].
#[derive(Debug, Clone, PartialEq)]
pub struct SavedMirror {
    /// Blob backing the mirror at close time.
    pub blob: BlobId,
    /// Base snapshot at close time.
    pub base: Version,
    /// Serialized [`ChunkMap`].
    pub chunk_map: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localstore::MemStore;
    use bff_blobseer::{BlobConfig, BlobStore, BlobTopology};
    use bff_net::LocalFabric;

    const CS: u64 = 128;
    const IMG: u64 = 1024;

    fn setup() -> (Client, BlobId, Payload) {
        let fabric = LocalFabric::new(5);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: CS,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let image = Payload::synth(42, 0, IMG);
        let (blob, _v) = client.upload(image.clone()).unwrap();
        (client, blob, image)
    }

    fn mirror(client: &Client, blob: BlobId) -> MirroredImage {
        MirroredImage::open(
            client.clone(),
            blob,
            Version(1),
            Box::new(MemStore::new(IMG)),
            MirrorConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn read_fetches_on_demand_and_serves_locally_after() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        let got = m.read(10..50).unwrap();
        assert!(got.content_eq(&image.slice(10, 50)));
        // Strategy 1: the whole covering chunk was fetched.
        assert_eq!(m.stats().remote_bytes, CS);
        // A second read in the same chunk is a local hit.
        let before = m.stats().remote_fetches;
        let got = m.read(60..100).unwrap();
        assert!(got.content_eq(&image.slice(60, 100)));
        assert_eq!(m.stats().remote_fetches, before, "no new remote fetch");
    }

    #[test]
    fn reads_never_fetch_more_than_minimal_cover() {
        let (client, blob, _image) = setup();
        let mut m = mirror(&client, blob);
        m.read(130..140).unwrap(); // chunk 1 only
        assert_eq!(m.stats().remote_bytes, CS);
        m.read(0..IMG).unwrap(); // everything else
        assert_eq!(
            m.stats().remote_bytes,
            IMG,
            "each chunk fetched exactly once"
        );
    }

    #[test]
    fn writes_are_local_and_read_your_writes_holds() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        let patch = Payload::from(vec![0xEEu8; 40]);
        m.write(200, patch.clone()).unwrap();
        assert_eq!(
            m.stats().remote_bytes,
            0,
            "writes fetch nothing by themselves"
        );
        // Read-your-writes within the written region.
        let got = m.read(200..240).unwrap();
        assert!(got.content_eq(&patch));
        // Reading around it merges remote content without clobbering.
        let got = m.read(128..256).unwrap();
        let expect = image.slice(128, 256).overwrite(200 - 128, patch);
        assert!(got.content_eq(&expect));
    }

    #[test]
    fn scattered_writes_gap_fill_remotely() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        m.write(0, Payload::from(vec![1u8; 10])).unwrap();
        // Second write to the same chunk; gap 10..50 must be fetched.
        m.write(50, Payload::from(vec![2u8; 10])).unwrap();
        assert_eq!(m.stats().gap_fill_bytes, 40);
        // The gap holds pristine base content.
        let got = m.read(10..50).unwrap();
        assert!(got.content_eq(&image.slice(10, 50)));
        m.chunk_map().check_single_region_invariant().unwrap();
    }

    #[test]
    fn commit_publishes_only_dirty_chunks() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        m.write(130, Payload::from(vec![5u8; 10])).unwrap(); // chunk 1
        m.write(900, Payload::from(vec![6u8; 10])).unwrap(); // chunk 7
        let stored_before = client.store().total_stored_bytes();
        let v2 = m.commit().unwrap();
        assert_eq!(v2, Version(2));
        // Exactly two chunks of new data in the repository.
        assert_eq!(client.store().total_stored_bytes() - stored_before, 2 * CS);
        // The new snapshot is a standalone image with the modifications.
        let fresh = client.read(blob, v2, 0..IMG).unwrap();
        let expect = image
            .overwrite(130, Payload::from(vec![5u8; 10]))
            .overwrite(900, Payload::from(vec![6u8; 10]));
        assert!(fresh.content_eq(&expect));
        // The base snapshot still reads pristine (shadowing).
        let old = client.read(blob, Version(1), 0..IMG).unwrap();
        assert!(old.content_eq(&image));
    }

    #[test]
    fn recommitted_identical_checkpoint_dedups() {
        // The Monte-Carlo checkpoint pattern: a VM rewrites the same
        // state bytes and snapshots again. With dedup on, the second
        // commit publishes by reference — no new provider storage.
        let fabric = LocalFabric::new(5);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: CS,
            dedup: true,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let (blob, _v) = client.upload(Payload::synth(42, 0, IMG)).unwrap();
        let mut m = mirror(&client, blob);

        // Distinct content per chunk so the first commit is all-unique.
        let state = Payload::synth(0xC4, 0, 2 * CS);
        m.write(256, state.clone()).unwrap();
        m.commit().unwrap();
        let stored = client.store().total_stored_bytes();
        assert_eq!(m.stats().deduped_bytes, 0, "first checkpoint is unique");

        // Same state written (and re-dirtied) again: commit-by-reference.
        m.write(256, state.clone()).unwrap();
        let v = m.commit().unwrap();
        assert_eq!(
            client.store().total_stored_bytes(),
            stored,
            "identical checkpoint re-commit must not grow storage"
        );
        assert_eq!(m.stats().deduped_bytes, 2 * CS);
        // The new snapshot still reads correctly.
        let got = client.read(blob, v, 256..256 + 2 * CS).unwrap();
        assert!(got.content_eq(&state));
    }

    #[test]
    fn commit_without_changes_is_noop() {
        let (client, blob, _image) = setup();
        let mut m = mirror(&client, blob);
        m.read(0..64).unwrap();
        assert_eq!(m.commit().unwrap(), Version(1));
    }

    #[test]
    fn consecutive_commits_form_totally_ordered_snapshots() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        let mut expect = image.clone();
        let mut versions = Vec::new();
        for i in 0..3u64 {
            let patch = Payload::synth(100 + i, 0, 20);
            m.write(i * 300, patch.clone()).unwrap();
            expect = expect.overwrite(i * 300, patch);
            versions.push((m.commit().unwrap(), expect.clone()));
        }
        assert_eq!(
            versions.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        for (v, want) in versions {
            let got = client.read(blob, v, 0..IMG).unwrap();
            assert!(got.content_eq(&want), "snapshot {v} content");
        }
    }

    #[test]
    fn clone_then_commit_leaves_origin_untouched() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        m.write(0, Payload::from(vec![9u8; 16])).unwrap();
        let cloned = m.clone_image().unwrap();
        assert_ne!(cloned, blob);
        let v = m.commit().unwrap();
        // The origin blob has only its original snapshot.
        assert_eq!(client.latest_version(blob).unwrap(), Version(1));
        let orig = client.read(blob, Version(1), 0..IMG).unwrap();
        assert!(orig.content_eq(&image));
        // The clone carries the modification.
        let got = client.read(cloned, v, 0..16).unwrap();
        assert!(got.content_eq(&Payload::from(vec![9u8; 16])));
    }

    #[test]
    fn partially_dirty_chunk_completed_before_commit() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        // Dirty 10 bytes of chunk 2; rest of the chunk never read.
        m.write(256 + 7, Payload::from(vec![3u8; 10])).unwrap();
        let v = m.commit().unwrap();
        // The published chunk holds base content around the write.
        let got = client.read(blob, v, 256..384).unwrap();
        let expect = image
            .slice(256, 384)
            .overwrite(7, Payload::from(vec![3u8; 10]));
        assert!(got.content_eq(&expect));
        // The completion fetch is accounted.
        assert!(m.stats().remote_bytes >= CS - 10);
    }

    #[test]
    fn close_reopen_restores_modifications() {
        let (client, blob, image) = setup();
        let mut m = mirror(&client, blob);
        m.write(500, Payload::from(vec![8u8; 25])).unwrap();
        m.read(0..128).unwrap();
        let (saved, store) = m.close();
        let mut m2 =
            MirroredImage::reopen(client.clone(), store, MirrorConfig::default(), &saved).unwrap();
        // Local content still served locally.
        let before = m2.stats().remote_fetches;
        let got = m2.read(0..128).unwrap();
        assert!(got.content_eq(&image.slice(0, 128)));
        assert_eq!(m2.stats().remote_fetches, before);
        // Dirty state survived: commit publishes the write.
        let v = m2.commit().unwrap();
        let got = client.read(blob, v, 500..525).unwrap();
        assert!(got.content_eq(&Payload::from(vec![8u8; 25])));
    }

    /// Reference reimplementation of the pre-vectorization fetch loop:
    /// one `Client::read` per planned run. Used to pin stats equivalence.
    fn per_run_fetch(m: &mut MirroredImage, plan: Vec<ByteRange>) -> MirrorStats {
        let mut stats = MirrorStats::default();
        for run in plan {
            let len = run.end - run.start;
            let data = m.client.read(m.blob, m.base, run.clone()).unwrap();
            stats.remote_bytes += len;
            stats.remote_fetches += 1;
            for gap in m.map.local_gaps_within(&run) {
                let rel = gap.start - run.start..gap.end - run.start;
                m.store.write(gap.start, &data.slice(rel.start, rel.end));
            }
            m.map.note_fetched(run);
        }
        stats
    }

    #[test]
    fn vectored_path_matches_per_run_content_and_stats() {
        // Two mirrors of the same image run the same operation sequence;
        // one fetches through the vectored pipeline (the production
        // fetch_and_merge), the other through the per-run reference loop.
        // Content and paper-accounting stats must agree exactly.
        let (client, blob, image) = setup();
        let mut vectored = mirror(&client, blob);
        let mut reference = mirror(&client, blob);

        let reads: Vec<ByteRange> = vec![10..50, 130..140, 600..1000, 0..IMG];
        let mut ref_stats = MirrorStats::default();
        for r in &reads {
            // Vectored: the real read path.
            let got_v = vectored.read(r.clone()).unwrap();
            // Reference: plan identically, fetch per run, serve locally.
            let plan = reference.map.plan_read(r, true);
            let s = per_run_fetch(&mut reference, plan);
            ref_stats.remote_bytes += s.remote_bytes;
            ref_stats.remote_fetches += s.remote_fetches;
            let got_r = reference.store.read(r);
            assert!(got_v.content_eq(&got_r), "content differs for {r:?}");
            assert!(got_v.content_eq(&image.slice(r.start, r.end)));
        }
        assert_eq!(vectored.stats().remote_bytes, ref_stats.remote_bytes);
        assert_eq!(vectored.stats().remote_fetches, ref_stats.remote_fetches);
    }

    #[test]
    fn read_multi_matches_sequential_reads_content_and_stats() {
        // Vectored mirror reads must be byte- and stats-identical to the
        // same ranges served one `read` at a time, including overlapping
        // ranges that share chunks and ranges already local from writes.
        let (client, blob, image) = setup();
        let mut vectored = mirror(&client, blob);
        let mut sequential = mirror(&client, blob);
        vectored
            .write(200, Payload::from(vec![0xABu8; 40]))
            .unwrap();
        sequential
            .write(200, Payload::from(vec![0xABu8; 40]))
            .unwrap();

        let plan: Vec<ByteRange> = vec![10..50, 0..256, 130..140, 600..1000, 590..610];
        let got_v = vectored.read_multi(&plan).unwrap();
        let got_s: Vec<Payload> = plan
            .iter()
            .map(|r| sequential.read(r.clone()).unwrap())
            .collect();
        for ((r, v), s) in plan.iter().zip(&got_v).zip(&got_s) {
            assert!(v.content_eq(s), "range {r:?} differs");
            if r.start >= 240 || r.end <= 200 {
                assert!(v.content_eq(&image.slice(r.start, r.end)));
            }
        }
        assert_eq!(
            vectored.stats().remote_bytes,
            sequential.stats().remote_bytes
        );
        assert_eq!(
            vectored.stats().remote_fetches,
            sequential.stats().remote_fetches
        );
        assert_eq!(vectored.stats().reads, sequential.stats().reads);
    }

    #[test]
    fn multi_run_read_plan_is_one_metadata_descent() {
        // Dirty alternating chunks so a full read plans many disjoint
        // runs, then check the whole plan costs at most tree-depth
        // metadata rounds (8 chunks -> span 8 -> depth 4).
        let (client, blob, _image) = setup();
        let mut m = mirror(&client, blob);
        for i in 0..4u64 {
            m.write(i * 2 * CS, Payload::from(vec![7u8; 4])).unwrap();
        }
        let rounds_before = m.client.meta_fetch_calls();
        m.read(0..IMG).unwrap(); // plans 4 disjoint non-local runs
        let rounds = m.client.meta_fetch_calls() - rounds_before;
        assert!(rounds <= 4, "plan of 4 runs took {rounds} metadata rounds");
    }

    #[test]
    fn idle_prefetch_serves_peer_pattern_without_new_transfers() {
        // VM 1 boots on node 0 and publishes its access pattern; VM 2 on
        // node 1 spends guest idle time prefetching the predicted window
        // — its demand reads then touch no provider at all, while the
        // transport-independent mirror stats stay exactly as on demand.
        let fabric = LocalFabric::new(5);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = bff_blobseer::BlobTopology::colocated(&nodes, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: CS,
            prefetch: true,
            // This test pins exact transfer counts of the raw
            // read-ahead overlap; the confidence filter's confirmation
            // publishes would shift them (it has its own tests).
            prefetch_min_publishers: 1,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
        let image = Payload::synth(77, 0, 4 * IMG); // 32 chunks of 128
        let c0 = Client::new(Arc::clone(&store), NodeId(0));
        let (blob, v) = c0.upload(image.clone()).unwrap();
        let open = |node: u32| {
            MirroredImage::open(
                Client::new(Arc::clone(&store), NodeId(node)),
                blob,
                v,
                Box::new(MemStore::new(4 * IMG)),
                MirrorConfig::default(),
            )
            .unwrap()
        };
        let mut m1 = open(0);
        m1.read(0..4 * IMG).unwrap(); // 32 chunk faults -> pattern published

        let mut m2 = open(1);
        let mut idles = 0;
        while m2.poke_prefetch() {
            idles += 1;
            assert!(idles < 100, "idle prefetch must terminate");
        }
        assert!(idles >= 2, "windowed prefetch takes several idle bursts");
        let transfers_before = fabric.stats().transfer_count();
        let got = m2.read(0..4 * IMG).unwrap();
        assert!(got.content_eq(&image));
        assert_eq!(
            fabric.stats().transfer_count(),
            transfers_before,
            "prefetched boot window must not re-fetch from providers"
        );
        // Paper-level accounting is transport-independent: the mirror
        // still records the full planned fetch volume.
        assert_eq!(m2.stats().remote_bytes, 4 * IMG);
        let stats = store.node_context(NodeId(1)).prefetch_stats();
        assert_eq!(stats.prefetched_chunks, 32);
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.wasted_chunks, 0);
        // With no further predicted work, idle consumes nothing.
        assert!(!m2.poke_prefetch());
    }

    #[test]
    fn boot_like_traffic_is_fraction_of_image() {
        // A VM that touches 25% of its image should fetch about 25%,
        // not the whole image (the Fig. 4d effect).
        let (client, blob, _image) = setup();
        client.store().fabric().stats().reset(); // drop upload traffic
        let mut m = mirror(&client, blob);
        m.read(0..IMG / 4).unwrap();
        assert_eq!(m.stats().remote_bytes, IMG / 4);
        // Nothing but the touched chunks moves, and exactly those: the
        // node knows the version it uploaded and its tree, so opening and
        // resolving it cost no control or metadata byte, and of the two
        // touched chunks the one the co-located provider holds never
        // crosses the network.
        let net = client.store().fabric().stats().total_network_bytes();
        assert_eq!(net, IMG / 4 - CS);
    }
}
