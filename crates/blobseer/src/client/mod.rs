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
//! # Layout: one file per protocol step family
//!
//! * this file — the [`Client`] handle and the control-plane calls
//!   (create, clone, latest, live snapshots, version facts);
//! * `read` — the vectored read: plan, descriptor resolution, one fetch
//!   step grouped by provider, per-chunk replica failover, assembly;
//! * `prefetch` — access hints, the board replica, read-ahead steps;
//! * `commit` — COMMIT: content plan, dedup probe, allocation, extra
//!   retains, shadowing, publish, rollback;
//! * `replicate` — the replication push (fan-out, sequential
//!   reference);
//! * `gc` — snapshot deletion and chunk garbage collection;
//! * `node_io` — segment-tree node reads and writes on the metadata
//!   shards;
//! * `step` — the one shape every per-destination step has.
//!
//! # The step shape
//!
//! An operation is a short sequence of steps, and every step that
//! addresses several destinations — a read's provider fetches, a
//! descent level's shard reads, a commit's node writes, its dedup
//! `Retain`s and extra retains, a rollback's or a collection's releases
//! — is one `step::Step`: build the batch grouped by destination (in
//! ascending order), decide per destination whether to ask it and pay
//! its fabric charge, send every request in one
//! [`BlobStore::call_many`](crate::service::BlobStore) (one wait for
//! the step), and settle each destination's validated reply — one
//! answer per item, or that destination failed. The replication push is
//! the one exception: its per-destination transfer → put → disk-write
//! order is what the simulated figures time.

use crate::api::{BlobConfig, BlobId, BlobResult, Version};
use crate::board;
use crate::context::NodeContext;
use crate::service::BlobStore;
use bff_data::Payload;
use bff_net::{NetError, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod commit;
mod gc;
mod node_io;
mod prefetch;
mod read;
mod replicate;
mod step;
#[cfg(test)]
mod testkit;

pub use gc::GcReport;

/// Cached per-(blob, version) metadata (the version manager's wire
/// answer, cached verbatim).
type VersionMeta = bff_wire::msg::VersionInfo;

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

    /// Convenience: create a blob and publish `data` as `Version(1)` — the
    /// "upload image to the repository" client operation from Fig. 1.
    pub fn upload(&self, data: Payload) -> BlobResult<(BlobId, Version)> {
        let blob = self.create_blob(data.len())?;
        let v = self.write(blob, Version(0), 0, data)?;
        Ok((blob, v))
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
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

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
}
