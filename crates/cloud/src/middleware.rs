//! The cloud middleware control API (Fig. 1): upload/download images,
//! deploy a set of VM instances, add/remove instances, and snapshot
//! individual instances or the whole set via broadcast CLONE + COMMIT
//! (§3.2).
//!
//! This is the integration layer the paper sketches for Nimbus: the
//! "central service" is [`Cloud`]; each [`VmHandle`] plays the control
//! agent that issues ioctl calls to its node's mirroring module.

use crate::backend::{BackendError, ImageBackend, MirrorBackend};
use crate::params::Calibration;
use bff_blobseer::{BlobConfig, BlobId, BlobStore, BlobTopology, Client as BlobClient, Version};
use bff_data::Payload;
use bff_net::{Fabric, NodeId};
use std::sync::Arc;

/// A deployed VM instance under middleware control.
pub struct VmHandle {
    /// Compute node hosting the instance.
    pub node: NodeId,
    /// The instance's image backend (the mirroring module).
    pub backend: MirrorBackend,
}

impl VmHandle {
    /// Snapshot this single instance (fine-grained control, §3.2).
    pub fn snapshot(&mut self) -> Result<(BlobId, Version), BackendError> {
        self.backend.snapshot()?;
        Ok((self.backend.blob(), self.backend.version()))
    }
}

/// The middleware: owns the repository deployment and coordinates
/// compute nodes.
pub struct Cloud {
    store: Arc<BlobStore>,
    fabric: Arc<dyn Fabric>,
    compute: Vec<NodeId>,
    service: NodeId,
    cal: Calibration,
}

impl Cloud {
    /// Deploy the versioning repository over `compute` nodes (aggregating
    /// their local disks, §3.1.1), with managers on `service`.
    pub fn new(
        fabric: Arc<dyn Fabric>,
        compute: Vec<NodeId>,
        service: NodeId,
        blob_cfg: BlobConfig,
        cal: Calibration,
    ) -> Self {
        let topo = BlobTopology::colocated(&compute, service);
        let store = BlobStore::new(blob_cfg, topo, Arc::clone(&fabric));
        Self {
            store,
            fabric,
            compute,
            service,
            cal,
        }
    }

    /// Wrap an existing repository handle instead of deploying one —
    /// e.g. a [`BlobStore::remote`] attached over sockets to
    /// `blob_server` processes hosting the server roles. On a remote
    /// handle the server half of [`Cloud::metrics`] (storage and
    /// durability) is `None`.
    pub fn with_store(
        store: Arc<BlobStore>,
        fabric: Arc<dyn Fabric>,
        compute: Vec<NodeId>,
        service: NodeId,
        cal: Calibration,
    ) -> Self {
        Self {
            store,
            fabric,
            compute,
            service,
            cal,
        }
    }

    /// The repository.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// The fabric in use.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// The compute node set.
    pub fn compute_nodes(&self) -> &[NodeId] {
        &self.compute
    }

    /// Repository client for a node. Clients created for the same node
    /// attach to that node's shared [`bff_blobseer::NodeContext`] — the
    /// paper's per-node FUSE module — which holds every cache: the
    /// handle itself is stateless, so a client per operation costs
    /// nothing a long-lived one would have saved.
    pub fn client(&self, node: NodeId) -> BlobClient {
        BlobClient::new(Arc::clone(&self.store), node)
    }

    /// The shared cache module of one compute node.
    pub fn node_context(&self, node: NodeId) -> Arc<bff_blobseer::NodeContext> {
        self.store.node_context(node)
    }

    /// One coherent snapshot of every cluster-level counter: cache/dedup
    /// totals, prefetch effectiveness, the transport's real bytes-on-wire
    /// and, when the server state is in this process, storage and
    /// durability. Works on every deployment; diffable before/after a
    /// workload.
    pub fn metrics(&self) -> ClusterMetrics {
        let mut cache = bff_blobseer::CacheStats::default();
        let mut prefetch = bff_blobseer::PrefetchStats::default();
        for &node in self.compute.iter().chain([&self.service]) {
            let ctx = self.store.node_context(node);
            let s = ctx.stats();
            cache.desc_hits += s.desc_hits;
            cache.desc_misses += s.desc_misses;
            cache.dedup_hits += s.dedup_hits;
            cache.dedup_reused_bytes += s.dedup_reused_bytes;
            cache.node_hits += s.node_hits;
            cache.node_misses += s.node_misses;
            let p = ctx.prefetch_stats();
            prefetch.prefetched_chunks += p.prefetched_chunks;
            prefetch.prefetched_bytes += p.prefetched_bytes;
            prefetch.hits += p.hits;
            prefetch.hit_bytes += p.hit_bytes;
            prefetch.wasted_chunks += p.wasted_chunks;
            prefetch.cache_hits += p.cache_hits;
            prefetch.cached_chunks += p.cached_chunks;
            prefetch.cached_bytes += p.cached_bytes;
            prefetch.board_publishes += p.board_publishes;
            prefetch.board_polls += p.board_polls;
            prefetch.demand_fetch_steps += p.demand_fetch_steps;
        }
        let server = self.store.server();
        ClusterMetrics {
            cache,
            prefetch,
            stored_bytes: server.map(|s| s.providers().total_stored_bytes()),
            wire: self.store.wire_stats(),
            durability: server.map(|s| s.durability()),
        }
    }

    /// Client-side image upload (Fig. 1 "put image"); the image is
    /// automatically striped.
    pub fn upload_image(&self, data: Payload) -> Result<(BlobId, Version), BackendError> {
        Ok(self.client(self.service).upload(data)?)
    }

    /// Client-side image download (Fig. 1 "get image"): any snapshot is a
    /// standalone raw image.
    pub fn download_image(&self, blob: BlobId, version: Version) -> Result<Payload, BackendError> {
        let client = self.client(self.service);
        let size = client.snapshot_size(blob, version)?;
        Ok(client.read(blob, version, 0..size)?)
    }

    /// Deploy one instance of `(blob, version)` on each of `nodes`
    /// (multideployment, lazily: no data moves until the VMs touch it).
    pub fn deploy(
        &self,
        blob: BlobId,
        version: Version,
        nodes: &[NodeId],
    ) -> Result<Vec<VmHandle>, BackendError> {
        nodes
            .iter()
            .map(|&node| {
                let backend = MirrorBackend::open(self.client(node), blob, version, &self.cal)?;
                Ok(VmHandle { node, backend })
            })
            .collect()
    }

    /// Add one instance to a running deployment (§3.2: "dynamically
    /// adding or removing compute nodes from that set").
    pub fn add_instance(
        &self,
        blob: BlobId,
        version: Version,
        node: NodeId,
    ) -> Result<VmHandle, BackendError> {
        let backend = MirrorBackend::open(self.client(node), blob, version, &self.cal)?;
        Ok(VmHandle { node, backend })
    }

    /// Global snapshot of the whole application: broadcast CLONE (first
    /// time) then COMMIT to every mirroring module (§3.2). Returns each
    /// instance's standalone snapshot identity.
    pub fn snapshot_all(
        &self,
        vms: &mut [VmHandle],
    ) -> Result<Vec<(BlobId, Version)>, BackendError> {
        vms.iter_mut().map(|vm| vm.snapshot()).collect()
    }

    /// Terminate an instance and drop its divergent snapshots (§3.2's
    /// "removing compute nodes from that set", completed by garbage
    /// collection): a VM that snapshotted at least once owns a private
    /// clone lineage nobody else can deploy from once the instance is
    /// gone, so every version of that clone is deleted and the chunk
    /// storage only those snapshots referenced is reclaimed
    /// ([`bff_blobseer::Client::delete_snapshots`]). Content shared
    /// with the base image — or deduplicated into other lineages —
    /// survives untouched; the refcounts guarantee it. A never-
    /// snapshotted instance just drops its local mirror state.
    ///
    /// To keep some of the instance's snapshots (e.g. a final archived
    /// checkpoint), delete the others explicitly with
    /// [`Cloud::delete_snapshot`] and drop the handle instead.
    pub fn terminate_instance(&self, vm: VmHandle) -> Result<bff_blobseer::GcReport, BackendError> {
        let VmHandle { node, backend } = vm;
        if !backend.diverged() {
            return Ok(bff_blobseer::GcReport::default());
        }
        let blob = backend.blob();
        let client = self.client(node);
        // Only the still-live versions: snapshots pruned earlier (e.g.
        // via `Cloud::delete_snapshot`) must not fail the terminate —
        // the batch delete is all-or-nothing.
        let versions = client.live_snapshots(blob)?;
        drop(backend); // the instance is gone; only the snapshots remain
        if versions.is_empty() {
            return Ok(bff_blobseer::GcReport::default());
        }
        Ok(client.delete_snapshots(blob, &versions)?)
    }

    /// Delete one published snapshot and reclaim the storage unique to
    /// it (see [`bff_blobseer::Client::delete_snapshot`]).
    pub fn delete_snapshot(
        &self,
        blob: BlobId,
        version: Version,
    ) -> Result<bff_blobseer::GcReport, BackendError> {
        Ok(self.client(self.service).delete_snapshot(blob, version)?)
    }

    /// Resume snapshots on a fresh set of nodes (off-line migration: the
    /// new nodes may run any hypervisor — snapshots are raw images).
    pub fn resume(
        &self,
        snapshots: &[(BlobId, Version)],
        nodes: &[NodeId],
    ) -> Result<Vec<VmHandle>, BackendError> {
        assert_eq!(snapshots.len(), nodes.len(), "one node per snapshot");
        snapshots
            .iter()
            .zip(nodes)
            .map(|(&(blob, version), &node)| self.add_instance(blob, version, node))
            .collect()
    }

    /// Storage accounting: bytes in the repository, and what the same
    /// snapshots would cost as full standalone images (the §3.1.4
    /// duplication argument).
    pub fn storage_report(&self, snapshots: &[(BlobId, Version)]) -> StorageReport {
        let stored = self.store.total_stored_bytes();
        let client = self.client(self.service);
        let naive: u64 = snapshots
            .iter()
            .filter_map(|&(blob, version)| client.snapshot_size(blob, version).ok())
            .sum();
        StorageReport {
            stored_bytes: stored,
            naive_full_copy_bytes: naive,
        }
    }
}

/// One coherent snapshot of the cluster's counters — see
/// [`Cloud::metrics`].
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Metadata-cache and dedup counters, summed over every node
    /// context (compute nodes plus the service node).
    pub cache: bff_blobseer::CacheStats,
    /// Prefetch effectiveness, summed over every node context.
    pub prefetch: bff_blobseer::PrefetchStats,
    /// Bytes stored across all providers (shared content counted once);
    /// `None` when the server state lives in other processes.
    pub stored_bytes: Option<u64>,
    /// Serialized request/response bytes the transport moved (all zero
    /// under `TransportMode::Direct` — no frame ever exists).
    pub wire: bff_net::transport::WireStats,
    /// Durability counters: fsyncs issued, acks covered by them, the
    /// acks-per-fsync batching ratio and the worst group-commit ticket
    /// wait. All zero for non-durable (in-memory) deployments; `None`
    /// when the server state lives in other processes.
    pub durability: Option<bff_blobseer::DurabilityCounters>,
}

/// Output of [`Cloud::storage_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Bytes actually stored (shared content counted once).
    pub stored_bytes: u64,
    /// Bytes that one full image per snapshot would have cost.
    pub naive_full_copy_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::vm_write_payload;
    use bff_net::LocalFabric;

    const IMG: u64 = 1 << 20;

    fn cloud() -> Cloud {
        let fabric = LocalFabric::new(9);
        let compute: Vec<NodeId> = (0..8).map(NodeId).collect();
        let cfg = BlobConfig {
            chunk_size: 64 << 10,
            ..Default::default()
        };
        Cloud::new(fabric, compute, NodeId(8), cfg, Calibration::default())
    }

    #[test]
    fn upload_deploy_snapshot_download_cycle() {
        let cloud = cloud();
        let image = Payload::synth(5, 0, IMG);
        let (blob, v) = cloud.upload_image(image.clone()).unwrap();
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut vms = cloud.deploy(blob, v, &nodes).unwrap();
        // Each VM writes its own data.
        for (i, vm) in vms.iter_mut().enumerate() {
            vm.backend
                .write(1000 * (i as u64 + 1), vm_write_payload(i as u64, 1000, 64))
                .unwrap();
        }
        let snaps = cloud.snapshot_all(&mut vms).unwrap();
        assert_eq!(snaps.len(), 4);
        // Snapshots are distinct first-class blobs.
        let blobs: std::collections::HashSet<BlobId> = snaps.iter().map(|(b, _)| *b).collect();
        assert_eq!(blobs.len(), 4);
        assert!(blobs.iter().all(|b| *b != blob));
        // Each snapshot downloads as a standalone image with that VM's
        // modification and nobody else's.
        for (i, (b, ver)) in snaps.iter().enumerate() {
            let full = cloud.download_image(*b, *ver).unwrap();
            let expect = image
                .clone()
                .overwrite(1000 * (i as u64 + 1), vm_write_payload(i as u64, 1000, 64));
            assert!(full.content_eq(&expect), "snapshot {i}");
        }
    }

    #[test]
    fn second_global_snapshot_reuses_clones() {
        let cloud = cloud();
        let (blob, v) = cloud.upload_image(Payload::synth(6, 0, IMG)).unwrap();
        let mut vms = cloud.deploy(blob, v, &[NodeId(0), NodeId(1)]).unwrap();
        for vm in vms.iter_mut() {
            vm.backend.write(0, Payload::from(vec![1u8; 16])).unwrap();
        }
        let first = cloud.snapshot_all(&mut vms).unwrap();
        for vm in vms.iter_mut() {
            vm.backend.write(32, Payload::from(vec![2u8; 16])).unwrap();
        }
        let second = cloud.snapshot_all(&mut vms).unwrap();
        for ((b1, v1), (b2, v2)) in first.iter().zip(&second) {
            assert_eq!(b1, b2, "subsequent snapshots reuse the clone");
            assert!(v2 > v1, "versions are totally ordered");
        }
    }

    #[test]
    fn storage_report_shows_sharing() {
        let cloud = cloud();
        let (blob, v) = cloud.upload_image(Payload::synth(7, 0, IMG)).unwrap();
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let mut vms = cloud.deploy(blob, v, &nodes).unwrap();
        for vm in vms.iter_mut() {
            vm.backend.write(0, Payload::from(vec![3u8; 100])).unwrap();
        }
        let snaps = cloud.snapshot_all(&mut vms).unwrap();
        let report = cloud.storage_report(&snaps);
        // 8 snapshots of a 1 MB image stored as 1 MB + 8 dirty chunks.
        assert_eq!(report.naive_full_copy_bytes, 8 * IMG);
        assert!(
            report.stored_bytes <= IMG + 8 * (64 << 10),
            "stored {} should be near one image",
            report.stored_bytes
        );
        // The >90% reduction the paper reports.
        assert!(report.stored_bytes * 5 < report.naive_full_copy_bytes);
    }

    #[test]
    fn co_located_vms_share_node_cache() {
        let cloud = cloud();
        let (blob, v) = cloud.upload_image(Payload::synth(9, 0, IMG)).unwrap();
        // Two instances on ONE node — the co-location case the paper's
        // shared FUSE process serves.
        let mut vm1 = cloud.add_instance(blob, v, NodeId(0)).unwrap();
        let mut vm2 = cloud.add_instance(blob, v, NodeId(0)).unwrap();
        vm1.backend.read(0..IMG).unwrap();
        let ctx = cloud.node_context(NodeId(0));
        let misses_after_first = ctx.stats().desc_misses;
        vm2.backend.read(0..IMG).unwrap();
        let s = ctx.stats();
        assert_eq!(
            s.desc_misses, misses_after_first,
            "the second co-located VM must ride the first one's resolved \
             descriptors"
        );
        assert!(s.desc_hits > 0, "shared cache recorded no hits");
        // An instance on another node resolves independently.
        let mut vm3 = cloud.add_instance(blob, v, NodeId(1)).unwrap();
        vm3.backend.read(0..4096).unwrap();
        assert!(cloud.node_context(NodeId(1)).stats().desc_misses > 0);
    }

    #[test]
    fn terminate_reclaims_divergent_snapshots_only() {
        let cloud = cloud();
        let image = Payload::synth(11, 0, IMG);
        let (blob, v) = cloud.upload_image(image.clone()).unwrap();
        let base_stored = cloud.store().total_stored_bytes();
        // Two instances; both snapshot twice with private dirty data.
        let mut vms = cloud.deploy(blob, v, &[NodeId(0), NodeId(1)]).unwrap();
        for (i, vm) in vms.iter_mut().enumerate() {
            for round in 0..2u64 {
                vm.backend
                    .write(
                        round * (64 << 10),
                        vm_write_payload(7 * (i as u64 + 1) + round, 0, 64 << 10),
                    )
                    .unwrap();
                vm.snapshot().unwrap();
            }
        }
        let survivor_snap = {
            let vm = &vms[1];
            (vm.backend.blob(), vm.backend.version())
        };
        let stored_all = cloud.store().total_stored_bytes();
        assert!(stored_all > base_stored);
        // Terminating VM 0 reclaims exactly its divergent bytes; the
        // base image and VM 1's snapshots are untouched. One of its
        // checkpoints was already pruned — terminate must skip it, not
        // fail the whole (all-or-nothing) batch.
        let vm0 = vms.remove(0);
        cloud
            .delete_snapshot(vm0.backend.blob(), Version(2))
            .unwrap();
        let report = cloud.terminate_instance(vm0).unwrap();
        // Two of the three versions (CLONE alias + two commits) were
        // still live.
        assert_eq!(report.deleted_versions, 2);
        assert!(report.freed_bytes > 0, "divergent chunks reclaimed");
        let stored_after = cloud.store().total_stored_bytes();
        assert!(stored_after < stored_all);
        assert!(stored_after >= base_stored);
        let got = cloud
            .download_image(survivor_snap.0, survivor_snap.1)
            .unwrap();
        let expect = image
            .clone()
            .overwrite(0, vm_write_payload(14, 0, 64 << 10))
            .overwrite(64 << 10, vm_write_payload(15, 0, 64 << 10));
        assert!(got.content_eq(&expect), "survivor snapshot byte-identical");
        assert!(cloud.download_image(blob, v).unwrap().content_eq(&image));
        // A never-snapshotted instance terminates without touching the
        // repository.
        let fresh = cloud.add_instance(blob, v, NodeId(2)).unwrap();
        let stored = cloud.store().total_stored_bytes();
        let report = cloud.terminate_instance(fresh).unwrap();
        assert_eq!(report, bff_blobseer::GcReport::default());
        assert_eq!(cloud.store().total_stored_bytes(), stored);
    }

    #[test]
    fn resume_on_fresh_nodes_reads_snapshot_content() {
        let cloud = cloud();
        let (blob, v) = cloud.upload_image(Payload::synth(8, 0, IMG)).unwrap();
        let mut vms = cloud.deploy(blob, v, &[NodeId(0)]).unwrap();
        vms[0]
            .backend
            .write(500, Payload::from(vec![9u8; 32]))
            .unwrap();
        let snaps = cloud.snapshot_all(&mut vms).unwrap();
        drop(vms);
        let mut resumed = cloud.resume(&snaps, &[NodeId(5)]).unwrap();
        let got = resumed[0].backend.read(500..532).unwrap();
        assert!(got.content_eq(&Payload::from(vec![9u8; 32])));
    }
}
