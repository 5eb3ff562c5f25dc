//! The replication push: the update set of a commit reaches its
//! replicas according to [`ReplicationMode`] — fan-out (one batched
//! push per destination provider) or the sequential reference (one push
//! per chunk and replica).
//!
//! Both modes have *per-replica failover*: a replica that cannot take its
//! batch (down node, mid-transfer failure) is dropped from the published
//! chunk descriptor rather than failing the write; the write only errors
//! if a chunk retains no replica at all. The push is deliberately not a
//! `Step`: its transfer → put → disk-write order per destination is what
//! the simulated figures time.

use super::Client;
use crate::api::{BlobError, BlobResult, ChunkDesc, ReplicationMode};
use crate::service::BlobStore;
use bff_data::Payload;
use bff_net::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

impl Client {
    /// Push the update set through the configured replication pipeline
    /// and reduce each descriptor to the replicas that acknowledged
    /// (in allocation order, so all modes publish identical replica
    /// sets when nothing fails). Errors only if a chunk retains no
    /// replica.
    ///
    /// The update set and descriptors are shared with the push tasks by
    /// refcount; each replica push clones exactly one payload rope (the
    /// copy that provider stores).
    pub(super) fn push_chunks(
        &self,
        updates: Vec<(u64, Payload)>,
        descs: Vec<ChunkDesc>,
    ) -> BlobResult<Vec<ChunkDesc>> {
        use ReplicationMode::*;
        let mode = self.cfg().replication_mode;
        // What one task pushes, in a deterministic task order: each
        // destination provider's slots (fan-out), each chunk on its own
        // (sequential).
        let groups: Vec<(Arc<[NodeId]>, Vec<usize>)> = match mode {
            Fanout => {
                let mut by_prov: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
                for (slot, desc) in descs.iter().enumerate() {
                    for &prov in desc.replicas.iter() {
                        by_prov.entry(prov).or_default().push(slot);
                    }
                }
                by_prov
                    .into_iter()
                    .map(|(prov, slots)| (Arc::from([prov]), slots))
                    .collect()
            }
            Sequential => descs
                .iter()
                .enumerate()
                .map(|(slot, desc)| (Arc::clone(&desc.replicas), vec![slot]))
                .collect(),
        };
        let push = Arc::new(Push {
            store: Arc::clone(&self.store),
            async_writes: self.cfg().async_writes,
            outcome: Mutex::new(PushOutcome::new(descs.len())),
            updates,
            descs,
        });
        let me = self.node;
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = groups
            .into_iter()
            .map(|(route, slots)| {
                let push = Arc::clone(&push);
                Box::new(move || push.each(me, &route, &slots))
                    as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        self.store.fabric.par_join(tasks);
        let outcome = push.outcome.lock();
        let mut out = Vec::with_capacity(push.descs.len());
        for (slot, desc) in push.descs.iter().enumerate() {
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
}

/// One commit's push: what every push task shares.
struct Push {
    store: Arc<BlobStore>,
    updates: Vec<(u64, Payload)>,
    descs: Vec<ChunkDesc>,
    async_writes: bool,
    outcome: Mutex<PushOutcome>,
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

impl Push {
    /// Push the chunks at `slots` from `src` to provider `prov`: one
    /// transfer + one (write-back) disk write for the whole group, chunks
    /// stored under a single shard acquisition — the per-message savings
    /// mirroring the batched read path. The payload rope is cloned once
    /// per stored replica (the copy the provider keeps).
    fn to(&self, src: NodeId, prov: NodeId, slots: &[usize]) -> BlobResult<()> {
        let store = &self.store;
        if !store.is_provider(prov) {
            return Err(BlobError::ChunkUnavailable(self.descs[slots[0]].id));
        }
        let total: u64 = slots.iter().map(|&s| self.updates[s].1.len()).sum();
        store.fabric.transfer(src, prov, total)?;
        let items = slots
            .iter()
            .map(|&s| (self.descs[s].id, self.updates[s].1.clone()));
        store.provider_put(prov, items.collect())?;
        if self.async_writes {
            store.fabric.disk_write_cached(prov, total)?;
        } else {
            store.fabric.disk_write(prov, total)?;
        }
        Ok(())
    }

    /// Record a push outcome at `prov` for every chunk it carried.
    fn record(&self, prov: NodeId, slots: &[usize], res: BlobResult<()>) {
        let mut o = self.outcome.lock();
        for &slot in slots {
            match &res {
                Ok(()) => o.acked[slot].push(prov),
                Err(e) => o.errors[slot] = Some(e.clone()),
            }
        }
    }

    /// Fan-out and the sequential reference: the slots go from the
    /// client to every provider of `route` in turn, one batched transfer
    /// + disk write each.
    fn each(&self, me: NodeId, route: &[NodeId], slots: &[usize]) {
        for &prov in route {
            self.record(prov, slots, self.to(me, prov, slots));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

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
        let cfg = BlobConfig {
            chunk_size: 128,
            replication,
            replication_mode: mode,
            // These tests count data-plane transfers and messages; the
            // cluster index's publish gossip would shift the counts.
            cluster_dedup: false,
            ..Default::default()
        };
        let (fabric, store) = deploy(nodes, cfg);
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
        // Fan-out must produce byte-identical blob contents and identical
        // replica sets vs the sequential-push reference.
        use crate::api::ReplicationMode::*;
        let image = Payload::synth(70, 0, 2048); // 16 chunks of 128
        let patch: Vec<(u64, Payload)> = vec![
            (0, Payload::synth(71, 0, 128)),
            (5, Payload::synth(72, 0, 128)),
            (15, Payload::synth(73, 0, 128)),
        ];
        let mut results = Vec::new();
        for mode in [Sequential, Fanout] {
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
        // Sequential: one transfer per (chunk, replica) = 32. Fan-out:
        // one per provider group — bounded by the 4 providers, not by
        // the chunk count.
        assert_eq!(sequential, 32);
        assert!(fanout <= 4, "fanout used {fanout} transfers");
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
}
