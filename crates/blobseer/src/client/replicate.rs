//! The replication push: a commit's fresh chunks reach their replicas
//! as one [`Step`] of `Put`s, whose destinations [`ReplicationMode`]
//! picks — one per provider (fan-out: each provider gets its chunks in
//! one `Put`) or one per chunk and replica (the sequential reference).
//!
//! Both modes have *per-replica failover*: a replica that cannot take its
//! batch (down node, mid-transfer failure) is dropped from the published
//! chunk descriptor rather than failing the write; the write only errors
//! if a chunk retains no replica at all.
//!
//! The push runs as [`Step::run_joined`]. Without a transport hop each
//! destination's `Put` is one task: its transfer, store and disk write
//! run in that order, overlapping the other destinations' — what the
//! simulated figures time. Behind a hop every `Put` of the commit shares
//! one frame.

use super::step::{self, Step};
use super::Client;
use crate::api::{BlobError, BlobResult, ChunkDesc, ReplicationMode};
use bff_data::Payload;
use bff_net::NodeId;
use bff_wire::msg::{ProviderReq, Req};
use parking_lot::Mutex;
use std::sync::Arc;

impl Client {
    /// Push `payloads` to the replicas of `descs` (one descriptor per
    /// payload) and reduce each descriptor to the replicas that
    /// acknowledged, in allocation order, so both modes publish
    /// identical replica sets when nothing fails. Errors only if a chunk
    /// retains no replica. Each replica's `Put` clones exactly one
    /// payload rope (the copy that provider stores).
    ///
    /// Behind a transport hop the whole push is one frame, so
    /// `bff_net::transport::MAX_FRAME` (256 MiB) bounds all of a
    /// commit's fresh bytes times their replicas, not one provider's
    /// share of them.
    pub(super) fn push_chunks(
        &self,
        payloads: Vec<&Payload>,
        descs: Vec<ChunkDesc>,
    ) -> BlobResult<Vec<ChunkDesc>> {
        let mode = self.cfg().replication_mode;
        let mut push = Step::new();
        for (slot, desc) in descs.iter().enumerate() {
            for &prov in desc.replicas.iter() {
                let group = match mode {
                    ReplicationMode::Fanout => 0,
                    ReplicationMode::Sequential => slot,
                };
                push.add((group, prov), slot);
            }
        }
        // Per chunk: the replicas that acknowledged it, and the last
        // failure seen.
        let none: (Vec<NodeId>, Option<BlobError>) = (Vec::new(), None);
        let outcome = Arc::new(Mutex::new(vec![none; descs.len()]));
        let sink = Arc::clone(&outcome);
        push.run_joined(
            self,
            |(_, prov), slots| {
                let chunks = slots.iter().map(|&s| (descs[s].id, payloads[s].clone()));
                self.store.is_provider(prov).then(|| Req::Provider {
                    node: prov,
                    req: ProviderReq::Put(chunks.collect()),
                })
            },
            step::stored,
            move |(_, prov), slots, reply| {
                let mut outcome = sink.lock();
                for slot in slots {
                    match &reply {
                        Some(Ok(_)) => outcome[slot].0.push(prov),
                        Some(Err(e)) => outcome[slot].1 = Some(e.clone()),
                        None => {}
                    }
                }
            },
        );
        let outcome = outcome.lock();
        descs
            .into_iter()
            .zip(outcome.iter())
            .map(|(desc, (acked, error))| {
                let survivors: Vec<NodeId> = desc
                    .replicas
                    .iter()
                    .copied()
                    .filter(|p| acked.contains(p))
                    .collect();
                if survivors.is_empty() {
                    return Err(error
                        .clone()
                        .unwrap_or(BlobError::ChunkUnavailable(desc.id)));
                }
                Ok(ChunkDesc {
                    id: desc.id,
                    replicas: survivors.into(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{ReplicationMode, TransportMode};
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
        mode: ReplicationMode,
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
        use ReplicationMode::*;
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
        use ReplicationMode::*;
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
        // pipeline must drop that replica and publish the survivors. The
        // fabric refuses the dead replica's transfer, so its `Put` is
        // not sent — behind a hop it never joins the push's frame.
        for transport in TransportMode::ALL {
            for mode in [ReplicationMode::Sequential, ReplicationMode::Fanout] {
                let inner = LocalFabric::new(4);
                let fabric: Arc<dyn Fabric> = Arc::new(StaleViewFabric {
                    inner: Arc::clone(&inner),
                });
                let cfg = BlobConfig {
                    chunk_size: 128,
                    replication: 3,
                    replication_mode: mode,
                    transport,
                    ..Default::default()
                };
                let store = BlobStore::new(cfg, topo_service_meta(3, 3), fabric);
                let client = Client::new(store, NodeId(3));
                inner.fail_node(NodeId(1));
                let data = Payload::synth(61, 0, 512);
                let (blob, v) = client.upload(data.clone()).unwrap();
                // The dead replica stored nothing; the others hold everything.
                let loads = client.store().provider_loads();
                let case = format!("{mode:?} under {transport:?}");
                assert_eq!(loads[1], 0, "{case}: dead replica must hold nothing");
                assert_eq!(loads[0], 512, "{case}");
                assert_eq!(loads[2], 512, "{case}");
                // Reads succeed off the surviving replicas.
                let got = client.read(blob, v, 0..512).unwrap();
                assert!(got.content_eq(&data), "{case}");
            }
        }
    }

    #[test]
    fn write_fails_only_when_no_replica_survives() {
        for transport in TransportMode::ALL {
            let inner = LocalFabric::new(3);
            let fabric: Arc<dyn Fabric> = Arc::new(StaleViewFabric {
                inner: Arc::clone(&inner),
            });
            let cfg = BlobConfig {
                chunk_size: 128,
                replication: 2,
                transport,
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
            assert!(
                matches!(err, BlobError::Net(NetError::NodeDown(_))),
                "under {transport:?}: {err:?}"
            );
            assert_eq!(
                client.store().provider_loads(),
                [0, 0],
                "under {transport:?}"
            );
        }
    }
}
