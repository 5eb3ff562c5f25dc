//! Deployments and probes the client's unit tests share, and the names
//! they use.

pub(super) use crate::api::{BlobConfig, BlobError, BlobTopology, ChunkDesc, ChunkId, Version};
pub(super) use crate::client::Client;
pub(super) use crate::context::{NodeContext, ReadAhead};
pub(super) use crate::service::BlobStore;
pub(super) use bff_data::Payload;
pub(super) use bff_net::{Fabric, LocalFabric, NetError, NodeId};
pub(super) use std::ops::Range;
pub(super) use std::sync::Arc;

/// `nodes` compute nodes, each a provider and a metadata shard, with
/// the managers on node `nodes`.
pub(super) fn deploy(nodes: u32, cfg: BlobConfig) -> (Arc<LocalFabric>, Arc<BlobStore>) {
    let fabric = LocalFabric::new(nodes as usize + 1);
    let compute: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(nodes));
    let store = BlobStore::new(cfg, topo, fabric.clone() as Arc<dyn Fabric>);
    (fabric, store)
}

pub(super) fn setup(nodes: u32) -> (Arc<LocalFabric>, Client) {
    setup_dedup(nodes, 1, BlobConfig::default().dedup)
}

/// Setup with an explicit dedup setting (tests must not depend on the
/// `BFF_DEDUP` environment default — CI flips it).
pub(super) fn setup_dedup(
    nodes: u32,
    replication: usize,
    dedup: bool,
) -> (Arc<LocalFabric>, Client) {
    let cfg = BlobConfig {
        chunk_size: 128,
        replication,
        dedup,
        ..Default::default()
    };
    let (fabric, store) = deploy(nodes, cfg);
    (fabric, Client::new(store, NodeId(0)))
}

/// Setup with explicit dedup *and* cluster-dedup settings plus two
/// clients on distinct nodes (tests must not depend on the
/// `BFF_DEDUP`/`BFF_CLUSTER_DEDUP` environment defaults — CI flips
/// them).
pub(super) fn setup_cluster(cluster: bool) -> (Arc<LocalFabric>, Client, Client) {
    let cfg = BlobConfig {
        chunk_size: 128,
        dedup: true,
        cluster_dedup: cluster,
        ..Default::default()
    };
    let (fabric, store) = deploy(4, cfg);
    let a = Client::new(Arc::clone(&store), NodeId(0));
    let b = Client::new(store, NodeId(1));
    (fabric, a, b)
}

/// Refcounts of chunk `id` across all providers holding it.
pub(super) fn refcounts(client: &Client, id: u64) -> Vec<u64> {
    client
        .store()
        .topology()
        .providers
        .iter()
        .filter_map(|&p| client.store().providers().refcount(p, ChunkId(id)))
        .collect()
}
