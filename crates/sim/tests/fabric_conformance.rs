//! Cross-fabric conformance: both [`Fabric`] implementations — the
//! cost-free [`LocalFabric`] and the virtual-time `SimFabric` — must
//! account the *same* op sequence identically in [`TrafficStats`]. The
//! two fabrics may disagree on when an operation completes, never on
//! what moved. This is the invariant that lets the sweeps compare
//! logical traffic across execution modes.

use bff_net::{Fabric, LocalFabric, NodeId, NodeTraffic, Transfer};
use bff_sim::{ClusterParams, SimCluster};
use std::sync::Arc;

const NODES: usize = 4;

/// One fixed op sequence exercising every accounting-relevant fabric
/// verb, including self-transfers (free), fan-in bulk transfers,
/// write-back disk writes, and work launched through `par_join` /
/// `spawn_detached`.
fn drive(fabric: &Arc<dyn Fabric>) {
    fabric.transfer(NodeId(0), NodeId(1), 100_000).unwrap();
    fabric.transfer(NodeId(2), NodeId(2), 5_000).unwrap(); // self: free
    fabric
        .transfer_all(&[
            Transfer {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 50_000,
            },
            Transfer {
                src: NodeId(1),
                dst: NodeId(2),
                bytes: 30_000,
            },
            Transfer {
                src: NodeId(3),
                dst: NodeId(0),
                bytes: 10_000,
            },
        ])
        .unwrap();
    fabric.rpc(NodeId(1), NodeId(3), 200, 400).unwrap();
    fabric.rpc(NodeId(2), NodeId(2), 100, 100).unwrap(); // self: free
    fabric.disk_read(NodeId(0), 64 << 10).unwrap();
    fabric.disk_write(NodeId(1), 32 << 10).unwrap();
    fabric.disk_write_cached(NodeId(2), 128 << 10).unwrap();
    fabric.disk_sync(NodeId(2)).unwrap();
    fabric.compute(NodeId(3), 50);
    let (a, b) = (Arc::clone(fabric), Arc::clone(fabric));
    fabric.par_join(vec![
        Box::new(move || a.transfer(NodeId(1), NodeId(0), 7_000).unwrap()),
        Box::new(move || b.rpc(NodeId(0), NodeId(2), 64, 128).unwrap()),
    ]);
    let c = Arc::clone(fabric);
    fabric.spawn_detached(Box::new(move || {
        c.transfer(NodeId(2), NodeId(3), 9_000).unwrap();
    }));
}

/// Everything [`TrafficStats`] records, in comparable form.
fn snapshot(fabric: &Arc<dyn Fabric>) -> (u64, u64, u64, Vec<NodeTraffic>) {
    let s = fabric.stats();
    (
        s.total_network_bytes(),
        s.transfer_count(),
        s.rpc_count(),
        (0..NODES as u32).map(|n| s.node(NodeId(n))).collect(),
    )
}

#[test]
fn all_fabrics_account_the_same_sequence_identically() {
    // Cost-free in-process fabric.
    let local: Arc<dyn Fabric> = LocalFabric::new(NODES);
    drive(&local);
    let local_snap = snapshot(&local);
    assert!(
        local_snap.0 > 0 && local_snap.1 > 0 && local_snap.2 > 0,
        "the sequence must exercise transfers and rpcs: {local_snap:?}"
    );

    // Virtual-time simulator: the same sequence as a simulated process,
    // driven to completion (detached work included) by the engine.
    let cluster = SimCluster::new(ClusterParams::grid5000(NODES));
    let sim_fabric: Arc<dyn Fabric> = cluster.fabric();
    let driver = Arc::clone(&sim_fabric);
    cluster.sim().spawn("driver", move |_env| drive(&driver));
    let end_us = cluster.run();
    assert!(end_us > 0, "the modelled costs must consume virtual time");
    let sim_snap = snapshot(&sim_fabric);

    assert_eq!(
        local_snap, sim_snap,
        "SimFabric accounting diverged from LocalFabric"
    );
}
