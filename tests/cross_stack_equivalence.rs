//! Cross-stack equivalence: the same VM workload produces byte-identical
//! images regardless of which storage stack executes it and regardless of
//! execution mode (in-process vs simulated testbed). This is the property
//! that justifies using the simulator for the paper's figures: it changes
//! timing, never behaviour.

use bff::cloud::backend::{ImageBackend, MirrorBackend, QcowPvfsBackend, RawLocalBackend};
use bff::cloud::params::Calibration;
use bff::cloud::vm::{expected_image, run_vm_trace};
use bff::prelude::*;
use bff::pvfs::{Pvfs, PvfsClient, PvfsConfig};
use bff::sim::{ClusterParams, SimCluster};
use bff::workloads::boottrace::BootProfile;
use bff::workloads::VmOp;
use parking_lot::Mutex;
use std::sync::Arc;

const IMG: u64 = 4 << 20;
const SEED: u64 = 0xC0FFEE;

fn image() -> Payload {
    Payload::synth(SEED, 0, IMG)
}

fn trace() -> Vec<VmOp> {
    BootProfile::scaled(IMG).generate(77)
}

fn mirror_backend(fabric: Arc<dyn Fabric>) -> MirrorBackend {
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let topo = bff::blobseer::BlobTopology::colocated(&compute, NodeId(4));
    let cfg = BlobConfig {
        chunk_size: 64 << 10,
        ..Default::default()
    };
    let store = bff::blobseer::BlobStore::new(cfg, topo, fabric);
    let client = BlobClient::new(store, NodeId(0));
    let (blob, v) = client.upload(image()).unwrap();
    MirrorBackend::open(client, blob, v, &Calibration::default()).unwrap()
}

fn qcow_backend(fabric: Arc<dyn Fabric>) -> QcowPvfsBackend {
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let pvfs = Pvfs::new(
        PvfsConfig {
            stripe_size: 64 << 10,
            ..Default::default()
        },
        compute,
        Arc::clone(&fabric),
    );
    let client = PvfsClient::new(pvfs, NodeId(0));
    let base = client.create(IMG).unwrap();
    client.write(base, 0, image()).unwrap();
    QcowPvfsBackend::create(client, base, NodeId(0), fabric, Calibration::default()).unwrap()
}

/// Run the trace on a backend and return the final image content.
fn final_image(backend: &mut dyn ImageBackend, fabric: &Arc<dyn Fabric>) -> Payload {
    run_vm_trace(fabric, NodeId(0), backend, 77, &trace()).unwrap();
    backend.read(0..IMG).unwrap()
}

#[test]
fn all_three_stacks_produce_identical_images() {
    let want = expected_image(&image(), 77, &trace());

    let f1: Arc<dyn Fabric> = LocalFabric::new(5);
    let mut raw = RawLocalBackend::new(NodeId(0), Arc::clone(&f1), image(), Calibration::default());
    let raw_img = final_image(&mut raw, &f1);

    let f2: Arc<dyn Fabric> = LocalFabric::new(5);
    let mut mir = mirror_backend(Arc::clone(&f2));
    let mir_img = final_image(&mut mir, &f2);

    let f3: Arc<dyn Fabric> = LocalFabric::new(5);
    let mut qc = qcow_backend(Arc::clone(&f3));
    let qc_img = final_image(&mut qc, &f3);

    assert!(raw_img.content_eq(&want), "raw local matches the model");
    assert!(
        mir_img.content_eq(&want),
        "mirroring module matches the model"
    );
    assert!(
        qc_img.content_eq(&want),
        "qcow2-over-pvfs matches the model"
    );
}

#[test]
fn simulated_and_local_execution_agree_byte_for_byte() {
    // In-process run.
    let f_local: Arc<dyn Fabric> = LocalFabric::new(5);
    let mut local = mirror_backend(Arc::clone(&f_local));
    let local_digest = final_image(&mut local, &f_local).digest();

    // Simulated run of the *same* logic: build the cluster, run the VM as
    // a simulated process, capture the digest from inside.
    let cluster = SimCluster::new(ClusterParams::grid5000(5));
    let f_sim: Arc<dyn Fabric> = cluster.fabric();
    let digest: Arc<Mutex<Option<bff::data::Digest>>> = Arc::new(Mutex::new(None));
    let digest2 = Arc::clone(&digest);
    let mut backend = mirror_backend(Arc::clone(&f_sim)); // staging: free
    cluster.sim().spawn("vm", move |_env| {
        let img = final_image(&mut backend, &f_sim);
        *digest2.lock() = Some(img.digest());
    });
    let end_us = cluster.run();
    assert!(end_us > 0, "the simulated run consumed virtual time");
    assert_eq!(
        digest.lock().expect("sim ran"),
        local_digest,
        "virtual time changes timing, never contents"
    );
}

/// Everything the cloud workload below is *logically* responsible for:
/// the bytes each instance observed, what moved over the fabric, and
/// what the dedup pipeline reused. Timing is deliberately absent.
#[derive(Debug, PartialEq)]
struct LogicalOutcome {
    image_digests: Vec<bff::data::Digest>,
    network_bytes: u64,
    transfers: u64,
    rpcs: u64,
    dedup_hits: u64,
    dedup_reused_bytes: u64,
    desc_lookups: u64,
}

/// A deterministic multideployment/multisnapshotting run on the full
/// cloud middleware: 4 instances boot the same image from 4 nodes,
/// contextualize with a shared + a private payload, snapshot, and one
/// terminates (snapshot GC). Prefetch stays off so no detached
/// read-ahead races the op sequence — every fabric (and every request
/// transport) must then execute the byte-identical schedule.
fn cloud_workload(fabric: Arc<dyn Fabric>) -> LogicalOutcome {
    // Transport from the environment (`BFF_TRANSPORT`), so the CI codec
    // matrix exercises this workload through the wire codec too.
    cloud_workload_via(fabric, BlobConfig::default().transport).0
}

/// [`cloud_workload`] under an explicit request transport; also returns
/// the transport's real serialized-byte counters.
fn cloud_workload_via(
    fabric: Arc<dyn Fabric>,
    transport: bff::blobseer::TransportMode,
) -> (LogicalOutcome, bff::net::transport::WireStats) {
    const IMG: u64 = 1 << 20;
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cloud = Cloud::new(
        Arc::clone(&fabric),
        compute.clone(),
        NodeId(4),
        BlobConfig {
            chunk_size: 64 << 10,
            dedup: true,
            cluster_dedup: true,
            prefetch: false,
            transport,
            ..Default::default()
        },
        Calibration::default(),
    );
    let (blob, v) = cloud.upload_image(Payload::synth(0xFAB, 0, IMG)).unwrap();
    let mut image_digests = Vec::new();
    let mut doomed = None;
    for (i, &node) in compute.iter().enumerate() {
        let mut vm = cloud.add_instance(blob, v, node).unwrap();
        image_digests.push(vm.backend.read(0..IMG).unwrap().digest());
        // Shared bytes (identical from every node: cluster-dedup food)
        // plus a private mark, then a snapshot.
        vm.backend
            .write(0, Payload::synth(0x5AFE, 0, 128 << 10))
            .unwrap();
        vm.backend
            .write(IMG / 2, Payload::synth(0xB00 + i as u64, 0, 32 << 10))
            .unwrap();
        let (sb, sv) = vm.snapshot().unwrap();
        let verifier = BlobClient::new(Arc::clone(cloud.store()), node);
        image_digests.push(verifier.read(sb, sv, 0..IMG).unwrap().digest());
        if i == 3 {
            doomed = Some(vm);
        }
    }
    cloud.terminate_instance(doomed.unwrap()).unwrap();
    let stats = fabric.stats();
    let cache = cloud.metrics().cache;
    let wire = cloud.store().wire_stats();
    (
        LogicalOutcome {
            image_digests,
            network_bytes: stats.total_network_bytes(),
            transfers: stats.transfer_count(),
            rpcs: stats.rpc_count(),
            dedup_hits: cache.dedup_hits,
            dedup_reused_bytes: cache.dedup_reused_bytes,
            desc_lookups: cache.desc_hits + cache.desc_misses,
        },
        wire,
    )
}

#[test]
fn sim_and_local_fabrics_agree_on_all_logical_outcomes() {
    // The virtual-time simulator runs the workload as a simulated
    // process; the cost-free local fabric runs it natively. Blob
    // contents AND every logical counter — bytes moved, transfer/rpc
    // counts, dedup hits — must match exactly; only timing may differ.
    let cluster = SimCluster::new(ClusterParams::grid5000(5));
    let sim_fabric: Arc<dyn Fabric> = cluster.fabric();
    let sim_outcome: Arc<Mutex<Option<LogicalOutcome>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&sim_outcome);
    let f = Arc::clone(&sim_fabric);
    cluster.sim().spawn("cloud", move |_env| {
        *out.lock() = Some(cloud_workload(f));
    });
    assert!(cluster.run() > 0, "the simulated run consumed virtual time");
    let sim_outcome = sim_outcome.lock().take().expect("sim ran");

    let local_outcome = cloud_workload(LocalFabric::new(5));

    assert_eq!(
        sim_outcome, local_outcome,
        "fabrics may differ in timing, never in logical outcomes"
    );
    // And the workload was non-trivial on both sides.
    assert!(local_outcome.network_bytes > 0 && local_outcome.dedup_hits > 0);
}

#[test]
fn direct_codec_and_socket_transports_agree_on_all_logical_outcomes() {
    // The same cloud workload, carried three ways: typed values
    // dispatched in-process (direct), every message round-tripped
    // through the bff-wire binary codec (codec), and real framed TCP
    // over loopback listeners (socket). The transport carries requests
    // only — every modelled cost is charged to the fabric client-side —
    // so blob contents AND every logical counter (digests, bytes moved,
    // transfer/rpc counts, dedup hits) must match exactly.
    use bff::blobseer::TransportMode;

    let run = |mode| cloud_workload_via(LocalFabric::new(5), mode);
    let (direct, direct_wire) = run(TransportMode::Direct);
    let (codec, codec_wire) = run(TransportMode::Codec);
    let (socket, socket_wire) = run(TransportMode::Socket);

    assert_eq!(
        direct, codec,
        "the codec round trip may cost CPU, never logical outcomes"
    );
    assert_eq!(
        direct, socket,
        "a real socket boundary may cost time, never logical outcomes"
    );

    // The direct path never serializes; both framed transports really
    // moved every request over the wire — and because the codec is
    // deterministic and the workload schedule is identical, the two
    // framed transports serialized byte-for-byte the same traffic.
    assert_eq!(direct_wire.calls, 0, "direct wire calls == 0: no frame");
    assert!(codec_wire.calls > 0, "codec transport frames every request");
    assert_eq!(
        codec_wire, socket_wire,
        "same schedule, same codec -> same wire traffic"
    );
}

#[test]
fn snapshot_through_both_stacks_holds_same_bytes() {
    // After identical writes, a mirror COMMIT snapshot and a qcow2 file
    // copy decode to the same virtual disk.
    let f1: Arc<dyn Fabric> = LocalFabric::new(5);
    let mut mir = mirror_backend(Arc::clone(&f1));
    let f2: Arc<dyn Fabric> = LocalFabric::new(5);
    let mut qc = qcow_backend(Arc::clone(&f2));

    for (i, (off, len)) in [(5000u64, 3000u64), (1 << 20, 200_000), (IMG - 4096, 4096)]
        .into_iter()
        .enumerate()
    {
        let data = Payload::synth(900 + i as u64, off, len);
        mir.write(off, data.clone()).unwrap();
        qc.write(off, data).unwrap();
    }
    mir.snapshot().unwrap();
    qc.snapshot().unwrap();
    let a = mir.read(0..IMG).unwrap();
    let b = qc.read(0..IMG).unwrap();
    assert!(a.content_eq(&b));
}

/// What a boot of a snapshot costs a node that has booted its *base*:
/// counted per step, on the fabric (transport-independent) and on the
/// wire (framed transports only).
#[derive(Debug, PartialEq)]
struct DiffBoot {
    image: bff::data::Digest,
    /// Tree nodes the booting node's descents found / had to fetch.
    node_hits: u64,
    node_misses: u64,
    /// Fabric `(bytes, rpcs, transfers)` of re-opening the known base,
    /// opening the new snapshot, and reading it whole.
    open_known: (u64, u64, u64),
    open_new: (u64, u64, u64),
    read_new: (u64, u64, u64),
}

/// Node 1 boots the 64-chunk base; node 2 changes chunks 32–34 and
/// snapshots; node 1 boots that snapshot through a fresh handle. Also
/// returns the request frames of the three steps on node 1.
fn diff_boot_via(transport: bff::blobseer::TransportMode) -> (DiffBoot, [u64; 3]) {
    const CHUNK: u64 = 4 << 10;
    const IMG: u64 = 64 * CHUNK;
    let fabric = LocalFabric::new(5);
    let compute: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cloud = Cloud::new(
        fabric.clone() as Arc<dyn Fabric>,
        compute,
        NodeId(4),
        BlobConfig {
            chunk_size: CHUNK,
            dedup: false,
            cluster_dedup: false,
            prefetch: false,
            transport,
            ..Default::default()
        },
        Calibration::default(),
    );
    let base = Payload::synth(0xD1FF, 0, IMG);
    let (blob, v1) = cloud.upload_image(base.clone()).unwrap();
    let (booter, committer) = (NodeId(1), NodeId(2));
    let mut vm = cloud.add_instance(blob, v1, booter).unwrap();
    assert!(vm.backend.read(0..IMG).unwrap().content_eq(&base));
    drop(vm);

    let patch = Payload::synth(0xD200, 0, 3 * CHUNK);
    let mut vm = cloud.add_instance(blob, v1, committer).unwrap();
    vm.backend.write(32 * CHUNK, patch.clone()).unwrap();
    let (snap, sv) = vm.snapshot().unwrap();

    let step = |before: bff::net::transport::WireStats| {
        let s = fabric.stats();
        let seen = (s.total_network_bytes(), s.rpc_count(), s.transfer_count());
        s.reset();
        (seen, cloud.store().wire_stats().calls - before.calls)
    };
    fabric.stats().reset();
    let ctx = cloud.node_context(booter);
    let known = ctx.stats();

    let wire = cloud.store().wire_stats();
    drop(cloud.add_instance(blob, v1, booter).unwrap());
    let (open_known, known_frames) = step(wire);

    let wire = cloud.store().wire_stats();
    let mut vm = cloud.add_instance(snap, sv, booter).unwrap();
    let (open_new, new_frames) = step(wire);

    let wire = cloud.store().wire_stats();
    let got = vm.backend.read(0..IMG).unwrap();
    let (read_new, read_frames) = step(wire);
    assert!(got.content_eq(&base.overwrite(32 * CHUNK, patch)));

    let seen = ctx.stats();
    (
        DiffBoot {
            image: got.digest(),
            node_hits: seen.node_hits - known.node_hits,
            node_misses: seen.node_misses - known.node_misses,
            open_known,
            open_new,
            read_new,
        },
        [known_frames, new_frames, read_frames],
    )
}

#[test]
fn a_boot_costs_the_snapshots_diff_under_every_transport() {
    use bff::blobseer::TransportMode;
    let (direct, direct_frames) = diff_boot_via(TransportMode::Direct);
    let (codec, codec_frames) = diff_boot_via(TransportMode::Codec);
    let (socket, socket_frames) = diff_boot_via(TransportMode::Socket);
    assert_eq!(direct, codec);
    assert_eq!(direct, socket);
    assert_eq!(direct_frames, [0; 3], "direct: no frame ever exists");
    assert_eq!(codec_frames, socket_frames);

    // Chunks 32–34 of 64 hang off ten new nodes: the root, one node per
    // level down to the 4-chunk subtree, its two halves, three leaves.
    // Everything else of the snapshot's tree is the base's, and the
    // node has that.
    assert_eq!(direct.node_misses, 10);
    assert!(direct.node_hits > 0);
    // Opening a version the node knows asks nobody; a new one asks the
    // version manager once (open + mirror attach share the answer).
    assert_eq!(direct.open_known, (0, 0, 0));
    assert_eq!(direct.open_new.1, 1);
    let [known_frames, new_frames, read_frames] = socket_frames;
    assert_eq!((known_frames, new_frames), (0, 1));
    // The whole-image read: one `Fetch` per provider, the rest are
    // `ReadNodes` frames — at most one per fetched node.
    let providers = 4;
    assert!(
        read_frames - providers <= direct.node_misses,
        "{read_frames} frames for {} fetched nodes",
        direct.node_misses
    );
}
