//! Dedup sweep: the snapshot-heavy Monte-Carlo suspend/resume workload
//! (§5.5) with content-addressed write dedup off vs on, plus the
//! *cross-node* contextualization scenario with the cluster-wide dedup
//! index off vs on and snapshot garbage collection on top.
//!
//! **Suspend/resume.** Eight workers (two co-located per node — the
//! multideployment pattern) boot from one base image, checkpoint their
//! intermediate results every round and snapshot after every
//! checkpoint. Halfway through, all of them are suspended and resumed
//! on *different* nodes (nothing local survives), reload their state
//! and finish. Checkpoints rewrite the same temporary file, so
//! consecutive snapshots carry identical dirty content — exactly the
//! §3.1.3 situation where commits should grow the repository by dirty
//! *unique* bytes only.
//!
//! **Cross-node contextualization.** Sixteen VMs (two per node, eight
//! nodes) deploy one image and each commit the *same* contextualization
//! payload plus a small private divergence — identical bytes from
//! *different* nodes, where the node-local digest index cannot help but
//! the cluster index collapses every copy to one stored chunk. Then all
//! but one instance terminate: snapshot GC must reclaim the bytes only
//! the dead lineages referenced (measured against a replay that only
//! ever ran the survivor) while the survivor and the base image stay
//! byte-identical — asserted, not sampled.
//!
//! Emits `target/paper/dedup_sweep.{csv,json}` (the per-mode tables),
//! `target/paper/dedup_summary.json` (gated against the `BENCH_3.json`
//! floors) and `target/paper/cluster_summary.json` (gated against the
//! `BENCH_5.json` floors) for the `bench_regression` CI gate. (What one
//! snapshot delete reads to find its dead leaves — `BENCH_13.json` — is
//! an exact count and is asserted by `tests/wire_counts.rs`.)
//!
//! The binary is CI-sized by default (seconds); `--mini` is accepted for
//! symmetry with the figure binaries and changes nothing.

use bff_bench::{f3, write_summary, Table};
use bff_cloud::backend::ImageBackend;
use bff_cloud::middleware::Cloud;
use bff_cloud::params::Calibration;
use bff_cloud::vm::vm_write_payload;
use bff_data::Payload;
use bff_net::{Fabric, LocalFabric, NodeId};

const NODES: u32 = 4;
const VMS: usize = 8; // two co-located per node
const IMG: u64 = 4 << 20;
const CHUNK: u64 = 64 << 10;
const STATE_BYTES: u64 = 256 << 10; // the worker's intermediate results
const STATE_OFFSET: u64 = 1 << 20;
const BOOT_READ: u64 = 1 << 20;
/// Checkpoint+snapshot rounds before and after the suspend/resume.
const ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy)]
struct ModeOutcome {
    stored_mb: f64,
    committed_mb: f64,
    reused_mb: f64,
    network_mb: f64,
    hit_rate: f64,
}

fn run_mode(dedup: bool) -> ModeOutcome {
    let fabric = LocalFabric::new(NODES as usize + 1);
    let compute: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let cloud = Cloud::new(
        fabric.clone(),
        compute,
        NodeId(NODES),
        bff_blobseer::BlobConfig {
            chunk_size: CHUNK,
            dedup,
            // Pinned, not inherited from BFF_CLUSTER_DEDUP: the
            // BENCH_3 numbers record the full shipping pipeline (node
            // + cluster index), so the sweep must measure the same
            // thing no matter the caller's environment.
            cluster_dedup: dedup,
            ..Default::default()
        },
        Calibration::default(),
    );
    let (blob, version) = cloud
        .upload_image(Payload::synth(0x5EED, 0, IMG))
        .expect("upload");
    let stored_base = cloud.store().total_stored_bytes();
    fabric.stats().reset();

    let node_of = |vm: usize, resumed: bool| -> NodeId {
        // Two VMs per node; resume shifts every worker to another node.
        let shift = if resumed { 2 } else { 0 };
        NodeId(((vm + shift) % NODES as usize) as u32)
    };

    let mut committed = 0u64;
    // Phase 1: deploy, boot-read, checkpoint+snapshot ROUNDS times.
    let mut snaps = Vec::with_capacity(VMS);
    for vm in 0..VMS {
        let mut handle = cloud
            .add_instance(blob, version, node_of(vm, false))
            .expect("deploy");
        handle.backend.read(0..BOOT_READ).expect("boot read");
        for _ in 0..ROUNDS {
            let state = vm_write_payload(vm as u64, STATE_OFFSET, STATE_BYTES);
            handle
                .backend
                .write(STATE_OFFSET, state)
                .expect("checkpoint");
            committed += handle.backend.snapshot().expect("snapshot");
        }
        snaps.push(handle.snapshot().expect("snapshot identity"));
    }

    // Phase 2: resume every snapshot on a different node, reload the
    // saved state, finish the remaining rounds.
    for (vm, &(sblob, sver)) in snaps.iter().enumerate() {
        let mut handle = cloud
            .add_instance(sblob, sver, node_of(vm, true))
            .expect("resume");
        handle
            .backend
            .read(STATE_OFFSET..STATE_OFFSET + STATE_BYTES)
            .expect("reload state");
        for _ in 0..ROUNDS {
            let state = vm_write_payload(vm as u64, STATE_OFFSET, STATE_BYTES);
            handle
                .backend
                .write(STATE_OFFSET, state)
                .expect("checkpoint");
            committed += handle.backend.snapshot().expect("snapshot");
        }
    }

    let stats = cloud.metrics().cache;
    ModeOutcome {
        stored_mb: (cloud.store().total_stored_bytes() - stored_base) as f64 / 1e6,
        committed_mb: committed as f64 / 1e6,
        reused_mb: stats.dedup_reused_bytes as f64 / 1e6,
        network_mb: fabric.stats().total_network_bytes() as f64 / 1e6,
        hit_rate: stats.hit_rate(),
    }
}

// --- Cross-node contextualization scenario --------------------------

const X_NODES: u32 = 8;
const X_VMS: usize = 16; // two co-located per node
const X_IMG: u64 = 4 << 20;
const X_CTX_BYTES: u64 = 1 << 20; // the shared contextualization payload
const X_CTX_OFFSET: u64 = 1 << 20;
const X_PRIV_BYTES: u64 = 64 << 10; // one chunk of per-VM divergence
const X_PRIV_BASE: u64 = 2 << 20;

#[derive(Debug, Clone, Copy)]
struct CrossOutcome {
    /// Provider bytes the deployment's commits added over the base.
    stored_mb: f64,
    network_mb: f64,
    /// Provider bytes after the GC pass (cluster mode only; equals
    /// `stored_mb` when no GC ran).
    stored_after_gc_mb: f64,
    reclaimed_mb: f64,
}

/// Deploy `vms` instances (two per node), commit the shared
/// contextualization payload + a private chunk each, snapshot — then,
/// when `gc`, terminate every instance but VM 0 and let snapshot GC
/// reclaim the dead lineages' storage. Byte-identity of the survivor
/// and the base image across the GC pass is asserted.
fn run_cross(cluster: bool, vms: usize, gc: bool) -> CrossOutcome {
    let fabric = LocalFabric::new(X_NODES as usize + 1);
    let compute: Vec<NodeId> = (0..X_NODES).map(NodeId).collect();
    let cloud = Cloud::new(
        fabric.clone(),
        compute,
        NodeId(X_NODES),
        bff_blobseer::BlobConfig {
            chunk_size: CHUNK,
            dedup: true,
            cluster_dedup: cluster,
            ..Default::default()
        },
        Calibration::default(),
    );
    let image = Payload::synth(0xC0DE, 0, X_IMG);
    let (blob, version) = cloud.upload_image(image.clone()).expect("upload");
    let stored_base = cloud.store().total_stored_bytes();
    fabric.stats().reset();

    // The shared contextualization payload — byte-identical on every VM.
    let ctx = Payload::synth(0xC1C, 0, X_CTX_BYTES);
    let mut handles = Vec::with_capacity(vms);
    let mut snaps = Vec::with_capacity(vms);
    for vm in 0..vms {
        let node = NodeId((vm % X_NODES as usize) as u32);
        let mut handle = cloud.add_instance(blob, version, node).expect("deploy");
        handle
            .backend
            .write(X_CTX_OFFSET, ctx.clone())
            .expect("ctx");
        handle
            .backend
            .write(
                X_PRIV_BASE + vm as u64 * X_PRIV_BYTES,
                vm_write_payload(vm as u64, 0, X_PRIV_BYTES),
            )
            .expect("private divergence");
        snaps.push(handle.snapshot().expect("snapshot"));
        handles.push(handle);
    }
    let stored = cloud.store().total_stored_bytes() - stored_base;
    let network = fabric.stats().total_network_bytes();

    let mut stored_after_gc = stored;
    if gc {
        // Byte-identity witnesses before the release storm.
        let survivor = snaps[0];
        let before_survivor = cloud
            .download_image(survivor.0, survivor.1)
            .expect("survivor pre-GC");
        // Terminate everything but VM 0: 15 release storms.
        let keep = handles.remove(0);
        for handle in handles {
            cloud.terminate_instance(handle).expect("terminate");
        }
        drop(keep);
        stored_after_gc = cloud.store().total_stored_bytes() - stored_base;
        let after_survivor = cloud
            .download_image(survivor.0, survivor.1)
            .expect("survivor post-GC");
        assert!(
            after_survivor.content_eq(&before_survivor),
            "GC corrupted the surviving snapshot"
        );
        let base = cloud.download_image(blob, version).expect("base post-GC");
        assert!(base.content_eq(&image), "GC corrupted the base image");
    }
    CrossOutcome {
        stored_mb: stored as f64 / 1e6,
        network_mb: network as f64 / 1e6,
        stored_after_gc_mb: stored_after_gc as f64 / 1e6,
        reclaimed_mb: (stored - stored_after_gc) as f64 / 1e6,
    }
}

fn main() {
    let off = run_mode(false);
    let on = run_mode(true);

    let mut t = Table::new(
        "dedup_sweep",
        &[
            "dedup",
            "committed_mb",
            "stored_mb",
            "reused_by_reference_mb",
            "network_mb",
            "desc_hit_rate",
        ],
    );
    for (label, m) in [("off", off), ("on", on)] {
        t.row(&[
            &label,
            &f3(m.committed_mb),
            &f3(m.stored_mb),
            &f3(m.reused_mb),
            &f3(m.network_mb),
            &f3(m.hit_rate),
        ]);
    }
    t.emit();

    let stored_reduction = off.stored_mb / on.stored_mb.max(1e-9);
    let network_reduction = off.network_mb / on.network_mb.max(1e-9);
    println!(
        "\nprovider bytes written: {:.1} MB -> {:.1} MB ({stored_reduction:.2}x reduction); \
         network {:.1} MB -> {:.1} MB ({network_reduction:.2}x); \
         desc-cache hit rate {:.0}%",
        off.stored_mb,
        on.stored_mb,
        off.network_mb,
        on.network_mb,
        100.0 * on.hit_rate
    );

    write_summary(
        "dedup_summary.json",
        &[
            ("dedup_stored_reduction", f3(stored_reduction)),
            ("dedup_network_reduction", f3(network_reduction)),
            ("desc_hit_rate", f3(on.hit_rate)),
            ("dedup_reused_mb", f3(on.reused_mb)),
        ],
    );

    // --- Cross-node contextualization + snapshot GC -----------------
    let node_local = run_cross(false, X_VMS, false);
    let clustered = run_cross(true, X_VMS, true);
    // The survivor-only replay: what the repository would hold had the
    // terminated instances never existed. GC's target, measured rather
    // than assumed — the deterministic fabric makes the replay exact.
    let survivor_only = run_cross(true, 1, false);

    let mut t = Table::new(
        "cluster_dedup_sweep",
        &[
            "dedup_index",
            "stored_mb",
            "network_mb",
            "stored_after_gc_mb",
            "gc_reclaimed_mb",
        ],
    );
    for (label, m) in [("node_local", node_local), ("cluster", clustered)] {
        t.row(&[
            &label,
            &f3(m.stored_mb),
            &f3(m.network_mb),
            &f3(m.stored_after_gc_mb),
            &f3(m.reclaimed_mb),
        ]);
    }
    t.emit();

    let cluster_stored_reduction = node_local.stored_mb / clustered.stored_mb.max(1e-9);
    let cluster_network_reduction = node_local.network_mb / clustered.network_mb.max(1e-9);
    // Bytes only the dead lineages referenced, per the replay; the
    // fraction of them GC actually handed back.
    let unique_to_deleted = clustered.stored_mb - survivor_only.stored_mb;
    let gc_reclaimed_fraction = clustered.reclaimed_mb / unique_to_deleted.max(1e-9);
    println!(
        "\ncross-node contextualization ({X_VMS} VMs / {X_NODES} nodes): provider bytes \
         {:.1} MB node-local -> {:.1} MB cluster ({cluster_stored_reduction:.2}x); \
         network {:.1} MB -> {:.1} MB ({cluster_network_reduction:.2}x); \
         GC reclaimed {:.2} of {:.2} MB unique to terminated instances \
         ({:.0}%)",
        node_local.stored_mb,
        clustered.stored_mb,
        node_local.network_mb,
        clustered.network_mb,
        clustered.reclaimed_mb,
        unique_to_deleted,
        100.0 * gc_reclaimed_fraction,
    );

    write_summary(
        "cluster_summary.json",
        &[
            ("cluster_stored_reduction", f3(cluster_stored_reduction)),
            ("cluster_network_reduction", f3(cluster_network_reduction)),
            ("gc_reclaimed_fraction", f3(gc_reclaimed_fraction)),
            ("gc_reclaimed_mb", f3(clustered.reclaimed_mb)),
            ("cluster_stored_mb", f3(clustered.stored_mb)),
            ("node_local_stored_mb", f3(node_local.stored_mb)),
        ],
    );
}
