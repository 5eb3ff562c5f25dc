//! Exact protocol counts on single-threaded fixtures — the numbers
//! `BENCH_13/14/15.json` record and the control plane's frames per boot
//! and per snapshot, asserted directly. One thread, fixed
//! schedule: every count repeats exactly, so any change is a protocol
//! change and must be made here on purpose.
//!
//! A protocol step addresses one server role and sends one frame (its
//! requests share a `Req::Batch`), so every frame counted here is one
//! round trip the client waits for.

use bff_blobseer::segtree::{self, NodeIo};
use bff_blobseer::{
    BlobConfig, BlobError, BlobResult, BlobStore, BlobTopology, ChunkDesc, ChunkId, Client,
    NodeKey, Placement, ServerState, TreeNode, Version,
};
use bff_cloud::backend::ImageBackend;
use bff_cloud::{Calibration, Cloud};
use bff_data::Payload;
use bff_net::transport::{
    FrameServer, Role, RouteKey, RouteTable, SocketTransport, Transport, WireError, WireStats,
};
use bff_net::{Fabric, LocalFabric, NodeId};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CHUNK: u64 = 64 << 10;
/// Boot reads are guest-sized: 4 chunks each.
const BOOT_STRIDE: u64 = 256 << 10;

/// Counts, per server role, the frames a client sends, and forwards
/// every call untouched.
struct RoleCounting {
    inner: SocketTransport,
    frames: [AtomicU64; Role::ALL.len()],
}

impl RoleCounting {
    /// Frames addressed to `role` so far (`Role::ALL` lists the roles in
    /// declaration order).
    fn seen(&self, role: Role) -> u64 {
        self.frames[role as usize].load(Ordering::Relaxed)
    }
}

impl Transport for RoleCounting {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.frames[route.role() as usize].fetch_add(1, Ordering::Relaxed);
        self.inner.call(route, frame)
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

/// A [`BlobStore::remote`] handle over loopback sockets to an
/// in-process server, whose transport counts frames per role; the
/// listeners serve only while they are held.
struct Remote {
    store: Arc<BlobStore>,
    transport: Arc<RoleCounting>,
    _listeners: Vec<(Role, FrameServer)>,
}

impl Remote {
    /// Four compute nodes, each a provider and a metadata shard, with
    /// the managers on a fifth node.
    fn new(cfg: BlobConfig) -> (Self, Arc<LocalFabric>) {
        const PROVIDERS: u32 = 4;
        let fabric = LocalFabric::new(PROVIDERS as usize + 1);
        let compute: Vec<NodeId> = (0..PROVIDERS).map(NodeId).collect();
        let topo = BlobTopology::colocated(&compute, NodeId(PROVIDERS));
        let state = Arc::new(ServerState::new(&cfg, &topo, Placement::RoundRobin));
        let listeners = state.serve(&Role::ALL).expect("bind loopback listeners");
        let addrs: HashMap<Role, _> = listeners.iter().map(|(r, s)| (*r, s.addr())).collect();
        let transport = Arc::new(RoleCounting {
            inner: SocketTransport::new(RouteTable::from_roles(&addrs).expect("every role served")),
            frames: Default::default(),
        });
        let store = BlobStore::remote(
            cfg,
            topo,
            Arc::clone(&fabric) as Arc<dyn Fabric>,
            transport.clone() as Arc<dyn Transport>,
        );
        let remote = Self {
            store,
            transport,
            _listeners: listeners,
        };
        (remote, fabric)
    }

    /// The benchmark's deployment (`bffbench`'s `BlobConfig`: dedup,
    /// cluster dedup and prefetch on, two publishers confirm a chunk,
    /// replication 1) as a [`Cloud`] on the four compute nodes.
    fn bench_cloud() -> (Self, Cloud) {
        let cfg = BlobConfig {
            chunk_size: CHUNK,
            replication: 1,
            dedup: true,
            cluster_dedup: true,
            strong_digest: false,
            prefetch: true,
            prefetch_window: 8,
            prefetch_min_publishers: 2,
            chunk_cache_bytes: 64 << 20,
            desc_cache_versions: 64,
            ..Default::default()
        };
        let (remote, fabric) = Self::new(cfg);
        let topo = remote.store.topology();
        let cloud = Cloud::with_store(
            Arc::clone(&remote.store),
            fabric as Arc<dyn Fabric>,
            topo.providers.clone(),
            topo.pmanager,
            Calibration::default(),
        );
        (remote, cloud)
    }
}

/// The scatter-gather fixture of `BENCH_14.json`: one client, cold on
/// its node, boots a 64-chunk image in sixteen 4-chunk reads over an
/// in-process socket store with 4 providers and 4 metadata shards
/// (`LocalFabric`, dedup and prefetch off, so every frame is a boot
/// frame). Round-robin placement puts the four chunks of each read on
/// four providers, so the sequential path waited four times per read;
/// a read's four `Fetch`es now travel as one batch frame, and so do a
/// descent level's `ReadNodes` to several shards.
///
/// The fixture then takes the step of `BENCH_15.json`: another node
/// changes chunks 32–34 and snapshots (CLONE + COMMIT), and the node
/// that just booted the base boots that snapshot through a fresh handle,
/// in the same sixteen reads. Its tree shares all but ten nodes with
/// the base's, which the node has, so the boot fetches those ten tree
/// nodes and no other — at most the three changed paths times the
/// tree's depth of seven — in metadata frames that are the snapshot's
/// diff, against the 63 of the cold boot.
#[test]
fn cold_boot_pipelines_its_frames_and_a_diff_boot_fetches_the_diff() {
    let (remote, _) = Remote::new(BlobConfig {
        chunk_size: CHUNK,
        dedup: false,
        cluster_dedup: false,
        prefetch: false,
        ..Default::default()
    });
    let (store, transport) = (Arc::clone(&remote.store), &remote.transport);
    let image = 64 * CHUNK;
    let (blob, version) = Client::new(Arc::clone(&store), NodeId(0))
        .upload(Payload::synth(0xB14, 0, image))
        .expect("upload");

    let before = (transport.seen(Role::Provider), transport.seen(Role::Meta));
    let base = Payload::synth(0xB14, 0, image);
    let boot = |reader: &Client, blob, version, want: &Payload| {
        for offset in (0..image).step_by(BOOT_STRIDE as usize) {
            let got = reader
                .read(blob, version, offset..offset + BOOT_STRIDE)
                .expect("boot read");
            assert!(got.content_eq(&want.slice(offset, offset + BOOT_STRIDE)));
        }
    };
    let reader = Client::new(Arc::clone(&store), NodeId(1));
    boot(&reader, blob, version, &base);
    let delta = |role, frames0: u64| transport.seen(role) - frames0;
    assert_eq!(
        delta(Role::Provider, before.0),
        16,
        "64 Fetches in 16 frames, one per read (64 frames before batches)"
    );
    let meta_frames = delta(Role::Meta, before.1);
    assert_eq!(
        meta_frames, 63,
        "ReadNodes frames (103 in 63 waits before batches)"
    );
    assert!(
        meta_frames <= reader.meta_fetch_calls(),
        "a descent level waits at most once"
    );

    // The diff boot: commit from node 2, boot on node 1 again.
    let committer = Client::new(Arc::clone(&store), NodeId(2));
    let snapshot = committer.clone_blob(blob, version).expect("clone");
    let patch = Payload::synth(0xB15, 0, 3 * CHUNK);
    let committed = committer
        .write(snapshot, Version(1), 32 * CHUNK, patch.clone())
        .expect("commit");
    let changed = base.overwrite(32 * CHUNK, patch);
    let fetched_nodes = || store.node_context(NodeId(1)).stats().node_misses;
    let reader = Client::new(Arc::clone(&store), NodeId(1));
    let before = (
        transport.seen(Role::Meta),
        transport.seen(Role::Vm),
        fetched_nodes(),
    );
    reader.snapshot_size(blob, version).expect("open base");
    assert_eq!(
        delta(Role::Vm, before.1),
        0,
        "opening a known version asks nobody"
    );
    reader.snapshot_size(snapshot, committed).expect("open");
    boot(&reader, snapshot, committed, &changed);
    let (changed_paths, depth) = (3, 7);
    let diff_nodes = fetched_nodes() - before.2;
    assert_eq!(diff_nodes, 10, "the tree nodes v+1 does not share with v");
    assert!(diff_nodes <= changed_paths * depth);
    assert_eq!(
        delta(Role::Meta, before.0),
        7,
        "the changed paths, not the tree (9 before batches)"
    );
    assert_eq!(
        delta(Role::Vm, before.1),
        1,
        "a new version costs one lookup"
    );
}

/// The control plane of the benchmark's deployment
/// ([`Remote::bench_cloud`]) on its smallest fixture: a 64-chunk image,
/// four compute nodes, one thread.
///
/// **Boots.** Each node in turn attaches an instance and reads the whole
/// image in sixteen 256 KiB reads, as a benchmark boot does. The board
/// is asked only by a node's replica of the snapshot's peer sequence:
/// once when the image is attached and the replica is empty (a poll),
/// and once per first-touch batch the replica cannot call
/// cohort-confirmed (a publish, eight chunks each). A batch holds only
/// chunks the boot moved: fetched, or read ahead and used for the first
/// time. Nodes 0 and 1 are the two publishers that confirm the pattern;
/// nodes 2 and 3 learn from their one poll that there is nothing left to
/// say; a second boot on a node that has read the image asks nothing at
/// all.
///
/// **Snapshots.** An instance on node 0 dirties four chunks — two whose
/// content the base image already stores (on two providers), two new —
/// and snapshots (CLONE + COMMIT), then does it again elsewhere
/// (COMMIT). A reused chunk is verified and retained where it is stored,
/// in the one `Retain` batch its provider gets, so the commit's provider
/// frames are one frame carrying both providers' `Retain`s and one
/// carrying both providers' `Put`s, and no chunk travels back; the
/// cluster index is asked once and told once; the version manager hears
/// CLONE, the key reservation and the publish.
///
/// **Warm boots of the snapshot.** Each node then boots the published
/// snapshot. It holds all but the four chunks the snapshots wrote, so a
/// boot moves four chunks, too few for a batch: one poll, nothing to
/// publish.
#[test]
fn a_boot_with_nothing_to_learn_asks_the_board_nothing_and_a_dedup_hit_is_one_provider_round_trip()
{
    let (remote, cloud) = Remote::bench_cloud();
    let (transport, compute) = (&remote.transport, cloud.compute_nodes());
    let image = 64 * CHUNK;
    // Literal bytes, as a real image is: a chunk that travels costs its
    // length on the wire.
    let base = Payload::from(Payload::synth(0xB17, 0, image).materialize());
    let (blob, version) = cloud.upload_image(base.clone()).expect("upload");

    let boot = |(blob, version), node: NodeId, want: &Payload| {
        let before = transport.seen(Role::Board);
        let mut vm = cloud.add_instance(blob, version, node).expect("attach");
        for offset in (0..image).step_by(BOOT_STRIDE as usize) {
            let got = vm
                .backend
                .read(offset..offset + BOOT_STRIDE)
                .expect("boot read");
            assert!(got.content_eq(&want.slice(offset, offset + BOOT_STRIDE)));
        }
        (vm, transport.seen(Role::Board) - before)
    };
    let first_boots: Vec<u64> = compute
        .iter()
        .map(|&node| boot((blob, version), node, &base).1)
        .collect();
    let (mut vm, repeat_boot) = boot((blob, version), NodeId(0), &base);
    // 17, 18, 10, 10 and 2 before the replica: a `NovelOf` and a `Merge`
    // per batch and a `SequenceLen` per poll, whatever the node knew.
    assert_eq!(first_boots, [9, 9, 1, 1], "board frames per first boot");
    assert_eq!(repeat_boot, 0, "a boot with nothing to learn or to say");

    // Frames per role and bytes received, since `mark`.
    let mark = || {
        (
            [Role::Provider, Role::Cluster, Role::Vm].map(|role| transport.seen(role)),
            transport.wire_stats().bytes_received,
        )
    };
    let since = |(roles, bytes): ([u64; 3], u64)| {
        let (now, now_bytes) = mark();
        let delta: Vec<u64> = now.iter().zip(roles).map(|(n, o)| n - o).collect();
        (delta, now_bytes - bytes)
    };
    // Two chunks the base image stores elsewhere, two nobody stores.
    let mut snapshot = |at: u64, shared_from: u64, seed: u64| {
        let writes = [
            (
                at,
                base.slice(shared_from * CHUNK, (shared_from + 2) * CHUNK),
            ),
            (at + 2 * CHUNK, Payload::synth(seed, 0, 2 * CHUNK)),
        ];
        for (offset, data) in &writes {
            vm.backend.write(*offset, data.clone()).expect("dirty");
        }
        let before = mark();
        let snap = vm.snapshot().expect("snapshot");
        let cost = since(before);
        let got = cloud.download_image(snap.0, snap.1).expect("read back");
        for (offset, data) in writes {
            assert!(got.slice(offset, offset + data.len()).content_eq(&data));
        }
        (cost, snap, got)
    };
    // Frames per role: provider, cluster index, version manager; then
    // the bytes the client received during the snapshot. Before: provider
    // 6 — a `Peek` and a `Retain` per reused chunk — cluster 3, version
    // manager 4 then 2, and 131 189 bytes: the two reused chunks,
    // downloaded to be compared. Before batches: provider 4 frames in 3
    // waits, and 62 then 58 bytes; a batch reply costs its tag, its count
    // and one outcome tag per entry, so the `Retain` frame's two entries
    // add 4 bytes and the `WriteNodes` frame's four shards 6. Before the
    // push was a step: provider 3 frames, a `Put` frame per provider, and
    // 72 then 68 bytes; the one `Put` frame's two entries add 4.
    let (first, ..) = snapshot(0, 32, 0xD1);
    let (second, published, content) = snapshot(8 * CHUNK, 40, 0xD2);
    assert_eq!(first, (vec![2, 2, 3], 76), "CLONE + COMMIT");
    assert_eq!(second, (vec![2, 2, 2], 72), "COMMIT");

    // The published snapshot, booted on the nodes that booted its base:
    // 60 of its chunks are the base's, resident on every node, and the
    // four it moves are not a batch, so each boot asks only its
    // open-time poll (9, 9, 1, 1 before a boot published only what it
    // moved).
    let snapshot_boots: Vec<u64> = compute
        .iter()
        .map(|&node| boot(published, node, &content).1)
        .collect();
    assert_eq!(snapshot_boots, [1, 1, 1, 1], "board frames per warm boot");
}

/// A boot of a converged pattern asks the board at most once, however
/// many guest compute bursts it has. Nodes 0 and 1 boot the image and
/// publish its first-touch order, which their two publishes confirm.
/// Node 2 then boots it with a compute burst (`idle`) before each read,
/// as a hypervisor runs a guest: the open-time poll brings the whole
/// pattern, each burst reads a window ahead off the replica, and every
/// read is served by read-ahead. No read misses, so no burst asks the
/// board again, and a confirmed pattern has nothing to publish.
#[test]
fn a_boot_of_a_converged_pattern_polls_once_whatever_its_bursts() {
    let (remote, cloud) = Remote::bench_cloud();
    let image = 64 * CHUNK;
    let base = Payload::from(Payload::synth(0xB19, 0, image).materialize());
    let (blob, version) = cloud.upload_image(base.clone()).expect("upload");
    let boot = |node: NodeId, bursts: bool| {
        let before = remote.transport.seen(Role::Board);
        let mut vm = cloud.add_instance(blob, version, node).expect("attach");
        for offset in (0..image).step_by(BOOT_STRIDE as usize) {
            if bursts {
                vm.backend.idle(1_000).expect("compute burst");
            }
            let got = vm
                .backend
                .read(offset..offset + BOOT_STRIDE)
                .expect("boot read");
            assert!(got.content_eq(&base.slice(offset, offset + BOOT_STRIDE)));
        }
        remote.transport.seen(Role::Board) - before
    };
    assert_eq!([boot(NodeId(0), false), boot(NodeId(1), false)], [9, 9]);
    assert_eq!(
        boot(NodeId(2), true),
        1,
        "board frames of a boot with bursts"
    );
    let stats = cloud.node_context(NodeId(2)).prefetch_stats();
    assert_eq!(
        (
            stats.board_polls,
            stats.board_publishes,
            stats.demand_fetch_steps
        ),
        (1, 0, 0)
    );
    assert_eq!(stats.hits, 64, "read-ahead served every chunk");
}

/// [`Cloud::metrics`] on a cloud whose server state lives behind
/// sockets reads the client half (caches, prefetch, wire) and reports
/// the server half (storage, durability) as absent.
#[test]
fn metrics_of_a_remote_cloud_read_the_client_half() {
    let (remote, cloud) = Remote::bench_cloud();
    let image = 8 * CHUNK;
    let (blob, version) = cloud
        .upload_image(Payload::synth(0xB1A, 0, image))
        .expect("upload");
    let mut vm = cloud
        .add_instance(blob, version, NodeId(0))
        .expect("attach");
    vm.backend.read(0..image).expect("boot read");
    let m = cloud.metrics();
    assert_eq!((m.stored_bytes, m.durability), (None, None));
    assert_eq!(m.wire, remote.transport.wire_stats());
    // The open-time poll, then one read that fetched all eight chunks
    // and published them.
    let p = m.prefetch;
    assert_eq!(
        (p.board_polls, p.board_publishes, p.demand_fetch_steps),
        (1, 1, 1)
    );
}

/// What a collector read from a [`CountingIo`]: `rounds` is `fetch`
/// calls (one metadata round trip each), `nodes` the keys it asked for,
/// `distinct` how many of those were different — what a cold client
/// node cache would let through to the metadata shards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct GcCost {
    rounds: u64,
    nodes: u64,
    distinct: u64,
}

/// An in-memory metadata store that counts what is read from it.
#[derive(Default)]
struct CountingIo {
    nodes: HashMap<NodeKey, TreeNode>,
    next_key: u64,
    seen: HashSet<NodeKey>,
    cost: GcCost,
}

impl CountingIo {
    /// The cost since the last call, with a cold cache from here on.
    fn take_cost(&mut self) -> GcCost {
        self.seen.clear();
        std::mem::take(&mut self.cost)
    }
}

impl NodeIo for CountingIo {
    fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
        self.cost.rounds += 1;
        self.cost.nodes += keys.len() as u64;
        keys.iter()
            .map(|k| {
                self.cost.distinct += self.seen.insert(*k) as u64;
                self.nodes
                    .get(k)
                    .cloned()
                    .ok_or(BlobError::MetadataMissing(*k))
            })
            .collect()
    }
    fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>> {
        let start = self.next_key + 1; // key 0 is NULL
        self.next_key += n;
        Ok(start..start + n)
    }
    fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
        self.nodes.extend(nodes);
        Ok(())
    }
}

/// The fixture of `BENCH_13.json`, 64 chunks / 8 live roots: a base
/// image, seven lineage heads that each rewrote four chunks of it, and
/// an eighth lineage whose head is deleted. Finding its dead leaves by
/// the per-root full walks the collector replaced (the deleted tree,
/// then every live tree) against the joint pruned descent, after
/// checking both find the same four.
#[test]
fn single_version_delete_reads_the_diff_not_every_live_tree() {
    const SPAN: u64 = 64;
    const NODES: u64 = 4;
    let mut io = CountingIo::default();
    let mut next_chunk = 0u64;
    let mut write = |io: &mut CountingIo, base: NodeKey, chunks: &[u64]| {
        let updates = chunks
            .iter()
            .map(|&i| {
                next_chunk += 1;
                let replicas = [NodeId((i % NODES) as u32)].into();
                (
                    i,
                    ChunkDesc {
                        id: ChunkId(next_chunk),
                        replicas,
                    },
                )
            })
            .collect();
        segtree::build_new_tree(io, base, SPAN, &updates).expect("build tree")
    };
    let all: Vec<u64> = (0..SPAN).collect();
    let base = write(&mut io, NodeKey::NULL, &all);
    let mut live = vec![base];
    for i in 0..7u64 {
        let chunks: Vec<u64> = (0..4).map(|j| (13 * i + 17 * j + 5) % SPAN).collect();
        live.push(write(&mut io, base, &chunks));
    }
    let victim = write(&mut io, base, &[2, 19, 36, 53]);

    io.take_cost();
    let mut walked: HashMap<u64, ChunkId> =
        segtree::collect_leaves_multi(&mut io, victim, SPAN, std::slice::from_ref(&(0..SPAN)))
            .expect("walk the deleted tree")
            .into_iter()
            .map(|(i, desc)| (i, desc.id))
            .collect();
    for &root in &live {
        for (i, desc) in
            segtree::collect_leaves_multi(&mut io, root, SPAN, std::slice::from_ref(&(0..SPAN)))
                .expect("walk a live tree")
        {
            if walked.get(&i) == Some(&desc.id) {
                walked.remove(&i);
            }
        }
    }
    let full_walks = io.take_cost();
    let dead = segtree::collect_dead_leaves(&mut io, &[victim], &live, SPAN).expect("descent");
    let joint = io.take_cost();

    let mut by_walks: Vec<ChunkId> = walked.into_values().collect();
    let mut by_descent: Vec<ChunkId> = dead.into_iter().map(|(_, desc)| desc.id).collect();
    by_walks.sort();
    by_descent.sort();
    assert_eq!(by_descent.len(), 4, "the victim's four rewritten chunks");
    assert_eq!(by_descent, by_walks, "both collectors find the same leaves");
    let cost = |rounds, nodes, distinct| GcCost {
        rounds,
        nodes,
        distinct,
    };
    assert_eq!(full_walks, cost(63, 1143, 310), "per-root full walks");
    assert_eq!(joint, cost(7, 120, 120), "one joint pruned descent");
}
