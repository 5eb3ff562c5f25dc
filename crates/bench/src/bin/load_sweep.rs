//! Wall-clock serving-mode load generator: hundreds of concurrent
//! boot/snapshot/GC clients hammering one repository deployment on a
//! [`bff_net::ThreadFabric`] — real OS threads, real locks, modelled
//! network/disk costs compressed 20× (`ThreadParams::serving`).
//!
//! The sweep replays the same workload under five configurations,
//! cumulatively enabling this PR's contention fixes, worst first:
//!
//! | run | fabric lanes | pattern board | chunk-cache consult | cluster probe |
//! |---|---|---|---|---|
//! | `naive-fabric` | one global lock held *across* every modelled delay | one exclusive mutex | one lock per chunk | write lock per key |
//! | `lane-fix`     | per-node lanes, waits outside the locks | one exclusive mutex | one lock per chunk | write lock per key |
//! | `board-fix`    | per-node lanes | 16 rwlock shards | one lock per chunk | write lock per key |
//! | `+cache-fix`   | per-node lanes | 16 rwlock shards | one lock per read | write lock per key |
//! | `all-fixes`    | per-node lanes | 16 rwlock shards | one lock per read | one read lock per batch |
//!
//! Every configuration is logically identical — the coarse modes are
//! the pre-fix code paths kept behind `ThreadParams::coarse_lanes` and
//! the `BlobConfig::coarse_*` toggles — so throughput differences are
//! pure locking discipline. The dominant fix by far is the fabric
//! lane fix (don't hold the lane lock across the modelled delay: the
//! fabric-layer twin of the store's "locks are never held across
//! fabric calls" invariant). The store-lock fixes contribute lower
//! lock-handoff latency; on many-core runners they also add wall-clock
//! throughput, while on a single-core runner they show up in the
//! contention counters and p50 boot latency instead.
//!
//! The workload is rotating-snapshot serving (the paper's
//! multideployment + multisnapshotting storm, §5): every client boots
//! the *latest published snapshots*, not just the base image, so fresh
//! versions keep arriving — metadata fetches, pattern publishes and
//! dirty-chunk transfers never go quiet. On a fixed schedule clients
//! commit a partly-shared payload (cluster-dedup probes from different
//! nodes), publish the snapshot for others to boot, or terminate their
//! instance so snapshot GC interleaves with the boot storm.
//! Inter-arrival gaps are heavy-tailed (Pareto), so bursts and lulls
//! both occur.
//!
//! Reported per run: wall-clock boot throughput, p50/p99 boot latency,
//! and the per-lock contention counters ([`bff_blobseer::lockstat`]).
//! Emits `target/paper/load_sweep.{csv,json}` and
//! `target/paper/load_summary.json`, gated against the `BENCH_6.json`
//! floors by `bench_regression --loadgen-results`.
//!
//! `--transport direct|codec|socket|all` runs the transport axis
//! (`transport_summary.json`, gated against `BENCH_7.json`; `all` also
//! runs the single-client scatter-gather fixture and writes its exact
//! frames-per-round-trip counts to `pipeline_summary.json`, gated
//! against `BENCH_14.json`) and
//! `--durable mem|sync|group|all` the durability axis: the same storm
//! over the in-process socket transport with in-memory providers,
//! fsync-per-ack durable providers, and group-commit durable providers
//! (`durable_summary.json`, gated against `BENCH_9.json`).
//!
//! `--mini` shrinks the client count for CI smoke runs;
//! `BFF_LOADGEN_THREADS` pins the client count explicitly (CI uses it
//! so runner core counts don't change the workload).

use bff_bench::procs::ServerSpec;
use bff_bench::{f1, f3, output_dir, RunScale, Table};
use bff_blobseer::{
    BlobConfig, BlobId, BlobStore, BlobTopology, Client, LockContention, Placement, ServerState,
    TransportMode, Version,
};
use bff_cloud::backend::ImageBackend;
use bff_cloud::middleware::Cloud;
use bff_cloud::params::Calibration;
use bff_cloud::vm::vm_write_payload;
use bff_data::Payload;
use bff_net::transport::{
    Role, RouteKey, RouteTable, SocketTransport, Transport, WireError, WireStats,
};
use bff_net::{Fabric, LocalFabric, NodeId, ThreadFabric, ThreadParams};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NODES: u32 = 8;
const IMG: u64 = 2 << 20;
const CHUNK: u64 = 64 << 10;
/// Boot reads issue one `read_multi` per this many bytes (4 chunks) —
/// guest-sized requests, so each boot crosses the board/cache locks
/// many times, like the real FUSE read path would.
const BOOT_STRIDE: u64 = 256 << 10;
/// Offset of the contextualization write.
const STATE_OFFSET: u64 = 1 << 20;
/// The shared part of each commit — identical bytes from every client
/// at the same round, so the cluster dedup index gets probed from
/// different nodes concurrently.
const SHARED_BYTES: u64 = 128 << 10;
/// The private part — unique per client, so GC has bytes to reclaim.
const PRIV_BYTES: u64 = 64 << 10;

/// Boots per client thread.
const BOOTS: usize = 6;

/// How many recently published snapshots stay bootable.
const ROTATION: usize = 32;

/// Heavy-tailed inter-arrival gaps: Pareto(alpha) scaled to `BASE_US`,
/// capped so one unlucky draw cannot stall a worker for the whole run.
const ARRIVAL_BASE_US: u64 = 40;
const ARRIVAL_CAP_US: u64 = 4_000;
const PARETO_ALPHA: f64 = 1.5;

/// Deterministic xorshift64* — no rand dependency, same arrival pattern
/// every run so the five configurations replay identical schedules.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    fn pareto_us(&mut self) -> u64 {
        let draw = ARRIVAL_BASE_US as f64 * self.unit().powf(-1.0 / PARETO_ALPHA);
        (draw as u64).min(ARRIVAL_CAP_US)
    }
}

fn client_threads(scale: RunScale) -> usize {
    if let Ok(v) = std::env::var("BFF_LOADGEN_THREADS") {
        return v.parse().expect("BFF_LOADGEN_THREADS must be an integer");
    }
    match scale {
        RunScale::Paper => 192,
        RunScale::Mini => 64,
    }
}

#[derive(Clone, Copy)]
struct Discipline {
    label: &'static str,
    coarse_lanes: bool,
    coarse_board: bool,
    coarse_cache: bool,
    coarse_cluster: bool,
}

const DISCIPLINES: &[Discipline] = &[
    Discipline {
        label: "naive-fabric",
        coarse_lanes: true,
        coarse_board: true,
        coarse_cache: true,
        coarse_cluster: true,
    },
    Discipline {
        label: "lane-fix",
        coarse_lanes: false,
        coarse_board: true,
        coarse_cache: true,
        coarse_cluster: true,
    },
    Discipline {
        label: "board-fix",
        coarse_lanes: false,
        coarse_board: false,
        coarse_cache: true,
        coarse_cluster: true,
    },
    Discipline {
        label: "+cache-fix",
        coarse_lanes: false,
        coarse_board: false,
        coarse_cache: false,
        coarse_cluster: true,
    },
    Discipline {
        label: "all-fixes",
        coarse_lanes: false,
        coarse_board: false,
        coarse_cache: false,
        coarse_cluster: false,
    },
];

struct RunOutcome {
    boots: usize,
    wall_s: f64,
    boots_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    board: LockContention,
    cluster: LockContention,
    cache: LockContention,
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    assert!(!sorted_us.is_empty());
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

/// The latest published snapshots, bootable by any client. Never holds
/// a GC-doomed lineage: clients that will terminate their instance do
/// not publish it here, so a rotation entry is never deleted.
struct Rotation {
    recent: Mutex<Vec<(BlobId, Version)>>,
}

impl Rotation {
    fn new(base: (BlobId, Version)) -> Self {
        Self {
            recent: Mutex::new(vec![base]),
        }
    }

    fn pick(&self, rng: &mut Rng) -> (BlobId, Version) {
        let recent = self.recent.lock();
        recent[(rng.next() % recent.len() as u64) as usize]
    }

    fn publish(&self, snap: (BlobId, Version)) {
        let mut recent = self.recent.lock();
        if recent.len() == ROTATION {
            recent.remove(1); // keep the base at slot 0 forever
        }
        recent.push(snap);
    }
}

/// One client's life: `BOOTS` deploy→boot-read cycles against rotating
/// snapshots, with heavy-tailed gaps; every third boot commits a
/// partly-shared payload and snapshots, then either publishes the
/// snapshot for other clients to boot or terminates the instance so
/// snapshot GC interleaves with the boot storm. Returns per-boot wall
/// latencies (deploy + full image read).
fn run_client(cloud: &Cloud, rotation: &Rotation, worker: usize) -> Vec<u64> {
    let node = NodeId((worker % NODES as usize) as u32);
    let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15 ^ worker as u64);
    let mut latencies = Vec::with_capacity(BOOTS);
    for boot in 0..BOOTS {
        std::thread::sleep(std::time::Duration::from_micros(rng.pareto_us()));
        let (blob, version) = rotation.pick(&mut rng);
        let started = Instant::now();
        let mut handle = cloud.add_instance(blob, version, node).expect("deploy");
        let mut off = 0;
        while off < IMG {
            handle
                .backend
                .read(off..(off + BOOT_STRIDE).min(IMG))
                .expect("boot read");
            off += BOOT_STRIDE;
        }
        latencies.push(started.elapsed().as_micros() as u64);
        if boot % 3 == 1 {
            // Identical bytes from every client this round (cluster
            // dedup probes from different nodes) plus a private chunk
            // (bytes GC can actually reclaim).
            let shared = vm_write_payload(1_000 + boot as u64, 0, SHARED_BYTES);
            handle.backend.write(STATE_OFFSET, shared).expect("ctx");
            let private = vm_write_payload(7_919 * worker as u64 + boot as u64, 0, PRIV_BYTES);
            handle
                .backend
                .write(STATE_OFFSET + SHARED_BYTES, private)
                .expect("private write");
            let snap = handle.snapshot().expect("snapshot");
            if boot % 6 == 1 {
                // A doomed lineage: never published to the rotation.
                cloud.terminate_instance(handle).expect("terminate");
            } else {
                rotation.publish(snap);
            }
        }
    }
    latencies
}

fn run_discipline(d: Discipline, workers: usize) -> RunOutcome {
    let mut params = ThreadParams::serving(NODES as usize + 1);
    params.coarse_lanes = d.coarse_lanes;
    let fabric = ThreadFabric::new(params);
    let compute: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let cloud = Cloud::new(
        fabric.clone() as Arc<dyn Fabric>,
        compute.clone(),
        NodeId(NODES),
        bff_blobseer::BlobConfig {
            chunk_size: CHUNK,
            // Pinned, not inherited from the BFF_* environment: the
            // BENCH_6 numbers record the full pipeline (dedup + cluster
            // index + prefetch) under every locking discipline.
            dedup: true,
            cluster_dedup: true,
            prefetch: true,
            coarse_board_lock: d.coarse_board,
            coarse_cache_locks: d.coarse_cache,
            coarse_cluster_probe: d.coarse_cluster,
            ..Default::default()
        },
        Calibration::default(),
    );
    let base = cloud
        .upload_image(Payload::synth(0x5EED, 0, IMG))
        .expect("upload");
    let rotation = Rotation::new(base);

    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(workers * BOOTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let cloud = &cloud;
                let rotation = &rotation;
                scope.spawn(move || run_client(cloud, rotation, worker))
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
    });
    // Detached prefetch work may still be in flight: drain it before
    // stopping the clock or snapshotting any counters.
    fabric.quiesce();
    let wall_s = started.elapsed().as_secs_f64();

    latencies.sort_unstable();
    let metrics = cloud.metrics();
    let cache = compute
        .iter()
        .map(|&n| cloud.node_context(n).chunk_cache_contention())
        .fold(LockContention::default(), |acc, c| LockContention {
            acquires: acc.acquires + c.acquires,
            contended: acc.contended + c.contended,
        });
    RunOutcome {
        boots: latencies.len(),
        wall_s,
        boots_per_s: latencies.len() as f64 / wall_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        board: metrics.board_contention,
        cluster: metrics.cluster_contention,
        cache,
    }
}

// ---------------------------------------------------------------------------
// Transport sweep (`--transport direct|codec|socket|all`)
// ---------------------------------------------------------------------------

/// Spec for one `blob_server` child of this sweep's cluster: all the
/// feature toggles on, no data directory (transport numbers measure the
/// wire, not the disk).
fn server_spec(roles: &str) -> ServerSpec {
    let mut spec = ServerSpec::new(roles, NODES, CHUNK);
    spec.dedup = true;
    spec.cluster_dedup = true;
    spec.prefetch = true;
    spec
}

struct TransportOutcome {
    mode: TransportMode,
    boots: usize,
    wall_s: f64,
    boots_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    wire: WireStats,
}

impl TransportOutcome {
    fn wire_mb(&self) -> f64 {
        (self.wire.bytes_sent + self.wire.bytes_received) as f64 / 1e6
    }
}

/// The all-fixes workload of [`run_discipline`] under one transport.
/// Socket mode runs the server roles as two real child processes (one
/// hosting the managers, board and metadata, one the providers) and
/// attaches over loopback TCP; the server-side contention counters live
/// in those processes, so only wall-clock numbers and wire traffic are
/// reported for transports.
fn run_transport(mode: TransportMode, workers: usize) -> TransportOutcome {
    let mut params = ThreadParams::serving(NODES as usize + 1);
    params.coarse_lanes = false;
    let fabric = ThreadFabric::new(params);
    let compute: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let cfg = bff_blobseer::BlobConfig {
        chunk_size: CHUNK,
        dedup: true,
        cluster_dedup: true,
        prefetch: true,
        transport: mode,
        ..Default::default()
    };
    let mut servers = Vec::new();
    let cloud = if mode == TransportMode::Socket {
        let (managers, mut addrs) = server_spec("vm,pm,board,cluster,meta").spawn();
        let (providers, prov_addrs) = server_spec("provider").spawn();
        addrs.extend(prov_addrs);
        servers.push(managers);
        servers.push(providers);
        let table = RouteTable::from_roles(&addrs).expect("every role announced");
        let topo = BlobTopology::colocated(&compute, NodeId(NODES));
        let store = BlobStore::remote(
            cfg,
            topo,
            fabric.clone() as Arc<dyn Fabric>,
            Arc::new(SocketTransport::new(table)),
        );
        Cloud::with_store(
            store,
            fabric.clone() as Arc<dyn Fabric>,
            compute,
            NodeId(NODES),
            Calibration::default(),
        )
    } else {
        Cloud::new(
            fabric.clone() as Arc<dyn Fabric>,
            compute,
            NodeId(NODES),
            cfg,
            Calibration::default(),
        )
    };

    let base = cloud
        .upload_image(Payload::synth(0x5EED, 0, IMG))
        .expect("upload");
    let rotation = Rotation::new(base);
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(workers * BOOTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let cloud = &cloud;
                let rotation = &rotation;
                scope.spawn(move || run_client(cloud, rotation, worker))
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
    });
    fabric.quiesce();
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let wire = cloud.store().wire_stats();
    drop(cloud);
    drop(servers); // EOF on stdin, then reap
    TransportOutcome {
        mode,
        boots: latencies.len(),
        wall_s,
        boots_per_s: latencies.len() as f64 / wall_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        wire,
    }
}

/// `--transport <mode>` runs the rotating-snapshot workload under one
/// transport (CI smoke); `--transport all` compares the three and emits
/// `transport_summary.json` for the `BENCH_7.json` gate.
fn run_transport_sweep(which: &str, workers: usize) {
    let modes: Vec<TransportMode> = if which == "all" {
        vec![
            TransportMode::Direct,
            TransportMode::Codec,
            TransportMode::Socket,
        ]
    } else {
        vec![TransportMode::parse(which)
            .unwrap_or_else(|| panic!("--transport takes direct|codec|socket|all, got {which:?}"))]
    };
    println!(
        "load_sweep transports ({which}): {workers} client threads x {BOOTS} boots \
         over {NODES} nodes, all-fixes locking"
    );
    let mut outcomes = Vec::with_capacity(modes.len());
    for mode in modes {
        let out = run_transport(mode, workers);
        println!(
            "  {:<7} {:>4} boots in {:.2}s -> {:.1} boots/s \
             (p50 {:.2} ms, p99 {:.2} ms; wire {} calls, {:.3} MB)",
            mode.name(),
            out.boots,
            out.wall_s,
            out.boots_per_s,
            out.p50_ms,
            out.p99_ms,
            out.wire.calls,
            out.wire_mb(),
        );
        outcomes.push(out);
    }
    if which != "all" {
        return;
    }

    let mut t = Table::new(
        "transport_sweep",
        &[
            "transport",
            "boots",
            "wall_s",
            "boots_per_s",
            "p50_ms",
            "p99_ms",
            "wire_calls",
            "wire_mb",
        ],
    );
    for out in &outcomes {
        t.row(&[
            &out.mode.name(),
            &out.boots,
            &f3(out.wall_s),
            &f1(out.boots_per_s),
            &f3(out.p50_ms),
            &f3(out.p99_ms),
            &out.wire.calls,
            &f3(out.wire_mb()),
        ]);
    }
    t.emit();

    let direct = &outcomes[0];
    let codec = &outcomes[1];
    let socket = &outcomes[2];
    let retention = codec.boots_per_s / direct.boots_per_s.max(1e-9);
    println!(
        "\ncodec keeps {:.0}% of direct throughput ({:.1} vs {:.1} boots/s); \
         the 2-process socket cluster serves {:.1} boots/s (p99 {:.2} ms) \
         over {:.3} MB on the wire",
        100.0 * retention,
        codec.boots_per_s,
        direct.boots_per_s,
        socket.boots_per_s,
        socket.p99_ms,
        socket.wire_mb(),
    );

    // Flat summary for the CI perf gate (compared against BENCH_7.json).
    // Only the codec/direct ratio is gated: both run in-process, so the
    // ratio isolates pure encode/decode overhead from runner speed. The
    // socket numbers ride along as absolutes for the artifact trail.
    let mut summary = String::from("{\n");
    let _ = writeln!(summary, "  \"transport_codec_retention\": {retention:.3},");
    let _ = writeln!(
        summary,
        "  \"transport_direct_boots_per_s\": {:.3},",
        direct.boots_per_s
    );
    let _ = writeln!(
        summary,
        "  \"transport_codec_boots_per_s\": {:.3},",
        codec.boots_per_s
    );
    let _ = writeln!(
        summary,
        "  \"transport_socket_boots_per_s\": {:.3},",
        socket.boots_per_s
    );
    let _ = writeln!(
        summary,
        "  \"transport_socket_p50_ms\": {:.3},",
        socket.p50_ms
    );
    let _ = writeln!(
        summary,
        "  \"transport_socket_p99_ms\": {:.3},",
        socket.p99_ms
    );
    let _ = writeln!(
        summary,
        "  \"transport_socket_wire_calls\": {},",
        socket.wire.calls
    );
    let _ = writeln!(
        summary,
        "  \"transport_socket_wire_mb\": {:.3},",
        socket.wire_mb()
    );
    let _ = writeln!(summary, "  \"transport_threads\": {workers}");
    summary.push('}');
    summary.push('\n');
    let path = output_dir().join("transport_summary.json");
    std::fs::write(&path, summary).expect("write transport summary");
    println!("[written {}]", path.display());
    run_pipeline_fixture();
}

/// Counts, per server role, the frames a client sends and the exchanges
/// it waits for, and forwards both call forms untouched.
struct RoleCounting {
    inner: SocketTransport,
    frames: [AtomicU64; Role::ALL.len()],
    round_trips: [AtomicU64; Role::ALL.len()],
}

impl RoleCounting {
    /// `Role::ALL` lists the roles in declaration order.
    fn slot(role: Role) -> usize {
        role as usize
    }

    /// `(frames, round trips)` addressed to `role` so far.
    fn seen(&self, role: Role) -> (u64, u64) {
        let at = Self::slot(role);
        (
            self.frames[at].load(Ordering::Relaxed),
            self.round_trips[at].load(Ordering::Relaxed),
        )
    }
}

impl Transport for RoleCounting {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let at = Self::slot(route.role());
        self.frames[at].fetch_add(1, Ordering::Relaxed);
        self.round_trips[at].fetch_add(1, Ordering::Relaxed);
        self.inner.call(route, frame)
    }

    fn call_many(&self, calls: &[(RouteKey, &[u8])]) -> Vec<Result<Vec<u8>, WireError>> {
        let mut waited = [false; Role::ALL.len()];
        for (route, _) in calls {
            let at = Self::slot(route.role());
            self.frames[at].fetch_add(1, Ordering::Relaxed);
            if !std::mem::replace(&mut waited[at], true) {
                self.round_trips[at].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.call_many(calls)
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

/// The scatter-gather fixture behind `BENCH_14.json`: one client, cold
/// on its node, boots a 64-chunk image in sixteen 4-chunk reads over an
/// in-process socket store with 4 providers and 4 metadata shards
/// (`LocalFabric`, dedup and prefetch off, so every frame is a boot
/// frame). Round-robin placement puts the four chunks of each read on
/// four providers, so the sequential path waited four times per read;
/// frames ÷ round trips is how many of those waits one step now covers.
/// One thread, fixed schedule: the counts repeat exactly.
///
/// The fixture then takes the step behind `BENCH_15.json`: another node
/// changes chunks 32–34 and snapshots (CLONE + COMMIT), and the node
/// that just booted the base boots that snapshot through a fresh handle,
/// in the same sixteen reads. Its tree shares all but ten nodes with
/// the base's, which the node has, so the boot's metadata frames are
/// the snapshot's diff — against the 103 of the cold boot.
fn run_pipeline_fixture() {
    const PROVIDERS: u32 = 4;
    let fabric = LocalFabric::new(PROVIDERS as usize + 1);
    let compute: Vec<NodeId> = (0..PROVIDERS).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(PROVIDERS));
    let cfg = BlobConfig {
        chunk_size: CHUNK,
        dedup: false,
        cluster_dedup: false,
        prefetch: false,
        ..Default::default()
    };
    let state = Arc::new(ServerState::new(&cfg, &topo, Placement::RoundRobin));
    let listeners = state.serve(&Role::ALL).expect("bind loopback listeners");
    let addrs: HashMap<Role, _> = listeners.iter().map(|(r, s)| (*r, s.addr())).collect();
    let transport = Arc::new(RoleCounting {
        inner: SocketTransport::new(RouteTable::from_roles(&addrs).expect("every role served")),
        frames: Default::default(),
        round_trips: Default::default(),
    });
    let store = BlobStore::remote(
        cfg,
        topo,
        fabric as Arc<dyn Fabric>,
        transport.clone() as Arc<dyn Transport>,
    );
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
    let delta = |role, (frames0, trips0): (u64, u64)| {
        let (frames, trips) = transport.seen(role);
        (frames - frames0, trips - trips0)
    };
    let (prov_frames, prov_trips) = delta(Role::Provider, before.0);
    let (meta_frames, meta_trips) = delta(Role::Meta, before.1);
    let levels = reader.meta_fetch_calls();
    assert!(
        meta_trips <= levels,
        "a descent level waits at most once ({meta_trips} waits, {levels} levels)"
    );
    let per_trip = |frames: u64, trips: u64| frames as f64 / trips.max(1) as f64;
    println!(
        "\npipeline fixture (cold 64-chunk boot, 16 reads, 4 providers, 4 shards): \
         provider {prov_frames} frames in {prov_trips} round trips ({:.2} per wait), \
         metadata {meta_frames} frames in {meta_trips} round trips ({:.2} per wait) \
         over {levels} descent levels",
        per_trip(prov_frames, prov_trips),
        per_trip(meta_frames, meta_trips),
    );

    // The diff boot: commit from node 2, boot on node 1 again.
    let committer = Client::new(Arc::clone(&store), NodeId(2));
    let snapshot = committer.clone_blob(blob, version).expect("clone");
    let patch = Payload::synth(0xB15, 0, 3 * CHUNK);
    let committed = committer
        .write(snapshot, Version(1), 32 * CHUNK, patch.clone())
        .expect("commit");
    let changed = base.overwrite(32 * CHUNK, patch);
    let reader = Client::new(store, NodeId(1));
    let before = (transport.seen(Role::Meta), transport.seen(Role::Vm));
    reader.snapshot_size(blob, version).expect("open base");
    let (known_vm_frames, _) = delta(Role::Vm, before.1);
    reader.snapshot_size(snapshot, committed).expect("open");
    boot(&reader, snapshot, committed, &changed);
    let (diff_meta_frames, _) = delta(Role::Meta, before.0);
    let (diff_vm_frames, _) = delta(Role::Vm, before.1);
    assert_eq!(known_vm_frames, 0, "opening a known version asks nobody");
    assert!(
        diff_vm_frames <= 1,
        "a new version costs one version-manager frame ({diff_vm_frames})"
    );
    println!(
        "diff boot (chunks 32-34 changed on another node, same 16 reads, fresh handle): \
         metadata {diff_meta_frames} frames against {meta_frames} cold, \
         version manager {diff_vm_frames} frames ({known_vm_frames} for the known base)"
    );

    let mut summary = String::from("{\n");
    let _ = writeln!(summary, "  \"cold_boot_meta_frames\": {meta_frames},");
    let _ = writeln!(summary, "  \"diff_boot_meta_frames\": {diff_meta_frames},");
    let _ = writeln!(summary, "  \"diff_boot_vm_frames\": {diff_vm_frames},");
    let _ = writeln!(
        summary,
        "  \"diff_boot_meta_reduction\": {:.3},",
        per_trip(meta_frames, diff_meta_frames)
    );
    let _ = writeln!(
        summary,
        "  \"pipeline_provider_frames_per_round_trip\": {:.3},",
        per_trip(prov_frames, prov_trips)
    );
    let _ = writeln!(
        summary,
        "  \"pipeline_meta_frames_per_round_trip\": {:.3},",
        per_trip(meta_frames, meta_trips)
    );
    let _ = writeln!(summary, "  \"pipeline_provider_frames\": {prov_frames},");
    let _ = writeln!(
        summary,
        "  \"pipeline_provider_round_trips\": {prov_trips},"
    );
    let _ = writeln!(summary, "  \"pipeline_meta_frames\": {meta_frames},");
    let _ = writeln!(summary, "  \"pipeline_meta_round_trips\": {meta_trips},");
    let _ = writeln!(summary, "  \"pipeline_meta_descent_levels\": {levels}");
    summary.push_str("}\n");
    let path = output_dir().join("pipeline_summary.json");
    std::fs::write(&path, summary).expect("write pipeline summary");
    println!("[written {}]", path.display());
}

// ---------------------------------------------------------------------------
// Durable sweep (`--durable mem|sync|group|all`)
// ---------------------------------------------------------------------------

/// One durability configuration of the durable-socket axis. All three
/// run the same rotating-snapshot storm over the in-process socket
/// transport (six loopback listeners, framed TCP), so the only variable
/// is what happens between an append and its ack.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DurableMode {
    /// In-memory providers, no journal: the ceiling the durable runs
    /// are measured against.
    Mem,
    /// Durable, fsync-per-ack: every acked mutation pays its own
    /// `fdatasync` under the shard/journal lock (the pre-group-commit
    /// discipline, kept measurable as the baseline).
    Sync,
    /// Durable, group commit: concurrent committers share one leader's
    /// `fdatasync` (`BFF_GROUP_COMMIT` semantics, forced on here).
    Group,
}

impl DurableMode {
    const ALL: [DurableMode; 3] = [DurableMode::Mem, DurableMode::Sync, DurableMode::Group];

    fn name(self) -> &'static str {
        match self {
            DurableMode::Mem => "mem-socket",
            DurableMode::Sync => "per-ack",
            DurableMode::Group => "group",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "mem" => Some(DurableMode::Mem),
            "sync" => Some(DurableMode::Sync),
            "group" => Some(DurableMode::Group),
            _ => None,
        }
    }
}

struct DurableOutcome {
    mode: DurableMode,
    boots: usize,
    wall_s: f64,
    boots_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    durability: bff_blobseer::DurabilityCounters,
}

/// The rotating-snapshot storm under one durability configuration,
/// in-process socket transport throughout. Durable runs recover from
/// (and journal into) a scratch directory that is wiped before and
/// after, so every run starts cold.
fn run_durable(mode: DurableMode, workers: usize) -> DurableOutcome {
    let mut params = ThreadParams::serving(NODES as usize + 1);
    params.coarse_lanes = false;
    let fabric = ThreadFabric::new(params);
    let compute: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let cfg = bff_blobseer::BlobConfig {
        chunk_size: CHUNK,
        dedup: true,
        cluster_dedup: true,
        prefetch: true,
        transport: TransportMode::Socket,
        group_commit: mode == DurableMode::Group,
        ..Default::default()
    };
    let topo = BlobTopology::colocated(&compute, NodeId(NODES));
    let scratch = std::env::temp_dir().join(format!(
        "bff-load-durable-{}-{}",
        std::process::id(),
        mode.name()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let cloud = if mode == DurableMode::Mem {
        Cloud::new(
            fabric.clone() as Arc<dyn Fabric>,
            compute,
            NodeId(NODES),
            cfg,
            Calibration::default(),
        )
    } else {
        std::fs::create_dir_all(&scratch).expect("durable scratch dir");
        let (store, _report) = BlobStore::durable(
            cfg,
            topo,
            fabric.clone() as Arc<dyn Fabric>,
            bff_blobseer::Placement::RoundRobin,
            &scratch,
        )
        .expect("durable deployment");
        Cloud::with_store(
            store,
            fabric.clone() as Arc<dyn Fabric>,
            compute,
            NodeId(NODES),
            Calibration::default(),
        )
    };

    let base = cloud
        .upload_image(Payload::synth(0x5EED, 0, IMG))
        .expect("upload");
    let rotation = Rotation::new(base);
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(workers * BOOTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let cloud = &cloud;
                let rotation = &rotation;
                scope.spawn(move || run_client(cloud, rotation, worker))
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
    });
    fabric.quiesce();
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let durability = cloud.store().durability();
    drop(cloud);
    let _ = std::fs::remove_dir_all(&scratch);
    DurableOutcome {
        mode,
        boots: latencies.len(),
        wall_s,
        boots_per_s: latencies.len() as f64 / wall_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        durability,
    }
}

/// `--durable <mode>` runs the storm under one durability configuration
/// (CI smoke); `--durable all` compares the three and emits
/// `durable_summary.json` for the `BENCH_9.json` gate.
fn run_durable_sweep(which: &str, workers: usize) {
    let modes: Vec<DurableMode> = if which == "all" {
        DurableMode::ALL.to_vec()
    } else {
        vec![DurableMode::parse(which)
            .unwrap_or_else(|| panic!("--durable takes mem|sync|group|all, got {which:?}"))]
    };
    println!(
        "load_sweep durable ({which}): {workers} client threads x {BOOTS} boots \
         over {NODES} nodes, in-process socket transport"
    );
    let mut outcomes = Vec::with_capacity(modes.len());
    for mode in modes {
        let out = run_durable(mode, workers);
        println!(
            "  {:<10} {:>4} boots in {:.2}s -> {:.1} boots/s \
             (p50 {:.2} ms, p99 {:.2} ms; {} fsyncs / {} acks = {:.2} acks/fsync, \
             max wait {} us)",
            out.mode.name(),
            out.boots,
            out.wall_s,
            out.boots_per_s,
            out.p50_ms,
            out.p99_ms,
            out.durability.fsyncs,
            out.durability.acks,
            out.durability.acks_per_fsync,
            out.durability.max_wait_us,
        );
        outcomes.push(out);
    }
    if which != "all" {
        return;
    }

    let mut t = Table::new(
        "durable_sweep",
        &[
            "mode",
            "boots",
            "wall_s",
            "boots_per_s",
            "p50_ms",
            "p99_ms",
            "fsyncs",
            "acks",
            "acks_per_fsync",
            "max_wait_us",
        ],
    );
    for out in &outcomes {
        t.row(&[
            &out.mode.name(),
            &out.boots,
            &f3(out.wall_s),
            &f1(out.boots_per_s),
            &f3(out.p50_ms),
            &f3(out.p99_ms),
            &out.durability.fsyncs,
            &out.durability.acks,
            &f3(out.durability.acks_per_fsync),
            &out.durability.max_wait_us,
        ]);
    }
    t.emit();

    let mem = &outcomes[0];
    let sync = &outcomes[1];
    let group = &outcomes[2];
    let retention = group.boots_per_s / mem.boots_per_s.max(1e-9);
    let vs_sync = group.boots_per_s / sync.boots_per_s.max(1e-9);
    println!(
        "\ngroup commit keeps {:.0}% of the non-durable socket throughput \
         ({:.1} vs {:.1} boots/s) and is {:.2}x the per-ack baseline \
         ({:.1} boots/s); {:.2} acks per fsync vs {:.2} per-ack",
        100.0 * retention,
        group.boots_per_s,
        mem.boots_per_s,
        vs_sync,
        sync.boots_per_s,
        group.durability.acks_per_fsync,
        sync.durability.acks_per_fsync,
    );

    // Flat summary for the CI perf gate (compared against BENCH_9.json).
    // Gated: durable_retention (group-commit durable socket vs
    // non-durable socket — both in-process, so the ratio isolates the
    // durability cost from runner speed) and acks_per_fsync (> 1.0 is
    // the batching claim itself). The rest rides along for the artifact
    // trail.
    let mut summary = String::from("{\n");
    let _ = writeln!(summary, "  \"durable_retention\": {retention:.3},");
    let _ = writeln!(
        summary,
        "  \"acks_per_fsync\": {:.3},",
        group.durability.acks_per_fsync
    );
    let _ = writeln!(
        summary,
        "  \"durable_group_boots_per_s\": {:.3},",
        group.boots_per_s
    );
    let _ = writeln!(
        summary,
        "  \"durable_sync_boots_per_s\": {:.3},",
        sync.boots_per_s
    );
    let _ = writeln!(
        summary,
        "  \"durable_mem_boots_per_s\": {:.3},",
        mem.boots_per_s
    );
    let _ = writeln!(
        summary,
        "  \"durable_group_speedup_vs_sync\": {vs_sync:.3},"
    );
    let _ = writeln!(
        summary,
        "  \"durable_group_fsyncs\": {},",
        group.durability.fsyncs
    );
    let _ = writeln!(
        summary,
        "  \"durable_group_acks\": {},",
        group.durability.acks
    );
    let _ = writeln!(
        summary,
        "  \"durable_group_max_wait_us\": {},",
        group.durability.max_wait_us
    );
    let _ = writeln!(
        summary,
        "  \"durable_sync_acks_per_fsync\": {:.3},",
        sync.durability.acks_per_fsync
    );
    let _ = writeln!(summary, "  \"durable_group_p50_ms\": {:.3},", group.p50_ms);
    let _ = writeln!(summary, "  \"durable_group_p99_ms\": {:.3},", group.p99_ms);
    let _ = writeln!(summary, "  \"durable_threads\": {workers}");
    summary.push('}');
    summary.push('\n');
    let path = output_dir().join("durable_summary.json");
    std::fs::write(&path, summary).expect("write durable summary");
    println!("[written {}]", path.display());
}

fn durable_arg() -> Option<String> {
    let mut it = std::env::args();
    while let Some(a) = it.next() {
        if a == "--durable" {
            return Some(
                it.next()
                    .expect("--durable needs a mode (mem|sync|group|all)"),
            );
        }
    }
    None
}

fn transport_arg() -> Option<String> {
    let mut it = std::env::args();
    while let Some(a) = it.next() {
        if a == "--transport" {
            return Some(
                it.next()
                    .expect("--transport needs a mode (direct|codec|socket|all)"),
            );
        }
    }
    None
}

fn main() {
    let scale = RunScale::from_args();
    let workers = client_threads(scale);
    if let Some(which) = transport_arg() {
        run_transport_sweep(&which, workers);
        return;
    }
    if let Some(which) = durable_arg() {
        run_durable_sweep(&which, workers);
        return;
    }
    println!(
        "load_sweep: {workers} client threads x {BOOTS} boots over {NODES} nodes \
         (ThreadFabric serving profile, 20x time compression)"
    );

    let mut outcomes = Vec::with_capacity(DISCIPLINES.len());
    for &d in DISCIPLINES {
        let out = run_discipline(d, workers);
        println!(
            "  {:<12} {:>4} boots in {:.2}s -> {:.1} boots/s \
             (p50 {:.2} ms, p99 {:.2} ms; contended board {}/{} cache {}/{} cluster {}/{})",
            d.label,
            out.boots,
            out.wall_s,
            out.boots_per_s,
            out.p50_ms,
            out.p99_ms,
            out.board.contended,
            out.board.acquires,
            out.cache.contended,
            out.cache.acquires,
            out.cluster.contended,
            out.cluster.acquires,
        );
        outcomes.push((d, out));
    }

    let mut t = Table::new(
        "load_sweep",
        &[
            "locking",
            "boots",
            "wall_s",
            "boots_per_s",
            "p50_ms",
            "p99_ms",
            "board_contended",
            "board_frac",
            "cluster_contended",
            "cluster_frac",
            "cache_contended",
            "cache_frac",
        ],
    );
    for (d, out) in &outcomes {
        t.row(&[
            &d.label,
            &out.boots,
            &f3(out.wall_s),
            &f1(out.boots_per_s),
            &f3(out.p50_ms),
            &f3(out.p99_ms),
            &out.board.contended,
            &f3(out.board.contended_frac()),
            &out.cluster.contended,
            &f3(out.cluster.contended_frac()),
            &out.cache.contended,
            &f3(out.cache.contended_frac()),
        ]);
    }
    t.emit();

    let naive = &outcomes[0].1;
    let lane = &outcomes[1].1;
    let board = &outcomes[2].1;
    let cache = &outcomes[3].1;
    let tuned = &outcomes[4].1;
    let boot_speedup = tuned.boots_per_s / naive.boots_per_s.max(1e-9);
    let p99_speedup = naive.p99_ms / tuned.p99_ms.max(1e-9);
    println!(
        "\ncontention fixes: {:.1} -> {:.1} boots/s ({boot_speedup:.2}x wall-clock \
         throughput); p99 boot latency {:.2} -> {:.2} ms ({p99_speedup:.2}x); \
         board {:.1}% -> {:.1}% contended, cache {:.1}% -> {:.1}%, cluster {:.1}% -> {:.1}%",
        naive.boots_per_s,
        tuned.boots_per_s,
        naive.p99_ms,
        tuned.p99_ms,
        100.0 * naive.board.contended_frac(),
        100.0 * tuned.board.contended_frac(),
        100.0 * naive.cache.contended_frac(),
        100.0 * tuned.cache.contended_frac(),
        100.0 * naive.cluster.contended_frac(),
        100.0 * tuned.cluster.contended_frac(),
    );

    // Flat summary for the CI perf gate (compared against BENCH_6.json).
    let mut summary = String::from("{\n");
    let _ = writeln!(summary, "  \"loadgen_boot_speedup\": {boot_speedup:.3},");
    let _ = writeln!(summary, "  \"loadgen_p99_speedup\": {p99_speedup:.3},");
    let _ = writeln!(
        summary,
        "  \"loadgen_lane_fix_speedup\": {:.3},",
        lane.boots_per_s / naive.boots_per_s.max(1e-9)
    );
    let _ = writeln!(
        summary,
        "  \"loadgen_board_fix_speedup\": {:.3},",
        board.boots_per_s / lane.boots_per_s.max(1e-9)
    );
    let _ = writeln!(
        summary,
        "  \"loadgen_cache_fix_speedup\": {:.3},",
        cache.boots_per_s / board.boots_per_s.max(1e-9)
    );
    let _ = writeln!(
        summary,
        "  \"loadgen_cluster_fix_speedup\": {:.3},",
        tuned.boots_per_s / cache.boots_per_s.max(1e-9)
    );
    let _ = writeln!(
        summary,
        "  \"loadgen_boots_per_s\": {:.3},",
        tuned.boots_per_s
    );
    let _ = writeln!(summary, "  \"loadgen_p50_ms\": {:.3},", tuned.p50_ms);
    let _ = writeln!(summary, "  \"loadgen_p99_ms\": {:.3},", tuned.p99_ms);
    let _ = writeln!(
        summary,
        "  \"loadgen_board_contended_frac\": {:.4},",
        tuned.board.contended_frac()
    );
    let _ = writeln!(
        summary,
        "  \"loadgen_cache_contended_frac\": {:.4},",
        tuned.cache.contended_frac()
    );
    let _ = writeln!(
        summary,
        "  \"loadgen_cluster_contended_frac\": {:.4},",
        tuned.cluster.contended_frac()
    );
    let _ = writeln!(summary, "  \"loadgen_threads\": {workers},");
    let _ = writeln!(summary, "  \"loadgen_boots\": {}", tuned.boots);
    summary.push('}');
    summary.push('\n');
    let path = output_dir().join("load_summary.json");
    std::fs::write(&path, summary).expect("write load summary");
    println!("[written {}]", path.display());
}
