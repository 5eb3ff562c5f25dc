//! The rotating-snapshot storm (the paper's §5 scenario), once: many
//! clients boot the latest published snapshots while others commit,
//! snapshot and terminate, so metadata fetches, pattern publishes,
//! dirty-chunk transfers and snapshot GC never go quiet.
//!
//! `load_sweep` runs it closed-loop under a table of deployments
//! ([`deploy`] + [`run`]); `recovery_sweep` wraps [`round`] in its own
//! retry loop while it kills and respawns the servers. The arrival
//! gaps and rotation picks are seeded per worker, so every deployment
//! replays the identical schedule.

use crate::procs::{ServerProc, ServerSpec};
use crate::{arg_value, output_dir, RunScale};
use bff_blobseer::{BlobConfig, BlobId, BlobStore, BlobTopology, Placement, Version};
use bff_cloud::backend::{BackendError, ImageBackend};
use bff_cloud::middleware::Cloud;
use bff_cloud::params::Calibration;
use bff_cloud::vm::vm_write_payload;
use bff_data::Payload;
use bff_net::transport::{RouteTable, SocketTransport, Transport};
use bff_net::{Fabric, LocalFabric, NodeId};
use parking_lot::Mutex;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunk size of every storm deployment.
pub const CHUNK: u64 = 64 << 10;
/// Boot reads issue one `read_multi` per this many bytes (4 chunks) —
/// guest-sized requests, so each boot crosses the board/cache locks
/// many times, like the real FUSE read path would.
const BOOT_STRIDE: u64 = 256 << 10;

/// Heavy-tailed inter-arrival gaps: Pareto(alpha) scaled to `BASE_US`,
/// capped so one unlucky draw cannot stall a worker for the whole run.
const ARRIVAL_BASE_US: u64 = 40;
const ARRIVAL_CAP_US: u64 = 4_000;
const PARETO_ALPHA: f64 = 1.5;

/// A snapshot, as the version manager names it.
pub type Snapshot = (BlobId, Version);

/// Deterministic xorshift64* — no rand dependency, same arrival pattern
/// every run so every deployment replays an identical schedule.
pub struct Rng(u64);

impl Rng {
    /// The generator of client `worker`.
    pub fn for_worker(worker: usize) -> Self {
        Rng((0x9E37_79B9_7F4A_7C15 ^ worker as u64) | 1)
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

/// The latest published snapshots, bootable by any client. Never holds
/// a GC-doomed lineage: a client that will terminate its instance does
/// not publish it here, so a rotation entry is never deleted.
pub struct Rotation {
    recent: Mutex<Vec<Snapshot>>,
    bound: usize,
}

impl Rotation {
    /// A rotation of at most `bound` snapshots, `base` always among them.
    pub fn new(base: Snapshot, bound: usize) -> Self {
        assert!(bound >= 2, "room for the base and one snapshot");
        Self {
            recent: Mutex::new(vec![base]),
            bound,
        }
    }

    /// One of the bootable snapshots, uniformly.
    pub fn pick(&self, rng: &mut Rng) -> Snapshot {
        let recent = self.recent.lock();
        recent[(rng.next() % recent.len() as u64) as usize]
    }

    /// Make `snap` bootable, retiring the oldest published one.
    pub fn publish(&self, snap: Snapshot) {
        let mut recent = self.recent.lock();
        if recent.len() == self.bound {
            recent.remove(1); // keep the base at slot 0 forever
        }
        recent.push(snap);
    }
}

/// What a client does with the instance it booted this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Read-only boot; the instance is dropped.
    Boot,
    /// Commit, snapshot, and hand the snapshot back for publishing.
    Publish,
    /// Commit, snapshot, then terminate the instance: a doomed lineage,
    /// never published, so snapshot GC interleaves with the boots.
    Terminate,
}

/// Geometry and schedule of one storm.
pub struct Shape {
    /// Compute nodes; the service node is `NodeId(nodes)`.
    pub nodes: u32,
    /// Image bytes.
    pub image: u64,
    /// Offset of the contextualization write.
    pub state_offset: u64,
    /// The shared part of each commit — identical bytes from every
    /// client at the same round, so the cluster dedup index gets probed
    /// from different nodes concurrently.
    pub shared_bytes: u64,
    /// The private part — unique per client, so GC has bytes to reclaim.
    pub private_bytes: u64,
    /// How many recently published snapshots stay bootable.
    pub rotation: usize,
    /// What round `n` of a client does after its boot.
    pub fate: fn(usize) -> Fate,
}

/// The serving storm of `load_sweep`: every third boot commits, every
/// sixth terminates.
pub const SERVING: Shape = Shape {
    nodes: 8,
    image: 2 << 20,
    state_offset: 1 << 20,
    shared_bytes: 128 << 10,
    private_bytes: 64 << 10,
    rotation: 32,
    fate: |round| match round % 6 {
        1 => Fate::Terminate,
        4 => Fate::Publish,
        _ => Fate::Boot,
    },
};

/// The smaller, write-heavy storm of `recovery_sweep`: every round
/// commits, every fourth terminates.
pub const RECOVERY: Shape = Shape {
    nodes: 4,
    image: 1 << 20,
    state_offset: 512 << 10,
    shared_bytes: 32 << 10,
    private_bytes: 32 << 10,
    rotation: 16,
    fate: |round| match round % 4 {
        3 => Fate::Terminate,
        _ => Fate::Publish,
    },
};

impl Shape {
    /// The compute nodes.
    pub fn compute(&self) -> Vec<NodeId> {
        (0..self.nodes).map(NodeId).collect()
    }

    /// The base image every storm starts from.
    pub fn base_image(&self) -> Payload {
        Payload::synth(0x5EED, 0, self.image)
    }
}

/// Round `n` of client `worker`: boot `source` on the worker's
/// node and read the full image in guest-sized strides, then follow the
/// round's [`Fate`]. Returns the boot latency (deploy + image read, µs)
/// and, for [`Fate::Publish`], the snapshot for the caller to publish.
/// Any error aborts the round; the caller may `expect` it or retry a
/// fresh one.
pub fn round(
    cloud: &Cloud,
    shape: &Shape,
    source: Snapshot,
    worker: usize,
    n: usize,
) -> Result<(u64, Option<Snapshot>), BackendError> {
    let node = NodeId(worker as u32 % shape.nodes);
    let started = Instant::now();
    let mut handle = cloud.add_instance(source.0, source.1, node)?;
    let mut off = 0;
    while off < shape.image {
        handle
            .backend
            .read(off..(off + BOOT_STRIDE).min(shape.image))?;
        off += BOOT_STRIDE;
    }
    let boot_us = started.elapsed().as_micros() as u64;
    let fate = (shape.fate)(n);
    if fate == Fate::Boot {
        return Ok((boot_us, None));
    }
    let shared = vm_write_payload(1_000 + n as u64, 0, shape.shared_bytes);
    handle.backend.write(shape.state_offset, shared)?;
    let private = vm_write_payload(7_919 * worker as u64 + n as u64, 0, shape.private_bytes);
    handle
        .backend
        .write(shape.state_offset + shape.shared_bytes, private)?;
    let snap = handle.snapshot()?;
    if fate == Fate::Terminate {
        cloud.terminate_instance(handle)?;
        return Ok((boot_us, None));
    }
    Ok((boot_us, Some(snap)))
}

/// What [`run`] measured.
pub struct Outcome {
    /// Per-boot wall latencies, µs, ascending.
    pub boot_us: Vec<u64>,
    /// First arrival to the last client thread's join.
    pub wall_s: f64,
}

impl Outcome {
    /// Boots per wall-clock second.
    pub fn boots_per_s(&self) -> f64 {
        self.boot_us.len() as f64 / self.wall_s
    }

    /// The `p`-th percentile boot latency, ms.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let idx = ((p / 100.0) * (self.boot_us.len() - 1) as f64).round() as usize;
        self.boot_us[idx] as f64 / 1e3
    }
}

/// The closed-loop storm: upload the base image, then `clients` threads
/// each run `rounds` rounds against the rotation with heavy-tailed gaps
/// between them, publishing what their rounds hand back. The clock
/// stops when the last client joins; read-ahead runs inline on the
/// booting thread, so counters read afterwards are final.
pub fn run(cloud: &Cloud, shape: &Shape, clients: usize, rounds: usize) -> Outcome {
    let base = cloud.upload_image(shape.base_image()).expect("upload");
    let rotation = Rotation::new(base, shape.rotation);
    let started = Instant::now();
    let mut boot_us = Vec::with_capacity(clients * rounds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|worker| {
                let rotation = &rotation;
                scope.spawn(move || {
                    let mut rng = Rng::for_worker(worker);
                    (0..rounds)
                        .map(|n| {
                            std::thread::sleep(Duration::from_micros(rng.pareto_us()));
                            let source = rotation.pick(&mut rng);
                            let (us, snap) =
                                round(cloud, shape, source, worker, n).expect("storm round");
                            if let Some(snap) = snap {
                                rotation.publish(snap);
                            }
                            us
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            boot_us.extend(h.join().expect("client thread"));
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    boot_us.sort_unstable();
    Outcome { boot_us, wall_s }
}

/// Where a deployment's server roles live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hosting {
    /// In this process, in memory, behind `BlobConfig::transport`.
    InProcess,
    /// In this process, journaling into a scratch directory under
    /// `target/paper/` that is wiped before the run and when the
    /// [`Deployment`] drops — on unwind too.
    Durable,
    /// Two `blob_server` children over loopback TCP.
    Children,
}

/// A scratch directory that does not outlive its owner.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A cloud and whatever keeps it alive. Fields drop in order: the
/// cloud (and its connections) first, then the children (EOF on stdin,
/// reaped), then the scratch directory.
pub struct Deployment {
    /// The client side.
    pub cloud: Cloud,
    _servers: Vec<ServerProc>,
    _scratch: Option<ScratchDir>,
}

/// Specs of the two `blob_server` processes of a `shape`-sized cluster —
/// managers, board and metadata in one, the providers in the other —
/// with `cfg`'s feature toggles and no data directory.
pub fn server_specs(shape: &Shape, cfg: &BlobConfig) -> [ServerSpec; 2] {
    ["vm,pm,board,cluster,meta", "provider"].map(|roles| {
        let mut spec = ServerSpec::new(roles, shape.nodes, cfg.chunk_size);
        spec.dedup = cfg.dedup;
        spec.cluster_dedup = cfg.cluster_dedup;
        spec.prefetch = cfg.prefetch;
        spec
    })
}

/// A cloud attached to servers in other processes through `transport`.
pub fn attach(
    shape: &Shape,
    fabric: Arc<LocalFabric>,
    cfg: BlobConfig,
    transport: Arc<SocketTransport>,
) -> Cloud {
    let compute = shape.compute();
    let service = NodeId(shape.nodes);
    let store = BlobStore::remote(
        cfg,
        BlobTopology::colocated(&compute, service),
        fabric.clone() as Arc<dyn Fabric>,
        transport as Arc<dyn Transport>,
    );
    Cloud::with_store(store, fabric, compute, service, Calibration::default())
}

/// Stand up one deployment of `shape` on a fresh [`LocalFabric`] over
/// its compute nodes and service node.
pub fn deploy(shape: &Shape, cfg: BlobConfig, hosting: Hosting) -> Deployment {
    let fabric = LocalFabric::new(shape.nodes as usize + 1);
    let compute = shape.compute();
    let service = NodeId(shape.nodes);
    let mut servers = Vec::new();
    let mut scratch = None;
    let cloud = match hosting {
        Hosting::InProcess => Cloud::new(fabric, compute, service, cfg, Calibration::default()),
        Hosting::Durable => {
            let dir =
                ScratchDir::create(output_dir().join(format!("storm_data-{}", std::process::id())));
            let (store, _report) = BlobStore::durable(
                cfg,
                BlobTopology::colocated(&compute, service),
                fabric.clone() as Arc<dyn Fabric>,
                Placement::RoundRobin,
                &dir.0,
            )
            .expect("durable deployment");
            scratch = Some(dir);
            Cloud::with_store(store, fabric, compute, service, Calibration::default())
        }
        Hosting::Children => {
            let mut addrs = std::collections::HashMap::new();
            for spec in server_specs(shape, &cfg) {
                let (proc_, announced) = spec.spawn();
                servers.push(proc_);
                addrs.extend(announced);
            }
            let table = RouteTable::from_roles(&addrs).expect("every role announced");
            attach(shape, fabric, cfg, Arc::new(SocketTransport::new(table)))
        }
    };
    Deployment {
        cloud,
        _servers: servers,
        _scratch: scratch,
    }
}

/// Client threads of a storm: `--clients N`, else the scale's default.
/// A count that is not a positive integer exits 2 naming the flag.
pub fn clients(scale: RunScale, paper: usize, mini: usize) -> usize {
    match arg_value("--clients") {
        Some(n) => parse_clients(&n).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => match scale {
            RunScale::Paper => paper,
            RunScale::Mini => mini,
        },
    }
}

/// The value of `--clients`: a storm needs at least one client.
fn parse_clients(value: &str) -> Result<usize, String> {
    value
        .parse::<NonZeroUsize>()
        .map(NonZeroUsize::get)
        .map_err(|_| format!("--clients takes a positive integer, not {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_gaps_and_rotation_picks() {
        let rotation = Rotation::new((BlobId(1), Version(1)), 8);
        for v in 2..8 {
            rotation.publish((BlobId(v), Version(1)));
        }
        let schedule = |worker| {
            let mut rng = Rng::for_worker(worker);
            (0..64)
                .map(|_| (rng.pareto_us(), rotation.pick(&mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(3), schedule(3));
        assert_ne!(schedule(3), schedule(4));
        assert!(schedule(3)
            .iter()
            .all(|(gap, _)| (ARRIVAL_BASE_US..=ARRIVAL_CAP_US).contains(gap)));
    }

    #[test]
    fn rotation_stays_bounded_and_keeps_the_base() {
        let base = (BlobId(1), Version(1));
        let rotation = Rotation::new(base, 4);
        for v in 2..40 {
            rotation.publish((BlobId(v), Version(1)));
            let recent = rotation.recent.lock();
            assert!(recent.len() <= 4);
            assert_eq!(recent[0], base);
            assert_eq!(*recent.last().unwrap(), (BlobId(v), Version(1)));
        }
        // The three newest survive beside the base.
        assert_eq!(
            rotation.recent.lock()[1..],
            [37, 38, 39].map(|v| (BlobId(v), Version(1)))
        );
    }

    #[test]
    fn client_counts_are_positive_integers() {
        assert_eq!(parse_clients("64"), Ok(64));
        for bad in ["0", "many", "-3", ""] {
            let err = parse_clients(bad).unwrap_err();
            assert!(err.contains("--clients"), "{err}");
        }
    }

    #[test]
    fn four_clients_two_rounds_over_direct_hosting() {
        // Rounds 0 and 1 of the serving schedule: a read-only boot, then
        // a commit + snapshot + terminate (GC under concurrent boots).
        let shape = &SERVING;
        let cfg = BlobConfig {
            chunk_size: CHUNK,
            transport: bff_blobseer::TransportMode::Direct,
            ..Default::default()
        };
        let deployment = deploy(shape, cfg, Hosting::InProcess);
        let out = run(&deployment.cloud, shape, 4, 2);
        assert_eq!(out.boot_us.len(), 8);
        assert!(out.boot_us.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.wall_s > 0.0 && out.boots_per_s() > 0.0);
        assert!(out.percentile_ms(50.0) <= out.percentile_ms(99.0));
    }
}
