//! The four workloads: what each client does per cycle, the state they
//! share, and the expected content of every snapshot they leave behind.
//!
//! Load model: a **closed loop** of [`CLIENTS`] client threads. Each
//! client issues its next request only after the previous one returned,
//! as a middleware deploying and snapshotting instances does, so at most
//! [`CLIENTS`] requests are ever in flight.

use crate::deploy::{DeployKind, Deployment, CHUNK, IMG, NODES};
use crate::gen::{content, Rng, Stream};
use crate::trace::Tracer;
use bff_blobseer::{BlobId, GcReport, Version};
use bff_cloud::middleware::VmHandle;
use bff_cloud::{BackendError, Cloud, ImageBackend};
use bff_data::Payload;
use bff_net::NodeId;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Client threads — the machine's core count, so the clients themselves
/// do not queue for a processor.
pub const CLIENTS: u64 = 2;
/// A boot reads the whole image in calls of this size.
const READ: u64 = 256 << 10;
/// Bootable snapshots in the rotation; slot 0 is the base image forever.
pub const ROTATION: usize = 16;
/// Versions `snapshot_durable` keeps per client before deleting the
/// oldest.
const KEEP: usize = 4;
/// Where the rotate workloads write their state: a fixed place, so every
/// generation overwrites the previous one's chunks and a snapshot differs
/// from the base image by exactly [`ROTATE_DIRTY`] bytes.
const STATE_OFFSET: u64 = 2 << 20;
const ROTATE_SHARED: u64 = 128 << 10;
const ROTATE_PRIVATE: u64 = 64 << 10;
pub const ROTATE_DIRTY: u64 = ROTATE_SHARED + ROTATE_PRIVATE;

pub type Snap = (BlobId, Version);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeployCold,
    SnapshotDurable,
    RotateDurable,
    RotateDirect,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DeployCold,
        Workload::SnapshotDurable,
        Workload::RotateDurable,
        Workload::RotateDirect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeployCold => "deploy_cold",
            Workload::SnapshotDurable => "snapshot_durable",
            Workload::RotateDurable => "rotate_durable",
            Workload::RotateDirect => "rotate_direct",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DeployCold => {
                "multideployment: read-only boots of 48 images (192 MiB > the 64 MiB node cache) \
                 over sockets; provider data plane and large replies do the work"
            }
            Workload::SnapshotDurable => {
                "multisnapshotting: write-only; digesting, provider puts, log append, fsync, \
                 journal and GC do the work, read planning none"
            }
            Workload::RotateDurable => {
                "north-star storm: boots beside snapshots beside GC on a durable socket cluster; \
                 every layer at once, so a read gain that costs commits shows"
            }
            Workload::RotateDirect => {
                "the bypass: same storm with no frame, socket or disk; only client planning, \
                 caches, server state machines and GC, at ten times the cycles"
            }
        }
    }

    pub fn deploy_kind(self) -> DeployKind {
        match self {
            Workload::DeployCold => DeployKind::Socket,
            Workload::SnapshotDurable | Workload::RotateDurable => DeployKind::Durable,
            Workload::RotateDirect => DeployKind::Direct,
        }
    }

    /// The one table of sizes: distinct images uploaded at set-up and
    /// untimed warm-up cycles per client. The timed part is bounded by
    /// `--seconds`, not by a count.
    pub fn sizing(self, smoke: bool) -> Sizing {
        let (images, warmup, smoke_warmup) = match self {
            // 48 x 4 MiB = 192 MiB over four 64 MiB node caches, and
            // 48 < the 64-version descriptor cache.
            Workload::DeployCold => (48, 250, 6),
            // Well past the depth of the delete pipeline, and enough
            // fsyncs for set-up time to be more than noise.
            Workload::SnapshotDurable => (1, 50, KEEP as u64 + 2),
            // Enough cycles to fill the rotation (one publish per six).
            Workload::RotateDurable => (1, 120, 12),
            Workload::RotateDirect => (1, 1500, 12),
        };
        Sizing {
            images: if smoke { images.min(4) } else { images },
            warmup_cycles: if smoke { smoke_warmup } else { warmup },
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub images: u64,
    pub warmup_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Cloud::add_instance` plus reading the whole image.
    Boot,
    /// The dirty writes plus `VmHandle::snapshot` (CLONE on first use,
    /// then COMMIT).
    Snapshot,
    /// One `terminate_instance` / `delete_snapshot(s)` call.
    Gc,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Boot, OpKind::Snapshot, OpKind::Gc];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Boot => "boot",
            OpKind::Snapshot => "snapshot",
            OpKind::Gc => "gc",
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Boot => "op.boot",
            OpKind::Snapshot => "op.snapshot",
            OpKind::Gc => "op.gc",
        }
    }
}

// ---------------------------------------------------------------------
// The schedule: everything a client will ask for, from the seed alone.
// ---------------------------------------------------------------------

/// What follows the boot in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Nothing: the instance is dropped (or, in `snapshot_durable`,
    /// lives on).
    Nothing,
    /// Snapshot, then publish the snapshot into the rotation.
    Publish,
    /// Snapshot, then terminate the instance, deleting its lineage.
    Terminate,
}

/// One cycle of one client, independent of what the other client does.
#[derive(Debug, Clone)]
pub struct CyclePlan {
    /// Which image or rotation slot to boot: reduced modulo however many
    /// there are when the cycle runs.
    pub draw: u64,
    /// The compute node the instance runs on.
    pub node: NodeId,
    /// Dirty writes `(offset, bytes)` before the snapshot; empty when
    /// the cycle takes none.
    pub writes: Vec<(u64, Payload)>,
    pub after: After,
}

/// The endless cycle stream of `client` under `seed`.
pub struct Planner {
    workload: Workload,
    seed: u64,
    client: u64,
    rng: Rng,
    cycle: u64,
    /// The base image (image 0 of the seed): the source of the dirty
    /// content that dedups.
    base: Payload,
}

impl Planner {
    pub fn new(workload: Workload, seed: u64, client: u64) -> Self {
        Self {
            workload,
            seed,
            client,
            rng: Rng::fork(seed, 4 << 60 | client),
            cycle: 0,
            base: match workload {
                Workload::DeployCold => Payload::empty(),
                _ => content(seed, Stream::Image(0), IMG),
            },
        }
    }

    /// `len` bytes every client can commit by reference: the base
    /// image's own content from chunk `chunk` on, written somewhere else.
    /// (Fresh content that two clients commit in the same round would
    /// dedup only for whichever commits second, and only while the
    /// first's version is still live: a race, so the bytes moved per
    /// cycle would differ from run to run.)
    fn shared(&self, chunk: u64, len: u64) -> Payload {
        let at = chunk % (IMG / CHUNK - len / CHUNK + 1) * CHUNK;
        self.base.slice(at, at + len)
    }
}

impl Iterator for Planner {
    type Item = CyclePlan;

    fn next(&mut self) -> Option<CyclePlan> {
        let (cycle, client, seed) = (self.cycle, self.client, self.seed);
        self.cycle += 1;
        let draw = self.rng.next();
        // Clients start two nodes apart and walk the nodes in step.
        let node = NodeId(((cycle + 2 * client) % u64::from(NODES)) as u32);
        let (node, writes, after) = match self.workload {
            Workload::DeployCold => (node, Vec::new(), After::Nothing),
            Workload::SnapshotDurable => {
                // Four chunks at a rotating offset: two the cluster
                // already stores elsewhere (dedup), two private.
                let at = cycle * 4 % (IMG / CHUNK) * CHUNK;
                let writes = vec![
                    (at, self.shared(at / CHUNK + 32, 2 * CHUNK)),
                    (
                        at + 2 * CHUNK,
                        content(
                            seed,
                            Stream::Private {
                                client,
                                round: cycle,
                            },
                            2 * CHUNK,
                        ),
                    ),
                ];
                // The long-lived instance never moves.
                (
                    NodeId((2 * client % u64::from(NODES)) as u32),
                    writes,
                    After::Nothing,
                )
            }
            Workload::RotateDurable | Workload::RotateDirect => {
                if cycle % 3 == 2 {
                    let round = cycle / 3;
                    let writes = vec![
                        (STATE_OFFSET, self.shared(2 * round, ROTATE_SHARED)),
                        (
                            STATE_OFFSET + ROTATE_SHARED,
                            content(seed, Stream::Private { client, round }, ROTATE_PRIVATE),
                        ),
                    ];
                    let after = if round % 2 == 0 {
                        After::Publish
                    } else {
                        After::Terminate
                    };
                    (node, writes, after)
                } else {
                    (node, Vec::new(), After::Nothing)
                }
            }
        };
        Some(CyclePlan {
            draw,
            node,
            writes,
            after,
        })
    }
}

// ---------------------------------------------------------------------
// What a client records.
// ---------------------------------------------------------------------

/// One completed operation and how long it took, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub kind: OpKind,
    pub dur: u64,
}

/// Everything one client measured and counted in one window.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub ops: Vec<OpRec>,
    /// `(start, duration)` of each cycle, nanoseconds since the window
    /// began: first request sent to last reply received.
    pub cycles: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// `MirrorStats` sums over the instances this client ran.
    pub remote_bytes: u64,
    pub committed_bytes: u64,
    pub deduped_bytes: u64,
    /// `GcReport` sums over this client's gc operations.
    pub gc_dead_leaves: u64,
    pub gc_freed_bytes: u64,
    pub first_error: Option<String>,
}

/// Why an operation failed: the program returned an error, or it
/// answered with the wrong bytes.
pub struct OpError(String);

impl From<BackendError> for OpError {
    fn from(e: BackendError) -> Self {
        OpError(e.to_string())
    }
}

impl From<bff_blobseer::BlobError> for OpError {
    fn from(e: bff_blobseer::BlobError) -> Self {
        OpError(e.to_string())
    }
}

/// Times one client's operations; with a tracer, also records the spans.
pub struct Probe<'a> {
    epoch: Instant,
    tracer: Option<&'a Tracer>,
    pub log: ClientLog,
}

impl<'a> Probe<'a> {
    pub fn new(epoch: Instant, tracer: Option<&'a Tracer>) -> Self {
        Self {
            epoch,
            tracer,
            log: ClientLog::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run one operation: a root span, one latency sample, one attempt.
    /// A failure (or a mis-verified reply) counts against the attempts
    /// and yields `None`.
    fn op<R>(
        &mut self,
        kind: OpKind,
        f: impl FnOnce(&Calls<'a>) -> Result<R, OpError>,
    ) -> Option<R> {
        let calls = Calls {
            tracer: self.tracer,
        };
        let start = self.now();
        let out = match self.tracer {
            Some(t) => t.scope(kind.span_name(), true, || f(&calls)),
            None => f(&calls),
        };
        let dur = self.now() - start;
        self.log.attempted += 1;
        match out {
            Ok(r) => {
                self.log.ops.push(OpRec { kind, dur });
                Some(r)
            }
            Err(e) => {
                self.log.failed += 1;
                self.log
                    .first_error
                    .get_or_insert_with(|| format!("{} failed: {}", kind.name(), e.0));
                None
            }
        }
    }

    fn end_cycle(&mut self, start: u64) {
        let end = self.now();
        self.log.cycles.push((start, end - start));
    }

    fn note_gc(&mut self, report: Option<GcReport>) {
        if let Some(r) = report {
            self.log.gc_dead_leaves += r.dead_leaves;
            self.log.gc_freed_bytes += r.freed_bytes;
        }
    }
}

/// Wraps the benchmark's own calls into the program in `cloud.*` spans.
pub struct Calls<'a> {
    tracer: Option<&'a Tracer>,
}

impl Calls<'_> {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer {
            Some(t) => t.scope(name, false, f),
            None => f(),
        }
    }
}

// ---------------------------------------------------------------------
// The operations.
// ---------------------------------------------------------------------

/// Boot: attach an instance of `snap` on `node` and read the whole image.
/// Each reply is checked for length and, at one position drawn from
/// `salt`, for content; every live snapshot is compared in full after
/// the window.
fn boot(
    calls: &Calls<'_>,
    cloud: &Cloud,
    snap: Snap,
    expected: &Payload,
    node: NodeId,
    salt: u64,
) -> Result<VmHandle, OpError> {
    let mut vm = calls.span("cloud.add_instance", || {
        cloud.add_instance(snap.0, snap.1, node)
    })?;
    let mut probe = Rng::new(salt);
    for at in (0..IMG).step_by(READ as usize) {
        let got = calls.span("cloud.read", || vm.backend.read(at..at + READ))?;
        let pos = probe.below(READ);
        if got.len() != READ || got.byte_at(pos) != expected.byte_at(at + pos) {
            return Err(OpError(format!(
                "boot of {snap:?} on {node}: wrong bytes at {}",
                at + pos
            )));
        }
    }
    Ok(vm)
}

/// Snapshot: the dirty writes, then CLONE (first time) and COMMIT.
fn snapshot(
    calls: &Calls<'_>,
    vm: &mut VmHandle,
    writes: &[(u64, Payload)],
) -> Result<Snap, OpError> {
    for (at, data) in writes {
        calls.span("cloud.write", || vm.backend.write(*at, data.clone()))?;
    }
    Ok(calls.span("cloud.snapshot", || vm.snapshot())?)
}

/// Delete every live version of `blob` — a lineage nobody can boot from
/// any more.
fn delete_lineage(
    calls: &Calls<'_>,
    cloud: &Cloud,
    blob: BlobId,
    node: NodeId,
) -> Result<GcReport, OpError> {
    calls.span("cloud.delete", || {
        let client = cloud.client(node);
        let versions = client.live_snapshots(blob)?;
        Ok(client.delete_snapshots(blob, &versions)?)
    })
}

fn overwritten(base: &Payload, writes: &[(u64, Payload)]) -> Payload {
    let mut out = base.clone();
    for (at, data) in writes {
        out.overwrite_in_place(*at, data.clone());
    }
    out
}

// ---------------------------------------------------------------------
// The rotation shared by the clients of a rotate workload.
// ---------------------------------------------------------------------

struct Entry {
    snap: Snap,
    expected: Payload,
    /// Boots in flight from this entry.
    readers: u32,
    in_rotation: bool,
}

#[derive(Default)]
struct RotationState {
    next_id: u64,
    /// Entry ids in publication order; slot 0 is the base image.
    order: Vec<u64>,
    entries: HashMap<u64, Entry>,
}

/// The bootable snapshots. An entry pushed out of the rotation is
/// deleted by whichever client drops the last reference to it — the
/// publisher, or the last client still booting from it — so no boot
/// races a delete and nothing leaks.
pub struct Rotation(Mutex<RotationState>);

/// A rotation entry a client holds while it boots from it.
struct Picked {
    id: u64,
    snap: Snap,
    expected: Payload,
}

impl Rotation {
    fn new(base: Snap, expected: Payload) -> Self {
        let rotation = Rotation(Mutex::default());
        rotation.publish(base, expected);
        rotation
    }

    fn state(&self) -> std::sync::MutexGuard<'_, RotationState> {
        self.0
            .lock()
            .expect("a client panicked holding the rotation")
    }

    fn pick(&self, draw: u64) -> Picked {
        let mut s = self.state();
        let id = s.order[(draw % s.order.len() as u64) as usize];
        let e = s.entries.get_mut(&id).expect("rotation slot has an entry");
        e.readers += 1;
        Picked {
            id,
            snap: e.snap,
            expected: e.expected.clone(),
        }
    }

    /// Done booting from `id`; `Some(blob)` hands the caller a lineage
    /// to delete.
    fn release(&self, id: u64) -> Option<BlobId> {
        let mut s = self.state();
        let e = s.entries.get_mut(&id).expect("released entry exists");
        e.readers -= 1;
        if e.readers == 0 && !e.in_rotation {
            return s.entries.remove(&id).map(|e| e.snap.0);
        }
        None
    }

    /// Make `snap` bootable; `Some(blob)` hands the caller the lineage
    /// this pushed out, if nobody is booting from it.
    fn publish(&self, snap: Snap, expected: Payload) -> Option<BlobId> {
        let mut s = self.state();
        let id = s.next_id;
        s.next_id += 1;
        s.entries.insert(
            id,
            Entry {
                snap,
                expected,
                readers: 0,
                in_rotation: true,
            },
        );
        s.order.push(id);
        if s.order.len() <= ROTATION {
            return None;
        }
        let old = s.order.remove(1);
        let e = s.entries.get_mut(&old).expect("evicted entry exists");
        e.in_rotation = false;
        if e.readers == 0 {
            return s.entries.remove(&old).map(|e| e.snap.0);
        }
        None
    }

    fn live(&self) -> Vec<(Snap, Payload)> {
        let s = self.state();
        s.entries
            .values()
            .map(|e| (e.snap, e.expected.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------
// A set-up workload, ready to be measured.
// ---------------------------------------------------------------------

/// Per-client state that survives from warm-up into the window.
struct Client {
    plan: Planner,
    /// `snapshot_durable`: the long-lived instance, its content, and the
    /// versions it still has to delete, oldest first.
    vm: Option<VmHandle>,
    content: Payload,
    live: VecDeque<(Snap, Payload)>,
    /// `MirrorStats` of the long-lived instance already accounted for.
    seen_committed: u64,
    seen_deduped: u64,
}

enum Shared {
    Images(Vec<(Snap, Payload)>),
    Base(Snap, Payload),
    Rotation(Rotation),
}

pub struct Stage {
    pub workload: Workload,
    pub dep: Deployment,
    shared: Shared,
    clients: Vec<Client>,
}

/// When a client stops cycling.
#[derive(Clone, Copy)]
pub enum Until {
    Cycles(u64),
    Deadline(Instant),
}

/// The uploaded images of a workload under a seed: generated once per
/// run, outside every timer.
pub fn images(workload: Workload, seed: u64, smoke: bool) -> Vec<Payload> {
    (0..workload.sizing(smoke).images)
        .map(|i| content(seed, Stream::Image(i), IMG))
        .collect()
}

impl Stage {
    /// Set-up: deploy, upload, warm up. This is what `setup_s` times.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        smoke: bool,
        images: &[Payload],
        data_dir: &std::path::Path,
        tracer: Option<std::sync::Arc<Tracer>>,
    ) -> Self {
        let dep = Deployment::new(workload.deploy_kind(), data_dir, tracer);
        let uploaded: Vec<(Snap, Payload)> = images
            .iter()
            .map(|img| {
                let snap = dep
                    .cloud
                    .upload_image(img.clone())
                    .expect("upload an image");
                (snap, img.clone())
            })
            .collect();
        let shared = match workload {
            Workload::DeployCold => Shared::Images(uploaded),
            Workload::SnapshotDurable => {
                let (snap, img) = uploaded.into_iter().next().expect("one base image");
                Shared::Base(snap, img)
            }
            Workload::RotateDurable | Workload::RotateDirect => {
                let (snap, img) = uploaded.into_iter().next().expect("one base image");
                Shared::Rotation(Rotation::new(snap, img))
            }
        };
        let clients = (0..CLIENTS)
            .map(|idx| Client {
                plan: Planner::new(workload, seed, idx),
                vm: None,
                content: Payload::empty(),
                live: VecDeque::new(),
                seen_committed: 0,
                seen_deduped: 0,
            })
            .collect();
        let mut stage = Self {
            workload,
            dep,
            shared,
            clients,
        };
        let warmup = workload.sizing(smoke).warmup_cycles;
        let logs = stage.run_clients(Until::Cycles(warmup), None, Instant::now());
        for log in &logs {
            assert_eq!(
                log.failed,
                0,
                "warm-up of {} failed: {:?}",
                workload.name(),
                log.first_error
            );
        }
        stage
    }

    /// Run every client until `until`, each on its own thread.
    pub fn run_clients(
        &mut self,
        until: Until,
        tracer: Option<&Tracer>,
        epoch: Instant,
    ) -> Vec<ClientLog> {
        let (dep, shared) = (&self.dep, &self.shared);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    scope.spawn(move || {
                        let mut probe = Probe::new(epoch, tracer);
                        let mut done = 0;
                        loop {
                            match until {
                                Until::Cycles(n) if done >= n => break,
                                Until::Deadline(t) if Instant::now() >= t => break,
                                _ => {}
                            }
                            let plan = client.plan.next().expect("the plan never ends");
                            client.cycle(dep, shared, &mut probe, plan);
                            done += 1;
                        }
                        probe.log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        })
    }

    /// Every snapshot the workload left live, with its expected content.
    pub fn live_snapshots(&self) -> Vec<(Snap, Payload)> {
        let mut live = match &self.shared {
            Shared::Images(images) => images.clone(),
            Shared::Base(snap, img) => vec![(*snap, img.clone())],
            Shared::Rotation(r) => r.live(),
        };
        for c in &self.clients {
            live.extend(c.live.iter().cloned());
        }
        live.sort_by_key(|((blob, version), _)| (blob.0, version.0));
        live
    }

    /// Replace the deployment (after a recovery) keeping the workload's
    /// record of what must be live.
    pub fn map_deployment(self, f: impl FnOnce(Deployment) -> Deployment) -> Self {
        let Stage {
            workload,
            dep,
            shared,
            mut clients,
        } = self;
        // Instances hold clients of the old store; they end with it.
        for c in &mut clients {
            c.vm = None;
        }
        Self {
            workload,
            dep: f(dep),
            shared,
            clients,
        }
    }
}

impl Client {
    fn cycle(&mut self, dep: &Deployment, shared: &Shared, probe: &mut Probe<'_>, plan: CyclePlan) {
        match shared {
            Shared::Images(images) => self.deploy_cycle(dep, images, probe, plan),
            Shared::Base(snap, img) => self.snapshot_cycle(dep, *snap, img, probe, plan),
            Shared::Rotation(r) => self.rotate_cycle(dep, r, probe, plan),
        }
    }

    fn deploy_cycle(
        &mut self,
        dep: &Deployment,
        images: &[(Snap, Payload)],
        probe: &mut Probe<'_>,
        plan: CyclePlan,
    ) {
        let (snap, expected) = &images[(plan.draw % images.len() as u64) as usize];
        let start = probe.now();
        let vm = probe.op(OpKind::Boot, |calls| {
            boot(calls, &dep.cloud, *snap, expected, plan.node, plan.draw)
        });
        probe.end_cycle(start);
        if let Some(vm) = vm {
            probe.log.remote_bytes += vm.backend.image().stats().remote_bytes;
        }
    }

    fn snapshot_cycle(
        &mut self,
        dep: &Deployment,
        base: Snap,
        image: &Payload,
        probe: &mut Probe<'_>,
        plan: CyclePlan,
    ) {
        if self.vm.is_none() {
            // The long-lived instance boots once, before any cycle is
            // timed (warm-up runs the first cycles).
            let calls = Calls { tracer: None };
            self.vm = boot(&calls, &dep.cloud, base, image, plan.node, plan.draw).ok();
            self.content = image.clone();
        }
        let Some(vm) = self.vm.as_mut() else {
            probe.log.attempted += 1;
            probe.log.failed += 1;
            return;
        };
        let start = probe.now();
        let snap = probe.op(OpKind::Snapshot, |calls| snapshot(calls, vm, &plan.writes));
        if let Some(snap) = snap {
            self.content = overwritten(&self.content, &plan.writes);
            self.live.push_back((snap, self.content.clone()));
            let stats = vm.backend.image().stats();
            probe.log.committed_bytes += stats.committed_bytes - self.seen_committed;
            probe.log.deduped_bytes += stats.deduped_bytes - self.seen_deduped;
            self.seen_committed = stats.committed_bytes;
            self.seen_deduped = stats.deduped_bytes;
        }
        if self.live.len() > KEEP {
            let ((blob, version), _) = self.live.pop_front().expect("non-empty");
            let report = probe.op(OpKind::Gc, |calls| {
                Ok(calls.span("cloud.delete", || dep.cloud.delete_snapshot(blob, version))?)
            });
            probe.note_gc(report);
        }
        probe.end_cycle(start);
    }

    fn rotate_cycle(
        &mut self,
        dep: &Deployment,
        rotation: &Rotation,
        probe: &mut Probe<'_>,
        plan: CyclePlan,
    ) {
        let cloud = &dep.cloud;
        let picked = rotation.pick(plan.draw);
        let start = probe.now();
        let vm = probe.op(OpKind::Boot, |calls| {
            boot(
                calls,
                cloud,
                picked.snap,
                &picked.expected,
                plan.node,
                plan.draw,
            )
        });
        let mut doomed = None;
        if let Some(mut vm) = vm {
            probe.log.remote_bytes += vm.backend.image().stats().remote_bytes;
            if plan.after != After::Nothing {
                let snap = probe.op(OpKind::Snapshot, |calls| {
                    snapshot(calls, &mut vm, &plan.writes)
                });
                let stats = vm.backend.image().stats();
                probe.log.committed_bytes += stats.committed_bytes;
                probe.log.deduped_bytes += stats.deduped_bytes;
                match (snap, plan.after) {
                    (Some(snap), After::Publish) => {
                        // The instance runs on elsewhere; its snapshot
                        // becomes bootable.
                        drop(vm);
                        let expected = overwritten(&picked.expected, &plan.writes);
                        doomed = rotation.publish(snap, expected);
                    }
                    _ => {
                        let report = probe.op(OpKind::Gc, |calls| {
                            Ok(calls.span("cloud.terminate", || cloud.terminate_instance(vm))?)
                        });
                        probe.note_gc(report);
                    }
                }
            }
        }
        for blob in [doomed, rotation.release(picked.id)].into_iter().flatten() {
            let report = probe.op(OpKind::Gc, |calls| {
                delete_lineage(calls, cloud, blob, plan.node)
            });
            probe.note_gc(report);
        }
        probe.end_cycle(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(plan: &CyclePlan) -> Vec<[u8; 32]> {
        plan.writes
            .iter()
            .map(|(_, p)| p.digest_sha256().0)
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_and_content() {
        for w in Workload::ALL {
            for client in 0..CLIENTS {
                let a: Vec<CyclePlan> = Planner::new(w, 7, client).take(12).collect();
                let b: Vec<CyclePlan> = Planner::new(w, 7, client).take(12).collect();
                let c: Vec<CyclePlan> = Planner::new(w, 8, client).take(12).collect();
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!((x.draw, x.node, x.after), (y.draw, y.node, y.after));
                    assert_eq!(
                        x.writes.iter().map(|w| w.0).collect::<Vec<_>>(),
                        y.writes.iter().map(|w| w.0).collect::<Vec<_>>()
                    );
                    assert_eq!(digest_of(x), digest_of(y));
                }
                // Another seed: other draws, and other bytes wherever
                // bytes are written.
                assert!(a.iter().zip(&c).any(|(x, y)| x.draw != y.draw));
                for (i, (x, y)) in a.iter().zip(&c).enumerate() {
                    if !x.writes.is_empty() {
                        assert_ne!(digest_of(x), digest_of(y), "{} cycle {i}", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn clients_share_the_shared_content_only() {
        let a: Vec<CyclePlan> = Planner::new(Workload::SnapshotDurable, 3, 0)
            .take(4)
            .collect();
        let b: Vec<CyclePlan> = Planner::new(Workload::SnapshotDurable, 3, 1)
            .take(4)
            .collect();
        for (round, (x, y)) in a.iter().zip(&b).enumerate() {
            let (dx, dy) = (digest_of(x), digest_of(y));
            assert_eq!(dx[0], dy[0], "shared content differs in round {round}");
            assert_ne!(dx[1], dy[1], "private content equal in round {round}");
            assert_ne!(x.node, y.node);
        }
    }

    #[test]
    fn rotate_alternates_publish_and_terminate_every_third_cycle() {
        let plans: Vec<CyclePlan> = Planner::new(Workload::RotateDirect, 1, 0)
            .take(12)
            .collect();
        let after: Vec<After> = plans.iter().map(|p| p.after).collect();
        use After::*;
        assert_eq!(
            after,
            [
                Nothing, Nothing, Publish, Nothing, Nothing, Terminate, Nothing, Nothing, Publish,
                Nothing, Nothing, Terminate
            ]
        );
        for p in &plans {
            assert_eq!(p.writes.is_empty(), p.after == Nothing);
            let bytes: u64 = p.writes.iter().map(|w| w.1.len()).sum();
            assert!(bytes == 0 || bytes == ROTATE_DIRTY);
        }
    }

    #[test]
    fn rotation_hands_each_evicted_lineage_to_exactly_one_deleter() {
        let img = Payload::zeros(8);
        let r = Rotation::new((BlobId(1), Version(1)), img.clone());
        // Fill the rotation; nothing is evicted until it is full.
        for b in 2..=ROTATION as u64 {
            assert_eq!(r.publish((BlobId(b), Version(2)), img.clone()), None);
        }
        // Slot 1 (blob 2) is being booted when it is pushed out: the
        // publisher must not delete it...
        let picked = r.pick(1);
        assert_eq!(picked.snap.0, BlobId(2));
        assert_eq!(r.publish((BlobId(100), Version(2)), img.clone()), None);
        // ...the reader does, when it is done.
        assert_eq!(r.release(picked.id), Some(BlobId(2)));
        // An idle evicted entry goes to the publisher at once.
        assert_eq!(
            r.publish((BlobId(101), Version(2)), img.clone()),
            Some(BlobId(3))
        );
        // The base image is never evicted, and a reader of a live entry
        // deletes nothing.
        let base = r.pick(0);
        assert_eq!(base.snap.0, BlobId(1));
        assert_eq!(r.release(base.id), None);
        assert_eq!(r.live().len(), ROTATION);
    }
}
