//! A real-concurrency [`Fabric`]: OS threads, a wall clock, and modelled
//! resource costs paid by *sleeping*.
//!
//! [`ThreadFabric`] is the third execution mode of the stack, between the
//! cost-free [`LocalFabric`](crate::LocalFabric) and the deterministic
//! virtual-time `bff_sim::SimFabric`:
//!
//! * time is a **monotonic wall clock** (scaled by
//!   [`ThreadParams::time_scale`] so experiments compress hours of modelled
//!   serving into seconds of wall time);
//! * `transfer`/`transfer_all` are charged through **per-node NIC
//!   reservations** (one egress and one ingress lane per node, FIFO at the
//!   link bandwidth), so concurrent clients genuinely contend for
//!   bandwidth instead of being serialized by a scheduler;
//! * disk costs reuse the simulator's write-back/dirty-limit semantics
//!   ([`ThreadDiskParams`] mirrors `bff_sim::DiskParams` formula for
//!   formula), paid in wall time;
//! * `par_join` fans out on scoped OS threads and `spawn_detached` runs on
//!   a small shared worker pool that [`Fabric::quiesce`] drains.
//!
//! Because callers *sleep through* their modelled costs while other
//! threads keep running, lock contention inside the protocol stack shows
//! up as real wall-clock loss here — which is exactly what the simulator
//! structurally cannot see and what `load_sweep` measures.

use crate::{Fabric, NetError, NodeId, TrafficStats, Transfer};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Disk + page-cache parameters, mirroring `bff_sim::DiskParams` (bff-net
/// cannot depend on bff-sim; a conformance test in `crates/sim` pins the
/// two models to each other).
#[derive(Debug, Clone, Copy)]
pub struct ThreadDiskParams {
    /// Sequential bandwidth, bytes per modelled microsecond (== MB/s).
    pub bandwidth: f64,
    /// Per-request positioning cost, modelled microseconds.
    pub access_us: u64,
    /// Memory-copy bandwidth for cache-absorbed writes, bytes/us.
    pub mem_bandwidth: f64,
    /// Dirty-bytes ceiling before write-back throttles to disk speed.
    pub dirty_limit: u64,
}

impl Default for ThreadDiskParams {
    fn default() -> Self {
        Self {
            bandwidth: 55.0,
            access_us: 8_000,
            mem_bandwidth: 2_000.0,
            dirty_limit: 256 << 20,
        }
    }
}

/// Parameters of a [`ThreadFabric`].
#[derive(Debug, Clone, Copy)]
pub struct ThreadParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-link NIC bandwidth, bytes per modelled microsecond.
    pub nic_bw: f64,
    /// One-way link latency, modelled microseconds.
    pub link_latency_us: u64,
    /// Fixed per-message framing overhead, bytes.
    pub msg_overhead_bytes: u64,
    /// Fixed software overhead of an RPC round trip, modelled us.
    pub rpc_overhead_us: u64,
    /// Per-node disk model.
    pub disk: ThreadDiskParams,
    /// Modelled microseconds per real microsecond. `1.0` runs in real
    /// time; `200.0` compresses 200 modelled seconds into one wall
    /// second. Protocol-internal CPU work (lock waits, hashing) is *not*
    /// compressed, so high scales make software overhead loom larger —
    /// useful for contention studies, unfair for absolute latency claims.
    pub time_scale: f64,
    /// Worker threads backing [`Fabric::spawn_detached`].
    pub pool_threads: usize,
}

impl ThreadParams {
    /// The simulator's Grid'5000 testbed profile (§5.1) in real time:
    /// 1 Gbit/s links, 55 MB/s disks.
    pub fn grid5000(nodes: usize) -> Self {
        Self {
            nodes,
            nic_bw: 117.5,
            link_latency_us: 100,
            msg_overhead_bytes: 512,
            rpc_overhead_us: 150,
            disk: ThreadDiskParams::default(),
            time_scale: 1.0,
            pool_threads: 2,
        }
    }

    /// A near-free profile for correctness tests: huge bandwidth, zero
    /// latency, heavy time compression — modelled costs round to
    /// microsecond-scale sleeps so real thread interleaving is exercised
    /// without slowing the suite down.
    pub fn fast(nodes: usize) -> Self {
        Self {
            nodes,
            nic_bw: 1e7,
            link_latency_us: 0,
            msg_overhead_bytes: 0,
            rpc_overhead_us: 0,
            disk: ThreadDiskParams {
                bandwidth: 1e7,
                access_us: 0,
                mem_bandwidth: 1e7,
                dirty_limit: u64::MAX / 4,
            },
            time_scale: 1e4,
            pool_threads: 2,
        }
    }

    /// The `load_sweep` serving profile: Grid'5000-shaped cost ratios,
    /// compressed 20× so hundreds of boots finish in seconds while
    /// modelled delays stay tens-to-hundreds of real microseconds —
    /// long enough that overlapping (or failing to overlap) them
    /// dominates wall-clock throughput.
    pub fn serving(nodes: usize) -> Self {
        Self {
            time_scale: 20.0,
            ..Self::grid5000(nodes)
        }
    }
}

/// Wall-time port of the simulator's `DiskState` (same formulas, the
/// caller supplies `now` from the modelled clock).
#[derive(Debug)]
struct DiskLane {
    params: ThreadDiskParams,
    next_free: u64,
    dirty: f64,
    dirty_as_of: u64,
}

impl DiskLane {
    fn new(params: ThreadDiskParams) -> Self {
        Self {
            params,
            next_free: 0,
            dirty: 0.0,
            dirty_as_of: 0,
        }
    }

    fn settle(&mut self, now: u64) {
        let dt = now.saturating_sub(self.dirty_as_of) as f64;
        if dt > 0.0 {
            self.dirty = (self.dirty - dt * self.params.bandwidth).max(0.0);
            self.dirty_as_of = now;
        }
    }

    fn fifo(&mut self, now: u64, bytes: u64) -> u64 {
        let start = self.next_free.max(now);
        let service = self.params.access_us as f64 + bytes as f64 / self.params.bandwidth;
        let done = start + service.ceil() as u64;
        self.next_free = done;
        done
    }

    fn write_back(&mut self, now: u64, bytes: u64) -> u64 {
        self.settle(now);
        let over = (self.dirty + bytes as f64) - self.params.dirty_limit as f64;
        self.dirty += bytes as f64;
        let absorb = (bytes as f64 / self.params.mem_bandwidth).ceil() as u64;
        if over <= 0.0 {
            now + absorb.max(1)
        } else {
            let throttle = (over / self.params.bandwidth).ceil() as u64;
            now + absorb.max(1) + throttle
        }
    }

    fn sync_done(&mut self, now: u64) -> u64 {
        self.settle(now);
        now + (self.dirty / self.params.bandwidth).ceil() as u64
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Jobs queued or currently running.
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    state: StdMutex<PoolState>,
    work: Condvar,
    idle: Condvar,
}

impl PoolShared {
    fn state(&self) -> StdMutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Fixed-size worker pool behind `spawn_detached`, drainable by
/// `quiesce`. Built on `std::sync` (the vendored parking_lot shim has no
/// condvar).
struct WorkPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl WorkPool {
    fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: StdMutex::new(PoolState {
                queue: VecDeque::new(),
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || loop {
                    let job = {
                        let mut st = sh.state();
                        loop {
                            if let Some(j) = st.queue.pop_front() {
                                break j;
                            }
                            if st.shutdown {
                                return;
                            }
                            st = sh.work.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    // A panicking job must not wedge quiesce(): swallow the
                    // unwind and still decrement the pending count.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    let mut st = sh.state();
                    st.pending -= 1;
                    if st.pending == 0 {
                        sh.idle.notify_all();
                    }
                })
            })
            .collect();
        Self { shared, workers }
    }

    fn submit(&self, job: Job) {
        let mut st = self.shared.state();
        st.pending += 1;
        st.queue.push_back(job);
        drop(st);
        self.shared.work.notify_one();
    }

    fn drain(&self) {
        let mut st = self.shared.state();
        while st.pending > 0 {
            st = self.shared.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.state().shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Real-threaded fabric: wall clock, NIC reservations, modelled disks.
pub struct ThreadFabric {
    params: ThreadParams,
    origin: Instant,
    stats: TrafficStats,
    down: parking_lot::RwLock<Vec<bool>>,
    /// Per-node NIC lanes: modelled time at which the lane is next free.
    egress: Vec<parking_lot::Mutex<u64>>,
    ingress: Vec<parking_lot::Mutex<u64>>,
    disks: Vec<parking_lot::Mutex<DiskLane>>,
    pool: WorkPool,
}

impl ThreadFabric {
    /// Create a fabric for `params.nodes` machines.
    pub fn new(params: ThreadParams) -> Arc<Self> {
        assert!(params.nic_bw > 0.0, "nic_bw must be positive");
        assert!(params.time_scale > 0.0, "time_scale must be positive");
        Arc::new(Self {
            params,
            origin: Instant::now(),
            stats: TrafficStats::new(params.nodes),
            down: parking_lot::RwLock::new(vec![false; params.nodes]),
            egress: (0..params.nodes)
                .map(|_| parking_lot::Mutex::new(0))
                .collect(),
            ingress: (0..params.nodes)
                .map(|_| parking_lot::Mutex::new(0))
                .collect(),
            disks: (0..params.nodes)
                .map(|_| parking_lot::Mutex::new(DiskLane::new(params.disk)))
                .collect(),
            pool: WorkPool::new(params.pool_threads),
        })
    }

    /// The parameters this fabric was built with.
    pub fn params(&self) -> &ThreadParams {
        &self.params
    }

    /// Mark a node failed; subsequent operations touching it error.
    pub fn fail_node(&self, node: NodeId) {
        self.down.write()[node.index()] = true;
    }

    /// Bring a failed node back.
    pub fn recover_node(&self, node: NodeId) {
        self.down.write()[node.index()] = false;
    }

    fn check(&self, n: NodeId) -> Result<(), NetError> {
        if self.is_down(n) {
            Err(NetError::NodeDown(n))
        } else {
            Ok(())
        }
    }

    fn now_model(&self) -> u64 {
        (self.origin.elapsed().as_secs_f64() * 1e6 * self.params.time_scale) as u64
    }

    /// Sleep until the modelled clock reaches `target`.
    fn sleep_until_model(&self, target: u64) {
        let target_real = Duration::from_secs_f64(target as f64 / self.params.time_scale / 1e6);
        loop {
            let elapsed = self.origin.elapsed();
            if elapsed >= target_real {
                return;
            }
            thread::sleep(target_real - elapsed);
        }
    }

    fn xfer_cost(&self, bytes: u64) -> u64 {
        ((bytes + self.params.msg_overhead_bytes) as f64 / self.params.nic_bw).ceil() as u64
    }

    /// Reserve `cost` modelled us on src's egress and dst's ingress lane,
    /// FIFO behind earlier reservations; returns the finish time. Lock
    /// order is globally egress-then-ingress, so no cycle can form.
    fn reserve(&self, src: NodeId, dst: NodeId, cost: u64) -> u64 {
        let now = self.now_model();
        let mut e = self.egress[src.index()].lock();
        let mut i = self.ingress[dst.index()].lock();
        let start = now.max(*e).max(*i);
        let finish = start + cost;
        *e = finish;
        *i = finish;
        finish
    }
}

impl Fabric for ThreadFabric {
    fn now_us(&self) -> u64 {
        self.now_model()
    }

    fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(());
        }
        self.stats.record_transfer(src, dst, bytes);
        let finish = self.reserve(src, dst, self.xfer_cost(bytes));
        self.sleep_until_model(finish + self.params.link_latency_us);
        Ok(())
    }

    fn transfer_all(&self, xfers: &[Transfer]) -> Result<(), NetError> {
        for x in xfers {
            self.check(x.src)?;
            self.check(x.dst)?;
        }
        // Reserve every lane pair up front (the transfers are in flight
        // concurrently and contend), then wait out the slowest.
        let mut deadline = 0u64;
        for x in xfers {
            if x.src == x.dst {
                continue;
            }
            self.stats.record_transfer(x.src, x.dst, x.bytes);
            let finish = self.reserve(x.src, x.dst, self.xfer_cost(x.bytes));
            deadline = deadline.max(finish + self.params.link_latency_us);
        }
        if deadline > 0 {
            self.sleep_until_model(deadline);
        }
        Ok(())
    }

    fn rpc(
        &self,
        src: NodeId,
        dst: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> Result<(), NetError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(());
        }
        self.stats.record_rpc(src, dst, req_bytes, resp_bytes);
        // Control plane: round-trip latency plus serialization at line
        // rate, but no NIC reservation — RPCs are small and latency-bound,
        // and modelling them through the bulk lanes would serialize every
        // metadata lookup behind multi-megabyte chunk transfers.
        let wire = req_bytes + resp_bytes + 2 * self.params.msg_overhead_bytes;
        let cost = 2 * self.params.link_latency_us
            + self.params.rpc_overhead_us
            + (wire as f64 / self.params.nic_bw).ceil() as u64;
        self.sleep_until_model(self.now_model() + cost);
        Ok(())
    }

    fn disk_read(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(node)?;
        self.stats.record_disk_read(node, bytes);
        let done = self.disks[node.index()]
            .lock()
            .fifo(self.now_model(), bytes);
        self.sleep_until_model(done);
        Ok(())
    }

    fn disk_write(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(node)?;
        self.stats.record_disk_write(node, bytes);
        let done = self.disks[node.index()]
            .lock()
            .fifo(self.now_model(), bytes);
        self.sleep_until_model(done);
        Ok(())
    }

    fn disk_write_cached(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(node)?;
        self.stats.record_disk_write(node, bytes);
        let done = self.disks[node.index()]
            .lock()
            .write_back(self.now_model(), bytes);
        self.sleep_until_model(done);
        Ok(())
    }

    fn disk_sync(&self, node: NodeId) -> Result<(), NetError> {
        self.check(node)?;
        let done = self.disks[node.index()].lock().sync_done(self.now_model());
        self.sleep_until_model(done);
        Ok(())
    }

    fn compute(&self, _node: NodeId, micros: u64) {
        self.sleep_until_model(self.now_model() + micros);
    }

    fn par_join(&self, mut tasks: Vec<Box<dyn FnOnce() + Send + 'static>>) {
        match tasks.len() {
            0 => {}
            1 => (tasks.pop().unwrap())(),
            _ => {
                let first = tasks.remove(0);
                thread::scope(|s| {
                    for t in tasks {
                        s.spawn(t);
                    }
                    // Run one task on the caller's thread: no idle joiner,
                    // and a pool-starvation deadlock is impossible.
                    first();
                });
            }
        }
    }

    fn spawn_detached(&self, task: Box<dyn FnOnce() + Send + 'static>) {
        self.pool.submit(task);
    }

    fn quiesce(&self) {
        self.pool.drain();
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.down.read().get(node.index()).copied().unwrap_or(false)
    }

    fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Cheap params: 1000 B/us links, no latency/overhead, 1000× time
    /// compression => a 1 MB transfer models ~1049 us, sleeps ~1 us real.
    fn params(nodes: usize) -> ThreadParams {
        ThreadParams {
            nodes,
            nic_bw: 1000.0,
            link_latency_us: 0,
            msg_overhead_bytes: 0,
            rpc_overhead_us: 0,
            disk: ThreadDiskParams {
                bandwidth: 1000.0,
                access_us: 0,
                mem_bandwidth: 10_000.0,
                dirty_limit: 1 << 20,
            },
            time_scale: 1000.0,
            pool_threads: 2,
        }
    }

    #[test]
    fn clock_is_monotonic_and_advances() {
        let f = ThreadFabric::new(params(2));
        let a = f.now_us();
        f.compute(NodeId(0), 500);
        let b = f.now_us();
        assert!(b >= a + 500, "compute must advance the modelled clock");
    }

    #[test]
    fn transfers_serialize_on_the_ingress_lane() {
        let f = ThreadFabric::new(params(3));
        // Two 1 MB pushes into the same receiver: the second queues
        // behind the first, so both cost ~1049 modelled us each.
        f.transfer(NodeId(0), NodeId(2), 1 << 20).unwrap();
        f.transfer(NodeId(1), NodeId(2), 1 << 20).unwrap();
        assert!(
            f.now_us() >= 2 * (1 << 20) / 1000,
            "ingress lane must serialize: now {}",
            f.now_us()
        );
        assert_eq!(f.stats().total_network_bytes(), 2 << 20);
        assert_eq!(f.stats().node(NodeId(2)).received, 2 << 20);
    }

    #[test]
    fn transfer_all_waits_for_the_slowest_and_accounts_everything() {
        let f = ThreadFabric::new(params(4));
        let xs = [
            Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 500_000,
            },
            Transfer {
                src: NodeId(2),
                dst: NodeId(1),
                bytes: 500_000,
            },
            Transfer {
                src: NodeId(3),
                dst: NodeId(3),
                bytes: 999,
            },
        ];
        f.transfer_all(&xs).unwrap();
        // Both hit node 1's ingress: 500 + 500 modelled us end-to-end.
        assert!(f.now_us() >= 1000, "shared ingress: now {}", f.now_us());
        assert_eq!(f.stats().total_network_bytes(), 1_000_000);
    }

    #[test]
    fn self_transfers_are_free_and_unrecorded() {
        let f = ThreadFabric::new(params(2));
        f.transfer(NodeId(1), NodeId(1), 123_456).unwrap();
        f.rpc(NodeId(0), NodeId(0), 100, 100).unwrap();
        assert_eq!(f.stats().total_network_bytes(), 0);
    }

    #[test]
    fn failed_node_errors_until_recovered() {
        let f = ThreadFabric::new(params(3));
        f.fail_node(NodeId(2));
        assert_eq!(
            f.transfer(NodeId(0), NodeId(2), 10),
            Err(NetError::NodeDown(NodeId(2)))
        );
        assert_eq!(
            f.disk_read(NodeId(2), 10),
            Err(NetError::NodeDown(NodeId(2)))
        );
        f.recover_node(NodeId(2));
        assert!(f.transfer(NodeId(0), NodeId(2), 10).is_ok());
    }

    #[test]
    fn disjoint_lanes_overlap_in_real_time_with_exact_accounting() {
        // Two transfers on disjoint lane pairs: no lane lock is held
        // across a modelled delay, so issued concurrently their real
        // sleeps overlap, where issued one after the other they add up.
        // ~20 ms real per transfer: long enough that scheduler noise
        // cannot blur serialized vs overlapped.
        let bytes = 20_000_000_000; // 20e6 modelled us / 1000 scale
        let run = |concurrent: bool| {
            let f = ThreadFabric::new(params(4));
            let started = Instant::now();
            thread::scope(|s| {
                let fa = Arc::clone(&f);
                let other = move || fa.transfer(NodeId(0), NodeId(1), bytes).unwrap();
                if concurrent {
                    s.spawn(other);
                } else {
                    other();
                }
                f.transfer(NodeId(2), NodeId(3), bytes).unwrap();
            });
            assert_eq!(f.stats().total_network_bytes(), 2 * bytes);
            assert_eq!(f.stats().transfer_count(), 2);
            started.elapsed()
        };
        let serial = run(false);
        let overlapped = run(true);
        assert!(
            overlapped.as_secs_f64() * 1.5 < serial.as_secs_f64(),
            "disjoint lanes must overlap: {overlapped:?} vs serial {serial:?}"
        );
    }

    #[test]
    fn par_join_runs_every_task() {
        let f = ThreadFabric::new(params(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        f.par_join(tasks);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn quiesce_drains_detached_work() {
        let f = ThreadFabric::new(params(2));
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            let fab = Arc::clone(&f);
            f.spawn_detached(Box::new(move || {
                fab.compute(NodeId(0), 50);
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        f.quiesce();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            32,
            "quiesce must join all jobs"
        );
    }

    #[test]
    fn disk_lane_matches_the_simulator_formulas() {
        // Same numbers as the bff-sim disk tests: bw 100 B/us, access
        // 10us, mem 1000 B/us, dirty limit 10_000 B.
        let p = ThreadDiskParams {
            bandwidth: 100.0,
            access_us: 10,
            mem_bandwidth: 1000.0,
            dirty_limit: 10_000,
        };
        let mut lane = DiskLane::new(p);
        assert_eq!(lane.fifo(0, 1000), 20);
        assert_eq!(lane.fifo(0, 1000), 40, "FIFO queues in order");
        assert_eq!(lane.fifo(100, 1000), 120, "idle disk starts at once");

        let mut lane = DiskLane::new(p);
        assert_eq!(lane.write_back(0, 10_000), 10, "absorbed at mem speed");
        assert_eq!(lane.write_back(0, 5_000), 55, "throttled over the limit");

        let mut lane = DiskLane::new(p);
        lane.write_back(0, 5_000);
        assert_eq!(lane.sync_done(0), 50);
        assert_eq!(lane.sync_done(30), 50, "partial drain shortens the sync");
    }

    #[test]
    fn rpc_charges_latency_and_serialization() {
        let mut p = params(2);
        p.link_latency_us = 100;
        p.rpc_overhead_us = 50;
        let f = ThreadFabric::new(p);
        f.rpc(NodeId(0), NodeId(1), 1000, 1000).unwrap();
        assert!(f.now_us() >= 2 * 100 + 50 + 2, "round trip: {}", f.now_us());
        assert_eq!(f.stats().total_network_bytes(), 2000);
        assert_eq!(f.stats().rpc_count(), 1);
    }
}
