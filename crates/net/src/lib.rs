//! # bff-net
//!
//! Node identities, the [`Fabric`] trait, and transfer accounting.
//!
//! Every distributed component in the workspace (BlobSeer providers, PVFS
//! servers, the mirroring module, broadcast trees) is written against
//! [`Fabric`]: an interface that *charges* for network transfers, RPCs,
//! disk accesses and CPU time. The protocol logic is therefore identical in
//! both execution modes:
//!
//! * [`LocalFabric`] — costs are free (calls return immediately) but fully
//!   accounted; used by the in-process stack that operates on real bytes
//!   and real files (examples, correctness tests).
//! * `bff_sim::SimFabric` — costs advance a deterministic virtual clock and
//!   contend on modelled NICs and disks; used by the testbed-scale
//!   experiments that regenerate the paper's figures.
//!
//! Because all byte movement goes through a `Fabric`, the "total network
//! traffic" series of the paper's Fig. 4(d) is simply a [`TrafficStats`]
//! snapshot — no experiment-specific instrumentation is needed.

pub mod stats;
pub mod transport;

pub use stats::{NodeTraffic, TrafficStats};
pub use transport::{
    CodecTransport, FrameHandler, FrameServer, Role, RouteKey, RouteTable, SocketTransport,
    Transport, WireError, WireStats,
};

use std::fmt;
use std::sync::Arc;

/// Identifier of a machine in the (real or simulated) cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form, for dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A single point-to-point bulk transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Payload size in bytes (headers are modelled separately by the
    /// implementation's per-message overhead parameter).
    pub bytes: u64,
}

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The target (or source) node is marked failed.
    NodeDown(NodeId),
    /// The simulation was torn down while the operation was in flight.
    Cancelled,
    /// A transport-level failure (encoding, framing, or socket I/O).
    /// Carried inside `NetError` so broken connections flow down the same
    /// per-chunk failover paths as fail-stop node failures.
    Wire(transport::WireError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeDown(n) => write!(f, "{n} is down"),
            NetError::Cancelled => write!(f, "operation cancelled"),
            NetError::Wire(e) => write!(f, "wire failure: {e}"),
        }
    }
}

impl From<transport::WireError> for NetError {
    fn from(e: transport::WireError) -> Self {
        NetError::Wire(e)
    }
}

impl std::error::Error for NetError {}

/// The cost-accounting substrate all distributed logic is written against.
///
/// Implementations must be safe to call from many threads (the in-process
/// stack uses real threads; the simulator uses coroutine processes).
pub trait Fabric: Send + Sync {
    /// Current time in microseconds: virtual time on the simulator, 0 on
    /// the cost-free [`LocalFabric`].
    fn now_us(&self) -> u64;

    /// Move `bytes` from `src` to `dst`, blocking the caller until the
    /// transfer completes. Self-transfers (src == dst) are free except for
    /// accounting done by the implementation.
    fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> Result<(), NetError>;

    /// Perform several transfers concurrently, returning when all have
    /// completed. This is the primitive behind the paper's parallel chunk
    /// fetches (§3.1.3): the chunks that cover a read are pulled from their
    /// providers simultaneously and contend for the reader's ingress NIC.
    fn transfer_all(&self, xfers: &[Transfer]) -> Result<(), NetError>;

    /// A control-plane round trip (`req_bytes` there, `resp_bytes` back),
    /// used for metadata lookups and provider-manager calls.
    fn rpc(
        &self,
        src: NodeId,
        dst: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> Result<(), NetError>;

    /// Charge a local-disk read of `bytes` at `node`.
    fn disk_read(&self, node: NodeId, bytes: u64) -> Result<(), NetError>;

    /// Charge a local-disk write of `bytes` at `node`, written through to
    /// the medium (FIFO with reads). This is how hypervisor direct writes
    /// behave in the paper's baseline configurations.
    fn disk_write(&self, node: NodeId, bytes: u64) -> Result<(), NetError>;

    /// Charge a *write-back* disk write: absorbed at memory speed while
    /// the page cache is under its dirty limit, throttled above it. This
    /// is the mirroring module's mmap strategy (§4.2) and BlobSeer's
    /// asynchronous provider writes (§5.3).
    fn disk_write_cached(&self, node: NodeId, bytes: u64) -> Result<(), NetError>;

    /// Block until all cached dirty bytes at `node` have reached the disk
    /// (fsync barrier).
    fn disk_sync(&self, node: NodeId) -> Result<(), NetError>;

    /// Burn `micros` of CPU time at `node` (boot-phase compute interludes,
    /// hypervisor overheads, FUSE context switches).
    fn compute(&self, node: NodeId, micros: u64);

    /// Run independent tasks to completion, concurrently where the fabric
    /// supports it. This is the structured-concurrency primitive behind
    /// parallel chunk fetches that involve per-provider disk + network
    /// stages. Tasks must be `'static` (share state via `Arc`); they are
    /// all finished when this returns. The default implementation runs
    /// tasks sequentially, which is semantically equivalent for
    /// independent tasks on a cost-free fabric.
    fn par_join(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'static>>) {
        for t in tasks {
            t();
        }
    }

    /// Start `task` as *background* work: the caller continues
    /// immediately and does not observe the task's completion — the
    /// primitive behind asynchronous read-ahead, where transfers must
    /// overlap the initiator's own timeline instead of extending it. On
    /// a simulator this spawns a concurrent process whose costs contend
    /// normally on the modelled resources; the simulation still runs it
    /// to completion. The default (used by cost-free fabrics, where
    /// "overlap" moves no clock) runs the task inline.
    fn spawn_detached(&self, task: Box<dyn FnOnce() + Send + 'static>) {
        task();
    }

    /// Whether a node is marked failed (fail-stop model).
    fn is_down(&self, _node: NodeId) -> bool {
        false
    }

    /// Aggregate traffic statistics.
    fn stats(&self) -> &TrafficStats;
}

/// A zero-latency, infinite-bandwidth fabric for in-process use.
///
/// All operations complete immediately but are fully accounted in
/// [`TrafficStats`], and fail-stop node failures are honoured, so
/// correctness tests (including failure injection) run against the exact
/// protocol logic the simulator exercises.
pub struct LocalFabric {
    stats: TrafficStats,
    down: parking_lot::RwLock<Vec<bool>>,
}

impl LocalFabric {
    /// Create a fabric for `nodes` machines.
    pub fn new(nodes: usize) -> Arc<Self> {
        Arc::new(Self {
            stats: TrafficStats::new(nodes),
            down: parking_lot::RwLock::new(vec![false; nodes]),
        })
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
}

impl Fabric for LocalFabric {
    fn now_us(&self) -> u64 {
        0
    }

    fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(src)?;
        self.check(dst)?;
        if src != dst {
            self.stats.record_transfer(src, dst, bytes);
        }
        Ok(())
    }

    fn transfer_all(&self, xfers: &[Transfer]) -> Result<(), NetError> {
        for x in xfers {
            self.transfer(x.src, x.dst, x.bytes)?;
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
        if src != dst {
            self.stats.record_rpc(src, dst, req_bytes, resp_bytes);
        }
        Ok(())
    }

    fn disk_read(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(node)?;
        self.stats.record_disk_read(node, bytes);
        Ok(())
    }

    fn disk_write(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(node)?;
        self.stats.record_disk_write(node, bytes);
        Ok(())
    }

    fn disk_write_cached(&self, node: NodeId, bytes: u64) -> Result<(), NetError> {
        self.check(node)?;
        self.stats.record_disk_write(node, bytes);
        Ok(())
    }

    fn disk_sync(&self, node: NodeId) -> Result<(), NetError> {
        self.check(node)
    }

    fn compute(&self, _node: NodeId, _micros: u64) {}

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

    #[test]
    fn local_fabric_accounts_transfers() {
        let f = LocalFabric::new(4);
        f.transfer(NodeId(0), NodeId(1), 1000).unwrap();
        f.transfer(NodeId(1), NodeId(2), 500).unwrap();
        // Self transfer is free.
        f.transfer(NodeId(3), NodeId(3), 999).unwrap();
        assert_eq!(f.stats().total_network_bytes(), 1500);
        assert_eq!(f.stats().node(NodeId(1)).sent, 500);
        assert_eq!(f.stats().node(NodeId(1)).received, 1000);
    }

    #[test]
    fn rpc_counts_both_directions() {
        let f = LocalFabric::new(2);
        f.rpc(NodeId(0), NodeId(1), 100, 300).unwrap();
        assert_eq!(f.stats().total_network_bytes(), 400);
        assert_eq!(f.stats().node(NodeId(0)).sent, 100);
        assert_eq!(f.stats().node(NodeId(0)).received, 300);
    }

    #[test]
    fn failed_node_errors() {
        let f = LocalFabric::new(3);
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
    fn transfer_all_accounts_everything() {
        let f = LocalFabric::new(4);
        let xs = [
            Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 10,
            },
            Transfer {
                src: NodeId(2),
                dst: NodeId(1),
                bytes: 20,
            },
        ];
        f.transfer_all(&xs).unwrap();
        assert_eq!(f.stats().total_network_bytes(), 30);
        assert_eq!(f.stats().node(NodeId(1)).received, 30);
    }
}
