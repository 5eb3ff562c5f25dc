//! Public configuration and placement of the BlobSeer-like versioning
//! storage service.
//!
//! The service's identifier, descriptor and error types live in
//! [`bff_wire::types`] — they *are* the wire protocol's vocabulary — and
//! are re-exported here unchanged, so `bff_blobseer::api::BlobId` (and
//! every other historical path) keeps working.

use bff_net::NodeId;

pub use bff_wire::types::{
    BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, NodeKey, TreeNode, Version,
};

/// How chunk replicas are pushed to their providers on write.
///
/// Both modes move the same payload bytes and leave byte-identical
/// provider state; they differ in how the transfers are shaped, which is
/// what the fabric's per-message costs see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// The client pushes every replica itself, with all pushes grouped by
    /// destination provider into one batched transfer each (client
    /// egress `k×` the payload). What every deployment runs.
    Fanout,
    /// The pre-batching reference path: one push per chunk, replicas in
    /// sequence. Kept for equivalence tests and as the perf baseline the
    /// `bench-regression` CI gate measures fan-out against.
    Sequential,
}

/// Which hop, if any, sits between a [`crate::BlobStore`] and the
/// [`crate::ServerState`] it deploys (see `bff_net::Transport` and the
/// `bff-wire` crate docs).
///
/// There is one request path: every client call is a typed
/// `bff_wire::Req` served by `ServerState::dispatch`, which does all
/// locking and journaling. The mode only selects how the request gets
/// there, so all three produce **identical logical outcomes** (every
/// modelled cost is priced per request by one cost book and paid where
/// the request is sent, at the same point of the protocol whichever way
/// the message moves — before the request goes out, or from its reply),
/// any of them can be durable, and they differ only in real CPU cost:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// No hop: the typed request is handed to the in-process
    /// `dispatch` unencoded. No frame ever exists.
    Direct,
    /// In-process, but every request/response round-trips through the
    /// full `bff-wire` binary codec. Anything that could not cross a
    /// process boundary fails loudly here.
    Codec,
    /// Real framed TCP over loopback: one listener thread per server
    /// role, spawned inside this process. (A genuinely multi-process
    /// cluster instead connects a `SocketTransport` to external
    /// `blob_server` processes via [`crate::BlobStore::remote`].)
    Socket,
}

impl TransportMode {
    /// Every mode, in the order `BFF_TRANSPORT` lists its values.
    pub(crate) const ALL: [TransportMode; 3] = [
        TransportMode::Direct,
        TransportMode::Codec,
        TransportMode::Socket,
    ];

    /// Stable textual name (CLI flags, `BFF_TRANSPORT`).
    pub fn name(self) -> &'static str {
        match self {
            TransportMode::Direct => "direct",
            TransportMode::Codec => "codec",
            TransportMode::Socket => "socket",
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct BlobConfig {
    /// Chunk (stripe) size in bytes. Paper: 256 KB.
    pub chunk_size: u64,
    /// Number of replicas per chunk. Paper's headline runs: 1.
    pub replication: usize,
    /// How replicas are pushed on write (see [`ReplicationMode`]).
    pub replication_mode: ReplicationMode,
    /// Providers acknowledge writes after the page cache absorbs them
    /// (§5.3: "BlobSeer uses an asynchronous write strategy that returns
    /// to the client before data was committed to disk").
    pub async_writes: bool,
    /// Ignored: providers always serve repeat chunk reads from memory
    /// (the host page cache). Kept only for the benchmark's struct
    /// literal (ROADMAP 1(c)).
    pub provider_read_cache: bool,
    /// Serialized size of one metadata tree node, for RPC costing.
    pub node_bytes: u64,
    /// Size of a small control message, for RPC costing.
    pub control_bytes: u64,
    /// Content-addressed write deduplication (§3.1.3): a commit whose
    /// chunk payload already has live replicas under the node's digest
    /// index is published by reference (descriptor reuse + provider-side
    /// refcount bump) instead of re-replicated. Defaults to the
    /// `BFF_DEDUP` environment variable (unset → on), which is how CI
    /// runs the whole suite in both modes.
    pub dedup: bool,
    /// Cluster-wide content-addressed dedup (the second-level filter
    /// behind [`BlobConfig::dedup`], which must also be on): commits
    /// whose payloads miss the node's digest index additionally probe
    /// the cluster [`crate::cluster::ClusterIndex`] hosted beside the
    /// provider manager, so identical content committed from *different*
    /// nodes is published by reference instead of re-replicated. A
    /// commit probes the index with one `ClusterReq::Get` to the cluster
    /// role for all its node-index misses — a real frame behind a
    /// transport hop, which the cost model prices at zero, as if the
    /// node read a gossiped replica — and pays at most one control round
    /// to publish its novel index entries. Defaults to the `BFF_CLUSTER_DEDUP` environment variable
    /// (unset → on), which is how CI runs the whole suite in both modes.
    pub cluster_dedup: bool,
    /// Entries kept in the cluster-wide dedup index. `0` disables the
    /// cluster index even when [`BlobConfig::cluster_dedup`] is on.
    pub cluster_index_chunks: usize,
    /// `(blob, version)` entries a node keeps in its version facts and
    /// its access trackers before LRU eviction (snapshots are immutable,
    /// so the bound only caps memory, never freshness). Descriptors are
    /// not cached per version: a read resolves them from the node's
    /// tree-node cache.
    pub desc_cache_versions: usize,
    /// Entries kept in the node's content-digest index (dedup lookup
    /// window). `0` disables the index even when `dedup` is on.
    pub digest_index_chunks: usize,
    /// Adaptive cross-VM prefetching (§3.1.3: co-deployed VMs touch
    /// nearly identical chunk sequences): nodes publish access summaries
    /// to the cluster `PatternBoard` and issue asynchronous read-ahead
    /// of the chunks their peers touched, landing them in the
    /// node-shared chunk cache. Defaults to the `BFF_PREFETCH`
    /// environment variable (unset → on), which is how CI runs the whole
    /// suite in both modes.
    pub prefetch: bool,
    /// In-flight budget of one asynchronous read-ahead step, in chunks
    /// ([`crate::Client::prefetch_chunks`] fetches at most this many per
    /// call).
    pub prefetch_window: usize,
    /// Prefetch confidence filter: only read ahead chunks that at least
    /// this many *distinct* publishers reported to the cluster
    /// [`crate::board::PatternBoard`]. Applies once the board has seen
    /// that many publishers for the snapshot — a lone seed VM's pattern
    /// is still prefetched in full; as soon as a cohort exists,
    /// single-publisher chunks (one VM's private divergence) are skipped,
    /// cutting read-ahead waste. `0` and `1` disable the filter.
    pub prefetch_min_publishers: usize,
    /// Byte bound of the node-shared chunk-data cache that prefetched
    /// (and, while prefetching is on, demand-fetched) chunks land in.
    /// LRU-evicted. A bound that cannot hold at least one chunk
    /// (including `0`) disables the cache — and with it the whole
    /// prefetch pipeline, even when [`BlobConfig::prefetch`] is on:
    /// read-ahead without somewhere to land the data would fetch every
    /// predicted chunk twice.
    pub chunk_cache_bytes: u64,
    /// Use the cryptographic (SHA-256) content digest for the dedup
    /// index instead of 64-bit XXH64: the collision-resistant mode.
    /// Either way a hit is validated by the provider storing the chunk,
    /// which compares the key with the length and digest of its stored
    /// bytes; with this on that proves content equality rather than
    /// 64-bit digest equality. Off by default: XXH64 is the reference
    /// behaviour.
    pub strong_digest: bool,
    /// Ignored; kept only for the benchmark's struct literal (ROADMAP
    /// 1(c)).
    pub coarse_board_lock: bool,
    /// Ignored; kept only for the benchmark's struct literal (ROADMAP
    /// 1(c)).
    pub coarse_cache_locks: bool,
    /// Ignored; kept only for the benchmark's struct literal (ROADMAP
    /// 1(c)).
    pub coarse_cluster_probe: bool,
    /// How typed requests reach the server roles (see [`TransportMode`]).
    /// Defaults to the `BFF_TRANSPORT` environment variable (unset →
    /// [`TransportMode::Direct`]), which is how CI runs the whole test
    /// suite over the codec transport.
    pub transport: TransportMode,
    /// Ignored: disk-backed deployments always group-commit (see
    /// [`crate::durable::GroupCommit`]). Kept only for the benchmark's
    /// struct literal (ROADMAP 1(c)).
    pub group_commit: bool,
    /// Upper bound, in microseconds, on how long a group-commit
    /// follower parks for a leader's sync before re-checking (and, with
    /// the leader gone, taking over) — a lone writer's ack is never
    /// delayed past this window by a vanished cohort.
    pub flush_interval_us: u64,
}

/// The spellings an on/off `BFF_*` toggle accepts.
const TOGGLE: [(&str, bool); 8] = [
    ("1", true),
    ("true", true),
    ("on", true),
    ("yes", true),
    ("0", false),
    ("false", false),
    ("off", false),
    ("no", false),
];

/// The value of the `BFF_*` variable `var` whose setting is `value`
/// (`None` when unset, which reads as `unset`), looked up among the
/// `accepted` spellings; surrounding whitespace is ignored. Any other
/// setting is an error that names the variable and the accepted
/// spellings: a mistyped toggle must not silently run the wrong
/// configuration.
fn setting<T: Copy>(
    var: &str,
    value: Option<&str>,
    unset: T,
    accepted: &[(&str, T)],
) -> Result<T, String> {
    let Some(value) = value else {
        return Ok(unset);
    };
    match accepted.iter().find(|(name, _)| *name == value.trim()) {
        Some(&(_, v)) => Ok(v),
        None => {
            let names: Vec<&str> = accepted.iter().map(|(name, _)| *name).collect();
            Err(format!(
                "{var}={value:?} is not one of {}",
                names.join(", ")
            ))
        }
    }
}

/// [`setting`] of `var` as the environment sets it; panics on an
/// unaccepted value.
fn env_setting<T: Copy>(var: &str, unset: T, accepted: &[(&str, T)]) -> T {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    setting(var, value.as_deref(), unset, accepted).unwrap_or_else(|e| panic!("{e}"))
}

/// The defaults, with every `BFF_*` feature toggle read from the
/// environment. This is the **single** place the service consults the
/// environment; all other code receives a `BlobConfig`. A value outside
/// the accepted spellings panics, naming the variable and the values it
/// accepts.
///
/// | Variable | Effect | Default |
/// |---|---|---|
/// | `BFF_DEDUP` | node-level content dedup ([`BlobConfig::dedup`]): `1`/`true`/`on`/`yes` enables, `0`/`false`/`off`/`no` disables | on |
/// | `BFF_CLUSTER_DEDUP` | cluster-wide dedup index ([`BlobConfig::cluster_dedup`]); same spellings | on |
/// | `BFF_PREFETCH` | adaptive cross-VM prefetching ([`BlobConfig::prefetch`]); same spellings | on |
/// | `BFF_TRANSPORT` | request transport ([`BlobConfig::transport`]): `direct`, `codec` or `socket` | `direct` |
/// | `BFF_DATA_DIR` | durable state directory for `blob_server` processes (same as `--data-dir`): segment files + ref log for providers, mutation journal for managers, replayed on restart | off (volatile) |
///
/// The benchmark harness reads two more variables that are *not* part
/// of the service configuration: `BFF_BENCH_FAST` (shrink sweep sizes
/// for CI smoke runs) and `BFF_BENCH_JSON` (emit machine-readable
/// results) — see the `bff-bench` crate.
impl Default for BlobConfig {
    fn default() -> Self {
        let transports = TransportMode::ALL.map(|mode| (mode.name(), mode));
        Self {
            chunk_size: 256 << 10,
            replication: 1,
            replication_mode: ReplicationMode::Fanout,
            async_writes: true,
            provider_read_cache: true,
            node_bytes: 96,
            control_bytes: 64,
            dedup: env_setting("BFF_DEDUP", true, &TOGGLE),
            cluster_dedup: env_setting("BFF_CLUSTER_DEDUP", true, &TOGGLE),
            cluster_index_chunks: 1 << 18,
            desc_cache_versions: 64,
            digest_index_chunks: 1 << 16,
            prefetch: env_setting("BFF_PREFETCH", true, &TOGGLE),
            prefetch_window: 8,
            prefetch_min_publishers: 2,
            chunk_cache_bytes: 64 << 20,
            strong_digest: false,
            coarse_board_lock: false,
            coarse_cache_locks: false,
            coarse_cluster_probe: false,
            transport: env_setting("BFF_TRANSPORT", TransportMode::Direct, &transports),
            group_commit: true,
            flush_interval_us: 500,
        }
    }
}

/// Placement of the service's roles onto cluster nodes.
///
/// In the paper's deployment the providers and metadata servers run on all
/// compute nodes (aggregating their local disks into the common pool,
/// §3.1.1), while the version manager and provider manager are single
/// logical services.
#[derive(Debug, Clone)]
pub struct BlobTopology {
    /// Node hosting the version manager.
    pub vmanager: NodeId,
    /// Node hosting the provider manager.
    pub pmanager: NodeId,
    /// Metadata server nodes (tree nodes are hash-partitioned over them).
    pub metadata: Vec<NodeId>,
    /// Chunk provider nodes.
    pub providers: Vec<NodeId>,
}

impl BlobTopology {
    /// The paper's co-located deployment: every compute node is both a
    /// provider and a metadata server; managers sit on `service_node`.
    pub fn colocated(compute_nodes: &[NodeId], service_node: NodeId) -> Self {
        Self {
            vmanager: service_node,
            pmanager: service_node,
            metadata: compute_nodes.to_vec(),
            providers: compute_nodes.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocated_topology() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let t = BlobTopology::colocated(&nodes, NodeId(9));
        assert_eq!(t.vmanager, NodeId(9));
        assert_eq!(t.providers.len(), 4);
        assert_eq!(t.metadata.len(), 4);
    }

    /// A `BFF_*` setting is one of its documented spellings or an error
    /// naming the variable and what it accepts — never a silent default.
    #[test]
    fn settings_accept_only_the_documented_spellings() {
        let toggle = |value| setting("BFF_DEDUP", value, true, &TOGGLE);
        for on in [None, Some("1"), Some("true"), Some("on"), Some("yes")] {
            assert_eq!(toggle(on), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "off", " no\n"] {
            assert_eq!(toggle(Some(off)), Ok(false), "{off:?}");
        }
        for typo in ["of", "", "On", "disabled"] {
            assert_eq!(
                toggle(Some(typo)),
                Err(format!(
                    "BFF_DEDUP={typo:?} is not one of 1, true, on, yes, 0, false, off, no"
                ))
            );
        }
        let transports = TransportMode::ALL.map(|mode| (mode.name(), mode));
        let transport = |value| setting("BFF_TRANSPORT", value, TransportMode::Direct, &transports);
        assert_eq!(transport(None), Ok(TransportMode::Direct));
        for mode in TransportMode::ALL {
            assert_eq!(transport(Some(mode.name())), Ok(mode));
        }
        assert_eq!(transport(Some("socket ")), Ok(TransportMode::Socket));
        assert_eq!(
            transport(Some("Socket")),
            Err("BFF_TRANSPORT=\"Socket\" is not one of direct, codec, socket".to_string())
        );
    }
}
