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
/// modelled cost is charged to the fabric by the client, at the same
/// point of the protocol whichever way the message moves — before a
/// request is sent, or, for a read's data, after its replies arrive),
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
    /// Stable textual name (CLI flags, `BFF_TRANSPORT`).
    pub fn name(self) -> &'static str {
        match self {
            TransportMode::Direct => "direct",
            TransportMode::Codec => "codec",
            TransportMode::Socket => "socket",
        }
    }

    /// Parse [`TransportMode::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "direct" => Some(TransportMode::Direct),
            "codec" => Some(TransportMode::Codec),
            "socket" => Some(TransportMode::Socket),
            _ => None,
        }
    }

    fn from_env() -> Self {
        match std::env::var("BFF_TRANSPORT") {
            Ok(v) => Self::parse(&v).unwrap_or(TransportMode::Direct),
            Err(_) => TransportMode::Direct,
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
    /// nodes is published by reference instead of re-replicated. Probes
    /// resolve against the node's gossiped replica (no RPC); each commit
    /// pays at most one control round to publish its novel index
    /// entries. Defaults to the `BFF_CLUSTER_DEDUP` environment variable
    /// (unset → on), which is how CI runs the whole suite in both modes.
    pub cluster_dedup: bool,
    /// Entries kept in the cluster-wide dedup index. `0` disables the
    /// cluster index even when [`BlobConfig::cluster_dedup`] is on.
    pub cluster_index_chunks: usize,
    /// Versions kept in the node-shared chunk-descriptor cache before
    /// LRU eviction (entries are per `(blob, version)`; snapshots are
    /// immutable so the bound only caps memory, never freshness).
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
    /// index instead of 64-bit FNV: the collision-resistant mode. Either
    /// way a hit is validated by the provider storing the chunk, which
    /// compares the key with the length and digest of its stored bytes;
    /// with this on that proves content equality rather than 64-bit
    /// digest equality. Off by default: FNV is the reference behaviour.
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
    /// Defaults to the `BFF_TRANSPORT` environment variable (unset or
    /// unrecognized → [`TransportMode::Direct`]), which is how CI runs
    /// the whole test suite over the codec transport.
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

/// Whether an on-by-default feature toggle (`BFF_DEDUP`,
/// `BFF_PREFETCH`) asks to be disabled (CI toggles the whole test suite
/// through these).
fn env_default_on(var: &str) -> bool {
    match std::env::var(var) {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
        Err(_) => true,
    }
}

impl Default for BlobConfig {
    fn default() -> Self {
        Self {
            chunk_size: 256 << 10,
            replication: 1,
            replication_mode: ReplicationMode::Fanout,
            async_writes: true,
            provider_read_cache: true,
            node_bytes: 96,
            control_bytes: 64,
            dedup: env_default_on("BFF_DEDUP"),
            cluster_dedup: env_default_on("BFF_CLUSTER_DEDUP"),
            cluster_index_chunks: 1 << 18,
            desc_cache_versions: 64,
            digest_index_chunks: 1 << 16,
            prefetch: env_default_on("BFF_PREFETCH"),
            prefetch_window: 8,
            prefetch_min_publishers: 2,
            chunk_cache_bytes: 64 << 20,
            strong_digest: false,
            coarse_board_lock: false,
            coarse_cache_locks: false,
            coarse_cluster_probe: false,
            transport: TransportMode::from_env(),
            group_commit: true,
            flush_interval_us: 500,
        }
    }
}

impl BlobConfig {
    /// The default configuration with every `BFF_*` feature toggle read
    /// from the environment. This is the **single** place the service
    /// consults the environment; all other code receives a `BlobConfig`.
    ///
    /// | Variable | Effect | Default |
    /// |---|---|---|
    /// | `BFF_DEDUP` | node-level content dedup ([`BlobConfig::dedup`]); `0`/`false`/`off`/`no` disables | on |
    /// | `BFF_CLUSTER_DEDUP` | cluster-wide dedup index ([`BlobConfig::cluster_dedup`]); same disable spellings | on |
    /// | `BFF_PREFETCH` | adaptive cross-VM prefetching ([`BlobConfig::prefetch`]); same disable spellings | on |
    /// | `BFF_TRANSPORT` | request transport ([`BlobConfig::transport`]): `direct`, `codec` or `socket` | `direct` |
    /// | `BFF_DATA_DIR` | durable state directory for `blob_server` processes (same as `--data-dir`): segment files + ref log for providers, mutation journal for managers, replayed on restart | off (volatile) |
    ///
    /// The benchmark harness reads two more variables that are *not*
    /// part of the service configuration: `BFF_BENCH_FAST` (shrink sweep
    /// sizes for CI smoke runs) and `BFF_BENCH_JSON` (emit
    /// machine-readable results) — see the `bff-bench` crate.
    pub fn from_env() -> Self {
        Self::default()
    }

    /// Start a builder from the environment-derived defaults:
    /// `BlobConfig::builder().dedup(false).prefetch_window(32).build()`.
    pub fn builder() -> BlobConfigBuilder {
        BlobConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Fluent construction of a [`BlobConfig`] (see [`BlobConfig::builder`]).
#[derive(Debug, Clone)]
pub struct BlobConfigBuilder {
    cfg: BlobConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, v: $ty) -> Self {
                self.cfg.$field = v;
                self
            }
        )*
    };
}

impl BlobConfigBuilder {
    builder_setters! {
        /// See [`BlobConfig::chunk_size`].
        chunk_size: u64,
        /// See [`BlobConfig::replication`].
        replication: usize,
        /// See [`BlobConfig::replication_mode`].
        replication_mode: ReplicationMode,
        /// See [`BlobConfig::async_writes`].
        async_writes: bool,
        /// See [`BlobConfig::node_bytes`].
        node_bytes: u64,
        /// See [`BlobConfig::control_bytes`].
        control_bytes: u64,
        /// See [`BlobConfig::dedup`].
        dedup: bool,
        /// See [`BlobConfig::cluster_dedup`].
        cluster_dedup: bool,
        /// See [`BlobConfig::cluster_index_chunks`].
        cluster_index_chunks: usize,
        /// See [`BlobConfig::desc_cache_versions`].
        desc_cache_versions: usize,
        /// See [`BlobConfig::digest_index_chunks`].
        digest_index_chunks: usize,
        /// See [`BlobConfig::prefetch`].
        prefetch: bool,
        /// See [`BlobConfig::prefetch_window`].
        prefetch_window: usize,
        /// See [`BlobConfig::prefetch_min_publishers`].
        prefetch_min_publishers: usize,
        /// See [`BlobConfig::chunk_cache_bytes`].
        chunk_cache_bytes: u64,
        /// See [`BlobConfig::strong_digest`].
        strong_digest: bool,
        /// See [`BlobConfig::transport`].
        transport: TransportMode,
        /// See [`BlobConfig::flush_interval_us`].
        flush_interval_us: u64,
    }

    /// Finish: the accumulated configuration.
    pub fn build(self) -> BlobConfig {
        self.cfg
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

    #[test]
    fn builder_overrides_defaults() {
        let cfg = BlobConfig::builder()
            .dedup(false)
            .prefetch_window(32)
            .transport(TransportMode::Codec)
            .build();
        assert!(!cfg.dedup);
        assert_eq!(cfg.prefetch_window, 32);
        assert_eq!(cfg.transport, TransportMode::Codec);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.chunk_size, BlobConfig::default().chunk_size);
    }

    #[test]
    fn transport_mode_names_roundtrip() {
        for mode in [
            TransportMode::Direct,
            TransportMode::Codec,
            TransportMode::Socket,
        ] {
            assert_eq!(TransportMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(TransportMode::parse("carrier-pigeon"), None);
    }
}
