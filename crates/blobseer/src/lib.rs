//! # bff-blobseer
//!
//! A from-scratch reimplementation of the BlobSeer versioning storage
//! service (Nicolae et al. [23, 24] in the paper), the substrate under the
//! paper's virtual file system:
//!
//! * **Striping** — blobs are split into fixed-size chunks distributed
//!   round-robin over provider nodes, giving parallel access under
//!   concurrency (§3.1.3).
//! * **Shadowing** — every write publishes a new snapshot version whose
//!   metadata segment tree shares all unmodified nodes with its base
//!   (Fig. 3); snapshots are first-class, immutable, totally ordered.
//! * **Cloning** — the paper's extension to BlobSeer: a clone is a new
//!   blob whose first version references the source tree, sharing all
//!   chunks and metadata (Fig. 3b) at O(1) cost.
//! * **Asynchronous writes** — providers acknowledge once the page cache
//!   absorbs the data (§5.3), with the write-back pressure modelled by
//!   the fabric.
//!
//! Architecture: a [`server::ServerState`] owns the passive server state
//! machines (version manager, provider manager, metadata shards, chunk
//! providers, pattern board, cluster index) behind a typed message
//! boundary ([`bff_wire`]) with one entry point,
//! [`server::ServerState::dispatch`]; a [`service::BlobStore`] is the
//! client-side handle that sends every request there — handing the typed
//! value over in-process (direct), or through a
//! [`bff_net::transport::Transport`] hop: codec (every message
//! round-trips encode/decode) or socket (framed TCP, optionally to other
//! processes). [`client::Client`] executes the protocol; every request
//! it sends pays its modelled network and disk cost to a
//! [`bff_net::Fabric`] from one cost book (`cost.rs`: one exhaustive
//! table over the requests, applied where a request is sent), so the
//! identical code runs in-process (real bytes) and on the simulator
//! (virtual time), and logical outcomes are transport-invariant.

pub mod api;
pub mod board;
pub mod client;
pub mod cluster;
pub mod context;
mod cost;
pub mod durable;
pub mod meta;
pub mod pmanager;
pub mod provider;
pub mod segtree;
pub mod server;
pub mod service;
pub mod vmanager;

pub use api::{
    BlobConfig, BlobError, BlobId, BlobResult, BlobTopology, ChunkDesc, ChunkId, NodeKey,
    ReplicationMode, TransportMode, TreeNode, Version,
};
pub use board::{BoardService, PatternBoard};
pub use client::{Client, GcReport};
pub use cluster::ClusterIndex;
pub use context::{CacheStats, NodeContext, PrefetchStats, ReadAhead};
pub use durable::{CommitPolicy, DurabilityCounters, DurabilityStats, GroupCommit, RecoveryReport};
pub use pmanager::Placement;
pub use provider::ProviderStore;
pub use server::ServerState;
pub use service::BlobStore;
