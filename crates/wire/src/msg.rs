//! The typed request/response message set — one request enum per server
//! role, mirroring exactly the operations the client protocol performs
//! against the passive state machines. The messages preserve today's
//! *lock-acquisition granularity*: a batch message corresponds to one
//! lock acquisition server-side, a per-item message to one acquisition
//! per item, under every transport.
//!
//! A [`Req::Batch`] is only a carrier: it puts one protocol step's
//! requests for one server role — a fetch per provider, a read per
//! metadata shard — in one frame. The server serves its entries in
//! order, each exactly as it would serve the entry's own frame, so a
//! batch takes each destination's lock in turn (never two at once) and
//! each entry crosses its own durability barrier.
//!
//! Every type here is a row set of the protocol table (see
//! [`crate::table`]): its wire form is generated from the declaration.

use crate::codec::{Flat, FlatEntry, Reader, WireError};
use crate::types::{BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
use bff_data::{ContentKey, Payload};
use bff_net::{NodeId, Role, RouteKey};
use std::ops::Range;

wire_struct! {
    /// Per-blob bookkeeping snapshot served by the version manager.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct VersionInfo {
        /// Root of the version's metadata tree.
        pub root: NodeKey,
        /// Blob size in bytes.
        pub size: u64,
        /// Chunk size the blob was created with.
        pub chunk_size: u64,
        /// Chunk span of the metadata tree (power of two ≥ chunk count).
        pub span: u64,
    }
}

wire_struct! {
    /// Everything the compound snapshot-deletion call returns: kept in one
    /// message so the version-manager state transition stays atomic under
    /// one lock.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeleteOutcome {
        /// Roots of the deleted versions (reachability-diff sources).
        pub dead_roots: Vec<NodeKey>,
        /// Root of every still-live version in the blob's clone family,
        /// ascending, each key once however many versions alias it.
        pub live_roots: Vec<NodeKey>,
        /// Chunk span of the blob's metadata trees.
        pub span: u64,
    }
}

wire_enum! {
    /// Version-manager requests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum VmReq: "vm request" {
        /// Create an empty blob.
        0 => CreateBlob {
            /// Initial logical size.
            size: u64,
            /// Chunk size for the lineage.
            chunk_size: u64,
        },
        /// Clone a snapshot into a new blob lineage.
        1 => CloneBlob {
            /// Source blob.
            src: BlobId,
            /// Source snapshot.
            version: Version,
        },
        /// Latest published version of a blob.
        2 => Latest(blob: BlobId),
        /// Live (undeleted) snapshot list.
        4 => LiveSnapshots(blob: BlobId),
        /// Root + geometry of one snapshot.
        5 => VersionMeta(blob: BlobId, version: Version),
        /// Publish a new version with the given tree root.
        6 => Publish {
            /// Blob being written.
            blob: BlobId,
            /// Version the writer based its update on.
            base: Version,
            /// Root of the new metadata tree.
            root: NodeKey,
        },
        /// Delete snapshots and report the reachability inputs (compound;
        /// see [`DeleteOutcome`]).
        7 => DeleteSnapshots {
            /// Blob to delete from.
            blob: BlobId,
            /// Versions to delete.
            versions: Vec<Version>,
        },
        /// Reserve `n` fresh metadata node keys.
        8 => ReserveKeys(n: u64),
    }
    // 3: `Size`.
    retired [3]
}

wire_enum! {
    /// Version-manager responses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum VmResp: "vm response" {
        /// New blob id.
        0 => Created(id: BlobResult<BlobId>),
        /// Cloned blob id.
        1 => Cloned(id: BlobResult<BlobId>),
        /// Latest version.
        2 => Latest(version: BlobResult<Version>),
        /// Live snapshots.
        4 => LiveSnapshots(versions: BlobResult<Vec<Version>>),
        /// Snapshot root + geometry.
        5 => VersionMeta(info: BlobResult<VersionInfo>),
        /// Published version number.
        6 => Published(version: BlobResult<Version>),
        /// Deletion outcome.
        7 => Deleted(outcome: BlobResult<DeleteOutcome>),
        /// Reserved key range.
        8 => Reserved(keys: Range<u64>),
    }
    // 3: `Size`, retired with its request.
    retired [3]
}

wire_enum! {
    /// Provider-manager requests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PmReq: "pm request" {
        /// Allocate descriptors for `n` fresh chunks, skipping down nodes.
        0 => Allocate {
            /// Chunks to place.
            n: usize,
            /// Bytes per chunk (load accounting).
            chunk_bytes: u64,
            /// Replicas per chunk.
            replication: usize,
            /// Per-provider down flags, in topology provider order.
            down: Vec<bool>,
        },
    }
}

wire_enum! {
    /// Provider-manager responses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PmResp: "pm response" {
        /// Allocated descriptors, in chunk order.
        0 => Allocated(descs: BlobResult<Vec<ChunkDesc>>),
    }
}

wire_enum! {
    /// Metadata-shard requests.
    #[derive(Debug, Clone, PartialEq)]
    pub enum MetaReq: "meta request" {
        /// Fetch tree nodes; one shard lock held across the whole batch.
        0 => ReadNodes(keys: Vec<NodeKey>),
        /// Store tree nodes; one shard lock held across the whole batch.
        1 => WriteNodes(nodes: Vec<(NodeKey, TreeNode)>),
    }
}

wire_enum! {
    /// Metadata-shard responses.
    #[derive(Debug, Clone, PartialEq)]
    pub enum MetaResp: "meta response" {
        /// Nodes in request order (fails on the first missing key).
        0 => Nodes(nodes: BlobResult<Vec<TreeNode>>),
        /// Write acknowledged.
        1 => Written,
    }
}

wire_enum! {
    /// Chunk-provider requests. Addressed to one provider node (carried in
    /// [`Req::Provider`]); batches hold the provider lock once, single-item
    /// messages once per message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProviderReq: "provider request" {
        /// Store chunk replicas (one provider lock for the whole batch).
        0 => Put(items: Vec<(ChunkId, Payload)>),
        /// Fetch chunks for a read plan (one provider lock for the batch);
        /// marks hits hot in the provider's read cache.
        1 => Fetch(ids: Vec<ChunkId>),
        /// Drop one reference per listed id — an id listed twice loses two
        /// — under one provider lock, and report what happened to each
        /// (snapshot GC and write rollback: the provider's whole share).
        5 => ReleaseCounted(ids: Vec<ChunkId>),
        /// Commit by reference: per entry, take one reference on the chunk
        /// iff the provider's *stored* bytes have the given length and
        /// digest — an id listed twice gains two — under one provider lock
        /// and one durability barrier (the provider's whole share of a
        /// commit's dedup hits).
        6 => Retain(entries: Vec<(ChunkId, ContentKey)>),
    }
    // 2: `Peek`, 3: single-id `Retain`, 4: `Release`.
    retired [2, 3, 4]
}

wire_enum! {
    /// Chunk-provider responses.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProviderResp: "provider response" {
        /// Whether the provider accepted the batch.
        0 => Put(ok: bool),
        /// Per-chunk `(payload, was_cached)` in request order; `None` where
        /// the chunk is absent.
        1 => Fetched(chunks: Vec<Option<(Payload, bool)>>),
        /// `(bytes_freed, chunk_removed, reference_dropped)` per released
        /// id, in request order.
        5 => ReleaseCounted(outcomes: Vec<(u64, bool, bool)>),
        /// What happened to each [`ProviderReq::Retain`] entry, in request
        /// order.
        6 => Retained(outcomes: Vec<RetainOutcome>),
    }
    // 2–4, retired with their requests.
    retired [2, 3, 4]
}

wire_enum! {
    /// A provider's verdict on one [`ProviderReq::Retain`] entry.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RetainOutcome: "retain outcome" {
        /// The stored chunk matches the key; one reference was taken.
        0 => Retained,
        /// The chunk is stored but its length or digest differs from the
        /// key (a digest-index collision); nothing was taken.
        1 => Mismatch,
        /// The provider does not store the chunk (a stale index entry).
        2 => Gone,
    }
}

wire_enum! {
    /// Pattern-board requests (prefetch gossip) plus the snapshot-GC purge,
    /// which cleans board *and* cluster-index state in one message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BoardReq: "board request" {
        /// Snapshot-GC cleanup: drop dead patterns and evict freed chunks
        /// from the cluster dedup index.
        4 => Purge {
            /// Deleted snapshots.
            keys: Vec<(BlobId, Version)>,
            /// Chunk ids whose last replica was freed.
            freed: Vec<ChunkId>,
        },
        /// The one exchange between a node's board replica and the board:
        /// merge `batch` (a publish; empty = a poll, which changes nothing)
        /// and send back what the replica lacks.
        5 => Sync {
            /// Snapshot the pattern belongs to.
            key: (BlobId, Version),
            /// The asking node (the publisher of `batch`).
            publisher: NodeId,
            /// First-touch chunk indices to merge.
            batch: Vec<u64>,
            /// Length of the caller's replica: the reply starts here.
            from: usize,
            /// Confidence threshold the reply's flags are computed for.
            min_publishers: usize,
        },
    }
    // 0: `NovelOf`, 1: `Merge`, 2: `SequenceLen`, 3: `Sequence`.
    retired [0, 1, 2, 3]
}

wire_struct! {
    /// What the board answers a [`BoardReq::Sync`] with.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct BoardSync {
        /// Length of the merged sequence after the merge. Shorter than the
        /// caller's `from` when the board lost the pattern (eviction,
        /// restart): the replica is then ahead of a sequence that no longer
        /// exists.
        pub len: usize,
        /// Whether at least `min_publishers` distinct nodes have published
        /// for the snapshot — until then the prefetch confidence filter is
        /// off and every entry is worth reading ahead.
        pub cohort: bool,
        /// The sequence from the caller's `from` on — never an entry the
        /// caller holds — each with whether at least `min_publishers`
        /// distinct nodes reported it.
        pub tail: Vec<(u64, bool)>,
    }
}

wire_enum! {
    /// Pattern-board responses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BoardResp: "board response" {
        /// Cluster-index entries evicted by the purge.
        4 => Purged(evicted: usize),
        /// The merge outcome and the replica refresh.
        5 => Synced(sync: BoardSync),
    }
    // 0–3, retired with their requests.
    retired [0, 1, 2, 3]
}

wire_enum! {
    /// Cluster-dedup-index requests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClusterReq: "cluster request" {
        /// Look up descriptors (one shared-lock acquisition for the batch).
        0 => Get(keys: Vec<ContentKey>),
        /// Record the entries whose key the index does not hold yet (one
        /// exclusive acquisition for the batch); known keys are left alone.
        3 => Record(entries: Vec<(ContentKey, ChunkDesc)>),
        /// Drop a stale entry.
        4 => Forget(key: ContentKey),
    }
    // 1: `GetExclusive`, 2: `NovelOf`.
    retired [1, 2]
}

wire_enum! {
    /// Cluster-dedup-index responses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClusterResp: "cluster response" {
        /// Per-key descriptors in request order.
        0 => Got(descs: Vec<Option<ChunkDesc>>),
        /// How many of the recorded entries were new to the index.
        3 => Recorded(new: usize),
        /// Forget acknowledged.
        4 => Forgotten,
    }
    // 1: `GotOne`, 2: `Novel`, retired with their requests.
    retired [1, 2]
}

wire_enum! {
    /// A request addressed to a server role.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Req: "request" {
        /// To the version manager.
        0 => Vm(req: VmReq),
        /// To the provider manager.
        1 => Pm(req: PmReq),
        /// To one metadata shard.
        2 => Meta {
            /// Target shard index.
            shard: u32,
            /// The shard operation.
            req: MetaReq,
        },
        /// To one chunk provider.
        3 => Provider {
            /// Target provider node.
            node: NodeId,
            /// The provider operation.
            req: ProviderReq,
        },
        /// To the pattern board.
        4 => Board(req: BoardReq),
        /// To the cluster dedup index.
        5 => Cluster(req: ClusterReq),
        /// Several requests for one server role, answered by one
        /// [`Resp::Batch`] with an outcome per entry, in order.
        6 => Batch(reqs: Flat<Req>),
    }
}

wire_enum! {
    /// A response from a server role.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Resp: "response" {
        /// From the version manager.
        0 => Vm(resp: VmResp),
        /// From the provider manager.
        1 => Pm(resp: PmResp),
        /// From a metadata shard.
        2 => Meta(resp: MetaResp),
        /// From a chunk provider.
        3 => Provider(resp: ProviderResp),
        /// From the pattern board.
        4 => Board(resp: BoardResp),
        /// From the cluster dedup index.
        5 => Cluster(resp: ClusterResp),
        /// Per [`Req::Batch`] entry, in order: exactly what the entry's
        /// own frame would have been answered with.
        6 => Batch(resps: Flat<Result<Resp, WireError>>),
    }
}

/// The tag of [`Req::Batch`] and [`Resp::Batch`].
const BATCH: u8 = 6;

impl FlatEntry for Req {
    fn nested(r: &Reader<'_>, at: usize) -> Option<WireError> {
        (r.peek(at) == Some(BATCH)).then_some(WireError::BadTag(Req::CONTEXT, BATCH))
    }
}

impl FlatEntry for Resp {
    fn nested(r: &Reader<'_>, at: usize) -> Option<WireError> {
        (r.peek(at) == Some(BATCH)).then_some(WireError::BadTag(Resp::CONTEXT, BATCH))
    }
}

impl Req {
    /// Which listener this request goes to. A batch goes where its first
    /// entry goes; an empty one asks nothing of anybody and reads as the
    /// version manager's.
    pub fn route(&self) -> RouteKey {
        match self {
            Req::Vm(_) => RouteKey::Vm,
            Req::Pm(_) => RouteKey::Pm,
            Req::Meta { shard, .. } => RouteKey::Meta(*shard),
            Req::Provider { node, .. } => RouteKey::Provider(*node),
            Req::Board(_) => RouteKey::Board,
            Req::Cluster(_) => RouteKey::Cluster,
            Req::Batch(reqs) => reqs.0.first().map_or(RouteKey::Vm, Req::route),
        }
    }

    /// Whether everything this request asks — itself, or every entry of
    /// a batch — is for a server of `role`.
    pub fn is_for(&self, role: Role) -> bool {
        match self {
            Req::Batch(reqs) => reqs.0.iter().all(|req| req.is_for(role)),
            req => req.route().role() == role,
        }
    }
}

/// A server role responded with a variant the request cannot produce —
/// protocol corruption or version skew.
pub fn unexpected_resp() -> BlobError {
    BlobError::Net(bff_net::NetError::Wire(WireError::BadFrame))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_route_to_their_role() {
        let cluster = Req::Cluster(ClusterReq::Forget((
            65536,
            bff_data::ContentDigest::Weak(bff_data::Digest(7)),
        )));
        let meta = Req::Meta {
            shard: 3,
            req: MetaReq::ReadNodes(vec![NodeKey(1)]),
        };
        let provider = Req::Provider {
            node: NodeId(2),
            req: ProviderReq::Fetch(vec![ChunkId(5)]),
        };
        let purge = Req::Board(BoardReq::Purge {
            keys: vec![],
            freed: vec![],
        });
        let reqs = [
            (Req::Vm(VmReq::Latest(BlobId(1))), RouteKey::Vm),
            (
                Req::Pm(PmReq::Allocate {
                    n: 4,
                    chunk_bytes: 1,
                    replication: 1,
                    down: vec![],
                }),
                RouteKey::Pm,
            ),
            (meta, RouteKey::Meta(3)),
            (provider, RouteKey::Provider(NodeId(2))),
            (purge, RouteKey::Board),
            (cluster, RouteKey::Cluster),
        ];
        for (req, route) in reqs {
            assert_eq!(req.route(), route);
        }
    }
}
