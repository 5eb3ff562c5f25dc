//! The typed request/response message set — one request enum per server
//! role, mirroring exactly the operations the client protocol performs
//! against the passive state machines. The messages preserve today's
//! *lock-acquisition granularity*: a batch message corresponds to one
//! lock acquisition server-side, a per-item message to one acquisition
//! per item, under every transport.

use crate::codec::{put_varint, Reader, Wire, WireError};
use crate::types::{BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
use bff_data::{ContentKey, Payload};
use bff_net::{NodeId, RouteKey};
use std::ops::Range;

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

/// Version-manager requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmReq {
    /// Create an empty blob.
    CreateBlob {
        /// Initial logical size.
        size: u64,
        /// Chunk size for the lineage.
        chunk_size: u64,
    },
    /// Clone a snapshot into a new blob lineage.
    CloneBlob {
        /// Source blob.
        src: BlobId,
        /// Source snapshot.
        version: Version,
    },
    /// Latest published version of a blob.
    Latest(BlobId),
    /// Live (undeleted) snapshot list.
    LiveSnapshots(BlobId),
    /// Root + geometry of one snapshot.
    VersionMeta(BlobId, Version),
    /// Publish a new version with the given tree root.
    Publish {
        /// Blob being written.
        blob: BlobId,
        /// Version the writer based its update on.
        base: Version,
        /// Root of the new metadata tree.
        root: NodeKey,
    },
    /// Delete snapshots and report the reachability inputs (compound;
    /// see [`DeleteOutcome`]).
    DeleteSnapshots {
        /// Blob to delete from.
        blob: BlobId,
        /// Versions to delete.
        versions: Vec<Version>,
    },
    /// Reserve `n` fresh metadata node keys.
    ReserveKeys(u64),
}

/// Version-manager responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmResp {
    /// New blob id.
    Created(BlobResult<BlobId>),
    /// Cloned blob id.
    Cloned(BlobResult<BlobId>),
    /// Latest version.
    Latest(BlobResult<Version>),
    /// Live snapshots.
    LiveSnapshots(BlobResult<Vec<Version>>),
    /// Snapshot root + geometry.
    VersionMeta(BlobResult<VersionInfo>),
    /// Published version number.
    Published(BlobResult<Version>),
    /// Deletion outcome.
    Deleted(BlobResult<DeleteOutcome>),
    /// Reserved key range.
    Reserved(Range<u64>),
}

/// Provider-manager requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmReq {
    /// Allocate descriptors for `n` fresh chunks, skipping down nodes.
    Allocate {
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

/// Provider-manager responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmResp {
    /// Allocated descriptors, in chunk order.
    Allocated(BlobResult<Vec<ChunkDesc>>),
}

/// Metadata-shard requests.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaReq {
    /// Fetch tree nodes; one shard lock held across the whole batch.
    ReadNodes(Vec<NodeKey>),
    /// Store tree nodes; one shard lock held across the whole batch.
    WriteNodes(Vec<(NodeKey, TreeNode)>),
}

/// Metadata-shard responses.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaResp {
    /// Nodes in request order (fails on the first missing key).
    Nodes(BlobResult<Vec<TreeNode>>),
    /// Write acknowledged.
    Written,
}

/// Chunk-provider requests. Addressed to one provider node (carried in
/// [`Req::Provider`]); batches hold the provider lock once, single-item
/// messages once per message.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderReq {
    /// Store chunk replicas (one provider lock for the whole batch).
    Put(Vec<(ChunkId, Payload)>),
    /// Fetch chunks for a read plan (one provider lock for the batch);
    /// marks hits hot in the provider's read cache.
    Fetch(Vec<ChunkId>),
    /// Drop one reference per listed id — an id listed twice loses two
    /// — under one provider lock, and report what happened to each
    /// (snapshot GC and write rollback: the provider's whole share).
    ReleaseCounted(Vec<ChunkId>),
    /// Commit by reference: per entry, take one reference on the chunk
    /// iff the provider's *stored* bytes have the given length and
    /// digest — an id listed twice gains two — under one provider lock
    /// and one durability barrier (the provider's whole share of a
    /// commit's dedup hits).
    Retain(Vec<(ChunkId, ContentKey)>),
}

/// Chunk-provider responses.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderResp {
    /// Whether the provider accepted the batch.
    Put(bool),
    /// Per-chunk `(payload, was_cached)` in request order; `None` where
    /// the chunk is absent.
    Fetched(Vec<Option<(Payload, bool)>>),
    /// `(bytes_freed, chunk_removed, reference_dropped)` per released
    /// id, in request order.
    ReleaseCounted(Vec<(u64, bool, bool)>),
    /// What happened to each [`ProviderReq::Retain`] entry, in request
    /// order.
    Retained(Vec<RetainOutcome>),
}

/// A provider's verdict on one [`ProviderReq::Retain`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainOutcome {
    /// The stored chunk matches the key; one reference was taken.
    Retained,
    /// The chunk is stored but its length or digest differs from the
    /// key (a digest-index collision); nothing was taken.
    Mismatch,
    /// The provider does not store the chunk (a stale index entry).
    Gone,
}

/// Pattern-board requests (prefetch gossip) plus the snapshot-GC purge,
/// which cleans board *and* cluster-index state in one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardReq {
    /// Snapshot-GC cleanup: drop dead patterns and evict freed chunks
    /// from the cluster dedup index.
    Purge {
        /// Deleted snapshots.
        keys: Vec<(BlobId, Version)>,
        /// Chunk ids whose last replica was freed.
        freed: Vec<ChunkId>,
    },
    /// The one exchange between a node's board replica and the board:
    /// merge `batch` (a publish; empty = a poll, which changes nothing)
    /// and send back what the replica lacks.
    Sync {
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

/// Pattern-board responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardResp {
    /// Cluster-index entries evicted by the purge.
    Purged(usize),
    /// The merge outcome and the replica refresh.
    Synced(BoardSync),
}

/// Cluster-dedup-index requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterReq {
    /// Look up descriptors (one shared-lock acquisition for the batch).
    Get(Vec<ContentKey>),
    /// Record the entries whose key the index does not hold yet (one
    /// exclusive acquisition for the batch); known keys are left alone.
    Record(Vec<(ContentKey, ChunkDesc)>),
    /// Drop a stale entry.
    Forget(ContentKey),
}

/// Cluster-dedup-index responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterResp {
    /// Per-key descriptors in request order.
    Got(Vec<Option<ChunkDesc>>),
    /// How many of the recorded entries were new to the index.
    Recorded(usize),
    /// Forget acknowledged.
    Forgotten,
}

/// A request addressed to a server role.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// To the version manager.
    Vm(VmReq),
    /// To the provider manager.
    Pm(PmReq),
    /// To one metadata shard.
    Meta {
        /// Target shard index.
        shard: u32,
        /// The shard operation.
        req: MetaReq,
    },
    /// To one chunk provider.
    Provider {
        /// Target provider node.
        node: NodeId,
        /// The provider operation.
        req: ProviderReq,
    },
    /// To the pattern board.
    Board(BoardReq),
    /// To the cluster dedup index.
    Cluster(ClusterReq),
}

/// A response from a server role.
#[derive(Debug, Clone, PartialEq)]
pub enum Resp {
    /// From the version manager.
    Vm(VmResp),
    /// From the provider manager.
    Pm(PmResp),
    /// From a metadata shard.
    Meta(MetaResp),
    /// From a chunk provider.
    Provider(ProviderResp),
    /// From the pattern board.
    Board(BoardResp),
    /// From the cluster dedup index.
    Cluster(ClusterResp),
}

impl Req {
    /// Which listener this request goes to.
    pub fn route(&self) -> RouteKey {
        match self {
            Req::Vm(_) => RouteKey::Vm,
            Req::Pm(_) => RouteKey::Pm,
            Req::Meta { shard, .. } => RouteKey::Meta(*shard),
            Req::Provider { node, .. } => RouteKey::Provider(*node),
            Req::Board(_) => RouteKey::Board,
            Req::Cluster(_) => RouteKey::Cluster,
        }
    }
}

/// A server role responded with a variant the request cannot produce —
/// protocol corruption or version skew.
pub fn unexpected_resp() -> BlobError {
    BlobError::Net(bff_net::NetError::Wire(WireError::BadFrame))
}

// ---------------------------------------------------------------------
// Wire encodings.
// ---------------------------------------------------------------------

impl Wire for VersionInfo {
    fn enc(&self, out: &mut Vec<u8>) {
        self.root.enc(out);
        put_varint(out, self.size);
        put_varint(out, self.chunk_size);
        put_varint(out, self.span);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VersionInfo {
            root: NodeKey::dec(r)?,
            size: r.varint()?,
            chunk_size: r.varint()?,
            span: r.varint()?,
        })
    }
}

impl Wire for DeleteOutcome {
    fn enc(&self, out: &mut Vec<u8>) {
        self.dead_roots.enc(out);
        self.live_roots.enc(out);
        put_varint(out, self.span);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DeleteOutcome {
            dead_roots: Vec::dec(r)?,
            live_roots: Vec::dec(r)?,
            span: r.varint()?,
        })
    }
}

impl Wire for VmReq {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            VmReq::CreateBlob { size, chunk_size } => {
                out.push(0);
                put_varint(out, *size);
                put_varint(out, *chunk_size);
            }
            VmReq::CloneBlob { src, version } => {
                out.push(1);
                src.enc(out);
                version.enc(out);
            }
            VmReq::Latest(b) => {
                out.push(2);
                b.enc(out);
            }
            // Tag 3 (`Size`) is retired, not reused: journals hold
            // encoded `VmReq`s, so the surviving tags keep their numbers.
            VmReq::LiveSnapshots(b) => {
                out.push(4);
                b.enc(out);
            }
            VmReq::VersionMeta(b, v) => {
                out.push(5);
                b.enc(out);
                v.enc(out);
            }
            VmReq::Publish { blob, base, root } => {
                out.push(6);
                blob.enc(out);
                base.enc(out);
                root.enc(out);
            }
            VmReq::DeleteSnapshots { blob, versions } => {
                out.push(7);
                blob.enc(out);
                versions.enc(out);
            }
            VmReq::ReserveKeys(n) => {
                out.push(8);
                put_varint(out, *n);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(VmReq::CreateBlob {
                size: r.varint()?,
                chunk_size: r.varint()?,
            }),
            1 => Ok(VmReq::CloneBlob {
                src: BlobId::dec(r)?,
                version: Version::dec(r)?,
            }),
            2 => Ok(VmReq::Latest(BlobId::dec(r)?)),
            4 => Ok(VmReq::LiveSnapshots(BlobId::dec(r)?)),
            5 => Ok(VmReq::VersionMeta(BlobId::dec(r)?, Version::dec(r)?)),
            6 => Ok(VmReq::Publish {
                blob: BlobId::dec(r)?,
                base: Version::dec(r)?,
                root: NodeKey::dec(r)?,
            }),
            7 => Ok(VmReq::DeleteSnapshots {
                blob: BlobId::dec(r)?,
                versions: Vec::dec(r)?,
            }),
            8 => Ok(VmReq::ReserveKeys(r.varint()?)),
            t => Err(WireError::BadTag("vm request", t)),
        }
    }
}

impl Wire for VmResp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            VmResp::Created(v) => {
                out.push(0);
                v.enc(out);
            }
            VmResp::Cloned(v) => {
                out.push(1);
                v.enc(out);
            }
            VmResp::Latest(v) => {
                out.push(2);
                v.enc(out);
            }
            // Tag 3 (`Size`) is retired with its request.
            VmResp::LiveSnapshots(v) => {
                out.push(4);
                v.enc(out);
            }
            VmResp::VersionMeta(v) => {
                out.push(5);
                v.enc(out);
            }
            VmResp::Published(v) => {
                out.push(6);
                v.enc(out);
            }
            VmResp::Deleted(v) => {
                out.push(7);
                v.enc(out);
            }
            VmResp::Reserved(v) => {
                out.push(8);
                v.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(VmResp::Created(Wire::dec(r)?)),
            1 => Ok(VmResp::Cloned(Wire::dec(r)?)),
            2 => Ok(VmResp::Latest(Wire::dec(r)?)),
            4 => Ok(VmResp::LiveSnapshots(Wire::dec(r)?)),
            5 => Ok(VmResp::VersionMeta(Wire::dec(r)?)),
            6 => Ok(VmResp::Published(Wire::dec(r)?)),
            7 => Ok(VmResp::Deleted(Wire::dec(r)?)),
            8 => Ok(VmResp::Reserved(Wire::dec(r)?)),
            t => Err(WireError::BadTag("vm response", t)),
        }
    }
}

impl Wire for PmReq {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            PmReq::Allocate {
                n,
                chunk_bytes,
                replication,
                down,
            } => {
                out.push(0);
                n.enc(out);
                put_varint(out, *chunk_bytes);
                replication.enc(out);
                down.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(PmReq::Allocate {
                n: usize::dec(r)?,
                chunk_bytes: r.varint()?,
                replication: usize::dec(r)?,
                down: Vec::dec(r)?,
            }),
            t => Err(WireError::BadTag("pm request", t)),
        }
    }
}

impl Wire for PmResp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            PmResp::Allocated(v) => {
                out.push(0);
                v.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(PmResp::Allocated(Wire::dec(r)?)),
            t => Err(WireError::BadTag("pm response", t)),
        }
    }
}

impl Wire for MetaReq {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            MetaReq::ReadNodes(keys) => {
                out.push(0);
                keys.enc(out);
            }
            MetaReq::WriteNodes(nodes) => {
                out.push(1);
                nodes.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(MetaReq::ReadNodes(Vec::dec(r)?)),
            1 => Ok(MetaReq::WriteNodes(Vec::dec(r)?)),
            t => Err(WireError::BadTag("meta request", t)),
        }
    }
}

impl Wire for MetaResp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            MetaResp::Nodes(v) => {
                out.push(0);
                v.enc(out);
            }
            MetaResp::Written => out.push(1),
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(MetaResp::Nodes(Wire::dec(r)?)),
            1 => Ok(MetaResp::Written),
            t => Err(WireError::BadTag("meta response", t)),
        }
    }
}

impl Wire for ProviderReq {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            ProviderReq::Put(items) => {
                out.push(0);
                items.enc(out);
            }
            ProviderReq::Fetch(ids) => {
                out.push(1);
                ids.enc(out);
            }
            // Tags 2–4 (`Peek`, single-id `Retain`, `Release`) are
            // retired, not reused.
            ProviderReq::ReleaseCounted(ids) => {
                out.push(5);
                ids.enc(out);
            }
            ProviderReq::Retain(entries) => {
                out.push(6);
                entries.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ProviderReq::Put(Vec::dec(r)?)),
            1 => Ok(ProviderReq::Fetch(Vec::dec(r)?)),
            5 => Ok(ProviderReq::ReleaseCounted(Vec::dec(r)?)),
            6 => Ok(ProviderReq::Retain(Vec::dec(r)?)),
            t => Err(WireError::BadTag("provider request", t)),
        }
    }
}

impl Wire for ProviderResp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            ProviderResp::Put(ok) => {
                out.push(0);
                ok.enc(out);
            }
            ProviderResp::Fetched(chunks) => {
                out.push(1);
                chunks.enc(out);
            }
            // Tags 2–4 are retired with their requests.
            ProviderResp::ReleaseCounted(outcomes) => {
                out.push(5);
                outcomes.enc(out);
            }
            ProviderResp::Retained(outcomes) => {
                out.push(6);
                outcomes.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ProviderResp::Put(bool::dec(r)?)),
            1 => Ok(ProviderResp::Fetched(Vec::dec(r)?)),
            5 => Ok(ProviderResp::ReleaseCounted(Vec::dec(r)?)),
            6 => Ok(ProviderResp::Retained(Vec::dec(r)?)),
            t => Err(WireError::BadTag("provider response", t)),
        }
    }
}

impl Wire for RetainOutcome {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RetainOutcome::Retained => 0,
            RetainOutcome::Mismatch => 1,
            RetainOutcome::Gone => 2,
        });
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(RetainOutcome::Retained),
            1 => Ok(RetainOutcome::Mismatch),
            2 => Ok(RetainOutcome::Gone),
            t => Err(WireError::BadTag("retain outcome", t)),
        }
    }
}

impl Wire for BoardReq {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            // Tags 0–3 (`NovelOf`, `Merge`, `SequenceLen`, `Sequence`)
            // are retired, not reused.
            BoardReq::Purge { keys, freed } => {
                out.push(4);
                keys.enc(out);
                freed.enc(out);
            }
            BoardReq::Sync {
                key,
                publisher,
                batch,
                from,
                min_publishers,
            } => {
                out.push(5);
                key.enc(out);
                publisher.enc(out);
                batch.enc(out);
                from.enc(out);
                min_publishers.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            4 => Ok(BoardReq::Purge {
                keys: Vec::dec(r)?,
                freed: Vec::dec(r)?,
            }),
            5 => Ok(BoardReq::Sync {
                key: Wire::dec(r)?,
                publisher: NodeId::dec(r)?,
                batch: Vec::dec(r)?,
                from: usize::dec(r)?,
                min_publishers: usize::dec(r)?,
            }),
            t => Err(WireError::BadTag("board request", t)),
        }
    }
}

impl Wire for BoardSync {
    fn enc(&self, out: &mut Vec<u8>) {
        self.len.enc(out);
        self.cohort.enc(out);
        self.tail.enc(out);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BoardSync {
            len: usize::dec(r)?,
            cohort: bool::dec(r)?,
            tail: Vec::dec(r)?,
        })
    }
}

impl Wire for BoardResp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            // Tags 0–3 are retired with their requests.
            BoardResp::Purged(n) => {
                out.push(4);
                n.enc(out);
            }
            BoardResp::Synced(sync) => {
                out.push(5);
                sync.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            4 => Ok(BoardResp::Purged(usize::dec(r)?)),
            5 => Ok(BoardResp::Synced(BoardSync::dec(r)?)),
            t => Err(WireError::BadTag("board response", t)),
        }
    }
}

impl Wire for ClusterReq {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            ClusterReq::Get(keys) => {
                out.push(0);
                keys.enc(out);
            }
            // Tags 1 (`GetExclusive`) and 2 (`NovelOf`) are retired,
            // not reused.
            ClusterReq::Record(entries) => {
                out.push(3);
                entries.enc(out);
            }
            ClusterReq::Forget(key) => {
                out.push(4);
                key.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ClusterReq::Get(Vec::dec(r)?)),
            3 => Ok(ClusterReq::Record(Vec::dec(r)?)),
            4 => Ok(ClusterReq::Forget(Wire::dec(r)?)),
            t => Err(WireError::BadTag("cluster request", t)),
        }
    }
}

impl Wire for ClusterResp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            ClusterResp::Got(v) => {
                out.push(0);
                v.enc(out);
            }
            // Tags 1 (`GotOne`) and 2 (`Novel`) are retired with their
            // requests.
            ClusterResp::Recorded(n) => {
                out.push(3);
                n.enc(out);
            }
            ClusterResp::Forgotten => out.push(4),
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ClusterResp::Got(Vec::dec(r)?)),
            3 => Ok(ClusterResp::Recorded(usize::dec(r)?)),
            4 => Ok(ClusterResp::Forgotten),
            t => Err(WireError::BadTag("cluster response", t)),
        }
    }
}

impl Wire for Req {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            Req::Vm(q) => {
                out.push(0);
                q.enc(out);
            }
            Req::Pm(q) => {
                out.push(1);
                q.enc(out);
            }
            Req::Meta { shard, req } => {
                out.push(2);
                shard.enc(out);
                req.enc(out);
            }
            Req::Provider { node, req } => {
                out.push(3);
                node.enc(out);
                req.enc(out);
            }
            Req::Board(q) => {
                out.push(4);
                q.enc(out);
            }
            Req::Cluster(q) => {
                out.push(5);
                q.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Req::Vm(VmReq::dec(r)?)),
            1 => Ok(Req::Pm(PmReq::dec(r)?)),
            2 => Ok(Req::Meta {
                shard: u32::dec(r)?,
                req: MetaReq::dec(r)?,
            }),
            3 => Ok(Req::Provider {
                node: NodeId::dec(r)?,
                req: ProviderReq::dec(r)?,
            }),
            4 => Ok(Req::Board(BoardReq::dec(r)?)),
            5 => Ok(Req::Cluster(ClusterReq::dec(r)?)),
            t => Err(WireError::BadTag("request", t)),
        }
    }
}

impl Wire for Resp {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            Resp::Vm(q) => {
                out.push(0);
                q.enc(out);
            }
            Resp::Pm(q) => {
                out.push(1);
                q.enc(out);
            }
            Resp::Meta(q) => {
                out.push(2);
                q.enc(out);
            }
            Resp::Provider(q) => {
                out.push(3);
                q.enc(out);
            }
            Resp::Board(q) => {
                out.push(4);
                q.enc(out);
            }
            Resp::Cluster(q) => {
                out.push(5);
                q.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Resp::Vm(VmResp::dec(r)?)),
            1 => Ok(Resp::Pm(PmResp::dec(r)?)),
            2 => Ok(Resp::Meta(MetaResp::dec(r)?)),
            3 => Ok(Resp::Provider(ProviderResp::dec(r)?)),
            4 => Ok(Resp::Board(BoardResp::dec(r)?)),
            5 => Ok(Resp::Cluster(ClusterResp::dec(r)?)),
            t => Err(WireError::BadTag("response", t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn requests_roundtrip_and_route() {
        let reqs = [
            (
                Req::Vm(VmReq::Publish {
                    blob: BlobId(1),
                    base: Version(2),
                    root: NodeKey(3),
                }),
                RouteKey::Vm,
            ),
            (
                Req::Pm(PmReq::Allocate {
                    n: 4,
                    chunk_bytes: 65536,
                    replication: 2,
                    down: vec![false, true, false],
                }),
                RouteKey::Pm,
            ),
            (
                Req::Meta {
                    shard: 3,
                    req: MetaReq::ReadNodes(vec![NodeKey(1), NodeKey(9)]),
                },
                RouteKey::Meta(3),
            ),
            (
                Req::Provider {
                    node: NodeId(2),
                    req: ProviderReq::Fetch(vec![ChunkId(5)]),
                },
                RouteKey::Provider(NodeId(2)),
            ),
            (
                Req::Board(BoardReq::Sync {
                    key: (BlobId(1), Version(1)),
                    publisher: NodeId(2),
                    batch: vec![3, 4],
                    from: 5,
                    min_publishers: 2,
                }),
                RouteKey::Board,
            ),
            (
                Req::Cluster(ClusterReq::Forget((
                    65536,
                    bff_data::ContentDigest::Weak(bff_data::Digest(7)),
                ))),
                RouteKey::Cluster,
            ),
        ];
        for (req, route) in reqs {
            assert_eq!(req.route(), route);
            assert_eq!(decode::<Req>(&encode(&req)).unwrap(), req);
        }
    }

    #[test]
    fn payload_bearing_responses_roundtrip() {
        let resp = Resp::Provider(ProviderResp::Fetched(vec![
            Some((Payload::synth(1, 0, 65536), true)),
            None,
            Some((Payload::from(&b"lit"[..]), false)),
        ]));
        assert_eq!(decode::<Resp>(&encode(&resp)).unwrap(), resp);
    }

    #[test]
    fn garbage_frames_error_not_panic() {
        for tag in 6u8..=255 {
            assert!(decode::<Req>(&[tag]).is_err());
            assert!(decode::<Resp>(&[tag]).is_err());
        }
        assert_eq!(decode::<Req>(&[]).unwrap_err(), WireError::Truncated);
    }
}
