//! The service's wire-visible identifiers, metadata nodes and errors.
//!
//! These types used to live in `bff_blobseer::api`; they moved here when
//! the service grew a real message boundary, because both the client
//! crate and the wire protocol need them. `bff_blobseer::api` re-exports
//! everything, so downstream code is unaffected.
//!
//! Every type here implements [`Wire`]; the encodings are listed in the
//! crate docs' wire-format sketch.

use crate::codec::{dec_static, enc_static, put_varint, Reader, Wire, WireError};
use bff_data::{ContentDigest, Digest, Payload, SegView, Sha256Digest};
use bff_net::{NetError, NodeId};
use std::fmt;
use std::sync::Arc;

/// Identifier of a BLOB (one VM image lineage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId(pub u64);

/// Snapshot version of a BLOB. `Version(0)` is the empty blob created by
/// `create_blob`; every successful write publishes the next version.
/// Versions form a totally ordered sequence per blob (§4.2: "consecutive
/// COMMIT calls ... generate a totally ordered set of snapshots").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Version(pub u64);

/// Identifier of a stored chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

/// Identifier of a metadata tree node. `NodeKey::NULL` denotes an entirely
/// unwritten (all-zero) subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeKey(pub u64);

impl NodeKey {
    /// The null key: an absent subtree (reads as zeros).
    pub const NULL: NodeKey = NodeKey(0);

    /// Whether this key is the null subtree.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blob{}", self.0)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

wire_struct! {
    /// Where a chunk's replicas live.
    ///
    /// Replica sets are shared (`Arc`) rather than owned: a descriptor is
    /// cloned many times per commit (tree leaf, metadata shard, descriptor
    /// caches), and sharing the set makes each clone a refcount bump instead
    /// of a heap allocation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChunkDesc {
        /// The stored chunk.
        pub id: ChunkId,
        /// Provider nodes holding a replica, in allocation order.
        pub replicas: Arc<[NodeId]>,
    }
}

wire_enum! {
    /// A metadata segment-tree node (Fig. 3 of the paper).
    ///
    /// Geometry is implicit: the root covers chunk indices `0..span` and each
    /// inner node splits its range in half, so nodes store only child links.
    /// Children may belong to trees of *other* snapshots or other blobs —
    /// that is exactly the sharing that shadowing and cloning exploit.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TreeNode: "tree node" {
        /// Interior node with two children (either may be NULL).
        0 => Inner {
            /// Left child: first half of the covered chunk range.
            left: NodeKey,
            /// Right child: second half.
            right: NodeKey,
        },
        /// Leaf covering exactly one chunk.
        1 => Leaf {
            /// The chunk written at this index.
            chunk: ChunkDesc,
        },
    }
}

wire_enum! {
    /// Errors returned by the storage service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BlobError: "blob error" {
        /// Unknown blob.
        0 => NoSuchBlob(blob: BlobId),
        /// Unknown version for a known blob.
        1 => NoSuchVersion(blob: BlobId, version: Version),
        /// Optimistic-concurrency conflict: the base version was no longer
        /// the latest when publishing.
        2 => Conflict {
            /// Blob being written.
            blob: BlobId,
            /// The version the writer based its update on.
            base: Version,
            /// The latest version at publish time.
            latest: Version,
        },
        /// Access beyond the blob size.
        3 => OutOfBounds {
            /// Requested range start.
            offset: u64,
            /// Requested length.
            len: u64,
            /// Blob size.
            size: u64,
        },
        /// A chunk could not be served by any replica.
        4 => ChunkUnavailable(chunk: ChunkId),
        /// Metadata inconsistency (missing tree node) — indicates a bug or a
        /// failed metadata server.
        5 => MetadataMissing(key: NodeKey),
        /// Transport-level failure.
        6 => Net(err: NetError),
        /// Invalid argument.
        7 => BadInput(message: &'static str),
    }
}

impl From<NetError> for BlobError {
    fn from(e: NetError) -> Self {
        BlobError::Net(e)
    }
}

impl From<WireError> for BlobError {
    fn from(e: WireError) -> Self {
        BlobError::Net(NetError::Wire(e))
    }
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::NoSuchBlob(b) => write!(f, "{b} does not exist"),
            BlobError::NoSuchVersion(b, v) => write!(f, "{b} has no snapshot {v}"),
            BlobError::Conflict { blob, base, latest } => {
                write!(
                    f,
                    "write to {blob} based on {base} conflicts with latest {latest}"
                )
            }
            BlobError::OutOfBounds { offset, len, size } => {
                write!(f, "access {offset}+{len} beyond blob size {size}")
            }
            BlobError::ChunkUnavailable(c) => write!(f, "chunk {c:?} unavailable on all replicas"),
            BlobError::MetadataMissing(k) => write!(f, "metadata node {k:?} missing"),
            BlobError::Net(e) => write!(f, "network: {e}"),
            BlobError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for BlobError {}

/// Result alias for service operations.
pub type BlobResult<T> = Result<T, BlobError>;

// ---------------------------------------------------------------------
// Wire encodings.
// ---------------------------------------------------------------------

macro_rules! wire_newtype_u64 {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn enc(&self, out: &mut Vec<u8>) {
                put_varint(out, self.0);
            }
            fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty(r.varint()?))
            }
        }
    )*};
}

wire_newtype_u64!(BlobId, Version, ChunkId, NodeKey, Digest);

impl Wire for NodeId {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.0));
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u32::dec(r)?))
    }
}

impl Wire for Sha256Digest {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut d = [0u8; 32];
        d.copy_from_slice(r.take(32)?);
        Ok(Sha256Digest(d))
    }
}

impl Wire for ContentDigest {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            ContentDigest::Weak(d) => {
                out.push(0);
                d.enc(out);
            }
            ContentDigest::Strong(d) => {
                out.push(1);
                d.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ContentDigest::Weak(Digest::dec(r)?)),
            1 => Ok(ContentDigest::Strong(Sha256Digest::dec(r)?)),
            t => Err(WireError::BadTag("content digest", t)),
        }
    }
}

/// Payloads serialize their rope *structure*: a synthetic 2 GB extent
/// costs a dozen wire bytes, literal segments travel verbatim. The
/// receiving side rebuilds an equivalent rope; all content operations
/// (digest, equality, materialize) are representation-independent, so
/// the round trip preserves content exactly.
impl Wire for Payload {
    fn enc(&self, out: &mut Vec<u8>) {
        put_varint(out, self.segment_count() as u64);
        for seg in self.segments() {
            match seg {
                SegView::Bytes(b) => {
                    out.push(0);
                    put_varint(out, b.len() as u64);
                    out.extend_from_slice(b);
                }
                SegView::Synth { seed, start, len } => {
                    out.push(1);
                    put_varint(out, seed);
                    put_varint(out, start);
                    put_varint(out, len);
                }
                SegView::Zero { len } => {
                    out.push(2);
                    put_varint(out, len);
                }
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = usize::dec(r)?;
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut p = Payload::empty();
        for _ in 0..n {
            match r.byte()? {
                0 => {
                    let len = usize::dec(r)?;
                    p.append(Payload::from_bytes(r.take_bytes(len)?));
                }
                1 => {
                    let (seed, start, len) = (r.varint()?, r.varint()?, r.varint()?);
                    p.append(Payload::synth(seed, start, len));
                }
                2 => p.append(Payload::zeros(r.varint()?)),
                t => return Err(WireError::BadTag("payload segment", t)),
            }
        }
        Ok(p)
    }
}

/// Every `&'static str` a [`WireError::BadTag`] may carry. Slot 0 is the
/// unknown-string placeholder (see [`enc_static`]).
const BAD_TAG_CONTEXTS: &[&str] = &[
    "?",
    "bool",
    "option",
    "result",
    "interned string",
    "content digest",
    "tree node",
    "payload segment",
    "net error",
    "wire error",
    "io error kind",
    "blob error",
    "vm request",
    "vm response",
    "pm request",
    "pm response",
    "meta request",
    "meta response",
    "provider request",
    "provider response",
    "board request",
    "board response",
    "cluster request",
    "cluster response",
    "request",
    "response",
    "chunk record",
    "ref record",
    "journal record",
    "retain outcome",
];

/// Every `&'static str` a [`BlobError::BadInput`] may carry. Slot 0 is
/// the unknown-string placeholder.
const BAD_INPUT_MESSAGES: &[&str] = &[
    "?",
    "empty write",
    "empty update set",
    "update is not a full chunk",
    "no providers registered",
    "replication must be in 1..=providers",
    "cannot delete Version(0)",
    "duplicate version in delete set",
    "chunk_size must be positive",
    "corrupt mirror metadata",
    "blob size has more chunks than a metadata tree can span",
    "allocation larger than one reply frame",
];

/// The protocol's one free-text field is [`BlobError::BadInput`]'s
/// message, so a `&'static str` travels as its index in
/// `BAD_INPUT_MESSAGES` (see [`enc_static`]).
impl Wire for &'static str {
    fn enc(&self, out: &mut Vec<u8>) {
        enc_static(self, BAD_INPUT_MESSAGES, out);
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        dec_static(r, BAD_INPUT_MESSAGES)
    }
}

/// `std::io::ErrorKind` values with a stable wire tag; anything else
/// maps to `Other`.
const IO_KINDS: &[std::io::ErrorKind] = &[
    std::io::ErrorKind::Other,
    std::io::ErrorKind::UnexpectedEof,
    std::io::ErrorKind::ConnectionRefused,
    std::io::ErrorKind::ConnectionReset,
    std::io::ErrorKind::ConnectionAborted,
    std::io::ErrorKind::NotConnected,
    std::io::ErrorKind::AddrInUse,
    std::io::ErrorKind::BrokenPipe,
    std::io::ErrorKind::WouldBlock,
    std::io::ErrorKind::TimedOut,
    std::io::ErrorKind::Interrupted,
];

impl Wire for WireError {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            WireError::Truncated => out.push(0),
            WireError::BadTag(what, tag) => {
                out.push(1);
                enc_static(what, BAD_TAG_CONTEXTS, out);
                out.push(*tag);
            }
            WireError::BadFrame => out.push(2),
            WireError::Closed => out.push(3),
            WireError::Io(kind) => {
                out.push(4);
                let idx = IO_KINDS.iter().position(|k| k == kind).unwrap_or(0);
                out.push(idx as u8);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(WireError::Truncated),
            1 => Ok(WireError::BadTag(
                dec_static(r, BAD_TAG_CONTEXTS)?,
                r.byte()?,
            )),
            2 => Ok(WireError::BadFrame),
            3 => Ok(WireError::Closed),
            4 => {
                let idx = r.byte()? as usize;
                let kind = IO_KINDS
                    .get(idx)
                    .copied()
                    .ok_or(WireError::BadTag("io error kind", idx as u8))?;
                Ok(WireError::Io(kind))
            }
            t => Err(WireError::BadTag("wire error", t)),
        }
    }
}

impl Wire for NetError {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            NetError::NodeDown(n) => {
                out.push(0);
                n.enc(out);
            }
            NetError::Cancelled => out.push(1),
            NetError::Wire(e) => {
                out.push(2);
                e.enc(out);
            }
        }
    }
    fn dec(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(NetError::NodeDown(NodeId::dec(r)?)),
            1 => Ok(NetError::Cancelled),
            2 => Ok(NetError::Wire(WireError::dec(r)?)),
            t => Err(WireError::BadTag("net error", t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn null_key_identity() {
        assert!(NodeKey::NULL.is_null());
        assert!(!NodeKey(1).is_null());
    }

    #[test]
    fn errors_display() {
        let e = BlobError::Conflict {
            blob: BlobId(1),
            base: Version(2),
            latest: Version(3),
        };
        assert!(e.to_string().contains("conflicts"));
    }

    #[test]
    fn payload_structure_stays_compact() {
        // A 2 GB synthetic extent costs O(1) wire bytes.
        let p = Payload::synth(0xFAB, 0, 2 << 30);
        let frame = encode(&p);
        assert!(frame.len() < 32, "synthetic extent stayed structural");
        let q = decode::<Payload>(&frame).unwrap();
        assert_eq!(q.len(), p.len());
        assert!(q.content_eq(&p));

        // Mixed rope with literal bytes round-trips content exactly.
        let mixed = Payload::from(&b"literal"[..])
            .concat(Payload::zeros(10))
            .concat(Payload::synth(5, 3, 100));
        let back = decode::<Payload>(&encode(&mixed)).unwrap();
        assert!(back.content_eq(&mixed));
    }

    #[test]
    fn owned_decode_slices_literals_out_of_the_frame() {
        let chunk = Payload::from(vec![0xC4u8; 4096]).concat(Payload::zeros(64));
        let frame = encode(&chunk);
        let held = frame.as_ptr_range();
        let owned = crate::codec::decode_owned::<Payload>(frame).unwrap();
        assert!(owned.content_eq(&chunk));
        for seg in owned.segments() {
            if let SegView::Bytes(b) = seg {
                assert!(held.contains(&b.as_ptr()), "a view, not a copy");
            }
        }
    }
}
