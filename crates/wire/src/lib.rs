//! # bff-wire
//!
//! The typed RPC wire protocol of the BlobSeer-like service: request and
//! response enums for every manager / metadata / provider / board
//! interaction, plus the compact self-describing binary codec that
//! carries them across process boundaries.
//!
//! The paper's deployment is genuinely distributed — the version
//! manager, provider manager, metadata servers and providers are
//! separate processes exchanging real messages. This crate is that
//! message boundary for the reproduction: the client protocol in
//! `bff-blobseer` speaks [`msg::Req`]/[`msg::Resp`], and a
//! `bff_net::Transport` decides whether those values are dispatched
//! in-process (zero-copy), round-tripped through the codec, or carried
//! over framed TCP to server processes.
//!
//! ## Wire format sketch
//!
//! A frame is the [`codec::Wire`] encoding of one message; the transport
//! wraps it in a `u32`-LE length prefix. Within a frame:
//!
//! * integers — LEB128 varints (identifiers, sizes, counts);
//! * enums — one tag byte, then the variant's fields in order;
//! * collections — varint count, then elements;
//! * payloads — rope *structure*: literal segments travel verbatim,
//!   synthetic/zero extents travel as `(seed, start, len)` descriptors,
//!   so a multi-gigabyte synthetic image costs O(1) wire bytes;
//! * `Option`/`Result` — a one-byte discriminant, then the value.
//!
//! Both ends are compiled from this crate, so the message layout is the
//! schema; decoding never panics and rejects trailing bytes, truncated
//! frames and unknown tags with `bff_net::WireError`.
//!
//! The schema is one table ([`table`]): each enum is declared once as
//! rows `tag => Variant { fields }`, and its codec, tags and test
//! generator come from those rows. Add a message: one row plus its
//! handler arm. Retire one: move its tag to `retired`, never reuse it.

pub mod codec;
#[macro_use]
pub mod table;
pub mod msg;
pub mod types;

pub use codec::{
    decode, decode_owned, decode_shared, encode, put_varint, Flat, Reader, Wire, WireError,
};
pub use msg::{
    unexpected_resp, BoardReq, BoardResp, BoardSync, ClusterReq, ClusterResp, DeleteOutcome,
    MetaReq, MetaResp, PmReq, PmResp, ProviderReq, ProviderResp, Req, Resp, RetainOutcome,
    VersionInfo, VmReq, VmResp,
};
pub use types::{BlobError, BlobId, BlobResult, ChunkDesc, ChunkId, NodeKey, TreeNode, Version};
