//! # bff-data
//!
//! The shared data plane for the `bff` workspace: byte-range utilities,
//! disjoint range sets, extent maps, digests and a *payload rope* that can
//! represent either literal bytes or deterministically generated synthetic
//! content.
//!
//! Synthetic payloads are what make repository-scale experiments feasible:
//! a 2 GB VM image replicated across 110 simulated compute nodes would not
//! fit in memory as literal bytes, but as `(seed, offset, len)` descriptors
//! it occupies a few dozen bytes per extent while remaining *byte-accurate*:
//! every byte of a synthetic extent has a defined value that can be
//! materialized, compared, digested and sliced exactly like literal data.
//! All storage-stack code in the workspace (BlobSeer chunks, mirrored image
//! regions, qcow2 clusters, PVFS stripes) moves [`Payload`] values, so the
//! same code path is exercised whether the contents are real or synthetic.

pub mod digest;
pub mod extent;
pub mod hash;
pub mod log;
pub mod lru;
pub mod payload;
pub mod range;
pub mod rangeset;
pub mod sha256;
pub mod synth;

pub use digest::{ContentDigest, ContentKey, Digest, DigestIndex};
pub use extent::{ExtentMap, ExtentValue};
pub use hash::{FastMap, FastSet, U64BuildHasher, U64Hasher};
pub use log::RecordLog;
pub use lru::LruMap;
pub use payload::{Payload, SegView};
pub use range::{chunk_cover, chunk_range, coalesce_runs, intersect, ranges_overlap, ByteRange};
pub use rangeset::RangeSet;
pub use sha256::{Sha256, Sha256Digest};
pub use synth::{synth_byte, SynthSource};
