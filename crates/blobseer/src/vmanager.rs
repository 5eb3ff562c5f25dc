//! The version manager: the serialization point that assigns snapshot
//! versions, totally orders publications per blob, and implements CLONE.
//!
//! This mirrors BlobSeer's version manager role (§4.1): striping and data
//! transfers are fully decentralized, but the version sequence of each
//! blob is decided in one place so that snapshots are totally ordered
//! (§4.2). Cloning (the paper's extension, Fig. 3b) is O(1): the new
//! blob's first version simply references the source tree's root.
//!
//! The version manager is also the serialization point for **snapshot
//! deletion** ([`VManager::delete_snapshots`]): it marks versions dead
//! (version numbers are never reused; a deleted version simply stops
//! resolving) and hands the garbage collector the set of roots that can
//! still reach shared metadata — every live root of the blob's *clone
//! family* ([`VManager::family_live_roots`]). Trees only ever share
//! nodes through shadowing within a blob or through CLONE across
//! blobs, so the clone-connected component bounds exactly which trees
//! the collector must treat as live.
//!
//! # The family live-root index
//!
//! That frontier is kept, not computed: `live_roots` maps each clone
//! family to its live root keys, each with the number of live
//! `(blob, version)` slots that hold it (a clone's `Version(1)` aliases
//! its source's root, so one key can back many slots). `publish` and
//! `clone_blob` count a slot in, `delete_snapshots` counts it out and
//! drops the key — and the family — at zero. Journal replay re-applies
//! exactly those three calls, so recovery rebuilds the index with no
//! code of its own. A delete therefore reads O(live roots of the
//! family), each key once, however many blobs and versions the
//! repository has ever held.
//!
//! # Why the collector may prune by key
//!
//! Every family member has the same `span` (a clone copies it), every
//! node is created by `segtree::build_new_tree` for one fixed chunk
//! range, and sharing only ever re-links a node at the range it was
//! built for. A node key therefore sits at exactly **one tree
//! position** across the whole family: two trees holding the same key
//! hold it at the same position, with the identical subtree beneath it.
//! That position invariance is what lets
//! [`crate::segtree::collect_dead_leaves`] compare a deleted tree with
//! every live tree level by level, drop a subtree the moment its key
//! shows up in a live tree, and ignore live nodes at positions no
//! deleted candidate occupies.

use crate::api::{BlobError, BlobId, BlobResult, NodeKey, Version};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

/// Per-blob metadata kept by the version manager.
#[derive(Debug, Clone)]
pub struct BlobMeta {
    /// Logical size in bytes (fixed at creation; VM images do not grow).
    pub size: u64,
    /// Stripe size in bytes.
    pub chunk_size: u64,
    /// Segment-tree span (power of two ≥ chunk count).
    pub span: u64,
    /// Root per version: `roots[v]` is the tree of `Version(v)`.
    /// `roots[0]` is always `NodeKey::NULL` (the empty blob).
    pub roots: Vec<NodeKey>,
    /// Versions dropped by [`VManager::delete_snapshots`]. Numbers are
    /// never reused: a deleted version's slot stays occupied but no
    /// longer resolves.
    pub deleted: HashSet<u64>,
    /// Clone-family id: blobs connected through CLONE edges share it
    /// (a clone inherits its source's family). Only family members can
    /// share metadata tree nodes.
    pub family: u64,
}

impl BlobMeta {
    /// Latest published version (deleted or not — version numbers are
    /// never reused, so the publication sequence is unaffected by GC).
    pub fn latest(&self) -> Version {
        Version(self.roots.len() as u64 - 1)
    }

    /// Root of a version, if it exists and has not been deleted.
    pub fn root(&self, v: Version) -> Option<NodeKey> {
        if self.deleted.contains(&v.0) {
            return None;
        }
        self.roots.get(v.0 as usize).copied()
    }
}

/// Version-manager state (one logical instance per service).
#[derive(Debug, Default)]
pub struct VManager {
    blobs: HashMap<BlobId, BlobMeta>,
    /// family → live root key → live `(blob, version)` slots holding it
    /// (see the module header). No entry is NULL or counts zero.
    live_roots: HashMap<u64, BTreeMap<NodeKey, u64>>,
    next_blob: u64,
    next_node_key: u64,
}

impl VManager {
    /// Fresh state. Node key 0 is reserved for `NodeKey::NULL`.
    pub fn new() -> Self {
        Self {
            blobs: HashMap::new(),
            live_roots: HashMap::new(),
            next_blob: 1,
            next_node_key: 1,
        }
    }

    /// Mark `versions` of `blob` deleted, returning their roots for the
    /// collector to sweep. All-or-nothing: every version must exist,
    /// be undeleted and non-zero (`Version(0)` is the shared empty
    /// version, not a snapshot), or nothing is marked.
    pub fn delete_snapshots(
        &mut self,
        blob: BlobId,
        versions: &[Version],
    ) -> BlobResult<Vec<NodeKey>> {
        let meta = self
            .blobs
            .get_mut(&blob)
            .ok_or(BlobError::NoSuchBlob(blob))?;
        let mut roots = Vec::with_capacity(versions.len());
        let mut marking: HashSet<u64> = HashSet::with_capacity(versions.len());
        for &v in versions {
            if v.0 == 0 {
                return Err(BlobError::BadInput("cannot delete Version(0)"));
            }
            if marking.contains(&v.0) {
                return Err(BlobError::BadInput("duplicate version in delete set"));
            }
            let root = meta.root(v).ok_or(BlobError::NoSuchVersion(blob, v))?;
            marking.insert(v.0);
            roots.push(root);
        }
        meta.deleted.extend(marking);
        let family = meta.family;
        for &root in &roots {
            self.unindex_root(family, root);
        }
        Ok(roots)
    }

    /// Count one live `(blob, version)` slot holding `root` into
    /// `family`'s index. NULL roots (the empty tree) are never indexed.
    fn index_root(&mut self, family: u64, root: NodeKey) {
        if !root.is_null() {
            *self
                .live_roots
                .entry(family)
                .or_default()
                .entry(root)
                .or_insert(0) += 1;
        }
    }

    /// Count one slot out again, dropping the key — and the family — at
    /// zero so terminated lineages leave nothing behind in the index.
    fn unindex_root(&mut self, family: u64, root: NodeKey) {
        if root.is_null() {
            return;
        }
        let roots = self
            .live_roots
            .get_mut(&family)
            .expect("a live root's family is indexed");
        let slots = roots.get_mut(&root).expect("a live root is indexed");
        *slots -= 1;
        if *slots == 0 {
            roots.remove(&root);
            if roots.is_empty() {
                self.live_roots.remove(&family);
            }
        }
    }

    /// The still-live (published, undeleted) snapshot versions of
    /// `blob`, ascending — what a terminate-style "delete everything"
    /// sweep must pass to [`VManager::delete_snapshots`], which is
    /// all-or-nothing and rejects already-deleted versions.
    pub fn live_snapshots(&self, blob: BlobId) -> BlobResult<Vec<Version>> {
        let meta = self.meta(blob)?;
        Ok((1..meta.roots.len() as u64)
            .filter(|v| !meta.deleted.contains(v))
            .map(Version)
            .collect())
    }

    /// Every live (undeleted, non-NULL) root in `blob`'s clone family —
    /// the reachability frontier a snapshot delete must treat as alive —
    /// ascending, each key once however many versions alias it. Trees
    /// outside the family cannot share metadata nodes with the deleted
    /// ones (dedup shares *chunks* via separate refcounted leaves, never
    /// leaf nodes), so the collector need not look at them. Read off the
    /// live-root index: O(live roots of the family), no scan of `blobs`.
    pub fn family_live_roots(&self, blob: BlobId) -> BlobResult<Vec<NodeKey>> {
        let family = self.meta(blob)?.family;
        Ok(self
            .live_roots
            .get(&family)
            .map_or_else(Vec::new, |roots| roots.keys().copied().collect()))
    }

    /// Create an empty blob of `size` bytes striped into `chunk_size`
    /// chunks. Its `Version(0)` reads as all zeros.
    pub fn create_blob(&mut self, size: u64, chunk_size: u64) -> BlobResult<BlobId> {
        if chunk_size == 0 {
            return Err(BlobError::BadInput("chunk_size must be positive"));
        }
        let id = BlobId(self.next_blob);
        self.next_blob += 1;
        let chunks = size.div_ceil(chunk_size);
        self.blobs.insert(
            id,
            BlobMeta {
                size,
                chunk_size,
                span: crate::segtree::span_for(chunks),
                roots: vec![NodeKey::NULL],
                deleted: HashSet::new(),
                // A fresh blob founds its own clone family (the blob id
                // is unique, so it doubles as the family id).
                family: id.0,
            },
        );
        Ok(id)
    }

    /// Metadata for a blob.
    pub fn meta(&self, blob: BlobId) -> BlobResult<&BlobMeta> {
        self.blobs.get(&blob).ok_or(BlobError::NoSuchBlob(blob))
    }

    /// Root of `(blob, version)`.
    pub fn root_of(&self, blob: BlobId, version: Version) -> BlobResult<NodeKey> {
        self.meta(blob)?
            .root(version)
            .ok_or(BlobError::NoSuchVersion(blob, version))
    }

    /// Publish a new snapshot of `blob` whose tree is `root`, based on
    /// `base`. Fails with `Conflict` if `base` is no longer the latest —
    /// optimistic concurrency for writers sharing a blob. (In the paper's
    /// patterns each VM commits to its own clone, so conflicts indicate
    /// middleware bugs rather than expected races.)
    pub fn publish(&mut self, blob: BlobId, base: Version, root: NodeKey) -> BlobResult<Version> {
        let meta = self
            .blobs
            .get_mut(&blob)
            .ok_or(BlobError::NoSuchBlob(blob))?;
        let latest = Version(meta.roots.len() as u64 - 1);
        if base != latest {
            return Err(BlobError::Conflict { blob, base, latest });
        }
        // A deleted base cannot anchor new snapshots: its tree may
        // reference chunks GC already reclaimed, so a commit shadowing
        // it would publish dangling leaves. Rejecting here (the
        // serialization point) closes that hole even for writers whose
        // client-side caches predate the delete.
        if meta.deleted.contains(&base.0) {
            return Err(BlobError::NoSuchVersion(blob, base));
        }
        meta.roots.push(root);
        let (version, family) = (meta.latest(), meta.family);
        self.index_root(family, root);
        Ok(version)
    }

    /// CLONE: a new blob whose `Version(1)` is `(src, version)`'s tree.
    /// Shares all chunks and all metadata nodes with the source; the cost
    /// is one registry entry (§4.2: "minimal overhead, both in space and
    /// in time").
    pub fn clone_blob(&mut self, src: BlobId, version: Version) -> BlobResult<BlobId> {
        let (size, chunk_size, span, root, family) = {
            let meta = self.meta(src)?;
            let root = meta
                .root(version)
                .ok_or(BlobError::NoSuchVersion(src, version))?;
            (meta.size, meta.chunk_size, meta.span, root, meta.family)
        };
        let id = BlobId(self.next_blob);
        self.next_blob += 1;
        self.blobs.insert(
            id,
            BlobMeta {
                size,
                chunk_size,
                span,
                roots: vec![NodeKey::NULL, root],
                deleted: HashSet::new(),
                // The clone shares the source tree, so it joins the
                // source's clone family: deletes on either side must
                // see the other's live roots.
                family,
            },
        );
        self.index_root(family, root);
        Ok(id)
    }

    /// Reserve `n` globally unique metadata node keys.
    pub fn reserve_keys(&mut self, n: u64) -> Range<u64> {
        let start = self.next_node_key;
        self.next_node_key += n;
        start..self.next_node_key
    }

    /// Next key [`VManager::reserve_keys`] would hand out.
    pub fn next_key(&self) -> u64 {
        self.next_node_key
    }

    /// Raise the key allocator to at least `floor` (recovery: a crash
    /// may have acked reservations whose exact extent was not recorded,
    /// so replay skips to the journaled high-water mark — keys are
    /// skipped, never reused).
    pub fn ensure_key_floor(&mut self, floor: u64) {
        self.next_node_key = self.next_node_key.max(floor);
    }

    /// Number of registered blobs.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut vm = VManager::new();
        let b = vm.create_blob(10_000, 256).unwrap();
        let meta = vm.meta(b).unwrap();
        assert_eq!(meta.size, 10_000);
        assert_eq!(meta.span, 64, "ceil(10000/256)=40 chunks -> span 64");
        assert_eq!(meta.latest(), Version(0));
        assert_eq!(vm.root_of(b, Version(0)).unwrap(), NodeKey::NULL);
        assert!(vm.root_of(b, Version(1)).is_err());
    }

    #[test]
    fn publish_appends_versions_in_order() {
        let mut vm = VManager::new();
        let b = vm.create_blob(1000, 100).unwrap();
        let v1 = vm.publish(b, Version(0), NodeKey(10)).unwrap();
        assert_eq!(v1, Version(1));
        let v2 = vm.publish(b, v1, NodeKey(20)).unwrap();
        assert_eq!(v2, Version(2));
        assert_eq!(vm.root_of(b, Version(1)).unwrap(), NodeKey(10));
        assert_eq!(vm.root_of(b, Version(2)).unwrap(), NodeKey(20));
    }

    #[test]
    fn stale_publish_conflicts() {
        let mut vm = VManager::new();
        let b = vm.create_blob(1000, 100).unwrap();
        vm.publish(b, Version(0), NodeKey(10)).unwrap();
        let err = vm.publish(b, Version(0), NodeKey(30)).unwrap_err();
        assert!(matches!(
            err,
            BlobError::Conflict {
                latest: Version(1),
                ..
            }
        ));
    }

    #[test]
    fn clone_shares_root_and_diverges() {
        let mut vm = VManager::new();
        let a = vm.create_blob(1000, 100).unwrap();
        vm.publish(a, Version(0), NodeKey(10)).unwrap();
        let b = vm.clone_blob(a, Version(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(vm.root_of(b, Version(1)).unwrap(), NodeKey(10));
        // Publishing to the clone leaves the origin untouched.
        vm.publish(b, Version(1), NodeKey(77)).unwrap();
        assert_eq!(vm.meta(a).unwrap().latest(), Version(1));
        assert_eq!(vm.meta(b).unwrap().latest(), Version(2));
    }

    #[test]
    fn clone_of_missing_version_fails() {
        let mut vm = VManager::new();
        let a = vm.create_blob(1000, 100).unwrap();
        assert!(matches!(
            vm.clone_blob(a, Version(3)),
            Err(BlobError::NoSuchVersion(_, Version(3)))
        ));
    }

    #[test]
    fn delete_marks_versions_and_stops_resolution() {
        let mut vm = VManager::new();
        let b = vm.create_blob(1000, 100).unwrap();
        vm.publish(b, Version(0), NodeKey(10)).unwrap();
        vm.publish(b, Version(1), NodeKey(20)).unwrap();
        let roots = vm.delete_snapshots(b, &[Version(1)]).unwrap();
        assert_eq!(roots, vec![NodeKey(10)]);
        assert!(
            vm.root_of(b, Version(1)).is_err(),
            "deleted stops resolving"
        );
        assert_eq!(vm.root_of(b, Version(2)).unwrap(), NodeKey(20));
        // Version numbering is unaffected: the next publish is v3.
        assert_eq!(vm.meta(b).unwrap().latest(), Version(2));
        let v3 = vm.publish(b, Version(2), NodeKey(30)).unwrap();
        assert_eq!(v3, Version(3));
        // Double delete and Version(0) are rejected; the batch is
        // all-or-nothing.
        assert!(vm.delete_snapshots(b, &[Version(1)]).is_err());
        assert!(vm.delete_snapshots(b, &[Version(0)]).is_err());
        assert!(vm.delete_snapshots(b, &[Version(2), Version(2)]).is_err());
        assert!(vm.delete_snapshots(b, &[Version(2), Version(9)]).is_err());
        assert_eq!(vm.root_of(b, Version(2)).unwrap(), NodeKey(20), "atomic");
        assert_eq!(vm.live_snapshots(b).unwrap(), vec![Version(2), Version(3)]);
        // A deleted *latest* cannot anchor new snapshots, even for a
        // writer that raced the delete with the right base number.
        vm.delete_snapshots(b, &[Version(3)]).unwrap();
        assert!(matches!(
            vm.publish(b, Version(3), NodeKey(40)),
            Err(BlobError::NoSuchVersion(_, Version(3)))
        ));
    }

    #[test]
    fn clone_of_deleted_version_fails() {
        let mut vm = VManager::new();
        let a = vm.create_blob(1000, 100).unwrap();
        vm.publish(a, Version(0), NodeKey(10)).unwrap();
        vm.delete_snapshots(a, &[Version(1)]).unwrap();
        assert!(matches!(
            vm.clone_blob(a, Version(1)),
            Err(BlobError::NoSuchVersion(_, Version(1)))
        ));
    }

    #[test]
    fn family_live_roots_span_clones_and_skip_deleted() {
        let mut vm = VManager::new();
        let a = vm.create_blob(1000, 100).unwrap();
        vm.publish(a, Version(0), NodeKey(10)).unwrap();
        let b = vm.clone_blob(a, Version(1)).unwrap();
        vm.publish(b, Version(1), NodeKey(20)).unwrap();
        let unrelated = vm.create_blob(1000, 100).unwrap();
        vm.publish(unrelated, Version(0), NodeKey(99)).unwrap();
        // The family sees a's root — once, though b's v1 aliases it —
        // and b's v2; not the unrelated blob's tree.
        assert_eq!(
            vm.family_live_roots(a).unwrap(),
            vec![NodeKey(10), NodeKey(20)]
        );
        assert_eq!(
            vm.family_live_roots(a).unwrap(),
            vm.family_live_roots(b).unwrap()
        );
        // Deleting a's version leaves the clone's alias slot, so the
        // key stays live until that one goes too.
        vm.delete_snapshots(a, &[Version(1)]).unwrap();
        assert_eq!(
            vm.family_live_roots(a).unwrap(),
            vec![NodeKey(10), NodeKey(20)]
        );
        vm.delete_snapshots(b, &[Version(1)]).unwrap();
        assert_eq!(vm.family_live_roots(a).unwrap(), vec![NodeKey(20)]);
        vm.delete_snapshots(b, &[Version(2)]).unwrap();
        assert!(vm.family_live_roots(a).unwrap().is_empty());
        let family = vm.meta(a).unwrap().family;
        assert!(
            !vm.live_roots.contains_key(&family),
            "an emptied family is dropped"
        );
    }

    /// The pre-index implementation, kept as the oracle: scan every
    /// blob ever created for live roots of `blob`'s family.
    fn scan_family_live_roots(vm: &VManager, blob: BlobId) -> Vec<NodeKey> {
        let family = vm.meta(blob).unwrap().family;
        let mut out: Vec<NodeKey> = vm
            .blobs
            .values()
            .filter(|meta| meta.family == family)
            .flat_map(|meta| {
                (meta.roots.iter().enumerate())
                    .filter(|&(v, root)| !root.is_null() && !meta.deleted.contains(&(v as u64)))
                    .map(|(_, &root)| root)
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn index_matches_brute_force_scan_after_every_random_op() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |n: u64| {
            // xorshift64: deterministic, dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _case in 0..64 {
            let mut vm = VManager::new();
            let mut blobs = vec![vm.create_blob(1000, 100).unwrap()];
            for _step in 0..80 {
                let blob = blobs[rand(blobs.len() as u64) as usize];
                match rand(6) {
                    0 => blobs.push(vm.create_blob(1000, 100).unwrap()),
                    1 | 2 => {
                        let latest = vm.meta(blob).unwrap().latest();
                        let root = NodeKey(vm.reserve_keys(1).start);
                        // May fail on a deleted latest; the index must
                        // then be untouched.
                        let _ = vm.publish(blob, latest, root);
                    }
                    3 => {
                        let live = vm.live_snapshots(blob).unwrap();
                        if !live.is_empty() {
                            let v = live[rand(live.len() as u64) as usize];
                            blobs.push(vm.clone_blob(blob, v).unwrap());
                        }
                    }
                    4 => {
                        let live = vm.live_snapshots(blob).unwrap();
                        if !live.is_empty() {
                            let v = live[rand(live.len() as u64) as usize];
                            vm.delete_snapshots(blob, &[v]).unwrap();
                            // Rejected batches change nothing.
                            assert!(vm.delete_snapshots(blob, &[v]).is_err());
                        }
                    }
                    _ => {
                        let live = vm.live_snapshots(blob).unwrap();
                        if !live.is_empty() {
                            vm.delete_snapshots(blob, &live).unwrap();
                        }
                    }
                }
                for &b in &blobs {
                    assert_eq!(
                        vm.family_live_roots(b).unwrap(),
                        scan_family_live_roots(&vm, b),
                        "index diverged from the scan for {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn delete_cost_ignores_terminated_lineages() {
        // A base image plus one long-lived lineage, then N lineages that
        // clone, snapshot and terminate. What a later delete reads is the
        // family's index entry — the same two keys after 10 terminated
        // lineages as after 10 000, though `blobs` keeps every one.
        let entries_after = |terminated: usize| {
            let mut vm = VManager::new();
            let base = vm.create_blob(1000, 100).unwrap();
            vm.publish(base, Version(0), NodeKey(1)).unwrap();
            vm.ensure_key_floor(2);
            let keeper = vm.clone_blob(base, Version(1)).unwrap();
            let root = NodeKey(vm.reserve_keys(1).start);
            vm.publish(keeper, Version(1), root).unwrap();
            for _ in 0..terminated {
                let lineage = vm.clone_blob(base, Version(1)).unwrap();
                let root = NodeKey(vm.reserve_keys(1).start);
                vm.publish(lineage, Version(1), root).unwrap();
                let live = vm.live_snapshots(lineage).unwrap();
                vm.delete_snapshots(lineage, &live).unwrap();
            }
            assert_eq!(vm.blob_count(), 2 + terminated);
            let family = vm.meta(base).unwrap().family;
            assert_eq!(vm.live_roots.len(), 1, "one family is live");
            (
                vm.live_roots[&family].len(),
                vm.family_live_roots(keeper).unwrap().len(),
            )
        };
        assert_eq!(entries_after(10), (2, 2));
        assert_eq!(entries_after(10_000), (2, 2));
    }

    #[test]
    fn key_reservation_is_disjoint() {
        let mut vm = VManager::new();
        let a = vm.reserve_keys(5);
        let b = vm.reserve_keys(3);
        assert_eq!(a.end, b.start);
        assert!(a.start >= 1, "key 0 is NULL");
    }
}
