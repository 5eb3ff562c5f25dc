//! Versioned segment-tree algorithms (the paper's Fig. 3).
//!
//! The metadata of a blob snapshot is a binary tree over the chunk-index
//! space `0..span` (`span` = smallest power of two ≥ chunk count). Leaves
//! carry chunk descriptors; inner nodes carry child links that may point
//! into trees of *earlier snapshots or other blobs*. A write produces new
//! nodes only along the paths to modified leaves (shadowing); everything
//! else is shared. A clone shares the entire tree.
//!
//! The algorithms here are pure: they speak to storage through the
//! [`NodeIo`] trait, whose batched calls the client maps onto
//! metadata-server RPCs (one round per tree level, grouped by server, the
//! way BlobSeer parallelizes its distributed segment trees).

use crate::api::{BlobError, BlobResult, ChunkDesc, NodeKey, TreeNode};
use bff_data::{FastMap, FastSet};
use std::ops::Range;

/// Batched metadata node I/O.
pub trait NodeIo {
    /// Fetch the given nodes (one metadata round per call). Missing keys
    /// must yield `BlobError::MetadataMissing`.
    fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>>;
    /// Reserve `n` fresh node keys.
    fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>>;
    /// Persist new nodes (one metadata round per call).
    fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()>;
}

/// Smallest power of two ≥ `chunks` (≥ 1); `None` past 2⁶³ chunks.
pub fn span_for(chunks: u64) -> Option<u64> {
    chunks.max(1).checked_next_power_of_two()
}

/// Walk the tree of `root` and collect the leaf chunk descriptors for
/// chunk indices in `want` (clamped to `0..span`). Indices without a leaf
/// (NULL subtrees) are simply absent from the result — they read as zeros.
///
/// Fetches proceed level by level so that each level costs one metadata
/// round regardless of width.
pub fn collect_leaves(
    io: &mut dyn NodeIo,
    root: NodeKey,
    span: u64,
    want: &Range<u64>,
) -> BlobResult<Vec<(u64, ChunkDesc)>> {
    collect_leaves_multi(io, root, span, std::slice::from_ref(want))
}

/// Multi-range variant of [`collect_leaves`]: one breadth-first descent
/// for the *union* of `wants`, so a read plan of R disjoint runs costs at
/// most `tree depth` metadata rounds total instead of `R × depth`. This is
/// the single-descent planner behind the client's vectored `read_multi`.
///
/// Ordering contract: the result is sorted by chunk index with no
/// duplicates (even if `wants` overlap), and no explicit sort is needed —
/// the frontier is kept in index order (children pushed left before
/// right), and every leaf of a shadowed tree sits at the bottom level
/// (`build_new_tree` splits inner ranges down to single-chunk leaves), so
/// the final level emits leaves left-to-right. A test locks this contract.
pub fn collect_leaves_multi(
    io: &mut dyn NodeIo,
    root: NodeKey,
    span: u64,
    wants: &[Range<u64>],
) -> BlobResult<Vec<(u64, ChunkDesc)>> {
    let mut out = Vec::new();
    // Normalize to sorted, disjoint, non-empty ranges.
    let mut wants: Vec<Range<u64>> = wants.iter().filter(|w| w.start < w.end).cloned().collect();
    wants.sort_by_key(|w| w.start);
    wants.dedup_by(|next, prev| {
        if next.start <= prev.end {
            prev.end = prev.end.max(next.end);
            true
        } else {
            false
        }
    });
    if root.is_null() || wants.is_empty() {
        return Ok(out);
    }
    // Does `range` intersect the want union? `wants` is sorted+disjoint,
    // so only the predecessor-by-start and successor runs can overlap.
    let intersects = |range: &Range<u64>| -> bool {
        let i = wants.partition_point(|w| w.start < range.end);
        i > 0 && wants[i - 1].end > range.start
    };
    // Frontier of (key, node_range), maintained in index order.
    let mut frontier: Vec<(NodeKey, Range<u64>)> = vec![(root, 0..span)];
    while !frontier.is_empty() {
        let keys: Vec<NodeKey> = frontier.iter().map(|(k, _)| *k).collect();
        let nodes = io.fetch(&keys)?;
        let mut next = Vec::new();
        for ((_key, range), node) in frontier.into_iter().zip(nodes) {
            match node {
                TreeNode::Leaf { chunk } => {
                    debug_assert_eq!(range.end - range.start, 1, "leaf must cover one chunk");
                    if intersects(&range) {
                        debug_assert!(
                            out.last().is_none_or(|(i, _)| *i < range.start),
                            "frontier order must yield sorted leaves"
                        );
                        out.push((range.start, chunk));
                    }
                }
                TreeNode::Inner { left, right } => {
                    let mid = range.start + (range.end - range.start) / 2;
                    if !left.is_null() && intersects(&(range.start..mid)) {
                        next.push((left, range.start..mid));
                    }
                    if !right.is_null() && intersects(&(mid..range.end)) {
                        next.push((right, mid..range.end));
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(out)
}

/// The garbage collector's reachability diff: the leaves `(node key,
/// descriptor)` reachable from a root in `dead_roots` and from none in
/// `live_roots`, found in one level-synchronous descent over all the
/// trees at once — one [`NodeIo::fetch`] per level.
///
/// The diff is by leaf *node*, not by chunk: two snapshots can share a
/// chunk through one shared leaf (shadowing/CLONE: one provider-side
/// reference between them) or through distinct leaves (dedup by
/// reference: one each), and every leaf node holds exactly one
/// reference per replica in its descriptor — so a leaf only deleted
/// roots reach releases exactly its own references, never a survivor's.
///
/// All roots must come from one clone family, where a node key sits at
/// exactly one tree position (see `crate::vmanager`). Per level: a dead
/// candidate whose key is in the live frontier heads a subtree shared
/// whole with a live tree and is dropped unfetched; a live node at a
/// position no remaining dead candidate occupies can reach nothing
/// below one and is dropped too; live leaves are never fetched. The
/// descent stops when no dead candidate is left, so it reads the paths
/// on which the deleted trees *differ* from the live ones.
pub fn collect_dead_leaves(
    io: &mut dyn NodeIo,
    dead_roots: &[NodeKey],
    live_roots: &[NodeKey],
    span: u64,
) -> BlobResult<Vec<(NodeKey, ChunkDesc)>> {
    // Frontiers of (key, first chunk index of the node's range), each
    // key once; every node of a level spans `width` chunks.
    fn frontier(keys: impl IntoIterator<Item = (NodeKey, u64)>) -> Vec<(NodeKey, u64)> {
        let mut seen = FastSet::default();
        keys.into_iter()
            .filter(|&(k, _)| !k.is_null() && seen.insert(k))
            .collect()
    }
    let mut out = Vec::new();
    let mut dead = frontier(dead_roots.iter().map(|&k| (k, 0)));
    let mut live = frontier(live_roots.iter().map(|&k| (k, 0)));
    let mut width = span;
    loop {
        let live_keys: FastSet<NodeKey> = live.iter().map(|&(k, _)| k).collect();
        dead.retain(|(k, _)| !live_keys.contains(k));
        if dead.is_empty() {
            return Ok(out);
        }
        if width == 1 {
            live.clear();
        } else {
            let contested: FastSet<u64> = dead.iter().map(|&(_, at)| at).collect();
            live.retain(|(_, at)| contested.contains(at));
        }
        let keys: Vec<NodeKey> = dead.iter().chain(&live).map(|&(k, _)| k).collect();
        let nodes = io.fetch(&keys)?;
        let half = width / 2;
        let (mut next_dead, mut next_live) = (Vec::new(), Vec::new());
        for (i, (&(key, at), node)) in dead.iter().chain(&live).zip(nodes).enumerate() {
            let is_dead = i < dead.len();
            match node {
                TreeNode::Leaf { chunk } => {
                    debug_assert_eq!(width, 1, "leaf must cover one chunk");
                    if is_dead {
                        out.push((key, chunk));
                    }
                }
                TreeNode::Inner { left, right } => {
                    let next = if is_dead {
                        &mut next_dead
                    } else {
                        &mut next_live
                    };
                    next.extend([(left, at), (right, at + half)]);
                }
            }
        }
        (dead, live) = (frontier(next_dead), frontier(next_live));
        width = half;
    }
}

/// The pre-joint-descent collector, kept as the test oracle: walk the
/// whole tree of `root` and collect every leaf as `(chunk index, leaf
/// key, descriptor)`, one metadata round per level per root.
#[cfg(test)]
pub(crate) fn collect_leaf_keys(
    io: &mut dyn NodeIo,
    root: NodeKey,
    span: u64,
) -> BlobResult<Vec<(u64, NodeKey, ChunkDesc)>> {
    let mut out = Vec::new();
    if root.is_null() {
        return Ok(out);
    }
    let mut frontier: Vec<(NodeKey, Range<u64>)> = vec![(root, 0..span)];
    while !frontier.is_empty() {
        let keys: Vec<NodeKey> = frontier.iter().map(|(k, _)| *k).collect();
        let nodes = io.fetch(&keys)?;
        let mut next = Vec::new();
        for ((key, range), node) in frontier.into_iter().zip(nodes) {
            match node {
                TreeNode::Leaf { chunk } => out.push((range.start, key, chunk)),
                TreeNode::Inner { left, right } => {
                    let mid = range.start + (range.end - range.start) / 2;
                    if !left.is_null() {
                        next.push((left, range.start..mid));
                    }
                    if !right.is_null() {
                        next.push((right, mid..range.end));
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(out)
}

/// Build the tree for a new snapshot that applies `updates` (chunk index →
/// descriptor) on top of the tree rooted at `old_root`. Returns the new
/// root. Only nodes on paths to updated leaves are created; all other
/// subtrees are shared with the old tree by reference (shadowing).
pub fn build_new_tree(
    io: &mut dyn NodeIo,
    old_root: NodeKey,
    span: u64,
    updates: &FastMap<u64, ChunkDesc>,
) -> BlobResult<NodeKey> {
    if updates.is_empty() {
        return Ok(old_root);
    }
    debug_assert!(updates.keys().all(|&i| i < span), "update beyond span");

    // Phase 1: fetch the old nodes on paths to updated leaves, level by
    // level, into a local cache.
    let mut cache: FastMap<NodeKey, TreeNode> = FastMap::default();
    if !old_root.is_null() {
        let mut frontier: Vec<(NodeKey, Range<u64>)> = vec![(old_root, 0..span)];
        while !frontier.is_empty() {
            let keys: Vec<NodeKey> = frontier.iter().map(|(k, _)| *k).collect();
            let nodes = io.fetch(&keys)?;
            let mut next = Vec::new();
            for ((key, range), node) in frontier.into_iter().zip(nodes) {
                cache.insert(key, node.clone());
                if let TreeNode::Inner { left, right } = node {
                    let mid = range.start + (range.end - range.start) / 2;
                    if !left.is_null() && touches(updates, &(range.start..mid)) {
                        next.push((left, range.start..mid));
                    }
                    if !right.is_null() && touches(updates, &(mid..range.end)) {
                        next.push((right, mid..range.end));
                    }
                }
            }
            frontier = next;
        }
    }

    // Phase 2: count the nodes we will create so one reservation covers
    // them, then build bottom-up locally.
    let new_count = count_new_nodes(&cache, old_root, 0..span, updates);
    let mut keys = io.reserve(new_count)?;
    let mut created: Vec<(NodeKey, TreeNode)> = Vec::with_capacity(new_count as usize);
    let root = build_rec(&cache, old_root, 0..span, updates, &mut keys, &mut created)?;
    debug_assert_eq!(created.len() as u64, new_count);

    // Phase 3: persist the new nodes, then hand back the root.
    io.store(created)?;
    Ok(root)
}

fn touches(updates: &FastMap<u64, ChunkDesc>, range: &Range<u64>) -> bool {
    // Updates are sparse relative to spans only for huge trees; for the
    // commit sizes in play a direct scan of the smaller side is fine.
    if (range.end - range.start) < updates.len() as u64 {
        (range.start..range.end).any(|i| updates.contains_key(&i))
    } else {
        updates.keys().any(|i| range.contains(i))
    }
}

fn count_new_nodes(
    cache: &FastMap<NodeKey, TreeNode>,
    old: NodeKey,
    range: Range<u64>,
    updates: &FastMap<u64, ChunkDesc>,
) -> u64 {
    if !touches(updates, &range) {
        return 0;
    }
    if range.end - range.start == 1 {
        return 1;
    }
    let mid = range.start + (range.end - range.start) / 2;
    let (ol, or) = match (!old.is_null()).then(|| cache.get(&old)).flatten() {
        Some(TreeNode::Inner { left, right }) => (*left, *right),
        _ => (NodeKey::NULL, NodeKey::NULL),
    };
    1 + count_new_nodes(cache, ol, range.start..mid, updates)
        + count_new_nodes(cache, or, mid..range.end, updates)
}

fn build_rec(
    cache: &FastMap<NodeKey, TreeNode>,
    old: NodeKey,
    range: Range<u64>,
    updates: &FastMap<u64, ChunkDesc>,
    keys: &mut Range<u64>,
    created: &mut Vec<(NodeKey, TreeNode)>,
) -> BlobResult<NodeKey> {
    if !touches(updates, &range) {
        // Untouched subtree: share the old one (possibly NULL).
        return Ok(old);
    }
    let key = NodeKey(keys.next().expect("key reservation exhausted"));
    if range.end - range.start == 1 {
        let chunk = updates
            .get(&range.start)
            .expect("touched leaf has update")
            .clone();
        created.push((key, TreeNode::Leaf { chunk }));
        return Ok(key);
    }
    let mid = range.start + (range.end - range.start) / 2;
    let (ol, or) = match (!old.is_null()).then(|| cache.get(&old)).flatten() {
        Some(TreeNode::Inner { left, right }) => (*left, *right),
        Some(TreeNode::Leaf { .. }) => {
            return Err(BlobError::MetadataMissing(old));
        }
        None if !old.is_null() => return Err(BlobError::MetadataMissing(old)),
        None => (NodeKey::NULL, NodeKey::NULL),
    };
    let left = build_rec(cache, ol, range.start..mid, updates, keys, created)?;
    let right = build_rec(cache, or, mid..range.end, updates, keys, created)?;
    created.push((key, TreeNode::Inner { left, right }));
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ChunkId;
    use bff_net::NodeId;

    /// In-memory NodeIo that also counts rounds (for batching assertions).
    #[derive(Default)]
    struct MemIo {
        nodes: FastMap<NodeKey, TreeNode>,
        next: u64,
        fetch_rounds: usize,
        fetched_nodes: usize,
        stored: usize,
    }

    impl MemIo {
        fn new() -> Self {
            Self {
                next: 1,
                ..Default::default()
            }
        }
    }

    impl NodeIo for MemIo {
        fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
            self.fetch_rounds += 1;
            self.fetched_nodes += keys.len();
            keys.iter()
                .map(|k| {
                    self.nodes
                        .get(k)
                        .cloned()
                        .ok_or(BlobError::MetadataMissing(*k))
                })
                .collect()
        }
        fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>> {
            let start = self.next;
            self.next += n;
            Ok(start..self.next)
        }
        fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
            self.stored += nodes.len();
            for (k, n) in nodes {
                assert!(self.nodes.insert(k, n).is_none(), "node keys are immutable");
            }
            Ok(())
        }
    }

    fn desc(i: u64) -> ChunkDesc {
        ChunkDesc {
            id: ChunkId(1000 + i),
            replicas: [NodeId((i % 4) as u32)].into(),
        }
    }

    fn updates(idx: &[u64]) -> FastMap<u64, ChunkDesc> {
        idx.iter().map(|&i| (i, desc(i))).collect()
    }

    #[test]
    fn span_is_next_pow2() {
        assert_eq!(span_for(0), Some(1));
        assert_eq!(span_for(1), Some(1));
        assert_eq!(span_for(5), Some(8));
        assert_eq!(span_for(8), Some(8));
        assert_eq!(span_for(8192), Some(8192));
        assert_eq!(span_for(u64::MAX), None);
    }

    #[test]
    fn empty_tree_reads_empty() {
        let mut io = MemIo::new();
        let leaves = collect_leaves(&mut io, NodeKey::NULL, 8, &(0..8)).unwrap();
        assert!(leaves.is_empty());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[0, 3, 7])).unwrap();
        let leaves = collect_leaves(&mut io, root, 8, &(0..8)).unwrap();
        let idx: Vec<u64> = leaves.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![0, 3, 7]);
        assert_eq!(leaves[1].1, desc(3));
        // Partial range.
        let leaves = collect_leaves(&mut io, root, 8, &(1..4)).unwrap();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].0, 3);
    }

    #[test]
    fn shadowing_shares_unmodified_subtrees() {
        // Fig. 3(c): writing chunk C4' to a 4-chunk blob creates exactly
        // the path to leaf 3: leaf + 1 inner + root = 3 nodes; the (0,2)
        // subtree is shared.
        let mut io = MemIo::new();
        let v1 = build_new_tree(&mut io, NodeKey::NULL, 4, &updates(&[0, 1, 2, 3])).unwrap();
        let before = io.stored;
        assert_eq!(before, 4 + 2 + 1, "full tree of span 4");
        let v2 = build_new_tree(&mut io, v1, 4, &updates(&[3])).unwrap();
        assert_eq!(io.stored - before, 3, "path copy only");
        // v2 sees the update; v1 is untouched.
        let l2 = collect_leaves(&mut io, v2, 4, &(0..4)).unwrap();
        assert_eq!(l2.len(), 4);
        let l1 = collect_leaves(&mut io, v1, 4, &(3..4)).unwrap();
        assert_eq!(l1[0].1, desc(3));
        // And the shared left subtree is literally the same node keys:
        let (TreeNode::Inner { left: left1, .. }, TreeNode::Inner { left: left2, .. }) =
            (io.nodes[&v1].clone(), io.nodes[&v2].clone())
        else {
            panic!("roots must be inner nodes")
        };
        assert_eq!(left1, left2, "unmodified subtree shared between snapshots");
    }

    #[test]
    fn old_versions_are_immutable() {
        let mut io = MemIo::new();
        let v1 = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[2])).unwrap();
        let snapshot_before: FastMap<NodeKey, TreeNode> = io.nodes.clone();
        let _v2 = build_new_tree(&mut io, v1, 8, &updates(&[2, 5])).unwrap();
        // Every node that existed before still exists, unmodified.
        for (k, n) in snapshot_before {
            assert_eq!(io.nodes.get(&k), Some(&n));
        }
    }

    #[test]
    fn cloning_by_sharing_root_then_diverging() {
        // CLONE is metadata-free in this representation: blob B's v1 root
        // *is* blob A's root. Writing to B must not disturb A.
        let mut io = MemIo::new();
        let a_root = build_new_tree(&mut io, NodeKey::NULL, 4, &updates(&[0, 1, 2, 3])).unwrap();
        let b_root = a_root; // CLONE
        let mut up = FastMap::default();
        up.insert(
            1u64,
            ChunkDesc {
                id: ChunkId(777),
                replicas: [NodeId(9)].into(),
            },
        );
        let b2 = build_new_tree(&mut io, b_root, 4, &up).unwrap();
        let a_leaves = collect_leaves(&mut io, a_root, 4, &(0..4)).unwrap();
        assert_eq!(
            a_leaves[1].1,
            desc(1),
            "origin unchanged after clone diverges"
        );
        let b_leaves = collect_leaves(&mut io, b2, 4, &(0..4)).unwrap();
        assert_eq!(b_leaves[1].1.id, ChunkId(777));
        assert_eq!(b_leaves[0].1, desc(0), "clone shares original content");
    }

    #[test]
    fn fetch_rounds_are_per_level() {
        let mut io = MemIo::new();
        let all: Vec<u64> = (0..16).collect();
        let root = build_new_tree(&mut io, NodeKey::NULL, 16, &updates(&all)).unwrap();
        io.fetch_rounds = 0;
        let _ = collect_leaves(&mut io, root, 16, &(0..16)).unwrap();
        // Depth of a span-16 tree is log2(16)+1 = 5 levels.
        assert_eq!(io.fetch_rounds, 5);
    }

    #[test]
    fn multi_range_descent_costs_one_round_per_level() {
        // A plan of R disjoint runs must cost at most tree-depth rounds
        // total, not R × depth: the union descends in one BFS.
        let span = 64u64;
        let mut io = MemIo::new();
        let all: Vec<u64> = (0..span).collect();
        let root = build_new_tree(&mut io, NodeKey::NULL, span, &updates(&all)).unwrap();
        let runs: Vec<Range<u64>> = vec![2..5, 9..10, 17..23, 40..41, 60..64];
        io.fetch_rounds = 0;
        let leaves = collect_leaves_multi(&mut io, root, span, &runs).unwrap();
        let depth = span.ilog2() as usize + 1;
        assert!(
            io.fetch_rounds <= depth,
            "{} rounds for {} runs exceeds depth {}",
            io.fetch_rounds,
            runs.len(),
            depth
        );
        // Same leaves as per-run descents, in index order.
        let mut expect = Vec::new();
        for r in &runs {
            expect.extend(collect_leaves(&mut io, root, span, r).unwrap());
        }
        assert_eq!(leaves, expect);
    }

    #[test]
    fn multi_range_overlaps_dedup_and_clamp() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[0, 3, 5, 7])).unwrap();
        // Overlapping + adjacent + empty input ranges collapse cleanly.
        let leaves = collect_leaves_multi(&mut io, root, 8, &[4..6, 2..5, 6..6, 5..8]).unwrap();
        let idx: Vec<u64> = leaves.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![3, 5, 7]);
        // Empty plan costs nothing.
        io.fetch_rounds = 0;
        assert!(collect_leaves_multi(&mut io, root, 8, &[])
            .unwrap()
            .is_empty());
        assert!(
            collect_leaves_multi(&mut io, root, 8, std::slice::from_ref(&(3..3)))
                .unwrap()
                .is_empty()
        );
        assert_eq!(io.fetch_rounds, 0);
    }

    #[test]
    fn leaves_emerge_in_index_order_without_sorting() {
        // The ordering contract `collect_leaves_multi` documents: BFS with
        // left-before-right children yields sorted leaves because every
        // leaf sits at the bottom level. Locked here so a future layout
        // change (e.g. variable-depth leaves) must revisit the contract.
        let mut io = MemIo::new();
        let sparse: Vec<u64> = vec![1, 2, 6, 9, 300, 301, 500, 1023];
        let root = build_new_tree(&mut io, NodeKey::NULL, 1024, &updates(&sparse)).unwrap();
        let leaves = collect_leaves(&mut io, root, 1024, &(0..1024)).unwrap();
        let idx: Vec<u64> = leaves.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, sparse, "leaves must arrive sorted and complete");
    }

    #[test]
    fn leaf_keys_expose_sharing_between_snapshots() {
        // Two snapshots sharing all but one leaf: the walks agree on the
        // shared leaves' node keys and differ exactly at the updated
        // index — the property the snapshot GC's reachability diff
        // relies on.
        let mut io = MemIo::new();
        let v1 = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[0, 3, 7])).unwrap();
        let v2 = build_new_tree(&mut io, v1, 8, &updates(&[3])).unwrap();
        let l1 = collect_leaf_keys(&mut io, v1, 8).unwrap();
        let l2 = collect_leaf_keys(&mut io, v2, 8).unwrap();
        assert_eq!(l1.len(), 3);
        assert_eq!(l2.len(), 3);
        let key_at = |ls: &[(u64, NodeKey, ChunkDesc)], i: u64| {
            ls.iter().find(|(idx, _, _)| *idx == i).unwrap().1
        };
        assert_eq!(key_at(&l1, 0), key_at(&l2, 0), "untouched leaf shared");
        assert_eq!(key_at(&l1, 7), key_at(&l2, 7), "untouched leaf shared");
        assert_ne!(key_at(&l1, 3), key_at(&l2, 3), "updated leaf shadowed");
        // Index order and descriptors match the plain leaf walk.
        let plain = collect_leaves(&mut io, v2, 8, &(0..8)).unwrap();
        let flat: Vec<(u64, ChunkDesc)> = l2.into_iter().map(|(i, _, d)| (i, d)).collect();
        assert_eq!(flat, plain);
        // A NULL tree has no leaves.
        assert!(collect_leaf_keys(&mut io, NodeKey::NULL, 8)
            .unwrap()
            .is_empty());
    }

    /// The old collector's answer: every leaf the full walks of the
    /// dead roots reach, minus every leaf the full walks of the live
    /// roots reach. Sorted by leaf key.
    fn dead_leaves_by_full_walks(
        io: &mut MemIo,
        dead_roots: &[NodeKey],
        live_roots: &[NodeKey],
        span: u64,
    ) -> Vec<(NodeKey, ChunkDesc)> {
        let mut dead: FastMap<NodeKey, ChunkDesc> = FastMap::default();
        for &root in dead_roots {
            for (_, key, desc) in collect_leaf_keys(io, root, span).unwrap() {
                dead.insert(key, desc);
            }
        }
        for &root in live_roots {
            for (_, key, _) in collect_leaf_keys(io, root, span).unwrap() {
                dead.remove(&key);
            }
        }
        let mut dead: Vec<_> = dead.into_iter().collect();
        dead.sort_by_key(|&(key, _)| key);
        dead
    }

    fn sorted_dead_leaves(
        io: &mut MemIo,
        dead_roots: &[NodeKey],
        live_roots: &[NodeKey],
        span: u64,
    ) -> Vec<(NodeKey, ChunkDesc)> {
        let mut dead = collect_dead_leaves(io, dead_roots, live_roots, span).unwrap();
        dead.sort_by_key(|&(key, _)| key);
        dead
    }

    #[test]
    fn joint_descent_matches_full_walk_oracle_on_random_histories() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..200 {
            let span = 1u64 << rand(6); // 1..=32 chunks
            let mut io = MemIo::new();
            // A family's trees: each new root shadows a random earlier
            // one (NULL = a fresh lineage start) with random updates.
            let mut roots: Vec<NodeKey> = Vec::new();
            for _ in 0..2 + rand(10) {
                let base = match rand(roots.len() as u64 + 1) as usize {
                    0 => NodeKey::NULL,
                    i => roots[i - 1],
                };
                let touched: Vec<u64> = (0..1 + rand(4)).map(|_| rand(span)).collect();
                let mut up = updates(&touched);
                for desc in up.values_mut() {
                    desc.id = ChunkId(rand(1 << 40)); // fresh content per write
                }
                roots.push(build_new_tree(&mut io, base, span, &up).unwrap());
                if rand(4) == 0 {
                    roots.push(*roots.last().unwrap()); // a clone's alias
                }
            }
            // A random split into deleted and surviving roots; aliases
            // may land on both sides.
            let (mut dead, mut live) = (Vec::new(), Vec::new());
            for &root in &roots {
                if rand(3) == 0 {
                    dead.push(root);
                } else {
                    live.push(root);
                }
            }
            let want = dead_leaves_by_full_walks(&mut io, &dead, &live, span);
            io.fetch_rounds = 0;
            let got = sorted_dead_leaves(&mut io, &dead, &live, span);
            assert_eq!(got, want, "case {case}: dead {dead:?} live {live:?}");
            assert!(
                io.fetch_rounds <= span.ilog2() as usize + 1,
                "case {case}: {} rounds for depth {}",
                io.fetch_rounds,
                span.ilog2() + 1
            );
        }
    }

    #[test]
    fn joint_descent_cost_follows_the_diff_not_the_family() {
        // A 64-chunk base image, K lineage heads that each rewrote two
        // chunks of it, and a victim that rewrote three. The full walks
        // read (2 + K) × 127 nodes in (2 + K) × 7 rounds; the joint
        // descent takes one round per level and reads, below the roots,
        // only what sits at the positions along the victim's 3 paths.
        let span = 64u64;
        let depth = span.ilog2() as usize + 1;
        type HeadWrites = fn(u64) -> [u64; 2];
        // Heads rewrote the right half, the victim the left: nothing of
        // theirs is contested, so the cost below the roots is constant —
        // per level and path, the victim's node and the base's.
        let apart: HeadWrites = |i| [32 + (5 * i + 1) % 32, 32 + (11 * i + 7) % 32];
        // Heads rewrote chunks all over the image: per level, at most
        // the 2 shadow nodes each head has there are contested as well.
        let mixed: HeadWrites = |i| [(5 * i + 1) % 64, (11 * i + 7) % 64];
        let mut apart_costs = Vec::new();
        for (head_writes, heads_contested) in [(apart, 0usize), (mixed, 2)] {
            for k in [1u64, 8, 32] {
                let mut io = MemIo::new();
                let all: Vec<u64> = (0..span).collect();
                let base = build_new_tree(&mut io, NodeKey::NULL, span, &updates(&all)).unwrap();
                let mut live = vec![base];
                for i in 0..k {
                    let up = updates(&head_writes(i));
                    live.push(build_new_tree(&mut io, base, span, &up).unwrap());
                }
                let victim = build_new_tree(&mut io, base, span, &updates(&[3, 9, 30])).unwrap();

                (io.fetch_rounds, io.fetched_nodes) = (0, 0);
                let want = dead_leaves_by_full_walks(&mut io, &[victim], &live, span);
                let (old_rounds, old_nodes) = (io.fetch_rounds, io.fetched_nodes);
                assert_eq!(want.len(), 3);
                assert_eq!(old_rounds, (1 + live.len()) * depth);
                assert_eq!(old_nodes, (1 + live.len()) * (2 * span as usize - 1));

                (io.fetch_rounds, io.fetched_nodes) = (0, 0);
                let got = sorted_dead_leaves(&mut io, &[victim], &live, span);
                assert_eq!(got, want);
                assert_eq!(io.fetch_rounds, depth, "one round per level");
                let below_roots = io.fetched_nodes - (1 + live.len());
                let bound = (depth - 1) * (3 + 3 + heads_contested * k as usize);
                assert!(
                    below_roots <= bound,
                    "K={k}: {below_roots} nodes below the roots, bound {bound} \
                     (full walks: {old_nodes})"
                );
                if heads_contested == 0 {
                    apart_costs.push(below_roots);
                }
            }
        }
        assert!(
            apart_costs.windows(2).all(|w| w[0] == w[1]),
            "cost below the roots must not depend on K: {apart_costs:?}"
        );
    }

    #[test]
    fn never_diverged_lineage_prunes_at_the_root_without_a_fetch() {
        // Terminating a clone that never wrote: its only version aliases
        // a live root, so the descent ends at level 0, fetching nothing.
        let mut io = MemIo::new();
        let all: Vec<u64> = (0..16).collect();
        let source = build_new_tree(&mut io, NodeKey::NULL, 16, &updates(&all)).unwrap();
        let head = build_new_tree(&mut io, source, 16, &updates(&[4])).unwrap();
        io.fetch_rounds = 0;
        let dead = collect_dead_leaves(&mut io, &[source], &[source, head], 16).unwrap();
        assert!(dead.is_empty());
        assert_eq!(io.fetch_rounds, 0);
        // Empty and NULL inputs cost nothing either.
        assert!(collect_dead_leaves(&mut io, &[], &[head], 16)
            .unwrap()
            .is_empty());
        assert!(collect_dead_leaves(&mut io, &[NodeKey::NULL], &[], 16)
            .unwrap()
            .is_empty());
        assert_eq!(io.fetch_rounds, 0);
        // With no live root at all, the whole tree is dead.
        assert_eq!(
            collect_dead_leaves(&mut io, &[source], &[], 16)
                .unwrap()
                .len(),
            16
        );
    }

    #[test]
    fn no_update_returns_old_root() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 4, &updates(&[1])).unwrap();
        let same = build_new_tree(&mut io, root, 4, &FastMap::default()).unwrap();
        assert_eq!(root, same);
    }

    #[test]
    fn single_chunk_blob() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 1, &updates(&[0])).unwrap();
        let leaves = collect_leaves(&mut io, root, 1, &(0..1)).unwrap();
        assert_eq!(leaves.len(), 1);
        assert!(matches!(io.nodes[&root], TreeNode::Leaf { .. }));
    }

    #[test]
    fn sparse_tree_reads_only_written() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 1024, &updates(&[1000])).unwrap();
        let leaves = collect_leaves(&mut io, root, 1024, &(0..1024)).unwrap();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].0, 1000);
        // A sparse write creates only the path: depth 11 nodes.
        assert_eq!(io.stored, 11);
    }
}
