//! Metadata I/O: segment-tree nodes through the node-shared tree-node
//! cache, with one [`Step`] over the metadata shards for what the node
//! has never seen (reads) or has just built (writes).

use super::step::{self, Step};
use super::Client;
use crate::api::{BlobResult, NodeKey, TreeNode};
use crate::meta::partition_of;
use crate::segtree::NodeIo;
use bff_wire::msg::{unexpected_resp, MetaReq, Req};
use std::ops::Range;
use std::sync::atomic::Ordering;

/// A client's [`NodeIo`]: what the segment-tree walks read and write.
pub(super) struct ClientNodeIo<'a> {
    client: &'a Client,
}

impl Client {
    pub(super) fn node_io(&self) -> ClientNodeIo<'_> {
        ClientNodeIo { client: self }
    }
}

fn meta(shard: usize, req: MetaReq) -> Option<Req> {
    Some(Req::Meta {
        shard: shard as u32,
        req,
    })
}

impl NodeIo for ClientNodeIo<'_> {
    /// One level of a descent: the nodes this node has seen come from
    /// its cache (nodes are immutable); the misses are one step with one
    /// `ReadNodes` batch per shard — one metadata round per level.
    fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
        self.client.meta_fetch_calls.fetch_add(1, Ordering::Relaxed);
        let ctx = &self.client.ctx;
        let mut out = ctx.tree_nodes_get(keys);
        let misses: Vec<(usize, NodeKey)> = keys
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| out[i].is_none())
            .collect();
        if misses.is_empty() {
            return Ok(out.into_iter().flatten().collect());
        }
        let shards = self.client.store.meta_shards();
        let mut read = Step::new();
        for &(i, key) in &misses {
            read.add(partition_of(key, shards), (i, key));
        }
        let mut failed = None;
        read.run(
            self.client,
            |shard, group| {
                let keys = group.iter().map(|&(_, key)| key).collect();
                meta(shard, MetaReq::ReadNodes(keys))
            },
            step::nodes,
            |_, group, reply| match reply {
                Some(Ok(nodes)) => {
                    for (&(i, _), node) in group.iter().zip(nodes) {
                        out[i] = Some(node);
                    }
                }
                Some(Err(e)) => {
                    failed.get_or_insert(e);
                }
                // Every shard is asked; a node left unfilled fails the
                // level below.
                None => {}
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        ctx.tree_nodes_insert(
            misses
                .iter()
                .filter_map(|&(i, key)| Some((key, out[i].clone()?))),
        );
        out.into_iter()
            .collect::<Option<Vec<TreeNode>>>()
            .ok_or_else(unexpected_resp)
    }

    fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>> {
        self.client.store.vm_reserve_keys(self.client.node, n)
    }

    /// A commit's new nodes: one step with one `WriteNodes` batch per
    /// shard. The first failure is returned (the other shards' writes
    /// stand — unpublished nodes are unreachable either way), and only a
    /// step every shard acknowledged fills the node's cache: the cache is
    /// shared, and a failed commit must not plant nodes no shard holds
    /// (nor evict useful ones).
    fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
        // Cacheable once the shards hold them (cheap clones: inner nodes
        // are two keys, leaves share their replica set by refcount).
        let stored = nodes.clone();
        let shards = self.client.store.meta_shards();
        let mut write = Step::new();
        for (key, node) in nodes {
            write.add(partition_of(key, shards), (key, node));
        }
        let mut failed = None;
        write.run(
            self.client,
            |shard, group| meta(shard, MetaReq::WriteNodes(std::mem::take(group))),
            step::written,
            |_, _, reply| {
                if let Some(Err(e)) = reply {
                    failed.get_or_insert(e);
                }
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        self.client.ctx.tree_nodes_insert(stored);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

    #[test]
    fn metadata_nodes_shared_across_snapshots() {
        let (_f, client) = setup(4);
        // 8 chunks; snapshot twice touching one chunk each time.
        let (blob, v1) = client.upload(Payload::synth(10, 0, 1024)).unwrap();
        client.read(blob, v1, 0..1024).unwrap();
        let nodes_v1 = client.store().total_metadata_nodes();
        let v2 = client
            .write_chunks(blob, v1, vec![(0, Payload::synth(11, 0, 128))])
            .unwrap();
        let added = client.store().total_metadata_nodes() - nodes_v1;
        // span 8 -> depth 4 path (leaf + 2 inners + root).
        assert_eq!(added, 4, "path copy only: {added} nodes added");

        // The node's one metadata cache serves every version that reaches
        // its nodes, with nothing carried over per version: each read
        // below walks cached nodes only.
        let ctx = Arc::clone(client.context());
        let free = |reader: &Client, blob, v, what: &str| {
            let (calls, misses) = (reader.meta_fetch_calls(), ctx.stats().node_misses);
            reader.read(blob, v, 0..1024).unwrap();
            let after = (reader.meta_fetch_calls(), ctx.stats().node_misses);
            assert_eq!(after, (calls, misses), "{what} cost metadata rounds");
        };
        let clone = client.clone_blob(blob, v1).unwrap();
        free(&client, clone, Version(1), "the clone's first version");
        free(&client, blob, v2, "a commit read by its committer");
        let fresh = Client::new(Arc::clone(client.store()), NodeId(0));
        free(&fresh, blob, v2, "a fresh co-located handle");
    }

    /// The tree-node bound is a memory cap, never a correctness input:
    /// with no cache at all, or one far smaller than a single tree, every
    /// read, commit and delete answers as the default context does.
    #[test]
    fn tiny_tree_node_caches_stay_correct() {
        for cap in [0usize, 1, 3, 16] {
            let (_f, seed) = setup(4);
            let store = Arc::clone(seed.store());
            let ctx = Arc::new(NodeContext::with_tree_node_capacity(store.config(), cap));
            let client = Client::with_context(Arc::clone(&store), NodeId(0), Arc::clone(&ctx));
            let image = Payload::synth(70, 0, 64 * 128);
            let (blob, v1) = client.upload(image.clone()).unwrap();
            let patch = Payload::synth(71, 0, 3 * 128);
            let v2 = client.write(blob, v1, 32 * 128, patch.clone()).unwrap();
            assert!(ctx.tree_node_entries() <= cap, "cap {cap}");
            // A cold metadata cache on the reading side: the descents run.
            let fresh = Arc::new(NodeContext::with_tree_node_capacity(store.config(), cap));
            let bounded = Client::with_context(Arc::clone(&store), NodeId(1), Arc::clone(&fresh));
            let reference = Client::new(Arc::clone(&store), NodeId(2));
            for (v, want) in [(v1, image.clone()), (v2, image.overwrite(32 * 128, patch))] {
                for range in [0..64 * 128, 31 * 128..36 * 128, 100..200] {
                    let got = bounded.read(blob, v, range.clone()).unwrap();
                    assert!(got.content_eq(&want.slice(range.start, range.end)));
                    let same = reference.read(blob, v, range).unwrap();
                    assert!(got.content_eq(&same), "cap {cap}");
                }
            }
            assert!(fresh.tree_node_entries() <= cap, "cap {cap}");
            let report = bounded.delete_snapshot(blob, v2).unwrap();
            assert_eq!(report.dead_leaves, 3, "cap {cap}");
        }
    }
}
