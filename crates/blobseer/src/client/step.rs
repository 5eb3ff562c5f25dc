//! The one shape of a protocol step that addresses several destinations.
//!
//! A [`Step`] gathers a batch of items by destination (ascending, so
//! requests, charges and settles run in a deterministic order), asks
//! each destination once for its request — or skips a destination it
//! cannot reach — and pays each request's before-send price from the
//! cost book (`crate::cost`), all before anything is sent. A request
//! whose charge the fabric refuses is not sent. Then every request goes
//! out in one [`BlobStore::call_many`]: a step's destinations are all of
//! one server role, so behind a transport hop the step is one frame and
//! one `Transport::call` (a step spanning two roles panics in every
//! deployment). Each group comes back with its reply, charged from the
//! book and validated: one answer per item, or the destination counts
//! as failed.

use super::Client;
use crate::api::{BlobError, BlobResult};
use crate::cost::{self, OnReply};
use crate::service::{BlobStore, Fetched};
use bff_net::NodeId;
use bff_wire::msg::{unexpected_resp, MetaResp, ProviderResp, Req, Resp, RetainOutcome};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one destination's group got back: `None` when the step did not
/// ask it; else one answer per item of the group, or why there are
/// none (a refused charge, transport failure, a reply of the wrong kind
/// or arity, or the server's own error).
pub(super) type Reply<X> = Option<BlobResult<Vec<X>>>;

/// Unpacks a reply to a group of `n` items.
pub(super) type Answers<X> = fn(Resp, usize) -> BlobResult<Vec<X>>;

/// One protocol step: items grouped by destination.
pub(super) struct Step<D, T> {
    /// Each destination's items and, once asked, where it stands and
    /// its request.
    groups: BTreeMap<D, (Vec<T>, Due, Option<Req>)>,
}

/// Where one destination stands once the step has asked it.
enum Due {
    /// Not asked.
    Skipped,
    /// Not sent: the fabric refused the request's charge.
    Refused(BlobError),
    /// Sent: the number of answers expected, and how the reply is
    /// charged.
    Sent(usize, OnReply),
}

impl<D: Ord + Copy, T> Step<D, T> {
    pub(super) fn new() -> Self {
        Self {
            groups: BTreeMap::new(),
        }
    }

    /// Add `item` to `dest`'s group.
    pub(super) fn add(&mut self, dest: D, item: T) {
        self.groups
            .entry(dest)
            .or_insert_with(|| (Vec::new(), Due::Skipped, None))
            .0
            .push(item);
    }

    /// Run the step. `ask` is called once per destination, in ascending
    /// order, and returns its request — moving the items into it when
    /// `settle` needs nothing of them back — or `None` to skip the
    /// destination; each request's charge is paid as it is returned.
    /// Then every request goes out in one `call_many`; `answers` unpacks
    /// a reply to a group of `n` items, and `settle` gets every group
    /// back — asked or not, in the same order — with its [`Reply`],
    /// whose charge is paid first. Settles run inline, one after the
    /// other: a step whose replies carry charges uses
    /// [`Step::run_joined`].
    pub(super) fn run<X>(
        self,
        client: &Client,
        ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
        answers: Answers<X>,
        mut settle: impl FnMut(D, Vec<T>, Reply<X>),
    ) {
        let (store, me) = (&*client.store, client.node);
        store.call_many(self.ask(client, ask), |(dest, items, due), resp| {
            settle(dest, items, due.settle(store, me, resp, answers));
        });
    }

    /// [`Step::run`] for a step whose replies carry charges (a fetch's
    /// disk reads and transfers): each destination's reply charge and
    /// settle run as one task of one `par_join`, so the providers'
    /// disks and links overlap as the simulated figures time them.
    pub(super) fn run_joined<X: 'static>(
        self,
        client: &Client,
        ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
        answers: Answers<X>,
        settle: impl Fn(D, Vec<T>, Reply<X>) + Send + Sync + 'static,
    ) where
        D: Send + 'static,
        T: Send + 'static,
    {
        let settle = Arc::new(settle);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
        client
            .store
            .call_many(self.ask(client, ask), |(dest, items, due), resp| {
                let (store, me, settle) =
                    (Arc::clone(&client.store), client.node, Arc::clone(&settle));
                tasks.push(Box::new(move || {
                    settle(dest, items, due.settle(&store, me, resp, answers));
                }));
            });
        client.store.fabric.par_join(tasks);
    }

    /// Ask every destination and pay the before-send charges, in
    /// ascending order; nothing is sent yet.
    fn ask(
        mut self,
        client: &Client,
        mut ask: impl FnMut(D, &mut Vec<T>) -> Option<Req>,
    ) -> impl Iterator<Item = ((D, Vec<T>, Due), Option<Req>)> {
        let (store, me) = (&*client.store, client.node);
        for (&dest, (items, due, sent)) in self.groups.iter_mut() {
            let n = items.len();
            let Some(req) = ask(dest, items) else {
                continue;
            };
            match cost::prepay(store, me, &req) {
                Ok(reply) => (*due, *sent) = (Due::Sent(n, reply), Some(req)),
                Err(e) => *due = Due::Refused(e.into()),
            }
        }
        self.groups
            .into_iter()
            .map(|(dest, (items, due, req))| ((dest, items, due), req))
    }
}

impl Due {
    /// The destination's [`Reply`], given what `call_many` brought back
    /// for it, once a client on `me` has paid the reply's charge.
    fn settle<X>(
        self,
        store: &BlobStore,
        me: NodeId,
        resp: Option<BlobResult<Resp>>,
        answers: Answers<X>,
    ) -> Reply<X> {
        let (n, reply) = match self {
            Due::Skipped => return None,
            Due::Refused(e) => return Some(Err(e)),
            Due::Sent(n, reply) => (n, reply),
        };
        Some(resp?.and_then(|resp| {
            reply.pay(store, me, &resp)?;
            let got = answers(resp, n)?;
            if got.len() == n {
                Ok(got)
            } else {
                Err(unexpected_resp())
            }
        }))
    }
}

/// A provider's chunks, one per requested id.
pub(super) fn fetched(resp: Resp, _: usize) -> BlobResult<Fetched> {
    match resp {
        Resp::Provider(ProviderResp::Fetched(r)) => Ok(r),
        _ => Err(unexpected_resp()),
    }
}

/// A provider's verdict per `Retain` entry.
pub(super) fn retained(resp: Resp, _: usize) -> BlobResult<Vec<RetainOutcome>> {
    match resp {
        Resp::Provider(ProviderResp::Retained(r)) => Ok(r),
        _ => Err(unexpected_resp()),
    }
}

/// A provider's `(bytes_freed, removed, dropped)` per released id.
pub(super) fn released(resp: Resp, _: usize) -> BlobResult<Vec<(u64, bool, bool)>> {
    match resp {
        Resp::Provider(ProviderResp::ReleaseCounted(r)) => Ok(r),
        _ => Err(unexpected_resp()),
    }
}

/// A metadata shard's nodes, one per requested key.
pub(super) fn nodes(resp: Resp, _: usize) -> BlobResult<Vec<crate::api::TreeNode>> {
    match resp {
        Resp::Meta(MetaResp::Nodes(r)) => r,
        _ => Err(unexpected_resp()),
    }
}

/// A metadata shard's acknowledgement, which covers every node of the
/// batch.
pub(super) fn written(resp: Resp, n: usize) -> BlobResult<Vec<()>> {
    match resp {
        Resp::Meta(MetaResp::Written) => Ok(vec![(); n]),
        _ => Err(unexpected_resp()),
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::*;

    /// What `fabric` was charged since the last call — network bytes,
    /// rpcs, transfers, disk bytes read, disk bytes written — and reset.
    fn charged(fabric: &LocalFabric) -> (u64, u64, u64, u64, u64) {
        let s = fabric.stats();
        let disk = (0..s.node_count() as u32).map(|n| s.node(NodeId(n)));
        let (read, written) = disk.fold((0, 0), |(r, w), n| (r + n.disk_read, w + n.disk_written));
        let seen = (
            s.total_network_bytes(),
            s.rpc_count(),
            s.transfer_count(),
            read,
            written,
        );
        s.reset();
        seen
    }

    /// The scatter-gather request path moves waits, never modelled cost:
    /// a cold 64-chunk boot (sixteen 4-chunk reads) and a snapshot delete
    /// charge the fabric exactly what the per-destination calls charged —
    /// the pinned values were recorded on the commit before the batch
    /// steps landed — and the same under every transport. The write
    /// path's legs — a fresh commit (allocate, put, node writes,
    /// publish), a commit that dedups against another node's content
    /// (cluster probe, retain, record) and a board publish — were pinned
    /// before the cost book moved to the request seam. Each tuple is
    /// network bytes, rpcs, transfers, disk bytes read, disk bytes
    /// written.
    #[test]
    fn batched_steps_charge_the_fabric_what_per_destination_calls_did() {
        use crate::api::TransportMode::*;
        for transport in [Direct, Codec, Socket] {
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: false,
                cluster_dedup: false,
                prefetch: false,
                transport,
                ..Default::default()
            };
            let (fabric, store) = deploy(4, cfg);
            let writer = Client::new(Arc::clone(&store), NodeId(0));
            let (blob, v1) = writer.upload(Payload::synth(7, 0, 64 * 128)).unwrap();
            let v2 = writer
                .write(blob, v1, 5 * 128, Payload::synth(8, 0, 4 * 128))
                .unwrap();
            charged(&fabric);
            // Another node: empty descriptor, node and chunk caches.
            let reader = Client::new(Arc::clone(&store), NodeId(1));
            for read in 0..16u64 {
                let range = read * 512..(read + 1) * 512;
                reader.read(blob, v2, range).unwrap();
            }
            let boot = charged(&fabric);
            assert_eq!(boot, (20992, 75, 46, 0, 0), "cold boot under {transport:?}");
            // A third node: the collector's descent starts cold too.
            let collector = Client::new(Arc::clone(&store), NodeId(2));
            let report = collector.delete_snapshot(blob, v2).unwrap();
            assert_eq!(report.freed_chunks, 4);
            let delete = charged(&fabric);
            assert_eq!(delete, (3928, 18, 3, 0, 0), "delete under {transport:?}");
            // A fresh commit into a new blob: the version lookup, one
            // allocation, a put per provider, the node writes and the
            // publish.
            let fresh = writer.create_blob(8 * 128).unwrap();
            charged(&fabric);
            let update = |seed, idx: &[u64]| -> Vec<(u64, Payload)> {
                idx.iter()
                    .map(|&i| (i, Payload::synth(seed + i, 0, 128)))
                    .collect()
            };
            writer
                .write_chunks(fresh, Version(0), update(20, &[0, 3, 6]))
                .unwrap();
            let commit = charged(&fabric);
            assert_eq!(
                commit,
                (1608, 7, 2, 0, 384),
                "fresh commit under {transport:?}"
            );

            // Providers whose page caches were dropped read from disk.
            store.drop_provider_caches();
            let cold = Client::new(Arc::clone(&store), NodeId(3));
            cold.read(blob, v1, 0..8 * 128).unwrap();
            let disk = charged(&fabric);
            assert_eq!(
                disk,
                (2992, 11, 3, 1024, 0),
                "cold-disk read under {transport:?}"
            );

            // Dedup, the cluster index and the board on.
            let cfg = BlobConfig {
                chunk_size: 128,
                dedup: true,
                cluster_dedup: true,
                prefetch: true,
                prefetch_min_publishers: 1,
                transport,
                ..Default::default()
            };
            let (fabric, store) = deploy(4, cfg);
            let (a, b) = (
                Client::new(Arc::clone(&store), NodeId(0)),
                Client::new(Arc::clone(&store), NodeId(1)),
            );
            let (blob_a, blob_b) = (
                a.create_blob(8 * 128).unwrap(),
                b.create_blob(8 * 128).unwrap(),
            );
            charged(&fabric);
            // Fresh content: a cluster probe that misses, the push, and
            // the record that files two new keys and publishes them.
            let va = a
                .write_chunks(blob_a, Version(0), update(40, &[0, 1]))
                .unwrap();
            let filed = charged(&fabric);
            assert_eq!(
                filed,
                (1968, 8, 4, 0, 256),
                "filing commit under {transport:?}"
            );
            // The same bytes from another node: a cluster hit the
            // provider retains, nothing pushed, nothing new filed.
            b.write_chunks(blob_b, Version(0), update(40, &[0, 1]))
                .unwrap();
            let reused = charged(&fabric);
            assert_eq!(
                reused,
                (1088, 7, 0, 0, 0),
                "dedup commit under {transport:?}"
            );
            // A board publish: a third node opens the version and hints
            // eight first touches that moved their chunks.
            let c = Client::new(Arc::clone(&store), NodeId(2));
            c.snapshot_size(blob_a, va).unwrap();
            c.hint_touches(blob_a, va, (0..8).map(|idx| (idx, true)), true);
            let published = charged(&fabric);
            assert_eq!(
                published,
                (704, 2, 3, 0, 0),
                "board publish under {transport:?}"
            );
        }
    }
}
