//! The one shape of a protocol step that addresses several destinations.
//!
//! A [`Step`] gathers a batch of items by destination (ascending, so
//! requests, charges and settles run in a deterministic order), asks
//! each destination once whether it takes part — where the step pays
//! its per-destination fabric charge or skips a destination it cannot
//! reach — sends every request in one [`BlobStore::call_many`] (behind
//! a transport hop, one frame for the step: its destinations are all of
//! one server role), and hands each group back with its reply,
//! validated: one answer per item, or the destination counts as failed.

use crate::api::BlobResult;
use crate::service::{BlobStore, Fetched};
use bff_wire::msg::{unexpected_resp, MetaResp, ProviderResp, Req, Resp, RetainOutcome};
use std::collections::BTreeMap;

/// What one destination's group got back: `None` when the step did not
/// ask it; else one answer per item of the group, or why there are
/// none (transport failure, a reply of the wrong kind or arity, or the
/// server's own error).
pub(super) type Reply<X> = Option<BlobResult<Vec<X>>>;

/// One protocol step: items grouped by destination.
pub(super) struct Step<D, T> {
    /// Each destination's items and, once asked, the number of answers
    /// its request expects and the request.
    groups: BTreeMap<D, (Vec<T>, usize, Option<Req>)>,
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
            .or_insert_with(|| (Vec::new(), 0, None))
            .0
            .push(item);
    }

    /// Run the step. `ask` is called once per destination, in ascending
    /// order and before anything is sent: it pays the destination's
    /// fabric charge and returns its request — moving the items into it
    /// when `settle` needs nothing of them back — or `None` to skip the
    /// destination, or an error that abandons the whole step unsent (a
    /// step that never refuses says so with `E = Infallible`).
    /// Then every request goes out in one `call_many`; `answers` unpacks
    /// a reply to a group of `n` items, and `settle` gets every group
    /// back — asked or not, in the same order — with its [`Reply`].
    pub(super) fn run<X, E>(
        mut self,
        store: &BlobStore,
        mut ask: impl FnMut(D, &mut Vec<T>) -> Result<Option<Req>, E>,
        answers: impl Fn(Resp, usize) -> BlobResult<Vec<X>>,
        mut settle: impl FnMut(D, Vec<T>, Reply<X>),
    ) -> Result<(), E> {
        for (&dest, (items, n, req)) in self.groups.iter_mut() {
            *n = items.len();
            *req = ask(dest, items)?;
        }
        let steps = self
            .groups
            .into_iter()
            .map(|(dest, (items, n, req))| ((dest, items, n), req));
        store.call_many(steps, |(dest, items, n), resp| {
            let reply = resp.map(|resp| {
                let got = resp.and_then(|resp| answers(resp, n))?;
                if got.len() == n {
                    Ok(got)
                } else {
                    Err(unexpected_resp())
                }
            });
            settle(dest, items, reply);
        });
        Ok(())
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

    /// The scatter-gather request path moves waits, never modelled cost:
    /// a cold 64-chunk boot (sixteen 4-chunk reads) and a snapshot delete
    /// charge the fabric exactly what the per-destination calls charged —
    /// the pinned values were recorded on the commit before the batch
    /// steps landed — and the same under every transport.
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
            let counters = || {
                let s = fabric.stats();
                let seen = (s.total_network_bytes(), s.rpc_count(), s.transfer_count());
                s.reset();
                seen
            };
            counters();
            // Another node: empty descriptor, node and chunk caches.
            let reader = Client::new(Arc::clone(&store), NodeId(1));
            for read in 0..16u64 {
                let range = read * 512..(read + 1) * 512;
                reader.read(blob, v2, range).unwrap();
            }
            assert_eq!(counters(), (20992, 75, 46), "cold boot under {transport:?}");
            // A third node: the collector's descent starts cold too.
            let collector = Client::new(Arc::clone(&store), NodeId(2));
            let report = collector.delete_snapshot(blob, v2).unwrap();
            assert_eq!(report.freed_chunks, 4);
            assert_eq!(counters(), (3928, 18, 3), "delete under {transport:?}");
        }
    }
}
