//! The provider manager: allocates chunk ids and decides which providers
//! store each new chunk (§3.1.3: chunks "evenly distributed among the
//! local disks participating in the shared pool").
//!
//! The strategy is round-robin, which is what gives multideployment its
//! even distribution of the I/O workload; a per-provider load counter
//! records the result. Replicas of one chunk are placed on consecutive
//! distinct providers.

use crate::api::{BlobError, BlobResult, ChunkDesc, ChunkId};
use bff_net::transport::MAX_FRAME;
use bff_net::NodeId;

/// Allocation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Strict rotation over the provider list.
    RoundRobin,
}

/// Provider-manager state (one logical instance per service).
#[derive(Debug)]
pub struct PManager {
    providers: Vec<NodeId>,
    strategy: Placement,
    next_chunk: u64,
    cursor: usize,
    load_bytes: Vec<u64>,
}

impl PManager {
    /// Manage the given provider set.
    pub fn new(providers: Vec<NodeId>, strategy: Placement) -> Self {
        let n = providers.len();
        Self {
            providers,
            strategy,
            next_chunk: 1,
            cursor: 0,
            load_bytes: vec![0; n],
        }
    }

    /// Next id [`PManager::allocate`] would hand out.
    pub fn next_chunk(&self) -> u64 {
        self.next_chunk
    }

    /// Raise the chunk-id allocator to at least `floor` (recovery:
    /// replay skips to the journaled high-water mark so ids acked
    /// before a crash are never reissued for different data). The
    /// placement cursor and load counters restart from zero — they are
    /// placement preferences, not correctness state.
    pub fn ensure_chunk_floor(&mut self, floor: u64) {
        self.next_chunk = self.next_chunk.max(floor);
    }

    /// Allocate `n` chunks of `chunk_bytes` each with `replication`
    /// replicas. Returns one descriptor per chunk, in order.
    pub fn allocate(
        &mut self,
        n: usize,
        chunk_bytes: u64,
        replication: usize,
    ) -> BlobResult<Vec<ChunkDesc>> {
        self.allocate_avoiding(n, chunk_bytes, replication, &[])
    }

    /// Allocate like [`PManager::allocate`], but skip providers flagged in
    /// `down` (indexed like the provider list; short or empty slices read
    /// as all-up). This is the caller's fail-stop view of the fabric:
    /// placing fresh chunks on a known-dead node would only defer the
    /// failure to push time.
    ///
    /// Degradation rules when the up set is small: with fewer up
    /// providers than `replication`, replicas shrink to the up set; with
    /// *no* up providers, allocation falls back to the full list and the
    /// push-side per-replica failover reports the real error chunk by
    /// chunk.
    pub fn allocate_avoiding(
        &mut self,
        n: usize,
        chunk_bytes: u64,
        replication: usize,
        down: &[bool],
    ) -> BlobResult<Vec<ChunkDesc>> {
        if self.providers.is_empty() {
            return Err(BlobError::BadInput("no providers registered"));
        }
        if replication == 0 || replication > self.providers.len() {
            return Err(BlobError::BadInput("replication must be in 1..=providers"));
        }
        // Every descriptor encodes in at least one byte, so a larger batch
        // could never be answered in one frame: refuse it before reserving
        // memory for it.
        if n > MAX_FRAME as usize {
            return Err(BlobError::BadInput(
                "allocation larger than one reply frame",
            ));
        }
        let is_down = |i: usize| down.get(i).copied().unwrap_or(false);
        let up_count = (0..self.providers.len()).filter(|&i| !is_down(i)).count();
        let (skip_down, per_chunk) = if up_count == 0 {
            (false, replication)
        } else {
            (true, replication.min(up_count))
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let id = ChunkId(self.next_chunk);
            self.next_chunk += 1;
            let first = match self.strategy {
                Placement::RoundRobin => loop {
                    let c = self.cursor;
                    self.cursor = (self.cursor + 1) % self.providers.len();
                    if !(skip_down && is_down(c)) {
                        break c;
                    }
                },
            };
            // Replicas on consecutive distinct (up, where possible)
            // providers starting at `first`.
            let mut replicas = Vec::with_capacity(per_chunk);
            for r in 0..self.providers.len() {
                let idx = (first + r) % self.providers.len();
                if skip_down && is_down(idx) {
                    continue;
                }
                self.load_bytes[idx] += chunk_bytes;
                replicas.push(self.providers[idx]);
                if replicas.len() == per_chunk {
                    break;
                }
            }
            out.push(ChunkDesc {
                id,
                replicas: replicas.into(),
            });
        }
        Ok(out)
    }

    /// Bytes allocated per provider (diagnostic / balance tests).
    pub fn load(&self) -> &[u64] {
        &self.load_bytes
    }

    /// The provider list.
    pub fn providers(&self) -> &[NodeId] {
        &self.providers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn round_robin_rotates() {
        let mut pm = PManager::new(nodes(3), Placement::RoundRobin);
        let descs = pm.allocate(5, 100, 1).unwrap();
        let order: Vec<u32> = descs.iter().map(|d| d.replicas[0].0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1]);
        // Chunk ids are unique and increasing.
        let ids: Vec<u64> = descs.iter().map(|d| d.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn replicas_are_distinct_consecutive_providers() {
        let mut pm = PManager::new(nodes(4), Placement::RoundRobin);
        let d = pm.allocate(1, 100, 3).unwrap().remove(0);
        assert_eq!(&d.replicas[..], [NodeId(0), NodeId(1), NodeId(2)]);
        let mut uniq = d.replicas.to_vec();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn round_robin_balances_load_evenly() {
        let mut pm = PManager::new(nodes(4), Placement::RoundRobin);
        pm.allocate(8192, 256 << 10, 1).unwrap();
        let loads = pm.load();
        assert!(
            loads.iter().all(|&l| l == loads[0]),
            "perfectly even: {loads:?}"
        );
    }

    #[test]
    fn replication_bounds_checked() {
        let mut pm = PManager::new(nodes(2), Placement::RoundRobin);
        assert!(pm.allocate(1, 10, 0).is_err());
        assert!(pm.allocate(1, 10, 3).is_err());
    }

    #[test]
    fn no_providers_is_an_error() {
        let mut pm = PManager::new(vec![], Placement::RoundRobin);
        assert!(pm.allocate(1, 10, 1).is_err());
    }

    #[test]
    fn down_providers_skipped_at_allocation() {
        let mut pm = PManager::new(nodes(4), Placement::RoundRobin);
        let down = [false, false, true, false];
        let descs = pm.allocate_avoiding(8, 100, 1, &down).unwrap();
        assert!(
            descs.iter().all(|d| d.replicas[0] != NodeId(2)),
            "no chunk lands on the down provider"
        );
        assert_eq!(pm.load()[2], 0);
        // Rotation still covers all up providers.
        let firsts: Vec<u32> = descs.iter().map(|d| d.replicas[0].0).collect();
        assert_eq!(firsts, vec![0, 1, 3, 0, 1, 3, 0, 1]);
    }

    #[test]
    fn replicas_avoid_down_providers() {
        let mut pm = PManager::new(nodes(4), Placement::RoundRobin);
        let down = [false, true, false, false];
        let d = pm.allocate_avoiding(1, 100, 3, &down).unwrap().remove(0);
        assert_eq!(&d.replicas[..], [NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn replication_degrades_to_up_set() {
        let mut pm = PManager::new(nodes(3), Placement::RoundRobin);
        let down = [false, true, true];
        let d = pm.allocate_avoiding(1, 100, 3, &down).unwrap().remove(0);
        assert_eq!(&d.replicas[..], [NodeId(0)], "only the up provider");
        // With nothing up, fall back to the full set (push-side failover
        // owns the error then).
        let mut pm = PManager::new(nodes(2), Placement::RoundRobin);
        let d = pm
            .allocate_avoiding(1, 100, 2, &[true, true])
            .unwrap()
            .remove(0);
        assert_eq!(d.replicas.len(), 2);
    }

    #[test]
    fn empty_down_slice_matches_plain_allocate() {
        let mut a = PManager::new(nodes(3), Placement::RoundRobin);
        let mut b = PManager::new(nodes(3), Placement::RoundRobin);
        let da = a.allocate(5, 64, 2).unwrap();
        let db = b.allocate_avoiding(5, 64, 2, &[]).unwrap();
        assert_eq!(da, db);
        assert_eq!(a.load(), b.load());
    }
}
