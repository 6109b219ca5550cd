//! The tracker: random membership lists over sharded state.
//!
//! Per §IV-A: "Each leecher requests a list of 50 randomly selected
//! neighbors from the tracker upon arrival, and whenever its list of
//! neighbors falls below 30. Leechers maintain at most 55 neighbors."
//! The large-view exploit (§IV-C) abuses exactly this interface by
//! re-querying every rechoke period.
//!
//! Membership is held in shards keyed by `id % shards`: join and leave
//! touch exactly one shard (swap-remove, O(1)), and a sample costs
//! O(k + shards) regardless of total swarm size, so rendezvous stays
//! O(active peers) under heavy churn. A 1-shard tracker is the flat
//! structure the small fixed-membership harnesses always used — same
//! member order, same draw sequence — which is what keeps every
//! pre-sharding golden fingerprint byte-identical. Shard counts above
//! one only change *which* member a given RNG draw lands on, never the
//! number of draws, so large-swarm runs stay equally deterministic.

use std::collections::HashMap;
use tchain_sim::{NodeId, SimRng};

/// One membership shard: a dense vector with swap-remove deletion plus
/// the position index that makes it O(1).
#[derive(Debug, Default)]
struct Shard {
    members: Vec<NodeId>,
    pos: HashMap<NodeId, usize>,
}

impl Shard {
    fn register(&mut self, id: NodeId) -> bool {
        if self.pos.contains_key(&id) {
            return false;
        }
        self.pos.insert(id, self.members.len());
        self.members.push(id);
        true
    }

    fn unregister(&mut self, id: NodeId) -> bool {
        let Some(i) = self.pos.remove(&id) else { return false };
        let last = self.members.len() - 1;
        self.members.swap(i, last);
        self.members.pop();
        if i < self.members.len() {
            self.pos.insert(self.members[i], i);
        }
        true
    }
}

/// Swarm membership registry: O(1) join/leave, O(k) random samples.
#[derive(Debug)]
pub struct Tracker {
    shards: Vec<Shard>,
    total: usize,
    queries: u64,
}

impl Default for Tracker {
    fn default() -> Self {
        Tracker::new()
    }
}

impl Tracker {
    /// Creates an empty single-shard tracker (the historical flat
    /// layout; every existing small-swarm fingerprint assumes it).
    pub fn new() -> Self {
        Tracker::with_shards(1)
    }

    /// Creates an empty tracker with `shards` membership shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards >= 1, "a tracker needs at least one shard");
        Tracker {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            total: 0,
            queries: 0,
        }
    }

    /// Shard count appropriate for an expected swarm size: 1 for small
    /// swarms (≤ 64 peers — the flat layout all existing goldens pin),
    /// then one shard per ~64 expected peers, capped at 16.
    pub fn shards_for(expected_peers: u32) -> usize {
        if expected_peers <= 64 {
            1
        } else {
            (expected_peers as usize).div_ceil(64).next_power_of_two().min(16)
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: NodeId) -> usize {
        id.0 as usize % self.shards.len()
    }

    /// Registers a peer. Re-registering is a no-op.
    pub fn register(&mut self, id: NodeId) {
        let s = self.shard_of(id);
        if self.shards[s].register(id) {
            self.total += 1;
        }
    }

    /// Unregisters a departed peer. Unknown ids are a no-op.
    pub fn unregister(&mut self, id: NodeId) {
        let s = self.shard_of(id);
        if self.shards[s].unregister(id) {
            self.total -= 1;
        }
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when nobody is registered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: NodeId) -> bool {
        self.shards[self.shard_of(id)].pos.contains_key(&id)
    }

    /// Total queries served (per-run bookkeeping; the large-view exploit
    /// shows up as an outsized query count).
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// The member at global index `g`, counting through shards in order.
    #[inline]
    fn member_at(&self, mut g: usize) -> NodeId {
        for shard in &self.shards {
            if g < shard.members.len() {
                return shard.members[g];
            }
            g -= shard.members.len();
        }
        unreachable!("index {g} past membership");
    }

    /// Returns up to `k` distinct random members, excluding `requester`.
    pub fn random_members(&mut self, requester: NodeId, k: usize, rng: &mut SimRng) -> Vec<NodeId> {
        self.queries += 1;
        let pool = self.total;
        if pool == 0 {
            return Vec::new();
        }
        // If we'd return most of the swarm anyway, shuffle outright;
        // otherwise rejection-sample indices (O(k) expected).
        let effective = pool - usize::from(self.contains(requester));
        let k = k.min(effective);
        if k == 0 {
            return Vec::new();
        }
        if k * 3 >= pool {
            let mut all: Vec<NodeId> = self
                .shards
                .iter()
                .flat_map(|s| s.members.iter().copied())
                .filter(|&m| m != requester)
                .collect();
            rng.shuffle(&mut all);
            all.truncate(k);
            all
        } else {
            let mut out = Vec::with_capacity(k);
            let mut seen = std::collections::HashSet::with_capacity(k * 2);
            while out.len() < k {
                let m = self.member_at(rng.below(pool));
                if m != requester && seen.insert(m) {
                    out.push(m);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn register_unregister() {
        let mut t = Tracker::new();
        for i in 0..10 {
            t.register(n(i));
        }
        t.register(n(5)); // duplicate
        assert_eq!(t.len(), 10);
        t.unregister(n(3));
        t.unregister(n(3));
        assert_eq!(t.len(), 9);
        assert!(!t.contains(n(3)));
        assert!(t.contains(n(9)));
        t.unregister(n(99)); // unknown: no-op
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn samples_exclude_requester_and_are_distinct() {
        let mut t = Tracker::new();
        let mut rng = SimRng::new(0);
        for i in 0..100 {
            t.register(n(i));
        }
        for _ in 0..50 {
            let s = t.random_members(n(7), 50, &mut rng);
            assert_eq!(s.len(), 50);
            assert!(!s.contains(&n(7)));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 50);
        }
    }

    #[test]
    fn small_swarm_returns_everyone_else() {
        let mut t = Tracker::new();
        let mut rng = SimRng::new(0);
        t.register(n(0));
        t.register(n(1));
        t.register(n(2));
        let s = t.random_members(n(0), 50, &mut rng);
        assert_eq!(s.len(), 2);
        let s = t.random_members(n(99), 50, &mut rng);
        assert_eq!(s.len(), 3, "outsider sees everyone");
    }

    #[test]
    fn empty_tracker_returns_nothing() {
        let mut t = Tracker::new();
        let mut rng = SimRng::new(0);
        assert!(t.random_members(n(0), 50, &mut rng).is_empty());
    }

    #[test]
    fn samples_cover_the_swarm() {
        let mut t = Tracker::new();
        let mut rng = SimRng::new(0);
        for i in 0..200 {
            t.register(n(i));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            for m in t.random_members(n(0), 20, &mut rng) {
                seen.insert(m);
            }
        }
        assert!(seen.len() > 150, "sampling should reach most members, got {}", seen.len());
    }

    #[test]
    fn shard_count_scales_with_expected_swarm_size() {
        assert_eq!(Tracker::shards_for(8), 1);
        assert_eq!(Tracker::shards_for(64), 1);
        assert_eq!(Tracker::shards_for(65), 2);
        assert_eq!(Tracker::shards_for(256), 4);
        assert_eq!(Tracker::shards_for(100_000), 16, "cap holds");
    }

    #[test]
    fn sharded_tracker_keeps_every_membership_invariant() {
        let mut t = Tracker::with_shards(4);
        assert_eq!(t.shards(), 4);
        let mut rng = SimRng::new(7);
        for i in 0..256 {
            t.register(n(i));
        }
        assert_eq!(t.len(), 256);
        // Heavy churn: every third member leaves, some rejoin.
        for i in (0..256).step_by(3) {
            t.unregister(n(i));
        }
        for i in (0..256).step_by(9) {
            t.register(n(i));
        }
        let expected = 256 - 256usize.div_ceil(3) + 256usize.div_ceil(9);
        assert_eq!(t.len(), expected);
        for _ in 0..50 {
            let s = t.random_members(n(4), 50, &mut rng);
            assert_eq!(s.len(), 50);
            assert!(!s.contains(&n(4)));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 50, "distinct across shards");
            assert!(s.iter().all(|&m| t.contains(m)), "only live members sampled");
        }
    }

    #[test]
    fn sharded_sampling_is_deterministic() {
        let build = || {
            let mut t = Tracker::with_shards(4);
            for i in 0..200 {
                t.register(n(i));
            }
            t
        };
        let (mut a, mut b) = (build(), build());
        let mut ra = SimRng::new(42);
        let mut rb = SimRng::new(42);
        for _ in 0..20 {
            assert_eq!(a.random_members(n(0), 30, &mut ra), b.random_members(n(0), 30, &mut rb));
        }
    }

    #[test]
    fn one_shard_concatenation_is_the_flat_member_order() {
        // The S=1 layout must be exactly the historical flat vector:
        // register appends, unregister swap-removes. Golden fingerprints
        // depend on this draw-for-draw.
        let mut t = Tracker::new();
        for i in 0..6 {
            t.register(n(i));
        }
        t.unregister(n(1)); // swap-remove: 5 takes slot 1
        let mut rng = SimRng::new(0);
        // Sample everyone (shuffle path) and check the pool is the
        // expected post-swap set.
        let mut all = t.random_members(n(99), 10, &mut rng);
        all.sort_unstable();
        assert_eq!(all, vec![n(0), n(2), n(3), n(4), n(5)]);
    }
}
