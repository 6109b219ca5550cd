//! Deterministic wake-up scheduling for the swarm harness.
//!
//! Calling `on_tick` on every peer every tick is O(N) per tick even when
//! all but a handful of peers are idle, which is exactly the regime a
//! 256-peer churning swarm spends most of its life in. [`TimerWheel`]
//! is the index that avoids the scan: each peer is *armed* with at most
//! one wake time, and a tick only visits the peers whose wake time has
//! come due (plus any peers the harness force-readies because a frame
//! arrived).
//!
//! Determinism is the whole point, so ordering is total and explicit:
//! wakes pop by `(time, peer-id)`, the time leg in `f64::total_cmp`
//! order through [`rank`]. The index is exact — re-arming or cancelling
//! a peer moves or removes its one entry — so there is no stale entry to
//! skip and no insertion-order dependence.

use std::collections::{BTreeMap, BTreeSet};
use tchain_sim::queue::{rank, time_of};

/// Timer index over peers, popped in `(time, peer)` order.
///
/// Invariant: `order` holds exactly one `(rank(at), peer)` for each
/// `(peer, at)` in `armed`.
#[derive(Debug, Default)]
pub struct TimerWheel {
    armed: BTreeMap<u32, f64>,
    order: BTreeSet<(u64, u32)>,
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Arms `peer` to wake at `at`, replacing any previous wake time
    /// (later *or* earlier — this is the authoritative reschedule used
    /// after a peer's `on_tick`).
    pub fn schedule(&mut self, peer: u32, at: f64) {
        if let Some(old) = self.armed.insert(peer, at) {
            self.order.remove(&(rank(old), peer));
        }
        self.order.insert((rank(at), peer));
    }

    /// Arms `peer` to wake no later than `at`: keeps an existing
    /// earlier wake time, moves a later one up. Used by external pokes
    /// (peer-gone notifications, rejoin bootstraps, frame rejects) that
    /// must not *delay* an already-imminent wake.
    pub fn hasten(&mut self, peer: u32, at: f64) {
        if !self.armed.get(&peer).is_some_and(|&cur| cur <= at) {
            self.schedule(peer, at);
        }
    }

    /// Disarms `peer` (no-op if not armed).
    pub fn cancel(&mut self, peer: u32) {
        if let Some(at) = self.armed.remove(&peer) {
            self.order.remove(&(rank(at), peer));
        }
    }

    /// The currently armed wake time for `peer`, if any.
    pub fn armed_at(&self, peer: u32) -> Option<f64> {
        self.armed.get(&peer).copied()
    }

    /// Number of armed peers.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// `true` when no peer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Disarms every peer whose wake time is `<= now` and adds them to
    /// `due`. Using a `BTreeSet` makes the union with the harness's
    /// ready set iterate in ascending peer-id order — the order an
    /// every-peer scan visits peers in.
    pub fn pop_due(&mut self, now: f64, due: &mut BTreeSet<u32>) {
        while let Some(&(key, peer)) = self.order.first() {
            // The float comparison, not the rank: `0.0 <= -0.0` holds.
            if time_of(key) > now {
                break;
            }
            self.pop_next();
            due.insert(peer);
        }
    }

    /// Pops the single earliest armed wake as `(time, peer)`,
    /// regardless of the current time. Exposed for the property tests,
    /// which check the pop sequence is a total deterministic order.
    pub fn pop_next(&mut self) -> Option<(f64, u32)> {
        let (key, peer) = self.order.pop_first()?;
        self.armed.remove(&peer);
        Some((time_of(key), peer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| w.pop_next()).collect()
    }

    #[test]
    fn pops_in_time_then_id_order() {
        let mut w = TimerWheel::new();
        w.schedule(3, 2.0);
        w.schedule(1, 1.0);
        w.schedule(2, 1.0);
        w.schedule(9, 0.5);
        assert_eq!(drain(&mut w), vec![(0.5, 9), (1.0, 1), (1.0, 2), (2.0, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_replaces_in_both_directions() {
        let mut w = TimerWheel::new();
        w.schedule(1, 5.0);
        w.schedule(1, 9.0); // later: authoritative replace
        assert_eq!(w.armed_at(1), Some(9.0));
        w.schedule(2, 7.0);
        w.schedule(2, 3.0); // earlier: also replaces
        assert_eq!(drain(&mut w), vec![(3.0, 2), (9.0, 1)]);
    }

    #[test]
    fn hasten_only_moves_wakes_earlier() {
        let mut w = TimerWheel::new();
        w.schedule(1, 5.0);
        w.hasten(1, 8.0); // later: ignored
        assert_eq!(w.armed_at(1), Some(5.0));
        w.hasten(1, 2.0); // earlier: wins
        assert_eq!(w.armed_at(1), Some(2.0));
        w.hasten(7, 4.0); // unarmed: arms
        assert_eq!(drain(&mut w), vec![(2.0, 1), (4.0, 7)]);
    }

    #[test]
    fn cancel_disarms() {
        let mut w = TimerWheel::new();
        w.schedule(1, 1.0);
        w.schedule(2, 2.0);
        w.cancel(1);
        w.cancel(5); // never armed: no-op
        assert_eq!(w.armed_at(1), None);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w), vec![(2.0, 2)]);
    }

    #[test]
    fn pop_due_collects_everything_at_or_before_now() {
        let mut w = TimerWheel::new();
        for (p, t) in [(5, 0.0), (1, 1.0), (8, 1.0), (2, 3.0)] {
            w.schedule(p, t);
        }
        let mut due = BTreeSet::new();
        w.pop_due(1.0, &mut due);
        assert_eq!(due.into_iter().collect::<Vec<_>>(), vec![1, 5, 8]);
        assert_eq!(w.len(), 1);
        let mut rest = BTreeSet::new();
        w.pop_due(100.0, &mut rest);
        assert_eq!(rest.into_iter().collect::<Vec<_>>(), vec![2]);
        assert!(w.is_empty());
    }

    #[test]
    fn a_moved_wake_never_fires_at_its_old_time() {
        let mut w = TimerWheel::new();
        w.schedule(1, 1.0);
        w.schedule(1, 4.0);
        let mut due = BTreeSet::new();
        w.pop_due(2.0, &mut due); // the replaced 1.0 must not fire
        assert!(due.is_empty());
        assert_eq!(w.armed_at(1), Some(4.0));
        w.pop_due(4.0, &mut due);
        assert_eq!(due.into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn identical_same_time_reschedules_fire_once() {
        let mut w = TimerWheel::new();
        w.schedule(1, 3.0);
        w.schedule(1, 3.0);
        w.schedule(1, 3.0);
        let mut due = BTreeSet::new();
        w.pop_due(3.0, &mut due);
        assert_eq!(due.into_iter().collect::<Vec<_>>(), vec![1]);
        assert!(w.is_empty());
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn both_zeros_are_due_at_either_zero() {
        // `-0.0` ranks below `0.0`, yet each is `<=` the other.
        for now in [0.0, -0.0] {
            let mut w = TimerWheel::new();
            w.schedule(1, 0.0);
            w.schedule(2, -0.0);
            let mut due = BTreeSet::new();
            w.pop_due(now, &mut due);
            assert_eq!(due.into_iter().collect::<Vec<_>>(), vec![1, 2], "now = {now:?}");
        }
    }
}
