//! Deterministic wake-up scheduling for the swarm harness.
//!
//! The legacy harness loop called `on_tick` on every peer every tick —
//! O(N) per tick even when all but a handful of peers are idle, which
//! is exactly the regime a 256-peer churning swarm spends most of its
//! life in. [`TimerWheel`] replaces that scan with a binary-heap timer
//! index: each peer is *armed* with at most one authoritative wake
//! time, and a tick only visits the peers whose wake time has come due
//! (plus any peers the harness force-readies because a frame arrived).
//!
//! Determinism is the whole point, so ordering is total and explicit:
//! heap entries compare by `(time, peer-id, seq)` with `f64::total_cmp`
//! for the time leg — no partial-order surprises, no insertion-order
//! dependence. Re-arming a peer pushes a fresh heap entry and bumps the
//! authoritative map; stale entries are dropped lazily when popped
//! (standard lazy-deletion heap), so `schedule`/`hasten`/`cancel` are
//! all O(log N) and never rebuild the heap.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Which per-tick peer scheduler the harness runs.
///
/// [`SchedMode::Indexed`] is the production scheduler: a
/// [`TimerWheel`]-armed ready set visits only the peers with due timers
/// or freshly delivered frames, so a mostly-idle 256-peer swarm costs
/// O(active) per tick instead of O(N). [`SchedMode::LegacyLinear`] is
/// the original every-peer scan, kept as the reference the quiescence
/// invariant (documented on `PeerRuntime::next_wake`) is tested
/// against: the parity tests pin the two modes to the identical
/// delivered-frame fingerprint.
///
/// Schedule exploration is not a mode: `SwarmConfig::explore` hands the
/// indexed scheduler's one decision point — which due peer runs next —
/// to a `tchain-sim` perturber (see `crate::explore`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Timer-wheel + ready-set scheduler (default).
    #[default]
    Indexed,
    /// Original O(N)-per-tick scan over every peer. Parity oracle for
    /// equivalence tests and the `net_scale` experiment's baseline leg.
    LegacyLinear,
}

/// One pending wake-up: `peer` wants to run at time `at`.
///
/// `seq` is a global insertion counter. It never decides *which* peers
/// run (the authoritative map does) — it only makes the heap's internal
/// order a total one, so two wheels built by different call sequences
/// still pop identically once stale entries are filtered.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Wake {
    at: f64,
    peer: u32,
    seq: u64,
}

impl Eq for Wake {}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.peer.cmp(&other.peer))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Binary-heap timer index over peers (min-heap by `(time, peer, seq)`).
///
/// Invariant: `armed` maps each scheduled peer to its single
/// authoritative wake time; the heap may additionally hold stale
/// entries from earlier `schedule`/`hasten` calls, which are discarded
/// on pop by checking them against `armed`.
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<std::cmp::Reverse<Wake>>,
    armed: BTreeMap<u32, f64>,
    seq: u64,
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
        self.armed.insert(peer, at);
        self.push(peer, at);
    }

    /// Arms `peer` to wake no later than `at`: keeps an existing
    /// earlier wake time, moves a later one up. Used by external pokes
    /// (peer-gone notifications, rejoin bootstraps, frame rejects) that
    /// must not *delay* an already-imminent wake.
    pub fn hasten(&mut self, peer: u32, at: f64) {
        match self.armed.get(&peer) {
            Some(&cur) if cur <= at => {}
            _ => {
                self.armed.insert(peer, at);
                self.push(peer, at);
            }
        }
    }

    /// Disarms `peer` (no-op if not armed). The stale heap entry is
    /// dropped lazily.
    pub fn cancel(&mut self, peer: u32) {
        self.armed.remove(&peer);
    }

    /// Whether `peer` currently has a wake time armed.
    pub fn is_armed(&self, peer: u32) -> bool {
        self.armed.contains_key(&peer)
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

    /// Earliest armed wake time, if any.
    pub fn next_at(&mut self) -> Option<f64> {
        self.skim();
        self.heap.peek().map(|std::cmp::Reverse(w)| w.at)
    }

    /// Disarms every peer whose wake time is `<= now` and adds them to
    /// `due`. Using a `BTreeSet` makes the union with the harness's
    /// ready set iterate in ascending peer-id order — the same order
    /// the legacy full scan visited peers in.
    pub fn pop_due(&mut self, now: f64, due: &mut BTreeSet<u32>) {
        while let Some(std::cmp::Reverse(w)) = self.heap.peek().copied() {
            if w.at > now {
                break;
            }
            self.heap.pop();
            if self.live(&w) {
                self.armed.remove(&w.peer);
                due.insert(w.peer);
            }
        }
    }

    /// Pops the single earliest armed wake as `(time, peer)`,
    /// regardless of the current time. Exposed for the property tests,
    /// which check the pop sequence is a total deterministic order.
    pub fn pop_next(&mut self) -> Option<(f64, u32)> {
        while let Some(std::cmp::Reverse(w)) = self.heap.pop() {
            if self.live(&w) {
                self.armed.remove(&w.peer);
                return Some((w.at, w.peer));
            }
        }
        None
    }

    fn push(&mut self, peer: u32, at: f64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(std::cmp::Reverse(Wake { at, peer, seq }));
    }

    /// Is this heap entry the authoritative one for its peer?
    fn live(&self, w: &Wake) -> bool {
        self.armed.get(&w.peer).is_some_and(|&at| at.to_bits() == w.at.to_bits())
    }

    /// Drops stale entries off the top so `peek` sees a live one.
    fn skim(&mut self) {
        while let Some(std::cmp::Reverse(w)) = self.heap.peek().copied() {
            if self.live(&w) {
                break;
            }
            self.heap.pop();
        }
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
    fn cancel_disarms_lazily() {
        let mut w = TimerWheel::new();
        w.schedule(1, 1.0);
        w.schedule(2, 2.0);
        w.cancel(1);
        assert!(!w.is_armed(1));
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_at(), Some(2.0));
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
    fn stale_entries_never_resurrect_a_peer() {
        let mut w = TimerWheel::new();
        w.schedule(1, 1.0);
        w.schedule(1, 4.0);
        let mut due = BTreeSet::new();
        w.pop_due(2.0, &mut due); // stale 1.0 entry must not fire
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
    fn next_at_skips_stale_tops(){
        let mut w = TimerWheel::new();
        w.schedule(1, 1.0);
        w.schedule(2, 5.0);
        w.schedule(1, 9.0); // 1.0 entry now stale
        assert_eq!(w.next_at(), Some(5.0));
    }
}
