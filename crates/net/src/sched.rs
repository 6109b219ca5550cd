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
//! Both structures are indexed by peer id, which the harness mints
//! densely (boot ids `0..peers`, then one fresh id per churn join or
//! whitewash rebirth). The wheel keeps one wake slot per id and
//! [`TimerWheel::pop_due`] scans the slots in ascending id order; a
//! wake's time only ever decides due-or-not, and due peers run in
//! ascending id order — the order an every-peer scan visits them in — so
//! no time-ordered index is needed. `IdSet` is the harness's per-tick
//! set (frame receivers, the due union, the peers that ran): one bit per
//! id, iterated ascending, cleared and reused across ticks.
//!
//! Determinism is the whole point: a pop depends only on the armed
//! times and `now`, never on the order the peers were armed in. The
//! index is exact — re-arming or cancelling a peer overwrites or clears
//! its one slot — so there is no stale entry to skip.

use std::iter;

/// Timer index over peers: one wake slot per peer id.
///
/// Invariant: `armed` counts the slots of `wake` that are not NaN, the
/// marker of an unarmed slot. Wake times are never NaN.
#[derive(Debug, Default)]
pub struct TimerWheel {
    wake: Vec<f64>,
    armed: usize,
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
        debug_assert!(!at.is_nan(), "wake time of peer {peer} is NaN");
        let i = peer as usize;
        if self.wake.len() <= i {
            self.wake.resize(i + 1, f64::NAN);
        }
        self.armed += usize::from(self.wake[i].is_nan());
        self.wake[i] = at;
    }

    /// Arms `peer` to wake no later than `at`: keeps an existing
    /// earlier wake time, moves a later one up. Used by external pokes
    /// (peer-gone notifications, rejoin bootstraps, frame rejects) that
    /// must not *delay* an already-imminent wake.
    pub fn hasten(&mut self, peer: u32, at: f64) {
        if !self.armed_at(peer).is_some_and(|cur| cur <= at) {
            self.schedule(peer, at);
        }
    }

    /// Disarms `peer` (no-op if not armed).
    pub fn cancel(&mut self, peer: u32) {
        if let Some(w) = self.wake.get_mut(peer as usize).filter(|w| !w.is_nan()) {
            *w = f64::NAN;
            self.armed -= 1;
        }
    }

    /// The currently armed wake time for `peer`, if any.
    pub fn armed_at(&self, peer: u32) -> Option<f64> {
        self.wake.get(peer as usize).copied().filter(|w| !w.is_nan())
    }

    /// Number of armed peers.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// `true` when no peer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// Disarms every peer whose wake time is `<= now` and adds them to
    /// `due`, in ascending peer-id order.
    pub fn pop_due(&mut self, now: f64, due: &mut impl Extend<u32>) {
        if self.armed == 0 {
            return;
        }
        for (peer, w) in self.wake.iter_mut().enumerate() {
            // The float comparison: `0.0 <= -0.0` holds, and an unarmed
            // (NaN) slot is never due.
            if *w <= now {
                *w = f64::NAN;
                self.armed -= 1;
                due.extend(iter::once(peer as u32));
            }
        }
    }

    /// Pops the single earliest armed wake as `(time, peer)`, by
    /// `f64::total_cmp` then peer id, regardless of the current time.
    /// Exposed for the property tests, which check the pop sequence is a
    /// total deterministic order.
    pub fn pop_next(&mut self) -> Option<(f64, u32)> {
        let (peer, at) = self
            .wake
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, w)| !w.is_nan())
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        self.cancel(peer as u32);
        Some((at, peer as u32))
    }
}

/// Set of peer ids, one bit per id, iterated in ascending id order.
/// [`IdSet::clear`] keeps the words, so a set reused across ticks only
/// allocates when the id range grows.
#[derive(Debug, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    pub(crate) fn insert(&mut self, id: u32) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.len += usize::from(self.words[w] & bit == 0);
        self.words[w] |= bit;
    }

    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words.get(id as usize / 64).is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                (rest != 0).then(|| {
                    rest &= rest - 1;
                    i as u32 * 64 + bit
                })
            })
        })
    }
}

impl Extend<u32> for IdSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tchain_sim::{ensure, ensure_eq, forall};

    /// The wheel this module's slot table replaced: a `BTreeMap` of
    /// armed times plus a `BTreeSet` of `(rank(time), peer)`, popped in
    /// `(time, peer)` order. Kept as the differential reference.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};
        use tchain_sim::queue::{rank, time_of};

        #[derive(Debug, Default)]
        pub(super) struct TimerWheel {
            armed: BTreeMap<u32, f64>,
            order: BTreeSet<(u64, u32)>,
        }

        impl TimerWheel {
            pub(super) fn schedule(&mut self, peer: u32, at: f64) {
                if let Some(old) = self.armed.insert(peer, at) {
                    self.order.remove(&(rank(old), peer));
                }
                self.order.insert((rank(at), peer));
            }

            pub(super) fn hasten(&mut self, peer: u32, at: f64) {
                if !self.armed.get(&peer).is_some_and(|&cur| cur <= at) {
                    self.schedule(peer, at);
                }
            }

            pub(super) fn cancel(&mut self, peer: u32) {
                if let Some(at) = self.armed.remove(&peer) {
                    self.order.remove(&(rank(at), peer));
                }
            }

            pub(super) fn armed_at(&self, peer: u32) -> Option<f64> {
                self.armed.get(&peer).copied()
            }

            pub(super) fn len(&self) -> usize {
                self.armed.len()
            }

            pub(super) fn pop_due(&mut self, now: f64, due: &mut BTreeSet<u32>) {
                while let Some(&(key, peer)) = self.order.first() {
                    if time_of(key) > now {
                        break;
                    }
                    self.pop_next();
                    due.insert(peer);
                }
            }

            pub(super) fn pop_next(&mut self) -> Option<(f64, u32)> {
                let (key, peer) = self.order.pop_first()?;
                self.armed.remove(&peer);
                Some((time_of(key), peer))
            }
        }
    }

    fn drain(w: &mut TimerWheel) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| w.pop_next()).collect()
    }

    /// `Some` times compared bit for bit, so `-0.0` and `0.0` differ.
    fn bits(at: Option<f64>) -> Option<u64> {
        at.map(f64::to_bits)
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
        w.cancel(1); // already disarmed: no-op
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
        let mut due = Vec::new();
        w.pop_due(1.0, &mut due);
        assert_eq!(due, vec![1, 5, 8]);
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
        let mut due = Vec::new();
        w.pop_due(2.0, &mut due); // the replaced 1.0 must not fire
        assert!(due.is_empty());
        assert_eq!(w.armed_at(1), Some(4.0));
        w.pop_due(4.0, &mut due);
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn identical_same_time_reschedules_fire_once() {
        let mut w = TimerWheel::new();
        w.schedule(1, 3.0);
        w.schedule(1, 3.0);
        w.schedule(1, 3.0);
        let mut due = Vec::new();
        w.pop_due(3.0, &mut due);
        assert_eq!(due, vec![1]);
        assert!(w.is_empty());
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn both_zeros_are_due_at_either_zero() {
        // `-0.0` orders below `0.0`, yet each is `<=` the other.
        for now in [0.0, -0.0] {
            let mut w = TimerWheel::new();
            w.schedule(1, 0.0);
            w.schedule(2, -0.0);
            let mut due = Vec::new();
            w.pop_due(now, &mut due);
            assert_eq!(due, vec![1, 2], "now = {now:?}");
        }
    }

    /// The slot table against the B-tree wheel it replaced, op for op:
    /// sparse ids up to 4096 (churn joins and whitewash rebirths mint
    /// ids past the boot range), wake times on a coarse grid so they tie,
    /// both zeros, re-arms behind `now`, and a clock that stands still or
    /// creeps forward. After every op the two agree on every armed time
    /// (bit for bit), on `len`, and on what pops: `pop_due` must yield
    /// the reference's due set in ascending id order.
    #[test]
    fn slot_wheel_matches_the_btree_wheel_op_for_op() {
        forall(0x5107_3EE1, 256, |rng, size| {
            let pool: Vec<u32> = (0..2 + size / 4).map(|_| rng.below(4097) as u32).collect();
            let time = |k: usize| if k == 0 { -0.0 } else { (k - 1) as f64 * 0.5 };
            let mut flat = TimerWheel::new();
            let mut model = reference::TimerWheel::default();
            let mut now = if rng.chance(0.5) { -0.0 } else { 0.0 };
            for step in 0..4 * size {
                let p = pool[rng.below(pool.len())];
                let at = time(rng.below(12));
                match rng.below(10) {
                    0..=2 => {
                        flat.schedule(p, at);
                        model.schedule(p, at);
                    }
                    3 | 4 => {
                        flat.hasten(p, at);
                        model.hasten(p, at);
                    }
                    5 => {
                        flat.cancel(p);
                        model.cancel(p);
                    }
                    6 => ensure_eq!(
                        flat.pop_next().map(|(t, q)| (t.to_bits(), q)),
                        model.pop_next().map(|(t, q)| (t.to_bits(), q)),
                        "pop_next at step {step}"
                    ),
                    _ => {
                        if rng.chance(0.5) {
                            now = time(rng.below(12)).max(now);
                        }
                        let mut due = Vec::new();
                        let mut expect = BTreeSet::new();
                        flat.pop_due(now, &mut due);
                        model.pop_due(now, &mut expect);
                        let expect: Vec<u32> = expect.into_iter().collect();
                        ensure_eq!(due, expect, "pop_due({now:?}) at step {step}");
                    }
                }
                ensure_eq!(flat.len(), model.len(), "len at step {step}");
                ensure_eq!(flat.is_empty(), model.len() == 0);
                for &q in pool.iter().chain([p + 1, 4097].iter()) {
                    ensure_eq!(
                        bits(flat.armed_at(q)),
                        bits(model.armed_at(q)),
                        "peer {q} at step {step}"
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn id_set_matches_a_btree_set() {
        forall(0x1_D5E7, 128, |rng, size| {
            let mut set = IdSet::default();
            let mut model = BTreeSet::new();
            for step in 0..4 * size {
                if rng.below(16) == 0 {
                    set.clear();
                    model.clear();
                }
                let range = if rng.chance(0.8) { 300 } else { 4097 };
                let id = rng.below(range) as u32;
                set.insert(id);
                model.insert(id);
                ensure_eq!(set.len(), model.len(), "insert {id} at step {step}");
                ensure!(set.contains(id) && !set.contains(5000));
                ensure!(set.iter().eq(model.iter().copied()), "order at step {step}");
            }
            Ok(())
        });
    }
}
