//! Byzantine chaos injection: frame corruption, duplication, reordering,
//! connection resets and crash-restart schedules.
//!
//! [`FaultPlan`](crate::FaultPlan) models a *well-behaved but lossy*
//! network: messages vanish or arrive late, peers die and stay dead. A
//! [`ChaosPlan`] models the uglier half of a real deployment — bytes that
//! arrive *wrong*. Frames can be bit-flipped, truncated or given a bogus
//! length prefix; delivered twice; held back so later traffic overtakes
//! them; or cut off by a mid-stream connection reset. Independently, a
//! crash-restart schedule kills peers abruptly and brings them back,
//! holdings intact, after a configurable outage.
//!
//! The discipline is the same as `fault.rs`: all randomness comes from a
//! dedicated RNG stream seeded by the plan itself, so enabling chaos never
//! perturbs the driver's main RNG, and [`ChaosPlan::none`] takes a
//! branch-only fast path that draws nothing — chaos-free runs stay
//! bit-identical to a build without this module. The plan only *decides*
//! what happens to a frame; applying a [`FrameMutation`] to concrete bytes
//! is the transport's job (it owns the encoding).

use crate::rng::SimRng;

/// Extra seconds a reordered frame is held, so later traffic on its link
/// overtakes it.
pub const REORDER_DELAY: f64 = 2.0;

/// How a corrupted frame's bytes are mangled.
///
/// Offsets and masks are drawn by [`ChaosState::action`] against the
/// frame's encoded length, so the transport can apply them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameMutation {
    /// XOR one byte of the encoding with a nonzero mask.
    BitFlip {
        /// Byte offset into the encoded frame.
        offset: usize,
        /// Nonzero XOR mask.
        mask: u8,
    },
    /// Cut the encoding short, as a dying connection would.
    Truncate {
        /// Bytes to keep (strictly less than the encoded length).
        keep: usize,
    },
    /// Overwrite the length prefix with a value past the codec bound.
    OversizeLen,
}

/// What the chaos layer does to one frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Pass through untouched (the fast path).
    Deliver,
    /// Deliver a mangled copy of the bytes.
    Corrupt(FrameMutation),
    /// Deliver the frame twice.
    Duplicate,
    /// Hold the frame back so later frames on the link overtake it.
    Reorder,
    /// Mid-stream connection reset: the frame (and its link's illusion of
    /// a clean stream) is torn down.
    Reset,
}

/// One scheduled crash-restart: at `at`, a fraction of the alive
/// compliant leechers crash abruptly — no §II-B4 goodbye — and rejoin
/// under the same id roughly `restart_after` seconds later (the exact
/// outage is jittered by [`ChaosState::backoff_jitter`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRestart {
    /// Crash time on the transport clock.
    pub at: f64,
    /// Fraction of alive compliant leechers to crash, in `[0, 1]`.
    pub fraction: f64,
    /// Nominal outage before the rejoin attempt, seconds.
    pub restart_after: f64,
}

/// A deterministic byzantine-injection schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the chaos RNG stream (independent of run and fault seeds).
    pub seed: u64,
    /// Probability a frame's bytes are mangled ([`FrameMutation`]).
    pub corrupt_prob: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a frame is held back past later traffic
    /// ([`REORDER_DELAY`]).
    pub reorder_prob: f64,
    /// Probability a frame triggers a mid-stream connection reset.
    pub reset_prob: f64,
    /// Scheduled crash-restart events.
    pub crash_restarts: Vec<CrashRestart>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

impl ChaosPlan {
    /// The empty plan: no frame is touched and no draw is made.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reset_prob: 0.0,
            crash_restarts: Vec::new(),
        }
    }

    /// A pure frame-corruption plan.
    pub fn corrupting(seed: u64, corrupt_prob: f64) -> Self {
        ChaosPlan { seed, corrupt_prob, ..ChaosPlan::none() }
    }

    /// A mixed byzantine plan: `rate` split evenly across corruption,
    /// duplication, reordering and resets.
    pub fn byzantine(seed: u64, rate: f64) -> Self {
        let p = rate / 4.0;
        ChaosPlan {
            seed,
            corrupt_prob: p,
            duplicate_prob: p,
            reorder_prob: p,
            reset_prob: p,
            ..ChaosPlan::none()
        }
    }

    /// Adds a crash-restart event.
    pub fn with_crash_restart(mut self, at: f64, fraction: f64, restart_after: f64) -> Self {
        self.crash_restarts.push(CrashRestart { at, fraction, restart_after });
        self
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.corrupt_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.reorder_prob <= 0.0
            && self.reset_prob <= 0.0
            && self.crash_restarts.is_empty()
    }

    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        for (name, p) in [
            ("corrupt_prob", self.corrupt_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
            ("reset_prob", self.reset_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1]");
        }
        assert!(
            self.corrupt_prob + self.duplicate_prob + self.reorder_prob + self.reset_prob <= 1.0,
            "chaos action probabilities must sum to at most 1"
        );
        for c in &self.crash_restarts {
            assert!(c.at.is_finite() && c.at >= 0.0, "crash time must be finite");
            assert!((0.0..=1.0).contains(&c.fraction), "crash fraction must be in [0,1]");
            assert!(
                c.restart_after.is_finite() && c.restart_after > 0.0,
                "restart_after must be positive"
            );
        }
    }
}

/// Runtime state of a [`ChaosPlan`]: its private RNG stream and the
/// crash-restart cursor.
#[derive(Debug, Clone)]
pub struct ChaosState {
    plan: ChaosPlan,
    rng: SimRng,
    active: bool,
    next_crash: usize,
}

impl ChaosState {
    /// Instantiates runtime state for a plan. Crash-restart events are
    /// sorted by time so they fire in order regardless of how the plan
    /// was built.
    pub fn new(mut plan: ChaosPlan) -> Self {
        plan.validate();
        plan.crash_restarts.sort_by(|a, b| a.at.total_cmp(&b.at));
        let active = !plan.is_none();
        let rng = SimRng::new(plan.seed ^ 0xC4A0_5BAD_F00D_C4A0);
        ChaosState { plan, rng, active, next_crash: 0 }
    }

    /// `true` when any injection can occur. Transports use this to skip
    /// chaos bookkeeping entirely on the chaos-free path.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Decides the fate of one frame whose encoding is `frame_len` bytes.
    ///
    /// On the chaos-free path this returns [`ChaosAction::Deliver`]
    /// without touching the RNG. Mutation parameters (offset, mask, keep)
    /// are drawn here so the transport can apply them mechanically.
    pub fn action(&mut self, frame_len: usize) -> ChaosAction {
        if !self.active {
            return ChaosAction::Deliver;
        }
        let u = self.rng.f64();
        let mut bound = self.plan.corrupt_prob;
        if u < bound {
            return ChaosAction::Corrupt(self.draw_mutation(frame_len));
        }
        bound += self.plan.duplicate_prob;
        if u < bound {
            return ChaosAction::Duplicate;
        }
        bound += self.plan.reorder_prob;
        if u < bound {
            return ChaosAction::Reorder;
        }
        bound += self.plan.reset_prob;
        if u < bound {
            return ChaosAction::Reset;
        }
        ChaosAction::Deliver
    }

    fn draw_mutation(&mut self, frame_len: usize) -> FrameMutation {
        debug_assert!(frame_len > 0, "no frame encodes to zero bytes");
        match self.rng.below(3) {
            0 => FrameMutation::BitFlip {
                offset: self.rng.below(frame_len),
                mask: 1u8 << self.rng.below(8),
            },
            1 => FrameMutation::Truncate { keep: self.rng.below(frame_len) },
            _ => FrameMutation::OversizeLen,
        }
    }

    /// `true` when a scheduled crash-restart event is due at or before
    /// `now`.
    #[inline]
    pub fn crash_due(&self, now: f64) -> bool {
        self.plan.crash_restarts.get(self.next_crash).is_some_and(|c| c.at <= now)
    }

    /// Consumes all crash-restart events due at `now`, picking victims
    /// from `alive` without replacement within one event. Returns
    /// `(victim, restart_after)` pairs; counts round to nearest.
    pub fn crash_victims(&mut self, now: f64, alive: &[crate::NodeId]) -> Vec<(crate::NodeId, f64)> {
        let mut victims: Vec<(crate::NodeId, f64)> = Vec::new();
        while let Some(c) = self.plan.crash_restarts.get(self.next_crash).copied() {
            if c.at > now {
                break;
            }
            let pool: Vec<crate::NodeId> = alive
                .iter()
                .copied()
                .filter(|id| !victims.iter().any(|(v, _)| v == id))
                .collect();
            let k = (c.fraction * pool.len() as f64).round() as usize;
            victims.extend(self.rng.sample(&pool, k).into_iter().map(|v| (v, c.restart_after)));
            self.next_crash += 1;
        }
        victims
    }

    /// Deterministic ±20 % jitter for reconnect backoff delays, drawn
    /// from the chaos stream so two restarting peers de-correlate.
    #[inline]
    pub fn backoff_jitter(&mut self, base: f64) -> f64 {
        base * (0.8 + 0.4 * self.rng.f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn none_plan_is_inert_and_free() {
        let mut st = ChaosState::new(ChaosPlan::none());
        assert!(!st.active());
        let before = st.rng.clone().f64();
        for len in 1..200usize {
            assert_eq!(st.action(len), ChaosAction::Deliver, "every frame passes untouched");
            assert!(!st.crash_due(len as f64));
        }
        // The RNG stream was never consumed.
        assert_eq!(st.rng.f64().to_bits(), before.to_bits());
    }

    #[test]
    fn same_plan_same_actions() {
        let plan = ChaosPlan::byzantine(17, 0.4);
        let mut a = ChaosState::new(plan.clone());
        let mut b = ChaosState::new(plan);
        let mut injected = 0;
        for i in 0..500usize {
            let action = a.action(16 + i);
            assert_eq!(action, b.action(16 + i));
            injected += usize::from(action != ChaosAction::Deliver);
        }
        assert!((150..250).contains(&injected), "a 0.4 plan injects ≈ 200 of 500, not {injected}");
    }

    #[test]
    fn corruption_rate_is_approximately_honoured() {
        let mut st = ChaosState::new(ChaosPlan::corrupting(3, 0.25));
        let n = 20_000;
        let corrupted =
            (0..n).filter(|_| matches!(st.action(64), ChaosAction::Corrupt(_))).count();
        let observed = corrupted as f64 / f64::from(n);
        assert!((observed - 0.25).abs() < 0.02, "observed corruption {observed}");
    }

    #[test]
    fn mutations_fit_the_frame() {
        let mut st = ChaosState::new(ChaosPlan::corrupting(9, 1.0));
        for len in 1..64usize {
            match st.action(len) {
                ChaosAction::Corrupt(FrameMutation::BitFlip { offset, mask }) => {
                    assert!(offset < len);
                    assert_ne!(mask, 0, "a zero mask would be a no-op");
                }
                ChaosAction::Corrupt(FrameMutation::Truncate { keep }) => assert!(keep < len),
                ChaosAction::Corrupt(FrameMutation::OversizeLen) => {}
                other => panic!("corrupting plan produced {other:?}"),
            }
        }
    }

    #[test]
    fn crash_restarts_fire_in_time_order_with_outages() {
        // Built out of order; ChaosState sorts.
        let plan = ChaosPlan::none()
            .with_crash_restart(30.0, 1.0, 8.0)
            .with_crash_restart(5.0, 0.5, 4.0);
        let mut st = ChaosState::new(plan);
        assert!(st.active(), "a crash schedule alone activates the plan");
        assert!(!st.crash_due(4.9));
        let alive: Vec<NodeId> = (0..8).map(NodeId).collect();
        let first = st.crash_victims(5.0, &alive);
        assert_eq!(first.len(), 4);
        assert!(first.iter().all(|&(_, r)| r == 4.0));
        let mut v: Vec<NodeId> = first.iter().map(|&(id, _)| id).collect();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 4, "no duplicate victims");
        assert!(!st.crash_due(29.9));
        let second = st.crash_victims(30.0, &alive);
        assert_eq!(second.len(), 8);
        assert!(second.iter().all(|&(_, r)| r == 8.0));
    }

    #[test]
    fn backoff_jitter_stays_in_band_and_decorrelates() {
        let mut a = ChaosState::new(ChaosPlan::corrupting(1, 0.1));
        let mut b = ChaosState::new(ChaosPlan::corrupting(2, 0.1));
        let mut identical = 0;
        for _ in 0..64 {
            let (x, y) = (a.backoff_jitter(10.0), b.backoff_jitter(10.0));
            assert!((8.0..12.0).contains(&x), "jitter {x} out of ±20 % band");
            if x.to_bits() == y.to_bits() {
                identical += 1;
            }
        }
        assert!(identical < 4, "different seeds must de-correlate backoffs");
    }

    #[test]
    #[should_panic(expected = "corrupt_prob")]
    fn validate_rejects_bad_probability() {
        ChaosState::new(ChaosPlan::corrupting(0, 1.5));
    }
}
