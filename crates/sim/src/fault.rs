//! The link model: a lossy, delayed control plane.
//!
//! The paper (§III-C) treats reception reports, decryption keys and
//! tracker queries as instantaneous and reliable. A [`FaultPlan`] breaks
//! that assumption deterministically: control messages can be dropped with
//! a configured probability or delayed by a configured latency
//! distribution. It describes delivery only; peers crash through their
//! own plans (`PeerPlan::crash_at` in the fluid drivers,
//! [`ChaosPlan::with_crash_restart`](crate::ChaosPlan::with_crash_restart)
//! on the wire). All randomness comes from a dedicated RNG stream seeded by
//! the plan itself, so enabling faults never perturbs the driver's main
//! RNG — and `FaultPlan::none()` takes a branch-only fast path that draws
//! nothing, keeping fault-free runs bit-identical to a build without this
//! module.

use crate::rng::SimRng;

/// Latency distribution for delivered (non-dropped) control messages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// Deliver in the same tick (the paper's instantaneous model).
    #[default]
    None,
    /// Fixed one-way delay in seconds.
    Fixed(f64),
    /// Uniform delay in `[lo, hi)` seconds.
    Uniform {
        /// Lower bound (inclusive), seconds.
        lo: f64,
        /// Upper bound (exclusive), seconds.
        hi: f64,
    },
    /// Exponential delay with the given mean, seconds.
    Exp {
        /// Mean delay, seconds.
        mean: f64,
    },
}

impl LatencyModel {
    fn draw(&self, rng: &mut SimRng) -> f64 {
        match *self {
            LatencyModel::None => 0.0,
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { lo, hi } => rng.range(lo, hi),
            LatencyModel::Exp { mean } => rng.exp(1.0 / mean),
        }
    }

    fn is_none(&self) -> bool {
        matches!(self, LatencyModel::None)
    }
}

/// A deterministic loss-and-latency schedule for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG stream (independent of the run seed).
    pub seed: u64,
    /// Probability that any control message is silently dropped.
    pub drop_prob: f64,
    /// Latency applied to delivered control messages.
    pub latency: LatencyModel,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: nothing fails, and the runtime takes a zero-cost
    /// synchronous path (no RNG draws, no queueing).
    pub fn none() -> Self {
        FaultPlan { seed: 0, drop_prob: 0.0, latency: LatencyModel::None }
    }

    /// A pure message-loss plan.
    pub fn lossy(seed: u64, drop_prob: f64) -> Self {
        FaultPlan { seed, drop_prob, ..FaultPlan::none() }
    }

    /// Adds a latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// `true` when the plan has a latency model, i.e. a delivered control
    /// message may be scheduled later than the next tick.
    pub fn has_latency(&self) -> bool {
        !self.latency.is_none()
    }

    /// `true` when the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0 && self.latency.is_none()
    }

    /// Panics if any parameter is out of range. Latencies must be finite:
    /// an infinite one would kill a link for good, hang the uniform draw
    /// or zero the exponential rate.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_prob), "drop_prob must be in [0,1]");
        match self.latency {
            LatencyModel::None => {}
            LatencyModel::Fixed(d) => {
                assert!(d.is_finite() && d >= 0.0, "fixed latency must be finite and >= 0");
            }
            LatencyModel::Uniform { lo, hi } => {
                assert!(
                    hi.is_finite() && lo >= 0.0 && lo < hi,
                    "uniform latency needs finite 0 <= lo < hi"
                );
            }
            LatencyModel::Exp { mean } => {
                assert!(
                    mean.is_finite() && mean > 0.0,
                    "exponential latency mean must be finite and positive"
                );
            }
        }
    }
}

/// Routing verdict for one control message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Route {
    /// Deliver synchronously, this tick (the fault-free fast path).
    Now,
    /// Deliver at the given (later) time.
    At(f64),
    /// Silently lost.
    Dropped,
}

/// Tallies of what the fault layer actually did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Control messages routed.
    pub sent: u64,
    /// Messages dropped by loss probability.
    pub dropped: u64,
    /// Messages delivered with a nonzero delay.
    pub delayed: u64,
    /// Tracker queries lost.
    pub tracker_dropped: u64,
}

/// Runtime state of a [`FaultPlan`]: its private RNG stream and delivery
/// counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    active: bool,
    stats: FaultStats,
}

impl FaultState {
    /// Instantiates runtime state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        let active = !plan.is_none();
        let rng = SimRng::new(plan.seed ^ 0xFA17_FA17_FA17_FA17);
        FaultState { plan, rng, active, stats: FaultStats::default() }
    }

    /// `true` when any fault can occur. Drivers use this to skip fault
    /// bookkeeping entirely on the fault-free path.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Delivery counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Routes one control message sent at time `now`.
    ///
    /// On the fault-free path this returns [`Route::Now`] without touching
    /// the RNG.
    pub fn route(&mut self, now: f64) -> Route {
        if !self.active {
            return Route::Now;
        }
        self.stats.sent += 1;
        if self.plan.drop_prob > 0.0 && self.rng.chance(self.plan.drop_prob) {
            self.stats.dropped += 1;
            return Route::Dropped;
        }
        if self.plan.latency.is_none() {
            return Route::Now;
        }
        let d = self.plan.latency.draw(&mut self.rng);
        if d <= 0.0 {
            Route::Now
        } else {
            self.stats.delayed += 1;
            Route::At(now + d)
        }
    }

    /// Whether a tracker query is lost. Queries share the control plane's
    /// loss probability.
    pub fn tracker_query_lost(&mut self) -> bool {
        if !self.active || self.plan.drop_prob <= 0.0 {
            return false;
        }
        let lost = self.rng.chance(self.plan.drop_prob);
        if lost {
            self.stats.tracker_dropped += 1;
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert_and_free() {
        let mut st = FaultState::new(FaultPlan::none());
        assert!(!st.active());
        let before = st.rng.clone().f64();
        for i in 0..100u32 {
            assert_eq!(st.route(i as f64), Route::Now);
            assert!(!st.tracker_query_lost());
        }
        // The RNG stream was never consumed.
        assert_eq!(st.rng.f64().to_bits(), before.to_bits());
        assert_eq!(st.stats(), FaultStats::default());
    }

    #[test]
    fn has_latency_names_the_latency_model_only() {
        assert!(!FaultPlan::none().has_latency());
        assert!(!FaultPlan::lossy(1, 0.5).has_latency());
        assert!(FaultPlan::none().with_latency(LatencyModel::Fixed(0.0)).has_latency());
        assert!(FaultPlan::none().with_latency(LatencyModel::Exp { mean: 1.0 }).has_latency());
    }

    #[test]
    fn same_plan_same_routing() {
        let plan = FaultPlan::lossy(9, 0.3).with_latency(LatencyModel::Exp { mean: 0.5 });
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(plan);
        for i in 0..500u32 {
            let ra = a.route(i as f64);
            let rb = b.route(i as f64);
            match (ra, rb) {
                (Route::At(x), Route::At(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (x, y) => assert_eq!(x, y),
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn loss_rate_is_approximately_honoured() {
        let mut st = FaultState::new(FaultPlan::lossy(4, 0.2));
        let n = 20_000;
        for i in 0..n {
            st.route(i as f64);
        }
        let observed = st.stats().dropped as f64 / n as f64;
        assert!((observed - 0.2).abs() < 0.02, "observed loss {observed}");
    }

    #[test]
    fn latency_delays_but_never_reorders_time() {
        let plan =
            FaultPlan { seed: 2, ..FaultPlan::none() }.with_latency(LatencyModel::Uniform {
                lo: 0.1,
                hi: 2.0,
            });
        let mut st = FaultState::new(plan);
        for i in 0..200 {
            match st.route(i as f64) {
                Route::At(t) => assert!(t > i as f64 && t < i as f64 + 2.0),
                Route::Now => {}
                Route::Dropped => panic!("no loss configured"),
            }
        }
        assert_eq!(st.stats().dropped, 0);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn validate_rejects_bad_probability() {
        FaultState::new(FaultPlan::lossy(0, 1.5));
    }

    #[test]
    fn validate_rejects_non_finite_latency() {
        let bad = [
            LatencyModel::Fixed(f64::INFINITY),
            LatencyModel::Fixed(f64::NAN),
            LatencyModel::Fixed(-1.0),
            LatencyModel::Uniform { lo: 0.0, hi: f64::INFINITY },
            LatencyModel::Uniform { lo: 0.0, hi: f64::NAN },
            LatencyModel::Exp { mean: f64::INFINITY },
            LatencyModel::Exp { mean: f64::NAN },
        ];
        for latency in bad {
            let plan = FaultPlan::none().with_latency(latency);
            let rejected = std::panic::catch_unwind(|| plan.validate()).is_err();
            assert!(rejected, "{latency:?} must not validate");
        }
    }
}
