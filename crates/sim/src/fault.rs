//! Fault injection: lossy/delayed control plane and peer crashes.
//!
//! The paper (§III-C) treats reception reports, decryption keys and
//! tracker queries as instantaneous and reliable. A [`FaultPlan`] breaks
//! that assumption deterministically: control messages can be dropped with
//! a configured probability or delayed by a configured latency
//! distribution, and peers can crash abruptly mid-transaction (distinct
//! from the graceful §II-B4 departure). All randomness comes from a dedicated RNG stream seeded by
//! the plan itself, so enabling faults never perturbs the driver's main
//! RNG — and `FaultPlan::none()` takes a branch-only fast path that draws
//! nothing, keeping fault-free runs bit-identical to a build without this
//! module.

use crate::rng::SimRng;
use crate::NodeId;

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

/// One scheduled crash event: at time `at`, a fraction of the currently
/// alive leechers die abruptly — no goodbye, no §II-B4 handover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Simulation time of the crash.
    pub at: f64,
    /// Fraction of alive leechers to kill, in `[0, 1]`.
    pub fraction: f64,
}

/// A deterministic fault-injection schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG stream (independent of the run seed).
    pub seed: u64,
    /// Probability that any control message is silently dropped.
    pub drop_prob: f64,
    /// Latency applied to delivered control messages.
    pub latency: LatencyModel,
    /// Scheduled crash events.
    pub crashes: Vec<CrashSpec>,
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
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            latency: LatencyModel::None,
            crashes: Vec::new(),
        }
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

    /// Adds a crash event.
    pub fn with_crash(mut self, at: f64, fraction: f64) -> Self {
        self.crashes.push(CrashSpec { at, fraction });
        self
    }

    /// `true` when the plan has a latency model, i.e. a delivered control
    /// message may be scheduled later than the next tick.
    pub fn has_latency(&self) -> bool {
        !self.latency.is_none()
    }

    /// `true` when the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0 && self.latency.is_none() && self.crashes.is_empty()
    }

    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_prob), "drop_prob must be in [0,1]");
        for c in &self.crashes {
            assert!(c.at.is_finite() && c.at >= 0.0, "crash time must be finite");
            assert!((0.0..=1.0).contains(&c.fraction), "crash fraction must be in [0,1]");
        }
        if let LatencyModel::Uniform { lo, hi } = self.latency {
            assert!(lo >= 0.0 && lo < hi, "uniform latency needs 0 <= lo < hi");
        }
        if let LatencyModel::Exp { mean } = self.latency {
            assert!(mean > 0.0, "exponential latency mean must be positive");
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

/// Runtime state of a [`FaultPlan`]: its private RNG stream, the crash
/// schedule cursor and delivery counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    active: bool,
    next_crash: usize,
    stats: FaultStats,
}

impl FaultState {
    /// Instantiates runtime state for a plan. Crash events are sorted by
    /// time so they fire in order regardless of how the plan was built.
    pub fn new(mut plan: FaultPlan) -> Self {
        plan.validate();
        plan.crashes.sort_by(|a, b| a.at.total_cmp(&b.at));
        let active = !plan.is_none();
        let rng = SimRng::new(plan.seed ^ 0xFA17_FA17_FA17_FA17);
        FaultState { plan, rng, active, next_crash: 0, stats: FaultStats::default() }
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

    /// Whether a tracker query issued at `now` is lost. Queries share the
    /// control plane's loss probability.
    pub fn tracker_query_lost(&mut self, _now: f64) -> bool {
        if !self.active || self.plan.drop_prob <= 0.0 {
            return false;
        }
        let lost = self.rng.chance(self.plan.drop_prob);
        if lost {
            self.stats.tracker_dropped += 1;
        }
        lost
    }

    /// `true` when a scheduled crash event is due at or before `now`.
    #[inline]
    pub fn crash_due(&self, now: f64) -> bool {
        self.plan.crashes.get(self.next_crash).is_some_and(|c| c.at <= now)
    }

    /// Consumes all crash events due at `now` and picks their victims from
    /// `alive` (typically the alive leechers), without replacement within
    /// one event. Victim counts round to nearest.
    pub fn crash_victims(&mut self, now: f64, alive: &[NodeId]) -> Vec<NodeId> {
        let mut victims = Vec::new();
        while let Some(c) = self.plan.crashes.get(self.next_crash) {
            if c.at > now {
                break;
            }
            let pool: Vec<NodeId> =
                alive.iter().copied().filter(|id| !victims.contains(id)).collect();
            let k = (c.fraction * pool.len() as f64).round() as usize;
            victims.extend(self.rng.sample(&pool, k));
            self.next_crash += 1;
        }
        victims
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
            assert!(!st.tracker_query_lost(i as f64));
            assert!(!st.crash_due(i as f64));
        }
        // The RNG stream was never consumed.
        assert_eq!(st.rng.f64().to_bits(), before.to_bits());
        assert_eq!(st.stats(), FaultStats::default());
    }

    #[test]
    fn has_latency_names_the_latency_model_only() {
        assert!(!FaultPlan::none().has_latency());
        assert!(!FaultPlan::lossy(1, 0.5).with_crash(1.0, 0.5).has_latency());
        assert!(FaultPlan::none().with_latency(LatencyModel::Fixed(0.0)).has_latency());
        assert!(FaultPlan::none().with_latency(LatencyModel::Exp { mean: 1.0 }).has_latency());
    }

    #[test]
    fn same_plan_same_routing() {
        let plan = FaultPlan::lossy(9, 0.3).with_latency(LatencyModel::Exp { mean: 0.5 });
        let mut a = FaultState::new(plan.clone());
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
    fn crash_victims_come_from_the_pool() {
        let plan = FaultPlan::none().with_crash(10.0, 0.5);
        let mut st = FaultState::new(plan);
        assert!(st.active());
        assert!(!st.crash_due(9.9));
        assert!(st.crash_due(10.0));
        let alive: Vec<NodeId> = (0..10).map(NodeId).collect();
        let victims = st.crash_victims(10.0, &alive);
        assert_eq!(victims.len(), 5);
        let mut v = victims.clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 5, "no duplicate victims");
        assert!(victims.iter().all(|v| alive.contains(v)));
        assert!(!st.crash_due(11.0), "event consumed");
    }

    #[test]
    fn crash_events_fire_in_time_order() {
        // Built out of order; FaultState sorts.
        let plan = FaultPlan::none().with_crash(30.0, 1.0).with_crash(5.0, 0.0);
        let mut st = FaultState::new(plan);
        assert!(st.crash_due(5.0));
        assert!(st.crash_victims(5.0, &[NodeId(1)]).is_empty(), "0% event kills nobody");
        assert!(!st.crash_due(29.9));
        assert_eq!(st.crash_victims(30.0, &[NodeId(1)]), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn validate_rejects_bad_probability() {
        FaultState::new(FaultPlan::lossy(0, 1.5));
    }
}
