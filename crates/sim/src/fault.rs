//! Fault injection: lossy/delayed control plane, peer crashes, partitions.
//!
//! The paper (§III-C) treats reception reports, decryption keys and
//! tracker queries as instantaneous and reliable. A [`FaultPlan`] breaks
//! that assumption deterministically: control messages can be dropped with
//! a configured probability or delayed by a configured latency
//! distribution, peers can crash abruptly mid-transaction (distinct from
//! the graceful §II-B4 departure), and the swarm can be partitioned for an
//! interval. All randomness comes from a dedicated RNG stream seeded by
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

/// A network partition: for `start ≤ now < end`, control messages between
/// the two sides are dropped. Peers are assigned to side A with
/// probability `fraction` by a seeded hash of their id, so membership is
/// stable for the partition's whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Partition start time.
    pub start: f64,
    /// Partition end time (healing).
    pub end: f64,
    /// Fraction of peers on side A, in `[0, 1]`.
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
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
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
            partitions: Vec::new(),
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

    /// Adds a partition interval.
    pub fn with_partition(mut self, start: f64, end: f64, fraction: f64) -> Self {
        self.partitions.push(Partition { start, end, fraction });
        self
    }

    /// `true` when the plan has a latency model, i.e. a delivered control
    /// message may be scheduled later than the next tick.
    pub fn has_latency(&self) -> bool {
        !self.latency.is_none()
    }

    /// `true` when the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0
            && self.latency.is_none()
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_prob), "drop_prob must be in [0,1]");
        for c in &self.crashes {
            assert!(c.at.is_finite() && c.at >= 0.0, "crash time must be finite");
            assert!((0.0..=1.0).contains(&c.fraction), "crash fraction must be in [0,1]");
        }
        for p in &self.partitions {
            assert!(p.start.is_finite() && p.end.is_finite() && p.start < p.end);
            assert!((0.0..=1.0).contains(&p.fraction), "partition fraction in [0,1]");
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
    /// Messages dropped by an active partition.
    pub partition_dropped: u64,
    /// Messages delivered with a nonzero delay.
    pub delayed: u64,
    /// Tracker queries lost.
    pub tracker_dropped: u64,
}

impl tchain_obs::ExportStats for FaultStats {
    fn export_stats(&self, prefix: &str, reg: &mut tchain_obs::StatsRegistry) {
        reg.add(&format!("{prefix}ctrl_sent"), self.sent);
        reg.add(&format!("{prefix}ctrl_dropped"), self.dropped);
        reg.add(&format!("{prefix}partition_dropped"), self.partition_dropped);
        reg.add(&format!("{prefix}ctrl_delayed"), self.delayed);
        reg.add(&format!("{prefix}tracker_dropped"), self.tracker_dropped);
    }
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

/// Stateless splitmix64 hash used for stable partition-side assignment.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

    /// Which partition side a peer is on (stable per plan seed).
    fn side(&self, id: NodeId, p: &Partition) -> bool {
        let h = mix64(self.plan.seed ^ 0x5EED ^ u64::from(id.0));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p.fraction
    }

    /// `true` when an active partition separates `a` and `b` at `now`.
    pub fn partitioned(&self, a: NodeId, b: NodeId, now: f64) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|p| now >= p.start && now < p.end && self.side(a, p) != self.side(b, p))
    }

    /// Routes one control message from `from` to `to` at time `now`.
    ///
    /// On the fault-free path this returns [`Route::Now`] without touching
    /// the RNG.
    pub fn route(&mut self, from: NodeId, to: NodeId, now: f64) -> Route {
        if !self.active {
            return Route::Now;
        }
        self.stats.sent += 1;
        if self.partitioned(from, to, now) {
            self.stats.partition_dropped += 1;
            return Route::Dropped;
        }
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

    /// Whether a tracker query issued at `now` is lost. Queries are not
    /// subject to partitions (the tracker is assumed reachable) but share
    /// the loss probability.
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
            assert_eq!(st.route(NodeId(i), NodeId(i + 1), i as f64), Route::Now);
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
        assert!(!FaultPlan::lossy(1, 0.5).with_partition(1.0, 2.0, 0.5).has_latency());
        assert!(FaultPlan::none().with_latency(LatencyModel::Fixed(0.0)).has_latency());
        assert!(FaultPlan::none().with_latency(LatencyModel::Exp { mean: 1.0 }).has_latency());
    }

    #[test]
    fn same_plan_same_routing() {
        let plan = FaultPlan::lossy(9, 0.3).with_latency(LatencyModel::Exp { mean: 0.5 });
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..500u32 {
            let ra = a.route(NodeId(i % 7), NodeId(i % 5), i as f64);
            let rb = b.route(NodeId(i % 7), NodeId(i % 5), i as f64);
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
            st.route(NodeId(0), NodeId(1), i as f64);
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
            match st.route(NodeId(1), NodeId(2), i as f64) {
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
    fn partition_splits_and_heals() {
        let plan = FaultPlan { seed: 7, ..FaultPlan::none() }.with_partition(10.0, 20.0, 0.5);
        let mut st = FaultState::new(plan);
        let ids: Vec<NodeId> = (0..40).map(NodeId).collect();
        // During the partition some pair must be split; sides are stable.
        let split: Vec<(NodeId, NodeId)> = ids
            .iter()
            .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a != b && st.partitioned(a, b, 15.0))
            .collect();
        assert!(!split.is_empty(), "a 50/50 partition must split some pair");
        let (a, b) = split[0];
        assert_eq!(st.route(a, b, 15.0), Route::Dropped);
        assert!(st.partitioned(a, b, 19.9));
        assert!(!st.partitioned(a, b, 20.0), "heals at end");
        assert!(!st.partitioned(a, b, 9.9), "not yet active before start");
        // Same-side pairs still communicate during the partition.
        let joined = ids.iter().flat_map(|&x| ids.iter().map(move |&y| (x, y))).find(|&(x, y)| {
            x != y && !st.partitioned(x, y, 15.0)
        });
        assert!(joined.is_some());
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn validate_rejects_bad_probability() {
        FaultState::new(FaultPlan::lossy(0, 1.5));
    }
}
