//! First-class swarm churn: seeded membership schedules.
//!
//! [`FaultPlan`](crate::FaultPlan) models a lossy network and
//! [`ChaosPlan`](crate::ChaosPlan) models byzantine bytes; a
//! [`ChurnPlan`] models the third axis of a real deployment — the
//! *membership* itself moving. Three event shapes cover the lifecycles
//! the BitTorrent-robustness literature cares about:
//!
//! * **staggered joins** — `count` fresh peers arrive one every
//!   `spacing` seconds starting at `at` (a steady trickle of newcomers),
//! * **flash crowds** — `count` peers arrive in the same instant (the
//!   release-day stampede), and
//! * **voluntary departures** — a seeded fraction of the alive compliant
//!   leechers leaves *gracefully*, which in T-Chain terms means the
//!   §II-B4 escrow handoff: every key still awaiting its reciprocation
//!   report is handed to the designated payee on the way out.
//!
//! The discipline matches `fault.rs` and `chaos.rs`: the plan is pure
//! data, all randomness (departure victim selection) comes from a
//! dedicated RNG stream seeded by the plan itself, and
//! [`ChurnPlan::none`] takes a branch-only fast path that draws nothing —
//! churn-free runs stay bit-identical to a build without this module.
//! The plan only *decides* who moves and when; registering transports,
//! tracker entries and the handoff frames themselves are the harness's
//! job.

use crate::rng::SimRng;
use crate::NodeId;

/// One scheduled membership event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// `count` fresh peers join, the first at `at`, then one every
    /// `spacing` seconds (`spacing == 0.0` degenerates to a flash
    /// crowd).
    Joins {
        /// Arrival time of the first joiner on the transport clock.
        at: f64,
        /// How many peers join.
        count: u32,
        /// Seconds between consecutive arrivals.
        spacing: f64,
    },
    /// `count` fresh peers join in the same instant.
    FlashCrowd {
        /// Arrival time on the transport clock.
        at: f64,
        /// Size of the crowd.
        count: u32,
    },
    /// A fraction of the alive compliant leechers departs gracefully
    /// (§II-B4 escrow handoff) at `at`.
    Departures {
        /// Departure time on the transport clock.
        at: f64,
        /// Fraction of eligible peers to remove, in `[0, 1]`.
        fraction: f64,
    },
}

/// A deterministic membership schedule for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnPlan {
    /// Seed for the churn RNG stream (independent of run, fault and
    /// chaos seeds).
    pub seed: u64,
    /// Scheduled events, in any order; [`ChurnState::new`] sorts the
    /// expanded timeline.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The empty plan: membership never changes and no draw is made.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Adds a staggered-join event.
    pub fn with_joins(mut self, at: f64, count: u32, spacing: f64) -> Self {
        self.events.push(ChurnEvent::Joins { at, count, spacing });
        self
    }

    /// Adds a flash-crowd arrival.
    pub fn with_flash_crowd(mut self, at: f64, count: u32) -> Self {
        self.events.push(ChurnEvent::FlashCrowd { at, count });
        self
    }

    /// Adds a graceful-departure event.
    pub fn with_departures(mut self, at: f64, fraction: f64) -> Self {
        self.events.push(ChurnEvent::Departures { at, fraction });
        self
    }

    /// `true` when the plan changes nothing.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Total peers the plan will add over the whole run.
    pub fn total_joins(&self) -> u32 {
        self.events
            .iter()
            .map(|e| match *e {
                ChurnEvent::Joins { count, .. } | ChurnEvent::FlashCrowd { count, .. } => count,
                ChurnEvent::Departures { .. } => 0,
            })
            .sum()
    }

    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        for e in &self.events {
            match *e {
                ChurnEvent::Joins { at, spacing, .. } => {
                    assert!(at >= 0.0, "join time must be non-negative");
                    assert!(spacing >= 0.0, "join spacing must be non-negative");
                }
                ChurnEvent::FlashCrowd { at, .. } => {
                    assert!(at >= 0.0, "flash-crowd time must be non-negative");
                }
                ChurnEvent::Departures { at, fraction } => {
                    assert!(at >= 0.0, "departure time must be non-negative");
                    assert!(
                        (0.0..=1.0).contains(&fraction),
                        "departure fraction must be in [0,1]"
                    );
                }
            }
        }
    }
}

/// Counters for one run's churn activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Peers that joined (staggered + flash crowds).
    pub joined: u64,
    /// Peers that departed voluntarily.
    pub departed: u64,
}

/// Runtime view of a [`ChurnPlan`]: the expanded, time-sorted event
/// timeline plus the dedicated RNG stream for victim selection.
#[derive(Debug)]
pub struct ChurnState {
    /// Individual arrival instants, sorted ascending; `cursor` marks the
    /// next one not yet fired.
    arrivals: Vec<f64>,
    cursor: usize,
    /// `(at, fraction)` departure events, sorted ascending by time;
    /// `dcursor` marks the next one not yet fired.
    departures: Vec<(f64, f64)>,
    dcursor: usize,
    rng: SimRng,
    stats: ChurnStats,
}

impl ChurnState {
    /// Expands and sorts the plan's timeline. Ties keep plan order
    /// (stable sort), so two states built from the same plan fire
    /// identically.
    pub fn new(plan: &ChurnPlan) -> Self {
        plan.validate();
        let mut arrivals = Vec::new();
        let mut departures = Vec::new();
        for e in &plan.events {
            match *e {
                ChurnEvent::Joins { at, count, spacing } => {
                    for i in 0..count {
                        arrivals.push(at + f64::from(i) * spacing);
                    }
                }
                ChurnEvent::FlashCrowd { at, count } => {
                    for _ in 0..count {
                        arrivals.push(at);
                    }
                }
                ChurnEvent::Departures { at, fraction } => {
                    departures.push((at, fraction));
                }
            }
        }
        arrivals.sort_by(f64::total_cmp);
        departures.sort_by(|a, b| a.0.total_cmp(&b.0));
        ChurnState {
            arrivals,
            cursor: 0,
            departures,
            dcursor: 0,
            rng: SimRng::new(plan.seed ^ 0xC4_0A11_CE44),
            stats: ChurnStats::default(),
        }
    }

    /// How many scheduled arrivals are due at `now`. Advances the
    /// cursor — each arrival is reported exactly once.
    pub fn joins_due(&mut self, now: f64) -> u32 {
        let mut n = 0;
        while self.cursor < self.arrivals.len() && self.arrivals[self.cursor] <= now {
            self.cursor += 1;
            n += 1;
        }
        self.stats.joined += u64::from(n);
        n
    }

    /// Departure fractions due at `now`, at most once each.
    pub fn departures_due(&mut self, now: f64) -> Vec<f64> {
        let mut due = Vec::new();
        while self.dcursor < self.departures.len() && self.departures[self.dcursor].0 <= now {
            due.push(self.departures[self.dcursor].1);
            self.dcursor += 1;
        }
        due
    }

    /// Draws `round(fraction · |eligible|)` distinct victims from the
    /// churn stream and returns them sorted by id, so the caller
    /// processes departures in a deterministic order regardless of the
    /// sample's internal shuffle.
    pub fn pick_victims(&mut self, fraction: f64, eligible: &[NodeId]) -> Vec<NodeId> {
        let k = ((eligible.len() as f64) * fraction).round() as usize;
        if k == 0 || eligible.is_empty() {
            return Vec::new();
        }
        let mut victims = self.rng.sample(eligible, k.min(eligible.len()));
        victims.sort_unstable();
        self.stats.departed += victims.len() as u64;
        victims
    }

    /// The earliest event instant not yet fired, if any.
    pub fn next_at(&self) -> Option<f64> {
        let a = self.arrivals.get(self.cursor).copied();
        let d = self.departures.get(self.dcursor).map(|&(at, _)| at);
        match (a, d) {
            (Some(a), Some(d)) => Some(a.min(d)),
            (x, None) | (None, x) => x,
        }
    }

    /// `true` once every scheduled event has fired.
    pub fn done(&self) -> bool {
        self.cursor >= self.arrivals.len() && self.dcursor >= self.departures.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> ChurnStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut st = ChurnState::new(&ChurnPlan::none());
        assert!(st.done());
        assert_eq!(st.joins_due(1e9), 0);
        assert!(st.departures_due(1e9).is_empty());
        assert_eq!(st.next_at(), None);
    }

    #[test]
    fn staggered_joins_fire_one_per_spacing() {
        let plan = ChurnPlan::none().with_joins(10.0, 3, 5.0);
        let mut st = ChurnState::new(&plan);
        assert_eq!(st.next_at(), Some(10.0));
        assert_eq!(st.joins_due(9.9), 0);
        assert_eq!(st.joins_due(10.0), 1);
        assert_eq!(st.joins_due(14.9), 0);
        assert_eq!(st.joins_due(15.0), 1);
        assert_eq!(st.joins_due(1e9), 1);
        assert!(st.done());
        assert_eq!(st.stats().joined, 3);
    }

    #[test]
    fn flash_crowd_arrives_at_once() {
        let plan = ChurnPlan::none().with_flash_crowd(7.0, 5);
        let mut st = ChurnState::new(&plan);
        assert_eq!(st.joins_due(7.0), 5);
        assert!(st.done());
    }

    #[test]
    fn mixed_timeline_is_time_sorted() {
        let plan = ChurnPlan::none()
            .with_flash_crowd(20.0, 2)
            .with_joins(5.0, 2, 1.0)
            .with_departures(12.0, 0.5);
        let mut st = ChurnState::new(&plan);
        assert_eq!(st.next_at(), Some(5.0));
        assert_eq!(st.joins_due(6.0), 2);
        assert_eq!(st.next_at(), Some(12.0));
        assert_eq!(st.departures_due(12.0), vec![0.5]);
        assert_eq!(st.next_at(), Some(20.0));
        assert_eq!(st.joins_due(20.0), 2);
        assert!(st.done());
    }

    #[test]
    fn victims_are_distinct_sorted_and_deterministic() {
        let plan = ChurnPlan { seed: 9, ..ChurnPlan::none() }.with_departures(1.0, 0.5);
        let eligible: Vec<NodeId> = (1..21).map(NodeId).collect();
        let a = ChurnState::new(&plan).pick_victims(0.5, &eligible);
        let b = ChurnState::new(&plan).pick_victims(0.5, &eligible);
        assert_eq!(a, b, "same seed, same victims");
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct: {a:?}");
    }

    #[test]
    fn zero_fraction_draws_nothing() {
        let plan = ChurnPlan::none().with_departures(1.0, 0.0);
        let mut st = ChurnState::new(&plan);
        assert!(st.pick_victims(0.0, &[NodeId(1), NodeId(2)]).is_empty());
        assert_eq!(st.stats().departed, 0);
    }

    #[test]
    #[should_panic(expected = "departure fraction")]
    fn out_of_range_fraction_is_rejected() {
        ChurnState::new(&ChurnPlan::none().with_departures(1.0, 1.5));
    }

    #[test]
    fn total_joins_counts_every_arrival() {
        let plan = ChurnPlan::none().with_joins(0.0, 3, 1.0).with_flash_crowd(9.0, 4);
        assert_eq!(plan.total_joins(), 7);
    }
}
