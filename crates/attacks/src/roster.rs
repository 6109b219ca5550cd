//! The plan-driven membership lifecycle both fluid drivers share.
//!
//! Every §IV figure compares protocols under *identical* swarm mechanics
//! (§IV-A): planned arrivals, whitewash rejoins, Fig. 13 replacement
//! churn and crashes. [`Roster`] states them once; `TChainSwarm` and
//! `BaselineSwarm` keep only what a join, departure or crash does to
//! their own protocol state, and share the run loops and summaries of
//! [`FluidDriver`]. The order of the run's RNG draws is part of the
//! contract (goldens depend on it): see DESIGN.md §4.

use crate::{PeerPlan, Strategy};
use std::collections::BTreeMap;
use tchain_metrics::RecoveryCounters;
use tchain_obs::{ExportStats, MetricMap, StatsRegistry};
use tchain_proto::{Peer, PieceId, Role, SwarmBase, DT, MAX_TIME};
use tchain_sim::NodeId;

/// Seconds a whitewashing attacker stays away before rejoining as a
/// "newcomer" (§IV-C).
const WHITEWASH_REJOIN_DELAY: f64 = 5.0;

/// A deferred join: churn replacement or whitewash rejoin, possibly
/// carrying pieces across identities.
#[derive(Debug)]
struct PendingJoin {
    /// What joins, and (`plan.at`) when.
    plan: PeerPlan,
    carry: Vec<PieceId>,
    /// Whitewash continuity: the attacker's original identity and first
    /// join time, threaded through identity resets.
    lineage: Option<(NodeId, f64)>,
}

/// The per-peer columns the lifecycle needs after admission.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// The plan admitted under: its strategy, and the capacity the peer
    /// would contribute if compliant (kept for whitewash rejoins and
    /// churn replacements).
    plan: PeerPlan,
    /// The attacker's first identity and original join time (self for
    /// fresh peers) — lets experiments report a whitewashing free-rider's
    /// *true* download duration across identity resets.
    lineage: (NodeId, f64),
}

/// Slot of an id the roster never admitted (the seeder).
const UNKNOWN: Member = Member {
    plan: PeerPlan { at: 0.0, capacity: 0.0, strategy: Strategy::Compliant, crash_at: None },
    lineage: (NodeId(u32::MAX), 0.0),
};

/// Plan-driven membership state of one fluid swarm: the arrival plan and
/// its cursor, deferred joins, planned crashes and the per-peer strategy /
/// capacity / lineage columns.
#[derive(Debug)]
pub struct Roster {
    plan: Vec<PeerPlan>,
    next_arrival: usize,
    pending: Vec<PendingJoin>,
    planned_crashes: Vec<(f64, NodeId)>,
    members: Vec<Member>,
    initial_piece_fraction: f64,
    replace_on_finish: bool,
    crashes: u64,
}

impl Roster {
    /// Builds the roster of one run. `plan` is sorted by join time (stable,
    /// so equal times keep plan order); `initial_piece_fraction` pre-loads
    /// compliant joiners (Fig. 6(b)) and `replace_on_finish` replaces each
    /// finishing leecher with a compliant newcomer (Fig. 13).
    pub fn new(
        mut plan: Vec<PeerPlan>,
        initial_piece_fraction: f64,
        replace_on_finish: bool,
    ) -> Self {
        plan.sort_by(|a, b| a.at.total_cmp(&b.at));
        Roster {
            plan,
            next_arrival: 0,
            pending: Vec::new(),
            planned_crashes: Vec::new(),
            members: Vec::new(),
            initial_piece_fraction,
            replace_on_finish,
            crashes: 0,
        }
    }

    /// Whether any planned arrival carries a [`PeerPlan::crash_at`].
    pub fn plans_crash(&self) -> bool {
        self.plan.iter().any(|p| p.crash_at.is_some())
    }

    fn member(&self, id: NodeId) -> Member {
        self.members.get(id.index()).copied().unwrap_or(UNKNOWN)
    }

    /// Behaviour of an admitted peer ([`Strategy::Compliant`] for ids the
    /// roster never admitted, i.e. the seeder).
    pub fn strategy(&self, id: NodeId) -> Strategy {
        self.member(id).plan.strategy
    }

    /// The crash victims of the step at `now`: the peers whose
    /// [`PeerPlan::crash_at`] is due, skipping any that already left, in
    /// DESIGN.md §4's order. Draws nothing. The caller crashes every
    /// returned peer, in order.
    pub fn due_crashes(&mut self, base: &SwarmBase, now: f64) -> Vec<NodeId> {
        let due = take_due(&mut self.planned_crashes, |c| c.0 <= now);
        let victims: Vec<NodeId> =
            due.into_iter().map(|c| c.1).filter(|&id| base.peers.alive(id)).collect();
        self.crashes += victims.len() as u64;
        victims
    }

    /// Peers [`Roster::due_crashes`] has handed out to crash so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Admits every join due at `now` — plan arrivals first, then deferred
    /// joins — and returns the new ids with the plan each was admitted
    /// under, for the driver's protocol-specific bookkeeping.
    pub fn admit_due(&mut self, base: &mut SwarmBase, now: f64) -> Vec<(NodeId, PeerPlan)> {
        let mut admitted = Vec::new();
        while let Some(&plan) = self.plan.get(self.next_arrival).filter(|p| p.at <= now) {
            self.next_arrival += 1;
            admitted.push((self.admit(base, plan, Vec::new(), None, now), plan));
        }
        for j in take_due(&mut self.pending, |j| j.plan.at <= now) {
            admitted.push((self.admit(base, j.plan, j.carry, j.lineage, now), j.plan));
        }
        admitted
    }

    fn admit(
        &mut self,
        base: &mut SwarmBase,
        plan: PeerPlan,
        mut carry: Vec<PieceId>,
        lineage: Option<(NodeId, f64)>,
        now: f64,
    ) -> NodeId {
        let compliant = plan.strategy.uploads();
        // Fig. 6(b): compliant leechers may start with pre-occupied pieces.
        if compliant && self.initial_piece_fraction > 0.0 && carry.is_empty() {
            let n = (self.initial_piece_fraction * base.file.pieces as f64) as usize;
            let all: Vec<u32> = (0..base.file.pieces as u32).collect();
            carry = base.rng.sample(&all, n).into_iter().map(PieceId).collect();
        }
        let id = base.admit_with_pieces(Role::Leecher, plan.effective_capacity(), compliant, carry);
        self.members.resize(base.peers.len(), UNKNOWN);
        self.members[id.index()] = Member { plan, lineage: lineage.unwrap_or((id, now)) };
        if let Some(at) = plan.crash_at {
            self.planned_crashes.push((at.max(now), id));
        }
        id
    }

    /// Records that `id` completed the file at `now` and, under
    /// replacement churn, schedules a compliant newcomer of the same
    /// capacity one step later. The caller then removes the peer.
    pub fn finish(&mut self, base: &mut SwarmBase, id: NodeId, now: f64) {
        base.peers.get_mut(id).done_time = Some(now);
        if self.replace_on_finish {
            let plan = PeerPlan::compliant(now + DT, self.member(id).plan.capacity);
            self.pending.push(PendingJoin { plan, carry: Vec::new(), lineage: None });
        }
    }

    /// Schedules the rejoin of a whitewashing attacker that just abandoned
    /// identity `id`: same strategy and capacity, the pieces it downloaded
    /// so far, its lineage, a fresh identity shortly after `now`. *When* to
    /// whitewash stays with the driver.
    pub fn whitewash(&mut self, base: &SwarmBase, id: NodeId, now: f64) {
        let m = self.member(id);
        self.pending.push(PendingJoin {
            plan: PeerPlan { at: now + WHITEWASH_REJOIN_DELAY, crash_at: None, ..m.plan },
            carry: base.peers.get(id).have.iter_set().collect(),
            lineage: Some(m.lineage),
        });
    }

    /// The `run_until_done` stop condition: [`MAX_TIME`] reached, or nobody
    /// is left to arrive or rejoin and every compliant leecher finished or
    /// left.
    pub fn settled(&self, base: &SwarmBase) -> bool {
        let waiting = |p: &Peer| {
            p.role == Role::Leecher && p.compliant && p.done_time.is_none() && p.alive()
        };
        base.clock.now() >= MAX_TIME
            || (self.next_arrival >= self.plan.len()
                && self.pending.is_empty()
                && !base.peers.iter().any(waiting))
    }

    /// Free-rider outcomes by attacker *lineage* (whitewash resets
    /// collapse onto the first identity): completed download durations in
    /// ascending order, and the number of lineages that never finished.
    pub fn free_rider_results(&self, base: &SwarmBase) -> (Vec<f64>, usize) {
        let mut best: BTreeMap<NodeId, Option<f64>> = BTreeMap::new();
        for p in base.peers.iter().filter(|p| p.role == Role::Leecher && !p.compliant) {
            let (root, first_join) = self.member(p.id).lineage;
            let slot = best.entry(root).or_insert(None);
            if let Some(d) = p.done_time {
                let dur = d - first_join;
                *slot = Some(slot.map_or(dur, |v| v.min(dur)));
            }
        }
        let mut durations: Vec<f64> = best.values().flatten().copied().collect();
        durations.sort_by(f64::total_cmp);
        let unfinished = best.len() - durations.len();
        (durations, unfinished)
    }
}

/// The surface both fluid drivers share. A driver supplies its substrate,
/// its roster, one simulation step and its protocol's own figures; the run
/// loops, the free-rider and fairness summaries, and the crash and fault
/// half of the counters are stated here once.
pub trait FluidDriver {
    /// The shared substrate: peers, mesh, flows, clock, tracer, profiler.
    fn base(&self) -> &SwarmBase;

    /// The substrate, mutably: for switching on tracing or profiling
    /// before a run. Membership changed through it bypasses the driver.
    fn base_mut(&mut self) -> &mut SwarmBase;

    /// The plan-driven membership lifecycle.
    fn roster(&self) -> &Roster;

    /// Advances the simulation by one step.
    fn step(&mut self);

    /// One peer's fairness factor under this protocol's accounting
    /// (`None` before its first upload).
    fn fairness_of(&self, p: &Peer) -> Option<f64>;

    /// Adds the protocol's own counters to `reg`.
    fn export_protocol_stats(&self, reg: &mut StatsRegistry);

    /// The driver's retry and repair tallies (none by default);
    /// [`FluidDriver::recovery_counters`] fills in the crashes and the
    /// fault layer's delivery statistics.
    fn recovery_tallies(&self) -> RecoveryCounters {
        RecoveryCounters::default()
    }

    /// Runs until the roster is [settled](Roster::settled): every planned
    /// peer has arrived, no whitewash rejoin is pending, and every
    /// compliant leecher finished or departed; or until [`MAX_TIME`]
    /// elapses. A whitewashing free-rider's deferred rejoins keep the run
    /// going after the last compliant leecher is done.
    fn run_until_done(&mut self) {
        self.step();
        while !self.roster().settled(self.base()) {
            self.step();
        }
    }

    /// Runs until simulated time `t`.
    fn run_to(&mut self, t: f64) {
        while self.base().clock.now() < t {
            self.step();
        }
    }

    /// Free-rider outcomes by attacker lineage (see
    /// [`Roster::free_rider_results`]).
    fn free_rider_results(&self) -> (Vec<f64>, usize) {
        self.roster().free_rider_results(self.base())
    }

    /// Fairness factors (§IV-H) of finished compliant leechers.
    fn fairness_factors(&self) -> Vec<f64> {
        self.base()
            .peers
            .iter()
            .filter(|p| p.role == Role::Leecher && p.compliant && p.done_time.is_some())
            .filter_map(|p| self.fairness_of(p))
            .collect()
    }

    /// Recovery/fault counters: the driver's tallies, the crashes and the
    /// fault layer's delivery statistics.
    fn recovery_counters(&self) -> RecoveryCounters {
        let fs = self.base().faults.stats();
        RecoveryCounters {
            ctrl_sent: fs.sent,
            ctrl_dropped: fs.dropped,
            ctrl_delayed: fs.delayed,
            tracker_dropped: fs.tracker_dropped,
            crashes: self.roster().crashes(),
            ..self.recovery_tallies()
        }
    }

    /// Every counter the run can report, as one flat named-metric map:
    /// recovery and flow-scheduler counters, the protocol's own, and the
    /// tracer's gauges when tracing is on.
    fn metrics(&self) -> MetricMap {
        let base = self.base();
        let mut reg = StatsRegistry::new();
        self.recovery_counters().export_stats("recovery.", &mut reg);
        base.flows.stats().export_stats("flows.", &mut reg);
        self.export_protocol_stats(&mut reg);
        if base.trace.is_enabled() {
            reg.set("trace.emitted", base.trace.emitted());
            reg.set("trace.peak_depth", base.trace.peak_depth() as u64);
            reg.set("trace.overwritten", base.trace.overwritten());
        }
        reg.snapshot()
    }
}

/// Removes the entries `is_due` accepts, in `swap_remove` scan order —
/// the admission order of deferred joins, which the run's RNG draw
/// sequence (and so every golden) is pinned to.
fn take_due<T>(v: &mut Vec<T>, is_due: impl Fn(&T) -> bool) -> Vec<T> {
    let mut due = Vec::new();
    let mut i = 0;
    while i < v.len() {
        if is_due(&v[i]) {
            due.push(v.swap_remove(i));
        } else {
            i += 1;
        }
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_proto::FileSpec;

    /// A seeded substrate, clock at `t`.
    fn base_at(t: f64) -> SwarmBase {
        let mut b = SwarmBase::new(FileSpec::custom(8, 65536.0, 65536.0), 7);
        tick_to(&mut b, t);
        b
    }

    fn tick_to(b: &mut SwarmBase, t: f64) {
        while b.clock.now() < t {
            b.clock.tick();
        }
    }

    #[test]
    fn equal_join_times_admit_in_plan_order() {
        let plan = vec![
            PeerPlan::compliant(2.0, 300.0),
            PeerPlan::free_rider(1.0, 200.0),
            PeerPlan::compliant(1.0, 100.0),
            PeerPlan::compliant(1.0, 400.0),
        ];
        let mut b = base_at(1.0);
        let mut r = Roster::new(plan, 0.0, false);
        assert!(r.admit_due(&mut b, 0.5).is_empty(), "nobody is due yet");
        let first = r.admit_due(&mut b, 1.0);
        let caps: Vec<f64> = first.iter().map(|(_, p)| p.capacity).collect();
        assert_eq!(caps, [200.0, 100.0, 400.0], "ties keep plan order");
        assert!(first.windows(2).all(|w| w[0].0 < w[1].0), "ids follow admission order");
        assert!(r.strategy(first[0].0).is_free_rider());
        assert_eq!(b.peers.get(first[0].0).capacity, 0.0, "free-riders contribute nothing");
        assert!(r.admit_due(&mut b, 1.0).is_empty(), "each arrival admits once");
        tick_to(&mut b, 2.0);
        let second = r.admit_due(&mut b, 2.0);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].1.capacity, 300.0);
    }

    #[test]
    fn replacement_joins_one_step_after_the_finish() {
        let mut b = base_at(1.0);
        let mut r = Roster::new(vec![PeerPlan::compliant(1.0, 250.0)], 0.0, true);
        let id = r.admit_due(&mut b, 1.0)[0].0;
        tick_to(&mut b, 10.0);
        r.finish(&mut b, id, 10.0);
        b.depart(id);
        assert_eq!(b.peers.get(id).done_time, Some(10.0));
        assert!(r.admit_due(&mut b, 10.0).is_empty(), "not in the step that finished");
        assert!(!r.settled(&b), "a pending replacement keeps the run going");
        let next_step = 10.0 + DT;
        tick_to(&mut b, next_step);
        let joined = r.admit_due(&mut b, next_step);
        assert_eq!(joined.len(), 1, "exactly one newcomer, at now + dt");
        let (new_id, plan) = joined[0];
        assert_ne!(new_id, id);
        assert_eq!((plan.capacity, plan.strategy), (250.0, Strategy::Compliant));
        assert_eq!(b.peers.get(new_id).have.count(), 0, "replacements start empty");

        let mut quiet = Roster::new(vec![PeerPlan::compliant(1.0, 250.0)], 0.0, false);
        let mut b = base_at(1.0);
        let id = quiet.admit_due(&mut b, 1.0)[0].0;
        quiet.finish(&mut b, id, 1.0);
        b.depart(id);
        assert!(quiet.settled(&b), "without churn a finished swarm is drained");
    }

    #[test]
    fn whitewash_carries_pieces_and_lineage_and_rejoins_after_five_seconds() {
        let mut b = base_at(1.0);
        let mut r = Roster::new(vec![PeerPlan::free_rider(1.0, 500.0)], 0.0, false);
        let old = r.admit_due(&mut b, 1.0)[0].0;
        b.grant_piece(old, PieceId(2));
        b.grant_piece(old, PieceId(5));
        tick_to(&mut b, 20.0);
        b.depart(old);
        r.whitewash(&b, old, 20.0);
        assert!(!r.settled(&b), "the rejoin is still pending");
        tick_to(&mut b, 24.0);
        assert!(r.admit_due(&mut b, 24.0).is_empty(), "too early");
        tick_to(&mut b, 25.0);
        let (fresh, plan) = r.admit_due(&mut b, 25.0)[0];
        assert_ne!(fresh, old, "a fresh identity");
        assert_eq!(plan.capacity, 500.0, "planned capacity survives the reset");
        assert_eq!(r.strategy(fresh), Strategy::aggressive_free_rider());
        let have: Vec<PieceId> = b.peers.get(fresh).have.iter_set().collect();
        assert_eq!(have, [PieceId(2), PieceId(5)], "loot is carried over");
        assert_eq!(r.free_rider_results(&b), (vec![], 1), "two identities, one lineage");
        b.peers.get_mut(fresh).done_time = Some(41.0);
        assert_eq!(
            r.free_rider_results(&b),
            (vec![40.0], 0),
            "duration counts from the first identity's join"
        );
    }

    #[test]
    fn free_rider_durations_come_back_sorted() {
        let plan: Vec<PeerPlan> = (0..4).map(|i| PeerPlan::free_rider(1.0 + i as f64, 1.0)).collect();
        let mut b = base_at(4.0);
        let mut r = Roster::new(plan, 0.0, false);
        let ids: Vec<NodeId> = r.admit_due(&mut b, 4.0).into_iter().map(|(id, _)| id).collect();
        for (id, done) in ids.iter().zip([90.0, 30.0, 70.0]) {
            b.peers.get_mut(*id).done_time = Some(done);
        }
        assert_eq!(r.free_rider_results(&b), (vec![26.0, 66.0, 86.0], 1));
    }

    #[test]
    fn crash_at_in_the_past_clamps_to_the_admission_time() {
        let plan = vec![
            PeerPlan::compliant(5.0, 100.0).crashing_at(2.0),
            PeerPlan::compliant(5.0, 100.0).crashing_at(9.0),
            PeerPlan::compliant(5.0, 100.0),
            PeerPlan::compliant(5.0, 100.0).crashing_at(12.0),
        ];
        let mut b = base_at(5.0);
        let mut r = Roster::new(plan, 0.0, false);
        assert!(r.plans_crash());
        assert!(r.due_crashes(&b, 5.0).is_empty(), "nothing is scheduled before admission");
        let ids: Vec<NodeId> = r.admit_due(&mut b, 5.0).into_iter().map(|(id, _)| id).collect();
        assert!(r.due_crashes(&b, 4.0).is_empty(), "a past crash time clamps up to the join");
        assert_eq!(r.due_crashes(&b, 5.0), [ids[0]]);
        assert!(r.due_crashes(&b, 8.0).is_empty());
        assert_eq!(r.due_crashes(&b, 9.0), [ids[1]]);
        tick_to(&mut b, 10.0);
        b.depart(ids[3]);
        assert!(r.due_crashes(&b, 12.0).is_empty(), "a victim that already left is skipped");
        assert!(r.due_crashes(&b, 1e9).is_empty(), "each crash fires once; the third has none");
        assert_eq!(r.crashes(), 2, "the departed victim is not counted");
        assert!(!Roster::new(vec![PeerPlan::compliant(0.0, 1.0)], 0.0, false).plans_crash());
    }

    #[test]
    fn initial_pieces_go_to_compliant_joiners_only() {
        let plan = vec![PeerPlan::compliant(1.0, 100.0), PeerPlan::free_rider(1.0, 100.0)];
        let mut b = base_at(1.0);
        let mut r = Roster::new(plan, 0.5, false);
        let ids = r.admit_due(&mut b, 1.0);
        assert_eq!(b.peers.get(ids[0].0).have.count(), 4, "half of 8 pieces preloaded");
        assert_eq!(b.peers.get(ids[1].0).have.count(), 0);
    }

    #[test]
    fn settled_waits_for_arrivals_and_compliant_leechers() {
        let mut b = base_at(0.0);
        let mut r = Roster::new(vec![PeerPlan::compliant(3.0, 100.0)], 0.0, false);
        assert!(!r.settled(&b), "an arrival is still planned");
        tick_to(&mut b, 3.0);
        let id = r.admit_due(&mut b, 3.0)[0].0;
        assert!(!r.settled(&b), "a compliant leecher is still downloading");
        b.depart(id);
        assert!(r.settled(&b), "departed without finishing: nobody left to wait for");

        let mut late = Roster::new(vec![PeerPlan::compliant(1e9, 100.0)], 0.0, false);
        let mut b = base_at(0.0);
        assert!(late.admit_due(&mut b, 0.0).is_empty());
        assert!(!late.settled(&b));
        tick_to(&mut b, MAX_TIME);
        assert!(late.settled(&b), "MAX_TIME ends the run regardless");
    }
}
