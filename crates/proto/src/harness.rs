//! Shared scaffolding for swarm protocol drivers.
//!
//! Every protocol evaluated in the paper (T-Chain, BitTorrent, PropShare,
//! FairTorrent, Random BitTorrent) shares the same swarm mechanics: one
//! persistent seeder, leechers that join via the tracker, maintain 30–55
//! neighbors, announce completed pieces, and depart when done (§IV-A).
//! [`SwarmBase`] bundles that state, with the run's tracer and phase
//! profiler, and answers the questions that need nothing else (who
//! finished and when, who never did); `tchain_attacks::Roster` drives its
//! plan-based membership, and the drivers in `tchain-core` and
//! `tchain-baselines` layer their protocol logic on top.

use crate::control::Envelope;
use crate::{Bitfield, FileSpec, Mesh, PeerTable, PieceId, Role, Tracker};
use tchain_obs::{trace_event, Event, PhaseProfiler, Tracer};
use tchain_sim::{Clock, DelayQueue, FaultPlan, FaultState, Flow, FlowScheduler, NodeId, Route, SimRng};

/// Members returned per tracker query (§IV-A: "a list of 50 randomly
/// selected neighbors").
pub const LIST_SIZE: usize = 50;

/// Re-query the tracker when the neighbor count falls below this
/// (§IV-A: "whenever its list of neighbors falls below 30").
const REFILL_BELOW: usize = 30;

/// Hard cap on concurrent neighbors (§IV-A: "at most 55 neighbors").
const MAX_NEIGHBORS: usize = 55;

/// Seeder upload capacity in bytes/s (paper: 6000 Kbps, §IV-A).
const SEEDER_CAPACITY: f64 = tchain_sim::kbps(6000.0);

/// Simulation step in seconds.
pub const DT: f64 = 1.0;

/// Hard stop for a run, in seconds.
pub const MAX_TIME: f64 = 50_000.0;

/// The state every swarm driver owns: membership, mesh, tracker, bandwidth
/// scheduler, clock, the run's RNG and its instrumentation.
#[derive(Debug)]
pub struct SwarmBase {
    /// The shared file.
    pub file: FileSpec,
    /// Simulated clock.
    pub clock: Clock,
    /// All peers ever admitted.
    pub peers: PeerTable,
    /// Neighbor mesh + availability counts.
    pub mesh: Mesh,
    /// Membership registry.
    pub tracker: Tracker,
    /// Upload bandwidth model.
    pub flows: FlowScheduler,
    /// The run's random source.
    pub rng: SimRng,
    /// Fault-injection runtime (inert under [`FaultPlan::none`]).
    pub faults: FaultState,
    /// Delayed control messages awaiting delivery (empty on the
    /// fault-free path).
    pub ctrl: DelayQueue<Envelope>,
    /// Structured event tracer (disabled by default; see `tchain-obs`).
    pub trace: Tracer,
    /// Per-phase wall-clock profiler of the driver's step (disabled, so
    /// branch-only, by default).
    pub profiler: PhaseProfiler,
    /// The single persistent seeder, admitted at construction.
    pub seeder: NodeId,
}

impl SwarmBase {
    /// Creates a swarm sharing `file` whose only member is its seeder, for
    /// a seeded run.
    pub fn new(file: FileSpec, seed: u64) -> Self {
        SwarmBase::with_faults(file, seed, FaultPlan::none())
    }

    /// Creates a swarm (its seeder admitted) with a fault-injection plan.
    /// The fault RNG stream is derived from the plan's own seed, so the
    /// same `seed` produces the same swarm dynamics whether or not faults
    /// are active.
    pub fn with_faults(file: FileSpec, seed: u64, plan: FaultPlan) -> Self {
        let mut base = SwarmBase {
            file,
            clock: Clock::new(DT),
            peers: PeerTable::new(),
            mesh: Mesh::new(file.pieces),
            tracker: Tracker::new(),
            flows: FlowScheduler::new(),
            rng: SimRng::new(seed),
            faults: FaultState::new(plan),
            ctrl: DelayQueue::new(),
            trace: Tracer::disabled(),
            profiler: PhaseProfiler::disabled(),
            seeder: NodeId(0),
        };
        base.seeder = base.admit(Role::Seeder, SEEDER_CAPACITY, true);
        base
    }

    /// Switches on structured event tracing with the given ring capacity.
    /// Tracing only observes the run; enabling it never changes outcomes.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Tracer::with_capacity(capacity);
    }

    /// Switches on per-phase wall-clock profiling of the driver's step.
    /// Like tracing, it only observes the run.
    pub fn enable_profiling(&mut self) {
        self.profiler = PhaseProfiler::enabled();
    }

    /// Routes a control message through the fault layer. Returns the
    /// envelope when it should be handled synchronously (always the case
    /// without faults); `None` when it was parked for later or lost.
    pub fn send_control(&mut self, env: Envelope) -> Option<Envelope> {
        let now = self.clock.now();
        match self.faults.route(now) {
            Route::Now => Some(env),
            Route::At(t) => {
                trace_event!(
                    self.trace,
                    now,
                    Event::CtrlDelayed { from: env.from.0, to: env.to.0, until: t }
                );
                self.ctrl.push(t, env);
                None
            }
            Route::Dropped => {
                trace_event!(
                    self.trace,
                    now,
                    Event::CtrlDropped { from: env.from.0, to: env.to.0 }
                );
                None
            }
        }
    }

    /// Pops the next delayed control message due at the current time.
    pub fn poll_control(&mut self) -> Option<Envelope> {
        self.ctrl.pop_due(self.clock.now())
    }

    /// Admits a peer: registers it with the tracker, installs its upload
    /// capacity and connects it to an initial random neighbor list.
    pub fn admit(&mut self, role: Role, capacity: f64, compliant: bool) -> NodeId {
        self.admit_with_pieces(role, capacity, compliant, std::iter::empty())
    }

    /// Admits a peer that already holds some pieces — Fig. 6(b)'s
    /// pre-occupied initial pieces, or a whitewashing attacker carrying its
    /// progress into a fresh identity. Pieces are installed *before* the
    /// peer connects so neighbors' availability counts stay consistent.
    pub fn admit_with_pieces(
        &mut self,
        role: Role,
        capacity: f64,
        compliant: bool,
        pieces: impl IntoIterator<Item = PieceId>,
    ) -> NodeId {
        let now = self.clock.now();
        let id = self.peers.add(role, capacity, now, self.file.pieces, compliant);
        for p in pieces {
            self.peers.get_mut(id).have.set(p);
        }
        self.flows.set_capacity(id, capacity);
        self.tracker.register(id);
        self.acquire_neighbors(id, MAX_NEIGHBORS);
        trace_event!(self.trace, now, Event::PeerJoin { peer: id.0, compliant });
        id
    }

    /// Queries the tracker once and connects to returned members, up to
    /// `cap` neighbors for `id` (pass `usize::MAX` for large-view
    /// attackers who ignore the cap; the *other* side's cap still holds).
    pub fn acquire_neighbors(&mut self, id: NodeId, cap: usize) {
        let list = self.tracker.random_members(id, LIST_SIZE, &mut self.rng);
        for m in list {
            if self.mesh.degree(id) >= cap {
                break;
            }
            if self.peers.alive(m) && self.mesh.degree(m) < MAX_NEIGHBORS {
                self.mesh.connect(id, m, &self.peers);
            }
        }
    }

    /// Re-queries the tracker when the neighbor count fell below the
    /// refill threshold (§IV-A). Under fault injection the query itself
    /// can be lost, in which case the peer retries on a later tick.
    pub fn maybe_refill(&mut self, id: NodeId) {
        if self.mesh.degree(id) < REFILL_BELOW {
            if self.faults.tracker_query_lost() {
                return;
            }
            self.acquire_neighbors(id, MAX_NEIGHBORS);
        }
    }

    /// Records that `id` completed (downloaded *and decrypted*) piece `p`:
    /// sets the bit, bumps the download counter and broadcasts the `Have`.
    /// Returns `true` if the peer now holds the entire file.
    pub fn grant_piece(&mut self, id: NodeId, p: PieceId) -> bool {
        let peer = self.peers.get_mut(id);
        if peer.have.set(p) {
            peer.pieces_down += 1;
            self.mesh.announce(id, p);
        }
        self.peers.get(id).have.is_complete()
    }

    /// Removes a peer from the swarm: unregisters it, detaches it from the
    /// mesh and cancels its flows. Returns `(outbound, inbound)` cancelled
    /// flows so the driver can clean up protocol state (e.g. reassign a
    /// payee per §II-B4).
    pub fn depart(&mut self, id: NodeId) -> (Vec<Flow>, Vec<Flow>) {
        debug_assert!(self.peers.alive(id), "departing peer must be alive");
        let now = self.clock.now();
        self.peers.get_mut(id).left_time = Some(now);
        self.tracker.unregister(id);
        self.mesh.remove(id, &self.peers);
        let out = self.flows.cancel_all_from(id);
        let inb = self.flows.cancel_all_to(id);
        trace_event!(self.trace, now, Event::PeerDepart { peer: id.0 });
        (out, inb)
    }

    /// Convenience: the bitfield of a peer (cloned views are avoided by
    /// borrowing; use `peers.get(id).have` when no second borrow is live).
    pub fn have(&self, id: NodeId) -> &Bitfield {
        &self.peers.get(id).have
    }

    /// Ids of the leechers currently in the swarm, in admission order.
    pub fn alive_leechers(&self) -> Vec<NodeId> {
        self.peers.iter_alive().filter(|p| p.role == Role::Leecher).map(|p| p.id).collect()
    }

    /// Download completion times (seconds from join to finish) of leechers
    /// that finished, filtered to compliant or free-riding peers.
    pub fn completion_times(&self, compliant: bool) -> Vec<f64> {
        self.peers
            .iter()
            .filter(|p| p.role == Role::Leecher && p.compliant == compliant)
            .filter_map(|p| p.done_time.map(|d| d - p.join_time))
            .collect()
    }

    /// Leechers (by compliance) that joined but never finished.
    pub fn unfinished(&self, compliant: bool) -> usize {
        self.peers
            .iter()
            .filter(|p| p.role == Role::Leecher && p.compliant == compliant)
            .filter(|p| p.done_time.is_none())
            .count()
    }

    /// Mean uplink utilization over compliant leechers that have departed
    /// or finished: bytes uploaded divided by capacity × residence time
    /// (Fig. 3(b)).
    pub fn mean_uplink_utilization(&self) -> f64 {
        let now = self.clock.now();
        let mut total = 0.0;
        let mut n = 0usize;
        for p in self.peers.iter() {
            if p.role != Role::Leecher || !p.compliant || p.capacity <= 0.0 {
                continue;
            }
            let res = p.residence(now);
            if res <= 0.0 {
                continue;
            }
            total += (self.flows.uploaded(p.id) / (p.capacity * res)).min(1.0);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::kbps;

    fn base() -> SwarmBase {
        SwarmBase::new(FileSpec::tchain(1.0), 42)
    }

    #[test]
    fn seeder_then_leechers_connect() {
        let mut b = base();
        let s = b.seeder;
        assert!(b.peers.get(s).have.is_complete());
        let l1 = b.admit(Role::Leecher, kbps(400.0), true);
        assert!(b.mesh.are_neighbors(l1, s), "first leecher connects to the only member");
        let l2 = b.admit(Role::Leecher, kbps(1200.0), true);
        assert!(b.mesh.degree(l2) == 2);
    }

    #[test]
    fn grant_piece_announces_and_completes() {
        let mut b = base();
        let l = b.admit(Role::Leecher, kbps(400.0), true);
        let pieces = b.file.pieces;
        for i in 0..pieces as u32 {
            let done = b.grant_piece(l, PieceId(i));
            assert_eq!(done, i as usize == pieces - 1);
        }
        assert_eq!(b.peers.get(l).pieces_down as usize, pieces);
    }

    #[test]
    fn depart_cleans_up() {
        let mut b = base();
        let (s, l) = (b.seeder, b.admit(Role::Leecher, kbps(400.0), true));
        b.flows.start(s, l, 100.0, 1.0, 0);
        b.flows.start(l, s, 100.0, 1.0, 0);
        let (out, inb) = b.depart(l);
        assert_eq!(out.len(), 1);
        assert_eq!(inb.len(), 1);
        assert!(!b.peers.alive(l));
        assert!(!b.tracker.contains(l));
        assert_eq!(b.mesh.degree(s), 0);
    }

    #[test]
    fn refill_queries_when_below_threshold() {
        let mut b = base();
        for _ in 0..40 {
            b.admit(Role::Leecher, kbps(400.0), true);
        }
        let l = b.admit(Role::Leecher, kbps(400.0), true);
        // Disconnect everyone; refill should restore at least REFILL_BELOW.
        let ns: Vec<_> = b.mesh.neighbors(l).to_vec();
        for n in ns {
            b.mesh.disconnect(l, n, &b.peers);
        }
        assert_eq!(b.mesh.degree(l), 0);
        b.maybe_refill(l);
        assert!(b.mesh.degree(l) >= REFILL_BELOW, "degree {}", b.mesh.degree(l));
    }

    #[test]
    fn control_is_synchronous_without_faults() {
        let mut b = base();
        let env = Envelope {
            from: NodeId(1),
            to: NodeId(2),
            msg: crate::control::ControlMsg::Key { txn: 9 },
        };
        assert_eq!(b.send_control(env), Some(env));
        assert!(b.poll_control().is_none(), "nothing ever queued");
        assert!(b.ctrl.is_empty());
    }

    #[test]
    fn delayed_control_is_queued_and_drained() {
        let plan = tchain_sim::FaultPlan { seed: 3, ..tchain_sim::FaultPlan::none() }
            .with_latency(tchain_sim::LatencyModel::Fixed(2.5));
        let mut b = SwarmBase::with_faults(FileSpec::tchain(1.0), 42, plan);
        let env = Envelope {
            from: NodeId(1),
            to: NodeId(2),
            msg: crate::control::ControlMsg::Report { txn: 1, falsified: false },
        };
        assert_eq!(b.send_control(env), None, "parked, not handled now");
        assert!(b.poll_control().is_none(), "not due yet");
        b.clock.tick();
        b.clock.tick();
        assert!(b.poll_control().is_none(), "still not due at t = 2");
        b.clock.tick();
        assert_eq!(b.poll_control(), Some(env), "due at the first tick past 2.5");
        assert!(b.poll_control().is_none());
    }

    #[test]
    fn utilization_counts_only_compliant_leechers() {
        let mut b = base();
        let (s, l) = (b.seeder, b.admit(Role::Leecher, 100.0, true));
        let f = b.admit(Role::Leecher, 0.0, false);
        // l uploads at full capacity for 10 s.
        b.flows.start(l, s, 2000.0, 1.0, 0);
        let mut done = Vec::new();
        for _ in 0..10 {
            b.clock.tick();
            b.flows.advance(1.0, &mut done);
        }
        let u = b.mean_uplink_utilization();
        assert!((u - 1.0).abs() < 1e-6, "one fully-utilized compliant leecher: {u}");
        let _ = f;
    }
}
