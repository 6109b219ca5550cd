//! The baseline swarm driver: BitTorrent TFT, PropShare, FairTorrent and
//! Random BitTorrent over the shared substrate.
//!
//! All four baselines exchange 16 KB blocks (64 KB whole pieces for
//! FairTorrent, matching §IV-A) under different *upload scheduling*
//! policies; everything else — tracker, mesh, LRF piece selection, seeder
//! presence, leecher departures — is identical. One driver parameterized
//! by [`Baseline`] keeps their comparison honest: any performance gap
//! comes from the incentive policy, not from incidental implementation
//! differences.

use crate::config::{Baseline, BaselineConfig};
use std::collections::HashMap;
use tchain_attacks::{FluidDriver, PeerPlan, Roster, Strategy};
use tchain_obs::{trace_event, Event, Phase, StatsRegistry};
use tchain_proto::{Bitfield, FileSpec, Peer, PieceId, Role, SwarmBase, DT};
use tchain_sim::{FaultPlan, Flow, FlowId, IdHash, NodeId, Periodic, Route};

/// Regular unchoke slots: BitTorrent unchokes its top 4 contributors
/// (§II-A).
const UNCHOKE_SLOTS: usize = 4;

/// Optimistic unchoke slots (one, i.e. ~20 % of the slots, §II-A).
const OPTIMISTIC_SLOTS: usize = 1;

/// Rechoke period in seconds (every 10 s, §II-A).
const RECHOKE_PERIOD: f64 = 10.0;

/// Optimistic rotation period in seconds (every 30 s, §II-A).
const OPTIMISTIC_PERIOD: f64 = 30.0;

/// Concurrent uploads the seeder maintains.
const SEEDER_SLOTS: usize = 16;

/// Blocks pipelined per request (a flow carries this many blocks), as
/// real clients keep several outstanding requests per peer. Prevents
/// one-block-per-tick quantization from idling uplinks.
const PIPELINE_BLOCKS: u32 = 4;

/// PropShare's exploration share of upload bandwidth (20 %, Levin et
/// al., §V).
const PROPSHARE_EXPLORE: f64 = 0.2;

#[derive(Debug)]
struct BtState {
    /// Regular unchoke set (upload recipients).
    unchoked: Vec<NodeId>,
    /// Optimistic unchoke set.
    optimistic: Vec<NodeId>,
    /// PropShare per-recipient bandwidth weights.
    weights: HashMap<NodeId, f64, IdHash>,
    /// Active block flow per recipient.
    serving: HashMap<NodeId, FlowId, IdHash>,
    /// Bytes received per neighbor in the current 10 s window.
    window: HashMap<NodeId, f64, IdHash>,
    /// Previous completed window (the TFT ranking input).
    window_prev: HashMap<NodeId, f64, IdHash>,
    /// FairTorrent ledger: bytes sent minus bytes received, per neighbor.
    deficits: HashMap<NodeId, f64, IdHash>,
    /// Blocks received per partially downloaded piece.
    piece_progress: HashMap<PieceId, u32>,
    /// Which piece we are pulling from each uploader.
    pulling: HashMap<NodeId, PieceId, IdHash>,
    /// Bitfield over the file of the pieces currently assigned to some
    /// uploader (duplicate guard).
    in_flight: Bitfield,
}

impl BtState {
    fn new(pieces: usize) -> Self {
        BtState {
            unchoked: Vec::new(),
            optimistic: Vec::new(),
            weights: HashMap::default(),
            serving: HashMap::default(),
            window: HashMap::default(),
            window_prev: HashMap::default(),
            deficits: HashMap::default(),
            piece_progress: HashMap::new(),
            pulling: HashMap::default(),
            in_flight: Bitfield::new(pieces),
        }
    }
}

/// A swarm running one of the four baseline protocols.
///
/// ```
/// use tchain_baselines::{Baseline, BaselineConfig, BaselineSwarm};
/// use tchain_proto::FileSpec;
/// use tchain_attacks::{FluidDriver, PeerPlan};
/// use tchain_sim::kbps;
///
/// let file = FileSpec::custom(8, 64.0 * 1024.0, 16.0 * 1024.0);
/// let plan: Vec<PeerPlan> =
///     (0..6).map(|i| PeerPlan::compliant(i as f64 * 0.1, kbps(800.0))).collect();
/// let mut swarm = BaselineSwarm::new(
///     file,
///     BaselineConfig::default(),
///     Baseline::BitTorrent,
///     plan,
///     1,
/// );
/// swarm.run_until_done();
/// assert_eq!(swarm.base().completion_times(true).len(), 6);
/// ```
#[derive(Debug)]
pub struct BaselineSwarm {
    base: SwarmBase,
    policy: Baseline,
    states: Vec<BtState>,
    /// Plan-driven membership lifecycle, shared with `TChainSwarm`.
    roster: Roster,
    rechoke_timer: Periodic,
    optimistic_timer: Periodic,
    completed_buf: Vec<Flow>,
    blocks_moved: u64,
}

impl BaselineSwarm {
    /// Builds a baseline swarm sharing `file`: one seeder plus planned
    /// leecher arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(
        file: FileSpec,
        cfg: BaselineConfig,
        policy: Baseline,
        plan: Vec<PeerPlan>,
        seed: u64,
    ) -> Self {
        Self::with_faults(file, cfg, policy, plan, seed, FaultPlan::none())
    }

    /// Builds a baseline swarm under a fault-injection plan. Baselines
    /// have no report/key control plane; faults manifest as lost
    /// unchoke/block-start messages (the transfer simply does not start
    /// this round and is retried at the next rechoke) and lost tracker
    /// queries. [`FaultPlan::none()`] reproduces [`BaselineSwarm::new`]
    /// bit for bit.
    pub fn with_faults(
        file: FileSpec,
        cfg: BaselineConfig,
        policy: Baseline,
        plan: Vec<PeerPlan>,
        seed: u64,
        fplan: FaultPlan,
    ) -> Self {
        cfg.validate();
        let mut sw = BaselineSwarm {
            base: SwarmBase::with_faults(file, seed, fplan),
            policy,
            states: Vec::new(),
            roster: Roster::new(plan, cfg.initial_piece_fraction, cfg.replace_on_finish),
            rechoke_timer: Periodic::new(RECHOKE_PERIOD),
            optimistic_timer: Periodic::new(OPTIMISTIC_PERIOD),
            completed_buf: Vec::new(),
            blocks_moved: 0,
        };
        let pieces = sw.base.file.pieces;
        sw.states.resize_with(sw.base.peers.len(), || BtState::new(pieces));
        sw
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The policy this swarm runs.
    pub fn policy(&self) -> Baseline {
        self.policy
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Baselines carry no escrowed keys, so a crash is a graceful
    /// departure minus the goodbye: the same state cleanup, traced (and
    /// counted by the roster) separately.
    fn crash_peer(&mut self, id: NodeId, now: f64) {
        trace_event!(self.base.trace, now, Event::PeerCrash { peer: id.0 });
        self.remove_peer(id);
    }

    fn remove_peer(&mut self, id: NodeId) {
        let (out, inb) = self.base.depart(id);
        // Uploads we were making die; recipients' pull assignments clear.
        for f in out {
            let piece = PieceId(f.tag as u32);
            if self.base.peers.alive(f.dst) {
                let ds = &mut self.states[f.dst.index()];
                ds.pulling.remove(&id);
                ds.in_flight.unset(piece);
            }
        }
        // Uploads toward us die; uploaders' serving entries clear.
        for f in inb {
            if self.base.peers.alive(f.src) {
                self.states[f.src.index()].serving.remove(&id);
            }
        }
        let st = &mut self.states[id.index()];
        st.serving.clear();
        st.pulling.clear();
        st.in_flight = Bitfield::new(st.in_flight.len());
        st.unchoked.clear();
        st.optimistic.clear();
    }

    // ------------------------------------------------------------------
    // Unchoking policies
    // ------------------------------------------------------------------

    fn rechoke_round(&mut self, now: f64) {
        let ids: Vec<NodeId> = self.base.peers.iter_alive().map(|p| p.id).collect();
        for id in ids {
            // Window rotation happens for everyone (ranking input).
            let w = std::mem::take(&mut self.states[id.index()].window);
            self.states[id.index()].window_prev = w;
            if !self.base.peers.alive(id) {
                continue;
            }
            let peer = self.base.peers.get(id);
            let is_seeder = peer.role == Role::Seeder;
            let compliant = peer.compliant;
            if !compliant {
                // Free-riders upload nothing; large-view attackers
                // re-query the tracker every round (§IV-C).
                if let Strategy::FreeRider(frc) = self.roster.strategy(id) {
                    if frc.large_view {
                        self.base.acquire_neighbors(id, usize::MAX);
                    }
                }
                continue;
            }
            if self.policy == Baseline::FairTorrent && !is_seeder {
                continue; // FairTorrent leechers schedule per block.
            }
            let new_unchoked = if is_seeder {
                self.pick_random_interested(id, SEEDER_SLOTS)
            } else {
                match self.policy {
                    Baseline::BitTorrent => self.pick_top_contributors(id, UNCHOKE_SLOTS),
                    Baseline::RandomBt => self.pick_random_interested(
                        id,
                        UNCHOKE_SLOTS + OPTIMISTIC_SLOTS,
                    ),
                    Baseline::PropShare => self.propshare_allocate(id),
                    Baseline::FairTorrent => unreachable!("handled above"),
                }
            };
            self.apply_unchoke_set(id, new_unchoked);
            self.base.maybe_refill(id);
        }
        let _ = now;
    }

    /// BitTorrent TFT: the `k` *interested* neighbors that uploaded most
    /// to us in the previous window; any remaining slots go to random
    /// interested neighbors (as real clients do — an empty ranking, e.g.
    /// right after joining, must not leave the uplink idle).
    fn pick_top_contributors(&mut self, id: NodeId, k: usize) -> Vec<NodeId> {
        let interested = self.pick_random_interested(id, usize::MAX);
        let mut ranked: Vec<(f64, NodeId)> = interested
            .iter()
            .map(|&n| {
                (self.states[id.index()].window_prev.get(&n).copied().unwrap_or(0.0), n)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut set: Vec<NodeId> =
            ranked.iter().take_while(|(b, _)| *b > 0.0).take(k).map(|&(_, n)| n).collect();
        // Fill the remaining regular slots with random interested peers
        // (`pick_random_interested` already shuffled them).
        for (_, n) in ranked.iter().filter(|(b, _)| *b <= 0.0) {
            if set.len() >= k {
                break;
            }
            set.push(*n);
        }
        set
    }

    /// Random interested neighbors (optimistic-only policies + seeders).
    fn pick_random_interested(&mut self, id: NodeId, k: usize) -> Vec<NodeId> {
        let neighbors: Vec<NodeId> = self.base.mesh.neighbors(id).to_vec();
        let mut eligible: Vec<NodeId> = neighbors
            .into_iter()
            .filter(|&n| self.base.peers.alive(n))
            .filter(|&n| {
                let pn = self.base.peers.get(n);
                pn.role == Role::Leecher
                    && !pn.have.is_complete()
                    && pn.have.wants_from(&self.base.peers.get(id).have)
            })
            .collect();
        self.base.rng.shuffle(&mut eligible);
        eligible.truncate(k);
        eligible
    }

    /// PropShare: weights proportional to last-round contributions, with
    /// a fixed exploration share for one random non-contributor.
    fn propshare_allocate(&mut self, id: NodeId) -> Vec<NodeId> {
        let mut contributors: Vec<(NodeId, f64)> = self.states[id.index()]
            .window_prev
            .iter()
            .filter(|(n, b)| self.base.peers.alive(**n) && **b > 0.0)
            .map(|(&n, &b)| (n, b))
            .collect();
        // `HashMap` order differs run to run; the float `total` and the
        // `try_start_block` order (which draws) must not.
        contributors.sort_by_key(|&(n, _)| n);
        self.states[id.index()].weights.clear();
        if contributors.is_empty() {
            // Newcomer state: explore with plain optimistic unchokes.
            return self.pick_random_interested(id, UNCHOKE_SLOTS);
        }
        let total: f64 = contributors.iter().map(|(_, b)| b).sum();
        let mut set: Vec<NodeId> = Vec::with_capacity(contributors.len() + 1);
        for (n, b) in &contributors {
            self.states[id.index()].weights.insert(*n, *b);
            set.push(*n);
        }
        // Exploration: one random interested non-contributor gets the
        // reserved share (20 % of bandwidth → weight e/(1-e) × total).
        let explore_weight = PROPSHARE_EXPLORE / (1.0 - PROPSHARE_EXPLORE) * total;
        let candidates: Vec<NodeId> = self
            .base
            .mesh
            .neighbors(id)
            .iter()
            .copied()
            .filter(|n| !set.contains(n) && self.base.peers.alive(*n))
            .filter(|&n| {
                let pn = self.base.peers.get(n);
                pn.role == Role::Leecher && pn.have.wants_from(&self.base.peers.get(id).have)
            })
            .collect();
        if let Some(&n) = self.base.rng.choose(&candidates) {
            self.states[id.index()].weights.insert(n, explore_weight);
            set.push(n);
        }
        set
    }

    /// Installs a new unchoke set: chokes dropped peers (cancelling their
    /// block flows) and starts blocks toward new ones.
    fn apply_unchoke_set(&mut self, id: NodeId, new_set: Vec<NodeId>) {
        let old: Vec<NodeId> = self.states[id.index()].unchoked.clone();
        for &d in &old {
            if !new_set.contains(&d) && !self.states[id.index()].optimistic.contains(&d) {
                self.choke(id, d);
            }
        }
        for &d in &new_set {
            if !old.contains(&d) {
                trace_event!(
                    self.base.trace,
                    self.base.clock.now(),
                    Event::Unchoke { peer: id.0, target: d.0, optimistic: false }
                );
            }
        }
        self.states[id.index()].unchoked = new_set.clone();
        for d in new_set {
            self.try_start_block(id, d);
        }
    }

    fn optimistic_round(&mut self) {
        let ids: Vec<NodeId> = self
            .base
            .peers
            .iter_alive()
            .filter(|p| p.role == Role::Leecher && p.compliant)
            .map(|p| p.id)
            .collect();
        for id in ids {
            let old = std::mem::take(&mut self.states[id.index()].optimistic);
            for d in old {
                if !self.states[id.index()].unchoked.contains(&d) {
                    self.choke(id, d);
                }
            }
            // A random interested neighbor outside the regular set
            // (§II-A: "regardless of its past upload history").
            let unchoked = self.states[id.index()].unchoked.clone();
            let neighbors: Vec<NodeId> = self.base.mesh.neighbors(id).to_vec();
            let candidates: Vec<NodeId> = neighbors
                .into_iter()
                .filter(|&n| self.base.peers.alive(n) && !unchoked.contains(&n))
                .filter(|&n| {
                    let pn = self.base.peers.get(n);
                    pn.role == Role::Leecher
                        && pn.have.wants_from(&self.base.peers.get(id).have)
                })
                .collect();
            let picks = self.base.rng.sample(&candidates, OPTIMISTIC_SLOTS);
            self.states[id.index()].optimistic = picks.clone();
            for d in picks {
                trace_event!(
                    self.base.trace,
                    self.base.clock.now(),
                    Event::Unchoke { peer: id.0, target: d.0, optimistic: true }
                );
                self.try_start_block(id, d);
            }
        }
    }

    /// FairTorrent: an idle uploader sends the next block to the
    /// interested neighbor with the lowest deficit.
    fn fairtorrent_kick(&mut self) {
        let ids: Vec<NodeId> = self
            .base
            .peers
            .iter_alive()
            .filter(|p| p.compliant && p.capacity > 0.0)
            .map(|p| p.id)
            .collect();
        for u in ids {
            self.fair_serve(u);
        }
    }

    fn fair_serve(&mut self, u: NodeId) {
        // Two outstanding blocks keep the uplink busy across tick
        // boundaries (the scheduler's water-filling hands a finishing
        // block's leftover capacity to the other one).
        if !self.base.peers.alive(u) || self.states[u.index()].serving.len() >= 2 {
            return;
        }
        let mut ranked: Vec<(f64, NodeId)> = {
            let neighbors: Vec<NodeId> = self.base.mesh.neighbors(u).to_vec();
            neighbors
                .into_iter()
                .filter(|&n| self.base.peers.alive(n))
                .filter(|&n| {
                    let pn = self.base.peers.get(n);
                    pn.role == Role::Leecher
                        && pn.have.wants_from(&self.base.peers.get(u).have)
                })
                .map(|n| (self.states[u.index()].deficits.get(&n).copied().unwrap_or(0.0), n))
                .collect()
        };
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, d) in ranked {
            if self.try_start_block(u, d) && self.states[u.index()].serving.len() >= 2 {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Block transfer
    // ------------------------------------------------------------------

    /// Starts (or continues) a block flow `u → d`. Returns `false` when no
    /// piece can be assigned (not interested / everything in flight).
    fn try_start_block(&mut self, u: NodeId, d: NodeId) -> bool {
        if u == d || !self.base.peers.alive(u) || !self.base.peers.alive(d) {
            return false;
        }
        if self.states[u.index()].serving.contains_key(&d) {
            return true; // already streaming
        }
        // Fault injection: the unchoke/request handshake is a control
        // message. A dropped one means the block does not start this
        // round; the next rechoke (or FairTorrent kick) is the natural
        // retry. Latency models do not delay data-plane starts — only
        // drops apply. No-op on the fault-free path.
        if self.base.faults.active() {
            let now = self.base.clock.now();
            if matches!(self.base.faults.route(now), Route::Dropped) {
                return false;
            }
        }
        // Current assignment, or pick a new piece by LRF.
        let piece = match self.states[d.index()].pulling.get(&u).copied() {
            Some(p) if !self.base.peers.get(d).have.has(p) => p,
            _ => {
                let picked = {
                    let d_have = &self.base.peers.get(d).have;
                    let u_have = &self.base.peers.get(u).have;
                    let in_flight = &self.states[d.index()].in_flight;
                    self.base.mesh.lrf_pick(
                        d,
                        d_have,
                        u_have,
                        &mut self.base.rng,
                        u32::MAX,
                        &[in_flight],
                    )
                };
                match picked {
                    Some(p) => {
                        self.states[d.index()].pulling.insert(u, p);
                        self.states[d.index()].in_flight.set(p);
                        p
                    }
                    None => return false,
                }
            }
        };
        let weight = self.states[u.index()].weights.get(&d).copied().unwrap_or(1.0);
        // Pipeline several blocks per request, bounded by what the piece
        // still needs.
        let blocks_needed = self.base.file.blocks_per_piece() as u32;
        let progress = self.states[d.index()].piece_progress.get(&piece).copied().unwrap_or(0);
        let blocks = (blocks_needed - progress).clamp(1, PIPELINE_BLOCKS);
        let fid = self.base.flows.start(
            u,
            d,
            self.base.file.block_size * blocks as f64,
            weight.max(1e-6),
            piece.0 as u64,
        );
        self.states[u.index()].serving.insert(d, fid);
        true
    }

    /// Chokes `d`: cancels the in-flight block (progress on that block is
    /// lost; completed blocks of the piece are kept and resumable) and
    /// clears the pull assignment so the piece is assignable elsewhere.
    fn choke(&mut self, u: NodeId, d: NodeId) {
        trace_event!(
            self.base.trace,
            self.base.clock.now(),
            Event::Choke { peer: u.0, target: d.0 }
        );
        if let Some(fid) = self.states[u.index()].serving.remove(&d) {
            self.base.flows.cancel(fid);
        }
        if self.base.peers.alive(d) {
            let ds = &mut self.states[d.index()];
            if let Some(p) = ds.pulling.remove(&u) {
                ds.in_flight.unset(p);
            }
        }
    }

    fn on_block_complete(&mut self, f: Flow, now: f64) {
        let (u, d) = (f.src, f.dst);
        let piece = PieceId(f.tag as u32);
        let block = f.size;
        let blocks_in_flow =
            (f.size / self.base.file.block_size).round().max(1.0) as u32;
        self.blocks_moved += blocks_in_flow as u64;
        self.states[u.index()].serving.remove(&d);
        if !self.base.peers.alive(d) {
            return;
        }
        // Accounting: rate windows and FairTorrent deficits.
        *self.states[d.index()].window.entry(u).or_insert(0.0) += block;
        *self.states[u.index()].deficits.entry(d).or_insert(0.0) += block;
        *self.states[d.index()].deficits.entry(u).or_insert(0.0) -= block;
        // Piece assembly.
        let blocks_needed = self.base.file.blocks_per_piece() as u32;
        let progress = {
            let e = self.states[d.index()].piece_progress.entry(piece).or_insert(0);
            *e += blocks_in_flow;
            *e
        };
        let mut piece_done = false;
        if progress >= blocks_needed {
            self.states[d.index()].piece_progress.remove(&piece);
            self.states[d.index()].in_flight.unset(piece);
            self.states[d.index()].pulling.remove(&u);
            self.base.peers.get_mut(u).pieces_up += 1;
            piece_done = true;
            let complete = self.base.grant_piece(d, piece);
            if complete {
                self.roster.finish(&mut self.base, d, now);
                self.remove_peer(d);
                if self.base.peers.alive(u) && self.policy == Baseline::FairTorrent {
                    self.fair_serve(u);
                }
                return;
            }
            // A whitewashing free-rider resets its identity "as soon as it
            // gets one (free) piece" (§IV-C).
            if let Strategy::FreeRider(frc) = self.roster.strategy(d) {
                if frc.whitewash {
                    self.remove_peer(d);
                    self.roster.whitewash(&self.base, d, now);
                    if self.base.peers.alive(u) && self.policy == Baseline::FairTorrent {
                        self.fair_serve(u);
                    }
                    return;
                }
            }
        }
        // Keep the pipe busy — and never leave a pull assignment behind
        // without a live flow (it would poison the piece as permanently
        // "in flight" if this pair never resumes).
        if !self.base.peers.alive(u) {
            if !piece_done {
                let ds = &mut self.states[d.index()];
                if let Some(p) = ds.pulling.remove(&u) {
                    ds.in_flight.unset(p);
                }
            }
            return;
        }
        match self.policy {
            Baseline::FairTorrent => {
                // FairTorrent re-decides the recipient per block: release
                // the assignment (progress is kept and resumable), then
                // serve the lowest-deficit neighbor.
                if !piece_done {
                    let ds = &mut self.states[d.index()];
                    if let Some(p) = ds.pulling.remove(&u) {
                        ds.in_flight.unset(p);
                    }
                }
                if self.base.peers.get(u).role == Role::Seeder || self.base.peers.get(u).compliant
                {
                    self.fair_serve(u);
                }
            }
            _ => {
                let still_unchoked = self.states[u.index()].unchoked.contains(&d)
                    || self.states[u.index()].optimistic.contains(&d);
                let mut continued = false;
                if still_unchoked {
                    continued = self.try_start_block(u, d);
                }
                if !continued && !piece_done {
                    let ds = &mut self.states[d.index()];
                    if let Some(p) = ds.pulling.remove(&u) {
                        ds.in_flight.unset(p);
                    }
                }
            }
        }
    }
}

impl FluidDriver for BaselineSwarm {
    fn base(&self) -> &SwarmBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut SwarmBase {
        &mut self.base
    }

    fn roster(&self) -> &Roster {
        &self.roster
    }

    fn step(&mut self) {
        let now = self.base.clock.tick();
        let p = self.base.profiler.begin();
        for id in self.roster.due_crashes(&self.base, now) {
            self.crash_peer(id, now);
        }
        self.roster.admit_due(&mut self.base, now);
        let pieces = self.base.file.pieces;
        self.states.resize_with(self.base.peers.len(), || BtState::new(pieces));
        self.base.profiler.end(Phase::Membership, p);
        let p = self.base.profiler.begin();
        if self.rechoke_timer.fire(now) {
            self.rechoke_round(now);
        }
        if self.optimistic_timer.fire(now) && self.policy == Baseline::BitTorrent {
            self.optimistic_round();
        }
        if self.policy == Baseline::FairTorrent {
            self.fairtorrent_kick();
        }
        self.base.profiler.end(Phase::Rechoke, p);
        let mut completed = std::mem::take(&mut self.completed_buf);
        completed.clear();
        let p = self.base.profiler.begin();
        self.base.flows.advance(DT, &mut completed);
        self.base.profiler.end(Phase::FlowAdvance, p);
        let p = self.base.profiler.begin();
        for f in completed.drain(..) {
            self.on_block_complete(f, now);
        }
        self.base.profiler.end(Phase::Completions, p);
        self.completed_buf = completed;
    }

    /// Bytes downloaded per byte uploaded.
    fn fairness_of(&self, p: &Peer) -> Option<f64> {
        let up = self.base.flows.uploaded(p.id);
        (up > 0.0).then(|| self.base.flows.downloaded(p.id) / up)
    }

    fn export_protocol_stats(&self, reg: &mut StatsRegistry) {
        reg.set("blocks.moved", self.blocks_moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::{kbps, kib};

    fn small_file(pieces: usize) -> FileSpec {
        FileSpec::custom(pieces, kib(64.0), kib(16.0))
    }

    fn flash_plan(n: usize, cap_kbps: f64) -> Vec<PeerPlan> {
        (0..n).map(|i| PeerPlan::compliant(0.5 + i as f64 * 0.01, kbps(cap_kbps))).collect()
    }

    fn run_policy(policy: Baseline, n: usize, seed: u64) -> BaselineSwarm {
        let mut sw = BaselineSwarm::new(
            small_file(32),
            BaselineConfig::default(),
            policy,
            flash_plan(n, 800.0),
            seed,
        );
        sw.run_until_done();
        sw
    }

    #[test]
    fn bittorrent_compliant_swarm_finishes() {
        let sw = run_policy(Baseline::BitTorrent, 16, 1);
        assert_eq!(sw.base().completion_times(true).len(), 16);
        assert!(sw.blocks_moved > 0);
    }

    #[test]
    fn propshare_compliant_swarm_finishes() {
        let sw = run_policy(Baseline::PropShare, 16, 2);
        assert_eq!(sw.base().completion_times(true).len(), 16);
    }

    #[test]
    fn fairtorrent_compliant_swarm_finishes() {
        let sw = run_policy(Baseline::FairTorrent, 16, 3);
        assert_eq!(sw.base().completion_times(true).len(), 16);
    }

    #[test]
    fn random_bt_compliant_swarm_finishes() {
        let sw = run_policy(Baseline::RandomBt, 16, 4);
        assert_eq!(sw.base().completion_times(true).len(), 16);
    }

    #[test]
    fn free_riders_do_finish_in_bittorrent() {
        // The §IV-C contrast with T-Chain: BitTorrent's altruism (seeder +
        // optimistic unchokes) lets zero-upload free-riders complete.
        let mut plan = flash_plan(16, 800.0);
        for i in 0..4 {
            plan.push(PeerPlan::free_rider(0.7 + i as f64 * 0.01, kbps(800.0)));
        }
        let mut sw = BaselineSwarm::new(
            small_file(16),
            BaselineConfig::default(),
            Baseline::BitTorrent,
            plan,
            5,
        );
        sw.run_to(6000.0);
        assert_eq!(sw.base().completion_times(true).len(), 16);
        assert!(
            !sw.base().completion_times(false).is_empty(),
            "free-riders eventually finish in BitTorrent"
        );
    }

    #[test]
    fn free_riders_slow_down_compliant_leechers() {
        let clean = run_policy(Baseline::BitTorrent, 12, 6);
        let t_clean: f64 = {
            let v = clean.base().completion_times(true);
            v.iter().sum::<f64>() / v.len() as f64
        };
        let mut plan = flash_plan(12, 800.0);
        for i in 0..6 {
            plan.push(PeerPlan::free_rider(0.7 + i as f64 * 0.01, kbps(800.0)));
        }
        let mut sw = BaselineSwarm::new(
            small_file(32),
            BaselineConfig::default(),
            Baseline::BitTorrent,
            plan,
            6,
        );
        sw.run_to(8000.0);
        let v = sw.base().completion_times(true);
        assert_eq!(v.len(), 12);
        let t_fr: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            t_fr > t_clean * 0.9,
            "free-riders should not speed up compliant leechers: {t_fr} vs {t_clean}"
        );
    }

    #[test]
    fn fairtorrent_deficits_balance_contributions() {
        let sw = run_policy(Baseline::FairTorrent, 12, 7);
        let ff = sw.fairness_factors();
        assert!(!ff.is_empty());
        let mean = ff.iter().sum::<f64>() / ff.len() as f64;
        assert!((0.4..2.5).contains(&mean), "fairness factor mean {mean}");
    }

    #[test]
    fn whitewash_creates_fresh_identities() {
        let mut plan = flash_plan(10, 800.0);
        plan.push(PeerPlan::free_rider(0.7, kbps(800.0)));
        let mut sw = BaselineSwarm::new(
            small_file(32),
            BaselineConfig::default(),
            Baseline::FairTorrent,
            plan,
            8,
        );
        sw.run_to(3000.0);
        let identities = sw
            .base()
            .peers
            .iter()
            .filter(|p| p.role == Role::Leecher && !p.compliant)
            .count();
        assert!(identities > 1, "whitewashing spawned replacement identities: {identities}");
    }

    #[test]
    fn propshare_weights_bias_bandwidth() {
        let sw = run_policy(Baseline::PropShare, 14, 10);
        // Smoke check: the run completes and produced meaningful uploads.
        let total_up: f64 = sw
            .base()
            .peers
            .iter()
            .filter(|p| p.role == Role::Leecher)
            .map(|p| sw.base().flows.uploaded(p.id))
            .sum();
        assert!(total_up > 0.0);
    }
}
