//! Swarm-in-process harness: boot N peers on a [`Transport`], run the
//! real protocol to completion, audit every frame.
//!
//! The harness owns the things a peer cannot see: the transport, the
//! tracker rendezvous (`tchain-proto`), the optional per-peer telemetry
//! and — the point of the exercise — an [`Observer`] that watches every
//! delivered frame and checks the T-Chain incentive invariant on the
//! wire: **no key travels without a reciprocation behind it** (the
//! release rules live in [`crate::observer`]).
//!
//! [`SwarmHarness::run`] is a staged tick loop — drain, dispatch, tick
//! due peers, flush, membership, done check — and every membership
//! change (boot, churn, crash-restart, whitewash, large-view re-query)
//! is a composition of three primitives: `enroll`, `greet` and `evict`.

use crate::content::{digest, Content};
use crate::frame::Frame;
pub use crate::observer::Observer;
use crate::runtime::{NetConfig, Outbox, PeerCounters, PeerRole, PeerRuntime};
use crate::sched::{IdSet, TimerWheel};
use crate::strategy::{
    strategy_label, AttackerState, ColluderRegistry, Strategy, RECHOKE_PERIOD,
    WHITEWASH_REJOIN_DELAY,
};
use crate::telemetry::{virt_ms, FlightDump, FlightRecorder, PeerTelemetry, SwarmTelemetry};
use crate::transport::{
    CausalMeta, ChannelMesh, ChaosRecord, Delivery, NetError, Transport, TransportStats,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tchain_obs::{Event, MetricName, OracleKind, TraceRecord, Tracer, WireMsg};
use tchain_proto::{Tracker, LIST_SIZE};
use tchain_proto::wire::Message;
use tchain_sim::{
    Act, ChaosPlan, ChaosState, ChurnPlan, ChurnState, ExplorePlan, FaultPlan, IdHash, NodeId,
    SchedPerturber, Schedule, SimRng,
};

/// Scenario parameters for one swarm run.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Total peers including the single seeder (id 0).
    pub peers: u32,
    /// Per-peer behavioural strategies `(peer id, strategy)` — the
    /// shared `tchain-attacks` vocabulary, one entry per strategic
    /// peer. Absent ids are compliant; id 0 (the seeder) must not
    /// appear.
    pub strategies: Vec<(u32, Strategy)>,
    /// Pieces in the shared file.
    pub pieces: usize,
    /// Bytes per piece.
    pub piece_len: usize,
    /// Master seed: content, per-peer RNG and keyrings fork from it.
    pub seed: u64,
    /// Peer-level protocol tunables.
    pub net: NetConfig,
    /// Fault plan for the mesh transport: frame loss and a latency
    /// model. It must schedule no crashes (crash peers through `chaos`).
    pub plan: FaultPlan,
    /// Byzantine chaos plan: frame corruption, duplication, reordering,
    /// resets and crash-restart schedules.
    pub chaos: ChaosPlan,
    /// Membership churn schedule: staggered joins, flash crowds and
    /// voluntary §II-B4 departures. Composes with `plan` and `chaos`.
    pub churn: ChurnPlan,
    /// Schedule exploration: `Some` hands the scheduler's one decision
    /// point — which due peer runs next — to a perturber doing PCT
    /// priority sampling or bit-exact replay of a recorded [`Schedule`]
    /// (the empty replay is the default interleaving, fingerprint and
    /// all).
    pub explore: Option<ExplorePlan>,
    /// Virtual seconds per tick (mesh transport).
    pub tick_dt: f64,
    /// Hard stop if the swarm has not drained by then.
    pub max_ticks: u64,
    /// Capacity of each per-peer telemetry ring (0 means the default,
    /// 4096). Read only when `telemetry` is set.
    pub trace_capacity: usize,
    /// Swarm telemetry: per-peer causal tracers (a Lamport stamp rides
    /// beside each frame in [`Delivery::meta`], never on the wire),
    /// metric histograms, swarm aggregation and the flight recorder. Off
    /// by default; either way the same bytes are sent and the
    /// fingerprint is the same.
    pub telemetry: bool,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            peers: 8,
            strategies: Vec::new(),
            pieces: 24,
            piece_len: 1024,
            seed: 42,
            net: NetConfig::default(),
            plan: FaultPlan::none(),
            chaos: ChaosPlan::none(),
            churn: ChurnPlan::none(),
            explore: None,
            tick_dt: 1.0,
            max_ticks: 4000,
            trace_capacity: 4096,
            telemetry: false,
        }
    }
}

/// Packs a `(donor, requestor, piece)` triple into one transaction id.
fn pack(a: u32, b: u32, p: u32) -> u64 {
    (u64::from(a) << 42) | (u64::from(b) << 21) | u64::from(p)
}

/// Classifies a frame as a span-carrying wire message and derives its
/// transaction span id. Both endpoints compute the same span because
/// the sender stamps it into the [`CausalMeta`] the receiver reads —
/// this function only runs on the send side.
fn wire_view(from: u32, to: u32, frame: &Frame) -> Option<(WireMsg, u64)> {
    match frame {
        Frame::PieceData { piece, .. } => Some((WireMsg::PieceData, pack(from, to, piece.0))),
        Frame::Control(Message::PieceUpload { piece, .. }) => {
            Some((WireMsg::Upload, pack(from, to, piece.0)))
        }
        Frame::Control(Message::ReceptionReport { requestor, piece }) => {
            Some((WireMsg::Report, pack(to, requestor.0, piece.0)))
        }
        Frame::Control(Message::KeyRelease { piece, .. }) => {
            Some((WireMsg::Key, pack(from, to, piece.0)))
        }
        _ => None,
    }
}

/// One peer's causal trace ring, keyed by peer id.
pub type PeerRing = (u32, Vec<TraceRecord>);

/// Delivery times keyed by a [`pack`]ed id;
/// only ever probed, never iterated.
type SeenAt = HashMap<u64, f64, IdHash>;

/// Harness-side telemetry, alive only while [`SwarmConfig::telemetry`]
/// is set: one causal [`Tracer`] and one [`PeerTelemetry`] per peer,
/// pending-interval maps feeding the latency histograms, and the
/// flight recorder. The whole struct sits behind an `Option` so a
/// disabled run never constructs (or consults) any of it.
struct TelemetryState {
    capacity: usize,
    /// Indexed by peer id: the harness mints ids in sequence, so the
    /// tables are dense, and id order is index order.
    tracers: Vec<Option<Tracer>>,
    metrics: Vec<Option<PeerTelemetry>>,
    /// `pack(donor, requestor, piece)` → PieceUpload delivery time.
    upload_seen: SeenAt,
    /// `pack(requestor, 0, piece)` → first PieceData delivery time.
    data_seen: SeenAt,
    /// `pack(payee, 0, piece)` → §II-B4 escrow handoff delivery time.
    escrow_since: SeenAt,
    recorder: FlightRecorder,
}

/// Peer `id`'s entry in a table indexed by peer id, made on first use.
fn slot<V>(table: &mut Vec<Option<V>>, id: u32, make: impl FnOnce() -> V) -> &mut V {
    let i = id as usize;
    if table.len() <= i {
        table.resize_with(i + 1, || None);
    }
    table[i].get_or_insert_with(make)
}

impl TelemetryState {
    fn new(capacity: usize) -> Self {
        TelemetryState {
            capacity,
            tracers: Vec::new(),
            metrics: Vec::new(),
            upload_seen: SeenAt::default(),
            data_seen: SeenAt::default(),
            escrow_since: SeenAt::default(),
            recorder: FlightRecorder::new(64, 8),
        }
    }

    fn tracer(&mut self, peer: u32) -> &mut Tracer {
        let cap = self.capacity;
        slot(&mut self.tracers, peer, || Tracer::for_peer(peer, cap))
    }

    fn metric(&mut self, peer: u32) -> &mut PeerTelemetry {
        slot(&mut self.metrics, peer, || PeerTelemetry::new(peer))
    }

    /// Stamps an outgoing frame: ticks the sender's Lamport clock,
    /// records a `FrameSent` for span-carrying messages (the record
    /// itself is the tick, so the stamp equals the event's clock) and
    /// returns the stamp the transport carries beside the frame.
    fn on_send(&mut self, now: f64, from: u32, to: u32, frame: &Frame) -> CausalMeta {
        let view = wire_view(from, to, frame);
        let tracer = self.tracer(from);
        let (lamport, span) = match view {
            Some((msg, span)) => {
                tracer.record(now, Event::FrameSent { span, to, msg });
                (tracer.lamport(), span)
            }
            None => (tracer.tick(), 0),
        };
        CausalMeta { origin: from, lamport, span }
    }

    /// Witnesses an incoming frame's clock (so the receive event lands
    /// strictly after the send), records `FrameReceived` and feeds the
    /// latency histograms from delivery-time intervals.
    fn on_delivery(&mut self, d: &Delivery, now: f64) {
        let (from, to) = (d.from.0, d.to.0);
        if let Some(meta) = &d.meta {
            let tracer = self.tracer(to);
            tracer.witness(meta.lamport);
            if let Some((msg, _)) = wire_view(from, to, &d.frame) {
                tracer.record(now, Event::FrameReceived { span: meta.span, from, msg });
            }
        }
        match &d.frame {
            Frame::PieceData { piece, .. } => {
                self.data_seen.entry(pack(to, 0, piece.0)).or_insert(now);
            }
            Frame::Control(Message::PieceUpload { piece, payee: Some(_), .. }) => {
                self.upload_seen.insert(pack(from, to, piece.0), now);
            }
            Frame::Control(Message::ReceptionReport { requestor, piece }) => {
                if let Some(t0) = self.upload_seen.remove(&pack(to, requestor.0, piece.0)) {
                    self.metric(to).piece_rtt.observe(virt_ms(now - t0));
                }
            }
            Frame::Control(Message::KeyRelease { piece, requestor, .. }) => {
                let p = piece.0;
                if let Some(t0) = self.data_seen.remove(&pack(to, 0, p)) {
                    self.metric(to).request_key_latency.observe(virt_ms(now - t0));
                }
                match requestor.map(|r| r.0) {
                    // §II-B4 handoff: the payee `to` starts holding the key.
                    Some(r) if r != to => {
                        self.escrow_since.insert(pack(to, 0, p), now);
                    }
                    // Rule-3 forward: the payee `from` stops holding it.
                    Some(_) => {
                        if let Some(t0) = self.escrow_since.remove(&pack(from, 0, p)) {
                            self.metric(from).escrow_dwell.observe(virt_ms(now - t0));
                        }
                    }
                    None => {}
                }
            }
            _ => {}
        }
    }

    /// A quarantine imposed by `peer`: histogram the duration and trip
    /// the flight recorder.
    fn on_quarantine(&mut self, peer: u32, now: f64, until: f64) {
        self.metric(peer).quarantine.observe(virt_ms(until - now));
        self.flight("quarantine", now);
    }

    /// Captures the merged tail of every peer ring (no-op once the
    /// per-run capture budget is spent).
    fn flight(&mut self, reason: &'static str, at: f64) {
        self.recorder.capture(reason, at, self.tracers.iter().flatten());
    }

    /// End-of-run fold: stamps one `MetricSample` event per metric per
    /// peer into its own ring, folds final counters into the metric
    /// blocks and builds the swarm aggregate. The last part is the count
    /// of events the rings ever recorded.
    fn finish(
        mut self,
        now: f64,
        peers: &[(u32, PeerCounters, i64)],
        chain_lengths: &[u32],
        terminations: &[(&'static str, u64)],
    ) -> (SwarmTelemetry, Vec<PeerRing>, Vec<FlightDump>, u64) {
        for &(id, c, goodwill) in peers {
            self.metric(id).finish(c, goodwill);
            let samples = [
                (MetricName::Uploads, c.uploaded),
                (MetricName::Downloads, c.decrypted + c.unencrypted),
                (MetricName::ReportsSent, c.reports_sent),
                (MetricName::ReportRetries, c.report_retries),
                (MetricName::KeysSent, c.keys_sent),
                (MetricName::KeysReceived, c.decrypted),
                (MetricName::EscrowHeld, c.escrowed),
                (MetricName::Quarantines, c.quarantines),
            ];
            let tracer = self.tracer(id);
            for (metric, value) in samples {
                tracer.record(now, Event::MetricSample { peer: id, metric, value });
            }
        }
        // `SwarmTelemetry::peers` is *defined* to be ascending-peer-id
        // ordered — consumers (Prometheus exposition, fairness index
        // pairing, the net_telemetry experiment's JSONL) index into it
        // positionally. The tables are indexed by id, so walking them in
        // index order is id order; churn and departures only leave holes.
        let peer_metrics: Vec<PeerTelemetry> = self.metrics.into_iter().flatten().collect();
        debug_assert!(
            peer_metrics.windows(2).all(|w| w[0].peer < w[1].peer),
            "per-peer telemetry ids must be strictly ascending"
        );
        let mut swarm = SwarmTelemetry {
            peers: peer_metrics,
            ..SwarmTelemetry::default()
        };
        for &len in chain_lengths {
            swarm.chain_lengths.observe(u64::from(len));
        }
        for &(cause, n) in terminations {
            if n > 0 {
                swarm.note_termination(cause, n);
            }
        }
        // Copied out of the rings, not moved: the report outlives
        // the run, and exact-size copies made here pack together, where a
        // ring's own buffer sits wherever it last grew, among state the
        // run is about to free (moving measured 3.6 MiB more peak RSS on
        // perfbench `swarm_hostile`; DESIGN.md §8).
        let rings = (0u32..)
            .zip(&self.tracers)
            .filter_map(|(id, t)| Some((id, t.as_ref()?.records())))
            .collect();
        let emitted = self.tracers.iter().flatten().map(Tracer::emitted).sum();
        (swarm, rings, self.recorder.into_dumps(), emitted)
    }
}

/// Outcome of one swarm run.
#[derive(Debug)]
pub struct SwarmReport {
    /// Transport backend name.
    pub backend: &'static str,
    /// Peers in the run (including the seeder).
    pub peers: u32,
    /// Free-riding leechers.
    pub free_riders: u32,
    /// Pieces in the file.
    pub pieces: usize,
    /// Ticks executed.
    pub ticks: u64,
    /// Transport-clock seconds elapsed.
    pub elapsed: f64,
    /// Compliant leechers that completed the file.
    pub completed_compliant: u32,
    /// Compliant leechers in the scenario.
    pub total_compliant: u32,
    /// Free-riders that completed the file.
    pub completed_free_riders: u32,
    /// Every held piece on every peer matched the content byte-for-byte.
    pub plaintext_ok: bool,
    /// Invariant violations found by the observer (must be empty).
    pub violations: Vec<String>,
    /// Chains opened / mean length / max length / §II-B3 terminations.
    pub chains_started: usize,
    /// Mean transactions per chain.
    pub mean_chain_len: f64,
    /// Longest observed chain.
    pub max_chain_len: u32,
    /// Chains closed by unencrypted termination uploads.
    pub chains_terminated: usize,
    /// Encrypted uploads observed.
    pub uploads: u64,
    /// Unencrypted gift uploads observed.
    pub gifts: u64,
    /// Reception reports observed.
    pub reports: u64,
    /// Key releases observed.
    pub key_releases: u64,
    /// Key releases over the §II-B4 escrow path.
    pub escrow_transfers: u64,
    /// Chaos injections taken by the transport (corrupt/dup/reorder/reset).
    pub chaos_injects: u64,
    /// Frames (or streams) receivers rejected as malformed or reset.
    pub frame_rejects: u64,
    /// Quarantines imposed after repeated rejects from one peer.
    pub quarantines: u64,
    /// Abrupt crash-restart crashes executed.
    pub crashes: u64,
    /// Crashed peers that came back under their own id.
    pub rejoins: u64,
    /// Peers that joined mid-run from the churn schedule.
    pub churn_joins: u64,
    /// Peers that left voluntarily mid-run (§II-B4 handoff) from the
    /// churn schedule.
    pub churn_departs: u64,
    /// Completion breakdown per strategy label → `(completed, total)`,
    /// over boot leechers plus whitewash identities; the seeder and
    /// incomplete voluntary departures are excluded.
    pub completed_by_strategy: BTreeMap<&'static str, (u32, u32)>,
    /// False reception reports the observer detected and attributed.
    pub false_reports: u64,
    /// `(reporter, donor, requestor, piece)` per detected false report.
    pub false_report_log: Vec<(u32, u32, u32, u32)>,
    /// Key releases colluders extracted via false reports (§IV-D gain).
    pub colluder_gain: u64,
    /// Designated-payee uploads leaked from non-attackers to attackers.
    pub altruism_leaked: u64,
    /// Uploads leaked from seeders to attackers.
    pub seeder_leakage: u64,
    /// §II-B3 gifts that landed on attackers.
    pub gift_leakage: u64,
    /// Uploads whose requestor sat in a Sybil group (§III-A4 trials).
    pub sybil_checks: u64,
    /// Trials where the payee landed in the requestor's group.
    pub sybil_collisions: u64,
    /// Whitewash identity resets completed.
    pub whitewash_rejoins: u64,
    /// Tracker member-list queries served — the large-view signature
    /// (one per peer at rendezvous, plus every §IV-C re-query).
    pub tracker_queries: u64,
    /// Every surviving peer's §II-D2 ledger matched its unreported
    /// donor-transaction count at the end of the run.
    pub ledger_ok: bool,
    /// Transport delivery counters.
    pub transport: TransportStats,
    /// Order-sensitive digest of every delivered frame — two runs with
    /// the same seed must agree bit-for-bit.
    pub fingerprint: u64,
    /// Events recorded into the per-peer telemetry rings (overwritten
    /// ones included); 0 when telemetry is off.
    pub events_recorded: u64,
    /// `(peer id, completion time)` for every completed peer.
    pub completion_times: Vec<(u32, f64)>,
    /// Per-peer protocol counters, id-ordered.
    pub peer_counters: Vec<(u32, PeerCounters)>,
    /// Swarm telemetry aggregate — `None` unless
    /// [`SwarmConfig::telemetry`] was set.
    pub telemetry: Option<SwarmTelemetry>,
    /// Per-peer causal trace rings, id-ordered; empty when telemetry is
    /// off. Each ring merges with the others via
    /// `tchain_obs::merge_traces` into one causally ordered trace.
    pub peer_rings: Vec<PeerRing>,
    /// Flight-recorder captures (violation / quarantine / crash), in
    /// trigger order; empty when telemetry is off or nothing fired.
    pub flight_dumps: Vec<FlightDump>,
    /// The effective schedule of an explore-mode run: every
    /// non-default scheduling action actually applied, replayable
    /// bit-for-bit via [`tchain_sim::ExplorePlan::Replay`]. `None`
    /// without [`SwarmConfig::explore`].
    pub schedule: Option<Schedule>,
    /// Scheduling decision points consumed by an explore-mode run
    /// (default decisions included); 0 outside explore mode.
    pub sched_decisions: u64,
    /// End-of-run safety oracles that failed, in a fixed order; empty
    /// on a clean run.
    pub failed_oracles: Vec<OracleKind>,
}

impl SwarmReport {
    /// `true` when the run passed every end-of-run safety oracle: zero
    /// unreciprocated key releases, consistent §II-D2 ledgers,
    /// byte-identical plaintexts, every compliant leecher done, and no
    /// quarantine without a frame reject behind it.
    pub fn ok(&self) -> bool {
        self.failed_oracles.is_empty()
    }

    /// `true` when `other` is the same run: equal in every field except
    /// the four telemetry outputs (`telemetry`, `peer_rings`,
    /// `flight_dumps`, `events_recorded`), which observe the run without
    /// steering it. A same-seed rerun, the run with telemetry on, and a
    /// replay of an explore-mode run's recorded schedule are each the
    /// same run as the original.
    pub fn same_run(&self, other: &SwarmReport) -> bool {
        // Each field is named once, in a pattern without `..`: a new
        // field does not compile until it is classified here.
        macro_rules! equal_except {
            ([$($same:ident),* $(,)?], [$($telemetry:ident),* $(,)?]) => {{
                let SwarmReport { $($same: _,)* $($telemetry: _,)* } = self;
                true $(&& self.$same == other.$same)*
            }};
        }
        equal_except!(
            [
                backend, peers, free_riders, pieces, ticks, elapsed, completed_compliant,
                total_compliant, completed_free_riders, plaintext_ok, violations,
                chains_started, mean_chain_len, max_chain_len, chains_terminated, uploads,
                gifts, reports, key_releases, escrow_transfers, chaos_injects, frame_rejects,
                quarantines, crashes, rejoins, churn_joins, churn_departs,
                completed_by_strategy, false_reports, false_report_log, colluder_gain,
                altruism_leaked, seeder_leakage, gift_leakage, sybil_checks,
                sybil_collisions, whitewash_rejoins, tracker_queries, ledger_ok, transport,
                fingerprint, completion_times, peer_counters, schedule, sched_decisions,
                failed_oracles,
            ],
            [telemetry, peer_rings, flight_dumps, events_recorded]
        )
    }
}

/// A peer's next incarnation waiting out a delay before it comes back:
/// a crash victim's jittered outage or, inside a [`WhitewashSlot`], a
/// whitewasher's rejoin delay.
struct RejoinSlot {
    at: f64,
    peer: PeerRuntime,
}

/// A whitewashed operator waiting to come back under the fresh identity
/// it was reborn with — loot intact, ledgers wiped.
struct WhitewashSlot {
    rejoin: RejoinSlot,
    operator: usize,
}

/// Splits the slots due at `now` out of `pending`, ordered by
/// `(at, id)` so the comeback sequence never depends on the order the
/// teardowns were drawn in.
fn take_due<S>(pending: &mut Vec<S>, now: f64, slot: impl Fn(&S) -> &RejoinSlot) -> Vec<S> {
    let (mut due, later): (Vec<S>, Vec<S>) =
        std::mem::take(pending).into_iter().partition(|s| slot(s).at <= now);
    *pending = later;
    due.sort_by(|a, b| {
        let (a, b) = (slot(a), slot(b));
        a.at.total_cmp(&b.at).then(a.peer.id().cmp(&b.peer.id()))
    });
    due
}

/// Frames staged for the transport, `(from, to, frame)` in send order.
type Staged = Vec<(NodeId, NodeId, Frame)>;

/// Addresses one peer's outbox as staged frames.
fn stage(from: NodeId, out: Outbox) -> impl Iterator<Item = (NodeId, NodeId, Frame)> {
    out.into_iter().map(move |(to, frame)| (from, to, frame))
}

/// How [`SwarmHarness::enroll`] introduces a peer to the transport.
enum Entry {
    /// An id the transport has never seen: boot, churn join, whitewash
    /// rebirth.
    Fresh,
    /// A crashed id coming back as its restarted successor.
    Returning,
}

/// Adversary-engine state, alive only when some strategy manipulates
/// beyond zero upload. Behind an `Option` (like churn and telemetry)
/// with its own salted RNG fork, so manipulation-free runs make zero
/// extra draws and keep their fingerprints bit for bit.
struct AttackState {
    /// Strategic draws (re-query sampling, rejoin bootstraps) come from
    /// this fork, never from the harness RNG the compliant path uses.
    rng: SimRng,
    colluders: ColluderRegistry,
    /// One entry per manipulating operator, in boot-id order; survives
    /// the identity changes a whitewasher cycles through.
    operators: Vec<AttackerState>,
    /// Forged §IV-D reports staged during delivery audit, flushed
    /// through the normal send path next `handle_attacks`.
    staged_reports: Staged,
    /// `(donor, requestor, piece)` txns already falsely reported —
    /// ring mates file one forged report per transaction.
    reported_txns: BTreeSet<(u32, u32, u32)>,
    pending_whitewash: Vec<WhitewashSlot>,
    whitewash_rejoins: u64,
}

impl AttackState {
    /// The engine for the manipulating strategies among `strategy_of`;
    /// `None` when there are none.
    fn new(seed: u64, strategy_of: &BTreeMap<u32, Strategy>) -> Option<Self> {
        let mut colluders = ColluderRegistry::new();
        let mut operators = Vec::new();
        for (&id, s) in strategy_of.iter().filter(|(_, s)| s.manipulates()) {
            if let Some(g) = s.collusion_group() {
                colluders.register(NodeId(id), g);
            }
            operators.push(AttackerState::new(id, *s, 0.0));
        }
        (!operators.is_empty()).then(|| AttackState {
            rng: SimRng::new(seed ^ 0xA77A_C4E4),
            colluders,
            operators,
            staged_reports: Vec::new(),
            reported_txns: BTreeSet::new(),
            pending_whitewash: Vec::new(),
            whitewash_rejoins: 0,
        })
    }
}

/// The live peers, indexed by the ids the harness mints in sequence
/// (0..peers at boot, then `next_id`), so the table is dense and index
/// order is ascending-id order. A crash or whitewash empties its id's
/// slot; a restart refills it under the same id. Ids off the wire never
/// index it: only `get`/`get_mut` see outside ids, and read `None` past
/// the end.
#[derive(Default)]
struct PeerTable(Vec<Option<PeerRuntime>>);

impl PeerTable {
    fn get(&self, id: u32) -> Option<&PeerRuntime> {
        self.0.get(id as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut PeerRuntime> {
        self.0.get_mut(id as usize)?.as_mut()
    }

    fn insert(&mut self, id: u32, peer: PeerRuntime) {
        let i = id as usize;
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i] = Some(peer);
    }

    fn remove(&mut self, id: u32) -> Option<PeerRuntime> {
        self.0.get_mut(id as usize)?.take()
    }

    /// Live peers, ascending by id.
    fn iter(&self) -> impl Iterator<Item = (u32, &PeerRuntime)> {
        self.0.iter().enumerate().filter_map(|(id, p)| Some((id as u32, p.as_ref()?)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut PeerRuntime)> {
        self.0.iter_mut().enumerate().filter_map(|(id, p)| Some((id as u32, p.as_mut()?)))
    }

    fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(id, _)| id)
    }

    fn values(&self) -> impl Iterator<Item = &PeerRuntime> {
        self.0.iter().flatten()
    }
}

/// N in-process peers over one transport.
pub struct SwarmHarness<T: Transport> {
    transport: T,
    cfg: SwarmConfig,
    content: Content,
    peers: PeerTable,
    tracker: Tracker,
    observer: Observer,
    rng: SimRng,
    fingerprint: u64,
    /// Encoding buffer `fold` reuses for every delivered frame.
    fold_buf: Vec<u8>,
    departed_handled: IdSet,
    /// Harness-side view of the chaos plan: crash schedule + backoff
    /// jitter. Frame-level injections live in the transport's own state.
    chaos: ChaosState,
    pending_rejoin: Vec<RejoinSlot>,
    chaos_injects: u64,
    crashes: u64,
    rejoins: u64,
    telemetry: Option<TelemetryState>,
    /// Timer index over peers: each armed peer has one authoritative
    /// wake time; `ready` collects peers that received frames this tick
    /// and must run `on_tick` regardless; `woke` holds the peers that
    /// ran this tick plus its churn victims (see [`Self::tick_due`]).
    wheel: TimerWheel,
    ready: IdSet,
    woke: IdSet,
    /// Scheduling decision stream, alive only under
    /// [`SwarmConfig::explore`], so plain runs make zero extra work per
    /// tick.
    perturb: Option<SchedPerturber>,
    /// Expanded churn schedule; `None` when the plan is empty, so a
    /// churn-free run makes zero extra RNG draws and keeps its
    /// pre-churn fingerprint.
    churn: Option<ChurnState>,
    /// Next fresh peer id for churn joins and whitewash rebirths
    /// (initial ids are 0..peers).
    next_id: u32,
    churn_joined: u64,
    churn_departed: u64,
    /// Adversary engine; `None` when no strategy manipulates, so
    /// attack-free runs make zero extra RNG draws.
    attack: Option<AttackState>,
    /// Free-riders in the boot scenario (whitewash rebirths keep the
    /// count — an operator is one free-rider however many ids it burns).
    boot_free_riders: u32,
    /// Voluntary departures that left *before* completing — excluded
    /// from the completion target (they can never finish).
    churn_departed_incomplete: u32,
}

impl<T: Transport> SwarmHarness<T> {
    /// Builds the swarm: seeder is id 0, free-riders take the highest
    /// ids, everyone registers with transport and tracker.
    pub fn new(transport: T, cfg: SwarmConfig) -> Result<Self, NetError> {
        assert!(cfg.peers >= 2, "a swarm needs a seeder and a leecher");
        let mut strategy_of: BTreeMap<u32, Strategy> = BTreeMap::new();
        for &(id, s) in &cfg.strategies {
            assert!(id != 0, "the seeder (id 0) cannot carry a strategy");
            assert!(id < cfg.peers, "strategy assigned to unknown peer {id}");
            assert!(strategy_of.insert(id, s).is_none(), "duplicate strategy for peer {id}");
        }
        let boot_free_riders = strategy_of.values().filter(|s| s.is_free_rider()).count() as u32;
        assert!(boot_free_riders < cfg.peers, "leave at least the seeder compliant");
        cfg.churn.validate();
        let content = Content::new(cfg.seed ^ 0x0C04_7E47, cfg.pieces, cfg.piece_len);
        // Size tracker shards to the peak membership the scenario can
        // reach; ≤ 64 expected peers degenerates to the flat historical
        // layout (identical draw sequence, so 16-peer goldens hold).
        let expected_peak = cfg.peers + cfg.churn.total_joins();
        let mut observer = Observer::default();
        observer.note_seeder(0);
        for (&id, s) in strategy_of.iter().filter(|(_, s)| s.is_free_rider()) {
            observer.note_attacker(id, strategy_label(s), s.collusion_group().map(|g| g.0));
        }
        // The harness forks its own chaos state for crash scheduling and
        // backoff jitter; salting the seed keeps its draws independent of
        // the transport's frame-level injection stream.
        let mut chaos_plan = cfg.chaos.clone();
        chaos_plan.seed ^= 0x0C_1A05_44A4;
        let mut harness = SwarmHarness {
            transport,
            content,
            peers: PeerTable::default(),
            tracker: Tracker::with_shards(Tracker::shards_for(expected_peak)),
            observer,
            rng: SimRng::new(cfg.seed ^ 0x7A_C4E4),
            fingerprint: 0x5EED_F00D,
            fold_buf: Vec::new(),
            departed_handled: IdSet::default(),
            chaos: ChaosState::new(chaos_plan),
            pending_rejoin: Vec::new(),
            chaos_injects: 0,
            crashes: 0,
            rejoins: 0,
            telemetry: cfg.telemetry.then(|| {
                TelemetryState::new(if cfg.trace_capacity > 0 { cfg.trace_capacity } else { 4096 })
            }),
            wheel: TimerWheel::new(),
            ready: IdSet::default(),
            woke: IdSet::default(),
            perturb: cfg.explore.as_ref().map(SchedPerturber::new),
            churn: (!cfg.churn.is_none()).then(|| ChurnState::new(&cfg.churn)),
            next_id: cfg.peers,
            churn_joined: 0,
            churn_departed: 0,
            // The adversary engine, like churn, only exists when asked
            // for: its RNG is a salted fork so strategic draws never
            // perturb the compliant stream.
            attack: AttackState::new(cfg.seed, &strategy_of),
            boot_free_riders,
            churn_departed_incomplete: 0,
            cfg,
        };
        for id in 0..harness.cfg.peers {
            let strategy = strategy_of.get(&id).copied().unwrap_or_default();
            let role = if id == 0 { PeerRole::Seeder } else { PeerRole::Leecher };
            let (net, seed) = (harness.cfg.net, harness.cfg.seed);
            let content = harness.content.clone();
            let peer = PeerRuntime::with_strategy(NodeId(id), role, content, net, seed, strategy);
            harness.enroll(id, peer, Entry::Fresh)?;
        }
        Ok(harness)
    }

    /// Runs the swarm to completion (all compliant leechers hold the
    /// whole file) or to `max_ticks`, and audits the result.
    ///
    /// One tick is a fixed pipeline: drain the transport, dispatch the
    /// deliveries (audit, then `on_frame`), tick the due peers, flush
    /// what they staged, apply membership changes, check for completion.
    pub fn run(mut self) -> Result<SwarmReport, NetError> {
        self.boot()?;
        let mut ticks = 0u64;
        let mut grace = 0u32;
        while ticks < self.cfg.max_ticks {
            ticks += 1;
            let deliveries = self.transport.advance()?;
            let now = self.transport.now();
            let mut staged = self.dispatch(deliveries, now);
            self.tick_due(now, &mut staged);
            self.flush(staged)?;
            self.membership(now)?;
            if self.compliant_done() {
                // A few grace ticks drain in-flight frames so trailing
                // key releases still pass under the observer's eye.
                grace += 1;
                if grace > 4 {
                    break;
                }
            }
        }
        Ok(self.report(ticks))
    }

    // ------------------------------------------------------------------
    // Membership lifecycle: every admission and teardown path below is
    // a composition of `enroll`, `greet` and `evict`.
    // ------------------------------------------------------------------

    /// Admits `peer` under `id`: transport endpoint, tracker entry and a
    /// place in the swarm. The peer does not talk or tick yet — see
    /// [`Self::greet`].
    fn enroll(&mut self, id: u32, mut peer: PeerRuntime, entry: Entry) -> Result<(), NetError> {
        peer.set_arm_retries(!self.transport.reliable());
        match entry {
            Entry::Fresh => self.transport.register(NodeId(id))?,
            Entry::Returning => self.transport.reconnect(NodeId(id))?,
        }
        self.tracker.register(NodeId(id));
        self.peers.insert(id, peer);
        Ok(())
    }

    /// Completes an admission: the enrolled `id` meets the swarm
    /// ([`Self::rendezvous`]) and starts ticking next round.
    fn greet(&mut self, id: u32, rng: Option<&mut SimRng>, now: f64) -> Result<(), NetError> {
        self.rendezvous(id, rng)?;
        self.wheel.schedule(id, now);
        Ok(())
    }

    /// Tracker query + bitfield handshake. The member list is drawn from
    /// `rng` — the adversary engine passes its own fork — or from the
    /// harness stream when `None`. A §IV-C re-query calls this directly
    /// rather than [`Self::greet`]: the peer is already scheduled, and an
    /// extra wake-up would shift the explore-mode decision stream (and
    /// every recorded schedule).
    ///
    /// Requests the §IV-A policy list (50), not the whole swarm: for
    /// pools of ≤ 51 the tracker's `k.min(pool-1)` cap makes the two
    /// requests draw-identical (same sampling branch, same RNG stream —
    /// the 16-peer goldens depend on that), and at 256 peers the bounded
    /// list is what keeps per-peer neighbor state O(policy), not O(N).
    fn rendezvous(&mut self, id: u32, rng: Option<&mut SimRng>) -> Result<(), NetError> {
        let rng = rng.unwrap_or(&mut self.rng);
        let members = self.tracker.random_members(NodeId(id), LIST_SIZE, rng);
        let mut out: Outbox = Vec::new();
        self.peers.get_mut(id).expect("enrolled").bootstrap(&members, &mut out);
        self.flush(stage(NodeId(id), out))
    }

    /// Tears `id` out of transport, tracker and scheduler view and gives
    /// every live neighbour the connection reset it would see: stop
    /// serving the vanished peer and abandon transactions toward it
    /// (otherwise a donor keeps donating to a ghost and later escrows
    /// keys nobody can claim). The caller has already flagged `id`
    /// departed or removed it from `peers`.
    fn evict(&mut self, id: u32, now: f64) {
        self.transport.disconnect(NodeId(id));
        self.tracker.unregister(NodeId(id));
        self.observer.note_departed(id);
        self.wheel.cancel(id);
        for (pid, peer) in self.peers.iter_mut() {
            if !peer.departed() {
                peer.on_peer_gone(NodeId(id));
                // State changed outside this peer's own on_tick (a
                // freed donation slot can unlock work): wake it next
                // tick. `hasten` never delays an earlier wake.
                self.wheel.hasten(pid, now);
            }
        }
    }

    fn mint_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Tick pipeline stages, in `run` order
    // ------------------------------------------------------------------

    /// Greets the boot population. Enrolment finished in `new`, so every
    /// member-list draw sees the full tracker.
    fn boot(&mut self) -> Result<(), NetError> {
        let ids: Vec<u32> = self.peers.keys().collect();
        for id in ids {
            self.greet(id, None, 0.0)?;
        }
        Ok(())
    }

    /// Audits and delivers one tick's frames, returning what the
    /// recipients staged in reply.
    ///
    /// Batched: consecutive same-recipient deliveries share one peer
    /// lookup and one outbox. Audit stays in exact delivery order, and
    /// the recipient's `on_frame`s run in that same order — the staged
    /// stream is byte-identical to the one-at-a-time path.
    fn dispatch(&mut self, deliveries: Vec<Delivery>, now: f64) -> Staged {
        let mut staged = Staged::new();
        let mut batch: Vec<Delivery> = Vec::new();
        let mut it = deliveries.into_iter().peekable();
        while let Some(first) = it.next() {
            let to = first.to;
            batch.clear();
            batch.push(first);
            while let Some(d) = it.next_if(|d| d.to == to) {
                batch.push(d);
            }
            for d in &batch {
                self.audit(d, now);
            }
            if let Some(peer) = self.peers.get_mut(to.0) {
                let mut out: Outbox = Vec::new();
                for d in batch.drain(..) {
                    peer.on_frame(now, d.from, d.frame, &mut out);
                }
                staged.extend(stage(to, out));
                // A delivered frame can unlock same-tick work
                // (reciprocation, key relay): run this peer's on_tick
                // now, exactly when an every-peer scan would.
                self.ready.insert(to.0);
            }
        }
        staged
    }

    /// Shows one delivery to the observer, the telemetry, the collusion
    /// hook and the fingerprint fold, in that order.
    fn audit(&mut self, d: &Delivery, now: f64) {
        let violations_before = self.observer.violations.len();
        let false_before = self.observer.false_reports;
        self.observer.observe(d);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.on_delivery(d, now);
            if self.observer.violations.len() > violations_before {
                tel.flight("violation", now);
            }
            // A detected false report trips the recorder: the capture
            // shows the collusion's causal context (upload, forged
            // report, key release).
            if self.observer.false_reports > false_before {
                tel.flight("collusion", now);
            }
        }
        self.stage_collusion(d);
        self.fold(d);
    }

    /// Runs `on_tick` on this tick's peers and records who ran in
    /// `woke` — the only peers whose departure flag can have flipped
    /// (`on_tick` sets it on depart-on-complete; churn adds its victims
    /// later).
    ///
    /// That is the union of due timers and frame receivers: the ready
    /// set, with the wheel's due peers added in place. It is visited in
    /// ascending id order — the order an every-peer scan uses; every
    /// skipped peer is quiescent (see `PeerRuntime::next_wake`), so the
    /// staged stream matches the full scan's bit for bit. The scan
    /// survives as the reference in this module's tests. The set goes
    /// back as the next tick's (cleared) ready set, so no tick allocates.
    fn tick_due(&mut self, now: f64, staged: &mut Staged) {
        self.woke.clear();
        #[cfg(test)]
        if tests::SCAN_EVERY_PEER.get() { return tests::scan_every_peer(self, now, staged); }
        let mut due = std::mem::take(&mut self.ready);
        self.wheel.pop_due(now, &mut due);
        if self.perturb.is_some() {
            let pending = due.iter().collect();
            due.clear();
            // Deferrals land in the next tick's ready set.
            self.ready = due;
            self.tick_perturbed(pending, now, staged);
        } else {
            for id in due.iter() {
                self.tick_peer(id, now, staged);
            }
            due.clear();
            self.ready = due;
        }
    }

    /// Explore mode: the run-order decision point goes through the
    /// perturber. `Pick(0)` at every step reproduces the ascending-id
    /// loop exactly.
    fn tick_perturbed(&mut self, mut pending: Vec<u32>, now: f64, staged: &mut Staged) {
        while !pending.is_empty() {
            match self.perturb.as_mut().expect("explore mode").decide(&pending) {
                // Punt the whole due set a tick: the ready set re-runs
                // them on the next transport poll.
                Act::Defer => self.ready.extend(pending.drain(..)),
                Act::Pick(i) => {
                    let id = pending.remove(i as usize);
                    self.tick_peer(id, now, staged);
                }
            }
        }
    }

    /// Runs one due peer's `on_tick` and re-arms it — the body of the
    /// scheduler's visit, shared verbatim by explore mode so a
    /// perturbed run differs from production only in visit *order*.
    fn tick_peer(&mut self, id: u32, now: f64, staged: &mut Staged) {
        let Some(peer) = self.peers.get_mut(id) else {
            self.wheel.cancel(id);
            return;
        };
        let mut out: Outbox = Vec::new();
        peer.on_tick(now, &mut out);
        // Re-arm. Output means the peer is mid-burst: tick it again
        // next round, like an every-peer scan. Quiet peers park on their
        // earliest timer deadline, or disarm entirely until a frame
        // arrives. `now` (not now + dt) marks "next transport poll" on
        // wall-clock backends too — it pops on the following tick
        // either way, since this tick's pop already ran.
        if out.is_empty() {
            match peer.next_wake() {
                Some(w) if w > now => self.wheel.schedule(id, w),
                Some(_) => self.wheel.schedule(id, now),
                None => self.wheel.cancel(id),
            }
        } else {
            self.wheel.schedule(id, now);
            staged.extend(stage(NodeId(id), out));
        }
        self.woke.insert(id);
    }

    fn flush(
        &mut self,
        staged: impl IntoIterator<Item = (NodeId, NodeId, Frame)>,
    ) -> Result<(), NetError> {
        let now = self.transport.now();
        for (from, to, frame) in staged {
            let meta = self.telemetry.as_mut().map(|tel| tel.on_send(now, from.0, to.0, &frame));
            match self.transport.send_meta(from, to, frame, meta) {
                // A peer may address someone who already left the
                // transport's view; that is a drop, not a failure.
                Err(NetError::UnknownPeer(_)) => {}
                other => other?,
            }
        }
        Ok(())
    }

    /// Applies this tick's membership changes, in a fixed order: the
    /// churn, chaos and attack streams are each drawn from exactly once
    /// per tick, and a peer torn down early in the list is gone for the
    /// steps after it.
    fn membership(&mut self, now: f64) -> Result<(), NetError> {
        self.handle_churn(now)?;
        self.handle_departures(now);
        self.handle_chaos_records(now);
        self.handle_rejoins(now)?;
        self.handle_crashes(now);
        self.handle_attacks(now)
    }

    /// Fires due churn events. Joins (staggered or flash-crowd) mint
    /// fresh ids and enter like any newcomer; voluntary departures run
    /// the §II-B4 escrow handoff via [`PeerRuntime::leave`] on victims
    /// drawn from the churn stream's own seeded RNG. Victims land in
    /// `woke` so the departure sweep handles them this tick.
    fn handle_churn(&mut self, now: f64) -> Result<(), NetError> {
        let Some(mut churn) = self.churn.take() else { return Ok(()) };
        for _ in 0..churn.joins_due(now) {
            let id = self.mint_id();
            let peer = PeerRuntime::new(
                NodeId(id),
                PeerRole::Leecher,
                self.content.clone(),
                self.cfg.net,
                self.cfg.seed,
            );
            self.enroll(id, peer, Entry::Fresh)?;
            self.greet(id, None, now)?;
            self.churn_joined += 1;
        }
        for fraction in churn.departures_due(now) {
            // Victims come from the live compliant leechers: the seeder
            // stays (someone must hold the full file) and free-riders
            // have nothing to hand off.
            let eligible = self.live_compliant();
            for victim in churn.pick_victims(fraction, &eligible) {
                let Some(peer) = self.peers.get_mut(victim.0) else { continue };
                if !peer.is_complete() {
                    self.churn_departed_incomplete += 1;
                }
                let mut out: Outbox = Vec::new();
                peer.leave(&mut out);
                self.flush(stage(victim, out))?;
                self.churn_departed += 1;
                self.woke.insert(victim.0);
            }
        }
        self.churn = Some(churn);
        Ok(())
    }

    /// Compliant leechers still in the swarm — the population churn
    /// departures and crashes pick their victims from.
    fn live_compliant(&self) -> Vec<NodeId> {
        self.peers
            .values()
            .filter(|p| p.is_compliant_leecher() && !p.departed())
            .map(PeerRuntime::id)
            .collect()
    }

    /// Sweeps newly departed peers out of transport/tracker view. The
    /// departure flag only flips inside `on_tick` (depart-on-complete)
    /// or a churn `leave`, so `woke` — the peers that ran this tick plus
    /// the churn victims — holds everyone who can newly carry it.
    fn handle_departures(&mut self, now: f64) {
        let departed: Vec<u32> = self
            .woke
            .iter()
            .filter(|&id| {
                !self.departed_handled.contains(id)
                    && self.peers.get(id).is_some_and(PeerRuntime::departed)
            })
            .collect();
        for id in departed {
            self.departed_handled.insert(id);
            self.evict(id, now);
        }
    }

    /// Drains the transport's chaos log: injections are counted;
    /// receiver-side rejects feed the receiving peer's strike counter and
    /// may trip a quarantine.
    fn handle_chaos_records(&mut self, now: f64) {
        for rec in self.transport.take_chaos() {
            match rec {
                ChaosRecord::Inject { .. } => self.chaos_injects += 1,
                ChaosRecord::Reject(rej) => {
                    if let Some(peer) = self.peers.get_mut(rej.to.0) {
                        if let Some(until) = peer.on_frame_reject(now, rej.from) {
                            if let Some(tel) = self.telemetry.as_mut() {
                                tel.on_quarantine(rej.to.0, now, until);
                            }
                        }
                        // Strike/quarantine state changed outside the
                        // peer's own on_tick: wake it so its next_wake
                        // re-arms off the new quarantine deadline.
                        self.wheel.hasten(rej.to.0, now);
                    }
                }
            }
        }
    }

    /// Brings back crashed peers whose outage has elapsed: the
    /// restarted successor reconnects and re-bootstraps.
    fn handle_rejoins(&mut self, now: f64) -> Result<(), NetError> {
        for RejoinSlot { peer, .. } in take_due(&mut self.pending_rejoin, now, |s| s) {
            let id = peer.id().0;
            self.enroll(id, peer, Entry::Returning)?;
            self.observer.note_rejoined(id);
            self.rejoins += 1;
            self.greet(id, None, now)?;
        }
        Ok(())
    }

    /// Fires due crash-restart events: victims are torn out of the swarm
    /// with no §II-B4 goodbye, and their restarted successors scheduled
    /// to rejoin after a jittered outage.
    fn handle_crashes(&mut self, now: f64) {
        if !self.chaos.crash_due(now) {
            return;
        }
        let alive = self.live_compliant();
        for (victim, restart_after) in self.chaos.crash_victims(now, &alive) {
            let Some(peer) = self.peers.remove(victim.0) else { continue };
            let peer = peer.restart(self.cfg.seed);
            self.crashes += 1;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.flight("crash", now);
            }
            self.evict(victim.0, now);
            let at = now + self.chaos.backoff_jitter(restart_after);
            self.pending_rejoin.push(RejoinSlot { at, peer });
        }
    }

    /// Audits a delivered frame for the §IV-D collusion hook: when an
    /// encrypted upload lands on a ring member whose designated payee
    /// is a ring mate, the mate will forge a reception report on the
    /// requestor's behalf — the donor then releases the key (and
    /// clears a §II-D2 ledger slot) for a reciprocation that never
    /// happened. One forged report per transaction.
    fn stage_collusion(&mut self, d: &Delivery) {
        let Some(attack) = self.attack.as_mut() else { return };
        if attack.colluders.is_empty() {
            return;
        }
        let Frame::Control(Message::PieceUpload { piece, payee: Some(py), .. }) = &d.frame else {
            return;
        };
        let (donor, requestor) = (d.from, d.to);
        if !attack.colluders.same_group(requestor, *py) {
            return;
        }
        if !attack.reported_txns.insert((donor.0, requestor.0, piece.0)) {
            return;
        }
        attack.staged_reports.push((
            *py,
            donor,
            Frame::Control(Message::ReceptionReport { requestor, piece: *piece }),
        ));
    }

    /// Runs every strategic operator's turn: flush forged collusion
    /// reports, fire §IV-C large-view tracker re-queries, trigger and
    /// settle whitewash identity resets. A no-op — zero draws, zero
    /// branches on peer state — when no strategy manipulates.
    fn handle_attacks(&mut self, now: f64) -> Result<(), NetError> {
        let Some(mut attack) = self.attack.take() else { return Ok(()) };
        self.flush(std::mem::take(&mut attack.staged_reports))?;
        for op in 0..attack.operators.len() {
            let Some(id) = attack.operators[op].live_id else { continue };
            let Some(peer) = self.peers.get(id) else { continue };
            let state = &mut attack.operators[op];
            state.note_progress(peer.have_count(), now);
            if state.should_whitewash(now) {
                self.whitewash(&mut attack, op, id, now);
            } else if state.strategy.large_view() && now >= state.next_requery {
                // §IV-C: re-query the tracker every rechoke period —
                // "much more frequently than in normal BitTorrent
                // operations" — and greet every returned member. The
                // accept-all half is the runtime's default connection
                // policy, so the engine only drives the schedule.
                state.next_requery = now + RECHOKE_PERIOD;
                self.rendezvous(id, Some(&mut attack.rng))?;
            }
        }
        self.settle_whitewash(&mut attack, now)?;
        self.attack = Some(attack);
        Ok(())
    }

    /// §IV-C whitewash: tear the live identity `id` out with no §II-B4
    /// goodbye (crash-style teardown), keep the loot in a rebirth under
    /// a fresh id, and queue its rejoin. Neighbors see a vanished
    /// peer; the returnee is "treated as another newcomer".
    fn whitewash(&mut self, attack: &mut AttackState, op: usize, id: u32, now: f64) {
        let new_id = NodeId(self.mint_id());
        // The rebirth leaves the neighbour-facing ledgers behind with
        // the dead identity.
        let peer = self.peers.remove(id).expect("live identity").rebirth(new_id, self.cfg.seed);
        attack.colluders.unregister(NodeId(id));
        attack.operators[op].live_id = None;
        self.evict(id, now);
        attack.pending_whitewash.push(WhitewashSlot {
            rejoin: RejoinSlot { at: now + WHITEWASH_REJOIN_DELAY, peer },
            operator: op,
        });
    }

    /// Settles due whitewash rejoins: the reborn peer enters as a
    /// newcomer — the transport has never seen the fresh id.
    fn settle_whitewash(&mut self, attack: &mut AttackState, now: f64) -> Result<(), NetError> {
        for WhitewashSlot { rejoin: RejoinSlot { peer, .. }, operator } in
            take_due(&mut attack.pending_whitewash, now, |w| &w.rejoin)
        {
            let (id, strategy, held) = (peer.id().0, peer.strategy(), peer.have_count());
            self.enroll(id, peer, Entry::Fresh)?;
            let group = strategy.collusion_group();
            if let Some(g) = group {
                attack.colluders.register(NodeId(id), g);
            }
            self.observer.note_attacker(id, strategy_label(&strategy), group.map(|g| g.0));
            attack.operators[operator].rebirth(id, held, now);
            attack.whitewash_rejoins += 1;
            self.greet(id, Some(&mut attack.rng), now)?;
        }
        Ok(())
    }

    fn compliant_done(&self) -> bool {
        self.pending_rejoin.is_empty()
            && self.churn.as_ref().is_none_or(ChurnState::done)
            && self
                .peers
                .values()
                .filter(|p| p.is_compliant_leecher())
                // A voluntary departure that left incomplete is out of
                // the completion set — it can never finish. Without
                // churn `departed` implies `is_complete`, so this is
                // the historical predicate on every pre-churn scenario.
                .all(|p| p.is_complete() || p.departed())
    }

    /// Piece-major, so each plaintext is regenerated once per run; the
    /// comparison is on the bytes themselves, independent of the digest
    /// `Content::verify` relies on.
    fn plaintexts_ok(&self) -> bool {
        (0..self.content.pieces() as u32).all(|i| {
            let truth = self.content.piece(i);
            self.peers.values().all(|p| p.piece_bytes(i).is_none_or(|bytes| bytes == truth))
        })
    }

    fn fold(&mut self, d: &Delivery) {
        self.fold_buf.clear();
        d.frame.encode_into(&mut self.fold_buf);
        let link = (u64::from(d.from.0) << 32) ^ u64::from(d.to.0);
        self.fingerprint = digest(self.fingerprint ^ link, &self.fold_buf);
    }

    // ------------------------------------------------------------------
    // Report assembly
    // ------------------------------------------------------------------

    /// Audits the finished run and assembles its [`SwarmReport`].
    fn report(mut self, ticks: u64) -> SwarmReport {
        let plaintext_ok = self.plaintexts_ok();
        let done =
            || self.peers.values().filter(|p| p.role() == PeerRole::Leecher && p.is_complete());
        let completed_compliant = done().filter(|p| p.strategy().uploads()).count() as u32;
        let completed_free_riders = done().filter(|p| p.strategy().is_free_rider()).count() as u32;
        // From the scenario, not the survivors: a peer still waiting out
        // its crash outage at the deadline must count as incomplete.
        // Churn joins raise the target; a voluntary departure that left
        // before completing can never finish and leaves it.
        let total_compliant = self.cfg.peers - 1 - self.boot_free_riders
            + self.churn_joined as u32
            - self.churn_departed_incomplete;
        let completion_times: Vec<(u32, f64)> = self
            .peers
            .iter()
            .filter_map(|(id, p)| p.completion_time().map(|t| (id, t)))
            .collect();
        let peer_counters: Vec<(u32, PeerCounters)> =
            self.peers.iter().map(|(id, p)| (id, p.counters())).collect();
        let frame_rejects: u64 = peer_counters.iter().map(|(_, c)| c.frame_rejects).sum();
        let quarantines: u64 = peer_counters.iter().map(|(_, c)| c.quarantines).sum();
        let ledger_ok =
            self.peers.values().filter(|p| !p.departed()).all(PeerRuntime::ledger_consistent);
        let failed_oracles: Vec<OracleKind> = [
            (!self.observer.violations.is_empty(), OracleKind::KeyRelease),
            (!ledger_ok, OracleKind::Ledger),
            (!plaintext_ok, OracleKind::Plaintext),
            (completed_compliant != total_compliant, OracleKind::Completion),
            (quarantines > 0 && frame_rejects == 0, OracleKind::Quarantine),
        ]
        .into_iter()
        .filter_map(|(failed, oracle)| failed.then_some(oracle))
        .collect();
        self.note_failed_oracles(&failed_oracles);
        let (schedule, sched_decisions) = match self.perturb.take() {
            Some(p) => {
                let decisions = p.decisions();
                (Some(p.into_schedule()), decisions)
            }
            None => (None, 0),
        };
        let completed_by_strategy = self.completed_by_strategy();
        let (telemetry, peer_rings, flight_dumps, events_recorded) =
            self.finish_telemetry(quarantines);
        SwarmReport {
            backend: self.transport.backend(),
            peers: self.cfg.peers,
            free_riders: self.boot_free_riders,
            pieces: self.cfg.pieces,
            ticks,
            elapsed: self.transport.now(),
            completed_compliant,
            total_compliant,
            completed_free_riders,
            plaintext_ok,
            violations: std::mem::take(&mut self.observer.violations),
            chains_started: self.observer.chains_started(),
            mean_chain_len: self.observer.mean_chain_len(),
            max_chain_len: self.observer.max_chain_len(),
            chains_terminated: self.observer.chains_terminated(),
            uploads: self.observer.uploads,
            gifts: self.observer.gifts,
            reports: self.observer.reports,
            key_releases: self.observer.key_releases,
            escrow_transfers: self.observer.escrow_transfers,
            chaos_injects: self.chaos_injects,
            frame_rejects,
            quarantines,
            crashes: self.crashes,
            rejoins: self.rejoins,
            churn_joins: self.churn_joined,
            churn_departs: self.churn_departed,
            completed_by_strategy,
            false_reports: self.observer.false_reports,
            false_report_log: std::mem::take(&mut self.observer.false_report_log),
            colluder_gain: self.observer.colluder_gain,
            altruism_leaked: self.observer.altruism_leaked,
            seeder_leakage: self.observer.seeder_leakage,
            gift_leakage: self.observer.gift_leakage,
            sybil_checks: self.observer.sybil_checks,
            sybil_collisions: self.observer.sybil_collisions,
            whitewash_rejoins: self.attack.as_ref().map_or(0, |a| a.whitewash_rejoins),
            tracker_queries: self.tracker.queries(),
            ledger_ok,
            transport: self.transport.stats(),
            fingerprint: self.fingerprint,
            events_recorded,
            completion_times,
            peer_counters,
            telemetry,
            peer_rings,
            flight_dumps,
            schedule,
            sched_decisions,
            failed_oracles,
        }
    }

    /// Captures the safety-oracle sweep — the invariant set the schedule
    /// explorer searches against, audited on *every* run. Each failure
    /// trips the flight recorder, so a violating interleaving carries its
    /// causal context out in [`SwarmReport::flight_dumps`].
    fn note_failed_oracles(&mut self, failed: &[OracleKind]) {
        let now = self.transport.now();
        if let Some(tel) = self.telemetry.as_mut() {
            for _ in failed {
                tel.flight("oracle", now);
            }
        }
    }

    /// Per-strategy completion ledger `(completed, total)`: live (or
    /// completed-departed) leechers under their current strategy, plus
    /// any operator caught mid-whitewash at the deadline.
    fn completed_by_strategy(&self) -> BTreeMap<&'static str, (u32, u32)> {
        let leechers = self
            .peers
            .values()
            .filter(|p| p.role() != PeerRole::Seeder && (p.is_complete() || !p.departed()));
        let mid_whitewash = self
            .attack
            .iter()
            .flat_map(|attack| attack.pending_whitewash.iter().map(|slot| &slot.rejoin.peer));
        let mut ledger: BTreeMap<&'static str, (u32, u32)> = BTreeMap::new();
        for peer in leechers.chain(mid_whitewash) {
            let entry = ledger.entry(strategy_label(&peer.strategy())).or_insert((0, 0));
            entry.0 += u32::from(peer.is_complete());
            entry.1 += 1;
        }
        ledger
    }

    /// Folds the telemetry state, when present, into its report parts.
    fn finish_telemetry(
        &mut self,
        quarantines: u64,
    ) -> (Option<SwarmTelemetry>, Vec<PeerRing>, Vec<FlightDump>, u64) {
        let Some(tel) = self.telemetry.take() else { return (None, Vec::new(), Vec::new(), 0) };
        let tel_peers: Vec<(u32, PeerCounters, i64)> = self
            .peers
            .iter()
            .map(|(id, p)| (id, p.counters(), p.goodwill_balance()))
            .collect();
        let terminations = [
            ("gift", self.observer.chains_terminated() as u64),
            ("departure", self.departed_handled.len() as u64),
            ("crash", self.crashes),
            ("quarantine", quarantines),
        ];
        let (swarm, rings, dumps, emitted) = tel.finish(
            self.transport.now(),
            &tel_peers,
            &self.observer.chain_lengths(),
            &terminations,
        );
        (Some(swarm), rings, dumps, emitted)
    }
}

/// Runs `cfg` on a fresh deterministic [`ChannelMesh`].
///
/// # Errors
///
/// Propagates any transport-level [`NetError`].
pub fn run_swarm(cfg: SwarmConfig) -> Result<SwarmReport, NetError> {
    let mesh = ChannelMesh::with_chaos(cfg.plan, cfg.chaos.clone(), cfg.tick_dt);
    SwarmHarness::new(mesh, cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{FreeRiderConfig, GroupId};
    use std::cell::Cell;

    thread_local! {
        /// Swaps `tick_due` for [`scan_every_peer`] on this test's thread.
        pub(super) static SCAN_EVERY_PEER: Cell<bool> = const { Cell::new(false) };
    }

    /// The reference scheduler: every peer, every tick, in ascending id
    /// order. The timer wheel must reproduce its frame stream exactly.
    pub(super) fn scan_every_peer<T: Transport>(
        h: &mut SwarmHarness<T>,
        now: f64,
        staged: &mut Staged,
    ) {
        h.ready.clear();
        for (id, peer) in h.peers.iter_mut() {
            let mut out: Outbox = Vec::new();
            peer.on_tick(now, &mut out);
            staged.extend(stage(NodeId(id), out));
            h.woke.insert(id);
        }
    }

    /// `run_swarm` under [`scan_every_peer`].
    fn run_scanning(cfg: SwarmConfig) -> SwarmReport {
        SCAN_EVERY_PEER.set(true);
        let report = run_swarm(cfg);
        SCAN_EVERY_PEER.set(false);
        report.expect("every-peer scan")
    }

    #[test]
    fn small_swarm_completes_cleanly() {
        let report = run_swarm(SwarmConfig::default()).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.completed_compliant, report.total_compliant);
        assert!(report.uploads > 0);
        assert!(report.key_releases > 0);
        assert_eq!(report.events_recorded, 0, "telemetry off records nothing");
    }

    #[test]
    fn events_recorded_counts_every_telemetry_ring_record() {
        // A small capacity makes the rings overwrite, so the count of
        // emitted events exceeds what the rings still hold.
        let cfg = SwarmConfig { telemetry: true, trace_capacity: 16, ..SwarmConfig::default() };
        let report = run_swarm(cfg).expect("run");
        // A ring's sequence numbers count its emitted events from 0.
        let emitted: u64 =
            report.peer_rings.iter().map(|(_, r)| r.last().map_or(0, |rec| rec.seq + 1)).sum();
        let held: usize = report.peer_rings.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(report.events_recorded, emitted);
        assert!(report.events_recorded > held as u64, "{} vs {held}", report.events_recorded);
    }

    #[test]
    fn peer_table_iterates_ascending_through_crash_restore_and_rebirth() {
        let content = Content::new(1, 4, 16);
        let peer =
            |id| PeerRuntime::new(NodeId(id), PeerRole::Leecher, content.clone(), NetConfig::default(), 1);
        // `keys`, `iter` and `values` walk the same peers, each under its
        // own id.
        let ids = |t: &PeerTable| {
            let keys: Vec<u32> = t.keys().collect();
            assert!(t.iter().all(|(id, p)| p.id().0 == id));
            assert!(t.values().map(|p| p.id().0).eq(keys.iter().copied()));
            keys
        };
        let mut t = PeerTable::default();
        for id in 0..5 {
            t.insert(id, peer(id));
        }
        // A crash empties the slot; the id reads `None` until it returns.
        let crashed = t.remove(2).expect("live");
        assert!(t.get(2).is_none() && t.get_mut(2).is_none() && t.remove(2).is_none());
        assert_eq!(ids(&t), [0, 1, 3, 4]);
        // The restart comes back under the same id.
        t.insert(2, crashed);
        assert_eq!(ids(&t), [0, 1, 2, 3, 4]);
        // A whitewash leaves id 3 and is reborn under the next minted id.
        assert!(t.remove(3).is_some());
        t.insert(5, peer(5));
        assert_eq!(ids(&t), [0, 1, 2, 4, 5]);
        assert!(t.get(3).is_none());
        // Ids nobody minted read `None` too, however large.
        assert!(t.get(6).is_none() && t.get_mut(u32::MAX).is_none() && t.remove(u32::MAX).is_none());
    }

    #[test]
    fn every_peer_and_every_revival_shares_the_harness_digest_table() {
        let cfg = SwarmConfig::default();
        let peers = cfg.peers as usize;
        let mesh = ChannelMesh::with_chaos(cfg.plan, cfg.chaos.clone(), cfg.tick_dt);
        let mut harness = SwarmHarness::new(mesh, cfg).expect("boot");
        assert_eq!(harness.content.table_refs(), 1 + peers);
        let revived = harness.peers.remove(0).expect("seeder").restart(harness.cfg.seed);
        assert_eq!(harness.content.table_refs(), 1 + peers, "the restart keeps the peer's own clone");
        assert!(revived.is_complete(), "the seeder comes back whole");
    }

    #[test]
    fn free_rider_is_starved() {
        let cfg =
            SwarmConfig { strategies: vec![(7, Strategy::zero_upload())], ..SwarmConfig::default() };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(
            report.completed_free_riders, 0,
            "free rider should not finish while compliant peers are active"
        );
        let (done, total) = report.completed_by_strategy["free_rider"];
        assert_eq!((done, total), (0, 1));
        let (cdone, ctotal) = report.completed_by_strategy["compliant"];
        assert_eq!(cdone, ctotal);
    }

    #[test]
    fn plain_free_riders_build_no_attack_state() {
        // Zero-upload free-riders manipulate nothing: no engine, no
        // extra tracker traffic, no identity churn.
        let cfg = SwarmConfig {
            strategies: vec![(6, Strategy::zero_upload()), (7, Strategy::zero_upload())],
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert_eq!(report.free_riders, 2);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.tracker_queries, u64::from(report.peers), "rendezvous only");
        assert_eq!(report.whitewash_rejoins, 0);
        assert_eq!(report.false_reports, 0);
        assert_eq!(report.sybil_checks, 0);
    }

    #[test]
    fn large_view_requeries_hammer_the_tracker_and_still_starve() {
        let cfg = SwarmConfig {
            strategies: vec![
                (6, Strategy::FreeRider(FreeRiderConfig { large_view: true, ..Default::default() })),
                (7, Strategy::FreeRider(FreeRiderConfig { large_view: true, ..Default::default() })),
            ],
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.completed_free_riders, 0, "large view must not beat T-Chain");
        assert!(
            report.tracker_queries > u64::from(report.peers) + 4,
            "re-queries every rechoke period must show up in the tracker load, got {}",
            report.tracker_queries
        );
        let (_, total) = report.completed_by_strategy["aggressive"];
        assert_eq!(total, 2);
    }

    #[test]
    fn aggressive_runs_stay_deterministic() {
        let cfg = SwarmConfig {
            strategies: vec![
                (5, Strategy::aggressive_free_rider()),
                (6, Strategy::colluding_free_rider(GroupId(0))),
                (7, Strategy::colluding_free_rider(GroupId(0))),
            ],
            max_ticks: 2000,
            ..SwarmConfig::default()
        };
        let a = run_swarm(cfg.clone()).expect("a");
        let b = run_swarm(cfg).expect("b");
        assert!(a.same_run(&b), "attack runs must stay deterministic");
    }

    #[test]
    fn collusion_ring_is_detected_and_attributed() {
        let mut cfg = SwarmConfig {
            peers: 10,
            telemetry: true,
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        cfg.strategies = vec![
            (7, Strategy::colluding_free_rider(GroupId(0))),
            (8, Strategy::colluding_free_rider(GroupId(0))),
            (9, Strategy::colluding_free_rider(GroupId(0))),
        ];
        let report = run_swarm(cfg).expect("run");
        assert!(report.violations.is_empty(), "good-faith releases are not violations: {:?}",
            report.violations);
        assert!(report.false_reports > 0, "a 3-ring among 10 peers must collide");
        assert_eq!(
            report.false_report_log.len() as u64,
            report.false_reports,
            "every false report is attributed"
        );
        // Ring identities are the boot colluders (7..10) plus any
        // rebirth ids their whitewash cycles mint (10..). Compliant
        // peers and the seeder keep ids 0..7.
        for &(reporter, donor, requestor, _) in &report.false_report_log {
            assert!(reporter >= 7, "reporter {reporter} must be in the ring");
            assert!(requestor >= 7, "requestor {requestor} must be in the ring");
            assert!(donor < 7, "donor {donor} is the deceived outsider");
        }
        assert!(report.colluder_gain > 0, "false reports must unlock keys");
        assert!(
            report.colluder_gain <= report.false_reports,
            "one release per forged report at most (reliable mesh)"
        );
        assert!(report.sybil_checks >= report.false_reports);
        assert_eq!(report.completed_compliant, report.total_compliant, "compliant unaffected");
        assert!(
            report.flight_dumps.iter().any(|d| d.reason == "collusion"),
            "first detection must trip the flight recorder"
        );
    }

    #[test]
    fn whitewash_rejoins_keep_ledgers_and_compliant_completion() {
        let mut cfg = SwarmConfig {
            peers: 10,
            pieces: 48,
            max_ticks: 8000,
            // A late churn join keeps the swarm alive long enough for
            // the whitewash patience clock to run out.
            churn: ChurnPlan::none().with_joins(60.0, 2, 20.0),
            ..SwarmConfig::default()
        };
        cfg.strategies =
            vec![(8, Strategy::aggressive_free_rider()), (9, Strategy::aggressive_free_rider())];
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.whitewash_rejoins > 0, "patience must run out at least once");
        assert!(report.ledger_ok, "identity resets must not corrupt the k-pending ledger");
        assert_eq!(report.completed_compliant, report.total_compliant);
        let (done, total) = report.completed_by_strategy["aggressive"];
        assert_eq!(total, 2, "operators counted once across identities");
        assert_eq!(done, 0, "whitewashing must not beat T-Chain");
    }

    #[test]
    fn departure_exercises_escrow() {
        let cfg = SwarmConfig {
            peers: 10,
            net: NetConfig { depart_on_complete: true },
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let cfg = SwarmConfig { peers: 6, ..SwarmConfig::default() };
        let a = run_swarm(cfg.clone()).expect("run a");
        let b = run_swarm(cfg).expect("run b");
        assert!(a.same_run(&b));
    }

    #[test]
    fn same_run_ignores_only_the_telemetry_outputs() {
        let cfg = SwarmConfig { peers: 6, ..SwarmConfig::default() };
        let a = run_swarm(cfg.clone()).expect("run a");
        let traced = run_swarm(SwarmConfig { telemetry: true, ..cfg.clone() }).expect("traced");
        assert!(traced.events_recorded > 0 && traced.telemetry.is_some());
        assert!(a.same_run(&traced) && traced.same_run(&a), "telemetry observes the run only");
        let other = run_swarm(SwarmConfig { seed: cfg.seed ^ 1, ..cfg.clone() }).expect("other");
        assert!(!a.same_run(&other), "a different seed is a different run");
        let mut rerun = run_swarm(cfg).expect("rerun");
        assert!(a.same_run(&rerun));
        rerun.ticks += 1;
        assert!(!a.same_run(&rerun), "one differing field is a different run");
    }

    #[test]
    fn corruption_chaos_swarm_still_completes() {
        let cfg = SwarmConfig {
            chaos: ChaosPlan::corrupting(77, 0.05),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.chaos_injects > 0, "5 % corruption must actually fire");
        assert!(report.frame_rejects > 0, "corrupted frames must surface as rejects");
    }

    #[test]
    fn byzantine_mix_survives_the_full_taxonomy() {
        let cfg = SwarmConfig {
            chaos: ChaosPlan::byzantine(13, 0.08),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.chaos_injects > 0);
    }

    #[test]
    fn crash_restart_rejoins_from_checkpoint_and_completes() {
        let cfg = SwarmConfig {
            peers: 10,
            chaos: ChaosPlan::none().with_crash_restart(6.0, 0.25, 5.0),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.crashes > 0, "the crash event must fire before completion");
        assert_eq!(report.rejoins, report.crashes, "every crash rejoins");
        assert_eq!(report.completed_compliant, report.total_compliant);
    }

    #[test]
    fn same_seed_same_chaos_run() {
        let cfg = SwarmConfig {
            peers: 8,
            chaos: ChaosPlan::byzantine(5, 0.06).with_crash_restart(6.0, 0.25, 5.0),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let a = run_swarm(cfg.clone()).expect("run a");
        let b = run_swarm(cfg).expect("run b");
        assert!(a.same_run(&b), "chaos runs must stay deterministic");
    }

    #[test]
    fn telemetry_run_merges_causally_and_keeps_the_fingerprint() {
        let off = run_swarm(SwarmConfig::default()).expect("off");
        let cfg = SwarmConfig { telemetry: true, ..SwarmConfig::default() };
        let on = run_swarm(cfg).expect("on");
        assert!(on.ok(), "violations: {:?}", on.violations);
        assert!(on.same_run(&off), "causal stamps must not perturb the run");

        assert_eq!(on.peer_rings.len() as u32, on.peers, "every peer traced");
        let rings: Vec<Vec<TraceRecord>> =
            on.peer_rings.iter().map(|(_, r)| r.clone()).collect();
        let merged = tchain_obs::merge_traces(&rings).expect("rings merge");
        let arrows = tchain_obs::validate_causal(&merged).expect("causally consistent");
        assert!(arrows > 0, "flow arrows must connect sends to receives");

        let tel = on.telemetry.expect("aggregate present");
        assert!(tel.peers.iter().any(|p| p.request_key_latency.count() > 0));
        assert!(tel.peers.iter().any(|p| p.piece_rtt.count() > 0));
        assert!(tel.chain_lengths.count() > 0);
        let j = tel.fairness_index();
        assert!(j > 0.0 && j <= 1.0 + 1e-12, "Jain index in range, got {j}");
        let prom = tel.to_prometheus();
        assert!(prom.contains("tchain_fairness_index"));
        assert!(prom.contains("tchain_chain_length_bucket"));
    }

    #[test]
    fn telemetry_off_reports_nothing_extra() {
        let report = run_swarm(SwarmConfig::default()).expect("run");
        assert!(report.telemetry.is_none());
        assert!(report.peer_rings.is_empty());
        assert!(report.flight_dumps.is_empty());
    }

    #[test]
    fn quarantine_under_chaos_trips_the_flight_recorder() {
        let cfg = SwarmConfig {
            telemetry: true,
            chaos: ChaosPlan::corrupting(77, 0.05),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        if report.quarantines > 0 {
            assert!(!report.flight_dumps.is_empty(), "quarantine must capture a dump");
            let dump = &report.flight_dumps[0];
            assert_eq!(dump.reason, "quarantine");
            assert!(!dump.records.is_empty());
            assert!(!dump.to_jsonl().is_empty());
        }
    }

    #[test]
    fn schedulers_agree_on_every_membership_path() {
        // The timer wheel, the every-peer reference scan and the empty
        // explore replay must be one run, frame for frame, on every
        // admission and teardown path. A missed wake (or a scan-only
        // branch) diverges the fingerprint immediately.
        let base = SwarmConfig { peers: 12, max_ticks: 8000, ..SwarmConfig::default() };
        let churn = ChurnPlan::none()
            .with_joins(12.0, 4, 1.0)
            .with_flash_crowd(40.0, 3)
            .with_departures(25.0, 0.2);
        let whitewashers: Vec<(u32, Strategy)> =
            (9..12).map(|id| (id, Strategy::aggressive_free_rider())).collect();
        let duplication = ChaosPlan { seed: 0xC4A0, duplicate_prob: 0.03, ..ChaosPlan::none() };
        type Exercised = fn(&SwarmReport) -> bool;
        let table: [(&str, SwarmConfig, Exercised); 6] = [
            ("clean", SwarmConfig { peers: 8, ..base.clone() }, |_| true),
            (
                "chaos + crash-restart",
                SwarmConfig {
                    peers: 8,
                    chaos: ChaosPlan::byzantine(5, 0.06).with_crash_restart(6.0, 0.25, 5.0),
                    ..base.clone()
                },
                |r| r.crashes > 0 && r.rejoins == r.crashes,
            ),
            (
                "churn",
                SwarmConfig { churn: churn.clone(), ..base.clone() },
                |r| r.churn_joins == 7 && r.churn_departs > 0,
            ),
            (
                "whitewash",
                SwarmConfig {
                    pieces: 48,
                    // A late join keeps the swarm alive long enough for
                    // the whitewash patience clock to run out.
                    churn: ChurnPlan::none().with_joins(60.0, 2, 20.0),
                    strategies: whitewashers.clone(),
                    ..base.clone()
                },
                |r| r.whitewash_rejoins > 0 && r.tracker_queries > u64::from(r.peers),
            ),
            (
                "hostile composite",
                SwarmConfig {
                    chaos: duplication.with_crash_restart(8.0, 0.25, 6.0),
                    churn,
                    strategies: whitewashers,
                    telemetry: true,
                    ..base
                },
                |r| r.crashes > 0 && r.churn_departs > 0 && r.whitewash_rejoins > 0,
            ),
            (
                // Big enough that a scheduling divergence cannot hide.
                "64 peers",
                SwarmConfig {
                    peers: 64,
                    pieces: 12,
                    piece_len: 256,
                    seed: 0x5CA1E64,
                    ..SwarmConfig::default()
                },
                |r| r.ok(),
            ),
        ];
        let outcome = |r: &SwarmReport| {
            let counts = (r.crashes, r.churn_joins, r.churn_departs, r.whitewash_rejoins);
            (r.fingerprint, r.ticks, r.completion_times.clone(), counts, r.peer_counters.clone())
        };
        for (name, cfg, exercised) in table {
            let wheel = run_swarm(cfg.clone()).expect("wheel");
            assert!(exercised(&wheel), "{name}: the scenario must reach its path");
            let scan = run_scanning(cfg.clone());
            assert_eq!(outcome(&wheel), outcome(&scan), "{name}: wheel vs every-peer scan");
            let replay =
                SwarmConfig { explore: Some(ExplorePlan::Replay(Schedule::default())), ..cfg };
            let replay = run_swarm(replay).expect("empty replay");
            assert_eq!(outcome(&wheel), outcome(&replay), "{name}: wheel vs empty replay");
        }
    }

    #[test]
    fn churn_joins_and_departures_complete() {
        let cfg = SwarmConfig {
            peers: 10,
            churn: ChurnPlan::none().with_joins(12.0, 3, 2.0).with_departures(30.0, 0.25),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.churn_joins, 3);
        assert!(report.churn_departs > 0, "a quarter of the live leechers must leave");
        assert!(report.ledger_ok, "churn must preserve the k-pending ledger invariant");
        assert_eq!(report.completed_compliant, report.total_compliant);
    }

    #[test]
    fn flash_crowd_is_absorbed() {
        let cfg = SwarmConfig {
            peers: 8,
            churn: ChurnPlan::none().with_flash_crowd(10.0, 6),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("run");
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.churn_joins, 6);
        assert_eq!(report.total_compliant, 8 - 1 + 6);
        assert_eq!(report.completed_compliant, report.total_compliant);
    }

    #[test]
    fn churn_same_seed_same_fingerprint() {
        let cfg = SwarmConfig {
            peers: 10,
            churn: ChurnPlan::none()
                .with_joins(12.0, 4, 1.0)
                .with_departures(25.0, 0.2)
                .with_flash_crowd(40.0, 3),
            max_ticks: 8000,
            ..SwarmConfig::default()
        };
        let a = run_swarm(cfg.clone()).expect("a");
        let b = run_swarm(cfg).expect("b");
        assert!(a.same_run(&b), "churn must stay deterministic");
    }

    #[test]
    fn churn_free_runs_keep_the_pre_churn_fingerprint_shape() {
        // ChurnPlan::none() must add zero RNG draws and zero report
        // deltas relative to the pre-churn harness.
        let report = run_swarm(SwarmConfig::default()).expect("run");
        assert_eq!(report.churn_joins, 0);
        assert_eq!(report.churn_departs, 0);
        assert!(report.ledger_ok);
    }

    #[test]
    fn telemetry_peer_metrics_are_id_ordered_despite_gaps() {
        // `SwarmTelemetry::peers` ascending-id order is a documented
        // invariant, not a BTreeMap accident: feed finish() ids out of
        // order with the gaps a departed/churned swarm leaves.
        let tel = TelemetryState::new(64);
        let ids = [42u32, 3, 7, 0];
        let peers: Vec<(u32, PeerCounters, i64)> =
            ids.iter().map(|&id| (id, PeerCounters::default(), 0i64)).collect();
        let (swarm, rings, _, _) = tel.finish(1.0, &peers, &[2, 3], &[("gift", 1)]);
        let got: Vec<u32> = swarm.peers.iter().map(|m| m.peer).collect();
        assert_eq!(got, vec![0, 3, 7, 42]);
        let ring_ids: Vec<u32> = rings.iter().map(|&(id, _)| id).collect();
        assert_eq!(ring_ids, vec![0, 3, 7, 42], "trace rings share the ordering contract");
    }

    #[test]
    fn chaos_free_runs_are_untouched_by_the_chaos_layer() {
        // A ChaosPlan::none() config must produce the exact run an
        // unmodified harness would: zero injections, zero draws.
        let report = run_swarm(SwarmConfig::default()).expect("run");
        assert_eq!(report.chaos_injects, 0);
        assert_eq!(report.frame_rejects, 0);
        assert_eq!(report.crashes, 0);
    }
}

