//! The [`Transport`] abstraction and its deterministic in-process backend.
//!
//! A transport moves [`Frame`]s between peers in discrete steps. The
//! [`ChannelMesh`] backend is the simulation-grade one: delivery order is
//! a total order over `(delivery time, enqueue sequence)` driven by a
//! virtual tick clock, loss and latency come from `tchain-sim`'s
//! [`FaultPlan`] (control frames share the PR 1 lossy-control-plane model;
//! bulk piece data is reliable-but-delayed, like TCP under a lossy
//! network), and each link is FIFO — a piece-upload header can never be
//! overtaken by its own bulk data. Two meshes built from the same plan
//! deliver byte-identical schedules.
//!
//! A mesh send and delivery cost O(1) per frame: frames wait in a
//! time-bucketed [`DelayQueue`] (one FIFO per delivery time, so a tick's
//! frames share one bucket), peers live in an endpoint table indexed by
//! id, and the per-link FIFO floor is kept only when the plan has a
//! latency model — the one input under which a floor can bind.
//!
//! A [`ChaosPlan`] layers *byzantine* behaviour on top of the fault model:
//! frames can be corrupted in flight (bit flips, truncation, bogus length
//! prefixes), duplicated, reordered past the per-link FIFO, or cut off by
//! a mid-stream reset. Corruption is applied to the frame's real wire
//! encoding and re-parsed through [`FrameDecoder`], so what a receiver
//! observes is exactly what the hardened codec produces: either a valid
//! frame (the mutation was survivable) or a typed [`FrameError`] surfaced
//! as a [`FrameReject`] through [`Transport::take_chaos`].

use crate::frame::{CausalMeta, Frame, FrameDecoder, FrameError, MAX_FRAME_BODY};
use std::collections::BTreeMap;
use tchain_sim::{
    ChaosAction, ChaosPlan, ChaosState, DelayQueue, FaultPlan, FaultState, FrameMutation, NodeId,
    Route, REORDER_DELAY,
};

/// One delivered frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// The frame.
    pub frame: Frame,
    /// Causal telemetry stamp the sender attached, if any. Never part of
    /// the harness fingerprint — folding uses the bare frame encoding —
    /// so enabling telemetry cannot change a run's identity.
    pub meta: Option<CausalMeta>,
    /// Ground truth from the chaos layer: this delivery is the fabricated
    /// second copy of a duplicated frame, not an action the sender took.
    /// Receivers must ignore it (to them a duplicate is indistinguishable
    /// from a retransmission); the god's-eye observer uses it to keep
    /// chaos noise out of the protocol audit. Only [`ChannelMesh`]
    /// injects chaos, so `TcpLoopback` always reports `false`.
    pub duplicated: bool,
}

/// Errors surfaced by a transport backend.
#[derive(Debug)]
pub enum NetError {
    /// The framing layer rejected a stream.
    Frame(FrameError),
    /// An OS-level I/O failure (TCP backend).
    Io(std::io::Error),
    /// A frame was addressed to a peer the transport has never seen.
    UnknownPeer(NodeId),
    /// The backend lost internal state it relies on (e.g. a connection
    /// table entry vanished) — a bug surfaced as an error, not a panic.
    BackendState(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "framing: {e}"),
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            NetError::BackendState(what) => write!(f, "backend state invariant broken: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Why a receiver rejected traffic from a sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectCause {
    /// The frame failed strict decoding (checksum, bounds, kind, body).
    Malformed(FrameError),
    /// The connection was reset mid-stream; in-flight bytes were lost.
    Reset,
}

/// A frame (or stream) the receiving side refused.
///
/// `from` is the *apparent offender* — the peer whose link produced the
/// garbage. Under injected chaos the sender is innocent, which is exactly
/// the false-accusation ambiguity a real byzantine-tolerant system faces;
/// quarantine policy has to be calibrated to tolerate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameReject {
    /// Apparent offender (the sending side of the link).
    pub from: NodeId,
    /// The receiver that rejected the traffic.
    pub to: NodeId,
    /// What was wrong.
    pub cause: RejectCause,
}

/// What the chaos layer did, in deterministic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosRecord {
    /// An injection decision taken at send time.
    Inject {
        /// Sending peer of the targeted frame.
        from: NodeId,
        /// Receiving peer of the targeted frame.
        to: NodeId,
        /// What was done to it.
        action: ChaosAction,
    },
    /// A receiver-side rejection, surfaced at delivery time.
    Reject(FrameReject),
}

/// Delivery counters every backend keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted by `send`.
    pub sent: u64,
    /// Frames handed to recipients.
    pub delivered: u64,
    /// Frames lost (fault plan, disconnected recipient, chaos).
    pub dropped: u64,
    /// Payload bytes delivered (frame encodings, header included).
    pub bytes_delivered: u64,
}

/// A step-driven frame mover.
pub trait Transport {
    /// Registers a peer endpoint. Must be called before frames are sent
    /// to or from `id`.
    fn register(&mut self, id: NodeId) -> Result<(), NetError>;

    /// Queues one frame for delivery.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the backend cannot accept the frame.
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), NetError>;

    /// Queues one frame with an optional [`CausalMeta`] telemetry stamp.
    ///
    /// The default discards the stamp and forwards to [`Transport::send`]
    /// — a meta-unaware backend stays correct, it just yields deliveries
    /// with `meta: None`. Backends that carry the stamp must not let it
    /// perturb the delivery schedule (chaos/fault draws key on the bare
    /// frame length).
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the backend cannot accept the frame.
    fn send_meta(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        meta: Option<CausalMeta>,
    ) -> Result<(), NetError> {
        let _ = meta;
        self.send(from, to, frame)
    }

    /// Advances one step and returns the frames delivered during it, in
    /// the backend's delivery order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] on a transport-level failure.
    fn advance(&mut self) -> Result<Vec<Delivery>, NetError>;

    /// Seconds elapsed on the backend's clock (virtual for the mesh,
    /// wall for TCP).
    fn now(&self) -> f64;

    /// Marks a peer departed. The cut is *bidirectional*: new frames
    /// addressed to it **and** new frames it tries to send are dropped
    /// — a departed peer has no working socket in either direction.
    /// Frames already in flight still deliver, like bytes in
    /// the pipe of a closing connection: that is what lets a §II-B4
    /// escrow handoff escape a departing donor, and what keeps the
    /// harness observer's ledger complete when a donation races a
    /// departure within one tick.
    fn disconnect(&mut self, id: NodeId);

    /// Re-admits a previously disconnected peer (crash-restart rejoin).
    /// The default forwards to [`Transport::register`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the backend cannot restore the endpoint.
    fn reconnect(&mut self, id: NodeId) -> Result<(), NetError> {
        self.register(id)
    }

    /// Drains the backend's chaos log: injections decided at send time
    /// and receiver-side rejects surfaced at delivery time. Chaos-free
    /// backends return an empty vector.
    fn take_chaos(&mut self) -> Vec<ChaosRecord> {
        Vec::new()
    }

    /// Stable backend name for benches and reports.
    fn backend(&self) -> &'static str;

    /// `true` when control frames cannot be silently lost — peers skip
    /// arming retransmission timers on reliable transports, mirroring the
    /// fluid drivers' zero-cost fault-free path.
    fn reliable(&self) -> bool;

    /// Delivery counters.
    fn stats(&self) -> TransportStats;
}

/// An entry scheduled on the mesh's delivery queue.
#[derive(Debug)]
enum Queued {
    Deliver(Delivery),
    Reject(FrameReject),
}

impl Queued {
    fn link(&self) -> (u32, u32) {
        match self {
            Queued::Deliver(d) => (d.from.0, d.to.0),
            Queued::Reject(r) => (r.from.0, r.to.0),
        }
    }
}

/// What the mesh knows about one peer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    /// Never registered: frames addressed here are an error.
    Unknown,
    /// Registered and connected.
    Live,
    /// Disconnected: new frames to or from it are dropped.
    Gone,
}

/// Deterministic in-process mesh with seeded loss/latency and optional
/// byzantine chaos.
#[derive(Debug)]
pub struct ChannelMesh {
    now: f64,
    tick_dt: f64,
    fault: FaultState,
    chaos: ChaosState,
    queue: DelayQueue<Queued>,
    /// Per-link FIFO floor: no frame may deliver earlier than the last
    /// frame queued on the same `(from, to)` link. `None` when the plan
    /// has no latency model, where no floor can bind (see
    /// [`ChannelMesh::with_chaos`]).
    link_floor: Option<BTreeMap<(u32, u32), f64>>,
    /// Endpoint state by peer id; the harness mints ids densely.
    endpoints: Vec<Endpoint>,
    records: Vec<ChaosRecord>,
    stats: TransportStats,
}

impl ChannelMesh {
    /// A mesh advancing `tick_dt` virtual seconds per [`Transport::advance`],
    /// with faults drawn from `plan`'s own seeded stream and no chaos.
    pub fn new(plan: FaultPlan, tick_dt: f64) -> Self {
        Self::with_chaos(plan, ChaosPlan::none(), tick_dt)
    }

    /// A mesh with both a fault plan and a byzantine chaos plan, each on
    /// its own seeded stream.
    ///
    /// # Panics
    ///
    /// Panics if `tick_dt` is not positive, or if `plan` schedules crash
    /// events: the mesh only routes frames, so they would never fire. Crash
    /// peers on the wire with `ChaosPlan::with_crash_restart`.
    pub fn with_chaos(plan: FaultPlan, chaos: ChaosPlan, tick_dt: f64) -> Self {
        assert!(tick_dt > 0.0, "tick_dt must be positive");
        assert!(
            plan.crashes.is_empty(),
            "ChannelMesh ignores FaultPlan crash events; crash peers with \
             ChaosPlan::with_crash_restart"
        );
        // Per-link floors only where they can bind. Without a latency
        // model every send is scheduled at `now + tick_dt`, so every
        // floor a send raises is at most the current `now + tick_dt` and
        // the clamp in `enqueue` never moves a frame; `Reorder` holds go
        // through `enqueue_reordered`, which never raises a floor. A
        // property of the plan, fixed for the mesh's lifetime.
        let link_floor = plan.has_latency().then(BTreeMap::new);
        ChannelMesh {
            now: 0.0,
            tick_dt,
            fault: FaultState::new(plan),
            chaos: ChaosState::new(chaos),
            queue: DelayQueue::new(),
            link_floor,
            endpoints: Vec::new(),
            records: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    fn endpoint(&self, id: NodeId) -> Endpoint {
        self.endpoints.get(id.index()).copied().unwrap_or(Endpoint::Unknown)
    }

    fn enqueue(&mut self, at: f64, q: Queued) {
        let next_tick = self.now + self.tick_dt;
        let at = match &mut self.link_floor {
            // FIFO per link: clamp to the latest scheduled delivery, so a
            // latency draw can delay but never reorder a link's stream.
            // Receiver-side rejects obey the same floor — garbage arrives
            // where the stream put it.
            Some(floors) => {
                let floor = floors.entry(q.link()).or_insert(0.0);
                *floor = at.max(*floor).max(next_tick);
                *floor
            }
            None => at.max(next_tick),
        };
        self.queue.push(at, q);
    }

    /// Schedules past the per-link floor *without raising it*: the one
    /// deliberate FIFO violation, used by [`ChaosAction::Reorder`] so
    /// later frames on the link overtake this one.
    fn enqueue_reordered(&mut self, at: f64, q: Queued) {
        self.queue.push(at.max(self.now + self.tick_dt), q);
    }

    /// Runs one frame through the chaos layer and schedules the outcome.
    ///
    /// The chaos draw keys on the *bare* frame length (meta excluded), so
    /// attaching telemetry stamps cannot change which frames get hit —
    /// same-seed schedules match with telemetry on or off.
    fn dispatch(&mut self, at: f64, from: NodeId, to: NodeId, frame: Frame, meta: Option<CausalMeta>) {
        if !self.chaos.active() {
            self.enqueue(at, Queued::Deliver(Delivery { from, to, frame, meta, duplicated: false }));
            return;
        }
        let action = self.chaos.action(frame.encoded_len());
        if action != ChaosAction::Deliver {
            self.records.push(ChaosRecord::Inject { from, to, action });
        }
        match action {
            ChaosAction::Deliver => {
                self.enqueue(at, Queued::Deliver(Delivery { from, to, frame, meta, duplicated: false }));
            }
            ChaosAction::Corrupt(mutation) => {
                // Mutation targets the bare wire image; any meta stamp is
                // considered destroyed with the frame.
                let mut bytes = frame.encode();
                apply_mutation(&mut bytes, mutation);
                match redecode(&bytes) {
                    Redecode::Frame(f) => {
                        // The mutation survived strict decoding (e.g. a
                        // truncate that landed exactly on a frame
                        // boundary is impossible, but a checksum
                        // collision is theoretically survivable).
                        self.enqueue(
                            at,
                            Queued::Deliver(Delivery { from, to, frame: f, meta: None, duplicated: false }),
                        );
                    }
                    Redecode::Nothing => {
                        // Truncated to nothing: the frame silently
                        // vanished, indistinguishable from loss.
                        self.stats.dropped += 1;
                    }
                    Redecode::Bad(e) => {
                        let cause = RejectCause::Malformed(e);
                        self.enqueue(at, Queued::Reject(FrameReject { from, to, cause }));
                    }
                }
            }
            ChaosAction::Duplicate => {
                self.enqueue(
                    at,
                    Queued::Deliver(Delivery { from, to, frame: frame.clone(), meta, duplicated: false }),
                );
                self.enqueue(
                    at,
                    Queued::Deliver(Delivery { from, to, frame, meta, duplicated: true }),
                );
            }
            ChaosAction::Reorder => {
                let held = at + REORDER_DELAY;
                self.enqueue_reordered(held, Queued::Deliver(Delivery { from, to, frame, meta, duplicated: false }));
            }
            ChaosAction::Reset => {
                // The stream dies mid-frame: the bytes never arrive, the
                // receiver observes a reset instead.
                self.enqueue(at, Queued::Reject(FrameReject { from, to, cause: RejectCause::Reset }));
            }
        }
    }
}

/// Applies a drawn [`FrameMutation`] to a frame's wire encoding.
fn apply_mutation(bytes: &mut Vec<u8>, m: FrameMutation) {
    match m {
        FrameMutation::BitFlip { offset, mask } => {
            if let Some(b) = bytes.get_mut(offset) {
                *b ^= mask;
            }
        }
        FrameMutation::Truncate { keep } => bytes.truncate(keep),
        FrameMutation::OversizeLen => {
            if bytes.len() >= 4 {
                bytes[..4].copy_from_slice(&(MAX_FRAME_BODY + 1).to_le_bytes());
            }
        }
    }
}

enum Redecode {
    Frame(Frame),
    Nothing,
    Bad(FrameError),
}

/// Re-parses mutated wire bytes exactly as a receiver's decoder would.
fn redecode(bytes: &[u8]) -> Redecode {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    match dec.next_frame() {
        Ok(Some(f)) if dec.buffered() == 0 => Redecode::Frame(f),
        Ok(Some(_)) => Redecode::Bad(FrameError::TruncatedStream),
        Ok(None) => match dec.finish() {
            Ok(()) => Redecode::Nothing,
            Err(e) => Redecode::Bad(e),
        },
        Err(e) => Redecode::Bad(e),
    }
}

impl Transport for ChannelMesh {
    fn register(&mut self, id: NodeId) -> Result<(), NetError> {
        if self.endpoints.len() <= id.index() {
            self.endpoints.resize(id.index() + 1, Endpoint::Unknown);
        }
        // Re-registering a departed peer revives it (crash-restart).
        self.endpoints[id.index()] = Endpoint::Live;
        Ok(())
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), NetError> {
        self.send_meta(from, to, frame, None)
    }

    fn send_meta(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        meta: Option<CausalMeta>,
    ) -> Result<(), NetError> {
        let recipient = self.endpoint(to);
        if recipient == Endpoint::Unknown {
            return Err(NetError::UnknownPeer(to));
        }
        self.stats.sent += 1;
        if recipient == Endpoint::Gone || self.endpoint(from) == Endpoint::Gone {
            self.stats.dropped += 1;
            return Ok(());
        }
        let route = match frame {
            // Control plane: subject to the full fault model (loss and
            // latency) — the PR 1 assumption under test.
            Frame::Control(_) => self.fault.route(self.now),
            // Bulk data rides a reliable stream: never lost, and delayed
            // only behind its link's FIFO floor.
            Frame::PieceData { .. } => Route::Now,
        };
        match route {
            Route::Dropped => {
                self.stats.dropped += 1;
            }
            Route::Now => self.dispatch(self.now + self.tick_dt, from, to, frame, meta),
            Route::At(t) => self.dispatch(t, from, to, frame, meta),
        }
        Ok(())
    }

    fn advance(&mut self) -> Result<Vec<Delivery>, NetError> {
        self.now += self.tick_dt;
        let mut out = Vec::new();
        while let Some(q) = self.queue.pop_due(self.now) {
            match q {
                Queued::Deliver(d) => {
                    // Frames already in flight when the recipient departed
                    // still arrive (bytes in the pipe of a closing
                    // connection): the departed runtime ignores them, but
                    // the harness observer must see them — a same-tick
                    // donation toward a departing requestor is a
                    // transaction the §II-B4 handoff may legitimately name.
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += d.frame.encoded_len() as u64;
                    out.push(d);
                }
                Queued::Reject(r) => {
                    self.stats.dropped += 1;
                    self.records.push(ChaosRecord::Reject(r));
                }
            }
        }
        Ok(out)
    }

    fn now(&self) -> f64 {
        self.now
    }

    fn disconnect(&mut self, id: NodeId) {
        // A never-registered id stays unknown: frames to it remain an
        // error, not a silent drop.
        if self.endpoint(id) == Endpoint::Live {
            self.endpoints[id.index()] = Endpoint::Gone;
        }
    }

    fn take_chaos(&mut self) -> Vec<ChaosRecord> {
        std::mem::take(&mut self.records)
    }

    fn backend(&self) -> &'static str {
        "channel_mesh"
    }

    fn reliable(&self) -> bool {
        !self.fault.active() && !self.chaos.active()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_proto::wire::Message;
    use tchain_proto::PieceId;
    use tchain_sim::{ensure, ensure_eq, forall, sized, LatencyModel, SimRng};

    fn ctrl(p: u32) -> Frame {
        Frame::Control(Message::Have { piece: PieceId(p) })
    }

    #[test]
    fn delivers_next_tick_in_fifo_order() {
        let mut m = ChannelMesh::new(FaultPlan::none(), 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        assert!(m.reliable());
        for p in 0..5 {
            m.send(NodeId(1), NodeId(2), ctrl(p)).unwrap();
        }
        let got = m.advance().unwrap();
        assert_eq!(got.len(), 5);
        for (p, d) in got.iter().enumerate() {
            assert_eq!(d.frame, ctrl(p as u32));
        }
        assert!(m.advance().unwrap().is_empty());
        assert_eq!(m.stats().delivered, 5);
        assert!(m.take_chaos().is_empty(), "chaos-free mesh logs nothing");
    }

    #[test]
    fn unknown_recipient_is_an_error() {
        let mut m = ChannelMesh::new(FaultPlan::none(), 0.1);
        m.register(NodeId(1)).unwrap();
        assert!(matches!(
            m.send(NodeId(1), NodeId(9), ctrl(0)),
            Err(NetError::UnknownPeer(NodeId(9)))
        ));
    }

    #[test]
    #[should_panic(expected = "crash peers with ChaosPlan::with_crash_restart")]
    fn fault_plan_crash_events_are_rejected() {
        ChannelMesh::new(FaultPlan::none().with_crash(5.0, 0.25), 0.1);
    }

    #[test]
    fn disconnect_before_register_stays_unknown() {
        let mut m = ChannelMesh::new(FaultPlan::none(), 0.1);
        m.register(NodeId(1)).unwrap();
        m.disconnect(NodeId(4));
        assert!(matches!(
            m.send(NodeId(1), NodeId(4), ctrl(0)),
            Err(NetError::UnknownPeer(NodeId(4)))
        ));
        m.register(NodeId(4)).unwrap();
        m.send(NodeId(1), NodeId(4), ctrl(1)).unwrap();
        assert_eq!(m.advance().unwrap().len(), 1);
    }

    /// The sequence number a test frame carries.
    fn label(frame: &Frame) -> u32 {
        match frame {
            Frame::Control(Message::Have { piece }) | Frame::PieceData { piece, .. } => piece.0,
            other => panic!("not a test frame: {other:?}"),
        }
    }

    /// Frame labels per `(from, to)` link, in order.
    type PerLink = BTreeMap<(u32, u32), Vec<u32>>;

    fn per_link<'a>(deliveries: impl Iterator<Item = &'a Delivery>) -> PerLink {
        let mut links = PerLink::new();
        for d in deliveries {
            links.entry((d.from.0, d.to.0)).or_default().push(label(&d.frame));
        }
        links
    }

    /// Sends labelled frames over 1–4 links of a 3-peer mesh in a random
    /// send/advance interleaving, then drains it. Returns every delivery
    /// in order, the labels sent per link and the labels of the bulk
    /// frames among them.
    fn random_traffic(
        rng: &mut SimRng,
        size: usize,
        m: &mut ChannelMesh,
    ) -> (Vec<Delivery>, PerLink, Vec<u32>) {
        for i in 0..3 {
            m.register(NodeId(i)).unwrap();
        }
        let mut pairs: Vec<(u32, u32)> =
            (0..3).flat_map(|a| (0..3).filter(move |&b| b != a).map(move |b| (a, b))).collect();
        rng.shuffle(&mut pairs);
        pairs.truncate(1 + rng.below(4));
        let mixed = rng.chance(0.5);
        let (mut sent, mut bulk, mut log) = (PerLink::new(), Vec::new(), Vec::new());
        for label in 0..sized(rng, size, 1, 300) as u32 {
            let (a, b) = pairs[rng.below(pairs.len())];
            let frame = if mixed && rng.chance(0.3) {
                bulk.push(label);
                Frame::PieceData { piece: PieceId(label), payload: vec![label as u8; 3] }
            } else {
                ctrl(label)
            };
            m.send(NodeId(a), NodeId(b), frame).unwrap();
            sent.entry((a, b)).or_default().push(label);
            if rng.chance(0.3) {
                log.extend(m.advance().unwrap());
            }
        }
        for _ in 0..100_000 {
            if m.in_flight() == 0 {
                break;
            }
            log.extend(m.advance().unwrap());
        }
        (log, sent, bulk)
    }

    fn random_latency(rng: &mut SimRng) -> LatencyModel {
        match rng.below(3) {
            0 => LatencyModel::Fixed(rng.range(0.0, 1.0)),
            1 => LatencyModel::Uniform { lo: 0.0, hi: rng.range(0.05, 2.0) },
            _ => LatencyModel::Exp { mean: rng.range(0.05, 1.0) },
        }
    }

    #[test]
    fn latency_never_reorders_a_link() {
        forall(0x01A7_E4C7, 128, |rng, size| {
            let latency = random_latency(rng);
            let loss = if rng.chance(0.5) { 0.2 } else { 0.0 };
            let plan = FaultPlan::lossy(rng.u64(), loss).with_latency(latency);
            let mut m = ChannelMesh::new(plan, 0.1);
            let (log, sent, bulk) = random_traffic(rng, size, &mut m);
            ensure_eq!(m.in_flight(), 0, "{latency:?}: the mesh drains");
            let mut got = per_link(log.iter());
            for (link, labels) in &sent {
                // Delivered = sent minus drops, in send order: labels rise
                // along a link, so an in-order subsequence is exactly
                // "strictly increasing and each one was sent there".
                let delivered = got.remove(link).unwrap_or_default();
                ensure!(
                    delivered.windows(2).all(|w| w[0] < w[1]),
                    "{latency:?}: link {link:?} reordered: {delivered:?}"
                );
                ensure!(delivered.iter().all(|l| labels.binary_search(l).is_ok()));
                if loss == 0.0 {
                    ensure_eq!(&delivered, labels, "{latency:?}: link {link:?}");
                }
            }
            ensure!(got.is_empty(), "deliveries on links never sent on: {got:?}");
            let delivered: Vec<u32> = log.iter().map(|d| label(&d.frame)).collect();
            ensure!(bulk.iter().all(|l| delivered.contains(l)), "bulk data is never lost");
            let stats = m.stats();
            ensure_eq!(stats.delivered + stats.dropped, stats.sent);
            ensure_eq!(stats.delivered, log.len() as u64);
            Ok(())
        });
    }

    #[test]
    fn a_duplicate_arrives_right_after_its_original_under_latency() {
        forall(0xD0B1E, 64, |rng, size| {
            let latency = random_latency(rng);
            let chaos = ChaosPlan { seed: rng.u64(), duplicate_prob: 0.3, ..ChaosPlan::none() };
            let plan = FaultPlan { seed: rng.u64(), ..FaultPlan::none() }.with_latency(latency);
            let mut m = ChannelMesh::with_chaos(plan, chaos, 0.1);
            let (log, sent, _) = random_traffic(rng, size, &mut m);
            ensure_eq!(m.in_flight(), 0);
            for (i, d) in log.iter().enumerate().filter(|(_, d)| d.duplicated) {
                let original = &log[i - 1];
                ensure!(
                    !original.duplicated && (original.from, original.to) == (d.from, d.to),
                    "{latency:?}: copy {i} does not follow its original"
                );
                ensure_eq!(&original.frame, &d.frame);
            }
            let injected = m
                .take_chaos()
                .iter()
                .filter(|r| matches!(r, ChaosRecord::Inject { action: ChaosAction::Duplicate, .. }))
                .count();
            ensure_eq!(log.iter().filter(|d| d.duplicated).count(), injected, "one copy per injection");
            let got = per_link(log.iter().filter(|d| !d.duplicated));
            ensure_eq!(got, sent, "{latency:?}: originals keep per-link send order");
            Ok(())
        });
    }

    #[test]
    fn bulk_data_survives_control_loss() {
        let mut m = ChannelMesh::new(FaultPlan::lossy(5, 1.0), 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        assert!(!m.reliable());
        m.send(NodeId(1), NodeId(2), ctrl(0)).unwrap();
        m.send(NodeId(1), NodeId(2), Frame::PieceData { piece: PieceId(0), payload: vec![1] })
            .unwrap();
        let got = m.advance().unwrap();
        assert_eq!(got.len(), 1, "control dropped, data delivered");
        assert!(matches!(got[0].frame, Frame::PieceData { .. }));
        assert_eq!(m.stats().dropped, 1);
    }

    #[test]
    fn disconnect_cuts_both_directions_by_default() {
        let mut m = ChannelMesh::new(FaultPlan::none(), 0.1);
        for i in 1..=3 {
            m.register(NodeId(i)).unwrap();
        }
        // 2's outgoing frame is already queued when it departs.
        m.send(NodeId(2), NodeId(3), ctrl(7)).unwrap();
        m.disconnect(NodeId(2));
        // New traffic is dead in both directions.
        m.send(NodeId(1), NodeId(2), ctrl(0)).unwrap();
        m.send(NodeId(2), NodeId(3), ctrl(8)).unwrap();
        let got = m.advance().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].to, NodeId(3), "escrow-style goodbye still delivers");
        assert_eq!(got[0].frame, ctrl(7));
        assert_eq!(m.stats().dropped, 2);
    }

    #[test]
    fn reconnect_revives_a_departed_peer() {
        let mut m = ChannelMesh::new(FaultPlan::none(), 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        m.disconnect(NodeId(2));
        m.send(NodeId(1), NodeId(2), ctrl(0)).unwrap();
        assert!(m.advance().unwrap().is_empty());
        m.reconnect(NodeId(2)).unwrap();
        m.send(NodeId(1), NodeId(2), ctrl(1)).unwrap();
        let got = m.advance().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].frame, ctrl(1));
    }

    #[test]
    fn corruption_surfaces_as_typed_rejects_not_deliveries() {
        let mut m = ChannelMesh::with_chaos(FaultPlan::none(), ChaosPlan::corrupting(7, 1.0), 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        assert!(!m.reliable(), "chaos makes the transport unreliable");
        for p in 0..32 {
            m.send(NodeId(1), NodeId(2), ctrl(p)).unwrap();
        }
        let got = m.advance().unwrap();
        assert!(got.is_empty(), "every frame was corrupted, none may deliver: {got:?}");
        let records = m.take_chaos();
        let injects = records
            .iter()
            .filter(|r| matches!(r, ChaosRecord::Inject { action: ChaosAction::Corrupt(_), .. }))
            .count();
        let rejects: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                ChaosRecord::Reject(rj) => Some(rj),
                _ => None,
            })
            .collect();
        assert_eq!(injects, 32);
        assert!(!rejects.is_empty());
        for r in &rejects {
            assert_eq!((r.from, r.to), (NodeId(1), NodeId(2)));
            assert!(matches!(r.cause, RejectCause::Malformed(_)));
        }
        // Every corrupted frame is accounted for: it either surfaced as a
        // reject or vanished silently (truncate-to-nothing) — both count
        // as drops, and nothing else was in flight.
        assert_eq!(m.stats().dropped, 32);
        assert!(m.take_chaos().is_empty(), "take_chaos drains");
    }

    #[test]
    fn duplicates_deliver_twice_resets_reject() {
        let dup_only = ChaosPlan { duplicate_prob: 1.0, ..ChaosPlan::corrupting(9, 0.0) };
        let mut m = ChannelMesh::with_chaos(FaultPlan::none(), dup_only, 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        m.send(NodeId(1), NodeId(2), ctrl(4)).unwrap();
        let got = m.advance().unwrap();
        assert_eq!(got.len(), 2, "duplicated frame arrives twice");
        assert_eq!(got[0].frame, got[1].frame);

        let reset_only = ChaosPlan { reset_prob: 1.0, ..ChaosPlan::corrupting(9, 0.0) };
        let mut m = ChannelMesh::with_chaos(FaultPlan::none(), reset_only, 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        m.send(NodeId(1), NodeId(2), ctrl(4)).unwrap();
        assert!(m.advance().unwrap().is_empty());
        let records = m.take_chaos();
        assert!(records
            .iter()
            .any(|r| matches!(r, ChaosRecord::Reject(rj) if rj.cause == RejectCause::Reset)));
    }

    #[test]
    fn reorder_overtakes_link_fifo() {
        let reorder_only = ChaosPlan { reorder_prob: 1.0, ..ChaosPlan::corrupting(5, 0.0) };
        // Only the first frame is reordered; the rest pass a fresh mesh
        // where chaos applies per-frame, so use a plan with p=1 for frame
        // one then observe later clean frames overtaking it.
        let mut m = ChannelMesh::with_chaos(FaultPlan::none(), reorder_only, 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        m.send(NodeId(1), NodeId(2), ctrl(0)).unwrap();
        // All frames get reordered by +REORDER_DELAY here, but each later send's
        // extra delay lands at a later absolute time, so FIFO *within the
        // reordered set* would still hold. Instead check the floor was
        // not raised: a subsequent clean mesh frame (reorder disabled) is
        // simulated by delivering reject-free after the hold expires.
        let early = m.advance().unwrap();
        assert!(early.is_empty(), "held frame must not deliver next tick");
        let mut seen = Vec::new();
        for _ in 0..30 {
            seen.extend(m.advance().unwrap());
        }
        assert_eq!(seen.len(), 1, "held frame eventually delivers");
        let records = m.take_chaos();
        assert!(records
            .iter()
            .any(|r| matches!(r, ChaosRecord::Inject { action: ChaosAction::Reorder, .. })));
    }

    #[test]
    fn meta_rides_the_mesh_without_perturbing_schedule() {
        let meta = CausalMeta { origin: 1, lamport: 5, span: 77 };
        let mut m = ChannelMesh::new(FaultPlan::none(), 0.1);
        m.register(NodeId(1)).unwrap();
        m.register(NodeId(2)).unwrap();
        m.send_meta(NodeId(1), NodeId(2), ctrl(0), Some(meta)).unwrap();
        m.send(NodeId(1), NodeId(2), ctrl(1)).unwrap();
        let got = m.advance().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].meta, Some(meta));
        assert_eq!(got[1].meta, None);

        // Same chaos seed, with and without stamps: identical frame
        // schedule and chaos decisions.
        let chaos = ChaosPlan::byzantine(21, 0.5);
        let run = |stamp: bool| {
            let mut m = ChannelMesh::with_chaos(FaultPlan::none(), chaos.clone(), 0.1);
            m.register(NodeId(1)).unwrap();
            m.register(NodeId(2)).unwrap();
            let mut log = Vec::new();
            for i in 0..60 {
                let meta = stamp.then_some(CausalMeta { origin: 1, lamport: i as u64 + 1, span: 0 });
                m.send_meta(NodeId(1), NodeId(2), ctrl(i), meta).unwrap();
                for d in m.advance().unwrap() {
                    log.push(format!("{:?}", d.frame));
                }
                for r in m.take_chaos() {
                    log.push(format!("{r:?}"));
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn same_plan_same_schedule() {
        let plan = FaultPlan::lossy(11, 0.3).with_latency(LatencyModel::Exp { mean: 0.4 });
        let run = || {
            let mut m = ChannelMesh::new(plan.clone(), 0.1);
            m.register(NodeId(1)).unwrap();
            m.register(NodeId(2)).unwrap();
            let mut log = Vec::new();
            for i in 0..40 {
                m.send(NodeId(1), NodeId(2), ctrl(i)).unwrap();
                for d in m.advance().unwrap() {
                    log.push((m.now().to_bits(), format!("{:?}", d.frame)));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn same_chaos_plan_same_injections() {
        let chaos = ChaosPlan::byzantine(21, 0.5);
        let run = || {
            let mut m = ChannelMesh::with_chaos(FaultPlan::none(), chaos.clone(), 0.1);
            m.register(NodeId(1)).unwrap();
            m.register(NodeId(2)).unwrap();
            let mut log = Vec::new();
            for i in 0..60 {
                m.send(NodeId(1), NodeId(2), ctrl(i)).unwrap();
                for d in m.advance().unwrap() {
                    log.push(format!("{:?}", d.frame));
                }
                for r in m.take_chaos() {
                    log.push(format!("{r:?}"));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
