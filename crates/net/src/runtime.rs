//! The executable T-Chain peer: a message-driven state machine.
//!
//! A [`PeerRuntime`] is pure with respect to its transport — the harness
//! feeds it delivered frames ([`PeerRuntime::on_frame`]) and clock ticks
//! ([`PeerRuntime::on_tick`]); the peer pushes outgoing `(to, frame)`
//! pairs into an outbox. All protocol state of §II-B lives here:
//!
//! * **donor side** — initiation/opportunistic rounds bounded by upload
//!   slots, payee designation (direct reciprocity §II-B2 first, then a
//!   random interested neighbor, §II-B3 unencrypted termination when no
//!   payee exists), the per-neighbor `k`-pending flow-control ledger of
//!   §II-D2, key minting/release through `tchain-crypto`, and the PR 1
//!   stall sweep that closes free-riding chains;
//! * **requestor side** — ciphertext buffering, the reciprocate-before-
//!   key obligation, §II-D1 newcomer bootstrapping by *forward
//!   re-encryption* (a newcomer with no plaintext re-encrypts the very
//!   ciphertext it just received under a fresh key and passes it on —
//!   ChaCha20's XOR keystream commutes, so layered keys can be stripped
//!   in any order), and hash-verified decryption against [`Content`];
//! * **payee side** — reception reports with bounded exponential-backoff
//!   retransmission on unreliable transports, and the §II-B4 escrow:
//!   keys a departing donor hands over are held until the matching
//!   reciprocation arrives, then forwarded to the requestor.
//!
//! Determinism: all iteration is over `BTreeMap`/sorted vectors and all
//! randomness comes from a forked [`SimRng`], so a peer's behavior is a
//! function of (seed, delivered frames, tick times) alone.

use crate::content::{digest, Content};
use crate::frame::Frame;
use crate::neighbors::Neighborhood;
use crate::strategy::Strategy;
use std::collections::BTreeMap;
use tchain_crypto::{KeyId, Keyring, PieceKey};
use tchain_proto::wire::{Message, KEY_WIRE_SIZE};
use tchain_proto::{Bitfield, PieceId};
use tchain_sim::{NodeId, SimRng};

/// Outgoing frames produced by one peer callback.
pub type Outbox = Vec<(NodeId, Frame)>;

/// Where the peer starts. Whether it follows the protocol is its
/// [`Strategy`]'s call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRole {
    /// Holds the full file from t=0 and initiates chains (§II-B1).
    Seeder,
    /// Starts empty and downloads.
    Leecher,
}

/// §II-D2 flow-control bound: a neighbor with `k` un-reciprocated pieces
/// from us is neither served nor designated payee. The paper fixes
/// `k = 2`.
const K_PENDING: u32 = 2;

/// Concurrent chain initiations a seeder keeps in flight (§II-B1).
const SEEDER_SLOTS: usize = 4;

/// Chain initiations a completed leecher keeps in flight (§II-D3
/// opportunistic seeding).
const OPPORTUNISTIC_SLOTS: usize = 1;

/// Seconds before a donor closes an un-reciprocated transaction
/// (free-riding stall, §IV-F) and a requestor abandons an unfulfillable
/// obligation.
const STALL_TIMEOUT: f64 = 25.0;

/// Seconds before the first report retransmission (unreliable transports
/// only).
const RETRY_BASE: f64 = 2.0;

/// Multiplicative backoff between retransmissions.
const RETRY_BACKOFF: f64 = 2.0;

/// Report retransmission attempts before giving up.
const MAX_RETRIES: u32 = 4;

/// Frame rejects tolerated from one neighbor before it is quarantined
/// (byzantine strike policy).
const STRIKE_LIMIT: u32 = 3;

/// Seconds a quarantined neighbor is excluded from donor rounds and payee
/// designation. Quarantine is deliberately temporary: under injected chaos
/// the "offender" is innocent, so a bounded exclusion keeps false
/// positives from starving the swarm.
const QUARANTINE_SECS: f64 = 30.0;

/// Tunables of the net runtime. The protocol parameters the paper fixes
/// are the constants above; completed, non-departing leechers always keep
/// seeding (§II-D3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetConfig {
    /// Leechers depart the moment they complete, handing §II-B4 escrow
    /// keys to the designated payees.
    pub depart_on_complete: bool,
}

/// A transaction where this peer is the donor, keyed by
/// `(requestor, piece)` in [`PeerRuntime::donor_txns`].
#[derive(Debug)]
struct DonorTxn {
    payee: Option<u32>,
    key_id: Option<KeyId>,
    started: f64,
    reported: bool,
    /// Ciphertext source when this upload is a §II-D1 forward:
    /// `(original donor, piece)` of our own pending entry.
    source: Option<(u32, u32)>,
    /// Underlying keys received for `source` before our own release was
    /// unlocked; sent along with the minted key once reported.
    pending_relay: Vec<[u8; KEY_WIRE_SIZE]>,
    /// Every key wire blob sent to the requestor, for duplicate-report
    /// re-sends (PR 1 key-loss recovery).
    sent_keys: Vec<[u8; KEY_WIRE_SIZE]>,
}

/// An encrypted piece received but not yet decryptable, keyed by
/// `(donor, piece)`.
#[derive(Debug)]
struct PendingPiece {
    reciprocates: Option<(u32, u32)>,
    payee: Option<u32>,
    ciphertext_len: u32,
    /// Working buffer: ciphertext with every received key applied.
    work: Option<Vec<u8>>,
    /// Digests of applied keys (XOR self-inverts, so a re-applied
    /// duplicate would *undo* decryption — dedupe is correctness here).
    applied: Vec<u64>,
    /// The forward transaction sourcing this entry, if we re-encrypted
    /// and passed the ciphertext on (§II-D1): `(requestor, piece)` key
    /// into `donor_txns`.
    forward_txn: Option<(u32, u32)>,
}

/// A reciprocation owed: upload something to `payee` so the key for
/// `(donor, piece)` gets released.
#[derive(Debug)]
struct Obligation {
    donor: u32,
    piece: u32,
    payee: u32,
    since: f64,
    asked_neighbor: bool,
}

/// Escrowed keys held for one `(donor, piece)`: each entry pairs the
/// requestor the key settles with the key bytes themselves.
type EscrowedKeys = Vec<(u32, [u8; KEY_WIRE_SIZE])>;

/// A payee's pending report retransmission.
#[derive(Debug)]
struct ReportRetry {
    donor: u32,
    requestor: u32,
    piece: u32,
    next_at: f64,
    attempt: u32,
}

/// Per-peer counters surfaced in the swarm report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters {
    /// Hash-verified key completions: one per pending ciphertext whose
    /// keys decrypt it to the right bytes, including pieces already
    /// held through another chain (those bytes are then dropped). Not a
    /// count of distinct pieces obtained.
    pub decrypted: u64,
    /// Pieces completed from §II-B3 unencrypted uploads.
    pub unencrypted: u64,
    /// Key releases sent (own mints, relays and escrow forwards).
    pub keys_sent: u64,
    /// Reception reports sent (first sends, not retries).
    pub reports_sent: u64,
    /// Report retransmissions fired.
    pub report_retries: u64,
    /// Transactions closed by the donor stall sweep.
    pub stalled_txns: u64,
    /// Keys escrowed to a payee at departure (§II-B4).
    pub escrowed: u64,
    /// Frame rejects attributed to neighbors (byzantine strikes).
    pub frame_rejects: u64,
    /// Neighbors quarantined after crossing the strike limit.
    pub quarantines: u64,
    /// Piece bodies pushed onto the wire (donations, gifts, re-uploads).
    pub uploaded: u64,
}

/// The executable peer.
#[derive(Debug)]
pub struct PeerRuntime {
    id: NodeId,
    role: PeerRole,
    /// Behavioural strategy, consulted (via its capability methods) at
    /// every protocol fork. [`PeerRuntime::new`] makes the peer
    /// compliant; [`PeerRuntime::with_strategy`] sets it freely.
    /// Every reincarnation keeps it: an operator's brain survives its
    /// identities.
    strategy: Strategy,
    cfg: NetConfig,
    content: Content,
    arm_retries: bool,
    rng: SimRng,
    keyring: Keyring,
    have: Bitfield,
    plain: Vec<Option<Vec<u8>>>,
    neighbors: Neighborhood,
    donor_txns: BTreeMap<(u32, u32), DonorTxn>,
    active_donations: usize,
    ledger: BTreeMap<u32, u32>,
    pending_in: BTreeMap<(u32, u32), PendingPiece>,
    obligations: Vec<Obligation>,
    retries: Vec<ReportRetry>,
    /// §II-B4 escrow held as payee: keys from a departed donor, keyed
    /// `(donor, piece)` with the requestor each key is destined for
    /// (from the handoff's `requestor` marker — one donor can have
    /// several transactions for the same piece with different
    /// requestors, and the keys are not interchangeable).
    escrow: BTreeMap<(u32, u32), EscrowedKeys>,
    /// Reciprocations observed as payee: `(donor, piece)` → every
    /// requestor whose reciprocation we received, the lookup escrow
    /// forwarding needs when keys arrive late.
    recips_seen: BTreeMap<(u32, u32), std::collections::BTreeSet<u32>>,
    /// `(requestor, piece)` gift uploads already sent (§II-B3) → send
    /// time, so the donor round does not re-gift while data is in
    /// flight. Entries expire after [`STALL_TIMEOUT`]: a gift is
    /// fire-and-forget, and on a byzantine transport the one gift a
    /// requestor's endgame depends on can be corrupted in flight —
    /// suppressing re-gifts forever would wedge the swarm.
    gifted: BTreeMap<(u32, u32), f64>,
    /// Byzantine strike counters per apparent offender.
    strikes: BTreeMap<u32, u32>,
    /// Quarantined offenders → local-clock expiry. Swept lazily each
    /// tick; a quarantined neighbor is skipped by donor rounds and payee
    /// designation but keeps its obligations (liveness over punishment).
    quarantined: BTreeMap<u32, f64>,
    /// Incarnation: 0 for the original process, bumped by each
    /// [`PeerRuntime::restart`] and [`PeerRuntime::rebirth`].
    generation: u32,
    complete_at: Option<f64>,
    departed: bool,
    counters: PeerCounters,
}

impl PeerRuntime {
    /// Builds a compliant peer. Seeders start with the full file;
    /// leechers start empty.
    pub fn new(id: NodeId, role: PeerRole, content: Content, cfg: NetConfig, seed: u64) -> Self {
        Self::with_strategy(id, role, content, cfg, seed, Strategy::Compliant)
    }

    /// Builds a peer with an explicit behavioural [`Strategy`]. The
    /// role decides starting holdings (seeders begin full) and donor
    /// scheduling class; the strategy decides everything the adversary
    /// engine forks on, free-riding included.
    pub fn with_strategy(
        id: NodeId,
        role: PeerRole,
        content: Content,
        cfg: NetConfig,
        seed: u64,
        strategy: Strategy,
    ) -> Self {
        let mut peer = Self::incarnation(id, role, strategy, content, cfg, seed, 0);
        if role == PeerRole::Seeder {
            let pieces = peer.content.pieces();
            peer.have = Bitfield::full(pieces);
            peer.plain = (0..pieces as u32).map(|i| Some(peer.content.piece(i))).collect();
        }
        peer
    }

    /// Incarnation `generation` of peer `id`, holding nothing. The
    /// generation salts the RNG and keyring streams; the salt is 0 for
    /// the original process, so generation 0 draws exactly the streams
    /// of an unsalted peer.
    fn incarnation(
        id: NodeId,
        role: PeerRole,
        strategy: Strategy,
        content: Content,
        cfg: NetConfig,
        seed: u64,
        generation: u32,
    ) -> Self {
        let pieces = content.pieces();
        let salt = u64::from(generation).wrapping_mul(0xA076_1D64_78BD_642F);
        PeerRuntime {
            id,
            role,
            strategy,
            cfg,
            content,
            arm_retries: false,
            rng: SimRng::new(seed ^ u64::from(id.0).wrapping_mul(0x9E37_79B9) ^ salt),
            keyring: Keyring::new(seed ^ (u64::from(id.0) << 32) ^ 0x5EED ^ salt),
            have: Bitfield::new(pieces),
            plain: vec![None; pieces],
            neighbors: Neighborhood::new(pieces),
            donor_txns: BTreeMap::new(),
            active_donations: 0,
            ledger: BTreeMap::new(),
            pending_in: BTreeMap::new(),
            obligations: Vec::new(),
            retries: Vec::new(),
            escrow: BTreeMap::new(),
            recips_seen: BTreeMap::new(),
            gifted: BTreeMap::new(),
            strikes: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            generation,
            complete_at: None,
            departed: false,
            counters: PeerCounters::default(),
        }
    }

    /// Enables report retransmission timers (harness calls this when the
    /// transport is unreliable; on reliable transports the retry path
    /// stays cold, like the fluid drivers' fault-free fast path).
    pub fn set_arm_retries(&mut self, arm: bool) {
        self.arm_retries = arm;
    }

    /// This peer's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The peer's role.
    pub fn role(&self) -> PeerRole {
        self.role
    }

    /// A leecher that follows the protocol: the population whose
    /// completion a swarm run is judged by.
    pub(crate) fn is_compliant_leecher(&self) -> bool {
        self.role == PeerRole::Leecher && self.strategy.uploads()
    }

    /// The peer's behavioural strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// `true` when every piece is held.
    pub fn is_complete(&self) -> bool {
        self.have.is_complete()
    }

    /// Transport time at which the file completed.
    pub fn completion_time(&self) -> Option<f64> {
        self.complete_at
    }

    /// `true` once the peer left the swarm (§II-B4 graceful departure).
    pub fn departed(&self) -> bool {
        self.departed
    }

    /// Pieces currently held.
    pub fn have_count(&self) -> usize {
        self.have.count()
    }

    /// The decrypted bytes of piece `i`, if held.
    pub fn piece_bytes(&self, i: u32) -> Option<&[u8]> {
        self.plain.get(i as usize).and_then(|p| p.as_deref())
    }

    /// Per-peer protocol counters.
    pub fn counters(&self) -> PeerCounters {
        self.counters
    }

    /// Goodwill balance: pieces served to the swarm minus pieces obtained
    /// from it. Positive for net contributors, negative for net consumers.
    /// T-Chain's invariant is that this cannot drift far negative for a
    /// compliant peer — free-riders stall instead of draining donors.
    pub fn goodwill_balance(&self) -> i64 {
        let got = self.counters.decrypted + self.counters.unencrypted;
        self.counters.uploaded as i64 - got as i64
    }

    /// Incarnation (0 = original, bumped per restart or rebirth).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// `true` while `peer` is quarantined (between a strike-limit breach
    /// and the lazy expiry sweep of [`PeerRuntime::on_tick`]).
    pub fn is_quarantining(&self, peer: NodeId) -> bool {
        self.quarantined.contains_key(&peer.0)
    }

    /// Deterministic ±20 % jitter drawn from this peer's own RNG stream.
    /// Retry schedules use it so peers who lost the same frame do not
    /// retransmit in lockstep (a thundering-herd de-correlator).
    fn jittered(&mut self, base: f64) -> f64 {
        base * (0.8 + 0.4 * self.rng.f64())
    }

    /// Records a rejected frame (or reset) attributed to `offender`.
    ///
    /// Every reject is a strike; at `STRIKE_LIMIT` strikes
    /// the offender enters quarantine for `QUARANTINE_SECS`
    /// and the counter resets. Returns the quarantine expiry when this
    /// reject tripped the limit. Quarantine only withholds *new goodwill*
    /// (donor rounds, payee designation); existing obligations toward the
    /// offender stand, so a falsely-accused peer is never starved — the
    /// stall sweep, not the strike policy, owns abandoned transactions.
    pub fn on_frame_reject(&mut self, now: f64, offender: NodeId) -> Option<f64> {
        if self.departed {
            return None;
        }
        self.counters.frame_rejects += 1;
        let strikes = self.strikes.entry(offender.0).or_insert(0);
        *strikes += 1;
        if *strikes >= STRIKE_LIMIT {
            *strikes = 0;
            let until = now + QUARANTINE_SECS;
            self.quarantined.insert(offender.0, until);
            self.counters.quarantines += 1;
            Some(until)
        } else {
            None
        }
    }

    /// Handshake with an initial tracker membership list.
    pub fn bootstrap(&mut self, members: &[NodeId], out: &mut Outbox) {
        for &m in members {
            if m == self.id {
                continue;
            }
            self.neighbors.meet(m.0);
            out.push((m, Frame::Control(Message::bitfield(&self.have))));
        }
    }

    // ------------------------------------------------------------------
    // Frame handling
    // ------------------------------------------------------------------

    /// Whether a wire-supplied piece index names a piece of this swarm's
    /// file. Everything past `on_control` / `on_piece_data` indexes
    /// bitfields and `plain` with it unchecked.
    fn in_file(&self, piece: PieceId) -> bool {
        piece.index() < self.content.pieces()
    }

    /// Processes one delivered frame.
    pub fn on_frame(&mut self, now: f64, from: NodeId, frame: Frame, out: &mut Outbox) {
        if self.departed {
            return;
        }
        match frame {
            Frame::Control(msg) => self.on_control(now, from, msg, out),
            Frame::PieceData { piece, payload } => self.on_piece_data(now, from, piece, payload, out),
        }
    }

    fn on_control(&mut self, now: f64, from: NodeId, msg: Message, out: &mut Outbox) {
        let addressed_in_file = match msg {
            Message::PieceUpload { piece, reciprocates, .. } => {
                self.in_file(piece) && reciprocates.is_none_or(|(p, _)| self.in_file(p))
            }
            Message::Have { piece }
            | Message::ReceptionReport { piece, .. }
            | Message::KeyRelease { piece, .. } => self.in_file(piece),
            Message::Bitfield { .. } | Message::NeighborRequest { .. } => true,
        };
        if !addressed_in_file {
            return; // wrong swarm, like a bitfield of the wrong size
        }
        match msg {
            Message::Bitfield { pieces, bits } => {
                if pieces as usize != self.content.pieces() {
                    return; // wrong swarm
                }
                let Some(bf) = Bitfield::from_packed_bytes(pieces as usize, &bits) else {
                    return;
                };
                if self.neighbors.learn_bitfield(from.0, &bf) {
                    out.push((from, Frame::Control(Message::bitfield(&self.have))));
                }
            }
            Message::Have { piece } => {
                self.neighbors.learn_have(from.0, piece);
            }
            Message::NeighborRequest { from: who } => {
                // §II-B1: a reciprocator introducing itself before serving
                // us as payee. Learn it, tell it what we have.
                let who = if who.0 == from.0 { who } else { from };
                self.neighbors.meet(who.0);
                out.push((who, Frame::Control(Message::bitfield(&self.have))));
            }
            Message::PieceUpload { reciprocates, piece, payee, ciphertext_len } => {
                self.pending_in.insert(
                    (from.0, piece.0),
                    PendingPiece {
                        reciprocates: reciprocates.map(|(p, d)| (p.0, d.0)),
                        payee: payee.map(|p| p.0),
                        ciphertext_len,
                        work: None,
                        applied: Vec::new(),
                        forward_txn: None,
                    },
                );
            }
            Message::ReceptionReport { requestor, piece } => {
                self.handle_report(now, from.0, requestor.0, piece.0, out);
            }
            Message::KeyRelease { piece, requestor, key } => {
                self.on_key(now, from.0, piece.0, requestor.map(|r| r.0), key, out);
            }
        }
    }

    /// Bulk arrival: pair the payload with its header (FIFO links
    /// guarantee header-first; an orphan payload means the header was
    /// lost, and the stall machinery owns that case).
    fn on_piece_data(&mut self, now: f64, from: NodeId, piece: PieceId, payload: Vec<u8>, out: &mut Outbox) {
        if !self.in_file(piece) {
            return;
        }
        let key = (from.0, piece.0);
        let Some(entry) = self.pending_in.get_mut(&key) else {
            return; // orphan data: header dropped by the lossy control plane
        };
        if entry.work.is_some() || payload.len() != entry.ciphertext_len as usize {
            return; // duplicate or mangled
        }
        entry.work = Some(payload);
        let reciprocates = entry.reciprocates;
        let payee = entry.payee;

        // Reception complete — if this upload reciprocates an earlier
        // transaction, the §II-B2 step-3 report goes to that donor now.
        // Even a free-riding payee reports: the §III-A2 cheat is refusing
        // to *upload*, and a received ciphertext is only ever worth
        // anything to the payee if its reception is on record (the fluid
        // driver's free-riders report truthfully for the same reason).
        if let Some((p0, d0)) = reciprocates {
            self.recips_seen.entry((d0, p0)).or_default().insert(from.0);
            if d0 == self.id.0 {
                // Direct reciprocity (§II-B2): we are donor and payee
                // in one; the report is internal.
                self.handle_report(now, self.id.0, from.0, p0, out);
            } else {
                self.send_report(now, d0, from.0, p0, out);
            }
            // §II-B4: a departed donor's key may already sit in escrow.
            self.try_escrow_forward(d0, p0, out);
        }

        match payee {
            None => {
                // §II-B3 termination upload: plaintext, no obligation.
                let bytes = self.pending_in.remove(&key).and_then(|e| e.work);
                if let Some(bytes) = bytes {
                    if !self.have.has(piece) && self.content.verify(piece.0, &bytes) {
                        self.counters.unencrypted += 1;
                        self.complete_piece(now, piece.0, bytes, out);
                    }
                }
            }
            Some(p) => {
                // Owed even when the piece is already held via another
                // chain: the donor is waiting for the reciprocation.
                if self.strategy.uploads() {
                    self.obligations.push(Obligation {
                        donor: from.0,
                        piece: piece.0,
                        payee: p,
                        since: now,
                        asked_neighbor: false,
                    });
                }
                // Free-riders hoard the ciphertext and do nothing.
            }
        }
    }

    /// Donor side of §II-B2 steps 3–4: a report unlocks the key release.
    fn handle_report(&mut self, _now: f64, reporter: u32, requestor: u32, piece: u32, out: &mut Outbox) {
        if !self.strategy.uploads() {
            return;
        }
        let Some(txn) = self.donor_txns.get_mut(&(requestor, piece)) else {
            return; // stale or forged
        };
        // Only the designated payee's word counts (§II-B: the payee is
        // the witness the donor chose).
        if txn.payee != Some(reporter) {
            return;
        }
        if txn.reported {
            // Duplicate report: the key (or its delivery) was lost —
            // re-send everything released so far (PR 1 recovery).
            let resend = txn.sent_keys.clone();
            for k in resend {
                self.counters.keys_sent += 1;
                out.push((NodeId(requestor), Frame::Control(Message::KeyRelease {
                    piece: PieceId(piece),
                    requestor: None,
                    key: k,
                })));
            }
            return;
        }
        txn.reported = true;
        let mut release: Vec<[u8; KEY_WIRE_SIZE]> = Vec::new();
        if let Some(kid) = txn.key_id.take() {
            if let Some(k) = self.keyring.release(kid) {
                release.push(k.to_wire_bytes());
            }
        }
        release.append(&mut txn.pending_relay);
        for k in &release {
            txn.sent_keys.push(*k);
        }
        for k in release {
            self.counters.keys_sent += 1;
            out.push((NodeId(requestor), Frame::Control(Message::KeyRelease {
                piece: PieceId(piece),
                requestor: None,
                key: k,
            })));
        }
        self.active_donations = self.active_donations.saturating_sub(1);
        let pending = self.ledger.entry(requestor).or_insert(0);
        *pending = pending.saturating_sub(1);
    }

    fn send_report(&mut self, now: f64, donor: u32, requestor: u32, piece: u32, out: &mut Outbox) {
        self.counters.reports_sent += 1;
        out.push((NodeId(donor), Frame::Control(Message::ReceptionReport {
            requestor: NodeId(requestor),
            piece: PieceId(piece),
        })));
        if self.arm_retries {
            let delay = self.jittered(RETRY_BASE);
            self.retries.push(ReportRetry {
                donor,
                requestor,
                piece,
                next_at: now + delay,
                attempt: 0,
            });
        }
    }

    /// Key arrival: attribute the key to a pending entry, apply it
    /// (deduped — XOR would self-invert), relay to a §II-D1 forward if
    /// one sources this entry, verify, complete.
    ///
    /// Attribution by the `requestor` marker:
    /// * `Some(r)`, `r ≠ self` — the §II-B4 handoff of a departing
    ///   donor: we are the payee, the key belongs to its transaction
    ///   with `r`; hold it in escrow until `r`'s reciprocation shows up;
    /// * `Some(self)` — the payee's escrow *forward* of a departed
    ///   donor's key: applied to the entry whose designated payee is
    ///   the sender;
    /// * `None` — the normal §II-B2 release or §II-D1 underlying-key
    ///   relay, applied to the sender's own entry `(from, piece)`.
    ///
    /// A key matching no entry is a stale duplicate (the piece already
    /// completed via another chain, or the header was lost and the
    /// stall machinery owns the transaction) and is dropped.
    fn on_key(
        &mut self,
        now: f64,
        from: u32,
        piece: u32,
        requestor: Option<u32>,
        key: [u8; KEY_WIRE_SIZE],
        out: &mut Outbox,
    ) {
        let entry_key = match requestor {
            Some(r) if r != self.id.0 => {
                self.escrow.entry((from, piece)).or_default().push((r, key));
                self.try_escrow_forward(from, piece, out);
                return;
            }
            Some(_) => {
                let forwarded = self
                    .pending_in
                    .iter()
                    .find(|(&(_, p), e)| p == piece && e.payee == Some(from))
                    .map(|(&k, _)| k);
                match forwarded {
                    Some(k) => k,
                    None => return,
                }
            }
            None => {
                let k = (from, piece);
                if !self.pending_in.contains_key(&k) {
                    return;
                }
                k
            }
        };
        let fp = digest(0, &key);
        let (verified, forward) = {
            let entry = self.pending_in.get_mut(&entry_key).expect("checked");
            if entry.applied.contains(&fp) {
                return; // duplicate re-send
            }
            entry.applied.push(fp);
            let mut verified = None;
            if let Some(work) = entry.work.as_mut() {
                PieceKey::from_wire_bytes(&key).apply(work);
                if self.content.verify(piece, work) {
                    verified = entry.work.take();
                }
            }
            (verified, entry.forward_txn)
        };
        // §II-D1 relay: whoever holds our re-encrypted forward of this
        // ciphertext needs every underlying key too — but keys only move
        // on reported reciprocation, so queue until our txn unlocks.
        if let Some(ft) = forward {
            if let Some(txn) = self.donor_txns.get_mut(&ft) {
                if txn.reported {
                    txn.sent_keys.push(key);
                    self.counters.keys_sent += 1;
                    out.push((NodeId(ft.0), Frame::Control(Message::KeyRelease {
                        piece: PieceId(ft.1),
                        requestor: None,
                        key,
                    })));
                } else {
                    txn.pending_relay.push(key);
                }
            }
        }
        if let Some(bytes) = verified {
            self.pending_in.remove(&entry_key);
            self.counters.decrypted += 1;
            self.complete_piece(now, piece, bytes, out);
        }
    }

    /// §II-B4: forward every escrowed key for `(donor, piece)` whose
    /// designated requestor has reciprocated; keys for requestors still
    /// owing stay held.
    fn try_escrow_forward(&mut self, donor: u32, piece: u32, out: &mut Outbox) {
        if !self.strategy.uploads() {
            return;
        }
        let Some(seen) = self.recips_seen.get(&(donor, piece)) else {
            return;
        };
        let Some(held) = self.escrow.get_mut(&(donor, piece)) else {
            return;
        };
        let mut fire = Vec::new();
        held.retain(|&(r, k)| {
            if seen.contains(&r) {
                fire.push((r, k));
                false
            } else {
                true
            }
        });
        if held.is_empty() {
            self.escrow.remove(&(donor, piece));
        }
        for (r, k) in fire {
            self.counters.keys_sent += 1;
            out.push((NodeId(r), Frame::Control(Message::KeyRelease {
                piece: PieceId(piece),
                requestor: Some(NodeId(r)),
                key: k,
            })));
        }
    }

    fn complete_piece(&mut self, now: f64, piece: u32, bytes: Vec<u8>, out: &mut Outbox) {
        if self.have.has(PieceId(piece)) {
            return;
        }
        self.have.set(PieceId(piece));
        self.plain[piece as usize] = Some(bytes);
        if self.strategy.uploads() {
            for t in self.neighbors.ids() {
                out.push((NodeId(t), Frame::Control(Message::Have { piece: PieceId(piece) })));
            }
        }
        if self.have.is_complete() && self.complete_at.is_none() {
            self.complete_at = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // Tick processing
    // ------------------------------------------------------------------

    /// One scheduler step: obligations, retries, stall sweep, donor
    /// rounds, departure.
    pub fn on_tick(&mut self, now: f64, out: &mut Outbox) {
        if self.departed {
            return;
        }
        // Expired quarantines lift here, so within one tick the map
        // holds exactly the active exclusions.
        self.quarantined.retain(|_, &mut until| until > now);
        if self.strategy.uploads() {
            self.process_obligations(now, out);
            self.fire_retries(now, out);
        }
        self.stall_sweep(now, out);
        let done = self.is_compliant_leecher() && self.is_complete();
        if self.role == PeerRole::Seeder || (done && !self.cfg.depart_on_complete) {
            self.donor_round(now, out);
        }
        if done && self.cfg.depart_on_complete {
            self.depart(out);
        }
    }

    /// Voluntary departure (churn): run the §II-B4 handoff — every key
    /// still awaiting its reciprocation report goes to the designated
    /// payee — and leave, whether or not the file is complete. This is
    /// the same escrow path `depart_on_complete` takes; a `ChurnPlan`
    /// departure simply invokes it early.
    pub fn leave(&mut self, out: &mut Outbox) {
        if !self.departed {
            self.depart(out);
        }
    }

    /// Earliest future time at which this peer's *timers* require an
    /// `on_tick`, or `None` when the peer is purely reactive (nothing
    /// will happen until a frame arrives). The harness scheduler parks
    /// peers on this: the quiescence invariant — an `on_tick` that
    /// emits nothing draws no RNG and mutates nothing except timer
    /// expirations — is what makes skipping idle peers bit-identical to
    /// an every-peer scan.
    ///
    /// The timer sources, each with its wake deadline:
    /// * quarantine expiry (`until`) — re-enables donor candidates,
    /// * obligation expiry (`since + STALL_TIMEOUT`),
    /// * report retransmissions (`next_at`),
    /// * donor-transaction stall sweep (`started + STALL_TIMEOUT`),
    /// * gift-suppression expiry (`sent + STALL_TIMEOUT`).
    ///
    /// Strict-`>` deadlines (stall sweeps) fire on the first tick
    /// *after* the deadline; waking exactly at the deadline is a
    /// harmless no-op and the harness re-arms one tick later, which
    /// lands on the same tick an every-peer scan acts on.
    pub fn next_wake(&self) -> Option<f64> {
        if self.departed {
            return None;
        }
        let mut wake: Option<f64> = None;
        let mut fold = |t: f64| match wake {
            Some(w) if w <= t => {}
            _ => wake = Some(t),
        };
        for &until in self.quarantined.values() {
            fold(until);
        }
        for ob in &self.obligations {
            fold(ob.since + STALL_TIMEOUT);
        }
        for r in &self.retries {
            fold(r.next_at);
        }
        for txn in self.donor_txns.values() {
            if !txn.reported {
                fold(txn.started + STALL_TIMEOUT);
            }
        }
        for &sent in self.gifted.values() {
            fold(sent + STALL_TIMEOUT);
        }
        wake
    }

    /// §II-D2 ledger consistency: for every neighbor `n`, `ledger[n]`
    /// equals the number of unreported donor transactions keyed
    /// `(n, _)`. Donations increment it, first reports and the stall
    /// sweep decrement it, peer-gone removes both sides — churn must
    /// not break the correspondence. Exposed for the property suite.
    pub fn ledger_consistent(&self) -> bool {
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for (&(requestor, _), txn) in &self.donor_txns {
            if !txn.reported {
                *counts.entry(requestor).or_insert(0) += 1;
            }
        }
        self.ledger
            .iter()
            .all(|(&n, &k)| counts.get(&n).copied().unwrap_or(0) == k)
            && counts
                .iter()
                .all(|(&n, &k)| self.ledger.get(&n).copied().unwrap_or(0) == k)
    }

    /// Escrowed keys currently held as payee for departed donors
    /// (§II-B4), counted across all `(donor, piece)` entries.
    pub fn escrow_held(&self) -> usize {
        self.escrow.values().map(|held| held.len()).sum()
    }

    /// §II-B4 graceful departure: hand every key still awaiting its
    /// reciprocation report to the designated payee, then leave.
    fn depart(&mut self, out: &mut Outbox) {
        let mut handoff: Vec<(u32, u32, u32, [u8; KEY_WIRE_SIZE])> = Vec::new();
        for (&(requestor, piece), txn) in self.donor_txns.iter_mut() {
            if txn.reported {
                continue;
            }
            let Some(payee) = txn.payee else { continue };
            if payee == self.id.0 {
                continue;
            }
            if let Some(kid) = txn.key_id.take() {
                if let Some(k) = self.keyring.release(kid) {
                    handoff.push((payee, piece, requestor, k.to_wire_bytes()));
                }
            }
            for k in txn.pending_relay.drain(..) {
                handoff.push((payee, piece, requestor, k));
            }
        }
        // The requestor marker tells the payee which transaction each
        // key belongs to — it may be payee for several transactions of
        // ours over the same piece, and must not forward a key to a
        // requestor whose transaction used a different one.
        for (payee, piece, requestor, key) in handoff {
            self.counters.escrowed += 1;
            out.push((NodeId(payee), Frame::Control(Message::KeyRelease {
                piece: PieceId(piece),
                requestor: Some(NodeId(requestor)),
                key,
            })));
        }
        self.departed = true;
    }

    /// Departure notice from the harness (the connection-reset a real
    /// deployment would see): forget the neighbor and abandon state
    /// that can no longer progress — transactions whose requestor is
    /// gone (their uploads were dropped; handing their keys to a payee
    /// at departure would circulate keys nobody can claim), obligations
    /// owed to a gone payee, and report retries toward a gone donor.
    pub fn on_peer_gone(&mut self, gone: NodeId) {
        let gone = gone.0;
        self.neighbors.forget(gone);
        let dead: Vec<(u32, u32)> =
            self.donor_txns.range((gone, 0)..=(gone, u32::MAX)).map(|(&k, _)| k).collect();
        for k in dead {
            if let Some(mut txn) = self.donor_txns.remove(&k) {
                if !txn.reported {
                    if let Some(kid) = txn.key_id.take() {
                        self.keyring.release(kid);
                    }
                    self.active_donations = self.active_donations.saturating_sub(1);
                }
                if let Some(src) = txn.source {
                    if let Some(e) = self.pending_in.get_mut(&src) {
                        e.forward_txn = None;
                    }
                }
            }
        }
        self.ledger.remove(&gone);
        self.obligations.retain(|ob| ob.payee != gone);
        self.retries.retain(|r| r.donor != gone);
    }

    /// Works through owed reciprocations (§II-B2): a real piece the payee
    /// wants if we have one, else the §II-D1 forward of the pending
    /// ciphertext, else the §II-B3 unencrypted termination.
    fn process_obligations(&mut self, now: f64, out: &mut Outbox) {
        let mut keep = Vec::new();
        let obligations = std::mem::take(&mut self.obligations);
        for mut ob in obligations {
            if now - ob.since > STALL_TIMEOUT {
                continue; // unfulfillable; the donor's sweep closes the chain
            }
            if !self.neighbors.get(ob.payee).is_some_and(|n| n.known()) {
                if !ob.asked_neighbor {
                    // §II-B1 neighboring request before serving a payee
                    // we have not met.
                    self.neighbors.meet(ob.payee);
                    out.push((NodeId(ob.payee), Frame::Control(Message::NeighborRequest {
                        from: self.id,
                    })));
                    ob.asked_neighbor = true;
                }
                keep.push(ob);
                continue;
            }
            if self.fulfill_obligation(now, &ob, out) {
                continue;
            }
            keep.push(ob);
        }
        self.obligations = keep;
    }

    fn fulfill_obligation(&mut self, now: f64, ob: &Obligation, out: &mut Outbox) -> bool {
        // Prefer a real piece the payee wants (§II-B2).
        let payee = self.neighbors.get(ob.payee).expect("obligation payee is known");
        let wanted = payee
            .missing_from(&self.have)
            .map(|p| p.0)
            .filter(|&p| self.plain[p as usize].is_some());
        if let Some(q) = self.neighbors.rarest_of(wanted) {
            return self.donate(now, ob.payee, q, Some((ob.piece, ob.donor)), None, out);
        }
        // §II-D1 newcomer bootstrapping: forward the re-encrypted
        // ciphertext of the very piece we owe for, if the payee wants it.
        let entry_key = (ob.donor, ob.piece);
        let entry_forwardable = self
            .pending_in
            .get(&entry_key)
            .is_some_and(|e| e.work.is_some() && e.forward_txn.is_none());
        let payee_wants_piece = (ob.piece as usize) < self.have.len() && !payee.has(PieceId(ob.piece));
        if entry_forwardable && payee_wants_piece {
            return self.donate(now, ob.payee, ob.piece, Some((ob.piece, ob.donor)), Some(entry_key), out);
        }
        false
    }

    /// Interested neighbors under the §II-D2 ledger cap, each with the
    /// rarest piece it could be sent: `(neighbor, piece)`, ascending by
    /// id. A neighbor with a full bitfield wants nothing, so only the
    /// incomplete ones are walked.
    fn donor_candidates(&self) -> Vec<(u32, u32)> {
        let mut cands = Vec::new();
        for (nid, n) in self.neighbors.incomplete() {
            if !n.known() || self.quarantined.contains_key(&nid) {
                continue;
            }
            if self.ledger.get(&nid).copied().unwrap_or(0) >= K_PENDING {
                continue;
            }
            let wants = n.missing_from(&self.have).map(|p| p.0).filter(|&p| {
                self.plain[p as usize].is_some()
                    && !self.donor_txns.contains_key(&(nid, p))
                    && !self.gifted.contains_key(&(nid, p))
            });
            if let Some(p) = self.neighbors.rarest_of(wants) {
                cands.push((nid, p));
            }
        }
        cands
    }

    /// Seeder/opportunistic chain initiation (§II-B1, §II-D3).
    fn donor_round(&mut self, now: f64, out: &mut Outbox) {
        let slots = if self.role == PeerRole::Seeder { SEEDER_SLOTS } else { OPPORTUNISTIC_SLOTS };
        for _ in 0..slots {
            if self.active_donations >= slots {
                break;
            }
            let cands = self.donor_candidates();
            if cands.is_empty() {
                break;
            }
            let &(r, p) = self.rng.choose(&cands).expect("nonempty");
            if !self.donate(now, r, p, None, None, out) {
                break;
            }
        }
    }

    /// Uploads piece `piece` to `to`: picks a payee (direct reciprocity
    /// first, then a random eligible neighbor, §II-B3 unencrypted when
    /// none), encrypts, and emits header + bulk data on the same link.
    fn donate(
        &mut self,
        now: f64,
        to: u32,
        piece: u32,
        reciprocates: Option<(u32, u32)>,
        source: Option<(u32, u32)>,
        out: &mut Outbox,
    ) -> bool {
        if self.donor_txns.contains_key(&(to, piece)) {
            return false;
        }
        let payee = self.select_payee(to, piece);
        let stored = match source {
            Some(src) => self.pending_in.get(&src).and_then(|e| e.work.as_deref()),
            None => self.plain[piece as usize].as_deref(),
        };
        let Some(stored) = stored else { return false };
        let (payload, key_id) = match payee {
            Some(_) => {
                let (kid, k) = self.keyring.mint();
                let mut payload = stored.to_vec();
                k.apply(&mut payload);
                (payload, Some(kid))
            }
            None if source.is_some() => return false, // cannot gift ciphertext
            None => (stored.to_vec(), None),
        };
        let header = Message::PieceUpload {
            reciprocates: reciprocates.map(|(p, d)| (PieceId(p), NodeId(d))),
            piece: PieceId(piece),
            payee: payee.map(NodeId),
            ciphertext_len: payload.len() as u32,
        };
        out.push((NodeId(to), Frame::Control(header)));
        out.push((NodeId(to), Frame::PieceData { piece: PieceId(piece), payload }));
        self.counters.uploaded += 1;
        match payee {
            Some(_) => {
                self.donor_txns.insert(
                    (to, piece),
                    DonorTxn {
                        payee,
                        key_id,
                        started: now,
                        reported: false,
                        source,
                        pending_relay: Vec::new(),
                        sent_keys: Vec::new(),
                    },
                );
                if let Some(src) = source {
                    if let Some(e) = self.pending_in.get_mut(&src) {
                        e.forward_txn = Some((to, piece));
                    }
                }
                self.active_donations += 1;
                *self.ledger.entry(to).or_insert(0) += 1;
            }
            None => {
                self.gifted.insert((to, piece), now);
            }
        }
        true
    }

    /// §II-B2 payee designation for an upload of `piece` to `to`.
    fn select_payee(&mut self, to: u32, piece: u32) -> Option<u32> {
        // Direct reciprocity: if the requestor has something we want,
        // name ourselves payee (§II-B2).
        if !self.is_complete() {
            if let Some(n) = self.neighbors.get(to) {
                if n.known() && n.offers_to(&self.have) {
                    return Some(self.id.0);
                }
            }
        }
        let cands = self.payee_candidates(to, piece);
        self.rng.choose(&cands).copied()
    }

    /// Third parties eligible as payee for an upload of `piece` to `to`:
    /// under the §II-D2 ledger cap and either lacking `piece` or wanting
    /// something `to` holds, ascending by id. A neighbor with a full
    /// bitfield is neither, so only the incomplete ones are walked.
    fn payee_candidates(&self, to: u32, piece: u32) -> Vec<u32> {
        let to_n = self.neighbors.get(to);
        self.neighbors
            .incomplete()
            .filter(|&(nid, n)| {
                nid != to
                    && nid != self.id.0
                    && !self.quarantined.contains_key(&nid)
                    && self.ledger.get(&nid).copied().unwrap_or(0) < K_PENDING
                    && ((piece as usize) < self.have.len() && !n.has(PieceId(piece))
                        || to_n.is_some_and(|t| n.wants_from(t)))
            })
            .map(|(nid, _)| nid)
            .collect()
    }

    /// PR 1 stall sweep: close transactions whose reciprocation never
    /// came (free-riding, §IV-F) and release their slots and ledger.
    /// Also expires the gift-suppression window: if a §II-B3 gift was
    /// lost in flight, the requestor becomes giftable again (a completed
    /// requestor's `Have` broadcast keeps it out of the donor round's
    /// candidate set regardless).
    ///
    /// Every stall additionally triggers anti-entropy: the donor
    /// re-requests the bitfields of the stalled transaction's requestor
    /// and payee. A stall is the symptom of a stale view — on a
    /// byzantine transport a `Have` broadcast can be corrupted away, and
    /// a donor that never refreshes keeps designating payees that want
    /// nothing (the requestor can never reciprocate to them) instead of
    /// falling through to the §II-B3 termination gift.
    fn stall_sweep(&mut self, now: f64, out: &mut Outbox) {
        self.gifted.retain(|_, &mut sent| now - sent <= STALL_TIMEOUT);
        let stalled: Vec<(u32, u32)> = self
            .donor_txns
            .iter()
            .filter(|(_, t)| !t.reported && now - t.started > STALL_TIMEOUT)
            .map(|(&k, _)| k)
            .collect();
        let mut refresh: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for key in stalled {
            if let Some(mut txn) = self.donor_txns.remove(&key) {
                if let Some(kid) = txn.key_id.take() {
                    self.keyring.release(kid);
                }
                if let Some(src) = txn.source {
                    if let Some(e) = self.pending_in.get_mut(&src) {
                        e.forward_txn = None;
                    }
                }
                self.active_donations = self.active_donations.saturating_sub(1);
                let pending = self.ledger.entry(key.0).or_insert(0);
                *pending = pending.saturating_sub(1);
                self.counters.stalled_txns += 1;
                refresh.insert(key.0);
                if let Some(p) = txn.payee {
                    if p != self.id.0 {
                        refresh.insert(p);
                    }
                }
            }
        }
        for nid in refresh {
            out.push((NodeId(nid), Frame::Control(Message::NeighborRequest { from: self.id })));
        }
    }

    /// Bounded exponential-backoff report retransmission (PR 1), with
    /// per-peer jitter so concurrent losers de-correlate.
    fn fire_retries(&mut self, now: f64, out: &mut Outbox) {
        let mut due = Vec::new();
        let mut retries = std::mem::take(&mut self.retries);
        retries.retain_mut(|r| {
            if now < r.next_at {
                return true;
            }
            r.attempt += 1;
            due.push((r.donor, r.requestor, r.piece));
            if r.attempt >= MAX_RETRIES {
                return false;
            }
            let backoff = RETRY_BASE * RETRY_BACKOFF.powi(r.attempt as i32);
            r.next_at = now + self.jittered(backoff);
            true
        });
        self.retries = retries;
        for (donor, requestor, piece) in due {
            self.counters.report_retries += 1;
            out.push((NodeId(donor), Frame::Control(Message::ReceptionReport {
                requestor: NodeId(requestor),
                piece: PieceId(piece),
            })));
        }
    }

    // ------------------------------------------------------------------
    // Reincarnation: crash-restart and whitewash
    // ------------------------------------------------------------------

    /// The next incarnation after a crash (§II-B4 rejoin): the same id
    /// comes back with what a process keeps on disk — everything
    /// [`Self::rebirth`] keeps, plus the §II-B4 escrow it holds as payee,
    /// the reciprocations it witnessed for forwarding that escrow, and
    /// its gift log's keys, aged out as ancient so it may re-gift at
    /// once.
    ///
    /// Everything not named here is what a crash loses on a real machine
    /// too: donor transactions and the §II-D2 ledger that counts them,
    /// in-flight ciphertexts, obligations, retry timers, strikes,
    /// quarantines and the neighbourhood. The swarm recovers through the
    /// stall sweep and re-donation — the recovery path the chaos harness
    /// asserts on — and the peer re-registers with the tracker and
    /// re-bootstraps. `seed` is the swarm seed the peer was built with.
    pub fn restart(mut self, seed: u64) -> Self {
        let escrow = std::mem::take(&mut self.escrow);
        let recips_seen = std::mem::take(&mut self.recips_seen);
        let gifted = std::mem::take(&mut self.gifted)
            .into_keys()
            .map(|k| (k, f64::NEG_INFINITY))
            .collect();
        // `tchain_canary` deliberately resurrects a fixed bug — the
        // crashed incarnation's ledger carried over wholesale, counting
        // transactions that died with the process, which nothing can
        // ever decrement — as a seeded mutation: the schedule-exploration
        // engine must find this `ledger_consistent` break and shrink it,
        // or its oracle set has no teeth. Never enable outside the
        // explore drill.
        #[cfg(tchain_canary)]
        let ledger = std::mem::take(&mut self.ledger);
        let id = self.id;
        PeerRuntime {
            escrow,
            recips_seen,
            gifted,
            #[cfg(tchain_canary)]
            ledger,
            ..self.rebirth(id, seed)
        }
    }

    /// The next incarnation under a different wire identity `id`: the
    /// whitewash move (§IV-C). The operator keeps its strategy, every
    /// piece it extracted, its completion time and its counters, but
    /// presents them as a brand-new peer, so deceived neighbours treat
    /// it as another newcomer. Every relation of the dead identity —
    /// escrow, witnessed reciprocations, gifts, the ledger — stays
    /// behind with it: carrying them would leak the linkage the
    /// whitewasher is laundering away.
    ///
    /// The held plaintext moves with the peer rather than being
    /// regenerated: every held piece passed `Content::verify`, so the
    /// two are equal. Both reincarnations bump the generation, which
    /// salts the RNG and keyring: a successor never replays its dead
    /// incarnation's draws or re-mints its keys.
    pub fn rebirth(self, id: NodeId, seed: u64) -> Self {
        PeerRuntime {
            have: self.have,
            plain: self.plain,
            complete_at: self.complete_at,
            counters: self.counters,
            ..Self::incarnation(
                id,
                self.role,
                self.strategy,
                self.content,
                self.cfg,
                seed,
                self.generation + 1,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content() -> Content {
        Content::new(0xC0FFEE, 8, 256)
    }

    #[test]
    fn retry_jitter_decorrelates_peers_and_stays_in_band() {
        // Satellite: two peers who lost the same frame must not
        // retransmit in lockstep — their jittered delays diverge while
        // staying inside the ±20 % band.
        let mut a = PeerRuntime::new(NodeId(1), PeerRole::Leecher, content(), NetConfig::default(), 42);
        let mut b = PeerRuntime::new(NodeId(2), PeerRole::Leecher, content(), NetConfig::default(), 42);
        let mut identical = 0;
        for _ in 0..64 {
            let (x, y) = (a.jittered(2.0), b.jittered(2.0));
            assert!((1.6..2.4).contains(&x), "jitter {x} out of band");
            assert!((1.6..2.4).contains(&y), "jitter {y} out of band");
            if x.to_bits() == y.to_bits() {
                identical += 1;
            }
        }
        assert!(identical < 4, "retry schedules must de-correlate, {identical}/64 collided");
    }

    #[test]
    fn strike_limit_quarantines_then_expires() {
        let mut p = PeerRuntime::new(NodeId(1), PeerRole::Leecher, content(), NetConfig::default(), 7);
        let bad = NodeId(9);
        assert_eq!(p.on_frame_reject(1.0, bad), None);
        assert_eq!(p.on_frame_reject(1.5, bad), None);
        assert!(!p.is_quarantining(bad));
        let until = p.on_frame_reject(2.0, bad);
        assert_eq!(until, Some(32.0), "third strike quarantines");
        assert!(p.is_quarantining(bad));
        assert_eq!(p.counters().frame_rejects, 3);
        assert_eq!(p.counters().quarantines, 1);
        let mut out = Outbox::new();
        p.on_tick(31.0, &mut out);
        assert!(p.is_quarantining(bad), "quarantine holds until expiry");
        p.on_tick(32.5, &mut out);
        assert!(!p.is_quarantining(bad), "quarantine lifts after expiry");
        // Strikes were reset at quarantine time: re-offending restarts
        // the count instead of instantly re-quarantining.
        assert_eq!(p.on_frame_reject(33.0, bad), None);
    }

    #[test]
    fn quarantined_peer_gets_no_new_donations() {
        let c = content();
        let mut seeder = PeerRuntime::new(NodeId(0), PeerRole::Seeder, c.clone(), NetConfig::default(), 3);
        let mut out = Outbox::new();
        seeder.bootstrap(&[NodeId(1)], &mut out);
        // Teach the seeder that peer 1 wants everything.
        seeder.on_frame(
            0.5,
            NodeId(1),
            Frame::Control(Message::Bitfield { pieces: c.pieces() as u32, bits: vec![0u8; c.pieces().div_ceil(8)] }),
            &mut out,
        );
        // Quarantine peer 1, then run a donor round: nothing may go out.
        while seeder.on_frame_reject(1.0, NodeId(1)).is_none() {}
        out.clear();
        seeder.on_tick(1.0, &mut out);
        assert!(
            out.iter().all(|(to, _)| *to != NodeId(1)),
            "no donation may target a quarantined peer: {out:?}"
        );
        // After expiry the same tick logic serves it again.
        out.clear();
        seeder.on_tick(1.0 + QUARANTINE_SECS + 1.0, &mut out);
        assert!(
            out.iter().any(|(to, f)| *to == NodeId(1) && matches!(f, Frame::PieceData { .. })),
            "donations resume after quarantine expiry: {out:?}"
        );
    }

    /// A leecher holding pieces 2 and 6, plus its `twin`: built and
    /// driven identically, so their RNG streams agree draw for draw.
    fn two_piece_leecher(c: &Content) -> PeerRuntime {
        let mut p = PeerRuntime::new(NodeId(5), PeerRole::Leecher, c.clone(), NetConfig::default(), 11);
        let mut out = Outbox::new();
        p.complete_piece(3.0, 2, c.piece(2), &mut out);
        p.complete_piece(4.0, 6, c.piece(6), &mut out);
        p
    }

    #[test]
    fn restart_keeps_plaintext_and_salts_the_rng() {
        let c = content();
        let mut twin = two_piece_leecher(&c);
        let mut r = two_piece_leecher(&c).restart(11);
        assert_eq!(r.id(), NodeId(5));
        assert_eq!(r.generation(), 1);
        assert_eq!(r.have_count(), 2);
        assert_eq!(r.piece_bytes(2).unwrap(), &c.piece(2)[..], "plaintext kept");
        assert_eq!(r.piece_bytes(6).unwrap(), &c.piece(6)[..]);
        assert_eq!(r.neighbors.len(), 0, "rejoin starts with a fresh neighbor set");
        assert!(!r.departed());
        // The restarted incarnation's RNG stream must differ from the
        // original's (fresh generation salt), or restarted peers would
        // replay their dead incarnation's choices.
        let (orig, restarted): (Vec<u64>, Vec<u64>) = (
            (0..8).map(|_| twin.rng.f64().to_bits()).collect(),
            (0..8).map(|_| r.rng.f64().to_bits()).collect(),
        );
        assert_ne!(orig, restarted);
    }

    #[test]
    fn rebirth_keeps_loot_and_drops_relations() {
        let c = content();
        let loaded = || {
            let mut p = two_piece_leecher(&c);
            p.ledger.insert(7, 2);
            p.escrow.insert((9, 1), vec![(4, [0xAB; KEY_WIRE_SIZE])]);
            p.recips_seen.entry((9, 1)).or_default().insert(4);
            p.gifted.insert((6, 0), 2.0);
            p.counters.decrypted = 2;
            p.counters.frame_rejects = 5;
            p
        };
        let before = loaded();
        let r = loaded().rebirth(NodeId(40), 11);
        assert_eq!(r.id(), NodeId(40), "the fresh identity");
        assert_eq!(r.generation(), before.generation() + 1);
        assert_eq!(r.have_count(), 2);
        assert_eq!(r.piece_bytes(6).unwrap(), &c.piece(6)[..], "loot kept");
        assert_eq!(r.completion_time(), before.completion_time());
        assert_eq!(r.counters(), before.counters());
        assert_eq!(r.escrow_held(), 0, "escrow belongs to the dead identity");
        assert!(r.ledger_consistent());
        assert!(r.recips_seen.is_empty() && r.gifted.is_empty());
        // A crash keeps the same relations a whitewash drops.
        let s = loaded().restart(11);
        assert_eq!(s.id(), NodeId(5));
        assert_eq!(s.escrow_held(), 1);
        assert_eq!(s.escrow, before.escrow);
        assert_eq!(s.recips_seen, before.recips_seen);
        assert_eq!(s.gifted.keys().collect::<Vec<_>>(), [&(6, 0)]);
        assert!(s.gifted.values().all(|&sent| sent == f64::NEG_INFINITY), "gifts age out");
    }

    #[test]
    fn out_of_range_piece_indices_are_dropped_at_the_door() {
        // A well-formed PieceUpload naming a piece the file does not have,
        // then its PieceData, used to panic in `Bitfield::has`; `Have` was
        // the only message bounds-checked. Every wire-supplied index past
        // the file is now the "wrong swarm" silent drop.
        let c = Content::new(0xC0FFEE, 4, 64);
        let mut p = PeerRuntime::new(NodeId(1), PeerRole::Leecher, c, NetConfig::default(), 7);
        let mut out = Outbox::new();
        p.bootstrap(&[NodeId(2)], &mut out);
        out.clear();
        let before = format!("{p:?}");
        let from = NodeId(2);
        for piece in [PieceId(4), PieceId(99), PieceId(u32::MAX)] {
            for payee in [None, Some(NodeId(3))] {
                let header = Message::PieceUpload { reciprocates: None, piece, payee, ciphertext_len: 64 };
                p.on_frame(1.0, from, Frame::Control(header), &mut out);
                p.on_frame(1.0, from, Frame::PieceData { piece, payload: vec![0; 64] }, &mut out);
            }
            let key = [0x11; KEY_WIRE_SIZE];
            for requestor in [None, Some(NodeId(1)), Some(NodeId(3))] {
                p.on_frame(1.0, from, Frame::Control(Message::KeyRelease { piece, requestor, key }), &mut out);
            }
            p.on_frame(1.0, from, Frame::Control(Message::ReceptionReport { requestor: from, piece }), &mut out);
            p.on_frame(1.0, from, Frame::Control(Message::Have { piece }), &mut out);
            // The reciprocated piece is an index off the wire too.
            let header = Message::PieceUpload {
                reciprocates: Some((piece, NodeId(3))),
                piece: PieceId(0),
                payee: None,
                ciphertext_len: 64,
            };
            p.on_frame(1.0, from, Frame::Control(header), &mut out);
        }
        assert!(out.is_empty(), "dropped frames answer nothing: {out:?}");
        assert_eq!(format!("{p:?}"), before, "dropped frames leave no state behind");
        // The last in-range index still gets through.
        p.on_frame(1.0, from, Frame::Control(Message::Have { piece: PieceId(3) }), &mut out);
        assert!(p.neighbors.get(2).expect("bootstrapped").has(PieceId(3)));
    }

    // ------------------------------------------------------------------
    // Neighbourhood index: differential against the full scans it replaced
    // ------------------------------------------------------------------

    /// Reference `rarest_of`: availability re-counted over every known
    /// neighbor for every candidate.
    fn scan_rarest(p: &PeerRuntime, candidates: &[u32]) -> Option<u32> {
        candidates
            .iter()
            .copied()
            .map(|c| {
                let avail = p
                    .neighbors
                    .all()
                    .filter(|(_, n)| n.known() && n.has(PieceId(c)))
                    .count();
                (avail, c)
            })
            .min()
            .map(|(_, c)| c)
    }

    /// Reference donor-round candidates: every neighbor scanned, a fresh
    /// `wants` list each from a rebuilt `Bitfield`.
    fn scan_donor_candidates(p: &PeerRuntime) -> Vec<(u32, u32)> {
        let mut cands = Vec::new();
        for (nid, n) in p.neighbors.all() {
            if !n.known() || p.quarantined.contains_key(&nid) {
                continue;
            }
            if p.ledger.get(&nid).copied().unwrap_or(0) >= K_PENDING {
                continue;
            }
            let wants: Vec<u32> = n
                .to_bitfield(p.have.len())
                .missing_from(&p.have)
                .map(|q| q.0)
                .filter(|&q| {
                    p.plain[q as usize].is_some()
                        && !p.donor_txns.contains_key(&(nid, q))
                        && !p.gifted.contains_key(&(nid, q))
                })
                .collect();
            if let Some(q) = scan_rarest(p, &wants) {
                cands.push((nid, q));
            }
        }
        cands
    }

    /// Reference payee candidates: every neighbor tested against the
    /// two-armed predicate on rebuilt `Bitfield`s.
    fn scan_payee_candidates(p: &PeerRuntime, to: u32, piece: u32) -> Vec<u32> {
        let pieces = p.have.len();
        let to_have = p.neighbors.get(to).map(|n| n.to_bitfield(pieces));
        p.neighbors
            .all()
            .filter(|&(nid, n)| {
                let have = n.to_bitfield(pieces);
                nid != to
                    && nid != p.id.0
                    && !p.quarantined.contains_key(&nid)
                    && p.ledger.get(&nid).copied().unwrap_or(0) < K_PENDING
                    && ((piece as usize) < have.len() && !have.has(PieceId(piece))
                        || to_have.as_ref().is_some_and(|th| have.wants_from(th)))
            })
            .map(|(nid, _)| nid)
            .collect()
    }

    const POOL: usize = 20; // neighbor ids 1..=POOL; the peer under test is 0

    /// Index vs. recomputation and full scans; returns how many donor
    /// and payee candidates the step exposed (the vacuity guard).
    fn assert_index_matches_scans(p: &PeerRuntime, rng: &mut SimRng) -> (usize, usize) {
        p.neighbors.assert_consistent();
        let pieces = p.have.len();
        let every: Vec<u32> = (0..pieces as u32).collect();
        let some: Vec<u32> = every.iter().copied().filter(|_| rng.chance(0.4)).collect();
        for cands in [&every, &some] {
            assert_eq!(p.neighbors.rarest_of(cands.iter().copied()), scan_rarest(p, cands));
        }
        let donor = p.donor_candidates();
        assert_eq!(donor, scan_donor_candidates(p));
        let piece = rng.below(pieces) as u32;
        let mut payees = 0;
        for to in 0..=POOL as u32 + 1 {
            let cands = p.payee_candidates(to, piece);
            assert_eq!(cands, scan_payee_candidates(p, to, piece), "payees for {piece} to {to}");
            payees += cands.len();
        }
        (donor.len(), payees)
    }

    fn random_bits(rng: &mut SimRng, pieces: usize, density: f64) -> Bitfield {
        let mut bf = Bitfield::new(pieces);
        for q in 0..pieces as u32 {
            if rng.chance(density) {
                bf.set(PieceId(q));
            }
        }
        bf
    }

    fn differential_run(role: PeerRole, seed: u64, steps: usize, pieces: usize) {
        let c = Content::new(0xD1FF, pieces, 32);
        let mut p = PeerRuntime::new(NodeId(0), role, c.clone(), NetConfig::default(), seed);
        let mut rng = SimRng::new(seed ^ 0x1D3A);
        let mut out = Outbox::new();
        let mut now = 0.0;
        // One counter per situation the issue names; all must occur.
        let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
        let (mut donor_seen, mut payee_seen) = (0, 0);
        for _ in 0..steps {
            let who = 1 + rng.below(POOL) as u32;
            let from = NodeId(who);
            let before = p.neighbors.get(who).map(|n| (n.known(), n.to_bitfield(pieces)));
            match rng.below(13) {
                0 => {
                    let members: Vec<NodeId> =
                        (0..1 + rng.below(6)).map(|_| NodeId(rng.below(POOL + 1) as u32)).collect();
                    p.bootstrap(&members, &mut out);
                    if rng.chance(0.4) {
                        // §IV-C large-view re-query: the same list again.
                        let met = p.neighbors.len();
                        p.bootstrap(&members, &mut out);
                        assert_eq!(p.neighbors.len(), met);
                        *seen.entry("bootstrap repeat").or_default() += 1;
                    }
                }
                1..=3 => {
                    let bf = match &before {
                        Some((true, old)) if rng.chance(0.4) => {
                            *seen.entry("bitfield replay, fewer bits").or_default() += 1;
                            let mut bf = Bitfield::new(pieces);
                            old.iter_set().filter(|_| rng.chance(0.5)).for_each(|q| {
                                bf.set(q);
                            });
                            bf
                        }
                        Some((true, old)) => {
                            *seen.entry("bitfield replay, more bits").or_default() += 1;
                            let mut bf = old.clone();
                            random_bits(&mut rng, pieces, 0.5).iter_set().for_each(|q| {
                                bf.set(q);
                            });
                            bf
                        }
                        Some((false, _)) => {
                            *seen.entry("bitfield from a placeholder").or_default() += 1;
                            random_bits(&mut rng, pieces, 0.5)
                        }
                        None => {
                            *seen.entry("bitfield from a stranger").or_default() += 1;
                            let density = if rng.chance(0.3) { 1.0 } else { 0.5 };
                            random_bits(&mut rng, pieces, density)
                        }
                    };
                    p.on_frame(now, from, Frame::Control(Message::bitfield(&bf)), &mut out);
                    let n = p.neighbors.get(who).expect("a bitfield makes a neighbor");
                    assert!(n.known() && n.to_bitfield(pieces) == bf);
                }
                4 | 5 => {
                    let piece = PieceId(rng.below(pieces) as u32);
                    let repeats = if rng.chance(0.3) { 2 } else { 1 };
                    for i in 0..repeats {
                        let held = p.neighbors.get(who).map(|n| (n.known(), n.has(piece)));
                        let what = match held {
                            None => "have from a stranger",
                            Some((_, true)) if i == 1 => "have sent twice",
                            Some((_, true)) => "have already recorded",
                            Some((false, false)) => "have before the bitfield",
                            Some((true, false)) => "have after the bitfield",
                        };
                        *seen.entry(what).or_default() += 1;
                        p.on_frame(now, from, Frame::Control(Message::Have { piece }), &mut out);
                    }
                }
                6 => {
                    p.on_frame(now, from, Frame::Control(Message::NeighborRequest { from }), &mut out);
                    assert!(p.neighbors.get(who).is_some());
                }
                7 => {
                    let what = match before {
                        Some((true, _)) => "gone: known",
                        Some((false, _)) => "gone: placeholder",
                        None => "gone: unknown",
                    };
                    *seen.entry(what).or_default() += 1;
                    p.on_peer_gone(from);
                    assert!(p.neighbors.get(who).is_none());
                }
                8 | 9 => {
                    now += rng.range(0.1, 8.0);
                    let quarantined = p.quarantined.len();
                    p.on_tick(now, &mut out);
                    if p.quarantined.len() < quarantined {
                        *seen.entry("quarantine expired").or_default() += 1;
                    }
                }
                10 => {
                    // An upload naming a payee we may never have met: the
                    // next tick's obligation pass introduces it.
                    let piece = PieceId(rng.below(pieces) as u32);
                    let payee = 1 + rng.below(POOL) as u32;
                    if p.neighbors.get(payee).is_none() {
                        *seen.entry("obligation to an unmet payee").or_default() += 1;
                    }
                    let header = Message::PieceUpload {
                        reciprocates: None,
                        piece,
                        payee: Some(NodeId(payee)),
                        ciphertext_len: 32,
                    };
                    p.on_frame(now, from, Frame::Control(header), &mut out);
                    p.on_frame(now, from, Frame::PieceData { piece, payload: vec![0; 32] }, &mut out);
                }
                11 => {
                    if p.on_frame_reject(now, from).is_some() {
                        *seen.entry("quarantine").or_default() += 1;
                    }
                }
                _ => {
                    // Settle one open donation (frees its slot and ledger
                    // entry), and let a leecher's own bitfield grow.
                    let open = p.donor_txns.iter().find(|(_, t)| !t.reported).map(|(&k, t)| (k, t.payee));
                    if let Some(((requestor, piece), Some(payee))) = open {
                        let report = Message::ReceptionReport {
                            requestor: NodeId(requestor),
                            piece: PieceId(piece),
                        };
                        p.on_frame(now, NodeId(payee), Frame::Control(report), &mut out);
                    }
                    if role != PeerRole::Seeder {
                        let q = rng.below(pieces) as u32;
                        p.complete_piece(now, q, c.piece(q), &mut out);
                    }
                }
            }
            out.clear();
            let (d, y) = assert_index_matches_scans(&p, &mut rng);
            donor_seen += d;
            payee_seen += y;
        }
        for what in [
            "bootstrap repeat",
            "bitfield from a stranger",
            "bitfield from a placeholder",
            "bitfield replay, fewer bits",
            "bitfield replay, more bits",
            "have from a stranger",
            "have before the bitfield",
            "have after the bitfield",
            "have sent twice",
            "gone: known",
            "gone: placeholder",
            "gone: unknown",
            "obligation to an unmet payee",
            "quarantine",
            "quarantine expired",
        ] {
            assert!(seen.get(what).copied().unwrap_or(0) > 0, "{role:?}: never exercised {what}: {seen:?}");
        }
        assert!(donor_seen > steps / 4, "{role:?}: donor candidates compared {donor_seen} times");
        assert!(payee_seen > steps, "{role:?}: payee candidates compared {payee_seen} times");
    }

    #[test]
    fn neighborhood_index_matches_the_full_scans_for_a_seeder() {
        differential_run(PeerRole::Seeder, 0x5EED, 2500, 12);
    }

    #[test]
    fn neighborhood_index_matches_the_full_scans_for_a_growing_leecher() {
        differential_run(PeerRole::Leecher, 0xBEEF, 2500, 12);
    }

    /// Two words per slot: a piece past the first word must land in, and
    /// be read from, the slot's second word.
    #[test]
    fn neighborhood_index_matches_the_full_scans_at_65_pieces() {
        differential_run(PeerRole::Seeder, 0x65_5EED, 1000, 65);
        differential_run(PeerRole::Leecher, 0x65_BEEF, 1000, 65);
    }

    #[test]
    fn a_complete_peer_walks_only_the_newcomer() {
        let c = content();
        let mut p = PeerRuntime::new(NodeId(0), PeerRole::Seeder, c.clone(), NetConfig::default(), 3);
        let mut out = Outbox::new();
        let full = Message::bitfield(&Bitfield::full(c.pieces()));
        for id in 1..=200 {
            p.on_frame(0.0, NodeId(id), Frame::Control(full.clone()), &mut out);
        }
        let empty = Message::bitfield(&Bitfield::new(c.pieces()));
        p.on_frame(0.0, NodeId(201), Frame::Control(empty), &mut out);
        assert_eq!(p.neighbors.len(), 201);
        let walked: Vec<u32> = p.neighbors.incomplete().map(|(id, _)| id).collect();
        assert_eq!(walked, [201], "200 full neighbors are never looked at");
        assert_eq!(p.donor_candidates(), [(201, 0)], "all pieces equally common: lowest index");
        assert_eq!(p.donor_candidates(), scan_donor_candidates(&p));
        // Nobody but the requestor itself lacks anything: no payee, so
        // the round ends in the §II-B3 gift the full scan produced too.
        assert_eq!(p.payee_candidates(201, 0), [0u32; 0]);
        out.clear();
        p.on_tick(1.0, &mut out);
        assert!(out.iter().all(|(to, _)| *to == NodeId(201)) && !out.is_empty(), "{out:?}");
    }

    #[test]
    fn restart_comes_back_with_an_empty_consistent_index() {
        let c = content();
        let mut p = PeerRuntime::new(NodeId(5), PeerRole::Leecher, c.clone(), NetConfig::default(), 11);
        let mut out = Outbox::new();
        p.bootstrap(&[NodeId(1), NodeId(2)], &mut out);
        p.on_frame(0.0, NodeId(1), Frame::Control(Message::bitfield(&Bitfield::full(c.pieces()))), &mut out);
        p.on_frame(0.0, NodeId(3), Frame::Control(Message::bitfield(&Bitfield::new(c.pieces()))), &mut out);
        p.neighbors.assert_consistent();
        assert_eq!(p.neighbors.incomplete().count(), 2);
        let r = p.restart(11);
        assert_eq!(r.neighbors.len(), 0, "the index is derived state, lost in a crash");
        assert_eq!(r.neighbors.incomplete().count(), 0);
        r.neighbors.assert_consistent();
        assert_eq!(r.neighbors.rarest_of(0..c.pieces() as u32), Some(0));
        assert!(r.donor_candidates().is_empty() && r.payee_candidates(1, 0).is_empty());
    }
}
