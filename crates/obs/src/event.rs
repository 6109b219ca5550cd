//! The typed event taxonomy: everything a run can say about itself.
//!
//! Events carry raw `u32`/`u64` identifiers rather than the drivers'
//! newtypes so this crate stays a leaf dependency of `sim`, `proto`,
//! `core` and `baselines` alike. Each variant maps to a protocol step of
//! §II-B (or a fault/recovery branch of the §II-B4 machinery); see
//! DESIGN.md's Observability section for the span mapping.

use crate::json::{Error, Fields, FromJson, ToJson, Value, Writer};

json_enum! {
    /// Why a transaction or chain ended — mirrors `tchain_core::ChainEnd`
    /// without depending on it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EndCause {
        /// §II-B3 termination: no payee existed, the upload went unencrypted.
        NoPayee,
        /// A participant departed gracefully mid-transaction.
        Departure,
        /// The requestor never reciprocated (free-riding stall sweep).
        Stalled,
        /// A false reception report short-circuited the exchange (§IV-D).
        Collusion,
        /// A participant crashed abruptly (fault injection).
        Crash,
    }
}

json_enum! {
    /// Which control message a retransmission re-sent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RetryMsg {
        /// The reception report payee → donor (§II-B2 step 3).
        Report,
        /// The decryption key donor → requestor (§II-B2 step 4).
        Key,
    }
}

json_enum! {
    /// What the chaos layer did to a frame in flight.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ChaosKind {
        /// One byte of the encoding was XOR-mangled.
        BitFlip,
        /// The encoding was cut short.
        Truncate,
        /// The length prefix was rewritten past the codec bound.
        OversizeLen,
        /// The frame was delivered twice.
        Duplicate,
        /// The frame was held back past later traffic on its link.
        Reorder,
        /// The connection was reset mid-stream.
        Reset,
    }
}

json_enum! {
    /// Which protocol frame a causal send/receive telemetry event tagged.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireMsg {
        /// The §II-B2 step-1 upload header (`PieceUpload`).
        Upload,
        /// The encrypted bulk piece bytes (`PieceData`).
        PieceData,
        /// The §II-B2 step-3 reception report.
        Report,
        /// The §II-B2 step-4 key release (incl. §II-B4 escrow hops).
        Key,
    }
}

json_enum! {
    /// The closed set of per-peer telemetry metric names.
    ///
    /// Telemetry samples serialize the metric as this enum, so
    /// [`crate::validate_jsonl`] rejects a line carrying a name outside the
    /// schema — the same typed-schema guarantee the event taxonomy gives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MetricName {
        /// Encrypted piece bodies this peer pushed onto the wire.
        Uploads,
        /// Piece bodies delivered to this peer.
        Downloads,
        /// Reception reports this peer sent.
        ReportsSent,
        /// Report retransmissions this peer sent.
        ReportRetries,
        /// Key releases this peer sent.
        KeysSent,
        /// Keys delivered to this peer (decryptions unlocked).
        KeysReceived,
        /// §II-B4 escrow handoffs this peer received as payee.
        EscrowHeld,
        /// Quarantines this peer imposed on offenders.
        Quarantines,
    }
}

json_enum! {
    /// Which end-of-run safety oracle a schedule-exploration run failed.
    ///
    /// The set mirrors the invariants the harness audits every run: the
    /// Observer's key-release legality, §II-D2 ledger conservation, piece
    /// plaintext integrity, §II-B4 escrow-backed completion, and the strike
    /// policy's quarantine/reject coupling.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OracleKind {
        /// A key release travelled without a reciprocation behind it.
        KeyRelease,
        /// A surviving peer's §II-D2 sent/received ledger went inconsistent.
        Ledger,
        /// An assembled piece did not match the source bytes.
        Plaintext,
        /// A compliant leecher the scenario owed a completed file never got
        /// one (escrow survival / liveness-within-budget).
        Completion,
        /// Quarantines were imposed with zero frame rejects on record — a
        /// strike policy firing without evidence.
        Quarantine,
    }
}

json_enum! {
    /// Why a receiver rejected a frame or stream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RejectKind {
        /// Length prefix above the codec bound.
        Oversized,
        /// Unknown frame kind byte.
        UnknownKind,
        /// Header checksum did not match the body.
        ChecksumMismatch,
        /// Body failed strict decoding.
        Malformed,
        /// The stream ended inside a frame.
        Truncated,
        /// The connection was reset.
        Reset,
    }
}

json_enum! {
    /// One structured trace event.
    ///
    /// The `type` tag in the serialized form is the variant name in
    /// `snake_case` ([`Event::name`]); unknown fields are rejected when
    /// reading, so the enum itself *is* the JSONL schema
    /// ([`crate::validate_jsonl`]).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Event {
        /// A triangle transaction started: the donor's upload is in flight
        /// (§II-B2 step 1; unencrypted when `payee` is absent, §II-B3).
        TxnStart {
            /// Packed transaction handle.
            txn: u64,
            /// Packed chain handle.
            chain: u64,
            /// Uploader (`D_j`).
            donor: u32,
            /// Recipient who owes reciprocation (`R_j`).
            requestor: u32,
            /// Designated payee (`P_j`); `None` for a termination upload.
            payee: Option<u32>,
            /// Piece index.
            piece: u32,
        },
        /// The (encrypted) piece finished uploading (§II-B2 step 2).
        UploadDone {
            /// Packed transaction handle.
            txn: u64,
            /// Uploader.
            donor: u32,
            /// Recipient.
            requestor: u32,
        },
        /// A reception report was sent toward the donor (§II-B2 step 3).
        ReportSent {
            /// Transaction the report closes.
            txn: u64,
            /// Reporting peer (the payee, or the escrow holder).
            from: u32,
            /// The donor.
            to: u32,
            /// The report is a collusion lie (§III-A4).
            falsified: bool,
        },
        /// The decryption key was sent toward the requestor (§II-B2 step 4).
        KeySent {
            /// Transaction whose key is released.
            txn: u64,
            /// The donor, or the escrow-holding payee (§II-B4).
            from: u32,
            /// The requestor.
            to: u32,
            /// The key came out of §II-B4 escrow.
            escrowed: bool,
        },
        /// The key arrived and the requestor decrypted the piece.
        KeyDelivered {
            /// The completed transaction.
            txn: u64,
            /// The decrypting requestor.
            requestor: u32,
            /// Piece index.
            piece: u32,
        },
        /// A transaction reached a terminal state.
        TxnEnd {
            /// Packed transaction handle.
            txn: u64,
            /// Packed chain handle.
            chain: u64,
            /// `true` for completed, `false` for aborted.
            completed: bool,
            /// Terminal cause.
            cause: EndCause,
        },
        /// A chain opened (§II-B1 initiation or §II-D3 opportunistic).
        ChainOpen {
            /// Packed chain handle.
            chain: u64,
            /// `true` when the seeder initiated it.
            seeder: bool,
        },
        /// The chain's last live transaction retired.
        ChainClose {
            /// Packed chain handle.
            chain: u64,
            /// Transactions the chain spawned (its length).
            length: u32,
            /// Why it ended.
            cause: EndCause,
        },
        /// A retransmission timer fired and re-sent a control message.
        Retry {
            /// The waiting transaction.
            txn: u64,
            /// Which message was re-sent.
            msg: RetryMsg,
            /// Attempt number (1-based over re-sends).
            attempt: u32,
        },
        /// The donor died and the key moved into §II-B4 escrow with the payee.
        KeyEscrowed {
            /// The affected transaction.
            txn: u64,
        },
        /// The watchdog closed a transaction stuck on a dead participant.
        WatchdogClose {
            /// The closed transaction.
            txn: u64,
        },
        /// §II-B4 repair: the donor designated a replacement payee.
        PayeeReassigned {
            /// The repaired transaction.
            txn: u64,
        },
        /// A baseline driver unchoked a neighbor (upload slot granted).
        Unchoke {
            /// The unchoking peer.
            peer: u32,
            /// The unchoked neighbor.
            target: u32,
            /// Optimistic (exploration) slot rather than a regular one.
            optimistic: bool,
        },
        /// A baseline driver choked a neighbor (upload slot revoked).
        Choke {
            /// The choking peer.
            peer: u32,
            /// The choked neighbor.
            target: u32,
        },
        /// A peer joined the swarm.
        PeerJoin {
            /// The new peer.
            peer: u32,
            /// Whether it follows the protocol (free-riders do not).
            compliant: bool,
        },
        /// A peer left the swarm (graceful departure or completion).
        PeerDepart {
            /// The departed peer.
            peer: u32,
        },
        /// A peer crashed abruptly (fault injection) — no §II-B4 goodbye.
        PeerCrash {
            /// The crashed peer.
            peer: u32,
        },
        /// The fault layer dropped a control message.
        CtrlDropped {
            /// Sender.
            from: u32,
            /// Intended recipient.
            to: u32,
        },
        /// The fault layer delayed a control message.
        CtrlDelayed {
            /// Sender.
            from: u32,
            /// Recipient.
            to: u32,
            /// Scheduled delivery time (simulated seconds).
            until: f64,
        },
        /// The chaos layer injected a byzantine fault into a frame.
        ChaosInject {
            /// Sender of the targeted frame.
            from: u32,
            /// Intended recipient.
            to: u32,
            /// What was done to it.
            kind: ChaosKind,
        },
        /// A receiver rejected a frame or stream from a peer.
        FrameReject {
            /// The rejecting receiver.
            peer: u32,
            /// The apparent offender (sending side of the link).
            offender: u32,
            /// Why it was rejected.
            kind: RejectKind,
        },
        /// A peer crossed the strike limit and was quarantined.
        PeerQuarantine {
            /// The peer applying the quarantine.
            peer: u32,
            /// The quarantined offender.
            offender: u32,
            /// Quarantine expiry on the local clock, seconds.
            until: f64,
        },
        /// A crashed peer rejoined the swarm from a checkpoint.
        PeerRejoin {
            /// The rejoining peer.
            peer: u32,
            /// Restart generation (0 = original incarnation).
            generation: u32,
        },
        /// A causally tagged frame left this peer (telemetry layer).
        FrameSent {
            /// Transaction span the frame belongs to.
            span: u64,
            /// Intended recipient.
            to: u32,
            /// Which protocol frame it carried.
            msg: WireMsg,
        },
        /// A causally tagged frame was delivered to this peer.
        FrameReceived {
            /// Transaction span the frame belongs to.
            span: u64,
            /// The sending origin peer.
            from: u32,
            /// Which protocol frame it carried.
            msg: WireMsg,
        },
        /// A per-peer telemetry counter sample (emitted at snapshot time).
        MetricSample {
            /// The sampled peer.
            peer: u32,
            /// Which metric (closed schema — unknown names fail validation).
            metric: MetricName,
            /// The counter value.
            value: u64,
        },
        /// A designated-payee upload landed with its requestor and payee in
        /// the same Sybil/colluder group — the §III-A4 exploit precondition.
        SybilCollision {
            /// The (deceived) donor.
            donor: u32,
            /// The requestor identity.
            requestor: u32,
            /// The designated payee identity (same operator/ring).
            payee: u32,
            /// The piece in flight.
            piece: u32,
        },
        /// A reception report not preceded by the reciprocation upload it
        /// attests — a §IV-D collusive false report.
        FalseReport {
            /// Packed transaction id.
            txn: u64,
            /// The ring mate that filed the report (the designated payee).
            reporter: u32,
            /// The deceived donor the report was sent to.
            donor: u32,
            /// The requestor the report vouches for.
            requestor: u32,
            /// The piece whose reception was falsely attested.
            piece: u32,
        },
        /// A whitewashing operator rejoined under a fresh identity,
        /// carrying its pieces but presenting as a newcomer (§IV-C).
        WhitewashRejoin {
            /// The fresh identity.
            peer: u32,
            /// The discarded identity.
            prior: u32,
            /// Restart generation of the fresh incarnation.
            generation: u32,
        },
        /// The explore-mode scheduler took a non-default action at a
        /// decision point (default = run the lowest-id due peer). The
        /// recorded stream of these choices *is* the replayable schedule.
        ScheduleChoice {
            /// Global decision index within the run (counts every decision,
            /// default or not).
            step: u64,
            /// Runnable candidates at the decision point.
            arity: u32,
            /// Index picked into the ascending-id candidate list;
            /// `u32::MAX` means the whole due set was deferred a tick.
            pick: u32,
        },
        /// An end-of-run safety oracle failed. Emitted once per failed
        /// oracle before the report is sealed, so traces and the flight
        /// recorder capture the violation in causal context.
        OracleViolation {
            /// Which oracle failed.
            oracle: OracleKind,
        },
    }
}

/// One buffered trace record: a timestamped, sequence-numbered [`Event`].
///
/// The sequence number is assigned at record time and strictly increases,
/// so two records at the same simulated instant still have a total order
/// — the property the byte-identical-JSONL determinism tests rely on.
///
/// # Line format
///
/// One record is one compact JSON object, members in this order:
///
/// ```text
/// {"t":…,"seq":…[,"origin":…,"lamport":…],"type":"txn_start",<the variant's fields in declaration order>}
/// ```
///
/// `origin` and `lamport` are written only when set. Reading accepts the
/// members in any order and rejects, with a typed [`Error`]: a member the
/// record and its variant do not have, a missing member other than an
/// `Option`, a `type` outside [`Event::NAMES`], an enum-valued member
/// outside that enum's names (e.g. a metric outside [`MetricName`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the event, seconds.
    pub t: f64,
    /// Monotone sequence number (gaps mean the ring overwrote records).
    pub seq: u64,
    /// Peer whose ring recorded this event, when the tracer has a
    /// per-peer identity (causal swarm tracing). `None` for the classic
    /// single-run tracers.
    pub origin: Option<u32>,
    /// Lamport clock stamped at record time. Present exactly when
    /// `origin` is; strictly increases within one peer's ring.
    pub lamport: Option<u64>,
    /// The event itself (its members join the record's own object).
    pub event: Event,
}

impl ToJson for TraceRecord {
    fn write_json(&self, w: &mut Writer) {
        w.open('{');
        w.key("t");
        self.t.write_json(w);
        w.key("seq");
        self.seq.write_json(w);
        if let Some(origin) = self.origin {
            w.key("origin");
            origin.write_json(w);
        }
        if let Some(lamport) = self.lamport {
            w.key("lamport");
            lamport.write_json(w);
        }
        self.event.write_members(w);
        w.close('}');
    }
}

impl FromJson for TraceRecord {
    fn from_json(v: Value) -> Result<Self, Error> {
        let mut fields = Fields::of(v)?;
        let record = TraceRecord {
            t: fields.take("t")?,
            seq: fields.take("seq")?,
            origin: fields.take("origin")?,
            lamport: fields.take("lamport")?,
            event: Event::take_members(&mut fields)?,
        };
        fields.finish()?;
        Ok(record)
    }
}

impl TraceRecord {
    /// A record with no causal identity (classic single-run tracing).
    pub fn plain(t: f64, seq: u64, event: Event) -> Self {
        TraceRecord { t, seq, origin: None, lamport: None, event }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn roundtrips_through_json() {
        let r = TraceRecord::plain(
            12.5,
            7,
            Event::TxnStart {
                txn: 1,
                chain: 2,
                donor: 3,
                requestor: 4,
                payee: Some(5),
                piece: 6,
            },
        );
        let s = json::to_string(&r);
        assert!(s.contains("\"type\":\"txn_start\""), "{s}");
        let back: TraceRecord = json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn name_is_the_type_tag() {
        let e = Event::CtrlDropped { from: 1, to: 2 };
        let s = json::to_string(&e);
        assert!(s.contains(&format!("\"type\":\"{}\"", e.name())), "{s}");
    }

    #[test]
    fn adversary_events_roundtrip() {
        let events = [
            Event::SybilCollision { donor: 1, requestor: 8, payee: 9, piece: 3 },
            Event::FalseReport { txn: 77, reporter: 9, donor: 1, requestor: 8, piece: 3 },
            Event::WhitewashRejoin { peer: 12, prior: 8, generation: 2 },
        ];
        assert_eq!(events[0].name(), "sybil_collision");
        assert_eq!(events[1].name(), "false_report");
        assert_eq!(events[2].name(), "whitewash_rejoin");
        for e in events {
            let r = TraceRecord::plain(1.0, 0, e);
            let s = json::to_string(&r);
            assert!(s.contains(&format!("\"type\":\"{}\"", r.event.name())), "{s}");
            let back: TraceRecord = json::from_str(&s).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let bogus = r#"{"t":0.0,"seq":0,"type":"peer_join","peer":1,"compliant":true,"x":1}"#;
        assert!(json::from_str::<TraceRecord>(bogus).is_err());
    }

    #[test]
    fn causal_fields_roundtrip_and_stay_optional() {
        let plain = TraceRecord::plain(1.0, 0, Event::PeerJoin { peer: 1, compliant: true });
        let s = json::to_string(&plain);
        assert!(!s.contains("origin"), "plain records omit causal fields: {s}");
        let causal = TraceRecord {
            origin: Some(3),
            lamport: Some(17),
            ..plain
        };
        let s = json::to_string(&causal);
        assert!(s.contains("\"origin\":3") && s.contains("\"lamport\":17"), "{s}");
        let back: TraceRecord = json::from_str(&s).unwrap();
        assert_eq!(back, causal);
        // Legacy lines without the causal fields still deserialize.
        let back: TraceRecord = json::from_str(
            r#"{"t":1.0,"seq":0,"type":"peer_join","peer":1,"compliant":true}"#,
        )
        .unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn metric_sample_rejects_unknown_metric_name() {
        let ok = r#"{"t":0.0,"seq":0,"type":"metric_sample","peer":1,"metric":"uploads","value":3}"#;
        assert!(json::from_str::<TraceRecord>(ok).is_ok());
        let bad =
            r#"{"t":0.0,"seq":0,"type":"metric_sample","peer":1,"metric":"bogus","value":3}"#;
        assert!(json::from_str::<TraceRecord>(bad).is_err());
    }
}
