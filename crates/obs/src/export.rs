//! Trace serialization: JSONL, Chrome `trace_event` (Perfetto), and the
//! JSONL self-check used by CI.
//!
//! JSONL is the ground-truth format — one [`TraceRecord`] per line, in
//! ring order, with the typed enum as schema. The Chrome export maps
//! the same records onto the `trace_event` vocabulary so a run opens
//! directly in Perfetto or `chrome://tracing`:
//!
//! * transaction lifecycles become `"X"` (complete) events — one span
//!   from `txn_start` to `txn_end` on the donor's track;
//! * chains become `"b"`/`"e"` async spans keyed by chain id, so §II-B
//!   lineage is visible as nested tracks;
//! * everything else (protocol steps, faults, choke decisions,
//!   membership) becomes `"i"` instant events carrying the full typed
//!   record in `args`.
//!
//! Timestamps are simulated seconds scaled to microseconds (`ts` is µs
//! in the trace_event spec), so one trace-second equals one sim-second.
//! The Chrome document is assembled by hand rather than through a
//! generic JSON value tree: the shapes are fixed. Only the typed `args`
//! payloads and the JSONL lines go through [`crate::json`].

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::event::{Event, TraceRecord};
use crate::json;

/// Microseconds per simulated second in the Chrome export.
const US_PER_S: f64 = 1_000_000.0;

/// Serialize records as JSONL, one compact JSON object per line.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&json::to_string(rec));
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace and verify every line against the typed event
/// schema (the [`Event`] enum with unknown fields rejected — including
/// telemetry `metric_sample` lines, whose metric name must belong to the
/// closed [`crate::MetricName`] set), plus the monotone-sequence
/// invariant and, for causally stamped lines, per-origin strict Lamport
/// monotonicity. Returns the number of valid records, or a message
/// naming the first offending line.
pub fn validate_jsonl(jsonl: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_seq: Option<u64> = None;
    let mut last_lamport: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            json::from_str(line).map_err(|e| format!("line {}: {}", i + 1, e))?;
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                return Err(format!(
                    "line {}: seq {} not increasing (prev {})",
                    i + 1,
                    rec.seq,
                    prev
                ));
            }
        }
        last_seq = Some(rec.seq);
        match (rec.origin, rec.lamport) {
            (Some(origin), Some(lamport)) => {
                if let Some(&prev) = last_lamport.get(&origin) {
                    if lamport <= prev {
                        return Err(format!(
                            "line {}: lamport {} not increasing for origin {} (prev {})",
                            i + 1,
                            lamport,
                            origin,
                            prev
                        ));
                    }
                }
                last_lamport.insert(origin, lamport);
            }
            (None, None) => {}
            _ => {
                return Err(format!(
                    "line {}: origin and lamport must appear together",
                    i + 1
                ));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Merge per-peer causally stamped rings into one swarm trace.
///
/// Every input record must carry `origin`/`lamport` (the per-ring
/// Lamport clocks must already be strictly increasing, as
/// [`crate::Tracer::for_peer`] guarantees). The merged order is
/// `(lamport, origin, seq)` — a linear extension of the causal partial
/// order, since a receive event's clock is strictly greater than its
/// matching send — and sequence numbers are renumbered globally so the
/// output passes [`validate_jsonl`].
pub fn merge_traces(rings: &[Vec<TraceRecord>]) -> Result<Vec<TraceRecord>, String> {
    let mut all: Vec<TraceRecord> = Vec::new();
    for (ri, ring) in rings.iter().enumerate() {
        let mut prev: Option<(u32, u64)> = None;
        for rec in ring {
            let (origin, lamport) = match (rec.origin, rec.lamport) {
                (Some(o), Some(l)) => (o, l),
                _ => {
                    return Err(format!(
                        "ring {ri}: record seq {} lacks causal origin/lamport stamps",
                        rec.seq
                    ));
                }
            };
            if let Some((po, pl)) = prev {
                if origin != po {
                    return Err(format!("ring {ri}: mixed origins {po} and {origin}"));
                }
                if lamport <= pl {
                    return Err(format!(
                        "ring {ri}: lamport {lamport} not increasing (prev {pl})"
                    ));
                }
            }
            prev = Some((origin, lamport));
            all.push(*rec);
        }
    }
    all.sort_by_key(|r| (r.lamport, r.origin, r.seq));
    for (i, rec) in all.iter_mut().enumerate() {
        rec.seq = i as u64;
    }
    Ok(all)
}

/// Convert a merged causal trace ([`merge_traces`]) to a Chrome
/// `trace_event` document with one track (`tid`) per peer and flow
/// arrows (`"s"`/`"f"` pairs) following each tagged frame from its
/// `frame_sent` to the matching `frame_received`.
///
/// The time axis is the **Lamport clock** (1 tick = 1 µs), not wall
/// time: causality, not duration, is what the merged view shows. Every
/// arrow therefore points strictly forward.
pub fn to_causal_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut peers: Vec<u32> = records.iter().filter_map(|r| r.origin).collect();
    peers.sort_unstable();
    peers.dedup();
    for p in &peers {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{p},\
             \"args\":{{\"name\":\"peer {p}\"}}}}"
        ));
    }

    // (sender, receiver, span, msg) -> queue of pending flow ids.
    let mut pending: BTreeMap<(u32, u32, u64, &'static str), VecDeque<u64>> = BTreeMap::new();
    let mut next_flow: u64 = 1;

    for rec in records {
        let origin = rec.origin.unwrap_or(0);
        let ts = rec.lamport.unwrap_or(0);
        events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{ts},\"pid\":1,\"tid\":{origin},\"args\":{args}}}",
            name = rec.event.name(),
            args = args_json(&rec.event),
        ));
        match rec.event {
            Event::FrameSent { span, to, msg } => {
                let id = next_flow;
                next_flow += 1;
                pending
                    .entry((origin, to, span, msg.name()))
                    .or_default()
                    .push_back(id);
                events.push(format!(
                    "{{\"name\":\"{m} span {span}\",\"cat\":\"flow\",\"ph\":\"s\",\
                     \"id\":{id},\"ts\":{ts},\"pid\":1,\"tid\":{origin}}}",
                    m = msg.name(),
                ));
            }
            Event::FrameReceived { span, from, msg } => {
                if let Some(id) = pending
                    .get_mut(&(from, origin, span, msg.name()))
                    .and_then(VecDeque::pop_front)
                {
                    events.push(format!(
                        "{{\"name\":\"{m} span {span}\",\"cat\":\"flow\",\"ph\":\"f\",\
                         \"bp\":\"e\",\"id\":{id},\"ts\":{ts},\"pid\":1,\"tid\":{origin}}}",
                        m = msg.name(),
                    ));
                }
            }
            _ => {}
        }
    }

    let mut doc = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(e);
    }
    doc.push_str(
        "],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{\"source\":\"tchain-obs\",\
         \"unit\":\"1 trace us = 1 lamport tick\"}}",
    );
    doc
}

/// Check a merged causal trace for consistency: every `frame_received`
/// matches an earlier `frame_sent` on the same `(sender, receiver,
/// span, msg)` key with a **strictly smaller** Lamport clock (no flow
/// arrow points backward), and per-origin clocks strictly increase.
/// Returns the number of matched send→receive arrows.
pub fn validate_causal(records: &[TraceRecord]) -> Result<usize, String> {
    let mut last_lamport: BTreeMap<u32, u64> = BTreeMap::new();
    let mut pending: BTreeMap<(u32, u32, u64, &'static str), VecDeque<u64>> = BTreeMap::new();
    let mut arrows = 0usize;
    for rec in records {
        let (origin, lamport) = match (rec.origin, rec.lamport) {
            (Some(o), Some(l)) => (o, l),
            _ => return Err(format!("record seq {}: missing causal stamps", rec.seq)),
        };
        if let Some(&prev) = last_lamport.get(&origin) {
            if lamport <= prev {
                return Err(format!(
                    "record seq {}: lamport {lamport} not increasing for origin {origin} \
                     (prev {prev})",
                    rec.seq
                ));
            }
        }
        last_lamport.insert(origin, lamport);
        match rec.event {
            Event::FrameSent { span, to, msg } => {
                pending
                    .entry((origin, to, span, msg.name()))
                    .or_default()
                    .push_back(lamport);
            }
            Event::FrameReceived { span, from, msg } => {
                let sent = pending
                    .get_mut(&(from, origin, span, msg.name()))
                    .and_then(VecDeque::pop_front)
                    .ok_or_else(|| {
                        format!(
                            "record seq {}: frame_received span {span} from {from} \
                             has no matching frame_sent",
                            rec.seq
                        )
                    })?;
                if lamport <= sent {
                    return Err(format!(
                        "record seq {}: flow arrow points backward \
                         (sent at lamport {sent}, received at {lamport})",
                        rec.seq
                    ));
                }
                arrows += 1;
            }
            _ => {}
        }
    }
    Ok(arrows)
}

/// `args` payload for an instant: the event's typed serialization.
fn args_json(event: &Event) -> String {
    json::to_string(event)
}

/// Convert records to a Chrome `trace_event` JSON document.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::new();
    // txn id -> start info awaiting its TxnEnd.
    struct OpenTxn {
        ts: f64,
        donor: u32,
        requestor: u32,
        payee: Option<u32>,
        piece: u32,
    }
    let mut open_txns: BTreeMap<u64, OpenTxn> = BTreeMap::new();

    for rec in records {
        let ts = rec.t * US_PER_S;
        match rec.event {
            Event::TxnStart {
                txn,
                donor,
                requestor,
                payee,
                piece,
                ..
            } => {
                open_txns.insert(
                    txn,
                    OpenTxn {
                        ts,
                        donor,
                        requestor,
                        payee,
                        piece,
                    },
                );
            }
            Event::TxnEnd {
                txn,
                chain,
                completed,
                cause,
            } => {
                if let Some(open) = open_txns.remove(&txn) {
                    let payee = match open.payee {
                        Some(p) => p.to_string(),
                        None => String::from("null"),
                    };
                    let mut e = String::new();
                    let _ = write!(
                        e,
                        "{{\"name\":\"txn {txn}\",\"cat\":\"txn\",\"ph\":\"X\",\
                         \"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"txn\":{txn},\"chain\":{chain},\
                         \"donor\":{donor},\"requestor\":{requestor},\
                         \"payee\":{payee},\"piece\":{piece},\
                         \"completed\":{completed},\"cause\":\"{cause}\"}}}}",
                        txn = txn,
                        ts = open.ts,
                        dur = (ts - open.ts).max(0.0),
                        tid = open.donor,
                        chain = chain,
                        donor = open.donor,
                        requestor = open.requestor,
                        payee = payee,
                        piece = open.piece,
                        completed = completed,
                        cause = cause.name(),
                    );
                    events.push(e);
                } else {
                    events.push(instant(rec, ts));
                }
            }
            Event::ChainOpen { chain, seeder } => {
                events.push(format!(
                    "{{\"name\":\"chain {chain}\",\"cat\":\"chain\",\"ph\":\"b\",\
                     \"id\":{chain},\"ts\":{ts},\"pid\":1,\"tid\":0,\
                     \"args\":{{\"seeder\":{seeder}}}}}"
                ));
            }
            Event::ChainClose {
                chain,
                length,
                cause,
            } => {
                events.push(format!(
                    "{{\"name\":\"chain {chain}\",\"cat\":\"chain\",\"ph\":\"e\",\
                     \"id\":{chain},\"ts\":{ts},\"pid\":1,\"tid\":0,\
                     \"args\":{{\"length\":{length},\"cause\":\"{cause}\"}}}}",
                    cause = cause.name(),
                ));
            }
            _ => events.push(instant(rec, ts)),
        }
    }

    // Spans still open at trace end render as instants so nothing
    // silently disappears from the timeline.
    for (txn, open) in open_txns {
        events.push(format!(
            "{{\"name\":\"txn {txn} (open)\",\"cat\":\"txn\",\"ph\":\"i\",\
             \"s\":\"g\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
            ts = open.ts,
            tid = open.donor,
        ));
    }

    let mut doc = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(e);
    }
    doc.push_str(
        "],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{\"source\":\"tchain-obs\",\
         \"unit\":\"1 trace us = 1 sim us\"}}",
    );
    doc
}

fn instant(rec: &TraceRecord, ts: f64) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\
         \"ts\":{ts},\"pid\":1,\"tid\":0,\"args\":{args}}}",
        name = rec.event.name(),
        args = args_json(&rec.event),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EndCause, WireMsg};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::plain(
                0.0,
                0,
                Event::ChainOpen {
                    chain: 1,
                    seeder: true,
                },
            ),
            TraceRecord::plain(
                0.5,
                1,
                Event::TxnStart {
                    txn: 9,
                    chain: 1,
                    donor: 0,
                    requestor: 2,
                    payee: Some(3),
                    piece: 4,
                },
            ),
            TraceRecord::plain(
                2.0,
                2,
                Event::TxnEnd {
                    txn: 9,
                    chain: 1,
                    completed: true,
                    cause: EndCause::Departure,
                },
            ),
            TraceRecord::plain(
                2.5,
                3,
                Event::ChainClose {
                    chain: 1,
                    length: 1,
                    cause: EndCause::Departure,
                },
            ),
        ]
    }

    /// Two peers: peer 0 sends an upload frame, peer 1 receives it and
    /// answers with a report frame, which peer 0 receives.
    fn causal_rings() -> Vec<Vec<TraceRecord>> {
        let stamp = |origin, lamport, seq, event| TraceRecord {
            t: 0.0,
            seq,
            origin: Some(origin),
            lamport: Some(lamport),
            event,
        };
        let ring0 = vec![
            stamp(
                0,
                1,
                0,
                Event::FrameSent {
                    span: 7,
                    to: 1,
                    msg: WireMsg::Upload,
                },
            ),
            stamp(
                0,
                5,
                1,
                Event::FrameReceived {
                    span: 7,
                    from: 1,
                    msg: WireMsg::Report,
                },
            ),
        ];
        let ring1 = vec![
            stamp(
                1,
                2,
                0,
                Event::FrameReceived {
                    span: 7,
                    from: 0,
                    msg: WireMsg::Upload,
                },
            ),
            stamp(
                1,
                3,
                1,
                Event::FrameSent {
                    span: 7,
                    to: 0,
                    msg: WireMsg::Report,
                },
            ),
        ];
        vec![ring0, ring1]
    }

    #[test]
    fn jsonl_roundtrip_validates() {
        let jsonl = to_jsonl(&sample());
        assert_eq!(jsonl.lines().count(), 4);
        assert_eq!(validate_jsonl(&jsonl), Ok(4));
    }

    #[test]
    fn validate_rejects_garbage_and_bad_order() {
        assert!(validate_jsonl("{\"nope\":1}\n").is_err());
        let mut recs = sample();
        recs[2].seq = 0;
        assert!(validate_jsonl(&to_jsonl(&recs)).is_err());
    }

    #[test]
    fn chrome_trace_builds_spans() {
        let doc = to_chrome_trace(&sample());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""), "txn span missing: {doc}");
        assert!(doc.contains("\"ph\":\"b\"") && doc.contains("\"ph\":\"e\""));
        // Span runs 0.5 s → 2.0 s: ts 500000 µs, dur 1500000 µs.
        assert!(doc.contains("\"ts\":500000"), "{doc}");
        assert!(doc.contains("\"dur\":1500000"), "{doc}");
        assert!(doc.contains("\"cause\":\"departure\""));
    }

    #[test]
    fn open_spans_become_instants() {
        let recs = vec![TraceRecord::plain(
            1.0,
            0,
            Event::TxnStart {
                txn: 7,
                chain: 1,
                donor: 0,
                requestor: 1,
                payee: None,
                piece: 0,
            },
        )];
        let doc = to_chrome_trace(&recs);
        assert!(doc.contains("txn 7 (open)"));
        assert!(doc.contains("\"ph\":\"i\""));
    }

    #[test]
    fn merge_orders_by_lamport_and_renumbers() {
        let merged = merge_traces(&causal_rings()).unwrap();
        let clocks: Vec<u64> = merged.iter().map(|r| r.lamport.unwrap()).collect();
        assert_eq!(clocks, vec![1, 2, 3, 5]);
        let seqs: Vec<u64> = merged.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(validate_causal(&merged), Ok(2));
        assert_eq!(validate_jsonl(&to_jsonl(&merged)), Ok(4));
    }

    #[test]
    fn merge_rejects_unstamped_and_nonmonotone_rings() {
        let plain = vec![TraceRecord::plain(0.0, 0, Event::PeerDepart { peer: 1 })];
        assert!(merge_traces(&[plain]).is_err());
        let mut rings = causal_rings();
        rings[0][1].lamport = Some(1); // not strictly increasing
        assert!(merge_traces(&rings).is_err());
    }

    #[test]
    fn validate_causal_catches_backward_arrow() {
        let mut merged = merge_traces(&causal_rings()).unwrap();
        // Claim peer 0's receive of the report happened at lamport 3 —
        // the same clock peer 1 sent it at, so the arrow cannot point
        // strictly forward.
        merged[3].lamport = Some(3);
        let err = validate_causal(&merged).unwrap_err();
        assert!(err.contains("backward"), "{err}");
    }

    #[test]
    fn causal_chrome_trace_has_tracks_and_flows() {
        let merged = merge_traces(&causal_rings()).unwrap();
        let doc = to_causal_chrome_trace(&merged);
        assert!(doc.contains("\"name\":\"peer 0\""), "{doc}");
        assert!(doc.contains("\"name\":\"peer 1\""), "{doc}");
        assert!(doc.contains("\"ph\":\"s\""), "flow start missing: {doc}");
        assert!(doc.contains("\"ph\":\"f\""), "flow finish missing: {doc}");
        assert!(doc.contains("\"tid\":1"), "{doc}");
    }

    #[test]
    fn validate_jsonl_rejects_lamport_regression_and_lone_stamps() {
        // Same origin, lamport goes 5 -> 5: rejected.
        let lines = "\
{\"t\":0.0,\"seq\":0,\"origin\":2,\"lamport\":5,\"type\":\"peer_depart\",\"peer\":2}\n\
{\"t\":0.1,\"seq\":1,\"origin\":2,\"lamport\":5,\"type\":\"peer_crash\",\"peer\":2}\n";
        let err = validate_jsonl(lines).unwrap_err();
        assert!(err.contains("lamport"), "{err}");
        // Different origins may interleave arbitrary clocks.
        let ok = "\
{\"t\":0.0,\"seq\":0,\"origin\":2,\"lamport\":9,\"type\":\"peer_depart\",\"peer\":2}\n\
{\"t\":0.1,\"seq\":1,\"origin\":3,\"lamport\":1,\"type\":\"peer_depart\",\"peer\":3}\n";
        assert_eq!(validate_jsonl(ok), Ok(2));
        // Origin without lamport: rejected.
        let lone = "{\"t\":0.0,\"seq\":0,\"origin\":2,\"type\":\"peer_depart\",\"peer\":2}\n";
        assert!(validate_jsonl(lone).is_err());
    }
}
