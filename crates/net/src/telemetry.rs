//! Swarm telemetry: per-peer metric histograms, swarm-level
//! aggregation with a fairness index, Prometheus text exposition and a
//! flight recorder.
//!
//! The harness owns one [`PeerTelemetry`] per peer while telemetry is
//! enabled ([`crate::SwarmConfig::telemetry`]) and folds them into a
//! [`SwarmTelemetry`] at the end of the run. Everything here is plain
//! deterministic state — counters, [`Log2Histogram`]s and `BTreeMap`s —
//! so two same-seed runs produce byte-identical expositions, and a
//! telemetry-disabled run never constructs any of it (the harness keeps
//! the whole subsystem behind an `Option`).
//!
//! Latency-class metrics are observed in integer **milliseconds** of
//! transport virtual time, which maps well onto the log2 bucket shape:
//! one-tick round trips land in single-digit buckets, stalled retries
//! in the hundreds.

use crate::runtime::PeerCounters;
use std::collections::BTreeMap;
use tchain_obs::{to_jsonl, Log2Histogram, PrometheusWriter, TraceRecord, Tracer};

/// Converts transport virtual seconds to the integer milliseconds the
/// histograms bucket. Negative or NaN intervals clamp to zero.
pub fn virt_ms(dt: f64) -> u64 {
    if dt.is_finite() && dt > 0.0 {
        (dt * 1000.0).round() as u64
    } else {
        0
    }
}

/// Deterministic per-peer metrics: protocol counters, a goodwill gauge
/// and the latency/duration histograms of the tentpole.
#[derive(Debug, Clone, Default)]
pub struct PeerTelemetry {
    /// Peer id.
    pub peer: u32,
    /// Final protocol counters (filled when the run drains).
    pub counters: PeerCounters,
    /// Uploads minus downloads — the incentive balance gauge.
    pub goodwill: i64,
    /// PieceData delivered → matching KeyRelease delivered.
    pub request_key_latency: Log2Histogram,
    /// PieceUpload delivered → ReceptionReport delivered back.
    pub piece_rtt: Log2Histogram,
    /// Report retransmissions (one observation per run).
    pub report_retries: Log2Histogram,
    /// Escrow handoff delivered → escrow forward sent on.
    pub escrow_dwell: Log2Histogram,
    /// Durations of quarantines this peer imposed.
    pub quarantine: Log2Histogram,
}

impl PeerTelemetry {
    /// Fresh telemetry for `peer`.
    pub fn new(peer: u32) -> Self {
        PeerTelemetry { peer, ..Self::default() }
    }

    /// Verified key completions plus §II-B3 gifts taken. A piece that
    /// completes through two chains counts twice (see
    /// [`PeerCounters::decrypted`]); a gift counts only when new.
    pub fn downloads(&self) -> u64 {
        self.counters.decrypted + self.counters.unencrypted
    }

    /// Pieces this peer served.
    pub fn uploads(&self) -> u64 {
        self.counters.uploaded
    }

    /// Folds the end-of-run counters in and derives the gauge metrics.
    pub fn finish(&mut self, counters: PeerCounters, goodwill: i64) {
        self.counters = counters;
        self.goodwill = goodwill;
        self.report_retries.observe(counters.report_retries);
    }
}

/// Swarm-level aggregation: the fold of every peer's telemetry plus the
/// metrics only the harness-wide observer can see.
#[derive(Debug, Clone, Default)]
pub struct SwarmTelemetry {
    /// Per-peer telemetry, id-ordered.
    pub peers: Vec<PeerTelemetry>,
    /// Transactions per incentive chain.
    pub chain_lengths: Log2Histogram,
    /// Chain/peer terminations by cause (`gift`, `departure`, `crash`,
    /// `quarantine`).
    pub terminations: BTreeMap<&'static str, u64>,
}

impl SwarmTelemetry {
    /// Bumps one termination-cause counter.
    pub fn note_termination(&mut self, cause: &'static str, n: u64) {
        *self.terminations.entry(cause).or_insert(0) += n;
    }

    /// Jain's fairness index over per-peer upload/download ratios
    /// `x_i = uploads_i / max(1, downloads_i)`, taken over peers that
    /// actually downloaded something (the seeder never does, and would
    /// otherwise dominate the spread). `J = (Σx)² / (n·Σx²)`; 1.0 means
    /// perfectly even reciprocation, `1/n` maximal skew. Empty input
    /// reports 1.0 — a degenerate swarm is trivially fair.
    pub fn fairness_index(&self) -> f64 {
        let xs: Vec<f64> = self
            .peers
            .iter()
            .filter(|p| p.downloads() > 0)
            .map(|p| p.uploads() as f64 / p.downloads().max(1) as f64)
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (xs.len() as f64 * sq)
    }

    /// Prometheus text-format (0.0.4) exposition: per-peer counters and
    /// histograms labelled `peer="<id>"`, the swarm chain-length
    /// histogram, termination-cause counters and the fairness gauge.
    pub fn to_prometheus(&self) -> String {
        type CounterCol = (&'static str, &'static str, fn(&PeerTelemetry) -> u64);
        type HistCol = (&'static str, &'static str, fn(&PeerTelemetry) -> &Log2Histogram);
        let mut w = PrometheusWriter::new();
        let label = |p: &PeerTelemetry| format!("peer=\"{}\"", p.peer);
        let counters: [CounterCol; 6] = [
            ("tchain_peer_uploads", "Piece bodies served", |p| p.uploads()),
            ("tchain_peer_downloads", "Pieces obtained", |p| p.downloads()),
            ("tchain_peer_reports_sent", "Reception reports sent", |p| p.counters.reports_sent),
            ("tchain_peer_keys_sent", "Key releases sent", |p| p.counters.keys_sent),
            ("tchain_peer_frame_rejects", "Malformed frames rejected", |p| {
                p.counters.frame_rejects
            }),
            ("tchain_peer_quarantines", "Quarantines imposed", |p| p.counters.quarantines),
        ];
        for (name, help, get) in counters {
            let samples: Vec<(String, u64)> =
                self.peers.iter().map(|p| (label(p), get(p))).collect();
            w.counter(name, help, &samples);
        }
        let goodwill: Vec<(String, f64)> =
            self.peers.iter().map(|p| (label(p), p.goodwill as f64)).collect();
        w.gauge("tchain_peer_goodwill", "Uploads minus downloads", &goodwill);
        let hists: [HistCol; 5] = [
            (
                "tchain_request_key_latency_ms",
                "PieceData to KeyRelease latency",
                |p| &p.request_key_latency,
            ),
            ("tchain_piece_rtt_ms", "Upload to reception-report round trip", |p| &p.piece_rtt),
            ("tchain_report_retries", "Report retransmissions per run", |p| &p.report_retries),
            ("tchain_escrow_dwell_ms", "Escrow handoff to forward dwell", |p| &p.escrow_dwell),
            ("tchain_quarantine_ms", "Quarantine durations imposed", |p| &p.quarantine),
        ];
        for (name, help, get) in hists {
            let samples: Vec<(String, Log2Histogram)> =
                self.peers.iter().map(|p| (label(p), *get(p))).collect();
            w.histogram(name, help, &samples);
        }
        w.histogram(
            "tchain_chain_length",
            "Transactions per incentive chain",
            &[(String::new(), self.chain_lengths)],
        );
        let terms: Vec<(String, u64)> = self
            .terminations
            .iter()
            .map(|(cause, n)| (format!("cause=\"{cause}\""), *n))
            .collect();
        w.counter("tchain_terminations", "Terminations by cause", &terms);
        w.gauge(
            "tchain_fairness_index",
            "Jain fairness of upload/download ratios",
            &[(String::new(), self.fairness_index())],
        );
        w.finish()
    }
}

/// One flight-recorder capture: the causally merged tail of every
/// peer's event ring at the moment something went wrong.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What tripped the capture (`violation`, `quarantine`, `crash`).
    pub reason: &'static str,
    /// Transport virtual time of the trigger.
    pub at: f64,
    /// Last-N merged trace records leading up to the trigger.
    pub records: Vec<TraceRecord>,
}

impl FlightDump {
    /// The captured tail as JSONL, ready to drop next to run artifacts.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.records)
    }
}

/// Captures the merged last-N events across all peer rings when a
/// safety violation, quarantine or crash fires. Capture count is capped
/// so a quarantine storm cannot balloon a run report.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    window: usize,
    max_dumps: usize,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A recorder keeping the last `window` merged events per capture,
    /// at most `max_dumps` captures per run.
    pub fn new(window: usize, max_dumps: usize) -> Self {
        FlightRecorder { window, max_dumps, dumps: Vec::new() }
    }

    /// `true` once the capture budget is spent (callers can then skip
    /// the merge work entirely).
    pub fn full(&self) -> bool {
        self.dumps.len() >= self.max_dumps
    }

    /// Keeps the last `window` records of the causal merge
    /// ([`tchain_obs::merge_traces`]) of `rings` as a new dump, numbered
    /// as that merge numbers them. A no-op when full.
    ///
    /// `rings` are per-peer tracers ([`Tracer::for_peer`]), whose Lamport
    /// clocks strictly increase, so the merge's last `window` records by
    /// `(lamport, origin, seq)` all lie in the rings' last `window`
    /// records: only those tails are copied and sorted, and the whole
    /// rings are only counted.
    pub fn capture<'a>(
        &mut self,
        reason: &'static str,
        at: f64,
        rings: impl IntoIterator<Item = &'a Tracer>,
    ) {
        if self.full() {
            return;
        }
        let (mut tails, mut total) = (Vec::new(), 0);
        for ring in rings {
            total += ring.len();
            tails.extend(ring.tail(self.window).copied());
        }
        tails.sort_unstable_by_key(|r| (r.lamport, r.origin, r.seq));
        let mut records = tails[tails.len().saturating_sub(self.window)..].to_vec();
        let first = (total - records.len()) as u64;
        for (j, rec) in records.iter_mut().enumerate() {
            rec.seq = first + j as u64;
        }
        self.dumps.push(FlightDump { reason, at, records });
    }

    /// Captures so far, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Consumes the recorder, yielding its captures.
    pub fn into_dumps(self) -> Vec<FlightDump> {
        self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tchain_obs::{merge_traces, Event};
    use tchain_sim::{ensure_eq, forall, sized};

    fn peer(id: u32, up: u64, down: u64) -> PeerTelemetry {
        let mut p = PeerTelemetry::new(id);
        let counters = PeerCounters {
            uploaded: up,
            decrypted: down,
            reports_sent: down,
            ..PeerCounters::default()
        };
        p.finish(counters, up as i64 - down as i64);
        p
    }

    #[test]
    fn fairness_is_one_for_even_ratios_and_drops_with_skew() {
        let even = SwarmTelemetry {
            peers: vec![peer(0, 10, 0), peer(1, 5, 5), peer(2, 7, 7)],
            ..SwarmTelemetry::default()
        };
        assert!((even.fairness_index() - 1.0).abs() < 1e-12, "equal ratios are fair");

        let skewed = SwarmTelemetry {
            peers: vec![peer(1, 12, 1), peer(2, 0, 12)],
            ..SwarmTelemetry::default()
        };
        let j = skewed.fairness_index();
        assert!(j < 0.6, "one free-rider must drag J well below 1, got {j}");
        assert!(j >= 0.5, "J is bounded below by 1/n, got {j}");
    }

    #[test]
    fn fairness_ignores_pure_uploaders_and_degenerate_swarms() {
        let s = SwarmTelemetry { peers: vec![peer(0, 100, 0)], ..SwarmTelemetry::default() };
        assert_eq!(s.fairness_index(), 1.0, "seeder-only swarm is trivially fair");
        assert_eq!(SwarmTelemetry::default().fairness_index(), 1.0);
    }

    #[test]
    fn prometheus_has_the_headline_series() {
        let mut s = SwarmTelemetry {
            peers: vec![peer(1, 4, 2), peer(2, 3, 5)],
            ..SwarmTelemetry::default()
        };
        s.peers[0].request_key_latency.observe(3);
        s.chain_lengths.observe(5);
        s.chain_lengths.observe(2);
        s.note_termination("gift", 2);
        s.note_termination("crash", 1);

        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE tchain_fairness_index gauge"));
        assert!(prom.contains("tchain_fairness_index "));
        assert!(prom.contains("# TYPE tchain_chain_length histogram"));
        assert!(prom.contains("tchain_chain_length_count 2"));
        assert!(prom.contains("tchain_peer_uploads{peer=\"1\"} 4"));
        assert!(prom.contains("tchain_terminations{cause=\"crash\"} 1"));
        assert!(prom.contains("tchain_request_key_latency_ms_bucket{peer=\"1\",le=\"3\"} 1"));
    }

    #[test]
    fn flight_recorder_keeps_the_tail_and_caps_captures() {
        let mut rec = FlightRecorder::new(2, 2);
        let mut ring = Tracer::for_peer(7, 16);
        for i in 0..4 {
            ring.record(i as f64, Event::PeerDepart { peer: 7 });
        }
        rec.capture("quarantine", 1.0, [&ring]);
        assert_eq!(rec.dumps()[0].records.len(), 2, "window trims to last N");
        assert_eq!(rec.dumps()[0].records[0].lamport, Some(3));
        assert_eq!(rec.dumps()[0].records[0].seq, 2, "numbered as a full merge");
        rec.capture("crash", 2.0, [&ring]);
        rec.capture("violation", 3.0, [&ring]);
        assert_eq!(rec.dumps().len(), 2, "capture budget caps dumps");
        assert!(!rec.dumps()[0].to_jsonl().is_empty());
    }

    /// The reference capture: a full causal merge of every ring, trimmed
    /// to `window`.
    fn full_merge_capture(window: usize, rings: &[Vec<TraceRecord>]) -> Vec<TraceRecord> {
        let merged = merge_traces(rings).unwrap_or_default();
        let tail = merged.len().saturating_sub(window);
        merged[tail..].to_vec()
    }

    #[test]
    fn tail_only_capture_equals_the_full_merge() {
        let (gaps, ties, short) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        forall(0xF117_4A11, 256, |rng, size| {
            let window = 1 + rng.below(80);
            let mut rings = Vec::new();
            for i in 0..rng.below(13) {
                // Distinct origins; a small cap makes the ring
                // overwrite, so its seqs start past zero.
                let origin = 3 * i as u32 + rng.below(3) as u32;
                let mut ring = Tracer::for_peer(origin, 1 + rng.below(300));
                ring.witness(rng.below(4) as u64);
                for _ in 0..sized(rng, size, 0, 301) {
                    if rng.chance(0.3) {
                        let jump = 1 + rng.below(6) as u64;
                        ring.witness(ring.lamport() + jump);
                        gaps.set(gaps.get() + 1);
                    }
                    ring.record(0.0, Event::PeerDepart { peer: origin });
                }
                rings.push(ring);
            }
            rng.shuffle(&mut rings);
            let whole: Vec<Vec<TraceRecord>> = rings.iter().map(Tracer::records).collect();
            let want = full_merge_capture(window, &whole);
            let clocks = want.iter().map(|r| r.lamport);
            if clocks.clone().zip(clocks.skip(1)).any(|(a, b)| a == b) {
                ties.set(ties.get() + 1);
            }
            if whole.iter().map(Vec::len).sum::<usize>() < window {
                short.set(short.get() + 1);
            }
            let mut rec = FlightRecorder::new(window, 1);
            rec.capture("crash", 0.0, &rings);
            let n = rings.len();
            ensure_eq!(rec.dumps()[0].records, want, "window {window}, {n} rings");
            Ok(())
        });
        let counts = (gaps.get(), ties.get(), short.get());
        let drawn = counts.0 > 0 && counts.1 > 0 && counts.2 > 0;
        assert!(drawn, "(gaps, ties, short) = {counts:?}");
    }

    #[test]
    fn virt_ms_clamps_and_rounds() {
        assert_eq!(virt_ms(0.0015), 2);
        assert_eq!(virt_ms(1.0), 1000);
        assert_eq!(virt_ms(-3.0), 0);
        assert_eq!(virt_ms(f64::NAN), 0);
    }
}
