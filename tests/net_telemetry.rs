//! PR 7 acceptance: swarm telemetry over the executable `tchain-net`
//! runtime — causal cross-peer tracing, per-peer metric histograms,
//! Prometheus exposition and the flight recorder.
//!
//! The contract under test:
//!
//! 1. a 16-peer same-seed swarm with telemetry on produces per-peer
//!    event rings that merge into one causally consistent trace (every
//!    flow arrow strictly forward in Lamport order);
//! 2. two telemetry-**disabled** runs at the same seed stay
//!    bit-identical, and enabling telemetry does not move the
//!    delivered-frame fingerprint (stamps ride as metadata the
//!    fingerprint and chaos draws never see);
//! 3. the telemetry-enabled run emits a valid Prometheus text
//!    exposition containing the fairness index and the chain-length
//!    histogram;
//! 4. quarantines and crashes trip the flight recorder.

use tchain::net::{run_swarm, SwarmConfig};
use tchain::sim::ChaosPlan;
use tchain_obs::{
    merge_traces, to_causal_chrome_trace, to_jsonl, validate_causal, validate_jsonl, Event,
};

fn base16(telemetry: bool) -> SwarmConfig {
    SwarmConfig {
        peers: 16,
        seed: 0x7E1E,
        telemetry,
        trace_capacity: 1 << 15,
        ..SwarmConfig::default()
    }
}

#[test]
fn sixteen_peer_rings_merge_into_one_causally_consistent_trace() {
    let report = run_swarm(base16(true)).expect("mesh transport");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.peer_rings.len(), 16, "one causal ring per peer");

    let rings: Vec<_> = report.peer_rings.iter().map(|(_, r)| r.clone()).collect();
    let merged = merge_traces(&rings).expect("well-formed rings merge");
    assert!(merged.len() > 100, "a 16-peer run emits a real trace");
    let arrows = validate_causal(&merged).expect("no arrow points backward in lamport order");
    assert!(arrows > 0, "sends must match receives");

    // The merged trace is itself a valid JSONL log (global seq
    // renumbering + per-origin lamport monotonicity).
    let n = validate_jsonl(&to_jsonl(&merged)).expect("merged trace passes the validator");
    assert_eq!(n, merged.len());

    // And it renders as a Chrome trace with one track per peer plus
    // flow arrows.
    let doc = to_causal_chrome_trace(&merged);
    assert!(doc.contains("\"name\":\"peer 0\""));
    assert!(doc.contains("\"name\":\"peer 15\""));
    assert!(doc.contains("\"ph\":\"s\"") && doc.contains("\"ph\":\"f\""));
}

#[test]
fn telemetry_disabled_runs_stay_bit_identical_and_stamps_are_invisible() {
    let a = run_swarm(base16(false)).expect("run a");
    let b = run_swarm(base16(false)).expect("run b");
    assert!(a.same_run(&b), "disabled runs are the same run");

    let c = run_swarm(base16(true)).expect("run c");
    assert!(c.telemetry.is_some() && c.events_recorded > 0);
    assert!(c.same_run(&a), "telemetry stamps must not perturb the run");
}

#[test]
fn prometheus_exposition_carries_fairness_and_chain_length() {
    let report = run_swarm(base16(true)).expect("run");
    let tel = report.telemetry.expect("aggregate present when enabled");
    let prom = tel.to_prometheus();

    assert!(prom.contains("# TYPE tchain_fairness_index gauge"), "{prom}");
    let j = tel.fairness_index();
    assert!(j > 0.0 && j <= 1.0 + 1e-12, "Jain index in (0, 1], got {j}");
    assert!(prom.contains(&format!("tchain_fairness_index {j}")));

    assert!(prom.contains("# TYPE tchain_chain_length histogram"), "{prom}");
    assert!(prom.contains("tchain_chain_length_bucket"));
    assert!(prom.contains("tchain_chain_length_count"));
    assert_eq!(tel.chain_lengths.count() as usize, report.chains_started);

    // Per-peer families carry a peer label for every peer in the run.
    assert!(prom.contains("tchain_peer_uploads{peer=\"0\"}"));
    assert!(prom.contains("tchain_peer_uploads{peer=\"15\"}"));
    assert!(prom.contains("tchain_peer_goodwill{peer=\"1\"}"));
    assert!(prom.contains("tchain_request_key_latency_ms_bucket{peer=\"1\",le=\"+Inf\"}"));

    // Upload/download conservation: every piece obtained was served.
    let served: u64 = tel.peers.iter().map(|p| p.uploads()).sum();
    let got: u64 = tel.peers.iter().map(|p| p.downloads()).sum();
    assert!(served >= got, "uploads {served} must cover downloads {got}");
}

#[test]
fn latency_histograms_fill_under_telemetry() {
    let report = run_swarm(base16(true)).expect("run");
    let tel = report.telemetry.expect("aggregate");
    let rtt: u64 = tel.peers.iter().map(|p| p.piece_rtt.count()).sum();
    let key: u64 = tel.peers.iter().map(|p| p.request_key_latency.count()).sum();
    assert!(rtt > 0, "piece RTT observed");
    assert!(key > 0, "request→key latency observed");
    // The seeder never downloads, so its key-latency histogram is empty.
    let seeder = tel.peers.iter().find(|p| p.peer == 0).expect("seeder row");
    assert_eq!(seeder.request_key_latency.count(), 0);
    assert!(seeder.goodwill > 0, "the seeder is a net contributor");
}

#[test]
fn quarantine_chaos_trips_the_flight_recorder() {
    let cfg = SwarmConfig {
        chaos: ChaosPlan::corrupting(77, 0.05),
        max_ticks: 20_000,
        ..base16(true)
    };
    let report = run_swarm(cfg).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.quarantines > 0, "5% corruption at 16 peers must quarantine someone");
    assert!(!report.flight_dumps.is_empty(), "quarantine trips a capture");
    let dump = &report.flight_dumps[0];
    assert_eq!(dump.reason, "quarantine");
    assert!(!dump.records.is_empty(), "the capture holds the merged tail");
    // Dump records are causally stamped and ordered.
    assert!(dump.records.iter().all(|r| r.origin.is_some() && r.lamport.is_some()));
    assert!(!dump.to_jsonl().is_empty());
}

#[test]
fn merge_rejects_rings_with_nonmonotone_clocks() {
    let report = run_swarm(base16(true)).expect("run");
    let mut rings: Vec<_> = report.peer_rings.iter().map(|(_, r)| r.clone()).collect();
    assert!(merge_traces(&rings).is_ok());
    // Break one ring: clone an entry so its clock repeats.
    let dup = rings[1][0];
    rings[1].insert(1, dup);
    let err = merge_traces(&rings).unwrap_err();
    assert!(err.contains("lamport"), "{err}");
}

#[test]
fn metric_samples_land_in_each_peers_ring() {
    let report = run_swarm(base16(true)).expect("run");
    for (id, ring) in &report.peer_rings {
        let samples = ring
            .iter()
            .filter(|r| matches!(r.event, Event::MetricSample { .. }))
            .count();
        assert!(samples >= 8, "peer {id} records its end-of-run metric samples, got {samples}");
    }
}
