//! net_telemetry: swarm telemetry demo and acceptance run over the
//! executable `tchain-net` runtime.
//!
//! Not a paper figure — the PR 7 observability experiment. Runs one
//! flash-crowd swarm three ways at the same seed:
//!
//! 1. telemetry **off** (baseline),
//! 2. telemetry **off** again — the same run as the baseline
//!    (`SwarmReport::same_run`: the disabled path stays deterministic),
//! 3. telemetry **on** — the same run as the baseline too (Lamport
//!    stamps ride the wire as metadata the fingerprint and chaos draws
//!    never see),
//!
//! then a fourth chaos run with telemetry on to exercise the flight
//! recorder. The telemetry run's per-peer causal rings are written as
//! one JSONL file per peer, merged into a single causally ordered
//! trace (`merged.jsonl` + a Perfetto-loadable `trace.json` with one
//! track per peer and flow arrows), checked for causal consistency
//! (no arrow may point backward in Lamport order), and the swarm
//! aggregate is exposed as a Prometheus text exposition (`.prom`).

use super::net_swarm::{sweep_scenarios, wire_run};
use crate::output::{persist, print_table, results_dir, RunMeta};
use crate::scale::Scale;
use std::collections::BTreeMap;
use std::path::Path;
use tchain_net::SwarmConfig;
use tchain_obs::{merge_traces, to_causal_chrome_trace, to_jsonl, validate_causal};
use tchain_sim::ChaosPlan;

tchain_obs::json_struct! {
    /// Per-peer telemetry row in the persisted document.
    #[derive(Debug)]
    pub struct PeerRow {
        /// Peer id (0 is the seeder).
        pub peer: u32,
        /// Piece bodies served.
        pub uploads: u64,
        /// Pieces obtained (reciprocations + gifts).
        pub downloads: u64,
        /// Uploads minus downloads.
        pub goodwill: i64,
        /// Median piece round-trip (upload → report), virtual ms.
        pub piece_rtt_p50_ms: Option<u64>,
        /// Median request→key latency (data → key), virtual ms.
        pub key_latency_p50_ms: Option<u64>,
        /// Causal trace events recorded in this peer's ring.
        pub trace_events: usize,
    }
}

tchain_obs::json_struct! {
    /// The persisted document; the default, unsafe one when a run's cell
    /// failed.
    #[derive(Debug, Default)]
    pub struct NetTelemetryDoc {
        /// Master seed of all four runs.
        pub seed: u64,
        /// Peers in the swarm (including the seeder).
        pub peers: u32,
        /// Baseline delivered-frame fingerprint (hex).
        pub fingerprint: String,
        /// Two telemetry-disabled runs were the same run.
        pub disabled_deterministic: bool,
        /// The telemetry-enabled run was the baseline's run.
        pub telemetry_invisible: bool,
        /// Records in the merged causal trace.
        pub causal_records: usize,
        /// Matched send→receive flow arrows (all strictly forward).
        pub causal_arrows: usize,
        /// Jain fairness index over upload/download ratios.
        pub fairness_index: f64,
        /// Incentive chains opened / mean length / longest.
        pub chains_started: usize,
        /// Mean transactions per chain.
        pub mean_chain_len: f64,
        /// Longest chain observed.
        pub max_chain_len: u32,
        /// Terminations by cause.
        pub terminations: BTreeMap<String, u64>,
        /// Per-peer metric rows.
        pub per_peer: Vec<PeerRow>,
        /// Bytes of Prometheus text exposition written.
        pub prom_bytes: usize,
        /// Flight-recorder captures from the chaos leg.
        pub flight_dumps: usize,
        /// Every acceptance invariant held.
        pub safe: bool,
    }
}

fn write_artifact(dir: &Path, name: &str, body: &str) {
    let path = dir.join(name);
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

/// The canonical master seed: the committed documents are run at it.
pub const SEED: u64 = 0x7E1E;

/// Runs the telemetry acceptance under `seed` (CI runs two).
pub fn run(scale: Scale, seed: u64) -> NetTelemetryDoc {
    let (peers, pieces, piece_len) = match scale {
        Scale::Quick => (16u32, 24usize, 1024usize),
        Scale::Paper => (24u32, 48usize, 2048usize),
    };
    let base = SwarmConfig {
        peers,
        pieces,
        piece_len,
        seed,
        max_ticks: 40_000,
        trace_capacity: 1 << 15,
        ..SwarmConfig::default()
    };
    let configs = [
        ("baseline", base.clone()),
        ("rerun", base.clone()),
        ("traced", SwarmConfig { telemetry: true, ..base.clone() }),
        // Chaos leg: corruption trips quarantines, which trip the recorder.
        (
            "chaotic",
            SwarmConfig {
                telemetry: true,
                chaos: ChaosPlan::corrupting(seed ^ 0xF11, 0.05),
                ..base.clone()
            },
        ),
    ];
    let mut meta = RunMeta::default();
    let label = |s: &(&str, SwarmConfig)| s.0.to_string();
    let runs = sweep_scenarios("net_telemetry", &mut meta, &configs, seed, label, |s| {
        wire_run(&s.1)
    });
    let reports: Vec<_> = runs.into_iter().map(|(_, report)| report).collect();
    let Ok([baseline, rerun, traced, chaotic]) = <[_; 4]>::try_from(reports) else {
        // A run's cell failed: the document is the default, unsafe one.
        let doc = NetTelemetryDoc { seed, peers, ..NetTelemetryDoc::default() };
        persist("net_telemetry", scale.name(), &doc, &meta);
        return doc;
    };
    let disabled_deterministic = baseline.same_run(&rerun);
    let telemetry_invisible = traced.same_run(&baseline);

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    let prefix = format!("net_telemetry.{}", scale.name());

    // Per-peer causal rings → one JSONL each, then the merged trace.
    let rings: Vec<Vec<tchain_obs::TraceRecord>> =
        traced.peer_rings.iter().map(|(_, r)| r.clone()).collect();
    for (id, ring) in &traced.peer_rings {
        write_artifact(&dir, &format!("{prefix}.peer{id}.jsonl"), &to_jsonl(ring));
    }
    let merged = merge_traces(&rings).unwrap_or_default();
    let causal = validate_causal(&merged);
    if let Err(e) = &causal {
        eprintln!("net_telemetry: causal validation FAILED: {e}");
    }
    write_artifact(&dir, &format!("{prefix}.merged.jsonl"), &to_jsonl(&merged));
    write_artifact(&dir, &format!("{prefix}.trace.json"), &to_causal_chrome_trace(&merged));

    let tel = traced.telemetry.as_ref().expect("telemetry was enabled");
    let prom = tel.to_prometheus();
    write_artifact(&dir, &format!("{prefix}.prom"), &prom);
    for (i, dump) in chaotic.flight_dumps.iter().enumerate() {
        write_artifact(&dir, &format!("{prefix}.flight{i}.jsonl"), &dump.to_jsonl());
    }

    let ring_sizes: BTreeMap<u32, usize> =
        traced.peer_rings.iter().map(|(id, r)| (*id, r.len())).collect();
    let per_peer: Vec<PeerRow> = tel
        .peers
        .iter()
        .map(|p| PeerRow {
            peer: p.peer,
            uploads: p.uploads(),
            downloads: p.downloads(),
            goodwill: p.goodwill,
            piece_rtt_p50_ms: p.piece_rtt.quantile_le(0.5),
            key_latency_p50_ms: p.request_key_latency.quantile_le(0.5),
            trace_events: ring_sizes.get(&p.peer).copied().unwrap_or(0),
        })
        .collect();

    let safe = traced.ok()
        && chaotic.ok()
        && disabled_deterministic
        && telemetry_invisible
        && causal.is_ok()
        && causal.as_ref().map(|&n| n > 0).unwrap_or(false);

    let doc = NetTelemetryDoc {
        seed,
        peers,
        fingerprint: format!("{:016x}", baseline.fingerprint),
        disabled_deterministic,
        telemetry_invisible,
        causal_records: merged.len(),
        causal_arrows: causal.unwrap_or(0),
        fairness_index: tel.fairness_index(),
        chains_started: traced.chains_started,
        mean_chain_len: traced.mean_chain_len,
        max_chain_len: traced.max_chain_len,
        terminations: tel.terminations.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        per_peer,
        prom_bytes: prom.len(),
        flight_dumps: chaotic.flight_dumps.len(),
        safe,
    };

    let rows: Vec<Vec<String>> = doc
        .per_peer
        .iter()
        .map(|p| {
            vec![
                p.peer.to_string(),
                p.uploads.to_string(),
                p.downloads.to_string(),
                p.goodwill.to_string(),
                p.piece_rtt_p50_ms.map_or("-".into(), |v| v.to_string()),
                p.key_latency_p50_ms.map_or("-".into(), |v| v.to_string()),
                p.trace_events.to_string(),
            ]
        })
        .collect();
    print_table(
        "net_telemetry: per-peer metrics (channel mesh, causal tracing on)",
        &["peer", "uploads", "downloads", "goodwill", "rtt p50", "key p50", "events"],
        &rows,
    );
    println!(
        "net_telemetry seed {seed:#x}: fingerprint {} | disabled-deterministic {} | \
         telemetry-invisible {} | {} causal records, {} arrows | J = {:.4} | \
         {} flight dumps | safe = {}",
        doc.fingerprint,
        doc.disabled_deterministic,
        doc.telemetry_invisible,
        doc.causal_records,
        doc.causal_arrows,
        doc.fairness_index,
        doc.flight_dumps,
        doc.safe,
    );
    persist("net_telemetry", scale.name(), &doc, &meta);
    doc
}
