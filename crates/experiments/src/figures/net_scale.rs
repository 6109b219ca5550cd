//! net_scale: the indexed scheduler and churn layer at N ∈ {16, 64, 256}.
//!
//! Not a paper figure — the PR 8 scale experiment. Sweeps swarm size
//! with and without a membership churn schedule (staggered joins, a
//! flash crowd, a voluntary §II-B4 departure wave, all proportional to
//! N), audits every frame and reruns each point at the same seed to pin
//! bit-identity. Harness speed is perfbench's to measure
//! (`net.harness.ticks_per_s`), so the document holds no host timing.

use super::net_swarm::{all_safe, audited_run, sweep_scenarios};
use crate::output::{persist, print_table, RunMeta};
use crate::scale::Scale;
use tchain_net::{SwarmConfig, SwarmReport};
use tchain_sim::ChurnPlan;

tchain_obs::json_struct! {
    /// One (N, churn) cell of the sweep.
    #[derive(Debug)]
    pub struct ScalePoint {
        /// Scenario label.
        pub scenario: String,
        /// Peers at boot (churn arrivals on top).
        pub peers: u32,
        /// Whether a churn schedule ran.
        pub churn: bool,
        /// Mid-run arrivals from the churn schedule.
        pub churn_joins: u64,
        /// Voluntary §II-B4 departures from the churn schedule.
        pub churn_departs: u64,
        /// Compliant leechers that completed / in the scenario.
        pub completed_compliant: u32,
        /// Compliant leechers in the scenario (boot + arrivals − departed).
        pub total_compliant: u32,
        /// Every held piece matched the source bytes.
        pub plaintext_ok: bool,
        /// Unreciprocated key releases (must stay 0).
        pub violations: usize,
        /// Every survivor's §II-D2 ledger matched its unreported txns.
        pub ledger_ok: bool,
        /// Key releases over the §II-B4 escrow path.
        pub escrow_transfers: u64,
        /// Ticks executed.
        pub ticks: u64,
        /// Order-sensitive digest of every delivered frame (hex).
        pub fingerprint: String,
        /// Same-seed rerun was the same run.
        pub deterministic: bool,
        /// Every safety oracle passed (`SwarmReport::ok`) + determinism.
        pub safe: bool,
    }
}

tchain_obs::json_struct! {
    /// The persisted document.
    #[derive(Debug)]
    pub struct NetScaleDoc {
        /// Master seed of the sweep.
        pub seed: u64,
        /// Audited (N, churn) cells.
        pub points: Vec<ScalePoint>,
        /// Every cell preserved every safety property.
        pub all_safe: bool,
    }
}

/// A churn schedule proportional to swarm size: N/8 staggered joins
/// early, an N/8 flash crowd mid-run, and 15 % of the compliant peers
/// departing voluntarily once the swarm is warm.
fn churn_for(peers: u32) -> ChurnPlan {
    let wave = (peers / 8).max(2);
    ChurnPlan::none()
        .with_joins(10.0, wave, 2.0)
        .with_flash_crowd(30.0, wave)
        .with_departures(55.0, 0.15)
}

/// The `(N, churn)` cell's label.
fn label(&(peers, churn): &(u32, bool)) -> String {
    format!("n{peers}{}", if churn { "-churn" } else { "" })
}

fn scale_point(cell: &(u32, bool), report: &SwarmReport, deterministic: bool) -> ScalePoint {
    ScalePoint {
        scenario: label(cell),
        peers: cell.0,
        churn: cell.1,
        churn_joins: report.churn_joins,
        churn_departs: report.churn_departs,
        completed_compliant: report.completed_compliant,
        total_compliant: report.total_compliant,
        plaintext_ok: report.plaintext_ok,
        violations: report.violations.len(),
        ledger_ok: report.ledger_ok,
        escrow_transfers: report.escrow_transfers,
        ticks: report.ticks,
        fingerprint: format!("{:016x}", report.fingerprint),
        deterministic,
        safe: report.ok() && deterministic,
    }
}

/// The canonical master seed: the committed documents are run at it.
pub const SEED: u64 = 0x5CA1E;

/// Runs the scale sweep under `seed` (the CI job uses two so a fluke
/// seed cannot hide a scheduler divergence).
pub fn run(scale: Scale, seed: u64) -> NetScaleDoc {
    let (pieces, piece_len, sizes): (usize, usize, &[u32]) = match scale {
        Scale::Quick => (8, 256, &[16, 64, 256]),
        Scale::Paper => (16, 1024, &[16, 64, 256]),
    };
    let base = SwarmConfig {
        pieces,
        piece_len,
        seed,
        max_ticks: 40_000,
        ..SwarmConfig::default()
    };
    let cells: Vec<(u32, bool)> = sizes.iter().flat_map(|&n| [(n, false), (n, true)]).collect();
    let mut meta = RunMeta::default();
    let runs = sweep_scenarios("net_scale", &mut meta, &cells, seed, label, |&(peers, churn)| {
        let churn = if churn { churn_for(peers) } else { ChurnPlan::none() };
        audited_run(&SwarmConfig { peers, churn, ..base.clone() })
    });
    let points: Vec<ScalePoint> =
        runs.iter().map(|(cell, (report, det))| scale_point(cell, report, *det)).collect();
    let all_safe = all_safe(&meta, points.iter().map(|p| p.safe));
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scenario.clone(),
                format!("{}/{}", p.completed_compliant, p.total_compliant),
                format!("{}+{}−{}", p.peers, p.churn_joins, p.churn_departs),
                p.violations.to_string(),
                if p.ledger_ok { "ok" } else { "DRIFT" }.to_string(),
                p.escrow_transfers.to_string(),
                p.ticks.to_string(),
                if p.deterministic { "yes" } else { "NO" }.to_string(),
                if p.safe { "ok" } else { "UNSAFE" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "net_scale: swarm size × churn (indexed scheduler, audited)",
        &[
            "scenario", "compliant", "peers±churn", "violations", "ledger", "escrow",
            "ticks", "deterministic", "safety",
        ],
        &rows,
    );
    println!("net_scale seed {seed:#x}: {} cells, all_safe = {all_safe}", points.len());
    let doc = NetScaleDoc { seed, points, all_safe };
    persist("net_scale", scale.name(), &doc, &meta);
    doc
}
