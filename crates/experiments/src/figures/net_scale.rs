//! net_scale: the indexed scheduler and churn layer at N ∈ {16, 64, 256}.
//!
//! Not a paper figure — the PR 8 scale experiment. Sweeps swarm size
//! with and without a membership churn schedule (staggered joins, a
//! flash crowd, a voluntary §II-B4 departure wave, all proportional to
//! N), audits every frame, and reruns each point at the same seed to
//! pin bit-identity. At N = 64 the sweep additionally replays the
//! no-churn point under the legacy linear-scan scheduler and demands a
//! byte-identical frame-stream fingerprint — the in-tree parity oracle
//! for the timer-wheel rewrite — and records the wall-clock speedup of
//! the indexed path at every N as the scan cost grows quadratic.

use crate::output::{persist, print_table, RunMeta};
use crate::scale::Scale;
use std::time::Instant;
use tchain_net::{run_swarm, SchedMode, SwarmConfig};
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
        /// Wall-clock seconds for the audited indexed run.
        pub wall_s: f64,
        /// Harness ticks per wall-clock second (indexed scheduler).
        pub ticks_per_s: f64,
        /// Order-sensitive digest of every delivered frame (hex).
        pub fingerprint: String,
        /// Same-seed rerun produced a bit-identical fingerprint.
        pub deterministic: bool,
        /// Legacy linear-scan wall-clock seconds (parity cells only).
        pub legacy_wall_s: Option<f64>,
        /// Indexed fingerprint == legacy fingerprint (parity cells only).
        pub legacy_parity: Option<bool>,
        /// Completion + plaintexts + ledger + zero violations + determinism
        /// (+ parity where measured).
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

fn scale_point(
    peers: u32,
    churn: bool,
    with_legacy: bool,
    base: &SwarmConfig,
    meta: &mut RunMeta,
) -> ScalePoint {
    let cfg = SwarmConfig {
        peers,
        churn: if churn { churn_for(peers) } else { ChurnPlan::none() },
        ..base.clone()
    };
    let t = Instant::now();
    let report = run_swarm(cfg.clone()).expect("mesh transport cannot fail");
    let wall_s = t.elapsed().as_secs_f64();
    let rerun = run_swarm(cfg.clone()).expect("mesh transport cannot fail");
    meta.note_run(wall_s);
    let deterministic = report.fingerprint == rerun.fingerprint
        && report.ticks == rerun.ticks
        && report.completion_times == rerun.completion_times;

    let (legacy_wall_s, legacy_parity) = if with_legacy {
        let t = Instant::now();
        let legacy = run_swarm(SwarmConfig { sched: SchedMode::LegacyLinear, ..cfg })
            .expect("mesh transport cannot fail");
        let lw = t.elapsed().as_secs_f64();
        meta.note_run(lw);
        (Some(lw), Some(legacy.fingerprint == report.fingerprint && legacy.ticks == report.ticks))
    } else {
        (None, None)
    };

    let safe = report.completed_compliant == report.total_compliant
        && report.plaintext_ok
        && report.violations.is_empty()
        && report.ledger_ok
        && deterministic
        && legacy_parity.unwrap_or(true);
    ScalePoint {
        scenario: format!("n{peers}{}", if churn { "-churn" } else { "" }),
        peers,
        churn,
        churn_joins: report.churn_joins,
        churn_departs: report.churn_departs,
        completed_compliant: report.completed_compliant,
        total_compliant: report.total_compliant,
        plaintext_ok: report.plaintext_ok,
        violations: report.violations.len(),
        ledger_ok: report.ledger_ok,
        escrow_transfers: report.escrow_transfers,
        ticks: report.ticks,
        wall_s,
        ticks_per_s: report.ticks as f64 / wall_s.max(1e-9),
        fingerprint: format!("{:016x}", report.fingerprint),
        deterministic,
        legacy_wall_s,
        legacy_parity,
        safe,
    }
}

/// Runs the scale sweep at the default seed.
pub fn run(scale: Scale) -> NetScaleDoc {
    run_with_seed(scale, 0x5CA1E)
}

/// Runs the scale sweep at an explicit seed (the CI job uses two so a
/// fluke seed cannot hide a scheduler divergence).
pub fn run_with_seed(scale: Scale, seed: u64) -> NetScaleDoc {
    let (pieces, piece_len, sizes): (usize, usize, &[u32]) = match scale {
        Scale::Quick => (8, 256, &[16, 64, 256]),
        Scale::Paper => (16, 1024, &[16, 64, 256]),
    };
    let base = SwarmConfig {
        pieces,
        piece_len,
        seed,
        max_ticks: 40_000,
        trace_capacity: 0,
        ..SwarmConfig::default()
    };
    let mut meta = RunMeta::default();
    let mut points = Vec::new();
    for &n in sizes {
        // Legacy parity oracle at N = 64: big enough that a scheduling
        // divergence cannot hide, cheap enough to run the O(N·ticks)
        // scan twice per sweep.
        let with_legacy = n == 64;
        points.push(scale_point(n, false, with_legacy, &base, &mut meta));
        points.push(scale_point(n, true, false, &base, &mut meta));
    }
    let all_safe = points.iter().all(|p| p.safe);
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
                format!("{:.0}", p.ticks_per_s),
                match p.legacy_parity {
                    Some(true) => "bit-equal".to_string(),
                    Some(false) => "DIVERGED".to_string(),
                    None => "-".to_string(),
                },
                if p.deterministic { "yes" } else { "NO" }.to_string(),
                if p.safe { "ok" } else { "UNSAFE" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "net_scale: swarm size × churn (indexed scheduler, audited)",
        &[
            "scenario", "compliant", "peers±churn", "violations", "ledger", "escrow",
            "ticks/s", "legacy", "deterministic", "safety",
        ],
        &rows,
    );
    println!("net_scale seed {seed:#x}: {} cells, all_safe = {all_safe}", points.len());
    let doc = NetScaleDoc { seed, points, all_safe };
    persist("net_scale", scale.name(), &doc, &meta);
    doc
}
