//! net_chaos: byzantine chaos against the executable `tchain-net`
//! runtime.
//!
//! Not a paper figure — the PR 6 robustness experiment. Sweeps frame
//! corruption from 0 to 10 %, a mixed byzantine plan (corruption,
//! duplication, reordering, mid-stream resets), and crash-restart of a
//! quarter of the compliant leechers, each over the in-process channel
//! mesh with real ChaCha20 ciphertexts on the wire. Every scenario is
//! audited frame-by-frame and must preserve the T-Chain safety
//! properties: all compliant leechers assemble byte-identical files and
//! zero key releases travel without a reciprocation behind them. Each
//! scenario is also run twice at the same seed and the frame-stream
//! fingerprints compared — chaos injection must stay deterministic.

use crate::output::{persist, print_table, RunMeta};
use crate::scale::Scale;
use std::time::Instant;
use tchain_net::{run_swarm, SwarmConfig};
use tchain_sim::ChaosPlan;

tchain_obs::json_struct! {
    /// One chaos scenario's audited outcome.
    #[derive(Debug)]
    pub struct ChaosPoint {
        /// Scenario label.
        pub scenario: String,
        /// Probability a frame is corrupted/duplicated/reordered/reset.
        pub chaos_rate: f64,
        /// Fraction of compliant leechers crash-restarted (0 when none).
        pub crash_fraction: f64,
        /// Peers including the seeder.
        pub peers: u32,
        /// Compliant leechers that completed.
        pub completed_compliant: u32,
        /// Compliant leechers in the scenario.
        pub total_compliant: u32,
        /// Every held piece matched the source bytes.
        pub plaintext_ok: bool,
        /// Unreciprocated key releases (must stay 0).
        pub violations: usize,
        /// Injections the chaos layer performed.
        pub chaos_injects: u64,
        /// Frames/streams receivers rejected as malformed or reset.
        pub frame_rejects: u64,
        /// Quarantines imposed by the strike policy.
        pub quarantines: u64,
        /// Abrupt crashes executed / checkpoint rejoins completed.
        pub crashes: u64,
        /// Checkpoint rejoins completed.
        pub rejoins: u64,
        /// Key releases over the §II-B4 escrow path.
        pub escrow_transfers: u64,
        /// Transport-clock seconds to drain.
        pub elapsed: f64,
        /// Ticks executed.
        pub ticks: u64,
        /// Order-sensitive digest of every delivered frame (hex).
        pub fingerprint: String,
        /// Same-seed rerun produced a bit-identical fingerprint.
        pub deterministic: bool,
        /// Completion + plaintexts + zero violations + determinism.
        pub safe: bool,
    }
}

tchain_obs::json_struct! {
    /// The persisted document.
    #[derive(Debug)]
    pub struct NetChaosDoc {
        /// Master seed of the sweep.
        pub seed: u64,
        /// Audited chaos scenarios.
        pub points: Vec<ChaosPoint>,
        /// Every scenario preserved every safety property.
        pub all_safe: bool,
    }
}

fn chaos_point(
    name: &str,
    chaos_rate: f64,
    crash_fraction: f64,
    cfg: SwarmConfig,
    meta: &mut RunMeta,
) -> ChaosPoint {
    let t = Instant::now();
    let report = run_swarm(cfg.clone()).expect("mesh transport cannot fail");
    let rerun = run_swarm(cfg).expect("mesh transport cannot fail");
    meta.note_run(t.elapsed().as_secs_f64());
    let deterministic = report.fingerprint == rerun.fingerprint
        && report.ticks == rerun.ticks
        && report.chaos_injects == rerun.chaos_injects;
    let safe = report.completed_compliant == report.total_compliant
        && report.plaintext_ok
        && report.violations.is_empty()
        && deterministic;
    ChaosPoint {
        scenario: name.to_string(),
        chaos_rate,
        crash_fraction,
        peers: report.peers,
        completed_compliant: report.completed_compliant,
        total_compliant: report.total_compliant,
        plaintext_ok: report.plaintext_ok,
        violations: report.violations.len(),
        chaos_injects: report.chaos_injects,
        frame_rejects: report.frame_rejects,
        quarantines: report.quarantines,
        crashes: report.crashes,
        rejoins: report.rejoins,
        escrow_transfers: report.escrow_transfers,
        elapsed: report.elapsed,
        ticks: report.ticks,
        fingerprint: format!("{:016x}", report.fingerprint),
        deterministic,
        safe,
    }
}

/// Runs the chaos sweep at the default seed.
pub fn run(scale: Scale) -> NetChaosDoc {
    run_with_seed(scale, 0xC405)
}

/// Runs the chaos sweep at an explicit seed (the CI acceptance job runs
/// two different seeds so a fluke seed cannot hide a safety violation).
pub fn run_with_seed(scale: Scale, seed: u64) -> NetChaosDoc {
    let (peers, pieces, piece_len) = match scale {
        Scale::Quick => (10u32, 24usize, 1024usize),
        Scale::Paper => (20u32, 48usize, 2048usize),
    };
    let base = SwarmConfig {
        peers,
        pieces,
        piece_len,
        seed,
        max_ticks: 40_000,
        ..SwarmConfig::default()
    };
    let mut meta = RunMeta::default();
    let mut points = Vec::new();
    for (i, rate) in [0.0, 0.02, 0.05, 0.10].into_iter().enumerate() {
        points.push(chaos_point(
            &format!("corrupt-{}pct", (rate * 100.0) as u32),
            rate,
            0.0,
            SwarmConfig {
                chaos: ChaosPlan::corrupting(seed ^ (0xC0 + i as u64), rate),
                ..base.clone()
            },
            &mut meta,
        ));
    }
    points.push(chaos_point(
        "byzantine-mix-8pct",
        0.08,
        0.0,
        SwarmConfig { chaos: ChaosPlan::byzantine(seed ^ 0xB12A, 0.08), ..base.clone() },
        &mut meta,
    ));
    points.push(chaos_point(
        "crash-restart-25pct",
        0.02,
        0.25,
        SwarmConfig {
            chaos: ChaosPlan::corrupting(seed ^ 0xC4A5, 0.02)
                .with_crash_restart(8.0, 0.25, 6.0),
            ..base.clone()
        },
        &mut meta,
    ));
    let all_safe = points.iter().all(|p| p.safe);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scenario.clone(),
                format!("{}/{}", p.completed_compliant, p.total_compliant),
                if p.plaintext_ok { "ok" } else { "MISMATCH" }.to_string(),
                p.violations.to_string(),
                p.chaos_injects.to_string(),
                p.frame_rejects.to_string(),
                p.quarantines.to_string(),
                format!("{}/{}", p.rejoins, p.crashes),
                if p.deterministic { "yes" } else { "NO" }.to_string(),
                if p.safe { "ok" } else { "UNSAFE" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "net_chaos: byzantine injection + crash-restart (channel mesh, audited)",
        &[
            "scenario", "compliant", "plaintext", "violations", "injects", "rejects",
            "quarantines", "rejoin/crash", "deterministic", "safety",
        ],
        &rows,
    );
    println!(
        "net_chaos seed {seed:#x}: {} scenarios, all_safe = {all_safe}",
        points.len()
    );
    let doc = NetChaosDoc { seed, points, all_safe };
    persist("net_chaos", scale.name(), &doc, &meta);
    doc
}
