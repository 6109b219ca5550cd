//! PR 6 acceptance: byzantine chaos against the executable net runtime.
//!
//! Corruption rates from 0 to 10 %, a byzantine mix of the full fault
//! taxonomy, and a crash-restart of 25 % of the compliant leechers must
//! all leave the T-Chain safety properties intact: every compliant
//! leecher assembles a byte-identical file, zero key releases travel
//! without a reciprocation behind them, and same-seed chaos runs stay
//! bit-identical.

use tchain::net::{canary_armed, run_swarm, scenario_config, scenarios, SwarmConfig, SwarmReport};
use tchain_obs::OracleKind;
use tchain::sim::{ChaosPlan, FaultPlan, LatencyModel};

fn chaotic(chaos: ChaosPlan) -> SwarmConfig {
    SwarmConfig { peers: 10, seed: 0xC405, chaos, max_ticks: 20_000, ..SwarmConfig::default() }
}

/// A 24-peer swarm whose mesh applies every per-link rule at once:
/// a latency model (so the per-link FIFO floor binds), 2 % control
/// loss, reordering past the floor and duplication.
fn latent(seed: u64, latency: LatencyModel) -> SwarmConfig {
    SwarmConfig {
        peers: 24,
        pieces: 12,
        seed,
        plan: FaultPlan::lossy(seed ^ 0x1A7, 0.02).with_latency(latency),
        chaos: ChaosPlan {
            seed: seed ^ 0xC4,
            reorder_prob: 0.03,
            duplicate_prob: 0.02,
            ..ChaosPlan::none()
        },
        ..SwarmConfig::default()
    }
}

fn check_latency_pins(latency: LatencyModel, pins: [(u64, u64); 3]) {
    for (seed, (fingerprint, ticks)) in (1..=3).zip(pins) {
        let report = run_swarm(latent(seed, latency)).expect("mesh transport");
        assert_eq!((report.completed_compliant, report.total_compliant), (23, 23), "seed {seed}");
        assert!(report.violations.is_empty(), "seed {seed}: {:?}", report.violations);
        assert!(report.plaintext_ok, "seed {seed}");
        assert_eq!(
            (report.fingerprint, report.ticks),
            (fingerprint, ticks),
            "{latency:?} seed {seed}: the mesh delivered a different schedule"
        );
    }
}

// Pinned delivery schedules under each latency model: any change to the
// mesh's delivery order, its per-link floors or its loss/chaos draws
// moves these fingerprints.

#[test]
fn latency_pins_uniform() {
    check_latency_pins(
        LatencyModel::Uniform { lo: 0.0, hi: 3.0 },
        [(0x35d5_002d_05a1_635f, 247), (0x4ad9_20b4_8507_0c00, 155), (0xba9e_80ab_3c37_225d, 169)],
    );
}

#[test]
fn latency_pins_exp() {
    check_latency_pins(
        LatencyModel::Exp { mean: 1.5 },
        [(0xfce5_0c57_350f_622b, 243), (0xfda5_b8fd_a73d_8f20, 206), (0xa287_7f00_15bc_6d63, 269)],
    );
}

#[test]
fn latency_pins_fixed() {
    check_latency_pins(
        LatencyModel::Fixed(2.0),
        [(0x40d1_32b4_8a50_6e83, 198), (0x75a6_388f_22ad_f170, 196), (0xeb75_f0e2_5b40_9217, 224)],
    );
}

#[test]
fn corruption_sweep_zero_to_ten_percent_preserves_safety() {
    for (i, rate) in [0.0, 0.02, 0.05, 0.10].into_iter().enumerate() {
        let cfg = chaotic(ChaosPlan::corrupting(31 + i as u64, rate));
        let report = run_swarm(cfg).expect("mesh transport");
        assert_eq!(
            report.completed_compliant, report.total_compliant,
            "all compliant leechers complete at corruption {rate}"
        );
        assert!(report.plaintext_ok, "byte-identical plaintexts at corruption {rate}");
        assert!(
            report.violations.is_empty(),
            "zero unreciprocated key releases at corruption {rate}: {:?}",
            report.violations
        );
        if rate > 0.0 {
            assert!(report.chaos_injects > 0, "corruption {rate} must actually inject");
            assert!(report.frame_rejects > 0, "corruption must surface as typed rejects");
        } else {
            assert_eq!(report.chaos_injects, 0, "rate 0 must be the untouched fast path");
        }
    }
}

#[test]
fn byzantine_mix_preserves_safety() {
    let report = run_swarm(chaotic(ChaosPlan::byzantine(7, 0.08))).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.chaos_injects > 0);
}

#[test]
fn quarter_crash_restart_rejoins_and_completes() {
    let chaos = ChaosPlan::corrupting(11, 0.02).with_crash_restart(8.0, 0.25, 6.0);
    let report = run_swarm(chaotic(chaos)).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.crashes > 0, "the crash event must fire");
    assert_eq!(report.rejoins, report.crashes, "every crashed peer rejoins");
    assert!(report.plaintext_ok, "restarted peers keep byte-identical plaintexts");
}

#[test]
fn same_seed_chaos_runs_are_bit_identical() {
    let mk = || chaotic(ChaosPlan::byzantine(3, 0.06).with_crash_restart(8.0, 0.25, 6.0));
    let a = run_swarm(mk()).expect("run a");
    let b = run_swarm(mk()).expect("run b");
    assert!(a.crashes > 0 && a.chaos_injects > 0, "the rerun must cover chaos and crashes");
    assert!(a.same_run(&b), "a same-seed chaos rerun is the same run");
}

#[test]
fn quarantines_are_bounded_and_do_not_starve_the_swarm() {
    // Strikes punish apparent offenders, but under injected chaos every
    // "offender" is innocent — the policy must tolerate false positives
    // without losing liveness. Completion under sustained 8 % corruption
    // with quarantines firing is exactly that bound.
    let report = run_swarm(chaotic(ChaosPlan::corrupting(5, 0.08))).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.quarantines > 0, "8 % corruption should trip the strike limit");
}

/// The report's field-level view of each end-of-run safety oracle.
fn oracles_from_fields(r: &SwarmReport) -> Vec<OracleKind> {
    [
        (!r.violations.is_empty(), OracleKind::KeyRelease),
        (!r.ledger_ok, OracleKind::Ledger),
        (!r.plaintext_ok, OracleKind::Plaintext),
        (
            r.completed_compliant != r.total_compliant,
            OracleKind::Completion,
        ),
        (
            r.quarantines > 0 && r.frame_rejects == 0,
            OracleKind::Quarantine,
        ),
    ]
    .into_iter()
    .filter_map(|(failed, oracle)| failed.then_some(oracle))
    .collect()
}

#[test]
fn one_verdict_per_run() {
    // Every schedule-exploration scenario at its default interleaving,
    // plus the two hardest cells of the `net_chaos` quick sweep at its
    // CI seed: `ok()` is exactly "no safety oracle failed", and every
    // oracle agrees with the report field it reads.
    let seed = 0xC405;
    let quick = SwarmConfig {
        peers: 10,
        pieces: 24,
        seed,
        max_ticks: 40_000,
        ..SwarmConfig::default()
    };
    let mut runs: Vec<(String, SwarmConfig)> = scenarios()
        .iter()
        .map(|name| {
            (
                name.to_string(),
                scenario_config(name, seed).expect("known scenario"),
            )
        })
        .collect();
    runs.push((
        "byzantine-mix-8pct".into(),
        SwarmConfig {
            chaos: ChaosPlan::byzantine(seed ^ 0xB12A, 0.08),
            ..quick.clone()
        },
    ));
    runs.push((
        "crash-restart-25pct".into(),
        SwarmConfig {
            chaos: ChaosPlan::corrupting(seed ^ 0xC4A5, 0.02).with_crash_restart(8.0, 0.25, 6.0),
            ..quick
        },
    ));
    for (name, cfg) in runs {
        let r = run_swarm(cfg).expect("mesh transport");
        assert_eq!(r.failed_oracles, oracles_from_fields(&r), "{name}");
        assert_eq!(r.ok(), r.failed_oracles.is_empty(), "{name}");
        // The canary build seeds a ledger bug the crash scenario must find.
        assert!(
            r.ok() || canary_armed(),
            "{name}: {:?} {:?}",
            r.failed_oracles,
            r.violations
        );
    }
}
