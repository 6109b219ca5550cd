//! PR 4 acceptance: the executable `tchain-net` runtime at ≥16 peers.
//!
//! Everything here runs real encrypted exchanges over the deterministic
//! channel mesh: genuine ChaCha20 ciphertexts on the wire, keys released
//! only against reception reports (§II-B), every frame audited by the
//! harness observer.

use tchain::experiments::figures::net_swarm::{all_safe, audited_run, cross_check};
use tchain::experiments::{sweep_points, take_failures, RunMeta};
use tchain::net::{run_swarm, NetConfig, Strategy, SwarmConfig};

fn base16() -> SwarmConfig {
    SwarmConfig { peers: 16, seed: 0x4E75, ..SwarmConfig::default() }
}

/// `base16` with its two highest ids as zero-upload free-riders.
fn base16_free_riders() -> SwarmConfig {
    SwarmConfig {
        strategies: vec![(14, Strategy::zero_upload()), (15, Strategy::zero_upload())],
        ..base16()
    }
}

#[test]
fn sixteen_peer_swarm_completes_with_exact_plaintexts() {
    let report = run_swarm(base16()).expect("mesh transport");
    assert_eq!(
        report.completed_compliant, report.total_compliant,
        "every compliant leecher completes"
    );
    assert!(report.plaintext_ok, "every decrypted piece is byte-identical to the source");
    assert!(
        report.violations.is_empty(),
        "zero unreciprocated key releases: {:?}",
        report.violations
    );
    assert!(report.uploads > 0 && report.key_releases > 0);
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = run_swarm(base16()).expect("run a");
    let b = run_swarm(base16()).expect("run b");
    assert!(a.same_run(&b), "a same-seed rerun is the same run");
}

#[test]
fn free_riders_starve_at_scale() {
    let report = run_swarm(base16_free_riders()).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.completed_free_riders, 0, "free-riders never assemble the file");
}

#[test]
fn departure_escrow_holds_at_scale() {
    let cfg = SwarmConfig {
        net: NetConfig { depart_on_complete: true },
        ..base16()
    };
    let report = run_swarm(cfg).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        report.escrow_transfers > 0,
        "mass departures must exercise the §II-B4 escrow path"
    );
}

/// Sim-vs-net cross-check (`net_swarm::cross_check`, the one the
/// experiments persist). The fluid simulator and the net runtime share
/// protocol semantics but not clocks or piece scheduling, so the
/// comparison is exact only where the incentive argument is exact —
/// compliant completion and free-rider starvation — and shape-level for
/// chain statistics: the net/fluid mean-chain-length ratio must land in
/// [0.25, 4.0] (documented in DESIGN.md §8).
#[test]
fn net_runtime_agrees_with_fluid_simulator() {
    let net = run_swarm(base16_free_riders()).expect("run");
    assert!(net.ok(), "violations: {:?}", net.violations);
    assert_eq!(net.completed_free_riders, 0);

    let cross = cross_check(&net, 0x4E75);
    // Hard invariants agree exactly.
    assert_eq!(cross.sim_compliant_rate, 1.0, "fluid sim: every compliant leecher completes");
    assert_eq!(cross.sim_free_riders_done, 0, "fluid sim starves free-riders too");
    // Chain statistics agree in shape.
    assert!(cross.sim_mean_chain_len > 0.0, "fluid sim built chains");
    assert!(
        (0.25..=4.0).contains(&cross.chain_len_ratio),
        "mean chain length diverged: {cross:?}"
    );
    assert!(cross.within_tolerance, "{cross:?}");
}

/// A net experiment's cell that panics — `SwarmHarness::new` refuses a
/// one-peer swarm — does not abort the sweep: it lands in
/// `meta.failed_cells`, books no run, and fails the experiment's verdict.
#[test]
fn a_panicking_wire_cell_fails_its_experiment() {
    let cfgs = [SwarmConfig { peers: 1, ..base16() }, base16()];
    let mut meta = RunMeta::default();
    let runs = sweep_points(
        "net-panic",
        &mut meta,
        &cfgs,
        |cfg| vec![cfg.seed],
        |cfg| format!("{} peers", cfg.peers),
        |cfg, _| audited_run(cfg),
    );
    take_failures();
    assert_eq!(meta.failed_cells.len(), 1, "{:?}", meta.failed_cells);
    let failed = &meta.failed_cells[0];
    assert_eq!((failed.scenario.as_str(), failed.seed), ("1 peers", 0x4E75));
    assert!(failed.panic.contains("a swarm needs a seeder and a leecher"), "{failed:?}");
    assert_eq!(meta.runs, 1, "the failed cell books no run");
    assert!(runs[0].is_empty());
    let booked: Vec<bool> = runs[1].iter().map(|(r, det)| r.ok() && *det).collect();
    assert_eq!(booked, [true], "the healthy cell is booked, safe and deterministic");
    assert!(!all_safe(&meta, booked.into_iter()), "a failed cell makes the experiment unsafe");
}

// ---------------------------------------------------------------------
// Scale & churn (indexed scheduler, ChurnPlan membership). That the
// timer wheel reproduces an every-peer scan frame for frame, at 64
// peers among other rows, is `tchain-net`'s lib test
// `schedulers_agree_on_every_membership_path`.
// ---------------------------------------------------------------------

use tchain::sim::ChurnPlan;

/// 64 peers under full churn — staggered joins, a flash crowd and a
/// departure wave — still drain with zero unreciprocated key releases,
/// a consistent §II-D2 ledger on every survivor, and a bit-identical
/// rerun under the same seed.
#[test]
fn sixty_four_peer_churning_swarm_holds_invariants_and_determinism() {
    let cfg = || SwarmConfig {
        peers: 64,
        pieces: 12,
        piece_len: 256,
        seed: 0xC402464,
        churn: ChurnPlan::none()
            .with_joins(10.0, 6, 2.0)
            .with_flash_crowd(30.0, 12)
            .with_departures(50.0, 0.2),
        ..SwarmConfig::default()
    };
    let a = run_swarm(cfg()).expect("run a");
    assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
    assert!(a.plaintext_ok && a.ledger_ok);
    assert_eq!(a.churn_joins, 18, "6 staggered + 12 flash-crowd arrivals");
    assert!(a.churn_departs > 0);
    assert_eq!(a.completed_compliant, a.total_compliant);
    let b = run_swarm(cfg()).expect("run b");
    assert!(a.same_run(&b), "a same-seed churn rerun must be the same run");
}

/// PR 8 acceptance: a 256-peer churning swarm completes with zero
/// unreciprocated key releases. Heavier than the rest of the suite, so
/// pieces stay small; the `net_scale` experiment runs the full-size
/// version.
#[test]
fn two_hundred_fifty_six_peer_churning_swarm_completes() {
    let report = run_swarm(SwarmConfig {
        peers: 256,
        pieces: 8,
        piece_len: 128,
        seed: 0x5CA1E256,
        max_ticks: 20_000,
        churn: ChurnPlan::none().with_flash_crowd(20.0, 32).with_departures(60.0, 0.15),
        ..SwarmConfig::default()
    })
    .expect("mesh transport");
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.plaintext_ok && report.ledger_ok);
    assert_eq!(report.churn_joins, 32);
    assert!(report.churn_departs > 0);
    assert_eq!(
        report.completed_compliant, report.total_compliant,
        "every surviving compliant leecher completes at N=256"
    );
}
