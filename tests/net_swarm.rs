//! PR 4 acceptance: the executable `tchain-net` runtime at ≥16 peers.
//!
//! Everything here runs real encrypted exchanges over the deterministic
//! channel mesh: genuine ChaCha20 ciphertexts on the wire, keys released
//! only against reception reports (§II-B), every frame audited by the
//! harness observer.

use tchain::attacks::{FluidDriver, PeerPlan};
use tchain::core::{TChainConfig, TChainSwarm};
use tchain::net::{run_swarm, NetConfig, Strategy, SwarmConfig};
use tchain::proto::FileSpec;
use tchain::sim::kbps;

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
    assert_eq!(a.fingerprint, b.fingerprint, "frame-stream digest");
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.completion_times, b.completion_times);
    assert_eq!(a.peer_counters, b.peer_counters);
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
        net: NetConfig { depart_on_complete: true, ..NetConfig::default() },
        ..base16()
    };
    let report = run_swarm(cfg).expect("run");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        report.escrow_transfers > 0,
        "mass departures must exercise the §II-B4 escrow path"
    );
}

/// Sim-vs-net cross-check. The fluid simulator and the net runtime share
/// protocol semantics but not clocks or piece scheduling, so the
/// comparison is exact only where the incentive argument is exact —
/// compliant completion and free-rider starvation — and shape-level for
/// chain statistics: the net/fluid mean-chain-length ratio must land in
/// [0.25, 4.0] (documented in DESIGN.md §8).
#[test]
fn net_runtime_agrees_with_fluid_simulator() {
    let net = run_swarm(base16_free_riders()).expect("run");
    assert!(net.ok(), "violations: {:?}", net.violations);

    let file = FileSpec::custom(net.pieces, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plan: Vec<PeerPlan> = (0..net.total_compliant)
        .map(|i| PeerPlan::compliant(0.4 + f64::from(i) * 0.05, kbps(800.0)))
        .collect();
    for i in 0..net.free_riders {
        plan.push(PeerPlan::free_rider(0.5 + f64::from(i) * 0.05, kbps(800.0)));
    }
    let mut sim =
        TChainSwarm::new(file, TChainConfig::default(), plan, 0x4E75);
    sim.run_until_done();

    // Hard invariants agree exactly.
    assert_eq!(
        sim.base().completion_times(true).len(),
        net.total_compliant as usize,
        "fluid sim: every compliant leecher completes"
    );
    let sim_fr_done =
        sim.base().peers.iter().filter(|p| !p.compliant && p.done_time.is_some()).count();
    assert_eq!(sim_fr_done, 0, "fluid sim starves free-riders too");
    assert_eq!(net.completed_free_riders, 0);

    // Chain statistics agree in shape.
    let sim_mcl = sim.chain_stats().mean_length();
    assert!(sim_mcl > 0.0, "fluid sim built chains");
    let ratio = net.mean_chain_len / sim_mcl;
    assert!(
        (0.25..=4.0).contains(&ratio),
        "mean chain length diverged: net {:.2} vs sim {:.2} (ratio {ratio:.2})",
        net.mean_chain_len,
        sim_mcl
    );
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
    assert_eq!(a.fingerprint, b.fingerprint, "same-seed churn rerun must be bit-identical");
    assert_eq!(a.completion_times, b.completion_times);
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
