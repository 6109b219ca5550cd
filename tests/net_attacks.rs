//! PR 9 acceptance: the adversary engine on the wire.
//!
//! §IV-C on a 32-peer swarm with 25 % aggressive free-riders
//! (large-view tracker hammering + whitewash identity resets): the
//! free-rider completion ratio matches the fluid-sim attack driver
//! (both starve), compliant completion is unaffected, and same-seed
//! reruns are bit-identical. §IV-D collusion: every false report is
//! detected and attributed by the observer ledger and the colluders'
//! net gain stays bounded. §III-A4: the observed Sybil
//! requestor-payee collision rate agrees with the closed form in
//! `tchain::analysis` at shape level.

use tchain::analysis::collusion::{ps_exact, ps_monte_carlo};
use tchain::attacks::{FreeRiderConfig, GroupId, Strategy};
use tchain::experiments::figures::net_swarm::cross_check;
use tchain::net::{run_swarm, SwarmConfig};

/// The §IV-C acceptance shape: 32 peers, a quarter of them aggressive.
fn aggressive32() -> SwarmConfig {
    SwarmConfig {
        peers: 32,
        pieces: 24,
        piece_len: 1024,
        seed: 0xA77C,
        max_ticks: 8000,
        strategies: (24..32).map(|id| (id, Strategy::aggressive_free_rider())).collect(),
        ..SwarmConfig::default()
    }
}

#[test]
fn aggressive_quarter_starves_on_the_wire_and_matches_the_fluid_driver() {
    let net = run_swarm(aggressive32()).expect("mesh transport");
    assert!(net.violations.is_empty(), "violations: {:?}", net.violations);
    assert!(net.plaintext_ok && net.ledger_ok);
    assert_eq!(
        net.completed_compliant, net.total_compliant,
        "compliant completion unaffected by 25% aggressive free-riders"
    );
    assert_eq!(net.completed_free_riders, 0, "aggressive free-riders starve");
    assert!(
        net.tracker_queries > u64::from(net.peers),
        "large-view re-queries must hammer the tracker: {} queries",
        net.tracker_queries
    );
    assert!(net.whitewash_rejoins > 0, "patience must run out at least once");

    // Fluid-sim attack driver on the same scenario shape: the §IV-C
    // free-rider completion ratio must agree (both zero) and every
    // compliant leecher completes in both stacks.
    let cross = cross_check(&net, 0xA77C);
    assert_eq!(cross.sim_compliant_rate, 1.0, "fluid sim: every compliant leecher completes");
    assert_eq!(
        (cross.net_free_riders_done, cross.sim_free_riders_done),
        (0, 0),
        "free-rider completion ratio agrees across the stacks"
    );
    assert!(cross.within_tolerance, "{cross:?}");
}

#[test]
fn aggressive_runs_are_bit_identical_under_one_seed() {
    let a = run_swarm(aggressive32()).expect("run a");
    let b = run_swarm(aggressive32()).expect("run b");
    assert!(a.same_run(&b), "a same-seed rerun is the same run");
}

#[test]
fn collusion_ring_gain_is_bounded_and_fully_attributed() {
    let ring = 28u32..32;
    let cfg = SwarmConfig {
        strategies: ring
            .clone()
            .map(|id| (id, Strategy::colluding_free_rider(GroupId(0))))
            .collect(),
        ..aggressive32()
    };
    let report = run_swarm(cfg).expect("mesh transport");
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.ledger_ok);
    assert_eq!(report.completed_compliant, report.total_compliant);
    assert!(report.false_reports > 0, "a 4-ring among 32 peers must collide");
    assert_eq!(
        report.false_report_log.len() as u64,
        report.false_reports,
        "every detected false report carries an attribution"
    );
    // Whitewash rebirths mint ids >= 32 that also belong to the ring;
    // no boot compliant peer (id < 28) may ever be implicated.
    for &(reporter, donor, requestor, _) in &report.false_report_log {
        assert!(reporter >= 28, "reporter {reporter} must be in the ring");
        assert!(requestor >= 28, "requestor {requestor} must be in the ring");
        assert!(donor < 28, "forged reports target compliant donors, got {donor}");
    }
    assert!(report.colluder_gain > 0, "false reports must unlock keys");
    assert!(
        report.colluder_gain <= report.false_reports,
        "§IV-D: at most one key release per forged report ({} gain, {} reports)",
        report.colluder_gain,
        report.false_reports
    );
}

/// §III-A4 regression, wire vs closed form. A collude-only ring (no
/// whitewash, no large view) keeps `(m, N)` constant; the observed
/// conditional collision rate — of uploads whose requestor sits in the
/// ring, the fraction whose designated payee does too — is compared to
/// `(m−1)/(N−1)`. The wire assigns payees from §II-D2 pending ledgers
/// rather than uniform draws, and ring members never clear their
/// debts, so the wire rate sits *above* the uniform baseline but well
/// within one order of magnitude.
#[test]
fn sybil_collision_rate_tracks_the_closed_form() {
    let (peers, ring) = (32u32, 8u32);
    let collude_only = Strategy::FreeRider(FreeRiderConfig {
        collude: Some(GroupId(0)),
        ..FreeRiderConfig::default()
    });
    let cfg = SwarmConfig {
        strategies: (peers - ring..peers).map(|id| (id, collude_only)).collect(),
        ..aggressive32()
    };
    let report = run_swarm(cfg).expect("mesh transport");
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.sybil_checks > 0, "ring requestors must draw designated-payee uploads");
    let measured = report.sybil_collisions as f64 / report.sybil_checks as f64;
    let conditional = f64::from(ring - 1) / f64::from(peers - 1);
    let ratio = measured / conditional;
    assert!(
        (0.25..=5.0).contains(&ratio),
        "wire collision rate {measured:.3} diverged from closed form {conditional:.3} \
         (ratio {ratio:.2})"
    );

    // The closed forms agree among themselves: the exact hypergeometric
    // expectation matches a Monte-Carlo of the §III-A4 process, and the
    // unconditional probability factors as P(requestor in S) times the
    // conditional rate.
    let exact = ps_exact(peers as usize, ring as usize, 8);
    let mc = ps_monte_carlo(peers as usize, ring as usize, 8, 200_000, 0xA77C);
    assert!((exact - mc).abs() < 0.01, "exact {exact} vs monte-carlo {mc}");
    let factored = f64::from(ring) / f64::from(peers) * conditional;
    assert!((exact - factored).abs() < 1e-12, "m(m-1)/(N(N-1)) factorisation");
}
