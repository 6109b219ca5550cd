//! Full-stack determinism: identical seeds must reproduce identical runs
//! — the property every §IV mean-and-CI plot rests on.

use tchain_experiments::{flash_plan, run_proto, trace_plan, Horizon, Proto, RiderMode, RunOpts};
use tchain_sim::FaultPlan;

fn fingerprint(out: &tchain_experiments::RunOutcome) -> (usize, usize, u64, u64) {
    let sum: f64 = out.compliant_times.iter().sum();
    let fr_sum: f64 = out.free_rider_times.iter().sum();
    (out.compliant_times.len(), out.free_rider_times.len(), sum.to_bits(), fr_sum.to_bits())
}

#[test]
fn same_seed_bitwise_identical_tchain() {
    let mk = || {
        let plan = flash_plan(20, 0.25, RiderMode::Colluding, 9);
        run_proto(Proto::TChain, 1.0, plan, 9, Horizon::ExtendForFreeRiders(2000.0), RunOpts::default())
    };
    assert_eq!(fingerprint(&mk()), fingerprint(&mk()));
}

#[test]
fn same_seed_bitwise_identical_baselines() {
    for b in tchain_baselines::Baseline::all() {
        // 4 MiB, not 1: PropShare needs several contributors per window
        // before an unordered contributor list shows in the outcome.
        let mk = || {
            let plan = trace_plan(25, 0.2, RiderMode::Aggressive, 11);
            run_proto(
                Proto::Baseline(b),
                4.0,
                plan,
                11,
                Horizon::Fixed(600.0),
                RunOpts::default(),
            )
        };
        assert!(mk().deterministic_eq(&mk()), "{b}");
    }
}

/// Same seed + same non-trivial [`FaultPlan`] → identical runs, including
/// identical recovery tallies. The fault layer draws from its own seeded
/// RNG stream, so everything it injects replays exactly.
#[test]
fn same_seed_same_fault_plan_bitwise_identical() {
    for proto in [Proto::TChain, Proto::Baseline(tchain_baselines::Baseline::FairTorrent)] {
        let mk = || {
            let mut plan = flash_plan(20, 0.2, RiderMode::Aggressive, 13);
            // Two compliant leechers crash mid-download; by 40 s the
            // flash crowd has drained and a crash would find no victim.
            for i in [3, 11] {
                plan[i] = plan[i].crashing_at(12.0);
            }
            let opts = RunOpts { faults: FaultPlan::lossy(13, 0.15), ..RunOpts::default() };
            run_proto(proto, 1.0, plan, 13, Horizon::Fixed(1500.0), opts)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(fingerprint(&a), fingerprint(&b), "{proto}");
        assert_eq!(a.recovery, b.recovery, "{proto}: recovery counters must replay");
        assert!(a.recovery.ctrl_dropped > 0, "{proto}: 15% loss must drop something");
        assert_eq!(a.recovery.crashes, 2, "{proto}: both planned crashes fired");
    }
}

/// The zero-cost default: a plan that injects nothing is *bit-identical*
/// to the default fault-free run whatever its seed, and the recovery
/// counters stay all-zero.
#[test]
fn none_plan_matches_fault_free_run_exactly() {
    for proto in [Proto::TChain, Proto::Baseline(tchain_baselines::Baseline::BitTorrent)] {
        let run = |opts| {
            let plan = flash_plan(20, 0.25, RiderMode::Colluding, 9);
            run_proto(proto, 1.0, plan, 9, Horizon::ExtendForFreeRiders(2000.0), opts)
        };
        let plain = run(RunOpts::default());
        let inert = FaultPlan { seed: 0xDEAD, ..FaultPlan::none() };
        let gated = run(RunOpts { faults: inert, ..RunOpts::default() });
        assert_eq!(fingerprint(&plain), fingerprint(&gated), "{proto}");
        assert_eq!(plain.uplink_utilization.to_bits(), gated.uplink_utilization.to_bits());
        assert_eq!(gated.recovery.ctrl_dropped, 0, "{proto}: none-plan drops nothing");
        assert_eq!(gated.recovery.retransmissions, 0, "{proto}: none-plan never retries");
        assert_eq!(gated.recovery.crashes, 0, "{proto}: none-plan crashes nobody");
    }
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let plan = flash_plan(20, 0.0, RiderMode::Aggressive, seed);
        run_proto(Proto::TChain, 1.0, plan, seed, Horizon::CompliantDone, RunOpts::default())
    };
    assert_ne!(fingerprint(&mk(1)), fingerprint(&mk(2)));
}
