//! Cross-crate integration: the same workload through every protocol
//! driver, checking the paper's headline orderings end to end.

use tchain_baselines::Baseline;
use tchain_experiments::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts, RunOutcome};

#[test]
fn all_protocols_complete_a_clean_swarm() {
    let plan = flash_plan(24, 0.0, RiderMode::Aggressive, 1);
    for proto in Proto::with_random_bt() {
        let out = run_proto(proto, 2.0, plan.clone(), 1, Horizon::CompliantDone, RunOpts::default());
        assert_eq!(
            out.compliant_times.len(),
            24,
            "{proto}: every compliant leecher finishes"
        );
        assert_eq!(out.unfinished_compliant, 0, "{proto}");
        assert!(out.uplink_utilization > 0.2, "{proto}: uplink used ({})", out.uplink_utilization);
    }
}

#[test]
fn tchain_is_competitive_without_free_riders() {
    // Fig. 3's shape: T-Chain at least matches BitTorrent's completion
    // time in a clean swarm.
    let plan = flash_plan(30, 0.0, RiderMode::Aggressive, 2);
    let bt = run_proto(
        Proto::Baseline(tchain_baselines::Baseline::BitTorrent),
        2.0,
        plan.clone(),
        2,
        Horizon::CompliantDone,
        RunOpts::default(),
    );
    let tc = run_proto(Proto::TChain, 2.0, plan, 2, Horizon::CompliantDone, RunOpts::default());
    let (bt_mean, tc_mean) = (bt.mean_compliant().unwrap(), tc.mean_compliant().unwrap());
    assert!(
        tc_mean <= bt_mean * 1.25,
        "T-Chain ({tc_mean:.0}s) should be competitive with BitTorrent ({bt_mean:.0}s)"
    );
}

#[test]
fn free_riders_finish_in_baselines_but_not_tchain() {
    // The §IV-C headline, end to end.
    let plan = flash_plan(32, 0.25, RiderMode::Aggressive, 3);
    for proto in Proto::main_four() {
        let out = run_proto(
            proto,
            2.0,
            plan.clone(),
            3,
            Horizon::ExtendForFreeRiders(4000.0),
            RunOpts::default(),
        );
        assert!(!out.compliant_times.is_empty(), "{proto}: compliant progress");
        match proto {
            Proto::TChain => assert!(
                out.free_rider_times.is_empty(),
                "{proto}: free-riders must not finish"
            ),
            _ => assert!(
                !out.free_rider_times.is_empty(),
                "{proto}: free-riders eventually finish in the baselines"
            ),
        }
    }
}

#[test]
fn collusion_unlocks_tchain_downloads_slowly() {
    // Fig. 8's shape: colluders finish but pay dearly.
    let plan = flash_plan(36, 0.25, RiderMode::Colluding, 4);
    let out = run_proto(
        Proto::TChain,
        2.0,
        plan,
        4,
        Horizon::ExtendForFreeRiders(8000.0),
        RunOpts::default(),
    );
    let compliant = out.mean_compliant().expect("compliant leechers finish");
    if let Some(fr) = out.mean_free_rider() {
        assert!(
            fr > compliant * 1.5,
            "colluders ({fr:.0}s) must be far slower than compliant ({compliant:.0}s)"
        );
    }
    // Either way, some colluder pieces moved via false reports.
    assert!(
        !out.free_rider_times.is_empty() || out.unfinished_free_riders > 0,
        "colluders tracked"
    );
}

#[test]
fn fairness_stays_tight_for_tchain_under_free_riding() {
    // Fig. 12's shape: with free-riders, T-Chain's compliant fairness
    // factors stay close to 1.
    let plan = flash_plan(30, 0.25, RiderMode::Aggressive, 5);
    let out = run_proto(
        Proto::TChain,
        2.0,
        plan,
        5,
        Horizon::CompliantDone,
        RunOpts::default(),
    );
    assert!(!out.fairness.is_empty());
    let over = out.fairness.iter().filter(|&&f| f > 2.0).count();
    assert!(
        (over as f64) < 0.2 * out.fairness.len() as f64,
        "few compliant leechers take twice what they give: {over}/{}",
        out.fairness.len()
    );
}

#[test]
fn small_files_favour_tchain_over_block_protocols() {
    // Fig. 13(a) at the extreme: a 2-piece file under churn.
    let window = 300.0;
    let mk = |proto| {
        let plan = flash_plan(40, 0.0, RiderMode::Aggressive, 6);
        run_proto(
            proto,
            1.0,
            plan,
            6,
            Horizon::Fixed(window),
            RunOpts { custom_pieces: Some(2), replace_on_finish: true, ..Default::default() },
        )
    };
    let tc = mk(Proto::TChain);
    let bt = mk(Proto::Baseline(tchain_baselines::Baseline::BitTorrent));
    assert!(
        tc.mean_goodput > bt.mean_goodput,
        "2-piece file: T-Chain goodput {:.0} B/s must beat BitTorrent {:.0} B/s",
        tc.mean_goodput,
        bt.mean_goodput
    );
}

/// The membership lifecycle (`tchain_attacks::Roster`) is one mechanism
/// under every driver: each lifecycle event must show the same way in the
/// outcome of T-Chain and of every baseline policy.
#[test]
fn membership_lifecycle_is_uniform_across_protocols() {
    struct Case {
        what: &'static str,
        fr_fraction: f64,
        crash: bool,
        opts: RunOpts,
        holds: fn(&RunOutcome) -> bool,
    }
    const N: usize = 12;
    let churn = RunOpts { custom_pieces: Some(4), replace_on_finish: true, ..Default::default() };
    let cases = [
        Case {
            what: "churn replacements join and finish too",
            fr_fraction: 0.0,
            crash: false,
            opts: churn,
            holds: |o| o.compliant_times.len() > N,
        },
        Case {
            what: "whitewash identities collapse onto their three lineages",
            fr_fraction: 0.25,
            crash: false,
            opts: RunOpts::default(),
            holds: |o| o.free_rider_times.len() + o.unfinished_free_riders == 3,
        },
        Case {
            what: "a crash_at peer crashes once and never finishes",
            fr_fraction: 0.0,
            crash: true,
            opts: RunOpts::default(),
            holds: |o| {
                o.recovery.crashes == 1
                    && o.unfinished_compliant == 1
                    && o.compliant_times.len() == N - 1
            },
        },
    ];
    let protos = std::iter::once(Proto::TChain).chain(Baseline::all().map(Proto::Baseline));
    for proto in protos {
        for case in &cases {
            let mut plan = flash_plan(N, case.fr_fraction, RiderMode::Aggressive, 7);
            if case.crash {
                plan[2] = plan[2].crashing_at(plan[2].at + 3.0);
            }
            let out = run_proto(proto, 1.0, plan, 7, Horizon::Fixed(600.0), case.opts);
            assert!(
                (case.holds)(&out),
                "{proto}: {} (done {}, unfinished {}, riders {}+{}, crashes {})",
                case.what,
                out.compliant_times.len(),
                out.unfinished_compliant,
                out.free_rider_times.len(),
                out.unfinished_free_riders,
                out.recovery.crashes,
            );
        }
    }
}
