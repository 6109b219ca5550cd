//! Golden regression fixtures: one flash-crowd Fig. 3 cell, one
//! Table II cell and one membership-lifecycle cell per fluid driver
//! policy at fixed seeds, summarized with a hand-rolled JSON writer and
//! compared byte-for-byte against the committed files in
//! `tests/golden/`. The random stream is the repository's own
//! (`tchain_sim::SimRng`, pinned by its known-answer tests), so every
//! fixture is compared on every run.
//!
//! When a simulator change intentionally shifts the numbers, regenerate
//! with `TCHAIN_BLESS=1 cargo test --test golden_regression` and review
//! the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use tchain_attacks::FreeRiderConfig;
use tchain_baselines::Baseline;
use tchain_experiments::figures::table2::progress_ratio;
use tchain_experiments::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts, RunOutcome};
use tchain_sim::FaultPlan;

/// Fixed fig03-style cell: `(n << 8) | r` with n = 24, r = 0.
const FIG03_SWARM: usize = 24;
const FIG03_SEED: u64 = (FIG03_SWARM as u64) << 8;
const FIG03_FILE_MIB: f64 = 2.0;

/// Table II uses one fixed seed for every cell.
const TABLE2_SEED: u64 = 0x72;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Shortest round-trip float formatting, with the non-finite values that
/// bare JSON cannot express quoted.
fn jf(x: f64) -> String {
    if x.is_nan() {
        "\"NaN\"".to_string()
    } else if x.is_infinite() {
        format!("\"{}inf\"", if x < 0.0 { "-" } else { "" })
    } else {
        format!("{x}")
    }
}

fn jlist(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|&x| jf(x)).collect();
    format!("[{}]", body.join(", "))
}

/// Renders the simulation-determined half of a [`RunOutcome`] (the same
/// fields [`RunOutcome::deterministic_eq`] compares — host wall clock,
/// profiler phases and `trace.*` gauges are excluded).
fn summarize(out: &RunOutcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"compliant_times\": {},", jlist(&out.compliant_times));
    let _ = writeln!(s, "  \"free_rider_times\": {},", jlist(&out.free_rider_times));
    let _ = writeln!(s, "  \"unfinished_compliant\": {},", out.unfinished_compliant);
    let _ = writeln!(s, "  \"unfinished_free_riders\": {},", out.unfinished_free_riders);
    let _ = writeln!(s, "  \"uplink_utilization\": {},", jf(out.uplink_utilization));
    let _ = writeln!(s, "  \"fairness\": {},", jlist(&out.fairness));
    let _ = writeln!(s, "  \"mean_goodput\": {},", jf(out.mean_goodput));
    let _ = writeln!(s, "  \"sim_time\": {},", jf(out.sim_time));
    let r = &out.recovery;
    let _ = writeln!(
        s,
        "  \"recovery\": {{\"ctrl_sent\": {}, \"ctrl_dropped\": {}, \"retransmissions\": {}, \"watchdog_closures\": {}, \"payees_reassigned\": {}, \"keys_escrowed\": {}, \"broken_chains\": {}, \"orphaned_txns\": {}}},",
        r.ctrl_sent,
        r.ctrl_dropped,
        r.retransmissions,
        r.watchdog_closures,
        r.payees_reassigned,
        r.keys_escrowed,
        r.broken_chains,
        r.orphaned_txns,
    );
    s.push_str("  \"metrics\": {");
    let mut first = true;
    for (k, v) in out.metrics.iter().filter(|(k, _)| !k.starts_with("trace.")) {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "\"{k}\": {v}");
    }
    s.push_str("}\n}\n");
    s
}

/// Compares the summary against the committed fixture, or rewrites the
/// fixture when `TCHAIN_BLESS` is set.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("TCHAIN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with TCHAIN_BLESS=1 cargo test --test golden_regression",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{name} drifted from its committed fixture; if the change is intentional, \
         regenerate with TCHAIN_BLESS=1 cargo test --test golden_regression and review the diff"
    );
}

/// Pins the fixture set itself. Discovery is sorted by file name —
/// `read_dir` order is filesystem-dependent, and a suite keyed off raw
/// directory order would silently skip a fixture that a rename or a
/// stray file pushed out of the expected slot. Asserting the exact list
/// makes a dropped, added or misnamed fixture a loud failure.
#[test]
fn golden_fixture_list_is_exactly_the_committed_set() {
    let dir = golden_path("");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    assert_eq!(
        found,
        [
            "baseline_bt_whitewash.json",
            "baseline_fairtorrent_whitewash.json",
            "baseline_propshare_whitewash.json",
            "baseline_randombt_whitewash.json",
            "fig03_flash_crowd.json",
            "table2_large_view_tchain.json",
            "tchain_churn_crash.json",
        ],
        "tests/golden/ drifted from the pinned fixture list; update both together"
    );
}

#[test]
fn fig03_flash_crowd_cell_matches_fixture() {
    let plan = flash_plan(FIG03_SWARM, 0.0, RiderMode::Aggressive, FIG03_SEED);
    let out = run_proto(
        Proto::TChain,
        FIG03_FILE_MIB,
        plan,
        FIG03_SEED,
        Horizon::CompliantDone,
        RunOpts::default(),
    );
    assert_eq!(out.compliant_times.len(), FIG03_SWARM, "every compliant leecher finishes");
    check_golden("fig03_flash_crowd.json", &summarize(&out));
}

#[test]
fn table2_large_view_cell_matches_fixture() {
    let cfg = FreeRiderConfig { large_view: true, ..Default::default() };
    let (ratio, out) = progress_ratio(Proto::TChain, cfg, false, TABLE2_SEED);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"feature\": \"Large-view-exploit\",");
    let _ = writeln!(s, "  \"proto\": \"T-Chain\",");
    let _ = writeln!(s, "  \"seed\": {TABLE2_SEED},");
    let _ = writeln!(s, "  \"progress_ratio\": {},", jf(ratio));
    s.push_str("  \"metrics\": {");
    let mut first = true;
    for (k, v) in out.metrics.iter().filter(|(k, _)| !k.starts_with("trace.")) {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "\"{k}\": {v}");
    }
    s.push_str("}\n}\n");
    assert!(ratio.is_finite(), "progress ratio must be a real number");
    assert!(ratio < 0.5, "T-Chain must resist the large-view exploit (got {ratio})");
    check_golden("table2_large_view_tchain.json", &s);
}

/// Seed and swarm size of the membership-lifecycle cells below.
const LIFECYCLE_SEED: u64 = 0x11FE;
const LIFECYCLE_SWARM: usize = 24;

/// One cell per baseline policy under §IV-C aggressive free-riders:
/// whitewash rejoins carry pieces and lineage across identities, so the
/// fixture pins the deferred-join order and the per-lineage free-rider
/// durations as well as the compliant outcome.
#[test]
fn baseline_whitewash_cells_match_fixtures() {
    // PropShare gets 4 MiB: with fewer pieces its windows rarely hold the
    // several contributors whose order the fixture is there to pin.
    for (policy, file_mib, name) in [
        (Baseline::BitTorrent, 1.0, "baseline_bt_whitewash.json"),
        (Baseline::RandomBt, 1.0, "baseline_randombt_whitewash.json"),
        (Baseline::FairTorrent, 1.0, "baseline_fairtorrent_whitewash.json"),
        (Baseline::PropShare, 4.0, "baseline_propshare_whitewash.json"),
    ] {
        let plan = flash_plan(LIFECYCLE_SWARM, 0.25, RiderMode::Aggressive, LIFECYCLE_SEED);
        let out = run_proto(
            Proto::Baseline(policy),
            file_mib,
            plan,
            LIFECYCLE_SEED,
            Horizon::ExtendForFreeRiders(1500.0),
            RunOpts::default(),
        );
        assert_eq!(out.compliant_times.len(), 18, "{policy}: every compliant leecher finishes");
        assert_eq!(
            out.free_rider_times.len() + out.unfinished_free_riders,
            6,
            "{policy}: whitewash identities collapse onto six lineages"
        );
        check_golden(name, &summarize(&out));
    }
}

/// T-Chain under every membership event at once: Fig. 13 replacement
/// churn, Fig. 6(b) pre-occupied pieces and two planned `crash_at` peers,
/// over a lossy control plane.
#[test]
fn tchain_churn_crash_cell_matches_fixture() {
    let mut plan = flash_plan(LIFECYCLE_SWARM, 0.25, RiderMode::Aggressive, LIFECYCLE_SEED);
    plan[4] = plan[4].crashing_at(plan[4].at + 15.0);
    plan[10] = plan[10].crashing_at(15.0);
    let out = run_proto(
        Proto::TChain,
        1.0,
        plan,
        LIFECYCLE_SEED,
        Horizon::Fixed(400.0),
        RunOpts {
            replace_on_finish: true,
            initial_piece_fraction: 0.1,
            faults: FaultPlan::lossy(LIFECYCLE_SEED, 0.05),
            ..Default::default()
        },
    );
    assert!(out.compliant_times.len() > 18, "replacements joined and finished too");
    assert_eq!(out.recovery.crashes, 2, "both planned crashes fired");
    check_golden("tchain_churn_crash.json", &summarize(&out));
}

/// Re-running the same cell twice in one process yields the same summary
/// (guards against global mutable state sneaking into the simulators —
/// the property the fixtures rely on across processes).
#[test]
fn fig03_cell_is_reproducible_in_process() {
    let run = || {
        let plan = flash_plan(FIG03_SWARM, 0.0, RiderMode::Aggressive, FIG03_SEED);
        run_proto(
            Proto::TChain,
            FIG03_FILE_MIB,
            plan,
            FIG03_SEED,
            Horizon::CompliantDone,
            RunOpts::default(),
        )
    };
    let a = run();
    let b = run();
    assert!(a.deterministic_eq(&b));
    assert_eq!(summarize(&a), summarize(&b));
}
