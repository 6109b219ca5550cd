//! Schedule-replay regression suite: every witness checked into
//! `tests/schedules/` is replayed through the explore engine and must
//! reproduce its recorded oracle verdict *and* its delivered-frame
//! fingerprint bit-for-bit. A diff here means a change made the runtime
//! schedule-visible — review it like a golden-fixture diff and
//! regenerate deliberately (see `crates/net/src/explore.rs`).
//!
//! The suite pins the fixture *list* too: discovery is sorted by file
//! name, and the expected set is asserted explicitly so a dropped or
//! stray witness fails loudly instead of silently shrinking coverage.

use std::path::PathBuf;

use tchain_net::{canary_armed, Witness};

fn schedules_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("schedules")
}

/// The committed witness set, in sorted order.
const EXPECTED: &[&str] = &[
    "baseline.witness",
    "chaos-churn.witness",
    "chaos-phantom-keyrelease.witness",
    "chaos.witness",
    "churn.witness",
    "collusion.witness",
    "crash.witness",
    "free-riders.witness",
    "lossy.witness",
];

fn discover() -> Vec<(String, Witness)> {
    let dir = schedules_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".witness"))
        .collect();
    // Directory order is filesystem-dependent; the suite must not be.
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name)).expect("read witness");
            let witness =
                Witness::from_text(&text).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
            (name, witness)
        })
        .collect()
}

#[test]
fn witness_set_is_exactly_the_committed_list() {
    let found: Vec<String> = discover().into_iter().map(|(n, _)| n).collect();
    assert_eq!(found, EXPECTED, "tests/schedules/ drifted from the pinned witness list");
}

#[test]
fn every_witness_replays_to_its_recorded_verdict() {
    if canary_armed() {
        // The seeded restart() mutation flips crash-scenario ledger
        // verdicts on purpose; the drill builds assert that elsewhere.
        eprintln!("skipping: tchain_canary build");
        return;
    }
    for (name, witness) in discover() {
        let report = witness.replay();
        assert_eq!(
            report.failed_oracles, witness.oracles,
            "{name}: oracle verdict drifted (violations: {:?})",
            report.violations
        );
        assert_eq!(
            report.fingerprint, witness.fingerprint,
            "{name}: delivered-frame fingerprint drifted — the runtime became \
             schedule-visible; regenerate the witness deliberately if intended"
        );
    }
}

#[test]
fn replay_is_deterministic_across_runs() {
    // Two fresh replays of the same witness must agree with each other
    // even if both drift from the recording — catches nondeterminism
    // separately from behavior change.
    for (name, witness) in discover().into_iter().take(3) {
        let a = witness.replay();
        let b = witness.replay();
        assert!(a.same_run(&b), "{name}: replay nondeterminism");
    }
}
