//! Property tests (`tchain_sim::forall`) for the adversary engine:
//! whitewash identity resets — an attacker discarding its wire identity,
//! keeping its loot and rejoining as a "newcomer" — must never corrupt
//! the §II-D2 k-pending ledger or the §II-B4 escrow bookkeeping, no
//! matter what churn schedule or byzantine chaos plan they compose with.
//!
//! Each case boots a real encrypted swarm, so the suites run few cases
//! with tight piece counts; the point is the *randomised composition*
//! of whitewash timing against joins, departures, frame corruption and
//! crash-restart — not case volume.

use tchain_net::{run_swarm, FreeRiderConfig, GroupId, Strategy, SwarmConfig};
use tchain_sim::{ensure, ensure_eq, forall, ChaosPlan, ChurnPlan, SimRng};

/// A 10-peer swarm whose two highest leecher ids run the given
/// free-rider flavour.
fn adversarial(seed: u64, flavour: Strategy) -> SwarmConfig {
    SwarmConfig {
        peers: 10,
        pieces: 12,
        piece_len: 256,
        seed,
        strategies: vec![(8, flavour), (9, flavour)],
        max_ticks: 900,
        ..SwarmConfig::default()
    }
}

/// Uniform integer in `lo..hi`.
fn int(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo) as usize) as u64
}

/// A swarm seed in `1..2^40`.
fn swarm_seed(rng: &mut SimRng) -> u64 {
    int(rng, 1, 1 << 40)
}

/// Whitewash resets composed with an arbitrary join/departure
/// schedule: every surviving peer's §II-D2 ledger stays consistent
/// with its unreported donor transactions, no key is ever released
/// unreciprocated, every compliant leecher completes, and the
/// whitewashers stay starved across all of their identities.
#[test]
fn whitewash_never_corrupts_ledger_under_churn() {
    forall(0x3417E, 6, |rng, _| {
        let seed = swarm_seed(rng);
        let (join_at, joins, spacing) =
            (int(rng, 4, 20) as u8, int(rng, 1, 4) as u32, int(rng, 1, 4) as u8);
        let (depart_at, fraction) = (int(rng, 30, 60) as u8, rng.range(0.05, 0.35));
        let cfg = SwarmConfig {
            churn: ChurnPlan::none()
                .with_joins(f64::from(join_at), joins, f64::from(spacing))
                .with_departures(f64::from(depart_at), fraction),
            ..adversarial(seed, Strategy::aggressive_free_rider())
        };
        let report = run_swarm(cfg).expect("mesh transport");
        ensure!(report.ledger_ok, "ledger drifted from unreported donor txns");
        ensure!(
            report.violations.is_empty(),
            "unreciprocated key release under whitewash x churn: {:?}",
            report.violations
        );
        ensure!(report.plaintext_ok);
        ensure_eq!(report.completed_compliant, report.total_compliant);
        // Whitewashers can still harvest §II-B3 termination gifts as
        // serial "newcomers" — the one legal plaintext channel open to
        // them — so completion is possible but must be *paid for*: the
        // audit ledger has to account for every plaintext piece any
        // attacker identity ever held.
        ensure!(
            u64::from(report.completed_free_riders) * report.pieces as u64
                <= report.gift_leakage + report.colluder_gain,
            "{} free-rider completion(s) not covered by {} gifts + {} colluder gain",
            report.completed_free_riders,
            report.gift_leakage,
            report.colluder_gain
        );
        ensure_eq!(report.churn_joins, u64::from(joins));
        Ok(())
    });
}

/// Whitewash resets composed with byzantine frame chaos and a
/// crash-restart wave: corrupted frames, quarantines, crash restarts
/// and whitewash rebirths all reuse pieces of the same
/// identity plumbing, and none of the combinations may leak a key
/// or corrupt a ledger.
#[test]
fn whitewash_survives_chaos_and_crash_restart() {
    forall(0xC4A05, 6, |rng, _| {
        let (seed, rate) = (swarm_seed(rng), rng.range(0.001, 0.02));
        let (crash_at, crash_fraction) = (int(rng, 10, 40) as u8, rng.range(0.1, 0.3));
        let restart_after = int(rng, 2, 8) as u8;
        let cfg = SwarmConfig {
            chaos: ChaosPlan::byzantine(seed ^ 0xC4A05, rate).with_crash_restart(
                f64::from(crash_at),
                crash_fraction,
                f64::from(restart_after),
            ),
            ..adversarial(seed, Strategy::aggressive_free_rider())
        };
        let report = run_swarm(cfg).expect("mesh transport");
        ensure!(report.ledger_ok, "ledger drifted under whitewash x chaos");
        ensure!(
            report.violations.is_empty(),
            "unreciprocated key release under whitewash x chaos: {:?}",
            report.violations
        );
        ensure!(report.plaintext_ok);
        ensure_eq!(report.completed_compliant, report.total_compliant);
        ensure!(
            u64::from(report.completed_free_riders) * report.pieces as u64
                <= report.gift_leakage + report.colluder_gain,
            "attacker completions outran the audited gift/forgery channels"
        );
        Ok(())
    });
}

/// Same-seed determinism holds with the full adversary engine armed:
/// colluding whitewashers (large-view + identity resets + false
/// reports) replayed under one seed reproduce the frame stream, the
/// audit counters and every completion time bit for bit.
#[test]
fn armed_adversaries_stay_bit_identical() {
    forall(0xA23ED, 4, |rng, _| {
        let (seed, ring) = (swarm_seed(rng), int(rng, 2, 4) as u32);
        let cfg = |seed| SwarmConfig {
            strategies: (10 - ring..10)
                .map(|id| (id, Strategy::colluding_free_rider(GroupId(0))))
                .collect(),
            ..adversarial(seed, Strategy::zero_upload())
        };
        let a = run_swarm(cfg(seed)).expect("run a");
        let b = run_swarm(cfg(seed)).expect("run b");
        ensure_eq!(a.fingerprint, b.fingerprint, "frame-stream digest diverged");
        ensure_eq!(a.ticks, b.ticks);
        ensure_eq!(a.false_reports, b.false_reports);
        ensure_eq!(a.colluder_gain, b.colluder_gain);
        ensure_eq!(a.whitewash_rejoins, b.whitewash_rejoins);
        ensure_eq!(a.completion_times, b.completion_times);
        ensure!(a.violations.is_empty(), "violations: {:?}", a.violations);
        ensure!(a.ledger_ok);
        Ok(())
    });
}

/// A collude-only Sybil ring under churn: every §IV-D false report
/// is detected and attributed to ring members, and the colluders'
/// key gain never exceeds one release per forged report.
#[test]
fn sybil_rings_stay_fully_attributed_under_churn() {
    forall(0x5B11, 4, |rng, _| {
        let (seed, join_at, joins) =
            (swarm_seed(rng), int(rng, 4, 16) as u8, int(rng, 1, 3) as u32);
        let collude_only = Strategy::FreeRider(FreeRiderConfig {
            collude: Some(GroupId(0)),
            ..FreeRiderConfig::default()
        });
        let cfg = SwarmConfig {
            strategies: vec![(7, collude_only), (8, collude_only), (9, collude_only)],
            churn: ChurnPlan::none().with_joins(f64::from(join_at), joins, 2.0),
            ..adversarial(seed, Strategy::zero_upload())
        };
        let report = run_swarm(cfg).expect("mesh transport");
        ensure!(report.violations.is_empty(), "violations: {:?}", report.violations);
        ensure!(report.ledger_ok);
        ensure_eq!(
            report.false_report_log.len() as u64,
            report.false_reports,
            "every detected false report carries an attribution"
        );
        for &(reporter, donor, requestor, _) in &report.false_report_log {
            ensure!((7..10).contains(&reporter), "reporter {} outside the ring", reporter);
            ensure!((7..10).contains(&requestor), "requestor {} outside the ring", requestor);
            ensure!(!(7..10).contains(&donor), "donor {} inside the ring", donor);
        }
        ensure!(report.colluder_gain <= report.false_reports, "gain outran the forgeries");
        Ok(())
    });
}
