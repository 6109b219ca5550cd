//! Fault-injection recovery: lossy control plane + abrupt crashes must
//! never panic, leak transactions/chains, or stall the swarm forever —
//! the timeout/retry/watchdog/§II-B4-escrow machinery keeps the books
//! balanced.

use tchain::attacks::{FluidDriver, PeerPlan};
use tchain::core::{TChainConfig, TChainSwarm};
use tchain::proto::FileSpec;
use tchain::sim::{kbps, FaultPlan};

fn compliant_plan(n: usize) -> Vec<PeerPlan> {
    (0..n).map(|i| PeerPlan::compliant(0.4 + i as f64 * 0.02, kbps(800.0))).collect()
}

fn drain(sw: &mut TChainSwarm) {
    // Past completion, give the watchdog / stall sweep several periods to
    // close whatever the faults left dangling.
    sw.run_until_done();
    sw.run_to(sw.base().clock.now() + 400.0);
}

/// The headline acceptance scenario: ≥10 % control-plane loss plus abrupt
/// mid-run crashes of 20 % of the leechers. The run must complete without
/// panics, every chain must be accounted for in [`ChainStats`], and no
/// live transaction may linger after the drain.
#[test]
fn lossy_control_plane_with_crashes_recovers() {
    let file = FileSpec::custom(24, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plan = compliant_plan(16);
    // 4 of 20 leechers (20 %) crash abruptly mid-download. Unchoke-slot
    // splitting caps any single download well below the 1.5 MB file in
    // under ~8 s, so these times are guaranteed to land mid-trade.
    for (i, at) in [3.0, 4.0, 5.0, 6.0].iter().enumerate() {
        plan.push(PeerPlan::compliant(0.5 + i as f64 * 0.02, kbps(800.0)).crashing_at(*at));
    }
    let mut sw = TChainSwarm::with_faults(
        file,
        TChainConfig::default(),
        plan,
        31,
        FaultPlan::lossy(31, 0.12),
    );
    drain(&mut sw);

    let s = *sw.chain_stats();
    assert_eq!(s.created_total(), s.ended + s.active, "every chain ended or active");
    assert_eq!(sw.live_chains() as u64, s.active, "stats agree with the arena");
    assert_eq!(sw.live_transactions(), 0, "no transaction survives the drain");
    assert_eq!(sw.live_chains(), 0, "no chain survives the drain");

    let r = sw.recovery_counters();
    assert_eq!(r.crashes, 4, "all planned crashes fired");
    assert!(r.ctrl_sent > 0, "the control plane was exercised");
    assert!(r.ctrl_dropped > 0, "12% loss must drop control messages");
    assert!(r.retransmissions > 0, "lost reports/keys are retransmitted");
    assert_eq!(r.retry_exhausted, 0, "12% loss never exhausts 6 retries here");

    // Compliant survivors still finish despite loss and churn.
    assert!(sw.base().completion_times(true).len() >= 12, "survivors complete their downloads");
}

/// §II-B4 escrow: when a donor dies with the reception report or key in
/// flight, the payee releases the key locally instead of the transaction
/// hanging — chains still balance and the escrow counter records it.
#[test]
fn donor_crashes_trigger_key_escrow_not_leaks() {
    let file = FileSpec::custom(24, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plan = compliant_plan(14);
    // A third of the swarm crashes in two waves while trades are dense.
    for (i, at) in [3.0, 3.5, 4.0, 5.0, 6.0, 7.0].iter().enumerate() {
        plan.push(PeerPlan::compliant(0.45 + i as f64 * 0.02, kbps(800.0)).crashing_at(*at));
    }
    let mut sw = TChainSwarm::with_faults(
        file,
        TChainConfig::default(),
        plan,
        37,
        // Latency-free but lossy: reports race the crash times.
        FaultPlan::lossy(37, 0.10),
    );
    drain(&mut sw);

    let s = *sw.chain_stats();
    assert_eq!(s.created_total(), s.ended + s.active, "no chain leaks");
    assert_eq!(sw.live_transactions(), 0);
    assert_eq!(sw.live_chains(), 0);
    let r = sw.recovery_counters();
    assert_eq!(r.crashes, 6);
    assert!(
        r.keys_escrowed + r.watchdog_closures + r.payees_reassigned > 0,
        "crashes amid dense trading must exercise some §II-B4 recovery path: {r:?}"
    );
    assert!(s.ended_crash > 0, "unrepairable chains are recorded as crash-ended");
}

/// Graceful departures (churn with replacement) keep using the ordinary
/// §II-B4 handover — chains balance, and with no fault plan the recovery
/// machinery records nothing but stays consistent.
#[test]
fn graceful_departure_churn_balances_chains() {
    let file = FileSpec::custom(16, 64.0 * 1024.0, 64.0 * 1024.0);
    let plan = compliant_plan(14);
    let mut sw = TChainSwarm::new(
        file,
        TChainConfig { replace_on_finish: true, ..Default::default() },
        plan,
        41,
    );
    sw.run_to(500.0);
    let s = *sw.chain_stats();
    assert_eq!(s.created_total(), s.ended + s.active, "churned chains stay accounted");
    assert!(s.ended_departure > 0, "replacement churn ends chains via departure");
    let r = sw.recovery_counters();
    assert_eq!(r.crashes, 0, "graceful churn is not a crash");
    assert_eq!(r.ctrl_dropped, 0, "no fault plan, no losses");
    assert_eq!(r.retransmissions, 0, "no fault plan, no retries");
}

/// A fault plan whose every knob is at the default is exactly the
/// fault-free swarm: zero recovery activity, identical completions.
#[test]
fn none_plan_is_dormant() {
    let file = FileSpec::custom(16, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plain = TChainSwarm::new(file, TChainConfig::default(), compliant_plan(10), 43);
    let mut gated = TChainSwarm::with_faults(
        file,
        TChainConfig::default(),
        compliant_plan(10),
        43,
        FaultPlan::none(),
    );
    plain.run_until_done();
    gated.run_until_done();
    let a = plain.base().completion_times(true);
    let b = gated.base().completion_times(true);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "bit-identical completions");
    }
    // The fault layer itself recorded nothing. (`keys_escrowed` may be
    // nonzero even here: §II-B4 escrow also serves *graceful* departures
    // of finished donors — that is normal protocol operation.)
    let r = gated.recovery_counters();
    assert_eq!(r.ctrl_sent, 0, "inactive fault layer counts no sends");
    assert_eq!(r.ctrl_dropped, 0);
    assert_eq!(r.retransmissions, 0, "no retries without faults");
    assert_eq!(r.crashes, 0);
    assert_eq!(r.watchdog_closures, 0, "watchdog stays dormant");
    assert_eq!(r.orphaned_txns, 0);
}
