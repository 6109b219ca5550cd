//! End-to-end invariants of the almost-fair exchange: accounting across
//! the whole stack for mixed compliant/free-riding swarms.

use tchain::attacks::{FluidDriver, PeerPlan};
use tchain::core::{TChainConfig, TChainSwarm};
use tchain::proto::{FileSpec, Role};
use tchain::sim::kbps;

fn mixed_swarm(seed: u64) -> TChainSwarm {
    let file = FileSpec::custom(24, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plan: Vec<PeerPlan> =
        (0..18).map(|i| PeerPlan::compliant(0.4 + i as f64 * 0.02, kbps(800.0))).collect();
    for i in 0..6 {
        plan.push(PeerPlan::free_rider(0.5 + i as f64 * 0.02, kbps(800.0)));
    }
    TChainSwarm::new(file, TChainConfig::default(), plan, seed)
}

#[test]
fn no_decryption_without_reciprocation() {
    // A free-rider's completed pieces can come only from unencrypted
    // uploads (terminations) — with no collusion there is no other path.
    let mut sw = mixed_swarm(21);
    sw.run_until_done();
    assert_eq!(sw.false_reports(), 0, "no colluders, no false reports");
    for p in sw.base().peers.iter().filter(|p| !p.compliant) {
        assert!(
            p.pieces_down < 24,
            "free-rider {} must not assemble the whole file",
            p.id
        );
    }
}

#[test]
fn transactions_and_chains_are_conserved() {
    let mut sw = mixed_swarm(22);
    sw.run_until_done();
    // Let the stall sweep close the free-riders' dangling transactions.
    sw.run_to(sw.base().clock.now() + 200.0);
    let s = *sw.chain_stats();
    assert_eq!(
        s.created_total(),
        s.ended + s.active,
        "every chain is either ended or still active"
    );
    assert!(s.ended_stalled > 0, "free-riding stalls chains (§IV-F)");
    assert!(sw.txns_completed() > 0);
}

#[test]
fn compliant_leechers_unharmed_by_free_riders() {
    // Fig. 7(a)'s point: T-Chain protects compliant leechers.
    let mut clean = {
        let file = FileSpec::custom(24, 64.0 * 1024.0, 64.0 * 1024.0);
        let plan: Vec<PeerPlan> =
            (0..18).map(|i| PeerPlan::compliant(0.4 + i as f64 * 0.02, kbps(800.0))).collect();
        TChainSwarm::new(file, TChainConfig::default(), plan, 23)
    };
    clean.run_until_done();
    let mut dirty = mixed_swarm(23);
    dirty.run_until_done();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let t_clean = mean(clean.base().completion_times(true));
    let t_dirty = mean(dirty.base().completion_times(true));
    assert!(
        t_dirty < t_clean * 1.6,
        "free-riders must not substantially slow compliant leechers: {t_dirty:.0} vs {t_clean:.0}"
    );
}

#[test]
fn ledger_bounds_pending_uploads() {
    let mut sw = mixed_swarm(24);
    sw.run_to(120.0);
    // No donor should ever have uploaded unreciprocated pieces beyond k
    // to any single neighbor: verified indirectly — free-riders' received
    // encrypted pieces are bounded by (k × donors they ever saw).
    let k = sw.config().k_pending as u64;
    let donors = sw.base().peers.iter().filter(|p| p.compliant).count() as u64 + 1;
    for p in sw.base().peers.iter().filter(|p| !p.compliant) {
        let ceiling = k * donors;
        assert!(
            p.pieces_down <= ceiling,
            "free-rider {} got {} pieces, ceiling {}",
            p.id,
            p.pieces_down,
            ceiling
        );
    }
}

#[test]
fn seeder_never_counts_as_leecher_metrics() {
    let mut sw = mixed_swarm(25);
    sw.run_until_done();
    assert_eq!(sw.base().completion_times(true).len(), 18);
    let seeder = sw.base().seeder;
    assert_eq!(sw.base().peers.get(seeder).role, Role::Seeder);
    assert!(sw.base().peers.get(seeder).done_time.is_none());
}
