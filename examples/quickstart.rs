//! Quickstart: run a small T-Chain swarm and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 16 MiB file swarm with 40 heterogeneous leechers joining as a
//! flash crowd, runs the full T-Chain protocol (triangle transactions,
//! pay-it-forward chains, flow control, opportunistic seeding) to
//! completion, and prints per-peer and chain-level statistics.

use tchain_attacks::{FluidDriver, PeerPlan};
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_metrics::Summary;
use tchain_proto::FileSpec;
use tchain_workloads::{flash_crowd, CapacityClasses};

fn main() {
    let n = 40;
    let file = FileSpec::tchain(16.0); // 16 MiB in 64 KB pieces
    let times = flash_crowd(n, 10.0, 7);
    let caps = CapacityClasses::default().assign(n, 7);
    let plan: Vec<PeerPlan> = times
        .into_iter()
        .zip(caps)
        .map(|(at, capacity)| PeerPlan::compliant(at, capacity))
        .collect();

    let mut swarm = TChainSwarm::new(file, TChainConfig::default(), plan, 7);
    swarm.run_until_done();

    let completions = swarm.base().completion_times(true);
    let summary = Summary::of(&completions);
    println!("T-Chain quickstart — {n} leechers sharing {} MiB", file.file_size() / 1048576.0);
    println!("  finished leechers       : {}/{n}", completions.len());
    println!("  download completion time: {summary} s");
    println!("  uplink utilization      : {:.1}%", swarm.base().mean_uplink_utilization() * 100.0);
    let (direct, indirect) = swarm.reciprocity_split();
    println!("  transactions            : {} completed, {} aborted", swarm.txns_completed(), swarm.txns_aborted());
    println!("  reciprocity             : {direct} direct, {indirect} indirect (pay-it-forward)");
    let stats = swarm.chain_stats();
    println!(
        "  chains                  : {} by seeder, {} opportunistic, mean length {:.1} transactions",
        stats.created_by_seeder,
        stats.created_by_leechers,
        stats.mean_length()
    );
    let fairness = swarm.fairness_factors();
    println!("  mean fairness factor    : {:.2} (1.0 = give exactly what you take)",
        fairness.iter().sum::<f64>() / fairness.len().max(1) as f64);
}
