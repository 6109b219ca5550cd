//! Bootstrap race: the §III-B analytical models vs the simulator.
//!
//! ```sh
//! cargo run --release --example bootstrap_race
//! ```
//!
//! Iterates the paper's discrete-time bootstrapping models (eqs. 1–6) for
//! a flash crowd and compares against a simulated T-Chain swarm's actual
//! time-to-first-completed-piece — the claim of Propositions III.1/III.2
//! made tangible.

use tchain_analysis::bootstrap::{trajectory, BootstrapParams, BootstrapState, PieceDistribution};
use tchain_attacks::{FluidDriver, PeerPlan};
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_proto::{FileSpec, Role};
use tchain_workloads::{flash_crowd, CapacityClasses};

fn main() {
    // Analytical race.
    let params = BootstrapParams::default();
    let dist = PieceDistribution::uniform(100);
    let s0 = BootstrapState { x: 300.0, y: 0.0, n: 600.0 };
    let bt = trajectory(s0, &params, None, 12);
    let tc = trajectory(s0, &params, Some(&dist), 12);
    println!("§III-B model: fraction of peers still un-bootstrapped (x+y)/n\n");
    println!("{:>4}  {:>10}  {:>8}", "slot", "BitTorrent", "T-Chain");
    for t in 0..=12 {
        println!("{t:>4}  {:>10.3}  {:>8.3}", bt[t], tc[t]);
    }
    println!(
        "\nω' = {:.3}, ω'' = {:.4}; with K = {} chains/peer the flash-crowd condition (Prop. III.1) favours T-Chain.",
        dist.omega_prime(),
        dist.omega_double_prime(),
        params.k_chains
    );

    // Simulated bootstrapping: time from join to first completed piece.
    let n = 100;
    let file = FileSpec::tchain(4.0);
    let times = flash_crowd(n, 10.0, 5);
    let caps = CapacityClasses::default().assign(n, 5);
    let plan: Vec<PeerPlan> =
        times.into_iter().zip(caps).map(|(at, c)| PeerPlan::compliant(at, c)).collect();
    let mut sw = TChainSwarm::new(file, TChainConfig::default(), plan, 5);
    // Track first-piece times by sampling, until every leecher has joined
    // and finished (the `run_until_done` stop condition).
    let mut first_piece: Vec<Option<f64>> = vec![None; n + 1];
    while !sw.roster().settled(sw.base()) {
        sw.step();
        let now = sw.base().clock.now();
        for p in sw.base().peers.iter_alive() {
            if p.role == Role::Leecher && p.have.count() > 0 {
                let slot = &mut first_piece[p.id.index().min(n)];
                if slot.is_none() {
                    *slot = Some(now - p.join_time);
                }
            }
        }
    }
    let mut boots: Vec<f64> = first_piece.into_iter().flatten().collect();
    boots.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    println!("\nSimulated T-Chain swarm of {n}: time from join to first completed piece");
    println!("  bootstrapped peers : {}", boots.len());
    if !boots.is_empty() {
        println!("  median             : {:.1} s", boots[boots.len() / 2]);
        println!("  90th percentile    : {:.1} s", boots[(boots.len() * 9 / 10).min(boots.len() - 1)]);
    }
    println!("\nBarrier-free entry: newcomers forward their first encrypted piece (§II-D1).");
}
