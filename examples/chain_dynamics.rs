//! Chain dynamics: watch T-Chain's pay-it-forward chains grow and drain
//! (the Fig. 10/11 mechanics) as an ASCII strip chart.
//!
//! ```sh
//! cargo run --release --example chain_dynamics
//! ```

use tchain_attacks::{FluidDriver, PeerPlan};
use tchain_core::{ChainOrigin, TChainConfig, TChainSwarm};
use tchain_proto::{FileSpec, Role};
use tchain_workloads::{flash_crowd, CapacityClasses};

fn main() {
    let n = 80;
    let file = FileSpec::tchain(6.0);
    let times = flash_crowd(n, 10.0, 3);
    let caps = CapacityClasses::default().assign(n, 3);
    let plan: Vec<PeerPlan> = times
        .into_iter()
        .zip(caps)
        .map(|(at, c)| PeerPlan::compliant(at, c))
        .collect();
    let mut sw = TChainSwarm::new(file, TChainConfig::default(), plan, 3);

    println!("Active chains (#) and alive leechers (o) over time — flash crowd of {n}\n");
    let mut peak = 1.0f64;
    let mut rows: Vec<(f64, f64, f64)> = Vec::new();
    loop {
        for _ in 0..10 {
            sw.step();
        }
        let now = sw.base().clock.now();
        let chains = sw.chain_stats().active as f64;
        let leechers = sw
            .base()
            .peers
            .iter_alive()
            .filter(|p| p.role == Role::Leecher)
            .count() as f64;
        peak = peak.max(chains);
        rows.push((now, chains, leechers));
        if (leechers == 0.0 && now > 30.0) || now > 10_000.0 {
            break;
        }
    }
    let width = 58.0;
    for (t, chains, leechers) in &rows {
        let c = ((chains / peak) * width) as usize;
        let l = ((*leechers / n as f64) * width) as usize;
        let mut bar = vec![' '; width as usize + 1];
        for x in bar.iter_mut().take(c) {
            *x = '#';
        }
        if l < bar.len() {
            bar[l] = 'o';
        }
        println!("{:>6.0}s |{}| {:>5.0} chains", t, bar.iter().collect::<String>(), chains);
    }
    let s = sw.chain_stats();
    println!("\nchains created: {} by the seeder, {} opportunistically by leechers", s.created_by_seeder, s.created_by_leechers);
    println!("chain endings : {} natural terminations, {} departures, {} stalls, {} collusion", s.ended_no_payee, s.ended_departure, s.ended_stalled, s.ended_collusion);
    println!("mean chain length: {:.1} transactions", s.mean_length());
    let _ = ChainOrigin::Seeder; // re-exported for API completeness
}
