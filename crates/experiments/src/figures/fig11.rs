//! Fig. 11: (a) cumulative chains created by the seeder vs by leechers
//! (opportunistic seeding) in a flash crowd; (b) the opportunistic
//! fraction vs free-rider share under trace arrivals.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, trace_plan, Proto, RiderMode};
use tchain_attacks::FluidDriver;
use tchain_core::{TChainConfig, TChainSwarm};

tchain_obs::json_struct! {
    /// Fig. 11 data.
    #[derive(Debug)]
    pub struct Data {
        /// Fig. 11(a): `(time, cumulative seeder chains, cumulative leecher
        /// chains)`.
        pub cumulative: Vec<(f64, u64, u64)>,
        /// Fig. 11(b): `(free-rider %, opportunistic fraction)`.
        pub opportunistic_by_fr: Vec<(u32, f64)>,
    }
}

/// Runs both halves of Fig. 11.
pub fn run(scale: Scale) -> Data {
    let spec = Proto::TChain.file_spec(scale.file_mib());
    // (a) manual stepping to sample cumulative origins.
    let seed = 110;
    let mut meta = RunMeta::default();
    let mut stepping = sweep(
        "fig11",
        &[()],
        |_| ("chains by origin (flash crowd)".to_string(), seed),
        |_| {
            let mut sw = TChainSwarm::new(
                spec,
                TChainConfig::default(),
                flash_plan(scale.standard_swarm(), 0.0, RiderMode::Aggressive, seed),
                seed,
            );
            let mut cumulative = Vec::new();
            let mut next_sample = 0.0;
            loop {
                sw.step();
                let now = sw.base().clock.now();
                if now >= next_sample {
                    let s = sw.chain_stats();
                    cumulative.push((now, s.created_by_seeder, s.created_by_leechers));
                    next_sample += 25.0;
                }
                let done = sw.base().peers.iter().all(|p| {
                    p.role != tchain_proto::Role::Leecher || p.done_time.is_some() || !p.alive()
                });
                if (done && now > 20.0) || now > 20_000.0 {
                    break;
                }
            }
            (cumulative, sw.metrics())
        },
    );
    meta.note_failures(&stepping.failures);
    let cumulative = match stepping.cells.pop().flatten() {
        Some((cumulative, metrics)) => {
            meta.note_run();
            meta.absorb_metrics(&metrics);
            cumulative
        }
        None => Vec::new(),
    };
    // (b) trace with free-rider sweep.
    let cells: Vec<(u32, u64)> =
        [0u32, 25, 50].iter().map(|&p| (p, 0xB0 | p as u64)).collect();
    let sw = sweep(
        "fig11",
        &cells,
        |&(fr_pct, seed)| (format!("opportunistic {fr_pct}% FR trace"), seed),
        |&(fr_pct, seed)| {
            let n = scale.standard_swarm();
            let mut sw = TChainSwarm::new(
                spec,
                TChainConfig::default(),
                trace_plan(n, fr_pct as f64 / 100.0, RiderMode::Aggressive, seed),
                seed,
            );
            let horizon = match scale {
                Scale::Quick => 2_000.0,
                Scale::Paper => 8_000.0,
            };
            sw.run_to(horizon);
            ((fr_pct, sw.chain_stats().opportunistic_fraction()), sw.metrics())
        },
    );
    meta.note_failures(&sw.failures);
    let mut opportunistic_by_fr = Vec::new();
    for (point, metrics) in sw.cells.into_iter().flatten() {
        meta.note_run();
        meta.absorb_metrics(&metrics);
        opportunistic_by_fr.push(point);
    }
    let rows: Vec<Vec<String>> = cumulative
        .iter()
        .step_by((cumulative.len() / 20).max(1))
        .map(|(t, s, l)| vec![format!("{t:.0}"), s.to_string(), l.to_string()])
        .collect();
    print_table(
        "Fig. 11(a): cumulative chains by origin (flash crowd)",
        &["t(s)", "by seeder", "by leechers"],
        &rows,
    );
    let rows: Vec<Vec<String>> = opportunistic_by_fr
        .iter()
        .map(|(p, f)| vec![format!("{p}%"), format!("{:.2}", f)])
        .collect();
    print_table(
        "Fig. 11(b): fraction of chains from opportunistic seeding vs free-rider share (trace)",
        &["free-riders", "opportunistic fraction"],
        &rows,
    );
    let data = Data { cumulative, opportunistic_by_fr };
    persist("fig11", scale.name(), &data, &meta);
    data
}
