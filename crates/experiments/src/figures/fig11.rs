//! Fig. 11: (a) cumulative chains created by the seeder vs by leechers
//! (opportunistic seeding) in a flash crowd; (b) the opportunistic
//! fraction vs free-rider share under trace arrivals.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{drive, flash_plan, trace_plan, Horizon, Proto, RiderMode, RunOutcome};
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
    let stepping = sweep_points(
        "fig11",
        &mut meta,
        &[()],
        |_| vec![seed],
        |_| "chains by origin (flash crowd)".to_string(),
        |_, seed| {
            let plan = flash_plan(scale.standard_swarm(), 0.0, RiderMode::Aggressive, seed);
            let mut sw = TChainSwarm::new(spec, TChainConfig::default(), plan, seed);
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
                if sw.roster().settled(sw.base()) {
                    break;
                }
            }
            (cumulative, RunOutcome::of(&sw, Horizon::CompliantDone))
        },
    );
    let cumulative: Vec<(f64, u64, u64)> =
        stepping.into_iter().flatten().flat_map(|(c, _)| c).collect();
    // (b) trace with free-rider sweep.
    let groups = sweep_points(
        "fig11",
        &mut meta,
        &[0u32, 25, 50],
        |&fr_pct| vec![0xB0 | fr_pct as u64],
        |&fr_pct| format!("opportunistic {fr_pct}% FR trace"),
        |&fr_pct, seed| {
            let n = scale.standard_swarm();
            let plan = trace_plan(n, fr_pct as f64 / 100.0, RiderMode::Aggressive, seed);
            let mut sw = TChainSwarm::new(spec, TChainConfig::default(), plan, seed);
            let horizon = match scale {
                Scale::Quick => 2_000.0,
                Scale::Paper => 8_000.0,
            };
            let out = drive(&mut sw, Horizon::Fixed(horizon));
            ((fr_pct, sw.chain_stats().opportunistic_fraction()), out)
        },
    );
    let opportunistic_by_fr: Vec<(u32, f64)> =
        groups.into_iter().flatten().map(|(point, _)| point).collect();
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
