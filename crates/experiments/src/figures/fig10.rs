//! Fig. 10: number of active chains over time, tracking active leechers,
//! under (a) a flash crowd and (b) trace arrivals.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, trace_plan, Proto, RiderMode};
use tchain_attacks::FluidDriver;
use tchain_core::{TChainConfig, TChainSwarm};

tchain_obs::json_struct! {
    /// One scenario's chain census.
    #[derive(Debug)]
    pub struct Census {
        /// Scenario label.
        pub scenario: String,
        /// `(time, active chains)`.
        pub chains: Vec<(f64, f64)>,
        /// `(time, alive leechers)`.
        pub leechers: Vec<(f64, f64)>,
    }
}

/// Runs both halves of Fig. 10.
pub fn run(scale: Scale) -> Vec<Census> {
    let spec = Proto::TChain.file_spec(scale.file_mib());
    let mut meta = RunMeta::default();
    // (a) flash crowd run to completion; (b) trace arrivals, fixed horizon.
    let seed = 100;
    let horizon = match scale {
        Scale::Quick => 2_500.0,
        Scale::Paper => 8_000.0,
    };
    let cells = [("flash crowd", seed, None), ("trace", seed + 1, Some(horizon))];
    let sw = sweep(
        "fig10",
        &cells,
        |&(label, seed, _)| (label.to_string(), seed),
        |&(label, seed, stop)| {
            let plan = match stop {
                None => flash_plan(scale.standard_swarm(), 0.0, RiderMode::Aggressive, seed),
                Some(_) => {
                    trace_plan(scale.standard_swarm() * 2, 0.0, RiderMode::Aggressive, seed)
                }
            };
            let mut sw =
                TChainSwarm::new(spec, TChainConfig::default(), plan, seed);
            match stop {
                None => sw.run_until_done(),
                Some(t) => sw.run_to(t),
            }
            let census = Census {
                scenario: label.into(),
                chains: sw.chain_series().downsample(24).iter().collect(),
                leechers: sw.leecher_series().downsample(24).iter().collect(),
            };
            (census, sw.metrics())
        },
    );
    meta.note_failures(&sw.failures);
    let mut out = Vec::new();
    for (census, metrics) in sw.cells.into_iter().flatten() {
        meta.note_run();
        meta.absorb_metrics(&metrics);
        out.push(census);
    }
    for c in &out {
        let rows: Vec<Vec<String>> = c
            .chains
            .iter()
            .zip(c.leechers.iter())
            .map(|(ch, le)| {
                vec![format!("{:.0}", ch.0), format!("{:.0}", ch.1), format!("{:.0}", le.1)]
            })
            .collect();
        print_table(
            &format!("Fig. 10 ({}): active chains and leechers over time", c.scenario),
            &["t(s)", "chains", "leechers"],
            &rows,
        );
    }
    persist("fig10", scale.name(), &out, &meta);
    out
}
