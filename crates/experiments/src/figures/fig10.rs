//! Fig. 10: number of active chains over time, tracking active leechers,
//! under (a) a flash crowd and (b) trace arrivals.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{drive, flash_plan, trace_plan, Horizon, Proto, RiderMode};
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
    let scenarios = [("flash crowd", seed, None), ("trace", seed + 1, Some(horizon))];
    let groups = sweep_points(
        "fig10",
        &mut meta,
        &scenarios,
        |&(_, seed, _)| vec![seed],
        |&(label, _, _)| label.to_string(),
        |&(label, _, stop), seed| {
            let plan = match stop {
                None => flash_plan(scale.standard_swarm(), 0.0, RiderMode::Aggressive, seed),
                Some(_) => {
                    trace_plan(scale.standard_swarm() * 2, 0.0, RiderMode::Aggressive, seed)
                }
            };
            let mut sw = TChainSwarm::new(spec, TChainConfig::default(), plan, seed);
            let out = drive(&mut sw, stop.map_or(Horizon::CompliantDone, Horizon::Fixed));
            let census = Census {
                scenario: label.into(),
                chains: sw.chain_series().downsample(24).iter().collect(),
                leechers: sw.leecher_series().downsample(24).iter().collect(),
            };
            (census, out)
        },
    );
    let out: Vec<Census> = groups.into_iter().flatten().map(|(census, _)| census).collect();
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
