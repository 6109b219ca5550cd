//! Fig. 4: T-Chain under (a) file-size and (b) swarm-size sweeps.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{completion, flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
use tchain_metrics::Summary;

tchain_obs::json_struct! {
    /// The two sweeps of Fig. 4.
    #[derive(Debug)]
    pub struct Data {
        /// Fig. 4(a): `(file MiB, completion)` at the standard swarm size.
        pub file_sweep: Vec<(f64, Summary)>,
        /// Fig. 4(b): `(swarm size, completion)` at the standard file size.
        pub swarm_sweep: Vec<(usize, Summary)>,
    }
}

/// Runs Fig. 4 and returns the two series.
pub fn run(scale: Scale) -> Data {
    let runs = scale.runs().min(4); // sweeps multiply quickly
    let mut meta = RunMeta::default();
    // `(file MiB, swarm size, seed base)`: the file sweep, then the swarm sweep.
    let files = scale.file_sweep_mib();
    let by_file = files.iter().map(|&mib| (mib, scale.standard_swarm(), (mib as u64) << 8));
    let by_swarm =
        scale.swarm_sweep().into_iter().map(|n| (scale.file_mib(), n, (n as u64) << 8 | 0xF4));
    let grid: Vec<(f64, usize, u64)> = by_file.chain(by_swarm).collect();
    let groups = sweep_points(
        "fig04",
        &mut meta,
        &grid,
        |&(_, _, base)| (0..runs).map(|r| base | r as u64).collect(),
        |&(mib, n, _)| format!("T-Chain {mib} MiB n={n}"),
        |&(mib, n, _), seed| {
            let plan = flash_plan(n, 0.0, RiderMode::Aggressive, seed);
            run_proto(Proto::TChain, mib, plan, seed, Horizon::CompliantDone, RunOpts::default())
        },
    );
    let mut series =
        grid.iter().zip(groups).map(|(&(mib, n, _), outs)| (mib, n, completion(&outs)));
    let file_sweep: Vec<(f64, Summary)> =
        series.by_ref().take(files.len()).map(|(mib, _, s)| (mib, s)).collect();
    let swarm_sweep: Vec<(usize, Summary)> = series.map(|(_, n, s)| (n, s)).collect();
    let rows: Vec<Vec<String>> =
        file_sweep.iter().map(|(m, s)| vec![format!("{m}"), format!("{s}")]).collect();
    print_table("Fig. 4(a): T-Chain completion time vs file size", &["MiB", "completion (s)"], &rows);
    let rows: Vec<Vec<String>> =
        swarm_sweep.iter().map(|(n, s)| vec![format!("{n}"), format!("{s}")]).collect();
    print_table("Fig. 4(b): T-Chain completion time vs swarm size", &["swarm", "completion (s)"], &rows);
    let data = Data { file_sweep, swarm_sweep };
    persist("fig04", scale.name(), &data, &meta);
    data
}
