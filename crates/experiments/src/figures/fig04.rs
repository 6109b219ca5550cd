//! Fig. 4: T-Chain under (a) file-size and (b) swarm-size sweeps.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
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

/// One runner cell of either sweep.
struct Cell {
    mib: f64,
    n: usize,
    seed: u64,
}

/// Runs Fig. 4 and returns the two series.
pub fn run(scale: Scale) -> Data {
    let runs = scale.runs().min(4); // sweeps multiply quickly
    let mut meta = RunMeta::default();
    let mut cells = Vec::new();
    for &mib in &scale.file_sweep_mib() {
        for r in 0..runs {
            let seed = (mib as u64) << 8 | r as u64;
            cells.push(Cell { mib, n: scale.standard_swarm(), seed });
        }
    }
    for &n in &scale.swarm_sweep() {
        for r in 0..runs {
            let seed = (n as u64) << 8 | r as u64 | 0xF4;
            cells.push(Cell { mib: scale.file_mib(), n, seed });
        }
    }
    let sw = sweep(
        "fig04",
        &cells,
        |c| (format!("T-Chain {} MiB n={}", c.mib, c.n), c.seed),
        |c| {
            let plan = flash_plan(c.n, 0.0, RiderMode::Aggressive, c.seed);
            run_proto(Proto::TChain, c.mib, plan, c.seed, Horizon::CompliantDone, RunOpts::default())
        },
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    let mut collect = |meta: &mut RunMeta| {
        let mut times = Vec::new();
        for _ in 0..runs {
            if let Some(out) = outs.next().flatten() {
                meta.absorb(&out);
                times.extend(out.mean_compliant());
            }
        }
        Summary::of(&times)
    };
    let mut file_sweep = Vec::new();
    for &mib in &scale.file_sweep_mib() {
        let s = collect(&mut meta);
        file_sweep.push((mib, s));
    }
    let mut swarm_sweep = Vec::new();
    for &n in &scale.swarm_sweep() {
        let s = collect(&mut meta);
        swarm_sweep.push((n, s));
    }
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
