//! Fig. 3: completion time and uplink utilization vs swarm size, no
//! free-riders, all four protocols plus the fluid optimum.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::{cross, sweep_points};
use crate::scale::Scale;
use crate::scenario::{completion, flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
use tchain_metrics::Summary;
use tchain_workloads::CapacityClasses;

tchain_obs::json_struct! {
    /// One data point of Fig. 3.
    #[derive(Debug)]
    pub struct Point {
        /// Protocol legend name.
        pub proto: String,
        /// Swarm size.
        pub swarm: usize,
        /// Mean ± CI completion time of compliant leechers (Fig. 3(a)).
        pub completion: Summary,
        /// Mean ± CI uplink utilization (Fig. 3(b)).
        pub utilization: Summary,
    }
}

/// Runs Fig. 3 and returns its points (also printed and saved).
pub fn run(scale: Scale) -> Vec<Point> {
    let mut meta = RunMeta::default();
    let optimal =
        Proto::TChain.file_spec(scale.file_mib()).file_size()
            / CapacityClasses::default().mean_bytes_per_sec();
    let grid = cross(Proto::main_four(), &scale.swarm_sizes());
    let groups = sweep_points(
        "fig03",
        &mut meta,
        &grid,
        |&(_, n)| (0..scale.runs()).map(|r| (n as u64) << 8 | r as u64).collect(),
        |&(proto, n)| format!("{} n={n}", proto.name()),
        |&(proto, n), seed| {
            let plan = flash_plan(n, 0.0, RiderMode::Aggressive, seed);
            let opts = RunOpts::default();
            run_proto(proto, scale.file_mib(), plan, seed, Horizon::CompliantDone, opts)
        },
    );
    let points: Vec<Point> = grid
        .iter()
        .zip(groups)
        .map(|(&(proto, n), outs)| {
            let utils: Vec<f64> = outs.iter().map(|o| o.uplink_utilization).collect();
            Point {
                proto: proto.name().to_string(),
                swarm: n,
                completion: completion(&outs),
                utilization: Summary::of(&utils),
            }
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.proto.clone(),
                p.swarm.to_string(),
                format!("{}", p.completion),
                format!("{:.1}%", p.utilization.mean * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 3: avg download completion time (s) and uplink utilization vs swarm size",
        &["protocol", "swarm", "completion", "uplink util"],
        &rows,
    );
    println!("Optimal (fluid bound file/mean-upload): {optimal:.1} s");
    persist("fig03", scale.name(), &points, &meta);
    points
}
