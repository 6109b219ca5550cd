//! Fig. 3: completion time and uplink utilization vs swarm size, no
//! free-riders, all four protocols plus the fluid optimum.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
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

/// One runner cell: a single `(protocol, swarm size, repeat)` simulation.
struct Cell {
    proto: Proto,
    n: usize,
    seed: u64,
}

/// Runs Fig. 3 and returns its points (also printed and saved).
pub fn run(scale: Scale) -> Vec<Point> {
    let mut points = Vec::new();
    let mut meta = RunMeta::default();
    let optimal =
        Proto::TChain.file_spec(scale.file_mib()).file_size()
            / CapacityClasses::default().mean_bytes_per_sec();
    let mut cells = Vec::new();
    for proto in Proto::main_four() {
        for &n in &scale.swarm_sizes() {
            for r in 0..scale.runs() {
                cells.push(Cell { proto, n, seed: (n as u64) << 8 | r as u64 });
            }
        }
    }
    let file_mib = scale.file_mib();
    let sw = sweep(
        "fig03",
        &cells,
        |c| (format!("{} n={}", c.proto.name(), c.n), c.seed),
        |c| {
            let plan = flash_plan(c.n, 0.0, RiderMode::Aggressive, c.seed);
            run_proto(c.proto, file_mib, plan, c.seed, Horizon::CompliantDone, RunOpts::default())
        },
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    for proto in Proto::main_four() {
        for &n in &scale.swarm_sizes() {
            let mut times = Vec::new();
            let mut utils = Vec::new();
            for _ in 0..scale.runs() {
                if let Some(out) = outs.next().flatten() {
                    meta.absorb(&out);
                    if let Some(m) = out.mean_compliant() {
                        times.push(m);
                    }
                    utils.push(out.uplink_utilization);
                }
            }
            points.push(Point {
                proto: proto.name().to_string(),
                swarm: n,
                completion: Summary::of(&times),
                utilization: Summary::of(&utils),
            });
        }
    }
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
