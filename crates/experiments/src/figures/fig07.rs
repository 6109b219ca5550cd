//! Fig. 7: 25 % free-riders (large-view + whitewash) in a flash crowd —
//! compliant vs free-rider completion times per protocol.

use crate::output::{fmt_opt, persist, print_table, RunMeta};
use crate::runner::{cross, sweep_points};
use crate::scale::Scale;
use crate::scenario::{completion, flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
use tchain_metrics::Summary;

tchain_obs::json_struct! {
    /// One Fig. 7 point.
    #[derive(Debug)]
    pub struct Point {
        /// Protocol legend name.
        pub proto: String,
        /// Swarm size (leechers incl. free-riders).
        pub swarm: usize,
        /// Compliant completion time.
        pub compliant: Summary,
        /// Free-rider completion time over finished lineages (`None` mean →
        /// nobody finished; the T-Chain result).
        pub free_rider: Option<Summary>,
        /// Fraction of free-rider lineages that finished within the horizon.
        pub fr_finish_fraction: f64,
    }
}

/// The shared engine for Figs. 7 and 8.
pub fn run_with_mode(scale: Scale, mode: RiderMode, tag: &str, title: &str) -> Vec<Point> {
    let horizon = match scale {
        Scale::Quick => 8_000.0,
        Scale::Paper => 50_000.0,
    };
    let mut meta = RunMeta::default();
    let grid = cross(Proto::main_four(), &scale.swarm_sizes());
    let groups = sweep_points(
        tag,
        &mut meta,
        &grid,
        |&(_, n)| (0..scale.runs()).map(|r| (n as u64) << 8 | r as u64 | 0x70).collect(),
        |&(proto, n)| format!("{} n={n} 25% FR", proto.name()),
        |&(proto, n), seed| {
            let plan = flash_plan(n, 0.25, mode, seed);
            run_proto(
                proto,
                scale.file_mib(),
                plan,
                seed,
                Horizon::ExtendForFreeRiders(horizon),
                RunOpts::default(),
            )
        },
    );
    let points: Vec<Point> = grid
        .iter()
        .zip(groups)
        .map(|(&(proto, n), outs)| {
            let frt: Vec<f64> = outs.iter().filter_map(|o| o.mean_free_rider()).collect();
            let finished: usize = outs.iter().map(|o| o.free_rider_times.len()).sum();
            let never: usize = outs.iter().map(|o| o.unfinished_free_riders).sum();
            let total = finished + never;
            Point {
                proto: proto.name().to_string(),
                swarm: n,
                compliant: completion(&outs),
                free_rider: if frt.is_empty() { None } else { Some(Summary::of(&frt)) },
                fr_finish_fraction: if total == 0 { 0.0 } else { finished as f64 / total as f64 },
            }
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.proto.clone(),
                p.swarm.to_string(),
                format!("{}", p.compliant),
                fmt_opt(p.free_rider.as_ref().map(|s| s.mean)),
                format!("{:.0}%", p.fr_finish_fraction * 100.0),
            ]
        })
        .collect();
    print_table(title, &["protocol", "swarm", "compliant (s)", "free-rider (s)", "FR done"], &rows);
    persist(tag, scale.name(), &points, &meta);
    points
}

/// Runs Fig. 7 (aggressive free-riders, no collusion).
pub fn run(scale: Scale) -> Vec<Point> {
    run_with_mode(
        scale,
        RiderMode::Aggressive,
        "fig07",
        "Fig. 7: completion times with 25% free-riders (large-view + whitewash)",
    )
}
