//! Fig. 9: trace-driven arrivals, free-rider fraction 0–50 % — compliant
//! completion time per protocol (steady state: first K completions minus
//! a warm-up prefix).

use crate::output::{persist, print_table, RunMeta};
use crate::runner::{cross, sweep_points};
use crate::scale::Scale;
use crate::scenario::{run_proto, trace_plan, Horizon, Proto, RiderMode, RunOpts, RunOutcome};
use tchain_metrics::Summary;

tchain_obs::json_struct! {
    /// One Fig. 9 point.
    #[derive(Debug)]
    pub struct Point {
        /// Protocol legend name.
        pub proto: String,
        /// Free-rider percentage.
        pub fr_pct: u32,
        /// Steady-state compliant completion time.
        pub compliant: Summary,
    }
}

/// The steady-state trace cell Figs. 9 and 12 share: enough arrivals that
/// the scale's measured count of compliant leechers can finish despite
/// the free-rider share, run until they have.
pub(crate) fn trace_cell(scale: Scale, proto: Proto, fr_pct: u32, seed: u64) -> RunOutcome {
    let (measure, _) = scale.trace_completions();
    let horizon = match scale {
        Scale::Quick => 20_000.0,
        Scale::Paper => 100_000.0,
    };
    let frac = fr_pct as f64 / 100.0;
    let arrivals = ((measure as f64 * 1.3) / (1.0 - frac).max(0.2)).ceil() as usize;
    let plan = trace_plan(arrivals, frac, RiderMode::Aggressive, seed);
    let horizon = Horizon::CompliantCount(measure, horizon);
    run_proto(proto, scale.trace_file_mib(), plan, seed, horizon, RunOpts::default())
}

/// Runs Fig. 9.
pub fn run(scale: Scale) -> Vec<Point> {
    let (measure, exclude) = scale.trace_completions();
    let mut meta = RunMeta::default();
    const FR_PCTS: [u32; 4] = [0, 10, 25, 50];
    let runs = scale.runs().min(3);
    let grid = cross(Proto::main_four(), &FR_PCTS);
    let groups = sweep_points(
        "fig09",
        &mut meta,
        &grid,
        |&(_, fr_pct)| (0..runs).map(|r| (fr_pct as u64) << 8 | r as u64 | 0x90).collect(),
        |&(proto, fr_pct)| format!("{} {fr_pct}% FR trace", proto.name()),
        |&(proto, fr_pct), seed| trace_cell(scale, proto, fr_pct, seed),
    );
    let points: Vec<Point> = grid
        .iter()
        .zip(groups)
        .map(|(&(proto, fr_pct), outs)| {
            let mut times = Vec::new();
            for out in outs {
                let steady: Vec<f64> = out
                    .compliant_times
                    .iter()
                    .copied()
                    .skip(exclude)
                    .take(measure.saturating_sub(exclude))
                    .collect();
                if !steady.is_empty() {
                    times.push(steady.iter().sum::<f64>() / steady.len() as f64);
                }
            }
            Point { proto: proto.name().to_string(), fr_pct, compliant: Summary::of(&times) }
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![p.proto.clone(), format!("{}%", p.fr_pct), format!("{}", p.compliant)])
        .collect();
    print_table(
        "Fig. 9: steady-state compliant completion time vs free-rider share (trace arrivals)",
        &["protocol", "free-riders", "completion (s)"],
        &rows,
    );
    persist("fig09", scale.name(), &points, &meta);
    points
}
