//! Loss sweep: control-plane loss rate vs completion-time degradation.
//!
//! Not a paper figure — a robustness experiment for the fault-injection
//! subsystem. Sweeps the control-plane drop probability over a fault-free
//! flash crowd and reports, per protocol, how much the mean compliant
//! completion time degrades and what the recovery machinery (timeouts,
//! retransmissions, watchdog, §II-B4 escrow) had to do to keep chains
//! closing. T-Chain's three-message control plane (report → key) is the
//! exposed surface; the baselines only lose tracker queries and unchoke
//! offers, so they bracket the cost of T-Chain's extra round trips.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{completion, flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
use tchain_baselines::Baseline;
use tchain_metrics::{RecoveryCounters, Summary};
use tchain_sim::FaultPlan;

tchain_obs::json_struct! {
    /// One sweep point: a protocol at one loss rate, aggregated over seeds.
    #[derive(Debug)]
    pub struct Point {
        /// Protocol legend name.
        pub proto: String,
        /// Configured control-plane drop probability, percent.
        pub loss_pct: u32,
        /// Mean ± CI compliant completion time.
        pub completion: Summary,
        /// Recovery counters merged over runs.
        pub recovery: RecoveryCounters,
    }
}

/// Runs the loss sweep for T-Chain and the FairTorrent baseline.
pub fn run(scale: Scale) -> Vec<Point> {
    let n = match scale {
        Scale::Quick => 50,
        Scale::Paper => 200,
    };
    let protos = [Proto::Baseline(Baseline::FairTorrent), Proto::TChain];
    let losses: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];
    let mut meta = RunMeta::default();
    let runs = scale.runs().min(3);
    // `(protocol, loss, seed base)`; a run's seed is its base ^ its repeat.
    let mut grid = Vec::new();
    for (pi, &proto) in protos.iter().enumerate() {
        for (li, &loss) in losses.iter().enumerate() {
            grid.push((proto, loss, ((li as u64) << 10) ^ ((pi as u64) << 6) ^ 0xFA7));
        }
    }
    let groups = sweep_points(
        "loss_sweep",
        &mut meta,
        &grid,
        |&(_, _, base)| (0..runs).map(|r| base ^ r as u64).collect(),
        |&(proto, loss, _)| format!("{} loss={loss}", proto.name()),
        |&(proto, loss, _), seed| {
            let plan = flash_plan(n, 0.0, RiderMode::Aggressive, seed);
            let faults = if loss == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::lossy(seed ^ 0x1055, loss)
            };
            let opts = RunOpts { faults, ..RunOpts::default() };
            run_proto(proto, scale.file_mib(), plan, seed, Horizon::CompliantDone, opts)
        },
    );
    let points: Vec<Point> = grid
        .iter()
        .zip(groups)
        .map(|(&(proto, loss, _), outs)| {
            let mut recovery = RecoveryCounters::default();
            for out in &outs {
                recovery.merge(&out.recovery);
            }
            Point {
                proto: proto.name().to_string(),
                loss_pct: (loss * 100.0).round() as u32,
                completion: completion(&outs),
                recovery,
            }
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.proto.clone(),
                format!("{}%", p.loss_pct),
                format!("{}", p.completion),
                p.recovery.ctrl_dropped.to_string(),
                p.recovery.retransmissions.to_string(),
                p.recovery.keys_escrowed.to_string(),
                p.recovery.watchdog_closures.to_string(),
            ]
        })
        .collect();
    print_table(
        "Loss sweep: completion-time degradation vs control-plane loss rate",
        &["protocol", "loss", "completion (s)", "dropped", "retx", "escrows", "watchdog"],
        &rows,
    );
    persist("loss_sweep", scale.name(), &points, &meta);
    points
}
