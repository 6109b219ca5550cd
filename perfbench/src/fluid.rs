//! `fluid_figs`: the figure-regeneration path — `core::driver`,
//! `baselines`, `sim::flow` and the parallel `experiments::runner` —
//! with nothing from `crates/net` on it.

use std::time::Instant;

use tchain_attacks::PeerPlan;
use tchain_baselines::Baseline;
use tchain_experiments::{
    flash_plan, run_proto, set_jobs, sweep, take_failures, Horizon, Proto, RiderMode, RunOpts,
    RunOutcome,
};

use crate::stats::{fastest, ratio, Timings};
use crate::traced::{SharedTrace, NO_PARENT};
use crate::workloads::{fluid_cells, fluid_shape, Cell, FluidShape};
use crate::{Args, Budget, Outcome, MIN_ITERS, SETUPS_PER_ITER};

/// Worker threads of the timed sweep. One: the box is two cores of a
/// shared host, and a sweep on both of them measures whoever else wants a
/// core. The traced run prices the parallel runner separately.
const JOBS: usize = 1;

/// Worker threads of the traced run's parallel sweep, behind
/// `experiments.runner.parallel_eff`.
const PARALLEL_JOBS: usize = 2;

struct Planned {
    cell: Cell,
    plan: Vec<PeerPlan>,
}

struct Iteration {
    setup_s: f64,
    wall_s: f64,
    /// Seconds each cell's `run_proto` took (0 for a cell that panicked).
    part_s: Vec<f64>,
    /// One slot per cell; `None` when the cell panicked.
    outcomes: Vec<Option<RunOutcome>>,
    cells: Vec<Cell>,
    shape: FluidShape,
}

impl Iteration {
    /// A cell fails when it panicked or hit the horizon with compliant
    /// leechers still unfinished: that is a stalled swarm, not a slow one.
    fn failed(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.as_ref().is_none_or(|o| o.unfinished_compliant > 0))
            .count() as u64
    }

    /// Simulated file MiB delivered to compliant leechers.
    fn delivered_mib(&self) -> f64 {
        self.outcomes
            .iter()
            .flatten()
            .map(|o| o.compliant_times.len() as f64)
            .sum::<f64>()
            * self.shape.file_mib
    }

    fn of_proto(&self, proto: Proto) -> impl Iterator<Item = &RunOutcome> {
        self.cells
            .iter()
            .zip(&self.outcomes)
            .filter(move |(c, _)| c.proto == proto)
            .filter_map(|(_, o)| o.as_ref())
    }

    /// Mean compliant completion time over the T-Chain cells.
    fn virt_completion_s(&self) -> f64 {
        let times: Vec<f64> = self
            .of_proto(Proto::TChain)
            .flat_map(|o| o.compliant_times.iter().copied())
            .collect();
        ratio(times.iter().sum(), times.len() as f64)
    }

    fn deterministic_eq(&self, other: &Iteration) -> bool {
        self.outcomes.len() == other.outcomes.len()
            && self
                .outcomes
                .iter()
                .zip(&other.outcomes)
                .all(|pair| match pair {
                    (Some(a), Some(b)) => a.deterministic_eq(b),
                    (None, None) => true,
                    _ => false,
                })
    }
}

/// Builds every cell's plan: the set-up half.
fn build(args: &Args) -> (FluidShape, Vec<Planned>, f64) {
    let t = Instant::now();
    let shape = fluid_shape(args.smoke);
    let planned = fluid_cells(args.seed, args.smoke)
        .into_iter()
        .map(|cell| Planned {
            cell,
            plan: flash_plan(
                shape.peers,
                shape.free_rider_fraction,
                RiderMode::Aggressive,
                cell.seed,
            ),
        })
        .collect();
    (shape, planned, t.elapsed().as_secs_f64())
}

/// One set-up, then a sweep of the cells on `jobs` workers.
fn iterate(args: &Args, jobs: usize, profile: bool) -> Iteration {
    let (shape, planned, setup_s) = build(args);
    let opts = RunOpts {
        initial_piece_fraction: shape.initial_piece_fraction,
        profile,
        ..RunOpts::default()
    };
    set_jobs(jobs);
    let t = Instant::now();
    let swept = sweep(
        "perfbench-fluid",
        &planned,
        |p| (p.cell.proto.name().to_string(), p.cell.seed),
        |p| {
            let t = Instant::now();
            let outcome = run_proto(
                p.cell.proto,
                shape.file_mib,
                p.plan.clone(),
                p.cell.seed,
                Horizon::CompliantDone,
                opts,
            );
            (outcome, t.elapsed().as_secs_f64())
        },
    );
    let wall_s = t.elapsed().as_secs_f64();
    set_jobs(0);
    for f in take_failures() {
        eprintln!(
            "cell {} seed {:#x} panicked: {}",
            f.scenario, f.seed, f.panic
        );
    }
    Iteration {
        setup_s,
        wall_s,
        part_s: swept
            .cells
            .iter()
            .map(|c| c.as_ref().map_or(0.0, |(_, s)| *s))
            .collect(),
        outcomes: swept.cells.into_iter().map(|c| c.map(|(o, _)| o)).collect(),
        cells: planned.iter().map(|p| p.cell).collect(),
        shape,
    }
}

fn check(out: &mut Outcome, reference: &Iteration, it: &Iteration, what: &str) {
    out.attempted += it.outcomes.len() as u64;
    out.failed += it.failed();
    if !it.deterministic_eq(reference) {
        eprintln!("{what}: outcomes differ from the first iteration's");
        out.correct = false;
    }
}

/// The untraced run. The cells are the parts of an iteration (the sweep
/// runs them one after another on the calling thread), and the first
/// iteration is the reference the later ones must equal.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::end_to_end();
    let (mut setups, mut walls) = (Timings::default(), Timings::default());
    let mut reference = None;
    let mut budget = Budget::start();
    while budget.more(args, MIN_ITERS) {
        for _ in 0..SETUPS_PER_ITER {
            setups.push(&[build(args).2]);
        }
        let it = iterate(args, JOBS, false);
        setups.push(&[it.setup_s]);
        walls.push(&it.part_s);
        check(
            &mut out,
            reference.as_ref().unwrap_or(&it),
            &it,
            "timed iteration",
        );
        reference.get_or_insert(it);
        out.sample_rss();
    }
    let reference = reference.expect("at least one timed iteration");
    let wall = out.set_timings(&setups, &walls);
    out.identity = format!("{:.6}", reference.virt_completion_s());
    out.values
        .set("goodput_mib_s", reference.delivered_mib() / wall);
    out.values
        .set("ops_per_s", reference.outcomes.len() as f64 / wall);
    out
}

/// Seconds the profiler attributed to `phase`, summed over `outcomes`.
fn phase_s<'a>(outcomes: impl Iterator<Item = &'a RunOutcome>, phase: &str) -> f64 {
    outcomes
        .flat_map(|o| o.phases.phases.iter())
        .filter(|p| p.phase == phase)
        .map(|p| p.total_ns as f64 * 1e-9)
        .sum()
}

fn metric_sum<'a>(outcomes: impl Iterator<Item = &'a RunOutcome>, key: &str) -> f64 {
    outcomes
        .map(|o| o.metrics.get(key).copied().unwrap_or(0) as f64)
        .sum()
}

/// Mean wall clock of `proto`'s cells, as each cell timed itself.
fn cell_s(it: &Iteration, proto: Proto) -> f64 {
    let walls: Vec<f64> = it.of_proto(proto).map(|o| o.wall_clock_s).collect();
    ratio(walls.iter().sum(), walls.len() as f64)
}

/// The traced run: parallel, serial and profiled sweeps alternate for
/// `--seconds`. The layers come from the driver's own phase profiler
/// (`RunOpts.profile`), priced against the unprofiled serial sweep.
pub fn run_traced(args: &Args, trace: &SharedTrace) -> Outcome {
    let mut out = Outcome::per_layer();
    let reference = iterate(args, PARALLEL_JOBS, false);
    check(&mut out, &reference, &reference, "warm-up");
    let (mut parallel, mut serial, mut profiled_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_serial = None;
    let mut last_profiled = None;
    let mut budget = Budget::start();
    let mut round = 0u32;
    while budget.more(args, 1) {
        let mut spanned = |name, jobs, profile| {
            let span = trace.borrow_mut().spans.begin(name, NO_PARENT, round);
            let it = iterate(args, jobs, profile);
            trace.borrow_mut().spans.end(span);
            check(&mut out, &reference, &it, name);
            it
        };
        parallel.push(spanned("sweep.parallel", PARALLEL_JOBS, false).wall_s);
        let it = spanned("sweep.serial", 1, false);
        serial.push(it.wall_s);
        last_serial = Some(it);
        let it = spanned("sweep.profiled", 1, true);
        profiled_walls.push(it.wall_s);
        last_profiled = Some(it);
        round += 1;
    }
    let plain = last_serial.expect("at least one serial sweep");
    let profiled = last_profiled.expect("at least one profiled sweep");
    let serial_s = fastest(&serial);
    let tchain = || profiled.of_proto(Proto::TChain);
    let all = || profiled.outcomes.iter().flatten();
    let v = &mut out.values;
    v.set("e2e.virt_completion_s", reference.virt_completion_s());
    v.set("core.driver.cell_s", cell_s(&plain, Proto::TChain));
    v.set("core.driver.membership_s", phase_s(tchain(), "membership"));
    v.set("core.driver.rechoke_s", phase_s(tchain(), "rechoke"));
    v.set(
        "core.driver.chain_rounds_s",
        phase_s(tchain(), "chain_rounds"),
    );
    v.set(
        "core.driver.completions_s",
        phase_s(tchain(), "completions"),
    );
    v.set(
        "core.driver.control_drain_s",
        phase_s(tchain(), "control_drain"),
    );
    v.set(
        "core.driver.stall_sweep_s",
        phase_s(tchain(), "stall_sweep"),
    );
    v.set(
        "core.driver.profile_overhead_share",
        (fastest(&profiled_walls) - serial_s) / serial_s,
    );
    v.set(
        "core.driver.txns_completed",
        metric_sum(tchain(), "txns.completed"),
    );
    v.set(
        "core.driver.chains_ended",
        metric_sum(tchain(), "chains.ended"),
    );
    // The flow solver serves every driver, so its figures cover all cells.
    v.set("sim.flow.advance_s", phase_s(all(), "flow_advance"));
    v.set("sim.flow.flows_started", metric_sum(all(), "flows.started"));
    v.set(
        "sim.flow.flows_completed",
        metric_sum(all(), "flows.completed"),
    );
    v.set(
        "sim.sim_s_per_s",
        plain
            .outcomes
            .iter()
            .flatten()
            .map(|o| o.sim_time)
            .sum::<f64>()
            / serial_s,
    );
    v.set(
        "baselines.bt_cell_s",
        cell_s(&plain, Proto::Baseline(Baseline::BitTorrent)),
    );
    v.set(
        "baselines.randombt_cell_s",
        cell_s(&plain, Proto::Baseline(Baseline::RandomBt)),
    );
    v.set(
        "baselines.fairtorrent_cell_s",
        cell_s(&plain, Proto::Baseline(Baseline::FairTorrent)),
    );
    v.set("experiments.runner.cells", plain.outcomes.len() as f64);
    v.set("experiments.runner.serial_s", serial_s);
    v.set(
        "experiments.runner.parallel_eff",
        serial_s / (PARALLEL_JOBS as f64 * fastest(&parallel)),
    );
    out.samples = serial.len();
    out.identity = format!("{:.6}", reference.virt_completion_s());
    out
}
