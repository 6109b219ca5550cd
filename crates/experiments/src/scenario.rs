//! Scenario builders: workloads × strategies → peer plans, plus the
//! protocol-agnostic run wrapper, horizon loop ([`drive`]) and verdict
//! ([`RunOutcome::verdict`]) every fluid figure cell shares.

use std::time::Instant;

use tchain_attacks::{FluidDriver, GroupId, PeerPlan, Strategy};
use tchain_baselines::{Baseline, BaselineConfig, BaselineSwarm};
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_metrics::{RecoveryCounters, Summary};
use tchain_obs::{MetricMap, PhaseProfile, TraceRecord};
use tchain_proto::{FileSpec, Role};
use tchain_sim::FaultPlan;
use tchain_workloads::{flash_crowd, CapacityClasses, TraceModel};

/// The five quantitative protocols of §IV, unified for the experiment
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// The paper's contribution.
    TChain,
    /// One of the four baselines.
    Baseline(Baseline),
}

impl Proto {
    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            Proto::TChain => "T-Chain",
            Proto::Baseline(b) => b.name(),
        }
    }

    /// The four protocols compared in most figures (legend order).
    pub fn main_four() -> [Proto; 4] {
        [
            Proto::Baseline(Baseline::BitTorrent),
            Proto::Baseline(Baseline::PropShare),
            Proto::Baseline(Baseline::FairTorrent),
            Proto::TChain,
        ]
    }

    /// The Fig. 13 set (adds Random BitTorrent).
    pub fn with_random_bt() -> [Proto; 5] {
        [
            Proto::Baseline(Baseline::RandomBt),
            Proto::Baseline(Baseline::BitTorrent),
            Proto::Baseline(Baseline::PropShare),
            Proto::Baseline(Baseline::FairTorrent),
            Proto::TChain,
        ]
    }

    /// The piece layout each protocol uses (§IV-A): 256 KB pieces of
    /// 16 KB blocks for BitTorrent/PropShare, whole 64 KB pieces for
    /// T-Chain/FairTorrent.
    pub fn file_spec(&self, file_mib: f64) -> FileSpec {
        match self {
            Proto::TChain | Proto::Baseline(Baseline::FairTorrent) => FileSpec::tchain(file_mib),
            _ => FileSpec::bittorrent(file_mib),
        }
    }
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Free-rider behaviour knob for scenario construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RiderMode {
    /// §IV-C: zero upload + large-view + whitewashing.
    Aggressive,
    /// §IV-D: additionally, all free-riders collude in one set.
    Colluding,
}

/// Builds a flash-crowd plan (§IV-A: all joins within 10 s) of `n`
/// leechers with heterogeneous capacities; `fr_fraction` of them are
/// free-riders in the given mode.
pub fn flash_plan(n: usize, fr_fraction: f64, mode: RiderMode, seed: u64) -> Vec<PeerPlan> {
    let times = flash_crowd(n, 10.0, seed);
    let caps = CapacityClasses::default().assign(n, seed ^ 0xA1);
    plan_from(times, caps, fr_fraction, mode, seed)
}

/// Builds a trace-driven plan (§IV-E's continuous stream) of `n`
/// arrivals.
pub fn trace_plan(n: usize, fr_fraction: f64, mode: RiderMode, seed: u64) -> Vec<PeerPlan> {
    let times = TraceModel::default().arrivals(n, seed);
    let caps = CapacityClasses::default().assign(n, seed ^ 0xA1);
    plan_from(times, caps, fr_fraction, mode, seed)
}

fn plan_from(
    times: Vec<f64>,
    caps: Vec<f64>,
    fr_fraction: f64,
    mode: RiderMode,
    seed: u64,
) -> Vec<PeerPlan> {
    assert!((0.0..=1.0).contains(&fr_fraction), "free-rider fraction in [0,1]");
    let n = times.len();
    let fr_count = (fr_fraction * n as f64).round() as usize;
    // Spread free-riders across the arrival order deterministically.
    let mut is_fr = vec![false; n];
    if fr_count > 0 {
        let stride = n as f64 / fr_count as f64;
        for i in 0..fr_count {
            let idx = ((i as f64 + (seed % 7) as f64 / 7.0) * stride) as usize % n;
            is_fr[idx] = true;
        }
        // Collisions from the modulo: top up from the start.
        let mut placed = is_fr.iter().filter(|&&b| b).count();
        let mut i = 0;
        while placed < fr_count && i < n {
            if !is_fr[i] {
                is_fr[i] = true;
                placed += 1;
            }
            i += 1;
        }
    }
    times
        .into_iter()
        .zip(caps)
        .zip(is_fr)
        .map(|((at, capacity), fr)| {
            let strategy = if fr {
                match mode {
                    RiderMode::Aggressive => Strategy::aggressive_free_rider(),
                    RiderMode::Colluding => Strategy::colluding_free_rider(GroupId(0)),
                }
            } else {
                Strategy::Compliant
            };
            PeerPlan { at, capacity, strategy, crash_at: None }
        })
        .collect()
}

/// Uniform result bundle for one protocol run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Per-leecher download durations of finished compliant leechers,
    /// ordered by completion time.
    pub compliant_times: Vec<f64>,
    /// Same for free-riders.
    pub free_rider_times: Vec<f64>,
    /// Compliant leechers that never finished.
    pub unfinished_compliant: usize,
    /// Free-rider identities that never finished.
    pub unfinished_free_riders: usize,
    /// Mean uplink utilization over compliant leechers (Fig. 3(b)).
    pub uplink_utilization: f64,
    /// Fairness factors of finished compliant leechers, ordered by
    /// completion time (Fig. 12).
    pub fairness: Vec<f64>,
    /// Mean per-leecher useful download throughput in bytes/s over
    /// compliant leechers (Fig. 13).
    pub mean_goodput: f64,
    /// Wall-clock of the simulated run in seconds.
    pub sim_time: f64,
    /// Fault-layer delivery statistics and recovery tallies (all zero on
    /// a fault-free run with no departures triggering escrow).
    pub recovery: RecoveryCounters,
    /// Compliant leechers a run-to-done horizon left unfinished (0 under
    /// [`Horizon::Fixed`] and [`Horizon::CompliantCount`]).
    pub stranded: usize,
    /// Host wall-clock seconds [`run_proto`] took (0 elsewhere).
    /// Measurement only — never fed back into the simulation, so it varies
    /// across hosts while the simulated results stay deterministic.
    pub wall_clock_s: f64,
    /// Per-phase wall-clock profile (empty unless profiling was on).
    pub phases: PhaseProfile,
    /// Unified named-metric snapshot from the driver's stats registry.
    pub metrics: MetricMap,
    /// Buffered trace records (empty unless tracing was on).
    pub trace_records: Vec<TraceRecord>,
}

/// How a [`RunOutcome::verdict`] reason begins.
pub(crate) const STRANDED: &str = "stranded: ";

/// Where a fluid run stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Horizon {
    /// Stop with [`FluidDriver::run_until_done`]: once every planned
    /// peer has arrived, no whitewash rejoin is pending and every
    /// compliant leecher finished or departed. Whitewashing free-riders
    /// can therefore run on well past the last compliant completion.
    CompliantDone,
    /// Run to a fixed simulated time.
    Fixed(f64),
    /// Compliant done, then keep going up to the given simulated time so
    /// free-riders can (maybe) finish.
    ExtendForFreeRiders(f64),
    /// Run until this many compliant completions (or the time bound) —
    /// the §IV-E trace methodology ("the first 1,000 compliant leechers
    /// that successfully completed").
    CompliantCount(usize, f64),
}

/// Per-run protocol options beyond the plan itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Fraction of the file pre-loaded into compliant joiners (Fig. 6(b)).
    pub initial_piece_fraction: f64,
    /// Replace finishing leechers with newcomers (Fig. 13 churn).
    pub replace_on_finish: bool,
    /// Override the file with `n` pieces of 64 KB (Fig. 13's small
    /// files); blocks stay at 16 KB for the block-based protocols.
    pub custom_pieces: Option<usize>,
    /// Record structured events into a ring of this capacity.
    pub trace_capacity: Option<usize>,
    /// Profile the driver main loop per [`tchain_obs::Phase`].
    pub profile: bool,
    /// The loss-and-latency link model of the control plane
    /// ([`FaultPlan::none()`] by default: instantaneous and reliable).
    pub faults: FaultPlan,
}

/// Runs one protocol over one plan and collects the uniform outcome.
pub fn run_proto(
    proto: Proto,
    file_mib: f64,
    plan: Vec<PeerPlan>,
    seed: u64,
    horizon: Horizon,
    opts: RunOpts,
) -> RunOutcome {
    let spec = match opts.custom_pieces {
        Some(n) => {
            let piece = 64.0 * 1024.0;
            let block = match proto {
                Proto::TChain | Proto::Baseline(Baseline::FairTorrent) => piece,
                _ => 16.0 * 1024.0,
            };
            FileSpec::custom(n, piece, block)
        }
        None => proto.file_spec(file_mib),
    };
    let wall_start = Instant::now();
    let mut sw = build_swarm(proto, spec, opts, plan, seed);
    if let Some(cap) = opts.trace_capacity {
        sw.base_mut().enable_tracing(cap);
    }
    if opts.profile {
        sw.base_mut().enable_profiling();
    }
    let mut out = drive(&mut *sw, horizon);
    // Last, so the reading covers the collection as well.
    out.wall_clock_s = wall_start.elapsed().as_secs_f64();
    out
}

/// Runs a swarm to `horizon` and collects its outcome: the one horizon
/// loop every fluid cell shares.
pub(crate) fn drive(sw: &mut dyn FluidDriver, horizon: Horizon) -> RunOutcome {
    match horizon {
        Horizon::CompliantDone => sw.run_until_done(),
        Horizon::Fixed(t) => sw.run_to(t),
        Horizon::ExtendForFreeRiders(t) => {
            sw.run_until_done();
            sw.run_to(t);
        }
        Horizon::CompliantCount(k, max_t) => {
            while sw.base().clock.now() < max_t && sw.base().completion_times(true).len() < k {
                let t = sw.base().clock.now() + 25.0;
                sw.run_to(t.min(max_t));
            }
        }
    }
    RunOutcome::of(sw, horizon)
}

/// Constructs the driver for `proto` — the one place the two swarm types
/// are told apart; everything after construction is shared.
pub(crate) fn build_swarm(
    proto: Proto,
    file: FileSpec,
    opts: RunOpts,
    plan: Vec<PeerPlan>,
    seed: u64,
) -> Box<dyn FluidDriver> {
    match proto {
        Proto::TChain => {
            let cfg = TChainConfig {
                initial_piece_fraction: opts.initial_piece_fraction,
                replace_on_finish: opts.replace_on_finish,
                ..Default::default()
            };
            Box::new(TChainSwarm::with_faults(file, cfg, plan, seed, opts.faults))
        }
        Proto::Baseline(b) => {
            let cfg = BaselineConfig {
                initial_piece_fraction: opts.initial_piece_fraction,
                replace_on_finish: opts.replace_on_finish,
            };
            Box::new(BaselineSwarm::with_faults(file, cfg, b, plan, seed, opts.faults))
        }
    }
}

impl RunOutcome {
    /// Reduces a swarm that ran to `horizon` to its outcome.
    pub(crate) fn of(sw: &dyn FluidDriver, horizon: Horizon) -> RunOutcome {
        let base = sw.base();
        let now = base.clock.now();
        let mut compliant: Vec<(f64, f64, Option<f64>)> = Vec::new();
        let (rider_durations, unfinished_free_riders) = sw.free_rider_results();
        let unfinished_compliant = base.unfinished(true);
        let mut goodput_sum = 0.0;
        let mut goodput_n = 0usize;
        // Free-riders are summarised by lineage above.
        for p in base.peers.iter().filter(|p| p.role == Role::Leecher && p.compliant) {
            if let Some(d) = p.done_time {
                compliant.push((d, d - p.join_time, sw.fairness_of(p)));
            }
            let res = p.residence(now);
            if res > 1.0 {
                goodput_sum += p.pieces_down as f64 * base.file.piece_size / res;
                goodput_n += 1;
            }
        }
        compliant.sort_by(|a, b| a.0.total_cmp(&b.0));
        let stranded = match horizon {
            Horizon::CompliantDone | Horizon::ExtendForFreeRiders(_) => unfinished_compliant,
            Horizon::Fixed(_) | Horizon::CompliantCount(..) => 0,
        };
        RunOutcome {
            compliant_times: compliant.iter().map(|c| c.1).collect(),
            free_rider_times: rider_durations,
            unfinished_compliant,
            unfinished_free_riders,
            uplink_utilization: base.mean_uplink_utilization(),
            fairness: compliant.iter().filter_map(|c| c.2).collect(),
            mean_goodput: if goodput_n == 0 { 0.0 } else { goodput_sum / goodput_n as f64 },
            sim_time: now,
            recovery: sw.recovery_counters(),
            stranded,
            wall_clock_s: 0.0,
            phases: base.profiler.profile(),
            metrics: sw.metrics(),
            trace_records: base.trace.records(),
        }
    }

    /// The one verdict on a cell: `Err` with the reason when its
    /// run-to-done horizon left compliant leechers unfinished — a stalled
    /// swarm, not a fast one, so no figure may average it.
    pub fn verdict(&self) -> Result<(), String> {
        let (n, t) = (self.compliant_times.len() + self.unfinished_compliant, self.sim_time);
        match self.stranded {
            0 => Ok(()),
            k => Err(format!("{STRANDED}{k} of {n} compliant leechers unfinished at t = {t:.0} s")),
        }
    }

    /// Mean compliant download completion time, if any finished.
    pub fn mean_compliant(&self) -> Option<f64> {
        mean(&self.compliant_times)
    }

    /// Mean free-rider completion time, if any finished.
    pub fn mean_free_rider(&self) -> Option<f64> {
        mean(&self.free_rider_times)
    }

    /// Equality over the simulation-determined fields only: host-side
    /// measurements (wall clock, profiler timings, trace buffers and the
    /// `trace.*` gauges they feed) are excluded, so a traced run must
    /// compare equal to the same seed run untraced.
    pub fn deterministic_eq(&self, other: &RunOutcome) -> bool {
        fn sim_metrics(m: &MetricMap) -> MetricMap {
            m.iter()
                .filter(|(k, _)| !k.starts_with("trace."))
                .map(|(k, &v)| (k.clone(), v))
                .collect()
        }
        self.compliant_times == other.compliant_times
            && self.free_rider_times == other.free_rider_times
            && self.unfinished_compliant == other.unfinished_compliant
            && self.unfinished_free_riders == other.unfinished_free_riders
            && self.uplink_utilization == other.uplink_utilization
            && self.fairness == other.fairness
            && self.mean_goodput == other.mean_goodput
            && self.sim_time == other.sim_time
            && self.recovery == other.recovery
            && sim_metrics(&self.metrics) == sim_metrics(&other.metrics)
    }
}

/// Mean ± CI over runs of each run's mean compliant completion time.
pub(crate) fn completion<'a>(outs: impl IntoIterator<Item = &'a RunOutcome>) -> Summary {
    let means: Vec<f64> = outs.into_iter().filter_map(RunOutcome::mean_compliant).collect();
    Summary::of(&means)
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_plan_fractions() {
        let plan = flash_plan(100, 0.25, RiderMode::Aggressive, 1);
        assert_eq!(plan.len(), 100);
        let frs = plan.iter().filter(|p| p.strategy.is_free_rider()).count();
        assert_eq!(frs, 25);
        assert!(plan.iter().all(|p| (0.0..10.0).contains(&p.at)));
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn colluding_mode_registers_group() {
        let plan = flash_plan(40, 0.5, RiderMode::Colluding, 2);
        let all_colluders = plan
            .iter()
            .filter(|p| p.strategy.is_free_rider())
            .all(|p| p.strategy.free_rider().unwrap().collude.is_some());
        assert!(all_colluders);
    }

    #[test]
    fn trace_plan_streams_arrivals() {
        let plan = trace_plan(200, 0.0, RiderMode::Aggressive, 3);
        assert_eq!(plan.len(), 200);
        // Arrivals span far beyond a 10 s flash window.
        assert!(plan.last().unwrap().at > 60.0);
    }

    #[test]
    fn run_proto_smoke_tchain_and_bt() {
        let plan = flash_plan(10, 0.0, RiderMode::Aggressive, 4);
        for proto in [Proto::TChain, Proto::Baseline(Baseline::BitTorrent)] {
            let out = run_proto(proto, 1.0, plan.clone(), 4, Horizon::CompliantDone, RunOpts::default());
            assert_eq!(out.compliant_times.len(), 10, "{proto}: everyone finishes");
            assert!(out.mean_compliant().unwrap() > 0.0);
            assert!(out.uplink_utilization >= 0.0 && out.uplink_utilization <= 1.0);
        }
    }

    #[test]
    fn custom_pieces_small_file() {
        let plan = flash_plan(8, 0.0, RiderMode::Aggressive, 5);
        let out = run_proto(
            Proto::TChain,
            1.0,
            plan,
            5,
            Horizon::Fixed(300.0),
            RunOpts { custom_pieces: Some(2), ..Default::default() },
        );
        assert!(out.compliant_times.len() <= 8);
        assert!(out.sim_time >= 300.0);
    }

    #[test]
    fn only_a_run_to_done_horizon_can_strand() {
        // One leecher joins within 10 s and cannot fetch 4 MiB by 12 s.
        let plan = flash_plan(1, 0.0, RiderMode::Aggressive, 6);
        let mut sw = build_swarm(Proto::TChain, FileSpec::tchain(4.0), RunOpts::default(), plan, 6);
        let early = drive(&mut *sw, Horizon::Fixed(12.0));
        assert_eq!((early.unfinished_compliant, early.stranded), (1, 0));
        assert!(early.verdict().is_ok(), "a fixed horizon strands no one");
        let stalled = RunOutcome::of(&*sw, Horizon::CompliantDone);
        assert_eq!(stalled.stranded, 1);
        let reason = stalled.verdict().unwrap_err();
        let stem = "stranded: 1 of 1 compliant leechers unfinished at t = ";
        assert!(reason.starts_with(stem), "{reason}");
    }

    /// ROADMAP 18: the seeder becomes unreachable and, at HEAD, 145 of the
    /// 200 compliant leechers of this Fig. 3 cell (seed `200 << 8 | 3`)
    /// end at the 50 000 s cap. Takes about 7 s in release.
    #[test]
    #[ignore = "ROADMAP 18: 145 of 200 compliant leechers strand"]
    fn fig03_tchain_n200_seed_51203_leaves_no_compliant_leecher_behind() {
        let seed = 200 << 8 | 3;
        let plan = flash_plan(200, 0.0, RiderMode::Aggressive, seed);
        let opts = RunOpts::default();
        let out = run_proto(Proto::TChain, 8.0, plan, seed, Horizon::CompliantDone, opts);
        assert_eq!(out.verdict(), Ok(()));
    }

    #[test]
    fn proto_file_specs() {
        assert_eq!(Proto::TChain.file_spec(128.0).pieces, 2048);
        assert_eq!(Proto::Baseline(Baseline::BitTorrent).file_spec(128.0).pieces, 512);
        assert_eq!(Proto::main_four().len(), 4);
        assert_eq!(Proto::with_random_bt().len(), 5);
    }
}
