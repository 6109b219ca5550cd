//! Observability invariants: the event trace is deterministic per seed,
//! and turning tracing/profiling on must not perturb the simulation.

use tchain_experiments::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
use tchain_obs::{to_chrome_trace, to_jsonl, validate_jsonl, Event};
use tchain_sim::FaultPlan;

const RING: usize = 1 << 15;

fn traced_opts() -> RunOpts {
    RunOpts { trace_capacity: Some(RING), profile: true, ..Default::default() }
}

fn run_once(traced: bool, faults: FaultPlan) -> tchain_experiments::RunOutcome {
    let seed = 0xD3;
    let plan = flash_plan(18, 0.25, RiderMode::Aggressive, seed);
    let opts = if traced { traced_opts() } else { RunOpts::default() };
    let opts = RunOpts { faults, ..opts };
    run_proto(Proto::TChain, 1.0, plan, seed, Horizon::ExtendForFreeRiders(2500.0), opts)
}

#[test]
fn same_seed_byte_identical_jsonl_fault_free() {
    let a = run_once(true, FaultPlan::none());
    let b = run_once(true, FaultPlan::none());
    assert!(!a.trace_records.is_empty(), "traced run buffered no events");
    assert_eq!(to_jsonl(&a.trace_records), to_jsonl(&b.trace_records));
}

#[test]
fn same_seed_byte_identical_jsonl_under_faults() {
    let faults = || FaultPlan::lossy(0x1055, 0.15);
    let a = run_once(true, faults());
    let b = run_once(true, faults());
    assert!(!a.trace_records.is_empty());
    assert!(
        a.trace_records.iter().any(|r| matches!(r.event, Event::Retry { .. })),
        "lossy run should exercise the retry branch"
    );
    assert_eq!(to_jsonl(&a.trace_records), to_jsonl(&b.trace_records));
}

#[test]
fn tracing_off_regression_fault_free() {
    let plain = run_once(false, FaultPlan::none());
    let traced = run_once(true, FaultPlan::none());
    assert!(!plain.metrics.contains_key("trace.peak_depth"));
    assert!(plain.trace_records.is_empty());
    assert!(traced.metrics["trace.peak_depth"] > 0);
    assert!(
        plain.deterministic_eq(&traced),
        "tracing perturbed the simulation:\nplain  {:?}\ntraced {:?}",
        plain.recovery,
        traced.recovery
    );
}

#[test]
fn tracing_off_regression_under_faults() {
    let faults = || FaultPlan::lossy(0xFA7, 0.2);
    let plain = run_once(false, faults());
    let traced = run_once(true, faults());
    assert!(plain.deterministic_eq(&traced), "tracing perturbed the faulted simulation");
}

#[test]
fn tracing_off_regression_baseline() {
    let seed = 0xBA5E;
    let mk = |opts: RunOpts| {
        let plan = flash_plan(16, 0.0, RiderMode::Aggressive, seed);
        run_proto(
            Proto::Baseline(tchain_baselines::Baseline::BitTorrent),
            1.0,
            plan,
            seed,
            Horizon::CompliantDone,
            opts,
        )
    };
    let plain = mk(RunOpts::default());
    let traced = mk(traced_opts());
    assert!(!traced.trace_records.is_empty(), "baseline tracer buffered no events");
    assert!(plain.deterministic_eq(&traced));
}

/// The parallel runner must not perturb traced runs: sweeping the same
/// seeds with 1 worker and 2 workers yields byte-identical trace JSONL
/// and deterministically equal outcomes.
#[test]
fn traced_sweep_is_jobs_invariant() {
    use tchain_experiments::{set_jobs, sweep, take_failures};
    let seeds: [u64; 4] = [0xD3, 0xD4, 0xD5, 0xD6];
    let run_all = |jobs: usize| {
        set_jobs(jobs);
        let sw = sweep(
            "trace-equiv",
            &seeds,
            |&s| (format!("seed {s:#x}"), s),
            |&s| {
                let plan = flash_plan(14, 0.25, RiderMode::Aggressive, s);
                let opts = RunOpts { faults: FaultPlan::lossy(s, 0.1), ..traced_opts() };
                run_proto(Proto::TChain, 1.0, plan, s, Horizon::ExtendForFreeRiders(2000.0), opts)
            },
        );
        set_jobs(0);
        assert!(sw.failures.is_empty(), "traced cells must not panic");
        sw.cells.into_iter().flatten().collect::<Vec<_>>()
    };
    let sequential = run_all(1);
    let parallel = run_all(2);
    assert_eq!(sequential.len(), seeds.len());
    for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        assert!(!a.trace_records.is_empty(), "seed {i} buffered no events");
        assert!(a.deterministic_eq(b), "seed {i} diverged between 1 and 2 workers");
        assert_eq!(
            to_jsonl(&a.trace_records),
            to_jsonl(&b.trace_records),
            "trace JSONL of seed {i} diverged between 1 and 2 workers"
        );
    }
    take_failures();
}

#[test]
fn trace_exports_validate() {
    let out = run_once(true, FaultPlan::none());
    let jsonl = to_jsonl(&out.trace_records);
    let chrome = to_chrome_trace(&out.trace_records);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("}"));
    assert_eq!(validate_jsonl(&jsonl), Ok(out.trace_records.len()));
}
