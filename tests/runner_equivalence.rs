//! Thread-count equivalence: a sweep executed with `--jobs 1`, `--jobs 2`
//! and `--jobs <max>` must produce byte-identical results — per-cell
//! outcomes, trace JSONL exports, and the persisted results documents.
//! A persisted document is a pure function of code, scale and seed, so
//! rerunning a figure at the same seed rewrites the same bytes.

use std::path::PathBuf;
use std::sync::Mutex;

use tchain_experiments::figures::{net_explore, net_scale};
use tchain_experiments::runner::cross;
use tchain_experiments::{
    flash_plan, results_dir, run_proto, save_with_meta, set_jobs, sweep, sweep_points,
    take_failures, Horizon, Proto, RiderMode, RunMeta, RunOpts, RunOutcome, Scale,
};
use tchain_obs::to_jsonl;

/// Serializes tests: the `--jobs` override and `TCHAIN_RESULTS` are
/// process-global.
static LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    set_jobs(jobs);
    let r = f();
    set_jobs(0);
    r
}

fn max_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2)
}

/// A small but non-trivial grid: two protocols × three seeds, with
/// free-riders and tracing on, so the cells have uneven costs and the
/// work-stealing schedule actually varies between worker counts.
const PROTOS: [Proto; 2] = [Proto::TChain, Proto::Baseline(tchain_baselines::Baseline::BitTorrent)];
const SEEDS: [u64; 3] = [0xE1, 0xE2, 0xE3];

fn cells() -> Vec<(Proto, u64)> {
    cross(PROTOS, &SEEDS)
}

fn run_cell(proto: Proto, seed: u64) -> RunOutcome {
    let plan = flash_plan(14, 0.25, RiderMode::Aggressive, seed);
    run_proto(
        proto,
        1.0,
        plan,
        seed,
        Horizon::ExtendForFreeRiders(2000.0),
        RunOpts { trace_capacity: Some(1 << 14), profile: true, ..Default::default() },
    )
}

fn run_cells() -> Vec<RunOutcome> {
    let sw = sweep(
        "runner-equivalence",
        &cells(),
        |c| (format!("{} seed={:#x}", c.0.name(), c.1), c.1),
        |&(proto, seed)| run_cell(proto, seed),
    );
    assert!(sw.failures.is_empty(), "equivalence cells must not panic: {:?}", sw.failures);
    sw.cells.into_iter().flatten().collect()
}

#[test]
fn outcomes_and_traces_identical_for_jobs_1_2_max() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = with_jobs(1, run_cells);
    assert_eq!(baseline.len(), cells().len());
    for jobs in [2, max_jobs()] {
        let alt = with_jobs(jobs, run_cells);
        assert_eq!(baseline.len(), alt.len());
        for (i, (a, b)) in baseline.iter().zip(&alt).enumerate() {
            assert!(
                a.deterministic_eq(b),
                "cell {i} diverged between --jobs 1 and --jobs {jobs}"
            );
            assert_eq!(
                to_jsonl(&a.trace_records),
                to_jsonl(&b.trace_records),
                "trace JSONL of cell {i} diverged between --jobs 1 and --jobs {jobs}"
            );
        }
    }
    take_failures();
}

/// The full persistence path the figures take: the grouped sweep books
/// every cell into a `RunMeta`, the figure writes the `{"meta": …,
/// "data": …}` document, and the file bytes must be identical for every
/// worker count.
#[test]
fn persisted_documents_identical_for_jobs_1_2_max() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("tchain-runner-equivalence");
    std::env::set_var("TCHAIN_RESULTS", &dir);
    let doc_for = |jobs: usize| -> String {
        with_jobs(jobs, || {
            let mut meta = RunMeta::default();
            let groups = sweep_points(
                "runner-equivalence",
                &mut meta,
                &PROTOS,
                |_| SEEDS.to_vec(),
                |proto| proto.name().to_string(),
                |&proto, seed| run_cell(proto, seed),
            );
            assert_eq!(meta.runs, cells().len() as u64);
            // The figure "data": per-point mean completions + utilizations.
            let data: Vec<Vec<(f64, f64)>> = groups
                .iter()
                .map(|outs| {
                    outs.iter()
                        .map(|o| (o.mean_compliant().unwrap_or(-1.0), o.uplink_utilization))
                        .collect()
                })
                .collect();
            let path = save_with_meta("equiv", &format!("jobs{jobs}"), &data, &meta).unwrap();
            assert_eq!(path.parent().unwrap(), results_dir());
            std::fs::read_to_string(path).unwrap()
        })
    };
    let one = doc_for(1);
    let two = doc_for(2);
    let many = doc_for(max_jobs());
    std::env::remove_var("TCHAIN_RESULTS");
    std::fs::remove_dir_all(&dir).ok();
    // Different scale tags name different files but identical content:
    // the bytes must not depend on the worker count.
    assert_eq!(one, two, "persisted document differs between --jobs 1 and --jobs 2");
    assert_eq!(one, many, "persisted document differs between --jobs 1 and --jobs max");
    assert!(one.contains("\"failed_cells\""), "envelope keeps the run meta");
    take_failures();
}

/// Runs `figure` once per worker count in `jobs` into a scratch results
/// directory and returns the documents it persisted as `name.quick.json`.
fn persisted_at(name: &str, jobs: &[usize], figure: impl Fn()) -> Vec<String> {
    let dir: PathBuf = std::env::temp_dir().join(format!("tchain-rerun-{name}"));
    std::env::set_var("TCHAIN_RESULTS", &dir);
    let path = dir.join(format!("{name}.quick.json"));
    let docs = jobs
        .iter()
        .map(|&n| {
            with_jobs(n, &figure);
            std::fs::read_to_string(&path).unwrap()
        })
        .collect();
    std::env::remove_var("TCHAIN_RESULTS");
    std::fs::remove_dir_all(&dir).ok();
    docs
}

/// The net runtime's documents carry no host timing and its cells run on
/// the runner's pool: a same-seed rerun of `net_scale` and `net_explore`
/// persists the same bytes, at `--jobs 1` as at the maximum.
#[test]
fn net_documents_identical_for_a_repeated_seed() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = [max_jobs(), max_jobs(), 1];
    let docs = persisted_at("net_scale", &jobs, || {
        assert!(net_scale::run(Scale::Quick, net_scale::SEED).all_safe);
    });
    assert_eq!(docs[0], docs[1], "net_scale document differs between same-seed runs");
    assert_eq!(docs[0], docs[2], "net_scale document differs between --jobs max and 1");
    let docs = persisted_at("net_explore", &jobs, || {
        assert!(net_explore::run(Scale::Quick, net_explore::SEED, None).all_safe);
    });
    assert_eq!(docs[0], docs[1], "net_explore document differs between same-seed runs");
    assert_eq!(docs[0], docs[2], "net_explore document differs between --jobs max and 1");
    take_failures();
}

/// A panicked cell is reported identically regardless of worker count,
/// and never shifts its surviving neighbours out of canonical order.
#[test]
fn failures_are_jobs_invariant() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cs: Vec<u64> = (0..9).collect();
    let run = |jobs: usize| {
        with_jobs(jobs, || {
            sweep(
                "equiv-fail",
                &cs,
                |&c| (format!("cell {c}"), c),
                |&c| {
                    if c % 4 == 2 {
                        panic!("cell {c} exploded");
                    }
                    c * 7
                },
            )
        })
    };
    let base = run(1);
    for jobs in [2, max_jobs()] {
        let alt = run(jobs);
        assert_eq!(base.cells, alt.cells, "jobs={jobs}");
        assert_eq!(base.failures, alt.failures, "jobs={jobs}");
    }
    assert_eq!(base.failures.len(), 2);
    assert_eq!(base.failures[0].seed, 2);
    assert_eq!(base.failures[1].seed, 6);
    take_failures();
}
