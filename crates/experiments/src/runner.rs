//! Deterministic parallel experiment runner.
//!
//! A figure states its grid once: it hands [`sweep_points`] its points
//! (protocol × swarm size, file size, free-rider share, …), each point's
//! seeds, a label and a cell function. The runner flattens that into
//! *cells* — one `(point, seed)` simulation each — point by point, runs
//! them through [`sweep`] and books every completed cell into the
//! figure's [`RunMeta`] ([`Absorb`]), returning each point's outputs in
//! point order.
//!
//! [`sweep`] executes the cells on a work-stealing `std::thread::scope`
//! pool and reassembles the results in canonical (submission) order.
//! Because each cell owns its RNG, its swarm, its tracer ring and its
//! [`crate::RunOutcome`], and because every aggregation step (CDFs,
//! [`RunMeta`] booking, table rows) happens single-threaded after the
//! pool joins, the persisted `results/*.json` and trace JSONL are
//! identical for any worker count — including 1, which runs the exact
//! same guarded code path inline.
//!
//! Worker count: `tchain <fluid experiment> --jobs N` (see [`set_jobs`]),
//! otherwise the machine's available parallelism.
//!
//! A cell that panics does not torch the sweep: the panic is caught,
//! the cell's slot stays empty ([`None`]) and a [`FailedCell`] record —
//! scenario label, seed, panic message — is kept on the returned
//! [`Sweep`], in the figure's [`RunMeta`] (by [`sweep_points`]) and in a
//! process-wide registry that `tchain all` drains into its end-of-run
//! summary ([`take_failures`]). [`sweep_points`] records a cell the
//! verdict fails ([`crate::RunOutcome::verdict`]) alike. Neither books a run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::output::{Absorb, RunMeta};
use crate::scenario::STRANDED;

/// Process-wide `--jobs` override (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide failed-cell registry, drained by [`take_failures`].
static FAILURES: Mutex<Vec<FailedCell>> = Mutex::new(Vec::new());

/// Forces the worker count for subsequent [`sweep`] calls (the `--jobs`
/// flag). `0` clears the override.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`sweep`] will use: the [`set_jobs`] override if
/// present, else available parallelism.
pub fn effective_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

tchain_obs::json_struct! {
    /// One cell that panicked during a sweep, or that the verdict failed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FailedCell {
        /// Figure / experiment the cell belongs to.
        pub figure: String,
        /// Scenario label (protocol, parameters).
        pub scenario: String,
        /// The cell's seed.
        pub seed: u64,
        /// Why it failed: the panic payload, stringified, or the verdict's
        /// reason (`stranded: …`).
        pub panic: String,
    }
}

impl FailedCell {
    /// Whether the verdict failed the cell, rather than a panic.
    pub fn stranded(&self) -> bool {
        self.panic.starts_with(STRANDED)
    }
}

/// Result of one [`sweep`]: per-cell outputs in canonical (submission)
/// order, with `None` slots for panicked cells, plus their records.
#[derive(Debug)]
pub struct Sweep<T> {
    /// One slot per submitted cell, in submission order.
    pub cells: Vec<Option<T>>,
    /// Panicked cells, in submission order.
    pub failures: Vec<FailedCell>,
}

/// Drains the process-wide failed-cell registry (used by `tchain all` for
/// its end-of-sweep summary).
pub fn take_failures() -> Vec<FailedCell> {
    std::mem::take(&mut *FAILURES.lock().unwrap_or_else(|e| e.into_inner()))
}

fn record_failures(fs: &[FailedCell]) {
    if fs.is_empty() {
        return;
    }
    FAILURES.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(fs);
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every cell through `worker` on up to [`effective_jobs`] scoped
/// threads and returns the outputs in canonical submission order.
///
/// `describe` labels a cell for failure reporting as `(scenario, seed)`.
/// Workers steal the next unclaimed index from a shared counter, so the
/// schedule adapts to uneven cell costs; determinism comes from the
/// index-addressed reassembly, never from the schedule. With one worker
/// (or one cell) everything runs inline on the calling thread through
/// the same panic-guarded path.
pub fn sweep<J, T>(
    figure: &str,
    cells: &[J],
    describe: impl Fn(&J) -> (String, u64) + Sync,
    worker: impl Fn(&J) -> T + Sync,
) -> Sweep<T>
where
    J: Sync,
    T: Send,
{
    let n = cells.len();
    let workers = effective_jobs().clamp(1, n.max(1));
    let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    let guarded = |cell: &J| -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(|| worker(cell))).map_err(panic_message)
    };
    if workers <= 1 {
        for (slot, cell) in slots.iter_mut().zip(cells.iter()) {
            *slot = Some(guarded(cell));
        }
    } else {
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Result<T, String>)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local: Vec<(usize, Result<T, String>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, guarded(&cells[i])));
                    }
                    collected.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
                });
            }
        });
        for (i, r) in collected.into_inner().unwrap_or_else(|e| e.into_inner()) {
            slots[i] = Some(r);
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for (cell, slot) in cells.iter().zip(slots) {
        match slot {
            Some(Ok(v)) => out.push(Some(v)),
            Some(Err(panic)) => {
                let (scenario, seed) = describe(cell);
                failures.push(FailedCell { figure: figure.to_string(), scenario, seed, panic });
                out.push(None);
            }
            // Unreachable: every index < n is claimed exactly once.
            None => out.push(None),
        }
    }
    record_failures(&failures);
    Sweep { cells: out, failures }
}

/// Every `(a, b)` pair, `outer` varying slowest: a figure's two axes as
/// one point list for [`sweep_points`].
pub fn cross<A: Copy, B: Copy>(outer: impl IntoIterator<Item = A>, inner: &[B]) -> Vec<(A, B)> {
    outer.into_iter().flat_map(|a| inner.iter().map(move |&b| (a, b))).collect()
}

/// Runs a figure's grid: every seed of every point, through [`sweep`].
///
/// Cells are submitted point by point, each point's seeds in order;
/// `label` names a point's cells in failure records. Every completed cell
/// is booked into `meta` in submission order. The panicked cells and the
/// ones [`Absorb::book`] refuses go into `meta.failed_cells`, also in
/// submission order, and the result holds one group per point, in point
/// order, of the booked cells' outputs.
pub fn sweep_points<P, T>(
    figure: &str,
    meta: &mut RunMeta,
    points: &[P],
    seeds: impl Fn(&P) -> Vec<u64>,
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P, u64) -> T + Sync,
) -> Vec<Vec<T::Booked>>
where
    P: Sync,
    T: Absorb + Send,
{
    let cells: Vec<(usize, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| seeds(p).into_iter().map(move |seed| (i, seed)))
        .collect();
    let sw = sweep(
        figure,
        &cells,
        |&(i, seed)| (label(&points[i]), seed),
        |&(i, seed)| run(&points[i], seed),
    );
    let mut panics = sw.failures.into_iter();
    let mut groups: Vec<Vec<T::Booked>> = points.iter().map(|_| Vec::new()).collect();
    for (&(i, seed), out) in cells.iter().zip(sw.cells) {
        match out.map(|out| out.book(meta)) {
            Some(Ok(booked)) => groups[i].push(booked),
            Some(Err(panic)) => {
                let scenario = label(&points[i]);
                let cell = FailedCell { figure: figure.to_string(), scenario, seed, panic };
                // `sweep` registered the panics; a refusal joins them here.
                record_failures(std::slice::from_ref(&cell));
                meta.failed_cells.push(cell);
            }
            None => meta.failed_cells.extend(panics.next()),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOutcome;

    /// Serializes tests that touch the process-wide override/registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Forced worker counts for tests, restoring the previous override.
    fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let prev = JOBS_OVERRIDE.swap(n, Ordering::SeqCst);
        let r = f();
        JOBS_OVERRIDE.store(prev, Ordering::SeqCst);
        r
    }

    #[test]
    fn canonical_order_is_kept_for_any_worker_count() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cells: Vec<u64> = (0..37).collect();
        let run = |jobs| {
            with_jobs(jobs, || {
                sweep("t", &cells, |&c| (format!("c{c}"), c), |&c| c * 3).cells
            })
        };
        let seq = run(1);
        assert_eq!(seq, cells.iter().map(|c| Some(c * 3)).collect::<Vec<_>>());
        for jobs in [2, 3, 8] {
            assert_eq!(run(jobs), seq, "jobs={jobs} must reassemble canonically");
        }
        take_failures();
    }

    #[test]
    fn panicking_cell_is_recorded_not_fatal() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cells: Vec<u64> = (0..6).collect();
        let sw = with_jobs(3, || {
            sweep(
                "boom",
                &cells,
                |&c| (format!("cell {c}"), c),
                |&c| {
                    if c == 4 {
                        panic!("cell {c} exploded");
                    }
                    c + 1
                },
            )
        });
        assert_eq!(sw.cells.len(), 6);
        assert!(sw.cells[4].is_none());
        assert_eq!(sw.cells[5], Some(6));
        assert_eq!(sw.failures.len(), 1);
        assert_eq!(sw.failures[0].seed, 4);
        assert_eq!(sw.failures[0].figure, "boom");
        assert!(sw.failures[0].panic.contains("exploded"));
        // The process-wide registry saw it too.
        let drained = take_failures();
        assert!(drained.iter().any(|f| f.figure == "boom" && f.seed == 4));
    }

    #[test]
    fn grouped_sweep_books_completed_cells_in_point_order() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Points of 0, 1 and 4 seeds; seed 21 panics and seed 23 strands
        // 2 of its 5 compliant leechers.
        let points = [("none", vec![]), ("one", vec![10u64]), ("four", vec![20, 21, 22, 23])];
        let run = |jobs| {
            with_jobs(jobs, || {
                let mut meta = RunMeta::default();
                let groups = sweep_points(
                    "grouped",
                    &mut meta,
                    &points,
                    |p| p.1.clone(),
                    |p| p.0.to_string(),
                    |_, seed| {
                        if seed == 21 {
                            panic!("seed {seed} exploded");
                        }
                        let stranded = if seed == 23 { 2 } else { 0 };
                        let out = RunOutcome {
                            compliant_times: vec![1.0; 3],
                            unfinished_compliant: stranded,
                            stranded,
                            sim_time: 50_000.0,
                            metrics: tchain_obs::MetricMap::from([("cells".to_string(), 1)]),
                            ..Default::default()
                        };
                        (seed * 2, out)
                    },
                );
                let groups: Vec<Vec<u64>> =
                    groups.into_iter().map(|g| g.into_iter().map(|(v, _)| v).collect()).collect();
                (groups, meta)
            })
        };
        let (groups, meta) = run(1);
        assert_eq!(groups, vec![vec![], vec![20], vec![40, 44]], "point order, no failed cell");
        let failed: Vec<(&str, u64)> =
            meta.failed_cells.iter().map(|f| (f.scenario.as_str(), f.seed)).collect();
        assert_eq!(failed, [("four", 21), ("four", 23)]);
        assert!(!meta.failed_cells[0].stranded());
        assert!(meta.failed_cells[1].stranded());
        assert_eq!(
            meta.failed_cells[1].panic,
            "stranded: 2 of 5 compliant leechers unfinished at t = 50000 s"
        );
        assert_eq!(meta.runs, 3, "a panicked or stranded cell books no run");
        assert_eq!(meta.metrics["cells"], 3);
        let registered = take_failures();
        assert_eq!(registered.iter().filter(|f| f.stranded()).count(), 1);
        for jobs in [2, 3] {
            let (alt, alt_meta) = run(jobs);
            assert_eq!(alt, groups, "jobs={jobs}");
            assert_eq!(alt_meta.failed_cells, meta.failed_cells, "jobs={jobs}");
            assert_eq!(alt_meta.runs, meta.runs, "jobs={jobs}");
            assert_eq!(alt_meta.metrics, meta.metrics, "jobs={jobs}");
        }
        take_failures();
    }

    #[test]
    fn effective_jobs_is_positive() {
        assert!(effective_jobs() >= 1);
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let sw = sweep("empty", &[] as &[u64], |&c| (String::new(), c), |&c| c);
        assert!(sw.cells.is_empty());
        assert!(sw.failures.is_empty());
    }
}
