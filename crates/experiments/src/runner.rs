//! Deterministic parallel experiment runner.
//!
//! Every figure expands its sweep into a flat list of *cells* — one
//! `(scenario, seed)` simulation each — and hands them to [`sweep`],
//! which executes them on a work-stealing `std::thread::scope` pool and
//! reassembles the results in canonical (submission) order. Because each
//! cell owns its RNG, its swarm, its tracer ring and its
//! [`crate::RunOutcome`], and because every aggregation step (CDFs,
//! [`crate::RunMeta`] merges, table rows) happens single-threaded after
//! the pool joins, the persisted `results/*.json` and trace JSONL are
//! identical for any worker count — including 1, which runs the exact
//! same guarded code path inline.
//!
//! Worker count: `--jobs N` on any experiment binary (see
//! [`parse_jobs_args`]), the `TCHAIN_JOBS` environment variable, or the
//! machine's available parallelism, in that precedence order.
//!
//! A cell that panics does not torch the sweep: the panic is caught,
//! the cell's slot stays empty ([`None`]) and a [`FailedCell`] record —
//! scenario label, seed, panic message — is kept both on the returned
//! [`Sweep`] and in a process-wide registry that `--bin all` drains into
//! its end-of-run summary ([`take_failures`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;


use crate::scale::Scale;

/// Process-wide `--jobs` override (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide failed-cell registry, drained by [`take_failures`].
static FAILURES: Mutex<Vec<FailedCell>> = Mutex::new(Vec::new());

/// Forces the worker count for subsequent [`sweep`] calls (the `--jobs`
/// flag). `0` clears the override.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Scans process arguments for `--jobs N` / `--jobs=N` and applies the
/// override. Every experiment binary calls this first; unknown arguments
/// are left alone for the binary's own parsing.
pub fn parse_jobs_args() {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        let parsed = if let Some(v) = a.strip_prefix("--jobs=") {
            v.parse::<usize>().ok()
        } else if a == "--jobs" {
            args.get(i + 1).and_then(|v| v.parse::<usize>().ok())
        } else {
            None
        };
        if let Some(n) = parsed {
            set_jobs(n.max(1));
            return;
        }
        i += 1;
    }
}

/// The flags the `net_*` binaries share, plus whatever else was passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetArgs {
    /// `--quick` / `--paper`; otherwise `TCHAIN_SCALE`.
    pub scale: Scale,
    /// `--seed N` (hex or decimal); otherwise the binary's default.
    pub seed: u64,
    /// Every other argument, in order, for the binary's own parsing
    /// (`--budget N`, `check <files>`).
    pub rest: Vec<String>,
}

/// Parses the process arguments of a `net_*` binary: applies `--jobs`
/// (see [`parse_jobs_args`]), then `--quick` / `--paper` / `--seed N`.
/// A malformed seed prints `<bin>: bad --seed …` and exits with status 2.
pub fn parse_net_args(bin: &str, default_seed: u64) -> NetArgs {
    parse_jobs_args();
    net_flags(std::env::args().skip(1), Scale::from_env(), default_seed)
        .unwrap_or_else(|bad| bad_flag(bin, "--seed", &bad))
}

/// Parses the value of a numeric flag a `net_*` binary handles itself,
/// `0x`-prefixed hex or decimal; exits with status 2 on anything else.
pub fn parse_u64_flag(bin: &str, flag: &str, v: &str) -> u64 {
    parse_u64(v).unwrap_or_else(|| bad_flag(bin, flag, v))
}

fn bad_flag(bin: &str, flag: &str, v: &str) -> ! {
    eprintln!("{bin}: bad {flag} {v:?}, expected a u64");
    std::process::exit(2)
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// The pure half of [`parse_net_args`]; `Err` carries a bad seed value.
fn net_flags(
    mut args: impl Iterator<Item = String>,
    mut scale: Scale,
    mut seed: u64,
) -> Result<NetArgs, String> {
    let mut rest = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--paper" => scale = Scale::Paper,
            "--seed" => {
                if let Some(v) = args.next() {
                    seed = parse_u64(&v).ok_or(v)?;
                }
            }
            _ => rest.push(a),
        }
    }
    Ok(NetArgs { scale, seed, rest })
}

/// The worker count [`sweep`] will use: the [`set_jobs`] override if
/// present, else `TCHAIN_JOBS`, else available parallelism.
pub fn effective_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("TCHAIN_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

tchain_obs::json_struct! {
    /// One cell that panicked during a sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FailedCell {
        /// Figure / experiment the cell belongs to.
        pub figure: String,
        /// Scenario label (protocol, parameters).
        pub scenario: String,
        /// The cell's seed.
        pub seed: u64,
        /// Panic payload, stringified.
        pub panic: String,
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

impl<T> Sweep<T> {
    /// The completed outcomes in canonical order (panicked cells skipped).
    pub fn into_ok(self) -> Vec<T> {
        self.cells.into_iter().flatten().collect()
    }
}

/// Drains the process-wide failed-cell registry (used by `--bin all` for
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

/// [`sweep`] for a single guarded cell (figures that are one simulation).
pub fn guarded_run<T: Send>(figure: &str, scenario: &str, seed: u64, f: impl Fn() -> T + Sync) -> Option<T> {
    sweep(figure, &[()], |_| (scenario.to_string(), seed), |_| f()).cells.pop().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn net_flags_take_hex_and_decimal_seeds_and_keep_the_rest() {
        let parse = |args: &[&str]| {
            net_flags(args.iter().map(|a| a.to_string()), Scale::Quick, 0xC405)
        };
        assert_eq!(parse(&[]), Ok(NetArgs { scale: Scale::Quick, seed: 0xC405, rest: vec![] }));
        assert_eq!(parse(&["--seed", "0xBEEF"]).unwrap().seed, 0xBEEF);
        assert_eq!(parse(&["--seed", "0Xbeef"]).unwrap().seed, 0xBEEF);
        assert_eq!(parse(&["--seed", "48879"]).unwrap().seed, 48879);
        assert_eq!(parse(&["--seed"]).unwrap().seed, 0xC405, "a trailing --seed is ignored");
        let mixed = parse(&["--jobs", "2", "--paper", "--budget", "9", "--seed", "7", "check"]);
        assert_eq!(
            mixed,
            Ok(NetArgs {
                scale: Scale::Paper,
                seed: 7,
                rest: ["--jobs", "2", "--budget", "9", "check"].map(String::from).to_vec(),
            })
        );
        assert_eq!(parse(&["--paper", "--quick"]).unwrap().scale, Scale::Quick, "last wins");
    }

    #[test]
    fn malformed_numbers_are_rejected_not_defaulted() {
        for bad in ["zzz", "0x", "0xg1", "-1", "1.5", "", "18446744073709551616"] {
            assert_eq!(parse_u64(bad), None, "{bad:?}");
            let got = net_flags(["--seed".to_string(), bad.to_string()].into_iter(), Scale::Quick, 1);
            assert_eq!(got, Err(bad.to_string()), "the bad value is what gets reported");
        }
        assert_eq!(parse_u64("18446744073709551615"), Some(u64::MAX));
    }

    #[test]
    fn canonical_order_is_kept_for_any_worker_count() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cells: Vec<u64> = (0..37).collect();
        let run = |jobs| {
            with_jobs(jobs, || {
                sweep("t", &cells, |&c| (format!("c{c}"), c), |&c| c * 3).into_ok()
            })
        };
        let seq = run(1);
        assert_eq!(seq, cells.iter().map(|c| c * 3).collect::<Vec<_>>());
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
    fn effective_jobs_is_positive() {
        assert!(effective_jobs() >= 1);
    }

    #[test]
    fn guarded_run_returns_value_or_none() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(guarded_run("g", "ok", 1, || 41 + 1), Some(42));
        let r: Option<u32> = guarded_run("g", "bad", 2, || panic!("nope"));
        assert!(r.is_none());
        take_failures();
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let sw = sweep("empty", &[] as &[u64], |&c| (String::new(), c), |&c| c);
        assert!(sw.cells.is_empty());
        assert!(sw.failures.is_empty());
    }
}
