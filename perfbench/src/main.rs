//! `tchain-perfbench`: the repo's one repeatable benchmark.
//!
//! ```text
//! tchain-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tchain-perfbench --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! tchain-perfbench --selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! One workload runs per process (so `peak_rss_mib` is that workload's
//! own) on a single thread. An untraced run prints every end-to-end
//! metric, each timing taken from the fastest pass of every part of an
//! iteration (`stats::Timings`); `--trace 1` is a separate, slower run
//! that prints the per-layer metrics and the tracing overhead. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` beside this package for the
//! workload and layer tables.

mod fluid;
mod layers;
mod metrics;
mod stats;
mod swarm;
mod tcp;
mod traced;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{Values, END_TO_END, PER_LAYER};
use stats::Timings;
use traced::TraceState;
use workloads::Workload;

/// Relative worsening of an end-to-end metric that counts as a
/// regression; `BENCHMARK.json` declares the same numbers. They are as
/// wide as the contract allows because the box is a shared host (README
/// "How the timings are taken").
const BOUNDS: &[(&str, f64)] = &[
    ("setup_s", 0.25),
    ("wall_s", 0.25),
    ("goodput_mib_s", 0.25),
    ("ops_per_s", 0.25),
    ("peak_rss_mib", 0.2),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    /// Tiny inputs and no minimum iteration count: a functional check
    /// for debug builds, never a measurement.
    pub smoke: bool,
    all: bool,
    selfcheck: bool,
    jsonl: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// Fingerprint the first swarm must produce (`swarm_*` only).
    pub expect_fingerprint: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 1,
            seconds: 21.0,
            trace: false,
            smoke: false,
            all: false,
            selfcheck: false,
            jsonl: None,
            trace_out: None,
            expect_fingerprint: None,
        }
    }
}

impl Args {
    /// `--smoke` arguments for unit tests.
    #[cfg(test)]
    pub fn smoke_test(seed: u64) -> Args {
        Args {
            seed,
            seconds: 0.0,
            smoke: true,
            ..Args::default()
        }
    }
}

/// Decides when a run has measured for long enough: it stops before the
/// iteration that would end after `--seconds`, so a run takes `--seconds`
/// and no longer.
pub struct Budget {
    start: Instant,
    lap: Instant,
    taken: usize,
}

impl Budget {
    pub fn start() -> Self {
        let now = Instant::now();
        Budget {
            start: now,
            lap: now,
            taken: 0,
        }
    }

    /// Whether to take another timed iteration: when one as long as the
    /// last still fits in `--seconds`, and until `at_least` are taken in
    /// any case (one under `--smoke`). Call once at the top of each
    /// iteration.
    pub fn more(&mut self, args: &Args, at_least: usize) -> bool {
        let last = self.lap.elapsed().as_secs_f64();
        self.lap = Instant::now();
        let at_least = if args.smoke { 1 } else { at_least };
        let go = self.taken < at_least || self.start.elapsed().as_secs_f64() + last <= args.seconds;
        self.taken += 1;
        go
    }
}

/// Set-up-only samples taken before each timed iteration. A set-up costs
/// microseconds to a millisecond, so `setup_s` is the fastest of many,
/// spread over the whole run like the iterations they sit between.
pub const SETUPS_PER_ITER: usize = 8;

/// Timed iterations an untraced run takes however short `--seconds` is.
pub const MIN_ITERS: usize = 3;

/// What one run measured and whether its outputs were correct.
pub struct Outcome {
    pub values: Values,
    pub correct: bool,
    /// Operations attempted: one compliant leecher download
    /// (`swarm_*`), one frame (`tcp_stream`), one cell (`fluid_figs`).
    pub attempted: u64,
    pub failed: u64,
    /// Timed iterations behind the timings.
    pub samples: usize,
    /// Fastest pass of each part of an iteration; `wall_s` is their sum.
    pub part_s: Vec<f64>,
    /// Median and slowest whole iteration (printed, not gated).
    pub wall_spread: (f64, f64),
    /// The exact quantity every iteration reproduced: a fingerprint
    /// (`swarm_*`) or the virtual completion time (`fluid_figs`).
    pub identity: String,
    rss_sampled: bool,
}

impl Outcome {
    fn new(values: Values) -> Self {
        Outcome {
            values,
            correct: true,
            attempted: 0,
            failed: 0,
            samples: 0,
            part_s: Vec::new(),
            wall_spread: (0.0, 0.0),
            identity: String::new(),
            rss_sampled: false,
        }
    }

    pub fn end_to_end() -> Self {
        Outcome::new(Values::new(END_TO_END))
    }

    pub fn per_layer() -> Self {
        Outcome::new(Values::new(PER_LAYER))
    }

    /// Records the timed iterations of an untraced run: sample count,
    /// spread, `setup_s` and `wall_s`. Returns the steady wall time.
    pub fn set_timings(&mut self, setups: &Timings, walls: &Timings) -> f64 {
        let totals = walls.totals();
        let slowest = totals.iter().copied().fold(0.0, f64::max);
        let wall = walls.steady();
        self.samples = walls.samples();
        self.wall_spread = (stats::median(&totals), slowest);
        self.part_s = walls.steady_parts();
        self.values.set("setup_s", setups.steady());
        self.values.set("wall_s", wall);
        wall
    }

    /// Records `peak_rss_mib`, the first time it is called: an untraced
    /// run calls it after every timed iteration, so the metric is what one
    /// iteration needs, not how far the allocator creeps over however
    /// many iterations fit in `--seconds`.
    pub fn sample_rss(&mut self) {
        if !self.rss_sampled {
            self.rss_sampled = true;
            self.values.set("peak_rss_mib", stats::peak_rss_mib());
        }
    }

    fn ok(&self) -> bool {
        self.correct && self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ok(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON, with all its digits; non-finite values become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: tchain-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      [--smoke] [--jsonl PATH] [--trace-out PATH] [--expect-fingerprint HEX]\n\
         \x20      tchain-perfbench --all | --selfcheck  [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = parse_u64(&value()).unwrap_or_else(|| usage()),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--selfcheck" => a.selfcheck = true,
            "--jsonl" => a.jsonl = Some(value().into()),
            "--trace-out" => a.trace_out = Some(value().into()),
            "--expect-fingerprint" => {
                a.expect_fingerprint = Some(parse_u64(&value()).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    if a.workload.is_some() == (a.all || a.selfcheck) {
        usage();
    }
    a
}

/// Runs one workload in this process and prints its metrics.
fn run_workload(w: Workload, args: &Args) -> ExitCode {
    let trace = TraceState::shared();
    let run = || -> Result<Outcome, tchain_net::NetError> {
        Ok(match (w, args.trace) {
            (Workload::TcpStream, false) => tcp::run(args)?,
            (Workload::TcpStream, true) => tcp::run_traced(args, &trace)?,
            (Workload::FluidFigs, false) => fluid::run(args),
            (Workload::FluidFigs, true) => fluid::run_traced(args, &trace),
            (_, false) => swarm::run(w, args)?,
            (_, true) => swarm::run_traced(w, args, &trace)?,
        })
    };
    let mut out = match run() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: transport failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let (user, sys) = stats::cpu_times_s();
        out.values.set("bench.proc.cpu_user_s", user);
        out.values.set("bench.proc.cpu_sys_s", sys);
    }

    println!(
        "workload {} seed {:#x} trace {} samples {} identity {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        out.samples,
        out.identity
    );
    for (d, v) in out.values.iter() {
        println!("  {:<40} {:>18.6} {}", d.name, v, d.unit);
    }
    if !args.trace {
        println!(
            "  whole iterations: median {:.6} slowest {:.6} s (not gated)",
            out.wall_spread.0, out.wall_spread.1
        );
        let parts: Vec<String> = out.part_s.iter().map(|s| format!("{s:.4}")).collect();
        println!("  wall_s by part: {}", parts.join(" "));
    }
    println!("  ops {} ops_failed {}", out.attempted, out.failed);

    if let Some(path) = &args.trace_out {
        if let Err(e) = trace.borrow().spans.write_jsonl(path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = out.json();
    if let Some(path) = &args.jsonl {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"samples\": {}, \"result\": {line}}}\n",
            w.name(),
            args.seed,
            u8::from(args.trace),
            out.samples
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if out.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `w` in a child process and returns its standard output, or
/// `None` when the child failed.
fn spawn_workload(w: Workload, args: &Args, echo: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &args.jsonl {
        cmd.arg("--jsonl").arg(path);
    }
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if echo {
        print!("{stdout}");
    }
    output.status.success().then_some(stdout)
}

/// `--all`: the six workloads in turn, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        ok &= spawn_workload(w, args, true).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `"name": {"value": x` pairs of a result line.
fn parse_metrics(stdout: &str) -> Vec<(String, f64)> {
    let Some(line) = stdout.lines().last() else {
        return Vec::new();
    };
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            found.push((name, v));
        }
        rest = &tail[end..];
    }
    found
}

/// The `identity` a run printed on its header line.
fn parse_identity(stdout: &str) -> &str {
    stdout
        .lines()
        .next()
        .and_then(|l| l.rsplit(' ').next())
        .unwrap_or("")
}

/// `--selfcheck`: the untraced set twice; fails when an end-to-end
/// metric differs by more than its bound or an exact quantity differs
/// at all, and prints the spread seen.
fn selfcheck(args: &Args) -> ExitCode {
    let args = Args {
        trace: false,
        ..args.clone()
    };
    let mut ok = true;
    for w in Workload::ALL {
        let (Some(a), Some(b)) = (
            spawn_workload(w, &args, false),
            spawn_workload(w, &args, false),
        ) else {
            println!("{:<14} FAILED to run", w.name());
            ok = false;
            continue;
        };
        if parse_identity(&a) != parse_identity(&b) {
            println!(
                "{:<14} identity differs: {} vs {}",
                w.name(),
                parse_identity(&a),
                parse_identity(&b)
            );
            ok = false;
        }
        for ((name, x), (_, y)) in parse_metrics(&a).into_iter().zip(parse_metrics(&b)) {
            let spread = (x - y).abs() / x.min(y);
            let bound = BOUNDS
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, b)| *b);
            let verdict = if spread <= bound {
                "ok"
            } else {
                "OUT OF BOUND"
            };
            println!("{:<14} {name:<16} {x:>14.6} {y:>14.6} spread {spread:.4} bound {bound:.2} {verdict}", w.name());
            ok &= spread <= bound;
        }
    }
    if ok {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    // Numbers from a dev-profile build are not measurements of anything
    // a user runs; refuse to print them.
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("tchain-perfbench: built without optimisation; rebuild with --release (or pass --smoke for a functional check)");
        return ExitCode::from(2);
    }
    if args.selfcheck {
        selfcheck(&args)
    } else if args.all {
        run_all(&args)
    } else {
        run_workload(args.workload.expect("checked by parse_args"), &args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_selfcheck_parser() {
        let mut out = Outcome::end_to_end();
        out.attempted = 3;
        out.values.set("wall_s", 1.25);
        out.values.set("ops_per_s", 4096.5);
        let stdout = format!(
            "workload x seed 0x1 trace 0 samples 3 identity 0xabc\n{}\n",
            out.json()
        );
        let parsed = parse_metrics(&stdout);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert!(parsed.contains(&("wall_s".to_string(), 1.25)));
        assert!(parsed.contains(&("ops_per_s".to_string(), 4096.5)));
        assert_eq!(parse_identity(&stdout), "0xabc");
        assert!(out
            .json()
            .starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_names_are_clean() {
        for d in END_TO_END {
            assert!(
                BOUNDS.iter().any(|(n, b)| *n == d.name && *b <= 0.25),
                "{} has no bound",
                d.name
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
