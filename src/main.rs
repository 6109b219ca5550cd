//! `tchain` — the repository's one command line: `tchain run` simulates
//! one swarm, and `tchain <experiment>` regenerates that experiment's
//! `results/` documents. `tchain help` lists the commands; any argument a
//! command does not take exits 2 with that text.

use std::process::exit;

use tchain::baselines::Baseline;
use tchain::experiments::figures as f;
use tchain::experiments::{
    effective_jobs, flash_plan, run_proto, set_jobs, take_failures, Horizon, Proto, RiderMode,
    RunOpts, Scale,
};

/// `run --protocol`'s names, each with the protocol it selects. The
/// parser, `--list-protocols` and the usage text all read this table.
const PROTOCOLS: [(&str, Proto); 5] = [
    ("tchain", Proto::TChain),
    ("bittorrent", Proto::Baseline(Baseline::BitTorrent)),
    ("propshare", Proto::Baseline(Baseline::PropShare)),
    ("fairtorrent", Proto::Baseline(Baseline::FairTorrent)),
    ("random-bt", Proto::Baseline(Baseline::RandomBt)),
];

/// The text `tchain help` prints.
fn usage() -> String {
    let protocols = PROTOCOLS.map(|(name, _)| name).join(" | ");
    format!(
        "tchain — T-Chain (ICDCS'15) reproduction

USAGE:
    tchain run [OPTIONS]                     simulate one swarm
    tchain <fluid experiment> [--jobs N]     regenerate its results/ documents
    tchain net_swarm
    tchain <seeded experiment> [--seed S]
    tchain net_explore [--seed S] [--budget N]
    tchain trace check <file.jsonl>
    tchain net_telemetry check <merged.jsonl> <exposition.prom>

Fluid experiments: fig03 … fig13, table2, ablations, streaming, overhead,
analysis, loss_sweep, trace, all (those, in that order). Net experiments:
net_swarm and the seeded ones, net_attacks, net_chaos, net_scale,
net_telemetry, net_explore. A seeded run that is unsafe, or `all` with a
panicked cell, exits 1. `all` also lists the cells that ran to done but
left compliant leechers unfinished; those do not change its exit status.

TCHAIN_SCALE=quick|paper sets the scale (unset or empty: quick; any other
value exits 2). --jobs N sets a fluid experiment's worker count (default:
available parallelism; the documents do not depend on it). Seeds are
decimal or 0x-prefixed hex.

RUN OPTIONS:
    --protocol <p>      {protocols}
                        (default: tchain)
    --peers <n>         leechers joining as a flash crowd     (default: 60)
    --file-mib <f>      shared file size in MiB               (default: 4)
    --free-riders <x>   fraction of zero-upload free-riders   (default: 0)
    --collude           free-riders send false reception reports (T-Chain attack)
    --seed <s>          RNG seed                              (default: 42)
    --horizon <t>       stop at simulated time t instead of at completion
    --list-protocols    print the protocol names and exit
"
    )
}

/// `run --list-protocols`: one `name  legend` line per protocol.
fn protocol_list() -> String {
    PROTOCOLS.iter().map(|(name, proto)| format!("{name:<11}  {proto}\n")).collect()
}

/// An experiment's entry point: scale, seed and PCT budget in, whether
/// the run was safe out. Its documents are persisted under `results/`.
type Entry = fn(Scale, u64, Option<u32>) -> bool;

/// Every experiment command, with its canonical seed when it takes
/// `--seed`. `all` runs the ones listed before it, in order; those and
/// `all` are the fluid experiments, which sweep cells on the runner's
/// pool and so take `--jobs` ([`sweeps`]).
const EXPERIMENTS: [(&str, Option<u64>, Entry); 25] = [
    ("fig03", None, |s, _, _| done(f::fig03::run(s))),
    ("fig04", None, |s, _, _| done(f::fig04::run(s))),
    ("fig05", None, |s, _, _| done(f::fig05::run(s))),
    ("fig06", None, |s, _, _| done(f::fig06::run(s))),
    ("fig07", None, |s, _, _| done(f::fig07::run(s))),
    ("fig08", None, |s, _, _| done(f::fig08::run(s))),
    ("fig09", None, |s, _, _| done(f::fig09::run(s))),
    ("fig10", None, |s, _, _| done(f::fig10::run(s))),
    ("fig11", None, |s, _, _| done(f::fig11::run(s))),
    ("fig12", None, |s, _, _| done(f::fig12::run(s))),
    ("fig13", None, |s, _, _| done(f::fig13::run(s))),
    ("table2", None, |s, _, _| done(f::table2::run(s))),
    ("ablations", None, |s, _, _| done(f::ablations::run(s))),
    ("streaming", None, |s, _, _| done(f::streaming::run(s))),
    ("overhead", None, |s, _, _| done(f::overhead::run(s))),
    ("analysis", None, |s, _, _| done(f::analysis_sec3::run(s))),
    ("loss_sweep", None, |s, _, _| done(f::loss_sweep::run(s))),
    ("trace", None, |s, _, _| done(f::trace::run(s))),
    ("all", None, |s, _, _| all(s)),
    ("net_swarm", None, |s, _, _| done(f::net_swarm::run(s))),
    ("net_attacks", Some(f::net_attacks::SEED), |s, seed, _| f::net_attacks::run(s, seed).all_safe),
    ("net_chaos", Some(f::net_chaos::SEED), |s, seed, _| f::net_chaos::run(s, seed).all_safe),
    ("net_scale", Some(f::net_scale::SEED), |s, seed, _| f::net_scale::run(s, seed).all_safe),
    ("net_telemetry", Some(f::net_telemetry::SEED), |s, seed, _| {
        f::net_telemetry::run(s, seed).safe
    }),
    ("net_explore", Some(f::net_explore::SEED), |s, seed, b| {
        f::net_explore::run(s, seed, b).all_safe
    }),
];

/// Whether `name` is `all` or an experiment listed before it: the
/// commands whose cells run on the runner's pool.
fn sweeps(name: &str) -> bool {
    name == "all" || EXPERIMENTS.iter().take_while(|e| e.0 != "all").any(|e| e.0 == name)
}

/// The verdict of an experiment that has none to give.
fn done<T>(_: T) -> bool {
    true
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Cmd {
    Help,
    ListProtocols,
    Run(Sim),
    /// `seed` is `Some` exactly for the experiments that take `--seed`.
    Experiment {
        name: &'static str,
        jobs: Option<usize>,
        seed: Option<u64>,
        budget: Option<u32>,
    },
    /// `trace check` (`prom` is `None`) or `net_telemetry check`.
    Check {
        jsonl: String,
        prom: Option<String>,
    },
}

/// `tchain run`'s swarm.
#[derive(Debug, PartialEq)]
struct Sim {
    protocol: Proto,
    peers: usize,
    file_mib: f64,
    free_riders: f64,
    collude: bool,
    seed: u64,
    horizon: Option<f64>,
}

/// Parses the arguments after the program name. Pure, so tests start
/// no process; `Err` is the message printed above the usage text.
fn parse(args: &[String]) -> Result<Cmd, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] => Err("no command given".into()),
        ["help" | "-h" | "--help"] => Ok(Cmd::Help),
        ["run", rest @ ..] => parse_run(rest),
        ["trace", "check", jsonl] => Ok(Cmd::Check { jsonl: jsonl.to_string(), prom: None }),
        ["net_telemetry", "check", jsonl, prom] => {
            Ok(Cmd::Check { jsonl: jsonl.to_string(), prom: Some(prom.to_string()) })
        }
        [name, rest @ ..] => parse_experiment(name, rest),
    }
}

fn parse_experiment(name: &str, rest: &[&str]) -> Result<Cmd, String> {
    let &(name, mut seed, _) = EXPERIMENTS
        .iter()
        .find(|&&(n, _, _)| n == name)
        .ok_or_else(|| format!("unknown command '{name}'"))?;
    let (mut jobs, mut budget) = (None, None);
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        let takes = match flag {
            "--jobs" => sweeps(name),
            "--seed" => seed.is_some(),
            "--budget" => name == "net_explore",
            _ => false,
        };
        if !takes {
            return Err(format!("{name} does not take '{flag}'"));
        }
        let n = number(flag, it.next())?;
        let bad = || format!("{flag} {n} is out of range");
        match flag {
            "--jobs" => jobs = Some(usize::try_from(n).ok().filter(|&j| j > 0).ok_or_else(bad)?),
            "--seed" => seed = Some(n),
            _ => budget = Some(u32::try_from(n).map_err(|_| bad())?),
        }
    }
    Ok(Cmd::Experiment { name, jobs, seed, budget })
}

fn parse_run(rest: &[&str]) -> Result<Cmd, String> {
    let mut sim = Sim {
        protocol: Proto::TChain,
        peers: 60,
        file_mib: 4.0,
        free_riders: 0.0,
        collude: false,
        seed: 42,
        horizon: None,
    };
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--protocol" => {
                let name: String = value(flag, it.next())?;
                sim.protocol = PROTOCOLS
                    .iter()
                    .find(|(n, _)| n.eq_ignore_ascii_case(&name))
                    .map(|&(_, proto)| proto)
                    .ok_or_else(|| format!("unknown protocol '{name}'"))?;
            }
            "--peers" => sim.peers = value(flag, it.next())?,
            "--file-mib" => sim.file_mib = value(flag, it.next())?,
            "--free-riders" => sim.free_riders = value(flag, it.next())?,
            "--collude" => sim.collude = true,
            "--seed" => sim.seed = number(flag, it.next())?,
            "--horizon" => sim.horizon = Some(value(flag, it.next())?),
            "--list-protocols" => return Ok(Cmd::ListProtocols),
            "-h" | "--help" => return Ok(Cmd::Help),
            _ => return Err(format!("run does not take '{flag}'")),
        }
    }
    if sim.peers == 0 {
        return Err("--peers must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&sim.free_riders) {
        return Err("--free-riders must be in [0, 1]".into());
    }
    Ok(Cmd::Run(sim))
}

/// The value following `flag`, parsed with `FromStr`.
fn value<T: std::str::FromStr>(flag: &str, v: Option<&&str>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("missing value for {flag}"))?;
    v.parse().map_err(|_| format!("bad {flag} {v:?}"))
}

/// The integer following `flag`: `0x`-prefixed hex or decimal.
fn number(flag: &str, v: Option<&&str>) -> Result<u64, String> {
    let v = v.ok_or_else(|| format!("missing value for {flag}"))?;
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
    .ok_or_else(|| format!("bad {flag} {v:?}, expected a u64"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Err(e) => {
            eprintln!("tchain: {e}\n\n{}", usage());
            2
        }
        Ok(Cmd::Help) => {
            print!("{}", usage());
            0
        }
        Ok(Cmd::ListProtocols) => {
            print!("{}", protocol_list());
            0
        }
        Ok(Cmd::Run(sim)) => {
            simulate(&sim);
            0
        }
        Ok(Cmd::Experiment { name, jobs, seed, budget }) => experiment(name, jobs, seed, budget),
        Ok(Cmd::Check { jsonl, prom }) => check_jsonl(&jsonl)
            .and_then(|()| prom.map_or(Ok(()), |prom| check_exposition(&prom)))
            .err()
            .unwrap_or(0),
    };
    exit(code)
}

/// Runs one experiment and returns the exit code: 2 when `TCHAIN_SCALE`
/// names no scale (nothing runs), 1 when it was unsafe (for `all`: a
/// cell panicked), else 0. With the `tchain_canary` cfg, `net_explore`
/// is the mutation drill and its `all_safe` means the seeded bug was
/// found and shrunk.
fn experiment(name: &str, jobs: Option<usize>, seed: Option<u64>, budget: Option<u32>) -> i32 {
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("tchain: {e}\n\n{}", usage());
            return 2;
        }
    };
    if let Some(n) = jobs {
        set_jobs(n);
    }
    let canary = name == "net_explore" && tchain::net::canary_armed();
    let jobs_note = sweeps(name).then(|| format!(" | jobs: {}", effective_jobs()));
    let jobs_note = jobs_note.unwrap_or_default();
    let seed_note = seed.map(|s| format!(" | seed: {s:#x}")).unwrap_or_default();
    let drill = if canary { " | CANARY DRILL" } else { "" };
    println!("[{name} | scale: {}{jobs_note}{seed_note}{drill}]", scale.name());
    let seed = seed.unwrap_or_default();
    let mut entry = EXPERIMENTS.iter().filter(|&&(n, _, _)| n == name);
    if !entry.all(|&(_, _, run)| run(scale, seed, budget)) {
        let why = if canary { "CANARY DRILL FAILED — bug not found" } else { "FAILED" };
        eprintln!("{name}: {why} — see the output above");
        return 1;
    }
    if canary {
        println!("net_explore: canary drill passed — the seeded bug was found and shrunk");
    }
    0
}

/// Every experiment listed before `all`, in order; false when a cell
/// panicked. Stranded cells are listed but do not fail it yet: ROADMAP
/// item 18 brings their count to 0 and then makes them fail it too.
fn all(scale: Scale) -> bool {
    for &(_, _, run) in EXPERIMENTS.iter().take_while(|&&(n, _, _)| n != "all") {
        run(scale, 0, None);
    }
    let (stranded, panicked): (Vec<_>, Vec<_>) =
        take_failures().into_iter().partition(|f| f.stranded());
    if stranded.is_empty() && panicked.is_empty() {
        println!("\nall experiments completed; no failed cells");
        return true;
    }
    for (cells, what) in [
        (&stranded, "left compliant leechers unfinished and were not averaged"),
        (&panicked, "panicked and were skipped"),
    ] {
        if !cells.is_empty() {
            eprintln!("\n{} cell(s) {what}:", cells.len());
        }
        for f in cells {
            eprintln!("  [{}] {} (seed {:#x}): {}", f.figure, f.scenario, f.seed, f.panic);
        }
    }
    panicked.is_empty()
}

/// The file at `path`; `Err` is exit code 2.
fn read(path: &str) -> Result<String, i32> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        2
    })
}

/// Validates an event log against the JSONL schema; `Err(1)` on the
/// first bad record.
fn check_jsonl(path: &str) -> Result<(), i32> {
    let n = tchain_obs::validate_jsonl(&read(path)?).map_err(|e| {
        eprintln!("{path}: {e}");
        1
    })?;
    println!("{path}: {n} records OK");
    Ok(())
}

/// Requires `net_telemetry`'s headline series in a Prometheus
/// exposition; `Err(1)` names the first one missing.
fn check_exposition(path: &str) -> Result<(), i32> {
    let exposition = read(path)?;
    let series = [
        "# TYPE tchain_fairness_index gauge",
        "tchain_fairness_index ",
        "# TYPE tchain_chain_length histogram",
        "tchain_chain_length_bucket",
        "tchain_peer_uploads",
        "tchain_peer_goodwill",
    ];
    if let Some(missing) = series.iter().find(|s| !exposition.contains(*s)) {
        eprintln!("{path}: missing expected series {missing:?}");
        return Err(1);
    }
    println!("{path}: exposition OK ({} bytes)", exposition.len());
    Ok(())
}

fn simulate(sim: &Sim) {
    let (peers, riders, seed) = (sim.peers, sim.free_riders, sim.seed);
    let mode = if sim.collude { RiderMode::Colluding } else { RiderMode::Aggressive };
    let horizon = match sim.horizon {
        Some(t) => Horizon::Fixed(t),
        None if riders > 0.0 => Horizon::ExtendForFreeRiders(20_000.0),
        None => Horizon::CompliantDone,
    };
    let colluding = if sim.collude { " (colluding)" } else { "" };
    println!(
        "{} — {peers} leechers, {:.0}% free-riders{colluding}, {} MiB, seed {seed}",
        sim.protocol,
        riders * 100.0,
        sim.file_mib
    );
    let plan = flash_plan(peers, riders, mode, seed);
    let out = run_proto(sim.protocol, sim.file_mib, plan, seed, horizon, RunOpts::default());
    println!("simulated time        : {:.0} s", out.sim_time);
    let done = out.compliant_times.len();
    match out.mean_compliant() {
        Some(m) => println!("compliant leechers    : {done} finished, mean {m:.1} s"),
        None => println!("compliant leechers    : none finished"),
    }
    let (done, never) = (out.free_rider_times.len(), out.unfinished_free_riders);
    match out.mean_free_rider() {
        _ if riders <= 0.0 => {}
        Some(m) => {
            println!("free-riders           : {done} finished, mean {m:.1} s ({never} never did)")
        }
        None => println!("free-riders           : NONE finished ({never} lineages starved)"),
    }
    println!("uplink utilization    : {:.1} %", out.uplink_utilization * 100.0);
    if !out.fairness.is_empty() {
        let mean = out.fairness.iter().sum::<f64>() / out.fairness.len() as f64;
        println!("mean fairness factor  : {mean:.2}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Cmd, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn seed_of(args: &[&str]) -> Option<u64> {
        match parse_strs(args) {
            Ok(Cmd::Experiment { seed, .. }) => seed,
            Ok(Cmd::Run(sim)) => Some(sim.seed),
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn seeds_are_hex_or_decimal_and_default_to_the_module_seed() {
        for (name, seed, _) in EXPERIMENTS {
            assert_eq!(seed_of(&[name]), seed, "{name}");
        }
        assert_eq!(seed_of(&["net_chaos"]), Some(0xC405));
        assert_eq!(seed_of(&["net_chaos", "--seed", "0xBEEF"]), Some(0xBEEF));
        assert_eq!(seed_of(&["net_chaos", "--seed", "0Xbeef"]), Some(0xBEEF));
        assert_eq!(seed_of(&["net_chaos", "--seed", "48879"]), Some(48879));
        assert_eq!(seed_of(&["net_chaos", "--seed", "1", "--seed", "2"]), Some(2), "last wins");
        assert_eq!(seed_of(&["fig03"]), None, "a fluid figure has no seed");
        assert_eq!(seed_of(&["run"]), Some(42));
        assert_eq!(seed_of(&["run", "--seed", "0x2A"]), Some(42), "run takes hex seeds too");
        assert_eq!(
            parse_strs(&["net_explore", "--budget", "0x9", "--seed", "7"]),
            Ok(Cmd::Experiment { name: "net_explore", jobs: None, seed: Some(7), budget: Some(9) })
        );
    }

    #[test]
    fn malformed_numbers_are_rejected_not_defaulted() {
        for bad in ["zzz", "0x", "0xg1", "-1", "1.5", "", "18446744073709551616"] {
            let quoted = format!("{bad:?}");
            assert!(number("--seed", Some(&bad)).is_err_and(|e| e.contains(&quoted)), "{bad:?}");
            for cmd in [&["net_chaos", "--seed", bad][..], &["run", "--seed", bad]] {
                let got = parse_strs(cmd);
                assert!(got.as_ref().is_err_and(|e| e.contains(&quoted)), "{cmd:?}: {got:?}");
            }
        }
        assert_eq!(number("--seed", Some(&"18446744073709551615")), Ok(u64::MAX));
        assert_eq!(seed_of(&["net_scale", "--seed", "18446744073709551615"]), Some(u64::MAX));
    }

    #[test]
    fn every_argument_a_command_does_not_take_is_rejected() {
        for args in [
            &[][..],
            &["bogus"],
            &["fig03", "--paper"],
            &["fig03", "--quick"],
            &["net_chaos", "--sed", "5"],
            &["net_swarm", "--seed", "1"],
            &["fig03", "--seed", "1"],
            &["all", "--seed", "1"],
            &["net_chaos", "--budget", "3"],
            &["fig03", "--jobs", "x"],
            &["fig03", "--jobs", "0"],
            &["fig03", "--jobs=2"],
            &["fig03", "--jobs"],
            &["net_scale", "--jobs", "2"],
            &["net_swarm", "--jobs", "1"],
            &["net_chaos", "--seed"],
            &["net_explore", "--budget", "0x100000000"],
            &["fig03", "extra"],
            &["trace", "check"],
            &["trace", "check", "a", "b"],
            &["net_telemetry", "check", "a"],
            &["run", "--jobs", "2"],
            &["run", "--peers"],
            &["run", "--peers", "0"],
            &["run", "--free-riders", "1.5"],
            &["run", "--protocol", "gnutella"],
            &["run", "--protocol", "Original BT"],
            &["run", "--protocol", "bt"],
            &["help", "fig03"],
        ] {
            assert!(parse_strs(args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn every_experiment_and_check_is_a_command() {
        let mut fluid = 0;
        for (name, _, _) in EXPERIMENTS {
            let bare = parse_strs(&[name]);
            assert!(matches!(bare, Ok(Cmd::Experiment { jobs: None, .. })), "{name}: {bare:?}");
            let jobs = parse_strs(&[name, "--jobs", "3"]);
            if sweeps(name) {
                fluid += 1;
                let ok = matches!(jobs, Ok(Cmd::Experiment { jobs: Some(3), .. }));
                assert!(ok, "{name}: {jobs:?}");
            } else {
                assert!(jobs.is_err(), "{name} runs no sweep, so it takes no --jobs");
            }
        }
        assert_eq!(fluid, 19, "fig03 … trace and all");
        assert_eq!(
            parse_strs(&["trace", "check", "t.jsonl"]),
            Ok(Cmd::Check { jsonl: "t.jsonl".into(), prom: None })
        );
        assert_eq!(
            parse_strs(&["net_telemetry", "check", "m.jsonl", "e.prom"]),
            Ok(Cmd::Check { jsonl: "m.jsonl".into(), prom: Some("e.prom".into()) })
        );
        assert_eq!(parse_strs(&["run", "--list-protocols"]), Ok(Cmd::ListProtocols));
        assert_eq!(parse_strs(&["help"]), Ok(Cmd::Help));
    }

    #[test]
    fn every_listed_protocol_name_parses_back_to_its_protocol() {
        let usage = usage();
        let usage_line = usage.lines().find(|l| l.contains("--protocol <p>")).expect("documented");
        let documented: Vec<&str> = usage_line.split_whitespace().skip(2).step_by(2).collect();
        let listing = protocol_list();
        let mut listed = Vec::new();
        for (line, proto) in listing.lines().zip(PROTOCOLS.map(|(_, p)| p)) {
            let (name, legend) = line.split_once("  ").expect("`name  legend`");
            assert_eq!(legend.trim_start(), proto.name(), "{line:?}");
            match parse_strs(&["run", "--protocol", name]) {
                Ok(Cmd::Run(sim)) => assert_eq!(sim.protocol, proto, "{line:?}"),
                other => panic!("{name:?} parsed to {other:?}"),
            }
            listed.push(name);
        }
        assert_eq!(listed, documented, "the usage text names what --list-protocols lists");
        for proto in Proto::with_random_bt() {
            assert!(PROTOCOLS.iter().any(|&(_, p)| p == proto), "{proto} has no name");
        }
    }
}
