//! Trace demo: one small flash-crowd T-Chain run with event tracing and
//! phase profiling on.
//!
//! Not a paper figure — the observability showcase. Writes three
//! artifacts under `results/`:
//!
//! - `trace.<scale>.jsonl` — the structured event log, one JSON record
//!   per line (see DESIGN.md "Observability" for the taxonomy);
//! - `trace.<scale>.trace.json` — the same events as a Chrome
//!   `trace_event` document, loadable in Perfetto / `chrome://tracing`;
//! - `trace.<scale>.json` — the run summary with the per-phase profile
//!   and the unified metric snapshot.

use crate::output::{persist, print_table, results_dir, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts, RunOutcome};
use tchain_obs::{to_chrome_trace, to_jsonl};

/// Event-ring capacity for the demo: comfortably above what the small
/// swarm emits, so nothing is overwritten and the JSONL log is complete.
pub const RING_CAPACITY: usize = 1 << 16;

tchain_obs::json_struct! {
    /// Run summary persisted as `results/trace.<scale>.json`.
    #[derive(Debug)]
    pub struct Data {
        /// Leechers in the traced swarm.
        pub swarm: u64,
        /// Events captured in the ring (after any overwrite).
        pub events_recorded: u64,
        /// High-water mark of the event ring.
        pub peak_event_depth: u64,
        /// Simulated seconds covered by the trace.
        pub sim_time: f64,
    }
}

/// Runs the traced flash crowd and writes the trace artifacts.
pub fn run(scale: Scale) -> RunOutcome {
    let n = (scale.standard_swarm() / 4).max(12);
    let seed = 0x7ACE;
    let mut meta = RunMeta::default();
    let out = sweep_points(
        "trace",
        &mut meta,
        &[()],
        |_| vec![seed],
        |_| format!("traced flash crowd n={n}"),
        |_, seed| {
            let plan = flash_plan(n, 0.25, RiderMode::Aggressive, seed);
            run_proto(
                Proto::TChain,
                scale.file_mib().min(2.0),
                plan,
                seed,
                Horizon::CompliantDone,
                RunOpts { trace_capacity: Some(RING_CAPACITY), profile: true, ..Default::default() },
            )
        },
    )
    .into_iter()
    .flatten()
    .next()
    .unwrap_or_default();
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    for (suffix, body) in [
        ("jsonl", to_jsonl(&out.trace_records)),
        ("trace.json", to_chrome_trace(&out.trace_records)),
    ] {
        let path = dir.join(format!("trace.{}.{suffix}", scale.name()));
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
        }
    }
    print!("{}", out.phases.render_table());
    let rows: Vec<Vec<String>> = out
        .metrics
        .iter()
        .map(|(k, v)| vec![k.clone(), v.to_string()])
        .collect();
    print_table("trace run: unified metric snapshot", &["metric", "value"], &rows);
    let data = Data {
        swarm: n as u64,
        events_recorded: out.trace_records.len() as u64,
        peak_event_depth: out.metrics.get("trace.peak_depth").copied().unwrap_or(0),
        sim_time: out.sim_time,
    };
    persist("trace", scale.name(), &data, &meta);
    out
}
