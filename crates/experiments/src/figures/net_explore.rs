//! net_explore: PCT schedule exploration over the executable
//! `tchain-net` runtime.
//!
//! Not a paper figure — the PR 10 correctness-tooling experiment. For
//! every scenario in the explore grid (chaos × churn × attack at
//! search-friendly sizes) it runs a budgeted PCT interleaving search:
//! randomized per-peer priorities with depth-bounded change points
//! drive the harness through adversarial run orders, and every run is
//! audited against the full oracle set (key-release legality, §II-D2
//! ledger conservation, plaintext integrity, escrow-backed completion,
//! quarantine evidence). A failing schedule is delta-debug-shrunk to a
//! minimal witness and dumped under `results/` for replay.
//!
//! Each scenario also proves replayability: one sampled schedule is
//! re-run twice from its recording and all three fingerprints must be
//! bit-identical. Under `RUSTFLAGS="--cfg tchain_canary"` the binary
//! flips into drill mode: the seeded `restore()` ledger mutation must
//! be *found* in the crash scenario and shrunk to ≤ 50 choices —
//! proving the searcher has teeth, not just green lights.

use crate::output::{persist, print_table, RunMeta};
use crate::scale::Scale;
use std::time::Instant;
use tchain_net::explore::{
    canary_armed, explore, run_with_plan, scenario_config, scenarios, ExploreConfig,
};
use tchain_obs::OracleKind;
use tchain_sim::{splitmix64, ExplorePlan};

/// Witnesses at or below this size count as "shrunk" for the canary
/// drill (the acceptance bound; real shrinks land far lower).
pub const SHRUNK_WITNESS_MAX: usize = 50;

tchain_obs::json_struct! {
    /// One scenario's search outcome.
    #[derive(Debug)]
    pub struct ExplorePoint {
        /// Scenario grid name.
        pub scenario: String,
        /// PCT runs executed (stops early at the first failure).
        pub runs: u32,
        /// PCT run budget for the scenario.
        pub budget: u32,
        /// Scheduling decision points searched across all runs.
        pub decisions: u64,
        /// An oracle failed somewhere in the budget.
        pub violation: bool,
        /// Failed oracles of the shrunk witness (`pass` when clean).
        pub oracles: String,
        /// Recorded choices before shrinking (when a failure was found).
        pub original_len: Option<usize>,
        /// Choices in the shrunk witness.
        pub witness_len: Option<usize>,
        /// Replay runs the shrinker spent.
        pub shrink_runs: Option<u32>,
        /// Witness file dumped under `results/`.
        pub witness_file: Option<String>,
        /// Record → replay → replay kept one bit-identical fingerprint.
        pub replay_identical: bool,
        /// Wall seconds the scenario's search took.
        pub wall_s: f64,
        /// This build's expectation held (clean search normally; found +
        /// shrunk ledger bug for the crash scenario under the canary).
        pub safe: bool,
    }
}

tchain_obs::json_struct! {
    /// The persisted document.
    #[derive(Debug)]
    pub struct NetExploreDoc {
        /// Master seed of the sweep (swarm seeds and search seeds fork
        /// from it).
        pub seed: u64,
        /// Whether this build carries the `tchain_canary` mutation.
        pub canary: bool,
        /// PCT depth used throughout.
        pub depth: u32,
        /// Per-scenario PCT run budget.
        pub budget: u32,
        /// Scenario outcomes.
        pub points: Vec<ExplorePoint>,
        /// Every scenario met this build's expectation.
        pub all_safe: bool,
    }
}

fn explore_point(
    scenario: &str,
    seed: u64,
    index: u64,
    cfg: &ExploreConfig,
    scale: Scale,
    meta: &mut RunMeta,
) -> ExplorePoint {
    let base = scenario_config(scenario, seed).expect("grid scenario");
    let search_seed = splitmix64(seed ^ (index << 8));
    let t = Instant::now();
    let out = explore(scenario, &base, search_seed, cfg);

    // Replayability proof: sample one fresh perturbed run, then replay
    // its recorded schedule twice; all three fingerprints must agree.
    let probe = ExplorePlan::Pct {
        seed: splitmix64(search_seed ^ 0xF1D0),
        depth: cfg.depth,
        est_steps: cfg.est_steps,
    };
    let recorded = run_with_plan(&base, &probe);
    let sched = recorded.schedule.clone().unwrap_or_default();
    let replay_a = run_with_plan(&base, &ExplorePlan::Replay(sched.clone()));
    let replay_b = run_with_plan(&base, &ExplorePlan::Replay(sched));
    let replay_identical = replay_a.fingerprint == recorded.fingerprint
        && replay_b.fingerprint == recorded.fingerprint
        && replay_a.ticks == recorded.ticks
        && replay_b.ticks == recorded.ticks;
    let wall_s = t.elapsed().as_secs_f64();
    meta.note_run(wall_s);

    let mut witness_file = None;
    let dir = crate::output::results_dir();
    let name = format!("net_explore.{}.{scenario}.witness", scale.name());
    let path = dir.join(&name);
    if let Some(failure) = &out.failure {
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, failure.witness.to_text()));
        match write {
            Ok(()) => witness_file = Some(name),
            Err(e) => eprintln!("warning: failed to dump witness {}: {e}", path.display()),
        }
    } else {
        // A clean search must not leave a stale witness from an earlier
        // (e.g. canary-drill) run lying around for CI to upload.
        let _ = std::fs::remove_file(&path);
    }

    // What counts as expected depends on the build: a clean search
    // normally; under the canary the crash scenario must instead
    // *find* the seeded ledger bug and shrink it within bounds.
    let drill = canary_armed() && scenario == "crash";
    let safe = replay_identical
        && if drill {
            out.failure.as_ref().is_some_and(|f| {
                f.witness.oracles.contains(&OracleKind::Ledger)
                    && f.witness.schedule.len() <= SHRUNK_WITNESS_MAX
            })
        } else {
            out.failure.is_none()
        };
    let failure = out.failure.as_ref();
    ExplorePoint {
        scenario: scenario.to_string(),
        runs: out.runs,
        budget: cfg.budget,
        decisions: out.decisions,
        violation: failure.is_some(),
        oracles: failure.map_or_else(
            || "pass".to_string(),
            |f| {
                f.witness
                    .oracles
                    .iter()
                    .map(OracleKind::name)
                    .collect::<Vec<_>>()
                    .join(",")
            },
        ),
        original_len: failure.map(|f| f.original_len),
        witness_len: failure.map(|f| f.witness.schedule.len()),
        shrink_runs: failure.map(|f| f.shrink_runs),
        witness_file,
        replay_identical,
        wall_s,
        safe,
    }
}

/// Runs the exploration sweep at the default seed.
pub fn run(scale: Scale) -> NetExploreDoc {
    run_with_seed(scale, 0xE5B0)
}

/// Runs the exploration sweep at an explicit seed (CI uses two) with
/// the scale's default budget.
pub fn run_with_seed(scale: Scale, seed: u64) -> NetExploreDoc {
    run_with_budget(scale, seed, None)
}

/// Runs the exploration sweep with an explicit per-scenario PCT run
/// budget (`None` = the scale default: 12 quick, 48 paper).
pub fn run_with_budget(scale: Scale, seed: u64, budget: Option<u32>) -> NetExploreDoc {
    let budget = budget.unwrap_or(match scale {
        Scale::Quick => 12,
        Scale::Paper => 48,
    });
    let cfg = ExploreConfig { budget, ..ExploreConfig::default() };
    let mut meta = RunMeta::default();
    let mut points = Vec::new();
    for (i, scenario) in scenarios().iter().enumerate() {
        points.push(explore_point(scenario, seed, i as u64, &cfg, scale, &mut meta));
    }
    let all_safe = points.iter().all(|p| p.safe);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scenario.clone(),
                format!("{}/{}", p.runs, p.budget),
                p.decisions.to_string(),
                p.oracles.clone(),
                p.witness_len
                    .map_or_else(|| "-".to_string(), |n| {
                        format!("{} (from {})", n, p.original_len.unwrap_or(0))
                    }),
                if p.replay_identical { "bit-equal" } else { "DIVERGED" }.to_string(),
                if p.safe { "ok" } else { "UNSAFE" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "net_explore: PCT schedule search, depth {}{}",
            cfg.depth,
            if canary_armed() { " [CANARY DRILL]" } else { "" }
        ),
        &["scenario", "runs", "decisions", "oracles", "witness", "replay", "safety"],
        &rows,
    );
    println!(
        "net_explore seed {seed:#x}: {} scenarios, canary = {}, all_safe = {all_safe}",
        points.len(),
        canary_armed(),
    );
    let doc = NetExploreDoc {
        seed,
        canary: canary_armed(),
        depth: cfg.depth,
        budget,
        points,
        all_safe,
    };
    persist("net_explore", scale.name(), &doc, &meta);
    doc
}
