//! Schedule exploration: PCT interleaving search with failing-schedule
//! shrinking.
//!
//! Every safety property the harness audits — no unreciprocated key
//! release, §II-D2 ledger conservation, plaintext integrity, §II-B4
//! escrow-backed completion, quarantine evidence — is normally only
//! checked along the one interleaving a seed happens to produce. This
//! module searches *orderings*: it drives [`SwarmHarness`] with
//! [`SwarmConfig::explore`] set, so the indexed scheduler's one decision
//! point (which due peer runs next) is answered by a `tchain-sim`
//! [`SchedPerturber`] sampling PCT-style randomized priorities. Each
//! run records its non-default decisions as a sparse, replayable
//! [`Schedule`]; a failing run is handed to a delta-debugging shrinker
//! ([`shrink`]) that minimizes the schedule to a small human-readable
//! [`Witness`], replayable bit-for-bit forever after.
//!
//! The scenario grid ([`scenarios`]/[`scenario_config`]) spans the
//! chaos × churn × attack surface of PRs 6, 8 and 9 at search-friendly
//! sizes; `tests/schedule_replay.rs` pins previously shrunk witnesses,
//! and the `net_explore` experiment runs the budgeted search in CI.
//! The engine's teeth are proven by a mutation canary: building with
//! `RUSTFLAGS="--cfg tchain_canary"` re-arms the PR 9 `restart()`
//! ledger bug, which the search must find and shrink.
//!
//! [`SwarmHarness`]: crate::SwarmHarness
//! [`SchedPerturber`]: tchain_sim::SchedPerturber

use crate::harness::{run_swarm, SwarmConfig, SwarmReport};
use crate::strategy::{GroupId, Strategy};
use tchain_obs::OracleKind;
use tchain_sim::{splitmix64, ChaosPlan, ChurnPlan, ExplorePlan, FaultPlan, Schedule};

/// `true` when this build carries the seeded `restart()` ledger
/// mutation (`RUSTFLAGS="--cfg tchain_canary"`). The canary drill
/// expects the explorer to find it; everything else expects it off.
pub fn canary_armed() -> bool {
    cfg!(tchain_canary)
}

/// Search knobs for one scenario's exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// PCT depth `d`: priorities plus `d − 1` change points per run.
    pub depth: u32,
    /// Estimated decisions per run (change points sample over this).
    pub est_steps: u64,
    /// PCT runs to sample before declaring the scenario clean.
    pub budget: u32,
    /// Replay runs the shrinker may spend minimizing a failure.
    pub shrink_budget: u32,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { depth: 3, est_steps: 2048, budget: 24, shrink_budget: 160 }
    }
}

/// A minimized failing schedule with everything needed to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// Scenario grid name ([`scenario_config`] input).
    pub scenario: String,
    /// Swarm seed of the scenario.
    pub seed: u64,
    /// PCT seed whose sampled run first failed (provenance).
    pub pct_seed: u64,
    /// PCT depth of the originating search.
    pub depth: u32,
    /// Oracles the shrunk schedule fails (this build's verdict).
    pub oracles: Vec<OracleKind>,
    /// Delivered-frame fingerprint of the shrunk replay.
    pub fingerprint: u64,
    /// The minimized schedule itself.
    pub schedule: Schedule,
}

/// Outcome of one failing run's minimization, with search provenance.
#[derive(Debug)]
pub struct Failure {
    /// The minimized, replay-verified witness.
    pub witness: Witness,
    /// Recorded choices before shrinking.
    pub original_len: usize,
    /// Replay runs the shrinker actually spent.
    pub shrink_runs: u32,
}

/// Outcome of one scenario's budgeted search.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// PCT runs executed (≤ budget; stops at the first failure).
    pub runs: u32,
    /// Scheduling decision points consumed across all runs.
    pub decisions: u64,
    /// The first oracle failure found, minimized — `None` if the
    /// budget drained clean.
    pub failure: Option<Failure>,
}

/// Names of the scenario grid, in canonical order. Each spans a
/// different slice of the chaos × churn × attack surface at a size the
/// search can afford hundreds of runs against.
pub fn scenarios() -> &'static [&'static str] {
    &[
        "baseline",
        "free-riders",
        "lossy",
        "chaos",
        "crash",
        "churn",
        "collusion",
        "chaos-churn",
    ]
}

/// Builds the [`SwarmConfig`] for a named grid scenario at `seed`;
/// `None` for unknown names. Telemetry stays off — the search wants
/// raw throughput, and a witness replay can switch it on after the
/// fact.
pub fn scenario_config(name: &str, seed: u64) -> Option<SwarmConfig> {
    let base = SwarmConfig {
        peers: 8,
        pieces: 8,
        piece_len: 256,
        seed,
        max_ticks: 6000,
        ..SwarmConfig::default()
    };
    let cfg = match name {
        "baseline" => base,
        "free-riders" => SwarmConfig {
            strategies: vec![(6, Strategy::zero_upload()), (7, Strategy::zero_upload())],
            ..base
        },
        "lossy" => SwarmConfig { plan: FaultPlan::lossy(seed ^ 0x10_55, 0.05), ..base },
        "chaos" => SwarmConfig { chaos: ChaosPlan::byzantine(seed ^ 0xB42, 0.05), ..base },
        "crash" => SwarmConfig {
            chaos: ChaosPlan::corrupting(seed ^ 0xC4A5, 0.0).with_crash_restart(8.0, 0.34, 4.0),
            ..base
        },
        "churn" => SwarmConfig {
            churn: ChurnPlan::none().with_joins(6.0, 3, 2.0).with_departures(16.0, 0.25),
            ..base
        },
        "collusion" => SwarmConfig {
            peers: 10,
            strategies: vec![
                (8, Strategy::colluding_free_rider(GroupId(0))),
                (9, Strategy::colluding_free_rider(GroupId(0))),
            ],
            ..base
        },
        "chaos-churn" => SwarmConfig {
            chaos: ChaosPlan::byzantine(seed ^ 0xCC, 0.04),
            churn: ChurnPlan::none().with_flash_crowd(10.0, 4),
            ..base
        },
        _ => return None,
    };
    Some(cfg)
}

/// Runs `base` under the given perturbation plan and returns the
/// audited report.
pub fn run_with_plan(base: &SwarmConfig, plan: &ExplorePlan) -> SwarmReport {
    let cfg = SwarmConfig { explore: Some(plan.clone()), ..base.clone() };
    run_swarm(cfg).expect("mesh transport cannot fail")
}

/// Budgeted PCT search over one scenario: sample up to `cfg.budget`
/// perturbed runs; on the first oracle failure, shrink the recorded
/// schedule and return the replay-verified witness.
pub fn explore(
    scenario: &str,
    base: &SwarmConfig,
    search_seed: u64,
    cfg: &ExploreConfig,
) -> ExploreOutcome {
    let mut decisions = 0u64;
    for run in 0..cfg.budget {
        let pct_seed = splitmix64(search_seed.wrapping_add(u64::from(run)));
        let plan =
            ExplorePlan::Pct { seed: pct_seed, depth: cfg.depth, est_steps: cfg.est_steps };
        let report = run_with_plan(base, &plan);
        decisions += report.sched_decisions;
        if report.failed_oracles.is_empty() {
            continue;
        }
        let original = report.schedule.clone().unwrap_or_default();
        let original_len = original.len();
        let (schedule, shrink_runs) = shrink(base, &original, cfg.shrink_budget);
        // Seal the witness with a fresh replay: its fingerprint and
        // verdict are what the regression suite will pin.
        let sealed = run_with_plan(base, &ExplorePlan::Replay(schedule.clone()));
        return ExploreOutcome {
            runs: run + 1,
            decisions,
            failure: Some(Failure {
                witness: Witness {
                    scenario: scenario.to_string(),
                    seed: base.seed,
                    pct_seed,
                    depth: cfg.depth,
                    oracles: sealed.failed_oracles.clone(),
                    fingerprint: sealed.fingerprint,
                    schedule,
                },
                original_len,
                shrink_runs,
            }),
        };
    }
    ExploreOutcome { runs: cfg.budget, decisions, failure: None }
}

/// Delta-debugging (ddmin) minimization of a failing schedule: find a
/// small choice subset that still fails some oracle on replay, then
/// polish to 1-minimality. Every subset of a sparse schedule is itself
/// a valid schedule (picks clamp, missed steps default), which is what
/// makes plain ddmin sound here. Returns the minimized schedule and
/// the replay runs spent.
pub fn shrink(base: &SwarmConfig, schedule: &Schedule, budget: u32) -> (Schedule, u32) {
    let spent = std::cell::Cell::new(0u32);
    let fails = |choices: &[tchain_sim::Choice]| -> bool {
        spent.set(spent.get() + 1);
        let s = Schedule { choices: choices.to_vec() };
        !run_with_plan(base, &ExplorePlan::Replay(s)).failed_oracles.is_empty()
    };
    // Fast path: a schedule-independent bug (the canary's shape) needs
    // no choices at all.
    if fails(&[]) {
        return (Schedule::default(), spent.get());
    }
    let mut cur = schedule.choices.clone();
    let mut n = 2usize;
    while cur.len() >= 2 && n <= cur.len() && spent.get() < budget {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < cur.len() && spent.get() < budget {
            // Complement of cur[start .. start+chunk].
            let complement: Vec<tchain_sim::Choice> = cur
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < start || *i >= start + chunk)
                .map(|(_, c)| *c)
                .collect();
            if fails(&complement) {
                cur = complement;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start += chunk;
        }
        if !reduced {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    // 1-minimal polish: drop any single choice whose removal keeps the
    // failure.
    let mut i = 0usize;
    while i < cur.len() && spent.get() < budget {
        let mut without = cur.clone();
        without.remove(i);
        if fails(&without) {
            cur = without;
        } else {
            i += 1;
        }
    }
    (Schedule { choices: cur }, spent.get())
}

fn oracle_list(oracles: &[OracleKind]) -> String {
    if oracles.is_empty() {
        "pass".to_string()
    } else {
        oracles.iter().map(OracleKind::name).collect::<Vec<_>>().join(",")
    }
}

fn parse_oracle_list(s: &str) -> Result<Vec<OracleKind>, String> {
    if s == "pass" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|name| OracleKind::from_name(name.trim()).ok_or_else(|| format!("unknown oracle {name:?}")))
        .collect()
}

impl Witness {
    /// Serializes to the witness file format checked into
    /// `tests/schedules/`: a `key value` header followed by the
    /// schedule's `step …` lines.
    ///
    /// ```text
    /// # tchain-net schedule witness v1
    /// scenario crash
    /// seed 0x2a
    /// pct_seed 0x1f2e3d4c
    /// depth 3
    /// oracles pass
    /// fingerprint 0x5eedf00d
    /// step 17 pick 2
    /// step 40 defer
    /// ```
    pub fn to_text(&self) -> String {
        let mut s = String::from("# tchain-net schedule witness v1\n");
        s.push_str(&format!("scenario {}\n", self.scenario));
        s.push_str(&format!("seed {:#x}\n", self.seed));
        s.push_str(&format!("pct_seed {:#x}\n", self.pct_seed));
        s.push_str(&format!("depth {}\n", self.depth));
        s.push_str(&format!("oracles {}\n", oracle_list(&self.oracles)));
        s.push_str(&format!("fingerprint {:#x}\n", self.fingerprint));
        s.push_str(&self.schedule.to_text());
        s
    }

    /// Parses the [`Witness::to_text`] format.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut scenario = None;
        let mut seed = None;
        let mut pct_seed = 0u64;
        let mut depth = 0u32;
        let mut oracles = None;
        let mut fingerprint = None;
        let mut sched_lines = String::new();
        let parse_u64 = |v: &str| -> Result<u64, String> {
            let r = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            r.map_err(|_| format!("bad number {v:?}"))
        };
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(' ').ok_or_else(|| format!("bad line {line:?}"))?;
            match key {
                "scenario" => scenario = Some(value.trim().to_string()),
                "seed" => seed = Some(parse_u64(value.trim())?),
                "pct_seed" => pct_seed = parse_u64(value.trim())?,
                "depth" => {
                    depth = value.trim().parse().map_err(|_| format!("bad depth {value:?}"))?
                }
                "oracles" => oracles = Some(parse_oracle_list(value.trim())?),
                "fingerprint" => fingerprint = Some(parse_u64(value.trim())?),
                "step" => {
                    sched_lines.push_str(line);
                    sched_lines.push('\n');
                }
                _ => return Err(format!("unknown witness key {key:?}")),
            }
        }
        Ok(Witness {
            scenario: scenario.ok_or("missing scenario")?,
            seed: seed.ok_or("missing seed")?,
            pct_seed,
            depth,
            oracles: oracles.ok_or("missing oracles")?,
            fingerprint: fingerprint.ok_or("missing fingerprint")?,
            schedule: Schedule::from_text(&sched_lines)?,
        })
    }

    /// Replays the witness against its own scenario and returns the
    /// fresh report (panics on an unknown scenario name).
    pub fn replay(&self) -> SwarmReport {
        let base = scenario_config(&self.scenario, self.seed)
            .unwrap_or_else(|| panic!("unknown scenario {:?}", self.scenario));
        run_with_plan(&base, &ExplorePlan::Replay(self.schedule.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::{Act, Choice};

    #[test]
    fn empty_replay_matches_indexed_bit_for_bit() {
        for scenario in ["baseline", "free-riders"] {
            let base = scenario_config(scenario, 0x5EED).expect("known scenario");
            let indexed = run_swarm(base.clone()).expect("indexed");
            let replay = run_with_plan(&base, &ExplorePlan::Replay(Schedule::default()));
            assert_eq!(replay.fingerprint, indexed.fingerprint, "{scenario}");
            assert_eq!(replay.ticks, indexed.ticks, "{scenario}");
            assert!(replay.schedule.as_ref().is_some_and(Schedule::is_empty), "{scenario}");
            assert!(replay.sched_decisions > 0, "{scenario}");
        }
    }

    #[test]
    fn pct_runs_are_deterministic_and_rerecordable() {
        let base = scenario_config("baseline", 0x5EED).expect("scenario");
        let plan = ExplorePlan::Pct { seed: 0xD00D, depth: 3, est_steps: 2048 };
        let a = run_with_plan(&base, &plan);
        let b = run_with_plan(&base, &plan);
        assert!(a.same_run(&b));
        // Replaying the recorded schedule reproduces the perturbed run
        // without the sampler — and re-records the same schedule.
        let sched = a.schedule.clone().expect("explore mode records");
        assert!(!sched.is_empty(), "PCT at depth 3 must perturb something");
        let r = run_with_plan(&base, &ExplorePlan::Replay(sched));
        assert!(r.same_run(&a), "a replay is the same run as its recording");
    }

    #[test]
    fn perturbed_baseline_keeps_every_oracle() {
        let base = scenario_config("baseline", 0x5EED).expect("scenario");
        let cfg = ExploreConfig { budget: 4, ..ExploreConfig::default() };
        let out = explore("baseline", &base, 0xACE, &cfg);
        assert_eq!(out.runs, 4);
        assert!(out.decisions > 0);
        if !canary_armed() {
            assert!(out.failure.is_none(), "baseline must stay clean under perturbation");
        }
    }

    #[test]
    fn witness_text_round_trips() {
        let w = Witness {
            scenario: "crash".to_string(),
            seed: 0x2A,
            pct_seed: 0x1F2E_3D4C,
            depth: 3,
            oracles: vec![OracleKind::Ledger, OracleKind::Completion],
            fingerprint: 0x5EED_F00D,
            schedule: Schedule {
                choices: vec![
                    Choice { step: 17, act: Act::Pick(2) },
                    Choice { step: 40, act: Act::Defer },
                ],
            },
        };
        let text = w.to_text();
        assert_eq!(Witness::from_text(&text).expect("parse"), w);
        let clean = Witness { oracles: Vec::new(), ..w };
        assert!(clean.to_text().contains("oracles pass"));
        assert_eq!(Witness::from_text(&clean.to_text()).expect("parse"), clean);
        assert!(Witness::from_text("scenario x\n").is_err());
    }

    #[test]
    fn scenario_grid_is_closed() {
        for name in scenarios() {
            assert!(scenario_config(name, 1).is_some(), "{name} must build");
        }
        assert!(scenario_config("no-such-scenario", 1).is_none());
    }

    #[cfg(tchain_canary)]
    #[test]
    fn canary_bug_is_found_and_shrunk() {
        let base = scenario_config("crash", 0x5EED).expect("scenario");
        let out = explore("crash", &base, 0xACE, &ExploreConfig::default());
        let failure = out.failure.expect("the canary ledger bug must be found");
        assert!(
            failure.witness.oracles.contains(&OracleKind::Ledger),
            "expected a ledger oracle failure, got {:?}",
            failure.witness.oracles
        );
        assert!(
            failure.witness.schedule.len() <= 50,
            "witness must shrink to ≤ 50 choices, got {}",
            failure.witness.schedule.len()
        );
    }
}
