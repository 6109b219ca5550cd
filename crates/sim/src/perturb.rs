//! Scheduler perturbation: PCT-style priority sampling and replayable
//! schedules for the net harness's explore mode.
//!
//! The harness's indexed scheduler has exactly one decision point: when
//! several peers are due in the same tick, *which one runs next?* The
//! default answer is "ascending peer id" — the order the legacy linear
//! scan used. This module turns that decision point into a searchable
//! dimension. A [`SchedPerturber`] sits on the decision point and
//! either *samples* adversarial answers (PCT mode: random per-peer
//! priorities with `depth − 1` priority-change points, after
//! Burckhardt et al.'s probabilistic concurrency testing) or *replays*
//! a recorded [`Schedule`] bit-for-bit.
//!
//! Schedules are sparse: only non-default decisions are recorded, so
//! the empty schedule *is* the production interleaving, any subset of a
//! schedule's choices is itself a valid schedule (the property the
//! delta-debugging shrinker in `tchain-net` relies on), and shrunk
//! witnesses stay small and human-readable.

use crate::rng::SimRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One scheduling action at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Run the candidate at this index of the ascending-id pending
    /// list. `Pick(0)` is the default (lowest due id first).
    Pick(u32),
    /// Run none of the pending candidates this tick; the harness
    /// re-readies them all for the next tick.
    Defer,
}

impl Act {
    /// Whether this is the default action (`Pick(0)`).
    pub fn is_default(&self) -> bool {
        matches!(self, Act::Pick(0))
    }
}

/// A non-default action pinned to its global decision index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// Global decision index the action fires at (every decision
    /// counts one step, default or not — so the index is stable under
    /// choice removal).
    pub step: u64,
    /// The action taken.
    pub act: Act,
}

/// A sparse, replayable schedule: the non-default decisions of one run.
///
/// Replaying the same schedule against the same scenario reproduces
/// the run bit-for-bit (same fingerprint, same oracle verdict); an
/// empty schedule reproduces the default indexed interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Recorded choices in strictly ascending `step` order.
    pub choices: Vec<Choice>,
}

impl Schedule {
    /// Number of recorded (non-default) choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// `true` when no non-default choice is recorded — the default
    /// interleaving.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Serializes to the line-per-choice text form used in witness
    /// files: `step <n> pick <i>` / `step <n> defer`.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for c in &self.choices {
            match c.act {
                Act::Pick(i) => writeln!(s, "step {} pick {}", c.step, i),
                Act::Defer => writeln!(s, "step {} defer", c.step),
            }
            .expect("string write");
        }
        s
    }

    /// Parses the [`Schedule::to_text`] form. Blank lines and `#`
    /// comments are skipped; steps must be strictly ascending.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut choices = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
            if fields.len() < 3 || fields[0] != "step" {
                return Err(bad("expected `step <n> pick <i>` or `step <n> defer`"));
            }
            let step: u64 = fields[1].parse().map_err(|_| bad("bad step index"))?;
            let act = match (fields[2], fields.get(3)) {
                ("defer", None) => Act::Defer,
                ("pick", Some(i)) => {
                    Act::Pick(i.parse().map_err(|_| bad("bad pick index"))?)
                }
                _ => return Err(bad("unknown action")),
            };
            if let Some(last) = choices.last() {
                let last: &Choice = last;
                if step <= last.step {
                    return Err(bad("steps must be strictly ascending"));
                }
            }
            choices.push(Choice { step, act });
        }
        Ok(Schedule { choices })
    }
}

/// How explore mode perturbs the harness scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplorePlan {
    /// Sample a fresh PCT interleaving: random per-peer priorities from
    /// `seed`, `depth − 1` priority-change points spread over an
    /// estimated `est_steps` decisions.
    Pct {
        /// Seed of the perturbation RNG (independent of the swarm seed).
        seed: u64,
        /// PCT depth `d`: the schedule can force bugs that need up to
        /// `d` ordering constraints. `depth ≤ 1` means priorities only.
        depth: u32,
        /// Estimated total decisions in the run; change points are
        /// sampled uniformly over `[0, est_steps)`.
        est_steps: u64,
    },
    /// Replay a recorded schedule bit-for-bit.
    Replay(Schedule),
}

/// PCT sampling state: lazily assigned per-peer priorities plus the
/// sampled change points.
#[derive(Debug)]
struct Pct {
    rng: SimRng,
    /// Peer id → priority; higher runs first. Assigned on first sight
    /// so churn-minted peers get priorities too.
    prio: BTreeMap<u32, u64>,
    /// Sampled change-point steps, ascending, consumed front to back.
    changes: Vec<u64>,
    next_change: usize,
    /// Descending counter below every initial priority; a demoted peer
    /// takes the next value, so demotions always sink to the bottom.
    demote_next: u64,
}

const PRIO_FLOOR: u64 = 1 << 32;

impl Pct {
    fn new(seed: u64, depth: u32, est_steps: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5C4E_D01E);
        let mut changes: Vec<u64> =
            (0..depth.saturating_sub(1)).map(|_| rng.below(est_steps.max(1) as usize) as u64).collect();
        changes.sort_unstable();
        Pct { rng, prio: BTreeMap::new(), changes, next_change: 0, demote_next: PRIO_FLOOR - 1 }
    }

    fn priority(&mut self, peer: u32) -> u64 {
        if let Some(&p) = self.prio.get(&peer) {
            return p;
        }
        // Initial priorities live above PRIO_FLOOR so every demotion
        // (which takes a value below the floor) outranks none of them.
        let p = PRIO_FLOOR + self.rng.below(u32::MAX as usize) as u64;
        self.prio.insert(peer, p);
        p
    }

    fn decide(&mut self, step: u64, candidates: &[u32]) -> Act {
        // Highest priority runs; ties break toward the lower id (can
        // only happen between demoted peers in pathological cases).
        let mut best = 0usize;
        let mut best_prio = 0u64;
        for (i, &peer) in candidates.iter().enumerate() {
            let p = self.priority(peer);
            if i == 0 || p > best_prio {
                best = i;
                best_prio = p;
            }
        }
        let at_change =
            self.next_change < self.changes.len() && self.changes[self.next_change] <= step;
        if at_change {
            self.next_change += 1;
            if self.rng.chance(0.5) {
                // Preemption flavour: punt the whole due set a tick.
                return Act::Defer;
            }
            // Classic PCT change point: sink the would-be pick's
            // priority and run whoever floats up instead.
            let peer = candidates[best];
            self.prio.insert(peer, self.demote_next);
            self.demote_next -= 1;
            let mut second = 0usize;
            let mut second_prio = 0u64;
            for (i, &peer) in candidates.iter().enumerate() {
                let p = self.priority(peer);
                if i == 0 || p > second_prio {
                    second = i;
                    second_prio = p;
                }
            }
            return Act::Pick(second as u32);
        }
        Act::Pick(best as u32)
    }
}

#[derive(Debug)]
enum Mode {
    Pct(Pct),
    Replay { choices: Vec<Choice>, cursor: usize },
}

/// Streams scheduling decisions for the harness's explore mode and
/// records the non-default ones.
///
/// Call [`SchedPerturber::decide`] at every decision point with the
/// ascending-id candidate list; the returned [`Act`] is already
/// clamped to the candidate arity. After the run,
/// [`SchedPerturber::into_schedule`] yields the effective schedule —
/// replaying it through a fresh perturber reproduces the run exactly.
#[derive(Debug)]
pub struct SchedPerturber {
    step: u64,
    recorded: Vec<Choice>,
    mode: Mode,
}

impl SchedPerturber {
    /// Builds a perturber from an [`ExplorePlan`].
    pub fn new(plan: &ExplorePlan) -> Self {
        let mode = match plan {
            ExplorePlan::Pct { seed, depth, est_steps } => {
                Mode::Pct(Pct::new(*seed, *depth, *est_steps))
            }
            ExplorePlan::Replay(s) => {
                Mode::Replay { choices: s.choices.clone(), cursor: 0 }
            }
        };
        SchedPerturber { step: 0, recorded: Vec::new(), mode }
    }

    /// Decides what to do with the current pending candidate set
    /// (ascending peer ids, non-empty). Consumes one decision step and
    /// records the action when it is non-default.
    pub fn decide(&mut self, candidates: &[u32]) -> Act {
        debug_assert!(!candidates.is_empty(), "decision point with no candidates");
        let step = self.step;
        self.step += 1;
        let act = match &mut self.mode {
            Mode::Pct(pct) => pct.decide(step, candidates),
            Mode::Replay { choices, cursor } => {
                // Skip choices the run never reached (shrinking can
                // leave steps beyond a shortened run; replay just runs
                // past them).
                while *cursor < choices.len() && choices[*cursor].step < step {
                    *cursor += 1;
                }
                if *cursor < choices.len() && choices[*cursor].step == step {
                    let act = choices[*cursor].act;
                    *cursor += 1;
                    act
                } else {
                    Act::Pick(0)
                }
            }
        };
        // Clamp out-of-range picks (a shrunk schedule can pin a pick to
        // a decision whose arity shrank with it).
        let act = match act {
            Act::Pick(i) if (i as usize) >= candidates.len() => {
                Act::Pick(candidates.len() as u32 - 1)
            }
            other => other,
        };
        if !act.is_default() {
            self.recorded.push(Choice { step, act });
        }
        act
    }

    /// Total decisions consumed so far.
    pub fn decisions(&self) -> u64 {
        self.step
    }

    /// The effective schedule of the run: every non-default action
    /// actually applied, in step order.
    pub fn into_schedule(self) -> Schedule {
        Schedule { choices: self.recorded }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips() {
        let s = Schedule {
            choices: vec![
                Choice { step: 3, act: Act::Pick(2) },
                Choice { step: 17, act: Act::Defer },
                Choice { step: 40, act: Act::Pick(1) },
            ],
        };
        let text = s.to_text();
        assert_eq!(Schedule::from_text(&text).expect("parse"), s);
        assert_eq!(Schedule::from_text("").expect("empty"), Schedule::default());
        assert!(Schedule::from_text("step 5 pick 1\nstep 5 defer").is_err());
        assert!(Schedule::from_text("tick 5 pick 1").is_err());
    }

    #[test]
    fn empty_replay_is_all_defaults_and_records_nothing() {
        let mut p = SchedPerturber::new(&ExplorePlan::Replay(Schedule::default()));
        for _ in 0..50 {
            assert_eq!(p.decide(&[1, 2, 3]), Act::Pick(0));
        }
        assert!(p.into_schedule().is_empty());
    }

    #[test]
    fn replay_applies_clamps_and_rerecords_itself() {
        let s = Schedule {
            choices: vec![
                Choice { step: 1, act: Act::Pick(9) }, // clamps to arity
                Choice { step: 2, act: Act::Defer },
            ],
        };
        let mut p = SchedPerturber::new(&ExplorePlan::Replay(s));
        assert_eq!(p.decide(&[4, 7, 9]), Act::Pick(0));
        assert_eq!(p.decide(&[4, 7, 9]), Act::Pick(2)); // 9 clamped to 2
        assert_eq!(p.decide(&[4, 7]), Act::Defer);
        assert_eq!(p.decide(&[4, 7]), Act::Pick(0));
        let rec = p.into_schedule();
        assert_eq!(
            rec.choices,
            vec![
                Choice { step: 1, act: Act::Pick(2) },
                Choice { step: 2, act: Act::Defer },
            ]
        );
        // Replaying the recording reproduces the same action stream.
        let mut q = SchedPerturber::new(&ExplorePlan::Replay(rec.clone()));
        assert_eq!(q.decide(&[4, 7, 9]), Act::Pick(0));
        assert_eq!(q.decide(&[4, 7, 9]), Act::Pick(2));
        assert_eq!(q.decide(&[4, 7]), Act::Defer);
        assert_eq!(q.decide(&[4, 7]), Act::Pick(0));
        assert_eq!(q.into_schedule(), rec);
    }

    #[test]
    fn pct_is_deterministic_and_replayable() {
        let plan = ExplorePlan::Pct { seed: 0xD00D, depth: 4, est_steps: 64 };
        let run = |plan: &ExplorePlan| {
            let mut p = SchedPerturber::new(plan);
            let acts: Vec<Act> = (0..64).map(|i| p.decide(&[1, 2, 3 + (i % 2)])).collect();
            (acts, p.into_schedule())
        };
        let (acts_a, sched_a) = run(&plan);
        let (acts_b, sched_b) = run(&plan);
        assert_eq!(acts_a, acts_b, "same seed, same decisions");
        assert_eq!(sched_a, sched_b);
        // Replaying the recorded schedule reproduces the action stream
        // without the sampler.
        let (acts_r, sched_r) = run(&ExplorePlan::Replay(sched_a.clone()));
        assert_eq!(acts_r, acts_a);
        assert_eq!(sched_r, sched_a);
    }

    #[test]
    fn pct_perturbs_the_default_order() {
        let plan = ExplorePlan::Pct { seed: 7, depth: 3, est_steps: 32 };
        let mut p = SchedPerturber::new(&plan);
        let non_default =
            (0..32).filter(|_| !p.decide(&[1, 2, 3, 4]).is_default()).count();
        assert!(non_default > 0, "four equal candidates must reorder somewhere");
    }

    #[test]
    fn subset_of_a_schedule_still_parses_and_replays() {
        // The shrinker removes arbitrary choice subsets; what remains
        // must stay a valid schedule with stable step anchoring.
        let full = Schedule {
            choices: vec![
                Choice { step: 2, act: Act::Pick(1) },
                Choice { step: 5, act: Act::Defer },
                Choice { step: 9, act: Act::Pick(3) },
            ],
        };
        let subset = Schedule { choices: vec![full.choices[0], full.choices[2]] };
        let mut p = SchedPerturber::new(&ExplorePlan::Replay(subset.clone()));
        let mut applied = Vec::new();
        for step in 0..12u64 {
            let act = p.decide(&[10, 11, 12, 13]);
            if !act.is_default() {
                applied.push(Choice { step, act });
            }
        }
        assert_eq!(applied, subset.choices);
    }
}
