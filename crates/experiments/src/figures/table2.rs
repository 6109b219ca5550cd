//! Table II: the qualitative comparison of incentive schemes, regenerated
//! from micro-experiments.
//!
//! Each attack row runs a small swarm per protocol and scores the
//! free-riders' *progress ratio* — pieces gained per unit time relative
//! to compliant leechers. `√` (immune) when the ratio is negligible,
//! blank (medium) when attackers are slowed several-fold, `×` when the
//! attack pays. The EigenTrust and Dandelion columns come from the
//! `tchain-baselines` models of those schemes; structural rows
//! (simplicity, TTP reliance) are properties of the designs themselves.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{build_swarm, flash_plan, Proto, RiderMode, RunOpts};
use tchain_attacks::{FreeRiderConfig, GroupId, PeerPlan, Strategy};
use tchain_baselines::dandelion::CreditServer;
use tchain_baselines::eigentrust::{Actor, EigenTrustModel};
use tchain_proto::Role;
use tchain_sim::FaultPlan;

tchain_obs::json_struct! {
    /// A measured Table II cell.
    #[derive(Debug, Clone)]
    pub struct Cell {
        /// `√` / `·` (medium) / `×`.
        pub mark: String,
        /// The measured attacker progress ratio behind the mark.
        pub ratio: f64,
    }
}

tchain_obs::json_struct! {
    /// One Table II row across the protocol columns.
    #[derive(Debug)]
    pub struct Row {
        /// Feature / attack name.
        pub feature: String,
        /// Cells keyed in column order (BT, PropShare, FairTorrent, T-Chain,
        /// EigenTrust, Dandelion).
        pub cells: Vec<Cell>,
    }
}

fn mark(ratio: f64) -> Cell {
    let mark = if ratio < 0.07 {
        "√".to_string()
    } else if ratio < 0.5 {
        "·".to_string()
    } else {
        "×".to_string()
    };
    Cell { mark, ratio }
}

/// Runs one mini-swarm and returns the free-riders' progress ratio —
/// (FR pieces/time) / (compliant pieces/time) — plus the run's metric
/// snapshot for the caller's [`RunMeta`].
pub fn progress_ratio(
    proto: Proto,
    fr: FreeRiderConfig,
    colluding: bool,
    seed: u64,
) -> (f64, tchain_obs::MetricMap) {
    let n = 36;
    let mut plan = flash_plan(n, 0.0, RiderMode::Aggressive, seed);
    for i in 0..8usize {
        let strategy = if colluding {
            Strategy::colluding_free_rider(GroupId(0))
        } else {
            Strategy::FreeRider(fr)
        };
        plan.push(PeerPlan { at: 0.6 + i as f64 * 0.01, capacity: 100_000.0, strategy, crash_at: None });
    }
    let spec = proto.file_spec(2.0);
    let horizon = 900.0;
    let mut sw = build_swarm(proto, spec, RunOpts::default(), plan, seed, FaultPlan::none());
    sw.run_to(horizon);
    let (fr_rate, compliant_rate) = rates(sw.base(), horizon);
    let metrics = sw.metrics();
    let ratio = if compliant_rate <= 0.0 { 0.0 } else { fr_rate / compliant_rate };
    (ratio, metrics)
}

fn rates(base: &tchain_proto::SwarmBase, horizon: f64) -> (f64, f64) {
    let mut fr_pieces = 0.0;
    let mut fr_time = 0.0;
    let mut c_pieces = 0.0;
    let mut c_time = 0.0;
    for p in base.peers.iter() {
        if p.role != Role::Leecher {
            continue;
        }
        let res = p.residence(horizon).max(1.0);
        if p.compliant {
            c_pieces += p.pieces_down as f64;
            c_time += res;
        } else {
            fr_pieces += p.pieces_down as f64;
            fr_time += res;
        }
    }
    (fr_pieces / fr_time.max(1.0), c_pieces / c_time.max(1.0))
}

/// EigenTrust column: attacker service ratio under the given behaviours.
fn eigentrust_ratio(attacker: Actor, rounds: usize) -> f64 {
    let mut actors = vec![Actor::Honest; 12];
    actors.extend(std::iter::repeat_n(attacker, 4));
    let mut m = EigenTrustModel::new(actors, 3);
    for _ in 0..rounds {
        m.round();
    }
    let honest: f64 = (0..12).map(|i| m.received(i)).sum::<f64>() / 12.0;
    let att: f64 = (12..16).map(|i| m.received(i)).sum::<f64>() / 4.0;
    if honest <= 0.0 {
        0.0
    } else {
        att / honest
    }
}

/// Dandelion column: whitewash farming ratio (credits farmed per identity
/// cycle relative to an honest peer's earnings).
fn dandelion_whitewash_ratio() -> f64 {
    let mut s = CreditServer::new(5);
    let honest = s.register();
    let mut farmed = 0.0;
    for _ in 0..10 {
        let fresh = s.register();
        while s.settle(honest, fresh) {
            farmed += 1.0;
        }
    }
    // An honest peer earns service one-for-one; the farmer got 50 pieces
    // for zero uploads.
    farmed / 50.0
}

/// Regenerates Table II.
pub fn run(scale: Scale) -> Vec<Row> {
    let plain = FreeRiderConfig::default();
    let large_view = FreeRiderConfig { large_view: true, ..Default::default() };
    let whitewash = FreeRiderConfig { large_view: true, whitewash: true, ..Default::default() };
    let protos = Proto::main_four();
    let mut rows = Vec::new();
    let mut meta = RunMeta::default();

    let attack_rows: [(&str, FreeRiderConfig, bool); 4] = [
        ("Exploiting Altruism / Cheating", plain, false),
        ("Large-view-exploit", large_view, false),
        ("Sybil or Whitewashing", whitewash, false),
        ("Collusion (false reports)", whitewash, true),
    ];
    let mut jobs = Vec::new();
    for &(name, cfg, colluding) in &attack_rows {
        for &p in protos.iter() {
            jobs.push((name, p, cfg, colluding));
        }
    }
    let sw = sweep(
        "table2",
        &jobs,
        |&(name, p, _, _)| (format!("{name} vs {}", p.name()), 0x72),
        |&(_, p, cfg, colluding)| progress_ratio(p, cfg, colluding, 0x72),
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    for (name, _, _) in attack_rows {
        let mut cells: Vec<Cell> = Vec::new();
        for _ in protos.iter() {
            // A panicked mini-swarm scores as NaN (rendered bare, like the
            // structural rows) rather than sinking the whole table.
            let ratio = match outs.next().flatten() {
                Some((ratio, metrics)) => {
                    meta.note_run();
                    meta.absorb_metrics(&metrics);
                    ratio
                }
                None => f64::NAN,
            };
            cells.push(mark(ratio));
        }
        // EigenTrust / Dandelion model columns.
        let et = match name {
            "Collusion (false reports)" => eigentrust_ratio(Actor::Colluder, 20),
            _ => eigentrust_ratio(Actor::FreeRider, 20),
        };
        cells.push(mark(et));
        let dd = match name {
            "Sybil or Whitewashing" => dandelion_whitewash_ratio(),
            _ => 0.0, // credit accounting blocks plain free-riding
        };
        cells.push(mark(dd));
        rows.push(Row { feature: name.to_string(), cells });
    }
    // Structural rows: properties of the designs (no run needed).
    let structural = [
        ("Simplicity & Scalability (no TTP)", ["√", "√", "√", "√", "×", "×"]),
        ("Flexible Newcomer Bootstrapping", ["×", "×", "√", "√", "×", "×"]),
        ("Asymmetric Interest", ["×", "·", "·", "√", "√", "√"]),
    ];
    for (name, marks) in structural {
        rows.push(Row {
            feature: name.to_string(),
            cells: marks.iter().map(|m| Cell { mark: m.to_string(), ratio: f64::NAN }).collect(),
        });
    }
    let header = ["feature", "Original BT", "PropShare", "FairTorrent", "T-Chain", "EigenTrust", "Dandelion"];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut v = vec![r.feature.clone()];
            v.extend(r.cells.iter().map(|c| {
                if c.ratio.is_nan() {
                    c.mark.clone()
                } else {
                    format!("{} ({:.2})", c.mark, c.ratio)
                }
            }));
            v
        })
        .collect();
    print_table(
        "Table II: incentive-scheme comparison (√ immune, · medium, × vulnerable; measured attacker/compliant progress ratio in parentheses)",
        &header,
        &table,
    );
    persist("table2", scale.name(), &rows, &meta);
    rows
}
