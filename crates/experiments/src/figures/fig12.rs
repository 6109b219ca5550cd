//! Fig. 12: fairness-factor CDFs without and with 25 % free-riders.

use crate::figures::fig09::trace_cell;
use crate::output::{persist, print_table, RunMeta};
use crate::runner::{cross, sweep_points};
use crate::scale::Scale;
use crate::scenario::Proto;
use tchain_metrics::Cdf;

tchain_obs::json_struct! {
    /// One protocol's fairness CDF under one free-rider share.
    #[derive(Debug)]
    pub struct Curve {
        /// Protocol legend name.
        pub proto: String,
        /// Free-rider percentage (0 or 25).
        pub fr_pct: u32,
        /// Deciles of the fairness factor (q10..q100).
        pub deciles: Vec<f64>,
        /// Fraction of leechers whose factor exceeds 1.25 (taking notably
        /// more than they give — the Fig. 12(b) divergence).
        pub over_125: f64,
    }
}

/// Runs Fig. 12.
pub fn run(scale: Scale) -> Vec<Curve> {
    let pop = scale.fairness_population();
    let mut meta = RunMeta::default();
    const FR_PCTS: [u32; 2] = [0, 25];
    let runs = scale.runs().min(3);
    let grid = cross(FR_PCTS, &Proto::main_four());
    let groups = sweep_points(
        "fig12",
        &mut meta,
        &grid,
        |&(fr_pct, _)| (0..runs).map(|r| (fr_pct as u64) << 8 | r as u64 | 0xC0).collect(),
        |&(fr_pct, proto)| format!("{} fairness {fr_pct}% FR", proto.name()),
        |&(fr_pct, proto), seed| trace_cell(scale, proto, fr_pct, seed),
    );
    let curves: Vec<Curve> = grid
        .iter()
        .zip(groups)
        .map(|(&(fr_pct, proto), outs)| {
            // Last `pop` finished compliant leechers of each run (steady state).
            let factors = outs
                .iter()
                .flat_map(|o| o.fairness.iter().copied().skip(o.fairness.len().saturating_sub(pop)))
                .collect();
            let cdf = Cdf::new(factors);
            let deciles: Vec<f64> =
                (1..=10).map(|d| cdf.quantile(d as f64 / 10.0)).collect();
            Curve {
                proto: proto.name().to_string(),
                fr_pct,
                over_125: 1.0 - cdf.at(1.25),
                deciles,
            }
        })
        .collect();
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            vec![
                c.proto.clone(),
                format!("{}%", c.fr_pct),
                format!("{:.2}", c.deciles[4]), // median
                format!("{:.2}", c.deciles[8]), // p90
                format!("{:.0}%", c.over_125 * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 12: fairness factor (downloaded/uploaded) of compliant leechers",
        &["protocol", "free-riders", "median", "p90", ">1.25"],
        &rows,
    );
    persist("fig12", scale.name(), &curves, &meta);
    curves
}
