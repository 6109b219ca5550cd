//! # tchain-bench — criterion benchmarks
//!
//! Three suites (`cargo bench -p tchain-bench`):
//!
//! * `crypto` — ChaCha20 piece encryption (the §III-C1 overhead number,
//!   measured rather than cited);
//! * `substrate` — flow-scheduler, mesh/LRF and bitfield hot paths;
//! * `figures` — one scaled-down end-to-end simulation per paper figure,
//!   so regressions in any protocol driver show up as bench regressions.
//!
//! Helpers here build the small scenarios the `figures` suite runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tchain_attacks::PeerPlan;
use tchain_experiments::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};

/// A tiny flash-crowd scenario for figure benches.
pub fn tiny_plan(n: usize, fr: f64, seed: u64) -> Vec<PeerPlan> {
    flash_plan(n, fr, RiderMode::Aggressive, seed)
}

/// Runs one scaled-down figure scenario to completion and returns the
/// number of finished compliant leechers (consumed by `black_box`).
pub fn bench_run(proto: Proto, n: usize, fr: f64, seed: u64) -> usize {
    let plan = tiny_plan(n, fr, seed);
    let out = run_proto(proto, 1.0, plan, seed, Horizon::CompliantDone, RunOpts::default());
    out.compliant_times.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scenarios_run() {
        assert_eq!(bench_run(Proto::TChain, 8, 0.0, 1), 8);
        assert_eq!(
            bench_run(Proto::Baseline(tchain_baselines::Baseline::BitTorrent), 8, 0.0, 1),
            8
        );
    }
}
