//! # tchain-experiments — regenerating every table and figure
//!
//! The §IV evaluation as runnable code. Each figure has a module under
//! [`figures`] and a subcommand of the `tchain` binary (`tchain fig03`
//! … `fig13`, `table2`, `overhead`, `analysis`, `all`). Scale with
//! `TCHAIN_SCALE=quick|paper` (see [`Scale`]); results are printed as
//! paper-style rows and persisted as JSON under `results/`.
//!
//! A fluid figure states its grid once, as a point list with each
//! point's seeds, and [`sweep_points`] runs it: it owns the cell order,
//! books every completed cell the verdict passes ([`Absorb`],
//! [`RunOutcome::verdict`]) and hands back each point's outputs.
//!
//! ```no_run
//! use tchain_experiments::{figures, Scale};
//! figures::fig03::run(Scale::Quick);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod output;
pub mod runner;
mod scale;
mod scenario;

pub use output::{fmt_opt, persist, print_table, results_dir, save_with_meta, Absorb, RunMeta};
pub use runner::{
    effective_jobs, set_jobs, sweep, sweep_points, take_failures, FailedCell, Sweep,
};
pub use scale::Scale;
pub use scenario::{
    flash_plan, run_proto, trace_plan, Horizon, Proto, RiderMode, RunOpts, RunOutcome,
};
