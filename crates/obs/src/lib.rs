//! # tchain-obs — deterministic observability for the swarm simulator
//!
//! Three observers, all zero-cost when switched off:
//!
//! * [`Tracer`] + [`Event`] — a typed event bus for transaction
//!   lifecycle spans (request → encrypted upload → report → key →
//!   decrypt, §II-B, including the retry/escrow/watchdog branches),
//!   chain lineage, choke/unchoke decisions, and fault events. Events
//!   land in a bounded overwrite-oldest [`EventRing`] and export as
//!   JSONL ([`to_jsonl`]) or Chrome `trace_event` JSON
//!   ([`to_chrome_trace`]) loadable in Perfetto. The [`trace_event!`]
//!   macro compiles to a branch on [`Tracer::is_enabled`], so disabled
//!   tracing evaluates nothing and fault-free runs stay bit-identical.
//! * [`PhaseProfiler`] + [`Phase`] — wall-clock and invocation-count
//!   histograms over the named slices of the sim main loop (flow-solver
//!   recompute, control-queue drain, rechoke, watchdog tick, …),
//!   surfaced as a [`PhaseProfile`] on every run outcome. Wall time is
//!   observed, never fed back, so profiling cannot perturb determinism.
//! * [`StatsRegistry`] — one named-metric API unifying
//!   `RecoveryCounters`, `ChainStats`, flow/fault statistics and the
//!   graceful-degradation anomaly counters, snapshotted as a sorted
//!   [`MetricMap`] into `results/*.json`.
//!
//! [`json`] is the workspace's JSON reader and writer: the JSONL trace
//! schema and every `results/*.json` document go through it.
//!
//! This crate is a leaf: events carry raw `u32`/`u64` ids so `sim`,
//! `proto`, `core` and `baselines` can all depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
pub mod json;

mod event;
mod export;
mod profile;
mod registry;
mod ring;
mod tracer;

pub use event::{EndCause, Event, MetricName, OracleKind, RetryMsg, TraceRecord, WireMsg};
pub use export::{
    merge_traces, to_causal_chrome_trace, to_chrome_trace, to_jsonl, validate_causal,
    validate_jsonl,
};
pub use profile::{Phase, PhaseProfile, PhaseProfiler, PhaseSummary, HIST_BUCKETS};
pub use registry::{
    ExportStats, Log2Histogram, MetricMap, PrometheusWriter, StatsRegistry, LOG2_BUCKETS,
};
pub use ring::EventRing;
pub use tracer::Tracer;
