//! Wall-clock phase profiler for the simulator main loop.
//!
//! Each driver `step()` is decomposed into named [`Phase`]s; the
//! profiler accumulates wall-clock time, invocation counts, and a
//! log2-nanosecond latency histogram per phase. Timing only *observes*
//! the run — nothing here ever feeds back into simulation state — so
//! profiling on or off cannot perturb determinism.
//!
//! The API is split into a cheap immutable [`PhaseProfiler::begin`]
//! (returns `None` when disabled) and a mutable
//! [`PhaseProfiler::end`], so call sites can hold the start token
//! across `&mut self` work without borrow conflicts.

use std::time::Instant;

/// Number of log2-ns buckets: bucket `i` covers `[2^i, 2^(i+1))` ns,
/// topping out at ~34 s — far beyond any single phase invocation.
pub const HIST_BUCKETS: usize = 36;

json_enum! {
    /// A named slice of the simulator main loop, in main-loop order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Phase {
        /// Arrivals, departures, crash processing, neighbor refills.
        Membership,
        /// Choke/unchoke recomputation (both drivers' rechoke rounds).
        Rechoke,
        /// T-Chain seeder + opportunistic chain initiation rounds.
        ChainRounds,
        /// Flow-solver recompute: the max-min water-filling advance.
        FlowAdvance,
        /// Upload/block completion handling after the flow advance.
        Completions,
        /// Control-queue drain: report/key envelope delivery.
        ControlDrain,
        /// Retransmission timer pops and re-sends.
        Retries,
        /// Free-rider stall sweep.
        StallSweep,
        /// Watchdog tick: §II-B4 dead-participant closure and repair.
        Watchdog,
        /// Periodic time-series sampling.
        Sampling,
    }
}

json_struct! {
    /// Aggregated timings for one phase.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct PhaseSummary {
        /// Phase name (snake_case).
        pub phase: String,
        /// Times the phase ran.
        pub calls: u64,
        /// Total wall-clock nanoseconds across all calls.
        pub total_ns: u64,
        /// Largest single invocation, nanoseconds.
        pub max_ns: u64,
        /// Invocation-latency histogram; bucket `i` counts calls in
        /// `[2^i, 2^(i+1))` ns.
        pub hist_log2_ns: Vec<u64>,
    }
}

impl PhaseSummary {
    /// Mean nanoseconds per call (zero when never called).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

json_struct! {
    /// A whole run's phase profile, as attached to `RunOutcome`.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct PhaseProfile {
        /// Per-phase summaries in main-loop order; phases that never ran
        /// are omitted.
        pub phases: Vec<PhaseSummary>,
    }
}

impl PhaseProfile {
    /// Total profiled wall-clock nanoseconds across every phase.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Render a human-readable per-phase table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>12} {:>12}\n",
            "phase", "calls", "total_ms", "mean_us", "max_us"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<14} {:>10} {:>12.3} {:>12.2} {:>12.2}\n",
                p.phase,
                p.calls,
                p.total_ns as f64 / 1e6,
                p.mean_ns() as f64 / 1e3,
                p.max_ns as f64 / 1e3,
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>10} {:>12.3}\n",
            "total",
            "",
            self.total_ns() as f64 / 1e6
        ));
        out
    }
}

#[derive(Debug, Clone, Copy)]
struct PhaseAcc {
    calls: u64,
    total_ns: u64,
    max_ns: u64,
    hist: [u64; HIST_BUCKETS],
}

impl Default for PhaseAcc {
    fn default() -> Self {
        Self {
            calls: 0,
            total_ns: 0,
            max_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

/// Wall-clock profiler over the fixed [`Phase`] set.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    acc: [PhaseAcc; Phase::ALL.len()],
}

impl PhaseProfiler {
    /// A profiler that measures nothing (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live profiler.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// `true` when timings are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a phase. `None` when disabled — pass the token to
    /// [`PhaseProfiler::end`] either way.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish timing `phase` with the token from [`PhaseProfiler::begin`].
    #[inline]
    pub fn end(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let acc = &mut self.acc[phase as usize];
            acc.calls += 1;
            acc.total_ns += ns;
            acc.max_ns = acc.max_ns.max(ns);
            let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1);
            acc.hist[bucket] += 1;
        }
    }

    /// Snapshot all phases that ran at least once, in main-loop order.
    pub fn profile(&self) -> PhaseProfile {
        let mut phases = Vec::new();
        for &phase in Phase::ALL {
            let acc = &self.acc[phase as usize];
            if acc.calls == 0 {
                continue;
            }
            let top = acc
                .hist
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i + 1);
            phases.push(PhaseSummary {
                phase: phase.name().to_string(),
                calls: acc.calls,
                total_ns: acc.total_ns,
                max_ns: acc.max_ns,
                hist_log2_ns: acc.hist[..top].to_vec(),
            });
        }
        PhaseProfile { phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut p = PhaseProfiler::disabled();
        let tok = p.begin();
        assert!(tok.is_none());
        p.end(Phase::FlowAdvance, tok);
        assert!(p.profile().phases.is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates() {
        let mut p = PhaseProfiler::enabled();
        for _ in 0..3 {
            let tok = p.begin();
            std::hint::black_box(42);
            p.end(Phase::Rechoke, tok);
        }
        let prof = p.profile();
        assert_eq!(prof.phases.len(), 1);
        let s = &prof.phases[0];
        assert_eq!(s.phase, "rechoke");
        assert_eq!(s.calls, 3);
        assert!(s.max_ns >= s.mean_ns());
        assert_eq!(s.hist_log2_ns.iter().sum::<u64>(), 3);
        assert!(!prof.render_table().is_empty());
    }

    #[test]
    fn histogram_bucket_is_log2() {
        let mut acc = PhaseAcc::default();
        for ns in [1u64, 2, 3, 1024] {
            let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1);
            acc.hist[bucket] += 1;
        }
        assert_eq!(acc.hist[0], 1); // 1 ns
        assert_eq!(acc.hist[1], 2); // 2, 3 ns
        assert_eq!(acc.hist[10], 1); // 1024 ns
    }
}
