//! The metric tables: every name the benchmark can print, with its unit.
//!
//! `BENCHMARK.json` at the repo root declares the same names; the smoke
//! test fails if the two drift apart.

/// One declared metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, printed by an untraced run. Every
/// workload reports every one of them, and none is ever zero.
///
/// * `setup_s` — fastest of the run's set-ups: input generation plus
///   construction (`SwarmHarness::new`, TCP listen/connect, plan build).
/// * `wall_s` — steady time of one iteration: the fastest pass of each of
///   its parts (each swarm's `SwarmHarness::run()`, each `tcp_stream`
///   phase, each `fluid_figs` cell), summed.
/// * `goodput_mib_s` — verified payload MiB per wall second: plaintext
///   held by compliant leechers (`swarm_*`), phase-A payload over phase-A
///   time (`tcp_stream`), simulated file MiB delivered (`fluid_figs`).
/// * `ops_per_s` — pieces/s (`swarm_*`), phase-B control frames/s
///   (`tcp_stream`), cells/s (`fluid_figs`).
/// * `peak_rss_mib` — `VmHWM` of the workload's own process.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("goodput_mib_s", "MiB/s"),
    m("ops_per_s", "1/s"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by a traced run. A workload that does not
/// exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The paper's own metric: exact from run to run for one seed.
    m("e2e.virt_completion_s", "virt_s"),
    // crypto: 2 x PieceKey::apply over every delivered PieceData payload.
    m("crypto.bytes", "B"),
    m("crypto.calls", "count"),
    m("crypto.busy_s", "s"),
    m("crypto.mib_s", "MiB/s"),
    m("crypto.share", "share"),
    // net.frame: Frame::encode / FrameDecoder over every delivered frame.
    m("net.frame.frames", "count"),
    m("net.frame.bytes", "B"),
    m("net.frame.encode_busy_s", "s"),
    m("net.frame.encode_ns_per_frame", "ns"),
    m("net.frame.encode_mib_s", "MiB/s"),
    m("net.frame.decode_busy_s", "s"),
    m("net.frame.decode_ns_per_frame", "ns"),
    m("net.frame.decode_mib_s", "MiB/s"),
    m("net.frame.rejects", "count"),
    m("net.frame.share", "share"),
    // proto.wire: Message::encode / decode over every control frame.
    m("proto.wire.msgs", "count"),
    m("proto.wire.encode_busy_s", "s"),
    m("proto.wire.decode_busy_s", "s"),
    m("proto.wire.ns_per_msg", "ns"),
    // net.transport: the Traced<ChannelMesh> decorator.
    m("net.transport.send_calls", "count"),
    m("net.transport.send_busy_s", "s"),
    m("net.transport.advance_calls", "count"),
    m("net.transport.advance_busy_s", "s"),
    m("net.transport.empty_advances", "count"),
    m("net.transport.frames_delivered", "count"),
    m("net.transport.bytes_delivered", "B"),
    m("net.transport.frames_dropped", "count"),
    m("net.transport.batch_mean", "frames"),
    m("net.transport.batch_max", "frames"),
    m("net.transport.chaos_injects", "count"),
    m("net.transport.share", "share"),
    m("net.transport.bulk_mib_s", "MiB/s"),
    m("net.transport.ctrl_frames_per_s", "1/s"),
    // net.tcp: the Traced<TcpLoopback> decorator and its side legs.
    m("net.tcp.connect_s", "s"),
    m("net.tcp.send_busy_s", "s"),
    m("net.tcp.advance_busy_s", "s"),
    m("net.tcp.bulk_send_ns_per_frame", "ns"),
    m("net.tcp.ctrl_send_ns_per_frame", "ns"),
    m("net.tcp.advance_calls", "count"),
    m("net.tcp.empty_advances", "count"),
    m("net.tcp.frames_per_advance", "frames"),
    m("net.tcp.idle_poll_ns_per_link", "ns"),
    m("net.tcp.gap_bulk_x", "x"),
    m("net.tcp.gap_ctrl_x", "x"),
    m("net.tcp.over_floor_x", "x"),
    m("bench.rawsock.bulk_mib_s", "MiB/s"),
    // net.sched: TimerWheel driven with the run's peer and tick counts.
    m("net.sched.ops", "count"),
    m("net.sched.schedule_ns_per_op", "ns"),
    m("net.sched.pop_due_ns_per_op", "ns"),
    m("net.sched.busy_s", "s"),
    m("net.sched.share", "share"),
    // net.harness: spans around SwarmHarness::new / run and SwarmReport.
    m("net.harness.new_s", "s"),
    m("net.harness.run_s", "s"),
    m("net.harness.ticks", "count"),
    m("net.harness.ticks_per_s", "1/s"),
    m("net.harness.self_s", "s"),
    m("net.harness.residual_s", "s"),
    m("net.harness.residual_share", "share"),
    m("net.harness.crashes", "count"),
    m("net.harness.rejoins", "count"),
    m("net.harness.churn_joins", "count"),
    m("net.harness.churn_departs", "count"),
    m("net.harness.false_reports", "count"),
    m("net.harness.violations", "count"),
    // net.runtime: Observer and PeerCounters totals.
    m("net.runtime.uploads", "count"),
    m("net.runtime.key_releases", "count"),
    m("net.runtime.reports", "count"),
    m("net.runtime.gifts", "count"),
    m("net.runtime.escrow_transfers", "count"),
    m("net.runtime.report_retries", "count"),
    m("net.runtime.stalled_txns", "count"),
    m("net.runtime.frame_rejects", "count"),
    m("net.runtime.quarantines", "count"),
    m("net.runtime.ns_per_frame", "ns"),
    m("net.runtime.useful_ratio", "ratio"),
    // net.telemetry / obs: twin runs with the feature toggled.
    m("net.telemetry.overhead_share", "share"),
    m("net.telemetry.trace_events", "count"),
    m("net.telemetry.flight_dumps", "count"),
    m("net.telemetry.fairness_index", "ratio"),
    m("obs.tracer.overhead_share", "share"),
    m("obs.events_recorded", "count"),
    // The fluid stack, from RunOpts.profile and RunOutcome.
    m("core.driver.cell_s", "s"),
    m("core.driver.membership_s", "s"),
    m("core.driver.rechoke_s", "s"),
    m("core.driver.chain_rounds_s", "s"),
    m("core.driver.completions_s", "s"),
    m("core.driver.control_drain_s", "s"),
    m("core.driver.stall_sweep_s", "s"),
    m("core.driver.profile_overhead_share", "share"),
    m("core.driver.txns_completed", "count"),
    m("core.driver.chains_ended", "count"),
    m("sim.flow.advance_s", "s"),
    m("sim.flow.flows_started", "count"),
    m("sim.flow.flows_completed", "count"),
    m("sim.sim_s_per_s", "virt_s/s"),
    m("baselines.bt_cell_s", "s"),
    m("baselines.randombt_cell_s", "s"),
    m("baselines.fairtorrent_cell_s", "s"),
    m("experiments.runner.cells", "count"),
    m("experiments.runner.serial_s", "s"),
    m("experiments.runner.parallel_eff", "ratio"),
    // The bench's own process.
    m("bench.proc.cpu_user_s", "s"),
    m("bench.proc.cpu_sys_s", "s"),
    m("bench.trace_overhead_share", "share"),
    m("bench.gen_s", "s"),
];

/// Measured values for one table, in table order.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    /// All metrics of `defs`, initially 0.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not declare: an undeclared metric
    /// is a bug in the bench, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = value;
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}
