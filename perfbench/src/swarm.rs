//! The four `swarm_*` workloads: `SwarmHarness` on `ChannelMesh`.

use std::time::Instant;

use tchain_net::{ChannelMesh, NetError, SwarmConfig, SwarmHarness, SwarmReport, Transport};

use crate::stats::{fastest, mib, ratio, Timings};
use crate::traced::{open_span, SharedTrace, Traced, NO_PARENT};
use crate::workloads::{swarm_configs, Workload};
use crate::{layers, Args, Budget, Outcome, MIN_ITERS, SETUPS_PER_ITER};

/// What one iteration must reproduce exactly on every later iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    pub fingerprint: u64,
    pub ticks: u64,
    pub virt_completion_s: f64,
}

/// One swarm's audited result.
pub struct SwarmResult {
    pub identity: Identity,
    pub report: SwarmReport,
    pub piece_len: usize,
    /// `SwarmReport::ok()`, `plaintext_ok`, `ledger_ok` and every
    /// compliant leecher complete.
    pub safe: bool,
}

/// One timed iteration: every swarm of the workload, run once.
pub struct Iteration {
    pub setup_s: f64,
    /// Seconds each swarm's `SwarmHarness::run()` took.
    pub part_s: Vec<f64>,
    pub swarms: Vec<SwarmResult>,
}

impl Iteration {
    pub fn wall_s(&self) -> f64 {
        self.part_s.iter().sum()
    }

    /// Compliant leecher downloads attempted.
    pub fn ops(&self) -> u64 {
        self.swarms
            .iter()
            .map(|s| u64::from(s.report.total_compliant))
            .sum()
    }

    /// Downloads that did not complete, plus every download of a swarm
    /// that broke a safety invariant.
    pub fn ops_failed(&self) -> u64 {
        self.swarms
            .iter()
            .map(|s| {
                let total = u64::from(s.report.total_compliant);
                if s.safe {
                    total - u64::from(s.report.completed_compliant)
                } else {
                    total
                }
            })
            .sum()
    }

    /// Plaintext-verified pieces held by compliant leechers.
    pub fn pieces(&self) -> u64 {
        self.swarms
            .iter()
            .map(|s| u64::from(s.report.completed_compliant) * s.report.pieces as u64)
            .sum()
    }

    /// Plaintext-verified payload bytes held by compliant leechers.
    pub fn bytes(&self) -> u64 {
        self.swarms
            .iter()
            .map(|s| {
                u64::from(s.report.completed_compliant) * (s.report.pieces * s.piece_len) as u64
            })
            .sum()
    }

    pub fn identities(&self) -> Vec<Identity> {
        self.swarms.iter().map(|s| s.identity.clone()).collect()
    }

    /// Mean over swarms of the mean compliant completion time.
    pub fn virt_completion_s(&self) -> f64 {
        self.swarms
            .iter()
            .map(|s| s.identity.virt_completion_s)
            .sum::<f64>()
            / self.swarms.len() as f64
    }
}

/// Mean completion time, on the mesh clock, of the leechers that were
/// compliant at boot or joined later (boot free-riders excluded).
fn virt_completion(cfg: &SwarmConfig, report: &SwarmReport) -> f64 {
    let times: Vec<f64> = report
        .completion_times
        .iter()
        .filter(|(id, _)| *id != 0 && !cfg.strategies.iter().any(|(rider, _)| rider == id))
        .map(|&(_, t)| t)
        .collect();
    ratio(times.iter().sum(), times.len() as f64)
}

fn audit(cfg: &SwarmConfig, report: SwarmReport) -> SwarmResult {
    let safe = report.ok()
        && report.plaintext_ok
        && report.ledger_ok
        && report.completed_compliant == report.total_compliant;
    if !safe {
        eprintln!(
            "swarm seed {:#x} unsafe: completed {}/{}, plaintext_ok={}, ledger_ok={}, violations={:?}",
            cfg.seed,
            report.completed_compliant,
            report.total_compliant,
            report.plaintext_ok,
            report.ledger_ok,
            report.violations
        );
    }
    let identity = Identity {
        fingerprint: report.fingerprint,
        ticks: report.ticks,
        virt_completion_s: virt_completion(cfg, &report),
    };
    SwarmResult {
        identity,
        report,
        piece_len: cfg.piece_len,
        safe,
    }
}

fn mesh(cfg: &SwarmConfig) -> ChannelMesh {
    ChannelMesh::with_chaos(cfg.plan.clone(), cfg.chaos.clone(), cfg.tick_dt)
}

/// Harnesses built and ready to run: the set-up half of an iteration.
struct Built<T: Transport> {
    cfgs: Vec<SwarmConfig>,
    harnesses: Vec<SwarmHarness<T>>,
    setup_s: f64,
}

/// Generates the workload's configs and constructs a harness for each.
/// `wrap` decorates (or passes through) each mesh; `edit` adjusts each
/// generated config (twin runs toggle one field).
fn build<T: Transport>(
    w: Workload,
    args: &Args,
    edit: impl Fn(&mut SwarmConfig),
    wrap: impl Fn(ChannelMesh) -> T,
) -> Result<Built<T>, NetError> {
    let t = Instant::now();
    let mut cfgs = swarm_configs(w, args.seed, args.smoke);
    cfgs.iter_mut().for_each(&edit);
    let mut harnesses = Vec::with_capacity(cfgs.len());
    for cfg in &cfgs {
        harnesses.push(SwarmHarness::new(wrap(mesh(cfg)), cfg.clone())?);
    }
    Ok(Built {
        cfgs,
        harnesses,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// Runs every built harness to completion and audits the reports.
fn drive<T: Transport>(built: Built<T>) -> Result<Iteration, NetError> {
    let mut reports = Vec::with_capacity(built.harnesses.len());
    let mut part_s = Vec::with_capacity(built.harnesses.len());
    for h in built.harnesses {
        let t = Instant::now();
        reports.push(h.run()?);
        part_s.push(t.elapsed().as_secs_f64());
    }
    let swarms = built
        .cfgs
        .iter()
        .zip(reports)
        .map(|(cfg, r)| audit(cfg, r))
        .collect();
    Ok(Iteration {
        setup_s: built.setup_s,
        part_s,
        swarms,
    })
}

fn iterate(
    w: Workload,
    args: &Args,
    edit: impl Fn(&mut SwarmConfig),
) -> Result<Iteration, NetError> {
    drive(build(w, args, edit, |m| m)?)
}

fn plain(w: Workload, args: &Args) -> Result<Iteration, NetError> {
    iterate(w, args, |_| {})
}

/// Folds one iteration's correctness into `out`: failed downloads, and
/// any drift from the first iteration's fingerprint, ticks or virtual
/// completion time.
fn check(out: &mut Outcome, reference: &[Identity], it: &Iteration, what: &str) {
    out.attempted += it.ops();
    out.failed += it.ops_failed();
    if it.identities() != reference {
        eprintln!(
            "{what}: identity drifted: {:?} != {:?}",
            it.identities(),
            reference
        );
        out.correct = false;
    }
}

/// The untraced run: timed iterations for `--seconds`. The first is also
/// the reference every later one must reproduce; there is no separate
/// warm-up, because the timings keep each swarm's fastest pass and a cold
/// first pass is never that.
pub fn run(w: Workload, args: &Args) -> Result<Outcome, NetError> {
    let mut out = Outcome::end_to_end();
    let (mut setups, mut walls) = (Timings::default(), Timings::default());
    let mut reference = None;
    let mut last = None;
    let mut budget = Budget::start();
    while budget.more(args, MIN_ITERS) {
        for _ in 0..SETUPS_PER_ITER {
            setups.push(&[build(w, args, |_| {}, |m| m)?.setup_s]);
        }
        let it = plain(w, args)?;
        setups.push(&[it.setup_s]);
        walls.push(&it.part_s);
        let reference = reference.get_or_insert_with(|| it.identities());
        check(&mut out, reference, &it, "timed iteration");
        last = Some(it);
        out.sample_rss();
    }
    let reference = reference.expect("at least one timed iteration");
    let last = last.expect("at least one timed iteration");
    if let Some(expected) = args.expect_fingerprint {
        if reference[0].fingerprint != expected {
            eprintln!(
                "fingerprint {:#018x} does not match --expect-fingerprint {expected:#018x}",
                reference[0].fingerprint
            );
            out.correct = false;
        }
    }
    let wall = out.set_timings(&setups, &walls);
    out.identity = format!("{:#018x}", reference[0].fingerprint);
    out.values
        .set("goodput_mib_s", mib(last.bytes() as f64) / wall);
    out.values.set("ops_per_s", last.pieces() as f64 / wall);
    Ok(out)
}

/// A second configuration a traced run prices against the workload's
/// own: the same swarms with one feature toggled.
struct Twin {
    edit: fn(&mut SwarmConfig),
    /// The overhead metric the pair feeds.
    metric: &'static str,
    /// `true` when the twin is the side with the feature on.
    twin_has_feature: bool,
}

fn twin(w: Workload) -> Option<Twin> {
    match w {
        // Telemetry is on in `swarm_hostile`; the twin turns it off.
        Workload::SwarmHostile => Some(Twin {
            edit: |c| c.telemetry = false,
            metric: "net.telemetry.overhead_share",
            twin_has_feature: false,
        }),
        // The obs event ring is off in `swarm_ctrl`; the twin turns it on.
        Workload::SwarmCtrl => Some(Twin {
            edit: |c| c.trace_capacity = 4096,
            metric: "obs.tracer.overhead_share",
            twin_has_feature: true,
        }),
        _ => None,
    }
}

/// The traced run: alternates plain, decorated and (where defined) twin
/// iterations for `--seconds`, then replays the decorated run's traffic
/// through each layer.
pub fn run_traced(w: Workload, args: &Args, trace: &SharedTrace) -> Result<Outcome, NetError> {
    let mut out = Outcome::per_layer();
    let warm = plain(w, args)?;
    let reference = warm.identities();
    check(&mut out, &reference, &warm, "warm-up");

    let (mut plain_walls, mut traced_walls, mut twin_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut new_s, mut run_s, mut self_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_traced = None;
    let mut twin_events = 0u64;
    let mut budget = Budget::start();
    let mut iter = 0u32;
    while budget.more(args, 1) {
        let it = plain(w, args)?;
        check(&mut out, &reference, &it, "plain iteration");
        plain_walls.push(it.wall_s());

        let root = open_span(trace, "iteration", NO_PARENT, iter);
        let new_span = open_span(trace, "harness.new", root, iter);
        let built = build(w, args, |_| {}, |m| Traced::new(m, trace.clone()))?;
        trace.borrow_mut().spans.end(new_span);
        // The decorator parents its per-call spans to `harness.run`, so
        // that span's self time is the run minus the transport.
        let run_span = open_span(trace, "harness.run", root, iter);
        let it = drive(built)?;
        {
            let mut st = trace.borrow_mut();
            st.spans.end(run_span);
            st.spans.end(root);
            new_s.push(it.setup_s);
            run_s.push(it.wall_s());
            self_s.push(st.spans.self_s(run_span));
        }
        // Transparency: the decorated run is the same execution.
        check(&mut out, &reference, &it, "traced iteration");
        traced_walls.push(it.wall_s());
        last_traced = Some(it);

        if let Some(twin) = twin(w) {
            let it = iterate(w, args, twin.edit)?;
            // Telemetry stamps and the event ring must not move the
            // fingerprint either.
            check(&mut out, &reference, &it, "twin iteration");
            twin_walls.push(it.wall_s());
            twin_events = it.swarms.iter().map(|s| s.report.events_recorded).sum();
        }
        iter += 1;
    }

    let it = last_traced.expect("at least one traced iteration");
    let st = trace.borrow();
    let log = &st.log;
    // Every share is of the fastest decorated iteration, and the
    // decorator's and the harness's own time are taken from that one.
    let best = (0..run_s.len())
        .min_by(|&a, &b| run_s[a].total_cmp(&run_s[b]))
        .expect("at least one traced iteration");
    let (run, harness_self) = (run_s[best], self_s[best]);
    let plain_wall = fastest(&plain_walls);
    let v = &mut out.values;
    v.set("e2e.virt_completion_s", it.virt_completion_s());
    v.set(
        "bench.trace_overhead_share",
        (fastest(&traced_walls) - plain_wall) / plain_wall,
    );

    // The decorator's log accumulates across traced iterations; every
    // iteration is the same execution, so per-iteration figures divide
    // by the iteration count.
    let n = traced_walls.len() as f64;
    let send_busy = log.send_busy_ns as f64 * 1e-9 / n;
    let advance_busy = log.advance_busy_ns as f64 * 1e-9 / n;
    let delivered = log.frames_delivered as f64 / n;
    v.set("net.transport.send_calls", log.send_calls as f64 / n);
    v.set("net.transport.send_busy_s", send_busy);
    v.set("net.transport.advance_calls", log.advance_calls as f64 / n);
    v.set("net.transport.advance_busy_s", advance_busy);
    v.set(
        "net.transport.empty_advances",
        log.empty_advances as f64 / n,
    );
    v.set("net.transport.frames_delivered", delivered);
    v.set(
        "net.transport.bytes_delivered",
        log.bytes_delivered as f64 / n,
    );
    v.set(
        "net.transport.frames_dropped",
        it.swarms
            .iter()
            .map(|s| s.report.transport.dropped)
            .sum::<u64>() as f64,
    );
    v.set(
        "net.transport.batch_mean",
        ratio(
            log.frames_delivered as f64,
            (log.advance_calls - log.empty_advances) as f64,
        ),
    );
    v.set("net.transport.batch_max", log.batch_max as f64);
    v.set("net.transport.chaos_injects", log.chaos_injects as f64 / n);
    v.set("net.transport.share", (run - harness_self) / run);
    v.set("net.frame.rejects", log.chaos_rejects as f64 / n);

    // Replay legs: the exact traffic, through each layer's public API.
    let replay = layers::replay(&log.buckets, n);
    replay.report_crypto(v);
    replay.report_codec(v);
    let ticks: u64 = it.swarms.iter().map(|s| s.report.ticks).sum();
    let sched = layers::replay_sched(log.peers, ticks, (log.recipient_wakes as f64 / n) as u64);
    sched.report(v);
    // On the mesh a frame is encoded once, by the harness's fingerprint
    // fold; nothing decodes. `proto.wire` encode is inside that encode.
    let frame_busy = replay.frame_encode_s;
    v.set("crypto.share", replay.crypto_s / run);
    v.set("net.frame.share", frame_busy / run);
    v.set("net.sched.share", sched.busy_s / run);

    let residual = harness_self - replay.crypto_s - frame_busy - sched.busy_s;
    v.set("net.harness.new_s", fastest(&new_s));
    v.set("net.harness.run_s", run);
    v.set("net.harness.ticks", ticks as f64);
    v.set("net.harness.ticks_per_s", ticks as f64 / run);
    v.set("net.harness.self_s", harness_self);
    v.set("net.harness.residual_s", residual);
    v.set("net.harness.residual_share", residual / run);
    v.set("net.runtime.ns_per_frame", ratio(residual * 1e9, delivered));

    let sum =
        |f: fn(&SwarmReport) -> u64| it.swarms.iter().map(|s| f(&s.report)).sum::<u64>() as f64;
    let peer_sum = |f: fn(&tchain_net::PeerCounters) -> u64| {
        it.swarms
            .iter()
            .flat_map(|s| s.report.peer_counters.iter())
            .map(|(_, c)| f(c))
            .sum::<u64>() as f64
    };
    v.set("net.harness.crashes", sum(|r| r.crashes));
    v.set("net.harness.rejoins", sum(|r| r.rejoins));
    v.set("net.harness.churn_joins", sum(|r| r.churn_joins));
    v.set("net.harness.churn_departs", sum(|r| r.churn_departs));
    v.set("net.harness.false_reports", sum(|r| r.false_reports));
    v.set("net.harness.violations", sum(|r| r.violations.len() as u64));
    v.set("net.runtime.uploads", sum(|r| r.uploads));
    v.set("net.runtime.key_releases", sum(|r| r.key_releases));
    v.set("net.runtime.reports", sum(|r| r.reports));
    v.set("net.runtime.gifts", sum(|r| r.gifts));
    v.set("net.runtime.escrow_transfers", sum(|r| r.escrow_transfers));
    v.set("net.runtime.report_retries", peer_sum(|c| c.report_retries));
    v.set("net.runtime.stalled_txns", peer_sum(|c| c.stalled_txns));
    v.set("net.runtime.frame_rejects", sum(|r| r.frame_rejects));
    v.set("net.runtime.quarantines", sum(|r| r.quarantines));
    v.set(
        "net.runtime.useful_ratio",
        ratio(it.pieces() as f64, peer_sum(|c| c.uploaded)),
    );

    if let Some(twin) = twin(w) {
        let twin_wall = fastest(&twin_walls);
        let (on, off) = if twin.twin_has_feature {
            (twin_wall, plain_wall)
        } else {
            (plain_wall, twin_wall)
        };
        v.set(twin.metric, (on - off) / off);
    }
    // Zero unless the workload (or its twin) has the feature on.
    v.set("obs.events_recorded", twin_events as f64);
    v.set(
        "net.telemetry.trace_events",
        it.swarms
            .iter()
            .flat_map(|s| s.report.peer_rings.iter())
            .map(|(_, ring)| ring.len() as u64)
            .sum::<u64>() as f64,
    );
    v.set(
        "net.telemetry.flight_dumps",
        sum(|r| r.flight_dumps.len() as u64),
    );
    let fairness: Vec<f64> = it
        .swarms
        .iter()
        .filter_map(|s| s.report.telemetry.as_ref().map(|t| t.fairness_index()))
        .collect();
    v.set(
        "net.telemetry.fairness_index",
        ratio(fairness.iter().sum(), fairness.len() as f64),
    );
    out.identity = format!("{:#018x}", reference[0].fingerprint);
    out.samples = traced_walls.len();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::TraceState;

    /// Transparency: the decorator forwards everything unchanged, so a
    /// decorated run has the plain run's fingerprint, ticks and virtual
    /// time, and its log accounts for every delivered frame.
    #[test]
    fn a_decorated_run_is_the_same_execution() {
        let args = Args::smoke_test(11);
        for w in [Workload::SwarmBulk, Workload::SwarmHostile] {
            let plain = plain(w, &args).expect("mesh cannot fail");
            let trace = TraceState::shared();
            let built = build(w, &args, |_| {}, |m| Traced::new(m, trace.clone()));
            let traced = drive(built.expect("mesh cannot fail")).expect("mesh cannot fail");
            assert_eq!(plain.identities(), traced.identities(), "{}", w.name());
            assert_eq!(plain.ops_failed(), 0);
            let st = trace.borrow();
            let delivered: u64 = traced
                .swarms
                .iter()
                .map(|s| s.report.transport.delivered)
                .sum();
            assert_eq!(st.log.frames_delivered, delivered);
            assert_eq!(
                st.log.buckets.iter().map(|b| b.count).sum::<u64>(),
                delivered
            );
        }
    }

    /// A different seed is a different execution (the identity check is
    /// not vacuous).
    #[test]
    fn seeds_change_the_fingerprint() {
        let a = plain(Workload::SwarmCtrl, &Args::smoke_test(1)).expect("mesh cannot fail");
        let b = plain(Workload::SwarmCtrl, &Args::smoke_test(2)).expect("mesh cannot fail");
        assert_ne!(a.identities(), b.identities());
    }
}
