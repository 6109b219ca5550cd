//! net_swarm: the executable `tchain-net` runtime, end to end.
//!
//! Not a paper figure — the PR 4 system experiment. Boots in-process
//! swarms of real [`tchain_net::PeerRuntime`]s on the deterministic
//! channel mesh (genuine ChaCha20 ciphertexts, framed wire messages,
//! §II-B key releases audited frame-by-frame) across four scenarios:
//! clean flash crowd, free-riding, lossy control plane, and
//! depart-on-complete (§II-B4 escrow). Then cross-checks the net
//! runtime against the fluid simulator on a shared scenario shape.
//!
//! **Cross-check tolerance** (also asserted in `tests/net_swarm.rs`):
//! the two stacks share protocol semantics, not clocks or piece
//! scheduling, so exact-match is only demanded where the incentive
//! argument demands it — every compliant leecher completes (rate 1.0 in
//! both), free-riders starve (0 completions in both), and zero
//! unreciprocated key releases on the wire. Chain statistics are
//! shape-level: the net/fluid mean-chain-length ratio must land in
//! [0.25, 4.0]; dimensionless, seeds averaged, documented in DESIGN.md
//! §8.

use crate::output::{persist, print_table, Absorb, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{drive, Horizon};
use tchain_attacks::{FluidDriver, PeerPlan};
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_net::{run_swarm, NetConfig, Strategy, SwarmConfig, SwarmReport};
use tchain_obs::MetricMap;
use tchain_proto::FileSpec;
use tchain_sim::{kbps, FaultPlan};

tchain_obs::json_struct! {
    /// One net-runtime scenario's audited outcome.
    #[derive(Debug)]
    pub struct NetPoint {
        /// Scenario label.
        pub scenario: String,
        /// Peers including the seeder.
        pub peers: u32,
        /// Free-riding leechers.
        pub free_riders: u32,
        /// Pieces in the file.
        pub pieces: usize,
        /// Compliant leechers that completed / total.
        pub completed_compliant: u32,
        /// Compliant leechers in the scenario.
        pub total_compliant: u32,
        /// Free-riders that assembled the whole file (must stay 0).
        pub completed_free_riders: u32,
        /// Every decrypted piece matched the source bytes.
        pub plaintext_ok: bool,
        /// Unreciprocated key releases seen by the observer (must stay 0).
        pub violations: usize,
        /// Chains opened on the wire.
        pub chains_started: usize,
        /// Mean uploads per chain.
        pub mean_chain_len: f64,
        /// Longest chain.
        pub max_chain_len: u32,
        /// §II-B3 unencrypted terminations.
        pub chains_terminated: usize,
        /// Encrypted uploads / gifts / reports / key releases on the wire.
        pub uploads: u64,
        /// §II-B3 gift uploads.
        pub gifts: u64,
        /// Reception reports.
        pub reports: u64,
        /// Key releases.
        pub key_releases: u64,
        /// Key releases over the §II-B4 escrow path.
        pub escrow_transfers: u64,
        /// Transport-clock seconds to drain.
        pub elapsed: f64,
        /// Order-sensitive digest of every delivered frame (hex).
        pub fingerprint: String,
    }
}

tchain_obs::json_struct! {
    /// Net-vs-fluid comparison on the shared scenario shape.
    #[derive(Debug)]
    pub struct CrossCheck {
        /// Seed shared by both runs.
        pub seed: u64,
        /// Net: completed compliant / total compliant.
        pub net_compliant_rate: f64,
        /// Fluid: completed compliant / total compliant.
        pub sim_compliant_rate: f64,
        /// Net free-riders that finished (starvation check).
        pub net_free_riders_done: u32,
        /// Fluid free-riders that finished.
        pub sim_free_riders_done: usize,
        /// Net mean uploads per chain.
        pub net_mean_chain_len: f64,
        /// Fluid mean transactions per ended chain.
        pub sim_mean_chain_len: f64,
        /// net/sim mean-chain-length ratio (tolerance band [0.25, 4.0]).
        pub chain_len_ratio: f64,
        /// All hard invariants matched and the ratio is in band.
        pub within_tolerance: bool,
    }
}

tchain_obs::json_struct! {
    /// The persisted document: scenarios plus the cross-check.
    #[derive(Debug)]
    pub struct NetSwarmDoc {
        /// Audited net-runtime scenarios.
        pub scenarios: Vec<NetPoint>,
        /// Net-vs-fluid cross-check (`null` when the free-rider cell failed).
        pub cross_check: Option<CrossCheck>,
    }
}

fn net_point(name: &str, report: &SwarmReport) -> NetPoint {
    NetPoint {
        scenario: name.to_string(),
        peers: report.peers,
        free_riders: report.free_riders,
        pieces: report.pieces,
        completed_compliant: report.completed_compliant,
        total_compliant: report.total_compliant,
        completed_free_riders: report.completed_free_riders,
        plaintext_ok: report.plaintext_ok,
        violations: report.violations.len(),
        chains_started: report.chains_started,
        mean_chain_len: report.mean_chain_len,
        max_chain_len: report.max_chain_len,
        chains_terminated: report.chains_terminated,
        uploads: report.uploads,
        gifts: report.gifts,
        reports: report.reports,
        key_releases: report.key_releases,
        escrow_transfers: report.escrow_transfers,
        elapsed: report.elapsed,
        fingerprint: format!("{:016x}", report.fingerprint),
    }
}

/// One wire run of `cfg` as a runner cell, booked as a run.
pub fn wire_run(cfg: &SwarmConfig) -> (SwarmReport, MetricMap) {
    (run_swarm(cfg.clone()).expect("mesh transport cannot fail"), MetricMap::new())
}

/// One audited wire run of `cfg` as a runner cell, booked as one run:
/// the report, and whether a same-seed rerun was the same run
/// ([`SwarmReport::same_run`]).
pub fn audited_run(cfg: &SwarmConfig) -> ((SwarmReport, bool), MetricMap) {
    let (report, metrics) = wire_run(cfg);
    let deterministic = report.same_run(&wire_run(cfg).0);
    ((report, deterministic), metrics)
}

/// Runs a net experiment's scenarios on the runner's pool through
/// [`sweep_points`], one point per scenario and one cell at `seed` each,
/// booked into `meta`. Returns every booked scenario beside its cell's
/// output, in scenario order. A scenario whose cell panicked is missing:
/// it is in `meta.failed_cells`, and [`all_safe`] fails the experiment.
pub fn sweep_scenarios<'a, S, T>(
    figure: &str,
    meta: &mut RunMeta,
    scenarios: &'a [S],
    seed: u64,
    label: impl Fn(&S) -> String + Sync,
    cell: impl Fn(&S) -> T + Sync,
) -> Vec<(&'a S, T::Booked)>
where
    S: Sync,
    T: Absorb + Send,
{
    let groups = sweep_points(figure, meta, scenarios, |_| vec![seed], label, |s, _| cell(s));
    scenarios.iter().zip(groups).flat_map(|(s, g)| g.into_iter().map(move |o| (s, o))).collect()
}

/// A net experiment's verdict: no cell failed and every booked scenario
/// is `safe`.
pub fn all_safe(meta: &RunMeta, mut safe: impl Iterator<Item = bool>) -> bool {
    meta.failed_cells.is_empty() && safe.all(|s| s)
}

/// The sim-vs-net cross-check of a net run with free-riders (here and
/// in `net_attacks`): the fluid driver runs a flash crowd with the same
/// compliant/free-rider split and piece count to compliant completion,
/// at the same seed. The incentive argument — compliant completion,
/// free-rider starvation, no unreciprocated key release — must agree
/// exactly; chain statistics agree in shape (ratio band [0.25, 4.0]).
pub fn cross_check(net: &SwarmReport, seed: u64) -> CrossCheck {
    let compliant = net.total_compliant as usize;
    let file = FileSpec::custom(net.pieces, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plan: Vec<PeerPlan> = (0..compliant)
        .map(|i| PeerPlan::compliant(0.4 + i as f64 * 0.05, kbps(800.0)))
        .collect();
    for i in 0..net.free_riders {
        plan.push(PeerPlan::free_rider(0.5 + f64::from(i) * 0.05, kbps(800.0)));
    }
    let mut sw = TChainSwarm::new(file, TChainConfig::default(), plan, seed);
    let out = drive(&mut sw, Horizon::CompliantDone);
    let sim_rate = out.compliant_times.len() as f64 / compliant as f64;
    let sim_fr_done =
        sw.base().peers.iter().filter(|p| !p.compliant && p.done_time.is_some()).count();
    let sim_mcl = sw.chain_stats().mean_length();
    let net_rate = if compliant == 0 {
        1.0
    } else {
        f64::from(net.completed_compliant) / f64::from(net.total_compliant)
    };
    let ratio = if sim_mcl > 0.0 { net.mean_chain_len / sim_mcl } else { 0.0 };
    let within = net_rate == 1.0
        && sim_rate == 1.0
        && net.completed_free_riders == 0
        && sim_fr_done == 0
        && net.violations.is_empty()
        && (0.25..=4.0).contains(&ratio);
    CrossCheck {
        seed,
        net_compliant_rate: net_rate,
        sim_compliant_rate: sim_rate,
        net_free_riders_done: net.completed_free_riders,
        sim_free_riders_done: sim_fr_done,
        net_mean_chain_len: net.mean_chain_len,
        sim_mean_chain_len: sim_mcl,
        chain_len_ratio: ratio,
        within_tolerance: within,
    }
}

/// Books [`cross_check`] of `net` as one more runner cell of `figure`
/// and prints its verdict; `None` when `net` is `None` (its own cell
/// failed) or when this cell panics.
pub(crate) fn book_cross_check(
    figure: &str,
    meta: &mut RunMeta,
    net: Option<&SwarmReport>,
    seed: u64,
) -> Option<CrossCheck> {
    let fluid = |net: &&SwarmReport| (cross_check(net, seed), MetricMap::new());
    let label = |_: &&SwarmReport| "cross-check".to_string();
    let (_, cross) = sweep_scenarios(figure, meta, net.as_slice(), seed, label, fluid).pop()?;
    println!(
        "cross-check vs the fluid driver: compliant {:.2}/{:.2}, free-riders {}/{}, \
         chain-length ratio {:.2} (band 0.25–4.0) -> {}",
        cross.net_compliant_rate,
        cross.sim_compliant_rate,
        cross.net_free_riders_done,
        cross.sim_free_riders_done,
        cross.chain_len_ratio,
        if cross.within_tolerance { "within tolerance" } else { "OUT OF TOLERANCE" }
    );
    Some(cross)
}

/// Runs the net-swarm experiment and the sim-vs-net cross-check.
pub fn run(scale: Scale) -> NetSwarmDoc {
    let (peers, pieces, piece_len) = match scale {
        Scale::Quick => (16u32, 24usize, 1024usize),
        Scale::Paper => (48u32, 64usize, 4096usize),
    };
    let seed = 0x4E75;
    let base = SwarmConfig {
        peers,
        pieces,
        piece_len,
        seed,
        ..SwarmConfig::default()
    };
    let configs = [
        ("clean", base.clone()),
        (
            "free-rider",
            SwarmConfig {
                strategies: vec![
                    (peers - 2, Strategy::zero_upload()),
                    (peers - 1, Strategy::zero_upload()),
                ],
                ..base.clone()
            },
        ),
        (
            "lossy-10pct",
            SwarmConfig { plan: FaultPlan::lossy(seed ^ 0x1055, 0.10), ..base.clone() },
        ),
        (
            "departure-escrow",
            SwarmConfig { net: NetConfig { depart_on_complete: true }, ..base.clone() },
        ),
    ];
    let mut meta = RunMeta::default();
    let label = |s: &(&str, SwarmConfig)| s.0.to_string();
    let runs = sweep_scenarios("net_swarm", &mut meta, &configs, seed, label, |s| wire_run(&s.1));
    let scenarios: Vec<NetPoint> = runs.iter().map(|(s, r)| net_point(s.0, r)).collect();
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|p| {
            vec![
                p.scenario.clone(),
                format!("{}", p.peers),
                format!("{}/{}", p.completed_compliant, p.total_compliant),
                p.completed_free_riders.to_string(),
                if p.plaintext_ok { "ok" } else { "MISMATCH" }.to_string(),
                p.violations.to_string(),
                format!("{:.2}", p.mean_chain_len),
                p.chains_terminated.to_string(),
                p.escrow_transfers.to_string(),
                format!("{:.0}", p.elapsed),
            ]
        })
        .collect();
    print_table(
        "net_swarm: executable peer runtime (channel mesh, audited key releases)",
        &[
            "scenario", "peers", "compliant", "FR done", "plaintext", "violations",
            "chain len", "gifts-end", "escrows", "t (s)",
        ],
        &rows,
    );
    let free_rider = runs.iter().find(|(s, _)| s.0 == "free-rider").map(|(_, r)| r);
    let cross = book_cross_check("net_swarm", &mut meta, free_rider, seed);
    let doc = NetSwarmDoc { scenarios, cross_check: cross };
    persist("net_swarm", scale.name(), &doc, &meta);
    doc
}
