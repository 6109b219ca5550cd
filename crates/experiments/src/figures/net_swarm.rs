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

use crate::output::{persist, print_table, RunMeta};
use crate::scale::Scale;
use tchain_attacks::{FluidDriver, PeerPlan};
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_net::{run_swarm, NetConfig, Strategy, SwarmConfig};
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
        /// Net-vs-fluid cross-check.
        pub cross_check: CrossCheck,
    }
}

fn net_point(name: &str, cfg: SwarmConfig, meta: &mut RunMeta) -> NetPoint {
    let report = run_swarm(cfg).expect("mesh transport cannot fail");
    meta.note_run();
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

/// Fluid-simulator leg of a sim-vs-net cross-check (here and in
/// `net_attacks`): a flash crowd with the same compliant/free-rider split
/// and piece count, driven to compliant completion. Returns (compliant
/// rate, free-riders done, mean chain length over ended chains).
pub(crate) fn fluid_leg(
    compliant: usize,
    free_riders: usize,
    pieces: usize,
    seed: u64,
) -> (f64, usize, f64) {
    let file = FileSpec::custom(pieces, 64.0 * 1024.0, 64.0 * 1024.0);
    let mut plan: Vec<PeerPlan> = (0..compliant)
        .map(|i| PeerPlan::compliant(0.4 + i as f64 * 0.05, kbps(800.0)))
        .collect();
    for i in 0..free_riders {
        plan.push(PeerPlan::free_rider(0.5 + i as f64 * 0.05, kbps(800.0)));
    }
    let mut sw = TChainSwarm::new(file, TChainConfig::default(), plan, seed);
    sw.run_until_done();
    let rate = sw.base().completion_times(true).len() as f64 / compliant as f64;
    let fr_done =
        sw.base().peers.iter().filter(|p| !p.compliant && p.done_time.is_some()).count();
    (rate, fr_done, sw.chain_stats().mean_length())
}

/// Builds the cross-check from the free-rider net scenario and the
/// matching fluid run.
fn cross_check(net: &NetPoint, seed: u64, meta: &mut RunMeta) -> CrossCheck {
    let (sim_rate, sim_fr_done, sim_mcl) = fluid_leg(
        net.total_compliant as usize,
        net.free_riders as usize,
        net.pieces,
        seed,
    );
    meta.note_run();
    let net_rate = if net.total_compliant == 0 {
        1.0
    } else {
        f64::from(net.completed_compliant) / f64::from(net.total_compliant)
    };
    let ratio = if sim_mcl > 0.0 { net.mean_chain_len / sim_mcl } else { 0.0 };
    let within = net_rate == 1.0
        && sim_rate == 1.0
        && net.completed_free_riders == 0
        && sim_fr_done == 0
        && net.violations == 0
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
    let mut meta = RunMeta::default();
    let scenarios = vec![
        net_point("clean", base.clone(), &mut meta),
        net_point(
            "free-rider",
            SwarmConfig {
                strategies: vec![
                    (peers - 2, Strategy::zero_upload()),
                    (peers - 1, Strategy::zero_upload()),
                ],
                ..base.clone()
            },
            &mut meta,
        ),
        net_point(
            "lossy-10pct",
            SwarmConfig {
                plan: FaultPlan::lossy(seed ^ 0x1055, 0.10),
                ..base.clone()
            },
            &mut meta,
        ),
        net_point(
            "departure-escrow",
            SwarmConfig {
                net: NetConfig { depart_on_complete: true },
                ..base.clone()
            },
            &mut meta,
        ),
    ];
    let cross = cross_check(&scenarios[1], seed, &mut meta);
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
    println!(
        "cross-check vs fluid sim: compliant {:.2}/{:.2}, free-riders {}/{}, \
         chain-length ratio {:.2} (band 0.25–4.0) -> {}",
        cross.net_compliant_rate,
        cross.sim_compliant_rate,
        cross.net_free_riders_done,
        cross.sim_free_riders_done,
        cross.chain_len_ratio,
        if cross.within_tolerance { "within tolerance" } else { "OUT OF TOLERANCE" }
    );
    let doc = NetSwarmDoc { scenarios, cross_check: cross };
    persist("net_swarm", scale.name(), &doc, &meta);
    doc
}
