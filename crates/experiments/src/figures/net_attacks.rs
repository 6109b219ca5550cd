//! net_attacks: strategic adversaries on the wire (§IV-C, §IV-D).
//!
//! The PR 9 system experiment. Boots in-process swarms of real
//! [`tchain_net::PeerRuntime`]s with the adversary engine armed and
//! reproduces the paper's attack analyses on the executable runtime:
//!
//! * **baseline** — a clean swarm, the control leg. The attack engine
//!   must stay unconstructed: no false reports, no whitewash rejoins,
//!   exactly one tracker query per peer.
//! * **aggressive-25pct** — 25 % of the swarm runs
//!   `Strategy::aggressive_free_rider()` (§IV-C large-view + whitewash:
//!   outsized tracker re-queries every rechoke period, identity resets
//!   with loot kept once the current identity stalls). T-Chain starves
//!   them anyway — encrypted uploads are worthless without keys, and
//!   keys require reciprocation — while every compliant leecher still
//!   completes. Cross-checked against the fluid-sim free-rider driver
//!   on the same scenario shape.
//! * **collusion-ring** — a ring of `colluding_free_rider(GroupId(0))`
//!   (§IV-D): ring members file false `Report` frames on each other's
//!   behalf whenever a transaction's requestor and payee both land in
//!   the ring. The observer must detect and attribute *every* false
//!   report, colluder gain must stay bounded by the report count, and
//!   no compliant peer may be implicated.
//! * **sybil** — a collude-only ring (no large-view, no whitewash) so
//!   the swarm population stays fixed while the §III-A4 collision rate
//!   is measured: of the designated-payee uploads whose requestor sits
//!   in the ring, the fraction whose payee also does is compared to the
//!   closed-form conditional rate `(m−1)/(N−1)` from
//!   [`tchain_analysis::collusion`].
//!
//! Every scenario is run twice under the same seed, and the rerun must
//! be the same run (`SwarmReport::same_run`); `all_safe` gates the CI
//! job.
//!
//! **Tolerances.** Incentive invariants are exact (compliant rate 1.0,
//! zero free-rider completions, zero unreciprocated key releases, every
//! false report attributed). The Sybil rate comparison is shape-level:
//! the wire's payee assignment is the §II-D2 pending ledger, not a
//! uniform draw — ring members never report, so their unreciprocated
//! transactions pile up in donors' pending ledgers and the ring is
//! over-represented among payees, biasing the measured rate ~3× above
//! the uniform closed form. The measured/closed-form ratio must land
//! in [0.25, 5.0] (observed 2.6–3.1 across seeds).

use super::net_swarm::{all_safe, audited_run, book_cross_check, sweep_scenarios, CrossCheck};
use crate::output::{persist, print_table, RunMeta};
use crate::scale::Scale;
use tchain_analysis::collusion::ps_exact;
use tchain_attacks::{FreeRiderConfig, GroupId, Strategy};
use tchain_net::{SwarmConfig, SwarmReport};

tchain_obs::json_struct! {
    /// One adversarial scenario's audited outcome.
    #[derive(Debug)]
    pub struct AttackPoint {
        /// Scenario label.
        pub scenario: String,
        /// Peers including the seeder.
        pub peers: u32,
        /// Strategic (non-compliant) peers in the boot population.
        pub adversaries: u32,
        /// Compliant leechers that completed / total.
        pub completed_compliant: u32,
        /// Compliant leechers in the scenario.
        pub total_compliant: u32,
        /// Adversaries that assembled the whole file.
        pub adversaries_done: u32,
        /// Completion breakdown per strategy label → (completed, total).
        pub completed_by_strategy: Vec<(String, u32, u32)>,
        /// Every decrypted piece matched the source bytes.
        pub plaintext_ok: bool,
        /// §II-D2 ledgers consistent on every survivor.
        pub ledger_ok: bool,
        /// Unreciprocated key releases seen by the observer (must stay 0).
        pub violations: usize,
        /// False reception reports detected and attributed (§IV-D).
        pub false_reports: u64,
        /// Key releases colluders extracted via false reports.
        pub colluder_gain: u64,
        /// Designated-payee uploads leaked from non-attackers to attackers.
        pub altruism_leaked: u64,
        /// Uploads leaked from the seeder to attackers (§II-D3 exposure).
        pub seeder_leakage: u64,
        /// §II-B3 gifts that landed on attackers.
        pub gift_leakage: u64,
        /// Uploads whose requestor sat in a Sybil group (§III-A4 trials).
        pub sybil_checks: u64,
        /// Trials where the payee landed in the requestor's group.
        pub sybil_collisions: u64,
        /// Whitewash identity resets completed (§IV-C).
        pub whitewash_rejoins: u64,
        /// Tracker member-list queries served (large-view signature).
        pub tracker_queries: u64,
        /// Encrypted uploads on the wire.
        pub uploads: u64,
        /// Key releases on the wire.
        pub key_releases: u64,
        /// Mean uploads per chain.
        pub mean_chain_len: f64,
        /// Transport-clock seconds to drain.
        pub elapsed: f64,
        /// Order-sensitive digest of every delivered frame (hex).
        pub fingerprint: String,
        /// Same-seed rerun reproduced the fingerprint bit-for-bit.
        pub deterministic: bool,
        /// Scenario-specific incentive guarantee held.
        pub safe: bool,
    }
}

tchain_obs::json_struct! {
    /// Measured §III-A4 collision rate vs the closed forms.
    #[derive(Debug)]
    pub struct SybilCheck {
        /// Ring size `m`.
        pub ring: u32,
        /// Swarm size `N` (including the seeder).
        pub peers: u32,
        /// Trials: designated-payee uploads with a ring requestor.
        pub checks: u64,
        /// Hits: payee landed in the ring too.
        pub collisions: u64,
        /// collisions / checks.
        pub measured_rate: f64,
        /// Conditional closed form `(m−1)/(N−1)` given a ring requestor.
        pub conditional_rate: f64,
        /// Unconditional `P_s = m(m−1)/(N(N−1))` (§III-A4, `ps_exact`).
        pub ps_exact: f64,
        /// measured / conditional ratio (band [0.25, 5.0] — the §II-D2
        /// pending-ledger payee assignment over-represents the ring).
        pub ratio: f64,
        /// Trials happened and the ratio landed in band.
        pub within_band: bool,
    }
}

tchain_obs::json_struct! {
    /// The persisted document: scenarios plus both cross-checks.
    #[derive(Debug)]
    pub struct NetAttacksDoc {
        /// Master seed for every net leg.
        pub seed: u64,
        /// Audited adversarial scenarios.
        pub scenarios: Vec<AttackPoint>,
        /// Net-vs-fluid cross-check (aggressive scenario; `null` when a
        /// cell it needs failed).
        pub cross_check: Option<CrossCheck>,
        /// §III-A4 collision-rate regression (sybil scenario; `null` when
        /// its cell failed).
        pub sybil: Option<SybilCheck>,
        /// Every scenario safe, deterministic, and both checks in band.
        pub all_safe: bool,
    }
}

/// Scenario-specific incentive guarantee, beyond the safety oracles
/// every run must pass ([`SwarmReport::ok`]).
fn scenario_safe(name: &str, r: &SwarmReport) -> bool {
    let base = r.ok();
    let attributed = r.false_report_log.len() as u64 == r.false_reports;
    match name {
        // Control leg: the attack engine must not even construct.
        "baseline" => {
            base
                && r.false_reports == 0
                && r.whitewash_rejoins == 0
                && r.sybil_checks == 0
                && r.tracker_queries == u64::from(r.peers)
        }
        // §IV-C: starvation despite large-view re-queries and
        // whitewashed identities; compliant completion unaffected.
        "aggressive-25pct" => {
            base
                && r.completed_free_riders == 0
                && r.tracker_queries > u64::from(r.peers)
                && r.whitewash_rejoins > 0
                && r.false_reports == 0
        }
        // §IV-D: every false report detected and attributed; the gain
        // is bounded by the report count (one key release per forged
        // report at most — the observer books each against its txn).
        "collusion-ring" => {
            base && r.false_reports > 0 && attributed && r.colluder_gain <= r.false_reports
        }
        // §III-A4: collisions happen and stay fully attributed; the
        // rate band itself is judged in [`sybil_check`].
        "sybil" => base && r.sybil_checks > 0 && attributed,
        _ => base,
    }
}

/// Audits one adversarial scenario from its run and same-seed rerun.
fn attack_point(
    name: &str,
    cfg: &SwarmConfig,
    report: &SwarmReport,
    deterministic: bool,
) -> AttackPoint {
    AttackPoint {
        scenario: name.to_string(),
        peers: report.peers,
        adversaries: cfg.strategies.len() as u32,
        completed_compliant: report.completed_compliant,
        total_compliant: report.total_compliant,
        adversaries_done: report.completed_free_riders,
        completed_by_strategy: report
            .completed_by_strategy
            .iter()
            .map(|(label, &(done, total))| ((*label).to_string(), done, total))
            .collect(),
        plaintext_ok: report.plaintext_ok,
        ledger_ok: report.ledger_ok,
        violations: report.violations.len(),
        false_reports: report.false_reports,
        colluder_gain: report.colluder_gain,
        altruism_leaked: report.altruism_leaked,
        seeder_leakage: report.seeder_leakage,
        gift_leakage: report.gift_leakage,
        sybil_checks: report.sybil_checks,
        sybil_collisions: report.sybil_collisions,
        whitewash_rejoins: report.whitewash_rejoins,
        tracker_queries: report.tracker_queries,
        uploads: report.uploads,
        key_releases: report.key_releases,
        mean_chain_len: report.mean_chain_len,
        elapsed: report.elapsed,
        fingerprint: format!("{:016x}", report.fingerprint),
        deterministic,
        safe: deterministic && scenario_safe(name, report),
    }
}

/// Compares the measured conditional collision rate against
/// `(m−1)/(N−1)` and records the unconditional `ps_exact` alongside.
fn sybil_check(net: &SwarmReport, ring: u32) -> SybilCheck {
    let n = net.peers;
    let measured = if net.sybil_checks > 0 {
        net.sybil_collisions as f64 / net.sybil_checks as f64
    } else {
        0.0
    };
    let conditional = f64::from(ring - 1) / f64::from(n - 1);
    let ratio = if conditional > 0.0 { measured / conditional } else { 0.0 };
    SybilCheck {
        ring,
        peers: n,
        checks: net.sybil_checks,
        collisions: net.sybil_collisions,
        measured_rate: measured,
        conditional_rate: conditional,
        ps_exact: ps_exact(n as usize, ring as usize, 8.min(n as usize)),
        ratio,
        within_band: net.sybil_checks > 0 && (0.25..=5.0).contains(&ratio),
    }
}

/// The canonical master seed: the committed documents are run at it.
pub const SEED: u64 = 0xA77C;

/// Runs the attack experiment under `seed` (the CI job uses two).
pub fn run(scale: Scale, seed: u64) -> NetAttacksDoc {
    let (peers, pieces, piece_len, max_ticks) = match scale {
        Scale::Quick => (32u32, 24usize, 1024usize, 8_000u64),
        Scale::Paper => (48, 48, 2048, 12_000),
    };
    let aggressive = peers / 4; // 25 % of the swarm (§IV-C scenario).
    let ring = (peers / 8).max(3); // §IV-D collusion ring.
    let sybil_ring = peers / 4; // §III-A4 measurement ring.
    let base = SwarmConfig {
        peers,
        pieces,
        piece_len,
        seed,
        max_ticks,
        ..SwarmConfig::default()
    };
    let top_ids = |n: u32, s: fn(u32) -> Strategy| -> Vec<(u32, Strategy)> {
        (peers - n..peers).map(|id| (id, s(id))).collect()
    };
    let configs = [
        ("baseline", base.clone()),
        (
            "aggressive-25pct",
            SwarmConfig {
                strategies: top_ids(aggressive, |_| Strategy::aggressive_free_rider()),
                ..base.clone()
            },
        ),
        (
            "collusion-ring",
            SwarmConfig {
                strategies: top_ids(ring, |_| Strategy::colluding_free_rider(GroupId(0))),
                ..base.clone()
            },
        ),
        // Collude-only ring: population stays fixed, so the §III-A4 rate
        // is measured against a constant (m, N).
        (
            "sybil",
            SwarmConfig {
                strategies: top_ids(sybil_ring, |_| {
                    Strategy::FreeRider(FreeRiderConfig {
                        collude: Some(GroupId(0)),
                        ..FreeRiderConfig::default()
                    })
                }),
                ..base.clone()
            },
        ),
    ];
    let mut meta = RunMeta::default();
    let label = |s: &(&str, SwarmConfig)| s.0.to_string();
    let runs =
        sweep_scenarios("net_attacks", &mut meta, &configs, seed, label, |s| audited_run(&s.1));
    let report_of = |name: &str| runs.iter().find(|(s, _)| s.0 == name).map(|(_, (r, _))| r);
    let sybil = report_of("sybil").map(|r| sybil_check(r, sybil_ring));
    let scenarios: Vec<AttackPoint> =
        runs.iter().map(|((name, cfg), (r, det))| attack_point(name, cfg, r, *det)).collect();

    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|p| {
            vec![
                p.scenario.clone(),
                format!("{}", p.adversaries),
                format!("{}/{}", p.completed_compliant, p.total_compliant),
                p.adversaries_done.to_string(),
                p.violations.to_string(),
                p.false_reports.to_string(),
                p.colluder_gain.to_string(),
                format!("{}/{}", p.sybil_collisions, p.sybil_checks),
                p.whitewash_rejoins.to_string(),
                p.tracker_queries.to_string(),
                if p.safe && p.deterministic { "ok" } else { "UNSAFE" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "net_attacks: strategic adversaries on the wire (§IV-C / §IV-D)",
        &[
            "scenario", "adv", "compliant", "adv done", "viols", "false rpt", "gain",
            "sybil", "whitewash", "tracker q", "verdict",
        ],
        &rows,
    );
    let cross = book_cross_check("net_attacks", &mut meta, report_of("aggressive-25pct"), seed);
    if let Some(sybil) = &sybil {
        println!(
            "sybil §III-A4: measured {:.3} vs conditional (m-1)/(N-1) = {:.3} \
             (ratio {:.2}, band 0.25-5.0, unconditional Ps = {:.4}) -> {}",
            sybil.measured_rate,
            sybil.conditional_rate,
            sybil.ratio,
            sybil.ps_exact,
            if sybil.within_band { "within band" } else { "OUT OF BAND" }
        );
    }
    let all_safe = all_safe(&meta, scenarios.iter().map(|p| p.safe && p.deterministic))
        && cross.as_ref().is_some_and(|c| c.within_tolerance)
        && sybil.as_ref().is_some_and(|s| s.within_band);
    let doc = NetAttacksDoc { seed, scenarios, cross_check: cross, sybil, all_safe };
    persist("net_attacks", scale.name(), &doc, &meta);
    doc
}
