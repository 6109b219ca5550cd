//! Property tests (`tchain_sim::forall`) for the scale layer: the
//! indexed scheduler's total order, and the §II-D2 ledger / §II-B4 escrow
//! invariants under arbitrary churn schedules.
//!
//! The [`TimerWheel`] properties run against the data structure alone —
//! hundreds of cases are cheap. The swarm-level properties each boot a
//! real encrypted swarm per case, so they run fewer cases with tight
//! piece counts; the point is the *randomised schedule*, not volume.

use std::collections::{BTreeMap, BTreeSet};
use tchain_net::{
    run_swarm, Content, NetConfig, Outbox, PeerRole, PeerRuntime, SwarmConfig, TimerWheel,
};
use tchain_sim::{ensure, ensure_eq, forall, sized, ChaosPlan, ChurnPlan, NodeId, SimRng};

/// Quantised wake time: keeps the generator away from NaN/∞ while still
/// exercising duplicate timestamps across distinct peers.
fn grid(t: u8) -> f64 {
    f64::from(t) * 0.25
}

/// Uniform integer in `lo..hi`.
fn int(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo) as usize) as u64
}

/// A swarm seed in `1..2^40`.
fn swarm_seed(rng: &mut SimRng) -> u64 {
    int(rng, 1, 1 << 40)
}

/// Popping the wheel yields a strictly increasing (time, peer)
/// sequence — the deterministic total order every indexed run
/// depends on — regardless of the order timers were armed in.
#[test]
fn wheel_pop_order_is_total_and_insertion_independent() {
    forall(0x3EE1, 256, |rng, size| {
        let arms: Vec<(u32, u8)> = (0..sized(rng, size, 1, 80))
            .map(|_| (int(rng, 0, 64) as u32, int(rng, 0, 40) as u8))
            .collect();
        // Last arm per peer wins (schedule() replaces).
        let mut fwd = TimerWheel::new();
        let mut rev = TimerWheel::new();
        for &(p, t) in &arms {
            fwd.schedule(p, grid(t));
        }
        for &(p, t) in arms.iter().rev() {
            // Reverse insertion ends with the *first* element's value
            // armed, so replay the forward tail to converge state.
            rev.schedule(p, grid(t));
        }
        for &(p, t) in &arms {
            rev.schedule(p, grid(t));
        }
        let mut seq_f = Vec::new();
        while let Some(w) = fwd.pop_next() {
            seq_f.push(w);
        }
        let mut seq_r = Vec::new();
        while let Some(w) = rev.pop_next() {
            seq_r.push(w);
        }
        ensure_eq!(&seq_f, &seq_r, "pop order depends on insertion history");
        // Strictly increasing under (time, peer): no duplicates, no
        // inversions, every armed peer exactly once.
        for w in seq_f.windows(2) {
            let ((t0, p0), (t1, p1)) = (w[0], w[1]);
            ensure!(
                t0 < t1 || (t0 == t1 && p0 < p1),
                "inversion: ({t0}, {p0}) before ({t1}, {p1})"
            );
        }
        let armed: BTreeSet<u32> = arms.iter().map(|&(p, _)| p).collect();
        let popped: BTreeSet<u32> = seq_f.iter().map(|&(_, p)| p).collect();
        ensure_eq!(armed, popped);
        Ok(())
    });
}

/// `hasten` never delays a wake and `cancel` always silences one,
/// no matter what sequence of operations preceded them.
#[test]
fn wheel_hasten_monotone_and_cancel_final() {
    forall(0x4A57E2, 256, |rng, size| {
        let ops: Vec<(u32, u8, u8)> = (0..sized(rng, size, 1, 60))
            .map(|_| (int(rng, 0, 16) as u32, int(rng, 0, 3) as u8, int(rng, 0, 40) as u8))
            .collect();
        let mut wheel = TimerWheel::new();
        let mut model: std::collections::BTreeMap<u32, f64> = Default::default();
        for &(p, op, t) in &ops {
            let at = grid(t);
            match op {
                0 => {
                    wheel.schedule(p, at);
                    model.insert(p, at);
                }
                1 => {
                    wheel.hasten(p, at);
                    let e = model.entry(p).or_insert(at);
                    if at < *e {
                        *e = at;
                    }
                }
                _ => {
                    wheel.cancel(p);
                    model.remove(&p);
                }
            }
            ensure_eq!(wheel.len(), model.len());
        }
        for (&p, &at) in &model {
            ensure_eq!(wheel.armed_at(p), Some(at), "peer {}", p);
        }
        let mut popped = Vec::new();
        while let Some((at, p)) = wheel.pop_next() {
            popped.push((p, at));
        }
        let expect: Vec<(u32, f64)> = {
            let mut v: Vec<_> = model.into_iter().collect();
            v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            v
        };
        ensure_eq!(popped, expect);
        Ok(())
    });
}

/// The path the harness drives: `schedule`, `hasten` and `cancel`
/// interleaved with `pop_due(now)` under a clock that stands still or
/// creeps forward, with tied times and re-arms below `now`. After every
/// `pop_due`, the due set (on top of a pre-filled ready set) and every
/// remaining wake agree with a `BTreeMap` model.
#[test]
fn wheel_pop_due_matches_a_map_model() {
    const PEERS: u32 = 12;
    forall(0x90B_D0E, 256, |rng, size| {
        let mut wheel = TimerWheel::new();
        let mut model: BTreeMap<u32, f64> = BTreeMap::new();
        let mut now = 0.0f64;
        for _ in 0..sized(rng, size, 1, 200) {
            let p = int(rng, 0, u64::from(PEERS)) as u32;
            // Up to a second behind `now` to two ahead, on the grid.
            let at = now + grid(int(rng, 0, 13) as u8) - 1.0;
            match rng.below(6) {
                0 => {
                    wheel.schedule(p, at);
                    model.insert(p, at);
                }
                1 => {
                    wheel.hasten(p, at);
                    let e = model.entry(p).or_insert(at);
                    *e = e.min(at);
                }
                2 => {
                    wheel.cancel(p);
                    model.remove(&p);
                }
                _ => {
                    now += grid(int(rng, 0, 3) as u8);
                    let mut due = BTreeSet::new();
                    if rng.below(3) == 0 {
                        due.insert(p); // a frame receiver, already ready
                    }
                    let mut expect = due.clone();
                    wheel.pop_due(now, &mut due);
                    expect.extend(model.iter().filter(|&(_, &w)| w <= now).map(|(&q, _)| q));
                    model.retain(|_, w| *w > now);
                    ensure_eq!(due, expect, "pop_due({now})");
                    ensure_eq!(wheel.len(), model.len());
                    for q in 0..PEERS {
                        ensure_eq!(wheel.armed_at(q), model.get(&q).copied(), "peer {q} at {now}");
                    }
                }
            }
        }
        Ok(())
    });
}

/// Any join/leave schedule leaves every surviving peer's §II-D2
/// k-pending ledger consistent with its unreported donor
/// transactions, and the swarm still drains to completion with zero
/// unreciprocated key releases.
#[test]
fn churn_preserves_ledger_invariant() {
    forall(0xC4024, 6, |rng, _| {
        let seed = swarm_seed(rng);
        let (join_at, joins, spacing) =
            (int(rng, 4, 20) as u8, int(rng, 1, 4) as u32, int(rng, 1, 4) as u8);
        let (depart_at, fraction) = (int(rng, 20, 40) as u8, rng.range(0.05, 0.45));
        let cfg = SwarmConfig {
            peers: 8,
            pieces: 12,
            piece_len: 256,
            seed,
            churn: ChurnPlan::none()
                .with_joins(f64::from(join_at), joins, f64::from(spacing))
                .with_departures(f64::from(depart_at), fraction),
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("mesh transport");
        ensure!(report.ledger_ok, "ledger drifted from unreported donor txns");
        ensure!(
            report.violations.is_empty(),
            "unreciprocated key release under churn: {:?}",
            report.violations
        );
        ensure!(report.plaintext_ok);
        ensure_eq!(report.churn_joins, u64::from(joins));
        ensure_eq!(report.completed_compliant, report.total_compliant);
        Ok(())
    });
}

/// §II-B4: whatever the departure interleaving — voluntary churn
/// departures stacked on depart-on-complete — obligations held by
/// leaving donors are handed off, never dropped, and no payee is
/// left waiting on a key that a departed peer owed.
#[test]
fn escrow_obligations_survive_departure_interleavings() {
    forall(0xE5C20, 6, |rng, _| {
        let seed = swarm_seed(rng);
        let (depart_at, fraction, second_wave) =
            (int(rng, 8, 30) as u8, rng.range(0.1, 0.5), int(rng, 0, 2) as u8);
        let mut churn = ChurnPlan::none().with_departures(f64::from(depart_at), fraction);
        if second_wave == 1 {
            churn = churn.with_departures(f64::from(depart_at) + 9.0, fraction / 2.0);
        }
        let cfg = SwarmConfig {
            peers: 10,
            pieces: 12,
            piece_len: 256,
            seed,
            net: NetConfig { depart_on_complete: true },
            churn,
            ..SwarmConfig::default()
        };
        let report = run_swarm(cfg).expect("mesh transport");
        ensure!(
            report.violations.is_empty(),
            "escrow handoff broke an invariant: {:?}",
            report.violations
        );
        ensure!(report.plaintext_ok);
        ensure!(report.ledger_ok);
        ensure!(report.churn_departs > 0, "schedule must actually remove peers");
        // Mass departures must travel the escrow path, not starve it.
        ensure!(
            report.escrow_transfers > 0,
            "no §II-B4 escrow transfer despite {} departures",
            report.churn_departs
        );
        Ok(())
    });
}

/// Whatever state a driven peer has accumulated by a random crash
/// point, its restarted incarnation keeps the counters, holdings and
/// escrow while bumping its generation (the keyring/RNG salt input).
#[test]
fn restart_keeps_durable_state_at_random_crash_points() {
    forall(0x7C4B2, 12, |rng, _| {
        let seed = swarm_seed(rng);
        let (pieces, crash_step) = (int(rng, 2, 7) as usize, int(rng, 2, 48) as u32);
        let mk = || Content::new(seed ^ 0xC047, pieces, 128);
        let mut seeder =
            PeerRuntime::new(NodeId(0), PeerRole::Seeder, mk(), NetConfig::default(), seed);
        let mut leecher =
            PeerRuntime::new(NodeId(1), PeerRole::Leecher, mk(), NetConfig::default(), seed ^ 1);
        let mut from_seeder = Outbox::new();
        let mut from_leecher = Outbox::new();
        seeder.bootstrap(&[NodeId(1)], &mut from_seeder);
        leecher.bootstrap(&[NodeId(0)], &mut from_leecher);
        let dt = 0.5f64;
        for step in 0..crash_step {
            let now = f64::from(step) * dt;
            // Cross-deliver last round's frames, then tick both sides.
            let inbound_leecher = std::mem::take(&mut from_seeder);
            for (to, f) in inbound_leecher {
                if to == NodeId(1) {
                    leecher.on_frame(now, NodeId(0), f, &mut from_leecher);
                }
            }
            let inbound_seeder = std::mem::take(&mut from_leecher);
            for (to, f) in inbound_seeder {
                if to == NodeId(0) {
                    seeder.on_frame(now, NodeId(1), f, &mut from_seeder);
                }
            }
            seeder.on_tick(now, &mut from_seeder);
            leecher.on_tick(now, &mut from_leecher);
        }
        let (generation, counters, held, escrow) = (
            leecher.generation(),
            leecher.counters(),
            leecher.have_count(),
            leecher.escrow_held(),
        );
        let restarted = leecher.restart(seed ^ 1);
        ensure_eq!(restarted.generation(), generation + 1);
        ensure_eq!(restarted.counters(), counters, "counters lost in restart");
        ensure_eq!(restarted.have_count(), held);
        ensure_eq!(restarted.escrow_held(), escrow, "escrow lost in restart");
        let content = mk();
        for i in 0..pieces as u32 {
            if let Some(bytes) = restarted.piece_bytes(i) {
                ensure_eq!(bytes, &content.piece(i)[..], "piece {} corrupted", i);
            }
        }
        if !cfg!(tchain_canary) {
            // A restart forgives k-pending debt; the fresh ledger must be
            // trivially consistent (the canary mutation breaks exactly
            // this, which is how the explore drill finds it).
            ensure!(restarted.ledger_consistent());
        }
        Ok(())
    });
}

/// Swarm-level crash-restart: random crash fraction/timing stacked on
/// a random join wave still drains to completion with every oracle
/// clean, and the whole run — generation-salted rejoin keyrings
/// included — is fingerprint-deterministic.
#[test]
fn crash_restore_under_churn_keeps_invariants_and_determinism() {
    if cfg!(tchain_canary) {
        // The seeded restart() mutation makes these runs fail their
        // ledger oracle on purpose; the drill asserts that elsewhere.
        return;
    }
    forall(0xC2A5E, 5, |rng, _| {
        let seed = swarm_seed(rng);
        let (crash_at, fraction) = (int(rng, 6, 20) as u8, rng.range(0.1, 0.4));
        let (restart_after, joins) = (int(rng, 2, 6) as u8, int(rng, 0, 3) as u32);
        let mut churn = ChurnPlan::none();
        if joins > 0 {
            churn = churn.with_joins(8.0, joins, 2.0);
        }
        let cfg = SwarmConfig {
            peers: 8,
            pieces: 10,
            piece_len: 256,
            seed,
            chaos: ChaosPlan::none().with_crash_restart(
                f64::from(crash_at),
                fraction,
                f64::from(restart_after),
            ),
            churn,
            ..SwarmConfig::default()
        };
        let a = run_swarm(cfg.clone()).expect("mesh transport");
        let b = run_swarm(cfg).expect("mesh transport");
        ensure_eq!(a.fingerprint, b.fingerprint, "crash-restart made the run nondeterministic");
        ensure_eq!(a.ticks, b.ticks);
        ensure!(a.crashes > 0, "schedule must actually crash peers");
        ensure_eq!(a.rejoins, a.crashes, "every crashed peer must restart and rejoin");
        ensure!(a.violations.is_empty(), "key release violation: {:?}", a.violations);
        ensure!(a.plaintext_ok);
        ensure!(a.ledger_ok, "restarted ledgers drifted");
        ensure_eq!(a.completed_compliant, a.total_compliant);
        Ok(())
    });
}
