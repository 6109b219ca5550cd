//! Fig. 5: per-piece timelines (encrypted received vs keys received) for
//! the slowest (400 Kbps) and fastest (1200 Kbps) leechers.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, Proto, RiderMode};
use tchain_attacks::FluidDriver;
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_sim::{kbps, NodeId};

tchain_obs::json_struct! {
    /// One leecher's Fig. 5 data.
    #[derive(Debug)]
    pub struct Timeline {
        /// Leecher capacity label (Kbps).
        pub capacity_kbps: f64,
        /// `(time, cumulative encrypted pieces)` samples.
        pub encrypted: Vec<(f64, f64)>,
        /// `(time, cumulative keys)` samples.
        pub decrypted: Vec<(f64, f64)>,
    }
}

/// Runs Fig. 5 for the two capacity extremes.
pub fn run(scale: Scale) -> Vec<Timeline> {
    let seed = 55;
    let mut meta = RunMeta::default();
    let mut cell = sweep(
        "fig05",
        &[()],
        |_| ("T-Chain piece timelines".to_string(), seed),
        |_| {
            let plan = flash_plan(scale.standard_swarm(), 0.0, RiderMode::Aggressive, seed);
            // NodeIds are assigned in arrival order (seeder is 0); pick the
            // first leecher of each extreme capacity.
            let slow = plan.iter().position(|p| (p.capacity - kbps(400.0)).abs() < 1.0);
            let fast = plan.iter().position(|p| (p.capacity - kbps(1200.0)).abs() < 1.0);
            let spec = Proto::TChain.file_spec(scale.file_mib());
            let mut sw = TChainSwarm::new(spec, TChainConfig::default(), plan, seed);
            let mut targets = Vec::new();
            for (idx, cap) in [(slow, 400.0), (fast, 1200.0)] {
                if let Some(i) = idx {
                    let id = NodeId(i as u32 + 1);
                    sw.telemetry_mut().watch(id);
                    targets.push((id, cap));
                }
            }
            sw.run_until_done();
            let mut out = Vec::new();
            for (id, cap) in targets {
                // A watched id with no samples (e.g. the peer never exchanged
                // a piece) just drops out of the figure.
                let Some(tl) = sw.telemetry().timeline(id) else {
                    continue;
                };
                out.push(Timeline {
                    capacity_kbps: cap,
                    encrypted: tl.encrypted.downsample(24).iter().collect(),
                    decrypted: tl.decrypted.downsample(24).iter().collect(),
                });
            }
            out
        },
    );
    meta.note_failures(&cell.failures);
    let out = match cell.cells.pop().flatten() {
        Some(out) => {
            meta.note_run();
            out
        }
        None => Vec::new(),
    };
    for t in &out {
        let rows: Vec<Vec<String>> = t
            .encrypted
            .iter()
            .zip(t.decrypted.iter())
            .map(|(e, d)| {
                vec![format!("{:.0}", e.0), format!("{:.0}", e.1), format!("{:.0}", d.1)]
            })
            .collect();
        print_table(
            &format!("Fig. 5: {} Kbps leecher piece timeline", t.capacity_kbps),
            &["t(s)", "encrypted", "keys"],
            &rows,
        );
    }
    persist("fig05", scale.name(), &out, &meta);
    out
}
