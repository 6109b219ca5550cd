//! Fig. 6: (a) piece differences between neighbor pairs over time (the
//! paper crawled a live BitTorrent swarm; we instrument a simulated one —
//! see DESIGN.md "Substitutions"), and (b) the effect of pre-occupied
//! initial pieces on T-Chain completion time.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, run_proto, trace_plan, Horizon, Proto, RiderMode, RunOpts};
use tchain_attacks::FluidDriver;
use tchain_baselines::{Baseline, BaselineConfig, BaselineSwarm};
use tchain_metrics::Summary;
use tchain_proto::Role;
use tchain_sim::SimRng;

tchain_obs::json_struct! {
    /// Fig. 6 data.
    #[derive(Debug)]
    pub struct Data {
        /// Fig. 6(a): `(time, mean piece difference, total pieces)` samples.
        pub piece_differences: Vec<(f64, f64)>,
        /// Total pieces in the measured swarm.
        pub total_pieces: usize,
        /// Fig. 6(b): `(initial fraction, completion)` sweep.
        pub initial_fraction_sweep: Vec<(f64, Summary)>,
    }
}

/// Runs both halves of Fig. 6.
pub fn run(scale: Scale) -> Data {
    // (a) Instrumented BitTorrent swarm under trace arrivals: sample the
    // piece difference across random alive leecher pairs periodically.
    let seed = 66;
    let n = scale.standard_swarm();
    let spec = Proto::Baseline(Baseline::BitTorrent).file_spec(scale.file_mib());
    let mut meta = RunMeta::default();
    let mut crawl = sweep(
        "fig06",
        &[()],
        |_| ("BitTorrent instrumented crawl".to_string(), seed),
        |_| {
            let mut sw = BaselineSwarm::new(
                spec,
                BaselineConfig::default(),
                Baseline::BitTorrent,
                trace_plan(n, 0.0, RiderMode::Aggressive, seed),
                seed,
            );
            let mut sampler = SimRng::new(seed ^ 0xD1FF);
            let mut piece_differences = Vec::new();
            let horizon = match scale {
                Scale::Quick => 1200.0,
                Scale::Paper => 6000.0,
            };
            let step = horizon / 24.0;
            let mut t = step;
            while t <= horizon {
                sw.run_to(t);
                let alive: Vec<_> = sw
                    .base()
                    .peers
                    .iter_alive()
                    .filter(|p| p.role == Role::Leecher)
                    .map(|p| p.id)
                    .collect();
                if alive.len() >= 2 {
                    let mut total = 0usize;
                    let mut count = 0usize;
                    for _ in 0..40 {
                        let (Some(&a), Some(&b)) = (sampler.choose(&alive), sampler.choose(&alive))
                        else {
                            break; // unreachable: `alive` has ≥ 2 entries
                        };
                        if a == b {
                            continue;
                        }
                        total +=
                            sw.base().peers.get(a).have.difference(&sw.base().peers.get(b).have);
                        count += 1;
                    }
                    if count > 0 {
                        piece_differences.push((t, total as f64 / count as f64));
                    }
                }
                t += step;
            }
            piece_differences
        },
    );
    meta.note_failures(&crawl.failures);
    let piece_differences = match crawl.cells.pop().flatten() {
        Some(pd) => {
            meta.note_run();
            pd
        }
        None => Vec::new(),
    };
    // (b) Pre-occupied initial pieces sweep for T-Chain.
    const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.9];
    let runs = scale.runs().min(4);
    let mut cells = Vec::new();
    for frac in FRACTIONS {
        for r in 0..runs {
            cells.push((frac, 0x6B00 | r as u64));
        }
    }
    let sw = sweep(
        "fig06",
        &cells,
        |&(frac, seed)| (format!("T-Chain initial={frac}"), seed),
        |&(frac, seed)| {
            let plan = flash_plan(scale.standard_swarm(), 0.0, RiderMode::Aggressive, seed);
            run_proto(
                Proto::TChain,
                scale.file_mib(),
                plan,
                seed,
                Horizon::CompliantDone,
                RunOpts { initial_piece_fraction: frac, ..Default::default() },
            )
        },
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    let mut initial_fraction_sweep = Vec::new();
    for frac in FRACTIONS {
        let mut times = Vec::new();
        for _ in 0..runs {
            if let Some(out) = outs.next().flatten() {
                meta.absorb(&out);
                times.extend(out.mean_compliant());
            }
        }
        initial_fraction_sweep.push((frac, Summary::of(&times)));
    }
    let rows: Vec<Vec<String>> = piece_differences
        .iter()
        .map(|(t, d)| vec![format!("{t:.0}"), format!("{d:.0}")])
        .collect();
    print_table(
        "Fig. 6(a): mean piece difference between neighbor pairs (simulated crawl)",
        &["t(s)", "diff pieces"],
        &rows,
    );
    let rows: Vec<Vec<String>> = initial_fraction_sweep
        .iter()
        .map(|(f, s)| vec![format!("{:.0}%", f * 100.0), format!("{s}")])
        .collect();
    print_table(
        "Fig. 6(b): T-Chain completion vs pre-occupied initial pieces",
        &["initial", "completion (s)"],
        &rows,
    );
    let data = Data {
        piece_differences,
        total_pieces: spec.pieces,
        initial_fraction_sweep,
    };
    persist("fig06", scale.name(), &data, &meta);
    data
}
