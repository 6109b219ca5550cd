//! Ablations of T-Chain's design choices (DESIGN.md §4): flow-control
//! `k`, opportunistic seeding, direct-reciprocity preference and piece
//! size. Each is removed/swept in isolation against the same workload.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, Proto, RiderMode};
use tchain_attacks::FluidDriver;
use tchain_core::{TChainConfig, TChainSwarm};
use tchain_metrics::Summary;
use tchain_proto::FileSpec;

tchain_obs::json_struct! {
    /// One ablation row.
    #[derive(Debug)]
    pub struct Row {
        /// Variant label.
        pub variant: String,
        /// Compliant completion time.
        pub completion: Summary,
        /// Mean uplink utilization.
        pub utilization: f64,
        /// Fraction of transactions using direct reciprocity.
        pub direct_fraction: f64,
    }
}

/// One ablation variant: a config/file-spec/workload combination whose
/// `runs` repeats become individual runner cells.
struct Variant {
    label: String,
    cfg: TChainConfig,
    spec: FileSpec,
    fr: f64,
}

/// Runs all ablations.
pub fn run(scale: Scale) -> Vec<Row> {
    let spec = Proto::TChain.file_spec(scale.file_mib());
    let base = TChainConfig::default();
    let mut rows = Vec::new();
    let mut meta = RunMeta::default();
    let mut variants = Vec::new();
    // Flow-control k sweep (§II-D2 fixes k = 2).
    for k in [1u32, 2, 4, 8] {
        variants.push(Variant {
            label: format!("k = {k} (25% free-riders)"),
            cfg: TChainConfig { k_pending: k, ..base },
            spec,
            fr: 0.25,
        });
    }
    // Opportunistic seeding off (§II-D3).
    variants.push(Variant {
        label: "opportunistic seeding ON".into(),
        cfg: base,
        spec,
        fr: 0.0,
    });
    variants.push(Variant {
        label: "opportunistic seeding OFF".into(),
        cfg: TChainConfig { opportunistic_seeding: false, ..base },
        spec,
        fr: 0.0,
    });
    // Direct-reciprocity preference off: pure pay-it-forward.
    variants.push(Variant { label: "direct reciprocity ON".into(), cfg: base, spec, fr: 0.0 });
    variants.push(Variant {
        label: "direct reciprocity OFF".into(),
        cfg: TChainConfig { direct_reciprocity: false, ..base },
        spec,
        fr: 0.0,
    });
    // Piece-size sweep (§IV-A uses 64 KB).
    for kib in [32.0, 64.0, 128.0, 256.0] {
        let pieces = (spec.file_size() / (kib * 1024.0)).ceil() as usize;
        variants.push(Variant {
            label: format!("piece size {kib:.0} KB"),
            cfg: base,
            spec: FileSpec::custom(pieces, kib * 1024.0, kib * 1024.0),
            fr: 0.0,
        });
    }
    let runs = scale.runs().min(4);
    let mut cells = Vec::new();
    for vi in 0..variants.len() {
        for r in 0..runs {
            cells.push((vi, 0xAB00 | r as u64));
        }
    }
    let sw = sweep(
        "ablations",
        &cells,
        |&(vi, seed)| (variants[vi].label.clone(), seed),
        |&(vi, seed)| {
            let v = &variants[vi];
            let plan = flash_plan(scale.standard_swarm() / 2, v.fr, RiderMode::Aggressive, seed);
            let mut sw = TChainSwarm::new(v.spec, v.cfg, plan, seed);
            sw.run_until_done();
            let ct = sw.base().completion_times(true);
            let time =
                (!ct.is_empty()).then(|| ct.iter().sum::<f64>() / ct.len() as f64);
            let util = sw.base().mean_uplink_utilization();
            let (d, i) = sw.reciprocity_split();
            (time, util, d, i, sw.metrics())
        },
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    for v in &variants {
        let mut times = Vec::new();
        let mut utils = Vec::new();
        let mut direct = 0u64;
        let mut indirect = 0u64;
        for _ in 0..runs {
            let Some((time, util, d, i, metrics)) = outs.next().flatten() else {
                continue;
            };
            meta.note_run();
            meta.absorb_metrics(&metrics);
            times.extend(time);
            utils.push(util);
            direct += d;
            indirect += i;
        }
        rows.push(Row {
            variant: v.label.clone(),
            completion: Summary::of(&times),
            utilization: utils.iter().sum::<f64>() / utils.len().max(1) as f64,
            direct_fraction: direct as f64 / (direct + indirect).max(1) as f64,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{}", r.completion),
                format!("{:.0}%", r.utilization * 100.0),
                format!("{:.0}%", r.direct_fraction * 100.0),
            ]
        })
        .collect();
    print_table(
        "Ablations: T-Chain design choices",
        &["variant", "completion (s)", "uplink", "direct recip."],
        &table,
    );
    persist("ablations", scale.name(), &rows, &meta);
    rows
}
