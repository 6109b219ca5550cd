//! Ablations of T-Chain's design choices (DESIGN.md §4): flow-control
//! `k`, opportunistic seeding, direct-reciprocity preference and piece
//! size. Each is removed/swept in isolation against the same workload.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use crate::scenario::{completion, drive, flash_plan, Horizon, Proto, RiderMode};
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

/// One ablation variant: a config/file-spec/workload combination, one
/// point of the sweep.
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
    let groups = sweep_points(
        "ablations",
        &mut meta,
        &variants,
        |_| (0..runs).map(|r| 0xAB00 | r as u64).collect(),
        |v| v.label.clone(),
        |v, seed| {
            let plan = flash_plan(scale.standard_swarm() / 2, v.fr, RiderMode::Aggressive, seed);
            let mut sw = TChainSwarm::new(v.spec, v.cfg, plan, seed);
            let out = drive(&mut sw, Horizon::CompliantDone);
            (sw.reciprocity_split(), out)
        },
    );
    let rows: Vec<Row> = variants
        .iter()
        .zip(groups)
        .map(|(v, outs)| {
            let util: f64 = outs.iter().map(|(_, o)| o.uplink_utilization).sum();
            let direct: u64 = outs.iter().map(|((d, _), _)| d).sum();
            let indirect: u64 = outs.iter().map(|((_, i), _)| i).sum();
            Row {
                variant: v.label.clone(),
                completion: completion(outs.iter().map(|(_, o)| o)),
                utilization: util / outs.len().max(1) as f64,
                direct_fraction: direct as f64 / (direct + indirect).max(1) as f64,
            }
        })
        .collect();
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
