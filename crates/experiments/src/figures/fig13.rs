//! Fig. 13: small files under churn — average compliant download
//! throughput vs number of pieces, with 0 % and 50 % free-riders,
//! including Random BitTorrent.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, run_proto, Horizon, Proto, RiderMode, RunOpts};
use tchain_metrics::Summary;

tchain_obs::json_struct! {
    /// One Fig. 13 point.
    #[derive(Debug)]
    pub struct Point {
        /// Protocol legend name.
        pub proto: String,
        /// Free-rider percentage.
        pub fr_pct: u32,
        /// Number of 64 KB pieces in the shared file.
        pub pieces: usize,
        /// Mean per-leecher goodput in Kbps.
        pub throughput_kbps: Summary,
    }
}

/// Runs Fig. 13.
pub fn run(scale: Scale) -> Vec<Point> {
    let piece_counts: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2, 5, 10, 30],
        Scale::Paper => vec![1, 2, 3, 4, 5, 10, 20, 30, 50],
    };
    let window = scale.small_file_window();
    let n = scale.small_file_swarm();
    let mut points = Vec::new();
    let mut meta = RunMeta::default();
    const FR_PCTS: [u32; 2] = [0, 50];
    let runs = scale.runs().min(3);
    let mut cells = Vec::new();
    for fr_pct in FR_PCTS {
        for proto in Proto::with_random_bt() {
            for &pieces in &piece_counts {
                for r in 0..runs {
                    let seed = (pieces as u64) << 9 | (fr_pct as u64) << 1 | r as u64;
                    cells.push((proto, fr_pct, pieces, seed));
                }
            }
        }
    }
    let sw = sweep(
        "fig13",
        &cells,
        |&(proto, fr_pct, pieces, seed)| {
            (format!("{} {pieces}p {fr_pct}% FR churn", proto.name()), seed)
        },
        |&(proto, fr_pct, pieces, seed)| {
            let plan = flash_plan(n, fr_pct as f64 / 100.0, RiderMode::Aggressive, seed);
            run_proto(
                proto,
                1.0, // overridden by custom_pieces
                plan,
                seed,
                Horizon::Fixed(window),
                RunOpts {
                    custom_pieces: Some(pieces),
                    replace_on_finish: true,
                    ..Default::default()
                },
            )
        },
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    for fr_pct in FR_PCTS {
        for proto in Proto::with_random_bt() {
            for &pieces in &piece_counts {
                let mut tp = Vec::new();
                for _ in 0..runs {
                    let Some(out) = outs.next().flatten() else {
                        continue;
                    };
                    meta.absorb(&out);
                    tp.push(out.mean_goodput * 8.0 / 1000.0); // → Kbps
                }
                points.push(Point {
                    proto: proto.name().to_string(),
                    fr_pct,
                    pieces,
                    throughput_kbps: Summary::of(&tp),
                });
            }
        }
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.proto.clone(),
                format!("{}%", p.fr_pct),
                p.pieces.to_string(),
                format!("{}", p.throughput_kbps),
            ]
        })
        .collect();
    print_table(
        "Fig. 13: compliant download throughput (Kbps) vs file pieces under churn",
        &["protocol", "free-riders", "pieces", "throughput"],
        &rows,
    );
    persist("fig13", scale.name(), &points, &meta);
    points
}
