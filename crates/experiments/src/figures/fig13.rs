//! Fig. 13: small files under churn — average compliant download
//! throughput vs number of pieces, with 0 % and 50 % free-riders,
//! including Random BitTorrent.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::{cross, sweep_points};
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
    let mut meta = RunMeta::default();
    const FR_PCTS: [u32; 2] = [0, 50];
    let runs = scale.runs().min(3);
    let grid = cross(cross(FR_PCTS, &Proto::with_random_bt()), &piece_counts);
    let groups = sweep_points(
        "fig13",
        &mut meta,
        &grid,
        |&((fr_pct, _), pieces)| {
            (0..runs).map(|r| (pieces as u64) << 9 | (fr_pct as u64) << 1 | r as u64).collect()
        },
        |&((fr_pct, proto), pieces)| format!("{} {pieces}p {fr_pct}% FR churn", proto.name()),
        |&((fr_pct, proto), pieces), seed| {
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
    let points: Vec<Point> = grid
        .iter()
        .zip(groups)
        .map(|(&((fr_pct, proto), pieces), outs)| {
            let tp: Vec<f64> = outs.iter().map(|o| o.mean_goodput * 8.0 / 1000.0).collect(); // Kbps
            Point {
                proto: proto.name().to_string(),
                fr_pct,
                pieces,
                throughput_kbps: Summary::of(&tp),
            }
        })
        .collect();
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
