//! Streaming extension (§VI future work): T-Chain with windowed-rarest
//! piece selection, judged by playback metrics.
//!
//! The paper closes by naming streaming as the first future application.
//! This experiment runs the same swarm under the paper's Local-Rarest-
//! First and under a sliding playback window, then simulates playback
//! (constant piece rate after a startup buffer) over each watched
//! leecher's completion log: startup delay, rebuffering events and
//! stalled time.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep;
use crate::scale::Scale;
use crate::scenario::{flash_plan, Proto, RiderMode};
use tchain_attacks::FluidDriver;
use tchain_core::{PieceSelection, TChainConfig, TChainSwarm};
use tchain_metrics::Summary;
use tchain_proto::PieceId;
use tchain_sim::NodeId;

/// Playback simulation of one leecher's completion log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Playback {
    /// Seconds from join until the startup buffer filled in order.
    pub startup_delay: f64,
    /// Number of mid-stream stalls.
    pub rebuffer_events: u32,
    /// Total stalled seconds after playback started.
    pub rebuffer_time: f64,
}

/// Simulates playback: `buffer` pieces must be available in order before
/// play starts; afterwards one piece is consumed every `piece_duration`
/// seconds, stalling whenever the next piece has not arrived.
pub fn simulate_playback(
    completions: &[(PieceId, f64)],
    pieces: usize,
    buffer: usize,
    piece_duration: f64,
    join_time: f64,
) -> Option<Playback> {
    if completions.len() < pieces {
        return None;
    }
    let mut arrival = vec![f64::INFINITY; pieces];
    for &(p, t) in completions {
        let i = p.index();
        if i < pieces {
            arrival[i] = arrival[i].min(t);
        }
    }
    // In-order availability time of piece i = max arrival over 0..=i.
    let mut inorder = arrival.clone();
    for i in 1..pieces {
        inorder[i] = inorder[i].max(inorder[i - 1]);
    }
    let start = inorder[buffer.min(pieces - 1)];
    if !start.is_finite() {
        return None;
    }
    let mut clock = start;
    let mut rebuffer_events = 0;
    let mut rebuffer_time = 0.0;
    for &ready in inorder.iter().take(pieces).skip(buffer + 1) {
        clock += piece_duration;
        if ready > clock {
            rebuffer_events += 1;
            rebuffer_time += ready - clock;
            clock = ready;
        }
    }
    Some(Playback { startup_delay: start - join_time, rebuffer_events, rebuffer_time })
}

tchain_obs::json_struct! {
    /// One policy's aggregated playback results.
    #[derive(Debug)]
    pub struct Row {
        /// Policy label.
        pub policy: String,
        /// Startup delay.
        pub startup: Summary,
        /// Rebuffer events per viewer.
        pub rebuffers: Summary,
        /// Stalled seconds per viewer.
        pub stalled: Summary,
        /// Download completion time (the price paid for in-order arrival).
        pub completion: Summary,
    }
}

/// Runs the streaming comparison.
pub fn run(scale: Scale) -> Vec<Row> {
    let n = scale.standard_swarm() / 2;
    let spec = Proto::TChain.file_spec(scale.file_mib());
    // Playback consumes the file at ~70% of the mean download rate, with
    // a 16-piece startup buffer.
    let piece_duration = spec.piece_size / (0.7 * 100_000.0);
    let buffer = 16usize.min(spec.pieces / 4).max(1);
    let policies = [
        ("LRF (paper)", PieceSelection::Rarest),
        ("window = 32", PieceSelection::Streaming { window: 32 }),
        ("window = 8", PieceSelection::Streaming { window: 8 }),
    ];
    let mut rows = Vec::new();
    let mut meta = RunMeta::default();
    let runs = scale.runs().min(3);
    let mut cells = Vec::new();
    for (label, policy) in policies {
        for r in 0..runs {
            cells.push((label, policy, 0x57 | (r as u64) << 8));
        }
    }
    let sw = sweep(
        "streaming",
        &cells,
        |&(label, _, seed)| (label.to_string(), seed),
        |&(_, policy, seed)| {
            let plan = flash_plan(n, 0.0, RiderMode::Aggressive, seed);
            let cfg = TChainConfig { piece_selection: policy, ..Default::default() };
            let mut sw = TChainSwarm::new(spec, cfg, plan, seed);
            // Watch a sample of viewers (every 6th leecher).
            let viewers: Vec<NodeId> = (1..=n as u32).step_by(6).map(NodeId).collect();
            for &v in &viewers {
                sw.telemetry_mut().watch(v);
            }
            sw.run_until_done();
            let completion: Vec<f64> = sw.base().completion_times(true);
            let mut playbacks = Vec::new();
            for &v in &viewers {
                let Some(tl) = sw.telemetry().timeline(v) else { continue };
                let join = sw.base().peers.get(v).join_time;
                if let Some(pb) =
                    simulate_playback(&tl.completions, spec.pieces, buffer, piece_duration, join)
                {
                    playbacks.push(pb);
                }
            }
            (playbacks, completion, sw.metrics())
        },
    );
    meta.note_failures(&sw.failures);
    let mut outs = sw.cells.into_iter();
    for (label, _) in policies {
        let mut startup = Vec::new();
        let mut rebuf = Vec::new();
        let mut stalled = Vec::new();
        let mut completion = Vec::new();
        for _ in 0..runs {
            let Some((playbacks, ct, metrics)) = outs.next().flatten() else {
                continue;
            };
            meta.note_run();
            meta.absorb_metrics(&metrics);
            completion.extend(ct);
            for pb in playbacks {
                startup.push(pb.startup_delay);
                rebuf.push(pb.rebuffer_events as f64);
                stalled.push(pb.rebuffer_time);
            }
        }
        rows.push(Row {
            policy: label.to_string(),
            startup: Summary::of(&startup),
            rebuffers: Summary::of(&rebuf),
            stalled: Summary::of(&stalled),
            completion: Summary::of(&completion),
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{}", r.startup),
                format!("{:.1}", r.rebuffers.mean),
                format!("{:.1}", r.stalled.mean),
                format!("{}", r.completion),
            ]
        })
        .collect();
    print_table(
        "Streaming extension (§VI): playback under LRF vs windowed-rarest",
        &["policy", "startup (s)", "rebuffers", "stalled (s)", "download (s)"],
        &table,
    );
    persist("streaming", scale.name(), &rows, &meta);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn playback_of_instant_download_never_stalls() {
        let completions: Vec<(PieceId, f64)> =
            (0..10).map(|i| (PieceId(i), 1.0 + i as f64 * 0.01)).collect();
        let pb = simulate_playback(&completions, 10, 2, 10.0, 0.0).unwrap();
        assert_eq!(pb.rebuffer_events, 0);
        assert_eq!(pb.rebuffer_time, 0.0);
        assert!((pb.startup_delay - 1.02).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_arrival_stalls_playback() {
        // Piece 5 arrives very late; a fast consumer must stall on it.
        let mut completions: Vec<(PieceId, f64)> =
            (0..10).map(|i| (PieceId(i), i as f64)).collect();
        completions[5].1 = 100.0;
        let pb = simulate_playback(&completions, 10, 1, 0.5, 0.0).unwrap();
        assert!(pb.rebuffer_events >= 1);
        assert!(pb.rebuffer_time > 50.0);
    }

    #[test]
    fn incomplete_download_yields_none() {
        let completions = vec![(PieceId(0), 1.0)];
        assert!(simulate_playback(&completions, 10, 2, 1.0, 0.0).is_none());
    }
}
