//! The six workloads and the inputs each derives from `--seed`.
//!
//! The program under test sees only the generated configs, plans and
//! frames — never a workload name. Sizes were calibrated once on the
//! 2-core box so a timed iteration takes 0.6–2.5 s, and are committed as
//! constants; `--smoke` swaps in sizes a dev-profile build finishes in
//! well under a second.
//!
//! Every workload is cut into several independent parts per iteration
//! (swarms, stream phases, sweep cells). That does two things. The work
//! an iteration does swings less from seed to seed, because how much one
//! swarm wastes on re-uploaded pieces, or when its last straggler
//! finishes, swings by ten percent and more. And the timings get finer
//! grain: a run keeps the fastest pass of each part (`stats::Timings`),
//! so a burst of interference has to cover a part in every iteration to
//! show.

use tchain_baselines::Baseline;
use tchain_experiments::Proto;
use tchain_net::{Strategy, SwarmConfig};
use tchain_sim::{ChaosPlan, ChurnPlan};

use crate::stats::mix;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SwarmBulk,
    SwarmCtrl,
    SwarmTrickle,
    SwarmHostile,
    TcpStream,
    FluidFigs,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SwarmBulk,
        Workload::SwarmCtrl,
        Workload::SwarmTrickle,
        Workload::SwarmHostile,
        Workload::TcpStream,
        Workload::FluidFigs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SwarmBulk => "swarm_bulk",
            Workload::SwarmCtrl => "swarm_ctrl",
            Workload::SwarmTrickle => "swarm_trickle",
            Workload::SwarmHostile => "swarm_hostile",
            Workload::TcpStream => "tcp_stream",
            Workload::FluidFigs => "fluid_figs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Swarms one iteration runs back to back.
const BULK_SWARMS: u64 = 6;
const CTRL_SWARMS: u64 = 4;
const TRICKLE_SWARMS: u64 = 4;
const HOSTILE_SWARMS: u64 = 12;

/// The swarm configs one iteration of a `swarm_*` workload runs.
///
/// # Panics
///
/// Panics when `w` is not a swarm workload.
pub fn swarm_configs(w: Workload, seed: u64, smoke: bool) -> Vec<SwarmConfig> {
    // `trace_capacity: 0` keeps the obs event ring out of the measured
    // path; the traced run prices it separately on a twin.
    let base = |seed| SwarmConfig {
        seed,
        trace_capacity: 0,
        max_ticks: 400_000,
        ..SwarmConfig::default()
    };
    match w {
        // Byte-proportional layers: ChaCha20, the fingerprint fold's
        // `Frame::encode`, payload copies.
        Workload::SwarmBulk => (0..if smoke { 1 } else { BULK_SWARMS })
            .map(|i| SwarmConfig {
                peers: if smoke { 8 } else { 32 },
                pieces: if smoke { 8 } else { 20 },
                piece_len: 16 * 1024,
                ..base(mix(seed, 64 + i))
            })
            .collect(),
        // Per-frame control path: ~1.8 x 10^6 frames, bytes negligible.
        Workload::SwarmCtrl => (0..if smoke { 1 } else { CTRL_SWARMS })
            .map(|i| SwarmConfig {
                peers: if smoke { 12 } else { 256 },
                pieces: if smoke { 8 } else { 16 },
                piece_len: 64,
                ..base(mix(seed, 128 + i))
            })
            .collect(),
        // Sparse timers: a continuous-arrival trace of mostly idle ticks.
        Workload::SwarmTrickle => (0..if smoke { 1 } else { TRICKLE_SWARMS })
            .map(|i| SwarmConfig {
                peers: if smoke { 8 } else { 64 },
                pieces: 8,
                piece_len: 64,
                churn: ChurnPlan::none().with_joins(100.0, if smoke { 6 } else { 128 }, 100.0),
                ..base(mix(seed, 192 + i))
            })
            .collect(),
        // The failure side of the same layers. Of the frame-level chaos
        // only duplication stays: corruption and resets (frame loss)
        // make the observer report an unreciprocated key release on
        // roughly one seed in ten, and reordering does the same more
        // rarely once whitewashers are present (see README "Known
        // findings") — and a workload must not fail. Crash-restart,
        // churn, whitewashing free-riders and telemetry all stay.
        Workload::SwarmHostile => (0..if smoke { 1 } else { HOSTILE_SWARMS })
            .map(|i| {
                let seed = mix(seed, 4 + i);
                let peers: u32 = if smoke { 12 } else { 48 };
                let riders = peers / 4;
                let chaos = ChaosPlan {
                    seed: seed ^ 0xC4A0,
                    duplicate_prob: 0.03,
                    ..ChaosPlan::none()
                }
                .with_crash_restart(8.0, 0.25, 6.0);
                SwarmConfig {
                    peers,
                    pieces: if smoke { 8 } else { 26 },
                    piece_len: 1024,
                    chaos,
                    churn: ChurnPlan::none()
                        .with_joins(10.0, peers / 8, 2.0)
                        .with_flash_crowd(20.0, peers / 8)
                        .with_departures(30.0, 0.15),
                    strategies: (peers - riders..peers)
                        .map(|id| (id, Strategy::aggressive_free_rider()))
                        .collect(),
                    telemetry: true,
                    ..base(seed)
                }
            })
            .collect(),
        Workload::TcpStream | Workload::FluidFigs => panic!("{} is not a swarm workload", w.name()),
    }
}

/// Inputs of the `tcp_stream` pump: one link, closed loop, two phases.
#[derive(Debug, Clone)]
pub struct StreamInputs {
    /// Distinct bulk payloads the generator cycles through.
    pub payloads: Vec<Vec<u8>>,
    /// Phase A: `PieceData` frames sent.
    pub bulk_frames: u64,
    /// Phase A: frames in flight before the sender polls.
    pub bulk_window: u64,
    /// Phase B: `Message::Have` frames sent.
    pub ctrl_frames: u64,
    /// Phase B: frames in flight before the sender polls.
    pub ctrl_window: u64,
    /// Seeds the piece-id sequence both ends regenerate.
    pub id_seed: u64,
}

pub const BULK_PAYLOAD: usize = 64 * 1024;

pub fn stream_inputs(seed: u64, smoke: bool) -> StreamInputs {
    let seed = mix(seed, 16);
    // Enough distinct payloads that the generator does not sit in L2,
    // few enough that set-up stays a small part of the run.
    let payloads = (0..16u64)
        .map(|i| {
            let mut state = mix(seed, i);
            (0..BULK_PAYLOAD / 8)
                .flat_map(|_| {
                    state = mix(state, 0);
                    state.to_le_bytes()
                })
                .collect()
        })
        .collect();
    StreamInputs {
        payloads,
        bulk_frames: if smoke { 64 } else { 2048 },
        bulk_window: 16,
        ctrl_frames: if smoke { 2_000 } else { 100_000 },
        ctrl_window: 256,
        id_seed: seed,
    }
}

/// One `fluid_figs` cell: a protocol and the seed of its plan and run.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub proto: Proto,
    pub seed: u64,
}

/// Shape of every `fluid_figs` cell (the paper's flash-crowd setting).
#[derive(Debug, Clone, Copy)]
pub struct FluidShape {
    pub peers: usize,
    pub free_rider_fraction: f64,
    pub file_mib: f64,
    /// Share of the file every compliant leecher holds at join time (the
    /// Fig. 6(b) setting). With 0, about one T-Chain cell in 200 stalls
    /// for good at a third of its leechers done (README "Known
    /// findings"); with a tenth, none did in 3600 seeds.
    pub initial_piece_fraction: f64,
}

pub fn fluid_shape(smoke: bool) -> FluidShape {
    FluidShape {
        peers: if smoke { 24 } else { 160 },
        free_rider_fraction: 0.2,
        file_mib: if smoke { 2.0 } else { 24.0 },
        initial_piece_fraction: 0.1,
    }
}

/// The cell list: weighted toward T-Chain (`core::driver`), with the
/// baseline driver's policies represented so a `baselines` or
/// `sim::flow` change shows too. PropShare is absent: two runs of one
/// PropShare seed give different outcomes (see README "Known
/// findings"), so `deterministic_eq` cannot gate it.
pub fn fluid_cells(seed: u64, smoke: bool) -> Vec<Cell> {
    let per_proto: [(Proto, u64); 4] = [
        (Proto::Baseline(Baseline::FairTorrent), 1),
        (Proto::TChain, if smoke { 1 } else { 6 }),
        (
            Proto::Baseline(Baseline::BitTorrent),
            if smoke { 1 } else { 3 },
        ),
        (
            Proto::Baseline(Baseline::RandomBt),
            if smoke { 1 } else { 3 },
        ),
    ];
    let mut cells = Vec::new();
    for (p, (proto, count)) in per_proto.into_iter().enumerate() {
        for i in 0..count {
            cells.push(Cell {
                proto,
                seed: mix(seed, 32 + 16 * p as u64 + i),
            });
        }
    }
    cells
}
