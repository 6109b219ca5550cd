//! tchain-net: an executable T-Chain peer runtime.
//!
//! Everything below the fluid simulators actually *moves bytes*: a
//! [`Transport`] abstraction with a deterministic in-process
//! [`ChannelMesh`] (seeded loss/latency via `tchain-sim`'s fault plans)
//! and a framed [`TcpLoopback`] backend over real sockets; a strict
//! incremental framing layer ([`Frame`], [`FrameDecoder`]) carrying
//! `tchain-proto` control messages plus bulk [`Frame::PieceData`] whose
//! payloads are genuinely ChaCha20-encrypted with `tchain-crypto`
//! per-transaction keys — two frame kinds, with a telemetry
//! [`CausalMeta`] stamp riding beside a frame in memory, never on the
//! wire; a [`PeerRuntime`] state machine implementing the §II-B
//! triangle protocol (payee designation, reciprocate-before-key, §II-B3
//! termination, §II-B4 escrow, §II-D1 forward re-encryption, §II-D2
//! flow control, §II-D3 opportunistic seeding);
//! and a [`SwarmHarness`] that boots N peers in one process, runs a
//! flash crowd to completion and audits every key release on the wire.
//!
//! On top of that sits a chaos layer: the [`ChannelMesh`] composes a
//! `tchain-sim` `ChaosPlan` that corrupts, duplicates, reorders and
//! resets frames in flight; the checksummed codec turns every mutation
//! into a typed [`FrameError`], and [`TcpLoopback`] surfaces a real
//! stream that stops decoding or dies mid-frame the same way; receivers
//! convert rejects into strikes and temporary quarantines; and a
//! crash-restart schedule kills peers abruptly and rejoins their
//! [`PeerRuntime::restart`] successors. The harness orchestrates all of it and
//! asserts that safety (byte-exact plaintexts, zero unreciprocated key
//! releases) survives.
//!
//! The crate depends only on `tchain-{crypto,proto,sim,obs}` — the
//! fluid drivers in `tchain-core` know nothing about it, which is what
//! lets integration tests cross-check the two independently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod content;
pub mod explore;
mod frame;
mod harness;
mod neighbors;
mod observer;
mod runtime;
pub mod sched;
pub mod strategy;
mod tcp;
pub mod telemetry;
mod transport;

pub use content::{digest, Content};
pub use explore::{
    canary_armed, scenario_config, scenarios, ExploreConfig, ExploreOutcome, Witness,
};
pub use frame::{
    frame_checksum, Frame, FrameDecoder, FrameError, FRAME_HEADER_LEN, MAX_FRAME_BODY,
};
pub use harness::{run_swarm, Observer, SwarmConfig, SwarmHarness, SwarmReport};
pub use sched::TimerWheel;
pub use strategy::{
    strategy_label, AttackerState, ColluderRegistry, FreeRiderConfig, GroupId, Strategy,
    RECHOKE_PERIOD, WHITEWASH_PATIENCE, WHITEWASH_REJOIN_DELAY,
};
pub use telemetry::{FlightDump, FlightRecorder, PeerTelemetry, SwarmTelemetry};
pub use runtime::{NetConfig, Outbox, PeerCounters, PeerRole, PeerRuntime};
pub use tcp::TcpLoopback;
pub use transport::{
    CausalMeta, ChannelMesh, ChaosRecord, Delivery, FrameReject, NetError, RejectCause,
    Transport, TransportStats,
};
