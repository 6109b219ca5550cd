//! # tchain-proto — the swarm substrate
//!
//! Everything every protocol driver shares, rebuilt from the BitTorrent
//! mechanics the paper assumes (§II-A, §IV-A):
//!
//! * [`FileSpec`]/[`PieceId`]/[`Bitfield`] — the shared file, its pieces
//!   and per-peer completion sets, with the word-parallel interest tests
//!   (`wants_from`) that payee selection leans on;
//! * [`Peer`]/[`PeerTable`]/[`Role`] — swarm membership with join/leave
//!   and completion bookkeeping;
//! * [`Mesh`] — neighbor relations plus incremental piece-availability
//!   counts and Local-Rarest-First selection;
//! * [`Tracker`] — sharded membership with random member lists;
//! * [`SwarmBase`] — the state every driver shares, with the paper's
//!   fixed parameters as constants: [`LIST_SIZE`]-member tracker lists,
//!   refill below 30 neighbors, a 55-neighbor cap and a 6000 Kbps seeder
//!   (§IV-A), plus the clock step [`DT`] and the run horizon
//!   [`MAX_TIME`]; it also owns the run's tracer and phase profiler.
//!
//! Protocol logic (unchoking, deficits, T-Chain transactions) lives in
//! `tchain-baselines` and `tchain-core`, in drivers layered on this crate
//! and on `tchain-sim`'s flow scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
mod harness;
mod mesh;
mod peer;
mod piece;
mod tracker;
pub mod wire;

pub use control::{ControlMsg, Envelope};
pub use harness::{SwarmBase, DT, LIST_SIZE, MAX_TIME};
pub use mesh::Mesh;
pub use peer::{Peer, PeerTable, Role};
pub use piece::{Bitfield, FileSpec, PieceId};
pub use tracker::Tracker;
