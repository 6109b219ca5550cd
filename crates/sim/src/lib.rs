//! # tchain-sim — deterministic fluid simulation engine
//!
//! The T-Chain paper evaluates incentive protocols in an event-driven
//! BitTorrent simulator where *upload bandwidth is the contended resource*
//! and download bandwidth is unbounded (paper §IV-A). This crate rebuilds
//! that substrate as a deterministic, discrete-time *fluid-flow* engine:
//!
//! * [`FlowScheduler`] — the bandwidth model. Every in-flight piece/block
//!   upload is a *flow* with a byte size and a weight; each tick, every
//!   uploader's capacity is divided among its active flows by weighted
//!   max-min (water-filling) sharing. Completed flows are handed back to the
//!   protocol driver.
//! * [`Clock`] and [`Periodic`] — simulated time and rechoke-style timers.
//! * [`SimRng`] — the seedable generator, so every experiment run is
//!   reproducible from a single `u64` seed.
//! * [`forall`] — the property-test loop the workspace's test suites run
//!   on top of it (with [`ensure!`] / [`ensure_eq!`] for the checks).
//!
//! Control messages (reception reports, decryption keys, tracker queries)
//! are "several orders of magnitude" smaller than file pieces (paper §III-C)
//! and are modelled as instantaneous by default. A [`FaultPlan`] changes
//! that: it can drop or delay control messages, deterministically from
//! its own seed (see [`fault`] and [`DelayQueue`]).
//!
//! ```
//! use tchain_sim::{FlowScheduler, NodeId, kbps};
//!
//! let mut fs = FlowScheduler::new();
//! let a = NodeId(0);
//! let b = NodeId(1);
//! fs.set_capacity(a, kbps(800.0));
//! fs.start(a, b, 64.0 * 1024.0, 1.0, 0);
//! let mut done = Vec::new();
//! // 64 KiB at 800 Kbps (100 KB/s) finishes in under a second.
//! fs.advance(1.0, &mut done);
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod churn;
mod clock;
pub mod fault;
mod flow;
mod forall;
pub mod perturb;
pub mod queue;
mod rng;
mod units;

pub use chaos::{ChaosAction, ChaosPlan, ChaosState, CrashRestart, FrameMutation, REORDER_DELAY};
pub use churn::{ChurnEvent, ChurnPlan, ChurnState, ChurnStats};
pub use clock::{Clock, Periodic};
pub use fault::{FaultPlan, FaultState, FaultStats, LatencyModel, Route};
pub use flow::{Flow, FlowId, FlowScheduler, FlowStats};
pub use forall::{forall, sized, FULL_SIZE};
pub use perturb::{Act, Choice, ExplorePlan, SchedPerturber, Schedule};
pub use queue::DelayQueue;
pub use rng::{splitmix64, SimRng};
pub use units::{kbps, kib, mib, BYTES_PER_KIB, BYTES_PER_MIB};

/// Identifier of a simulated node (peer, seeder, tracker-side entity).
///
/// `NodeId` is a plain index newtype: drivers allocate ids densely so that
/// per-node state can live in `Vec`s. Identity-churn attacks (whitewashing,
/// Sybil) allocate *fresh* `NodeId`s for the same underlying attacker, which
/// is exactly how those attacks look to the rest of the swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index for dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A multiply–rotate [`Hasher`](std::hash::Hasher) for maps keyed by
/// [`NodeId`]. Ids are minted by the simulator, never read from outside
/// input, so SipHash's resistance to crafted collisions buys nothing here.
/// Iteration order is arbitrary, as with std's randomised default: sort
/// before letting it reach an output.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IdHasher`]:
/// `HashMap<NodeId, V, IdHash>`.
pub type IdHash = std::hash::BuildHasherDefault<IdHasher>;
