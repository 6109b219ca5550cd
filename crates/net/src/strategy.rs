//! Adversary engine: the paper's strategic attackers on the wire.
//!
//! The fluid simulators consult `tchain-attacks::Strategy` at every
//! behavioural fork; this module ports the same vocabulary onto the
//! executable runtime. A [`PeerRuntime`](crate::PeerRuntime) carries a
//! [`Strategy`] and consults its capability methods wherever the
//! protocol forks:
//!
//! * **Upload scheduling** — `uploads()` gates reciprocation
//!   obligations, escrow forwarding, `Have` broadcasts and report
//!   handling; a free-rider of any flavour withholds all of them
//!   (§III-A2 zero upload).
//! * **Tracker interaction** — `large_view()` peers re-query the
//!   tracker every [`RECHOKE_PERIOD`] and accept every connection
//!   (§IV-C). The accept-all half is the runtime's default — incoming
//!   `Bitfield`/`NeighborRequest` frames always register the sender —
//!   so the engine only has to drive the outsized re-query schedule.
//! * **Identity lifecycle** — `whitewash()` peers discard their
//!   identity once it has stalled — no new plaintext piece — for
//!   [`WHITEWASH_PATIENCE`] seconds, then rejoin as a fresh newcomer
//!   after [`WHITEWASH_REJOIN_DELAY`] (§IV-C "treated as another
//!   newcomer by the deceived neighbor"). The harness tears the
//!   identity out like a crash — no §II-B4 handoff — and brings back
//!   its `PeerRuntime::rebirth`: a whitewasher keeps its loot and tells
//!   nobody it is leaving.
//! * **Sybil / collusion** — `collusion_group()` names the operator's
//!   [`GroupId`]. The Sybil exploit fires only when a transaction's
//!   requestor *and* payee land in the same group (§III-A4); ring
//!   members then file false `Report` frames on each other's behalf —
//!   the one T-Chain-specific loophole (§IV-D).
//!
//! Strategies stay *descriptions*: the runtime never branches on "am I
//! an attacker", only on the specific capability the fork needs, and
//! manipulation-free swarms construct no attack state at all, so their
//! RNG draw sequences — and hence frame-stream fingerprints — are
//! bit-identical to the pre-engine builds.

pub use tchain_attacks::{ColluderRegistry, FreeRiderConfig, GroupId, Strategy};

/// BitTorrent rechoke period (§IV-C): the cadence at which a large-view
/// free-rider re-queries the tracker for a fresh neighbor list —
/// "much more frequently than in normal BitTorrent operations".
pub const RECHOKE_PERIOD: f64 = 10.0;

/// Seconds without a new piece before a whitewasher concludes its
/// current identity is exhausted (neighbors' §II-D2 ledgers are full of
/// its unreciprocated transactions) and discards it.
pub const WHITEWASH_PATIENCE: f64 = 30.0;

/// Delay between discarding an identity and rejoining under a fresh
/// one — a real whitewasher needs a new port/address, not a new brain.
pub const WHITEWASH_REJOIN_DELAY: f64 = 5.0;

/// Stable scenario label for per-strategy report breakdowns.
pub fn strategy_label(s: &Strategy) -> &'static str {
    match s.free_rider() {
        None => "compliant",
        Some(c) if c.collude.is_some() => "colluding",
        Some(c) if c.large_view || c.whitewash => "aggressive",
        Some(_) => "free_rider",
    }
}

/// Per-*operator* attack bookkeeping, tracked across the identity
/// changes a whitewasher cycles through. The harness keeps one of
/// these per manipulating operator; `live_id` names its current wire
/// identity (dead while a whitewash rejoin is pending).
#[derive(Debug, Clone)]
pub struct AttackerState {
    /// Current wire identity, `None` between whitewash and rejoin.
    pub live_id: Option<u32>,
    /// The operator's strategy (survives identity changes).
    pub strategy: Strategy,
    /// Next scheduled large-view tracker re-query.
    pub next_requery: f64,
    /// Piece count at the last observed progress.
    pub progress_pieces: usize,
    /// Time of the last observed progress (or identity birth).
    pub progress_at: f64,
}

impl AttackerState {
    /// Fresh state for an operator whose first identity is `id`.
    pub fn new(id: u32, strategy: Strategy, now: f64) -> Self {
        AttackerState {
            live_id: Some(id),
            strategy,
            next_requery: now + RECHOKE_PERIOD,
            progress_pieces: 0,
            progress_at: now,
        }
    }

    /// Folds the current piece count in; returns `true` on progress.
    pub fn note_progress(&mut self, pieces: usize, now: f64) -> bool {
        if pieces > self.progress_pieces {
            self.progress_pieces = pieces;
            self.progress_at = now;
            true
        } else {
            false
        }
    }

    /// Whether the §IV-C whitewash trigger holds: the identity has
    /// stalled — no new plaintext piece — for [`WHITEWASH_PATIENCE`]
    /// seconds (birth counts as progress). A stalled identity is
    /// exhausted either way: its neighbors' §II-D2 ledgers are full of
    /// unreciprocated transactions, so resetting "restores its deficit
    /// value (to zero)" whether or not it managed to extract loot
    /// first — loot just resets the clock and delays the reset.
    pub fn should_whitewash(&self, now: f64) -> bool {
        self.strategy.whitewash() && now - self.progress_at > WHITEWASH_PATIENCE
    }

    /// Re-arms the progress clock for a fresh identity `id` at `now`
    /// (piece holdings carry over — whitewashers keep their loot).
    pub fn rebirth(&mut self, id: u32, pieces: usize, now: f64) {
        self.live_id = Some(id);
        self.progress_pieces = pieces;
        self.progress_at = now;
        self.next_requery = now + RECHOKE_PERIOD;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(strategy_label(&Strategy::Compliant), "compliant");
        assert_eq!(strategy_label(&Strategy::zero_upload()), "free_rider");
        assert_eq!(strategy_label(&Strategy::aggressive_free_rider()), "aggressive");
        assert_eq!(strategy_label(&Strategy::colluding_free_rider(GroupId(0))), "colluding");
    }

    #[test]
    fn whitewash_trigger_fires_on_stall_and_progress_delays_it() {
        let mut st = AttackerState::new(5, Strategy::aggressive_free_rider(), 0.0);
        assert!(!st.should_whitewash(WHITEWASH_PATIENCE), "birth counts as progress");
        assert!(st.note_progress(2, 10.0), "extraction resets the clock");
        assert!(!st.note_progress(2, 12.0), "no new pieces");
        assert!(!st.should_whitewash(10.0 + WHITEWASH_PATIENCE));
        assert!(st.should_whitewash(10.0 + WHITEWASH_PATIENCE + 0.1));
        st.rebirth(9, 2, 50.0);
        assert_eq!(st.live_id, Some(9));
        assert!(!st.should_whitewash(50.0 + WHITEWASH_PATIENCE), "rebirth re-arms the clock");
        assert!(st.should_whitewash(50.0 + WHITEWASH_PATIENCE + 0.1));
    }

    #[test]
    fn compliant_never_whitewashes() {
        let mut st = AttackerState::new(1, Strategy::Compliant, 0.0);
        st.note_progress(4, 1.0);
        assert!(!st.should_whitewash(1e9));
    }
}
