//! Transactions and chains (§II-B, Table I).
//!
//! The jth transaction `t_j` involves a donor `D_j`, a requestor `R_j` and
//! a payee `P_j`: the donor uploads an encrypted piece to the requestor,
//! who must reciprocate by uploading a piece to the payee before the
//! decryption key is released. The payee of `t_j` is the requestor of
//! `t_{j+1}`; the sequence forms a *chain* with initiation, continuation
//! and termination phases (Fig. 1).

use crate::arena::Handle;
use tchain_proto::PieceId;
use tchain_sim::NodeId;

/// Handle of a transaction in the driver's arena.
pub type TxnId = Handle;
/// Handle of a chain in the driver's arena.
pub type ChainId = Handle;

/// Lifecycle of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// The donor's (encrypted) piece is in flight to the requestor.
    Uploading,
    /// The piece arrived; the requestor owes reciprocation before the key
    /// is released.
    AwaitingReciprocation,
    /// Reciprocation was reported but the key-release message is still in
    /// flight (only reachable under fault injection; the instantaneous
    /// model goes straight to `Completed`).
    KeyInFlight,
    /// Reciprocation reported (or the upload was unencrypted); the key was
    /// released and the requestor completed the piece.
    Completed,
    /// Broken by departure, stall or cancellation.
    Aborted,
}

/// One triangle transaction.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// The chain this transaction extends.
    pub chain: ChainId,
    /// Uploader (`D_j`).
    pub donor: NodeId,
    /// Recipient who owes reciprocation (`R_j`).
    pub requestor: NodeId,
    /// Where the requestor must reciprocate (`P_j`); `None` for an
    /// unencrypted termination upload (§II-B3), which releases the
    /// requestor from any obligation.
    pub payee: Option<NodeId>,
    /// The piece uploaded donor → requestor (`p_{ij}`).
    pub piece: PieceId,
    /// Whether the donor encrypted the piece, i.e. the requestor owes
    /// reciprocation before the key is released. The fluid driver moves
    /// accounting, not bytes, so it holds no key material.
    pub encrypted: bool,
    /// The transaction this upload reciprocates, if any (`t_{j-1}`).
    pub parent: Option<TxnId>,
    /// Current lifecycle state.
    pub state: TxnState,
    /// When the donor started uploading.
    pub started: f64,
    /// When the piece arrived at the requestor (start of the awaiting
    /// phase; meaningful once state ≥ `AwaitingReciprocation`).
    pub awaiting_since: f64,
    /// Donor departed after uploading; the key is held in escrow by the
    /// payee and released on reciprocation without the donor (§II-B4).
    pub key_escrowed: bool,
    /// Newcomer bootstrapping (§II-D1): the requestor has no completed
    /// pieces and will reciprocate by forwarding this very piece,
    /// re-encrypted under its own key.
    pub forward_encrypted: bool,
    /// A reciprocation upload for this transaction is currently in flight
    /// (guards against double-reciprocating on sweep retries).
    pub child_active: bool,
    /// The reception report that closed this transaction was falsified
    /// (collusion, §IV-D) — recorded when the report is accepted so the
    /// eventual key release ends the chain with the right cause.
    pub collusion: bool,
}

impl Transaction {
    /// Whether this transaction uses direct reciprocity (payee == donor).
    pub fn direct(&self) -> bool {
        self.payee == Some(self.donor)
    }
}

/// Who started a chain (Fig. 11 attributes chains to the seeder vs.
/// leechers' opportunistic seeding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainOrigin {
    /// Initiated by the seeder (initiation phase, §II-B1).
    Seeder,
    /// Initiated by a leecher via opportunistic seeding (§II-D3).
    Opportunistic,
}

/// Why a chain ended (the paper's chain-termination discussion, §II-B3
/// and §IV-F/G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainEnd {
    /// A donor uploaded an unencrypted piece because no payee existed
    /// (§II-B3's termination phase).
    NoPayee,
    /// A participant departed mid-transaction and no repair was possible.
    Departure,
    /// The requestor never reciprocated (free-riding); swept after the
    /// stall timeout.
    Stalled,
    /// A false reception report short-circuited the exchange (§IV-D);
    /// the chain has no continuation.
    Collusion,
    /// A participant crashed abruptly (fault injection); the chain could
    /// not be repaired via the §II-B4 escrow path.
    Crash,
}

/// A live chain.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Who initiated it.
    pub origin: ChainOrigin,
    /// Creation time.
    pub created_at: f64,
    /// Transactions spawned so far (chain length).
    pub txns: u32,
    /// Transactions currently live (chain ends when this returns to 0).
    pub live_txns: u32,
}

/// Aggregate chain statistics for Figs. 10 and 11.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainStats {
    /// Chains created by the seeder (cumulative).
    pub created_by_seeder: u64,
    /// Chains created by leechers via opportunistic seeding (cumulative).
    pub created_by_leechers: u64,
    /// Chains currently active.
    pub active: u64,
    /// Ended chains by cause.
    pub ended_no_payee: u64,
    /// Ended due to departures.
    pub ended_departure: u64,
    /// Ended by the stall sweep (free-riding).
    pub ended_stalled: u64,
    /// Ended by collusion short-circuits.
    pub ended_collusion: u64,
    /// Ended by abrupt peer crashes (fault injection).
    pub ended_crash: u64,
    /// Sum of chain lengths (transactions) over ended chains.
    pub total_txns_ended: u64,
    /// Number of ended chains (for mean-length computation).
    pub ended: u64,
}

impl tchain_obs::ExportStats for ChainStats {
    fn export_stats(&self, prefix: &str, reg: &mut tchain_obs::StatsRegistry) {
        reg.add(&format!("{prefix}created_by_seeder"), self.created_by_seeder);
        reg.add(&format!("{prefix}created_by_leechers"), self.created_by_leechers);
        reg.add(&format!("{prefix}active"), self.active);
        reg.add(&format!("{prefix}ended_no_payee"), self.ended_no_payee);
        reg.add(&format!("{prefix}ended_departure"), self.ended_departure);
        reg.add(&format!("{prefix}ended_stalled"), self.ended_stalled);
        reg.add(&format!("{prefix}ended_collusion"), self.ended_collusion);
        reg.add(&format!("{prefix}ended_crash"), self.ended_crash);
        reg.add(&format!("{prefix}total_txns_ended"), self.total_txns_ended);
        reg.add(&format!("{prefix}ended"), self.ended);
    }
}

impl ChainStats {
    /// Cumulative chains created.
    pub fn created_total(&self) -> u64 {
        self.created_by_seeder + self.created_by_leechers
    }

    /// Mean transactions per ended chain.
    pub fn mean_length(&self) -> f64 {
        if self.ended == 0 {
            0.0
        } else {
            self.total_txns_ended as f64 / self.ended as f64
        }
    }

    /// Fraction of created chains that came from opportunistic seeding
    /// (Fig. 11(b)).
    pub fn opportunistic_fraction(&self) -> f64 {
        let total = self.created_total();
        if total == 0 {
            0.0
        } else {
            self.created_by_leechers as f64 / total as f64
        }
    }

    /// Records an ended chain.
    pub fn record_end(&mut self, cause: ChainEnd, length: u32) {
        self.ended += 1;
        self.total_txns_ended += length as u64;
        self.active = self.active.saturating_sub(1);
        match cause {
            ChainEnd::NoPayee => self.ended_no_payee += 1,
            ChainEnd::Departure => self.ended_departure += 1,
            ChainEnd::Stalled => self.ended_stalled += 1,
            ChainEnd::Collusion => self.ended_collusion += 1,
            ChainEnd::Crash => self.ended_crash += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;

    #[test]
    fn txn_flags() {
        let mut chains: Arena<Chain> = Arena::new();
        let c = chains.insert(Chain {
            origin: ChainOrigin::Seeder,
            created_at: 0.0,
            txns: 1,
            live_txns: 1,
        });
        let donor = NodeId(1);
        let t = Transaction {
            chain: c,
            donor,
            requestor: NodeId(2),
            payee: Some(donor),
            piece: PieceId(0),
            encrypted: true,
            parent: None,
            state: TxnState::Uploading,
            started: 0.0,
            awaiting_since: 0.0,
            key_escrowed: false,
            forward_encrypted: false,
            child_active: false,
            collusion: false,
        };
        assert!(t.encrypted);
        assert!(t.direct());
        let plain = Transaction { encrypted: false, payee: None, ..t };
        assert!(!plain.encrypted);
        assert!(!plain.direct());
    }

    #[test]
    fn chain_stats_accounting() {
        let mut s = ChainStats {
            created_by_seeder: 3,
            created_by_leechers: 1,
            active: 4,
            ..Default::default()
        };
        s.record_end(ChainEnd::NoPayee, 10);
        s.record_end(ChainEnd::Stalled, 2);
        assert_eq!(s.active, 2);
        assert_eq!(s.ended, 2);
        assert_eq!(s.mean_length(), 6.0);
        assert_eq!(s.created_total(), 4);
        assert_eq!(s.opportunistic_fraction(), 0.25);
        assert_eq!(s.ended_no_payee, 1);
        assert_eq!(s.ended_stalled, 1);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ChainStats::default();
        assert_eq!(s.mean_length(), 0.0);
        assert_eq!(s.opportunistic_fraction(), 0.0);
    }
}
