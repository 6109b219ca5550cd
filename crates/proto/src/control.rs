//! Schedulable control-plane events.
//!
//! Fig. 1's small messages — the payee's reception report and the donor's
//! key release — used to be synchronous function calls inside the drivers.
//! Under fault injection they become *events*: routed through the run's
//! [`FaultState`](tchain_sim::FaultState) (which may drop or delay them)
//! and, when delayed, parked in a [`DelayQueue`](tchain_sim::DelayQueue)
//! that the driver drains each tick. On the fault-free path `send` hands
//! the envelope straight back for synchronous handling, preserving the
//! exact call order (and therefore bit-identical runs) of the
//! instantaneous model.

use tchain_sim::NodeId;

/// A control message between peers. Transactions are referenced by their
/// packed arena handle (`u64`), the same tag the flow scheduler carries,
/// so the substrate stays ignorant of driver-internal types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Payee → donor: the requestor reciprocated on transaction `txn`
    /// (Fig. 1's `r_P`). `falsified` marks a collusion lie (§IV-D) —
    /// wire-indistinguishable from a real report, carried here only for
    /// accounting.
    Report {
        /// Packed handle of the reported transaction.
        txn: u64,
        /// Whether this is a false report from a colluding payee.
        falsified: bool,
    },
    /// Donor (or escrow-holding payee, §II-B4) → requestor: the decryption
    /// key for transaction `txn`.
    Key {
        /// Packed handle of the transaction being unlocked.
        txn: u64,
    },
}

/// One addressed control message in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload.
    pub msg: ControlMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_plain_data() {
        let e = Envelope {
            from: NodeId(1),
            to: NodeId(2),
            msg: ControlMsg::Report { txn: 7, falsified: false },
        };
        let f = e;
        assert_eq!(e, f, "copyable and comparable");
        assert_ne!(
            ControlMsg::Report { txn: 7, falsified: false },
            ControlMsg::Key { txn: 7 }
        );
    }
}
