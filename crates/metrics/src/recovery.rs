//! Retry / stall / recovery counters for fault-injected runs.

tchain_obs::json_struct! {
    /// What the recovery machinery did during one run: control-plane delivery
    /// outcomes, retransmissions, watchdog interventions and the §II-B4 repair
    /// actions (payee reassignment, key escrow). All zero on a fault-free run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RecoveryCounters {
        /// Control messages handed to the fault layer.
        pub ctrl_sent: u64,
        /// Control messages lost (loss probability or partition).
        pub ctrl_dropped: u64,
        /// Control messages delivered late.
        pub ctrl_delayed: u64,
        /// Tracker queries lost.
        pub tracker_dropped: u64,
        /// Reports/keys retransmitted after a timeout.
        pub retransmissions: u64,
        /// Retry chains that hit the attempt cap and gave up.
        pub retry_exhausted: u64,
        /// Transactions closed by the watchdog (dead participant or terminal
        /// stall).
        pub watchdog_closures: u64,
        /// §II-B4 payee reassignments (chain repaired past a gone payee).
        pub payees_reassigned: u64,
        /// §II-B4 key escrows (donor gone; payee releases the key).
        pub keys_escrowed: u64,
        /// Peers that crashed abruptly (distinct from graceful departures).
        pub crashes: u64,
        /// Chains force-closed because repair was impossible.
        pub broken_chains: u64,
        /// Transactions found referencing dead/stale protocol state and
        /// discarded instead of panicking.
        pub orphaned_txns: u64,
    }
}

impl tchain_obs::ExportStats for RecoveryCounters {
    fn export_stats(&self, prefix: &str, reg: &mut tchain_obs::StatsRegistry) {
        reg.add(&format!("{prefix}ctrl_sent"), self.ctrl_sent);
        reg.add(&format!("{prefix}ctrl_dropped"), self.ctrl_dropped);
        reg.add(&format!("{prefix}ctrl_delayed"), self.ctrl_delayed);
        reg.add(&format!("{prefix}tracker_dropped"), self.tracker_dropped);
        reg.add(&format!("{prefix}retransmissions"), self.retransmissions);
        reg.add(&format!("{prefix}retry_exhausted"), self.retry_exhausted);
        reg.add(&format!("{prefix}watchdog_closures"), self.watchdog_closures);
        reg.add(&format!("{prefix}payees_reassigned"), self.payees_reassigned);
        reg.add(&format!("{prefix}keys_escrowed"), self.keys_escrowed);
        reg.add(&format!("{prefix}crashes"), self.crashes);
        reg.add(&format!("{prefix}broken_chains"), self.broken_chains);
        reg.add(&format!("{prefix}orphaned_txns"), self.orphaned_txns);
    }
}

impl RecoveryCounters {
    /// Sums two counter sets (e.g. aggregating over seeds).
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.ctrl_sent += other.ctrl_sent;
        self.ctrl_dropped += other.ctrl_dropped;
        self.ctrl_delayed += other.ctrl_delayed;
        self.tracker_dropped += other.tracker_dropped;
        self.retransmissions += other.retransmissions;
        self.retry_exhausted += other.retry_exhausted;
        self.watchdog_closures += other.watchdog_closures;
        self.payees_reassigned += other.payees_reassigned;
        self.keys_escrowed += other.keys_escrowed;
        self.crashes += other.crashes;
        self.broken_chains += other.broken_chains;
        self.orphaned_txns += other.orphaned_txns;
    }

    /// Fraction of sent control messages that were lost.
    pub fn loss_rate(&self) -> f64 {
        if self.ctrl_sent == 0 {
            0.0
        } else {
            self.ctrl_dropped as f64 / self.ctrl_sent as f64
        }
    }

    /// `true` when nothing fault-related happened (the expected state of
    /// every fault-free run).
    pub fn is_quiet(&self) -> bool {
        *self == RecoveryCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = RecoveryCounters { ctrl_sent: 10, ctrl_dropped: 2, ..Default::default() };
        let b = RecoveryCounters {
            ctrl_sent: 5,
            retransmissions: 3,
            keys_escrowed: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ctrl_sent, 15);
        assert_eq!(a.ctrl_dropped, 2);
        assert_eq!(a.retransmissions, 3);
        assert_eq!(a.keys_escrowed, 1);
    }

    #[test]
    fn loss_rate_and_quiet() {
        let mut c = RecoveryCounters::default();
        assert!(c.is_quiet());
        assert_eq!(c.loss_rate(), 0.0);
        c.ctrl_sent = 8;
        c.ctrl_dropped = 2;
        assert!(!c.is_quiet());
        assert!((c.loss_rate() - 0.25).abs() < 1e-12);
    }
}
