//! A compact Dandelion model (Sirivianos et al., §V) for Table II.
//!
//! Dandelion enforces reciprocity through a **trusted central server**:
//! uploads of encrypted content earn server-accounted credit, downloads
//! spend it, and newcomers start with an initial credit grant. The paper
//! faults it on two axes Table II records: the reliance on a trusted
//! third party (scalability / single point of failure) and the newcomer
//! grant being farmable by whitewashing/Sybil identities.

use std::collections::HashMap;

/// Identity of a Dandelion client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

/// The central credit server: the trusted third party T-Chain avoids.
#[derive(Debug, Default)]
pub struct CreditServer {
    credit: HashMap<ClientId, i64>,
    initial_grant: i64,
    next_id: u32,
    transactions: u64,
}

impl CreditServer {
    /// A server granting `initial_grant` credits to each new identity
    /// ("newcomers start with some initial credit", §V).
    pub fn new(initial_grant: i64) -> Self {
        CreditServer { initial_grant, ..Default::default() }
    }

    /// Registers a new identity (a join, a whitewash rejoin or a Sybil).
    pub fn register(&mut self) -> ClientId {
        let id = ClientId(self.next_id);
        self.next_id += 1;
        self.credit.insert(id, self.initial_grant);
        id
    }

    /// Current balance.
    pub fn balance(&self, id: ClientId) -> i64 {
        self.credit.get(&id).copied().unwrap_or(0)
    }

    /// Total registered identities (Sybil pressure on the server).
    pub fn identities(&self) -> usize {
        self.credit.len()
    }

    /// Server-mediated transactions processed (every exchange touches the
    /// server — the scalability bottleneck Table II marks with ×).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Settles one piece transfer: the uploader earns a credit, the
    /// downloader spends one. Fails (returns `false`) when the downloader
    /// has no credit — the enforcement that stops plain free-riding.
    pub fn settle(&mut self, uploader: ClientId, downloader: ClientId) -> bool {
        self.transactions += 1;
        let bal = self.balance(downloader);
        if bal <= 0 {
            return false;
        }
        *self.credit.entry(downloader).or_insert(0) -= 1;
        *self.credit.entry(uploader).or_insert(0) += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_enforces_reciprocity() {
        let mut s = CreditServer::new(2);
        let a = s.register();
        let b = s.register();
        // b can download only its grant's worth without uploading.
        assert!(s.settle(a, b));
        assert!(s.settle(a, b));
        assert!(!s.settle(a, b), "credit exhausted: free-riding blocked");
        // After uploading, b can download again.
        assert!(s.settle(b, a));
        assert!(s.settle(a, b));
    }

    #[test]
    fn whitewashing_farms_newcomer_grants() {
        let mut s = CreditServer::new(5);
        let honest = s.register();
        let mut downloaded = 0;
        for _ in 0..10 {
            // The attacker discards each drained identity and re-registers.
            let fresh = s.register();
            while s.settle(honest, fresh) {
                downloaded += 1;
            }
        }
        assert_eq!(downloaded, 50, "10 identities × 5 granted credits");
        assert_eq!(s.identities(), 11);
    }

    #[test]
    fn every_exchange_hits_the_central_server() {
        let mut s = CreditServer::new(1);
        let a = s.register();
        let b = s.register();
        for _ in 0..10 {
            s.settle(a, b);
            s.settle(b, a);
        }
        assert_eq!(s.transactions(), 20, "central mediation on every transfer");
    }

    #[test]
    fn balances_conserved() {
        let mut s = CreditServer::new(3);
        let a = s.register();
        let b = s.register();
        let c = s.register();
        s.settle(a, b);
        s.settle(b, c);
        s.settle(c, a);
        let total: i64 = [a, b, c].iter().map(|&x| s.balance(x)).sum();
        assert_eq!(total, 9, "credits move, never created by transfers");
    }
}
