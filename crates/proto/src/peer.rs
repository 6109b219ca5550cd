//! Peers and the swarm membership table.

use crate::piece::Bitfield;
use tchain_sim::NodeId;

/// A participant's role (§II-A): seeders hold the whole file and upload
/// altruistically; leechers download and leave on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Holds all pieces; never leaves (the paper's single seeder remains in
    /// the swarm for the whole run).
    Seeder,
    /// Downloads the file; departs immediately upon completion (§IV-A).
    Leecher,
}

/// Per-peer state shared by every protocol driver.
///
/// Protocol-specific state (deficits, pending-piece ledgers, choke sets)
/// lives in the drivers, in parallel tables indexed by [`NodeId`].
#[derive(Debug, Clone)]
pub struct Peer {
    /// Identity within the simulation.
    pub id: NodeId,
    /// Seeder or leecher.
    pub role: Role,
    /// Upload capacity in bytes per second (0 for strict free-riders).
    pub capacity: f64,
    /// Simulated time the peer joined.
    pub join_time: f64,
    /// Time the download finished, if it did.
    pub done_time: Option<f64>,
    /// Time the peer left the swarm, if it did.
    pub left_time: Option<f64>,
    /// Completed (downloaded and decrypted) pieces — `F_A` in Table I.
    pub have: Bitfield,
    /// Completed piece-equivalents uploaded (numerator of the §IV-H
    /// fairness factor's denominator).
    pub pieces_up: u64,
    /// Completed pieces downloaded.
    pub pieces_down: u64,
    /// `false` for free-riders; used only for reporting, never by protocol
    /// logic (protocols cannot see who is compliant).
    pub compliant: bool,
}

impl Peer {
    /// Whether the peer is currently in the swarm.
    #[inline]
    pub fn alive(&self) -> bool {
        self.left_time.is_none()
    }

    /// Fairness factor: pieces downloaded over pieces uploaded (§IV-H).
    /// `None` when the peer uploaded nothing (the ratio is undefined; the
    /// paper's CDF only includes compliant leechers, which always upload).
    pub fn fairness_factor(&self) -> Option<f64> {
        if self.pieces_up == 0 {
            None
        } else {
            Some(self.pieces_down as f64 / self.pieces_up as f64)
        }
    }

    /// Residence time in the swarm up to `now` (or until departure).
    pub fn residence(&self, now: f64) -> f64 {
        self.left_time.unwrap_or(now) - self.join_time
    }
}

/// Dense table of every peer that ever joined the run (departed peers are
/// retained for end-of-run statistics).
#[derive(Debug, Default)]
pub struct PeerTable {
    peers: Vec<Peer>,
}

impl PeerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a peer and assigns it the next dense [`NodeId`].
    pub fn add(&mut self, role: Role, capacity: f64, join_time: f64, pieces: usize, compliant: bool) -> NodeId {
        let id = NodeId(self.peers.len() as u32);
        let have = match role {
            Role::Seeder => Bitfield::full(pieces),
            Role::Leecher => Bitfield::new(pieces),
        };
        self.peers.push(Peer {
            id,
            role,
            capacity,
            join_time,
            done_time: None,
            left_time: None,
            have,
            pieces_up: 0,
            pieces_down: 0,
            compliant,
        });
        id
    }

    /// Total peers ever admitted.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when no peer ever joined.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Immutable access.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never admitted.
    #[inline]
    pub fn get(&self, id: NodeId) -> &Peer {
        &self.peers[id.index()]
    }

    /// Mutable access.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never admitted.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Peer {
        &mut self.peers[id.index()]
    }

    /// Whether `id` is currently in the swarm.
    #[inline]
    pub fn alive(&self, id: NodeId) -> bool {
        self.peers[id.index()].alive()
    }

    /// Iterates over every peer ever admitted.
    pub fn iter(&self) -> impl Iterator<Item = &Peer> {
        self.peers.iter()
    }

    /// Iterates over peers currently in the swarm.
    pub fn iter_alive(&self) -> impl Iterator<Item = &Peer> {
        self.peers.iter().filter(|p| p.alive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeder_starts_complete_leecher_empty() {
        let mut t = PeerTable::new();
        let s = t.add(Role::Seeder, 750_000.0, 0.0, 64, true);
        let l = t.add(Role::Leecher, 50_000.0, 1.0, 64, true);
        assert!(t.get(s).have.is_complete());
        assert_eq!(t.get(l).have.count(), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(s, NodeId(0));
        assert_eq!(l, NodeId(1));
    }

    #[test]
    fn fairness_factor() {
        let mut t = PeerTable::new();
        let l = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        assert_eq!(t.get(l).fairness_factor(), None);
        t.get_mut(l).pieces_up = 4;
        t.get_mut(l).pieces_down = 2;
        assert_eq!(t.get(l).fairness_factor(), Some(0.5));
    }

    #[test]
    fn residence_and_departure() {
        let mut t = PeerTable::new();
        let l = t.add(Role::Leecher, 1.0, 10.0, 4, true);
        assert!(t.alive(l));
        assert_eq!(t.get(l).residence(25.0), 15.0);
        t.get_mut(l).left_time = Some(20.0);
        assert!(!t.alive(l));
        assert_eq!(t.get(l).residence(25.0), 10.0);
    }
}
