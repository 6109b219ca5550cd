//! The neighbor mesh and Local-Rarest-First piece selection.
//!
//! Each peer keeps per-piece *availability counts* over its current
//! neighbors, updated incrementally on connect/disconnect and on every
//! `Have` announcement. LRF picks the piece with the fewest copies among
//! the chooser's neighbors (§II-A), breaking ties uniformly at random.

use crate::peer::PeerTable;
use crate::piece::{Bitfield, PieceId};
use tchain_sim::{NodeId, SimRng};

/// Symmetric neighbor relations plus per-peer piece availability counts.
#[derive(Debug, Default)]
pub struct Mesh {
    neighbors: Vec<Vec<NodeId>>,
    avail: Vec<Vec<u16>>,
    pieces: usize,
}

impl Mesh {
    /// Creates a mesh for a file of `pieces` pieces.
    pub fn new(pieces: usize) -> Self {
        Mesh { neighbors: Vec::new(), avail: Vec::new(), pieces }
    }

    fn ensure(&mut self, id: NodeId) {
        let i = id.index();
        if i >= self.neighbors.len() {
            self.neighbors.resize_with(i + 1, Vec::new);
            self.avail.resize_with(i + 1, Vec::new);
        }
        if self.avail[i].is_empty() {
            self.avail[i] = vec![0; self.pieces];
        }
    }

    /// A peer's current neighbors.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.neighbors.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Current neighbor count.
    pub fn degree(&self, id: NodeId) -> usize {
        self.neighbors(id).len()
    }

    /// Whether `a` and `b` are connected.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Connects two peers (both directions) and folds each other's
    /// bitfields into the availability counts. Returns `false` (no-op) if
    /// they are the same peer or already connected.
    pub fn connect(&mut self, a: NodeId, b: NodeId, peers: &PeerTable) -> bool {
        if a == b || self.are_neighbors(a, b) {
            return false;
        }
        self.ensure(a);
        self.ensure(b);
        self.neighbors[a.index()].push(b);
        self.neighbors[b.index()].push(a);
        for p in peers.get(b).have.iter_set() {
            self.avail[a.index()][p.index()] += 1;
        }
        for p in peers.get(a).have.iter_set() {
            self.avail[b.index()][p.index()] += 1;
        }
        true
    }

    /// Disconnects two peers, reversing the availability contribution.
    /// Returns `false` if they were not connected.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId, peers: &PeerTable) -> bool {
        if !self.are_neighbors(a, b) {
            return false;
        }
        // are_neighbors() guarantees both entries exist, but a corrupted
        // adjacency list should degrade to a no-op rather than a panic.
        let list = &mut self.neighbors[a.index()];
        if let Some(p) = list.iter().position(|&x| x == b) {
            list.swap_remove(p);
        }
        let list = &mut self.neighbors[b.index()];
        if let Some(p) = list.iter().position(|&x| x == a) {
            list.swap_remove(p);
        }
        for p in peers.get(b).have.iter_set() {
            self.avail[a.index()][p.index()] -= 1;
        }
        for p in peers.get(a).have.iter_set() {
            self.avail[b.index()][p.index()] -= 1;
        }
        true
    }

    /// Disconnects `id` from everyone (departure). Returns its former
    /// neighbors. Only the neighbors' side is updated: each drops its edge
    /// to `id` and its counts of `id`'s pieces. The departed peer's own
    /// availability table is freed without being walked — with
    /// whitewashing attackers minting thousands of identities, per-dead-id
    /// storage would otherwise dominate memory. A later
    /// [`Mesh::connect`] of the same id starts it from a zeroed table.
    pub fn remove(&mut self, id: NodeId, peers: &PeerTable) -> Vec<NodeId> {
        let Some(ns) = self.neighbors.get_mut(id.index()).map(std::mem::take) else {
            return Vec::new();
        };
        let have = &peers.get(id).have;
        for &n in &ns {
            let list = &mut self.neighbors[n.index()];
            if let Some(p) = list.iter().position(|&x| x == id) {
                list.swap_remove(p);
            }
            let avail = &mut self.avail[n.index()];
            for p in have.iter_set() {
                avail[p.index()] -= 1;
            }
        }
        self.avail[id.index()] = Vec::new();
        ns
    }

    /// Announces that `owner` completed piece `p`: every current neighbor's
    /// availability count for `p` is incremented (a `Have` broadcast).
    ///
    /// Call *after* setting the bit in `owner`'s bitfield.
    pub fn announce(&mut self, owner: NodeId, p: PieceId) {
        let ns = std::mem::take(&mut self.neighbors[owner.index()]);
        for &n in &ns {
            self.avail[n.index()][p.index()] += 1;
        }
        self.neighbors[owner.index()] = ns;
    }

    /// Availability of piece `p` among `id`'s neighbors.
    pub fn availability(&self, id: NodeId, p: PieceId) -> u16 {
        self.avail[id.index()][p.index()]
    }

    /// Local-Rarest-First selection: among pieces `source` has and
    /// `chooser` is missing and `keep` accepts, pick one minimizing
    /// availability among `chooser`'s neighbors; ties broken uniformly.
    /// The predicate serves newcomer bootstrapping (§II-D1), where the
    /// donor must pick a piece that *both* the requestor and the payee
    /// need.
    pub fn lrf_pick_where(
        &self,
        chooser: NodeId,
        chooser_have: &Bitfield,
        source_have: &Bitfield,
        rng: &mut SimRng,
        mut keep: impl FnMut(PieceId) -> bool,
    ) -> Option<PieceId> {
        let avail = self.avail.get(chooser.index())?;
        if avail.is_empty() {
            // Chooser never connected: fall back to uniform choice.
            let cands: Vec<PieceId> =
                chooser_have.missing_from(source_have).filter(|&p| keep(p)).collect();
            return rng.choose(&cands).copied();
        }
        let mut best: Option<(u16, PieceId)> = None;
        let mut ties = 0u32;
        for p in chooser_have.missing_from(source_have) {
            if !keep(p) {
                continue;
            }
            let a = avail[p.index()];
            match best {
                None => {
                    best = Some((a, p));
                    ties = 1;
                }
                Some((b, _)) if a < b => {
                    best = Some((a, p));
                    ties = 1;
                }
                Some((b, _)) if a == b => {
                    // Reservoir sampling over ties keeps the choice uniform
                    // without materialising the candidate list.
                    ties += 1;
                    if rng.below(ties as usize) == 0 {
                        best = Some((a, p));
                    }
                }
                _ => {}
            }
        }
        best.map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Role;
    use tchain_sim::{ensure, ensure_eq, forall, sized};

    fn setup(pieces: usize) -> (PeerTable, Mesh, SimRng) {
        (PeerTable::new(), Mesh::new(pieces), SimRng::new(1))
    }

    #[test]
    fn connect_disconnect_symmetric() {
        let (mut t, mut m, _) = setup(8);
        let a = t.add(Role::Leecher, 1.0, 0.0, 8, true);
        let b = t.add(Role::Leecher, 1.0, 0.0, 8, true);
        assert!(m.connect(a, b, &t));
        assert!(!m.connect(a, b, &t), "duplicate connect is a no-op");
        assert!(!m.connect(a, a, &t), "self-connect is a no-op");
        assert!(m.are_neighbors(a, b) && m.are_neighbors(b, a));
        assert!(m.disconnect(a, b, &t));
        assert!(!m.disconnect(a, b, &t));
        assert_eq!(m.degree(a), 0);
    }

    #[test]
    fn availability_tracks_connect_announce_disconnect() {
        let (mut t, mut m, _) = setup(8);
        let s = t.add(Role::Seeder, 1.0, 0.0, 8, true);
        let a = t.add(Role::Leecher, 1.0, 0.0, 8, true);
        let b = t.add(Role::Leecher, 1.0, 0.0, 8, true);
        m.connect(a, s, &t);
        assert_eq!(m.availability(a, PieceId(0)), 1, "seeder has everything");
        m.connect(a, b, &t);
        assert_eq!(m.availability(a, PieceId(0)), 1);
        // b completes piece 0.
        t.get_mut(b).have.set(PieceId(0));
        m.announce(b, PieceId(0));
        assert_eq!(m.availability(a, PieceId(0)), 2);
        // s is not b's neighbor, so the announcement does not reach it.
        assert_eq!(m.availability(s, PieceId(0)), 0);
        m.disconnect(a, b, &t);
        assert_eq!(m.availability(a, PieceId(0)), 1);
        m.disconnect(a, s, &t);
        assert_eq!(m.availability(a, PieceId(0)), 0);
    }

    #[test]
    fn remove_detaches_everyone() {
        let (mut t, mut m, _) = setup(4);
        let a = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        let b = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        let c = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        m.connect(a, b, &t);
        m.connect(a, c, &t);
        let former = m.remove(a, &t);
        assert_eq!(former.len(), 2);
        assert_eq!(m.degree(a), 0);
        assert_eq!(m.degree(b), 0);
        assert_eq!(m.degree(c), 0);
    }

    /// The mesh's invariants against `t`: live peers have only live,
    /// symmetric neighbors and counts equal to a recount over those
    /// neighbors' bitfields; a removed peer holds no edge and no table.
    fn check_against_recount(m: &Mesh, t: &PeerTable) -> Result<(), String> {
        for peer in t.iter() {
            let id = peer.id;
            let table = m.avail.get(id.index());
            if !peer.alive() {
                ensure_eq!(m.degree(id), 0, "removed {id} keeps edges");
                ensure!(table.is_none_or(|a| a.capacity() == 0), "removed {id} keeps its table");
                continue;
            }
            let ns = m.neighbors(id);
            for &x in ns {
                ensure!(t.alive(x), "{id} still lists removed {x}");
                let back = m.neighbors(x).iter().filter(|&&y| y == id).count();
                ensure_eq!(back, 1, "edges {x} -> {id}");
            }
            match table.filter(|a| !a.is_empty()) {
                None => ensure_eq!(ns.len(), 0, "{id} has neighbors but no table"),
                Some(a) => {
                    let holders = |p| ns.iter().filter(|&&x| t.get(x).have.has(PieceId(p))).count();
                    let recount: Vec<u16> = (0..m.pieces as u32).map(|p| holders(p) as u16).collect();
                    ensure_eq!(a, &recount, "availability of {id}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn availability_equals_a_recount_under_membership_churn() {
        forall(0x3E5B_A7A1, 256, |rng, size| {
            let pieces = 1 + rng.below(130);
            let n = 2 + rng.below(11);
            let (mut t, mut m) = (PeerTable::new(), Mesh::new(pieces));
            for _ in 0..n {
                let role = if rng.below(4) == 0 { Role::Seeder } else { Role::Leecher };
                let id = t.add(role, 1.0, 0.0, pieces, true);
                for _ in 0..rng.below(pieces + 1) {
                    t.get_mut(id).have.set(PieceId(rng.below(pieces) as u32));
                }
            }
            for _ in 0..sized(rng, size, 1, 200) {
                let (a, b) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
                match rng.below(10) {
                    0..=3 => {
                        if t.alive(a) && t.alive(b) {
                            m.connect(a, b, &t);
                        }
                    }
                    4 | 5 => {
                        m.disconnect(a, b, &t);
                    }
                    6 | 7 => {
                        let p = PieceId(rng.below(pieces) as u32);
                        // A peer with no neighbors has nobody to tell.
                        if t.alive(a) && t.get_mut(a).have.set(p) && m.degree(a) > 0 {
                            m.announce(a, p);
                        }
                    }
                    8 => {
                        if t.alive(a) {
                            m.remove(a, &t);
                            t.get_mut(a).left_time = Some(0.0);
                        }
                    }
                    // Re-admission under the same id.
                    _ => t.get_mut(a).left_time = None,
                }
                check_against_recount(&m, &t)?;
            }
            Ok(())
        });
    }

    #[test]
    fn lrf_prefers_rarest() {
        let (mut t, mut m, mut rng) = setup(4);
        let chooser = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        let s = t.add(Role::Seeder, 1.0, 0.0, 4, true);
        // Three neighbors all have piece 0; only the seeder has piece 3.
        m.connect(chooser, s, &t);
        for _ in 0..3 {
            let n = t.add(Role::Leecher, 1.0, 0.0, 4, true);
            t.get_mut(n).have.set(PieceId(0));
            m.connect(chooser, n, &t);
        }
        // Availability: p0=4, p1..3=1 (seeder only). All are candidates
        // from the seeder; the chooser must avoid the common piece 0.
        for _ in 0..20 {
            let have = t.get(chooser).have.clone();
            let p = m.lrf_pick_where(chooser, &have, &t.get(s).have, &mut rng, |_| true).unwrap();
            assert_ne!(p, PieceId(0));
        }
    }

    #[test]
    fn lrf_ties_are_spread() {
        let (mut t, mut m, mut rng) = setup(16);
        let chooser = t.add(Role::Leecher, 1.0, 0.0, 16, true);
        let s = t.add(Role::Seeder, 1.0, 0.0, 16, true);
        m.connect(chooser, s, &t);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let have = t.get(chooser).have.clone();
            let p = m.lrf_pick_where(chooser, &have, &t.get(s).have, &mut rng, |_| true).unwrap();
            seen.insert(p);
        }
        assert!(seen.len() > 8, "tie-breaking should spread choices, got {}", seen.len());
    }

    #[test]
    fn lrf_where_respects_filter() {
        let (mut t, mut m, mut rng) = setup(8);
        let chooser = t.add(Role::Leecher, 1.0, 0.0, 8, true);
        let s = t.add(Role::Seeder, 1.0, 0.0, 8, true);
        m.connect(chooser, s, &t);
        let have = t.get(chooser).have.clone();
        let p = m
            .lrf_pick_where(chooser, &have, &t.get(s).have, &mut rng, |p| p == PieceId(5))
            .unwrap();
        assert_eq!(p, PieceId(5));
        let none = m.lrf_pick_where(chooser, &have, &t.get(s).have, &mut rng, |_| false);
        assert!(none.is_none());
    }

    #[test]
    fn lrf_none_when_nothing_wanted() {
        let (mut t, mut m, mut rng) = setup(4);
        let chooser = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        let other = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        m.connect(chooser, other, &t);
        let have = t.get(chooser).have.clone();
        assert!(m.lrf_pick_where(chooser, &have, &t.get(other).have, &mut rng, |_| true).is_none());
    }
}
