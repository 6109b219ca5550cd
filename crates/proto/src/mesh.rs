//! The neighbor mesh and Local-Rarest-First piece selection.
//!
//! Each peer keeps per-piece *availability counts* over its current
//! neighbors, updated incrementally on connect/disconnect and on every
//! `Have` announcement. LRF picks the piece with the fewest copies among
//! the chooser's neighbors (§II-A), breaking ties uniformly at random.

use crate::peer::PeerTable;
use crate::piece::{BitIter, Bitfield, PieceId};
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
        fold(&mut self.avail[a.index()], &peers.get(b).have, |n, s| *n += s);
        fold(&mut self.avail[b.index()], &peers.get(a).have, |n, s| *n += s);
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
        fold(&mut self.avail[a.index()], &peers.get(b).have, |n, s| *n -= s);
        fold(&mut self.avail[b.index()], &peers.get(a).have, |n, s| *n -= s);
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
            fold(&mut self.avail[n.index()], have, |n, s| *n -= s);
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

    /// Local-Rarest-First selection: among pieces below `bound` that
    /// `source` has, `chooser` is missing and no `exclude` set holds, pick
    /// one minimizing availability among `chooser`'s neighbors; ties
    /// broken uniformly. `bound` is the streaming window's edge (§VI;
    /// `u32::MAX` for none). The exclusions are the chooser's pieces
    /// already in flight and, for newcomer bootstrapping (§II-D1), the
    /// payee's pieces, since the donor must pick a piece that *both* the
    /// requestor and the payee need.
    ///
    /// Candidates are formed a word (64 pieces) at a time and visited in
    /// ascending order, so the tie-break draws follow the piece order.
    pub fn lrf_pick(
        &self,
        chooser: NodeId,
        chooser_have: &Bitfield,
        source_have: &Bitfield,
        rng: &mut SimRng,
        bound: u32,
        exclude: &[&Bitfield],
    ) -> Option<PieceId> {
        let avail = self.avail.get(chooser.index())?;
        let candidates = candidates(chooser_have, source_have, bound, exclude);
        if avail.is_empty() {
            // Chooser never connected: fall back to uniform choice.
            let cands: Vec<PieceId> = candidates.collect();
            return rng.choose(&cands).copied();
        }
        let mut best: Option<(u16, PieceId)> = None;
        let mut ties = 0u32;
        for p in candidates {
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

/// `SPREAD[b][k]` is bit `k` of `b`: one bitfield byte as eight
/// availability lanes.
const SPREAD: [[u16; 8]; 256] = {
    let mut t = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            t[b][k] = (b >> k & 1) as u16;
            k += 1;
        }
        b += 1;
    }
    t
};

/// Applies `lane` to each count in `avail` and the matching bit of `have`
/// (0 or 1), eight pieces per bitfield byte; zero bytes are skipped. With
/// `*n -= s`, a debug build still panics on an underflowing count.
fn fold(avail: &mut [u16], have: &Bitfield, lane: impl Fn(&mut u16, u16)) {
    for (wi, &word) in have.words().iter().enumerate() {
        if word == 0 {
            continue;
        }
        for (bi, byte) in word.to_le_bytes().into_iter().enumerate() {
            if byte == 0 {
                continue;
            }
            let spread = &SPREAD[byte as usize];
            let base = (wi * 8 + bi) * 8;
            match avail.get_mut(base..base + 8) {
                Some(lanes) => {
                    for (n, &s) in lanes.iter_mut().zip(spread) {
                        lane(n, s);
                    }
                }
                // The file's last, partial byte: padding bits are zero.
                None => {
                    for (n, &s) in avail[base..].iter_mut().zip(spread) {
                        lane(n, s);
                    }
                }
            }
        }
    }
}

/// The LRF candidates in ascending order, formed a word at a time as
/// `!chooser & source & !exclude… & below(bound)`; words at or past
/// `bound` are never read.
fn candidates<'a>(
    chooser: &'a Bitfield,
    source: &'a Bitfield,
    bound: u32,
    exclude: &'a [&Bitfield],
) -> impl Iterator<Item = PieceId> + 'a {
    debug_assert_eq!(chooser.len(), source.len());
    debug_assert!(exclude.iter().all(|e| e.len() == chooser.len()));
    let bound = bound as usize;
    let words = chooser.words().len().min(bound.div_ceil(64));
    (0..words).flat_map(move |wi| {
        let mut word = !chooser.words()[wi] & source.words()[wi];
        for e in exclude {
            word &= !e.words()[wi];
        }
        let base = wi * 64;
        if bound - base < 64 {
            word &= (1u64 << (bound - base)) - 1;
        }
        BitIter { word, base: base as u32 }
    })
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

    /// Random connects, disconnects, announces, removals and
    /// re-admissions over a file of `pieces(rng)` pieces, checked against
    /// a recount after every step.
    fn churn_against_recount(seed: u64, cases: u32, pieces: impl Fn(&mut SimRng) -> usize) {
        forall(seed, cases, |rng, size| {
            let pieces = pieces(rng);
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
    fn availability_equals_a_recount_under_membership_churn() {
        churn_against_recount(0x3E5B_A7A1, 256, |rng| 1 + rng.below(130));
    }

    /// The paper's 24 MiB file is 384 pieces; one more leaves a partial
    /// last byte and word.
    #[test]
    fn availability_equals_a_recount_under_churn_on_385_pieces() {
        churn_against_recount(0x3E5B_A7A2, 64, |_| 385);
    }

    /// File lengths at and around the byte and word edges.
    const EDGE_LENGTHS: [usize; 9] = [1, 7, 9, 63, 64, 65, 127, 384, 385];

    fn random_bitfield(rng: &mut SimRng, len: usize) -> Bitfield {
        let mut bf = Bitfield::new(len);
        // Densities from empty to full, so zero bytes and full words occur.
        let density = rng.below(5);
        for p in 0..len {
            if rng.below(4) < density {
                bf.set(PieceId(p as u32));
            }
        }
        bf
    }

    #[test]
    fn fold_equals_a_per_piece_recount() {
        forall(0xF01D_0001, 256, |rng, _| {
            let len = match rng.below(2) {
                0 => EDGE_LENGTHS[rng.below(EDGE_LENGTHS.len())],
                _ => 1 + rng.below(500),
            };
            let start: Vec<u16> = (0..len).map(|_| rng.below(1000) as u16).collect();
            let have = random_bitfield(rng, len);
            let mut folded = start.clone();
            fold(&mut folded, &have, |n, s| *n += s);
            let mut recount = start.clone();
            for p in have.iter_set() {
                recount[p.index()] += 1;
            }
            ensure_eq!(folded, recount, "fold in at len {len}");
            fold(&mut folded, &have, |n, s| *n -= s);
            ensure_eq!(folded, start, "fold in then out at len {len}");
            Ok(())
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflow")]
    fn fold_out_underflow_panics_in_debug() {
        let mut counts = vec![1u16, 0, 1];
        let mut have = Bitfield::new(3);
        have.set(PieceId(1));
        fold(&mut counts, &have, |n, s| *n -= s);
    }

    /// The per-piece LRF scan the word kernel replaced: every piece
    /// `source` has and `chooser` lacks is offered to `keep`, in order.
    fn reference_pick(
        m: &Mesh,
        chooser: NodeId,
        chooser_have: &Bitfield,
        source_have: &Bitfield,
        rng: &mut SimRng,
        mut keep: impl FnMut(PieceId) -> bool,
    ) -> Option<PieceId> {
        let avail = m.avail.get(chooser.index())?;
        if avail.is_empty() {
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

    #[test]
    fn lrf_pick_matches_the_per_piece_scan() {
        forall(0x1F2F_0001, 512, |rng, _| {
            let pieces = match rng.below(2) {
                0 => EDGE_LENGTHS[rng.below(EDGE_LENGTHS.len())],
                _ => 1 + rng.below(450),
            };
            let n = 2 + rng.below(7);
            let (mut t, mut m) = (PeerTable::new(), Mesh::new(pieces));
            for _ in 0..n {
                let id = t.add(Role::Leecher, 1.0, 0.0, pieces, true);
                t.get_mut(id).have = random_bitfield(rng, pieces);
            }
            // Peer 0 may stay unconnected: the uniform fallback.
            let first = rng.below(2);
            for _ in 0..rng.below(3 * n) {
                let (a, b) = (first + rng.below(n - first), first + rng.below(n - first));
                m.connect(NodeId(a as u32), NodeId(b as u32), &t);
            }
            for _ in 0..8 {
                // Peer n has no table at all.
                let chooser = NodeId(rng.below(n + 1) as u32);
                let source = NodeId(rng.below(n) as u32);
                let chooser_have = if chooser.index() < n {
                    t.get(chooser).have.clone()
                } else {
                    random_bitfield(rng, pieces)
                };
                let bound = match rng.below(4) {
                    0 => 0,
                    1 => rng.below(pieces) as u32,
                    2 => (pieces + rng.below(70)) as u32,
                    _ => u32::MAX,
                };
                let exclude: Vec<Bitfield> =
                    (0..rng.below(3)).map(|_| random_bitfield(rng, pieces)).collect();
                let refs: Vec<&Bitfield> = exclude.iter().collect();
                let source_have = &t.get(source).have;
                let mut r_pick = rng.fork(1);
                let mut r_ref = r_pick.clone();
                let want = reference_pick(&m, chooser, &chooser_have, source_have, &mut r_ref, |p| {
                    p.0 < bound && !exclude.iter().any(|e| e.has(p))
                });
                let got =
                    m.lrf_pick(chooser, &chooser_have, source_have, &mut r_pick, bound, &refs);
                ensure_eq!(got, want, "{pieces} pieces, chooser {chooser}, bound {bound}");
                ensure_eq!(r_pick.u64(), r_ref.u64(), "rng after the pick ({pieces} pieces)");
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
            let p = m.lrf_pick(chooser, &have, &t.get(s).have, &mut rng, u32::MAX, &[]).unwrap();
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
            let p = m.lrf_pick(chooser, &have, &t.get(s).have, &mut rng, u32::MAX, &[]).unwrap();
            seen.insert(p);
        }
        assert!(seen.len() > 8, "tie-breaking should spread choices, got {}", seen.len());
    }

    #[test]
    fn lrf_respects_exclusions_and_bound() {
        let (mut t, mut m, mut rng) = setup(8);
        let chooser = t.add(Role::Leecher, 1.0, 0.0, 8, true);
        let s = t.add(Role::Seeder, 1.0, 0.0, 8, true);
        m.connect(chooser, s, &t);
        let have = t.get(chooser).have.clone();
        let mut all_but_5 = Bitfield::full(8);
        all_but_5.unset(PieceId(5));
        let p = m.lrf_pick(chooser, &have, &t.get(s).have, &mut rng, u32::MAX, &[&all_but_5]);
        assert_eq!(p, Some(PieceId(5)));
        let everything = Bitfield::full(8);
        let none = m.lrf_pick(chooser, &have, &t.get(s).have, &mut rng, u32::MAX, &[&everything]);
        assert!(none.is_none());
        let p = m.lrf_pick(chooser, &have, &t.get(s).have, &mut rng, 1, &[]);
        assert_eq!(p, Some(PieceId(0)), "a bound of 1 leaves piece 0 only");
        assert!(m.lrf_pick(chooser, &have, &t.get(s).have, &mut rng, 0, &[]).is_none());
    }

    #[test]
    fn lrf_none_when_nothing_wanted() {
        let (mut t, mut m, mut rng) = setup(4);
        let chooser = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        let other = t.add(Role::Leecher, 1.0, 0.0, 4, true);
        m.connect(chooser, other, &t);
        let have = t.get(chooser).have.clone();
        assert!(m.lrf_pick(chooser, &have, &t.get(other).have, &mut rng, u32::MAX, &[]).is_none());
    }
}
