//! A peer's neighbourhood and the two indices derived from it.
//!
//! [`Neighborhood`] owns what a [`crate::PeerRuntime`] knows about its
//! neighbours — one recorded [`Bitfield`] each, plus whether it came from
//! an actual `Bitfield` message (*known*) or is a placeholder from the
//! tracker list or a `NeighborRequest` — together with the two indices
//! every BitTorrent client keeps over that map:
//!
//! * `avail[p]` — how many *known* neighbours hold piece `p`, the count
//!   rarest-first selection ranks by;
//! * `incomplete` — the neighbours, known or placeholder, whose recorded
//!   bitfield is not full: the only ones that can want a piece, and so
//!   the only ones a donor round or a payee designation has to look at.
//!
//! Both are functions of the map and change only where the map changes,
//! which is through the four mutators [`Neighborhood::meet`],
//! [`Neighborhood::learn_bitfield`], [`Neighborhood::learn_have`] and
//! [`Neighborhood::forget`]; the fields are private so nothing else can.
//! The index is derived state: it is not checkpointed, and a restored
//! peer starts with an empty neighbourhood.
//!
//! This is the wire runtime's twin of `tchain_proto::Mesh`, which keeps
//! the same per-piece availability counts incrementally for the fluid
//! drivers and bumps them on every `announce`.

use std::collections::{BTreeMap, BTreeSet};
use tchain_proto::{Bitfield, PieceId};

/// What a peer knows about one neighbour.
#[derive(Debug)]
pub(crate) struct Neighbor {
    have: Bitfield,
    /// `true` once an actual `Bitfield` message arrived (not a
    /// placeholder from the tracker list or a `NeighborRequest`).
    known: bool,
}

impl Neighbor {
    /// The neighbour's recorded bitfield.
    pub(crate) fn have(&self) -> &Bitfield {
        &self.have
    }

    /// Whether the recorded bitfield came from a `Bitfield` message.
    pub(crate) fn known(&self) -> bool {
        self.known
    }
}

/// The neighbour map with its availability histogram and interest set.
#[derive(Debug)]
pub(crate) struct Neighborhood {
    pieces: usize,
    map: BTreeMap<u32, Neighbor>,
    /// Per piece, the number of known neighbours holding it. Empty until
    /// the first `Bitfield` arrives, so building a peer allocates nothing.
    avail: Vec<u32>,
    /// Neighbours whose recorded bitfield is not full.
    incomplete: BTreeSet<u32>,
}

impl Neighborhood {
    /// An empty neighbourhood of a swarm sharing `pieces` pieces.
    pub(crate) fn new(pieces: usize) -> Self {
        Neighborhood { pieces, map: BTreeMap::new(), avail: Vec::new(), incomplete: BTreeSet::new() }
    }

    /// Records `id` as a placeholder (nothing held, not known) unless it
    /// is a neighbour already.
    pub(crate) fn meet(&mut self, id: u32) {
        self.map.entry(id).or_insert_with(|| {
            self.incomplete.insert(id);
            Neighbor { have: Bitfield::new(self.pieces), known: false }
        });
    }

    /// Replaces whatever was recorded for `id` with `bf` and marks it
    /// known. Returns `true` when `id` was a stranger until now.
    pub(crate) fn learn_bitfield(&mut self, id: u32, bf: Bitfield) -> bool {
        debug_assert_eq!(bf.len(), self.pieces);
        if self.avail.is_empty() {
            self.avail = vec![0; self.pieces];
        }
        for p in bf.iter_set() {
            self.avail[p.index()] += 1;
        }
        if bf.is_complete() {
            self.incomplete.remove(&id);
        } else {
            self.incomplete.insert(id);
        }
        match self.map.insert(id, Neighbor { have: bf, known: true }) {
            Some(old) => {
                // Bits a placeholder collected from early `Have`s were
                // never counted.
                if old.known {
                    for p in old.have.iter_set() {
                        self.avail[p.index()] -= 1;
                    }
                }
                false
            }
            None => true,
        }
    }

    /// Records that neighbour `id` announced `piece`; a stranger's
    /// announcement is ignored.
    pub(crate) fn learn_have(&mut self, id: u32, piece: PieceId) {
        let Some(n) = self.map.get_mut(&id) else { return };
        if !n.have.set(piece) {
            return;
        }
        if n.known {
            self.avail[piece.index()] += 1;
        }
        if n.have.is_complete() {
            self.incomplete.remove(&id);
        }
    }

    /// Drops neighbour `id` and its contribution to both indices.
    pub(crate) fn forget(&mut self, id: u32) {
        let Some(n) = self.map.remove(&id) else { return };
        if n.known {
            for p in n.have.iter_set() {
                self.avail[p.index()] -= 1;
            }
        }
        self.incomplete.remove(&id);
    }

    /// What is recorded about `id`, if it is a neighbour.
    pub(crate) fn get(&self, id: u32) -> Option<&Neighbor> {
        self.map.get(&id)
    }

    /// Every neighbour id, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.map.keys().copied()
    }

    /// The neighbours whose recorded bitfield is not full, ascending by
    /// id — the order a scan of the whole map would meet them in.
    pub(crate) fn incomplete(&self) -> impl Iterator<Item = (u32, &Neighbor)> + '_ {
        self.incomplete.iter().map(|&id| (id, &self.map[&id]))
    }

    /// The rarest of `candidates` by availability across known
    /// neighbours, ties to the lowest index. Before the first `Bitfield`
    /// sizes the histogram every piece counts as held by nobody.
    pub(crate) fn rarest_of(&self, candidates: impl Iterator<Item = u32>) -> Option<u32> {
        candidates
            .map(|p| (self.avail.get(p as usize).copied().unwrap_or(0), p))
            .min()
            .map(|(_, p)| p)
    }
}

#[cfg(test)]
impl Neighborhood {
    /// Every neighbour, ascending by id: what the full scans walked.
    pub(crate) fn all(&self) -> impl Iterator<Item = (u32, &Neighbor)> + '_ {
        self.map.iter().map(|(&id, n)| (id, n))
    }

    /// Number of neighbours.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Panics unless `avail` and `incomplete` equal a from-scratch
    /// recomputation from the neighbour map.
    pub(crate) fn assert_consistent(&self) {
        let mut avail = vec![0u32; if self.avail.is_empty() { 0 } else { self.pieces }];
        for n in self.map.values().filter(|n| n.known) {
            for p in n.have.iter_set() {
                avail[p.index()] += 1;
            }
        }
        assert_eq!(self.avail, avail, "availability histogram drifted from the map");
        let incomplete: BTreeSet<u32> =
            self.map.iter().filter(|(_, n)| !n.have.is_complete()).map(|(&id, _)| id).collect();
        assert_eq!(self.incomplete, incomplete, "interest set drifted from the map");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pieces: usize, held: &[u32]) -> Bitfield {
        let mut bf = Bitfield::new(pieces);
        for &p in held {
            bf.set(PieceId(p));
        }
        bf
    }

    #[test]
    fn building_allocates_no_index() {
        let mut n = Neighborhood::new(16);
        assert!(n.avail.is_empty() && n.avail.capacity() == 0);
        n.meet(3);
        n.learn_have(3, PieceId(1));
        assert!(n.avail.is_empty(), "placeholders never size the histogram");
        n.assert_consistent();
        assert_eq!(n.rarest_of([5, 2, 9].into_iter()), Some(2), "all-zero ties go to the lowest index");
    }

    #[test]
    fn replayed_bitfield_counts_once_and_forget_never_underflows() {
        let mut n = Neighborhood::new(8);
        assert!(n.learn_bitfield(4, bits(8, &[0, 1, 2])));
        let single = n.avail.clone();
        assert!(!n.learn_bitfield(4, bits(8, &[0, 1, 2])), "a replay is not a stranger");
        assert_eq!(n.avail, single, "a replayed bitfield leaves avail as a single one would");
        // Fewer bits, then more: the old contribution is subtracted first.
        n.learn_bitfield(4, bits(8, &[1]));
        assert_eq!(n.avail, [0, 1, 0, 0, 0, 0, 0, 0]);
        n.learn_bitfield(4, bits(8, &[1, 5, 6, 7]));
        assert_eq!(n.avail, [0, 1, 0, 0, 0, 1, 1, 1]);
        n.assert_consistent();
        n.forget(4);
        assert_eq!(n.avail, [0; 8]);
        n.forget(4);
        n.forget(99);
        n.assert_consistent();
        assert_eq!(n.len(), 0);
    }

    #[test]
    fn placeholder_haves_are_discarded_by_the_bitfield() {
        let mut n = Neighborhood::new(4);
        n.meet(7);
        n.learn_have(7, PieceId(0));
        n.learn_have(7, PieceId(3));
        assert!(n.avail.is_empty());
        assert!(!n.learn_bitfield(7, bits(4, &[2])), "a placeholder is not a stranger");
        assert_eq!(n.avail, [0, 0, 1, 0], "only the announced bitfield counts");
        n.learn_have(7, PieceId(2));
        assert_eq!(n.avail, [0, 0, 1, 0], "a duplicate Have counts nothing");
        n.learn_have(7, PieceId(0));
        assert_eq!(n.avail, [1, 0, 1, 0]);
        n.assert_consistent();
    }

    #[test]
    fn filling_up_leaves_the_interest_set() {
        let mut n = Neighborhood::new(3);
        n.meet(1);
        n.learn_bitfield(2, bits(3, &[0, 1]));
        n.learn_bitfield(3, Bitfield::full(3));
        let walk = |n: &Neighborhood| n.incomplete().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(walk(&n), [1, 2]);
        n.learn_have(2, PieceId(2));
        assert_eq!(walk(&n), [1], "a bitfield filled by Haves drops out");
        for p in 0..3 {
            n.learn_have(1, PieceId(p));
        }
        assert_eq!(walk(&n), [0u32; 0], "so does a placeholder filled by Haves");
        // A replay with fewer bits puts the neighbour back.
        n.learn_bitfield(3, bits(3, &[0]));
        assert_eq!(walk(&n), [3]);
        n.assert_consistent();
    }
}
