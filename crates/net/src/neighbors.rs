//! A peer's neighbourhood, laid out flat, and the index derived from it.
//!
//! [`Neighborhood`] owns what a [`crate::PeerRuntime`] knows about its
//! neighbours — one recorded bitfield each, plus whether it came from an
//! actual `Bitfield` message (*known*) or is a placeholder from the
//! tracker list or a `NeighborRequest` — together with `avail[p]`, how
//! many *known* neighbours hold piece `p`: the count rarest-first
//! selection ranks by, kept incrementally as every BitTorrent client
//! keeps it.
//!
//! Every `Have` a peer receives lands here, one neighbour entry per
//! frame and a different one each time, so the layout is the cost:
//! slots live in ascending id order in parallel tables — the ids, one
//! run of `pieces.div_ceil(64)` words per slot in one `Vec<u64>`, and a
//! held count and known flag per slot — with no per-neighbour heap
//! allocation. A lookup is a binary search over the ids; inserting or
//! removing a neighbour moves the slots after it, which is rare next to
//! `Have`s. The neighbours whose recorded bitfield is not full (the only
//! ones that can want a piece) are a filter over the held counts.
//!
//! The tables change only through the four mutators
//! [`Neighborhood::meet`], [`Neighborhood::learn_bitfield`],
//! [`Neighborhood::learn_have`] and [`Neighborhood::forget`]; the fields
//! are private so nothing else can. The index is derived state: it is
//! not checkpointed, and a restored peer starts with an empty
//! neighbourhood.
//!
//! This is the wire runtime's twin of `tchain_proto::Mesh`, which keeps
//! the same per-piece availability counts incrementally for the fluid
//! drivers and bumps them on every `announce`.

use tchain_proto::{Bitfield, PieceId};

/// Slot metadata, parallel to the ids.
#[derive(Debug)]
struct Slot {
    /// Set bits in the slot's words.
    held: u32,
    /// `true` once an actual `Bitfield` message arrived (not a
    /// placeholder from the tracker list or a `NeighborRequest`).
    known: bool,
}

/// What a peer knows about one neighbour: a view into its slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Neighbor<'a> {
    words: &'a [u64],
    known: bool,
}

impl<'a> Neighbor<'a> {
    /// Whether the recorded bitfield came from a `Bitfield` message.
    pub(crate) fn known(self) -> bool {
        self.known
    }

    /// Whether the neighbour holds piece `p`, which must be a piece of
    /// the file.
    pub(crate) fn has(self, p: PieceId) -> bool {
        let i = p.index();
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The pieces `ours` holds that the neighbour is missing, ascending —
    /// what the neighbour would want from us.
    pub(crate) fn missing_from(self, ours: &'a Bitfield) -> impl Iterator<Item = PieceId> + 'a {
        self.words.iter().zip(ours.words()).enumerate().flat_map(|(wi, (&n, &o))| {
            let mut word = !n & o;
            let base = wi as u32 * 64;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    PieceId(base + bit)
                })
            })
        })
    }

    /// Whether the neighbour holds a piece `ours` lacks — whether our
    /// owner is interested in it (§II-A).
    pub(crate) fn offers_to(self, ours: &Bitfield) -> bool {
        self.words.iter().zip(ours.words()).any(|(&n, &o)| n & !o != 0)
    }

    /// Whether `other` holds a piece this neighbour lacks.
    pub(crate) fn wants_from(self, other: Neighbor<'_>) -> bool {
        self.words.iter().zip(other.words).any(|(&n, &o)| !n & o != 0)
    }
}

/// The neighbour table with its availability histogram.
#[derive(Debug)]
pub(crate) struct Neighborhood {
    pieces: usize,
    /// Words per slot: `pieces.div_ceil(64)`.
    stride: usize,
    /// Neighbour ids, strictly ascending; slot `i` is `ids[i]`.
    ids: Vec<u32>,
    /// `stride` words per slot, LSB-first, padding bits zero.
    words: Vec<u64>,
    slots: Vec<Slot>,
    /// Per piece, the number of known neighbours holding it. Empty until
    /// the first `Bitfield` arrives, so building a peer allocates nothing.
    avail: Vec<u32>,
}

impl Neighborhood {
    /// An empty neighbourhood of a swarm sharing `pieces` pieces.
    pub(crate) fn new(pieces: usize) -> Self {
        Neighborhood {
            pieces,
            stride: pieces.div_ceil(64),
            ids: Vec::new(),
            words: Vec::new(),
            slots: Vec::new(),
            avail: Vec::new(),
        }
    }

    fn slot_words(&self, slot: usize) -> &[u64] {
        &self.words[slot * self.stride..(slot + 1) * self.stride]
    }

    /// Inserts an empty placeholder slot for `id` at `slot`, the place
    /// `binary_search` reported, so the tables stay in id order.
    fn insert_slot(&mut self, slot: usize, id: u32) {
        self.ids.insert(slot, id);
        let at = slot * self.stride;
        self.words.splice(at..at, std::iter::repeat_n(0, self.stride));
        self.slots.insert(slot, Slot { held: 0, known: false });
    }

    /// Adds a known slot's bits to `avail`, or takes them out.
    fn count(&mut self, slot: usize, add: bool) {
        let base = slot * self.stride;
        for wi in 0..self.stride {
            let mut word = self.words[base + wi];
            while word != 0 {
                let p = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if add {
                    self.avail[p] += 1;
                } else {
                    self.avail[p] -= 1;
                }
            }
        }
    }

    /// Records `id` as a placeholder (nothing held, not known) unless it
    /// is a neighbour already.
    pub(crate) fn meet(&mut self, id: u32) {
        if let Err(slot) = self.ids.binary_search(&id) {
            self.insert_slot(slot, id);
        }
    }

    /// Replaces whatever was recorded for `id` with `bf` and marks it
    /// known. Returns `true` when `id` was a stranger until now.
    ///
    /// # Panics
    ///
    /// Panics unless `bf` covers exactly this swarm's pieces: a longer
    /// bitfield with the same word count would set bits past the file
    /// in the slot and index `avail` out of range.
    pub(crate) fn learn_bitfield(&mut self, id: u32, bf: &Bitfield) -> bool {
        assert_eq!(bf.len(), self.pieces, "bitfield of another swarm's size");
        if self.avail.is_empty() {
            self.avail = vec![0; self.pieces];
        }
        let (slot, stranger) = match self.ids.binary_search(&id) {
            Ok(slot) => (slot, false),
            Err(slot) => {
                self.insert_slot(slot, id);
                (slot, true)
            }
        };
        // Bits a placeholder collected from early `Have`s were never
        // counted.
        if self.slots[slot].known {
            self.count(slot, false);
        }
        let at = slot * self.stride;
        self.words[at..at + self.stride].copy_from_slice(bf.words());
        self.slots[slot] = Slot { held: bf.count() as u32, known: true };
        self.count(slot, true);
        stranger
    }

    /// Records that neighbour `id` announced `piece`; a stranger's
    /// announcement is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `piece` is not a piece of the file.
    pub(crate) fn learn_have(&mut self, id: u32, piece: PieceId) {
        let Ok(slot) = self.ids.binary_search(&id) else { return };
        let i = piece.index();
        assert!(i < self.pieces, "piece {i} out of range {}", self.pieces);
        let word = &mut self.words[slot * self.stride + i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask != 0 {
            return;
        }
        *word |= mask;
        let s = &mut self.slots[slot];
        s.held += 1;
        if s.known {
            self.avail[i] += 1;
        }
    }

    /// Drops neighbour `id` and its contribution to `avail`.
    pub(crate) fn forget(&mut self, id: u32) {
        let Ok(slot) = self.ids.binary_search(&id) else { return };
        if self.slots[slot].known {
            self.count(slot, false);
        }
        self.ids.remove(slot);
        self.words.drain(slot * self.stride..(slot + 1) * self.stride);
        self.slots.remove(slot);
    }

    fn view(&self, slot: usize) -> Neighbor<'_> {
        Neighbor { words: self.slot_words(slot), known: self.slots[slot].known }
    }

    /// What is recorded about `id`, if it is a neighbour.
    pub(crate) fn get(&self, id: u32) -> Option<Neighbor<'_>> {
        self.ids.binary_search(&id).ok().map(|slot| self.view(slot))
    }

    /// Every neighbour id, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    /// The neighbours whose recorded bitfield is not full, ascending by
    /// id — the order a scan of the whole table would meet them in. A
    /// full neighbour wants nothing, so callers look at no other.
    pub(crate) fn incomplete(&self) -> impl Iterator<Item = (u32, Neighbor<'_>)> + '_ {
        (0..self.ids.len())
            .filter(|&slot| (self.slots[slot].held as usize) < self.pieces)
            .map(|slot| (self.ids[slot], self.view(slot)))
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
impl Neighbor<'_> {
    /// The recorded bitfield, rebuilt through the wire decoder, which
    /// also refuses a set padding bit.
    pub(crate) fn to_bitfield(self, pieces: usize) -> Bitfield {
        let mut bytes: Vec<u8> = self.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(pieces.div_ceil(8));
        Bitfield::from_packed_bytes(pieces, &bytes).expect("a slot holds a canonical bitfield")
    }
}

#[cfg(test)]
impl Neighborhood {
    /// Every neighbour, ascending by id: what the full scans walked.
    pub(crate) fn all(&self) -> impl Iterator<Item = (u32, Neighbor<'_>)> + '_ {
        (0..self.ids.len()).map(|slot| (self.ids[slot], self.view(slot)))
    }

    /// Number of neighbours.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Panics unless the tables line up (ids strictly ascending, one
    /// run of words and one slot per id, no padding bit set, each held
    /// count the popcount of its words) and `avail` equals a
    /// from-scratch recount over the known slots.
    pub(crate) fn assert_consistent(&self) {
        assert!(self.ids.windows(2).all(|w| w[0] < w[1]), "ids out of order: {:?}", self.ids);
        assert_eq!(self.words.len(), self.ids.len() * self.stride, "word table misaligned");
        assert_eq!(self.slots.len(), self.ids.len(), "slot table misaligned");
        let mut avail = vec![0u32; if self.avail.is_empty() { 0 } else { self.pieces }];
        for (slot, s) in self.slots.iter().enumerate() {
            let words = self.slot_words(slot);
            let held: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(s.held, held, "held count of neighbour {} drifted", self.ids[slot]);
            let n = self.view(slot);
            let in_file = (0..self.pieces as u32).filter(|&p| n.has(PieceId(p))).count();
            assert_eq!(in_file as u32, held, "neighbour {} has a padding bit set", self.ids[slot]);
            if s.known {
                for p in (0..self.pieces).filter(|&p| n.has(PieceId(p as u32))) {
                    avail[p] += 1;
                }
            }
        }
        assert_eq!(self.avail, avail, "availability histogram drifted from the table");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::{ensure_eq, forall, SimRng};

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
        assert!(n.learn_bitfield(4, &bits(8, &[0, 1, 2])));
        let single = n.avail.clone();
        assert!(!n.learn_bitfield(4, &bits(8, &[0, 1, 2])), "a replay is not a stranger");
        assert_eq!(n.avail, single, "a replayed bitfield leaves avail as a single one would");
        // Fewer bits, then more: the old contribution is subtracted first.
        n.learn_bitfield(4, &bits(8, &[1]));
        assert_eq!(n.avail, [0, 1, 0, 0, 0, 0, 0, 0]);
        n.learn_bitfield(4, &bits(8, &[1, 5, 6, 7]));
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
        assert!(!n.learn_bitfield(7, &bits(4, &[2])), "a placeholder is not a stranger");
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
        n.learn_bitfield(2, &bits(3, &[0, 1]));
        n.learn_bitfield(3, &Bitfield::full(3));
        let walk = |n: &Neighborhood| n.incomplete().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(walk(&n), [1, 2]);
        n.learn_have(2, PieceId(2));
        assert_eq!(walk(&n), [1], "a bitfield filled by Haves drops out");
        for p in 0..3 {
            n.learn_have(1, PieceId(p));
        }
        assert_eq!(walk(&n), [0u32; 0], "so does a placeholder filled by Haves");
        // A replay with fewer bits puts the neighbour back.
        n.learn_bitfield(3, &bits(3, &[0]));
        assert_eq!(walk(&n), [3]);
        n.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "bitfield of another swarm's size")]
    fn a_bitfield_of_the_wrong_length_is_refused() {
        // 12 and 8 pieces share one word: without the check the extra
        // bits would land in the slot's padding.
        let mut n = Neighborhood::new(8);
        n.learn_bitfield(1, &Bitfield::full(12));
    }

    /// The `BTreeMap`-and-`BTreeSet` neighbourhood the flat table
    /// replaced, kept verbatim as the reference model.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};
        use tchain_proto::{Bitfield, PieceId};

        #[derive(Debug)]
        pub(super) struct Neighbor {
            pub(super) have: Bitfield,
            pub(super) known: bool,
        }

        #[derive(Debug)]
        pub(super) struct Neighborhood {
            pieces: usize,
            pub(super) map: BTreeMap<u32, Neighbor>,
            pub(super) avail: Vec<u32>,
            pub(super) incomplete: BTreeSet<u32>,
        }

        impl Neighborhood {
            pub(super) fn new(pieces: usize) -> Self {
                Neighborhood { pieces, map: BTreeMap::new(), avail: Vec::new(), incomplete: BTreeSet::new() }
            }

            pub(super) fn meet(&mut self, id: u32) {
                self.map.entry(id).or_insert_with(|| {
                    self.incomplete.insert(id);
                    Neighbor { have: Bitfield::new(self.pieces), known: false }
                });
            }

            pub(super) fn learn_bitfield(&mut self, id: u32, bf: Bitfield) -> bool {
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

            pub(super) fn learn_have(&mut self, id: u32, piece: PieceId) {
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

            pub(super) fn forget(&mut self, id: u32) {
                let Some(n) = self.map.remove(&id) else { return };
                if n.known {
                    for p in n.have.iter_set() {
                        self.avail[p.index()] -= 1;
                    }
                }
                self.incomplete.remove(&id);
            }

            pub(super) fn rarest_of(&self, candidates: impl Iterator<Item = u32>) -> Option<u32> {
                candidates
                    .map(|p| (self.avail.get(p as usize).copied().unwrap_or(0), p))
                    .min()
                    .map(|(_, p)| p)
            }
        }
    }

    /// A bitfield over `pieces` with each piece held at `density`.
    fn drawn(rng: &mut SimRng, pieces: usize, density: f64) -> Bitfield {
        let mut bf = Bitfield::new(pieces);
        for p in (0..pieces as u32).filter(|_| rng.chance(density)) {
            bf.set(PieceId(p));
        }
        bf
    }

    /// Everything the runtime reads, compared after one operation.
    fn agree(flat: &Neighborhood, model: &reference::Neighborhood, rng: &mut SimRng) -> Result<(), String> {
        let pieces = flat.pieces;
        ensure_eq!(flat.ids().collect::<Vec<_>>(), model.map.keys().copied().collect::<Vec<_>>());
        ensure_eq!(
            flat.incomplete().map(|(id, _)| id).collect::<Vec<_>>(),
            model.incomplete.iter().copied().collect::<Vec<_>>()
        );
        for (&id, m) in &model.map {
            let n = flat.get(id).ok_or(format!("neighbour {id} missing"))?;
            ensure_eq!(n.known(), m.known, "known of {id}");
            for p in (0..pieces as u32).map(PieceId) {
                ensure_eq!(n.has(p), m.have.has(p), "neighbour {id} piece {p}");
            }
        }
        ensure_eq!(flat.avail, model.avail);
        for _ in 0..3 {
            let cands: Vec<u32> = (0..pieces as u32).filter(|_| rng.chance(0.3)).collect();
            ensure_eq!(flat.rarest_of(cands.iter().copied()), model.rarest_of(cands.iter().copied()));
        }
        Ok(())
    }

    #[test]
    fn flat_table_matches_the_map_model_op_for_op() {
        forall(0x0F1A_7AB1, 128, |rng, size| {
            let pieces = [1, 8, 63, 64, 65, 130][rng.below(6)];
            let pool = 2 + size as u32 / 3;
            let mut flat = Neighborhood::new(pieces);
            let mut model = reference::Neighborhood::new(pieces);
            for step in 0..4 * size {
                let id = rng.below(pool as usize) as u32;
                match rng.below(10) {
                    0 | 1 => {
                        flat.meet(id);
                        model.meet(id);
                    }
                    2 | 3 => {
                        // Fresh bits, or a replay of the recorded ones
                        // with some dropped or some added.
                        let bf = match model.map.get(&id) {
                            Some(m) if rng.chance(0.5) => {
                                let mut bf = m.have.clone();
                                let extra = drawn(rng, pieces, 0.3);
                                for p in (0..pieces as u32).map(PieceId) {
                                    if rng.chance(0.5) {
                                        bf.unset(p);
                                    } else if extra.has(p) {
                                        bf.set(p);
                                    }
                                }
                                bf
                            }
                            _ => {
                                let density = [0.0, 0.5, 0.9, 1.0][rng.below(4)];
                                drawn(rng, pieces, density)
                            }
                        };
                        let stranger = flat.learn_bitfield(id, &bf);
                        ensure_eq!(stranger, model.learn_bitfield(id, bf), "step {step}");
                    }
                    4..=7 => {
                        // Strangers, placeholders and duplicates all
                        // come up: the pool is small and pieces repeat.
                        let piece = PieceId(rng.below(pieces) as u32);
                        flat.learn_have(id, piece);
                        model.learn_have(id, piece);
                    }
                    _ => {
                        // Ids past the pool are never neighbours.
                        let id = if rng.chance(0.2) { pool + id } else { id };
                        flat.forget(id);
                        model.forget(id);
                    }
                }
                flat.assert_consistent();
                agree(&flat, &model, rng).map_err(|e| format!("step {step}, {pieces} pieces: {e}"))?;
            }
            Ok(())
        });
    }
}
