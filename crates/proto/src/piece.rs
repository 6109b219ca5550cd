//! Files, pieces and bitfields.
//!
//! A swarm shares one file `F` divided into fixed-size pieces (§II-A).
//! BitTorrent and PropShare subdivide 256 KB pieces into 16 KB blocks;
//! T-Chain and FairTorrent exchange whole 64 KB pieces (§IV-A). The
//! [`Bitfield`] tracks which pieces a peer has *completed* (downloaded and,
//! for T-Chain, decrypted) — the set `F_A` of Table I.

use tchain_sim::{kib, mib};

/// Index of a piece within the shared file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PieceId(pub u32);

impl PieceId {
    /// The piece index as a dense `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PieceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Static description of the file being shared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSpec {
    /// Number of pieces.
    pub pieces: usize,
    /// Piece size in bytes.
    pub piece_size: f64,
    /// Block size in bytes (the unit of transfer for BitTorrent/PropShare).
    pub block_size: f64,
}

impl FileSpec {
    /// The paper's default BitTorrent/PropShare configuration: 256 KB
    /// pieces of 16 KB blocks.
    pub fn bittorrent(file_mib: f64) -> Self {
        let piece = kib(256.0);
        FileSpec {
            pieces: (mib(file_mib) / piece).ceil() as usize,
            piece_size: piece,
            block_size: kib(16.0),
        }
    }

    /// The paper's T-Chain/FairTorrent configuration: 64 KB pieces without
    /// further subdivision (§IV-A).
    pub fn tchain(file_mib: f64) -> Self {
        let piece = kib(64.0);
        FileSpec { pieces: (mib(file_mib) / piece).ceil() as usize, piece_size: piece, block_size: piece }
    }

    /// An explicit configuration (used by the small-file experiments of
    /// §IV-I where the file is 1–50 pieces of 64 KB).
    ///
    /// # Panics
    ///
    /// Panics if `pieces` is zero or sizes are non-positive.
    pub fn custom(pieces: usize, piece_size: f64, block_size: f64) -> Self {
        assert!(pieces > 0, "a file has at least one piece");
        assert!(piece_size > 0.0 && block_size > 0.0, "sizes must be positive");
        FileSpec { pieces, piece_size, block_size }
    }

    /// Total file size in bytes.
    pub fn file_size(&self) -> f64 {
        self.pieces as f64 * self.piece_size
    }

    /// Blocks per piece (≥ 1).
    pub fn blocks_per_piece(&self) -> usize {
        (self.piece_size / self.block_size).round().max(1.0) as usize
    }
}

/// A set of piece indices, stored as packed 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitfield {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl Bitfield {
    /// An empty bitfield over `len` pieces.
    pub fn new(len: usize) -> Self {
        Bitfield { words: vec![0; len.div_ceil(64)], len, count: 0 }
    }

    /// A full bitfield (the seeder's `F`).
    pub fn full(len: usize) -> Self {
        let mut bf = Bitfield::new(len);
        for w in bf.words.iter_mut() {
            *w = u64::MAX;
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = bf.words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        bf.count = len;
        bf
    }

    /// Number of pieces in the file.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the file has zero pieces (never happens for a valid
    /// [`FileSpec`], but keeps the API well-behaved).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, LSB-first: piece `i` is bit `i % 64` of word
    /// `i / 64`. Padding bits past [`Bitfield::len`] are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of pieces held.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` once every piece is held.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.count == self.len
    }

    /// Whether piece `p` is held.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn has(&self, p: PieceId) -> bool {
        let i = p.index();
        assert!(i < self.len, "piece {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks piece `p` held; returns `true` if it was newly added.
    pub fn set(&mut self, p: PieceId) -> bool {
        let i = p.index();
        assert!(i < self.len, "piece {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Clears piece `p`; returns `true` if it was held. The mirror of
    /// [`Bitfield::set`], with the same range check.
    pub fn unset(&mut self, p: PieceId) -> bool {
        let i = p.index();
        assert!(i < self.len, "piece {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            *w &= !mask;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over held pieces.
    pub fn iter_set(&self) -> impl Iterator<Item = PieceId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            BitIter { word: w, base: (wi * 64) as u32 }
        })
    }

    /// Iterates over pieces `other` holds that `self` is missing — the
    /// pieces `self`'s owner would want from `other`'s owner.
    pub fn missing_from<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = PieceId> + 'a {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(other.words.iter()).enumerate().flat_map(move |(wi, (&a, &b))| {
            BitIter { word: !a & b, base: (wi * 64) as u32 }
        })
    }

    /// `true` if `other` holds at least one piece `self` is missing, i.e.
    /// whether `self`'s owner is *interested* in `other`'s owner (§II-A) —
    /// also the payee-eligibility test of §II-B2.
    pub fn wants_from(&self, other: &Bitfield) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(other.words.iter()).any(|(&a, &b)| !a & b != 0)
    }

    /// The lowest-index piece not yet held — the playback frontier for
    /// the streaming extension (§VI). `None` once complete.
    pub fn first_missing(&self) -> Option<PieceId> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let i = wi * 64 + (!w).trailing_zeros() as usize;
                if i < self.len {
                    return Some(PieceId(i as u32));
                }
            }
        }
        None
    }

    /// Number of pieces held by exactly one of the two bitfields — the
    /// "piece difference" metric of Fig. 6(a).
    pub fn difference(&self, other: &Bitfield) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(other.words.iter()).map(|(&a, &b)| (a ^ b).count_ones() as usize).sum()
    }

    /// Packs the bitfield into `ceil(len/8)` LSB-first bytes — the payload
    /// of a `wire::Message::Bitfield` handshake frame.
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(nbytes);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(nbytes);
        out
    }

    /// Rebuilds a bitfield from its packed form. Returns `None` when the
    /// byte count does not match `len` or a padding bit past `len` is set
    /// (a non-canonical — and therefore rejected — encoding).
    pub fn from_packed_bytes(len: usize, bytes: &[u8]) -> Option<Bitfield> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let mut bf = Bitfield::new(len);
        for (i, &b) in bytes.iter().enumerate() {
            let mut rest = b;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let idx = i * 8 + bit;
                if idx >= len {
                    return None;
                }
                bf.set(PieceId(idx as u32));
            }
        }
        Some(bf)
    }
}

/// The set bits of one word, ascending, as pieces numbered from `base`.
pub(crate) struct BitIter {
    pub(crate) word: u64,
    pub(crate) base: u32,
}

impl Iterator for BitIter {
    type Item = PieceId;
    fn next(&mut self) -> Option<PieceId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(PieceId(self.base + tz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tchain_sim::{ensure, ensure_eq, forall, sized};

    #[test]
    fn file_spec_bittorrent_defaults() {
        let f = FileSpec::bittorrent(128.0);
        assert_eq!(f.pieces, 512);
        assert_eq!(f.blocks_per_piece(), 16);
        assert_eq!(f.file_size(), mib(128.0));
    }

    #[test]
    fn file_spec_tchain_defaults() {
        let f = FileSpec::tchain(128.0);
        assert_eq!(f.pieces, 2048);
        assert_eq!(f.blocks_per_piece(), 1);
    }

    #[test]
    fn empty_and_full() {
        let e = Bitfield::new(100);
        assert_eq!(e.count(), 0);
        assert!(!e.is_complete());
        let f = Bitfield::full(100);
        assert_eq!(f.count(), 100);
        assert!(f.is_complete());
        assert!(f.has(PieceId(99)));
        assert_eq!(f.iter_set().count(), 100);
    }

    #[test]
    fn full_is_exact_for_word_multiples() {
        let f = Bitfield::full(128);
        assert_eq!(f.count(), 128);
        assert_eq!(f.iter_set().count(), 128);
    }

    #[test]
    fn set_is_idempotent() {
        let mut b = Bitfield::new(10);
        assert!(b.set(PieceId(3)));
        assert!(!b.set(PieceId(3)));
        assert_eq!(b.count(), 1);
        assert!(b.has(PieceId(3)));
        assert!(!b.has(PieceId(4)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = Bitfield::new(10);
        b.has(PieceId(10));
    }

    #[test]
    fn out_of_range_unset_panics_like_set() {
        let message = |op: fn(&mut Bitfield)| {
            let panic = std::panic::catch_unwind(|| op(&mut Bitfield::new(10)));
            panic.expect_err("must panic").downcast_ref::<String>().cloned()
        };
        let set = message(|b| {
            b.set(PieceId(10));
        });
        assert_eq!(set.as_deref(), Some("piece 10 out of range 10"));
        assert_eq!(
            message(|b| {
                b.unset(PieceId(10));
            }),
            set
        );
    }

    /// `set` / `unset` sequences on two bitfields against two `BTreeSet`
    /// models, at lengths around the 64-bit word edges.
    #[test]
    fn set_and_unset_agree_with_a_set_model() {
        forall(0xB17F_1E1D, 256, |rng, size| {
            let len = 1 + rng.below(130);
            let mut bfs = [Bitfield::new(len), Bitfield::new(len)];
            let mut models = [BTreeSet::new(), BTreeSet::new()];
            for _ in 0..sized(rng, size, 1, 400) {
                let side = rng.below(2);
                let i = rng.below(len) as u32;
                // Setting twice as often as clearing lets short fields fill.
                if rng.below(3) < 2 {
                    ensure_eq!(bfs[side].set(PieceId(i)), models[side].insert(i), "set({i})");
                } else {
                    ensure_eq!(bfs[side].unset(PieceId(i)), models[side].remove(&i), "unset({i})");
                }
                for (bf, model) in bfs.iter().zip(&models) {
                    ensure_eq!(bf.count(), model.len());
                    ensure_eq!(bf.is_complete(), model.len() == len);
                    ensure!((0..len as u32).all(|i| bf.has(PieceId(i)) == model.contains(&i)));
                    let held: Vec<u32> = bf.iter_set().map(|p| p.0).collect();
                    ensure_eq!(held, model.iter().copied().collect::<Vec<_>>());
                }
                let wanted: Vec<u32> = models[1].difference(&models[0]).copied().collect();
                let missing: Vec<u32> = bfs[0].missing_from(&bfs[1]).map(|p| p.0).collect();
                ensure_eq!(missing, wanted, "missing_from");
                ensure_eq!(bfs[0].wants_from(&bfs[1]), !wanted.is_empty(), "wants_from");
            }
            Ok(())
        });
    }

    #[test]
    fn wants_and_missing() {
        let mut a = Bitfield::new(200);
        let mut b = Bitfield::new(200);
        a.set(PieceId(0));
        b.set(PieceId(0));
        assert!(!a.wants_from(&b));
        b.set(PieceId(70));
        b.set(PieceId(150));
        assert!(a.wants_from(&b));
        let missing: Vec<_> = a.missing_from(&b).collect();
        assert_eq!(missing, vec![PieceId(70), PieceId(150)]);
        assert!(!b.wants_from(&a));
    }

    #[test]
    fn first_missing_walks_forward() {
        let mut b = Bitfield::new(130);
        assert_eq!(b.first_missing(), Some(PieceId(0)));
        for i in 0..64 {
            b.set(PieceId(i));
        }
        assert_eq!(b.first_missing(), Some(PieceId(64)));
        for i in 64..130 {
            b.set(PieceId(i));
        }
        assert_eq!(b.first_missing(), None);
        assert_eq!(Bitfield::full(64).first_missing(), None);
    }

    #[test]
    fn difference_is_symmetric() {
        let mut a = Bitfield::new(100);
        let mut b = Bitfield::new(100);
        a.set(PieceId(1));
        a.set(PieceId(2));
        b.set(PieceId(2));
        b.set(PieceId(3));
        b.set(PieceId(4));
        assert_eq!(a.difference(&b), 3);
        assert_eq!(b.difference(&a), 3);
        assert_eq!(a.difference(&a), 0);
    }

    #[test]
    fn packed_bytes_roundtrip() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 130] {
            let mut b = Bitfield::new(len);
            for i in (0..len).step_by(3) {
                b.set(PieceId(i as u32));
            }
            let packed = b.to_packed_bytes();
            assert_eq!(packed.len(), len.div_ceil(8));
            assert_eq!(Bitfield::from_packed_bytes(len, &packed), Some(b));
        }
    }

    #[test]
    fn packed_bytes_reject_padding_and_length() {
        // Wrong byte count.
        assert_eq!(Bitfield::from_packed_bytes(9, &[0xFF]), None);
        // Padding bit beyond len=9 set (bit 9 of the second byte's range).
        assert_eq!(Bitfield::from_packed_bytes(9, &[0x00, 0x02]), None);
        // Canonical full bitfield survives.
        let full = Bitfield::full(9);
        assert_eq!(Bitfield::from_packed_bytes(9, &full.to_packed_bytes()), Some(full));
    }

    #[test]
    fn seeder_complete_leecher_fills_up() {
        let spec = FileSpec::tchain(1.0); // 16 pieces
        assert_eq!(spec.pieces, 16);
        let seeder = Bitfield::full(spec.pieces);
        let mut l = Bitfield::new(spec.pieces);
        for p in seeder.iter_set() {
            l.set(p);
        }
        assert!(l.is_complete());
        assert!(!l.wants_from(&seeder));
    }
}
