//! Deterministic shared-file content, and the one digest of `crates/net`.
//!
//! A real swarm distributes bytes, so the net runtime needs actual piece
//! plaintexts — and a way for a receiver to know it decrypted correctly.
//! [`Content`] is the swarm's manifest (its `.torrent`): the
//! `(seed, pieces, piece_len)` spec plus a table of expected piece
//! digests that every clone shares. A piece counts as *completed* only
//! when the decrypted bytes match their table entry, which makes the
//! ChaCha20 key release self-verifying end to end.
//!
//! [`digest`] is the only hash in the crate, and it is frozen in two
//! places: [`frame_checksum`](crate::frame_checksum) puts its value in
//! every frame header (the wire image), and the harness folds it over
//! every delivered frame (every swarm fingerprint, witness and CI pin).
//! Changing it re-blesses both. It is free in the third: the piece table
//! behind [`Content::verify`] is process-local — never sent,
//! stored or folded — and would follow a change silently.

use std::sync::{Arc, OnceLock};
use tchain_sim::splitmix64;

/// Lane seeds of [`digest`] (fractional bits of √2, √3, √5, √7);
/// distinct, so a word means something different in each lane.
const LANE_SEEDS: [u64; 4] =
    [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B, 0x3C6E_F372_FE94_F82B, 0xA54F_F53A_5F1D_36F1];

/// Where the accumulator of [`digest`] starts, before the seed.
const ACC_SEED: u64 = 0x510E_527F_ADE6_82D1;

/// Seeded, order- and length-sensitive 64-bit digest of a byte string.
///
/// Striped: word `j` of each 32-byte stripe feeds lane `j`, so four
/// `splitmix64` chains run independently and the CPU overlaps them
/// instead of waiting out one serial multiply chain. The lanes are then chained in
/// order into an accumulator that started from `seed`, followed by the
/// sub-stripe tail and the length. Input shorter than one stripe — every
/// control frame — never touches the lanes and skips their four
/// finalisation steps.
///
/// Every step is a bijection of the accumulator, so two inputs that
/// differ in one word, or two seeds over one input, always differ in the
/// 64-bit value. Not cryptographic.
pub fn digest(seed: u64, bytes: &[u8]) -> u64 {
    let mut acc = ACC_SEED ^ seed;
    let mut stripes = bytes.chunks_exact(32);
    if bytes.len() >= 32 {
        let mut lanes = LANE_SEEDS;
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
                *lane = splitmix64(*lane ^ word);
            }
        }
        for lane in lanes {
            acc = splitmix64(acc ^ lane);
        }
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        acc = splitmix64(acc ^ u64::from_le_bytes(word.try_into().expect("chunks_exact(8)")));
    }
    // The last, partial word, zero-padded: shifted together because a
    // copy of unknown length costs a call, and most frames end in one.
    let rest = words.remainder();
    if !rest.is_empty() {
        acc = splitmix64(acc ^ rest.iter().rev().fold(0, |word, &b| (word << 8) | u64::from(b)));
    }
    splitmix64(acc ^ bytes.len() as u64)
}

/// The shared file: a deterministic generator every peer holds, standing
/// in for the out-of-band metadata (infohash + piece hashes) of a real
/// deployment.
///
/// Cloning is cheap and shares the digest table: a swarm builds one
/// `Content` and hands every peer a clone, so each expected digest is
/// computed once per swarm, on first use. Equality is on the spec alone.
#[derive(Debug, Clone)]
pub struct Content {
    seed: u64,
    pieces: usize,
    piece_len: usize,
    /// Expected digest of piece `i`, filled on first use. The fields
    /// above are private because the entries are a function of them.
    digests: Arc<[OnceLock<u64>]>,
}

impl PartialEq for Content {
    fn eq(&self, other: &Self) -> bool {
        (self.seed, self.pieces, self.piece_len) == (other.seed, other.pieces, other.piece_len)
    }
}

impl Eq for Content {}

impl Content {
    /// A new content spec with an empty digest table.
    pub fn new(seed: u64, pieces: usize, piece_len: usize) -> Self {
        assert!(pieces > 0 && piece_len > 0, "content needs pieces and bytes");
        Content { seed, pieces, piece_len, digests: (0..pieces).map(|_| OnceLock::new()).collect() }
    }

    /// Number of pieces in the file.
    pub fn pieces(&self) -> usize {
        self.pieces
    }

    /// The plaintext of piece `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn piece(&self, i: u32) -> Vec<u8> {
        assert!((i as usize) < self.pieces, "piece {i} out of range {}", self.pieces);
        let mut out = Vec::with_capacity(self.piece_len);
        let mut state = splitmix64(self.seed ^ (u64::from(i) << 32) ^ 0x7EC4);
        while out.len() < self.piece_len {
            state = splitmix64(state);
            let take = (self.piece_len - out.len()).min(8);
            out.extend_from_slice(&state.to_le_bytes()[..take]);
        }
        out
    }

    /// The expected digest of piece `i` (what a real client reads from
    /// the torrent metadata): [`digest`] of the plaintext under seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn expected(&self, i: u32) -> u64 {
        *self.digests[i as usize].get_or_init(|| digest(0, &self.piece(i)))
    }

    /// Whether `bytes` are the correct plaintext of piece `i`: one pass
    /// over `bytes`, compared with the shared table entry. An index
    /// outside the file verifies nothing.
    pub fn verify(&self, i: u32, bytes: &[u8]) -> bool {
        (i as usize) < self.pieces && bytes.len() == self.piece_len && digest(0, bytes) == self.expected(i)
    }

    /// How many `Content`s share this one's digest table.
    #[cfg(test)]
    pub(crate) fn table_refs(&self) -> usize {
        Arc::strong_count(&self.digests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::{ensure_eq, forall};

    /// [`digest`] one byte at a time: words are assembled by shifting,
    /// stripes are a byte index, nothing is chunked.
    fn digest_reference(seed: u64, bytes: &[u8]) -> u64 {
        let striped = bytes.len() / 32 * 32;
        let (mut lanes, mut acc, mut word) = (LANE_SEEDS, ACC_SEED ^ seed, 0u64);
        for (i, &b) in bytes.iter().enumerate() {
            word |= u64::from(b) << (i % 8 * 8);
            if i % 8 == 7 || i + 1 == bytes.len() {
                match i < striped {
                    true => lanes[i / 8 % 4] = splitmix64(lanes[i / 8 % 4] ^ word),
                    false => acc = splitmix64(acc ^ word),
                }
                word = 0;
            }
            if i + 1 == striped {
                acc = lanes.iter().fold(acc, |acc, lane| splitmix64(acc ^ lane));
            }
        }
        splitmix64(acc ^ bytes.len() as u64)
    }

    #[test]
    fn striped_digest_equals_the_byte_serial_reference() {
        // Every tail shape around zero to six stripes and around the
        // benchmark's 16 KiB piece, under the seeds the crate uses: 0
        // (pieces, keys), the four frame kinds, and a fold-sized one.
        forall(0xD16E57, 8, |rng, _| {
            for len in (0..=200).chain(16_384 - 33..=16_384 + 33) {
                let mut bytes = vec![0u8; len];
                rng.fill(&mut bytes);
                for seed in [0, 1, 2, 3, 4, rng.u64()] {
                    ensure_eq!(
                        digest(seed, &bytes),
                        digest_reference(seed, &bytes),
                        "len {len} seed {seed:#x}"
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn the_seed_and_the_short_path_both_count() {
        let long = [7u8; 40];
        for bytes in [&[][..], b"a", &long[..31], &long[..32], &long] {
            assert_ne!(digest(1, bytes), digest(3, bytes), "len {}", bytes.len());
        }
        // A stripe of zeros is not nothing, on either side of the branch.
        assert_ne!(digest(0, &[0; 31]), digest(0, &[0; 32]));
        assert_ne!(digest(0, &[0; 32]), digest(0, &[0; 64]));
    }

    #[test]
    fn pieces_are_deterministic_and_distinct() {
        let c = Content::new(7, 4, 100);
        assert_eq!(c.piece(0), c.piece(0));
        assert_ne!(c.piece(0), c.piece(1));
        assert_eq!(c.piece(3).len(), 100);
        let d = Content::new(8, 4, 100);
        assert_ne!(c.piece(0), d.piece(0), "seed changes content");
    }

    #[test]
    fn verify_accepts_only_the_true_plaintext() {
        let c = Content::new(3, 2, 64);
        let mut p = c.piece(1);
        assert!(c.verify(1, &p));
        p[10] ^= 1;
        assert!(!c.verify(1, &p));
        assert!(!c.verify(0, &c.piece(1)));
        assert!(!c.verify(1, &c.piece(1)[..63]));
        assert!(!c.verify(2, &c.piece(1)), "an index outside the file verifies nothing");
    }

    /// `verify` also compares lengths, which would mask a digest that
    /// ignores a truncated tail: a mutation must fail both.
    fn assert_rejected(c: &Content, i: u32, bytes: &[u8], what: &str) {
        assert!(!c.verify(i, bytes), "verify accepted: {what}");
        assert_ne!(digest(0, bytes), c.expected(i), "digest collided: {what}");
    }

    #[test]
    fn verify_rejects_every_single_bit_flip() {
        let c = Content::new(0xB17, 2, 1024);
        let mut p = c.piece(1);
        for bit in 0..p.len() * 8 {
            p[bit / 8] ^= 1 << (bit % 8);
            assert_rejected(&c, 1, &p, &format!("bit {bit} flipped"));
            p[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(c.verify(1, &p));
    }

    #[test]
    fn verify_rejects_resizing_reordering_and_the_wrong_index() {
        let c = Content::new(0xB17, 2, 1024);
        let p = c.piece(1);
        for cut in 1..=33 {
            assert_rejected(&c, 1, &p[..p.len() - cut], &format!("truncated by {cut}"));
        }
        let mut longer = p.clone();
        longer.push(0);
        assert_rejected(&c, 1, &longer, "extended by a zero byte");

        // Words 1 and 2 of stripe 5 sit in different lanes; stripes 3 and
        // 4 put the same lanes in a different order.
        let mut words = p.clone();
        let (a, b) = (5 * 32 + 8, 5 * 32 + 16);
        for k in 0..8 {
            words.swap(a + k, b + k);
        }
        assert_rejected(&c, 1, &words, "two words swapped within a stripe");
        let mut stripes = p.clone();
        for k in 0..32 {
            stripes.swap(3 * 32 + k, 4 * 32 + k);
        }
        assert_rejected(&c, 1, &stripes, "two whole stripes swapped");

        assert_rejected(&c, 0, &p, "right bytes under the wrong index");
    }

    #[test]
    fn every_tail_shape_round_trips() {
        // No stripe, a lone byte, one byte short of a stripe, exactly one,
        // one byte over, and the benchmark's 16 KiB.
        for len in [1, 31, 32, 33, 16384] {
            let c = Content::new(0x7A11, 2, len);
            let mut p = c.piece(1);
            assert!(c.verify(1, &p), "len {len}");
            p[len - 1] ^= 0x80;
            assert_rejected(&c, 1, &p, &format!("len {len}, last byte flipped"));
        }
        // A piece cannot be empty, but the digest still tells nothing
        // from a zero byte.
        assert_ne!(digest(0, &[]), digest(0, &[0]));
    }

    #[test]
    fn clones_share_one_lazily_filled_table() {
        let a = Content::new(9, 4, 128);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.digests, &b.digests));
        assert!(a.digests.iter().all(|d| d.get().is_none()), "the table starts empty");
        let d2 = a.expected(2);
        assert_eq!(b.digests[2].get(), Some(&d2), "computed once, visible through every clone");
        assert!(b.digests[3].get().is_none(), "only the entry that was asked for");
        assert!(b.verify(2, &a.piece(2)));
        // Equality is the spec, not the table.
        assert_eq!(a, Content::new(9, 4, 128));
        assert_ne!(a, Content::new(9, 4, 64));
    }

    #[test]
    fn digest_is_length_and_order_sensitive_below_a_stripe() {
        assert_ne!(digest(0, b"ab"), digest(0, b"ba"));
        assert_ne!(digest(0, b"a"), digest(0, b"a\0"));
        assert_ne!(digest(0, b""), digest(0, b"\0"));
    }
}
