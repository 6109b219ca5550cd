//! Seedable randomness for reproducible experiments.
//!
//! [`SimRng`] is the workspace's only generator and it is implemented
//! here, with no registry dependency: every golden fixture, schedule
//! witness and wire-image identity in the repository is a function of
//! this stream. Changing any algorithm below — a draw width, a rejection
//! zone, the shuffle direction — is a fixture-wide re-bless, and the
//! known-answer tests at the bottom of this file exist to make such a
//! change loud.
//!
//! The algorithms:
//!
//! * **state** — xoshiro256++ (Blackman & Vigna), seeded by four
//!   successive SplitMix64 outputs of the `u64` seed;
//! * **`f64`** — the top 53 bits of one word, scaled by 2⁻⁵³;
//! * **`below`** — one 64-bit word widened by multiplication into
//!   `[0, n)`, redrawn while the low half falls above the rejection zone
//!   `(n << n.leading_zeros()) − 1`, so every value is exactly equally
//!   likely;
//! * **`choose` / `shuffle` / `sample`** — the same scheme on a 32-bit
//!   draw (the high half of one word) whenever the bound fits in `u32`;
//!   the shuffle is Fisher–Yates from the last element down;
//! * **`range` / `exp`** — 52 mantissa bits under exponent 0 give
//!   `[1, 2)`, mapped affinely, redrawn while rounding lands on `hi`;
//! * **`fill`** — little-endian 8-byte words; a 5–7 byte tail takes the
//!   low bytes of one more word, a 1–4 byte tail those of a 32-bit draw.

/// The SplitMix64 increment γ = ⌊2⁶⁴/φ⌋.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea & Flood): the output of one generator step from
/// state `x`, i.e. its finaliser applied to `x + γ`. Stateless, so it is
/// also the workspace's 64-bit mixing hash: [`SimRng`] seed expansion, the
/// wire runtime's piece bytes and content digest, partition sides and
/// search-seed forks all call this one function.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random source for one simulation run.
///
/// Every experiment in the harness is reproducible from a single `u64`
/// seed: swarm membership lists, payee choices, optimistic unchokes and
/// arrival jitter all draw from one `SimRng`. The paper reports means and
/// 95 % confidence intervals over 30 runs "using different random number
/// seeds" (§IV-A); the harness does the same with seeds `0..runs`.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from an experiment seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed: word i is splitmix64(seed + i·γ).
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(GOLDEN_GAMMA)));
        SimRng { s: [word(0), word(1), word(2), word(3)] }
    }

    /// Uniform 64-bit word: one xoshiro256++ step.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A 32-bit draw: the high half of one word (the low bits have linear
    /// dependencies).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Derives an independent child RNG, e.g. one per peer, so adding a
    /// draw in one component does not perturb another's stream.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.u64() ^ salt.wrapping_mul(GOLDEN_GAMMA);
        SimRng::new(s)
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let range = n as u64;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.u64()) * u128::from(range);
            if wide as u64 <= zone {
                return (wide >> 64) as usize;
            }
        }
    }

    /// Uniform index in `[0, n)` for the slice helpers: [`below`] on a
    /// 32-bit draw whenever `n` fits in one.
    ///
    /// [`below`]: SimRng::below
    #[inline]
    fn index(&mut self, n: usize) -> usize {
        let Ok(range) = u32::try_from(n) else { return self.below(n) };
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u64::from(self.next_u32()) * u64::from(range);
            if wide as u32 <= zone {
                return (wide >> 32) as usize;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform choice from a slice, or `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }

    /// Uniform choice of an index into a slice, or `None` if empty.
    pub fn choose_index<T>(&mut self, xs: &[T]) -> Option<usize> {
        if xs.is_empty() {
            None
        } else {
            Some(self.below(xs.len()))
        }
    }

    /// Samples `k` distinct elements (or all, if fewer) uniformly without
    /// replacement, preserving no particular order.
    pub fn sample<T: Copy>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let mut v: Vec<T> = xs.to_vec();
        self.shuffle(&mut v);
        v.truncate(k);
        v
    }

    /// Shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index(i + 1));
        }
    }

    /// Exponentially distributed value with the given rate (mean `1/rate`),
    /// used for Poisson arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = self.range(f64::MIN_POSITIVE, 1.0);
        -u.ln() / rate
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot sample empty range");
        let scale = hi - lo;
        loop {
            let value1_2 = f64::from_bits((self.u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + lo;
            if res < hi {
                return res;
            }
        }
    }

    /// Fills `dest` with random bytes (key and nonce material).
    pub fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let n = tail.len();
        if n > 4 {
            tail.copy_from_slice(&self.u64().to_le_bytes()[..n]);
        } else if n > 0 {
            tail.copy_from_slice(&self.next_u32().to_le_bytes()[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.f64() == b.f64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(1);
        // Two forks with the same salt still differ (parent advanced).
        assert_ne!(c1.f64().to_bits(), c2.f64().to_bits());
    }

    #[test]
    fn sample_without_replacement() {
        let mut r = SimRng::new(3);
        let xs: Vec<u32> = (0..100).collect();
        let s = r.sample(&xs, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn exp_mean_close_to_inverse_rate() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    // Known answers. The stream is pinned here rather than by a tag on
    // each fixture: if one of these fails, every golden, witness and
    // wire-image identity in the repository has moved with it.

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn seed_zero_state_is_the_published_splitmix64_sequence() {
        let expected = [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
        ];
        assert_eq!(SimRng::new(0).s, expected);
    }

    #[test]
    fn first_words_of_seeds_0_and_42() {
        let first8 = |seed| {
            let mut r = SimRng::new(seed);
            [(); 8].map(|()| r.u64())
        };
        assert_eq!(
            first8(0),
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
                0x0543_c377_57f0_8d9a,
                0xdb74_90c7_5ab5_026e,
                0xd873_43e6_464b_c959,
            ]
        );
        assert_eq!(
            first8(42),
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
                0xcb23_1c38_7484_6a73,
                0x968d_9f00_4e50_de7d,
                0x2017_18ff_221a_3556,
                0x9ae9_4e07_0ed8_cb46,
            ]
        );
    }

    #[test]
    fn slice_helpers_take_a_32_bit_draw() {
        // The 32-bit draw is the high half of the same word, so for small
        // bounds it picks the index a 64-bit draw would pick except about
        // once in 2³³/n draws — too rare for a transcript to notice.
        // Hand-build the state instead: s0 = 0 makes the first word
        // rotl(s3, 23). The full word × 3 is accepted by `below` as index
        // 1; its high half × 3 is 0xffff_ffff, above the 32-bit rejection
        // zone, so `choose` must redraw (twice: this sparse state keeps
        // the next high half near 0x5555_5555 too).
        let first: u64 = 0x5555_5555_ffff_ffff;
        let crafted = SimRng { s: [0, 1, 2, first.rotate_right(23)] };
        let mut words = crafted.clone();
        assert_eq!(words.u64(), first);

        let mut wide = crafted.clone();
        assert_eq!(wide.below(3), 1);
        assert_eq!(wide.s, words.s, "below: one word");

        let mut narrow = crafted;
        assert_eq!(narrow.choose(&[0u8, 1, 2]), Some(&2));
        words.u64();
        words.u64();
        assert_eq!(narrow.s, words.s, "choose: three words");
    }

    /// Order-sensitive fold of a multi-value result into one transcript word.
    fn fold<T: Copy + Into<u64>>(xs: &[T]) -> u64 {
        xs.iter()
            .fold(0, |acc: u64, &x| acc.wrapping_mul(0x100_0000_01b3).wrapping_add(x.into() + 1))
    }

    /// 64 steps over one stream touching every public method, each step
    /// reduced to one word. A draw of the wrong width anywhere shifts
    /// every later step.
    fn transcript(r: &mut SimRng) -> Vec<u64> {
        let xs: Vec<u32> = (0..100).collect();
        let mut out = Vec::with_capacity(64);
        for round in 0..2usize {
            out.push(r.f64().to_bits());
            out.push(r.below(1) as u64);
            out.push(r.below(2) as u64);
            out.push(r.below(7) as u64);
            out.push(r.below(1_000_003) as u64);
            out.push(r.below(u32::MAX as usize) as u64);
            out.push(r.below(u32::MAX as usize + 1) as u64);
            out.push(r.below(u32::MAX as usize + 2) as u64);
            out.push(r.choose(&xs[..0]).map_or(u64::MAX, |&x| u64::from(x)));
            for len in [1, 3, 48] {
                out.push(r.choose(&xs[..len]).map_or(u64::MAX, |&x| u64::from(x)));
                out.push(r.choose_index(&xs[..len]).map_or(u64::MAX, |i| i as u64));
            }
            let mut v = xs.clone();
            r.shuffle(&mut v);
            out.push(fold(&v));
            out.push(fold(&r.sample(&xs, 10)));
            out.push(r.range(-1.5, 2.5).to_bits());
            out.push(r.range(0.0, 1e-300).to_bits());
            out.push(r.exp(0.5).to_bits());
            out.push(r.fork(1).f64().to_bits());
            out.push(u64::from(r.chance(0.5)));
            out.push(r.f64().to_bits());
            for len in round * 9..round * 9 + 9 {
                let mut buf = [0u8; 17];
                r.fill(&mut buf[..len]);
                out.push(fold(&buf));
            }
        }
        out
    }

    #[test]
    fn mixed_transcript_of_seed_42() {
        #[rustfmt::skip]
        let expected: [u64; 64] = [
            0x3fea0ec9a9e88ecd, 0x0000000000000000, 0x0000000000000001, 0x0000000000000005,
            0x000000000008f944, 0x00000000201718ff, 0x000000009ae94e07, 0x00000000352cf3db,
            0xffffffffffffffff, 0x0000000000000000, 0x0000000000000000, 0x0000000000000001,
            0x0000000000000000, 0x0000000000000002, 0x000000000000001b, 0x527b226fd4392ab6,
            0x815303959050b1b5, 0x3fedc0cf3dc877e0, 0x01651c492e0dd02e, 0x3fb7450363308995,
            0x3fd0961b3683cf66, 0x0000000000000001, 0x3fe4f152e3dc317c, 0x4a8c9f321eec7161,
            0x3a1edf785ba989e0, 0x9e22a7fb98ea9b86, 0x4af1bc36ea0bde68, 0xd45c19cd06cc66ab,
            0x16d6493b1dd1918b, 0xac334ac2f4a23e48, 0x504202b61492820c, 0xca178de7fa17f303,
            0x3fecd84ac1457aad, 0x0000000000000000, 0x0000000000000001, 0x0000000000000004,
            0x00000000000bc7e7, 0x00000000bf4051e6, 0x00000000d65d890b, 0x0000000045efb29b,
            0xffffffffffffffff, 0x0000000000000000, 0x0000000000000000, 0x0000000000000002,
            0x0000000000000002, 0x0000000000000015, 0x0000000000000001, 0x7de11a6d8b7b8562,
            0xfc6bdfc17f54eb8b, 0x3fc7d42435c08e00, 0x01a53a41e5ee747b, 0x400fe47bc740db1f,
            0x3fbcf3df616175f8, 0x0000000000000001, 0x3fd7385e076cea34, 0x353c8d9b20598d5c,
            0xa3a96041ef14e3c7, 0xfddc83f2bc1c488f, 0xa4a94e67d248a0a0, 0xc6fc5334979b6538,
            0x1ccc4f988ade02f4, 0xcb31a8323102e89b, 0xfb48ed28d2eb976e, 0x19e71aec2e4d80b0,
        ];
        let got = transcript(&mut SimRng::new(42));
        for (step, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "transcript step {step}: got {g:#018x}, expected {e:#018x}");
        }
        assert_eq!(got.len(), expected.len());
    }
}
