//! Offline stand-in for the slice of the `rand` 0.8 API that the tchain
//! crates use.
//!
//! The container has no registry access, so the benchmark package
//! patches `rand` to this crate. The algorithms follow the published
//! crate's documented choices (`SmallRng` is xoshiro256++ seeded through
//! SplitMix64, integer ranges use widening-multiply rejection, floats
//! take the top 53/52 bits, `shuffle` is a reverse Fisher–Yates) so the
//! simulated swarms behave like the real ones statistically. The streams
//! have **not** been verified bit-for-bit against crates.io `rand`:
//! fingerprints and virtual completion times measured with this crate
//! are comparable only with other runs that use it.

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Generators constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Expands `state` into a full seed and builds the generator.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`.
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_single_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "cannot sample empty range");
                Self::sample_single_inclusive(low, high - 1, rng)
            }

            fn sample_single_inclusive<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                rng: &mut R,
            ) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    // The whole type: every bit pattern is in range.
                    return <$large as StandardSample>::sample(rng) as $ty;
                }
                // Widening multiply with a rejection zone, so every value
                // in the range is exactly equally likely.
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let ints_to_reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as StandardSample>::sample(rng);
                    let wide = (v as $wide) * (range as $wide);
                    let hi = (wide >> <$large>::BITS) as $large;
                    let lo = wide as $large;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int!(u8, u8, u32, u64);
uniform_int!(u16, u16, u32, u64);
uniform_int!(u32, u32, u32, u64);
uniform_int!(u64, u64, u64, u128);
uniform_int!(usize, usize, u64, u128);
uniform_int!(i32, u32, u32, u64);
uniform_int!(i64, u64, u64, u128);

impl SampleUniform for f64 {
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low < high, "cannot sample empty range");
        let scale = high - low;
        loop {
            // 52 random mantissa bits under exponent 0 give [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
        }
    }

    fn sample_single_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low <= high, "cannot sample empty range");
        let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
        ((value1_2 - 1.0) * (high - low) + low).min(high)
    }
}

/// Range expressions accepted by `Rng::gen_range`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_single(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_single_inclusive(low, high, rng)
    }
}

/// Buffers `Rng::fill` can fill.
pub trait Fill {
    /// Overwrites `self` with random data.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// The user-facing convenience methods, available on every generator.
pub trait Rng: RngCore {
    /// A value from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform over `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // p scaled to 64 bits, compared against one draw.
        self.next_u64() < (p * 2.0f64.powi(64)) as u64
    }

    /// Fills `dest` with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small fast non-cryptographic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        /// SplitMix64 expansion of the seed, one output per state word.
        fn seed_from_u64(mut state: u64) -> Self {
            const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(PHI);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            // The low bits have linear dependencies; use the high half.
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let tail = chunks.into_remainder();
            let n = tail.len();
            if n > 4 {
                tail.copy_from_slice(&self.next_u64().to_le_bytes()[..n]);
            } else if n > 0 {
                tail.copy_from_slice(&self.next_u32().to_le_bytes()[..n]);
            }
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// Uniform index below `ubound`, drawing 32 bits when they suffice.
    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    /// Random selection and permutation of slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// One element chosen uniformly, or `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Uniform in-place permutation (Fisher–Yates from the end).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[gen_index(rng, self.len())])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..2000 {
            seen[r.gen_range(0..7usize)] = true;
            let x = r.gen_range(-1.5..2.5f64);
            assert!((-1.5..2.5).contains(&x));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            assert!((3..=5u32).contains(&r.gen_range(3..=5u32)));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_mean_and_bernoulli_rate_are_close() {
        let mut r = SmallRng::seed_from_u64(11);
        let n = 50_000;
        let mean = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let hits = (0..n).filter(|_| r.gen_bool(0.25)).count() as f64 / n as f64;
        assert!((hits - 0.25).abs() < 0.01, "rate {hits}");
    }

    #[test]
    fn shuffle_permutes_and_fill_covers_odd_lengths() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        assert!([1, 2, 3].choose(&mut r).is_some());
        assert!(<[u8]>::choose(&[], &mut r).is_none());
        let mut buf = [0u8; 13];
        r.fill(&mut buf[..]);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
