//! A from-scratch ChaCha20 stream cipher (RFC 8439).
//!
//! T-Chain's almost-fair exchange rests on a *lightweight symmetric* cipher:
//! the donor encrypts each piece with a fresh key and withholds the key
//! until reciprocation (§II-B). §III-C argues the cost is negligible
//! ("0.715 ms per 128 KB piece"); `perfbench/` reports the same quantity for
//! this implementation as `crypto.mib_s` on `swarm_bulk`, and the `overhead`
//! figure (`tchain-experiments --bin overhead`) times one pass over the
//! paper's 128 KB piece.
//!
//! Because encryption is XOR with a keystream, `apply` both encrypts and
//! decrypts. No external crypto crates are used.
//!
//! There is one scalar block function ([`block`], pinned to the RFC's
//! vectors) and one wide kernel body that produces sixteen blocks (1 KiB)
//! per pass, written so that LLVM vectorises it from safe Rust, without
//! intrinsics. That body is compiled three times: for the default target,
//! for AVX2 and for AVX-512. `apply` runs whole 1 KiB chunks through the
//! widest build the CPU reports at run time ([`kernel`] names it) and the
//! rest through the block function. The tests hold every build the CPU can
//! run equal to the block function byte for byte, and a release-only guard
//! holds the kernels to being faster.

/// A 256-bit ChaCha20 key.
pub type KeyBytes = [u8; 32];
/// A 96-bit nonce. T-Chain derives it from the transaction id so every
/// (key, piece) pair uses a unique stream.
pub type Nonce = [u8; 12];

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn initial_state(key: &KeyBytes, counter: u32, nonce: &Nonce) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&CONSTANTS);
    for (i, w) in key.chunks_exact(4).enumerate() {
        s[4 + i] = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    }
    s[12] = counter;
    for (i, w) in nonce.chunks_exact(4).enumerate() {
        s[13 + i] = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    }
    s
}

/// One column round and one diagonal round over a single block's state.
#[inline(always)]
fn double_round(s: &mut [u32; 16]) {
    quarter_round(s, 0, 4, 8, 12);
    quarter_round(s, 1, 5, 9, 13);
    quarter_round(s, 2, 6, 10, 14);
    quarter_round(s, 3, 7, 11, 15);
    quarter_round(s, 0, 5, 10, 15);
    quarter_round(s, 1, 6, 11, 12);
    quarter_round(s, 2, 7, 8, 13);
    quarter_round(s, 3, 4, 9, 14);
}

/// The keystream block of an already parsed state (`init[12]` is the
/// counter): the scalar path, and the reference the wide kernel is tested
/// against.
fn keystream_block(init: &[u32; 16]) -> [u8; 64] {
    let mut s = *init;
    for _ in 0..10 {
        double_round(&mut s);
    }
    let mut out = [0u8; 64];
    for (o, (w, i)) in out.chunks_exact_mut(4).zip(s.iter().zip(init)) {
        o.copy_from_slice(&w.wrapping_add(*i).to_le_bytes());
    }
    out
}

/// Computes one 64-byte keystream block (the RFC 8439 `chacha20_block`
/// function).
pub fn block(key: &KeyBytes, counter: u32, nonce: &Nonce) -> [u8; 64] {
    keystream_block(&initial_state(key, counter, nonce))
}

/// Blocks per pass of the wide kernel.
const LANES: usize = 16;
/// Bytes per pass of the wide kernel.
const WIDE: usize = 64 * LANES;

/// XORs the keystream into `data`, a whole number of `WIDE`-byte chunks,
/// starting at counter `init[12]`: `LANES` blocks per pass.
///
/// The shape is what makes LLVM vectorise it, and it is the only one of
/// four measured that does (DESIGN.md §8 "Byte path"): the state lives in
/// memory word-major and lane-minor, and the lane loop is the innermost
/// one, its body the scalar double round over one lane's sixteen words.
/// The loop vectoriser then turns `s[w][l]` for `l in 0..LANES` into
/// vectors per word and the quarter-rounds into vector adds, XORs and
/// shifts (or rotates): four lanes a register at the default x86-64
/// target, eight under AVX2, sixteen under AVX-512. Lane arrays held in
/// locals are unrolled before the vectoriser runs and stay scalar, as does
/// a lane loop around the ten rounds.
///
/// Always inlined, so that each `target_feature` wrapper below compiles
/// its own copy of this one body for its features.
// `l` is the minor index of `s`, which no iterator over `s` walks.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn xor_wide(init: &[u32; 16], data: &mut [u8]) {
    let mut first = [[0u32; LANES]; 16];
    for (lanes, word) in first.iter_mut().zip(init) {
        *lanes = [*word; LANES];
    }
    for (l, ctr) in first[12].iter_mut().enumerate() {
        *ctr = ctr.wrapping_add(l as u32);
    }
    for chunk in data.chunks_exact_mut(WIDE) {
        let mut s = first;
        for _ in 0..10 {
            for l in 0..LANES {
                let mut x = [0u32; 16];
                for w in 0..16 {
                    x[w] = s[w][l];
                }
                double_round(&mut x);
                for w in 0..16 {
                    s[w][l] = x[w];
                }
            }
        }
        for l in 0..LANES {
            for w in 0..16 {
                let ks = s[w][l].wrapping_add(first[w][l]).to_le_bytes();
                for (b, k) in chunk[64 * l + 4 * w..][..4].iter_mut().zip(ks) {
                    *b ^= k;
                }
            }
        }
        for ctr in &mut first[12] {
            *ctr = ctr.wrapping_add(LANES as u32);
        }
    }
}

/// [`xor_wide`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn xor_wide_avx2(init: &[u32; 16], data: &mut [u8]) {
    xor_wide(init, data);
}

/// [`xor_wide`] compiled for AVX-512 (`avx512vl` lets the narrower
/// registers use its rotate too).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn xor_wide_avx512(init: &[u32; 16], data: &mut [u8]) {
    xor_wide(init, data);
}

/// A build of the wide kernel that is safe to call on this CPU.
type Kernel = fn(&[u32; 16], &mut [u8]);

/// The builds of [`xor_wide`] this CPU runs, widest first and by name:
/// AVX-512 and AVX2 where `std` detects their features (it caches what it
/// detects), then the portable build, which runs everywhere. `apply` takes
/// the first; the tests run each.
#[allow(unsafe_code)]
fn kernels() -> impl Iterator<Item = (&'static str, Kernel)> {
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut simd: [Option<(&'static str, Kernel)>; 2] = [None; 2];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: this pointer is built only once `avx512f` and
            // `avx512vl` are detected, the features `xor_wide_avx512` enables.
            simd[0] = Some(("avx512", |init, data| unsafe { xor_wide_avx512(init, data) }));
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: this pointer is built only once `avx2` is detected,
            // the feature `xor_wide_avx2` enables.
            simd[1] = Some(("avx2", |init, data| unsafe { xor_wide_avx2(init, data) }));
        }
    }
    simd.into_iter().flatten().chain([("portable", xor_wide as Kernel)])
}

/// The widest build this CPU runs.
fn widest() -> (&'static str, Kernel) {
    kernels().next().expect("the portable build runs everywhere")
}

/// The name of the kernel build `apply` runs whole chunks through on this
/// CPU: `"avx512"`, `"avx2"` or `"portable"`. The ciphertext is the same
/// under each; the throughput differs by 2–3×.
pub fn kernel() -> &'static str {
    widest().0
}

/// XORs the ChaCha20 keystream into `data` in place, starting from block
/// `counter` (1 in RFC 8439's encryption examples; we use 0 for pieces).
/// The counter wraps modulo 2³², block by block.
///
/// Applying the function twice with the same parameters restores the input,
/// which is exactly the donor-withholds-the-key mechanism of §II-B: an
/// encrypted piece is useless until the matching key arrives.
///
/// Key and nonce are parsed once. Whole 1 KiB chunks go through the
/// sixteen-block kernel, in the widest build this CPU runs ([`kernel`]);
/// what is shorter than one, or left over, goes block by block through
/// the same function [`block`] calls. The output does not depend on where
/// the split falls, nor on the build.
pub fn apply(key: &KeyBytes, counter: u32, nonce: &Nonce, data: &mut [u8]) {
    // Input under one chunk (a 64 B piece) reaches no kernel: skip the lookup.
    let kernel = if data.len() < WIDE { xor_wide } else { widest().1 };
    apply_with(kernel, key, counter, nonce, data);
}

/// [`apply`], with the whole chunks through `kernel`.
fn apply_with(kernel: Kernel, key: &KeyBytes, counter: u32, nonce: &Nonce, data: &mut [u8]) {
    let mut state = initial_state(key, counter, nonce);
    let (wide, rest) = data.split_at_mut(data.len() - data.len() % WIDE);
    // Short input (a 64 B piece) must not pay for the kernel's lane set-up.
    if !wide.is_empty() {
        kernel(&state, wide);
        // Truncation is the wrap: the counter is modulo 2³² blocks.
        state[12] = state[12].wrapping_add((wide.len() / 64) as u32);
    }
    for chunk in rest.chunks_mut(64) {
        for (b, k) in chunk.iter_mut().zip(keystream_block(&state)) {
            *b ^= k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

/// Convenience wrapper returning a new vector instead of mutating in place.
pub fn apply_to_vec(key: &KeyBytes, counter: u32, nonce: &Nonce, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    apply(key, counter, nonce, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::{ensure_eq, forall, sized};

    /// RFC 8439 §2.1.1 quarter-round test vector.
    #[test]
    fn rfc8439_quarter_round() {
        let mut s = [0u32; 16];
        s[0] = 0x1111_1111;
        s[1] = 0x0102_0304;
        s[2] = 0x9b8d_6f43;
        s[3] = 0x0123_4567;
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], 0xea2a_92f4);
        assert_eq!(s[1], 0xcb1c_f8ce);
        assert_eq!(s[2], 0x4581_472e);
        assert_eq!(s[3], 0x5881_c4bb);
    }

    fn test_key() -> KeyBytes {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_function() {
        let key = test_key();
        let nonce: Nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(out, expected);
    }

    /// RFC 8439 §2.4.2 encryption test vector, all 114 bytes: counters 1
    /// and 2, the second block partial.
    #[test]
    fn rfc8439_encryption_vector() {
        let key = test_key();
        let nonce: Nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let ct = apply_to_vec(&key, 1, &nonce, plaintext);
        let expected: [u8; 114] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59,
            0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab,
            0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
            0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
            0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9,
            0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42,
            0x87, 0x4d,
        ];
        assert_eq!(ct, expected);
    }

    /// What `apply` must equal: XOR with [`block`], one block at a time,
    /// key and nonce parsed per block.
    fn block_by_block(key: &KeyBytes, counter: u32, nonce: &Nonce, data: &mut [u8]) {
        for (chunk, i) in data.chunks_mut(64).zip(0u32..) {
            let ks = block(key, counter.wrapping_add(i), nonce);
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    /// With the whole chunks through `kernel`, `apply` over `data` equals
    /// the block-by-block reference, and equals `apply` over the first
    /// `split` blocks followed by `apply` over the rest with the counter
    /// advanced by `split`.
    fn check_apply(
        (name, kernel): (&str, Kernel),
        key: &KeyBytes,
        counter: u32,
        nonce: &Nonce,
        data: &[u8],
        split: usize,
    ) -> Result<(), String> {
        let mut want = data.to_vec();
        block_by_block(key, counter, nonce, &mut want);
        let first_wrong = |got: &[u8]| got.iter().zip(&want).position(|(g, w)| g != w);
        let len = data.len();
        let mut whole = data.to_vec();
        apply_with(kernel, key, counter, nonce, &mut whole);
        ensure_eq!(
            first_wrong(&whole),
            None,
            "{name}: len {len}, counter {counter:#x}: first wrong byte"
        );
        let mut parts = data.to_vec();
        let (head, tail) = parts.split_at_mut(64 * split);
        apply_with(kernel, key, counter, nonce, head);
        apply_with(kernel, key, counter.wrapping_add(split as u32), nonce, tail);
        ensure_eq!(
            first_wrong(&parts),
            None,
            "{name}: len {len}, counter {counter:#x}, split after {split} blocks: first wrong byte"
        );
        Ok(())
    }

    /// Lengths either side of one and two wide chunks.
    const EDGES: [usize; 6] = [1023, 1024, 1025, 2047, 2048, 2049];

    /// Every kernel build this CPU runs, against the reference and under
    /// every split, for random key, nonce, start counter (a quarter of them
    /// within 40 blocks of the wrap) and length (up to four chunks and a
    /// bit; a quarter of them chunk-boundary edges).
    #[test]
    fn apply_equals_block_by_block_and_is_split_invariant() {
        for kernel in kernels() {
            forall(0xC4AC_4A20, 256, |rng, size| {
                let (mut key, mut nonce) = ([0u8; 32], [0u8; 12]);
                rng.fill(&mut key);
                rng.fill(&mut nonce);
                let counter = match rng.below(4) {
                    0 => u32::MAX - rng.below(40) as u32,
                    _ => rng.u64() as u32,
                };
                let len = match rng.below(4) {
                    0 => EDGES[rng.below(EDGES.len())],
                    _ => sized(rng, size, 0, 4200),
                };
                let mut data = vec![0u8; len];
                rng.fill(&mut data);
                let split = rng.below(len / 64 + 1);
                check_apply(kernel, &key, counter, &nonce, &data, split)
            });
        }
    }

    /// From `u32::MAX - 3` lanes 4–15 of the first wide chunk carry
    /// counters 0–11: every kernel build wraps per lane exactly as the
    /// block loop does, wherever the buffer is split.
    #[test]
    fn counter_wraps_inside_a_wide_chunk() {
        let key = test_key();
        let nonce: Nonce = [9; 12];
        for kernel in kernels() {
            for len in EDGES {
                let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                for split in 0..=len / 64 {
                    check_apply(kernel, &key, u32::MAX - 3, &nonce, &data, split).unwrap();
                }
            }
        }
    }

    /// The portable build is always on the list, last, so it keeps its
    /// coverage on machines that dispatch to a wider one.
    #[test]
    fn portable_build_is_always_listed_and_apply_takes_the_first() {
        let names: Vec<&str> = kernels().map(|(name, _)| name).collect();
        assert_eq!(names.last(), Some(&"portable"), "{names:?}");
        assert_eq!(names[0], kernel());
    }

    /// Release-only guard, run by name in CI (`cargo test --release -p
    /// tchain-crypto -- --ignored`). The wide path is fast only because the
    /// optimiser vectorises `xor_wide`'s lane loop, and fastest where the
    /// CPU has wide registers; if a toolchain stops vectorising, or the
    /// dispatch stops picking the wide build, the output stays correct and
    /// every other test passes. Here `apply` over a 16 KiB piece must beat
    /// the block-by-block loop in the same process by 1.3× (≈ 1.9× for the
    /// portable build, ≤ 1.0× when nothing is vectorised), and, where the
    /// CPU has AVX2, the portable build by 1.5× (2–3× measured).
    #[test]
    #[ignore = "timing: meaningful in --release only"]
    fn wide_path_beats_block_by_block() {
        use std::hint::black_box;
        let key = test_key();
        let nonce: Nonce = [5; 12];
        let mut piece = vec![0u8; 16 * 1024];
        let mut fastest = |pass: fn(&KeyBytes, u32, &Nonce, &mut [u8])| {
            (0..200)
                .map(|_| {
                    let start = std::time::Instant::now();
                    pass(black_box(&key), 0, &nonce, black_box(&mut piece));
                    start.elapsed()
                })
                .min()
                .expect("200 batches")
        };
        let [mut wide, mut scalar, mut portable] = [std::time::Duration::MAX; 3];
        // Alternate, so a slow phase of a shared box cannot fall on one side only.
        for _ in 0..5 {
            wide = wide.min(fastest(apply));
            scalar = scalar.min(fastest(block_by_block));
            portable = portable.min(fastest(|k, c, n, d| apply_with(xor_wide, k, c, n, d)));
        }
        let name = kernel();
        println!("per 16 KiB: apply ({name}) {wide:?}, portable build {portable:?}, block by block {scalar:?}");
        let ratio = scalar.as_secs_f64() / wide.as_secs_f64();
        assert!(
            ratio >= 1.3,
            "apply {wide:?} vs block-by-block {scalar:?} per 16 KiB: {ratio:.2}x"
        );
        if name == "portable" {
            println!("no AVX2 detected: skipped the dispatched-vs-portable check");
            return;
        }
        let ratio = portable.as_secs_f64() / wide.as_secs_f64();
        assert!(
            ratio >= 1.5,
            "apply ({name}) {wide:?} vs the portable build {portable:?} per 16 KiB: {ratio:.2}x"
        );
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let key = test_key();
        let nonce: Nonce = [7; 12];
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = data.clone();
        apply(&key, 0, &nonce, &mut buf);
        assert_ne!(buf, data, "ciphertext must differ from plaintext");
        apply(&key, 0, &nonce, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn wrong_key_does_not_decrypt() {
        let key = test_key();
        let mut wrong = key;
        wrong[0] ^= 1;
        let nonce: Nonce = [3; 12];
        let data = vec![0xAAu8; 256];
        let ct = apply_to_vec(&key, 0, &nonce, &data);
        let bad = apply_to_vec(&wrong, 0, &nonce, &ct);
        assert_ne!(bad, data);
    }

    #[test]
    fn empty_input_is_fine() {
        let key = test_key();
        let nonce: Nonce = [0; 12];
        let mut empty: Vec<u8> = Vec::new();
        apply(&key, 0, &nonce, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn non_multiple_of_block_size() {
        let key = test_key();
        let nonce: Nonce = [1; 12];
        for len in [1usize, 63, 64, 65, 127, 129] {
            let data = vec![0x55u8; len];
            let ct = apply_to_vec(&key, 0, &nonce, &data);
            assert_eq!(ct.len(), len);
            let pt = apply_to_vec(&key, 0, &nonce, &ct);
            assert_eq!(pt, data);
        }
    }
}
