//! A from-scratch ChaCha20 stream cipher (RFC 8439).
//!
//! T-Chain's almost-fair exchange rests on a *lightweight symmetric* cipher:
//! the donor encrypts each piece with a fresh key and withholds the key
//! until reciprocation (§II-B). §III-C argues the cost is negligible
//! ("0.715 ms per 128 KB piece"); `perfbench/` reports the same quantity for
//! this implementation as `crypto.mib_s` on `swarm_bulk`, and the `overhead`
//! figure (`tchain-experiments --bin overhead`) times it per piece size.
//!
//! Because encryption is XOR with a keystream, `apply` both encrypts and
//! decrypts. No external crypto crates are used.

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

/// Computes one 64-byte keystream block (the RFC 8439 `chacha20_block`
/// function).
pub fn block(key: &KeyBytes, counter: u32, nonce: &Nonce) -> [u8; 64] {
    let init = initial_state(key, counter, nonce);
    let mut s = init;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = s[i].wrapping_add(init[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs the ChaCha20 keystream into `data` in place, starting from block
/// `counter` (1 in RFC 8439's encryption examples; we use 0 for pieces).
///
/// Applying the function twice with the same parameters restores the input,
/// which is exactly the donor-withholds-the-key mechanism of §II-B: an
/// encrypted piece is useless until the matching key arrives.
pub fn apply(key: &KeyBytes, counter: u32, nonce: &Nonce, data: &mut [u8]) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(64) {
        let ks = block(key, ctr, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.wrapping_add(1);
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

    /// RFC 8439 §2.4.2 encryption test vector (first block of ciphertext).
    #[test]
    fn rfc8439_encryption_prefix() {
        let key = test_key();
        let nonce: Nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let ct = apply_to_vec(&key, 1, &nonce, plaintext);
        let expected_prefix: [u8; 16] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        assert_eq!(&ct[..16], &expected_prefix);
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
