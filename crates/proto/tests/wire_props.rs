//! Property tests (`tchain_sim::forall`) for the `proto::wire` codec:
//! every well-formed [`Message`] round-trips byte-exactly, and no byte
//! string — random, mutated, or truncated — can make the strict decoder
//! panic; it may only return a typed [`DecodeError`].

use tchain_proto::wire::{DecodeError, Message, KEY_WIRE_SIZE, MAX_CIPHERTEXT_LEN};
use tchain_proto::{Bitfield, PieceId};
use tchain_sim::{ensure, ensure_eq, forall, sized, NodeId, SimRng};

const CASES: u32 = 256;

/// Draws one message of a uniformly picked variant, spanning the full
/// accepted range of each field: ciphertext_len up to its protocol
/// bound, bitfields of 0..200 pieces in canonical packed form.
fn message(rng: &mut SimRng, size: usize) -> Message {
    let node = |rng: &mut SimRng| NodeId(rng.u64() as u32);
    let piece = |rng: &mut SimRng| PieceId(rng.u64() as u32);
    match rng.below(6) {
        0 => Message::PieceUpload {
            reciprocates: rng.chance(0.5).then(|| (piece(rng), node(rng))),
            piece: piece(rng),
            payee: rng.chance(0.5).then(|| node(rng)),
            ciphertext_len: rng.u64() as u32 % (MAX_CIPHERTEXT_LEN + 1),
        },
        1 => Message::ReceptionReport { requestor: node(rng), piece: piece(rng) },
        2 => {
            let mut key = [0u8; KEY_WIRE_SIZE];
            rng.fill(&mut key);
            Message::KeyRelease {
                piece: piece(rng),
                requestor: rng.chance(0.5).then(|| node(rng)),
                key,
            }
        }
        3 => Message::NeighborRequest { from: node(rng) },
        4 => Message::Have { piece: piece(rng) },
        _ => {
            let mut bf = Bitfield::new(sized(rng, size, 0, 200));
            for i in 0..bf.len() {
                if rng.chance(0.5) {
                    bf.set(PieceId(i as u32));
                }
            }
            Message::bitfield(&bf)
        }
    }
}

/// encode → decode is the identity, and `encoded_len` is exact.
#[test]
fn roundtrip_identity() {
    forall(0x1DE27, CASES, |rng, size| {
        let m = message(rng, size);
        let enc = m.encode();
        ensure_eq!(enc.len(), m.encoded_len());
        ensure_eq!(Message::decode(&enc), Ok(m));
        Ok(())
    });
}

/// Arbitrary byte soup never panics the decoder — it either parses
/// (re-encoding to the same canonical bytes) or errors.
#[test]
fn random_bytes_never_panic() {
    forall(0x50B9, CASES, |rng, size| {
        let mut bytes = vec![0u8; sized(rng, size, 0, 160)];
        rng.fill(&mut bytes);
        // Strict parsing means accepted bytes ARE the canonical
        // encoding: exactly one byte string per message value.
        if let Ok(m) = Message::decode(&bytes) {
            ensure_eq!(m.encode(), bytes);
        }
        Ok(())
    });
}

/// A single mutated byte in a valid encoding never panics; if it
/// still parses, it parses strictly (canonical re-encode).
#[test]
fn mutated_encodings_never_panic() {
    forall(0x3B7A7E, CASES, |rng, size| {
        let mut enc = message(rng, size).encode();
        let i = rng.below(enc.len());
        enc[i] ^= 1 + rng.below(255) as u8;
        if let Ok(dm) = Message::decode(&enc) {
            ensure_eq!(dm.encode(), enc);
        }
        Ok(())
    });
}

/// Every strict prefix of a valid encoding is rejected as truncated
/// (or, for an empty prefix, simply rejected) — never accepted.
#[test]
fn prefixes_rejected() {
    forall(0x92EF1, CASES, |rng, size| {
        let enc = message(rng, size).encode();
        let cut = rng.below(enc.len());
        ensure_eq!(Message::decode(&enc[..cut]), Err(DecodeError::Truncated), "cut {cut}");
        Ok(())
    });
}

/// Appending junk to a valid encoding is always rejected.
#[test]
fn suffixes_rejected() {
    forall(0x5FF1, CASES, |rng, size| {
        let mut enc = message(rng, size).encode();
        let mut junk = vec![0u8; sized(rng, size, 1, 16)];
        rng.fill(&mut junk);
        enc.extend_from_slice(&junk);
        ensure!(Message::decode(&enc).is_err());
        Ok(())
    });
}
