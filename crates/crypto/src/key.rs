//! Per-transaction key management for T-Chain.
//!
//! §II-B (footnote 2): "each key is used to encrypt only one file piece and
//! never used thereafter … using new keys ensures that the recipient cannot
//! guess the key from previous transactions." A donor's [`Keyring`] mints a
//! fresh random key per transaction (the `K^{ij}_{D,R}` of Table I) and
//! releases it only when the reciprocation report arrives.

use crate::chacha::{self, KeyBytes, Nonce};
use std::collections::HashMap;
use tchain_sim::SimRng;

/// Opaque handle naming a minted key without revealing it, e.g. inside a
/// simulated `[null | K[p]| payee]` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A 256-bit symmetric key together with the nonce used for its single
/// piece. Sent to the requestor only upon reciprocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceKey {
    key: KeyBytes,
    nonce: Nonce,
}

impl PieceKey {
    /// Encrypts (or, symmetrically, decrypts) `data` in place.
    pub fn apply(&self, data: &mut [u8]) {
        chacha::apply(&self.key, 0, &self.nonce, data);
    }

    /// Encrypts `data` into a new vector.
    pub fn apply_to_vec(&self, data: &[u8]) -> Vec<u8> {
        chacha::apply_to_vec(&self.key, 0, &self.nonce, data)
    }

    /// Serialized size in bytes of (key, nonce), used for the §III-C space
    /// overhead accounting and by the wire format's `KeyRelease` payload.
    pub const WIRE_SIZE: usize =
        std::mem::size_of::<KeyBytes>() + std::mem::size_of::<Nonce>();

    /// Serializes the key for a `KeyRelease` frame: `key ‖ nonce`.
    pub fn to_wire_bytes(&self) -> [u8; Self::WIRE_SIZE] {
        let mut out = [0u8; Self::WIRE_SIZE];
        out[..self.key.len()].copy_from_slice(&self.key);
        out[self.key.len()..].copy_from_slice(&self.nonce);
        out
    }

    /// Reconstructs a key from its `key ‖ nonce` wire form.
    pub fn from_wire_bytes(wire: &[u8; Self::WIRE_SIZE]) -> Self {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        key.copy_from_slice(&wire[..32]);
        nonce.copy_from_slice(&wire[32..]);
        PieceKey { key, nonce }
    }
}

/// A donor's collection of minted-but-unreleased piece keys.
///
/// ```
/// use tchain_crypto::Keyring;
/// let mut ring = Keyring::new(42);
/// let (id, key) = ring.mint();
/// let mut piece = b"some piece bytes".to_vec();
/// key.apply(&mut piece); // donor encrypts before uploading
/// // ...requestor reciprocates; payee reports; donor releases the key:
/// let released = ring.release(id).expect("key still held");
/// let mut back = piece.clone();
/// released.apply(&mut back);
/// assert_eq!(back, b"some piece bytes");
/// ```
#[derive(Debug)]
pub struct Keyring {
    rng: SimRng,
    next: u64,
    held: HashMap<KeyId, PieceKey>,
}

impl Keyring {
    /// Creates a keyring seeded for reproducible simulations.
    pub fn new(seed: u64) -> Self {
        Keyring { rng: SimRng::new(seed), next: 0, held: HashMap::new() }
    }

    /// Mints a fresh key, storing it until release.
    pub fn mint(&mut self) -> (KeyId, PieceKey) {
        let mut key = [0u8; 32];
        self.rng.fill(&mut key);
        let mut nonce = [0u8; 12];
        self.rng.fill(&mut nonce);
        let id = KeyId(self.next);
        self.next += 1;
        let pk = PieceKey { key, nonce };
        self.held.insert(id, pk);
        (id, pk)
    }

    /// Looks at a held key without releasing it.
    pub fn peek(&self, id: KeyId) -> Option<&PieceKey> {
        self.held.get(&id)
    }

    /// Releases (removes and returns) a key once reciprocation is reported.
    /// Returns `None` if the key was never minted or already released —
    /// double-release is how a colluding payee could try to replay reports,
    /// so callers should treat `None` as "nothing to send".
    pub fn release(&mut self, id: KeyId) -> Option<PieceKey> {
        self.held.remove(&id)
    }

    /// Number of keys minted so far.
    pub fn minted(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_release_roundtrip() {
        let mut ring = Keyring::new(1);
        let (id, k) = ring.mint();
        let data = vec![1u8, 2, 3, 4, 5];
        let ct = k.apply_to_vec(&data);
        assert_ne!(ct, data);
        let released = ring.release(id).unwrap();
        assert_eq!(released.apply_to_vec(&ct), data);
    }

    #[test]
    fn double_release_returns_none() {
        let mut ring = Keyring::new(2);
        let (id, _) = ring.mint();
        assert!(ring.release(id).is_some());
        assert!(ring.release(id).is_none());
    }

    #[test]
    fn keys_are_unique_per_transaction() {
        let mut ring = Keyring::new(3);
        let (a_id, a) = ring.mint();
        let (b_id, b) = ring.mint();
        assert_ne!(a_id, b_id);
        assert_ne!(a, b, "fresh key material every transaction (§II-B fn.2)");
    }

    #[test]
    fn different_seeds_different_keys() {
        let (_, a) = Keyring::new(10).mint();
        let (_, b) = Keyring::new(11).mint();
        assert_ne!(a, b);
    }

    #[test]
    fn wire_size_matches_space_overhead_model() {
        // §III-C3: 256-bit keys; our wire size also carries the 96-bit nonce.
        assert_eq!(PieceKey::WIRE_SIZE, 44);
    }

    #[test]
    fn wire_bytes_roundtrip_preserves_keystream() {
        let (_, k) = Keyring::new(7).mint();
        let back = PieceKey::from_wire_bytes(&k.to_wire_bytes());
        assert_eq!(back, k);
        let data = b"piece bytes over the wire".to_vec();
        assert_eq!(back.apply_to_vec(&k.apply_to_vec(&data)), data);
    }

    #[test]
    fn seed_42_first_key_known_answer() {
        // Two `SimRng::fill`s per mint: 32 key bytes (four words), then a
        // 12-byte nonce (one word plus a 32-bit draw). Every `PieceData`
        // body on the wire is a function of these bytes.
        let (_, k) = Keyring::new(42).mint();
        let expected: [u8; PieceKey::WIRE_SIZE] = [
            0x9f, 0x68, 0x76, 0x44, 0x4f, 0x4d, 0x76, 0xd0, 0x91, 0x37, 0x6f, 0x57, 0x74, 0x41,
            0x9e, 0x51, 0x8c, 0xed, 0x24, 0x0c, 0xfb, 0x7c, 0xe0, 0xfb, 0xb8, 0x35, 0xd8, 0x0c,
            0x60, 0x9f, 0x7d, 0xb3, 0x73, 0x6a, 0x84, 0x74, 0x38, 0x1c, 0x23, 0xcb, 0x00, 0x9f,
            0x8d, 0x96,
        ];
        assert_eq!(k.to_wire_bytes(), expected);
    }
}
