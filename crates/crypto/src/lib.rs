//! # tchain-crypto — symmetric primitives for the almost-fair exchange
//!
//! T-Chain's enforcement mechanism is cryptographic but deliberately
//! lightweight: a donor uploads a piece encrypted under a fresh symmetric
//! key and releases the key only after the designated payee confirms
//! reciprocation (paper §II-B). This crate provides:
//!
//! * [`chacha`] — a from-scratch ChaCha20 stream cipher (RFC 8439, with the
//!   RFC's test vectors), used both by the real-bytes examples and by the
//!   §III-C overhead benchmarks;
//! * [`Keyring`]/[`PieceKey`]/[`KeyId`] — per-transaction key management
//!   with the "one key per piece, never reused" policy of §II-B.
//!
//! The fluid simulator (`tchain-core`) moves *accounting* rather than
//! real bytes and holds no key material: a transaction records only
//! whether its piece was encrypted. The wire runtime (`tchain-net`) moves
//! real bytes and mints real keys through [`Keyring`], so the
//! exchange-protocol invariants (no decryption before release, unique
//! keys, replayed-release detection) are enforced by the same code a real
//! client would run.

// Denied, not forbidden: `chacha`'s kernel dispatch is the one function
// allowed `unsafe`, for its two calls into builds of the kernel compiled
// for a run-time-detected CPU feature.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod chacha;
mod key;

pub use chacha::{apply, apply_to_vec, block, KeyBytes, Nonce};
pub use key::{KeyId, Keyring, PieceKey};
