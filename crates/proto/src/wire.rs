//! Wire format for T-Chain's control messages.
//!
//! The simulator moves accounting rather than bytes, but a deployable
//! client needs a concrete encoding of Fig. 1's messages — and §III-C's
//! overhead argument rests on reports and keys being tiny next to 64 KB
//! pieces. This module pins those sizes down: a fixed little-endian
//! header plus payload, with strict parsing — trailing bytes, oversized
//! length fields and non-canonical flag bytes are all rejected with a
//! typed [`DecodeError`], never a panic.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0]      message tag
//! [1..]    per-message fields (see each variant)
//! ```

use crate::{Bitfield, PieceId};
use tchain_sim::NodeId;

/// Size in bytes of a key-release payload (256-bit key + 96-bit nonce),
/// derived from the crypto crate's key/nonce sizes so the wire format can
/// never drift from the cipher.
pub const KEY_WIRE_SIZE: usize = tchain_crypto::PieceKey::WIRE_SIZE;

/// Upper bound on `ciphertext_len` a decoder will accept: 16 MiB, far
/// above the paper's 64–256 KB pieces but small enough that a hostile
/// header cannot make a receiver reserve gigabytes.
pub const MAX_CIPHERTEXT_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on the piece count a [`Message::Bitfield`] may declare
/// (2^20 pieces of 64 KB is a 64 GiB file — beyond any scenario here).
pub const MAX_BITFIELD_PIECES: u32 = 1 << 20;

/// A T-Chain control message (Fig. 1, Table I) plus the availability
/// gossip (`Have`/`Bitfield`) the §II-A swarm mechanics assume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// `[(i(j−1), D_{j−1}) | K[p_ij] | P_j]` — an (encrypted) piece
    /// upload header. The ciphertext itself travels out of band (it *is*
    /// the bulk transfer); this header carries the protocol fields.
    PieceUpload {
        /// Which earlier transaction this upload reciprocates, if any:
        /// `(piece, donor)` of the previous transaction.
        reciprocates: Option<(PieceId, NodeId)>,
        /// The piece being uploaded.
        piece: PieceId,
        /// The payee the recipient must reciprocate to; `None` means the
        /// upload is unencrypted and the chain terminates (§II-B3).
        payee: Option<NodeId>,
        /// Ciphertext length in bytes (for accounting/validation).
        ciphertext_len: u32,
    },
    /// `r_P = [R | i]` — the payee's reception report to the donor.
    ReceptionReport {
        /// Who reciprocated (the requestor being vouched for).
        requestor: NodeId,
        /// The piece the report covers.
        piece: PieceId,
    },
    /// The donor's key release to the requestor, or — when `requestor`
    /// is set — a §II-B4 escrow message: a departing donor entrusting
    /// the key for its transaction *with that requestor* to the payee,
    /// or the payee forwarding it once the reciprocation arrives.
    /// Without the marker a payee holding keys for several transactions
    /// of the same `(donor, piece)` could not tell them apart.
    KeyRelease {
        /// The piece the key decrypts.
        piece: PieceId,
        /// The requestor of the transaction the key belongs to, for
        /// escrow handoffs/forwards; `None` for a direct release (the
        /// recipient *is* the requestor).
        requestor: Option<NodeId>,
        /// Raw key material (key ‖ nonce).
        key: [u8; KEY_WIRE_SIZE],
    },
    /// `B → P`: neighboring request sent before reciprocating to a payee
    /// that is not yet a neighbor (§II-B1).
    NeighborRequest {
        /// The requesting peer.
        from: NodeId,
    },
    /// Availability gossip: the sender completed (and, under T-Chain,
    /// decrypted) one piece.
    Have {
        /// The newly completed piece.
        piece: PieceId,
    },
    /// Handshake/availability gossip: the sender's full piece set, packed
    /// LSB-first with zero padding bits (non-canonical padding rejected).
    Bitfield {
        /// Total number of pieces in the file.
        pieces: u32,
        /// `ceil(pieces/8)` packed bytes.
        bits: Vec<u8>,
    },
}

const TAG_PIECE_UPLOAD: u8 = 1;
const TAG_RECEPTION_REPORT: u8 = 2;
const TAG_KEY_RELEASE: u8 = 3;
const TAG_NEIGHBOR_REQUEST: u8 = 4;
const TAG_HAVE: u8 = 5;
const TAG_BITFIELD: u8 = 6;

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer was shorter than the message demands.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// A length field exceeded its protocol bound.
    Oversized {
        /// Which field overflowed.
        field: &'static str,
        /// The declared value.
        got: u64,
        /// The protocol bound it violated.
        max: u64,
    },
    /// A non-canonical encoding: a flag byte other than 0/1, or a set
    /// padding bit in a bitfield.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            DecodeError::Oversized { field, got, max } => {
                write!(f, "{field} = {got} exceeds protocol bound {max}")
            }
            DecodeError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Read cursor over a message buffer: every read is bounds-checked, and
/// running out of bytes is [`DecodeError::Truncated`].
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("flag byte must be 0 or 1")),
        }
    }
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Writes a presence flag, then the node id when there is one.
fn put_opt_node(b: &mut Vec<u8>, node: Option<NodeId>) {
    match node {
        Some(n) => {
            b.push(1);
            put_u32(b, n.0);
        }
        None => b.push(0),
    }
}

impl Message {
    /// Builds a [`Message::Bitfield`] from a piece set.
    pub fn bitfield(bf: &Bitfield) -> Message {
        Message::Bitfield { pieces: bf.len() as u32, bits: bf.to_packed_bytes() }
    }

    /// Encodes the message into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut b);
        b
    }

    /// Appends the encoding to `b`.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match *self {
            Message::PieceUpload { reciprocates, piece, payee, ciphertext_len } => {
                b.push(TAG_PIECE_UPLOAD);
                match reciprocates {
                    Some((p, d)) => {
                        b.push(1);
                        put_u32(b, p.0);
                        put_u32(b, d.0);
                    }
                    None => b.push(0),
                }
                put_u32(b, piece.0);
                put_opt_node(b, payee);
                put_u32(b, ciphertext_len);
            }
            Message::ReceptionReport { requestor, piece } => {
                b.push(TAG_RECEPTION_REPORT);
                put_u32(b, requestor.0);
                put_u32(b, piece.0);
            }
            Message::KeyRelease { piece, requestor, ref key } => {
                b.push(TAG_KEY_RELEASE);
                put_u32(b, piece.0);
                put_opt_node(b, requestor);
                b.extend_from_slice(key);
            }
            Message::NeighborRequest { from } => {
                b.push(TAG_NEIGHBOR_REQUEST);
                put_u32(b, from.0);
            }
            Message::Have { piece } => {
                b.push(TAG_HAVE);
                put_u32(b, piece.0);
            }
            Message::Bitfield { pieces, ref bits } => {
                b.push(TAG_BITFIELD);
                put_u32(b, pieces);
                b.extend_from_slice(bits);
            }
        }
    }

    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::PieceUpload { reciprocates, payee, .. } => {
                1 + 1
                    + if reciprocates.is_some() { 8 } else { 0 }
                    + 4
                    + 1
                    + if payee.is_some() { 4 } else { 0 }
                    + 4
            }
            Message::ReceptionReport { .. } => 1 + 8,
            Message::KeyRelease { requestor, .. } => {
                1 + 4 + 1 + if requestor.is_some() { 4 } else { 0 } + KEY_WIRE_SIZE
            }
            Message::NeighborRequest { .. } => 1 + 4,
            Message::Have { .. } => 1 + 4,
            Message::Bitfield { bits, .. } => 1 + 4 + bits.len(),
        }
    }

    /// Decodes a message, rejecting truncated, over-long, oversized or
    /// non-canonical buffers.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the buffer is malformed.
    pub fn decode(buf: &[u8]) -> Result<Message, DecodeError> {
        let mut buf = Cursor(buf);
        let msg = match buf.u8()? {
            TAG_PIECE_UPLOAD => {
                let reciprocates = if buf.flag()? {
                    Some((PieceId(buf.u32()?), NodeId(buf.u32()?)))
                } else {
                    None
                };
                let piece = PieceId(buf.u32()?);
                let payee = if buf.flag()? { Some(NodeId(buf.u32()?)) } else { None };
                let ciphertext_len = buf.u32()?;
                if ciphertext_len > MAX_CIPHERTEXT_LEN {
                    return Err(DecodeError::Oversized {
                        field: "ciphertext_len",
                        got: u64::from(ciphertext_len),
                        max: u64::from(MAX_CIPHERTEXT_LEN),
                    });
                }
                Message::PieceUpload { reciprocates, piece, payee, ciphertext_len }
            }
            TAG_RECEPTION_REPORT => Message::ReceptionReport {
                requestor: NodeId(buf.u32()?),
                piece: PieceId(buf.u32()?),
            },
            TAG_KEY_RELEASE => {
                let piece = PieceId(buf.u32()?);
                let requestor = if buf.flag()? { Some(NodeId(buf.u32()?)) } else { None };
                let mut key = [0u8; KEY_WIRE_SIZE];
                key.copy_from_slice(buf.take(KEY_WIRE_SIZE)?);
                Message::KeyRelease { piece, requestor, key }
            }
            TAG_NEIGHBOR_REQUEST => Message::NeighborRequest { from: NodeId(buf.u32()?) },
            TAG_HAVE => Message::Have { piece: PieceId(buf.u32()?) },
            TAG_BITFIELD => {
                let pieces = buf.u32()?;
                if pieces > MAX_BITFIELD_PIECES {
                    return Err(DecodeError::Oversized {
                        field: "bitfield pieces",
                        got: u64::from(pieces),
                        max: u64::from(MAX_BITFIELD_PIECES),
                    });
                }
                let bits = buf.take((pieces as usize).div_ceil(8))?.to_vec();
                // Reject set padding bits so every piece set has exactly
                // one encoding (Bitfield::from_packed_bytes re-checks).
                if Bitfield::from_packed_bytes(pieces as usize, &bits).is_none() {
                    return Err(DecodeError::Malformed("bitfield padding bits set"));
                }
                Message::Bitfield { pieces, bits }
            }
            t => return Err(DecodeError::UnknownTag(t)),
        };
        if !buf.0.is_empty() {
            return Err(DecodeError::TrailingBytes(buf.0.len()));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let enc = m.encode();
        assert_eq!(enc.len(), m.encoded_len());
        assert_eq!(Message::decode(&enc).expect("decode"), m);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::PieceUpload {
            reciprocates: Some((PieceId(7), NodeId(3))),
            piece: PieceId(99),
            payee: Some(NodeId(12)),
            ciphertext_len: 65536,
        });
        roundtrip(Message::PieceUpload {
            reciprocates: None,
            piece: PieceId(0),
            payee: None,
            ciphertext_len: 65536,
        });
        roundtrip(Message::ReceptionReport { requestor: NodeId(1), piece: PieceId(2) });
        roundtrip(Message::KeyRelease {
            piece: PieceId(3),
            requestor: None,
            key: [0xAB; KEY_WIRE_SIZE],
        });
        roundtrip(Message::KeyRelease {
            piece: PieceId(3),
            requestor: Some(NodeId(8)),
            key: [0xCD; KEY_WIRE_SIZE],
        });
        roundtrip(Message::NeighborRequest { from: NodeId(42) });
        roundtrip(Message::Have { piece: PieceId(17) });
        let mut bf = Bitfield::new(21);
        bf.set(PieceId(0));
        bf.set(PieceId(20));
        roundtrip(Message::bitfield(&bf));
    }

    #[test]
    fn key_wire_size_tracks_crypto_crate() {
        assert_eq!(KEY_WIRE_SIZE, tchain_crypto::PieceKey::WIRE_SIZE);
        assert_eq!(KEY_WIRE_SIZE, 44);
    }

    #[test]
    fn control_messages_are_tiny_next_to_pieces() {
        // §III-C2: "the reception report and the key uploaded are very
        // small in size compared to file pieces".
        let report = Message::ReceptionReport { requestor: NodeId(1), piece: PieceId(2) };
        let key = Message::KeyRelease {
            piece: PieceId(3),
            requestor: Some(NodeId(7)),
            key: [0; KEY_WIRE_SIZE],
        };
        let piece_bytes = 64.0 * 1024.0;
        assert!((report.encoded_len() as f64) < piece_bytes * 0.001);
        assert!((key.encoded_len() as f64) < piece_bytes * 0.001);
    }

    #[test]
    fn truncated_rejected() {
        let m = Message::KeyRelease {
            piece: PieceId(3),
            requestor: Some(NodeId(4)),
            key: [1; KEY_WIRE_SIZE],
        };
        let enc = m.encode();
        for cut in 0..enc.len() {
            assert_eq!(Message::decode(&enc[..cut]), Err(DecodeError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Message::NeighborRequest { from: NodeId(5) }.encode();
        enc.push(0);
        assert_eq!(Message::decode(&enc), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::decode(&[200]), Err(DecodeError::UnknownTag(200)));
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn oversized_ciphertext_rejected() {
        let mut enc = Message::PieceUpload {
            reciprocates: None,
            piece: PieceId(1),
            payee: None,
            ciphertext_len: 0,
        }
        .encode();
        let n = enc.len();
        enc[n - 4..].copy_from_slice(&(MAX_CIPHERTEXT_LEN + 1).to_le_bytes());
        assert!(matches!(
            Message::decode(&enc),
            Err(DecodeError::Oversized { field: "ciphertext_len", .. })
        ));
        // The bound itself is accepted.
        enc[n - 4..].copy_from_slice(&MAX_CIPHERTEXT_LEN.to_le_bytes());
        assert!(Message::decode(&enc).is_ok());
    }

    #[test]
    fn oversized_bitfield_rejected() {
        let mut enc = vec![6u8];
        enc.extend_from_slice(&(MAX_BITFIELD_PIECES + 1).to_le_bytes());
        assert!(matches!(
            Message::decode(&enc),
            Err(DecodeError::Oversized { field: "bitfield pieces", .. })
        ));
    }

    #[test]
    fn noncanonical_flag_rejected() {
        let mut enc = Message::PieceUpload {
            reciprocates: None,
            piece: PieceId(1),
            payee: None,
            ciphertext_len: 8,
        }
        .encode();
        enc[1] = 2; // reciprocates flag must be 0/1
        assert_eq!(Message::decode(&enc), Err(DecodeError::Malformed("flag byte must be 0 or 1")));
    }

    #[test]
    fn bitfield_padding_bits_rejected() {
        let mut enc = vec![6u8];
        enc.extend_from_slice(&9u32.to_le_bytes());
        enc.extend_from_slice(&[0x00, 0x02]); // bit 9 set, but pieces = 9
        assert_eq!(Message::decode(&enc), Err(DecodeError::Malformed("bitfield padding bits set")));
    }

    #[test]
    fn decode_error_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "message truncated");
        assert_eq!(DecodeError::UnknownTag(9).to_string(), "unknown message tag 9");
        assert_eq!(DecodeError::TrailingBytes(2).to_string(), "2 trailing bytes after message");
        assert_eq!(
            DecodeError::Oversized { field: "ciphertext_len", got: 99, max: 10 }.to_string(),
            "ciphertext_len = 99 exceeds protocol bound 10"
        );
        assert_eq!(
            DecodeError::Malformed("bad").to_string(),
            "malformed message: bad"
        );
    }
}
