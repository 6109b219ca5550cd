//! Length-prefixed, checksummed framing over the `proto::wire` control
//! encoding.
//!
//! Every transport moves [`Frame`]s: either a control message (the Fig. 1
//! protocol headers, §III-C-small by construction) or a [`Frame::PieceData`]
//! bulk frame carrying a genuinely ChaCha20-encrypted piece. The stream
//! layout is
//!
//! ```text
//! [u32 body_len LE] [u8 kind] [u32 checksum LE] [body …]
//! ```
//!
//! with `kind` 1 = control (body is a strict [`Message`] encoding) and
//! `kind` 2 = piece data (`[u32 piece LE][payload]`); kinds 3 and 4 are
//! their [`CausalMeta`]-stamped twins. The checksum is the crate's one
//! [`digest`] over the body, seeded with `kind` and folded to 32 bits
//! (see [`frame_checksum`]); it exists because byzantine corruption of
//! some payloads — a flipped bit in a `KeyRelease` key, say — would
//! otherwise be *silently absorbed* into a requestor's XOR work buffer
//! and could never be detected or undone. With the checksum, a mutation
//! of bytes in flight surfaces as a typed [`FrameError`], letting the
//! receiver reject the frame, strike the sender, and recover through
//! normal re-donation paths. The header is part of the wire image, so the
//! checksum function is frozen with it: changing it moves every swarm
//! fingerprint (the harness folds encoded frames).
//!
//! [`FrameDecoder`] is incremental — it accepts arbitrary byte fragments
//! (as a TCP socket produces them) and yields complete frames — and
//! strict: oversized lengths, unknown kinds, checksum mismatches and
//! malformed control bodies are typed errors, never panics.

use crate::content::digest;
use std::io::Read;
use tchain_proto::wire::{DecodeError, Message, MAX_CIPHERTEXT_LEN};
use tchain_proto::PieceId;

/// Bytes of `[len][kind][checksum]` preceding every frame body.
pub const FRAME_HEADER_LEN: usize = 9;

/// Upper bound on a frame body: the ciphertext bound plus slack for the
/// piece-data header and the largest control message.
pub const MAX_FRAME_BODY: u32 = MAX_CIPHERTEXT_LEN + 1024;

const KIND_CONTROL: u8 = 1;
const KIND_PIECE_DATA: u8 = 2;
const KIND_CONTROL_META: u8 = 3;
const KIND_PIECE_META: u8 = 4;

/// Encoded size of a [`CausalMeta`] block.
pub const CAUSAL_META_LEN: usize = 20;

/// Optional causal telemetry stamp carried in front of a frame body.
///
/// Kinds 3 and 4 are the meta-bearing twins of the control and
/// piece-data kinds: their body is `[origin u32][lamport u64][span u64]`
/// (all LE) followed by the ordinary inner body. Telemetry-disabled
/// peers emit kinds 1 and 2, so the wire image of a disabled run is
/// byte-identical to one built before this header existed; the checksum
/// covers the meta block too, so the bit-flip fuzz guarantee extends to
/// these kinds unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalMeta {
    /// Sending peer.
    pub origin: u32,
    /// Sender's Lamport clock at send time.
    pub lamport: u64,
    /// Packed transaction span the frame belongs to (0 = none).
    pub span: u64,
}

impl CausalMeta {
    /// The 20-byte LE encoding.
    pub fn to_bytes(&self) -> [u8; CAUSAL_META_LEN] {
        let mut b = [0u8; CAUSAL_META_LEN];
        b[..4].copy_from_slice(&self.origin.to_le_bytes());
        b[4..12].copy_from_slice(&self.lamport.to_le_bytes());
        b[12..].copy_from_slice(&self.span.to_le_bytes());
        b
    }

    /// Decode from exactly [`CAUSAL_META_LEN`] bytes.
    fn from_bytes(b: &[u8]) -> Self {
        CausalMeta {
            origin: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            lamport: u64::from_le_bytes([b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11]]),
            span: u64::from_le_bytes([b[12], b[13], b[14], b[15], b[16], b[17], b[18], b[19]]),
        }
    }
}

/// The header checksum: [`digest`] of the body seeded with `kind`, its
/// two halves folded into the 4-byte header field.
///
/// Not cryptographic — a *strategic* adversary (large-view free-riders,
/// whitewashers, Sybil groups, collusion rings) is modelled at the
/// protocol layer by the [`crate::strategy`] adversary engine, not the
/// codec. The checksum's job is to make in-flight mutation (bit
/// flips, truncation splices) detectable with near certainty so it can be
/// handled as an explicit reject instead of silent state corruption.
///
/// The guarantee, precisely: the 64-bit digest tells any two bodies that
/// differ in one word apart, but the fold to 32 bits keeps that only with
/// probability 1 − 2⁻³². The 32-bit xor-multiply checksum this replaced
/// took one bijective step per byte and so caught a single-byte
/// substitution with certainty; every mutation touching more than one
/// byte it caught with the same 1 − 2⁻³² this function gives all of them.
pub fn frame_checksum(kind: u8, body: &[u8]) -> u32 {
    let h = digest(u64::from(kind), body);
    (h ^ (h >> 32)) as u32
}

/// One unit of transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A protocol control message.
    Control(Message),
    /// The encrypted (or, for a §II-B3 termination upload, plaintext)
    /// bytes of one piece. Always preceded on the same link by the
    /// [`Message::PieceUpload`] header that describes it.
    PieceData {
        /// Which piece the payload carries.
        piece: PieceId,
        /// The (usually encrypted) piece bytes.
        payload: Vec<u8>,
    },
}

/// Errors from the framing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeded [`MAX_FRAME_BODY`].
    Oversized {
        /// Declared body length.
        got: u32,
    },
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// The header checksum did not match the received body.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u32,
        /// Checksum computed over the received kind + body.
        got: u32,
    },
    /// A control body failed strict decoding.
    Control(DecodeError),
    /// A piece-data body was shorter than its own header.
    TruncatedBody,
    /// The stream ended (connection reset) inside a frame.
    TruncatedStream,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { got } => {
                write!(f, "frame body {got} exceeds bound {MAX_FRAME_BODY}")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::ChecksumMismatch { expected, got } => {
                write!(f, "frame checksum mismatch: header {expected:#010x}, body {got:#010x}")
            }
            FrameError::Control(e) => write!(f, "control frame: {e}"),
            FrameError::TruncatedBody => write!(f, "piece-data body truncated"),
            FrameError::TruncatedStream => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Control(e)
    }
}

impl Frame {
    /// Appends the framed encoding (`[len][kind][checksum][body]`) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_with_meta_into(None, out);
    }

    /// The framed encoding as a fresh vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_meta(None)
    }

    /// Exact framed size in bytes, header included.
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER_LEN
            + match self {
                Frame::Control(msg) => msg.encoded_len(),
                Frame::PieceData { payload, .. } => 4 + payload.len(),
            }
    }

    /// Appends the framed encoding with an optional [`CausalMeta`] stamp:
    /// the one encoder. The body is written straight into `out` behind a
    /// reserved header, which is patched once the body can be checksummed
    /// where it lies.
    ///
    /// `None` yields the same bytes as a telemetry-unaware sender, which
    /// is what keeps disabled runs bit-identical on the wire.
    pub fn encode_with_meta_into(&self, meta: Option<&CausalMeta>, out: &mut Vec<u8>) {
        let kind = match (self, meta) {
            (Frame::Control(_), None) => KIND_CONTROL,
            (Frame::PieceData { .. }, None) => KIND_PIECE_DATA,
            (Frame::Control(_), Some(_)) => KIND_CONTROL_META,
            (Frame::PieceData { .. }, Some(_)) => KIND_PIECE_META,
        };
        let start = out.len();
        out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        if let Some(meta) = meta {
            out.extend_from_slice(&meta.to_bytes());
        }
        match self {
            Frame::Control(msg) => msg.encode_into(out),
            Frame::PieceData { piece, payload } => {
                out.extend_from_slice(&piece.0.to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
        let (header, body) = out[start..].split_at_mut(FRAME_HEADER_LEN);
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4] = kind;
        header[5..].copy_from_slice(&frame_checksum(kind, body).to_le_bytes());
    }

    /// The meta-stamped framed encoding as a fresh vector.
    pub fn encode_with_meta(&self, meta: Option<&CausalMeta>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_with_meta(meta.is_some()));
        self.encode_with_meta_into(meta, &mut out);
        out
    }

    /// Exact framed size with or without a meta stamp.
    pub fn encoded_len_with_meta(&self, has_meta: bool) -> usize {
        self.encoded_len() + if has_meta { CAUSAL_META_LEN } else { 0 }
    }
}

/// Incremental strict frame parser over a byte stream.
///
/// The buffer is kept initialised to its whole length so a socket can
/// read straight into the room behind the live bytes `buf[head..tail]`.
/// It grows to what the frame at the front needs and no further, and
/// rewinds to the start whenever it runs empty, so a sustained stream
/// neither reallocates nor moves bytes per frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed as frames.
    head: usize,
    /// End of the bytes received so far.
    tail: usize,
}

/// Least room [`FrameDecoder::read_from`] offers a read: what an idle
/// link's buffer stays at.
const MIN_READ: usize = 4096;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes `buf[tail..]` at least `room` bytes long, sliding the live
    /// bytes to the front before growing the buffer.
    fn make_room(&mut self, room: usize) {
        if self.buf.len() - self.tail >= room {
            return;
        }
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.tail < room {
            self.buf.resize(self.tail + room, 0);
        }
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.tail..self.tail + bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Reads once from `src` straight into the buffer and returns the
    /// byte count, `Ok(0)` meaning end of stream. The room offered is
    /// what the frame at the front still lacks (bounded by
    /// [`MAX_FRAME_BODY`], whatever the length prefix claims), so a
    /// caller that decodes after every read holds about one frame.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns, `WouldBlock` included.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let avail = &self.buf[self.head..self.tail];
        let lacking = avail.first_chunk::<4>().map_or(0, |len| {
            let body = u32::from_le_bytes(*len).min(MAX_FRAME_BODY) as usize;
            (FRAME_HEADER_LEN + body).saturating_sub(avail.len())
        });
        self.make_room(lacking.max(MIN_READ));
        let n = src.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed. After an `Err` the stream is corrupt and the caller should
    /// drop the connection (strict framing has no resync point).
    ///
    /// Discards any [`CausalMeta`] stamp; telemetry-aware receivers use
    /// [`FrameDecoder::next_frame_meta`].
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on an oversized, unknown, corrupt or
    /// malformed frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self.next_frame_meta()?.map(|(frame, _)| frame))
    }

    /// Pops the next complete frame together with its [`CausalMeta`]
    /// stamp, if the sender attached one.
    ///
    /// Header fields are validated as soon as their bytes arrive — an
    /// oversized length prefix is rejected after 4 bytes, before any
    /// allocation for the claimed body.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on an oversized, unknown, corrupt or
    /// malformed frame.
    pub fn next_frame_meta(&mut self) -> Result<Option<(Frame, Option<CausalMeta>)>, FrameError> {
        let avail = &self.buf[self.head..self.tail];
        if avail.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if body_len > MAX_FRAME_BODY {
            return Err(FrameError::Oversized { got: body_len });
        }
        if avail.len() < 5 {
            return Ok(None);
        }
        let kind = avail[4];
        if !(KIND_CONTROL..=KIND_PIECE_META).contains(&kind) {
            return Err(FrameError::UnknownKind(kind));
        }
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let expected = u32::from_le_bytes([avail[5], avail[6], avail[7], avail[8]]);
        let total = FRAME_HEADER_LEN + body_len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let body = &avail[FRAME_HEADER_LEN..total];
        let got = frame_checksum(kind, body);
        if got != expected {
            return Err(FrameError::ChecksumMismatch { expected, got });
        }
        let (meta, inner) = if kind == KIND_CONTROL_META || kind == KIND_PIECE_META {
            if body.len() < CAUSAL_META_LEN {
                return Err(FrameError::TruncatedBody);
            }
            (
                Some(CausalMeta::from_bytes(&body[..CAUSAL_META_LEN])),
                &body[CAUSAL_META_LEN..],
            )
        } else {
            (None, body)
        };
        let frame = match kind {
            KIND_CONTROL | KIND_CONTROL_META => Frame::Control(Message::decode(inner)?),
            _ => {
                if inner.len() < 4 {
                    return Err(FrameError::TruncatedBody);
                }
                let piece = PieceId(u32::from_le_bytes([inner[0], inner[1], inner[2], inner[3]]));
                Frame::PieceData { piece, payload: inner[4..].to_vec() }
            }
        };
        self.head += total;
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        Ok(Some((frame, meta)))
    }

    /// Drains every complete frame currently buffered into `out`, in
    /// stream order, each paired with its [`CausalMeta`] stamp if any.
    ///
    /// This is the batched-dispatch entry: one transport poll can land
    /// several frames (merged reads), a frame can straddle two reads
    /// (split reads), and meta-stamped frames can interleave plain ones
    /// mid-batch — the drain decodes exactly as many whole frames as
    /// the buffer holds and leaves any trailing partial frame buffered
    /// for the next poll. Equivalent to calling
    /// [`FrameDecoder::next_frame_meta`] in a loop.
    ///
    /// # Errors
    ///
    /// On a malformed frame, returns the same typed [`FrameError`] the
    /// incremental path would; frames decoded before the bad one are
    /// already in `out` (the caller processes them, then drops the
    /// connection — strict framing has no resync point).
    pub fn drain_frames(
        &mut self,
        out: &mut Vec<(Frame, Option<CausalMeta>)>,
    ) -> Result<(), FrameError> {
        while let Some(item) = self.next_frame_meta()? {
            out.push(item);
        }
        Ok(())
    }

    /// Declares the stream finished (peer closed or reset the link).
    ///
    /// Returns `Err(TruncatedStream)` if bytes of an incomplete frame are
    /// still buffered — the frame can never complete and the caller should
    /// treat the tail as corruption.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buffered() == 0 {
            Ok(())
        } else {
            Err(FrameError::TruncatedStream)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_sim::NodeId;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Control(Message::NeighborRequest { from: NodeId(9) }),
            Frame::PieceData { piece: PieceId(3), payload: vec![0xAA; 257] },
            Frame::Control(Message::ReceptionReport { requestor: NodeId(1), piece: PieceId(2) }),
            Frame::PieceData { piece: PieceId(0), payload: Vec::new() },
        ]
    }

    #[test]
    fn stream_roundtrip_byte_at_a_time() {
        let fs = frames();
        let mut stream = Vec::new();
        for f in &fs {
            assert_eq!(f.encode().len(), f.encoded_len());
            f.encode_into(&mut stream);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got, fs);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.finish(), Ok(()));
    }

    #[test]
    fn the_in_place_checksum_is_frame_checksum_of_the_body_for_all_four_kinds() {
        let meta = CausalMeta { origin: 7, lamport: 0x1234_5678_9ABC, span: 42 };
        let mut kinds = Vec::new();
        // Behind other bytes, so the header is patched at an offset.
        let mut out = vec![0xEE; 5];
        for f in frames() {
            for meta in [None, Some(&meta)] {
                let start = out.len();
                f.encode_with_meta_into(meta, &mut out);
                let enc = &out[start..];
                assert_eq!(enc, f.encode_with_meta(meta));
                assert_eq!(enc.len(), f.encoded_len_with_meta(meta.is_some()));
                let body = &enc[FRAME_HEADER_LEN..];
                assert_eq!(enc[..4], (body.len() as u32).to_le_bytes());
                assert_eq!(enc[5..FRAME_HEADER_LEN], frame_checksum(enc[4], body).to_le_bytes());
                kinds.push(enc[4]);
            }
        }
        assert_eq!(out[..5], [0xEE; 5]);
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, [KIND_CONTROL, KIND_PIECE_DATA, KIND_CONTROL_META, KIND_PIECE_META]);
    }

    /// Decodes `wire` as one whole stream; a frame that never completes
    /// counts as the truncation `finish` reports.
    fn decode_whole(wire: &[u8]) -> Result<Frame, FrameError> {
        let mut dec = FrameDecoder::new();
        dec.push(wire);
        match dec.next_frame()? {
            Some(frame) => Ok(frame),
            None => Err(dec.finish().expect_err("an incomplete frame is buffered")),
        }
    }

    #[test]
    fn the_digest_mutation_suite_holds_through_the_decoder() {
        // content.rs's suite, on the body of a 1 KiB piece frame: each
        // mutant goes out under the original checksum with a length
        // prefix that matches it, so only the checksum can object.
        let payload = crate::Content::new(0xB17, 2, 1024).piece(1);
        let enc = Frame::PieceData { piece: PieceId(1), payload }.encode();
        let (header, body) = enc.split_at(FRAME_HEADER_LEN);
        let expect_mismatch = |mutant: &[u8], what: &str| {
            let mut wire = (mutant.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&header[4..]);
            wire.extend_from_slice(mutant);
            let got = decode_whole(&wire);
            assert!(matches!(got, Err(FrameError::ChecksumMismatch { .. })), "{what}: {got:?}");
        };
        let mut flipped = body.to_vec();
        for bit in 0..body.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            expect_mismatch(&flipped, &format!("bit {bit} flipped"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 1..=33 {
            expect_mismatch(&body[..body.len() - cut], &format!("truncated by {cut}"));
        }
        let mut longer = body.to_vec();
        longer.push(0);
        expect_mismatch(&longer, "extended by a zero byte");
        let mut words = body.to_vec();
        for k in 0..8 {
            words.swap(5 * 32 + 8 + k, 5 * 32 + 16 + k);
        }
        expect_mismatch(&words, "two words swapped within a stripe");
        let mut stripes = body.to_vec();
        for k in 0..32 {
            stripes.swap(3 * 32 + k, 4 * 32 + k);
        }
        expect_mismatch(&stripes, "two whole stripes swapped");
    }

    #[test]
    fn bit_flips_anywhere_in_a_64_kib_piece_frame_are_rejected() {
        let mut payload = vec![0u8; 64 * 1024];
        tchain_sim::SimRng::new(0x64).fill(&mut payload);
        let f = Frame::PieceData { piece: PieceId(77), payload };
        let wire = f.encode();
        let bits = wire.len() * 8;
        let flip_is_rejected = |bit: usize| {
            let mut mutant = wire.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            decode_whole(&mutant).err().ok_or_else(|| format!("flip of bit {bit} decoded silently"))
        };
        // The whole header, the first stripe of the body, and the last 32
        // bytes (the final stripe's end plus the sub-stripe tail).
        for bit in (0..(FRAME_HEADER_LEN + 32) * 8).chain(bits - 32 * 8..bits) {
            flip_is_rejected(bit).unwrap_or_else(|e| panic!("{e}"));
        }
        tchain_sim::forall(0xB175, 2048, |rng, _| {
            flip_is_rejected(FRAME_HEADER_LEN * 8 + rng.below(bits - FRAME_HEADER_LEN * 8)).map(drop)
        });
        assert_eq!(decode_whole(&wire), Ok(f));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_full_header() {
        let mut dec = FrameDecoder::new();
        // Only the 4 length bytes — the bound check must not wait for more.
        dec.push(&(MAX_FRAME_BODY + 1).to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::Oversized { got: MAX_FRAME_BODY + 1 }));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0, 0, 0, 0, 9]);
        assert_eq!(dec.next_frame(), Err(FrameError::UnknownKind(9)));
    }

    #[test]
    fn malformed_control_body_rejected() {
        // A correctly-checksummed body that is not a valid Message: the
        // checksum must pass so strict decode gets its say.
        let body = [200u8];
        let mut bytes = vec![1, 0, 0, 0, KIND_CONTROL];
        bytes.extend_from_slice(&frame_checksum(KIND_CONTROL, &body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::Control(DecodeError::UnknownTag(200)))));
    }

    #[test]
    fn short_piece_body_rejected() {
        let body = [1u8, 2];
        let mut bytes = vec![2, 0, 0, 0, KIND_PIECE_DATA];
        bytes.extend_from_slice(&frame_checksum(KIND_PIECE_DATA, &body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame(), Err(FrameError::TruncatedBody));
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let f = Frame::PieceData { piece: PieceId(1), payload: vec![7; 100] };
        let enc = f.encode();
        let mut dec = FrameDecoder::new();
        dec.push(&enc[..enc.len() - 1]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.finish(), Err(FrameError::TruncatedStream));
        dec.push(&enc[enc.len() - 1..]);
        assert_eq!(dec.next_frame(), Ok(Some(f)));
    }

    #[test]
    fn meta_stamp_roundtrips_and_plain_decoder_ignores_it() {
        let meta = CausalMeta { origin: 7, lamport: 0x1234_5678_9ABC, span: 42 };
        for f in frames() {
            let enc = f.encode_with_meta(Some(&meta));
            assert_eq!(enc.len(), f.encoded_len_with_meta(true));
            assert_eq!(enc.len(), f.encoded_len() + CAUSAL_META_LEN);
            let mut dec = FrameDecoder::new();
            dec.push(&enc);
            let (got, got_meta) = dec.next_frame_meta().expect("clean").expect("complete");
            assert_eq!(got, f);
            assert_eq!(got_meta, Some(meta));
            // The meta-unaware entry point yields the same frame.
            let mut dec = FrameDecoder::new();
            dec.push(&enc);
            assert_eq!(dec.next_frame(), Ok(Some(f.clone())));
            // And a None meta produces the legacy byte image exactly.
            assert_eq!(f.encode_with_meta(None), f.encode());
        }
    }

    #[test]
    fn meta_frame_shorter_than_meta_block_rejected() {
        // kind 3 with a 4-byte body: checksum valid, meta block missing.
        let body = [1u8, 2, 3, 4];
        let mut bytes = vec![4, 0, 0, 0, KIND_CONTROL_META];
        bytes.extend_from_slice(&frame_checksum(KIND_CONTROL_META, &body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame_meta(), Err(FrameError::TruncatedBody));
    }

    #[test]
    fn every_single_bit_flip_is_detected_on_meta_frames() {
        let meta = CausalMeta { origin: 3, lamport: 99, span: 0xDEAD };
        let f = Frame::Control(Message::ReceptionReport {
            requestor: NodeId(4),
            piece: PieceId(7),
        });
        let enc = f.encode_with_meta(Some(&meta));
        for byte in 0..enc.len() {
            for bit in 0..8u8 {
                let mut mutated = enc.clone();
                mutated[byte] ^= 1 << bit;
                let mut dec = FrameDecoder::new();
                dec.push(&mutated);
                match dec.next_frame_meta() {
                    Ok(None) => assert_eq!(dec.finish(), Err(FrameError::TruncatedStream)),
                    Ok(Some(got)) => {
                        panic!("flip byte {byte} bit {bit} decoded silently as {got:?}")
                    }
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let f = Frame::Control(Message::ReceptionReport { requestor: NodeId(4), piece: PieceId(7) });
        let enc = f.encode();
        for byte in 0..enc.len() {
            for bit in 0..8u8 {
                let mut mutated = enc.clone();
                mutated[byte] ^= 1 << bit;
                let mut dec = FrameDecoder::new();
                dec.push(&mutated);
                let verdict = dec.next_frame();
                match verdict {
                    // A flip in the length prefix may make the frame look
                    // longer than the buffer: incomplete, then truncated
                    // at stream end — still never a silent success.
                    Ok(None) => assert_eq!(dec.finish(), Err(FrameError::TruncatedStream)),
                    Ok(Some(got)) => panic!(
                        "flip byte {byte} bit {bit} decoded silently as {got:?}"
                    ),
                    Err(_) => {}
                }
            }
        }
    }
}
