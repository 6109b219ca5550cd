//! Frame codec edge cases: zero-length frames, max-length frames, bogus
//! length prefixes and kinds, and delivery split across arbitrary poll
//! boundaries.
//!
//! These run against the public API only — the same surface the chaos
//! layer mutates — and pin down the codec's contract: the wire has two
//! frame kinds (1 control, 2 piece data), and every input either yields
//! a complete, checksum-verified [`Frame`] or a typed [`FrameError`];
//! nothing panics and nothing desyncs silently.

use tchain_net::{
    frame_checksum, Frame, FrameDecoder, FrameError, FRAME_HEADER_LEN, MAX_FRAME_BODY,
};
use tchain_proto::wire::Message;
use tchain_proto::PieceId;
use tchain_sim::{NodeId, SimRng};

/// Hand-builds a raw frame with the given kind and body, with a correct
/// checksum unless one is supplied.
fn raw_frame(kind: u8, body: &[u8], checksum: Option<u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&checksum.unwrap_or_else(|| frame_checksum(kind, body)).to_le_bytes());
    out.extend_from_slice(body);
    out
}

#[test]
fn zero_length_piece_payload_roundtrips() {
    let f = Frame::PieceData { piece: PieceId(9), payload: Vec::new() };
    let mut dec = FrameDecoder::new();
    dec.push(&f.encode());
    assert_eq!(dec.next_frame().expect("decode"), Some(f));
    assert_eq!(dec.next_frame().expect("idle"), None);
    dec.finish().expect("clean stream");
}

#[test]
fn zero_length_body_is_a_typed_error_never_a_panic() {
    // A body_len of 0 is structurally valid framing but no message
    // decodes from zero bytes: control bodies need a tag byte and piece
    // bodies their piece-id header.
    for kind in [1u8, 2u8] {
        let mut dec = FrameDecoder::new();
        dec.push(&raw_frame(kind, &[], None));
        let err = dec.next_frame().expect_err("empty body must not decode");
        assert!(
            matches!(err, FrameError::Control(_) | FrameError::TruncatedBody),
            "kind {kind}: {err:?}"
        );
    }
}

#[test]
fn max_length_frame_survives_split_delivery() {
    // The largest body the codec admits is a PieceData at the ciphertext
    // bound; feed it in ragged ~1 MiB slices to cross many poll calls.
    let payload_len = (MAX_FRAME_BODY - 1024 - 4) as usize;
    let f = Frame::PieceData { piece: PieceId(1), payload: vec![0x5A; payload_len] };
    let enc = f.encode();
    assert_eq!(enc.len(), FRAME_HEADER_LEN + 4 + payload_len);
    let mut dec = FrameDecoder::new();
    let mut fed = 0usize;
    let mut got = None;
    while fed < enc.len() {
        let chunk = (1 << 20) + 7;
        let end = (fed + chunk).min(enc.len());
        dec.push(&enc[fed..end]);
        fed = end;
        if let Some(frame) = dec.next_frame().expect("no error mid-stream") {
            got = Some(frame);
        }
    }
    assert_eq!(got, Some(f));
    dec.finish().expect("clean stream");
}

#[test]
fn length_prefix_past_the_bound_errors_before_any_body_arrives() {
    let mut bytes = (MAX_FRAME_BODY + 1).to_le_bytes().to_vec();
    bytes.push(1);
    let mut dec = FrameDecoder::new();
    dec.push(&bytes);
    match dec.next_frame() {
        Err(FrameError::Oversized { got }) => assert_eq!(got, MAX_FRAME_BODY + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn length_prefix_larger_than_buffered_bytes_just_waits() {
    // An in-bounds length that exceeds what has arrived is not an error —
    // the decoder parks until the rest of the body shows up.
    let f = Frame::Control(Message::ReceptionReport { requestor: NodeId(3), piece: PieceId(8) });
    let enc = f.encode();
    let mut dec = FrameDecoder::new();
    dec.push(&enc[..FRAME_HEADER_LEN + 1]);
    assert_eq!(dec.next_frame().expect("waiting is not an error"), None);
    assert!(dec.finish().is_err(), "a parked partial frame is a truncated stream");
    dec.push(&enc[FRAME_HEADER_LEN + 1..]);
    assert_eq!(dec.next_frame().expect("decode"), Some(f));
    dec.finish().expect("clean stream");
}

#[test]
fn every_split_point_of_a_small_stream_decodes_identically() {
    let frames = vec![
        Frame::Control(Message::Have { piece: PieceId(5) }),
        Frame::PieceData { piece: PieceId(5), payload: vec![0xEE; 37] },
        Frame::Control(Message::ReceptionReport { requestor: NodeId(2), piece: PieceId(5) }),
    ];
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&f.encode());
    }
    for split in 0..=stream.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for part in [&stream[..split], &stream[split..]] {
            dec.push(part);
            while let Some(f) = dec.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames, "split at {split}");
        dec.finish().expect("clean stream");
    }
}

#[test]
fn random_chunking_never_changes_the_decoded_sequence() {
    // Deterministic fuzz: one valid stream, many RNG-drawn chunkings.
    let frames: Vec<Frame> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                Frame::Control(Message::Have { piece: PieceId(i) })
            } else {
                Frame::PieceData { piece: PieceId(i), payload: vec![i as u8; 11 * i as usize] }
            }
        })
        .collect();
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&f.encode());
    }
    let mut rng = SimRng::new(0xF422);
    for _ in 0..64 {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut fed = 0usize;
        while fed < stream.len() {
            let end = (fed + 1 + rng.below(97)).min(stream.len());
            dec.push(&stream[fed..end]);
            fed = end;
            while let Some(f) = dec.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        dec.finish().expect("clean stream");
    }
}

#[test]
fn corrupt_checksum_is_rejected_with_both_sums_reported() {
    let f = Frame::Control(Message::Have { piece: PieceId(2) });
    let enc = f.encode();
    let body = &enc[FRAME_HEADER_LEN..];
    let bad = raw_frame(enc[4], body, Some(0xDEAD_BEEF));
    let mut dec = FrameDecoder::new();
    dec.push(&bad);
    match dec.next_frame() {
        Err(FrameError::ChecksumMismatch { expected, got }) => {
            assert_eq!(expected, 0xDEAD_BEEF);
            assert_eq!(got, frame_checksum(enc[4], body));
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn unknown_kind_byte_is_rejected() {
    let mut dec = FrameDecoder::new();
    dec.push(&raw_frame(0x7F, &[1, 2, 3], None));
    assert!(matches!(dec.next_frame(), Err(FrameError::UnknownKind(0x7F))));
}

// ---------------------------------------------------------------------
// Structure-aware batched-dispatch fuzz.
//
// The batched read path (`FrameDecoder::drain_frames`, used by the TCP
// transport's per-poll loop) must be observationally identical to the
// one-frame-at-a-time path whatever the wire chunking: frames split
// across reads and many frames merged into one read. A seeded generator
// builds valid streams and the tests replay them under random
// chunkings; a second pass flips one byte and demands a typed error
// with the pre-mutation prefix intact.
// ---------------------------------------------------------------------

/// Draws a random valid frame.
fn gen_frame(rng: &mut SimRng, i: u32) -> Frame {
    match rng.below(4) {
        0 => Frame::Control(Message::Have { piece: PieceId(i) }),
        1 => Frame::Control(Message::ReceptionReport { requestor: NodeId(rng.below(40) as u32), piece: PieceId(i) }),
        2 => Frame::PieceData { piece: PieceId(i), payload: vec![i as u8; rng.below(200)] },
        _ => Frame::PieceData { piece: PieceId(i), payload: Vec::new() },
    }
}

/// Encodes a generated stream, returning the byte stream and the byte
/// offset where each frame starts.
fn encode_stream(items: &[Frame]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut starts = Vec::with_capacity(items.len());
    for frame in items {
        starts.push(bytes.len());
        frame.encode_into(&mut bytes);
    }
    (bytes, starts)
}

/// `items` as `drain_frames` yields them: each with its wire length.
fn sized(items: &[Frame]) -> Vec<(Frame, usize)> {
    items.iter().map(|f| (f.clone(), f.encoded_len())).collect()
}

#[test]
fn batched_drain_equals_frame_at_a_time_under_random_chunking() {
    let mut rng = SimRng::new(0x0BA7_C4ED);
    for round in 0..48u32 {
        let n = 2 + rng.below(14);
        let items: Vec<_> = (0..n).map(|i| gen_frame(&mut rng, round * 32 + i as u32)).collect();
        let (stream, _) = encode_stream(&items);

        // Reference: one frame at a time, whole stream in one push.
        let mut reference = FrameDecoder::new();
        reference.push(&stream);
        let mut expect = Vec::new();
        while let Some(frame) = reference.next_frame().expect("valid stream") {
            expect.push(frame);
        }
        reference.finish().expect("clean stream");
        assert_eq!(expect, items, "encode/decode roundtrip");

        // Batched: random split/merged reads, drain after every push.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut fed = 0usize;
        while fed < stream.len() {
            // Wildly different chunk sizes: sub-header slivers,
            // mid-body splits, and multi-frame merges.
            let scale = rng.below(3) * 150;
            let end = (fed + 1 + rng.below(1 + scale)).min(stream.len());
            dec.push(&stream[fed..end]);
            fed = end;
            dec.drain_frames(&mut got).expect("valid stream");
        }
        dec.finish().expect("clean stream");
        assert_eq!(got, sized(&items), "round {round}: batched drain diverged from reference");
    }
}

#[test]
fn single_bit_flip_yields_typed_error_and_intact_prefix() {
    let mut rng = SimRng::new(0x00F1_1F17);
    for round in 0..64u32 {
        let n = 2 + rng.below(10);
        let items: Vec<_> = (0..n).map(|i| gen_frame(&mut rng, round * 32 + i as u32)).collect();
        let (mut stream, starts) = encode_stream(&items);

        let pos = rng.below(stream.len());
        let bit = 1u8 << rng.below(8);
        stream[pos] ^= bit;
        // Index of the frame the mutation lands in.
        let victim = starts.iter().rposition(|&s| s <= pos).expect("starts[0] == 0");

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut fed = 0usize;
        let mut saw_error = false;
        while fed < stream.len() {
            let end = (fed + 1 + rng.below(300)).min(stream.len());
            dec.push(&stream[fed..end]);
            fed = end;
            match dec.drain_frames(&mut got) {
                Ok(()) => {}
                Err(err) => {
                    // Typed, and recognisably a framing failure.
                    assert!(
                        matches!(
                            err,
                            FrameError::ChecksumMismatch { .. }
                                | FrameError::UnknownKind(_)
                                | FrameError::Oversized { .. }
                                | FrameError::TruncatedBody
                                | FrameError::Control(_)
                        ),
                        "round {round}: unexpected error shape {err:?}"
                    );
                    saw_error = true;
                    break;
                }
            }
        }
        // A flip that enlarges a length prefix within bounds parks the
        // decoder instead — then the truncated stream must fail finish().
        if !saw_error {
            assert!(
                dec.finish().is_err(),
                "round {round}: mutated stream decoded clean at byte {pos} bit {bit:#x}"
            );
        }
        // Every frame wholly before the mutated one survived verbatim,
        // and nothing after the victim ever surfaced.
        assert!(
            got.len() <= victim,
            "round {round}: decoded past the mutation ({} > {victim})",
            got.len()
        );
        assert_eq!(
            got.as_slice(),
            &sized(&items)[..got.len()],
            "round {round}: pre-mutation prefix corrupted"
        );
    }
}

/// A source that hands out 1..=97 bytes per `read`, then end of stream.
struct Ragged<'a> {
    bytes: &'a [u8],
    rng: SimRng,
}

impl std::io::Read for Ragged<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.below(97)).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn reading_from_a_ragged_source_equals_push_and_drain() {
    // `read_from` is what the TCP transport calls; it must see the same
    // frames, stop at the same frame with the same typed error, and
    // leave the same verdict at end of stream as one big `push`.
    let mut rng = SimRng::new(0x004A_66ED);
    for round in 0..96u32 {
        let n = 2 + rng.below(14);
        let items: Vec<_> = (0..n).map(|i| gen_frame(&mut rng, round * 32 + i as u32)).collect();
        let (mut stream, _) = encode_stream(&items);
        // Two rounds in three carry one flipped bit.
        if round % 3 != 0 {
            let pos = rng.below(stream.len());
            stream[pos] ^= 1 << rng.below(8);
        }

        let mut pushed = FrameDecoder::new();
        let mut expect = Vec::new();
        pushed.push(&stream);
        let expect_end = pushed.drain_frames(&mut expect).and_then(|()| pushed.finish());

        let mut dec = FrameDecoder::new();
        let mut src = Ragged { bytes: &stream, rng: SimRng::new(u64::from(round)) };
        let mut got = Vec::new();
        let end = loop {
            match dec.read_from(&mut src).expect("the source never fails") {
                0 => break dec.finish(),
                _ => {
                    if let Err(e) = dec.drain_frames(&mut got) {
                        break Err(e);
                    }
                }
            }
        };
        assert_eq!(got, expect, "round {round}: frames before the end differ");
        assert_eq!(end, expect_end, "round {round}: the stream ended differently");
        if round % 3 == 0 {
            assert_eq!((got, end), (sized(&items), Ok(())), "round {round}: clean stream");
        }
    }
}

// ---------------------------------------------------------------------
// Past the codec: a frame that decodes cleanly can still name a piece
// the swarm's file does not have. The codec cannot know the piece count,
// so the runtime must drop such frames itself — without panicking and
// without keeping anything from them.
// ---------------------------------------------------------------------

use tchain_net::{Content, NetConfig, Outbox, PeerRole, PeerRuntime};
use tchain_proto::wire::KEY_WIRE_SIZE;

#[test]
fn well_formed_frames_naming_pieces_outside_the_file_change_nothing() {
    const PIECES: u32 = 4;
    let content = Content::new(0xF022, PIECES as usize, 64);
    let mut peer = PeerRuntime::new(NodeId(1), PeerRole::Leecher, content, NetConfig::default(), 9);
    let mut out = Outbox::new();
    peer.bootstrap(&[NodeId(0), NodeId(2)], &mut out);
    out.clear();
    let before = format!("{peer:?}");

    let mut rng = SimRng::new(0x00B0_B1D5);
    let mut dec = FrameDecoder::new();
    for round in 0..512u32 {
        // Just past the end, far past it, and the wrap-around edge.
        let piece = PieceId(match rng.below(3) {
            0 => PIECES + rng.below(4) as u32,
            1 => PIECES + rng.below(1 << 20) as u32,
            _ => u32::MAX - rng.below(4) as u32,
        });
        let from = NodeId([0, 2, 7][rng.below(3)]);
        let who = NodeId(rng.below(4) as u32);
        let frames = match rng.below(5) {
            0 => {
                let payee = (rng.below(2) == 0).then_some(who);
                let reciprocates = (rng.below(2) == 0).then_some((PieceId(rng.below(8) as u32), who));
                let header = Message::PieceUpload { reciprocates, piece, payee, ciphertext_len: 64 };
                vec![Frame::Control(header), Frame::PieceData { piece, payload: vec![round as u8; 64] }]
            }
            1 => vec![Frame::PieceData { piece, payload: vec![round as u8; rng.below(128)] }],
            2 => {
                let requestor = (rng.below(2) == 0).then_some(who);
                vec![Frame::Control(Message::KeyRelease { piece, requestor, key: [round as u8; KEY_WIRE_SIZE] })]
            }
            3 => vec![Frame::Control(Message::ReceptionReport { requestor: who, piece })],
            _ => vec![Frame::Control(Message::Have { piece })],
        };
        // Through the wire image, as a transport would deliver them.
        for frame in frames {
            dec.push(&frame.encode());
            let decoded = dec.next_frame().expect("well-formed").expect("complete");
            peer.on_frame(f64::from(round), from, decoded, &mut out);
        }
    }
    assert!(out.is_empty(), "a dropped frame answers nothing: {out:?}");
    assert_eq!(format!("{peer:?}"), before, "a dropped frame leaves no state behind");
}
