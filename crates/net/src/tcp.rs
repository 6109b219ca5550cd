//! Framed TCP loopback backend.
//!
//! Real sockets on `127.0.0.1`, one listener per registered peer and one
//! lazily-opened directional connection per `(from, to)` link. Each
//! connection starts with a 4-byte hello (the sender's `NodeId`) so the
//! acceptor can attribute inbound frames; everything after is the
//! [`Frame`] stream of `frame.rs`, reassembled by the incremental
//! [`FrameDecoder`]. Sockets are non-blocking and drained every
//! [`Transport::advance`]; delivery *timing* is up to the kernel, so this
//! backend is for throughput benches and smoke tests — determinism claims
//! belong to [`ChannelMesh`](crate::ChannelMesh).
//!
//! Failure handling is connection-scoped, never transport-scoped: a
//! stream that produces a [`FrameError`] (corruption has no resync point)
//! or dies mid-frame is torn down and surfaced as a
//! [`FrameReject`] via [`Transport::take_chaos`], while every other link
//! keeps flowing. A sender whose socket comes back reset reopens it on
//! the next send. The backend injects no chaos of its own: a send writes
//! the frame's encoding as is. Byzantine schedules belong to the
//! deterministic [`ChannelMesh`](crate::ChannelMesh).

use crate::frame::{CausalMeta, Frame, FrameDecoder, FrameError};
use crate::transport::{
    ChaosRecord, Delivery, FrameReject, NetError, RejectCause, Transport, TransportStats,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;
use tchain_sim::NodeId;

/// `true` for I/O errors meaning "this connection is dead", which the
/// backend absorbs as a link reset rather than a transport failure.
fn is_reset(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof
    )
}

/// Pending bytes past which [`TcpLoopback::send`] flushes by itself;
/// below it the bytes wait for the next [`Transport::advance`], so small
/// frames share one `write(2)`.
const FLUSH_AT: usize = 64 * 1024;

/// Bytes queued for a socket and how many of them it has taken.
#[derive(Default)]
struct WriteBuf {
    bytes: Vec<u8>,
    written: usize,
}

impl WriteBuf {
    fn pending(&self) -> usize {
        self.bytes.len() - self.written
    }

    /// Writes as much of the pending bytes as `dst` accepts.
    fn flush(&mut self, dst: &mut impl Write) -> std::io::Result<()> {
        while self.pending() > 0 {
            match dst.write(&self.bytes[self.written..]) {
                Ok(0) => break,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Rewind when drained; otherwise move the unsent tail down only
        // once it is the smaller half, so fewer bytes move than were sent.
        if self.written * 2 >= self.bytes.len() {
            self.bytes.drain(..self.written);
            self.written = 0;
        }
        Ok(())
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: WriteBuf,
}

/// How one poll of an inbound stream ended.
enum ReadEnd {
    /// Nothing more to read for now.
    Open,
    /// EOF or a reset-class error.
    Closed,
    /// The stream stopped decoding; strict framing has no resync point.
    Corrupt(FrameError),
}

impl Conn {
    fn new(stream: TcpStream) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, decoder: FrameDecoder::new(), out: WriteBuf::default() })
    }

    /// Reads what the socket has into the frame decoder's own buffer,
    /// decoding into `frames` after every read so the buffer holds about
    /// one frame. Frames decoded before the stream ended or went corrupt
    /// are in `frames` either way.
    fn drain_read(
        &mut self,
        frames: &mut Vec<(Frame, Option<CausalMeta>)>,
    ) -> Result<ReadEnd, NetError> {
        loop {
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => return Ok(ReadEnd::Closed),
                Ok(_) => {
                    if let Err(e) = self.decoder.drain_frames(frames) {
                        return Ok(ReadEnd::Corrupt(e));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(ReadEnd::Open),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if is_reset(e.kind()) => return Ok(ReadEnd::Closed),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// A not-yet-attributed inbound connection (hello bytes still arriving).
struct PendingAccept {
    stream: TcpStream,
    hello: Vec<u8>,
}

/// TCP loopback transport: real framed sockets between in-process peers.
pub struct TcpLoopback {
    listeners: BTreeMap<u32, (TcpListener, SocketAddr)>,
    /// Sender-side streams, keyed by (from, to).
    outbound: BTreeMap<(u32, u32), Conn>,
    /// Receiver-side streams, keyed by (owner, remote sender).
    inbound: BTreeMap<(u32, u32), Conn>,
    pending: Vec<(u32, PendingAccept)>,
    gone: BTreeSet<u32>,
    records: Vec<ChaosRecord>,
    started: Instant,
    stats: TransportStats,
}

impl TcpLoopback {
    /// A fresh loopback transport with no endpoints.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for parity with binding on
    /// registration.
    pub fn new() -> Result<Self, NetError> {
        Ok(TcpLoopback {
            listeners: BTreeMap::new(),
            outbound: BTreeMap::new(),
            inbound: BTreeMap::new(),
            pending: Vec::new(),
            gone: BTreeSet::new(),
            records: Vec::new(),
            started: Instant::now(),
            stats: TransportStats::default(),
        })
    }

    fn connect(&mut self, from: NodeId, to: NodeId) -> Result<&mut Conn, NetError> {
        let key = (from.0, to.0);
        if !self.outbound.contains_key(&key) {
            let (_, addr) = self.listeners.get(&to.0).ok_or(NetError::UnknownPeer(to))?;
            let stream = TcpStream::connect(addr)?;
            let mut conn = Conn::new(stream)?;
            conn.out.bytes.extend_from_slice(&from.0.to_le_bytes());
            self.outbound.insert(key, conn);
        }
        self.outbound
            .get_mut(&key)
            .ok_or(NetError::BackendState("outbound connection vanished after insert"))
    }

    /// Lets `append` add bytes to the link's stream, flushing once
    /// [`FLUSH_AT`] are pending. A reset-class failure tears the
    /// connection down and is reported as a link reset, not a transport
    /// error — the next send reopens the socket.
    fn write(
        &mut self,
        from: NodeId,
        to: NodeId,
        append: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), NetError> {
        let attempt = (|| {
            let conn = self.connect(from, to)?;
            append(&mut conn.out.bytes);
            if conn.out.pending() >= FLUSH_AT {
                conn.out.flush(&mut conn.stream)?;
            }
            Ok(())
        })();
        match attempt {
            Err(NetError::Io(e)) if is_reset(e.kind()) => {
                self.outbound.remove(&(from.0, to.0));
                self.stats.dropped += 1;
                self.records
                    .push(ChaosRecord::Reject(FrameReject { from, to, cause: RejectCause::Reset }));
                Ok(())
            }
            other => other,
        }
    }

    fn accept_new(&mut self) -> Result<(), NetError> {
        for (&owner, (listener, _)) in &self.listeners {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        self.pending.push((owner, PendingAccept { stream, hello: Vec::new() }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        // Attribute pending connections whose 4-byte hello is complete.
        let mut still = Vec::new();
        for (owner, mut p) in std::mem::take(&mut self.pending) {
            p.stream.set_nonblocking(true)?;
            let mut byte = [0u8; 4];
            loop {
                if p.hello.len() == 4 {
                    break;
                }
                match p.stream.read(&mut byte[..4 - p.hello.len()]) {
                    Ok(0) => break,
                    Ok(n) => p.hello.extend_from_slice(&byte[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if is_reset(e.kind()) => break,
                    Err(e) => return Err(e.into()),
                }
            }
            // A reopened link waits here until its predecessor has been
            // read out and dropped, so the frames that made it onto the
            // old socket are delivered, and delivered first.
            match p.hello.first_chunk::<4>().map(|id| (owner, u32::from_le_bytes(*id))) {
                Some(key) if !self.inbound.contains_key(&key) => {
                    self.inbound.insert(key, Conn::new(p.stream)?);
                }
                _ => still.push((owner, p)),
            }
        }
        self.pending = still;
        Ok(())
    }
}

impl Transport for TcpLoopback {
    fn register(&mut self, id: NodeId) -> Result<(), NetError> {
        // Re-registering a departed peer revives it (crash-restart).
        self.gone.remove(&id.0);
        if self.listeners.contains_key(&id.0) {
            return Ok(());
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        self.listeners.insert(id.0, (listener, addr));
        Ok(())
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), NetError> {
        self.send_meta(from, to, frame, None)
    }

    fn send_meta(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        meta: Option<CausalMeta>,
    ) -> Result<(), NetError> {
        if !self.listeners.contains_key(&to.0) {
            return Err(NetError::UnknownPeer(to));
        }
        self.stats.sent += 1;
        if self.gone.contains(&to.0) || self.gone.contains(&from.0) {
            self.stats.dropped += 1;
            return Ok(());
        }
        self.write(from, to, |buf| frame.encode_with_meta_into(meta.as_ref(), buf))
    }

    fn advance(&mut self) -> Result<Vec<Delivery>, NetError> {
        // Flush first: a link opened by `send` since the last poll gets
        // its hello out before `accept_new` looks for it.
        let mut dead_out = Vec::new();
        for (&key, conn) in self.outbound.iter_mut() {
            match conn.out.flush(&mut conn.stream) {
                Ok(()) => {}
                Err(e) if is_reset(e.kind()) => dead_out.push(key),
                Err(e) => return Err(e.into()),
            }
        }
        for key in dead_out {
            self.outbound.remove(&key);
            self.records.push(ChaosRecord::Reject(FrameReject {
                from: NodeId(key.0),
                to: NodeId(key.1),
                cause: RejectCause::Reset,
            }));
        }
        self.accept_new()?;
        let mut out = Vec::new();
        let mut dead_in = Vec::new();
        let mut batch: Vec<(Frame, Option<CausalMeta>)> = Vec::new();
        for (&(owner, from), conn) in self.inbound.iter_mut() {
            // Batched dispatch: one poll decodes every complete frame
            // the reads landed (merged reads yield several, split reads
            // leave the partial tail buffered for the next poll).
            batch.clear();
            let end = conn.drain_read(&mut batch)?;
            for (frame, meta) in batch.drain(..) {
                if self.gone.contains(&owner) {
                    self.stats.dropped += 1;
                    continue;
                }
                self.stats.delivered += 1;
                self.stats.bytes_delivered += frame.encoded_len() as u64;
                out.push(Delivery { from: NodeId(from), to: NodeId(owner), frame, meta, duplicated: false });
            }
            // A corrupt stream has no resync point and a stream that
            // ended inside a frame is a reset from the receiver's point
            // of view: surface the typed cause, drop the connection and
            // keep every other link flowing.
            let cause = match end {
                ReadEnd::Open => continue,
                ReadEnd::Corrupt(e) => Some(RejectCause::Malformed(e)),
                ReadEnd::Closed => conn.decoder.finish().is_err().then_some(RejectCause::Reset),
            };
            if let Some(cause) = cause {
                self.stats.dropped += 1;
                self.records.push(ChaosRecord::Reject(FrameReject {
                    from: NodeId(from),
                    to: NodeId(owner),
                    cause,
                }));
            }
            dead_in.push((owner, from));
        }
        for key in dead_in {
            self.inbound.remove(&key);
        }
        Ok(out)
    }

    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn disconnect(&mut self, id: NodeId) {
        self.gone.insert(id.0);
    }

    fn take_chaos(&mut self) -> Vec<ChaosRecord> {
        std::mem::take(&mut self.records)
    }

    fn backend(&self) -> &'static str {
        "tcp_loopback"
    }

    fn reliable(&self) -> bool {
        true
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchain_proto::wire::Message;
    use tchain_proto::PieceId;

    /// Loopback sockets may be unavailable in sandboxed environments;
    /// skip rather than fail so the suite stays hermetic.
    fn try_pair() -> Option<TcpLoopback> {
        let mut t = TcpLoopback::new().ok()?;
        match (t.register(NodeId(1)), t.register(NodeId(2))) {
            (Ok(()), Ok(())) => Some(t),
            _ => None,
        }
    }

    fn pump(t: &mut TcpLoopback, want: usize) -> Vec<Delivery> {
        let mut got = Vec::new();
        for _ in 0..2000 {
            got.extend(t.advance().expect("advance"));
            if got.len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        got
    }

    /// Puts `bytes` on the `1 → 2` link's wire and drops its socket, as
    /// a sender that dies after writing them would. The next send opens
    /// a fresh link.
    fn write_and_drop(t: &mut TcpLoopback, bytes: &[u8]) {
        t.write(NodeId(1), NodeId(2), |buf| buf.extend_from_slice(bytes)).expect("write");
        let mut conn = t.outbound.remove(&(1, 2)).expect("the write opened the link");
        conn.out.flush(&mut conn.stream).expect("flush");
        assert_eq!(conn.out.pending(), 0, "every injected byte reached the socket");
    }

    /// A stream that dies inside `frame`: half its encoding, then EOF.
    fn cut_mid_frame(t: &mut TcpLoopback, frame: &Frame) {
        let bytes = frame.encode();
        write_and_drop(t, &bytes[..bytes.len() / 2]);
    }

    fn have(i: u32) -> Frame {
        Frame::Control(Message::Have { piece: PieceId(i) })
    }

    /// The reject causes surfaced so far.
    fn rejects(t: &mut TcpLoopback) -> Vec<RejectCause> {
        t.take_chaos()
            .into_iter()
            .map(|r| match r {
                ChaosRecord::Reject(rj) => rj.cause,
                other => panic!("a clean sender injects nothing: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn frames_cross_real_sockets() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        assert!(t.reliable(), "real sockets lose no control frame");
        let frames = vec![
            Frame::Control(Message::NeighborRequest { from: NodeId(1) }),
            Frame::PieceData { piece: PieceId(4), payload: vec![9; 70_000] },
            Frame::Control(Message::Have { piece: PieceId(4) }),
        ];
        for f in &frames {
            t.send(NodeId(1), NodeId(2), f.clone()).expect("send");
        }
        let got = pump(&mut t, frames.len());
        assert_eq!(got.len(), frames.len());
        for (d, f) in got.iter().zip(&frames) {
            assert_eq!(d.from, NodeId(1));
            assert_eq!(d.to, NodeId(2));
            assert_eq!(&d.frame, f, "stream order and bytes preserved");
        }
        assert_eq!(t.stats().delivered, 3);
    }

    /// A sink that takes 1..=97 bytes per `write` and blocks every third.
    struct Ragged {
        taken: Vec<u8>,
        rng: tchain_sim::SimRng,
        calls: u32,
    }

    impl Write for Ragged {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = (1 + self.rng.below(97)).min(buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_write_cursor_survives_partial_writes_between_appends() {
        let mut sink = Ragged { taken: Vec::new(), rng: tchain_sim::SimRng::new(0xC0450), calls: 0 };
        let mut out = WriteBuf::default();
        let mut sent = Vec::new();
        for i in 0..400u32 {
            let f = Frame::PieceData { piece: PieceId(i), payload: vec![i as u8; (i as usize * 7) % 300] };
            f.encode_into(&mut out.bytes);
            f.encode_into(&mut sent);
            out.flush(&mut sink).expect("a blocked sink is not an error");
            assert_eq!(out.pending(), sent.len() - sink.taken.len());
            assert!(out.written * 2 < out.bytes.len().max(1), "the dead prefix stays the smaller half");
        }
        while out.pending() > 0 {
            out.flush(&mut sink).expect("flush");
        }
        assert!(sink.taken == sent, "every byte once, in order");
        assert!(out.bytes.is_empty() && out.written == 0, "a drained buffer rewinds");
    }

    #[test]
    fn a_backlog_of_bulk_frames_crosses_many_partial_writes_intact() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        // 2 MiB queued before the first poll: where that is more than the
        // socket takes at once, the write cursor stops and resumes
        // mid-frame (the kernel decides; the test above does not depend
        // on it).
        let frames: Vec<Frame> = (0..32u32)
            .map(|i| {
                let mut payload = vec![0u8; 64 * 1024];
                tchain_sim::SimRng::new(u64::from(i)).fill(&mut payload);
                Frame::PieceData { piece: PieceId(i), payload }
            })
            .collect();
        for f in &frames {
            t.send(NodeId(1), NodeId(2), f.clone()).expect("send");
        }
        let mut got = pump(&mut t, frames.len());
        got.extend(t.advance().expect("advance"));
        let got: Vec<Frame> = got.into_iter().map(|d| d.frame).collect();
        assert!(got == frames, "every frame once, in order, byte-equal ({} arrived)", got.len());
    }

    #[test]
    fn small_frames_sent_without_a_poll_all_arrive_in_order() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        // 5 000 x 14 bytes crosses FLUSH_AT once; the rest waits for
        // `advance`.
        let frames: Vec<Frame> =
            (0..5000u32).map(|i| Frame::Control(Message::Have { piece: PieceId(i) })).collect();
        for f in &frames {
            t.send(NodeId(1), NodeId(2), f.clone()).expect("send");
        }
        let got: Vec<Frame> = pump(&mut t, frames.len()).into_iter().map(|d| d.frame).collect();
        assert!(got == frames, "all 5000, in order ({} arrived)", got.len());
    }

    #[test]
    fn frames_around_a_reset_are_not_stranded_in_the_torn_down_link() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        // No poll between sends: frames queued behind a cut leave with
        // its flush, frames sent after it open a new socket, which must
        // wait for the old one to be read out. Back-to-back cuts make a
        // link that carries nothing but its hello and half a frame.
        const CUTS: [u32; 6] = [0, 1, 137, 500, 501, 1999];
        let mut expect = Vec::new();
        for i in 0..2000u32 {
            if CUTS.contains(&i) {
                cut_mid_frame(&mut t, &have(i));
            } else {
                t.send(NodeId(1), NodeId(2), have(i)).expect("send");
                expect.push(have(i));
            }
        }
        // A last frame on a fresh link: everything before it has been
        // read once it arrives.
        t.send(NodeId(1), NodeId(2), have(2000)).expect("send");
        expect.push(have(2000));
        let got: Vec<Frame> = pump(&mut t, expect.len()).into_iter().map(|d| d.frame).collect();
        assert!(
            got == expect,
            "every frame that was not itself cut, in order ({} of {} arrived)",
            got.len(),
            expect.len()
        );
        assert_eq!(rejects(&mut t), vec![RejectCause::Reset; CUTS.len()], "one reset per cut");
    }

    #[test]
    fn bidirectional_links_are_independent() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        t.send(NodeId(1), NodeId(2), Frame::Control(Message::Have { piece: PieceId(1) }))
            .expect("send");
        t.send(NodeId(2), NodeId(1), Frame::Control(Message::Have { piece: PieceId(2) }))
            .expect("send");
        let got = pump(&mut t, 2);
        assert_eq!(got.len(), 2);
        assert!(got.iter().any(|d| d.to == NodeId(1)));
        assert!(got.iter().any(|d| d.to == NodeId(2)));
    }

    #[test]
    fn corrupted_stream_rejects_and_link_recovers() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        // One flipped body bit: the checksum must catch it, the stream
        // has no resync point, and the link that replaces it delivers.
        let mut bytes = have(3).encode();
        *bytes.last_mut().expect("a frame has a body") ^= 0x10;
        write_and_drop(&mut t, &bytes);
        t.send(NodeId(1), NodeId(2), have(5)).expect("send");
        let got = pump(&mut t, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].frame, have(5), "only the clean frame delivers");
        let causes = rejects(&mut t);
        assert!(
            matches!(causes[..], [RejectCause::Malformed(_)]),
            "the corrupt stream rejects once, as malformed: {causes:?}"
        );
    }

    #[test]
    fn a_stream_cut_mid_frame_rejects_as_a_reset() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        cut_mid_frame(&mut t, &Frame::PieceData { piece: PieceId(0), payload: vec![7; 512] });
        t.send(NodeId(1), NodeId(2), have(1)).expect("send");
        let got = pump(&mut t, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].frame, have(1), "the half frame never delivers");
        assert_eq!(rejects(&mut t), vec![RejectCause::Reset], "the receiver sees the cut");
    }

    #[test]
    fn meta_stamps_cross_real_sockets() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        let meta = CausalMeta { origin: 1, lamport: 11, span: 900 };
        t.send_meta(
            NodeId(1),
            NodeId(2),
            Frame::Control(Message::Have { piece: PieceId(8) }),
            Some(meta),
        )
        .expect("send");
        t.send(NodeId(1), NodeId(2), Frame::Control(Message::Have { piece: PieceId(9) }))
            .expect("send");
        let got = pump(&mut t, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].meta, Some(meta), "stamp survives the wire");
        assert_eq!(got[1].meta, None, "unstamped frame stays unstamped");
    }

    #[test]
    fn disconnect_cuts_both_directions_and_reconnect_revives() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        t.disconnect(NodeId(2));
        t.send(NodeId(1), NodeId(2), Frame::Control(Message::Have { piece: PieceId(1) }))
            .expect("send to gone peer is a drop, not an error");
        t.send(NodeId(2), NodeId(1), Frame::Control(Message::Have { piece: PieceId(2) }))
            .expect("send from gone peer is a drop, not an error");
        assert_eq!(t.stats().dropped, 2);
        t.reconnect(NodeId(2)).expect("reconnect");
        t.send(NodeId(1), NodeId(2), Frame::Control(Message::Have { piece: PieceId(3) }))
            .expect("send");
        let got = pump(&mut t, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].frame, Frame::Control(Message::Have { piece: PieceId(3) }));
    }
}
