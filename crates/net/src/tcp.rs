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
//! the next send. Chaos injection ([`ChaosPlan`]) mangles the sender-side
//! wire bytes before they hit the socket, so detection exercises the same
//! checksum path a genuinely byzantine peer would; `Reorder` is the one
//! action TCP cannot express (a stream cannot overtake itself) and
//! delivers normally.

use crate::frame::{CausalMeta, Frame, FrameDecoder, FrameError};
use crate::transport::{
    apply_mutation, ChaosRecord, Delivery, FrameReject, NetError, RejectCause, Transport,
    TransportStats,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;
use tchain_sim::{ChaosAction, ChaosPlan, ChaosState, NodeId};

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
    chaos: ChaosState,
    records: Vec<ChaosRecord>,
    started: Instant,
    stats: TransportStats,
}

impl TcpLoopback {
    /// A fresh loopback transport with no endpoints and no chaos.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for parity with binding on
    /// registration.
    pub fn new() -> Result<Self, NetError> {
        Self::with_chaos(ChaosPlan::none())
    }

    /// A loopback transport that mangles sender-side wire bytes per the
    /// chaos plan. Crash schedules in the plan are ignored here — crash
    /// orchestration belongs to the harness.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for parity with binding on
    /// registration.
    pub fn with_chaos(chaos: ChaosPlan) -> Result<Self, NetError> {
        Ok(TcpLoopback {
            listeners: BTreeMap::new(),
            outbound: BTreeMap::new(),
            inbound: BTreeMap::new(),
            pending: Vec::new(),
            gone: BTreeSet::new(),
            chaos: ChaosState::new(chaos),
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
        // The chaos draw keys on the bare frame length so telemetry
        // stamps cannot change which frames get hit.
        let action = self.chaos.action(frame.encoded_len());
        if action != ChaosAction::Deliver {
            self.records.push(ChaosRecord::Inject { from, to, action });
        }
        // The chaos arms mangle the real wire image — meta block included
        // when one is attached — so the checksum path under test is
        // exactly what a receiver would run.
        let wire = || frame.encode_with_meta(meta.as_ref());
        match action {
            // A TCP stream cannot overtake itself: Reorder is a no-op
            // here and the frame rides the stream in order.
            ChaosAction::Deliver | ChaosAction::Reorder => {
                self.write(from, to, |buf| frame.encode_with_meta_into(meta.as_ref(), buf))
            }
            ChaosAction::Corrupt(m) => {
                let mut bytes = wire();
                apply_mutation(&mut bytes, m);
                self.write(from, to, |buf| buf.extend_from_slice(&bytes))
            }
            ChaosAction::Duplicate => {
                let bytes = wire();
                self.write(from, to, |buf| {
                    buf.extend_from_slice(&bytes);
                    buf.extend_from_slice(&bytes);
                })
            }
            ChaosAction::Reset => {
                // Push half the frame onto the wire, then kill the socket:
                // the receiver sees a stream that dies mid-frame.
                let bytes = wire();
                self.write(from, to, |buf| buf.extend_from_slice(&bytes[..bytes.len() / 2]))?;
                if let Some(mut conn) = self.outbound.remove(&(from.0, to.0)) {
                    let _ = conn.out.flush(&mut conn.stream);
                }
                self.stats.dropped += 1;
                Ok(())
            }
        }
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
        !self.chaos.active()
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
        try_pair_chaos(ChaosPlan::none())
    }

    fn try_pair_chaos(chaos: ChaosPlan) -> Option<TcpLoopback> {
        let mut t = TcpLoopback::with_chaos(chaos).ok()?;
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

    /// Pumps until at least `want` chaos records accumulate.
    fn pump_records(t: &mut TcpLoopback, want: usize) -> Vec<ChaosRecord> {
        let mut records = Vec::new();
        for _ in 0..2000 {
            t.advance().expect("advance");
            records.extend(t.take_chaos());
            if records.len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        records
    }

    #[test]
    fn frames_cross_real_sockets() {
        let Some(mut t) = try_pair() else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
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
        let plan = ChaosPlan { seed: 0x2E5E7, reset_prob: 0.005, ..ChaosPlan::none() };
        let Some(mut t) = try_pair_chaos(plan) else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        // No poll between sends: frames queued behind a reset leave with
        // its explicit flush, frames sent after it open a new socket.
        let mut expect = Vec::new();
        for i in 0..2000u32 {
            let f = Frame::Control(Message::Have { piece: PieceId(i) });
            t.send(NodeId(1), NodeId(2), f.clone()).expect("send");
            if t.take_chaos().is_empty() {
                expect.push(f);
            }
        }
        let resets = 2000 - expect.len();
        assert!((2..=40).contains(&resets), "the plan must reset a few links, not {resets}");
        let got: Vec<Frame> = pump(&mut t, expect.len()).into_iter().map(|d| d.frame).collect();
        assert!(
            got == expect,
            "every frame that was not itself reset, in order ({} of {} arrived)",
            got.len(),
            expect.len()
        );
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
        // Corrupt exactly the early frames: with p=1.0 every send is
        // mangled, so nothing may ever deliver and each doomed stream
        // must surface a typed reject instead of erroring the transport.
        let Some(mut t) = try_pair_chaos(ChaosPlan::corrupting(13, 1.0)) else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        assert!(!t.reliable());
        t.send(NodeId(1), NodeId(2), Frame::Control(Message::Have { piece: PieceId(3) }))
            .expect("send");
        let records = pump_records(&mut t, 2);
        assert!(
            records.iter().any(|r| matches!(r, ChaosRecord::Inject { .. })),
            "injection must be logged: {records:?}"
        );
        // A truncate-to-nothing mutation leaves no receiver-side evidence;
        // any other mutation must produce a reject. Either way the
        // transport stayed alive:
        t.send(NodeId(2), NodeId(1), Frame::Control(Message::Have { piece: PieceId(5) }))
            .expect("transport must survive a poisoned link");
        assert_eq!(t.stats().delivered, 0, "no corrupted frame may deliver silently");
    }

    #[test]
    fn chaos_reset_kills_the_stream_mid_frame() {
        let plan = ChaosPlan { reset_prob: 1.0, ..ChaosPlan::none() };
        let Some(mut t) = try_pair_chaos(plan) else {
            eprintln!("skipping: loopback TCP unavailable");
            return;
        };
        t.send(NodeId(1), NodeId(2), Frame::PieceData { piece: PieceId(0), payload: vec![7; 512] })
            .expect("send");
        let records = pump_records(&mut t, 2);
        assert!(records
            .iter()
            .any(|r| matches!(r, ChaosRecord::Inject { action: ChaosAction::Reset, .. })));
        assert!(
            records.iter().any(
                |r| matches!(r, ChaosRecord::Reject(rj) if rj.cause == RejectCause::Reset)
            ),
            "receiver must observe the mid-frame cut: {records:?}"
        );
        assert_eq!(t.stats().delivered, 0);
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
