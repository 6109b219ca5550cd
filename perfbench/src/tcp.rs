//! `tcp_stream`: one `TcpLoopback` link over the host's loopback
//! interface, driven closed-loop from a single thread at the largest and
//! the smallest frame.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use tchain_net::{ChannelMesh, Frame, NetError, TcpLoopback, Transport};
use tchain_proto::wire::Message;
use tchain_proto::PieceId;
use tchain_sim::{FaultPlan, NodeId};

use crate::stats::{fastest, mib, mix, ratio, Timings};
use crate::traced::{open_span, SharedTrace, Traced, NO_PARENT};
use crate::workloads::{stream_inputs, StreamInputs, BULK_PAYLOAD};
use crate::{layers, Args, Budget, Outcome, MIN_ITERS, SETUPS_PER_ITER};

const SENDER: NodeId = NodeId(1);
const RECEIVER: NodeId = NodeId(2);

/// Polls without a delivery after which the pump gives up (a dead link
/// would otherwise spin forever).
const MAX_IDLE_POLLS: u64 = 50_000_000;

/// One phase of the pump: what was sent, what came back, how long.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub frames: u64,
    /// Frames that arrived in order and equal to what was sent.
    pub verified: u64,
    pub payload_bytes: u64,
    pub secs: f64,
    /// Frame-generator time inside the pump (only with `time_gen`).
    pub gen_s: f64,
}

#[derive(Debug, Default, Clone)]
pub struct PumpResult {
    pub bulk: Phase,
    pub ctrl: Phase,
}

impl PumpResult {
    pub fn secs(&self) -> f64 {
        self.bulk.secs + self.ctrl.secs
    }

    pub fn frames(&self) -> u64 {
        self.bulk.frames + self.ctrl.frames
    }

    pub fn failed(&self) -> u64 {
        self.frames() - self.bulk.verified - self.ctrl.verified
    }
}

/// The piece id of frame `i`: a sequence both ends regenerate from the
/// seed, so the receiver checks content and order without a copy of
/// what was sent.
fn piece_id(inputs: &StreamInputs, i: u64) -> PieceId {
    PieceId((mix(inputs.id_seed, i) % (1 << 20)) as u32)
}

/// Sends `frames` frames produced by `make`, at most `window` in flight,
/// and checks each delivery with `verify`.
fn pump_phase<T: Transport>(
    t: &mut T,
    frames: u64,
    window: u64,
    time_gen: bool,
    make: impl Fn(u64) -> (Frame, u64),
    verify: impl Fn(u64, &Frame) -> bool,
) -> Result<Phase, NetError> {
    let mut phase = Phase {
        frames,
        ..Phase::default()
    };
    let (mut sent, mut received, mut idle) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while received < frames {
        while sent < frames && sent - received < window {
            let g = time_gen.then(Instant::now);
            let (frame, payload) = make(sent);
            if let Some(g) = g {
                phase.gen_s += g.elapsed().as_secs_f64();
            }
            phase.payload_bytes += payload;
            t.send(SENDER, RECEIVER, frame)?;
            sent += 1;
        }
        let got = t.advance()?;
        if got.is_empty() {
            idle += 1;
            if idle > MAX_IDLE_POLLS {
                return Err(NetError::BackendState("tcp_stream pump stalled"));
            }
            continue;
        }
        idle = 0;
        for d in &got {
            if d.from == SENDER && d.to == RECEIVER && verify(received, &d.frame) {
                phase.verified += 1;
            }
            received += 1;
        }
    }
    phase.secs = start.elapsed().as_secs_f64();
    // An extra or out-of-order frame shifts every later index, so it
    // already shows as unverified frames; cap for the duplicate case.
    phase.verified = phase.verified.min(frames);
    Ok(phase)
}

/// Phase A (bulk `PieceData`) then phase B (`Have` control frames).
pub fn pump<T: Transport>(
    t: &mut T,
    inputs: &StreamInputs,
    time_gen: bool,
    mut between: impl FnMut(),
) -> Result<PumpResult, NetError> {
    let pool = &inputs.payloads;
    let bulk = pump_phase(
        t,
        inputs.bulk_frames,
        inputs.bulk_window,
        time_gen,
        |i| {
            let payload = pool[i as usize % pool.len()].clone();
            (
                Frame::PieceData {
                    piece: piece_id(inputs, i),
                    payload,
                },
                BULK_PAYLOAD as u64,
            )
        },
        |i, f| {
            matches!(f, Frame::PieceData { piece, payload }
            if *piece == piece_id(inputs, i) && *payload == pool[i as usize % pool.len()])
        },
    )?;
    between();
    let ctrl = pump_phase(
        t,
        inputs.ctrl_frames,
        inputs.ctrl_window,
        time_gen,
        |i| {
            (
                Frame::Control(Message::Have {
                    piece: piece_id(inputs, i),
                }),
                0,
            )
        },
        |i, f| matches!(f, Frame::Control(Message::Have { piece }) if *piece == piece_id(inputs, i)),
    )?;
    Ok(PumpResult { bulk, ctrl })
}

/// Registers both ends and exchanges one frame, so the link's connect
/// and accept are part of set-up, not of phase A.
fn connect<T: Transport>(t: &mut T) -> Result<(), NetError> {
    t.register(SENDER)?;
    t.register(RECEIVER)?;
    t.send(
        SENDER,
        RECEIVER,
        Frame::Control(Message::NeighborRequest { from: SENDER }),
    )?;
    let mut polls = 0u64;
    while t.advance()?.is_empty() {
        polls += 1;
        if polls > MAX_IDLE_POLLS {
            return Err(NetError::BackendState("tcp_stream link never came up"));
        }
    }
    Ok(())
}

struct Iteration {
    setup_s: f64,
    result: PumpResult,
}

/// Fresh inputs and fresh, connected sockets: the set-up half.
fn build(args: &Args) -> Result<(StreamInputs, TcpLoopback, f64), NetError> {
    let t = Instant::now();
    let inputs = stream_inputs(args.seed, args.smoke);
    let mut tcp = TcpLoopback::new()?;
    connect(&mut tcp)?;
    Ok((inputs, tcp, t.elapsed().as_secs_f64()))
}

/// One set-up, one A+B pump.
fn iterate(args: &Args) -> Result<Iteration, NetError> {
    let (inputs, mut tcp, setup_s) = build(args)?;
    let result = pump(&mut tcp, &inputs, false, || {})?;
    Ok(Iteration { setup_s, result })
}

fn check(out: &mut Outcome, r: &PumpResult) {
    out.attempted += r.frames();
    out.failed += r.failed();
}

/// The untraced run. The two phases are the parts of an iteration, so
/// each rate comes from its phase's fastest pass.
pub fn run(args: &Args) -> Result<Outcome, NetError> {
    let mut out = Outcome::end_to_end();
    let (mut setups, mut walls) = (Timings::default(), Timings::default());
    let mut last = PumpResult::default();
    let mut budget = Budget::start();
    while budget.more(args, MIN_ITERS) {
        for _ in 0..SETUPS_PER_ITER {
            setups.push(&[build(args)?.2]);
        }
        let it = iterate(args)?;
        check(&mut out, &it.result);
        setups.push(&[it.setup_s]);
        walls.push(&[it.result.bulk.secs, it.result.ctrl.secs]);
        last = it.result;
        out.sample_rss();
    }
    out.set_timings(&setups, &walls);
    let (bulk_s, ctrl_s) = (out.part_s[0], out.part_s[1]);
    out.values.set(
        "goodput_mib_s",
        mib(last.bulk.payload_bytes as f64) / bulk_s,
    );
    out.values
        .set("ops_per_s", last.ctrl.frames as f64 / ctrl_s);
    Ok(out)
}

/// The kernel floor: phase A's byte count over a bare `std::net` pair,
/// 16 KiB reads, no framing, same single-thread closed loop.
fn rawsock_bulk_mib_s(total: u64) -> std::io::Result<f64> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    let (mut rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let chunk = vec![0xA5u8; BULK_PAYLOAD];
    let mut buf = [0u8; 16 * 1024];
    let (mut written, mut read, mut offset) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    while read < total {
        while written < total {
            match tx.write(&chunk[offset..]) {
                Ok(n) => {
                    written += n as u64;
                    offset = (offset + n) % chunk.len();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            match rx.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => read += n as u64,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(mib(total as f64) / start.elapsed().as_secs_f64())
}

/// Nanoseconds one idle link adds to `TcpLoopback::advance`: a transport
/// with 56 quiet links against one with 2.
fn idle_poll_ns_per_link(polls: u32) -> Result<f64, NetError> {
    let time_idle = |peers: u32| -> Result<(f64, f64), NetError> {
        let mut t = TcpLoopback::new()?;
        for p in 0..peers {
            t.register(NodeId(p))?;
        }
        let links = peers * (peers - 1);
        for a in 0..peers {
            for b in (0..peers).filter(|&b| b != a) {
                t.send(
                    NodeId(a),
                    NodeId(b),
                    Frame::Control(Message::Have { piece: PieceId(a) }),
                )?;
            }
        }
        let (mut got, mut spins) = (0, 0u64);
        while got < links {
            got += t.advance()?.len() as u32;
            spins += 1;
            if spins > MAX_IDLE_POLLS {
                return Err(NetError::BackendState("idle-poll links never came up"));
            }
        }
        let start = Instant::now();
        for _ in 0..polls {
            std::hint::black_box(t.advance()?);
        }
        Ok((
            start.elapsed().as_secs_f64() * 1e9 / f64::from(polls),
            f64::from(links),
        ))
    };
    let (many_ns, many_links) = time_idle(8)?;
    let (few_ns, few_links) = time_idle(2)?;
    Ok((many_ns - few_ns) / (many_links - few_links))
}

/// The traced run: plain and decorated pumps alternate for `--seconds`;
/// then the same stream crosses the mesh and a bare socket pair, and the
/// recorded frames go through the codec legs.
pub fn run_traced(args: &Args, trace: &SharedTrace) -> Result<Outcome, NetError> {
    let mut out = Outcome::per_layer();
    check(&mut out, &iterate(args)?.result);
    let inputs = stream_inputs(args.seed, args.smoke);

    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut connects, mut gens) = (Vec::new(), Vec::new());
    // Decorator counters at the A/B boundary and at the end of each pump.
    let (mut bulk_send_ns, mut ctrl_send_ns) = (0u64, 0u64);
    let mut plain = PumpResult::default();
    let mut budget = Budget::start();
    let mut iter = 0u32;
    while budget.more(args, 1) {
        let it = iterate(args)?;
        check(&mut out, &it.result);
        plain_walls.push(it.result.secs());
        plain = it.result;

        let root = open_span(trace, "iteration", NO_PARENT, iter);
        let connect_span = open_span(trace, "tcp.connect", root, iter);
        let mut tcp = Traced::new(TcpLoopback::new()?, trace.clone());
        connect(&mut tcp)?;
        connects.push(trace.borrow_mut().spans.end(connect_span));
        let pump_span = open_span(trace, "tcp.pump", root, iter);
        let before = trace.borrow().log.send_busy_ns;
        let mut at_boundary = 0u64;
        let r = pump(&mut tcp, &inputs, true, || {
            at_boundary = trace.borrow().log.send_busy_ns
        })?;
        {
            let mut st = trace.borrow_mut();
            st.spans.end(pump_span);
            st.spans.end(root);
            bulk_send_ns += at_boundary - before;
            ctrl_send_ns += st.log.send_busy_ns - at_boundary;
        }
        check(&mut out, &r);
        traced_walls.push(r.secs());
        gens.push(r.bulk.gen_s + r.ctrl.gen_s);
        iter += 1;
    }

    // The same stream over the in-process mesh: what framing plus the
    // kernel cost, as a ratio.
    let mut mesh = ChannelMesh::new(FaultPlan::none(), 1e-3);
    connect(&mut mesh)?;
    let over_mesh = pump(&mut mesh, &inputs, false, || {})?;
    check(&mut out, &over_mesh);
    let floor = rawsock_bulk_mib_s(plain.bulk.payload_bytes).map_err(NetError::Io)?;
    let idle_ns = idle_poll_ns_per_link(if args.smoke { 200 } else { 20_000 })?;

    let st = trace.borrow();
    let log = &st.log;
    let n = traced_walls.len() as f64;
    let wall = fastest(&plain_walls);
    let v = &mut out.values;
    let tcp_bulk = mib(plain.bulk.payload_bytes as f64) / plain.bulk.secs;
    let tcp_ctrl = plain.ctrl.frames as f64 / plain.ctrl.secs;
    let mesh_bulk = mib(over_mesh.bulk.payload_bytes as f64) / over_mesh.bulk.secs;
    let mesh_ctrl = over_mesh.ctrl.frames as f64 / over_mesh.ctrl.secs;
    v.set("net.tcp.connect_s", fastest(&connects));
    v.set("net.tcp.send_busy_s", log.send_busy_ns as f64 * 1e-9 / n);
    v.set(
        "net.tcp.advance_busy_s",
        log.advance_busy_ns as f64 * 1e-9 / n,
    );
    v.set(
        "net.tcp.bulk_send_ns_per_frame",
        bulk_send_ns as f64 / n / inputs.bulk_frames as f64,
    );
    v.set(
        "net.tcp.ctrl_send_ns_per_frame",
        ctrl_send_ns as f64 / n / inputs.ctrl_frames as f64,
    );
    v.set("net.tcp.advance_calls", log.advance_calls as f64 / n);
    v.set("net.tcp.empty_advances", log.empty_advances as f64 / n);
    v.set(
        "net.tcp.frames_per_advance",
        ratio(
            log.frames_delivered as f64,
            (log.advance_calls - log.empty_advances) as f64,
        ),
    );
    v.set("net.tcp.idle_poll_ns_per_link", idle_ns);
    v.set("net.tcp.gap_bulk_x", mesh_bulk / tcp_bulk);
    v.set("net.tcp.gap_ctrl_x", mesh_ctrl / tcp_ctrl);
    v.set("net.tcp.over_floor_x", floor / tcp_bulk);
    v.set("bench.rawsock.bulk_mib_s", floor);
    v.set("net.transport.bulk_mib_s", mesh_bulk);
    v.set("net.transport.ctrl_frames_per_s", mesh_ctrl);

    // Over TCP every byte is encoded by the sender and decoded (and
    // checksummed again) by the receiver.
    let replay = layers::replay(&log.buckets, n);
    replay.report_codec(v);
    v.set(
        "net.frame.share",
        (replay.frame_encode_s + replay.frame_decode_s) / wall,
    );
    v.set(
        "bench.trace_overhead_share",
        (fastest(&traced_walls) - wall) / wall,
    );
    v.set("bench.gen_s", fastest(&gens));
    out.samples = traced_walls.len();
    Ok(out)
}
