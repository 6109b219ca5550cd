//! Replay legs: the traffic a traced run recorded, pushed through each
//! layer's public functions and timed in isolation.
//!
//! A leg times a sample of each bucket's operations and scales to the
//! bucket's count, so a million-frame run replays in tens of
//! milliseconds. The figures are each layer's cost on this run's exact
//! traffic mix — a model of the time the layer took inside the run, not
//! a measurement taken there.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use tchain_crypto::Keyring;
use tchain_net::{Frame, FrameDecoder, TimerWheel};
use tchain_proto::wire::Message;

use crate::metrics::Values;
use crate::stats::{mib, ratio};
use crate::traced::Bucket;

/// Wall time one (bucket, leg) pair may spend sampling.
const LEG_BUDGET_S: f64 = 0.03;

/// Seconds `count` calls of `op` take, extrapolated from a timed sample.
fn time_scaled(count: f64, mut op: impl FnMut()) -> f64 {
    if count <= 0.0 {
        return 0.0;
    }
    let t = Instant::now();
    for _ in 0..4 {
        op();
    }
    let per_op = (t.elapsed().as_secs_f64() / 4.0).max(1e-9);
    let reps = ((LEG_BUDGET_S / per_op) as u64).clamp(16, (count as u64).max(16));
    let t = Instant::now();
    for _ in 0..reps {
        op();
    }
    t.elapsed().as_secs_f64() / reps as f64 * count
}

/// Per-iteration cost of the byte- and frame-proportional layers.
#[derive(Debug, Default)]
pub struct Replay {
    pub crypto_bytes: f64,
    pub crypto_calls: f64,
    pub crypto_s: f64,
    pub frames: f64,
    pub frame_bytes: f64,
    pub frame_encode_s: f64,
    pub frame_decode_s: f64,
    pub wire_msgs: f64,
    pub wire_encode_s: f64,
    pub wire_decode_s: f64,
}

/// Replays `buckets`, whose counts cover `iterations` identical runs.
pub fn replay(buckets: &[Bucket], iterations: f64) -> Replay {
    let mut r = Replay::default();
    let (_, key) = Keyring::new(0x5EED).mint();
    let mut decoder = FrameDecoder::new();
    for b in buckets {
        let count = b.count as f64 / iterations;
        let wire = b.exemplar.encode();
        r.frames += count;
        r.frame_bytes += count * b.encoded_len as f64;
        r.frame_encode_s += time_scaled(count, || {
            black_box(black_box(&b.exemplar).encode());
        });
        r.frame_decode_s += time_scaled(count, || {
            decoder.push(black_box(&wire));
            black_box(decoder.next_frame().expect("exemplar re-decodes"));
        });
        match &b.exemplar {
            Frame::PieceData { payload, .. } => {
                // Encrypt at the donor, decrypt at the requestor.
                let mut buf = payload.clone();
                r.crypto_calls += 2.0 * count;
                r.crypto_bytes += 2.0 * count * payload.len() as f64;
                r.crypto_s += time_scaled(2.0 * count, || {
                    key.apply(black_box(&mut buf));
                });
            }
            Frame::Control(msg) => {
                let body = msg.encode();
                r.wire_msgs += count;
                r.wire_encode_s += time_scaled(count, || {
                    black_box(black_box(msg).encode());
                });
                r.wire_decode_s += time_scaled(count, || {
                    black_box(Message::decode(black_box(&body)).expect("exemplar re-decodes"));
                });
            }
        }
    }
    r
}

impl Replay {
    /// The crypto leg (shares are the caller's: they depend on which of
    /// these costs the backend actually pays).
    pub fn report_crypto(&self, v: &mut Values) {
        v.set("crypto.bytes", self.crypto_bytes);
        v.set("crypto.calls", self.crypto_calls);
        v.set("crypto.busy_s", self.crypto_s);
        v.set("crypto.mib_s", ratio(mib(self.crypto_bytes), self.crypto_s));
    }

    /// The codec legs: `net.frame` and `proto.wire`.
    pub fn report_codec(&self, v: &mut Values) {
        v.set("net.frame.frames", self.frames);
        v.set("net.frame.bytes", self.frame_bytes);
        v.set("net.frame.encode_busy_s", self.frame_encode_s);
        v.set(
            "net.frame.encode_ns_per_frame",
            ratio(self.frame_encode_s * 1e9, self.frames),
        );
        v.set(
            "net.frame.encode_mib_s",
            ratio(mib(self.frame_bytes), self.frame_encode_s),
        );
        v.set("net.frame.decode_busy_s", self.frame_decode_s);
        v.set(
            "net.frame.decode_ns_per_frame",
            ratio(self.frame_decode_s * 1e9, self.frames),
        );
        v.set(
            "net.frame.decode_mib_s",
            ratio(mib(self.frame_bytes), self.frame_decode_s),
        );
        v.set("proto.wire.msgs", self.wire_msgs);
        v.set("proto.wire.encode_busy_s", self.wire_encode_s);
        v.set("proto.wire.decode_busy_s", self.wire_decode_s);
        v.set(
            "proto.wire.ns_per_msg",
            ratio(
                (self.wire_encode_s + self.wire_decode_s) * 1e9,
                self.wire_msgs,
            ),
        );
    }
}

/// Cost of the harness's timer index on a run of this shape.
#[derive(Debug, Default)]
pub struct SchedReplay {
    pub ops: u64,
    pub schedule_s: f64,
    pub schedule_calls: u64,
    pub pop_due_s: f64,
    pub pop_due_calls: u64,
    pub busy_s: f64,
}

/// How far ahead a ticked peer re-arms in the replay: the order of the
/// runtime's stall and rechoke deadlines.
const REARM_AHEAD_S: f64 = 25.0;

/// Drives a [`TimerWheel`] with the shape of a run: `peers` peers armed
/// at boot, one `pop_due` per tick over `ticks` ticks, and one re-arm
/// for each of the `wakes` frame-driven peer visits the decorator saw
/// (spread evenly over the run). A peer whose timer pops with no frame
/// pending goes quiescent, as an idle peer does in the harness. The
/// timer-driven visits of the real run are not visible from outside, so
/// this is a floor on the scheduler's work, not a count of it.
pub fn replay_sched(peers: u32, ticks: u64, wakes: u64) -> SchedReplay {
    let mut r = SchedReplay::default();
    if peers == 0 || ticks == 0 {
        return r;
    }
    let mut wheel = TimerWheel::new();
    for p in 0..peers {
        wheel.schedule(p, 0.0);
    }
    let mut due = BTreeSet::new();
    let mut cursor = 0u32;
    let mut owed = 0.0f64;
    let per_tick = wakes as f64 / ticks as f64;
    for tick in 1..=ticks {
        let now = tick as f64;
        let t = Instant::now();
        wheel.pop_due(now, &mut due);
        r.pop_due_s += t.elapsed().as_secs_f64();
        r.pop_due_calls += 1;
        due.clear();
        owed += per_tick;
        let visits = owed as u64;
        owed -= visits as f64;
        let t = Instant::now();
        for _ in 0..visits {
            cursor = (cursor + 1) % peers;
            wheel.schedule(cursor, now + REARM_AHEAD_S);
        }
        r.schedule_s += t.elapsed().as_secs_f64();
        r.schedule_calls += visits;
    }
    black_box(wheel.len());
    r.ops = r.schedule_calls + r.pop_due_calls;
    r.busy_s = r.schedule_s + r.pop_due_s;
    r
}

impl SchedReplay {
    pub fn report(&self, v: &mut Values) {
        v.set("net.sched.ops", self.ops as f64);
        v.set(
            "net.sched.schedule_ns_per_op",
            ratio(self.schedule_s * 1e9, self.schedule_calls as f64),
        );
        v.set(
            "net.sched.pop_due_ns_per_op",
            ratio(self.pop_due_s * 1e9, self.pop_due_calls as f64),
        );
        v.set("net.sched.busy_s", self.busy_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::Kind;
    use tchain_proto::PieceId;

    #[test]
    fn replay_counts_every_frame_and_byte() {
        let data = Frame::PieceData {
            piece: PieceId(1),
            payload: vec![7; 256],
        };
        let have = Frame::Control(Message::Have { piece: PieceId(2) });
        let buckets = vec![
            Bucket {
                kind: Kind::PieceData,
                encoded_len: data.encoded_len(),
                count: 20,
                exemplar: data,
            },
            Bucket {
                kind: Kind::Have,
                encoded_len: have.encoded_len(),
                count: 10,
                exemplar: have,
            },
        ];
        let r = replay(&buckets, 2.0);
        assert_eq!(r.frames, 15.0);
        assert_eq!(r.crypto_calls, 20.0);
        assert_eq!(r.crypto_bytes, 20.0 * 256.0);
        assert_eq!(r.wire_msgs, 5.0);
        assert!(r.frame_encode_s > 0.0 && r.frame_decode_s > 0.0 && r.crypto_s > 0.0);
    }

    #[test]
    fn sched_replay_pops_once_per_tick() {
        let r = replay_sched(8, 100, 250);
        assert_eq!(r.pop_due_calls, 100);
        assert_eq!(r.schedule_calls, 250);
        assert_eq!(replay_sched(0, 100, 5).ops, 0);
    }
}
