//! Bounded overwrite-oldest ring buffer for [`TraceRecord`]s.
//!
//! The ring allocates on demand: its buffer doubles as records arrive
//! and stops growing at the cap, so a ring that sees a hundred events
//! costs 128 records, not its capacity. Once full it overwrites
//! the oldest record and counts the loss, so a long run with a small
//! cap degrades to "most recent N events" instead of unbounded memory
//! growth. Sequence numbers are assigned by the tracer, so gaps in an
//! exported stream reveal exactly how much was dropped.

use crate::event::TraceRecord;

/// Smallest buffer the first push allocates (capped by the ring's cap).
const FIRST_ALLOC: usize = 4;

/// Ring of trace records bounded by a fixed capacity.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    head: usize,
    peak: usize,
    overwritten: u64,
}

impl EventRing {
    /// Create a ring holding at most `capacity` records (min 1). Nothing
    /// is allocated until the first push.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap: capacity.max(1),
            head: 0,
            peak: 0,
            overwritten: 0,
        }
    }

    /// Append a record, overwriting the oldest when full.
    pub fn push(&mut self, rec: TraceRecord) {
        let len = self.buf.len();
        if len < self.cap {
            if len == self.buf.capacity() {
                let grown = (2 * len).max(FIRST_ALLOC).min(self.cap);
                self.buf.reserve_exact(grown - len);
            }
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
        self.peak = self.peak.max(self.buf.len());
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// High-water mark of buffered records over the ring's lifetime.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Records lost to overwriting since construction.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterate records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (tail, init) = self.buf.split_at(self.head);
        init.iter().chain(tail.iter())
    }

    /// Iterate the newest `n` records (all of them when fewer are
    /// buffered), oldest-first.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &TraceRecord> {
        self.iter().skip(self.len().saturating_sub(n))
    }

    /// Drop all buffered records (the buffer and counters are retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    // `tchain-sim` is a dev-dependency of this crate and depends on it, so
    // its `forall` links a second `tchain_obs`; only `SimRng` and plain
    // closures cross that line here, never a record type.
    use tchain_sim::{ensure, ensure_eq, forall, sized};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord::plain(seq as f64, seq, Event::PeerCrash { peer: seq as u32 })
    }

    /// The ring as it was when it allocated its whole capacity up front:
    /// the reference the growing ring must match push for push.
    struct FixedRing {
        buf: Vec<TraceRecord>,
        head: usize,
        len: usize,
        peak: usize,
        overwritten: u64,
    }

    impl FixedRing {
        fn new(capacity: usize) -> Self {
            Self {
                buf: Vec::with_capacity(capacity.max(1)),
                head: 0,
                len: 0,
                peak: 0,
                overwritten: 0,
            }
        }

        fn push(&mut self, rec: TraceRecord) {
            let cap = self.buf.capacity();
            if self.buf.len() < cap {
                self.buf.push(rec);
                self.len += 1;
            } else {
                self.buf[self.head] = rec;
                self.head = (self.head + 1) % cap;
                self.overwritten += 1;
            }
            self.peak = self.peak.max(self.len);
        }

        fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
            let (tail, init) = self.buf.split_at(self.head.min(self.buf.len()));
            init.iter().chain(tail.iter())
        }

        fn clear(&mut self) {
            self.buf.clear();
            self.head = 0;
            self.len = 0;
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut r = EventRing::new(4);
        for s in 0..3 {
            r.push(rec(s));
        }
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(r.peak_depth(), 3);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = EventRing::new(3);
        for s in 0..5 {
            r.push(rec(s));
        }
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.peak_depth(), 3);
        assert_eq!(r.overwritten(), 2);
    }

    #[test]
    fn clear_retains_counters() {
        let mut r = EventRing::new(2);
        r.push(rec(0));
        r.push(rec(1));
        r.push(rec(2));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.peak_depth(), 2);
        assert_eq!(r.overwritten(), 1);
        r.push(rec(3));
        assert_eq!(r.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn a_new_ring_allocates_nothing() {
        assert_eq!(EventRing::new(4096).buf.capacity(), 0);
    }

    #[test]
    fn growing_ring_matches_the_fixed_ring_push_for_push() {
        forall(0x41A6_0B0F, 256, |rng, size| {
            let cap = 1 + rng.below(300);
            let (mut ring, mut model) = (EventRing::new(cap), FixedRing::new(cap));
            let pushes = sized(rng, size, 0, 3 * cap + 2);
            for seq in 0..pushes as u64 {
                // An occasional clear exercises regrowth into a kept buffer.
                if rng.chance(0.01) {
                    ring.clear();
                    model.clear();
                }
                ring.push(rec(seq));
                model.push(rec(seq));
                ensure!(
                    ring.iter().eq(model.iter()),
                    "iter differs, cap {cap}, after push {seq}"
                );
                ensure_eq!(ring.len(), model.len, "len, cap {cap}");
                ensure_eq!(ring.peak_depth(), model.peak, "peak_depth, cap {cap}");
                ensure_eq!(
                    ring.overwritten(),
                    model.overwritten,
                    "overwritten, cap {cap}"
                );
                ensure!(
                    ring.buf.capacity() <= cap,
                    "buffer capacity {} past the cap {cap}",
                    ring.buf.capacity()
                );
                let n = rng.below(cap + 2);
                let newest = model.iter().skip(model.len.saturating_sub(n));
                ensure!(
                    ring.tail(n).eq(newest),
                    "tail({n}) differs, cap {cap}, after push {seq}"
                );
            }
            Ok(())
        });
    }
}
