//! Deterministic delayed-delivery queue for scheduled events.
//!
//! Control messages under fault injection are no longer synchronous calls:
//! they are enqueued with a delivery time and drained by the driver's step
//! loop. Ordering is total — (delivery time by `f64::total_cmp`, then
//! insertion sequence) — so two runs with the same seed drain identically.
//!
//! The queue is time-bucketed: one FIFO per distinct delivery time, the
//! buckets in an ordered map keyed by the time's `total_cmp` rank.
//! Insertion order within a bucket *is* the tie-break, so no sequence
//! number is stored, and a push or a pop is one map probe plus one deque
//! end operation. The hot shape — a mesh tick whose frames are all due
//! one tick later — is a single bucket that `push` finds at the back of
//! the map.

use std::collections::{BTreeMap, VecDeque};

/// An integer with the order of `f64::total_cmp`: negative values have
/// all bits flipped, non-negative ones the sign bit set. A bijection, so
/// [`time_of`] recovers the exact bits (`-0.0`, NaN payloads and all).
fn rank(at: f64) -> u64 {
    let bits = at.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`rank`].
fn time_of(rank: u64) -> f64 {
    f64::from_bits(if rank >> 63 == 1 { rank & !(1 << 63) } else { !rank })
}

/// Messages ordered by delivery time (ties broken by insertion order),
/// drained against the simulation clock.
pub struct DelayQueue<M> {
    /// Pending messages by [`rank`] of their delivery time. Every bucket
    /// is non-empty and holds its messages in insertion order.
    buckets: BTreeMap<u64, VecDeque<M>>,
    /// Storage of an emptied bucket, handed to the next new one so a
    /// steady tick-by-tick stream reuses one buffer instead of growing a
    /// fresh one every tick.
    spare: VecDeque<M>,
    len: usize,
}

impl<M> Default for DelayQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> std::fmt::Debug for DelayQueue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayQueue")
            .field("pending", &self.len)
            .field("next_at", &self.next_at())
            .finish()
    }
}

impl<M> DelayQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DelayQueue { buckets: BTreeMap::new(), spare: VecDeque::new(), len: 0 }
    }

    /// Schedules `msg` for delivery at time `at`.
    pub fn push(&mut self, at: f64, msg: M) {
        let key = rank(at);
        self.len += 1;
        if let Some(mut last) = self.buckets.last_entry() {
            if *last.key() == key {
                last.get_mut().push_back(msg);
                return;
            }
        }
        let spare = &mut self.spare;
        self.buckets.entry(key).or_insert_with(|| std::mem::take(spare)).push_back(msg);
    }

    /// Pops the earliest message whose delivery time is ≤ `now`.
    pub fn pop_due(&mut self, now: f64) -> Option<M> {
        let mut first = self.buckets.first_entry()?;
        // The float comparison, not the rank: `0.0 <= -0.0` holds.
        if time_of(*first.key()) <= now {
            let msg = first.get_mut().pop_front();
            if first.get().is_empty() {
                let bucket = first.remove();
                if bucket.capacity() > self.spare.capacity() {
                    self.spare = bucket;
                }
            }
            self.len -= 1;
            msg
        } else {
            None
        }
    }

    /// Delivery time of the earliest pending message.
    pub fn next_at(&self) -> Option<f64> {
        self.buckets.first_key_value().map(|(&key, _)| time_of(key))
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ensure_eq, forall, sized, SimRng};

    /// The binary-heap queue the buckets replaced, kept as the reference
    /// order: (time by `total_cmp`, then insertion sequence).
    mod reference {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Entry<M> {
            at: f64,
            seq: u64,
            msg: M,
        }

        impl<M> PartialEq for Entry<M> {
            fn eq(&self, other: &Self) -> bool {
                self.seq == other.seq && self.at.total_cmp(&other.at) == Ordering::Equal
            }
        }

        impl<M> Eq for Entry<M> {}

        impl<M> PartialOrd for Entry<M> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl<M> Ord for Entry<M> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reversed: BinaryHeap is a max-heap, we want earliest-first.
                other
                    .at
                    .total_cmp(&self.at)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }

        /// A min-heap of messages ordered by delivery time (ties broken by
        /// insertion order), drained against the simulation clock.
        pub struct HeapQueue<M> {
            heap: BinaryHeap<Entry<M>>,
            seq: u64,
        }

        impl<M> HeapQueue<M> {
            /// Creates an empty queue.
            pub fn new() -> Self {
                HeapQueue { heap: BinaryHeap::new(), seq: 0 }
            }

            /// Schedules `msg` for delivery at time `at`.
            pub fn push(&mut self, at: f64, msg: M) {
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Entry { at, seq, msg });
            }

            /// Pops the earliest message whose delivery time is ≤ `now`.
            pub fn pop_due(&mut self, now: f64) -> Option<M> {
                if self.heap.peek().is_some_and(|e| e.at <= now) {
                    self.heap.pop().map(|e| e.msg)
                } else {
                    None
                }
            }

            /// Delivery time of the earliest pending message.
            pub fn next_at(&self) -> Option<f64> {
                self.heap.peek().map(|e| e.at)
            }

            /// Number of pending messages.
            pub fn len(&self) -> usize {
                self.heap.len()
            }

            /// `true` when nothing is pending.
            pub fn is_empty(&self) -> bool {
                self.heap.is_empty()
            }
        }
    }

    #[test]
    fn drains_in_time_then_insertion_order() {
        let mut q = DelayQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a");
        q.push(2.0, "c");
        q.push(0.5, "z");
        assert_eq!(q.len(), 4);
        let mut got = Vec::new();
        while let Some(m) = q.pop_due(2.0) {
            got.push(m);
        }
        assert_eq!(got, ["z", "a", "b", "c"], "ties break by insertion order");
        assert!(q.is_empty());
    }

    #[test]
    fn respects_now() {
        let mut q = DelayQueue::new();
        q.push(5.0, 1u32);
        assert_eq!(q.pop_due(4.9), None);
        assert_eq!(q.next_at(), Some(5.0));
        assert_eq!(q.pop_due(5.0), Some(1));
        assert_eq!(q.pop_due(5.0), None);
    }

    #[test]
    fn empty_queue_is_cheap() {
        let mut q: DelayQueue<u64> = DelayQueue::default();
        for t in 0..1000 {
            assert!(q.pop_due(t as f64).is_none());
        }
    }

    #[test]
    fn rank_orders_like_total_cmp_and_round_trips() {
        let xs = [f64::NEG_INFINITY, -1.0, -f64::MIN_POSITIVE, -0.0, 0.0, 1e-300, 1.0, f64::INFINITY];
        for a in xs.into_iter().chain([f64::NAN, -f64::NAN]) {
            assert_eq!(time_of(rank(a)).to_bits(), a.to_bits());
            for b in xs {
                assert_eq!(rank(a).cmp(&rank(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    /// Delivery times, and clock readings, where ties are the rule: the
    /// two zeros (`0.0 <= -0.0` holds, yet they are distinct times),
    /// repeats and an infinity.
    const POOL: [f64; 9] = [-1.0, -0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, f64::INFINITY];

    fn draw(rng: &mut SimRng) -> f64 {
        POOL[rng.below(POOL.len())]
    }

    #[test]
    fn buckets_drain_exactly_like_the_heap() {
        forall(0xB0C4_0E75, 256, |rng, size| {
            let mut q = DelayQueue::new();
            let mut heap = reference::HeapQueue::new();
            let mut next = 0u64;
            for _ in 0..sized(rng, size, 1, 400) {
                match rng.below(10) {
                    0..=3 => {
                        let at = draw(rng);
                        q.push(at, next);
                        heap.push(at, next);
                        next += 1;
                    }
                    4 => {
                        // A burst at one time: a mesh tick's worth of frames.
                        let at = draw(rng);
                        for _ in 0..1000 + rng.below(200) {
                            q.push(at, next);
                            heap.push(at, next);
                            next += 1;
                        }
                    }
                    5..=7 => {
                        let now = draw(rng);
                        ensure_eq!(q.pop_due(now), heap.pop_due(now), "pop_due({now})");
                    }
                    _ => {
                        let now = draw(rng);
                        loop {
                            let got = q.pop_due(now);
                            ensure_eq!(got, heap.pop_due(now), "drain to {now}");
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
                ensure_eq!(q.next_at().map(f64::to_bits), heap.next_at().map(f64::to_bits));
                ensure_eq!(q.len(), heap.len());
                ensure_eq!(q.is_empty(), heap.is_empty());
            }
            while let Some(m) = heap.pop_due(f64::INFINITY) {
                ensure_eq!(q.pop_due(f64::INFINITY), Some(m));
            }
            ensure_eq!((q.len(), q.is_empty()), (0, true));
            Ok(())
        });
    }
}
