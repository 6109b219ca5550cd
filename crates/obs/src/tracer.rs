//! The tracer: an on/off switch in front of an [`EventRing`].
//!
//! Disabled is the default and costs one branch per instrumentation
//! site: the [`trace_event!`] macro tests [`Tracer::is_enabled`] before
//! it even constructs the event, so argument expressions are never
//! evaluated on the cold path and fault-free runs stay bit-identical.

use crate::event::{Event, TraceRecord};
use crate::ring::EventRing;

/// Records [`Event`]s into a bounded ring when enabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    ring: Option<EventRing>,
    next_seq: u64,
    origin: Option<u32>,
    lamport: u64,
}

impl Tracer {
    /// A tracer that drops everything (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer buffering up to `capacity` records, oldest-overwritten.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Some(EventRing::new(capacity)),
            next_seq: 0,
            origin: None,
            lamport: 0,
        }
    }

    /// A tracer with a per-peer causal identity: every record is stamped
    /// with `origin = peer` and a fresh Lamport tick, so rings from
    /// different peers can be merged into one causally ordered trace.
    pub fn for_peer(peer: u32, capacity: usize) -> Self {
        Self {
            ring: Some(EventRing::new(capacity)),
            next_seq: 0,
            origin: Some(peer),
            lamport: 0,
        }
    }

    /// Advance the Lamport clock for a local or send event and return
    /// the new value (to stamp onto an outgoing frame).
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.lamport += 1;
        self.lamport
    }

    /// Merge a remote clock witnessed on a received frame:
    /// `clock = max(clock, remote)`, so the subsequent receive-event
    /// tick lands strictly after the sender's send event.
    #[inline]
    pub fn witness(&mut self, remote: u64) {
        self.lamport = self.lamport.max(remote);
    }

    /// Current Lamport clock value.
    #[inline]
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// `true` when events are being recorded. Instrumentation sites must
    /// branch on this before building an event (the macro does).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Record one event at simulated time `t`. Tracers with a per-peer
    /// identity ([`Tracer::for_peer`]) tick the Lamport clock and stamp
    /// `origin`/`lamport` onto the record.
    #[inline]
    pub fn record(&mut self, t: f64, event: Event) {
        if self.ring.is_some() {
            let lamport = if self.origin.is_some() {
                self.lamport += 1;
                Some(self.lamport)
            } else {
                None
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let origin = self.origin;
            if let Some(ring) = self.ring.as_mut() {
                ring.push(TraceRecord { t, seq, origin, lamport, event });
            }
        }
    }

    /// Buffered records, oldest-first. Empty when disabled.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.ring {
            Some(ring) => ring.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// The newest `n` buffered records, oldest-first, without copying.
    /// Empty when disabled.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().flat_map(move |ring| ring.tail(n))
    }

    /// Number of records currently buffered, zero when disabled.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, EventRing::len)
    }

    /// `true` when nothing is buffered (always, when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events emitted while enabled (recorded + overwritten).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of the ring, zero when disabled.
    pub fn peak_depth(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.peak_depth())
    }

    /// Records lost to ring overwrite, zero when disabled.
    pub fn overwritten(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.overwritten())
    }
}

/// Record an event iff the tracer is enabled.
///
/// Expands to a branch on [`Tracer::is_enabled`]; the event expression
/// (and therefore every argument) is only evaluated on the hot path.
///
/// ```
/// use tchain_obs::{trace_event, Event, Tracer};
/// let mut tr = Tracer::with_capacity(8);
/// trace_event!(tr, 1.0, Event::PeerDepart { peer: 3 });
/// assert_eq!(tr.records().len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $t:expr, $event:expr) => {
        if $tracer.is_enabled() {
            $tracer.record($t, $event);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parallel experiment runner moves tracers (inside run
    /// outcomes) across worker threads; keep that a compile-time
    /// guarantee.
    #[test]
    fn tracer_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Tracer>();
        assert_send::<crate::EventRing>();
        assert_send::<crate::TraceRecord>();
        assert_send::<crate::StatsRegistry>();
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        tr.record(0.0, Event::PeerDepart { peer: 1 });
        assert!(tr.records().is_empty());
        assert_eq!(tr.peak_depth(), 0);
    }

    #[test]
    fn macro_skips_argument_evaluation_when_disabled() {
        let mut tr = Tracer::disabled();
        let mut evaluated = false;
        let mut peer = || {
            evaluated = true;
            1u32
        };
        trace_event!(tr, 0.0, Event::PeerDepart { peer: peer() });
        assert!(!evaluated);
    }

    #[test]
    fn peer_tracer_stamps_strictly_increasing_lamport() {
        let mut tr = Tracer::for_peer(5, 8);
        tr.record(0.0, Event::PeerJoin { peer: 5, compliant: true });
        let sent = tr.tick(); // clock value carried on an outgoing frame
        tr.record(0.5, Event::PeerDepart { peer: 5 });
        tr.witness(100); // remote frame carried a much larger clock
        tr.record(1.0, Event::PeerCrash { peer: 5 });
        let recs = tr.records();
        assert_eq!(recs.iter().map(|r| r.origin).collect::<Vec<_>>(), vec![Some(5); 3]);
        let clocks: Vec<u64> = recs.iter().map(|r| r.lamport.unwrap()).collect();
        assert_eq!(clocks, vec![1, 3, 101]);
        assert_eq!(sent, 2);
        assert!(clocks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn plain_tracer_stamps_no_causal_fields() {
        let mut tr = Tracer::with_capacity(4);
        tr.record(0.0, Event::PeerDepart { peer: 1 });
        let rec = tr.records()[0];
        assert_eq!(rec.origin, None);
        assert_eq!(rec.lamport, None);
    }

    #[test]
    fn tail_agrees_with_records() {
        let mut tr = Tracer::for_peer(2, 3);
        for i in 0..5 {
            tr.record(i as f64, Event::PeerDepart { peer: i });
        }
        let all = tr.records();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.tail(2).copied().collect::<Vec<_>>(), all[1..]);
        assert_eq!(tr.tail(9).copied().collect::<Vec<_>>(), all);
        assert_eq!(Tracer::disabled().tail(4).count(), 0);
    }

    #[test]
    fn sequence_numbers_survive_overwrite() {
        let mut tr = Tracer::with_capacity(2);
        for i in 0..4 {
            tr.record(i as f64, Event::PeerDepart { peer: i });
        }
        let seqs: Vec<u64> = tr.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(tr.emitted(), 4);
        assert_eq!(tr.overwritten(), 2);
    }
}
