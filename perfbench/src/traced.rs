//! Tracing from outside the program: spans recorded by the bench around
//! its calls into each layer, and the [`Traced`] transport decorator.
//!
//! Nothing in `crates/` is instrumented. The decorator is handed to the
//! public `SwarmHarness::new`, times every `send`/`send_meta`/`advance`
//! and buckets every delivery by `(kind, encoded length)` with one
//! exemplar frame per bucket, so the replay legs in `layers.rs` can push
//! the run's exact traffic mix through each layer's public functions.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use tchain_net::{CausalMeta, ChaosRecord, Delivery, Frame, NetError, Transport, TransportStats};
use tchain_proto::wire::Message;
use tchain_sim::NodeId;

/// Index of a span in [`Spans`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Timed-iteration number the span belongs to.
    pub iter: u32,
}

/// In-memory span store; written out once, at exit.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, iter: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Records an already-measured interval ending now (used for the
    /// per-tick aggregate of `send` calls, whose individual spans would
    /// outnumber everything else a thousandfold).
    fn push_closed(&mut self, name: &'static str, parent: SpanId, iter: u32, busy_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(busy_ns),
            end_ns,
            parent,
            iter,
        });
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_s(&self, id: SpanId) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iter
            )?;
        }
        out.flush()
    }
}

/// Frame kinds the buckets distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PieceData,
    PieceUpload,
    ReceptionReport,
    KeyRelease,
    NeighborRequest,
    Have,
    Bitfield,
}

impl Kind {
    fn of(frame: &Frame) -> Kind {
        match frame {
            Frame::PieceData { .. } => Kind::PieceData,
            Frame::Control(Message::PieceUpload { .. }) => Kind::PieceUpload,
            Frame::Control(Message::ReceptionReport { .. }) => Kind::ReceptionReport,
            Frame::Control(Message::KeyRelease { .. }) => Kind::KeyRelease,
            Frame::Control(Message::NeighborRequest { .. }) => Kind::NeighborRequest,
            Frame::Control(Message::Have { .. }) => Kind::Have,
            Frame::Control(Message::Bitfield { .. }) => Kind::Bitfield,
        }
    }
}

/// All deliveries of one `(kind, encoded length)`.
#[derive(Debug, Clone)]
pub struct Bucket {
    pub kind: Kind,
    pub encoded_len: usize,
    pub count: u64,
    /// The first frame seen in this bucket.
    pub exemplar: Frame,
}

/// What one decorated transport saw.
#[derive(Debug, Default)]
pub struct TransportLog {
    pub send_calls: u64,
    pub send_busy_ns: u64,
    pub advance_calls: u64,
    pub advance_busy_ns: u64,
    pub empty_advances: u64,
    pub frames_delivered: u64,
    pub bytes_delivered: u64,
    pub batch_max: u64,
    /// Sum over `advance` calls of the distinct recipients in the batch:
    /// the peers the harness must tick (and re-arm) because a frame
    /// reached them.
    pub recipient_wakes: u64,
    pub chaos_injects: u64,
    pub chaos_rejects: u64,
    pub buckets: Vec<Bucket>,
    /// Largest peer id registered, plus one.
    pub peers: u32,
}

/// State shared between the decorator (owned by the harness while it
/// runs) and the bench (which reads it afterwards).
#[derive(Debug)]
pub struct TraceState {
    pub spans: Spans,
    pub log: TransportLog,
    /// Parent for the decorator's spans (the current `harness.run` span).
    pub parent: SpanId,
    pub iter: u32,
    /// `send` time accumulated since the last `advance`.
    pending_send_ns: u64,
    /// Scratch: `seen[to] == advance_calls` marks a recipient already
    /// counted in the current batch.
    seen: Vec<u64>,
}

pub type SharedTrace = Rc<RefCell<TraceState>>;

impl TraceState {
    pub fn shared() -> SharedTrace {
        Rc::new(RefCell::new(TraceState {
            spans: Spans::new(),
            log: TransportLog::default(),
            parent: NO_PARENT,
            iter: 0,
            pending_send_ns: 0,
            seen: Vec::new(),
        }))
    }
}

/// Opens a span and makes it the parent of the decorator's own spans.
pub fn open_span(trace: &SharedTrace, name: &'static str, parent: SpanId, iter: u32) -> SpanId {
    let mut st = trace.borrow_mut();
    let id = st.spans.begin(name, parent, iter);
    st.parent = id;
    st.iter = iter;
    id
}

/// A [`Transport`] that forwards everything to `inner` unchanged and
/// records what passed.
pub struct Traced<T: Transport> {
    inner: T,
    state: SharedTrace,
}

impl<T: Transport> Traced<T> {
    pub fn new(inner: T, state: SharedTrace) -> Self {
        Traced { inner, state }
    }

    /// Forwards one `send`/`send_meta` and books its time.
    fn timed_send(
        &mut self,
        send: impl FnOnce(&mut T) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let t = Instant::now();
        let r = send(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        st.log.send_calls += 1;
        st.log.send_busy_ns += ns;
        st.pending_send_ns += ns;
        r
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn register(&mut self, id: NodeId) -> Result<(), NetError> {
        let mut st = self.state.borrow_mut();
        st.log.peers = st.log.peers.max(id.0 + 1);
        self.inner.register(id)
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), NetError> {
        self.timed_send(|inner| inner.send(from, to, frame))
    }

    fn send_meta(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        meta: Option<CausalMeta>,
    ) -> Result<(), NetError> {
        self.timed_send(|inner| inner.send_meta(from, to, frame, meta))
    }

    fn advance(&mut self) -> Result<Vec<Delivery>, NetError> {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        if st.pending_send_ns > 0 {
            let busy = std::mem::take(&mut st.pending_send_ns);
            st.spans
                .push_closed("transport.send", st.parent, st.iter, busy);
        }
        let span = st.spans.begin("transport.advance", st.parent, st.iter);
        let out = self.inner.advance();
        let busy = st.spans.end(span);
        st.log.advance_calls += 1;
        st.log.advance_busy_ns += (busy * 1e9) as u64;
        let Ok(deliveries) = &out else { return out };
        if deliveries.is_empty() {
            st.log.empty_advances += 1;
            return out;
        }
        let stamp = st.log.advance_calls;
        st.log.frames_delivered += deliveries.len() as u64;
        st.log.batch_max = st.log.batch_max.max(deliveries.len() as u64);
        for d in deliveries {
            let len = d.frame.encoded_len();
            st.log.bytes_delivered += len as u64;
            let kind = Kind::of(&d.frame);
            match st
                .log
                .buckets
                .iter_mut()
                .find(|b| b.encoded_len == len && b.kind == kind)
            {
                Some(b) => b.count += 1,
                None => st.log.buckets.push(Bucket {
                    kind,
                    encoded_len: len,
                    count: 1,
                    exemplar: d.frame.clone(),
                }),
            }
            let to = d.to.0 as usize;
            if st.seen.len() <= to {
                st.seen.resize(to + 1, 0);
            }
            if st.seen[to] != stamp {
                st.seen[to] = stamp;
                st.log.recipient_wakes += 1;
            }
        }
        out
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn disconnect(&mut self, id: NodeId) {
        self.inner.disconnect(id);
    }

    fn reconnect(&mut self, id: NodeId) -> Result<(), NetError> {
        let mut st = self.state.borrow_mut();
        st.log.peers = st.log.peers.max(id.0 + 1);
        self.inner.reconnect(id)
    }

    fn take_chaos(&mut self) -> Vec<ChaosRecord> {
        let records = self.inner.take_chaos();
        let mut st = self.state.borrow_mut();
        for r in &records {
            match r {
                ChaosRecord::Inject { .. } => st.log.chaos_injects += 1,
                ChaosRecord::Reject(_) => st.log.chaos_rejects += 1,
            }
        }
        records
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn reliable(&self) -> bool {
        self.inner.reliable()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::new();
        let root = spans.begin("root", NO_PARENT, 0);
        let child = spans.begin("child", root, 0);
        let grandchild = spans.begin("grandchild", child, 0);
        spans.spans[grandchild as usize].end_ns = spans.spans[grandchild as usize].start_ns + 10;
        spans.spans[child as usize].end_ns = spans.spans[child as usize].start_ns + 40;
        spans.spans[root as usize].end_ns = spans.spans[root as usize].start_ns + 100;
        assert!((spans.self_s(root) - 60e-9).abs() < 1e-12);
        assert!((spans.self_s(child) - 30e-9).abs() < 1e-12);
    }
}
