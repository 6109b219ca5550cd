//! Weighted max-min upload-bandwidth sharing.
//!
//! Every in-flight transfer (a 64 KB T-Chain piece, a 16 KB BitTorrent
//! block, …) is a [`Flow`] from an uploader to a downloader. Each tick the
//! scheduler divides every uploader's capacity among its active flows with
//! *weighted water-filling*: flows that need less than their proportional
//! share finish and release the remainder to the others. Downloads are
//! unconstrained, matching the paper's assumption that "upload bandwidth was
//! assumed to be the limiting factor or resource" (§IV-A).

use crate::NodeId;

/// Handle to an in-flight flow. Stale handles (already-completed flows) are
/// detected via a generation counter and treated as absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: u32,
    gen: u32,
}

/// One in-flight transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Handle of this flow.
    pub id: FlowId,
    /// Uploading node (whose capacity is consumed).
    pub src: NodeId,
    /// Downloading node.
    pub dst: NodeId,
    /// Total bytes to transfer.
    pub size: f64,
    /// Bytes transferred so far.
    pub done: f64,
    /// Relative share of the uploader's capacity (PropShare sets these
    /// proportional to past contributions; everyone else uses 1.0).
    pub weight: f64,
    /// Opaque protocol cookie (e.g. a transaction id) carried through to
    /// completion.
    pub tag: u64,
}

impl Flow {
    /// Bytes still to transfer.
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.size - self.done).max(0.0)
    }
}

/// Bytes below which a flow counts as finished (guards float round-off).
const COMPLETE_EPS: f64 = 1e-6;

/// Lifetime counters for the scheduler, exported into the stats
/// registry as `flow.*`.
///
/// `anomalies` counts index entries that pointed at a dead or recycled
/// slot — a state that previously panicked via `expect()` and is now
/// skipped and tallied instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Flows started.
    pub started: u64,
    /// Flows that ran to completion.
    pub completed: u64,
    /// Flows cancelled (departures, crashes, protocol aborts).
    pub cancelled: u64,
    /// Dangling index entries skipped during `advance`.
    pub anomalies: u64,
}

impl tchain_obs::ExportStats for FlowStats {
    fn export_stats(&self, prefix: &str, reg: &mut tchain_obs::StatsRegistry) {
        reg.add(&format!("{prefix}started"), self.started);
        reg.add(&format!("{prefix}completed"), self.completed);
        reg.add(&format!("{prefix}cancelled"), self.cancelled);
        reg.add(&format!("{prefix}anomalies"), self.anomalies);
    }
}

/// The bandwidth model: tracks active flows, per-node upload capacity, and
/// cumulative per-node traffic counters.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct FlowScheduler {
    slots: Vec<Option<Flow>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    by_src: Vec<Vec<FlowId>>,
    by_dst: Vec<Vec<FlowId>>,
    capacity: Vec<f64>,
    uploaded: Vec<f64>,
    downloaded: Vec<f64>,
    active: usize,
    stats: FlowStats,
    // Scratch buffers reused across `advance` calls.
    scratch: Vec<(u32, f64, f64)>,
    weight_suffix: Vec<f64>,
}

impl FlowScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_node(&mut self, n: NodeId) {
        let i = n.index();
        if i >= self.capacity.len() {
            self.capacity.resize(i + 1, 0.0);
            self.uploaded.resize(i + 1, 0.0);
            self.downloaded.resize(i + 1, 0.0);
            self.by_src.resize_with(i + 1, Vec::new);
            self.by_dst.resize_with(i + 1, Vec::new);
        }
    }

    /// Sets a node's upload capacity in bytes per second. Zero (the default)
    /// models a free-rider that contributes nothing.
    pub fn set_capacity(&mut self, n: NodeId, bytes_per_sec: f64) {
        assert!(bytes_per_sec >= 0.0, "capacity must be non-negative");
        self.ensure_node(n);
        self.capacity[n.index()] = bytes_per_sec;
    }

    /// A node's upload capacity in bytes per second (0 if never set).
    pub fn capacity(&self, n: NodeId) -> f64 {
        self.capacity.get(n.index()).copied().unwrap_or(0.0)
    }

    /// Cumulative bytes a node has uploaded (including partial progress).
    pub fn uploaded(&self, n: NodeId) -> f64 {
        self.uploaded.get(n.index()).copied().unwrap_or(0.0)
    }

    /// Cumulative bytes a node has downloaded (including partial progress).
    pub fn downloaded(&self, n: NodeId) -> f64 {
        self.downloaded.get(n.index()).copied().unwrap_or(0.0)
    }

    /// Starts a flow of `size` bytes from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `weight` is not strictly positive.
    pub fn start(&mut self, src: NodeId, dst: NodeId, size: f64, weight: f64, tag: u64) -> FlowId {
        assert!(size > 0.0, "flow size must be positive");
        assert!(weight > 0.0, "flow weight must be positive");
        self.ensure_node(src);
        self.ensure_node(dst);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let id = FlowId { slot, gen: self.gens[slot as usize] };
        let flow = Flow { id, src, dst, size, done: 0.0, weight, tag };
        self.slots[slot as usize] = Some(flow);
        self.by_src[src.index()].push(id);
        self.by_dst[dst.index()].push(id);
        self.active += 1;
        self.stats.started += 1;
        id
    }

    /// Lifetime scheduler counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Looks up a live flow.
    pub fn get(&self, id: FlowId) -> Option<&Flow> {
        match self.slots.get(id.slot as usize) {
            Some(Some(f)) if f.id == id => Some(f),
            _ => None,
        }
    }

    fn detach(&mut self, f: &Flow) {
        let list = &mut self.by_src[f.src.index()];
        if let Some(p) = list.iter().position(|x| *x == f.id) {
            list.swap_remove(p);
        }
        let list = &mut self.by_dst[f.dst.index()];
        if let Some(p) = list.iter().position(|x| *x == f.id) {
            list.swap_remove(p);
        }
    }

    fn release(&mut self, id: FlowId) -> Option<Flow> {
        let f = self.slots.get_mut(id.slot as usize)?.take()?;
        if f.id != id {
            // Stale handle: put the live flow back.
            self.slots[id.slot as usize] = Some(f);
            return None;
        }
        self.gens[id.slot as usize] = self.gens[id.slot as usize].wrapping_add(1);
        self.free.push(id.slot);
        self.active -= 1;
        Some(f)
    }

    /// Cancels a flow, returning it (with partial progress) if it was live.
    pub fn cancel(&mut self, id: FlowId) -> Option<Flow> {
        let f = self.release(id)?;
        self.detach(&f);
        self.stats.cancelled += 1;
        Some(f)
    }

    /// Cancels every flow uploaded by `n` (e.g. the peer departed).
    pub fn cancel_all_from(&mut self, n: NodeId) -> Vec<Flow> {
        if n.index() >= self.by_src.len() {
            return Vec::new();
        }
        let ids = std::mem::take(&mut self.by_src[n.index()]);
        ids.into_iter()
            .filter_map(|id| {
                let f = self.release(id)?;
                let list = &mut self.by_dst[f.dst.index()];
                if let Some(p) = list.iter().position(|x| *x == id) {
                    list.swap_remove(p);
                }
                self.stats.cancelled += 1;
                Some(f)
            })
            .collect()
    }

    /// Cancels every flow destined to `n`.
    pub fn cancel_all_to(&mut self, n: NodeId) -> Vec<Flow> {
        if n.index() >= self.by_dst.len() {
            return Vec::new();
        }
        let ids = std::mem::take(&mut self.by_dst[n.index()]);
        ids.into_iter()
            .filter_map(|id| {
                let f = self.release(id)?;
                let list = &mut self.by_src[f.src.index()];
                if let Some(p) = list.iter().position(|x| *x == id) {
                    list.swap_remove(p);
                }
                self.stats.cancelled += 1;
                Some(f)
            })
            .collect()
    }

    /// Live flows uploaded by `n`.
    pub fn flows_from(&self, n: NodeId) -> &[FlowId] {
        self.by_src.get(n.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of live flows uploaded by `n`.
    pub fn count_from(&self, n: NodeId) -> usize {
        self.flows_from(n).len()
    }

    /// Total number of live flows.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Advances all flows by `dt` seconds of weighted max-min sharing.
    /// Completed flows are appended to `completed` (in no particular order).
    pub fn advance(&mut self, dt: f64, completed: &mut Vec<Flow>) {
        assert!(dt > 0.0, "dt must be positive");
        for src in 0..self.by_src.len() {
            if self.by_src[src].is_empty() {
                continue;
            }
            let mut budget = self.capacity[src] * dt;
            if budget <= 0.0 {
                continue;
            }
            // Water-filling: serve flows in increasing remaining/weight;
            // each finishing flow returns its unused share to the pool.
            self.scratch.clear();
            let mut stale = false;
            for &id in &self.by_src[src] {
                // A dangling index entry would previously panic; count it
                // and reconcile the index after the sweep instead.
                match self.slots.get(id.slot as usize) {
                    Some(Some(f)) if f.id == id => {
                        self.scratch.push((id.slot, f.remaining(), f.weight));
                    }
                    _ => {
                        self.stats.anomalies += 1;
                        stale = true;
                    }
                }
            }
            if stale {
                self.by_src[src]
                    .retain(|id| matches!(self.slots.get(id.slot as usize), Some(Some(f)) if f.id == *id));
            }
            self.scratch.sort_by(|a, b| (a.1 / a.2).total_cmp(&(b.1 / b.2)));
            let mut scratch = std::mem::take(&mut self.scratch);
            // Exact remaining-weight bookkeeping via suffix sums. The old
            // running `total_weight -= weight` accumulated float drift and
            // could reach zero or negative while flows remained, turning
            // shares into NaN/inf. Flows finish strictly in sort order
            // (remaining/weight ascending), so while every flow so far has
            // finished, the live weight is exactly the suffix sum at the
            // current index; after the first non-finisher it stays fixed.
            self.weight_suffix.clear();
            self.weight_suffix.resize(scratch.len() + 1, 0.0);
            for i in (0..scratch.len()).rev() {
                self.weight_suffix[i] = self.weight_suffix[i + 1] + scratch[i].2;
            }
            let mut total_weight = self.weight_suffix.first().copied().unwrap_or(0.0);
            let mut all_finished = true;
            for (i, &(slot, remaining, weight)) in scratch.iter().enumerate() {
                if all_finished {
                    total_weight = self.weight_suffix[i];
                }
                if total_weight <= 0.0 || budget <= 0.0 {
                    break;
                }
                let share = budget * weight / total_weight;
                let sent = if remaining <= share { remaining } else { share };
                if remaining <= share {
                    budget = (budget - remaining).max(0.0);
                } else {
                    all_finished = false;
                }
                if sent > 0.0 {
                    let Some(Some(f)) = self.slots.get_mut(slot as usize) else {
                        self.stats.anomalies += 1;
                        continue;
                    };
                    f.done += sent;
                    let (fsrc, fdst) = (f.src, f.dst);
                    self.uploaded[fsrc.index()] += sent;
                    self.downloaded[fdst.index()] += sent;
                    if f.remaining() <= COMPLETE_EPS {
                        let id = f.id;
                        match self.release(id) {
                            Some(f) => {
                                self.detach(&f);
                                self.stats.completed += 1;
                                completed.push(f);
                            }
                            None => self.stats.anomalies += 1,
                        }
                    }
                }
            }
            self.scratch = std::mem::take(&mut scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn single_flow_takes_size_over_rate_seconds() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        fs.start(n(0), n(1), 250.0, 1.0, 7);
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert!(done.is_empty());
        fs.advance(1.0, &mut done);
        assert!(done.is_empty());
        fs.advance(1.0, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(fs.active(), 0);
        assert!((fs.uploaded(n(0)) - 250.0).abs() < 1e-9);
        assert!((fs.downloaded(n(1)) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_split_evenly() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        let a = fs.start(n(0), n(1), 1000.0, 1.0, 0);
        let b = fs.start(n(0), n(2), 1000.0, 1.0, 0);
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert!((fs.get(a).unwrap().done - 50.0).abs() < 1e-9);
        assert!((fs.get(b).unwrap().done - 50.0).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_allocation() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        let a = fs.start(n(0), n(1), 1000.0, 3.0, 0);
        let b = fs.start(n(0), n(2), 1000.0, 1.0, 0);
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert!((fs.get(a).unwrap().done - 75.0).abs() < 1e-9);
        assert!((fs.get(b).unwrap().done - 25.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_redistributes_leftover() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        // A tiny flow finishes and its leftover goes to the big one.
        fs.start(n(0), n(1), 10.0, 1.0, 1);
        let big = fs.start(n(0), n(2), 1000.0, 1.0, 2);
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        // Big flow got the full remaining 90 bytes, not just 50.
        assert!((fs.get(big).unwrap().done - 90.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_node_sends_nothing() {
        let mut fs = FlowScheduler::new();
        let f = fs.start(n(0), n(1), 100.0, 1.0, 0);
        let mut done = Vec::new();
        for _ in 0..100 {
            fs.advance(1.0, &mut done);
        }
        assert!(done.is_empty());
        assert_eq!(fs.get(f).unwrap().done, 0.0);
    }

    #[test]
    fn cancel_returns_partial_progress() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        let f = fs.start(n(0), n(1), 1000.0, 1.0, 9);
        let mut done = Vec::new();
        fs.advance(2.0, &mut done);
        let flow = fs.cancel(f).expect("live");
        assert!((flow.done - 200.0).abs() < 1e-9);
        assert_eq!(fs.active(), 0);
        assert!(fs.cancel(f).is_none(), "double cancel is a no-op");
    }

    #[test]
    fn stale_handles_after_completion() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        let f = fs.start(n(0), n(1), 10.0, 1.0, 0);
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert!(fs.get(f).is_none());
        // The slot is recycled with a new generation.
        let g = fs.start(n(0), n(2), 10.0, 1.0, 0);
        assert_ne!(f, g);
        assert!(fs.get(g).is_some());
    }

    #[test]
    fn departure_cancels_both_directions() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        fs.set_capacity(n(1), 100.0);
        fs.start(n(0), n(1), 1000.0, 1.0, 0);
        fs.start(n(1), n(2), 1000.0, 1.0, 0);
        fs.start(n(2), n(1), 1000.0, 1.0, 0);
        let gone_out = fs.cancel_all_from(n(1));
        assert_eq!(gone_out.len(), 1);
        let gone_in = fs.cancel_all_to(n(1));
        assert_eq!(gone_in.len(), 2);
        assert_eq!(fs.active(), 0);
    }

    #[test]
    fn conservation_of_bytes() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 123.0);
        for i in 1..=5u32 {
            fs.start(n(0), n(i), 100.0 * i as f64, i as f64, 0);
        }
        let mut done = Vec::new();
        let mut last_up = 0.0;
        for _ in 0..100 {
            fs.advance(0.5, &mut done);
            let up = fs.uploaded(n(0));
            // Uploaded bytes never exceed capacity * elapsed.
            assert!(up - last_up <= 123.0 * 0.5 + 1e-6);
            last_up = up;
        }
        let recv: f64 = (1..=5u32).map(|i| fs.downloaded(n(i))).sum();
        assert!((recv - fs.uploaded(n(0))).abs() < 1e-6);
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn stats_count_lifecycle() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        let a = fs.start(n(0), n(1), 10.0, 1.0, 0);
        fs.start(n(0), n(2), 1000.0, 1.0, 0);
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert!(fs.get(a).is_none());
        fs.cancel_all_from(n(0));
        let s = fs.stats();
        assert_eq!(s.started, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.anomalies, 0);

        let mut reg = tchain_obs::StatsRegistry::new();
        use tchain_obs::ExportStats;
        s.export_stats("flow.", &mut reg);
        assert_eq!(reg.get("flow.started"), 2);
        assert_eq!(reg.get("flow.completed"), 1);
    }

    #[test]
    fn all_flows_finishing_mid_step_keeps_shares_finite() {
        // Weights of 0.1 are not exactly representable; under the old
        // running `total_weight -= weight` bookkeeping the pool could
        // drift to zero or negative before the last flow was served,
        // producing NaN/inf shares. Capacity is ample, so every flow must
        // finish in the single step with bytes conserved.
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 1_000_000.0);
        let flows = 25u32;
        for i in 1..=flows {
            fs.start(n(0), n(i), 100.0, 0.1, i as u64);
        }
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert_eq!(done.len(), flows as usize, "every flow finishes mid-step");
        assert_eq!(fs.active(), 0);
        let up = fs.uploaded(n(0));
        assert!(up.is_finite());
        assert!((up - 100.0 * flows as f64).abs() < 1e-6);
        for f in &done {
            assert!(f.done.is_finite());
            assert!((f.done - 100.0).abs() < 1e-6);
        }
        let recv: f64 = (1..=flows).map(|i| fs.downloaded(n(i))).sum();
        assert!((recv - up).abs() < 1e-6, "uploads equal downloads");
    }

    #[test]
    fn tiny_weights_never_produce_nan_shares() {
        // A pathological mix of magnitudes: the running subtraction would
        // cancel catastrophically; suffix sums must keep every share
        // finite and non-negative.
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 1e9);
        for i in 1..=12u32 {
            let w = if i % 2 == 0 { 1e-9 } else { 1e9 };
            fs.start(n(0), n(i), 64.0 * 1024.0, w, i as u64);
        }
        let mut done = Vec::new();
        fs.advance(1.0, &mut done);
        assert_eq!(done.len(), 12);
        for f in &done {
            assert!(f.done.is_finite() && f.done >= 0.0);
        }
        assert!(fs.uploaded(n(0)).is_finite());
    }

    #[test]
    fn uses_full_capacity_when_demand_exists() {
        let mut fs = FlowScheduler::new();
        fs.set_capacity(n(0), 100.0);
        fs.start(n(0), n(1), 10_000.0, 1.0, 0);
        fs.start(n(0), n(2), 10_000.0, 1.0, 0);
        let mut done = Vec::new();
        for _ in 0..10 {
            fs.advance(1.0, &mut done);
        }
        assert!((fs.uploaded(n(0)) - 1000.0).abs() < 1e-6);
    }
}
