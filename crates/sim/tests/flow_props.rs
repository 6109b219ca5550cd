//! Property tests ([`tchain_sim::forall`]) for the weighted max-min invariants of
//! [`FlowScheduler::advance`]: capacity is a hard per-step budget, bytes
//! are conserved end to end, no flow overshoots its size, and index
//! reconciliation never loses a live flow.

use std::collections::HashSet;
use tchain_sim::{ensure, ensure_eq, forall, sized, FlowId, FlowScheduler, NodeId, SimRng};

const EPS: f64 = 1e-6;
const CASES: u32 = 256;

/// `lo..hi` many draws of `item`, the count scaled by `size`.
fn vec_of<T>(
    rng: &mut SimRng,
    size: usize,
    (lo, hi): (usize, usize),
    mut item: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    (0..sized(rng, size, lo, hi)).map(|_| item(rng)).collect()
}

/// A `(source index, size, weight)` flow spec.
fn flow_spec(rng: &mut SimRng) -> (u8, f64, f64) {
    (rng.below(8) as u8, rng.range(1.0, 400.0), rng.range(0.1, 4.0))
}

/// Each uploader sends at most `capacity * dt` bytes per step (plus
/// float slack), and the uploaded counter is monotone.
#[test]
fn per_source_bytes_bounded_by_capacity() {
    forall(0xCA9, CASES, |rng, size| {
        let caps = vec_of(rng, size, (1, 4), |r| r.range(0.0, 500.0));
        let flows = vec_of(rng, size, (1, 16), flow_spec);
        let dts = vec_of(rng, size, (1, 30), |r| r.range(0.1, 2.0));
        let mut fs = FlowScheduler::new();
        let nsrc = caps.len() as u32;
        for (i, &c) in caps.iter().enumerate() {
            fs.set_capacity(NodeId(i as u32), c);
        }
        for (j, &(s, size, w)) in flows.iter().enumerate() {
            let src = NodeId(s as u32 % nsrc);
            fs.start(src, NodeId(nsrc + j as u32), size, w, j as u64);
        }
        let mut done = Vec::new();
        let mut last: Vec<f64> = vec![0.0; caps.len()];
        for &dt in &dts {
            fs.advance(dt, &mut done);
            for (i, &cap) in caps.iter().enumerate() {
                let up = fs.uploaded(NodeId(i as u32));
                ensure!(up.is_finite());
                ensure!(
                    up - last[i] <= cap * dt + EPS,
                    "source {i} sent {} in one step, budget {}",
                    up - last[i],
                    cap * dt
                );
                ensure!(up >= last[i] - EPS, "uploaded counter went backwards");
                last[i] = up;
            }
        }
        Ok(())
    });
}

/// Every byte leaving an uploader arrives at exactly one downloader:
/// total uploads equal total downloads, and both equal the progress
/// recorded on the flows themselves (live, completed and cancelled).
#[test]
fn bytes_are_conserved() {
    forall(0xC025E2, CASES, |rng, size| {
        let caps = vec_of(rng, size, (1, 4), |r| r.range(1.0, 300.0));
        let flows = vec_of(rng, size, (1, 16), flow_spec);
        let (steps, cancel_every) = (1 + rng.below(39), 2 + rng.below(7));
        let mut fs = FlowScheduler::new();
        let nsrc = caps.len() as u32;
        for (i, &c) in caps.iter().enumerate() {
            fs.set_capacity(NodeId(i as u32), c);
        }
        let mut live: Vec<FlowId> = Vec::new();
        for (j, &(s, size, w)) in flows.iter().enumerate() {
            let src = NodeId(s as u32 % nsrc);
            live.push(fs.start(src, NodeId(nsrc + j as u32), size, w, j as u64));
        }
        let mut done = Vec::new();
        let mut settled = 0.0; // progress on completed + cancelled flows
        for step in 0..steps {
            fs.advance(0.5, &mut done);
            settled += done.drain(..).map(|f| f.done).sum::<f64>();
            if step % cancel_every == cancel_every - 1 {
                if let Some(id) = live.pop() {
                    if let Some(f) = fs.cancel(id) {
                        settled += f.done;
                    }
                }
            }
        }
        let uploaded: f64 = (0..nsrc).map(|i| fs.uploaded(NodeId(i))).sum();
        let downloaded: f64 =
            (0..flows.len() as u32).map(|j| fs.downloaded(NodeId(nsrc + j))).sum();
        ensure!((uploaded - downloaded).abs() < EPS, "uploads {uploaded} != downloads {downloaded}");
        let in_flight: f64 = live.iter().filter_map(|&id| fs.get(id)).map(|f| f.done).sum();
        ensure!(
            (uploaded - (settled + in_flight)).abs() < EPS,
            "per-flow progress {} disagrees with uploads {uploaded}",
            settled + in_flight
        );
        Ok(())
    });
}

/// A flow never transfers more than its size: completed flows land on
/// their size (within the completion epsilon) and live flows stay
/// strictly below it.
#[test]
fn no_flow_overshoots_its_size() {
    forall(0x0E25, CASES, |rng, size| {
        let cap = rng.range(1.0, 1000.0);
        let flows = vec_of(rng, size, (1, 16), |r| (r.range(1.0, 400.0), r.range(0.1, 4.0)));
        let (steps, dt) = (1 + rng.below(59), rng.range(0.1, 2.0));
        let mut fs = FlowScheduler::new();
        fs.set_capacity(NodeId(0), cap);
        let mut sizes = std::collections::HashMap::new();
        for (j, &(size, w)) in flows.iter().enumerate() {
            let id = fs.start(NodeId(0), NodeId(1 + j as u32), size, w, j as u64);
            sizes.insert(id, size);
        }
        let mut done = Vec::new();
        for _ in 0..steps {
            fs.advance(dt, &mut done);
            for f in done.drain(..) {
                let size = sizes[&f.id];
                ensure!(f.done.is_finite());
                ensure!(f.done <= size + EPS, "completed flow overshot: {} > {size}", f.done);
                ensure!(f.done >= size - 2.0 * EPS, "completed flow undershot: {} < {size}", f.done);
            }
            for (&id, &size) in &sizes {
                if let Some(f) = fs.get(id) {
                    ensure!(f.done.is_finite());
                    ensure!(f.done <= size + EPS);
                    ensure!(f.remaining() >= 0.0);
                }
            }
        }
        Ok(())
    });
}

/// Under arbitrary interleavings of start / cancel / advance, the
/// stale-index reconciliation in `advance` only ever discards dead
/// handles: every flow live before a step is afterwards either still
/// live or reported completed, the per-source index agrees with the
/// slot table, and no anomalies are ever counted.
#[test]
fn reconciliation_never_drops_live_flows() {
    forall(0x2EC0, CASES, |rng, size| {
        let ops = vec_of(rng, size, (1, 80), |r| (r.below(4) as u8, r.u64() as u16));
        let mut fs = FlowScheduler::new();
        for i in 0..4u32 {
            fs.set_capacity(NodeId(i), 200.0);
        }
        let mut live: Vec<FlowId> = Vec::new();
        let mut done = Vec::new();
        let mut tag = 0u64;
        for &(op, x) in &ops {
            match op {
                0 | 1 => {
                    let src = NodeId(x as u32 % 4);
                    let dst = NodeId(4 + x as u32 % 8);
                    let size = 20.0 + (x % 200) as f64;
                    let weight = 0.5 + (x % 5) as f64;
                    live.push(fs.start(src, dst, size, weight, tag));
                    tag += 1;
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(x as usize % live.len());
                        fs.cancel(id);
                    }
                }
                _ => {
                    let before = live.clone();
                    done.clear();
                    fs.advance(0.25 + (x % 4) as f64 * 0.25, &mut done);
                    let completed: HashSet<FlowId> = done.iter().map(|f| f.id).collect();
                    for id in &before {
                        ensure!(
                            fs.get(*id).is_some() || completed.contains(id),
                            "advance dropped flow {id:?} without completing it"
                        );
                    }
                    live.retain(|id| fs.get(*id).is_some());
                }
            }
            // The per-source index and the slot table must agree on every
            // live handle.
            for id in &live {
                let f = fs.get(*id).expect("tracked handle is live");
                ensure!(
                    fs.flows_from(f.src).contains(id),
                    "live flow {id:?} missing from its source index"
                );
            }
            ensure_eq!(fs.active(), live.len());
            ensure_eq!(fs.stats().anomalies, 0, "healthy usage must not count anomalies");
        }
        let s = fs.stats();
        ensure_eq!(s.started, s.completed + s.cancelled + fs.active() as u64);
        Ok(())
    });
}
