//! The unified stats registry: named `u64` counters behind one API,
//! plus the telemetry primitives built on it.
//!
//! Subsystems (`RecoveryCounters`, `ChainStats`, flow/fault statistics,
//! graceful-degradation anomaly counts) export into a single
//! [`StatsRegistry`]; a [`MetricMap`] snapshot serializes in
//! deterministic (sorted) order into `results/*.json`.
//!
//! The telemetry layer adds [`Log2Histogram`] (fixed 33-bucket
//! power-of-two latency histograms — no allocation, exact merge),
//! [`TelemetrySnapshot`] (a mergeable bundle of counters + histograms a
//! peer runtime can hand to an aggregator; merging is associative and
//! commutative, so fold order never changes the result), and
//! [`PrometheusWriter`] (text-format exposition of all of the above).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deterministically ordered snapshot of every registered metric.
pub type MetricMap = BTreeMap<String, u64>;

/// A flat registry of named monotone counters and gauges.
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    metrics: BTreeMap<String, u64>,
}

impl StatsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.metrics.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.metrics.insert(name.to_string(), delta);
        }
    }

    /// Increment the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Overwrite the named gauge with `value`.
    pub fn set(&mut self, name: &str, value: u64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Current value of a metric, or zero if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.metrics.get(name).copied().unwrap_or(0)
    }

    /// Number of distinct metrics registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Snapshot every metric in sorted-name order.
    pub fn snapshot(&self) -> MetricMap {
        self.metrics.clone()
    }
}

/// Implemented by subsystem stat blocks that can dump themselves into
/// the registry under a naming prefix.
pub trait ExportStats {
    /// Write this block's counters into `reg`, prefixing names with
    /// `prefix` (e.g. `flow.completed`).
    fn export_stats(&self, prefix: &str, reg: &mut StatsRegistry);
}

/// Bucket count of a [`Log2Histogram`]: one zero bucket, 31 power-of-two
/// buckets, one overflow bucket.
pub const LOG2_BUCKETS: usize = 33;

/// A fixed-shape power-of-two histogram for latencies and durations.
///
/// Bucket 0 holds exact zeros; bucket `i` (1..=31) holds values in
/// `[2^(i-1), 2^i)`; bucket 32 holds everything ≥ `2^31`. The shape is
/// fixed so two histograms merge by element-wise addition — exact,
/// associative, and commutative, which is what lets per-peer telemetry
/// fold into swarm aggregates in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let bits = 64 - value.leading_zeros() as usize; // floor(log2 v) + 1
            bits.min(LOG2_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (the Prometheus `le` label);
    /// `None` for the overflow bucket (`+Inf`).
    pub fn le_bound(i: usize) -> Option<u64> {
        match i {
            0 => Some(0),
            _ if i < LOG2_BUCKETS - 1 => Some((1u64 << i) - 1),
            _ => None,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw (non-cumulative) bucket counts.
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Smallest `le` bound covering at least `q` (0..=1) of the mass,
    /// `None` when empty or the mass sits in the overflow bucket.
    pub fn quantile_le(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target.max(1) {
                return Self::le_bound(i);
            }
        }
        None
    }
}

/// A mergeable bundle of named counters and histograms — the unit of
/// telemetry a peer runtime exports and an aggregator folds.
///
/// `merge` is associative and commutative (counter addition saturates,
/// histogram merge is element-wise), so folding N peer snapshots gives
/// one result regardless of fold order or grouping — the property the
/// deterministic parallel runner needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotone counters, sorted by name.
    pub counters: MetricMap,
    /// Named histograms, sorted by name.
    pub histograms: BTreeMap<String, Log2Histogram>,
}

impl TelemetrySnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Record one observation into a named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &Self) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

impl ExportStats for TelemetrySnapshot {
    fn export_stats(&self, prefix: &str, reg: &mut StatsRegistry) {
        for (name, v) in &self.counters {
            reg.add(&format!("{prefix}.{name}"), *v);
        }
        for (name, h) in &self.histograms {
            reg.add(&format!("{prefix}.{name}.count"), h.count());
            reg.add(&format!("{prefix}.{name}.sum"), h.sum());
        }
    }
}

/// Prometheus text-format (version 0.0.4) exposition writer.
///
/// Assembles `# HELP`/`# TYPE` family headers plus samples by hand —
/// same policy as the Chrome exporter: fixed shapes, no JSON tree. The
/// output is scrape-able by a stock Prometheus server and diff-stable
/// (families and samples appear in insertion order, label sets are
/// caller-provided strings).
#[derive(Debug, Default)]
pub struct PrometheusWriter {
    out: String,
}

impl PrometheusWriter {
    /// Empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// A counter family with `(label_set, value)` samples. Pass `""` for
    /// an empty label set, or e.g. `peer=\"3\"`.
    pub fn counter(&mut self, name: &str, help: &str, samples: &[(String, u64)]) {
        self.family(name, help, "counter");
        for (labels, v) in samples {
            self.sample_u64(name, labels, *v);
        }
    }

    /// A gauge family with floating-point samples.
    pub fn gauge(&mut self, name: &str, help: &str, samples: &[(String, f64)]) {
        self.family(name, help, "gauge");
        for (labels, v) in samples {
            if labels.is_empty() {
                let _ = writeln!(self.out, "{name} {v}");
            } else {
                let _ = writeln!(self.out, "{name}{{{labels}}} {v}");
            }
        }
    }

    /// A histogram family: cumulative `_bucket{le=...}` samples plus
    /// `_sum` and `_count`, one block per `(label_set, histogram)`.
    pub fn histogram(&mut self, name: &str, help: &str, samples: &[(String, Log2Histogram)]) {
        self.family(name, help, "histogram");
        for (labels, h) in samples {
            let mut cum = 0u64;
            for (i, b) in h.buckets().iter().enumerate() {
                cum += b;
                let le = match Log2Histogram::le_bound(i) {
                    Some(b) => b.to_string(),
                    None => String::from("+Inf"),
                };
                let sep = if labels.is_empty() { "" } else { "," };
                let _ = writeln!(
                    self.out,
                    "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}"
                );
            }
            self.sample_u64(&format!("{name}_sum"), labels, h.sum());
            self.sample_u64(&format!("{name}_count"), labels, h.count());
        }
    }

    fn sample_u64(&mut self, name: &str, labels: &str, v: u64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {v}");
        } else {
            let _ = writeln!(self.out, "{name}{{{labels}}} {v}");
        }
    }

    /// The finished text exposition.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = StatsRegistry::new();
        r.incr("a");
        r.add("a", 4);
        r.set("g", 9);
        r.set("g", 2);
        assert_eq!(r.get("a"), 5);
        assert_eq!(r.get("g"), 2);
        assert_eq!(r.get("missing"), 0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut r = StatsRegistry::new();
        r.incr("zeta");
        r.incr("alpha");
        let snap = r.snapshot();
        let keys: Vec<&str> = snap.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
    }

    #[test]
    fn histogram_bucket_edges_are_exact() {
        // Hand-checked boundary values around every power of two.
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index((1 << 31) - 1), 31);
        assert_eq!(Log2Histogram::bucket_index(1 << 31), 32);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 32);
        assert_eq!(Log2Histogram::le_bound(0), Some(0));
        assert_eq!(Log2Histogram::le_bound(1), Some(1));
        assert_eq!(Log2Histogram::le_bound(5), Some(31));
        assert_eq!(Log2Histogram::le_bound(32), None);
    }

    #[test]
    fn quantile_le_walks_cumulative_mass() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 1, 2, 5, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.quantile_le(0.0), Some(0));
        assert_eq!(h.quantile_le(0.5), Some(3)); // 4 of 7 obs are ≤ 3
        assert_eq!(h.quantile_le(1.0), Some(127));
        assert_eq!(Log2Histogram::new().quantile_le(0.5), None);
    }

    #[test]
    fn prometheus_histogram_block_is_cumulative() {
        let mut h = Log2Histogram::new();
        h.observe(1);
        h.observe(2);
        h.observe(40);
        let mut w = PrometheusWriter::new();
        w.histogram("tchain_rtt", "piece rtt", &[(String::from("peer=\"3\""), h)]);
        let text = w.finish();
        assert!(text.contains("# TYPE tchain_rtt histogram"), "{text}");
        assert!(text.contains("tchain_rtt_bucket{peer=\"3\",le=\"1\"} 1"), "{text}");
        assert!(text.contains("tchain_rtt_bucket{peer=\"3\",le=\"3\"} 2"), "{text}");
        assert!(text.contains("tchain_rtt_bucket{peer=\"3\",le=\"63\"} 3"), "{text}");
        assert!(text.contains("tchain_rtt_bucket{peer=\"3\",le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("tchain_rtt_sum{peer=\"3\"} 43"), "{text}");
        assert!(text.contains("tchain_rtt_count{peer=\"3\"} 3"), "{text}");
    }

    #[test]
    fn telemetry_snapshot_exports_into_registry() {
        let mut snap = TelemetrySnapshot::new();
        snap.add("uploads", 4);
        snap.observe("rtt", 7);
        snap.observe("rtt", 9);
        let mut reg = StatsRegistry::new();
        snap.export_stats("net.peer0", &mut reg);
        assert_eq!(reg.get("net.peer0.uploads"), 4);
        assert_eq!(reg.get("net.peer0.rtt.count"), 2);
        assert_eq!(reg.get("net.peer0.rtt.sum"), 16);
    }

    /// Folding per-peer snapshots on 1, 2 or 4 threads gives identical
    /// aggregates — merge order independence in the concrete shape the
    /// parallel experiment runner uses.
    #[test]
    fn merged_snapshot_is_identical_across_thread_counts() {
        let per_peer: Vec<TelemetrySnapshot> = (0u64..16)
            .map(|p| {
                let mut s = TelemetrySnapshot::new();
                s.add("uploads", p * 3 + 1);
                s.observe("rtt", p * p);
                s.observe("dwell", 1 << (p % 20));
                s
            })
            .collect();
        let mut folds: Vec<TelemetrySnapshot> = Vec::new();
        for threads in [1usize, 2, 4] {
            let chunk = per_peer.len().div_ceil(threads);
            let partials: Vec<TelemetrySnapshot> = std::thread::scope(|scope| {
                let handles: Vec<_> = per_peer
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut acc = TelemetrySnapshot::new();
                            for s in part {
                                acc.merge(s);
                            }
                            acc
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("fold thread")).collect()
            });
            let mut total = TelemetrySnapshot::new();
            for p in &partials {
                total.merge(p);
            }
            folds.push(total);
        }
        assert_eq!(folds[0], folds[1]);
        assert_eq!(folds[1], folds[2]);
    }
}
