//! Property tests (`tchain_sim::forall`) for `tchain_obs::registry`'s
//! [`Log2Histogram`]. They live here rather than beside the code:
//! `tchain-sim` depends on `tchain-obs`, so only an integration test sees
//! one `tchain_obs`.

use tchain_obs::{Log2Histogram, LOG2_BUCKETS};
use tchain_sim::{ensure, ensure_eq, forall, sized};

const CASES: u32 = 256;

/// Every value lands in the bucket whose `[lower, le]` range contains
/// it, and count/sum stay consistent with the buckets.
#[test]
fn prop_bucket_boundaries() {
    forall(0xB0C4E7, CASES, |rng, size| {
        // 0..u64::MAX, with a random magnitude so every bucket is hit.
        let values: Vec<u64> = (0..sized(rng, size, 1, 64))
            .map(|_| (rng.u64() >> rng.below(64)).min(u64::MAX - 1))
            .collect();
        let mut h = Log2Histogram::new();
        for &v in &values {
            let i = Log2Histogram::bucket_index(v);
            ensure!(i < LOG2_BUCKETS);
            if let Some(le) = Log2Histogram::le_bound(i) {
                ensure!(v <= le, "v={v} above le={le} of bucket {i}");
            } else {
                ensure!(v >= 1 << 31);
            }
            if i > 0 {
                let lower = if i == 1 { 1 } else { 1u64 << (i - 1) };
                ensure!(v >= lower, "v={v} below lower={lower} of bucket {i}");
            }
            h.observe(v);
        }
        ensure_eq!(h.count(), values.len() as u64);
        ensure_eq!(h.buckets().iter().sum::<u64>(), values.len() as u64);
        Ok(())
    });
}
