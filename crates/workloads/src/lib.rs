//! # tchain-workloads — arrival processes and capacity distributions
//!
//! The paper drives its swarms with two arrival models (§IV-A, §IV-E):
//!
//! * a **flash crowd**, "all leechers joined the swarm within the first 10
//!   seconds" — [`flash_crowd`];
//! * a **continuous stream** mirroring "the RedHat 9 release" tracker
//!   trace (paper ref.\[28\]) — the original trace is no longer published, so
//!   [`TraceModel`] synthesizes a release-day workload with the same
//!   qualitative shape (initial surge, exponentially decaying long tail,
//!   diurnal modulation); see DESIGN.md "Substitutions".
//!
//! Upload capacities are heterogeneous, "varying from 400 Kbps to 1200
//! Kbps" (§IV-A) — [`CapacityClasses`] reproduces the five-class uniform
//! mix used by the works the paper cites, and is what makes Fig. 5's
//! "lowest/highest upload rate" leechers identifiable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tchain_sim::SimRng;

/// Join times for `n` leechers arriving uniformly within `window` seconds
/// (the paper's 10-second flash crowd), sorted ascending.
pub fn flash_crowd(n: usize, window: f64, seed: u64) -> Vec<f64> {
    assert!(window >= 0.0, "window must be non-negative");
    let mut rng = SimRng::new(seed ^ 0xF1A5_4C12_0000_0000);
    let mut t: Vec<f64> = (0..n).map(|_| rng.f64() * window).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Join times for a homogeneous Poisson process with `rate` arrivals per
/// second, truncated to `n` arrivals.
pub fn poisson(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = SimRng::new(seed ^ 0x9015_5015_0000_0000);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(rate);
            t
        })
        .collect()
}

/// Synthetic release-day tracker trace: a short initial surge followed by
/// an exponentially decaying Poisson arrival rate with mild diurnal
/// modulation. Substitutes for the RedHat 9 trace of §IV-E.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceModel {
    /// Peak arrival rate right after release (arrivals/second).
    pub peak_rate: f64,
    /// Exponential half-life of the arrival rate, in seconds.
    pub half_life: f64,
    /// Relative amplitude of the diurnal modulation in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Diurnal period in seconds (scaled down together with `half_life`
    /// for compressed-time experiments).
    pub diurnal_period: f64,
}

impl Default for TraceModel {
    /// A compressed-time release-day model: the surge decays with a
    /// half-life of ~2 hours of simulated time, long enough that a steady
    /// stream of newcomers spans every experiment that uses it.
    fn default() -> Self {
        TraceModel {
            peak_rate: 1.0,
            half_life: 7200.0,
            diurnal_amplitude: 0.3,
            diurnal_period: 6000.0,
        }
    }
}

impl TraceModel {
    /// Instantaneous arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let decay = (-std::f64::consts::LN_2 * t / self.half_life).exp();
        let diurnal =
            1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * t / self.diurnal_period).sin();
        (self.peak_rate * decay * diurnal).max(0.0)
    }

    /// Generates the first `n` arrival times by thinning a dominating
    /// Poisson process (Lewis–Shedler).
    pub fn arrivals(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed ^ 0x7AC3_0001_0000_0000);
        let lambda_max = self.peak_rate * (1.0 + self.diurnal_amplitude);
        let mut t = 0.0;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            t += rng.exp(lambda_max);
            if rng.chance(self.rate_at(t) / lambda_max) {
                out.push(t);
            }
            // Rate decays to ~0 eventually; give up if thinning stalls so
            // callers never loop forever for huge n.
            if t > self.half_life * 64.0 {
                break;
            }
        }
        out
    }
}

/// The heterogeneous upload-capacity mix of §IV-A: five classes spanning
/// 400–1200 Kbps, assigned uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityClasses {
    classes_kbps: Vec<f64>,
}

impl Default for CapacityClasses {
    fn default() -> Self {
        CapacityClasses { classes_kbps: vec![400.0, 600.0, 800.0, 1000.0, 1200.0] }
    }
}

impl CapacityClasses {
    /// A custom class list (Kbps values).
    ///
    /// # Panics
    ///
    /// Panics if `classes_kbps` is empty or contains non-positive rates.
    pub fn new(classes_kbps: Vec<f64>) -> Self {
        assert!(!classes_kbps.is_empty(), "at least one class");
        assert!(classes_kbps.iter().all(|&c| c > 0.0), "rates must be positive");
        CapacityClasses { classes_kbps }
    }

    /// The class rates in Kbps.
    pub fn classes_kbps(&self) -> &[f64] {
        &self.classes_kbps
    }

    /// Lowest class in bytes/s (Fig. 5's 400 Kbps leecher).
    pub fn min_bytes_per_sec(&self) -> f64 {
        self.classes_kbps.iter().copied().fold(f64::INFINITY, f64::min) * 1000.0 / 8.0
    }

    /// Highest class in bytes/s (Fig. 5's 1200 Kbps leecher).
    pub fn max_bytes_per_sec(&self) -> f64 {
        self.classes_kbps.iter().copied().fold(0.0, f64::max) * 1000.0 / 8.0
    }

    /// Mean class rate in bytes/s (used for the "optimal" line of
    /// Fig. 3(a): a fluid lower bound of file size over mean upload rate).
    pub fn mean_bytes_per_sec(&self) -> f64 {
        self.classes_kbps.iter().sum::<f64>() / self.classes_kbps.len() as f64 * 1000.0 / 8.0
    }

    /// Assigns capacities (bytes/s) to `n` peers, classes drawn uniformly.
    pub fn assign(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed ^ 0xCAB0_0001_0000_0000);
        (0..n)
            .map(|_| self.classes_kbps[rng.below(self.classes_kbps.len())] * 1000.0 / 8.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_fits_window_and_is_sorted() {
        let t = flash_crowd(1000, 10.0, 7);
        assert_eq!(t.len(), 1000);
        assert!(t.iter().all(|&x| (0.0..10.0).contains(&x)));
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn flash_crowd_deterministic_per_seed() {
        assert_eq!(flash_crowd(10, 10.0, 1), flash_crowd(10, 10.0, 1));
        assert_ne!(flash_crowd(10, 10.0, 1), flash_crowd(10, 10.0, 2));
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let t = poisson(20_000, 2.0, 3);
        let mean_gap = t.last().unwrap() / t.len() as f64;
        assert!((mean_gap - 0.5).abs() < 0.02, "mean gap {mean_gap}");
    }

    #[test]
    fn trace_rate_decays() {
        let m = TraceModel::default();
        assert!(m.rate_at(0.0) > m.rate_at(m.half_life * 4.0));
        // Roughly halves per half-life (modulo diurnal wiggle).
        let r0 = m.rate_at(0.0);
        let r1 = m.rate_at(m.half_life);
        assert!(r1 / r0 < 0.8 && r1 / r0 > 0.3, "ratio {}", r1 / r0);
    }

    #[test]
    fn trace_arrivals_sorted_and_thinning_matches_shape() {
        let m = TraceModel::default();
        let t = m.arrivals(2000, 11);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        // More arrivals in the first half-life than in the second.
        let h = m.half_life;
        let first = t.iter().filter(|&&x| x < h).count();
        let second = t.iter().filter(|&&x| (h..2.0 * h).contains(&x)).count();
        assert!(first > second, "{first} vs {second}");
    }

    #[test]
    fn capacity_classes_cover_range() {
        let c = CapacityClasses::default();
        assert_eq!(c.min_bytes_per_sec(), 50_000.0);
        assert_eq!(c.max_bytes_per_sec(), 150_000.0);
        assert_eq!(c.mean_bytes_per_sec(), 100_000.0);
        let caps = c.assign(5000, 9);
        assert!(caps.iter().all(|&x| (50_000.0..=150_000.0).contains(&x)));
        // All five classes should occur.
        let mut seen: Vec<u64> = caps.iter().map(|&x| x as u64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_classes_rejected() {
        CapacityClasses::new(vec![]);
    }

    #[test]
    fn seed_42_streams_known_answers() {
        // One line per seeded stream: the arrival plans and capacity
        // columns of every golden cell start from these draws.
        assert_eq!(
            flash_crowd(3, 10.0, 42),
            [4.223967777421491, 7.047523312485209, 7.340007793655231]
        );
        assert_eq!(
            poisson(3, 2.0, 42),
            [0.5625733811894549, 0.6490095914299095, 0.9710026403430118]
        );
        assert_eq!(
            TraceModel::default().arrivals(3, 42),
            [0.7152883020553132, 1.9001245116253735, 1.9666850591777754]
        );
        assert_eq!(
            CapacityClasses::default().assign(8, 42),
            [50_000.0, 150_000.0, 150_000.0, 125_000.0, 150_000.0, 100_000.0, 125_000.0, 150_000.0]
        );
    }
}
