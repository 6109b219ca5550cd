//! Summary statistics with 95 % confidence intervals.
//!
//! Every data point in the paper's graphs is "the mean and 95% confidence
//! intervals … over 30 runs, using different random number seeds" (§IV-A).
//! [`Summary`] reproduces that: a Student-t interval over per-run values.

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Two-sided 97.5 % Student-t critical value for `df` degrees of freedom
/// (the multiplier of a 95 % confidence interval). Exact table for small
/// `df`, 1.96 asymptote beyond.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=60 => 2.02,
        61..=120 => 2.0,
        _ => 1.96,
    }
}

tchain_obs::json_struct! {
    /// A mean with its 95 % confidence half-width, as plotted in every figure.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Summary {
        /// Sample mean.
        pub mean: f64,
        /// Half-width of the 95 % confidence interval (0 for < 2 samples).
        pub ci95: f64,
        /// Number of samples (runs).
        pub n: u64,
    }
}

impl Summary {
    /// Summarizes a set of per-run values.
    pub fn of(samples: &[f64]) -> Self {
        let stats: OnlineStats = samples.iter().copied().collect();
        Summary::from_stats(&stats)
    }

    /// Summarizes an accumulator.
    pub fn from_stats(s: &OnlineStats) -> Self {
        let n = s.count();
        let ci95 = if n < 2 {
            0.0
        } else {
            t_critical_95(n - 1) * s.std_dev() / (n as f64).sqrt()
        };
        Summary { mean: s.mean(), ci95, n }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.ci95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: OnlineStats = xs.iter().copied().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn t_table_spot_checks() {
        assert!((t_critical_95(29) - 2.045).abs() < 1e-9, "30 runs → df 29");
        assert!((t_critical_95(7) - 2.365).abs() < 1e-9, "8 runs → df 7");
        assert_eq!(t_critical_95(1_000_000), 1.96);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn summary_interval() {
        // 30 identical values → zero-width interval.
        let same = vec![10.0; 30];
        let s = Summary::of(&same);
        assert_eq!(s.mean, 10.0);
        assert_eq!(s.ci95, 0.0);
        // Known case: sd = 1, n = 30 → ci ≈ 2.045/sqrt(30).
        let xs: Vec<f64> = (0..30).map(|i| if i % 2 == 0 { 9.0 } else { 11.0 }).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - 10.0).abs() < 1e-12);
        let sd = (30.0f64 / 29.0).sqrt(); // sample sd of ±1 alternating
        assert!((s.ci95 - 2.045 * sd / 30f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.n, 1);
    }
}
