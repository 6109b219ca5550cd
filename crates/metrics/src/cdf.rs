//! Empirical cumulative distribution functions (Fig. 12's fairness CDFs).

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` (the CDF value at `x`).
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]` (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Median (the 0.5-quantile).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `(value, cumulative fraction)` points suitable for plotting or for
    /// printing a figure's data series.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted.iter().enumerate().map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_cdf() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.5), 0.5);
        assert_eq!(c.at(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(c.median(), 50.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.9), 90.0);
    }

    #[test]
    fn nan_dropped() {
        let c = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn points_are_monotone() {
        let c = Cdf::new(vec![5.0, 3.0, 9.0, 1.0]);
        let pts: Vec<_> = c.points().collect();
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_quantile_panics() {
        Cdf::new(vec![]).median();
    }
}
