//! Time series for "X over time" figures (active chains, piece timelines).

/// A `(time, value)` series sampled during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample's time.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "time series must be pushed in order ({t} < {last})");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The latest value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Downsamples to at most `n` evenly spaced samples — used when
    /// printing a long run's series as a figure's worth of rows.
    pub fn downsample(&self, n: usize) -> TimeSeries {
        if n == 0 || self.len() <= n {
            return self.clone();
        }
        let step = self.len() as f64 / n as f64;
        let mut out = TimeSeries::new();
        for i in 0..n {
            let idx = ((i as f64 + 0.5) * step) as usize;
            let idx = idx.min(self.len() - 1);
            out.push(self.times[idx], self.values[idx]);
        }
        out
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (f64, f64)>>(iter: T) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let s: TimeSeries = vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((2.0, 2.0)));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v[1], (1.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_rejected() {
        let mut s = TimeSeries::new();
        s.push(5.0, 0.0);
        s.push(4.0, 0.0);
    }

    #[test]
    fn downsample_keeps_shape() {
        let s: TimeSeries = (0..1000).map(|i| (i as f64, (i * 2) as f64)).collect();
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        // Still monotone in time and value for this monotone input.
        let pts: Vec<_> = d.iter().collect();
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn downsample_noop_when_short() {
        let s: TimeSeries = vec![(0.0, 1.0)].into_iter().collect();
        assert_eq!(s.downsample(10), s);
    }
}
