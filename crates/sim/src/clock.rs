//! Simulated time and periodic timers.

/// The simulation clock: monotonically advancing seconds.
///
/// Drivers advance the clock in fixed steps (`dt`); all protocol timers are
/// expressed against it. Using a struct (rather than a bare `f64` threaded
/// through every function) keeps step size and elapsed time consistent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    now: f64,
    dt: f64,
    steps: u64,
}

impl Clock {
    /// Creates a clock at time zero with the given step size in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "clock step must be positive");
        Clock { now: 0.0, dt, steps: 0 }
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The fixed step size in seconds.
    #[inline]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of steps taken so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advances the clock by one step and returns the new time.
    #[inline]
    pub fn tick(&mut self) -> f64 {
        self.steps += 1;
        // Recompute from the step count instead of accumulating, so long
        // runs do not drift from floating-point summation error.
        self.now = self.steps as f64 * self.dt;
        self.now
    }
}

/// A repeating timer with a fixed period, e.g. BitTorrent's 10-second
/// rechoke and 30-second optimistic-unchoke rounds.
///
/// ```
/// use tchain_sim::Periodic;
/// let mut rechoke = Periodic::new(10.0);
/// assert!(!rechoke.fire(5.0));
/// assert!(rechoke.fire(10.0));
/// assert!(!rechoke.fire(12.0));
/// assert!(rechoke.fire(20.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodic {
    period: f64,
    next: f64,
}

impl Periodic {
    /// Creates a timer that first fires at `period` (not at time zero).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive and finite.
    pub fn new(period: f64) -> Self {
        assert!(period > 0.0 && period.is_finite(), "period must be positive");
        Periodic { period, next: period }
    }

    /// Returns `true` (and schedules the following firing) if the timer is
    /// due at time `now`. A very large jump in `now` fires only once; the
    /// next deadline is re-anchored past `now` so timers never "catch up"
    /// with a burst of firings.
    pub fn fire(&mut self, now: f64) -> bool {
        if now + 1e-12 >= self.next {
            // Re-anchor strictly past `now`.
            let periods = ((now - self.next) / self.period).floor() + 1.0;
            self.next += periods.max(1.0) * self.period;
            true
        } else {
            false
        }
    }

    /// The period in seconds.
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_without_drift() {
        let mut c = Clock::new(0.1);
        for _ in 0..10_000 {
            c.tick();
        }
        assert!((c.now() - 1000.0).abs() < 1e-9);
        assert_eq!(c.steps(), 10_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        Clock::new(0.0);
    }

    #[test]
    fn periodic_fires_once_per_period() {
        let mut p = Periodic::new(10.0);
        let mut fired = 0;
        let mut c = Clock::new(1.0);
        for _ in 0..100 {
            let now = c.tick();
            if p.fire(now) {
                fired += 1;
            }
        }
        assert_eq!(fired, 10);
    }

    #[test]
    fn periodic_does_not_burst_after_gap() {
        let mut p = Periodic::new(10.0);
        assert!(p.fire(95.0)); // large jump: one firing only
        assert!(!p.fire(96.0));
        assert!(!p.fire(99.9));
        assert!(p.fire(100.0));
    }
}
