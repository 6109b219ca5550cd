//! Small numeric helpers and the `/proc` readers.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Fastest of `xs`: on a shared host interference only ever adds time,
/// so this is the sample nearest the undisturbed cost (infinite for no
/// samples).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Timings of a run's iterations, part by part.
///
/// An iteration runs its parts (swarms, stream phases, sweep cells) back
/// to back, and every iteration repeats the same parts. On a shared host
/// interference only ever adds time, in bursts that last longer than an
/// iteration, so the median iteration is as noisy as the neighbours are.
/// The fastest pass of each part is not: a part needs one quiet pass in
/// the whole run, and the parts need not be quiet in the same iteration.
#[derive(Default)]
pub struct Timings {
    /// `parts[k][i]`: seconds part `k` took in iteration `i`.
    parts: Vec<Vec<f64>>,
}

impl Timings {
    /// Records one iteration.
    ///
    /// # Panics
    ///
    /// Panics when the iteration has another number of parts than the
    /// first one had.
    pub fn push(&mut self, iteration: &[f64]) {
        if self.parts.is_empty() {
            self.parts = vec![Vec::new(); iteration.len()];
        }
        assert_eq!(self.parts.len(), iteration.len(), "parts per iteration");
        for (part, &s) in self.parts.iter_mut().zip(iteration) {
            part.push(s);
        }
    }

    /// Iterations recorded.
    pub fn samples(&self) -> usize {
        self.parts.first().map_or(0, Vec::len)
    }

    /// Fastest pass of each part.
    pub fn steady_parts(&self) -> Vec<f64> {
        self.parts.iter().map(|part| fastest(part)).collect()
    }

    /// Undisturbed time of one iteration: the fastest pass of each part,
    /// summed.
    pub fn steady(&self) -> f64 {
        self.steady_parts().iter().sum()
    }

    /// Whole-iteration times, in the order recorded.
    pub fn totals(&self) -> Vec<f64> {
        (0..self.samples())
            .map(|i| self.parts.iter().map(|part| part[i]).sum())
            .collect()
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bytes as MiB.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// SplitMix64 step: decorrelates the sub-seeds derived from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 when
/// `/proc` is unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(user, system)` CPU seconds of this process from `/proc/self/stat`,
/// assuming the Linux default of 100 clock ticks per second.
pub fn cpu_times_s() -> (f64, f64) {
    const TICKS_PER_S: f64 = 100.0;
    let parse = || -> Option<(f64, f64)> {
        let s = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the full line.
        let rest = &s[s.rfind(')')? + 1..];
        let mut it = rest.split_whitespace().skip(11);
        let utime: f64 = it.next()?.parse().ok()?;
        let stime: f64 = it.next()?.parse().ok()?;
        Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
    };
    parse().unwrap_or((0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn steady_takes_each_part_from_its_fastest_iteration() {
        let mut t = Timings::default();
        t.push(&[1.0, 5.0]);
        t.push(&[3.0, 2.0]);
        assert_eq!(t.samples(), 2);
        assert_eq!(t.steady_parts(), vec![1.0, 2.0]);
        assert_eq!(t.steady(), 3.0);
        assert_eq!(t.totals(), vec![6.0, 5.0]);
    }

    #[test]
    fn mix_separates_neighbouring_seeds() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
