//! Experiment scaling: paper-faithful parameters vs. a quick profile.
//!
//! The paper's runs (600–10,000 leechers, 128 MB files, 30 seeds) take
//! CPU-hours; the default **quick** profile shrinks sizes ~4–10× while
//! preserving every shape the figures argue about (who wins, by what
//! factor, where crossovers sit). Select with the `TCHAIN_SCALE`
//! environment variable: `quick` (the default, also when empty) or
//! `paper`, in any ASCII case; any other value is refused. EXPERIMENTS.md
//! records which profile produced each number.

/// Experiment scaling profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk sizes, few seeds; minutes for the whole suite.
    Quick,
    /// The paper's §IV-A parameters; CPU-hours.
    Paper,
}

impl Scale {
    /// Parses a `TCHAIN_SCALE` value: empty is quick, `quick` and `paper`
    /// in any ASCII case name theirs, and anything else is `None`.
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "" | "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Reads `TCHAIN_SCALE` (unset is quick); `Err` names a value that is
    /// no scale.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("TCHAIN_SCALE").unwrap_or_default();
        let scale = value.to_str().and_then(Scale::parse);
        scale.ok_or_else(|| format!("unknown TCHAIN_SCALE {value:?}, expected quick or paper"))
    }

    /// Profile name for result files.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Seeded runs per data point (§IV-A: 30).
    pub fn runs(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Paper => 30,
        }
    }

    /// Swarm sizes for Figs. 3/7/8 (paper: 200–1000).
    pub fn swarm_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![50, 100, 150, 200],
            Scale::Paper => vec![200, 400, 600, 800, 1000],
        }
    }

    /// Shared file size in MiB (paper: 128).
    pub fn file_mib(&self) -> f64 {
        match self {
            Scale::Quick => 8.0,
            Scale::Paper => 128.0,
        }
    }

    /// The "standard" swarm size for single-swarm figures (paper: 600).
    pub fn standard_swarm(&self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Paper => 600,
        }
    }

    /// File sizes for Fig. 4(a) in MiB (paper: 32–1024).
    pub fn file_sweep_mib(&self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![2.0, 4.0, 8.0, 16.0],
            Scale::Paper => vec![32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
        }
    }

    /// Swarm sizes for Fig. 4(b) (paper: 10–10,000).
    pub fn swarm_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![10, 30, 100, 300, 1000],
            Scale::Paper => vec![10, 50, 200, 600, 2000, 6000, 10_000],
        }
    }

    /// File size for the trace-driven experiments (Figs. 9/12) in MiB.
    /// Quick scale uses a larger file than [`Scale::file_mib`] because the
    /// §II-D2 ledger waste free-riders cause is *constant per donor pair*
    /// (≤ k pieces): with too few pieces it dominates artificially; see
    /// EXPERIMENTS.md.
    pub fn trace_file_mib(&self) -> f64 {
        match self {
            Scale::Quick => 16.0,
            Scale::Paper => 128.0,
        }
    }

    /// (measured, excluded) compliant completions for the trace
    /// experiments (paper: first 1000, excluding the first 500).
    pub fn trace_completions(&self) -> (usize, usize) {
        match self {
            Scale::Quick => (200, 80),
            Scale::Paper => (1000, 500),
        }
    }

    /// Fairness CDF population (paper: last 500 compliant leechers).
    pub fn fairness_population(&self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Paper => 500,
        }
    }

    /// Fig. 13's observation window in seconds (paper: first 1000 s).
    pub fn small_file_window(&self) -> f64 {
        match self {
            Scale::Quick => 400.0,
            Scale::Paper => 1000.0,
        }
    }

    /// Fig. 13's churn swarm size (paper: 1000).
    pub fn small_file_swarm(&self) -> usize {
        match self {
            Scale::Quick => 150,
            Scale::Paper => 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_quick_and_names_match_in_any_case() {
        for (value, scale) in [
            ("", Scale::Quick),
            ("quick", Scale::Quick),
            ("QUICK", Scale::Quick),
            ("paper", Scale::Paper),
            ("Paper", Scale::Paper),
        ] {
            assert_eq!(Scale::parse(value), Some(scale), "{value:?}");
        }
    }

    #[test]
    fn anything_else_is_no_scale() {
        for value in ["papr", "papers", " paper", "quick ", "full", "1", "pàper"] {
            assert_eq!(Scale::parse(value), None, "{value:?}");
        }
    }

    #[test]
    fn paper_profile_matches_paper() {
        let s = Scale::Paper;
        assert_eq!(s.runs(), 30);
        assert_eq!(s.file_mib(), 128.0);
        assert_eq!(s.standard_swarm(), 600);
        assert_eq!(s.trace_completions(), (1000, 500));
        assert_eq!(s.fairness_population(), 500);
        assert!(s.swarm_sizes().contains(&1000));
        assert!(s.swarm_sweep().contains(&10_000));
    }

    #[test]
    fn quick_profile_is_smaller_everywhere() {
        let q = Scale::Quick;
        let p = Scale::Paper;
        assert!(q.runs() < p.runs());
        assert!(q.file_mib() < p.file_mib());
        assert!(q.standard_swarm() < p.standard_swarm());
        assert!(q.swarm_sizes().iter().max() < p.swarm_sizes().iter().max());
    }
}
