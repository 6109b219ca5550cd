//! Baseline protocol parameters (§II-A, §IV-A).

/// Which baseline incentive policy a [`crate::BaselineSwarm`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Original BitTorrent: rate-based tit-for-tat. Every 10 s a leecher
    /// unchokes the 4 neighbors that uploaded the most to it in the last
    /// window, plus one optimistic unchoke rotated every 30 s (§II-A).
    BitTorrent,
    /// PropShare: upload bandwidth split *proportionally* to each
    /// neighbor's contribution in the previous round, with a fixed 20 %
    /// reserved for exploration/newcomers (Levin et al., §V).
    PropShare,
    /// FairTorrent: each block goes to the interested neighbor with the
    /// lowest deficit (bytes sent minus bytes received) — no rounds
    /// (Sherman et al., §V).
    FairTorrent,
    /// Random BitTorrent (§IV-I): *all* bandwidth is optimistic —
    /// uploaders pick random interested neighbors every round.
    RandomBt,
}

impl Baseline {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::BitTorrent => "Original BT",
            Baseline::PropShare => "PropShare",
            Baseline::FairTorrent => "FairTorrent",
            Baseline::RandomBt => "Random BitTorrent",
        }
    }

    /// All four baselines, in the paper's legend order.
    pub fn all() -> [Baseline; 4] {
        [Baseline::BitTorrent, Baseline::PropShare, Baseline::FairTorrent, Baseline::RandomBt]
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunables for the baseline drivers. The unchoke, PropShare and seeder
/// parameters the paper fixes (§II-A, §IV-A) are constants of the driver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BaselineConfig {
    /// Replace each finishing leecher with a fresh newcomer (§IV-I churn).
    pub replace_on_finish: bool,
    /// Fraction of the file pre-loaded into each compliant joiner.
    pub initial_piece_fraction: f64,
}

impl BaselineConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on an initial piece fraction outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.initial_piece_fraction),
            "initial piece fraction in [0,1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BaselineConfig::default();
        assert!(!c.replace_on_finish);
        assert_eq!(c.initial_piece_fraction, 0.0);
        c.validate();
    }

    #[test]
    fn names_match_legends() {
        assert_eq!(Baseline::BitTorrent.name(), "Original BT");
        assert_eq!(Baseline::all().len(), 4);
        assert_eq!(format!("{}", Baseline::FairTorrent), "FairTorrent");
    }
}
