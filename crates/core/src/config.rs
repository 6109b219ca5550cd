//! T-Chain protocol parameters.

/// How a requestor chooses which piece to ask for.
///
/// The paper's file-sharing instantiation uses Local-Rarest-First
/// (§II-A); §VI names streaming as future work, which needs (near-)
/// in-order arrival — [`PieceSelection::Streaming`] restricts rarest-
/// first to a sliding window ahead of the playback frontier, the
/// standard windowed-rarest policy of P2P streaming systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PieceSelection {
    /// Local-Rarest-First over the whole file (the paper's default).
    Rarest,
    /// Rarest-first restricted to `window` pieces past the first missing
    /// piece, so pieces arrive nearly in order.
    Streaming {
        /// Window size in pieces (≥ 1).
        window: u32,
    },
}

/// Tunables of the T-Chain protocol layer, on top of the shared
/// [`tchain_proto::SwarmBase`]. Parameters the paper fixes are constants
/// of the driver, not fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TChainConfig {
    /// Flow-control bound `k` (§II-D2): a neighbor with `k` or more
    /// pending (un-reciprocated) pieces from us is neither served nor
    /// designated as a payee. The paper fixes `k = 2`.
    pub k_pending: u32,
    /// Seconds an `AwaitingReciprocation` transaction may stall before the
    /// sweep declares the chain dead (free-riding, §IV-F: "each instance
    /// of free-riding will terminate a chain").
    pub stall_timeout: f64,
    /// Enable opportunistic seeding (§II-D3). On by default; the ablation
    /// benchmark turns it off.
    pub opportunistic_seeding: bool,
    /// Prefer direct reciprocity when the requestor has a piece the donor
    /// needs (§II-B2). On by default; ablation can disable it to force
    /// pure pay-it-forward.
    pub direct_reciprocity: bool,
    /// Replace each finishing leecher with a fresh compliant newcomer of
    /// the same capacity (the §IV-I churn model).
    pub replace_on_finish: bool,
    /// Fraction of the file granted to each compliant leecher at join
    /// time, as randomly selected pre-occupied pieces (Fig. 6(b)).
    pub initial_piece_fraction: f64,
    /// Seconds of no progress after which a whitewashing free-rider
    /// abandons its identity and rejoins fresh.
    pub whitewash_patience: f64,
    /// Requestor piece-selection policy.
    pub piece_selection: PieceSelection,
}

impl Default for TChainConfig {
    fn default() -> Self {
        TChainConfig {
            k_pending: 2,
            stall_timeout: 60.0,
            opportunistic_seeding: true,
            direct_reciprocity: true,
            replace_on_finish: false,
            initial_piece_fraction: 0.0,
            whitewash_patience: 45.0,
            piece_selection: PieceSelection::Rarest,
        }
    }
}

impl TChainConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values (zero `k`, non-positive timeouts, or
    /// an initial piece fraction outside `[0, 1]`).
    pub fn validate(&self) {
        assert!(self.k_pending >= 1, "k must be at least 1");
        assert!(self.stall_timeout > 0.0, "stall timeout must be positive");
        assert!(
            (0.0..=1.0).contains(&self.initial_piece_fraction),
            "initial piece fraction in [0,1]"
        );
        assert!(self.whitewash_patience > 0.0, "whitewash patience must be positive");
        if let PieceSelection::Streaming { window } = self.piece_selection {
            assert!(window >= 1, "streaming window of at least one piece");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TChainConfig::default();
        assert_eq!(c.k_pending, 2, "§II-D2 fixes k = 2");
        assert!(c.opportunistic_seeding);
        assert!(c.direct_reciprocity);
        assert!(!c.replace_on_finish);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "streaming window")]
    fn zero_window_rejected() {
        TChainConfig {
            piece_selection: PieceSelection::Streaming { window: 0 },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        TChainConfig { k_pending: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "initial piece fraction")]
    fn bad_fraction_rejected() {
        TChainConfig { initial_piece_fraction: 1.5, ..Default::default() }.validate();
    }
}
