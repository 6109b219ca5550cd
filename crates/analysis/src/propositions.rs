//! Numeric verification of Propositions III.1 and III.2.
//!
//! Both propositions give *sufficient conditions* under which T-Chain's
//! bootstrapping rate beats the BitTorrent-like model's. The functions
//! here evaluate the conditions and the actual one-step rates, so tests
//! (and the `tchain analysis` experiment) can confirm the implications
//! numerically across parameter sweeps.

use crate::bootstrap::{
    bt_bootstrap_probability, omega, tchain_bootstrap_probability, BootstrapParams,
    BootstrapState, PieceDistribution,
};

/// The bootstrapping *rate* as the paper defines it:
/// `E[x(t+1)|x(t)] / x(t)` — smaller is faster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateComparison {
    /// BitTorrent-like one-step rate.
    pub bt_rate: f64,
    /// T-Chain one-step rate.
    pub tchain_rate: f64,
}

impl RateComparison {
    /// Whether T-Chain bootstraps at least as fast.
    pub fn tchain_wins(&self) -> bool {
        self.tchain_rate <= self.bt_rate + 1e-12
    }
}

/// Evaluates both models' one-step rates at a common state (α = β = 0 as
/// in the propositions).
pub fn compare_rates(
    tchain: BootstrapState,
    tchain_prev: BootstrapState,
    bt_x: f64,
    n: f64,
    params: &BootstrapParams,
    dist: &PieceDistribution,
) -> RateComparison {
    let bt_z = n - bt_x;
    let p_bt = bt_bootstrap_probability(n, bt_z, params.delta);
    let w = omega(tchain_prev, dist.omega_prime(), dist.omega_double_prime());
    let p_tc =
        tchain_bootstrap_probability(tchain.n, tchain_prev.n, tchain_prev.z(), w, params.k_chains);
    RateComparison { bt_rate: 1.0 - p_bt, tchain_rate: 1.0 - p_tc }
}

/// Proposition III.1's sufficient condition (eq. 7):
/// `K z(t−1) (x + ω′y + ω″(z−1))/(n−1) ≥ δ (n − x_b)`.
pub fn prop31_condition(
    tchain_prev: BootstrapState,
    bt_x: f64,
    n: f64,
    params: &BootstrapParams,
    dist: &PieceDistribution,
) -> bool {
    let z = tchain_prev.z();
    let lhs = params.k_chains
        * z
        * ((tchain_prev.x
            + dist.omega_prime() * tchain_prev.y
            + dist.omega_double_prime() * (z - 1.0).max(0.0))
            / (n - 1.0));
    let rhs = params.delta * (n - bt_x);
    lhs >= rhs
}

/// Proposition III.2's sufficient condition (eq. 8):
/// `(1 − δ/(n−1))^{n(1−ν)} ≥ (1 − 1/(n−1))^{K n (1−µ) ω″}`, where
/// `µ ≥ (x_t + y_t)/n` bounds T-Chain's un-bootstrapped fraction and
/// `ν ≤ x_b/n` bounds BitTorrent's.
pub fn prop32_condition(
    n: f64,
    mu: f64,
    nu: f64,
    params: &BootstrapParams,
    dist: &PieceDistribution,
) -> bool {
    let lhs = (1.0 - params.delta / (n - 1.0)).powf(n * (1.0 - nu));
    let rhs = (1.0 - 1.0 / (n - 1.0)).powf(params.k_chains * n * (1.0 - mu) * dist.omega_double_prime());
    lhs >= rhs
}

/// The large-`n` limit of Proposition III.2's condition:
/// `δ(1−ν) ≤ K ω″ (1−µ)`. The paper notes `K ω″ > δ` suffices when
/// `ν > µ`.
pub fn prop32_asymptotic(
    mu: f64,
    nu: f64,
    params: &BootstrapParams,
    dist: &PieceDistribution,
) -> bool {
    params.delta * (1.0 - nu) <= params.k_chains * dist.omega_double_prime() * (1.0 - mu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BootstrapParams, PieceDistribution) {
        (BootstrapParams::default(), PieceDistribution::uniform(100))
    }

    #[test]
    fn prop31_example_from_paper() {
        // §III-B3 example: δ = 0.2, ω′ = 0.495, µ = 0.5, K = 2 satisfies
        // the flash-crowd sufficient condition when x_t + y_t ≤ x_b and
        // half the peers are un-bootstrapped.
        let (p, d) = setup();
        let n = 600.0;
        // T-Chain: 300 un-bootstrapped (µ = 0.5), mostly partially
        // bootstrapped peers.
        let prev = BootstrapState { x: 100.0, y: 200.0, n };
        assert!(prop31_condition(prev, 300.0, n, &p, &d));
    }

    #[test]
    fn prop31_condition_implies_faster_rate() {
        // Sweep states; whenever eq. (7) holds, the measured one-step
        // rate comparison must agree (that is the proposition).
        let (p, d) = setup();
        let n = 600.0;
        let mut checked = 0;
        for x_frac in [0.1, 0.3, 0.5, 0.7] {
            for y_frac in [0.0, 0.1, 0.3] {
                if x_frac + y_frac >= 1.0 {
                    continue;
                }
                let prev =
                    BootstrapState { x: x_frac * n, y: y_frac * n, n };
                let cur = prev;
                let bt_x = (x_frac + y_frac) * n; // same un-bootstrapped mass
                if prop31_condition(prev, bt_x, n, &p, &d) {
                    let cmp = compare_rates(cur, prev, bt_x, n, &p, &d);
                    assert!(
                        cmp.tchain_wins(),
                        "condition held but rates disagree: {cmp:?} at x={x_frac}, y={y_frac}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 3, "sweep exercised the condition {checked} times");
    }

    #[test]
    fn prop32_kw_greater_than_delta_suffices() {
        // The paper: "Kω″ > δ is a sufficient condition to ensure (8)"
        // when ν > µ. Pick K from the computed ω″ so the premise holds.
        let d = PieceDistribution::uniform(100);
        let k = (0.2 / d.omega_double_prime()).ceil() + 1.0;
        let p = BootstrapParams { k_chains: k, ..Default::default() };
        assert!(p.k_chains * d.omega_double_prime() > p.delta);
        for n in [200.0, 600.0, 2000.0] {
            assert!(
                prop32_condition(n, 0.2, 0.3, &p, &d),
                "n={n}: eq. (8) should hold when Kω″ > δ and ν > µ"
            );
        }
        assert!(prop32_asymptotic(0.2, 0.3, &p, &d));
    }

    #[test]
    fn prop32_fails_for_tiny_k() {
        let d = PieceDistribution::uniform(100);
        let p = BootstrapParams { k_chains: 0.1, ..Default::default() };
        assert!(!prop32_asymptotic(0.5, 0.5, &p, &d));
    }

    #[test]
    fn rate_comparison_accessor() {
        let c = RateComparison { bt_rate: 0.9, tchain_rate: 0.8 };
        assert!(c.tchain_wins());
        let c = RateComparison { bt_rate: 0.8, tchain_rate: 0.9 };
        assert!(!c.tchain_wins());
    }
}
