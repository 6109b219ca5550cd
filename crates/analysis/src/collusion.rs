//! Collusion/Sybil success probability (§III-A4).
//!
//! A collusion (or Sybil) attack succeeds only when the *requestor and
//! payee of the same transaction* both belong to the attacker's set `S`
//! of `m` peers, each peer knowing `b` tracker-provided neighbors out of
//! `N`. The paper derives `P_s = Σ_{l=2}^{min(m,b)} P_l P_c` with
//!
//! `P_l = Π_{i=0}^{l-1} (m−i)/(N−i)`, `P_c = (l/b)·((l−1)/(b−1))`.
//!
//! We implement the paper's expression verbatim ([`ps_paper`]), the exact
//! expectation under the hypergeometric neighbor draw ([`ps_exact`], with
//! the closed form `m(m−1)/(N(N−1))`), and a Monte-Carlo simulation of
//! the described process ([`ps_monte_carlo`]) that validates the exact
//! form. All three agree that `P_s` is negligible unless the colluder set
//! is a large fraction of the swarm.

use tchain_sim::SimRng;

/// The paper's closed-form expression for the collusion success
/// probability (§III-A4).
///
/// # Panics
///
/// Panics unless `2 ≤ b ≤ N` and `m ≤ N`.
pub fn ps_paper(n: usize, m: usize, b: usize) -> f64 {
    validate(n, m, b);
    let mut total = 0.0;
    for l in 2..=m.min(b) {
        let mut pl = 1.0;
        for i in 0..l {
            pl *= (m - i) as f64 / (n - i) as f64;
        }
        let pc = (l as f64 / b as f64) * ((l - 1) as f64 / (b - 1) as f64);
        total += pl * pc;
    }
    total
}

/// Exact success probability when the `b` neighbors are a uniform draw
/// without replacement: `E[c(c−1)] / (b(b−1))` over hypergeometric `c`,
/// which collapses to `m(m−1) / (N(N−1))` — independent of `b`.
pub fn ps_exact(n: usize, m: usize, b: usize) -> f64 {
    validate(n, m, b);
    if m < 2 {
        return 0.0;
    }
    (m as f64 * (m - 1) as f64) / (n as f64 * (n - 1) as f64)
}

/// Monte-Carlo estimate of the §III-A4 process: draw `b` of `N` peers
/// (of whom `m` collude), then pick an ordered pair of distinct
/// neighbors (the independently chosen requestor and payee); success iff
/// both collude.
pub fn ps_monte_carlo(n: usize, m: usize, b: usize, trials: usize, seed: u64) -> f64 {
    validate(n, m, b);
    let mut rng = SimRng::new(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut hits = 0usize;
    for _ in 0..trials {
        rng.shuffle(&mut pool);
        // First b entries are the neighbor list; peers 0..m collude.
        // `validate` guarantees b >= 2, so both draws are from a
        // non-empty slice and the rejection loop terminates.
        let Some(&requestor) = rng.choose(&pool[..b]) else { continue };
        let payee = loop {
            let Some(&p) = rng.choose(&pool[..b]) else { break requestor };
            if p != requestor {
                break p;
            }
        };
        if payee == requestor {
            continue;
        }
        if requestor < m && payee < m {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

fn validate(n: usize, m: usize, b: usize) {
    assert!(b >= 2, "need at least two neighbors");
    assert!(b <= n, "neighbor list cannot exceed the swarm");
    assert!(m <= n, "colluders cannot exceed the swarm");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_monte_carlo() {
        let (n, m, b) = (500, 50, 50);
        let exact = ps_exact(n, m, b);
        let mc = ps_monte_carlo(n, m, b, 200_000, 7);
        assert!(
            (exact - mc).abs() < 0.003,
            "exact {exact} vs MC {mc}"
        );
    }

    #[test]
    fn small_colluder_sets_are_hopeless() {
        // §III-A4: "when m ≪ N, the probability Ps is very small".
        let ps = ps_exact(1000, 10, 50);
        assert!(ps < 1e-4, "ps = {ps}");
        let ps = ps_paper(1000, 10, 50);
        assert!(ps < 1e-4, "paper ps = {ps}");
    }

    #[test]
    fn probability_grows_with_colluder_fraction() {
        let small = ps_exact(1000, 10, 50);
        let medium = ps_exact(1000, 100, 50);
        let large = ps_exact(1000, 500, 50);
        assert!(small < medium && medium < large);
        assert!((ps_exact(1000, 1000, 50) - 1.0).abs() < 1e-9, "all colluders ⇒ certain");
    }

    #[test]
    fn paper_form_is_small_and_same_order_for_small_m() {
        // The paper's P_l omits the combinatorial rearrangements, so its
        // expression underestimates the exact value; both are tiny and of
        // comparable magnitude in the m ≪ N regime the paper argues about.
        for (n, m, b) in [(1000usize, 20usize, 50usize), (5000, 100, 50)] {
            let exact = ps_exact(n, m, b);
            let paper = ps_paper(n, m, b);
            assert!(paper <= exact * 1.5 + 1e-12, "paper {paper} vs exact {exact}");
            assert!(paper > 0.0);
        }
    }

    #[test]
    fn zero_or_one_colluder_never_succeeds() {
        assert_eq!(ps_exact(100, 0, 10), 0.0);
        assert_eq!(ps_exact(100, 1, 10), 0.0);
        assert_eq!(ps_paper(100, 1, 10), 0.0);
        assert_eq!(ps_monte_carlo(100, 1, 10, 10_000, 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "two neighbors")]
    fn degenerate_b_rejected() {
        ps_exact(10, 2, 1);
    }
}
