//! §III-A4/§III-B analytical tables: bootstrapping trajectories,
//! proposition checks and the collusion probability.

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use tchain_analysis::bootstrap::{trajectory, BootstrapParams, BootstrapState, PieceDistribution};
use tchain_analysis::collusion::{ps_exact, ps_monte_carlo, ps_paper};
use tchain_analysis::propositions::{prop31_condition, prop32_condition};
use tchain_obs::MetricMap;

tchain_obs::json_struct! {
    /// Analytical results bundle.
    #[derive(Debug, Default)]
    pub struct Data {
        /// `(t, BT un-bootstrapped fraction, T-Chain fraction)`.
        pub trajectories: Vec<(usize, f64, f64)>,
        /// ω′ and ω″ for M = 100.
        pub omegas: (f64, f64),
        /// Proposition III.1 holds in the flash-crowd example.
        pub prop31: bool,
        /// Proposition III.2 holds when Kω″ > δ.
        pub prop32: bool,
        /// `(N, m, b, paper Ps, exact Ps, Monte-Carlo Ps)` rows.
        pub collusion: Vec<(usize, usize, usize, f64, f64, f64)>,
    }
}

/// Evaluates the §III models and prints their tables.
pub fn run(scale: Scale) -> Data {
    let mut meta = RunMeta::default();
    let (data, k) = sweep_points(
        "analysis",
        &mut meta,
        &[()],
        |_| vec![42],
        |_| "§III analytical models".to_string(),
        |_, _| {
            let d = PieceDistribution::uniform(100);
            let p = BootstrapParams::default();
            let s0 = BootstrapState { x: 300.0, y: 0.0, n: 600.0 };
            let bt = trajectory(s0, &p, None, 30);
            let tc = trajectory(s0, &p, Some(&d), 30);
            let trajectories: Vec<(usize, f64, f64)> =
                (0..=30).step_by(3).map(|t| (t, bt[t], tc[t])).collect();
            let omegas = (d.omega_prime(), d.omega_double_prime());
            let prop31 = prop31_condition(
                BootstrapState { x: 100.0, y: 200.0, n: 600.0 },
                300.0,
                600.0,
                &p,
                &d,
            );
            let k = (p.delta / omegas.1).ceil() + 1.0;
            let p_big_k = BootstrapParams { k_chains: k, ..p };
            let prop32 = prop32_condition(600.0, 0.2, 0.3, &p_big_k, &d);
            let mut collusion = Vec::new();
            for (n, m, b) in [(1000usize, 10usize, 50usize), (1000, 50, 50), (1000, 250, 50)] {
                collusion.push((
                    n,
                    m,
                    b,
                    ps_paper(n, m, b),
                    ps_exact(n, m, b),
                    ps_monte_carlo(n, m, b, 100_000, 42),
                ));
            }
            let data = Data { trajectories, omegas, prop31, prop32, collusion };
            ((data, k), MetricMap::new())
        },
    )
    .into_iter()
    .flatten()
    .next()
    .unwrap_or_default();
    let rows: Vec<Vec<String>> = data
        .trajectories
        .iter()
        .map(|(t, b, c)| vec![t.to_string(), format!("{b:.3}"), format!("{c:.3}")])
        .collect();
    print_table(
        "§III-B: un-bootstrapped fraction over timeslots (model)",
        &["t", "BitTorrent", "T-Chain"],
        &rows,
    );
    println!("ω' = {:.3}, ω'' = {:.4} (M = 100)", data.omegas.0, data.omegas.1);
    println!("Proposition III.1 example holds: {}", data.prop31);
    println!("Proposition III.2 (Kω''>δ with K = {k}): {}", data.prop32);
    let rows: Vec<Vec<String>> = data
        .collusion
        .iter()
        .map(|(n, m, b, pp, pe, pm)| {
            vec![
                format!("{n}"),
                format!("{m}"),
                format!("{b}"),
                format!("{pp:.2e}"),
                format!("{pe:.2e}"),
                format!("{pm:.2e}"),
            ]
        })
        .collect();
    print_table(
        "§III-A4: collusion success probability",
        &["N", "m", "b", "paper", "exact", "monte-carlo"],
        &rows,
    );
    persist("analysis", scale.name(), &data, &meta);
    data
}
