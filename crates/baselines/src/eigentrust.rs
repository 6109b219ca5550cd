//! A compact EigenTrust model (Kamvar et al., §V) for Table II.
//!
//! EigenTrust is the paper's representative *indirect reciprocity*
//! (reputation) scheme. We model the part Table II judges: peers rate
//! each other from direct interactions, global trust is the stationary
//! vector of the normalized local-trust matrix (power iteration with
//! pre-trusted-peer damping), and uploaders allocate bandwidth
//! proportionally to global trust — with a fixed share reserved for
//! zero-trust newcomers ("in EigenTrust, 10% of each participant's
//! resources are allotted for newcomers", §V).
//!
//! The model is a round-based allocation game rather than a full swarm:
//! enough to reproduce the qualitative columns — reputations *do* starve
//! honest-looking free-riders, but **false praise** within a colluding
//! clique inflates trust, and whitewashing resets to the newcomer share.

use tchain_sim::SimRng;

/// Behaviour of a modelled peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// Uploads honestly and rates honestly.
    Honest,
    /// Never uploads; rated 0 by honest peers.
    FreeRider,
    /// Uploads a token amount (10 % of honest) to prime its reputation,
    /// then clique members amplify each other with maximal ratings
    /// (false praise, §III-A4 / Table II "False Praise").
    Colluder,
}

/// Round-based EigenTrust allocation model.
#[derive(Debug)]
pub struct EigenTrustModel {
    actors: Vec<Actor>,
    /// Local trust `c[i][j]`: i's normalized rating of j.
    local: Vec<Vec<f64>>,
    /// Global trust vector.
    global: Vec<f64>,
    /// Share of bandwidth reserved for zero-trust newcomers.
    newcomer_share: f64,
    /// Damping toward the pre-trusted set (the honest seed peers).
    damping: f64,
    received: Vec<f64>,
    rng: SimRng,
}

impl EigenTrustModel {
    /// Builds a model over the given actors.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two peers.
    pub fn new(actors: Vec<Actor>, seed: u64) -> Self {
        let n = actors.len();
        assert!(n >= 2, "need at least two peers");
        EigenTrustModel {
            local: vec![vec![0.0; n]; n],
            global: vec![1.0 / n as f64; n],
            newcomer_share: 0.1,
            damping: 0.15,
            received: vec![0.0; n],
            rng: SimRng::new(seed),
            actors,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// `true` when the model has no peers (never constructible).
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Global trust of peer `i`.
    pub fn trust(&self, i: usize) -> f64 {
        self.global[i]
    }

    /// Cumulative service received by peer `i`.
    pub fn received(&self, i: usize) -> f64 {
        self.received[i]
    }

    /// Resets a peer to a fresh identity (whitewashing): all ratings of
    /// and by it are forgotten.
    pub fn whitewash(&mut self, i: usize) {
        let n = self.len();
        for j in 0..n {
            self.local[i][j] = 0.0;
            self.local[j][i] = 0.0;
        }
        self.global[i] = 0.0;
    }

    /// Plays one round: every honest peer serves one unit of bandwidth,
    /// split between trust-proportional allocation and the newcomer
    /// reserve; ratings update from who actually served whom.
    pub fn round(&mut self) {
        let n = self.len();
        for i in 0..n {
            let effort = match self.actors[i] {
                Actor::Honest => 1.0,
                Actor::Colluder => 0.1, // token service to prime ratings
                Actor::FreeRider => continue,
            };
            let total_trust: f64 = (0..n).filter(|&j| j != i).map(|j| self.global[j]).sum();
            for j in 0..n {
                if j == i {
                    continue;
                }
                let proportional = if total_trust > 0.0 {
                    effort * (1.0 - self.newcomer_share) * self.global[j] / total_trust
                } else {
                    0.0
                };
                self.received[j] += proportional;
            }
            // Newcomer reserve: one random zero-trust peer.
            let zeros: Vec<usize> =
                (0..n).filter(|&j| j != i && self.global[j] < 1e-9).collect();
            if !zeros.is_empty() {
                let j = zeros[self.rng.below(zeros.len())];
                self.received[j] += effort * self.newcomer_share;
            }
            // Uploaders earn truthful positive ratings in proportion to
            // the service they actually rendered.
            for j in 0..n {
                if j != i {
                    self.local[j][i] += effort;
                }
            }
        }
        // False praise within colluding cliques.
        for i in 0..n {
            if self.actors[i] == Actor::Colluder {
                for j in 0..n {
                    if j != i && self.actors[j] == Actor::Colluder {
                        self.local[i][j] += 5.0;
                    }
                }
            }
        }
        self.recompute_global();
    }

    /// Power iteration on the normalized local-trust matrix with damping
    /// toward the pre-trusted honest seeds.
    fn recompute_global(&mut self) {
        let n = self.len();
        let pre: Vec<f64> = {
            let honest = self.actors.iter().filter(|&&a| a == Actor::Honest).count().max(1);
            self.actors
                .iter()
                .map(|&a| if a == Actor::Honest { 1.0 / honest as f64 } else { 0.0 })
                .collect()
        };
        let mut t = pre.clone();
        for _ in 0..30 {
            let mut next = vec![0.0; n];
            for (i, row) in self.local.iter().enumerate() {
                let sum: f64 = row.iter().sum();
                if sum <= 0.0 {
                    continue;
                }
                for j in 0..n {
                    next[j] += t[i] * row[j] / sum;
                }
            }
            for (j, v) in next.iter_mut().enumerate() {
                *v = (1.0 - self.damping) * *v + self.damping * pre[j];
            }
            t = next;
        }
        self.global = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(honest: usize, riders: usize, colluders: usize) -> EigenTrustModel {
        let mut a = vec![Actor::Honest; honest];
        a.extend(std::iter::repeat_n(Actor::FreeRider, riders));
        a.extend(std::iter::repeat_n(Actor::Colluder, colluders));
        EigenTrustModel::new(a, 7)
    }

    #[test]
    fn honest_peers_earn_trust_riders_do_not() {
        let mut m = mixed(10, 3, 0);
        for _ in 0..20 {
            m.round();
        }
        let honest_trust: f64 = (0..10).map(|i| m.trust(i)).sum::<f64>() / 10.0;
        let rider_trust: f64 = (10..13).map(|i| m.trust(i)).sum::<f64>() / 3.0;
        assert!(
            honest_trust > rider_trust * 10.0,
            "honest {honest_trust} vs rider {rider_trust}"
        );
        // Free-riders still receive *something* via the newcomer reserve —
        // the exploitable altruism Table II flags.
        let rider_recv: f64 = (10..13).map(|i| m.received(i)).sum();
        assert!(rider_recv > 0.0);
    }

    #[test]
    fn false_praise_inflates_colluder_trust() {
        let mut with = mixed(10, 0, 4);
        let mut without = mixed(10, 4, 0);
        for _ in 0..20 {
            with.round();
            without.round();
        }
        let colluder_trust: f64 = (10..14).map(|i| with.trust(i)).sum();
        let rider_trust: f64 = (10..14).map(|i| without.trust(i)).sum();
        assert!(
            colluder_trust > rider_trust * 2.0,
            "collusion must pay: {colluder_trust} vs {rider_trust}"
        );
    }

    #[test]
    fn whitewash_resets_trust_but_keeps_newcomer_access() {
        let mut m = mixed(10, 1, 0);
        for _ in 0..10 {
            m.round();
        }
        let before = m.received(10);
        m.whitewash(10);
        assert!(m.trust(10) < 1e-9);
        m.round();
        // Fresh identity competes for the newcomer reserve again.
        assert!(m.received(10) >= before);
    }

    #[test]
    fn honest_only_trust_roughly_uniform() {
        let mut m = mixed(8, 0, 0);
        for _ in 0..10 {
            m.round();
        }
        let t: Vec<f64> = (0..8).map(|i| m.trust(i)).collect();
        let (min, max) =
            t.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(max / min < 1.5, "uniform honest behaviour → near-uniform trust");
    }
}
