//! The Ellison–Fudenberg word-of-mouth environment (the paper's second
//! worked example, Section 2.1): two options with *correlated* rewards
//! — exactly one is good each step — and a continuous-reward variant
//! with player-specific shocks, together with its exact reduction to
//! the paper's `(η, α, β)` parameterization.

use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use sociolearn_core::{ParamsError, RewardModel};

/// Correlated two-option rewards: each step, option 0 is good with
/// probability `p` and option 1 is good otherwise — never both.
///
/// This induces `η₁ = p`, `η₂ = 1 − p` with perfectly anti-correlated
/// signals. The paper notes (footnote 3) that independence across
/// *time* is all its analysis needs, so the theorems still apply.
///
/// # Example
///
/// ```
/// use sociolearn_env::BestOfTwoRewards;
/// use sociolearn_core::RewardModel;
/// use rand::SeedableRng;
///
/// let mut env = BestOfTwoRewards::new(0.7)?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut out = [false; 2];
/// env.sample(1, &mut rng, &mut out);
/// assert_ne!(out[0], out[1]); // exactly one winner
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestOfTwoRewards {
    p: f64,
    /// The qualities `[p, 1 - p]`.
    etas: [f64; 2],
}

impl BestOfTwoRewards {
    /// Creates the environment; `p` is the probability option 0 wins.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `p` is not a probability.
    pub fn new(p: f64) -> Result<Self, ParamsError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "p",
                value: p,
            });
        }
        Ok(BestOfTwoRewards {
            p,
            etas: [p, 1.0 - p],
        })
    }

    /// Probability that option 0 wins a given step.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl RewardModel for BestOfTwoRewards {
    fn num_options(&self) -> usize {
        2
    }

    fn sample(&mut self, _t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(out.len(), 2, "reward buffer has wrong length");
        let first_wins = rng.gen_bool(self.p);
        out[0] = first_wins;
        out[1] = !first_wins;
    }

    fn qualities(&self) -> Option<&[f64]> {
        Some(&self.etas)
    }
}

/// The continuous-reward duel underlying [`DuelPopulation`]: each step
/// the winning option pays `gap/2` more than the loser (option 0 wins
/// with probability `p`), and every adoption decision is perturbed by
/// the agent's and the sampled companion's i.i.d. `N(0, σ²)` shocks.
///
/// The paper's reduction replaces the four shock terms by one
/// symmetric variable `ξ ~ N(0, 4σ²)` and reads off
///
/// * `η₁ = p`, `η₂ = 1 − p`,
/// * `β = P[ξ > −gap] = Φ(gap / 2σ)`, `α = 1 − β`,
///
/// which [`ShockDuel::induced_beta`] computes in closed form and
/// [`ShockDuel::estimate_beta`] checks by Monte Carlo (experiment E14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShockDuel {
    p: f64,
    gap: f64,
    sigma: f64,
    /// The qualities `[p, 1 - p]`.
    etas: [f64; 2],
}

impl ShockDuel {
    /// Creates the duel environment.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `p` is not a probability, or the gap
    /// or shock scale is non-positive/non-finite.
    pub fn new(p: f64, gap: f64, sigma: f64) -> Result<Self, ParamsError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "p",
                value: p,
            });
        }
        if gap <= 0.0 || !gap.is_finite() {
            return Err(ParamsError::BadQuality {
                index: 0,
                value: gap,
            });
        }
        if sigma <= 0.0 || !sigma.is_finite() {
            return Err(ParamsError::BadQuality {
                index: 1,
                value: sigma,
            });
        }
        Ok(ShockDuel {
            p,
            gap,
            sigma,
            etas: [p, 1.0 - p],
        })
    }

    /// Probability option 0 wins a step (`η₁` in the reduction).
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Reward gap between winner and loser.
    pub fn gap(&self) -> f64 {
        self.gap
    }

    /// Per-shock standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The closed-form induced adoption sensitivity
    /// `β = Φ(gap / (2σ))` (the four independent shocks sum to a
    /// `N(0, 4σ²)` variable).
    pub fn induced_beta(&self) -> f64 {
        normal_cdf(self.gap / (2.0 * self.sigma))
    }

    /// Monte Carlo estimate of `β`: frequency with which an agent
    /// facing a winner-by-`gap` comparison (with all four shocks)
    /// would stick with the winner.
    pub fn estimate_beta<R: Rng + ?Sized>(&self, samples: u32, rng: &mut R) -> f64 {
        assert!(samples > 0, "need at least one sample");
        let mut hits = 0u32;
        for _ in 0..samples {
            let xi: f64 = (0..4)
                .map(|_| StandardNormal.sample(rng) * self.sigma)
                .sum();
            if self.gap + xi > 0.0 {
                hits += 1;
            }
        }
        hits as f64 / samples as f64
    }

    /// The induced binary-model parameters `(η₁, η₂, β, α)`.
    pub fn induced_params(&self) -> (f64, f64, f64, f64) {
        let beta = self.induced_beta();
        (self.p, 1.0 - self.p, beta, 1.0 - beta)
    }
}

impl RewardModel for ShockDuel {
    fn num_options(&self) -> usize {
        2
    }

    /// Samples the induced *binary* signals (which option won).
    fn sample(&mut self, _t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(out.len(), 2, "reward buffer has wrong length");
        let first_wins = rng.gen_bool(self.p);
        out[0] = first_wins;
        out[1] = !first_wins;
    }

    fn qualities(&self) -> Option<&[f64]> {
        Some(&self.etas)
    }
}

/// The *full* Ellison–Fudenberg population dynamics over a
/// [`ShockDuel`] environment, simulated agent by agent with explicit
/// continuous rewards and shocks — no binary reduction.
///
/// Each step, every agent holding option `a` samples a companion
/// (uniformly from last step's population; with probability `mu` it
/// instead considers a uniformly random option) and so observes some
/// option `b`. If `b == a` nothing changes — word-of-mouth only
/// carries information about the option the companion actually holds.
/// If `b != a`, the agent compares the two shocked rewards
/// (`r_b + ε_{ib} + ε_{i'b}` vs `r_a + ε_{ia} + ε_{i'a}`) and switches
/// to `b` exactly when the comparison favors it — which happens with
/// probability `β = Φ(gap/2σ)` when `b` won the step and `1 − β`
/// otherwise, the paper's induced adoption rule. Unlike the base
/// model there is no sitting out: Ellison–Fudenberg agents always
/// hold an option, keeping their current one when not persuaded.
/// Experiment E14 quantifies how well the reduced binary model tracks
/// this full model.
#[derive(Debug, Clone, PartialEq)]
pub struct DuelPopulation {
    duel: ShockDuel,
    mu: f64,
    /// Current option per agent (0 or 1).
    choices: Vec<u8>,
    counts: [u64; 2],
    steps: u64,
}

impl DuelPopulation {
    /// Creates `n` agents split evenly between the two options.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `mu` is not a probability.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(duel: ShockDuel, mu: f64, n: usize) -> Result<Self, ParamsError> {
        assert!(n > 0, "population must be non-empty");
        if !(0.0..=1.0).contains(&mu) || mu.is_nan() {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "mu",
                value: mu,
            });
        }
        let choices: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let ones = choices.iter().filter(|&&c| c == 1).count() as u64;
        Ok(DuelPopulation {
            duel,
            mu,
            counts: [n as u64 - ones, ones],
            choices,
            steps: 0,
        })
    }

    /// Fraction of agents currently on option 0.
    pub fn share_of_best(&self) -> f64 {
        self.counts[0] as f64 / self.choices.len() as f64
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advances one step. The continuous winner (±gap) is drawn once
    /// for the whole step (rewards are common across agents, as in the
    /// source model); shocks are per agent/companion.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.choices.len();
        let first_wins = rng.gen_bool(self.duel.p());
        // r_0 - r_1 for this step:
        let reward_diff = if first_wins {
            self.duel.gap()
        } else {
            -self.duel.gap()
        };
        let sigma = self.duel.sigma();
        let prev = self.choices.clone();
        let mut counts = [0u64; 2];
        for choice in self.choices.iter_mut() {
            // Stage 1: what option does the agent observe?
            let observed = if self.mu > 0.0 && rng.gen_bool(self.mu) {
                rng.gen_range(0..2) as u8
            } else {
                prev[rng.gen_range(0..n)]
            };
            // Stage 2: switch to the observed option iff it differs
            // from the agent's own and the shocked comparison favors
            // it; otherwise keep the current option.
            if observed != *choice {
                let xi: f64 = (0..4).map(|_| StandardNormal.sample(rng) * sigma).sum();
                let observed_advantage = if observed == 0 {
                    reward_diff
                } else {
                    -reward_diff
                };
                if observed_advantage + xi > 0.0 {
                    *choice = observed;
                }
            }
            counts[*choice as usize] += 1;
        }
        self.counts = counts;
        self.steps += 1;
    }
}

/// Standard normal CDF (same Abramowitz–Stegun approximation as the
/// stats crate; duplicated here to keep `env` free of that dependency).
fn normal_cdf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.5;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let z = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let erf = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-z * z).exp();
    0.5 * (1.0 + sign * erf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn best_of_two_always_one_winner() {
        let mut env = BestOfTwoRewards::new(0.6).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = [false; 2];
        let mut wins = 0u32;
        for t in 0..20_000 {
            env.sample(t, &mut rng, &mut out);
            assert_ne!(out[0], out[1]);
            wins += out[0] as u32;
        }
        let freq = wins as f64 / 20_000.0;
        assert!((freq - 0.6).abs() < 0.02, "freq={freq}");
        assert_eq!(env.qualities(), Some(&[0.6, 0.4][..]));
    }

    #[test]
    fn best_of_two_validates() {
        assert!(BestOfTwoRewards::new(1.5).is_err());
        assert!(BestOfTwoRewards::new(f64::NAN).is_err());
        assert!(BestOfTwoRewards::new(0.0).is_ok());
    }

    #[test]
    fn duel_validates() {
        assert!(ShockDuel::new(0.6, 0.0, 1.0).is_err());
        assert!(ShockDuel::new(0.6, 1.0, 0.0).is_err());
        assert!(ShockDuel::new(2.0, 1.0, 1.0).is_err());
        assert!(ShockDuel::new(0.6, 1.0, 1.0).is_ok());
    }

    #[test]
    fn induced_beta_closed_form_matches_monte_carlo() {
        let duel = ShockDuel::new(0.65, 1.0, 0.8).unwrap();
        let closed = duel.induced_beta();
        let mut rng = SmallRng::seed_from_u64(2);
        let mc = duel.estimate_beta(200_000, &mut rng);
        assert!(
            (closed - mc).abs() < 0.01,
            "closed {closed} vs Monte Carlo {mc}"
        );
        // beta must be informative (> 1/2) for a positive gap.
        assert!(closed > 0.5);
        let (eta1, eta2, beta, alpha) = duel.induced_params();
        assert!((eta1 + eta2 - 1.0).abs() < 1e-12);
        assert!((alpha + beta - 1.0).abs() < 1e-12);
    }

    #[test]
    fn induced_beta_monotone_in_gap() {
        let weak = ShockDuel::new(0.6, 0.2, 1.0).unwrap();
        let strong = ShockDuel::new(0.6, 3.0, 1.0).unwrap();
        assert!(strong.induced_beta() > weak.induced_beta());
    }

    #[test]
    fn duel_population_converges_to_winner() {
        let duel = ShockDuel::new(0.8, 2.0, 0.5).unwrap();
        let mut pop = DuelPopulation::new(duel, 0.02, 2_000).unwrap();
        assert!((pop.share_of_best() - 0.5).abs() < 0.01);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut avg = 0.0;
        for _ in 0..200 {
            pop.step(&mut rng);
        }
        for _ in 0..100 {
            pop.step(&mut rng);
            avg += pop.share_of_best();
        }
        avg /= 100.0;
        assert!(avg > 0.7, "duel population failed to favor winner: {avg}");
        assert_eq!(pop.steps(), 300);
    }

    #[test]
    fn duel_population_validates_mu() {
        let duel = ShockDuel::new(0.6, 1.0, 1.0).unwrap();
        assert!(DuelPopulation::new(duel, 1.5, 10).is_err());
    }

    #[test]
    fn normal_helpers_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(normal_cdf(5.0) > 0.999);
        assert!(normal_cdf(-5.0) < 0.001);
        let mut rng = SmallRng::seed_from_u64(4);
        let mean: f64 = (0..10_000)
            .map(|_| StandardNormal.sample(&mut rng))
            .sum::<f64>()
            / 10_000.0;
        assert!(mean.abs() < 0.05, "normal mean {mean}");
    }
}

/// Correlated `m`-option rewards: exactly one option is good each
/// step, drawn from a fixed winner distribution — the natural
/// `m`-option generalization of [`BestOfTwoRewards`] (think: exactly
/// one queue is fast, exactly one route is clear).
///
/// Induces `η_j = w_j` with perfectly anti-correlated signals;
/// independence across time is what the paper's analysis needs
/// (footnote 3).
///
/// # Example
///
/// ```
/// use sociolearn_env::BestOfMRewards;
/// use sociolearn_core::RewardModel;
/// use rand::SeedableRng;
///
/// let mut env = BestOfMRewards::new(vec![0.5, 0.3, 0.2])?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut out = [false; 3];
/// env.sample(1, &mut rng, &mut out);
/// assert_eq!(out.iter().filter(|&&r| r).count(), 1);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BestOfMRewards {
    winner_probs: Vec<f64>,
}

impl BestOfMRewards {
    /// Creates the environment from winner probabilities (must sum to
    /// 1 within 1e-9).
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if the vector is empty, any entry is
    /// not a probability, or the total is not 1.
    pub fn new(winner_probs: Vec<f64>) -> Result<Self, ParamsError> {
        if winner_probs.is_empty() {
            return Err(ParamsError::NoOptions);
        }
        for (index, &value) in winner_probs.iter().enumerate() {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ParamsError::BadQuality { index, value });
            }
        }
        let total: f64 = winner_probs.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(ParamsError::BadQuality {
                index: 0,
                value: total,
            });
        }
        Ok(BestOfMRewards { winner_probs })
    }

    /// The winner distribution.
    pub fn winner_probs(&self) -> &[f64] {
        &self.winner_probs
    }
}

impl RewardModel for BestOfMRewards {
    fn num_options(&self) -> usize {
        self.winner_probs.len()
    }

    fn sample(&mut self, _t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(
            out.len(),
            self.winner_probs.len(),
            "reward buffer has wrong length"
        );
        out.fill(false);
        let winner = sociolearn_core::sample_categorical(rng, &self.winner_probs);
        out[winner] = true;
    }

    fn qualities(&self) -> Option<&[f64]> {
        Some(&self.winner_probs)
    }
}

#[cfg(test)]
mod best_of_m_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(BestOfMRewards::new(vec![]).is_err());
        assert!(BestOfMRewards::new(vec![0.5, 0.4]).is_err()); // sums to 0.9
        assert!(BestOfMRewards::new(vec![0.5, -0.5, 1.0]).is_err());
        assert!(BestOfMRewards::new(vec![0.25; 4]).is_ok());
    }

    #[test]
    fn exactly_one_winner_with_right_frequency() {
        let mut env = BestOfMRewards::new(vec![0.6, 0.3, 0.1]).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut out = [false; 3];
        let mut wins = [0u32; 3];
        let trials = 30_000;
        for t in 0..trials {
            env.sample(t, &mut rng, &mut out);
            assert_eq!(out.iter().filter(|&&r| r).count(), 1);
            wins[out.iter().position(|&r| r).unwrap()] += 1;
        }
        for (j, &expect) in [0.6, 0.3, 0.1].iter().enumerate() {
            let freq = wins[j] as f64 / trials as f64;
            assert!(
                (freq - expect).abs() < 0.01,
                "option {j}: {freq} vs {expect}"
            );
        }
        assert_eq!(env.best_index(), Some(0));
    }

    #[test]
    fn two_option_case_matches_best_of_two_law() {
        let mut a = BestOfMRewards::new(vec![0.7, 0.3]).unwrap();
        let mut b = BestOfTwoRewards::new(0.7).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut out = [false; 2];
        let (mut wa, mut wb) = (0u32, 0u32);
        for t in 0..20_000 {
            a.sample(t, &mut rng, &mut out);
            wa += out[0] as u32;
            b.sample(t, &mut rng, &mut out);
            wb += out[0] as u32;
        }
        assert!((wa as f64 - wb as f64).abs() / 20_000.0 < 0.02);
    }
}
