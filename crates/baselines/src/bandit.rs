//! Single-agent bandit policies (partial feedback: an agent sees only
//! the reward of the arm it pulled).

use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Beta, Distribution};
use sociolearn_core::ParamsError;

/// A stateful bandit policy over `m` arms with Bernoulli rewards.
///
/// [`IndependentBanditGroup`] holds `N` copies of one concrete policy
/// type, so each agent's `select_arm` is a static call. `select_arm`
/// takes the workspace's one generator, [`SmallRng`], by its concrete
/// type rather than as a generator trait object, so every draw (a
/// Thompson step makes `m` `Beta` draws per agent) inlines into the
/// policy; the trait stays object safe.
///
/// [`IndependentBanditGroup`]: crate::IndependentBanditGroup
pub trait BanditPolicy {
    /// Number of arms.
    fn num_arms(&self) -> usize;

    /// Chooses an arm to pull this step.
    fn select_arm(&mut self, rng: &mut SmallRng) -> usize;

    /// Observes the pulled arm's reward.
    fn update(&mut self, arm: usize, reward: bool);

    /// Short display name.
    fn policy_name(&self) -> &'static str;
}

/// UCB1 (Auer–Cesa-Bianchi–Fischer): play each arm once, then the arm
/// maximizing `mean + sqrt(2 ln t / n_j)`.
///
/// Each arm's mean is stored when it changes, in [`update`], so a step
/// divides once per arm, not twice.
///
/// [`update`]: BanditPolicy::update
#[derive(Debug, Clone, PartialEq)]
pub struct Ucb1 {
    pulls: Vec<u64>,
    sums: Vec<f64>,
    means: Vec<f64>,
    t: u64,
}

impl Ucb1 {
    /// Creates UCB1 over `m` arms.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::NoOptions`] if `m == 0`.
    pub fn new(m: usize) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        Ok(Ucb1 {
            pulls: vec![0; m],
            sums: vec![0.0; m],
            means: vec![0.0; m],
            t: 0,
        })
    }
}

impl BanditPolicy for Ucb1 {
    fn num_arms(&self) -> usize {
        self.pulls.len()
    }

    fn select_arm(&mut self, _rng: &mut SmallRng) -> usize {
        // Initialization: round-robin through unpulled arms.
        if let Some(j) = self.pulls.iter().position(|&n| n == 0) {
            return j;
        }
        let t = (self.t.max(1)) as f64;
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for j in 0..self.pulls.len() {
            let n = self.pulls[j] as f64;
            let score = self.means[j] + (2.0 * t.ln() / n).sqrt();
            if score > best_score {
                best_score = score;
                best = j;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: bool) {
        self.t += 1;
        self.pulls[arm] += 1;
        self.sums[arm] += reward as u8 as f64;
        self.means[arm] = self.sums[arm] / self.pulls[arm] as f64;
    }

    fn policy_name(&self) -> &'static str {
        "UCB1"
    }
}

/// Beta–Bernoulli Thompson sampling: sample `θ_j ~ Beta(s_j+1, f_j+1)`
/// and play the argmax.
///
/// The `m` posteriors are kept between steps, and [`update`] rebuilds
/// only the pulled arm's, so a step costs `m` `Beta` draws and no
/// set-up. Arms are drawn in index order, one `Beta` each.
///
/// [`update`]: BanditPolicy::update
#[derive(Debug, Clone, PartialEq)]
pub struct ThompsonSampling {
    successes: Vec<u64>,
    failures: Vec<u64>,
    posteriors: Vec<Beta>,
}

impl ThompsonSampling {
    /// Creates Thompson sampling over `m` arms with uniform priors.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::NoOptions`] if `m == 0`.
    pub fn new(m: usize) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        Ok(ThompsonSampling {
            successes: vec![0; m],
            failures: vec![0; m],
            posteriors: vec![posterior(0, 0); m],
        })
    }
}

/// The `Beta(s+1, f+1)` posterior after `s` successes and `f` failures.
fn posterior(successes: u64, failures: u64) -> Beta {
    Beta::new(successes as f64 + 1.0, failures as f64 + 1.0).expect("parameters are >= 1")
}

impl BanditPolicy for ThompsonSampling {
    fn num_arms(&self) -> usize {
        self.posteriors.len()
    }

    fn select_arm(&mut self, rng: &mut SmallRng) -> usize {
        let mut best = 0;
        let mut best_draw = f64::NEG_INFINITY;
        for (j, beta) in self.posteriors.iter().enumerate() {
            let draw = beta.sample(rng);
            if draw > best_draw {
                best_draw = draw;
                best = j;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: bool) {
        if reward {
            self.successes[arm] += 1;
        } else {
            self.failures[arm] += 1;
        }
        self.posteriors[arm] = posterior(self.successes[arm], self.failures[arm]);
    }

    fn policy_name(&self) -> &'static str {
        "Thompson"
    }
}

/// ε-greedy: explore uniformly with probability `eps`, otherwise play
/// the empirical-mean argmax.
///
/// Each arm's mean is stored when it changes, in [`update`], so an
/// exploiting step does no division.
///
/// [`update`]: BanditPolicy::update
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonGreedy {
    eps: f64,
    pulls: Vec<u64>,
    sums: Vec<f64>,
    means: Vec<f64>,
}

impl EpsilonGreedy {
    /// Creates ε-greedy over `m` arms.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or `eps` is not a
    /// probability.
    pub fn new(m: usize, eps: f64) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        if !(0.0..=1.0).contains(&eps) || eps.is_nan() {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "eps",
                value: eps,
            });
        }
        Ok(EpsilonGreedy {
            eps,
            pulls: vec![0; m],
            sums: vec![0.0; m],
            means: vec![0.0; m],
        })
    }
}

impl BanditPolicy for EpsilonGreedy {
    fn num_arms(&self) -> usize {
        self.pulls.len()
    }

    fn select_arm(&mut self, rng: &mut SmallRng) -> usize {
        let r: f64 = rng.gen();
        if r < self.eps {
            return rng.gen_range(0..self.pulls.len());
        }
        if let Some(j) = self.pulls.iter().position(|&n| n == 0) {
            return j;
        }
        let mut best = 0;
        let mut best_mean = f64::NEG_INFINITY;
        for (j, &mean) in self.means.iter().enumerate() {
            if mean > best_mean {
                best_mean = mean;
                best = j;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: bool) {
        self.pulls[arm] += 1;
        self.sums[arm] += reward as u8 as f64;
        self.means[arm] = self.sums[arm] / self.pulls[arm] as f64;
    }

    fn policy_name(&self) -> &'static str {
        "eps-greedy"
    }
}

/// EXP3 (Auer et al.): multiplicative weights on importance-weighted
/// reward estimates, with γ-uniform exploration.
///
/// The softmax's exponentials are kept between steps. A weight only
/// grows, and only on a reward, so [`update`] recomputes the pulled
/// arm's alone, or all of them when that arm becomes the largest (the
/// softmax subtracts the largest weight).
///
/// [`update`]: BanditPolicy::update
#[derive(Debug, Clone, PartialEq)]
pub struct Exp3 {
    log_weights: Vec<f64>,
    gamma: f64,
    /// The largest of `log_weights`.
    max_log_weight: f64,
    /// `exp(log_weight - max_log_weight)` per arm.
    shifted: Vec<f64>,
    /// Probabilities used for the most recent draw (needed for the
    /// importance weighting in `update`).
    last_probs: Vec<f64>,
}

impl Exp3 {
    /// Creates EXP3 over `m` arms with exploration rate `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or `gamma` is not in
    /// `(0, 1]`.
    pub fn new(m: usize, gamma: f64) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        if !(gamma > 0.0 && gamma <= 1.0) {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "gamma",
                value: gamma,
            });
        }
        Ok(Exp3 {
            log_weights: vec![0.0; m],
            gamma,
            max_log_weight: 0.0,
            shifted: vec![1.0; m],
            last_probs: vec![1.0 / m as f64; m],
        })
    }

    #[cfg(test)]
    fn probabilities(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.log_weights.len()];
        write_probabilities(&self.shifted, self.gamma, &mut w);
        w
    }
}

/// Writes EXP3's sampling distribution into `out`: the softmax terms
/// `shifted`, normalized and mixed with a `gamma`-uniform floor.
fn write_probabilities(shifted: &[f64], gamma: f64, out: &mut [f64]) {
    let m = shifted.len();
    let z: f64 = shifted.iter().sum();
    for (wi, &w) in out.iter_mut().zip(shifted) {
        *wi = (1.0 - gamma) * w / z + gamma / m as f64;
    }
}

impl BanditPolicy for Exp3 {
    fn num_arms(&self) -> usize {
        self.log_weights.len()
    }

    fn select_arm(&mut self, rng: &mut SmallRng) -> usize {
        write_probabilities(&self.shifted, self.gamma, &mut self.last_probs);
        sociolearn_core::sample_categorical(rng, &self.last_probs)
    }

    fn update(&mut self, arm: usize, reward: bool) {
        if !reward {
            // A zero estimate leaves every weight as it is.
            return;
        }
        let m = self.log_weights.len() as f64;
        let estimate = 1.0 / self.last_probs[arm].max(1e-12);
        self.log_weights[arm] += self.gamma * estimate / m;
        let lw = self.log_weights[arm];
        if lw > self.max_log_weight {
            self.max_log_weight = lw;
            for (s, &w) in self.shifted.iter_mut().zip(&self.log_weights) {
                *s = (w - lw).exp();
            }
        } else {
            self.shifted[arm] = (lw - self.max_log_weight).exp();
        }
    }

    fn policy_name(&self) -> &'static str {
        "EXP3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Runs a policy on Bernoulli arms, returns fraction of pulls on
    /// arm 0 over the last half.
    fn run_policy<P: BanditPolicy>(mut p: P, etas: &[f64], steps: u64, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut best_pulls = 0u64;
        let half = steps / 2;
        for t in 0..steps {
            let arm = p.select_arm(&mut rng);
            let reward = rng.gen_bool(etas[arm]);
            p.update(arm, reward);
            if t >= half && arm == 0 {
                best_pulls += 1;
            }
        }
        best_pulls as f64 / half as f64
    }

    const ETAS: [f64; 3] = [0.8, 0.4, 0.2];

    #[test]
    fn ucb_finds_best_arm() {
        let frac = run_policy(Ucb1::new(3).unwrap(), &ETAS, 4_000, 1);
        assert!(frac > 0.8, "UCB best-arm fraction {frac}");
    }

    #[test]
    fn thompson_finds_best_arm() {
        let frac = run_policy(ThompsonSampling::new(3).unwrap(), &ETAS, 4_000, 2);
        assert!(frac > 0.85, "Thompson best-arm fraction {frac}");
    }

    #[test]
    fn epsilon_greedy_finds_best_arm() {
        let frac = run_policy(EpsilonGreedy::new(3, 0.1).unwrap(), &ETAS, 4_000, 3);
        assert!(frac > 0.8, "eps-greedy best-arm fraction {frac}");
    }

    #[test]
    fn exp3_favors_best_arm() {
        let frac = run_policy(Exp3::new(3, 0.1).unwrap(), &ETAS, 6_000, 4);
        assert!(frac > 0.5, "EXP3 best-arm fraction {frac}");
    }

    #[test]
    fn constructors_validate() {
        assert!(Ucb1::new(0).is_err());
        assert!(ThompsonSampling::new(0).is_err());
        assert!(EpsilonGreedy::new(3, 1.5).is_err());
        assert!(EpsilonGreedy::new(0, 0.1).is_err());
        assert!(Exp3::new(3, 0.0).is_err());
        assert!(Exp3::new(0, 0.5).is_err());
    }

    #[test]
    fn ucb_initial_round_robin() {
        let mut p = Ucb1::new(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..4 {
            let arm = p.select_arm(&mut rng);
            seen[arm] = true;
            p.update(arm, false);
        }
        assert!(seen.iter().all(|&s| s), "round robin skipped an arm");
    }

    /// Plays `p` for `steps` steps on five Bernoulli arms, calling
    /// `check(&p)` after every update.
    fn play<P: BanditPolicy>(mut p: P, steps: u64, seed: u64, check: impl Fn(&P)) {
        const ARMS: [f64; 5] = [0.9, 0.6, 0.5, 0.3, 0.1];
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..steps {
            let arm = p.select_arm(&mut rng);
            let reward = rng.gen_bool(ARMS[arm]);
            p.update(arm, reward);
            check(&p);
        }
    }

    #[test]
    fn stored_means_equal_the_quotients() {
        play(Ucb1::new(5).unwrap(), 2_000, 8, |p| {
            for j in 0..5 {
                if p.pulls[j] > 0 {
                    assert_eq!(p.means[j], p.sums[j] / p.pulls[j] as f64);
                }
            }
        });
        play(EpsilonGreedy::new(5, 0.2).unwrap(), 2_000, 9, |p| {
            for j in 0..5 {
                if p.pulls[j] > 0 {
                    assert_eq!(p.means[j], p.sums[j] / p.pulls[j] as f64);
                }
            }
        });
    }

    #[test]
    fn exp3_softmax_terms_follow_the_weights() {
        play(Exp3::new(5, 0.1).unwrap(), 2_000, 7, |p| {
            let max = p
                .log_weights
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(p.max_log_weight, max);
            for (&s, &w) in p.shifted.iter().zip(&p.log_weights) {
                assert_eq!(s, (w - max).exp());
            }
        });
    }

    #[test]
    fn exp3_probabilities_include_floor() {
        let e = Exp3::new(4, 0.2).unwrap();
        let probs = e.probabilities();
        for &p in &probs {
            assert!(p >= 0.05 - 1e-12, "gamma floor violated: {p}");
        }
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Ucb1::new(2).unwrap().policy_name(),
            ThompsonSampling::new(2).unwrap().policy_name(),
            EpsilonGreedy::new(2, 0.1).unwrap().policy_name(),
            Exp3::new(2, 0.1).unwrap().policy_name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn greedy_zero_eps_exploits_after_init() {
        let mut p = EpsilonGreedy::new(2, 0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        // Arm 0 pays, arm 1 does not.
        let a = p.select_arm(&mut rng);
        p.update(a, a == 0);
        let b = p.select_arm(&mut rng);
        p.update(b, b == 0);
        for _ in 0..50 {
            let arm = p.select_arm(&mut rng);
            assert_eq!(arm, 0);
            p.update(arm, true);
        }
    }
}
