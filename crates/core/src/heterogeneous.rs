//! Heterogeneous adoption functions — the generalization the paper
//! notes in Section 2.1: each individual `i` may have its own
//! `(α_i, β_i)` ("for simplicity in the exposition, we assume that all
//! `f_i` are identical ... This assumption is not essential for our
//! results").
//!
//! The collective statistic is no longer sufficient (stage 2 depends
//! on *which* individuals sampled each option), so this runs
//! per-agent. The expected behaviour is governed by the population
//! means `ᾱ, β̄`: tests pin the heterogeneous dynamics against the
//! homogeneous one at `(ᾱ, β̄)`.

use crate::dynamics::{write_shares, GroupDynamics};
use crate::error::ParamsError;
use rand::rngs::SmallRng;
use rand::Rng;

/// Per-individual adoption sensitivities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdoptProfile {
    /// Probability of adopting on a good signal.
    pub beta: f64,
    /// Probability of adopting on a bad signal (`alpha <= beta`).
    pub alpha: f64,
}

impl AdoptProfile {
    /// Creates a profile.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if either value is not a probability or
    /// `alpha > beta`.
    pub fn new(beta: f64, alpha: f64) -> Result<Self, ParamsError> {
        for (name, value) in [("beta", beta), ("alpha", alpha)] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ParamsError::ProbabilityOutOfRange { name, value });
            }
        }
        if alpha > beta {
            return Err(ParamsError::AlphaAboveBeta { alpha, beta });
        }
        Ok(AdoptProfile { beta, alpha })
    }

    /// The symmetric profile `alpha = 1 - beta` used by the theorems.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `beta < 1/2` (so that
    /// `alpha <= beta`) or out of range.
    pub fn symmetric(beta: f64) -> Result<Self, ParamsError> {
        AdoptProfile::new(beta, 1.0 - beta)
    }

    /// Adoption probability given the signal.
    pub fn adopt_probability(&self, good: bool) -> f64 {
        if good {
            self.beta
        } else {
            self.alpha
        }
    }
}

/// The finite-population dynamics with per-individual adoption
/// functions `f_i` (and shared exploration rate `µ`).
///
/// # Example
///
/// ```
/// use sociolearn_core::{AdoptProfile, GroupDynamics, HeterogeneousPopulation};
/// use rand::SeedableRng;
///
/// // Half the group is keen (beta = 0.7), half is skeptical (0.55).
/// let profiles: Vec<AdoptProfile> = (0..100)
///     .map(|i| AdoptProfile::symmetric(if i % 2 == 0 { 0.7 } else { 0.55 }).unwrap())
///     .collect();
/// let mut pop = HeterogeneousPopulation::new(2, 0.05, profiles)?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// pop.step(&[true, false], &mut rng);
/// assert_eq!(pop.distribution().len(), 2);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneousPopulation {
    m: usize,
    mu: f64,
    profiles: Vec<AdoptProfile>,
    choices: Vec<Option<u32>>,
    committed_options: Vec<u32>,
    counts: Vec<u64>,
    steps: u64,
}

impl HeterogeneousPopulation {
    /// Creates the population, one agent per profile, starting
    /// round-robin committed.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0`, `mu` is not a probability,
    /// or `profiles` is empty.
    pub fn new(m: usize, mu: f64, profiles: Vec<AdoptProfile>) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        if !(0.0..=1.0).contains(&mu) || mu.is_nan() {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "mu",
                value: mu,
            });
        }
        if profiles.is_empty() {
            return Err(ParamsError::NoOptions);
        }
        let n = profiles.len();
        let choices: Vec<Option<u32>> = (0..n).map(|i| Some((i % m) as u32)).collect();
        let mut counts = vec![0u64; m];
        let mut committed_options = Vec::with_capacity(n);
        for c in choices.iter().flatten() {
            counts[*c as usize] += 1;
            committed_options.push(*c);
        }
        Ok(HeterogeneousPopulation {
            m,
            mu,
            profiles,
            choices,
            committed_options,
            counts,
            steps: 0,
        })
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.profiles.len()
    }

    /// The agents' profiles.
    pub fn profiles(&self) -> &[AdoptProfile] {
        &self.profiles
    }

    /// Population-mean profile `(β̄, ᾱ)` — the parameters whose
    /// homogeneous dynamics this one tracks in expectation.
    pub fn mean_profile(&self) -> AdoptProfile {
        let n = self.profiles.len() as f64;
        let beta = self.profiles.iter().map(|p| p.beta).sum::<f64>() / n;
        let alpha = self.profiles.iter().map(|p| p.alpha).sum::<f64>() / n;
        AdoptProfile { beta, alpha }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

impl GroupDynamics for HeterogeneousPopulation {
    fn num_options(&self) -> usize {
        self.m
    }

    fn write_distribution(&self, out: &mut [f64]) {
        write_shares(&self.counts, out);
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        assert_eq!(
            rewards.len(),
            self.m,
            "rewards length must equal the number of options"
        );
        let pool = std::mem::take(&mut self.committed_options);
        let mut new_counts = vec![0u64; self.m];
        let mut new_pool = Vec::with_capacity(self.choices.len());
        for (choice, profile) in self.choices.iter_mut().zip(&self.profiles) {
            let j = if pool.is_empty() || rng.gen_bool(self.mu) {
                rng.gen_range(0..self.m) as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            let p = profile.adopt_probability(rewards[j as usize]);
            if rng.gen_bool(p) {
                *choice = Some(j);
                new_counts[j as usize] += 1;
                new_pool.push(j);
            } else {
                *choice = None;
            }
        }
        self.counts = new_counts;
        self.committed_options = new_pool;
        self.steps += 1;
    }

    fn label(&self) -> &str {
        "social (heterogeneous)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::assert_distribution;
    use crate::{AgentPopulation, BernoulliRewards, Params, RewardModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mixed_profiles(n: usize) -> Vec<AdoptProfile> {
        (0..n)
            .map(|i| {
                AdoptProfile::symmetric(match i % 3 {
                    0 => 0.55,
                    1 => 0.65,
                    _ => 0.72,
                })
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn profile_validation() {
        assert!(AdoptProfile::new(0.6, 0.7).is_err());
        assert!(AdoptProfile::new(1.2, 0.1).is_err());
        assert!(AdoptProfile::symmetric(0.4).is_err()); // alpha 0.6 > beta 0.4
        let p = AdoptProfile::symmetric(0.6).unwrap();
        assert!((p.adopt_probability(true) - 0.6).abs() < 1e-12);
        assert!((p.adopt_probability(false) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn construction_validation() {
        assert!(HeterogeneousPopulation::new(0, 0.1, mixed_profiles(4)).is_err());
        assert!(HeterogeneousPopulation::new(2, 1.5, mixed_profiles(4)).is_err());
        assert!(HeterogeneousPopulation::new(2, 0.1, vec![]).is_err());
    }

    #[test]
    fn invariants_over_time() {
        let mut pop = HeterogeneousPopulation::new(3, 0.05, mixed_profiles(120)).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..100u64 {
            let rewards: Vec<bool> = (0..3).map(|j| (t + j as u64).is_multiple_of(2)).collect();
            pop.step(&rewards, &mut rng);
            assert_distribution(&pop.distribution(), 1e-12);
        }
        assert_eq!(pop.steps(), 100);
    }

    #[test]
    fn converges_to_best_option() {
        let mut pop = HeterogeneousPopulation::new(2, 0.05, mixed_profiles(2_000)).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
        let mut rewards = vec![false; 2];
        for t in 1..=300 {
            env.sample(t, &mut rng, &mut rewards);
            pop.step(&rewards, &mut rng);
        }
        assert!(
            pop.distribution()[0] > 0.85,
            "share {:?}",
            pop.distribution()
        );
    }

    #[test]
    fn mean_profile_is_population_average() {
        let profiles = vec![
            AdoptProfile::new(0.8, 0.2).unwrap(),
            AdoptProfile::new(0.6, 0.4).unwrap(),
        ];
        let pop = HeterogeneousPopulation::new(2, 0.1, profiles).unwrap();
        let mean = pop.mean_profile();
        assert!((mean.beta - 0.7).abs() < 1e-12);
        assert!((mean.alpha - 0.3).abs() < 1e-12);
    }

    #[test]
    fn tracks_homogeneous_dynamics_at_mean_parameters() {
        // One-step mean committed share must match the homogeneous
        // population at (beta-bar, alpha-bar): stage 2 thinning is
        // linear in the profile, so the means coincide exactly.
        let n = 400;
        let mu = 0.1;
        let profiles = mixed_profiles(n);
        let reps = 600u64;
        let rewards = [true, false];

        let mut het_mean = 0.0;
        for seed in 0..reps {
            let mut pop = HeterogeneousPopulation::new(2, mu, profiles.clone()).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            pop.step(&rewards, &mut rng);
            het_mean += pop.distribution()[0];
        }
        het_mean /= reps as f64;

        let mean = {
            let tmp = HeterogeneousPopulation::new(2, mu, profiles).unwrap();
            tmp.mean_profile()
        };
        let params = Params::with_all(2, mean.beta, mean.alpha, mu).unwrap();
        let mut hom_mean = 0.0;
        for seed in 0..reps {
            let mut pop = AgentPopulation::new(params, n);
            let mut rng = SmallRng::seed_from_u64(100_000 + seed);
            crate::GroupDynamics::step(&mut pop, &rewards, &mut rng);
            hom_mean += pop.distribution()[0];
        }
        hom_mean /= reps as f64;
        assert!(
            (het_mean - hom_mean).abs() < 0.02,
            "heterogeneous {het_mean} vs homogeneous-at-mean {hom_mean}"
        );
    }

    #[test]
    fn extreme_split_population_still_learns() {
        // Half the agents ignore signals entirely (alpha = beta = 0.5),
        // half are sharp (0.72); the sharp half drives learning.
        let profiles: Vec<AdoptProfile> = (0..1_000)
            .map(|i| {
                if i % 2 == 0 {
                    AdoptProfile::new(0.5, 0.5).unwrap()
                } else {
                    AdoptProfile::symmetric(0.72).unwrap()
                }
            })
            .collect();
        let mut pop = HeterogeneousPopulation::new(2, 0.05, profiles).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
        let mut rewards = vec![false; 2];
        let mut tail = 0.0;
        for t in 1..=400 {
            env.sample(t, &mut rng, &mut rewards);
            pop.step(&rewards, &mut rng);
            if t > 300 {
                tail += pop.distribution()[0];
            }
        }
        tail /= 100.0;
        assert!(tail > 0.75, "mixed-competence group share {tail}");
    }
}
