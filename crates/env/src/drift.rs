//! Drifting qualities — the paper's future-work direction "when the
//! parameters controlling the quality of the options are allowed to
//! change".

use rand::rngs::SmallRng;
use rand::Rng;
use sociolearn_core::{ParamsError, RewardModel};

/// Piecewise-stationary qualities: a schedule of quality vectors, each
/// taking effect at a given (1-based) step and lasting until the next.
///
/// # Example
///
/// ```
/// use sociolearn_env::PiecewiseStationary;
/// use sociolearn_core::RewardModel;
///
/// // Option 0 is best until step 100, then option 1 takes over.
/// let env = PiecewiseStationary::new(vec![
///     (1, vec![0.9, 0.5]),
///     (100, vec![0.5, 0.9]),
/// ])?;
/// assert_eq!(env.qualities_at(50), &[0.9, 0.5]);
/// assert_eq!(env.qualities_at(100), &[0.5, 0.9]);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseStationary {
    /// `(start_step, qualities)`, sorted by start step; first entry
    /// starts at step 1.
    schedule: Vec<(u64, Vec<f64>)>,
    current_t: u64,
}

impl PiecewiseStationary {
    /// Creates the schedule. Segments must be non-empty, start at step
    /// 1, be strictly increasing in start step, and agree on the
    /// number of options.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] on an empty or malformed schedule or
    /// out-of-range qualities.
    pub fn new(schedule: Vec<(u64, Vec<f64>)>) -> Result<Self, ParamsError> {
        if schedule.is_empty() || schedule[0].1.is_empty() {
            return Err(ParamsError::NoOptions);
        }
        if schedule[0].0 != 1 {
            return Err(ParamsError::BadQuality {
                index: 0,
                value: schedule[0].0 as f64,
            });
        }
        let m = schedule[0].1.len();
        let mut prev_start = 0;
        for (start, etas) in &schedule {
            if *start <= prev_start {
                return Err(ParamsError::BadQuality {
                    index: 0,
                    value: *start as f64,
                });
            }
            prev_start = *start;
            if etas.len() != m {
                return Err(ParamsError::NoOptions);
            }
            for (index, &value) in etas.iter().enumerate() {
                if !(0.0..=1.0).contains(&value) || value.is_nan() {
                    return Err(ParamsError::BadQuality { index, value });
                }
            }
        }
        Ok(PiecewiseStationary {
            schedule,
            current_t: 1,
        })
    }

    /// The quality vector in force at step `t` (1-based).
    pub fn qualities_at(&self, t: u64) -> &[f64] {
        let mut active = &self.schedule[0].1;
        for (start, etas) in &self.schedule {
            if *start <= t.max(1) {
                active = etas;
            } else {
                break;
            }
        }
        active
    }

    /// The step at which each segment begins.
    pub fn change_points(&self) -> Vec<u64> {
        self.schedule.iter().map(|(s, _)| *s).collect()
    }
}

impl RewardModel for PiecewiseStationary {
    fn num_options(&self) -> usize {
        self.schedule[0].1.len()
    }

    fn sample(&mut self, t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(
            out.len(),
            self.num_options(),
            "reward buffer has wrong length"
        );
        self.current_t = t;
        for (slot, &eta) in out.iter_mut().zip(self.qualities_at(t)) {
            *slot = rng.gen_bool(eta);
        }
    }

    /// Qualities at the most recently sampled step.
    fn qualities(&self) -> Option<&[f64]> {
        Some(self.qualities_at(self.current_t))
    }
}

/// Convenience: the "best option swaps" schedule used by the recovery
/// experiments — `etas` until `swap_at`, then options 0 and `swap_with`
/// exchange qualities.
///
/// # Errors
///
/// Returns [`ParamsError`] if the inputs are malformed.
///
/// # Panics
///
/// Panics if `swap_with` is out of range or `swap_at < 2`.
pub fn swap_best(
    etas: Vec<f64>,
    swap_at: u64,
    swap_with: usize,
) -> Result<PiecewiseStationary, ParamsError> {
    assert!(swap_with < etas.len(), "swap target out of range");
    assert!(swap_at >= 2, "swap must happen after step 1");
    let mut swapped = etas.clone();
    swapped.swap(0, swap_with);
    PiecewiseStationary::new(vec![(1, etas), (swap_at, swapped)])
}

/// Qualities performing independent bounded random walks: each step,
/// every `η_j` moves by `±step_size` (reflected into `[lo, hi]`).
///
/// Models slow environmental drift; the paper's regret machinery does
/// not cover this case, which is exactly why it is interesting to
/// measure (experiment E12 companion).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalkQualities {
    etas: Vec<f64>,
    step_size: f64,
    lo: f64,
    hi: f64,
}

impl RandomWalkQualities {
    /// Creates the walk from initial qualities and a step size, with
    /// reflection bounds `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] on empty/malformed input, or bounds not
    /// satisfying `0 ≤ lo < hi ≤ 1`.
    pub fn new(etas: Vec<f64>, step_size: f64, lo: f64, hi: f64) -> Result<Self, ParamsError> {
        if etas.is_empty() {
            return Err(ParamsError::NoOptions);
        }
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo >= hi {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "bounds",
                value: lo,
            });
        }
        if !step_size.is_finite() || step_size <= 0.0 || step_size >= (hi - lo) {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "step_size",
                value: step_size,
            });
        }
        for (index, &value) in etas.iter().enumerate() {
            if !(lo..=hi).contains(&value) {
                return Err(ParamsError::BadQuality { index, value });
            }
        }
        Ok(RandomWalkQualities {
            etas,
            step_size,
            lo,
            hi,
        })
    }

    /// Current quality vector.
    pub fn etas(&self) -> &[f64] {
        &self.etas
    }
}

impl RewardModel for RandomWalkQualities {
    fn num_options(&self) -> usize {
        self.etas.len()
    }

    fn sample(&mut self, _t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(out.len(), self.etas.len(), "reward buffer has wrong length");
        // Move first, then emit signals from the new qualities.
        for eta in self.etas.iter_mut() {
            let delta = if rng.gen_bool(0.5) {
                self.step_size
            } else {
                -self.step_size
            };
            let mut v = *eta + delta;
            if v > self.hi {
                v = 2.0 * self.hi - v;
            }
            if v < self.lo {
                v = 2.0 * self.lo - v;
            }
            *eta = v.clamp(self.lo, self.hi);
        }
        for (slot, &eta) in out.iter_mut().zip(&self.etas) {
            *slot = rng.gen_bool(eta);
        }
    }

    fn qualities(&self) -> Option<&[f64]> {
        Some(&self.etas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_lookup() {
        let env = PiecewiseStationary::new(vec![
            (1, vec![0.9, 0.1]),
            (10, vec![0.5, 0.5]),
            (20, vec![0.1, 0.9]),
        ])
        .unwrap();
        assert_eq!(env.qualities_at(1), &[0.9, 0.1]);
        assert_eq!(env.qualities_at(9), &[0.9, 0.1]);
        assert_eq!(env.qualities_at(10), &[0.5, 0.5]);
        assert_eq!(env.qualities_at(25), &[0.1, 0.9]);
        assert_eq!(env.change_points(), vec![1, 10, 20]);
    }

    #[test]
    fn schedule_validation() {
        assert!(PiecewiseStationary::new(vec![]).is_err());
        assert!(PiecewiseStationary::new(vec![(2, vec![0.5])]).is_err());
        assert!(PiecewiseStationary::new(vec![(1, vec![0.5]), (1, vec![0.5])]).is_err());
        assert!(PiecewiseStationary::new(vec![(1, vec![0.5]), (5, vec![0.5, 0.5])]).is_err());
        assert!(PiecewiseStationary::new(vec![(1, vec![1.5])]).is_err());
    }

    #[test]
    fn qualities_follow_sampling_time() {
        let mut env =
            PiecewiseStationary::new(vec![(1, vec![1.0, 0.0]), (5, vec![0.0, 1.0])]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = [false; 2];
        env.sample(1, &mut rng, &mut out);
        assert_eq!(out, [true, false]);
        assert_eq!(env.qualities(), Some(&[1.0, 0.0][..]));
        env.sample(5, &mut rng, &mut out);
        assert_eq!(out, [false, true]);
        assert_eq!(env.qualities(), Some(&[0.0, 1.0][..]));
    }

    #[test]
    fn swap_best_schedule() {
        let env = swap_best(vec![0.9, 0.5, 0.3], 50, 2).unwrap();
        assert_eq!(env.qualities_at(49), &[0.9, 0.5, 0.3]);
        assert_eq!(env.qualities_at(50), &[0.3, 0.5, 0.9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn swap_best_validates_target() {
        let _ = swap_best(vec![0.9, 0.5], 50, 5);
    }

    #[test]
    fn random_walk_stays_in_bounds() {
        let mut env = RandomWalkQualities::new(vec![0.5, 0.5], 0.05, 0.2, 0.8).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = [false; 2];
        for t in 0..5_000 {
            env.sample(t, &mut rng, &mut out);
            for &eta in env.etas() {
                assert!((0.2..=0.8).contains(&eta), "walk escaped: {eta}");
            }
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let mut env = RandomWalkQualities::new(vec![0.5], 0.05, 0.0, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = [false; 1];
        let mut seen_low = false;
        let mut seen_high = false;
        for t in 0..20_000 {
            env.sample(t, &mut rng, &mut out);
            if env.etas()[0] < 0.3 {
                seen_low = true;
            }
            if env.etas()[0] > 0.7 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high, "walk failed to explore");
    }

    #[test]
    fn random_walk_validation() {
        assert!(RandomWalkQualities::new(vec![], 0.1, 0.0, 1.0).is_err());
        assert!(RandomWalkQualities::new(vec![0.5], 0.0, 0.0, 1.0).is_err());
        assert!(RandomWalkQualities::new(vec![0.5], 0.1, 0.6, 0.4).is_err());
        assert!(RandomWalkQualities::new(vec![0.9], 0.1, 0.0, 0.5).is_err());
    }
}
