//! Trivial baselines: oracles and floors that anchor the regret
//! comparison tables.

use rand::rngs::SmallRng;
use sociolearn_core::{GroupDynamics, ParamsError};

/// Always plays the known best option — the zero-regret oracle
/// defining the benchmark the paper's regret is measured against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestFixed {
    m: usize,
    best: usize,
}

impl BestFixed {
    /// Creates the oracle.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or `best >= m`.
    pub fn new(m: usize, best: usize) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        if best >= m {
            return Err(ParamsError::BadQuality {
                index: best,
                value: best as f64,
            });
        }
        Ok(BestFixed { m, best })
    }
}

impl GroupDynamics for BestFixed {
    fn num_options(&self) -> usize {
        self.m
    }

    fn write_distribution(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.m, "buffer length mismatch");
        out.fill(0.0);
        out[self.best] = 1.0;
    }

    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        assert_eq!(rewards.len(), self.m, "rewards length mismatch");
    }

    fn label(&self) -> &str {
        "best fixed (oracle)"
    }
}

/// Plays uniformly at random forever — the exploration-only floor
/// (also what the social dynamics degenerates to at `µ = 1`, modulo
/// adoption thinning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformRandom {
    m: usize,
}

impl UniformRandom {
    /// Creates the uniform player.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::NoOptions`] if `m == 0`.
    pub fn new(m: usize) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        Ok(UniformRandom { m })
    }
}

impl GroupDynamics for UniformRandom {
    fn num_options(&self) -> usize {
        self.m
    }

    fn write_distribution(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.m, "buffer length mismatch");
        out.fill(1.0 / self.m as f64);
    }

    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        assert_eq!(rewards.len(), self.m, "rewards length mismatch");
    }

    fn label(&self) -> &str {
        "uniform random"
    }
}

/// Follow-the-Leader with full information: plays (a point mass on)
/// the option with the highest cumulative realized reward so far,
/// breaking ties toward lower indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowTheLeader {
    totals: Vec<u64>,
}

impl FollowTheLeader {
    /// Creates FTL over `m` options.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::NoOptions`] if `m == 0`.
    pub fn new(m: usize) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        Ok(FollowTheLeader { totals: vec![0; m] })
    }

    /// The current leader.
    pub fn leader(&self) -> usize {
        let mut best = 0;
        for (j, &v) in self.totals.iter().enumerate() {
            if v > self.totals[best] {
                best = j;
            }
        }
        best
    }
}

impl GroupDynamics for FollowTheLeader {
    fn num_options(&self) -> usize {
        self.totals.len()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.totals.len(), "buffer length mismatch");
        out.fill(0.0);
        out[self.leader()] = 1.0;
    }

    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        assert_eq!(rewards.len(), self.totals.len(), "rewards length mismatch");
        for (t, &r) in self.totals.iter_mut().zip(rewards) {
            *t += r as u64;
        }
    }

    fn label(&self) -> &str {
        "follow the leader"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn best_fixed_point_mass() {
        let b = BestFixed::new(4, 2).unwrap();
        assert_eq!(b.distribution(), vec![0.0, 0.0, 1.0, 0.0]);
        assert!(BestFixed::new(4, 9).is_err());
        assert!(BestFixed::new(0, 0).is_err());
    }

    #[test]
    fn uniform_is_uniform() {
        let u = UniformRandom::new(5).unwrap();
        assert_eq!(u.distribution(), vec![0.2; 5]);
        assert!(UniformRandom::new(0).is_err());
    }

    #[test]
    fn ftl_tracks_cumulative_leader() {
        let mut f = FollowTheLeader::new(3).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(f.leader(), 0);
        f.step(&[false, true, false], &mut rng);
        assert_eq!(f.leader(), 1);
        f.step(&[true, false, true], &mut rng);
        f.step(&[true, false, true], &mut rng);
        assert_eq!(f.leader(), 0);
        assert_eq!(f.distribution(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn ftl_tie_breaks_low() {
        let mut f = FollowTheLeader::new(2).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        f.step(&[true, true], &mut rng);
        assert_eq!(f.leader(), 0);
    }

    #[test]
    fn oracles_ignore_steps() {
        let mut b = BestFixed::new(2, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            b.step(&[false, true], &mut rng);
        }
        assert_eq!(b.distribution(), vec![1.0, 0.0]);
    }
}
