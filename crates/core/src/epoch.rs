//! Epoch decomposition for the large-`T` regret argument
//! (Section 4.3.2 of the paper).
//!
//! Theorem 4.4 handles `T ≫ ln m/δ²` by cutting time into epochs of
//! length `ln(1/ζ)/δ²` (with `ζ = µ(1−β)/4m` the popularity floor),
//! re-coupling the infinite process to the finite state at each epoch
//! boundary, and summing the per-epoch regret bounds. This module
//! provides the schedule plus per-epoch regret accounting so the
//! experiments can display regret epoch by epoch.

use crate::params::Params;
use crate::regret::RegretTracker;

/// An epoch schedule: fixed-length windows over `1..=T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSchedule {
    epoch_len: u64,
}

impl EpochSchedule {
    /// The schedule used by the proof of Theorem 4.4 for these
    /// parameters.
    pub fn for_params(params: &Params) -> Self {
        EpochSchedule {
            epoch_len: params.epoch_length().max(1),
        }
    }

    /// Epoch length in steps.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// The 0-based epoch index containing 1-based step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` (steps are 1-based, as in the paper).
    pub fn epoch_of(&self, t: u64) -> u64 {
        assert!(t > 0, "steps are 1-based");
        (t - 1) / self.epoch_len
    }
}

/// Per-epoch regret accounting: one [`RegretTracker`] per epoch plus a
/// whole-run tracker.
#[derive(Debug, Clone)]
pub struct EpochRegret {
    schedule: EpochSchedule,
    benchmark: f64,
    best_index: usize,
    epochs: Vec<RegretTracker>,
    total: RegretTracker,
    t: u64,
}

impl EpochRegret {
    /// Creates the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` is not a probability.
    pub fn new(schedule: EpochSchedule, benchmark: f64, best_index: usize) -> Self {
        EpochRegret {
            schedule,
            benchmark,
            best_index,
            epochs: Vec::new(),
            total: RegretTracker::new(benchmark, best_index),
            t: 0,
        }
    }

    /// Records one step (same arguments as [`RegretTracker::record`]).
    pub fn record(&mut self, dist_before: &[f64], rewards: &[bool], qualities: Option<&[f64]>) {
        self.t += 1;
        let idx = self.schedule.epoch_of(self.t) as usize;
        while self.epochs.len() <= idx {
            self.epochs
                .push(RegretTracker::new(self.benchmark, self.best_index));
        }
        self.epochs[idx].record(dist_before, rewards, qualities);
        self.total.record(dist_before, rewards, qualities);
    }

    /// The whole-run tracker.
    pub fn total(&self) -> &RegretTracker {
        &self.total
    }

    /// Average regret within each completed-or-partial epoch.
    pub fn per_epoch_regret(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.average_regret()).collect()
    }

    /// The epoch schedule in use.
    pub fn schedule(&self) -> EpochSchedule {
        self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_boundaries() {
        let s = EpochSchedule { epoch_len: 10 };
        assert_eq!(s.epoch_of(1), 0);
        assert_eq!(s.epoch_of(10), 0);
        assert_eq!(s.epoch_of(11), 1);
        assert_eq!(s.epoch_of(30), 2);
    }

    #[test]
    fn schedule_from_params_matches_theorem() {
        let p = Params::new(10, 0.6).unwrap();
        let s = EpochSchedule::for_params(&p);
        assert_eq!(s.epoch_len(), p.epoch_length());
        // Epochs start from the popularity floor, so they are at least
        // as long as the uniform-start horizon.
        assert!(s.epoch_len() >= p.min_horizon());
    }

    #[test]
    fn per_epoch_accounting() {
        let s = EpochSchedule { epoch_len: 2 };
        let mut acc = EpochRegret::new(s, 0.9, 0);
        // Epoch 0: perfect play; epoch 1: worst play.
        for _ in 0..2 {
            acc.record(&[1.0, 0.0], &[true, false], Some(&[0.9, 0.1]));
        }
        for _ in 0..2 {
            acc.record(&[0.0, 1.0], &[false, true], Some(&[0.9, 0.1]));
        }
        let per = acc.per_epoch_regret();
        assert_eq!(per.len(), 2);
        assert!(per[0].abs() < 1e-12);
        assert!((per[1] - 0.8).abs() < 1e-12);
        // Whole-run average is the mean of the two epochs here.
        assert!((acc.total().average_regret() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_step_rejected() {
        EpochSchedule { epoch_len: 5 }.epoch_of(0);
    }
}
