//! Regret accounting, matching the paper's definitions exactly.
//!
//! The paper measures
//!
//! ```text
//! Regret_N(T) = η₁ − (1/T) Σ_{t=1..T} Σ_j E[ Q^{t-1}_j R^t_j ]
//! ```
//!
//! — the gap between always playing the best option and the group's
//! average expected per-step reward. The tracker records both the
//! *realized* estimator `Σ_j Q^{t-1}_j R^t_j` and, when qualities are
//! known, the *Rao–Blackwellized* estimator `Σ_j Q^{t-1}_j η_j`
//! (unbiased because `R^t ⊥ Q^{t-1}`, and far lower variance).

/// Accumulates the paper's average regret over a run.
///
/// # Example
///
/// ```
/// use sociolearn_core::RegretTracker;
///
/// let mut tracker = RegretTracker::new(0.9, 0);
/// // The group had 60% of mass on the best option; it was good, the
/// // other was bad.
/// tracker.record(&[0.6, 0.4], &[true, false], Some(&[0.9, 0.5]));
/// assert!((tracker.average_regret() - (0.9 - (0.6 * 0.9 + 0.4 * 0.5))).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegretTracker {
    best_quality: f64,
    best_index: usize,
    steps: u64,
    sum_realized: f64,
    sum_conditional: f64,
    conditional_steps: u64,
    sum_best_share: f64,
}

impl RegretTracker {
    /// Creates a tracker given the best option's expected quality
    /// `η₁` and its index.
    ///
    /// # Panics
    ///
    /// Panics if `best_quality` is not in `[0, 1]`.
    pub fn new(best_quality: f64, best_index: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&best_quality),
            "best quality must be a probability, got {best_quality}"
        );
        RegretTracker {
            best_quality,
            best_index,
            steps: 0,
            sum_realized: 0.0,
            sum_conditional: 0.0,
            conditional_steps: 0,
            sum_best_share: 0.0,
        }
    }

    /// Records one step: the distribution *before* the step (`Q^{t-1}`),
    /// the fresh rewards `R^t`, and the per-option qualities at this
    /// step if known.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree.
    pub fn record(&mut self, dist_before: &[f64], rewards: &[bool], qualities: Option<&[f64]>) {
        assert_eq!(dist_before.len(), rewards.len(), "length mismatch");
        self.steps += 1;
        let realized: f64 = dist_before
            .iter()
            .zip(rewards)
            .map(|(&q, &r)| q * (r as u8 as f64))
            .sum();
        self.sum_realized += realized;
        if let Some(etas) = qualities {
            assert_eq!(etas.len(), dist_before.len(), "length mismatch");
            let cond: f64 = dist_before.iter().zip(etas).map(|(&q, &e)| q * e).sum();
            self.sum_conditional += cond;
            self.conditional_steps += 1;
        }
        self.sum_best_share += dist_before[self.best_index];
    }

    /// Number of recorded steps `T`.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The benchmark quality `η₁`.
    pub fn best_quality(&self) -> f64 {
        self.best_quality
    }

    /// Average regret with the realized-reward estimator. `0.0` before
    /// any step is recorded.
    fn average_regret_realized(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.best_quality - self.sum_realized / self.steps as f64
    }

    /// Average regret with the Rao–Blackwellized estimator when
    /// qualities were supplied at every step, falling back to the
    /// realized estimator otherwise.
    pub fn average_regret(&self) -> f64 {
        if self.conditional_steps == self.steps && self.steps > 0 {
            self.best_quality - self.sum_conditional / self.steps as f64
        } else {
            self.average_regret_realized()
        }
    }

    /// Average share of the population on the best option,
    /// `(1/T) Σ_t Q^{t-1}_{best}` (the quantity bounded below in the
    /// second part of Theorem 4.3).
    pub fn average_best_share(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.sum_best_share / self.steps as f64
    }
}

/// A regret trajectory: average regret as a function of the horizon.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegretCurve {
    /// Horizons at which the average regret was recorded.
    pub horizons: Vec<u64>,
    /// `Regret(T)` for each recorded horizon.
    pub values: Vec<f64>,
}

impl RegretCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `(T, Regret(T))` point.
    pub fn push(&mut self, horizon: u64, value: f64) {
        self.horizons.push(horizon);
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.horizons.len()
    }

    /// Whether the curve is empty.
    pub fn is_empty(&self) -> bool {
        self.horizons.is_empty()
    }

    /// The final recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// `(T as f64, value)` pairs for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.horizons
            .iter()
            .zip(&self.values)
            .map(|(&t, &v)| (t as f64, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_zero() {
        let t = RegretTracker::new(0.8, 0);
        assert_eq!(t.average_regret(), 0.0);
        assert_eq!(t.average_regret_realized(), 0.0);
        assert_eq!(t.average_best_share(), 0.0);
    }

    #[test]
    fn perfect_play_zero_regret() {
        let mut t = RegretTracker::new(0.9, 0);
        for _ in 0..10 {
            t.record(&[1.0, 0.0], &[true, false], Some(&[0.9, 0.1]));
        }
        // Realized regret: 0.9 - 1.0 = -0.1 per step (the realized
        // reward overshoots eta when R=1 deterministically here).
        assert!((t.average_regret_realized() - (0.9 - 1.0)).abs() < 1e-12);
        // Conditional regret: exactly zero.
        assert!(t.average_regret().abs() < 1e-12);
        assert_eq!(t.average_best_share(), 1.0);
    }

    #[test]
    fn worst_play_maximal_regret() {
        let mut t = RegretTracker::new(0.9, 0);
        t.record(&[0.0, 1.0], &[true, false], Some(&[0.9, 0.1]));
        assert!((t.average_regret() - 0.8).abs() < 1e-12);
        assert_eq!(t.average_best_share(), 0.0);
    }

    #[test]
    fn falls_back_to_realized_when_qualities_missing() {
        let mut t = RegretTracker::new(0.9, 0);
        t.record(&[0.5, 0.5], &[true, true], Some(&[0.9, 0.1]));
        t.record(&[0.5, 0.5], &[false, false], None);
        // Mixed supply: conditional steps != steps -> realized is used.
        let expected = 0.9 - (1.0 + 0.0) / 2.0;
        assert!((t.average_regret() - expected).abs() < 1e-12);
    }

    #[test]
    fn curve_accumulates_points() {
        let mut c = RegretCurve::new();
        assert!(c.is_empty());
        c.push(10, 0.5);
        c.push(20, 0.3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.last_value(), Some(0.3));
        assert_eq!(c.points(), vec![(10.0, 0.5), (20.0, 0.3)]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_benchmark() {
        RegretTracker::new(1.5, 0);
    }
}
