//! Exact binomial tail probabilities and tests.
//!
//! The reproduction suite needs these for rare-event claims of the form
//! "the popularity floor is violated with probability at most
//! `6m/N^10`": we observe `k` violations in `n` trials and need the
//! exact probability of seeing at least `k` under the bound.

use crate::ln_choose;

/// Natural log of the Binomial(n, p) probability mass at `k`.
///
/// Handles the `p = 0` / `p = 1` edges exactly.
///
/// ```
/// let lp = sociolearn_stats::binomial_ln_pmf(4, 2, 0.5);
/// assert!((lp.exp() - 0.375).abs() < 1e-12);
/// ```
pub fn binomial_ln_pmf(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if k > n {
        return f64::NEG_INFINITY;
    }
    if p == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    if p == 1.0 {
        return if k == n { 0.0 } else { f64::NEG_INFINITY };
    }
    ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()
}

/// Exact upper tail `P[X >= k]` for `X ~ Binomial(n, p)`.
///
/// Computed by summing the PMF from whichever end is shorter, in the
/// log domain, so it is accurate even deep in the tail.
///
/// ```
/// // P[X >= 0] = 1 always.
/// assert_eq!(sociolearn_stats::binomial_tail_ge(10, 0, 0.3), 1.0);
/// ```
// detlint: allow(D6) — the exact tail for seed-stable verdicts (ROADMAP item 5)
pub fn binomial_tail_ge(n: u64, k: u64, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // Sum the shorter side.
    if (n - k + 1) <= k {
        // Sum P[X = j] for j in k..=n directly.
        let mut acc = 0.0;
        for j in k..=n {
            acc += binomial_ln_pmf(n, j, p).exp();
        }
        acc.min(1.0)
    } else {
        // 1 - P[X <= k-1]
        let mut acc = 0.0;
        for j in 0..k {
            acc += binomial_ln_pmf(n, j, p).exp();
        }
        (1.0 - acc).clamp(0.0, 1.0)
    }
}

/// Exact lower tail `P[X <= k]` for `X ~ Binomial(n, p)`.
///
/// ```
/// assert_eq!(sociolearn_stats::binomial_tail_le(10, 10, 0.3), 1.0);
/// ```
// detlint: allow(D6) — the exact tail for seed-stable verdicts (ROADMAP item 5)
pub fn binomial_tail_le(n: u64, k: u64, p: f64) -> f64 {
    if k >= n {
        return 1.0;
    }
    1.0 - binomial_tail_ge(n, k + 1, p)
}

/// A one-sided exact binomial test: given `successes` out of `trials`,
/// is the underlying success probability consistent with being at most
/// `p_bound`?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialTest {
    /// Observed number of successes.
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
    /// The hypothesized upper bound on the success probability.
    pub p_bound: f64,
    /// `P[X >= successes]` under `Binomial(trials, p_bound)`.
    pub p_value: f64,
}

impl BinomialTest {
    /// Runs the test.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `p_bound` is not a probability.
    ///
    /// ```
    /// use sociolearn_stats::BinomialTest;
    /// // 0 violations in 1000 trials is fully consistent with p <= 0.01.
    /// let t = BinomialTest::run(0, 1000, 0.01);
    /// assert!(t.consistent_at(0.05));
    /// // 100 violations in 1000 trials is not.
    /// let t = BinomialTest::run(100, 1000, 0.01);
    /// assert!(!t.consistent_at(0.05));
    /// ```
    pub fn run(successes: u64, trials: u64, p_bound: f64) -> Self {
        assert!(trials > 0, "binomial test needs at least one trial");
        assert!(
            (0.0..=1.0).contains(&p_bound),
            "p_bound must be a probability"
        );
        BinomialTest {
            successes,
            trials,
            p_bound,
            p_value: binomial_tail_ge(trials, successes, p_bound),
        }
    }

    /// Whether the observation is consistent with the bound at
    /// significance `alpha` (i.e. we cannot reject `p <= p_bound`).
    pub fn consistent_at(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (25, 0.7), (1, 0.5), (40, 0.05)] {
            let total: f64 = (0..=n).map(|k| binomial_ln_pmf(n, k, p).exp()).sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn tails_are_complementary() {
        for k in 0..=12u64 {
            let ge = binomial_tail_ge(12, k, 0.4);
            let le = if k == 0 {
                0.0
            } else {
                binomial_tail_le(12, k - 1, 0.4)
            };
            assert!((ge + le - 1.0).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn fair_coin_symmetric() {
        let p = binomial_tail_ge(100, 50, 0.5);
        let q = binomial_tail_le(100, 50, 0.5);
        // P[X>=50] + P[X<=50] = 1 + P[X=50]
        let pmf50 = binomial_ln_pmf(100, 50, 0.5).exp();
        assert!((p + q - 1.0 - pmf50).abs() < 1e-10);
    }

    #[test]
    fn edge_probabilities() {
        assert_eq!(binomial_tail_ge(5, 3, 0.0), 0.0);
        assert_eq!(binomial_tail_ge(5, 3, 1.0), 1.0);
        assert_eq!(binomial_ln_pmf(5, 0, 0.0), 0.0);
        assert_eq!(binomial_ln_pmf(5, 5, 1.0), 0.0);
    }

    #[test]
    fn deep_tail_is_tiny_not_zero() {
        // P[X >= 50] for Binomial(50, 0.5) = 2^-50.
        let p = binomial_tail_ge(50, 50, 0.5);
        let expected = 0.5f64.powi(50);
        assert!(
            (p / expected - 1.0).abs() < 1e-6,
            "p={p}, expected={expected}"
        );
    }

    #[test]
    fn test_consistency_logic() {
        let ok = BinomialTest::run(2, 1000, 0.01);
        assert!(ok.consistent_at(0.05));
        let bad = BinomialTest::run(50, 1000, 0.01);
        assert!(!bad.consistent_at(0.05));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        BinomialTest::run(0, 0, 0.5);
    }
}
