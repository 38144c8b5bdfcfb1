//! Kolmogorov–Smirnov distributional tests.
//!
//! Used by the reproduction suite to check distributional equivalences:
//! the agent-level vs. collective-statistic forms of the finite
//! dynamics, the Ellison–Fudenberg continuous-reward reduction, and the
//! message-passing runtime vs. the in-memory dynamics.

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic: the supremum distance between the two CDFs.
    pub statistic: f64,
    /// Asymptotic p-value for the null "same distribution".
    pub p_value: f64,
    /// Effective sample size used in the asymptotic formula.
    pub effective_n: f64,
}

impl KsResult {
    /// Whether the null hypothesis (same distribution) survives at
    /// significance level `alpha`.
    pub fn accepts_at(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Asymptotic Kolmogorov survival function
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² λ²)`.
fn ks_p_value(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if lambda < 1.18 {
        // The alternating series converges too slowly here; use the
        // dual (Jacobi theta) representation of the Kolmogorov CDF.
        let pi = std::f64::consts::PI;
        let mut cdf = 0.0;
        for j in 1..=20u32 {
            let k = (2 * j - 1) as f64;
            let term = (-(k * k) * pi * pi / (8.0 * lambda * lambda)).exp();
            cdf += term;
            if term < 1e-16 {
                break;
            }
        }
        cdf *= (2.0 * pi).sqrt() / lambda;
        return (1.0 - cdf).clamp(0.0, 1.0);
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Two-sample KS test.
///
/// # Panics
///
/// Panics if either sample is empty or contains NaN.
///
/// ```
/// let a: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
/// let b: Vec<f64> = (0..400).map(|i| i as f64 / 400.0).collect();
/// let r = sociolearn_stats::ks_two_sample(&a, &b);
/// assert!(r.statistic < 0.01);
/// assert!(r.accepts_at(0.05));
/// ```
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> KsResult {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "ks_two_sample: empty sample"
    );
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    assert!(
        sa.iter().chain(sb.iter()).all(|x| !x.is_nan()),
        "ks_two_sample: NaN in sample"
    );
    sa.sort_by(|x, y| x.partial_cmp(y).expect("NaN ruled out"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("NaN ruled out"));
    let (n, m) = (sa.len(), sb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = sa[i].min(sb[j]);
        while i < n && sa[i] <= x {
            i += 1;
        }
        while j < m && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / n as f64;
        let fb = j as f64 / m as f64;
        d = d.max((fa - fb).abs());
    }
    let en = (n as f64 * m as f64) / (n + m) as f64;
    let lambda = (en.sqrt() + 0.12 + 0.11 / en.sqrt()) * d;
    KsResult {
        statistic: d,
        p_value: ks_p_value(lambda),
        effective_n: en,
    }
}

/// One-sample KS distance of a sample against a theoretical CDF.
///
/// Returns the statistic plus the asymptotic p-value.
///
/// # Panics
///
/// Panics if the sample is empty or contains NaN.
///
/// ```
/// // Uniform grid against the uniform CDF.
/// let xs: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
/// let r = sociolearn_stats::ks_distance_to_cdf(&xs, |x| x.clamp(0.0, 1.0));
/// assert!(r.statistic < 0.002);
/// ```
pub fn ks_distance_to_cdf<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> KsResult {
    assert!(!sample.is_empty(), "ks_distance_to_cdf: empty sample");
    let mut s = sample.to_vec();
    assert!(
        s.iter().all(|x| !x.is_nan()),
        "ks_distance_to_cdf: NaN in sample"
    );
    s.sort_by(|x, y| x.partial_cmp(y).expect("NaN ruled out"));
    let n = s.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in s.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    KsResult {
        statistic: d,
        p_value: ks_p_value(lambda),
        effective_n: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_samples_zero_distance() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = ks_two_sample(&a, &a);
        assert_eq!(r.statistic, 0.0);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn disjoint_samples_distance_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        let r = ks_two_sample(&a, &b);
        assert!((r.statistic - 1.0).abs() < 1e-12);
        assert!(!r.accepts_at(0.05));
    }

    #[test]
    fn same_distribution_usually_accepted() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a: Vec<f64> = (0..800).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..800).map(|_| rng.gen::<f64>()).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.accepts_at(0.001), "false rejection: {r:?}");
    }

    #[test]
    fn shifted_distribution_rejected() {
        let mut rng = SmallRng::seed_from_u64(12);
        let a: Vec<f64> = (0..800).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..800).map(|_| rng.gen::<f64>() + 0.3).collect();
        let r = ks_two_sample(&a, &b);
        assert!(!r.accepts_at(0.01), "failed to reject shift: {r:?}");
    }

    #[test]
    fn one_sample_detects_wrong_cdf() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 500.0).collect();
        // Test uniform data against a quadratic CDF: should reject.
        let r = ks_distance_to_cdf(&xs, |x| (x * x).clamp(0.0, 1.0));
        assert!(r.statistic > 0.2);
        assert!(!r.accepts_at(0.05));
    }

    #[test]
    fn p_value_monotone_decreasing() {
        let mut prev = 1.0;
        let mut lam = 0.0;
        while lam < 10.0 {
            let p = ks_p_value(lam);
            assert!((0.0..=1.0).contains(&p), "Q({lam}) = {p}");
            assert!(p <= prev + 1e-12);
            prev = p;
            lam += 0.05;
        }
    }

    #[test]
    fn known_critical_value() {
        // Kolmogorov: Q(1.36) ≈ 0.049 (the classic 5% critical value).
        let p = ks_p_value(1.36);
        assert!((p - 0.049).abs() < 0.002, "p={p}");
    }
}
