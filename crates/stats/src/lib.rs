//! Statistics substrate for the `sociolearn` workspace.
//!
//! The Rust numerics ecosystem is thin compared to SciPy/R, and the
//! reproduction suite needs a specific, small set of tools: online
//! moments, confidence intervals, bootstrap resampling, least-squares
//! fits for scaling laws, Kolmogorov–Smirnov tests for distributional
//! equivalence, and exact binomial tail tests for rare-event claims.
//! This crate implements exactly that set, self-contained and
//! dependency-light, so every experiment in the repo can quantify
//! "measured vs. bound" with error bars.
//!
//! # Example
//!
//! ```
//! use sociolearn_stats::{OnlineStats, Summary};
//!
//! let mut acc = OnlineStats::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     acc.push(x);
//! }
//! assert_eq!(acc.mean(), 2.5);
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.median(), 2.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binomial;
mod bootstrap;
mod histogram;
mod ks;
mod online;
mod regression;
mod summary;

pub use binomial::{binomial_ln_pmf, binomial_tail_ge, binomial_tail_le, BinomialTest};
pub use bootstrap::{bootstrap_ci, bootstrap_ci_of, BootstrapCi};
pub use histogram::Histogram;
pub use ks::{ks_distance_to_cdf, ks_two_sample, KsResult};
pub use online::{OnlineCov, OnlineStats};
pub use regression::{loglog_fit, LinearFit};
pub use summary::{mean, ConfidenceInterval, Summary};

/// Standard normal cumulative distribution function.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation of `erf`
/// (absolute error below `1.5e-7`), which is far more accuracy than any
/// confidence interval in this workspace needs.
///
/// ```
/// let p = sociolearn_stats::normal_cdf(0.0);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz–Stegun 7.1.26).
///
/// ```
/// assert!(sociolearn_stats::erf(0.0).abs() < 1e-12);
/// assert!((sociolearn_stats::erf(10.0) - 1.0).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        // The rational approximation has ~1e-9 residual at the origin;
        // pin the exact value so erf stays exactly odd there.
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Inverse of the standard normal CDF (quantile function).
///
/// Acklam's rational approximation; relative error below `1.15e-9` over
/// the open interval.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// ```
/// let z = sociolearn_stats::normal_quantile(0.975);
/// assert!((z - 1.959964).abs() < 1e-4);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );
    // Coefficients for Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~15 significant digits for positive arguments; used by
/// the exact binomial tail computations.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// ```
/// let v = sociolearn_stats::ln_choose(10, 3);
/// assert!((v - 120f64.ln()).abs() < 1e-10);
/// ```
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_symmetry() {
        for x in [-3.0, -1.5, -0.2, 0.0, 0.7, 2.4] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
        assert!((normal_cdf(-2.326_348) - 0.01).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!(
                (normal_cdf(z) - p).abs() < 1e-6,
                "round trip failed at p={p}: z={z}, cdf={}",
                normal_cdf(z)
            );
        }
    }

    #[test]
    #[should_panic(expected = "normal_quantile")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn ln_gamma_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            fact *= n as f64;
            assert!(
                (ln_gamma(n as f64 + 1.0) - fact.ln()).abs() < 1e-8,
                "ln_gamma off at {n}"
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_choose_rows() {
        // Row 6 of Pascal's triangle: 1 6 15 20 15 6 1
        let row: [f64; 7] = [1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0];
        for (k, &v) in row.iter().enumerate() {
            assert!((ln_choose(6, k as u64) - v.ln()).abs() < 1e-10);
        }
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn erf_monotone() {
        let mut prev = -1.0;
        let mut x = -4.0;
        while x <= 4.0 {
            let v = erf(x);
            assert!(v >= prev - 1e-12);
            prev = v;
            x += 0.01;
        }
    }
}
