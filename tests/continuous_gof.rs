//! Goodness-of-fit of the continuous samplers against exact CDFs.
//!
//! `StandardNormal` is the 256-layer ziggurat and `Beta` is two
//! Marsaglia–Tsang gammas over it, with their constants computed once
//! per shape. Both are claimed exact, not approximate; these
//! Kolmogorov–Smirnov tests at significance 1e-3 are the referee. The
//! normal's tail is checked by counting draws beyond the ziggurat's
//! base-layer edge `R` (the tail-rejection path) and beyond 3σ. The
//! `Beta` grid covers the integer shapes the Thompson-sampling baseline
//! draws, a very concentrated posterior, the `shape < 1` boost, and the
//! U-shaped arcsine law.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rand_distr::{Beta, Distribution, StandardNormal};
use sociolearn::stats::{binomial_ln_pmf, ks_distance_to_cdf, normal_cdf};

/// KS significance level.
const ALPHA: f64 = 1e-3;
/// Draws per KS test.
const DRAWS: usize = 50_000;
/// The ziggurat's base-layer edge: draws beyond it come from the tail
/// sampler.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// Draws `DRAWS` values and asserts the KS test against `cdf` passes.
fn assert_ks<D: Distribution<f64>>(label: &str, dist: &D, cdf: impl Fn(f64) -> f64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..DRAWS).map(|_| dist.sample(&mut rng)).collect();
    let r = ks_distance_to_cdf(&xs, cdf);
    assert!(
        r.p_value > ALPHA,
        "{label}: KS distance {:.5} over {DRAWS} draws, p = {:.2e}",
        r.statistic,
        r.p_value
    );
}

/// The regularized incomplete beta `I_x(a, b)` at integer shapes, by
/// `I_x(a, b) = P[Binomial(a + b - 1, x) ≥ a]`: the exact pmf at `a`,
/// then the ratio recurrence `f(k+1) = f(k)·(n-k)/(k+1)·x/(1-x)` up to
/// `n`, at most `b` terms.
fn beta_cdf_integer(a: u64, b: u64, x: f64) -> f64 {
    let n = a + b - 1;
    if x <= 0.0 || x >= 1.0 {
        return x.clamp(0.0, 1.0);
    }
    let odds = x / (1.0 - x);
    let mut term = binomial_ln_pmf(n, a, x).exp();
    let mut sum = term;
    for k in a..n {
        term *= (n - k) as f64 / (k + 1) as f64 * odds;
        sum += term;
    }
    sum.min(1.0)
}

#[test]
fn standard_normal_matches_normal_cdf() {
    assert_ks("N(0,1)", &StandardNormal, normal_cdf, 0xC10);
}

#[test]
fn standard_normal_tail_frequencies() {
    // P(|X| > R) ≈ 2.6e-4: about 520 of 2M draws, enough to see the
    // tail sampler miss its mass by ~15%.
    let draws = 2_000_000u64;
    let mut rng = SmallRng::seed_from_u64(0xC11);
    let (mut beyond_r, mut beyond_3) = (0u64, 0u64);
    for _ in 0..draws {
        let x: f64 = StandardNormal.sample(&mut rng);
        beyond_r += u64::from(x.abs() > ZIGGURAT_R);
        beyond_3 += u64::from(x.abs() > 3.0);
    }
    for (label, count, cut) in [("R", beyond_r, ZIGGURAT_R), ("3", beyond_3, 3.0)] {
        let p = 2.0 * (1.0 - normal_cdf(cut));
        let expected = p * draws as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (count as f64 - expected).abs() < 5.0 * sd,
            "|x| > {label}: {count} draws, expected {expected:.1} ± {sd:.1}"
        );
    }
}

#[test]
fn beta_integer_shapes_match_incomplete_beta() {
    for (i, &(a, b)) in [(1u64, 1u64), (2, 5), (3, 20), (900, 100)]
        .iter()
        .enumerate()
    {
        let beta = Beta::new(a as f64, b as f64).unwrap();
        assert_ks(
            &format!("Beta({a},{b})"),
            &beta,
            |x| beta_cdf_integer(a, b, x),
            0xC20 + i as u64,
        );
    }
}

#[test]
fn beta_small_shape_boost() {
    // Beta(0.3, 1) has CDF x^0.3; its alpha gamma takes the shape < 1
    // boost.
    let beta = Beta::new(0.3, 1.0).unwrap();
    assert_ks("Beta(0.3,1)", &beta, |x| x.clamp(0.0, 1.0).powf(0.3), 0xC30);
}

#[test]
fn beta_arcsine() {
    // Beta(1/2, 1/2) is the arcsine law: CDF (2/π)·asin(√x). Both
    // gammas are boosted.
    let beta = Beta::new(0.5, 0.5).unwrap();
    assert_ks(
        "Beta(0.5,0.5)",
        &beta,
        |x| std::f64::consts::FRAC_2_PI * x.clamp(0.0, 1.0).sqrt().asin(),
        0xC31,
    );
}
