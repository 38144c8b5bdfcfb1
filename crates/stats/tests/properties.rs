//! Property-based tests of the statistics substrate.

use proptest::prelude::*;
use sociolearn_stats::{
    binomial_ln_pmf, binomial_tail_ge, binomial_tail_le, ks_two_sample, ln_choose, loglog_fit,
    normal_cdf, normal_quantile, Histogram, OnlineCov, OnlineStats, Summary,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn online_stats_matches_two_pass(data in proptest::collection::vec(-1e9f64..1e9, 2..200)) {
        let online: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        let scale = mean.abs().max(1.0);
        prop_assert!((online.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((online.sample_variance() - var).abs() / var.max(1.0) < 1e-6);
        prop_assert_eq!(online.count(), data.len() as u64);
    }

    #[test]
    fn covariance_is_symmetric_and_scale_consistent(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100),
    ) {
        let mut xy = OnlineCov::new();
        let mut yx = OnlineCov::new();
        for &(x, y) in &pairs {
            xy.push(x, y);
            yx.push(y, x);
        }
        prop_assert!((xy.correlation() - yx.correlation()).abs() < 1e-9);
        prop_assert!(xy.correlation().abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn summary_bounds_mean(data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::from_slice(&data);
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.median() >= s.min() && s.median() <= s.max());
        let ci = s.ci(0.95);
        prop_assert!(ci.lo <= ci.hi);
    }

    #[test]
    fn normal_cdf_quantile_roundtrip(p in 0.001f64..0.999) {
        let z = normal_quantile(p);
        prop_assert!((normal_cdf(z) - p).abs() < 1e-5);
    }

    #[test]
    fn binomial_tails_complement(n in 1u64..200, k in 0u64..200, p in 0.0f64..=1.0) {
        let k = k.min(n);
        let ge = binomial_tail_ge(n, k, p);
        prop_assert!((0.0..=1.0).contains(&ge));
        if k > 0 {
            let le = binomial_tail_le(n, k - 1, p);
            prop_assert!((ge + le - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn binomial_pmf_normalized(n in 1u64..80, p in 0.01f64..0.99) {
        let total: f64 = (0..=n).map(|k| binomial_ln_pmf(n, k, p).exp()).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
    }

    #[test]
    fn ln_choose_pascal(n in 1u64..60, k in 1u64..60) {
        prop_assume!(k <= n);
        // C(n, k) = C(n-1, k-1) + C(n-1, k)
        let lhs = ln_choose(n, k).exp();
        let rhs = ln_choose(n - 1, k - 1).exp() + if k < n { ln_choose(n - 1, k).exp() } else { 0.0 };
        prop_assert!((lhs - rhs).abs() / lhs.max(1.0) < 1e-9);
    }

    #[test]
    fn ols_residuals_orthogonal_to_x(
        pts in proptest::collection::vec((0.01f64..100.0, 0.01f64..100.0), 3..60),
    ) {
        // `loglog_fit` is the OLS fit of ln y on ln x, so the normal
        // equations hold for the log points it fits.
        let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
        // Degenerate x (all equal) has slope 0 by convention; skip.
        let x0 = xs[0];
        prop_assume!(xs.iter().any(|&x| (x - x0).abs() > 1e-6));
        let (raw_x, raw_y): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
        let fit = loglog_fit(&raw_x, &raw_y);
        prop_assert_eq!(fit.n, pts.len());
        // Normal equations: sum of residuals and x-weighted residuals ~ 0.
        let r_sum: f64 = xs.iter().zip(&ys).map(|(&x, &y)| y - (fit.slope * x + fit.intercept)).sum();
        let rx_sum: f64 = xs.iter().zip(&ys).map(|(&x, &y)| x * (y - (fit.slope * x + fit.intercept))).sum();
        let scale: f64 = ys.iter().map(|y| y.abs()).sum::<f64>().max(1.0);
        // |ln x| <= ln 100 < 5 bounds the weights, as 100 did for raw x.
        prop_assert!(r_sum.abs() / scale < 1e-6, "residual sum {}", r_sum);
        prop_assert!(rx_sum.abs() / (scale * 5.0) < 1e-4, "x-weighted residual sum {}", rx_sum);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&fit.r_squared));
    }

    #[test]
    fn ks_p_value_in_unit_interval(
        a in proptest::collection::vec(-10f64..10.0, 1..200),
        b in proptest::collection::vec(-10f64..10.0, 1..200),
        shift in 0f64..25.0,
    ) {
        // Shifting b moves the statistic from near 0 to 1, so the
        // asymptotic p-value is evaluated over λ from 0 to about 10.
        let b: Vec<f64> = b.iter().map(|x| x + shift).collect();
        let r = ks_two_sample(&a, &b);
        prop_assert!((0.0..=1.0).contains(&r.p_value), "p = {}", r.p_value);
    }

    #[test]
    fn histogram_counts_everything(data in proptest::collection::vec(-1e3f64..1e3, 1..200), bins in 1usize..30) {
        let h = Histogram::auto(&data, bins);
        prop_assert_eq!(h.total(), data.len() as u64);
    }
}
