//! Ordinary least squares fits, including log–log scaling-law fits.

use crate::OnlineCov;

/// Result of a simple linear regression `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl std::fmt::Display for LinearFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "y = {:.4}·x + {:.4} (R² = {:.4}, n = {})",
            self.slope, self.intercept, self.r_squared, self.n
        )
    }
}

/// Ordinary least squares fit of `y` on `x`.
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two points.
fn ols_fit(x: &[f64], y: &[f64]) -> LinearFit {
    assert_eq!(x.len(), y.len(), "ols_fit: mismatched lengths");
    assert!(x.len() >= 2, "ols_fit: need at least two points");
    let mut acc = OnlineCov::new();
    for (&xi, &yi) in x.iter().zip(y) {
        acc.push(xi, yi);
    }
    let r = acc.correlation();
    LinearFit {
        slope: acc.slope(),
        intercept: acc.intercept(),
        r_squared: r * r,
        n: x.len(),
    }
}

/// Fits a power law `y ≈ c·x^p` by OLS on `ln y` vs `ln x`, returning
/// the fit in log space (so `slope` is the exponent `p` and
/// `intercept` is `ln c`).
///
/// Points with non-positive `x` or `y` are skipped (they have no
/// logarithm); the fit `n` reports how many points were actually used.
///
/// # Panics
///
/// Panics if fewer than two usable points remain.
///
/// ```
/// // y = 3 x^{-0.5}
/// let x: Vec<f64> = (1..50).map(|i| i as f64).collect();
/// let y: Vec<f64> = x.iter().map(|v| 3.0 * v.powf(-0.5)).collect();
/// let fit = sociolearn_stats::loglog_fit(&x, &y);
/// assert!((fit.slope + 0.5).abs() < 1e-9);
/// assert!((fit.intercept.exp() - 3.0).abs() < 1e-9);
/// ```
pub fn loglog_fit(x: &[f64], y: &[f64]) -> LinearFit {
    assert_eq!(x.len(), y.len(), "loglog_fit: mismatched lengths");
    let mut lx = Vec::with_capacity(x.len());
    let mut ly = Vec::with_capacity(y.len());
    for (&xi, &yi) in x.iter().zip(y) {
        if xi > 0.0 && yi > 0.0 {
            lx.push(xi.ln());
            ly.push(yi.ln());
        }
    }
    assert!(
        lx.len() >= 2,
        "loglog_fit: need at least two positive points, had {}",
        lx.len()
    );
    ols_fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn ols_residuals_orthogonal_to_x(
            pts in proptest::collection::vec((-100f64..100.0, -100f64..100.0), 3..60),
        ) {
            let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
            // Degenerate x (all equal) has slope 0 by convention; skip.
            let x0 = xs[0];
            prop_assume!(xs.iter().any(|&x| (x - x0).abs() > 1e-6));
            let fit = ols_fit(&xs, &ys);
            // Normal equations: sum of residuals and x-weighted residuals ~ 0.
            let r_sum: f64 = xs.iter().zip(&ys).map(|(&x, &y)| y - (fit.slope * x + fit.intercept)).sum();
            let rx_sum: f64 = xs.iter().zip(&ys).map(|(&x, &y)| x * (y - (fit.slope * x + fit.intercept))).sum();
            let scale: f64 = ys.iter().map(|y| y.abs()).sum::<f64>().max(1.0);
            prop_assert!(r_sum.abs() / scale < 1e-6, "residual sum {}", r_sum);
            prop_assert!(rx_sum.abs() / (scale * 100.0) < 1e-4, "x-weighted residual sum {}", rx_sum);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&fit.r_squared));
        }
    }

    #[test]
    fn perfect_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -3.0 * v + 7.0).collect();
        let fit = ols_fit(&x, &y);
        assert!((fit.slope + 3.0).abs() < 1e-12);
        assert!((fit.intercept - 7.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_reasonable_r2() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| 2.0 * v + 1.0 + ((v * 12.9898).sin() * 43_758.545).fract() - 0.5)
            .collect();
        let fit = ols_fit(&x, &y);
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn flat_data_zero_slope() {
        let x = [1.0, 2.0, 3.0];
        let y = [5.0, 5.0, 5.0];
        let fit = ols_fit(&x, &y);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
    }

    #[test]
    fn loglog_skips_nonpositive() {
        let x = [0.0, 1.0, 2.0, 4.0, 8.0];
        let y = [9.0, 1.0, 2.0, 4.0, 8.0];
        let fit = loglog_fit(&x, &y);
        assert_eq!(fit.n, 4); // the x=0 point was skipped
        assert!((fit.slope - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loglog_recovers_quadratic_exponent() {
        let x: Vec<f64> = (1..30).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.5 * v * v).collect();
        let fit = loglog_fit(&x, &y);
        assert!((fit.slope - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_few_points_panics() {
        ols_fit(&[1.0], &[2.0]);
    }

    #[test]
    fn display_contains_slope() {
        let fit = ols_fit(&[0.0, 1.0], &[0.0, 2.0]);
        assert!(format!("{fit}").contains("2.0000"));
    }
}
