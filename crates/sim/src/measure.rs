//! Aggregation of per-replication measurements.

use sociolearn_core::RegretCurve;
use sociolearn_stats::OnlineStats;

/// A polyline of `(x, y)` points, ready for plotting.
pub type CurvePoints = Vec<(f64, f64)>;

/// A mean ± CI curve aggregated across replications.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedCurve {
    /// Shared horizons.
    pub horizons: Vec<u64>,
    /// Mean value at each horizon.
    pub means: Vec<f64>,
    /// Normal-approximation 95% half-widths.
    pub ci_half: Vec<f64>,
}

impl AggregatedCurve {
    /// `(horizon, mean)` points for plotting.
    pub fn mean_points(&self) -> CurvePoints {
        self.horizons
            .iter()
            .zip(&self.means)
            .map(|(&t, &v)| (t as f64, v))
            .collect()
    }
}

/// Aggregates replication curves that share the same horizon grid.
///
/// # Panics
///
/// Panics if the list is empty or the horizon grids differ.
pub fn aggregate_curves(curves: &[RegretCurve]) -> AggregatedCurve {
    assert!(!curves.is_empty(), "no curves to aggregate");
    let horizons = curves[0].horizons.clone();
    for c in curves {
        assert_eq!(c.horizons, horizons, "curves have mismatched horizon grids");
    }
    let mut means = Vec::with_capacity(horizons.len());
    let mut ci_half = Vec::with_capacity(horizons.len());
    for i in 0..horizons.len() {
        let mut acc = OnlineStats::new();
        for c in curves {
            acc.push(c.values[i]);
        }
        means.push(acc.mean());
        ci_half.push(if acc.count() >= 2 {
            acc.ci_half_width(0.95)
        } else {
            0.0
        });
    }
    AggregatedCurve {
        horizons,
        means,
        ci_half,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(vals: &[f64]) -> RegretCurve {
        let mut c = RegretCurve::new();
        for (i, &v) in vals.iter().enumerate() {
            c.push((i as u64 + 1) * 10, v);
        }
        c
    }

    #[test]
    fn aggregate_means() {
        let a = curve(&[1.0, 2.0]);
        let b = curve(&[3.0, 4.0]);
        let agg = aggregate_curves(&[a, b]);
        assert_eq!(agg.horizons, vec![10, 20]);
        assert_eq!(agg.means, vec![2.0, 3.0]);
        assert!(agg.ci_half[0] > 0.0);
    }

    #[test]
    fn single_curve_zero_ci() {
        let agg = aggregate_curves(&[curve(&[5.0])]);
        assert_eq!(agg.ci_half, vec![0.0]);
        assert_eq!(agg.mean_points(), vec![(10.0, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "mismatched horizon")]
    fn mismatched_grids_rejected() {
        let a = curve(&[1.0]);
        let b = curve(&[1.0, 2.0]);
        aggregate_curves(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "no curves")]
    fn empty_rejected() {
        aggregate_curves(&[]);
    }
}
