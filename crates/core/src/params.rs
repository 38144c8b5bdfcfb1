//! Model parameters and the quantitative bounds the paper attaches to
//! them.

use crate::error::{ParamsError, RegimeViolation};

/// The largest `beta` inside the theorem regime, `e/(e+1)`.
pub const BETA_MAX: f64 = std::f64::consts::E / (std::f64::consts::E + 1.0);

/// Parameters of the distributed learning dynamics (Section 2.1 of the
/// paper).
///
/// * `m` — number of options,
/// * `beta` — probability of adopting a considered option whose fresh
///   quality signal was *good*,
/// * `alpha` — probability of adopting on a *bad* signal
///   (`alpha <= beta`; the theorems take `alpha = 1 - beta`),
/// * `mu` — probability an individual samples an option uniformly at
///   random instead of copying a random group member.
///
/// # Example
///
/// ```
/// use sociolearn_core::Params;
///
/// let p = Params::new(10, 0.6)?;       // alpha = 1 - beta, mu = delta^2/6
/// assert_eq!(p.num_options(), 10);
/// assert!(p.in_theorem_regime().is_ok());
/// assert!((p.delta() - (0.6f64 / 0.4).ln()).abs() < 1e-12);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    m: usize,
    beta: f64,
    alpha: f64,
    mu: f64,
}

impl Params {
    /// Creates parameters in the paper's canonical regime:
    /// `alpha = 1 - beta` and `mu = min(delta²/6, 1)` (the largest
    /// exploration rate admitted by the theorems).
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or `beta` is not in `[1/2, 1]`
    /// (use [`Params::with_all`] for exotic regimes).
    pub fn new(m: usize, beta: f64) -> Result<Self, ParamsError> {
        if !(0.5..=1.0).contains(&beta) {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "beta",
                value: beta,
            });
        }
        let delta = if beta < 1.0 {
            (beta / (1.0 - beta)).ln()
        } else {
            f64::INFINITY
        };
        let mu = (delta * delta / 6.0).min(1.0);
        Params::with_all(m, beta, 1.0 - beta, mu)
    }

    /// Creates fully explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0`, any probability is outside
    /// `[0, 1]`, or `alpha > beta`.
    pub fn with_all(m: usize, beta: f64, alpha: f64, mu: f64) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        for (name, value) in [("beta", beta), ("alpha", alpha), ("mu", mu)] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ParamsError::ProbabilityOutOfRange { name, value });
            }
        }
        if alpha > beta {
            return Err(ParamsError::AlphaAboveBeta { alpha, beta });
        }
        Ok(Params { m, beta, alpha, mu })
    }

    /// Number of options `m`.
    pub fn num_options(&self) -> usize {
        self.m
    }

    /// Adoption probability on a good signal.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Adoption probability on a bad signal.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Uniform-exploration probability.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Adoption probability given a reward bit.
    pub fn adopt_probability(&self, good: bool) -> f64 {
        if good {
            self.beta
        } else {
            self.alpha
        }
    }

    /// The paper's `delta = ln(beta / (1 - beta))`; `+inf` at `beta = 1`
    /// and negative below `beta = 1/2`.
    pub fn delta(&self) -> f64 {
        if self.beta >= 1.0 {
            f64::INFINITY
        } else {
            (self.beta / (1.0 - self.beta)).ln()
        }
    }

    /// Checks the hypothesis set of Theorems 4.3/4.4 and reports the
    /// first violation, if any.
    ///
    /// # Errors
    ///
    /// Returns the violated assumption as a [`RegimeViolation`].
    pub fn in_theorem_regime(&self) -> Result<(), RegimeViolation> {
        if self.beta <= 0.5 {
            return Err(RegimeViolation::BetaTooSmall { beta: self.beta });
        }
        if self.beta > BETA_MAX + 1e-12 {
            return Err(RegimeViolation::BetaTooLarge { beta: self.beta });
        }
        if (self.alpha - (1.0 - self.beta)).abs() > 1e-9 {
            return Err(RegimeViolation::AlphaNotSymmetric {
                alpha: self.alpha,
                beta: self.beta,
            });
        }
        if self.mu == 0.0 {
            return Err(RegimeViolation::MuZero);
        }
        let d = self.delta();
        if 6.0 * self.mu > d * d + 1e-12 {
            return Err(RegimeViolation::MuTooLarge {
                mu: self.mu,
                max_mu: d * d / 6.0,
            });
        }
        Ok(())
    }

    /// Theorem 4.3's regret bound for the infinite-population dynamics:
    /// `3·delta`.
    pub fn regret_bound_infinite(&self) -> f64 {
        3.0 * self.delta()
    }

    /// Theorem 4.4's regret bound for the finite-population dynamics:
    /// `6·delta`.
    pub fn regret_bound_finite(&self) -> f64 {
        6.0 * self.delta()
    }

    /// Smallest horizon for which Theorem 4.3's bound applies,
    /// `ceil(ln m / delta²)` (at least 1).
    pub fn min_horizon(&self) -> u64 {
        self.min_horizon_from_floor(1.0 / self.m as f64)
    }

    /// Theorem 4.6 horizon for a start distribution with floor `zeta`:
    /// `ceil(ln(1/zeta) / delta²)` (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `zeta` is not in `(0, 1]`.
    pub fn min_horizon_from_floor(&self, zeta: f64) -> u64 {
        assert!(
            zeta > 0.0 && zeta <= 1.0,
            "floor zeta must be in (0,1], got {zeta}"
        );
        let d = self.delta();
        if !d.is_finite() || d <= 0.0 {
            return 1;
        }
        (((1.0 / zeta).ln() / (d * d)).ceil() as u64).max(1)
    }

    /// The popularity floor `zeta = mu (1 - beta) / (4 m)` from the
    /// proof of Theorem 4.4; every option retains at least this
    /// popularity w.h.p. at every step.
    pub fn popularity_floor(&self) -> f64 {
        self.mu * (1.0 - self.beta) / (4.0 * self.m as f64)
    }

    /// The epoch length used by the large-`T` argument:
    /// `ceil(ln(1/zeta) / delta²)` with `zeta` the popularity floor.
    pub fn epoch_length(&self) -> u64 {
        let zeta = self.popularity_floor();
        if zeta <= 0.0 {
            return self.min_horizon();
        }
        self.min_horizon_from_floor(zeta)
    }

    /// Lemma 4.5's per-step coupling granularity
    /// `delta'' = sqrt(60 m ln N / ((1-beta) mu N))`.
    ///
    /// Returns `+inf` when the formula is undefined (`mu = 0`,
    /// `beta = 1`, or `N < 2`).
    pub fn coupling_delta(&self, n: usize) -> f64 {
        if self.mu == 0.0 || self.beta >= 1.0 || n < 2 {
            return f64::INFINITY;
        }
        let nf = n as f64;
        (60.0 * self.m as f64 * nf.ln() / ((1.0 - self.beta) * self.mu * nf)).sqrt()
    }

    /// Lemma 4.5's deviation bound after `t` steps: `5^t · delta''(N)`.
    ///
    /// Saturates at `+inf` quickly — the lemma is only informative for
    /// `t` up to roughly `log N`.
    pub fn coupling_deviation_bound(&self, n: usize, t: u64) -> f64 {
        let d = self.coupling_delta(n);
        if !d.is_finite() {
            return f64::INFINITY;
        }
        5.0f64.powi(t.min(1000) as i32) * d
    }

    /// The `beta` minimizing the tuned regret `ln m/(delta T) + 2 delta`
    /// over the theorem range, for a given horizon `T` (Section 6's
    /// observation that an algorithm designer would optimize `beta`).
    ///
    /// Solves `delta* = sqrt(ln m / (2T))`, clamped into
    /// `(1/2, e/(e+1)]`, and converts back through
    /// `beta = e^delta/(1+e^delta)`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn tuned_beta(m: usize, t: u64) -> f64 {
        assert!(t > 0, "tuned_beta needs a positive horizon");
        let m = m.max(2);
        let delta_star = ((m as f64).ln() / (2.0 * t as f64)).sqrt();
        let delta_star = delta_star.clamp(1e-6, 1.0);
        let e = delta_star.exp();
        (e / (1.0 + e)).min(BETA_MAX)
    }
}

impl std::fmt::Display for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Params(m={}, beta={}, alpha={}, mu={})",
            self.m, self.beta, self.alpha, self.mu
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_construction() {
        let p = Params::new(5, 0.6).unwrap();
        assert_eq!(p.num_options(), 5);
        assert!((p.alpha() - 0.4).abs() < 1e-12);
        let d = p.delta();
        assert!((p.mu() - d * d / 6.0).abs() < 1e-12);
        assert!(p.in_theorem_regime().is_ok());
    }

    #[test]
    fn delta_known_value() {
        // beta = e/(e+1) gives delta = 1 exactly.
        let p = Params::new(3, BETA_MAX).unwrap();
        assert!((p.delta() - 1.0).abs() < 1e-12);
        assert!(p.in_theorem_regime().is_ok());
    }

    #[test]
    fn regime_rejections() {
        let p = Params::with_all(3, 0.4, 0.1, 0.01).unwrap();
        assert!(matches!(
            p.in_theorem_regime(),
            Err(RegimeViolation::BetaTooSmall { .. })
        ));

        let p = Params::with_all(3, 0.9, 0.1, 0.01).unwrap();
        assert!(matches!(
            p.in_theorem_regime(),
            Err(RegimeViolation::BetaTooLarge { .. })
        ));

        let p = Params::with_all(3, 0.6, 0.4, 0.5).unwrap();
        assert!(matches!(
            p.in_theorem_regime(),
            Err(RegimeViolation::MuTooLarge { .. })
        ));

        let p = Params::with_all(3, 0.6, 0.4, 0.0).unwrap();
        assert!(matches!(
            p.in_theorem_regime(),
            Err(RegimeViolation::MuZero)
        ));

        let p = Params::with_all(3, 0.6, 0.1, 0.01).unwrap();
        assert!(matches!(
            p.in_theorem_regime(),
            Err(RegimeViolation::AlphaNotSymmetric { .. })
        ));
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Params::with_all(0, 0.6, 0.4, 0.1),
            Err(ParamsError::NoOptions)
        ));
        assert!(Params::with_all(3, 1.5, 0.4, 0.1).is_err());
        assert!(Params::with_all(3, 0.6, -0.1, 0.1).is_err());
        assert!(Params::with_all(3, 0.6, 0.4, 2.0).is_err());
        assert!(matches!(
            Params::with_all(3, 0.3, 0.6, 0.1),
            Err(ParamsError::AlphaAboveBeta { .. })
        ));
        assert!(Params::new(3, 0.3).is_err());
    }

    #[test]
    fn horizon_grows_with_m_and_shrinks_with_beta() {
        let p2 = Params::new(2, 0.6).unwrap();
        let p100 = Params::new(100, 0.6).unwrap();
        assert!(p100.min_horizon() > p2.min_horizon());

        let gentle = Params::new(10, 0.55).unwrap();
        let strong = Params::new(10, 0.7).unwrap();
        assert!(gentle.min_horizon() > strong.min_horizon());
    }

    #[test]
    fn epoch_length_exceeds_min_horizon() {
        let p = Params::new(10, 0.6).unwrap();
        // Epochs start from the floor zeta < 1/m, so they are longer.
        assert!(p.epoch_length() >= p.min_horizon());
        assert!(p.popularity_floor() < 1.0 / 10.0);
        assert!(p.popularity_floor() > 0.0);
    }

    #[test]
    fn coupling_delta_shrinks_with_n() {
        let p = Params::new(5, 0.6).unwrap();
        let d3 = p.coupling_delta(1_000);
        let d6 = p.coupling_delta(1_000_000);
        assert!(d6 < d3);
        assert!(d6 > 0.0);
        // mu = 0 makes it undefined.
        let p0 = Params::with_all(5, p.beta(), p.alpha(), 0.0).unwrap();
        assert!(p0.coupling_delta(1_000).is_infinite());
    }

    #[test]
    fn coupling_bound_grows_exponentially() {
        let p = Params::new(5, 0.6).unwrap();
        let b1 = p.coupling_deviation_bound(10_000, 1);
        let b2 = p.coupling_deviation_bound(10_000, 2);
        assert!((b2 / b1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tuned_beta_decreases_with_horizon() {
        let b_short = Params::tuned_beta(10, 10);
        let b_long = Params::tuned_beta(10, 100_000);
        assert!(b_long < b_short);
        assert!(b_long > 0.5);
        assert!(b_short <= BETA_MAX);
    }

    #[test]
    fn beta_one_degenerates_gracefully() {
        let p = Params::with_all(4, 1.0, 0.0, 0.1).unwrap();
        assert!(p.delta().is_infinite());
        assert_eq!(p.min_horizon(), 1);
        assert!(p.coupling_delta(100).is_infinite());
    }

    #[test]
    fn display_mentions_all_fields() {
        let p = Params::new(7, 0.6).unwrap();
        let s = p.to_string();
        assert!(s.contains("m=7"));
        assert!(s.contains("beta=0.6"));
    }
}
