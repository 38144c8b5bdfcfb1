//! The common interface every population-level learning process in
//! this workspace implements.

use rand::rngs::SmallRng;

/// A discrete-time stochastic process over a probability distribution
/// on `m` options.
///
/// Implementors include the finite-population dynamics (both the
/// collective-statistic and per-agent forms), the infinite-population
/// dynamics / stochastic MWU, the network-restricted variant, and all
/// baseline algorithms — which is what lets the experiment harness
/// measure regret for any of them through one code path.
///
/// The contract mirrors the paper's timing: `distribution()` exposes
/// the option shares *after* the most recent step (the paper's `Q^t`),
/// and a subsequent `step(R^{t+1})` consumes the fresh signal vector.
///
/// `step` takes the workspace's one generator, [`SmallRng`], by its
/// concrete type rather than as a generator trait object: every draw a
/// step makes then inlines into it, instead of costing an indirect
/// call per word, and the trait stays object safe
/// (`Box<dyn GroupDynamics>` runs as it is).
pub trait GroupDynamics {
    /// Number of options `m`.
    fn num_options(&self) -> usize;

    /// Writes the current option distribution into `out`.
    ///
    /// The entries are non-negative and sum to 1 (implementations must
    /// normalize; the finite dynamics normalizes over *committed*
    /// individuals, per the paper's definition of `Q_j`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `out.len() != self.num_options()`.
    fn write_distribution(&self, out: &mut [f64]);

    /// Advances one time step given the fresh reward signals.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `rewards.len() != self.num_options()`.
    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng);

    /// Convenience: the current distribution as a fresh vector.
    fn distribution(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_options()];
        self.write_distribution(&mut out);
        out
    }

    /// A short human-readable name for reports and legends.
    fn label(&self) -> &str {
        "dynamics"
    }
}

/// Forwards to `D`: a caller can lend a population to a driver that
/// takes its dynamics by value (such as `sociolearn_sim::run_one`) and
/// read the population's own state afterwards.
impl<D: GroupDynamics + ?Sized> GroupDynamics for &mut D {
    fn num_options(&self) -> usize {
        (**self).num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        (**self).write_distribution(out)
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        (**self).step(rewards, rng)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// Forwards to `D`, so a boxed trait object runs as it is.
impl<D: GroupDynamics + ?Sized> GroupDynamics for Box<D> {
    fn num_options(&self) -> usize {
        (**self).num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        (**self).write_distribution(out)
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        (**self).step(rewards, rng)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// Writes the popularity distribution of per-option `counts` into
/// `out`: each option's share of the committed total, or the uniform
/// distribution when nothing is committed (the distribution the next
/// sampling stage uses then).
///
/// # Panics
///
/// Panics if `out.len() != counts.len()`.
pub fn write_shares(counts: &[u64], out: &mut [f64]) {
    assert_eq!(
        out.len(),
        counts.len(),
        "buffer length must equal the number of options"
    );
    let total: u64 = counts.iter().sum();
    if total == 0 {
        out.fill(1.0 / counts.len() as f64);
        return;
    }
    for (slot, &c) in out.iter_mut().zip(counts) {
        *slot = c as f64 / total as f64;
    }
}

/// Asserts the basic distribution invariants (non-negative, sums to 1
/// within `tol`). Used by tests and debug assertions across the
/// workspace.
///
/// # Panics
///
/// Panics with a descriptive message if an invariant fails.
pub fn assert_distribution(dist: &[f64], tol: f64) {
    assert!(!dist.is_empty(), "empty distribution");
    let mut total = 0.0;
    for (i, &p) in dist.iter().enumerate() {
        assert!(p >= -tol, "negative probability at {i}: {p}");
        assert!(p.is_finite(), "non-finite probability at {i}: {p}");
        total += p;
    }
    assert!(
        (total - 1.0).abs() <= tol * dist.len() as f64 + tol,
        "distribution sums to {total}, not 1"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Fixed(Vec<f64>);
    impl GroupDynamics for Fixed {
        fn num_options(&self) -> usize {
            self.0.len()
        }
        fn write_distribution(&self, out: &mut [f64]) {
            out.copy_from_slice(&self.0);
        }
        fn step(&mut self, _rewards: &[bool], _rng: &mut SmallRng) {}
    }

    #[test]
    fn default_distribution_allocates() {
        let d = Fixed(vec![0.25; 4]);
        assert_eq!(d.distribution(), vec![0.25; 4]);
        assert_eq!(d.label(), "dynamics");
    }

    #[test]
    fn shares_divide_counts_and_fall_back_to_uniform() {
        let mut out = [0.0; 3];
        write_shares(&[1, 0, 3], &mut out);
        assert_eq!(out, [0.25, 0.0, 0.75]);
        write_shares(&[0, 0, 0], &mut out);
        assert_eq!(out, [1.0 / 3.0; 3]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn shares_reject_a_short_buffer() {
        write_shares(&[1, 2, 3], &mut [0.0; 2]);
    }

    #[test]
    fn trait_object_safe() {
        let mut d: Box<dyn GroupDynamics> = Box::new(Fixed(vec![0.5, 0.5]));
        let mut rng = SmallRng::seed_from_u64(1);
        d.step(&[true, false], &mut rng);
        assert_eq!(d.num_options(), 2);
    }

    /// Counts its steps; its distribution moves with the count so a
    /// forwarded `step` shows in the forwarded `write_distribution`.
    struct Counter(u32);
    impl GroupDynamics for Counter {
        fn num_options(&self) -> usize {
            3
        }
        fn write_distribution(&self, out: &mut [f64]) {
            let moved = f64::from(self.0.min(2)) * 0.25;
            out.copy_from_slice(&[0.5 - moved, 0.25, 0.25 + moved]);
        }
        fn step(&mut self, _rewards: &[bool], _rng: &mut SmallRng) {
            self.0 += 1;
        }
        fn label(&self) -> &str {
            "counter"
        }
    }

    fn check_forwarding(d: &mut impl GroupDynamics) {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(d.num_options(), 3);
        assert_eq!(d.label(), "counter");
        assert_eq!(d.distribution(), vec![0.5, 0.25, 0.25]);
        d.step(&[true, false, false], &mut rng);
        let mut out = [0.0; 3];
        d.write_distribution(&mut out);
        assert_eq!(out, [0.25, 0.25, 0.5]);
    }

    #[test]
    fn mut_ref_forwards_everything() {
        let mut c = Counter(0);
        check_forwarding(&mut &mut c);
        // The step landed on the lent population itself.
        assert_eq!(c.0, 1);
    }

    #[test]
    fn boxed_trait_object_forwards_everything() {
        let mut d: Box<dyn GroupDynamics> = Box::new(Counter(0));
        check_forwarding(&mut d);
    }

    #[test]
    fn invariant_checker_accepts_valid() {
        assert_distribution(&[0.3, 0.7], 1e-12);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn invariant_checker_rejects_unnormalized() {
        assert_distribution(&[0.3, 0.3], 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn invariant_checker_rejects_negative() {
        assert_distribution(&[-0.1, 1.1], 1e-12);
    }
}
