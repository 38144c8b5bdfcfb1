//! Quickstart: run the distributed learning dynamics on the paper's
//! base setting and watch the group converge on the best option.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use rand::SeedableRng;
use sociolearn::core::{
    BernoulliRewards, FinitePopulation, GroupDynamics, Params, RegretTracker, RewardModel,
};
use sociolearn::plot::AsciiChart;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A group of 10,000 individuals facing 5 options. Option 0 is good
    // 90% of the time; the rest are coin flips (the "one good option"
    // environment the paper's investor example uses).
    let m = 5;
    let params = Params::new(m, 0.6)?;
    let mut env = BernoulliRewards::one_good(m, 0.9)?;
    let mut group = FinitePopulation::new(params, 10_000);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2017);

    println!("parameters: {params}");
    println!(
        "delta = {:.4}; theorem horizon T* = {}; finite-population bound 6 delta = {:.3}",
        params.delta(),
        params.min_horizon(),
        params.regret_bound_finite()
    );

    let horizon = 4 * params.min_horizon();
    let mut tracker = RegretTracker::new(0.9, 0);
    let mut rewards = vec![false; m];
    let mut share_trajectory = Vec::new();

    for t in 1..=horizon {
        let before = group.distribution();
        env.sample(t, &mut rng, &mut rewards);
        group.step(&rewards, &mut rng);
        tracker.record(&before, &rewards, env.qualities());
        share_trajectory.push(group.distribution()[0]);
    }

    println!(
        "\nafter T = {horizon} steps: average regret = {:.4} (bound {:.3}), \
         average share on best option = {:.3}",
        tracker.average_regret(),
        params.regret_bound_finite(),
        tracker.average_best_share()
    );
    println!("\nshare of the best option over time:");
    print!(
        "{}",
        AsciiChart::new(70, 12)
            .with_y_range(0.0, 1.0)
            .with_caption("Q_best(t)")
            .render(&share_trajectory)
    );

    // No individual remembered anything beyond its current choice —
    // yet the group implements a stochastic multiplicative-weights
    // update and finds the best option.
    Ok(())
}
