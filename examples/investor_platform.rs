//! The paper's first worked example (Section 2.1, after Krafft et al.):
//! amateur investors on a copy-trading platform. Each user either
//! copies the portfolio of a random other user or picks one at random,
//! then commits only if the latest return signal looked good
//! (`alpha = 1 - beta`, one option with quality above 1/2, the rest
//! exactly 1/2).
//!
//! We run both the well-mixed dynamics and the Hedge benchmark on the
//! same reward stream and print the regret comparison the paper's
//! group-competitiveness result predicts.
//!
//! ```text
//! cargo run --release --example investor_platform
//! ```

#![forbid(unsafe_code)]

use rand::SeedableRng;
use sociolearn::baselines::Hedge;
use sociolearn::core::{
    BernoulliRewards, FinitePopulation, GroupDynamics, Params, RegretTracker, RewardModel,
};
use sociolearn::plot::MarkdownTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 12 strategies on the platform; strategy 0 genuinely beats the
    // market (good 65% of days), the others are noise (50%).
    let m = 12;
    let eta_good = 0.65;
    let params = Params::new(m, 0.6)?;
    let mut env = BernoulliRewards::one_good(m, eta_good)?;
    let investors = 5_000;
    let horizon = 40 * params.min_horizon();

    let mut group = FinitePopulation::new(params, investors);
    let mut hedge = Hedge::new(m, Hedge::tuned_eps(m, horizon))?;
    let mut group_tracker = RegretTracker::new(eta_good, 0);
    let mut hedge_tracker = RegretTracker::new(eta_good, 0);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1608_01987); // arXiv id of Krafft et al.

    let mut rewards = vec![false; m];
    for t in 1..=horizon {
        let group_before = group.distribution();
        let hedge_before = hedge.distribution();
        env.sample(t, &mut rng, &mut rewards);
        group.step(&rewards, &mut rng);
        hedge.step(&rewards, &mut rng);
        let q = env.qualities();
        group_tracker.record(&group_before, &rewards, q);
        hedge_tracker.record(&hedge_before, &rewards, q);
    }

    let mut table =
        MarkdownTable::new(&["learner", "memory per agent", "avg regret", "share on best"]);
    table.add_row(&[
        format!("{investors} copy-traders (social dynamics)"),
        "current pick only".into(),
        format!("{:.4}", group_tracker.average_regret()),
        format!("{:.3}", group_tracker.average_best_share()),
    ]);
    table.add_row(&[
        "centralized Hedge (full weight vector)".into(),
        format!("{m} weights"),
        format!("{:.4}", hedge_tracker.average_regret()),
        format!("{:.3}", hedge_tracker.average_best_share()),
    ]);

    println!(
        "copy-trading platform: m = {m} strategies, eta = ({eta_good}, 0.5, ..., 0.5), \
         T = {horizon}, beta = {:.2}\n",
        params.beta()
    );
    println!("{table}");
    println!(
        "theorem bound for the group: 6 delta = {:.3}; the memoryless crowd lands within \
         it despite storing nothing but each investor's current pick.",
        params.regret_bound_finite()
    );
    Ok(())
}
