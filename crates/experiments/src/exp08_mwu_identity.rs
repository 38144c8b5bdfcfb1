//! E8 — Section 2.2's identity: the infinite-population dynamics *is*
//! the stochastic MWU process; under shared rewards the two
//! trajectories agree to floating-point rounding.

use crate::{verdict, ExpContext, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{
    BernoulliRewards, GroupDynamics, InfiniteDynamics, Params, RewardModel, StochasticMwu,
};
use sociolearn_plot::{fmt_sci, CsvWriter, MarkdownTable};
use sociolearn_sim::SeedTree;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let cells: Vec<(usize, f64)> = ctx.pick(
        vec![(5, 0.6)],
        vec![(2, 0.55), (5, 0.6), (20, 0.65), (100, 0.7)],
    );
    let horizon = ctx.pick(2_000u64, 20_000);
    let tree = SeedTree::new(ctx.seed);

    let mut table = MarkdownTable::new(&[
        "m",
        "beta",
        "T",
        "max |P_dyn - P_mwu|",
        "max |ln Phi gap|",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&["m", "beta", "t", "max_dist_gap", "potential_gap"]);
    let mut all_ok = true;

    for (i, &(m, beta)) in cells.iter().enumerate() {
        let params = Params::new(m, beta).expect("valid params");
        let mut dynamics = InfiniteDynamics::new(params);
        let mut mwu = StochasticMwu::new(params);
        let mut env = BernoulliRewards::linear(m, 0.9, 0.1).expect("valid qualities");
        let mut rng = SmallRng::seed_from_u64(tree.child(i as u64));
        let mut rewards = vec![false; m];
        let mut max_gap: f64 = 0.0;
        for t in 1..=horizon {
            env.sample(t, &mut rng, &mut rewards);
            dynamics.step_rewards(&rewards);
            mwu.step_rewards(&rewards);
            let a = dynamics.distribution();
            let b = mwu.distribution();
            for (x, y) in a.iter().zip(&b) {
                max_gap = max_gap.max((x - y).abs());
            }
        }
        let pot_gap = (dynamics.log_potential() - mwu.log_potential()).abs();
        let ok = max_gap < 1e-9 && pot_gap < 1e-6;
        all_ok &= ok;
        table.add_row(&[
            m.to_string(),
            beta.to_string(),
            horizon.to_string(),
            fmt_sci(max_gap, 2),
            fmt_sci(pot_gap, 2),
            verdict(ok),
        ]);
        csv.row_values(&[m as f64, beta, horizon as f64, max_gap, pot_gap]);
    }

    let markdown = format!(
        "Claim (Section 2.2 / Eq. 1): rewriting the infinite-population sampling stage as \
         its expectation yields exactly the stochastic MWU weights process. The normalized \
         implementation and the raw-weights implementation are run on identical reward \
         streams for T = {horizon}; their distributions and log-potentials must agree to \
         rounding. Seed {seed}.\n\n{table}",
        horizon = horizon,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E8.csv", csv.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 8);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
