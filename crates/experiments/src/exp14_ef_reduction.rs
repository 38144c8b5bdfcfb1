//! E14 — the Ellison–Fudenberg worked example (Section 2.1): the
//! continuous-reward duel with player-specific shocks reduces to the
//! paper's `(η, α, β)` parameterization, and the reduced binary model
//! tracks the full continuous one.

use crate::{verdict, ExpContext, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{FinitePopulation, Params};
use sociolearn_env::{BestOfTwoRewards, DuelPopulation, ShockDuel};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable};
use sociolearn_sim::{replicate, run_observed, RunConfig, SeedTree};
use sociolearn_stats::{ks_two_sample, Summary};

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let cells: Vec<(f64, f64, f64)> = ctx.pick(
        vec![(0.75, 1.0, 0.7)],
        vec![(0.75, 1.0, 0.7), (0.65, 0.5, 0.5), (0.85, 2.0, 1.0)],
    );
    let n = ctx.pick(500usize, 2_000);
    let mu = 0.02;
    let horizon = ctx.pick(300u64, 1_000);
    let reps = ctx.pick(16u64, 48);
    let mc_samples = ctx.pick(50_000u32, 400_000);
    let tree = SeedTree::new(ctx.seed);
    let cfg = RunConfig::new(horizon);

    let mut table = MarkdownTable::new(&[
        "p (=eta1)",
        "gap",
        "sigma",
        "beta closed-form",
        "beta Monte-Carlo",
        "duel avg share",
        "reduced avg share",
        "KS p (final share)",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&[
        "p",
        "gap",
        "sigma",
        "beta_cf",
        "beta_mc",
        "share_duel",
        "share_reduced",
        "ks_p",
    ]);
    let mut all_ok = true;

    for (i, &(p, gap, sigma)) in cells.iter().enumerate() {
        let duel = ShockDuel::new(p, gap, sigma).expect("valid duel");
        let beta_cf = duel.induced_beta();
        let mut mc_rng = SmallRng::seed_from_u64(tree.subtree(i as u64).child(0));
        let beta_mc = duel.estimate_beta(mc_samples, &mut mc_rng);
        let params_ok = (beta_cf - beta_mc).abs() < 0.01;

        // Full continuous duel population.
        let duel_outcomes: Vec<(f64, f64)> =
            replicate(reps, tree.subtree(i as u64).child(1), |seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut pop = DuelPopulation::new(duel, mu, n).expect("valid population");
                let mut sum = 0.0;
                let tail = horizon / 2;
                for t in 1..=horizon {
                    pop.step(&mut rng);
                    if t > horizon - tail {
                        sum += pop.share_of_best();
                    }
                }
                (sum / tail as f64, pop.share_of_best())
            });

        // Reduced binary model with the induced (eta, alpha, beta).
        let params = Params::with_all(2, beta_cf, 1.0 - beta_cf, mu).expect("valid params");
        let reduced_outcomes: Vec<(f64, f64)> =
            replicate(reps, tree.subtree(i as u64).child(2), |seed| {
                let env = BestOfTwoRewards::new(p).expect("valid env");
                let pop = FinitePopulation::new(params, n);
                let mut sum = 0.0;
                let tail = horizon / 2;
                let mut final_share = 0.0;
                run_observed(pop, env, &cfg, seed, |t, q| {
                    if t > horizon - tail {
                        sum += q[0];
                    }
                    final_share = q[0];
                });
                (sum / tail as f64, final_share)
            });

        let duel_share =
            Summary::from_slice(&duel_outcomes.iter().map(|o| o.0).collect::<Vec<_>>());
        let red_share =
            Summary::from_slice(&reduced_outcomes.iter().map(|o| o.0).collect::<Vec<_>>());
        let duel_finals: Vec<f64> = duel_outcomes.iter().map(|o| o.1).collect();
        let red_finals: Vec<f64> = reduced_outcomes.iter().map(|o| o.1).collect();
        let ks = ks_two_sample(&duel_finals, &red_finals);

        // The adoption semantics differ (keep-or-switch vs sit-out),
        // so exact distributional equality is not claimed — the
        // reduction preserves the *learning outcome*: both concentrate
        // on the winner, with time-averaged shares within 0.1.
        let shares_ok = (duel_share.mean() - red_share.mean()).abs() < 0.1
            && duel_share.mean() > 0.6
            && red_share.mean() > 0.6;
        let ok = params_ok && shares_ok;
        all_ok &= ok;

        table.add_row(&[
            fmt_sig(p, 3),
            fmt_sig(gap, 3),
            fmt_sig(sigma, 3),
            fmt_sig(beta_cf, 4),
            fmt_sig(beta_mc, 4),
            fmt_sig(duel_share.mean(), 3),
            fmt_sig(red_share.mean(), 3),
            fmt_sig(ks.p_value, 2),
            verdict(ok),
        ]);
        csv.row_values(&[
            p,
            gap,
            sigma,
            beta_cf,
            beta_mc,
            duel_share.mean(),
            red_share.mean(),
            ks.p_value,
        ]);
    }

    let markdown = format!(
        "Claim (Section 2.1, example 2): the word-of-mouth model with continuous rewards \
         `r_j` and i.i.d. player shocks reduces to the binary framework via \
         `eta_1 = P[r_1 > r_2]`, `beta = P[xi > -(r_1 - r_2) | r_1 > r_2] = Phi(gap/2sigma)`, \
         `alpha = 1 - beta`. We verify the induced beta (closed form vs Monte Carlo over the \
         four-shock comparison) and that the full continuous-duel population and the reduced \
         binary dynamics reach matching learning outcomes. N = {n}, mu = {mu}, horizon \
         {horizon}, {reps} reps, seed {seed}. Note the two models differ in adoption \
         semantics (EF agents always hold an option; the base model sits out), so the \
         check is outcome-level, not trajectory-level.\n\n{table}",
        n = n,
        mu = mu,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E14.csv", csv.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 1414);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
