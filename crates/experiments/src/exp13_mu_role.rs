//! E13 — the role of `µ` (Section 2.1: "its role is to ensure that
//! the population does not get stuck in a bad option"): at `µ = 0`
//! the dynamics can lock in on a suboptimal option forever; any
//! `µ > 0` restores recovery, while too-large `µ` pays exploration
//! regret.

use crate::{ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, FinitePopulation, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, run_observed, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let m = 2;
    // Small population and modest gap make mu = 0 lock-in observable
    // within the horizon.
    let n = 50usize; // small on purpose in both modes: lock-in is a small-N phenomenon
    let etas = vec![0.75, 0.55];
    let env = BernoulliRewards::new(etas.clone()).expect("valid qualities");
    let horizon = ctx.pick(800u64, 3_000);
    let mus: Vec<f64> = ctx.pick(
        vec![0.0, 0.02, 0.3],
        vec![0.0, 0.005, 0.02, 0.069, 0.15, 0.3],
    );
    let reps = ctx.pick(48u64, 96);
    let tree = SeedTree::new(ctx.seed);
    let cfg = RunConfig::new(horizon);

    let mut table = MarkdownTable::new(&[
        "mu",
        "best-option extinction prob",
        "avg share of best",
        "regret",
    ]);
    let mut csv = CsvWriter::with_columns(&["mu", "extinction", "share", "regret"]);
    let mut rows = Vec::new();

    for (i, &mu) in mus.iter().enumerate() {
        let params = Params::with_all(m, 0.65, 0.35, mu).expect("valid params");
        let outcomes: Vec<(bool, f64, f64)> =
            replicate(reps, tree.subtree(i as u64).root(), |seed| {
                let mut pop = FinitePopulation::new(params, n);
                let mut share_sum = 0.0;
                let mut reward_sum = 0.0;
                // Sums the shares each step starts from, `Q^0..Q^{T-1}`.
                run_observed(&mut pop, env.clone(), &cfg, seed, |t, q| {
                    if t < horizon {
                        share_sum += q[0];
                        reward_sum += q[0] * etas[0] + q[1] * etas[1];
                    }
                });
                (
                    // With mu = 0 a zero count is absorbing; report
                    // whether the best option died.
                    pop.counts()[0] == 0,
                    share_sum / horizon as f64,
                    etas[0] - reward_sum / horizon as f64,
                )
            });
        let extinction = outcomes.iter().filter(|o| o.0).count() as f64 / outcomes.len() as f64;
        let share = Summary::from_slice(&outcomes.iter().map(|o| o.1).collect::<Vec<_>>());
        let regret = Summary::from_slice(&outcomes.iter().map(|o| o.2).collect::<Vec<_>>());
        rows.push((mu, extinction, share.mean(), regret.mean()));
        table.add_row(&[
            fmt_sig(mu, 3),
            fmt_sig(extinction, 3),
            fmt_sig(share.mean(), 3),
            fmt_sig(regret.mean(), 3),
        ]);
        csv.row_values(&[mu, extinction, share.mean(), regret.mean()]);
    }

    // Verdicts: mu = 0 suffers *permanent* lock-in at a clearly
    // positive rate (extinction at the final step is absorbing there),
    // while with mu > 0 extinction is transient and rare; the best
    // positive-mu run beats mu = 0 on share; and the largest mu pays
    // more regret than the best positive mu (exploration cost).
    let mu0 = rows.iter().find(|r| r.0 == 0.0).expect("mu=0 in sweep");
    let positive: Vec<_> = rows.iter().filter(|r| r.0 > 0.0).collect();
    let worst_positive_extinction = positive.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let best_positive_regret = positive.iter().map(|r| r.3).fold(f64::INFINITY, f64::min);
    // Note the mean share/regret at mu = 0 can *look* fine: the
    // non-extinct runs absorb fully on the best option. The failure
    // mode is the extinction tail, so that is what the verdict tests:
    // at least 3 permanent lock-ins at mu = 0 (not sampling noise) and
    // a rate several times anything seen with mu > 0.
    let mu0_events = (mu0.1 * reps as f64).round();
    let pass = mu0_events >= 3.0
        && mu0.1 > 3.0 * worst_positive_extinction
        && rows.last().expect("nonempty").3 > best_positive_regret;

    let fig = SvgPlot::new("E13: extinction probability and regret vs mu")
        .x_label("mu")
        .y_label("value")
        .add(Series::with_markers(
            "best-option extinction prob",
            rows.iter().map(|r| (r.0, r.1)).collect(),
        ))
        .add(Series::with_markers(
            "average regret",
            rows.iter().map(|r| (r.0, r.3)).collect(),
        ));

    let markdown = format!(
        "Claim (Section 2.1): `mu > 0` exists to prevent the population from getting stuck. \
         At mu = 0 the per-option counts are absorbing at zero, so a finite population can \
         lose the best option permanently; any mu > 0 makes every option re-enterable. \
         N = {n} (small on purpose), eta = {etas:?}, beta = 0.65, horizon {horizon}, \
         {reps} reps, seed {seed}.\n\n{table}\n\
         Reading: permanent extinction only at mu = 0 — its *mean* regret still looks \
         fine because the surviving runs absorb fully on the best option; the cost is in \
         the tail. For mu > 0 regret grows with exploration, so the theorem regime \
         (6 mu <= delta^2, here mu <= {regime}) is where the guaranteed-bound and the \
         exploration cost balance.\n",
        n = n,
        etas = etas,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        table = table.render(),
        regime = fmt_sig(Params::new(m, 0.65).expect("valid").mu(), 2),
    );

    Outcome {
        markdown,
        pass,
        files: vec![("E13.csv", csv.render()), ("E13.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 1313);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
