//! E2 — Theorem 4.3 (part 2): the time-averaged share of the best
//! option satisfies `avg_t E[P₁^{t−1}] ≥ 1 − 3δ/(η₁ − η₂)`.

use crate::{pm, verdict, ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, InfiniteDynamics, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{aggregate_curves, replicate, run_one, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    // Small delta so the bound 1 - 3δ/gap is non-vacuous.
    let beta = 0.53;
    let gaps: Vec<f64> = ctx.pick(vec![0.4, 0.6], vec![0.3, 0.4, 0.5, 0.6, 0.7]);
    let m = 2;
    let reps = ctx.pick(16u64, 48);
    // Run well past the minimum horizon so the average is meaningful.
    let horizon_factor = ctx.pick(4u64, 10);
    let tree = SeedTree::new(ctx.seed);

    let mut table = MarkdownTable::new(&[
        "eta1",
        "eta2",
        "gap",
        "T",
        "avg share of best",
        "bound 1-3d/gap",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&["eta1", "eta2", "gap", "t", "share", "ci", "bound"]);
    let mut all_ok = true;
    let mut fig_series = Vec::new();

    let params = Params::new(m, beta).expect("valid params");
    let delta = params.delta();
    let t = params.min_horizon() * horizon_factor;
    let cfg = RunConfig::new(t);

    for (i, &gap) in gaps.iter().enumerate() {
        let eta1 = 0.9;
        let eta2 = eta1 - gap;
        let env = BernoulliRewards::new(vec![eta1, eta2]).expect("valid qualities");
        let results = replicate(reps, tree.subtree(i as u64).root(), |seed| {
            run_one(InfiniteDynamics::new(params), env.clone(), &cfg, seed)
        });
        let shares: Vec<f64> = results
            .iter()
            .map(|r| r.tracker.average_best_share())
            .collect();
        let s = Summary::from_slice(&shares);
        let bound = (1.0 - 3.0 * delta / gap).max(0.0);
        let ok = s.mean() >= bound;
        all_ok &= ok;
        table.add_row(&[
            fmt_sig(eta1, 3),
            fmt_sig(eta2, 3),
            fmt_sig(gap, 3),
            t.to_string(),
            pm(s.mean(), s.ci(0.95).half_width()),
            fmt_sig(bound, 3),
            verdict(ok),
        ]);
        csv.row_values(&[
            eta1,
            eta2,
            gap,
            t as f64,
            s.mean(),
            s.ci(0.95).half_width(),
            bound,
        ]);

        let curves: Vec<_> = results.iter().map(|r| r.best_share_curve.clone()).collect();
        let agg = aggregate_curves(&curves);
        fig_series.push(Series::line(
            format!("gap={}", fmt_sig(gap, 2)),
            agg.mean_points(),
        ));
    }

    let fig = SvgPlot::new("E2: time-averaged share of best option")
        .x_label("T")
        .y_label("avg_t P_1");
    let fig = fig_series.into_iter().fold(fig, |f, s| f.add(s));

    let markdown = format!(
        "Claim (Thm 4.3 part 2): `avg_t E[P_1] >= 1 - 3 delta/(eta1 - eta2)`. \
         Here beta = {beta} (delta = {delta:.4}), m = {m}, T = {t}, {reps} reps, seed {seed}.\n\n{table}",
        beta = beta,
        delta = delta,
        m = m,
        t = t,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E2.csv", csv.render()), ("E2.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 7);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
