//! E1 — Theorem 4.3: the infinite-population dynamics has average
//! regret at most `3δ` once `T ≥ ln m / δ²`.

use crate::{pm, verdict, ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, InfiniteDynamics, Params, BETA_MAX};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{aggregate_curves, replicate, run_one, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let betas: Vec<f64> = ctx.pick(
        vec![0.55, 0.65],
        vec![0.52, 0.55, 0.60, 0.65, 0.70, BETA_MAX],
    );
    let ms: Vec<usize> = ctx.pick(vec![2, 10], vec![2, 10, 50]);
    let reps = ctx.pick(16u64, 64);
    let tree = SeedTree::new(ctx.seed);

    let mut table = MarkdownTable::new(&[
        "m",
        "beta",
        "delta",
        "T* = ln m/d^2",
        "Regret_inf(T*)",
        "bound 3d",
        "ok",
    ]);
    let mut csv =
        CsvWriter::with_columns(&["m", "beta", "delta", "t_star", "regret", "ci", "bound"]);
    let mut all_ok = true;
    let mut fig_series = Vec::new();

    for (i, &m) in ms.iter().enumerate() {
        for (j, &beta) in betas.iter().enumerate() {
            let params = Params::new(m, beta).expect("valid sweep point");
            let delta = params.delta();
            let t_star = params.min_horizon();
            let env = BernoulliRewards::linear(m, 0.9, 0.1).expect("valid qualities");
            let cfg = RunConfig::new(t_star);
            let sub = tree.subtree((i * betas.len() + j) as u64);
            let results = replicate(reps, sub.root(), |seed| {
                run_one(InfiniteDynamics::new(params), env.clone(), &cfg, seed)
            });
            let finals: Vec<f64> = results.iter().map(|r| r.tracker.average_regret()).collect();
            let s = Summary::from_slice(&finals);
            let bound = params.regret_bound_infinite();
            let ok = s.mean() <= bound;
            all_ok &= ok;
            table.add_row(&[
                m.to_string(),
                fmt_sig(beta, 4),
                fmt_sig(delta, 3),
                t_star.to_string(),
                pm(s.mean(), s.ci(0.95).half_width()),
                fmt_sig(bound, 3),
                verdict(ok),
            ]);
            csv.row_values(&[
                m as f64,
                beta,
                delta,
                t_star as f64,
                s.mean(),
                s.ci(0.95).half_width(),
                bound,
            ]);

            // Figure series: regret vs T for m = 10 (or the largest m
            // in quick mode).
            if m == *ms.last().expect("nonempty") {
                let curves: Vec<_> = results.iter().map(|r| r.curve.clone()).collect();
                let agg = aggregate_curves(&curves);
                fig_series.push(Series::line(
                    format!("beta={}", fmt_sig(beta, 3)),
                    agg.mean_points(),
                ));
            }
        }
    }

    let fig = SvgPlot::new("E1: infinite-population average regret vs T")
        .x_label("T")
        .y_label("Regret_inf(T)");
    let fig = fig_series.into_iter().fold(fig, |f, s| f.add(s));

    let markdown = format!(
        "Claim (Thm 4.3): for `1/2 < beta <= e/(e+1)`, `6 mu <= delta^2`, uniform start, \
         the infinite-population dynamics satisfies `Regret(T) <= 3 delta` at \
         `T = ceil(ln m / delta^2)`.\n\nEnvironment: qualities linear from 0.9 \
         down to 0.1; {reps} replications per cell; seed {seed}.\n\n{table}",
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E1.csv", csv.render()), ("E1.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 12345);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
        assert!(outcome.markdown.contains("| m"));
    }
}
