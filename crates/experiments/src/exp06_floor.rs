//! E6 — the popularity floor from the proof of Theorem 4.4:
//! `min_j Q_j^t ≥ ζ = µ(1−β)/(4m)` with high probability at every
//! step (the fact that makes the epoch restarts possible).

use crate::{verdict, ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, FinitePopulation, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, run_observed, RunConfig, SeedTree};
use sociolearn_stats::BinomialTest;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let sweeps: Vec<(usize, f64)> = ctx.pick(
        vec![(5, 0.1)],
        vec![(2, 0.05), (5, 0.1), (10, 0.1), (5, 0.02)],
    );
    let n = ctx.pick(5_000usize, 20_000);
    let horizon = ctx.pick(500u64, 2_000);
    let reps = ctx.pick(8u64, 16);
    let tree = SeedTree::new(ctx.seed);
    let cfg = RunConfig::new(horizon);

    let mut table = MarkdownTable::new(&[
        "m",
        "mu",
        "zeta",
        "steps observed",
        "violations",
        "exact test p<=1e-4 ok",
    ]);
    let mut csv = CsvWriter::with_columns(&["m", "mu", "zeta", "steps", "violations"]);
    let mut all_ok = true;
    let mut fig_series = Vec::new();

    for (i, &(m, mu)) in sweeps.iter().enumerate() {
        let params = Params::with_all(m, 0.65, 0.35, mu).expect("valid params");
        let zeta = params.popularity_floor();
        let env = BernoulliRewards::one_good(m, 0.9).expect("valid qualities");

        let per_rep: Vec<(u64, Vec<f64>)> =
            replicate(reps, tree.subtree(i as u64).root(), |seed| {
                let mut violations = 0u64;
                let mut min_curve = Vec::new();
                let pop = FinitePopulation::new(params, n);
                run_observed(pop, env.clone(), &cfg, seed, |t, q| {
                    if t == 0 {
                        return;
                    }
                    let min = q.iter().copied().fold(f64::INFINITY, f64::min);
                    if min < zeta {
                        violations += 1;
                    }
                    if t % (horizon / 100).max(1) == 0 {
                        min_curve.push(min);
                    }
                });
                (violations, min_curve)
            });

        let violations: u64 = per_rep.iter().map(|(v, _)| *v).sum();
        let steps = reps * horizon;
        // "w.h.p." made concrete: the paper's failure probability is
        // 6m/N^10 per step — indistinguishable from 0 here. We accept
        // the claim if the observed rate is consistent (exact binomial
        // test) with a per-step failure probability of 1e-4, a level
        // vastly above the bound yet tight enough to catch a broken
        // floor.
        let test = BinomialTest::run(violations, steps, 1e-4);
        let ok = test.consistent_at(0.01);
        all_ok &= ok;
        table.add_row(&[
            m.to_string(),
            fmt_sig(mu, 3),
            fmt_sig(zeta, 3),
            steps.to_string(),
            violations.to_string(),
            verdict(ok),
        ]);
        csv.row_values(&[m as f64, mu, zeta, steps as f64, violations as f64]);

        // Mean min-popularity trajectory for the figure (first rep).
        if let Some((_, curve)) = per_rep.first() {
            let pts: Vec<(f64, f64)> = curve
                .iter()
                .enumerate()
                .map(|(k, &v)| ((k as f64 + 1.0) * (horizon as f64 / 100.0), v))
                .collect();
            fig_series.push((format!("m={m}, mu={mu}"), pts, zeta));
        }
    }

    let mut fig = SvgPlot::new("E6: minimum option popularity over time")
        .x_label("t")
        .y_label("min_j Q_j")
        .log_y();
    for (label, pts, zeta) in &fig_series {
        fig = fig
            .add(Series::line(label.clone(), pts.clone()))
            .hline(*zeta, format!("zeta ({label})"));
    }

    let markdown = format!(
        "Claim (proof of Thm 4.4): at every step, every option keeps popularity at least \
         `zeta = mu(1-beta)/(4m)` with probability `1 - 6m/N^10`. N = {n}, beta = 0.65, \
         horizon {horizon}, {reps} reps per cell, seed {seed}.\n\n{table}",
        n = n,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E6.csv", csv.render()), ("E6.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 55);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
