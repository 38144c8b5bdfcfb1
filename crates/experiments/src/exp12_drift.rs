//! E12 — drifting qualities (Section 6 future work): the best option
//! swaps mid-run; `µ`'s standing exploration is what lets the group
//! abandon the stale consensus and re-converge.

use crate::{ExpContext, Outcome};
use sociolearn_core::{FinitePopulation, Params};
use sociolearn_env::swap_best;
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, run_observed, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let m = 2;
    let etas = vec![0.9, 0.4];
    let n = ctx.pick(2_000usize, 10_000);
    let horizon = ctx.pick(600u64, 2_000);
    let swap_at = horizon / 2;
    let mus: Vec<f64> = ctx.pick(vec![0.01, 0.1], vec![0.002, 0.01, 0.027, 0.1, 0.25]);
    let reps = ctx.pick(8u64, 24);
    let tree = SeedTree::new(ctx.seed);
    let cfg = RunConfig::new(horizon);

    let mut table = MarkdownTable::new(&[
        "mu",
        "share before swap",
        "recovery time (steps to 50%)",
        "share at end",
    ]);
    let mut csv = CsvWriter::with_columns(&["mu", "share_before", "recovery", "share_end"]);
    let mut fig_series = Vec::new();
    let mut recoveries = Vec::new();

    for (i, &mu) in mus.iter().enumerate() {
        let params = Params::with_all(m, 0.65, 0.35, mu).expect("valid params");
        let outcomes: Vec<(f64, f64, f64, Vec<f64>)> =
            replicate(reps, tree.subtree(i as u64).root(), |seed| {
                let env = swap_best(etas.clone(), swap_at, 1).expect("valid schedule");
                let pop = FinitePopulation::new(params, n);
                let mut share_before = 0.0;
                let mut recovery: Option<u64> = None;
                let mut share_end = 0.0;
                let mut traj = Vec::new();
                run_observed(pop, env, &cfg, seed, |t, q| {
                    if t == 0 {
                        return;
                    }
                    if t % (horizon / 100).max(1) == 0 {
                        traj.push(q[1]); // share of the *post-swap* best
                    }
                    if t == swap_at - 1 {
                        share_before = q[0];
                    }
                    if t >= swap_at && recovery.is_none() && q[1] >= 0.5 {
                        recovery = Some(t - swap_at);
                    }
                    if t == horizon {
                        share_end = q[1];
                    }
                });
                (
                    share_before,
                    recovery.map_or(horizon as f64, |r| r as f64),
                    share_end,
                    traj,
                )
            });
        let before = Summary::from_slice(&outcomes.iter().map(|o| o.0).collect::<Vec<_>>());
        let rec = Summary::from_slice(&outcomes.iter().map(|o| o.1).collect::<Vec<_>>());
        let end = Summary::from_slice(&outcomes.iter().map(|o| o.2).collect::<Vec<_>>());
        recoveries.push((mu, rec.mean(), end.mean()));
        table.add_row(&[
            fmt_sig(mu, 3),
            fmt_sig(before.mean(), 3),
            fmt_sig(rec.mean(), 4),
            fmt_sig(end.mean(), 3),
        ]);
        csv.row_values(&[mu, before.mean(), rec.mean(), end.mean()]);

        // Mean trajectory of the post-swap best option's share.
        let len = outcomes[0].3.len();
        let mean_traj: Vec<(f64, f64)> = (0..len)
            .map(|k| {
                let mean = outcomes.iter().map(|o| o.3[k]).sum::<f64>() / outcomes.len() as f64;
                ((k as f64 + 1.0) * (horizon as f64 / 100.0), mean)
            })
            .collect();
        fig_series.push(Series::line(format!("mu={}", fmt_sig(mu, 2)), mean_traj));
    }

    // Verdicts: every mu > 0 recovers by the end (share_end > 0.6), and
    // recovery time decreases as mu increases.
    let all_recover = recoveries.iter().all(|&(_, _, end)| end > 0.6);
    let monotone_ish =
        recoveries.first().expect("nonempty").1 >= recoveries.last().expect("nonempty").1;
    let pass = all_recover && monotone_ish;

    let fig = SvgPlot::new("E12: share of post-swap best option (swap at T/2)")
        .x_label("t")
        .y_label("share of new best");
    let fig = fig_series.into_iter().fold(fig, |f, s| f.add(s));

    let markdown = format!(
        "Future work (Section 6): qualities change mid-run. Options (0.9, 0.4) swap at \
         t = {swap}. N = {n}, beta = 0.65, horizon {horizon}, {reps} reps, seed {seed}. \
         Recovery time = steps after the swap until the new best holds 50% popularity.\n\n{table}\n\
         Reading: larger mu tracks change faster (shorter recovery) at the cost of \
         steady-state share — the exploration/stability trade-off the theorems' \
         `6 mu <= delta^2` regime pins down.\n",
        swap = swap_at,
        n = n,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass,
        files: vec![("E12.csv", csv.render()), ("E12.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 1212);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
