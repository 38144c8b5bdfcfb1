//! E4 — Theorem 4.4: the finite-population dynamics has average regret
//! at most `6δ`, and its gap to the infinite-population regret shrinks
//! as `N` grows.

use crate::{pm, verdict, ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, FinitePopulation, InfiniteDynamics, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, run_one, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let m = 10;
    let params = Params::new(m, 0.6).expect("valid params");
    let env = BernoulliRewards::one_good(m, 0.9).expect("valid qualities");
    let ns: Vec<usize> = ctx.pick(
        vec![100, 10_000],
        vec![30, 100, 300, 1_000, 3_000, 10_000, 100_000],
    );
    let reps = ctx.pick(12u64, 48);
    let t_short = params.min_horizon();
    let t_long = 20 * t_short;
    let tree = SeedTree::new(ctx.seed);

    // Infinite-population reference at both horizons.
    let inf_ref = |t: u64, salt: u64| -> f64 {
        let cfg = RunConfig::new(t);
        let results = replicate(reps, tree.subtree(1000 + salt).root(), |seed| {
            run_one(InfiniteDynamics::new(params), env.clone(), &cfg, seed)
        });
        let finals: Vec<f64> = results.iter().map(|r| r.tracker.average_regret()).collect();
        Summary::from_slice(&finals).mean()
    };
    let inf_short = inf_ref(t_short, 0);
    let inf_long = inf_ref(t_long, 1);

    let bound = params.regret_bound_finite();
    let mut table = MarkdownTable::new(&[
        "N",
        "Regret_N(T*)",
        "Regret_N(20 T*)",
        "|gap to inf| (T*)",
        "bound 6d",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&[
        "n",
        "regret_short",
        "ci_short",
        "regret_long",
        "ci_long",
        "gap",
    ]);
    let mut all_ok = true;
    let mut gap_points = Vec::new();

    for (i, &n) in ns.iter().enumerate() {
        let run_at = |t: u64, salt: u64| -> Summary {
            let cfg = RunConfig::new(t);
            let results = replicate(reps, tree.subtree((i as u64) * 10 + salt).root(), |seed| {
                run_one(FinitePopulation::new(params, n), env.clone(), &cfg, seed)
            });
            let finals: Vec<f64> = results.iter().map(|r| r.tracker.average_regret()).collect();
            Summary::from_slice(&finals)
        };
        let s_short = run_at(t_short, 2);
        let s_long = run_at(t_long, 3);
        let gap = (s_short.mean() - inf_short).abs();
        let ok = s_short.mean() <= bound && s_long.mean() <= bound;
        all_ok &= ok;
        gap_points.push((n as f64, gap.max(1e-6)));
        table.add_row(&[
            n.to_string(),
            pm(s_short.mean(), s_short.ci(0.95).half_width()),
            pm(s_long.mean(), s_long.ci(0.95).half_width()),
            fmt_sig(gap, 3),
            fmt_sig(bound, 3),
            verdict(ok),
        ]);
        csv.row_values(&[
            n as f64,
            s_short.mean(),
            s_short.ci(0.95).half_width(),
            s_long.mean(),
            s_long.ci(0.95).half_width(),
            gap,
        ]);
    }

    // The finite-to-infinite gap must shrink with N (compare first vs
    // last sweep point).
    let shrinks = gap_points.last().expect("nonempty").1 <= gap_points[0].1 + 0.02;
    all_ok &= shrinks;

    let fig = SvgPlot::new("E4: |Regret_N - Regret_inf| at T* vs N")
        .x_label("N")
        .y_label("gap")
        .log_x()
        .log_y()
        .add(Series::with_markers("gap", gap_points));

    let markdown = format!(
        "Claim (Thm 4.4): `Regret_N(T) <= 6 delta` for `ln m/delta^2 <= T <= N^10/(m delta)` \
         once N is large enough. m = {m}, beta = 0.6 (delta = {delta:.4}), \
         eta = one-good(0.9); T* = {t_short}, long horizon = {t_long}; \
         infinite-population reference regret: {inf_s:.4} (T*), {inf_l:.4} (20 T*). \
         {reps} reps, seed {seed}.\n\n{table}\n\
         Gap to the infinite-population regret shrinks with N: [{sv}]\n",
        m = m,
        delta = params.delta(),
        t_short = t_short,
        t_long = t_long,
        inf_s = inf_short,
        inf_l = inf_long,
        reps = reps,
        seed = ctx.seed,
        table = table.render(),
        sv = verdict(shrinks),
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E4.csv", csv.render()), ("E4.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 4242);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
