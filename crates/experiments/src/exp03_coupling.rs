//! E3 — Lemma 4.5: under the shared-rewards coupling, the finite and
//! infinite distributions stay multiplicatively close; the per-step
//! deviation scale `δ''` shrinks like `sqrt(ln N / N)`.

use crate::{verdict, ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, CoupledRun, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, SeedTree};
use sociolearn_stats::{loglog_fit, OnlineStats};

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let params = Params::new(3, 0.6).expect("valid params");
    let ns: Vec<usize> = ctx.pick(
        vec![100, 10_000],
        vec![100, 1_000, 10_000, 100_000, 1_000_000],
    );
    let horizon = ctx.pick(8u64, 12);
    let reps = ctx.pick(8u64, 32);
    let tree = SeedTree::new(ctx.seed);

    let mut table = MarkdownTable::new(&[
        "N",
        "delta''(N)",
        "mean dev t=1",
        "mean dev t=3",
        "mean dev t=T",
        "bound 5^1 d''",
        "ok@t=1",
    ]);
    let mut csv = CsvWriter::with_columns(&["n", "t", "mean_dev", "bound"]);
    let mut fig_series = Vec::new();
    let mut dev1_by_n = Vec::new();
    let mut all_ok = true;

    for (i, &n) in ns.iter().enumerate() {
        let mut per_t: Vec<OnlineStats> = vec![OnlineStats::new(); horizon as usize];
        let devs: Vec<Vec<f64>> = replicate(reps, tree.subtree(i as u64).root(), |seed| {
            let mut rng = rand::rngs::SmallRng::new_from_seed_u64(seed);
            let mut run = CoupledRun::new(params, n);
            let env = BernoulliRewards::linear(3, 0.9, 0.3).expect("valid qualities");
            run.run(env, horizon, &mut rng).deviations
        });
        for d in &devs {
            for (t, &v) in d.iter().enumerate() {
                // Infinite deviations (an option died out in the finite
                // process) are recorded at a large sentinel so means
                // stay finite yet visibly broken; they only occur at
                // tiny N.
                per_t[t].push(if v.is_finite() { v } else { 2.0 });
            }
        }
        let bound1 = params.coupling_deviation_bound(n, 1);
        let ok = per_t[0].mean() <= bound1;
        all_ok &= ok;
        dev1_by_n.push((n as f64, per_t[0].mean()));
        table.add_row(&[
            n.to_string(),
            fmt_sig(params.coupling_delta(n), 3),
            fmt_sig(per_t[0].mean(), 3),
            fmt_sig(per_t[2.min(per_t.len() - 1)].mean(), 3),
            fmt_sig(per_t[horizon as usize - 1].mean(), 3),
            fmt_sig(bound1, 3),
            verdict(ok),
        ]);
        for (t, acc) in per_t.iter().enumerate() {
            csv.row_values(&[
                n as f64,
                (t + 1) as f64,
                acc.mean(),
                params.coupling_deviation_bound(n, (t + 1) as u64),
            ]);
        }
        let pts: Vec<(f64, f64)> = per_t
            .iter()
            .enumerate()
            .map(|(t, acc)| ((t + 1) as f64, acc.mean()))
            .collect();
        fig_series.push(Series::line(format!("N={n}"), pts));
    }

    // Scaling check: mean deviation at t=1 should fall like ~N^{-1/2}
    // (up to the sqrt(ln N) factor). Fit the log-log slope.
    let (xs, ys): (Vec<f64>, Vec<f64>) = dev1_by_n.iter().copied().unzip();
    let fit = loglog_fit(&xs, &ys);
    let slope_ok = fit.slope < -0.3 && fit.slope > -0.7;
    all_ok &= slope_ok;

    let fig = SvgPlot::new("E3: coupling deviation max_j |P/Q - 1| vs t")
        .x_label("t")
        .y_label("mean max-ratio deviation")
        .log_y();
    let fig = fig_series.into_iter().fold(fig, |f, s| f.add(s));

    let markdown = format!(
        "Claim (Lemma 4.5): with shared rewards, `P_j^t/Q_j^t` stays within \
         `1 ± 5^t delta''` w.h.p., `delta'' = sqrt(60 m ln N/((1-beta) mu N))`. \
         Measured: deviation grows with t and shrinks with N.\n\n{table}\n\
         Scaling fit of mean deviation at t=1 vs N: slope = {slope} \
         (R^2 = {r2}) — expected ≈ −1/2 [{sv}]. \
         ({reps} reps, seed {seed}; sentinel 2.0 for the rare N=100 option-extinction events.)\n",
        table = table.render(),
        slope = fmt_sig(fit.slope, 3),
        r2 = fmt_sig(fit.r_squared, 3),
        sv = verdict(slope_ok),
        reps = reps,
        seed = ctx.seed,
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E3.csv", csv.render()), ("E3.svg", fig.render())],
    }
}

/// Local helper: `SmallRng` from a u64 without importing SeedableRng
/// at every call site.
trait SmallRngExt {
    fn new_from_seed_u64(seed: u64) -> Self;
}

impl SmallRngExt for rand::rngs::SmallRng {
    fn new_from_seed_u64(seed: u64) -> Self {
        <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 99);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
