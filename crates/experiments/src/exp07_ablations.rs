//! E7 — Section 3's ablation claims: "if we only have sampling
//! (β = 1−α = 1) or only have adoption (µ = 1), the process does not
//! always converge to the best option" — plus the pure-copying variant
//! (α = β) that uses no quality signal at all.

use crate::{ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, FinitePopulation, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{aggregate_curves, replicate, run_one, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let m = 2;
    let eta = vec![0.85, 0.45];
    let env = BernoulliRewards::new(eta.clone()).expect("valid qualities");
    let n = ctx.pick(2_000usize, 10_000);
    let horizon = ctx.pick(400u64, 1_500);
    let reps = ctx.pick(10u64, 32);
    let tree = SeedTree::new(ctx.seed);

    // The full dynamics and its ablations. mu for the full variant is
    // the theorem default; the beta=1 variant keeps that mu so only
    // the adoption rule changes.
    let full = Params::new(m, 0.65).expect("valid");
    let variants: Vec<(&str, Params)> = vec![
        ("full dynamics (beta=0.65)", full),
        (
            "sampling-only signal use (beta=1, alpha=0)",
            Params::with_all(m, 1.0, 0.0, full.mu()).expect("valid"),
        ),
        (
            "pure copying (alpha=beta=1, no signal)",
            Params::with_all(m, 1.0, 1.0, full.mu()).expect("valid"),
        ),
        (
            "adoption-only (mu=1, no copying)",
            Params::with_all(m, 0.65, 0.35, 1.0).expect("valid"),
        ),
    ];

    let mut table = MarkdownTable::new(&[
        "variant",
        "avg share of best",
        "final share",
        "regret",
        "collapse freq",
        "converges?",
    ]);
    let mut csv = CsvWriter::with_columns(&[
        "variant",
        "avg_share",
        "final_share",
        "regret",
        "collapse_freq",
    ]);
    let mut fig_series = Vec::new();

    let mut shares = Vec::new();
    let mut collapse_freqs = Vec::new();
    for (i, (label, params)) in variants.iter().enumerate() {
        let cfg = RunConfig::new(horizon);
        let results = replicate(reps, tree.subtree(i as u64).root(), |seed| {
            run_one(FinitePopulation::new(*params, n), env.clone(), &cfg, seed)
        });
        let avg: Vec<f64> = results
            .iter()
            .map(|r| r.tracker.average_best_share())
            .collect();
        let fin: Vec<f64> = results
            .iter()
            .map(|r| r.best_share_curve.last_value().unwrap_or(0.0))
            .collect();
        let reg: Vec<f64> = results.iter().map(|r| r.tracker.average_regret()).collect();
        // Chaos probe: how often the best option's *instantaneous*
        // popularity sits below 1/2 after a burn-in of T/4 — the
        // "one bad signal collapses the leader" signature of beta = 1,
        // which the damped full dynamics (beta < 1) does not show.
        let burn_in = horizon / 4;
        let collapse: Vec<f64> = results
            .iter()
            .map(|r| {
                let traj = r.history.series(0);
                let mut below = 0usize;
                let mut total = 0usize;
                for (&t, &s) in r.history.times().iter().zip(&traj) {
                    if t > burn_in {
                        total += 1;
                        if s < 0.5 {
                            below += 1;
                        }
                    }
                }
                if total == 0 {
                    0.0
                } else {
                    below as f64 / total as f64
                }
            })
            .collect();
        let s_avg = Summary::from_slice(&avg);
        let s_fin = Summary::from_slice(&fin);
        let s_reg = Summary::from_slice(&reg);
        let s_collapse = Summary::from_slice(&collapse);
        let converges = s_avg.mean() > 0.8;
        shares.push(s_avg.mean());
        collapse_freqs.push(s_collapse.mean());
        table.add_row(&[
            label.to_string(),
            fmt_sig(s_avg.mean(), 3),
            fmt_sig(s_fin.mean(), 3),
            fmt_sig(s_reg.mean(), 3),
            fmt_sig(s_collapse.mean(), 3),
            if converges { "yes".into() } else { "no".into() },
        ]);
        csv.row(&[
            label.to_string(),
            s_avg.mean().to_string(),
            s_fin.mean().to_string(),
            s_reg.mean().to_string(),
            s_collapse.mean().to_string(),
        ]);

        let curves: Vec<_> = results.iter().map(|r| r.best_share_curve.clone()).collect();
        let agg = aggregate_curves(&curves);
        fig_series.push(Series::line(label.to_string(), agg.mean_points()));
    }

    // The claim: the full dynamics converges stably; each ablation
    // fails in its own characteristic way. For beta = 1 the failure
    // mode is *chaos* — recurring popularity collapses of the leader —
    // so the verdict checks collapse frequency (robust at quick-mode
    // replication counts) rather than a small average-share gap.
    let full_share = shares[0];
    let pass = full_share > 0.8
        && collapse_freqs[0] < 0.05
        && shares[1] < full_share
        && collapse_freqs[1] > 0.10
        && shares[2] < 0.7
        && shares[3] < 0.8;

    let fig = SvgPlot::new("E7: share of best option, full dynamics vs ablations")
        .x_label("T")
        .y_label("avg share of best");
    let fig = fig_series.into_iter().fold(fig, |f, s| f.add(s));

    let markdown = format!(
        "Claim (Section 3): both stages are necessary. Pure copying (α = β) uses no quality \
         signal and hovers near 1/m; adoption-only (µ = 1) never concentrates beyond the \
         signal-thinned uniform split; the deterministic-adoption extreme (β = 1) is chaotic — \
         one bad signal for the leader collapses its popularity, so its trajectory keeps \
         revisiting shares below 1/2 ('collapse freq' = fraction of post-burn-in snapshots \
         with best-option share < 1/2) while the damped full dynamics never does. \
         N = {n}, eta = {eta:?}, horizon {horizon}, {reps} reps, seed {seed}.\n\n{table}",
        n = n,
        eta = eta,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass,
        files: vec![("E7.csv", csv.render()), ("E7.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 31);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
