//! E16 — Theorem 4.6: from any start with floor `P⁰_j ≥ ζ`, the
//! regret bound holds after `ln(1/ζ)/δ²` steps — the ingredient that
//! powers the epoch argument for large `T`.

use crate::{pm, verdict, ExpContext, Outcome};
use sociolearn_core::{BernoulliRewards, FinitePopulation, InfiniteDynamics, Params};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable};
use sociolearn_sim::{replicate, run_one, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let m = 5;
    let params = Params::new(m, 0.6).expect("valid params");
    let env = BernoulliRewards::one_good(m, 0.9).expect("valid qualities");
    let reps = ctx.pick(16u64, 48);
    let n = ctx.pick(5_000usize, 20_000);
    let tree = SeedTree::new(ctx.seed);

    // Start distributions: uniform (control), the zeta-floor start
    // (everything on the worst option except a zeta sliver on each
    // other), and everything-on-worst (floor only through mu's first
    // step).
    let zeta = params.popularity_floor();
    let mut floor_start = vec![zeta; m];
    floor_start[m - 1] = 1.0 - zeta * (m - 1) as f64;

    let all_on_worst = {
        let mut v = vec![0.0; m];
        v[m - 1] = 1.0;
        v
    };

    let starts: Vec<(&str, Vec<f64>, u64)> = vec![
        ("uniform", vec![1.0 / m as f64; m], params.min_horizon()),
        (
            "zeta floor, mass on worst",
            floor_start.clone(),
            params.min_horizon_from_floor(zeta),
        ),
        (
            "all on worst (no floor)",
            all_on_worst,
            params.min_horizon_from_floor(zeta),
        ),
    ];

    let mut table = MarkdownTable::new(&[
        "start",
        "T = ln(1/floor)/d^2",
        "infinite regret",
        "bound 3d",
        "finite regret (N)",
        "bound 6d",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&["start", "t", "inf_regret", "fin_regret"]);
    let mut all_ok = true;

    for (i, (label, start, t)) in starts.iter().enumerate() {
        let cfg = RunConfig::new(*t);

        // Infinite dynamics from this start.
        let inf_finals = replicate(reps, tree.subtree(i as u64).child(0), |seed| {
            run_one(
                InfiniteDynamics::from_distribution(params, start.clone()),
                env.clone(),
                &cfg,
                seed,
            )
            .tracker
            .average_regret()
        });
        let inf = Summary::from_slice(&inf_finals);

        // Finite dynamics from the matching counts.
        let counts: Vec<u64> = start
            .iter()
            .map(|&p| (p * n as f64).round() as u64)
            .collect();
        let fin_finals = replicate(reps, tree.subtree(i as u64).child(1), |seed| {
            let total: u64 = counts.iter().sum();
            let pop = FinitePopulation::from_counts(params, n.max(total as usize), counts.clone());
            run_one(pop, env.clone(), &cfg, seed)
                .tracker
                .average_regret()
        });
        let fin = Summary::from_slice(&fin_finals);

        let inf_bound = params.regret_bound_infinite();
        let fin_bound = params.regret_bound_finite();
        // "All on worst" starts outside the theorem's hypotheses
        // (floor 0); mu re-seeds the floor in one step, so we still
        // check it against the finite bound only.
        let ok = if i == 2 {
            fin.mean() <= fin_bound
        } else {
            inf.mean() <= inf_bound && fin.mean() <= fin_bound
        };
        all_ok &= ok;
        table.add_row(&[
            label.to_string(),
            t.to_string(),
            pm(inf.mean(), inf.ci(0.95).half_width()),
            fmt_sig(inf_bound, 3),
            pm(fin.mean(), fin.ci(0.95).half_width()),
            fmt_sig(fin_bound, 3),
            verdict(ok),
        ]);
        csv.row(&[
            label.to_string(),
            t.to_string(),
            inf.mean().to_string(),
            fin.mean().to_string(),
        ]);
    }

    let markdown = format!(
        "Claim (Thm 4.6): if every option starts with probability at least zeta, the \
         infinite-population regret is at most 3 delta once `T >= ln(1/zeta)/delta^2`; \
         this is the per-epoch engine of Theorem 4.4's large-T argument (epoch length \
         {epoch} here, zeta = {zeta}). m = {m}, beta = 0.6, N = {n}, {reps} reps, \
         seed {seed}.\n\n{table}",
        epoch = params.epoch_length(),
        zeta = fmt_sig(zeta, 3),
        m = m,
        n = n,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass: all_ok,
        files: vec![("E16.csv", csv.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 1616);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
