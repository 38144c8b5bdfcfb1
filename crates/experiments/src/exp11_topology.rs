//! E11 — the paper's first future-work direction: restrict stage-1
//! sampling to a social network and measure how group efficiency
//! depends on topology.

use crate::{ExpContext, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{BernoulliRewards, Params};
use sociolearn_graph::{metrics, topology, Graph};
use sociolearn_network::NetworkPopulation;
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{aggregate_curves, replicate, run_one, RunConfig, SeedTree};
use sociolearn_stats::Summary;

pub(crate) fn run(ctx: &ExpContext) -> Outcome {
    let n = ctx.pick(200usize, 400);
    let m = 2;
    let params = Params::new(m, 0.65).expect("valid params");
    let env = BernoulliRewards::new(vec![0.9, 0.4]).expect("valid qualities");
    let horizon = ctx.pick(150u64, 500);
    let reps = ctx.pick(6u64, 16);
    let tree = SeedTree::new(ctx.seed);
    let mut topo_rng = SmallRng::seed_from_u64(tree.child(999));

    let side = (n as f64).sqrt() as usize;
    let graphs: Vec<(&str, Graph)> = vec![
        ("complete", topology::complete(n)),
        ("ring k=2", topology::ring(n, 2)),
        ("torus", topology::torus(side, n / side)),
        (
            "Erdos-Renyi p=2ln n/n",
            topology::erdos_renyi(n, 2.0 * (n as f64).ln() / n as f64, &mut topo_rng),
        ),
        (
            "Watts-Strogatz k=3 p=0.1",
            topology::watts_strogatz(n, 3, 0.1, &mut topo_rng),
        ),
        (
            "Barabasi-Albert k=3",
            topology::barabasi_albert(n, 3, &mut topo_rng),
        ),
        ("star", topology::star(n)),
        ("two cliques, 1 bridge", topology::two_cliques(n, 1)),
    ];

    let mut table = MarkdownTable::new(&[
        "topology",
        "mean degree",
        "avg path len",
        "clustering",
        "avg share of best",
        "regret",
        "t to 80% majority",
    ]);
    let mut csv = CsvWriter::with_columns(&[
        "topology",
        "mean_degree",
        "apl",
        "clustering",
        "share",
        "regret",
        "t80",
    ]);
    let mut fig_series = Vec::new();
    let mut complete_share = f64::NAN;
    let mut worst_share = f64::INFINITY;

    for (i, (label, graph)) in graphs.iter().enumerate() {
        let deg = metrics::degree_stats(graph);
        let apl = metrics::average_path_length(graph, 30, &mut topo_rng);
        let clus = metrics::clustering_coefficient(graph);
        let cfg = RunConfig::new(horizon);
        let results = replicate(reps, tree.subtree(i as u64).root(), |seed| {
            run_one(
                NetworkPopulation::new(params, graph.clone()),
                env.clone(),
                &cfg,
                seed,
            )
        });
        let shares: Vec<f64> = results
            .iter()
            .map(|r| r.tracker.average_best_share())
            .collect();
        let regrets: Vec<f64> = results.iter().map(|r| r.tracker.average_regret()).collect();
        // Time to 80% share of best (from history snapshots).
        let t80s: Vec<f64> = results
            .iter()
            .map(|r| {
                r.history
                    .times()
                    .iter()
                    .zip(r.history.snapshots())
                    .find(|(_, snap)| snap[0] >= 0.8)
                    .map(|(&t, _)| t as f64)
                    .unwrap_or(horizon as f64)
            })
            .collect();
        let s_share = Summary::from_slice(&shares);
        let s_regret = Summary::from_slice(&regrets);
        let s_t80 = Summary::from_slice(&t80s);
        if *label == "complete" {
            complete_share = s_share.mean();
        }
        worst_share = worst_share.min(s_share.mean());
        table.add_row(&[
            label.to_string(),
            fmt_sig(deg.mean, 3),
            fmt_sig(apl, 3),
            fmt_sig(clus, 2),
            fmt_sig(s_share.mean(), 3),
            fmt_sig(s_regret.mean(), 3),
            fmt_sig(s_t80.mean(), 3),
        ]);
        csv.row(&[
            label.to_string(),
            deg.mean.to_string(),
            apl.to_string(),
            clus.to_string(),
            s_share.mean().to_string(),
            s_regret.mean().to_string(),
            s_t80.mean().to_string(),
        ]);
        let curves: Vec<_> = results.iter().map(|r| r.best_share_curve.clone()).collect();
        fig_series.push(Series::line(
            label.to_string(),
            aggregate_curves(&curves).mean_points(),
        ));
    }

    // Verdicts: the well-mixed control must learn; every connected
    // topology must clearly beat the 1/m baseline (the qualitative
    // future-work prediction that efficiency persists under local
    // sampling).
    let pass = complete_share > 0.75 && worst_share > 1.0 / m as f64 + 0.1;

    let fig = SvgPlot::new("E11: avg share of best option by topology")
        .x_label("T")
        .y_label("avg share of best");
    let fig = fig_series.into_iter().fold(fig, |f, s| f.add(s));

    let markdown = format!(
        "Future work made concrete (Section 6): sampling restricted to graph neighbors. \
         N = {n}, m = {m}, eta = (0.9, 0.4), beta = 0.65, horizon {horizon}, {reps} reps, \
         seed {seed}. Columns pair learning outcomes with the structural metrics that \
         explain them.\n\n{table}\n\
         Reading: the complete graph reproduces the well-mixed dynamics; sparse-but-\
         well-connected topologies (ER, WS, BA, torus) track it closely; bottlenecked \
         topologies (star, two-cliques) learn more slowly — efficiency persists but \
         degrades with mixing time.\n",
        n = n,
        m = m,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        table = table.render()
    );

    Outcome {
        markdown,
        pass,
        files: vec![("E11.csv", csv.render()), ("E11.svg", fig.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let ctx = ExpContext::new("", true, 1111);
        let outcome = run(&ctx);
        assert!(outcome.pass, "report:\n{}", outcome.markdown);
    }
}
