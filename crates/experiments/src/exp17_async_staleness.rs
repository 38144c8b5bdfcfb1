//! E17 — fully asynchronous overlapping epochs (Section 6 future
//! work, after Su–Zubeldia–Lynch, arXiv:1802.08159): with the
//! quiescence barrier removed from the event-driven runtime, the fleet
//! still converges to the best option, and the cost of asynchrony is
//! paid in *time*, not in the limit. The sweep charts convergence time
//! against the staleness bound and the message-loss rate, with the
//! round-synchronous runtime as the reference curve.

use crate::{verdict, ExpContext, ExperimentReport};
use sociolearn_core::{BernoulliRewards, Params, RewardModel};
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, ProtocolRuntime, Runtime, StalenessBound,
};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, SeedTree};
use sociolearn_stats::Summary;

/// The best-option share a fleet must reach to count as converged.
const CONVERGED_SHARE: f64 = 0.75;

/// Drives one fleet to the convergence threshold, returning per-rep
/// means of (rounds to threshold — censored at `horizon` when never
/// reached, share over the back half of the run, stale replies per
/// round). One code path measures every execution model, through the
/// shared [`ProtocolRuntime`] surface.
fn converge_stats<Rt: ProtocolRuntime>(
    make: impl Fn(u64) -> Rt + Sync,
    env: &BernoulliRewards,
    m: usize,
    horizon: u64,
    reps: u64,
    seed: u64,
) -> (f64, f64, f64) {
    let outcomes: Vec<(f64, f64, f64)> = replicate(reps, seed, |seed| {
        // Salted like E15: the runtimes ignore the caller RNG, so an
        // unsalted seed would alias the protocol stream with the
        // reward stream below.
        let mut net = make(seed ^ 0xD157_5EED);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut env2 = env.clone();
        let mut rewards = vec![false; m];
        let mut dist = vec![0.0; m];
        let mut first_hit: Option<u64> = None;
        let mut tail_share = 0.0;
        for t in 1..=horizon {
            env2.sample(t, &mut rng, &mut rewards);
            net.round(&rewards);
            net.write_distribution(&mut dist);
            if first_hit.is_none() && dist[0] >= CONVERGED_SHARE {
                first_hit = Some(t);
            }
            if t > horizon / 2 {
                tail_share += dist[0];
            }
        }
        let metrics = net.metrics();
        (
            first_hit.unwrap_or(horizon) as f64,
            tail_share / (horizon - horizon / 2) as f64,
            metrics.stale_replies as f64 / metrics.rounds as f64,
        )
    });
    let mean = |k: usize| {
        Summary::from_slice(
            &outcomes
                .iter()
                .map(|o| [o.0, o.1, o.2][k])
                .collect::<Vec<_>>(),
        )
        .mean()
    };
    (mean(0), mean(1), mean(2))
}

pub(crate) fn run(ctx: &ExpContext) -> ExperimentReport {
    let m = 2;
    let params = Params::new(m, 0.65).expect("valid params");
    let env = BernoulliRewards::new(vec![0.9, 0.4]).expect("valid qualities");
    let n = ctx.pick(192usize, 768);
    let horizon = ctx.pick(220u64, 600);
    let reps = ctx.pick(5u64, 12);
    let tree = SeedTree::new(ctx.seed);

    // `None` encodes `StalenessBound::Unbounded`.
    let bounds: Vec<Option<u64>> = ctx.pick(
        vec![Some(0), Some(2), None],
        vec![Some(0), Some(1), Some(2), Some(4), Some(8), None],
    );
    let drops: Vec<f64> = ctx.pick(vec![0.0, 0.3], vec![0.0, 0.2, 0.4]);

    let mut table = MarkdownTable::new(&[
        "execution",
        "staleness bound",
        "message loss",
        "rounds to 75% share",
        "tail share of best",
        "stale replies/round",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&[
        "execution",
        "bound",
        "drop",
        "conv_rounds",
        "tail_share",
        "stale_per_round",
    ]);

    let mut all_ok = true;
    let mut svg = SvgPlot::new(format!(
        "E17: rounds to {CONVERGED_SHARE} best-option share vs staleness bound \
         (censored at horizon {horizon})"
    ))
    .x_label("staleness bound (epochs; rightmost = unbounded)")
    .y_label("rounds to threshold");
    // Unbounded plots one slot right of the largest finite bound.
    let unbounded_x = bounds.iter().flatten().max().copied().unwrap_or(0) as f64 + 2.0;

    for &drop in &drops {
        let fault = if drop == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::with_drop_prob(drop).expect("valid drop rate")
        };
        let cfg = DistConfig::new(params, n).with_faults(fault);
        let drop_pct = (drop * 100.0) as u32;

        // Reference curve: the round-synchronous runtime on the same
        // deployment (same N, same fault plan).
        let sync_seed = tree.subtree(1_000 + drop_pct as u64).root();
        let sync_cfg = cfg.clone();
        let (sync_time, sync_share, _) = converge_stats(
            |s| Runtime::new(sync_cfg.clone(), s),
            &env,
            m,
            horizon,
            reps,
            sync_seed,
        );
        let sync_ok = sync_share > 0.55;
        all_ok &= sync_ok;
        table.add_row(&[
            "round-sync".into(),
            "—".into(),
            format!("{drop_pct}%"),
            fmt_sig(sync_time, 3),
            fmt_sig(sync_share, 3),
            "0".into(),
            verdict(sync_ok),
        ]);
        csv.row(&[
            "round-sync".into(),
            "-".into(),
            drop.to_string(),
            sync_time.to_string(),
            sync_share.to_string(),
            "0".to_string(),
        ]);
        svg = svg.hline(sync_time, format!("round-sync, loss {drop_pct}%"));

        let mut points = Vec::new();
        for (bi, &bound) in bounds.iter().enumerate() {
            let sb = bound.map_or(StalenessBound::Unbounded, StalenessBound::Epochs);
            let seed = tree.subtree(10 + 100 * drop_pct as u64 + bi as u64).root();
            let async_cfg = cfg.clone();
            let (time, share, stale) = converge_stats(
                |s| EventRuntime::new(async_cfg.clone(), s).with_async_epochs(sb),
                &env,
                m,
                horizon,
                reps,
                seed,
            );
            // The fleet must keep learning under every bound × loss
            // condition; a clean network must also stay within a small
            // multiple of the synchronous convergence time, and an
            // unbounded staleness bound must never report a stale
            // reply (that is its definition).
            let mut ok = share > 0.55;
            if drop == 0.0 && bound.is_none() {
                ok &= time <= 3.0 * sync_time.max(1.0);
            }
            if bound.is_none() {
                ok &= stale == 0.0;
            }
            all_ok &= ok;
            let bound_label = bound.map_or("unbounded".to_string(), |k| k.to_string());
            table.add_row(&[
                "fully-async".into(),
                bound_label.clone(),
                format!("{drop_pct}%"),
                fmt_sig(time, 3),
                fmt_sig(share, 3),
                fmt_sig(stale, 3),
                verdict(ok),
            ]);
            csv.row(&[
                "fully-async".into(),
                bound_label,
                drop.to_string(),
                time.to_string(),
                share.to_string(),
                stale.to_string(),
            ]);
            points.push((bound.map_or(unbounded_x, |k| k as f64), time));
        }

        svg = svg.add(Series::with_markers(
            format!("fully-async, loss {drop_pct}%"),
            points,
        ));
    }

    let _ = csv.save(ctx.path("E17.csv"));
    let _ = svg.save(ctx.path("E17.svg"));

    let markdown = format!(
        "The fully asynchronous regime: overlapping local epochs with no quiescence \
         barrier, responder-side staleness filtering (queries carry the sender's \
         epoch), and the round-synchronous runtime as the reference curve. \
         N = {n}, m = {m}, beta = 0.65, horizon {horizon}, {reps} reps, seed {seed}; \
         convergence = first round with best-option share >= {thr} (censored at the \
         horizon).\n\n{table}\n\
         Reading: removing the barrier costs convergence *time*, not the limit — \
         every staleness bound and loss rate above still drives the fleet to the \
         best option. Tight bounds (0, 1) suppress stale replies at the price of \
         more withheld answers and hence retries/fallbacks; loose or unbounded \
         staleness consumes old gossip and converges essentially like the quiesced \
         scheduler. Message loss both slows convergence and widens the epoch \
         spread, which is what makes the staleness bound bite (stale replies/round \
         grows with loss).\n",
        n = n,
        m = m,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        thr = CONVERGED_SHARE,
        table = table.render(),
    );

    ExperimentReport {
        id: "E17",
        title: "Fully-async overlapping epochs: convergence vs staleness (Section 6)",
        markdown,
        pass: all_ok,
        artifacts: vec!["E17.csv".into(), "E17.svg".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let dir = std::env::temp_dir().join("sociolearn_e17");
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = ExpContext::new(&dir, true, 1717);
        let report = run(&ctx);
        assert!(report.pass, "report:\n{}", report.render());
        assert!(ctx.path("E17.csv").exists());
        assert!(ctx.path("E17.svg").exists());
    }
}
