//! E19 — churn and elastic membership (ROADMAP "Churn and elastic
//! membership", after Su–Zubeldia–Lynch, arXiv:1802.08159): fleets
//! don't just crash, they churn. Nodes leave and rejoin (rolling
//! restarts, region loss) or arrive cold in bulk (flash crowds), and a
//! (re)joining node bootstraps through the *existing* query/reply
//! protocol — no new message types, state still `NODE_STATE_BYTES`.
//! The sweep charts re-convergence time (first threshold crossing
//! *after* the membership script has quiesced) and the surviving
//! cohort's tail share against churn scenario × message loss ×
//! execution model.

use crate::{verdict, ExpContext, ExperimentReport};
use sociolearn_core::{BernoulliRewards, Params, RewardModel};
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, ProtocolRuntime, Runtime, SchedulerKind, StalenessBound,
};
use sociolearn_plot::{fmt_sig, CsvWriter, MarkdownTable, Series, SvgPlot};
use sociolearn_sim::{replicate, SeedTree};
use sociolearn_stats::Summary;

/// The best-option share a fleet must reach to count as converged.
const CONVERGED_SHARE: f64 = 0.75;

/// A membership scenario: how to extend a base fault plan, and the
/// first round at which the script has fully quiesced (every scheduled
/// join/leave/rejoin has fired), from which re-convergence is timed.
struct Scenario {
    name: &'static str,
    apply: Box<dyn Fn(FaultPlan) -> FaultPlan>,
    resume: u64,
}

/// The scenario family: a crash-free baseline, a rolling restart over
/// the whole fleet (higher churn rate), a flash crowd of cold joiners,
/// and — in full mode — a region loss with delayed rejoin.
fn scenarios(n: usize, quick: bool) -> Vec<Scenario> {
    let batch = (n / 8).max(1);
    let period = 4u64;
    let last_batch = n.div_ceil(batch) as u64 - 1;
    let restart_done = 2 + last_batch * period + (period / 2).max(1) + 1;
    let crowd = (n / 6).max(1);
    let mut out = vec![
        Scenario {
            name: "none",
            apply: Box::new(|p| p),
            resume: 1,
        },
        Scenario {
            name: "rolling-restart",
            apply: Box::new(move |p| p.rolling_restart(batch, period)),
            resume: restart_done,
        },
        Scenario {
            name: "flash-crowd",
            apply: Box::new(move |p| p.flash_crowd(crowd, 10)),
            resume: 12,
        },
    ];
    if !quick {
        let region = n / 5;
        out.push(Scenario {
            name: "region-loss",
            apply: Box::new(move |p| p.region_loss(0..region, 8, 24)),
            resume: 25,
        });
    }
    out
}

/// Drives one fleet through the scenario, returning per-rep means of
/// (rounds from `resume` to the convergence threshold — censored at
/// `horizon` when never reached, share over the back half of the run,
/// membership events per round). One code path measures every
/// execution model through the shared [`ProtocolRuntime`] surface.
fn reconverge_stats<Rt: ProtocolRuntime>(
    make: impl Fn(u64) -> Rt + Sync,
    env: &BernoulliRewards,
    m: usize,
    resume: u64,
    horizon: u64,
    reps: u64,
    seed: u64,
) -> (f64, f64, f64) {
    let outcomes: Vec<(f64, f64, f64)> = replicate(reps, seed, |seed| {
        // Salted like E15/E17: the runtimes ignore the caller RNG, so
        // an unsalted seed would alias the protocol stream with the
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
            if t >= resume && first_hit.is_none() && dist[0] >= CONVERGED_SHARE {
                first_hit = Some(t);
            }
            if t > horizon / 2 {
                tail_share += dist[0];
            }
        }
        let metrics = net.metrics();
        let churn_events = metrics.joins + metrics.leaves + metrics.rejoins;
        (
            (first_hit.unwrap_or(horizon).saturating_sub(resume)) as f64,
            tail_share / (horizon - horizon / 2) as f64,
            churn_events as f64 / metrics.rounds as f64,
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
    let n = ctx.pick(128usize, 512);
    let horizon = ctx.pick(140u64, 400);
    let reps = ctx.pick(4u64, 10);
    let tree = SeedTree::new(ctx.seed);

    let drops: Vec<f64> = ctx.pick(vec![0.0, 0.3], vec![0.0, 0.2, 0.4]);
    let scens = scenarios(n, ctx.quick);

    let mut table = MarkdownTable::new(&[
        "execution",
        "scenario",
        "message loss",
        "rounds to re-converge",
        "tail share of best",
        "churn events/round",
        "ok",
    ]);
    let mut csv = CsvWriter::with_columns(&[
        "execution",
        "scenario",
        "drop",
        "reconv_rounds",
        "tail_share",
        "churn_per_round",
    ]);

    let mut all_ok = true;
    let mut svg = SvgPlot::new(format!(
        "E19: rounds from script quiescence to {CONVERGED_SHARE} best-option share \
         (censored at horizon {horizon})"
    ))
    .x_label("scenario (0 = none, 1 = rolling restart, 2 = flash crowd, 3 = region loss)")
    .y_label("rounds to re-converge");

    for &drop in &drops {
        let drop_pct = (drop * 100.0) as u32;
        let mut points: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
        for (si, scen) in scens.iter().enumerate() {
            let base = if drop == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::with_drop_prob(drop).expect("valid drop rate")
            };
            let cfg = DistConfig::new(params, n).with_faults((scen.apply)(base));

            // The three execution models on the identical deployment:
            // round-synchronous, event-driven quiesced on four
            // calendar shards, and fully-async on the default one.
            let mut rows: Vec<(&str, (f64, f64, f64))> = Vec::new();
            let salt = 100 * drop_pct as u64 + 10 * si as u64;
            let sync_cfg = cfg.clone();
            rows.push((
                "round-sync",
                reconverge_stats(
                    |s| Runtime::new(sync_cfg.clone(), s),
                    &env,
                    m,
                    scen.resume,
                    horizon,
                    reps,
                    tree.subtree(1_000 + salt).root(),
                ),
            ));
            let sharded_cfg = cfg.clone();
            rows.push((
                "event ×4 shards",
                reconverge_stats(
                    |s| {
                        EventRuntime::new(sharded_cfg.clone(), s)
                            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 })
                    },
                    &env,
                    m,
                    scen.resume,
                    horizon,
                    reps,
                    tree.subtree(2_000 + salt).root(),
                ),
            ));
            let async_cfg = cfg.clone();
            rows.push((
                "fully-async",
                reconverge_stats(
                    |s| {
                        EventRuntime::new(async_cfg.clone(), s)
                            .with_async_epochs(StalenessBound::Epochs(2))
                    },
                    &env,
                    m,
                    scen.resume,
                    horizon,
                    reps,
                    tree.subtree(3_000 + salt).root(),
                ),
            ));

            for (mi, (exec, (time, share, churn))) in rows.into_iter().enumerate() {
                // Every scenario × loss × model must keep learning;
                // on a clean network the fleet must actually cross
                // the threshold after the script quiesces, and the
                // script itself must have fired (the baseline must
                // see zero membership events, churn scenarios at
                // least one).
                let mut ok = share > 0.55;
                if drop == 0.0 {
                    ok &= time < (horizon - scen.resume) as f64;
                }
                if scen.name == "none" {
                    ok &= churn == 0.0;
                } else {
                    ok &= churn > 0.0;
                }
                all_ok &= ok;
                table.add_row(&[
                    exec.into(),
                    scen.name.into(),
                    format!("{drop_pct}%"),
                    fmt_sig(time, 3),
                    fmt_sig(share, 3),
                    fmt_sig(churn, 3),
                    verdict(ok),
                ]);
                csv.row(&[
                    exec.into(),
                    scen.name.into(),
                    drop.to_string(),
                    time.to_string(),
                    share.to_string(),
                    churn.to_string(),
                ]);
                points[mi].push((si as f64, time));
            }
        }
        for (mi, exec) in ["round-sync", "event ×4 shards", "fully-async"]
            .iter()
            .enumerate()
        {
            svg = svg.add(Series::with_markers(
                format!("{exec}, loss {drop_pct}%"),
                std::mem::take(&mut points[mi]),
            ));
        }
    }

    let _ = csv.save(ctx.path("E19.csv"));
    let _ = svg.save(ctx.path("E19.svg"));

    let markdown = format!(
        "Churn and elastic membership: scripted join/leave/rejoin honored by all \
         three execution models, with (re)joining nodes bootstrapping through the \
         ordinary query/reply protocol (uniform fallback after exhausted retries — \
         no new message types, per-node state unchanged). N = {n}, m = {m}, \
         beta = 0.65, horizon {horizon}, {reps} reps, seed {seed}; re-convergence = \
         first round at or after script quiescence with best-option share >= {thr} \
         (censored at the horizon).\n\n{table}\n\
         Reading: churn costs *time*, not the limit — every scenario above \
         re-converges to the best option once the membership script quiesces. A \
         rolling restart wipes each batch's commitments but each batch re-adopts \
         by copying the surviving cohort, an unbiased sample of the popularity \
         distribution, so the restart is nearly free. A flash crowd dilutes the \
         converged share at the instant it lands (every newcomer is uncommitted) \
         and the gap closes within a handful of rounds. Message loss slows \
         re-convergence exactly as it slows first convergence; the sharded \
         calendar engine rebalances node→shard ownership online at window \
         boundaries and tracks the other models throughout.\n",
        n = n,
        m = m,
        horizon = horizon,
        reps = reps,
        seed = ctx.seed,
        thr = CONVERGED_SHARE,
        table = table.render(),
    );

    ExperimentReport {
        id: "E19",
        title: "Churn and elastic membership: re-convergence under membership scripts",
        markdown,
        pass: all_ok,
        artifacts: vec!["E19.csv".into(), "E19.svg".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes() {
        let dir = std::env::temp_dir().join("sociolearn_e19");
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = ExpContext::new(&dir, true, 1919);
        let report = run(&ctx);
        assert!(report.pass, "report:\n{}", report.render());
        assert!(ctx.path("E19.csv").exists());
        assert!(ctx.path("E19.svg").exists());
    }
}
