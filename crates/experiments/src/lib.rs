//! # sociolearn-experiments
//!
//! The reproduction suite: every theorem, lemma, proposition, ablation
//! claim and future-work direction in the paper becomes a numbered
//! experiment that regenerates the corresponding table/figure. The
//! README's "The E1–E19 reproduction suite" indexes experiments by
//! claim, and `list` prints the same index.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p sociolearn-experiments -- list
//! cargo run --release -p sociolearn-experiments -- E1
//! cargo run --release -p sociolearn-experiments -- all --quick
//! cargo run --release -p sociolearn-experiments -- watch --ticks 200
//! ```
//!
//! Besides the numbered experiments, the [`watch`] module backs the
//! long-lived `watch` subcommand: a live fleet telemetry dashboard
//! (terminal + SVG snapshot) over any execution model and churn
//! script.
//!
//! Each experiment yields a pass/fail verdict against the paper's
//! quantitative prediction and, in `results/`, `Exx.md` (the table),
//! `Exx.csv` (raw rows) and usually `Exx.svg` (the figure); E5 adds
//! `E5_hist.csv`. [`run_by_id`] writes them all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exp01_infinite_regret;
mod exp02_best_share;
mod exp03_coupling;
mod exp04_finite_regret;
mod exp05_concentration;
mod exp06_floor;
mod exp07_ablations;
mod exp08_mwu_identity;
mod exp09_baselines;
mod exp10_tuned_beta;
mod exp11_topology;
mod exp12_drift;
mod exp13_mu_role;
mod exp14_ef_reduction;
mod exp15_distributed;
mod exp16_nonuniform_start;
mod exp17_async_staleness;
mod exp19_churn;
pub mod watch;

use sociolearn_core::BernoulliRewards;
use sociolearn_dist::{Metrics, ProtocolRuntime};
use sociolearn_sim::{replicate, run_observed, RunConfig};
use sociolearn_stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Shared context handed to every experiment.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Directory for `*.md` / `*.csv` / `*.svg` outputs.
    pub out_dir: PathBuf,
    /// Quick mode: smaller sweeps and replication counts, for CI and
    /// smoke tests. Verdicts use the same bounds, looser statistics.
    pub quick: bool,
    /// Root seed; every number an experiment prints derives from it.
    pub seed: u64,
}

impl ExpContext {
    /// A context writing into `out_dir`.
    pub fn new<P: AsRef<Path>>(out_dir: P, quick: bool, seed: u64) -> Self {
        ExpContext {
            out_dir: out_dir.as_ref().to_path_buf(),
            quick,
            seed,
        }
    }

    /// Quick/full switch helper.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Output path with the given file name.
    pub fn path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// What an experiment produces.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Markdown body (tables + notes); [`render`](Self::render) is
    /// what lands in `Exx.md`.
    pub markdown: String,
    /// Whether the paper's quantitative prediction held.
    pub pass: bool,
    /// Files written besides `Exx.md`, as names in the out dir.
    pub artifacts: Vec<String>,
}

impl ExperimentReport {
    /// Renders the report header + body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        let _ = writeln!(out, "## {} — {} [{}]\n", self.id, self.title, verdict);
        out.push_str(&self.markdown);
        if !self.artifacts.is_empty() {
            let _ = writeln!(out, "\nArtifacts: {}", self.artifacts.join(", "));
        }
        out
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Id, e.g. `"E1"`.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Paper claim it reproduces.
    pub claim: &'static str,
    /// Entry point.
    pub(crate) run: fn(&ExpContext) -> Outcome,
}

/// What an experiment's `run` yields; [`run_by_id`] writes its files.
pub(crate) struct Outcome {
    pub(crate) markdown: String,
    pub(crate) pass: bool,
    /// `(name, contents)` pairs, in the order they are written and
    /// listed as artifacts.
    pub(crate) files: Vec<(&'static str, String)>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// All experiments, in id order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            title: "Infinite-population regret <= 3*delta (Theorem 4.3)",
            claim: "Regret_inf(T) <= 3 delta for T >= ln m / delta^2",
            run: exp01_infinite_regret::run,
        },
        Experiment {
            id: "E2",
            title: "Average share of best option (Theorem 4.3, part 2)",
            claim: "avg_t E[P_1^{t-1}] >= 1 - 3 delta/(eta1-eta2)",
            run: exp02_best_share::run,
        },
        Experiment {
            id: "E3",
            title: "Finite/infinite coupling drift (Lemma 4.5)",
            claim: "P_j/Q_j within 1 +/- 5^t delta''(N); deviation ~ 1/sqrt(N)",
            run: exp03_coupling::run,
        },
        Experiment {
            id: "E4",
            title: "Finite-population regret <= 6*delta (Theorem 4.4)",
            claim: "Regret_N(T) <= 6 delta for large N, T >= ln m/delta^2",
            run: exp04_finite_regret::run,
        },
        Experiment {
            id: "E5",
            title: "Per-stage Chernoff concentration (Propositions 4.1-4.2)",
            claim: "S_j and D_j concentrate within the stated multiplicative windows",
            run: exp05_concentration::run,
        },
        Experiment {
            id: "E6",
            title: "Popularity floor zeta = mu(1-beta)/4m (Theorem 4.4 proof)",
            claim: "min_j Q_j^t >= zeta w.h.p. at every step",
            run: exp06_floor::run,
        },
        Experiment {
            id: "E7",
            title: "Ablations: sampling-only / adoption-only fail (Section 3)",
            claim: "beta=1 or mu=1 variants do not converge to the best option",
            run: exp07_ablations::run,
        },
        Experiment {
            id: "E8",
            title: "Infinite dynamics == stochastic MWU (Section 2.2)",
            claim: "identical trajectories under shared rewards",
            run: exp08_mwu_identity::run,
        },
        Experiment {
            id: "E9",
            title: "Group regret vs centralized & bandit baselines (Sections 1,3)",
            claim: "social group is competitive with full-information MWU",
            run: exp09_baselines::run,
        },
        Experiment {
            id: "E10",
            title: "Tuned beta recovers O(sqrt(ln m / T)) regret (Section 6)",
            claim: "regret with beta*(T) scales as T^{-1/2}",
            run: exp10_tuned_beta::run,
        },
        Experiment {
            id: "E11",
            title: "Network-restricted sampling vs topology (Section 6 future work)",
            claim: "efficiency persists on well-connected topologies, degrades with bottlenecks",
            run: exp11_topology::run,
        },
        Experiment {
            id: "E12",
            title: "Drifting qualities: recovery after a best-option swap (Section 6)",
            claim: "mu > 0 lets the group re-converge after the swap",
            run: exp12_drift::run,
        },
        Experiment {
            id: "E13",
            title: "Role of mu: lock-in at mu = 0, regret across mu (Section 2.1)",
            claim: "mu = 0 permits lock-in; small mu > 0 restores convergence",
            run: exp13_mu_role::run,
        },
        Experiment {
            id: "E14",
            title: "Ellison-Fudenberg reduction to (eta, alpha, beta) (Section 2.1)",
            claim: "continuous-duel model matches its induced binary model",
            run: exp14_ef_reduction::run,
        },
        Experiment {
            id: "E15",
            title: "Message-passing implementation: equivalence, cost, faults (Sections 1,6)",
            claim: "O(1) memory/node, O(N) messages/round, graceful fault degradation",
            run: exp15_distributed::run,
        },
        Experiment {
            id: "E16",
            title: "Nonuniform starts (Theorem 4.6)",
            claim: "regret small after ln(1/zeta)/delta^2 steps from any zeta-floor start",
            run: exp16_nonuniform_start::run,
        },
        Experiment {
            id: "E17",
            title: "Fully-async overlapping epochs: convergence vs staleness (Section 6)",
            claim: "without the quiescence barrier the fleet still converges; staleness and loss cost time, not the limit",
            run: exp17_async_staleness::run,
        },
        // E18 is reserved for the changing-worlds sweep (ROADMAP:
        // drifting/switching best options at fleet scale).
        Experiment {
            id: "E19",
            title: "Churn and elastic membership: re-convergence under membership scripts",
            claim: "join/leave/rejoin scripts cost re-convergence time, not the limit; (re)joiners bootstrap via the existing query protocol",
            run: exp19_churn::run,
        },
    ]
}

/// Runs one experiment by id (any case) and writes its artifacts. This
/// is the suite's only writer: it creates `ctx.out_dir`, writes the
/// experiment's files in the order it lists them, then `Exx.md`.
///
/// # Errors
///
/// Returns the first failure, and writes nothing after it: an
/// "unknown experiment id" message for an id missing from
/// [`registry`], or `<path>: <io error>` when creating the out dir or
/// writing a file fails.
pub fn run_by_id(id: &str, ctx: &ExpContext) -> Result<ExperimentReport, String> {
    let exp = registry()
        .into_iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
        .ok_or_else(|| format!("unknown experiment id {id:?}; try `list`"))?;
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let outcome = (exp.run)(ctx);
    let write = |name: &str, contents: &str| {
        let path = ctx.path(name);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
    };
    for (name, contents) in &outcome.files {
        write(name, contents)?;
    }
    let report = ExperimentReport {
        id: exp.id,
        title: exp.title,
        markdown: outcome.markdown,
        pass: outcome.pass,
        artifacts: outcome
            .files
            .iter()
            .map(|(name, _)| name.to_string())
            .collect(),
    };
    write(&format!("{}.md", exp.id), &report.render())?;
    Ok(report)
}

/// Formats a PASS/FAIL cell.
pub(crate) fn verdict(ok: bool) -> String {
    if ok {
        "PASS".into()
    } else {
        "FAIL".into()
    }
}

/// Formats `mean +/- half` with 4 significant digits.
pub(crate) fn pm(mean: f64, half: f64) -> String {
    format!(
        "{} ± {}",
        sociolearn_plot::fmt_sig(mean, 4),
        sociolearn_plot::fmt_sig(half, 2)
    )
}

/// Per-column means of per-replication outcome rows.
pub(crate) fn column_means<const K: usize>(rows: &[[f64; K]]) -> [f64; K] {
    std::array::from_fn(|k| {
        Summary::from_slice(&rows.iter().map(|r| r[k]).collect::<Vec<_>>()).mean()
    })
}

/// The best-option share a fleet must reach to count as converged.
pub(crate) const CONVERGED_SHARE: f64 = 0.75;

/// Drives `reps` fleets built by `make` through [`run_observed`] and
/// returns per-rep means of (rounds from `resume` to the first round at
/// or after it with best-option share ≥ [`CONVERGED_SHARE`] — censored
/// at `horizon` when never reached, share over the back half of the
/// run, `count` of the fleet's metrics per round). One code path
/// measures every execution model through the shared
/// [`ProtocolRuntime`] surface (E17 and E19).
pub(crate) fn converge_stats<Rt: ProtocolRuntime>(
    make: impl Fn(u64) -> Rt + Sync,
    env: &BernoulliRewards,
    resume: u64,
    horizon: u64,
    reps: u64,
    seed: u64,
    count: impl Fn(&Metrics) -> u64 + Sync,
) -> [f64; 3] {
    let cfg = RunConfig::new(horizon);
    let outcomes = replicate(reps, seed, |seed| {
        // The runtime seed is salted: the runtimes ignore the caller
        // RNG, so an unsalted seed would alias the protocol stream with
        // the reward stream.
        let mut net = make(seed ^ 0xD157_5EED);
        let mut first_hit: Option<u64> = None;
        let mut tail_share = 0.0;
        run_observed(&mut net, env.clone(), &cfg, seed, |t, dist| {
            if t >= resume.max(1) && first_hit.is_none() && dist[0] >= CONVERGED_SHARE {
                first_hit = Some(t);
            }
            if t > horizon / 2 {
                tail_share += dist[0];
            }
        });
        let metrics = net.metrics();
        [
            first_hit.unwrap_or(horizon).saturating_sub(resume) as f64,
            tail_share / (horizon - horizon / 2) as f64,
            count(&metrics) as f64 / metrics.rounds as f64,
        ]
    });
    column_means(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_ordered() {
        let reg = registry();
        assert_eq!(reg.len(), 18);
        // Ids are unique and strictly increasing ("E18" is reserved
        // for the changing-worlds sweep, so the sequence may gap).
        let nums: Vec<u64> = reg
            .iter()
            .map(|e| e.id[1..].parse().expect("numeric id"))
            .collect();
        for pair in nums.windows(2) {
            assert!(pair[0] < pair[1], "registry ids out of order: {nums:?}");
        }
        for e in &reg {
            assert!(e.id.starts_with('E'));
            assert!(!e.title.is_empty());
            assert!(!e.claim.is_empty());
        }
    }

    #[test]
    fn unknown_id_is_error() {
        let ctx = ExpContext::new(std::env::temp_dir().join("sociolearn_exp_test"), true, 1);
        assert!(run_by_id("E99", &ctx).is_err());
    }

    #[test]
    fn context_pick() {
        let q = ExpContext::new("/tmp", true, 0);
        let f = ExpContext::new("/tmp", false, 0);
        assert_eq!(q.pick(1, 2), 1);
        assert_eq!(f.pick(1, 2), 2);
    }

    #[test]
    fn report_render_contains_verdict() {
        let r = ExperimentReport {
            id: "E0",
            title: "t",
            markdown: "body".into(),
            pass: true,
            artifacts: vec!["a.csv".into()],
        };
        let text = r.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("body"));
        assert!(text.contains("a.csv"));
    }
}
