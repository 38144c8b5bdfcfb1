//! Runs the full E1–E19 reproduction suite (18 experiments) in quick
//! mode through the library API (the `experiments` binary offers the
//! same via CLI with full-size sweeps).
//!
//! ```text
//! cargo run --release --example reproduce
//! ```

#![forbid(unsafe_code)]

use sociolearn::experiments::{registry, run_by_id, ExpContext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExpContext::new("results", true, 20170508);
    println!(
        "running {} experiments (quick mode, seed {})\n",
        registry().len(),
        ctx.seed
    );
    let mut failures = Vec::new();
    for exp in registry() {
        // detlint: allow(D2) — wall-clock stopwatch for the per-experiment duration display; no simulated state depends on it
        let started = std::time::Instant::now();
        let report = run_by_id(exp.id, &ctx).map_err(std::io::Error::other)?;
        println!(
            "{:4} {:70} [{}] ({:.1?})",
            report.id,
            exp.title,
            if report.pass { "PASS" } else { "FAIL" },
            started.elapsed()
        );
        if !report.pass {
            failures.push(report.id);
        }
    }
    if failures.is_empty() {
        println!("\nall paper predictions reproduced; reports in results/");
        Ok(())
    } else {
        Err(format!("failed: {failures:?}").into())
    }
}
