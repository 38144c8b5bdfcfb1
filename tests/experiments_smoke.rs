//! Smoke tests of the reproduction suite through its public API: every
//! registered experiment runs in quick mode, passes its paper check,
//! and writes its artifacts.

use sociolearn::experiments::{registry, run_by_id, ExpContext, ExperimentReport};

/// A context on an emptied out dir, so every file found there was
/// written by this test.
fn ctx(tag: &str) -> ExpContext {
    let dir = std::env::temp_dir().join(format!("sociolearn_smoke_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    ExpContext::new(dir, true, 20170508)
}

/// Runs `id` and checks that every artifact it reports, and its
/// `Exx.md`, is in the out dir.
fn run_written(id: &str, ctx: &ExpContext) -> ExperimentReport {
    let report = run_by_id(id, ctx).expect("experiment runs");
    let md = format!("{id}.md");
    for name in report.artifacts.iter().chain([&md]) {
        assert!(ctx.path(name).is_file(), "{id}: {name} missing");
    }
    report
}

#[test]
fn registry_covers_all_paper_claims() {
    let reg = registry();
    assert_eq!(reg.len(), 18);
    // Spot-check that the headline theorems are represented.
    let titles: Vec<&str> = reg.iter().map(|e| e.title).collect();
    assert!(titles.iter().any(|t| t.contains("Theorem 4.3")));
    assert!(titles.iter().any(|t| t.contains("Theorem 4.4")));
    assert!(titles.iter().any(|t| t.contains("Lemma 4.5")));
    assert!(titles.iter().any(|t| t.contains("Theorem 4.6")));
}

#[test]
fn headline_theorem_experiments_pass_and_write_artifacts() {
    let ctx = ctx("headline");
    for id in ["E1", "E4"] {
        let report = run_written(id, &ctx);
        assert!(report.pass, "{id} failed:\n{}", report.render());
        assert!(report.artifacts.contains(&format!("{id}.csv")));
    }
}

#[test]
fn mechanism_experiments_pass() {
    let ctx = ctx("mechanism");
    for id in ["E7", "E8", "E13"] {
        let report = run_written(id, &ctx);
        assert!(report.pass, "{id} failed:\n{}", report.render());
    }
}

#[test]
fn extension_experiments_pass() {
    let ctx = ctx("extension");
    for id in ["E11", "E15", "E17", "E19"] {
        let report = run_written(id, &ctx);
        assert!(report.pass, "{id} failed:\n{}", report.render());
    }
}

#[test]
fn reports_mention_their_seeds() {
    let ctx = ctx("seeded");
    let report = run_written("E2", &ctx);
    assert!(
        report.markdown.contains("20170508"),
        "report should cite its seed for reproducibility"
    );
}
