//! Output checks: every one counts as attempted, a false one as failed.

/// Tally of output checks made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

/// Failure messages kept for the report; later ones are only counted.
const KEPT_FAILURES: usize = 12;

impl Checks {
    /// Records one check; `what` describes it and is rendered only when
    /// it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < KEPT_FAILURES {
                self.first_failures.push(what());
            }
        }
    }

    /// Checks made so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of the first failed checks.
    pub fn first_failures(&self) -> &[String] {
        &self.first_failures
    }
}
