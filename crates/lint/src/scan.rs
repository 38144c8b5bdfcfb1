//! Path-level rule scoping, waiver application, and the workspace
//! walk.
//!
//! The scanned tree is `src/`, `crates/`, `tests/`, and `examples/`
//! under the workspace root. `vendor/` (offline shims standing in for
//! external crates), `target/`, and this crate's own deliberately
//! firing `fixtures/` are excluded.

use crate::lexer::lex;
use crate::rules::{self, ActiveRules, Finding, Rule};
use std::path::{Path, PathBuf};

/// The crates whose non-test sources are on the deterministic runtime
/// path: anything here that iterates a hash map or reads a clock can
/// reach RNG draws, metrics, or message schedules.
pub const RUNTIME_CRATES: [&str; 6] = ["core", "dist", "network", "graph", "env", "sim"];

/// Where a file sits in the workspace, derived purely from its
/// relative path. Decides which rules are active before any in-file
/// `#[cfg(test)]` scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCtx {
    /// `crates/<name>/...` → `Some(name)`; root `src`/`tests`/
    /// `examples` → `None`.
    pub crate_name: Option<String>,
    /// Under a `tests/` or `benches/` directory.
    pub test_path: bool,
    /// Under `examples/`.
    pub example: bool,
    /// A binary entry point: `src/main.rs` or under `src/bin/`.
    pub entry_point: bool,
    /// Library source: under some `src/` and not an entry point.
    pub lib_src: bool,
}

impl FileCtx {
    /// Classifies a workspace-relative, `/`-separated path.
    pub fn classify(rel: &str) -> FileCtx {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
            Some(parts[1].to_string())
        } else {
            None
        };
        let test_path = parts.iter().any(|p| *p == "tests" || *p == "benches");
        let example = parts.contains(&"examples");
        let in_src = parts.contains(&"src");
        let entry_point = in_src
            && (parts.last() == Some(&"main.rs") || parts.windows(2).any(|w| w == ["src", "bin"]));
        FileCtx {
            crate_name,
            test_path,
            example,
            entry_point,
            lib_src: in_src && !entry_point,
        }
    }

    /// The path-level rule activation for this file. In-file
    /// `#[cfg(test)]` regions are subtracted later, by the checker.
    pub fn active_rules(&self) -> ActiveRules {
        let non_test = !self.test_path;
        ActiveRules {
            // D1: runtime crates' shipped sources only.
            d1: non_test
                && self
                    .crate_name
                    .as_deref()
                    .is_some_and(|c| RUNTIME_CRATES.contains(&c))
                && (self.lib_src || self.entry_point),
            // D2: everywhere but tests and benches — entry points and
            // examples included, so their legitimate stopwatches carry
            // visible waivers.
            d2: non_test,
            // D3: library sources only. Entry points (bins, examples)
            // own the root seed, so a literal there IS the seed tree
            // root; benches pin seeds for stable measurement.
            d3: non_test && self.lib_src && !self.example,
            // D4: everywhere, tests included — SAFETY discipline has
            // no test exemption.
            d4: true,
            // D5: dist's shipped sources only.
            d5: non_test
                && self.crate_name.as_deref() == Some("dist")
                && (self.lib_src || self.entry_point),
        }
    }
}

/// Lints one file's source text as if it lived at `rel_path`. This is
/// the whole pipeline — lex, scope, check, apply waivers, waiver
/// hygiene — and is what both the workspace walk and the fixture
/// tests call.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let ctx = FileCtx::classify(rel_path);
    let active = ctx.active_rules();
    let lexed = lex(src);
    let regions = rules::test_regions(&lexed);
    let raw = rules::check(rel_path, &lexed, active, &regions);

    let tok_lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
    let waivers = rules::parse_waivers(&lexed.comments, |from| {
        tok_lines.iter().copied().find(|&l| l >= from)
    });

    let mut used = vec![false; waivers.len()];
    let mut out = Vec::new();
    for f in raw {
        let mut waived = false;
        for (i, w) in waivers.iter().enumerate() {
            if w.has_reason
                && w.bad_code.is_none()
                && w.covers == f.line
                && w.rules.contains(&f.rule)
            {
                used[i] = true;
                waived = true;
            }
        }
        if !waived {
            out.push(f);
        }
    }
    out.extend(waiver_hygiene(rel_path, &waivers, &used));
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// W1/W2 findings for the parsed waivers: malformed or reasonless
/// waivers (W1), and well-formed waivers that suppressed nothing (W2).
fn waiver_hygiene(path: &str, waivers: &[rules::Waiver], used: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (w, &was_used) in waivers.iter().zip(used) {
        if let Some(bad) = &w.bad_code {
            out.push(Finding {
                path: path.to_string(),
                line: w.line,
                rule: Rule::W1,
                message: format!(
                    "malformed waiver: `{bad}` is not a known rule or allow(...) form"
                ),
            });
            continue;
        }
        if !w.has_reason {
            out.push(Finding {
                path: path.to_string(),
                line: w.line,
                rule: Rule::W1,
                message: "waiver is missing its reason: write `// detlint: allow(Dx) — <why>`"
                    .to_string(),
            });
            continue;
        }
        if !was_used {
            out.push(Finding {
                path: path.to_string(),
                line: w.line,
                rule: Rule::W2,
                message: format!(
                    "unused waiver for {}: it suppresses nothing on line {}; remove it",
                    w.rules
                        .iter()
                        .map(|r| r.code())
                        .collect::<Vec<_>>()
                        .join(","),
                    w.covers
                ),
            });
        }
    }
    out
}

/// The result of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Scans every `.rs` file under `root`'s `src/`, `crates/`, `tests/`,
/// and `examples/` trees (excluding `vendor/`, `target/`, and
/// `crates/lint/fixtures/`), in sorted order so output and exit codes
/// are as deterministic as the code they gate.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut report = ScanReport::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/lint/fixtures/") {
            continue;
        }
        let src = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        report.findings.extend(check_source(&rel, &src));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let c = FileCtx::classify("crates/dist/src/calendar.rs");
        assert_eq!(c.crate_name.as_deref(), Some("dist"));
        assert!(c.lib_src && !c.test_path && !c.example && !c.entry_point);
        let t = FileCtx::classify("crates/dist/tests/faults.rs");
        assert!(t.test_path);
        let e = FileCtx::classify("examples/quickstart.rs");
        assert!(e.example && e.crate_name.is_none());
        let m = FileCtx::classify("crates/experiments/src/main.rs");
        assert!(m.entry_point && !m.lib_src);
        let b = FileCtx::classify("crates/sim/benches/pool.rs");
        assert!(b.test_path && b.crate_name.as_deref() == Some("sim"));
    }

    #[test]
    fn scoping_matrix() {
        let dist = FileCtx::classify("crates/dist/src/lib.rs").active_rules();
        assert!(dist.d1 && dist.d2 && dist.d3 && dist.d4 && dist.d5);
        let stats = FileCtx::classify("crates/stats/src/ks.rs").active_rules();
        assert!(!stats.d1 && stats.d2 && stats.d3 && stats.d4 && !stats.d5);
        let example = FileCtx::classify("examples/quickstart.rs").active_rules();
        assert!(!example.d1 && example.d2 && !example.d3 && example.d4);
        // A `benches/` directory is test code, even in a runtime crate.
        let bench = FileCtx::classify("crates/sim/benches/pool.rs").active_rules();
        assert!(!bench.d1 && !bench.d2 && !bench.d3 && bench.d4);
        let test = FileCtx::classify("tests/equivalence.rs").active_rules();
        assert!(!test.d1 && !test.d2 && !test.d3 && test.d4);
        let main = FileCtx::classify("crates/experiments/src/main.rs").active_rules();
        assert!(main.d2 && !main.d3);
    }

    #[test]
    fn waiver_suppresses_and_is_counted_used() {
        let src = "// detlint: allow(D1) — dedup set, drained in sorted order\nuse std::collections::HashSet;\n";
        let findings = check_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "use std::collections::HashSet; // detlint: allow(D1) — bounded probe set\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unused_waiver_fires_w2() {
        let src = "// detlint: allow(D1) — nothing here\nlet x = 1;\n";
        let findings = check_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::W2);
    }

    #[test]
    fn reasonless_waiver_fires_w1_and_does_not_suppress() {
        let src = "// detlint: allow(D1)\nuse std::collections::HashSet;\n";
        let rules: Vec<Rule> = check_source("crates/core/src/x.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec![Rule::W1, Rule::D1]);
    }

    #[test]
    fn wrong_rule_waiver_does_not_suppress() {
        let src = "// detlint: allow(D2) — misdirected\nuse std::collections::HashSet;\n";
        let rules: Vec<Rule> = check_source("crates/core/src/x.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        // The D1 finding survives and the D2 waiver is unused.
        assert!(rules.contains(&Rule::D1) && rules.contains(&Rule::W2));
    }
}
