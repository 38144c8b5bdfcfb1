//! Fixture-driven golden tests for every detlint rule.
//!
//! Each `fixtures/*.rs` file is self-describing:
//!
//! - line 1 is `//@ path: <pretend workspace path>` — the path the
//!   source is linted *as*, which decides rule scoping. A later
//!   `//@ path:` line starts another pretend file: a fixture with
//!   several files is linted as a whole workspace, so it can exercise
//!   D6, the one rule that reads across files;
//! - every line expected to produce findings carries a trailing
//!   `//~ CODE [CODE ...]` marker, stripped from the source before
//!   linting so the marker itself can never interfere (in particular
//!   with waiver reasons).
//!
//! The harness asserts the exact (path, line, rule) multiset per
//! fixture, that all eight rules are exercised somewhere, and that the
//! clean fixtures really are clean.

use sociolearn_lint::{check_source, check_sources};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// One pretend file of a fixture: its path, its marker-stripped
/// source, and its expected sorted `(line, code)` pairs.
struct Section {
    pretend: String,
    cleaned: String,
    expected: Vec<(u32, String)>,
}

/// Parses one fixture into its pretend files. Line numbers count from
/// each file's own `//@ path:` line.
fn parse_fixture(raw: &str, name: &str) -> Vec<Section> {
    assert!(
        raw.starts_with("//@ path:"),
        "{name}: line 1 must be `//@ path: <pretend path>`"
    );
    let mut sections: Vec<Section> = Vec::new();
    let mut lineno = 0u32;
    for line in raw.lines() {
        if let Some(path) = line.strip_prefix("//@ path:") {
            sections.push(Section {
                pretend: path.trim().to_string(),
                cleaned: String::new(),
                expected: Vec::new(),
            });
            lineno = 0;
        }
        lineno += 1;
        let section = sections.last_mut().expect("a path line comes first");
        match line.find("//~") {
            Some(at) => {
                for code in line[at + 3..].split_whitespace() {
                    section.expected.push((lineno, code.to_string()));
                }
                section.cleaned.push_str(line[..at].trim_end());
            }
            None => section.cleaned.push_str(line),
        }
        section.cleaned.push('\n');
    }
    for section in &mut sections {
        section.expected.sort();
    }
    sections
}

/// The findings for a parsed fixture, as sorted `(path, line, code)`.
fn lint(sections: &[Section]) -> Vec<(String, u32, String)> {
    let findings = if let [one] = sections {
        check_source(&one.pretend, &one.cleaned)
    } else {
        let files: Vec<(&str, &str)> = sections
            .iter()
            .map(|s| (s.pretend.as_str(), s.cleaned.as_str()))
            .collect();
        check_sources(&files)
    };
    let mut got: Vec<(String, u32, String)> = findings
        .into_iter()
        .map(|f| (f.path, f.line, f.rule.code().to_string()))
        .collect();
    got.sort();
    got
}

#[test]
fn fixtures_match_their_markers() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 18,
        "expected the full fixture set, found {}",
        paths.len()
    );

    let mut codes_fired: BTreeSet<String> = BTreeSet::new();
    let mut clean_fixtures = 0usize;
    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let raw = std::fs::read_to_string(path).expect("read fixture");
        let sections = parse_fixture(&raw, &name);
        let mut expected: Vec<(String, u32, String)> = sections
            .iter()
            .flat_map(|s| {
                s.expected
                    .iter()
                    .map(|(line, code)| (s.pretend.clone(), *line, code.clone()))
            })
            .collect();
        expected.sort();
        let got = lint(&sections);
        assert_eq!(
            got, expected,
            "{name}: findings disagree with //~ markers\n\
             got:      {got:?}\nexpected: {expected:?}"
        );
        if expected.is_empty() {
            clean_fixtures += 1;
        }
        codes_fired.extend(expected.into_iter().map(|(_, _, c)| c));
    }
    for code in ["D1", "D2", "D3", "D4", "D5", "D6", "W1", "W2"] {
        assert!(
            codes_fired.contains(code),
            "no fixture exercises {code} firing"
        );
    }
    assert!(
        clean_fixtures >= 6,
        "expected at least six non-firing fixtures, found {clean_fixtures}"
    );
}

#[test]
fn fixture_headers_span_the_scoping_matrix() {
    // The exemption story is only tested if fixtures actually claim
    // the exempting locations.
    let mut pretends = BTreeSet::new();
    for entry in std::fs::read_dir(fixture_dir()).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let raw = std::fs::read_to_string(&path).expect("read fixture");
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            pretends.extend(parse_fixture(&raw, &name).into_iter().map(|s| s.pretend));
        }
    }
    for needed in [
        "crates/dist/src/fixture.rs",      // D5 home turf
        "crates/dist/tests/fixture.rs",    // tests-path exemption
        "crates/graph/benches/fixture.rs", // benches-path exemption
        "crates/experiments/src/main.rs",  // entry-point D3 exemption
        "examples/fixture.rs",             // example exemption
        "crates/stats/src/fixture.rs",     // non-runtime-crate D1 exemption
    ] {
        assert!(
            pretends.contains(needed),
            "no fixture lints as {needed}; scoping for it is untested"
        );
    }
}
