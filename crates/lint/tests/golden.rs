//! Fixture-driven golden tests for every detlint rule.
//!
//! Each `fixtures/*.rs` file is self-describing:
//!
//! - line 1 is `//@ path: <pretend workspace path>` — the path the
//!   source is linted *as*, which decides rule scoping;
//! - every line expected to produce findings carries a trailing
//!   `//~ CODE [CODE ...]` marker, stripped from the source before
//!   linting so the marker itself can never interfere (in particular
//!   with waiver reasons).
//!
//! The harness asserts the exact (line, rule) multiset per fixture,
//! that all seven rules are exercised somewhere, and that the clean
//! fixtures really are clean.

use sociolearn_lint::check_source;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Parses one fixture: (pretend path, marker-stripped source,
/// expected sorted (line, code) pairs).
fn parse_fixture(raw: &str, name: &str) -> (String, String, Vec<(u32, String)>) {
    let first = raw.lines().next().unwrap_or("");
    let pretend = first
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| panic!("{name}: line 1 must be `//@ path: <pretend path>`"))
        .trim()
        .to_string();
    let mut expected = Vec::new();
    let mut cleaned = String::new();
    for (i, line) in raw.lines().enumerate() {
        let lineno = (i + 1) as u32;
        match line.find("//~") {
            Some(at) => {
                for code in line[at + 3..].split_whitespace() {
                    expected.push((lineno, code.to_string()));
                }
                cleaned.push_str(line[..at].trim_end());
            }
            None => cleaned.push_str(line),
        }
        cleaned.push('\n');
    }
    expected.sort();
    (pretend, cleaned, expected)
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
        let (pretend, cleaned, expected) = parse_fixture(&raw, &name);
        let mut got: Vec<(u32, String)> = check_source(&pretend, &cleaned)
            .into_iter()
            .map(|f| (f.line, f.rule.code().to_string()))
            .collect();
        got.sort();
        assert_eq!(
            got, expected,
            "{name} (linted as {pretend}): findings disagree with //~ markers\n\
             got:      {got:?}\nexpected: {expected:?}"
        );
        if expected.is_empty() {
            clean_fixtures += 1;
        }
        codes_fired.extend(expected.into_iter().map(|(_, c)| c));
    }
    for code in ["D1", "D2", "D3", "D4", "D5", "W1", "W2"] {
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
            let (pretend, _, _) = parse_fixture(&raw, &path.file_name().unwrap().to_string_lossy());
            pretends.insert(pretend);
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
