//! The determinism rules D1–D5 plus the waiver-hygiene rules W1/W2,
//! as token-pattern checks over [`crate::lexer::Lexed`] streams.
//!
//! Each rule is named, documented, and scoped (see
//! [`crate::scan::FileCtx`] for the path-level scoping and
//! [`test_regions`] for the in-file `#[cfg(test)]` scoping). A rule
//! hit can be silenced with an inline waiver comment
//!
//! ```text
//! // detlint: allow(D1) — <non-empty reason>
//! ```
//!
//! placed on the offending line or alone on the line above it.
//! Waivers must carry a reason (W1 otherwise) and must actually
//! suppress something (W2 otherwise), so every exception in the tree
//! stays visible and grep-able.

use crate::lexer::{Comment, Lexed, Tok, TokKind};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in runtime-crate non-test code:
    /// iteration order is nondeterministic and can reach RNG draws,
    /// metrics, or message schedules.
    D1,
    /// No wall clock or OS entropy (`Instant::now`, `SystemTime`,
    /// `thread_rng`, `from_entropy`, `OsRng`) outside tests and
    /// benches.
    D2,
    /// Seed discipline: RNG construction in library code must flow
    /// through the SplitMix64 seed tree (`sociolearn_sim::SeedTree`),
    /// never an ad-hoc literal seed.
    D3,
    /// Every `unsafe` must carry a `// SAFETY:` comment on the same
    /// or the immediately preceding line.
    D4,
    /// No bare narrowing `as` casts in `crates/dist` node-id /
    /// shard-index arithmetic: use the checked helpers in
    /// `sociolearn_dist`'s `cast` module (or `try_into`).
    D5,
    /// Waiver hygiene: a `detlint: allow(...)` comment that is
    /// malformed or missing its reason.
    W1,
    /// Waiver hygiene: a well-formed waiver that suppresses nothing.
    W2,
}

impl Rule {
    /// The machine-readable rule code (`D1`, ..., `W2`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::W1 => "W1",
            Rule::W2 => "W2",
        }
    }

    /// Parses a rule code as written in waivers and fixtures.
    pub fn from_code(s: &str) -> Option<Rule> {
        Some(match s {
            "D1" => Rule::D1,
            "D2" => Rule::D2,
            "D3" => Rule::D3,
            "D4" => Rule::D4,
            "D5" => Rule::D5,
            "W1" => Rule::W1,
            "W2" => Rule::W2,
            _ => return None,
        })
    }

    /// One-line description, for `detlint --list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => {
                "no HashMap/HashSet in runtime crates (core, dist, network, graph, env, sim): \
                 hash iteration order is nondeterministic; use BTreeMap/BTreeSet or sorted keys"
            }
            Rule::D2 => {
                "no wall clock or OS entropy (Instant::now, SystemTime, thread_rng, \
                 from_entropy, OsRng) outside tests and benches"
            }
            Rule::D3 => {
                "seed discipline: library RNGs must derive from a caller-supplied seed via the \
                 SplitMix64 seed tree; no literal-seeded RNG construction outside tests, \
                 benches, and program entry points"
            }
            Rule::D4 => "every `unsafe` needs a `// SAFETY:` comment on the preceding line",
            Rule::D5 => {
                "no bare narrowing `as` casts (u8/u16/u32/i8/i16/i32/NodeState targets) in \
                 crates/dist node-id and shard-index arithmetic; use the crate's checked cast \
                 helpers or try_into"
            }
            Rule::W1 => "a `detlint: allow(...)` waiver must name known rules and carry a reason",
            Rule::W2 => "a waiver that suppresses no finding must be removed",
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 7] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::D5,
        Rule::W1,
        Rule::W2,
    ];
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl Finding {
    /// The machine-readable `file:line rule message` form consumed by
    /// CI and editors.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {} {}",
            self.path,
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// Inclusive 1-based line ranges of in-file test code: items behind
/// `#[cfg(test)]` / `#[cfg(any(test, ...))]` / `#[test]` attributes,
/// found by walking the token stream and brace-matching the item that
/// each such attribute decorates.
pub fn test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].text == "#" && matches(toks, i + 1, "[")) {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let (attr_toks, after) = attribute_span(toks, i + 1);
        if !is_test_attribute(&attr_toks) {
            i = after;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = after;
        while j < toks.len() && toks[j].text == "#" && matches(toks, j + 1, "[") {
            j = attribute_span(toks, j + 1).1;
        }
        // The item ends at the matching `}` of its first block, or at
        // the first `;` before any block opens.
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[j].line;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_line = toks[j].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

fn matches(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

fn kind_at(toks: &[Tok], i: usize) -> Option<TokKind> {
    toks.get(i).map(|t| t.kind)
}

/// Returns the tokens inside `[...]` starting at the `[` at `open`,
/// plus the index just past the closing `]`.
fn attribute_span(toks: &[Tok], open: usize) -> (Vec<String>, usize) {
    let mut inner = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (inner, j + 1);
                }
            }
            _ => inner.push(toks[j].text.clone()),
        }
        j += 1;
    }
    (inner, j)
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`,
/// `#[cfg_attr(test, ...)]` — anything that makes the decorated item
/// test-only (or a test harness entry).
fn is_test_attribute(attr: &[String]) -> bool {
    let has = |s: &str| attr.iter().any(|t| t == s);
    (has("cfg") || has("cfg_attr")) && has("test") || attr.len() == 1 && attr[0] == "test"
}

/// An inline waiver comment, parsed from trivia.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rules: Vec<Rule>,
    /// Line the waiver comment starts on.
    pub line: u32,
    /// The line whose findings this waiver suppresses: its own line
    /// when the comment trails code, otherwise the next code line.
    pub covers: u32,
    pub has_reason: bool,
    /// Unknown rule code, if any (makes the waiver malformed).
    pub bad_code: Option<String>,
}

/// Parses every waiver out of the comment trivia. A waiver must be a
/// plain comment whose content *starts* with `detlint:` — doc
/// comments (`///`, `//!`) and prose that merely quotes the syntax
/// are never waivers. `next_code_line(l)` must return the first line
/// `>= l` holding a code token, so a comment alone on its line can
/// cover the next code line.
pub fn parse_waivers(
    comments: &[Comment],
    mut next_code_line: impl FnMut(u32) -> Option<u32>,
) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in comments {
        let content = if let Some(r) = c.text.strip_prefix("//") {
            if r.starts_with('/') || r.starts_with('!') {
                continue; // doc comment: API prose, never a waiver
            }
            r
        } else if let Some(r) = c.text.strip_prefix("/*") {
            r
        } else {
            c.text.as_str()
        };
        let Some(rest) = content.trim_start().strip_prefix("detlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            // `detlint:` mentioned without `allow(...)`: treat as
            // malformed so typos fail loudly instead of silently not
            // waiving.
            out.push(Waiver {
                rules: Vec::new(),
                line: c.line,
                covers: c.line,
                has_reason: false,
                bad_code: Some(rest.split_whitespace().next().unwrap_or("").to_string()),
            });
            continue;
        };
        let args = args.trim_start();
        let (inside, tail) = match args.strip_prefix('(').and_then(|a| a.split_once(')')) {
            Some(pair) => pair,
            None => {
                out.push(Waiver {
                    rules: Vec::new(),
                    line: c.line,
                    covers: c.line,
                    has_reason: false,
                    bad_code: Some(args.split_whitespace().next().unwrap_or("").to_string()),
                });
                continue;
            }
        };
        let mut rules = Vec::new();
        let mut bad_code = None;
        for code in inside.split(',') {
            let code = code.trim();
            if code.is_empty() {
                continue;
            }
            match Rule::from_code(code) {
                Some(r) => rules.push(r),
                None => bad_code = Some(code.to_string()),
            }
        }
        if rules.is_empty() && bad_code.is_none() {
            bad_code = Some("<empty>".to_string());
        }
        // The reason is whatever follows the `)`, minus separator
        // punctuation. An em-dash, hyphen, or colon is conventional.
        let reason = tail
            .trim_start()
            .trim_start_matches(['—', '-', ':', '–'])
            .trim();
        let covers = if next_code_line(c.line).is_some_and(|l| l == c.line) {
            c.line
        } else {
            next_code_line(c.end_line + 1).unwrap_or(c.end_line)
        };
        out.push(Waiver {
            rules,
            line: c.line,
            covers,
            has_reason: !reason.is_empty(),
            bad_code,
        });
    }
    out
}

/// Which of D1–D5 are active for the file being scanned (path-level
/// scoping decided by [`crate::scan::FileCtx`]).
#[derive(Debug, Clone, Copy)]
pub struct ActiveRules {
    pub d1: bool,
    pub d2: bool,
    pub d3: bool,
    pub d4: bool,
    pub d5: bool,
}

/// D5's narrowing targets. `NodeState` is `crates/dist`'s `u32` alias
/// for a node's packed protocol state, so `as NodeState` is the same
/// truncation hazard spelled differently.
const NARROWING_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "NodeState"];

/// D2's single-identifier entropy/clock markers.
const D2_IDENTS: [&str; 4] = ["SystemTime", "thread_rng", "from_entropy", "OsRng"];

/// Runs the active rules over one lexed file, before waiver
/// application. `path` is only stamped into the findings.
pub fn check(path: &str, lexed: &Lexed, active: ActiveRules, tests: &[(u32, u32)]) -> Vec<Finding> {
    let toks = &lexed.toks;
    let in_tests = |line: u32| tests.iter().any(|&(a, b)| (a..=b).contains(&line));
    let mut out = Vec::new();
    let mut push = |line: u32, rule: Rule, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let exempt = in_tests(t.line);
        match t.text.as_str() {
            "HashMap" | "HashSet" if active.d1 && !exempt => push(
                t.line,
                Rule::D1,
                format!(
                    "`{}` in runtime code: hash iteration order is nondeterministic; use \
                     `BTree{}` or sorted iteration",
                    t.text,
                    &t.text[4..]
                ),
            ),
            "Instant"
                if active.d2
                    && !exempt
                    && matches(toks, i + 1, "::")
                    && matches(toks, i + 2, "now") =>
            {
                push(
                    t.line,
                    Rule::D2,
                    "`Instant::now()` reads the wall clock; runtime code must use virtual time"
                        .to_string(),
                )
            }
            name if active.d2 && !exempt && D2_IDENTS.contains(&name) => push(
                t.line,
                Rule::D2,
                format!("`{name}` draws on the OS clock/entropy; derive from the run seed instead"),
            ),
            "seed_from_u64"
                if active.d3
                    && !exempt
                    && matches(toks, i + 1, "(")
                    && kind_at(toks, i + 2) == Some(TokKind::Int) =>
            {
                push(
                    t.line,
                    Rule::D3,
                    "literal-seeded RNG in library code; derive the seed through \
                     `sociolearn_sim::SeedTree`"
                        .to_string(),
                )
            }
            "from_seed"
                if active.d3
                    && !exempt
                    && matches(toks, i + 1, "(")
                    && matches(toks, i + 2, "[") =>
            {
                push(
                    t.line,
                    Rule::D3,
                    "RNG built from an inline seed array; derive the seed through \
                     `sociolearn_sim::SeedTree`"
                        .to_string(),
                )
            }
            "SplitMix64" | "SeedTree"
                if active.d3
                    && !exempt
                    && matches(toks, i + 1, "::")
                    && matches(toks, i + 2, "new")
                    && matches(toks, i + 3, "(")
                    && kind_at(toks, i + 4) == Some(TokKind::Int) =>
            {
                push(
                    t.line,
                    Rule::D3,
                    format!(
                        "`{}::new` with a literal root seed in library code; the root seed must \
                         come from the caller",
                        t.text
                    ),
                )
            }
            "unsafe" if active.d4 => {
                let documented = lexed.comments.iter().any(|c| {
                    c.text.contains("SAFETY:") && (c.end_line + 1 == t.line || c.line == t.line)
                });
                if !documented {
                    push(
                        t.line,
                        Rule::D4,
                        "`unsafe` without a `// SAFETY:` comment on the preceding line".to_string(),
                    )
                }
            }
            "as" if active.d5
                && !exempt
                && kind_at(toks, i + 1) == Some(TokKind::Ident)
                && NARROWING_TARGETS.contains(&toks[i + 1].text.as_str()) =>
            {
                push(
                    t.line,
                    Rule::D5,
                    format!(
                        "bare `as {}` can silently truncate a node/shard index; use the crate's \
                         checked cast helpers or `try_into`",
                        toks[i + 1].text
                    ),
                )
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const ALL_ON: ActiveRules = ActiveRules {
        d1: true,
        d2: true,
        d3: true,
        d4: true,
        d5: true,
    };

    fn rules_of(src: &str) -> Vec<Rule> {
        let lexed = lex(src);
        let regions = test_regions(&lexed);
        check("f.rs", &lexed, ALL_ON, &regions)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn each_rule_fires_once() {
        assert_eq!(rules_of("use std::collections::HashMap;"), vec![Rule::D1]);
        assert_eq!(rules_of("let t = Instant::now();"), vec![Rule::D2]);
        assert_eq!(rules_of("let mut r = thread_rng();"), vec![Rule::D2]);
        assert_eq!(
            rules_of("let r = SmallRng::seed_from_u64(42);"),
            vec![Rule::D3]
        );
        assert_eq!(rules_of("unsafe { x() }"), vec![Rule::D4]);
        assert_eq!(rules_of("let v = n as u32;"), vec![Rule::D5]);
    }

    #[test]
    fn negative_space_stays_quiet() {
        assert!(rules_of("use std::collections::BTreeMap;").is_empty());
        assert!(rules_of("let dt = start.elapsed(); let i = Instant::from(x);").is_empty());
        assert!(rules_of("let r = SmallRng::seed_from_u64(tree.child(3));").is_empty());
        assert!(rules_of("// SAFETY: sound because reasons\nunsafe { x() }").is_empty());
        assert!(rules_of("let v = n as u64; let w = n as usize; let f = n as f64;").is_empty());
        assert!(rules_of("use foo::HashMapLike;").is_empty());
    }

    #[test]
    fn cfg_test_region_exempts_most_rules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    fn t() { let _ = Instant::now(); }\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn test_attribute_on_single_fn() {
        let src = "#[test]\nfn t() { let r = SmallRng::seed_from_u64(7); }\nfn live() { let r = SmallRng::seed_from_u64(7); }\n";
        assert_eq!(rules_of(src), vec![Rule::D3]);
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        let src = "// SAFETY: stale, far away\n\nfn gap() {}\nunsafe { x() }";
        assert_eq!(rules_of(src), vec![Rule::D4]);
    }

    #[test]
    fn waiver_parsing() {
        let lexed = lex("// detlint: allow(D1, D5) — keys drained in sorted order\nlet x = 1;");
        let toks = lexed.toks.clone();
        let ws = parse_waivers(&lexed.comments, |from| {
            toks.iter().map(|t| t.line).find(|&l| l >= from)
        });
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rules, vec![Rule::D1, Rule::D5]);
        assert!(ws[0].has_reason);
        assert_eq!(ws[0].covers, 2);
        assert!(ws[0].bad_code.is_none());
    }

    #[test]
    fn waiver_without_reason_or_with_bad_rule_is_malformed() {
        let lexed = lex("// detlint: allow(D1)\n// detlint: allow(D9) — what\nlet x = 1;");
        let ws = parse_waivers(&lexed.comments, |_| Some(3));
        assert!(!ws[0].has_reason);
        assert_eq!(ws[1].bad_code.as_deref(), Some("D9"));
    }
}
