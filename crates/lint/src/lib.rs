//! `detlint` — the workspace determinism-and-soundness lint pass.
//!
//! Every claim this reproduction makes — seed-pinned trajectories,
//! byte-identical metrics across shard counts, KS law-equivalence of
//! the execution models — rests on a determinism discipline that
//! proptests can only check *after the fact*. This crate enforces the
//! discipline *statically*: a hand-rolled [`lexer`] (std-only — this
//! environment has no registry access) feeds a token-pattern rule
//! engine ([`rules`]) that scans the workspace sources ([`scan`]) for
//! the named invariants:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D1 | no `HashMap`/`HashSet` in runtime-crate non-test code |
//! | D2 | no wall clock / OS entropy outside tests and benches |
//! | D3 | library RNG seeds must flow through the SplitMix64 seed tree |
//! | D4 | every `unsafe` carries a `// SAFETY:` comment |
//! | D5 | no bare narrowing `as` casts in `crates/dist` index math |
//! | D6 | no public library item that only its own file names |
//! | W1 | waivers must be well-formed and carry a reason |
//! | W2 | waivers must actually suppress something |
//!
//! Legitimate exceptions are waived inline and stay grep-able:
//!
//! ```text
//! // detlint: allow(D2) — wall-clock stopwatch for the progress line only
//! ```
//!
//! Output is machine-readable (`file:line rule message`), one finding
//! per line; the `detlint` binary exits 0 when clean, 1 on findings,
//! 2 on usage or I/O errors — see `src/main.rs` for the CI entry
//! point, and `tests/` for the fixture-driven golden suite plus the
//! live-workspace self-test.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod scan;

pub use rules::{Finding, Rule};
pub use scan::{
    check_source, check_sources, scan_workspace, FileCtx, ScanReport, RUNTIME_CRATES,
    SURFACE_CRATES,
};
