//@ path: crates/env/src/fixture.rs
// D6 waivers: a kept item carries its reason; a waiver on an item that
// is reached suppresses nothing and must go.
// detlint: allow(D6) — the next change gives this a caller
pub fn kept_for_a_planned_caller() {}

// detlint: allow(D6) — stale: the example calls this now //~ W2
pub fn called_by_example() {}
//@ path: examples/fixture.rs
fn main() {
    sociolearn_env::called_by_example();
}
