//@ path: crates/graph/src/fixture.rs
// D6 negative space: every item here is reached from a place that
// counts as a caller.
pub fn from_other_crate() {}

pub fn from_root_test() {}

pub fn from_benchmark() {}

pub enum FromReadme {
    A,
}

pub trait FromExperiment {}

pub type ViaField = u32;

pub struct Config {
    pub size: ViaField,
}

pub fn config() -> Config {
    Config { size: 1 }
}
//@ path: crates/experiments/src/fixture.rs
use sociolearn_graph::FromExperiment;

fn shipped() {
    sociolearn_graph::from_other_crate();
    let _ = sociolearn_graph::config();
}

impl FromExperiment for u8 {}
//@ path: tests/fixture.rs
#[test]
fn root_tests_reach() {
    sociolearn_graph::from_root_test();
}
//@ path: perfbench/src/main.rs
fn main() {
    sociolearn_graph::from_benchmark();
}
//@ path: README.md
let _ = sociolearn_graph::FromReadme::A;
//@ path: crates/dist/src/fixture.rs
// `dist` is outside D6's scope for now: its surface shrinks once the
// benchmark stops timing its calendar directly.
pub fn unreached_but_out_of_scope() {}
