//@ path: crates/graph/benches/fixture.rs
// Path-level exemption: a `benches/` directory, like `tests/`, is
// test code, where wall-clock timing is the point.
pub fn measure(f: impl Fn()) -> std::time::Duration {
    let start = std::time::Instant::now();
    f();
    start.elapsed()
}
