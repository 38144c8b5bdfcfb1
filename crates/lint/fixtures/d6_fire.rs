//@ path: crates/stats/src/fixture.rs
// D6: public items in a surface crate's library source must be named
// somewhere else. Each marked item is named only here, in a re-export,
// in the crate's own tests, or in another file's test module.
pub fn used_by_example() -> Returned {
    Returned
}

/// Reached through the signature of `used_by_example`.
pub struct Returned;

pub fn only_here() {} //~ D6

pub const LIMIT: u32 = 3; //~ D6

pub fn called_in_own_file() {} //~ D6

pub fn tested_only() {} //~ D6

pub fn named_in_a_test_module() {} //~ D6

pub const fn const_fn_only_here() -> u32 { //~ D6
    7
}

// Another file defining the same name does not reach it either.
pub fn defined_twice() {} //~ D6

pub(crate) fn narrowed() {
    called_in_own_file();
}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
//@ path: crates/stats/src/lib.rs
// A re-export names the items but does not use them.
pub use fixture::{only_here, LIMIT, Returned};

fn shipped() {
    super::narrowed();
}

pub fn defined_twice() {} //~ D6

#[cfg(test)]
mod tests {
    fn t() {
        super::fixture::named_in_a_test_module();
    }
}
//@ path: crates/stats/tests/fixture.rs
// A crate's own integration tests exist to test its items, not to
// use them.
#[test]
fn t() {
    tested_only();
    only_here();
}
//@ path: examples/fixture.rs
fn main() {
    let _ = used_by_example();
}
