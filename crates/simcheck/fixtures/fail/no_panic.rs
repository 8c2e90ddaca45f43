// fails: clippy::expect_used clippy::panic clippy::todo clippy::unimplemented clippy::unreachable clippy::unwrap_used
// Panics on the DSO path, denied at the crate root as `dso` does.
// `cfg(not(test))` code is not test code (`pass/no_panic.rs` has test
// code that may panic).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub fn handle(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn decode(x: Option<u8>) -> u8 {
    // invariant: a comment is not a reason the compiler reads.
    x.expect("undocumented")
}

pub fn route(kind: u8) -> u8 {
    match kind {
        0 => panic!("no route"),
        1 => todo!(),
        2 => unimplemented!(),
        3 => unreachable!(),
        k => k,
    }
}

#[cfg(not(test))]
pub fn stamp(x: Result<u8, String>) -> u8 {
    x.expect("kept out of test builds only")
}
