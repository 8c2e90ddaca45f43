// fails: clippy::disallowed_macros
// Per-thread state: two `Sim`s on one thread would share it.

use std::cell::Cell;

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

pub fn depth() -> u32 {
    DEPTH.with(Cell::get)
}
