// Fixture: process-wide mutable state. Expected findings: global-state at
// the atomic sequence, the lazily built table, the `static mut` and the
// `thread_local!` (once, for the block and the static inside it).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static SEQ: AtomicU64 = AtomicU64::new(0);
static NAMES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
static mut HITS: u64 = 0;
thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

// A plain static is a constant: no finding.
static GREETING: &str = "hello";

fn next_name() -> String {
    format!("worker-{}", SEQ.fetch_add(1, Ordering::Relaxed))
}
