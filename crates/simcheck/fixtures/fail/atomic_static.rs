// fails: clippy::disallowed_types
// A process-wide sequence: two `Sim`s in one process would share it, so
// names would depend on which ran first.

use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

pub fn next_name() -> String {
    format!("worker-{}", SEQ.fetch_add(1, Ordering::Relaxed))
}
