// Fixture: statics that hold nothing mutable, a reasoned allow, and test
// state. Expected findings: none.

use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, OnceLock};

static LABEL: &'static str = "tier";
static LIMITS: [u64; 2] = [1, 2];

// simlint: allow(global-state, reason = "a content-addressed cache: which copy a caller gets is not observable")
static CACHE: OnceLock<Mutex<Vec<String>>> = OnceLock::new();

#[cfg(test)]
mod tests {
    static CALLS: super::AtomicU64 = super::AtomicU64::new(0);
}
