// fails: clippy::disallowed_methods clippy::disallowed_types
// Nondeterministic values laundered into a wire message. The clock read
// sits two helpers below the message and no line in `announce` names a
// clock API, but the read itself no longer compiles under `-D warnings`.
// A seeded hasher, and a std map whose type names no hasher, are the
// other sources.

use std::collections::HashMap;
use std::hash::BuildHasher;

pub struct Announce {
    pub seq: u32,
    pub sent_ms: u64,
}

fn raw_clock_ms() -> u64 {
    let t = std::time::SystemTime::now();
    t.duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

fn stamp_ms() -> u64 {
    raw_clock_ms()
}

pub fn announce(seq: u32) -> Announce {
    Announce { seq, sent_ms: stamp_ms() }
}

pub fn host_entropy() -> u64 {
    std::collections::hash_map::RandomState::new().hash_one(0x5eed_u64)
}

pub struct Index {
    pub by_name: HashMap<String, u64>,
}
