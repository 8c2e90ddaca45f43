//! Virtual time may flow anywhere: a wire message stamped from the
//! simulated clock is deterministic.

use std::time::Duration;

/// A stand-in for the kernel's virtual clock.
pub struct Clock {
    now: Duration,
}

pub struct Announce {
    pub seq: u32,
    pub sent_ms: u64,
}

pub fn announce(clock: &Clock, seq: u32) -> Announce {
    Announce { seq, sent_ms: clock.now.as_millis() as u64 }
}
