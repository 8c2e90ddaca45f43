// Fixture: a reasonless allow. Expected findings: bad-allow for the
// directive AND wall-clock for the line it failed to cover.

fn measured() -> std::time::Duration {
    // simlint: allow(wall-clock)
    let t0 = std::time::Instant::now();
    t0.elapsed()
}

// A reasoned allow naming a rule that no longer exists: reported as
// bad-allow, never accepted silently.
fn stale() -> u32 {
    // simlint: allow(actor-blocks, reason = "on_wake reaches a sleep")
    7
}
