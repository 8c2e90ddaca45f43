// fails: clippy::disallowed_methods clippy::disallowed_types
// Host clock reads: each `now()` and the types they return. A mention in a
// string or a comment is not code: "Instant::now", Instant::now.

pub fn host_elapsed() -> std::time::Duration {
    let t0 = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _label = "Instant::now";
    t0.elapsed()
}

/// A reconcile loop stamping its tick off the host clock instead of a
/// virtual ticker: its decisions would follow the host, not the seed.
pub fn reconcile_tick(mut on_tick: impl FnMut()) {
    let _tick_started = std::time::Instant::now();
    on_tick();
}
