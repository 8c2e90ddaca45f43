//! Every banned call here carries a reasoned `#[expect]`, as the host
//! timers in `bench` do.

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "operator-facing wall time of a host benchmark"
)]
pub fn measured() -> std::time::Duration {
    let t0 = std::time::Instant::now();
    t0.elapsed()
}

#[expect(clippy::disallowed_methods, reason = "an intentionally native baseline")]
pub fn native() {
    let h = std::thread::spawn(|| ());
    let _ = h.join();
}
