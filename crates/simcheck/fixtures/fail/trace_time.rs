// fails: clippy::disallowed_methods
// A metric stamped from host time. The timer comes from a helper, so no
// type is written at the call; clippy still resolves `elapsed` to
// `Instant::elapsed`, so a host `Duration` cannot reach a metric.

use std::time::Duration;

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the helper is not the case: the call below is"
)]
fn host_timer() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn metric_record(_name: &str, _d: Duration) {}

pub fn traced() {
    let t0 = host_timer();
    metric_record("bench.op", t0.elapsed());
}
