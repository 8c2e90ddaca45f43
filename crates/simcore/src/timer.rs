//! Virtual-time timer helpers for daemon loops.
//!
//! Long-running simulated daemons (DSO heartbeats, the control plane's
//! reconcile loop) all share the same shape: wake periodically, do a little
//! work, go back to waiting — possibly while also serving a mailbox. The
//! hand-rolled version of that pattern (`next = now + interval` threaded
//! through a `recv_timeout` loop) is easy to get subtly wrong, so
//! [`Ticker`] packages it. Everything here is pure virtual time: the only
//! clock a `Ticker` ever sees is [`SimTime`], so identically-seeded runs
//! tick identically.
//!
//! # Examples
//!
//! A pure periodic daemon:
//!
//! ```
//! use simcore::{Sim, Ticker};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(1);
//! sim.spawn("ticker", |ctx| {
//!     let mut t = Ticker::new(ctx.now(), Duration::from_millis(100));
//!     for _ in 0..3 {
//!         t.wait(ctx);
//!     }
//!     assert_eq!(ctx.now(), simcore::SimTime::from_millis(300));
//! });
//! sim.run_until_idle().expect_quiescent();
//! ```

use std::time::Duration;

use crate::kernel::Ctx;
use crate::time::SimTime;

/// A periodic virtual-time timer for daemon loops.
///
/// Two usage styles:
///
/// * **Pure timer**: call [`Ticker::wait`] in a loop — it sleeps to the
///   next deadline and advances.
/// * **Timer + mailbox**: pass [`Ticker::remaining`] as the timeout of a
///   `recv_timeout`, then call [`Ticker::poll`] to test (and consume) a
///   due tick — the DSO server's heartbeat pattern.
///
/// Deadlines are *drift-tolerant*: firing re-arms at `now + interval`
/// rather than back-filling missed periods, so a daemon that overruns one
/// tick does not burst to catch up (membership heartbeats and reconcile
/// loops want pacing, not a fixed phase).
#[derive(Clone, Debug)]
pub struct Ticker {
    interval: Duration,
    next: SimTime,
}

impl Ticker {
    /// A ticker whose first deadline is `now + interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero: such a ticker is always due, so a
    /// daemon looping on [`Ticker::wait`] would spin at one instant forever.
    #[track_caller]
    pub fn new(now: SimTime, interval: Duration) -> Ticker {
        assert!(!interval.is_zero(), "Ticker interval must be non-zero");
        Ticker { interval, next: now + interval }
    }

    /// The period.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The next deadline.
    pub fn deadline(&self) -> SimTime {
        self.next
    }

    /// Time left until the next deadline ([`Duration::ZERO`] when due) —
    /// suitable as a `recv_timeout` timeout.
    pub fn remaining(&self, now: SimTime) -> Duration {
        self.next.saturating_duration_since(now)
    }

    /// Whether the deadline has arrived, consuming the tick: when due,
    /// re-arms at `now + interval` and returns `true`.
    pub fn poll(&mut self, now: SimTime) -> bool {
        if now >= self.next {
            self.next = now + self.interval;
            true
        } else {
            false
        }
    }

    /// Sleeps (in virtual time) until the next deadline and consumes the
    /// tick. Returns the fire time.
    pub fn wait(&mut self, ctx: &mut Ctx) -> SimTime {
        let rem = self.remaining(ctx.now());
        if !rem.is_zero() {
            ctx.sleep(rem);
        }
        let now = ctx.now();
        self.next = now + self.interval;
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;

    #[test]
    fn remaining_and_poll() {
        let t0 = SimTime::from_millis(10);
        let mut t = Ticker::new(t0, Duration::from_millis(100));
        assert_eq!(t.interval(), Duration::from_millis(100));
        assert_eq!(t.deadline(), SimTime::from_millis(110));
        assert_eq!(t.remaining(t0), Duration::from_millis(100));
        assert!(!t.poll(SimTime::from_millis(109)));
        assert!(t.poll(SimTime::from_millis(110)));
        // Re-armed relative to the fire time, not the old deadline.
        assert_eq!(t.deadline(), SimTime::from_millis(210));
        assert_eq!(t.remaining(SimTime::from_millis(250)), Duration::ZERO, "overdue clamps");
    }

    #[test]
    fn overrun_does_not_burst() {
        let mut t = Ticker::new(SimTime::ZERO, Duration::from_millis(100));
        // The daemon was busy for 350 ms: exactly one tick fires, and the
        // next deadline is one full interval later.
        assert!(t.poll(SimTime::from_millis(350)));
        assert!(!t.poll(SimTime::from_millis(350)));
        assert_eq!(t.deadline(), SimTime::from_millis(450));
    }

    #[test]
    #[should_panic(expected = "Ticker interval must be non-zero")]
    fn zero_interval_is_rejected() {
        let _ = Ticker::new(SimTime::ZERO, Duration::ZERO);
    }

    #[test]
    fn wait_advances_virtual_time() {
        let mut sim = Sim::new(3);
        sim.spawn("w", |ctx| {
            let mut t = Ticker::new(ctx.now(), Duration::from_millis(50));
            let first = t.wait(ctx);
            assert_eq!(first, SimTime::from_millis(50));
            let second = t.wait(ctx);
            assert_eq!(second, SimTime::from_millis(100));
        });
        sim.run_until_idle().expect_quiescent();
    }
}
