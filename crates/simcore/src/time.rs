//! Virtual time for the simulation.
//!
//! [`SimTime`] is an absolute instant on the simulated clock, measured in
//! nanoseconds since the start of the run. Durations are plain
//! [`std::time::Duration`] values, so application code reads naturally
//! (`ctx.sleep(Duration::from_micros(90))`).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

use crate::codec::Wire;

/// An absolute instant on the simulated clock.
///
/// `SimTime` is a monotone, deterministic clock: it only advances when the
/// simulation kernel processes events, never because of wall-clock time.
///
/// # Examples
///
/// ```
/// use simcore::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(3);
/// assert_eq!(t.as_nanos(), 3_000_000);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Wire)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// Creates a `SimTime` from a nanosecond count.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Creates a `SimTime` a whole number of seconds after the start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime { nanos: secs * 1_000_000_000 }
    }

    /// Creates a `SimTime` a whole number of milliseconds after the start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime { nanos: ms * 1_000_000 }
    }

    /// Creates a `SimTime` a whole number of microseconds after the start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime { nanos: us * 1_000 }
    }

    /// Nanoseconds since the start of the simulation.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds since the start of the simulation, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(
            self.nanos
                .checked_sub(earlier.nanos)
                .expect("duration_since: earlier instant is later than self"),
        )
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }

    /// Adds a duration, saturating at the maximum representable instant.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime { nanos: self.nanos.saturating_add(d.as_nanos().min(u64::MAX as u128) as u64) }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.nanos / 1_000_000_000;
        let frac = self.nanos % 1_000_000_000;
        write!(f, "{s}.{:06}s", frac / 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::ZERO + Duration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        let t2 = t + Duration::from_secs(1);
        assert_eq!(t2.as_nanos(), 1_000_005_000);
    }

    #[test]
    fn duration_since() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(25);
        assert_eq!(b.duration_since(a), Duration::from_millis(15));
        assert_eq!(b - a, Duration::from_millis(15));
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier instant is later")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::from_millis(1).duration_since(SimTime::from_millis(2));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::from_secs(1) == SimTime::from_millis(1000));
    }

    #[test]
    fn display_is_seconds_with_micros() {
        let t = SimTime::from_nanos(1_234_567_890);
        assert_eq!(t.to_string(), "1.234567s");
        assert_eq!(format!("{:?}", t), "SimTime(1.234567s)");
    }

    #[test]
    fn saturating_add_caps() {
        let t = SimTime::from_nanos(u64::MAX - 1);
        let t2 = t.saturating_add(Duration::from_secs(10));
        assert_eq!(t2.as_nanos(), u64::MAX);
    }

    #[test]
    fn as_secs_f64() {
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
