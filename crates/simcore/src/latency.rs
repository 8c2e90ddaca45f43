//! Latency models for simulated links and services.

use std::time::Duration;

use crate::codec::Wire;
use rand::rngs::StdRng;
use rand::RngExt;

/// Jitter applied around a base latency.
#[derive(Copy, Clone, Debug, PartialEq, Wire)]
pub enum Jitter {
    /// No jitter; the latency is exactly the base.
    None,
    /// Uniform in `[base * (1 - frac), base * (1 + frac)]`.
    Uniform(f64),
    /// Exponential tail: `base * (1 + Exp(mean = frac))`. Models the
    /// long-tailed behaviour of object storage (cf. Fig. 6 in the paper).
    ExpTail(f64),
}

/// A sampled one-way latency: base plus jitter.
///
/// # Examples
///
/// ```
/// use simcore::LatencyModel;
/// use std::time::Duration;
///
/// let lan = LatencyModel::fixed(Duration::from_micros(90));
/// let mut rng = rand::SeedableRng::seed_from_u64(1);
/// assert_eq!(lan.sample(&mut rng), Duration::from_micros(90));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Wire)]
pub struct LatencyModel {
    /// Base one-way latency.
    pub base: Duration,
    /// Jitter around the base.
    pub jitter: Jitter,
}

impl LatencyModel {
    /// A constant latency with no jitter.
    pub const fn fixed(base: Duration) -> LatencyModel {
        LatencyModel { base, jitter: Jitter::None }
    }

    /// A latency with uniform jitter of `frac` around `base`.
    pub const fn uniform(base: Duration, frac: f64) -> LatencyModel {
        LatencyModel { base, jitter: Jitter::Uniform(frac) }
    }

    /// A latency with an exponential tail of mean `frac * base`.
    pub fn exp_tail(base: Duration, frac: f64) -> LatencyModel {
        LatencyModel { base, jitter: Jitter::ExpTail(frac) }
    }

    /// Samples a latency.
    pub fn sample(&self, rng: &mut StdRng) -> Duration {
        let base = self.base.as_secs_f64();
        let jittered = match self.jitter {
            Jitter::None => base,
            Jitter::Uniform(f) => {
                let lo = base * (1.0 - f);
                let hi = base * (1.0 + f);
                if hi > lo {
                    rng.random_range(lo..hi)
                } else {
                    base
                }
            }
            Jitter::ExpTail(f) => {
                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                base * (1.0 + f * (-u.ln()))
            }
        };
        Duration::from_secs_f64(jittered.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn fixed_has_no_jitter() {
        let m = LatencyModel::fixed(Duration::from_micros(250));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), Duration::from_micros(250));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::uniform(Duration::from_micros(100), 0.2);
        let mut r = rng();
        for _ in 0..1000 {
            let s = m.sample(&mut r);
            assert!(s >= Duration::from_micros(80), "{s:?}");
            assert!(s <= Duration::from_micros(120), "{s:?}");
        }
    }

    #[test]
    fn exp_tail_is_at_least_base_and_sometimes_long() {
        let m = LatencyModel::exp_tail(Duration::from_millis(20), 1.0);
        let mut r = rng();
        let samples: Vec<Duration> = (0..2000).map(|_| m.sample(&mut r)).collect();
        assert!(samples.iter().all(|s| *s >= Duration::from_millis(20)));
        // With mean tail = base, some samples should exceed 2x base.
        assert!(samples.iter().any(|s| *s > Duration::from_millis(40)));
    }

    #[test]
    fn deterministic_for_same_rng_state() {
        let m = LatencyModel::uniform(Duration::from_micros(500), 0.5);
        let a: Vec<_> = {
            let mut r = rng();
            (0..50).map(|_| m.sample(&mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = rng();
            (0..50).map(|_| m.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
