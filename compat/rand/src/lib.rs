//! Minimal in-tree replacement for the `rand` crate.
//!
//! Implements the subset the workspace uses: [`rngs::StdRng`] (an
//! xoshiro256++ generator), [`SeedableRng::seed_from_u64`], the
//! [`RngExt::random_range`] extension. Every generator is seeded: there is
//! no entropy-seeded constructor. Not cryptographically secure — the
//! simulation only needs fast, well-distributed, reproducible streams.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    /// Deterministic xoshiro256++ PRNG, the workspace's standard generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Next raw 64 random bits.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical way to seed xoshiro.
            let mut x = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *slot = z ^ (z >> 31);
            }
            // All-zero state would be a fixed point.
            if s == [0; 4] {
                s[0] = 1;
            }
            StdRng { s }
        }
    }
}

/// Construction from a small seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A half-open or inclusive range values of `T` can be drawn from
/// uniformly. The element type is a trait parameter (not an associated type)
/// so the caller's expected type drives inference of untyped range literals,
/// matching upstream rand (`let i: u32 = rng.random_range(0..120)`).
pub trait UniformRange<T> {
    /// Draws one value from `self`.
    fn sample_from(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! uniform_int {
    ($($ty:ty => $wide:ty),+ $(,)?) => {$(
        impl UniformRange<$ty> for Range<$ty> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $ty {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                // Lemire's multiply-shift maps 64 random bits onto the span.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as $wide).wrapping_add(hi as $wide) as $ty
            }
        }
        impl UniformRange<$ty> for RangeInclusive<$ty> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in random_range");
                if start == <$ty>::MIN && end == <$ty>::MAX {
                    return rng.next_u64() as $ty;
                }
                let span = (end as $wide).wrapping_sub(start as $wide) as u64 + 1;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (start as $wide).wrapping_add(hi as $wide) as $ty
            }
        }
    )+};
}

uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

macro_rules! uniform_float {
    ($($ty:ty),+) => {$(
        impl UniformRange<$ty> for Range<$ty> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $ty {
                assert!(self.start < self.end, "empty range in random_range");
                // 53 (or 24) high bits give a uniform value in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                self.start + (unit as $ty) * (self.end - self.start)
            }
        }
        impl UniformRange<$ty> for RangeInclusive<$ty> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
                start + (unit as $ty) * (end - start)
            }
        }
    )+};
}

uniform_float!(f32, f64);

/// Extension methods on random generators.
pub trait RngExt {
    /// Draws a uniform value from `range`.
    fn random_range<T, R: UniformRange<T>>(&mut self, range: R) -> T;

    /// Draws a uniform boolean with probability `p` of `true`.
    fn random_bool(&mut self, p: f64) -> bool;
}

impl RngExt for rngs::StdRng {
    #[inline]
    fn random_range<T, R: UniformRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        self.random_range(0.0..1.0) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = r.random_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }
}
