//! Offline stand-in for `rand` 0.8.
//!
//! Provides [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen`], [`Rng::gen_range`] and [`Rng::gen_bool`] — the surface
//! this workspace uses. The generator is SplitMix64: deterministic per
//! seed (which is all the callers rely on — they compare same-seed runs,
//! not reference values of the real `StdRng`), full 64-bit state, passes
//! basic equidistribution smoke tests below.

use std::ops::Range;

/// Core 64-bit generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (`seed_from_u64` is the only constructor used here).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, blanket-implemented for every core rng.
pub trait Rng: RngCore {
    /// Samples from the "standard" distribution of `T` (uniform `[0, 1)`
    /// for floats, uniform over all values for integers).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from a range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable by [`Rng::gen`].
pub trait Standard {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        // 53 high bits → uniform [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer draw in `[0, span)` via 128-bit multiply-shift.
fn uniform_below<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}
impl_float_range!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand`'s
    /// `StdRng` (callers only require same-seed reproducibility).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    /// Every synthesized graph is a function of this stream, so its first
    /// outputs are pinned: SplitMix64's published sequence for seed 0
    /// (`0xe220a8397b1dcdaf`, `0x6e789e6aa1b965f4`) and the first four
    /// for seed 1.
    #[test]
    fn splitmix64_known_answers() {
        let mut zero = StdRng::seed_from_u64(0);
        assert_eq!(
            [zero.next_u64(), zero.next_u64()],
            [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4]
        );
        let mut one = StdRng::seed_from_u64(1);
        let first: Vec<u64> = (0..4).map(|_| one.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b,
            ]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn int_ranges_cover_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..100 {
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&v));
        }
    }
}
