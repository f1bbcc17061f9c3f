//! Offline dev stub of the `rand` 0.8 API surface this workspace uses:
//! `StdRng::seed_from_u64`, `Rng::gen_range`, `Rng::gen::<f64>()`.
//! Backed by SplitMix64; deterministic but NOT stream-compatible with
//! the real crate. Patched in by `.cargo/config.toml` for offline
//! builds.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    /// SplitMix64-backed stand-in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng(pub(crate) u64);
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
}

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub trait Rng: RngCore {
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Mirror of rand's `SampleUniform`: one generic range impl keyed on the
/// element type, so type inference behaves like the real crate.
pub trait SampleUniform: Sized {
    fn sample_between<G: RngCore>(rng: &mut G, lo: Self, hi: Self, inclusive: bool) -> Self;
}

pub trait SampleRange<T> {
    fn sample_single<G: RngCore>(self, rng: &mut G) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<G: RngCore>(self, rng: &mut G) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<G: RngCore>(self, rng: &mut G) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(rng, lo, hi, true)
    }
}

pub trait StandardSample: Sized {
    fn sample<G: RngCore>(rng: &mut G) -> Self;
}

impl StandardSample for f64 {
    fn sample<G: RngCore>(rng: &mut G) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl StandardSample for f32 {
    fn sample<G: RngCore>(rng: &mut G) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

impl StandardSample for bool {
    fn sample<G: RngCore>(rng: &mut G) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<G: RngCore>(rng: &mut G, lo: $t, hi: $t, inclusive: bool) -> $t {
                let span = (hi as i128 - lo as i128 + if inclusive { 1 } else { 0 }) as u128;
                assert!(span > 0, "empty range");
                let v = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
        impl StandardSample for $t {
            fn sample<G: RngCore>(rng: &mut G) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_uniform!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

impl SampleUniform for f64 {
    fn sample_between<G: RngCore>(rng: &mut G, lo: f64, hi: f64, _inclusive: bool) -> f64 {
        lo + f64::sample(rng) * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_between<G: RngCore>(rng: &mut G, lo: f32, hi: f32, _inclusive: bool) -> f32 {
        lo + f32::sample(rng) * (hi - lo)
    }
}

pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng::seed_from_u64(0xC1A0_5EED)
}
