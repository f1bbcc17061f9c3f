//! Cycle counting and clock-domain conversion.
//!
//! The APU control processor measures kernel latency with cycle counters;
//! the simulator mirrors that: every operation charges [`Cycles`] and the
//! host converts to wall-clock time with the device [`Frequency`]
//! (500 MHz on the Leda-E part).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};
use std::time::Duration;

/// A count of device clock cycles.
///
/// A newtype over `u64` so cycle counts cannot be confused with element
/// counts, byte counts, or nanoseconds in latency formulas.
///
/// ```
/// use apu_sim::{Cycles, Frequency};
/// let c = Cycles::new(500);
/// assert_eq!((c + Cycles::new(500)).get(), 1000);
/// // 1000 cycles at 500 MHz is 2 µs.
/// assert_eq!(Frequency::LEDA_E.cycles_to_duration(c * 2).as_micros(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Wraps a raw cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw cycle count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; useful when comparing two points in time.
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Largest of the two counts (used when joining parallel cores).
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Converts a non-negative floating point cycle estimate, rounding to
    /// nearest. Negative inputs clamp to zero.
    ///
    /// Analytical latency formulas (e.g. `0.19 d + 41164`) produce `f64`;
    /// this is the single place where they are quantized.
    pub fn from_f64(estimate: f64) -> Cycles {
        if estimate <= 0.0 {
            Cycles(0)
        } else {
            Cycles(estimate.round() as u64)
        }
    }

    /// The cycle count as `f64`, for ratio/report computation.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

/// A clock frequency in hertz.
///
/// ```
/// use apu_sim::Frequency;
/// assert_eq!(Frequency::LEDA_E.hz(), 500.0e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// The GSI Leda-E APU core clock: 500 MHz.
    pub const LEDA_E: Frequency = Frequency(500.0e6);

    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not finite and positive.
    pub fn from_hz(hz: f64) -> Frequency {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Frequency {
        Frequency::from_hz(mhz * 1.0e6)
    }

    /// The frequency in hertz.
    pub fn hz(self) -> f64 {
        self.0
    }

    /// Converts a cycle count in this clock domain to seconds.
    pub fn cycles_to_secs(self, cycles: Cycles) -> f64 {
        cycles.as_f64() / self.0
    }

    /// Converts a cycle count in this clock domain to a [`Duration`].
    pub fn cycles_to_duration(self, cycles: Cycles) -> Duration {
        Duration::from_secs_f64(self.cycles_to_secs(cycles))
    }

    /// Converts seconds to cycles in this clock domain (rounded).
    pub fn secs_to_cycles(self, secs: f64) -> Cycles {
        Cycles::from_f64(secs * self.0)
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Frequency::LEDA_E
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e9 {
            write!(f, "{:.2} GHz", self.0 / 1.0e9)
        } else {
            write!(f, "{:.1} MHz", self.0 / 1.0e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(32);
        assert_eq!((a + b).get(), 42);
        assert_eq!((b - a).get(), 22);
        assert_eq!((a * 3).get(), 30);
        let mut c = a;
        c += b;
        assert_eq!(c.get(), 42);
        c -= a;
        assert_eq!(c.get(), 32);
    }

    #[test]
    fn cycles_sum_and_max() {
        let total: Cycles = [1u64, 2, 3].iter().map(|&c| Cycles::new(c)).sum();
        assert_eq!(total.get(), 6);
        assert_eq!(Cycles::new(5).max(Cycles::new(9)).get(), 9);
        assert_eq!(Cycles::new(5).saturating_sub(Cycles::new(9)), Cycles::ZERO);
    }

    #[test]
    fn from_f64_rounds_and_clamps() {
        assert_eq!(Cycles::from_f64(1.4).get(), 1);
        assert_eq!(Cycles::from_f64(1.5).get(), 2);
        assert_eq!(Cycles::from_f64(-3.0).get(), 0);
        assert_eq!(Cycles::from_f64(0.0).get(), 0);
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_mhz(500.0);
        assert_eq!(f.hz(), 500.0e6);
        let c = Cycles::new(500_000_000);
        assert!((f.cycles_to_secs(c) - 1.0).abs() < 1e-12);
        assert_eq!(f.secs_to_cycles(2.0).get(), 1_000_000_000);
        assert_eq!(f.cycles_to_duration(Cycles::new(1000)).as_nanos(), 2000);
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::LEDA_E.to_string(), "500.0 MHz");
        assert_eq!(Frequency::from_hz(2.7e9).to_string(), "2.70 GHz");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::from_hz(0.0);
    }
}
