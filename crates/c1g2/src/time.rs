//! Simulation time in whole nanoseconds.
//!
//! All timing in the workspace is carried in [`Micros`], a `u64` count of
//! nanoseconds that reads and writes in microseconds, the natural unit of
//! the C1G2 standard. Every timing constant the paper uses is a whole
//! number of 10 ns (T1 = 100 µs, T2 = T3 = 50 µs, 37.45 µs per reader bit,
//! 25 µs per tag bit), so sums of them are exact and associative: a
//! clock's total equals the sum of its breakdown with `==`, and a trace
//! timestamp has at most three fraction digits in µs. A 10⁵-tag inventory
//! (≈ 4·10⁷ µs) uses 46 of the 64 bits.
//!
//! A duration given in fractional microseconds ([`Micros::from_us`], a
//! link profile derived from a BLF) is rounded to the nearest nanosecond
//! once, where it is built. Sums and integer products wrap modulo 2^64
//! ns (≈ 584 years) in every build: no simulated run comes near that, and
//! a hostile checkpoint's clock cannot make the arithmetic panic. (The
//! overflow checks of saturating or checked arithmetic cost the simulator
//! core several percent: every air exchange adds to the clock.)

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of time: a whole number of nanoseconds, read in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(u64);

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0);

    /// Creates a duration from a nanosecond count.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Micros(ns)
    }

    /// Creates a duration from a microsecond count, rounded to the
    /// nearest nanosecond.
    ///
    /// # Panics
    /// Panics if `us` is negative, NaN, infinite or past `u64::MAX` ns:
    /// durations in the simulator are finite sums of positive symbol
    /// times, so a bad value here is a logic error worth failing loudly on.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self::round_ns(us * 1_000.0)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        Self::round_ns(s * 1_000_000_000.0)
    }

    /// The nearest whole nanosecond to `ns`.
    fn round_ns(ns: f64) -> Self {
        // 2^64 is the first f64 past `u64::MAX`.
        assert!(
            (0.0..18_446_744_073_709_551_616.0).contains(&ns),
            "invalid duration: {} µs",
            ns / 1_000.0
        );
        Micros(ns.round() as u64)
    }

    /// The nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This duration in microseconds, the nearest `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration expressed in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This duration expressed in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: returns zero instead of a negative duration.
    #[inline]
    pub(crate) fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// `true` if this is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        *self = *self + rhs;
    }
}

impl Sub for Micros {
    type Output = Micros;
    /// # Panics
    /// Panics in debug builds if the result would be negative.
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        debug_assert!(self >= rhs, "negative duration: {self:?} - {rhs:?}");
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Micros {
    #[inline]
    fn sub_assign(&mut self, rhs: Micros) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Micros {
    type Output = Micros;
    /// Scales by `rhs`, rounded to the nearest nanosecond.
    #[inline]
    fn mul(self, rhs: f64) -> Micros {
        Micros::round_ns(self.0 as f64 * rhs)
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    #[inline]
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0.wrapping_mul(rhs))
    }
}

impl Div<f64> for Micros {
    type Output = Micros;
    /// Divides by `rhs`, rounded to the nearest nanosecond.
    #[inline]
    fn div(self, rhs: f64) -> Micros {
        Micros::round_ns(self.0 as f64 / rhs)
    }
}

impl Div for Micros {
    type Output = f64;
    /// The dimensionless ratio between two durations.
    #[inline]
    fn div(self, rhs: Micros) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        iter.fold(Micros::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_ms())
        } else {
            write!(f, "{:.3} µs", self.as_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Micros::from_secs(2.0), Micros::from_us(2_000_000.0));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = Micros::from_us(100.0);
        let b = Micros::from_us(37.45);
        assert_eq!(b, Micros::from_ns(37_450));
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 2.0, Micros::from_us(200.0));
        assert_eq!(a * 3u64, Micros::from_us(300.0));
        assert_eq!(a / b, 100_000.0 / 37_450.0);
        assert_eq!(a / 4.0, Micros::from_us(25.0));
        // Fractional inputs round once, to the nearest nanosecond.
        assert_eq!(Micros::from_us(1e6 / 320_000.0), Micros::from_ns(3_125));
        assert_eq!(Micros::from_us(0.0004), Micros::ZERO);
        assert_eq!(Micros::from_us(0.0006), Micros::from_ns(1));
        assert_eq!(b * (1.0 / 3.0), Micros::from_ns(12_483));
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        let a = Micros::from_us(1.0);
        let b = Micros::from_us(2.0);
        assert_eq!(a.saturating_sub(b), Micros::ZERO);
        assert_eq!(b.saturating_sub(a), Micros::from_us(1.0));
    }

    #[test]
    fn paper_sums_are_exact() {
        // 0.1 + 0.2 ≠ 0.3 in f64; in nanoseconds every order of addition
        // agrees.
        let reader_bit = Micros::from_us(37.45);
        let many: Micros = (0..1_000_000).map(|_| reader_bit).sum();
        assert_eq!(many, reader_bit * 1_000_000u64);
        assert_eq!(many.as_ns(), 37_450_000_000);
        assert_eq!(
            Micros::from_us(0.1) + Micros::from_us(0.2),
            Micros::from_us(0.3)
        );
    }

    #[test]
    fn sum_over_iterator() {
        let total: Micros = (1..=4).map(|i| Micros::from_us(i as f64)).sum();
        assert_eq!(total, Micros::from_us(10.0));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Micros::from_us(12.5)), "12.500 µs");
        assert_eq!(format!("{}", Micros::from_us(12_500.0)), "12.500 ms");
        assert_eq!(format!("{}", Micros::from_secs(3.25)), "3.250 s");
    }

    #[test]
    fn ordering_and_extrema() {
        let a = Micros::from_us(5.0);
        let b = Micros::from_us(7.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(!a.is_zero());
        assert!(Micros::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        let _ = Micros::from_us(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn nan_duration_rejected() {
        let _ = Micros::from_us(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn duration_past_u64_nanoseconds_rejected() {
        let _ = Micros::from_us(2e16);
    }
}
