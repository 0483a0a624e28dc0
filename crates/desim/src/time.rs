//! Simulated time as an integer number of microseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// A point on (or span of) the simulated timeline, with microsecond
/// resolution.
///
/// `SimTime` is a newtype over `u64` microseconds. Integer time makes event
/// ordering exact (no floating-point ties) and keeps the simulation
/// deterministic across platforms.
///
/// The same type is used for instants and durations; subtraction of two
/// instants yields a span. Subtraction saturates at zero rather than
/// underflowing, which is the convention throughout the emulator ("how long
/// until X, but never negative").
///
/// # Examples
///
/// ```
/// use desim::SimTime;
///
/// let start = SimTime::from_secs(30);
/// let end = start + SimTime::from_millis(500);
/// assert_eq!((end - start).as_micros(), 500_000);
/// assert!(end > start);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs map to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * 1e6).round().min(u64::MAX as f64) as u64)
    }

    /// Returns the number of whole microseconds since the origin.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns this time as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition: the largest instant acts as an absorbing "never".
    #[must_use]
    pub(crate) const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction; returns [`SimTime::ZERO`] when `rhs > self`.
    #[must_use]
    pub(crate) const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns true if this is the origin instant.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl From<Duration> for SimTime {
    fn from(d: Duration) -> Self {
        SimTime(d.as_micros().min(u64::MAX as u128) as u64)
    }
}

impl From<SimTime> for Duration {
    fn from(t: SimTime) -> Self {
        Duration::from_micros(t.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs_f64(f64::INFINITY),
            SimTime::from_micros(u64::MAX)
        );
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_secs(1));
    }

    #[test]
    fn addition_saturates_at_max() {
        let max = SimTime::from_micros(u64::MAX);
        assert_eq!(max + SimTime::from_secs(1), max);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn duration_round_trip() {
        let t = SimTime::from_micros(1_234_567);
        let d: Duration = t.into();
        assert_eq!(SimTime::from(d), t);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500s");
    }
}
