//! Virtual simulation time.
//!
//! [`SimTime`] is a monotonically increasing instant measured in microseconds
//! since the start of the simulation. Durations are plain
//! [`std::time::Duration`] values, which keeps arithmetic interoperable with
//! the rest of the ecosystem while the instant itself stays a distinct newtype
//! (you cannot accidentally add two instants).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the virtual simulation clock.
///
/// Internally a count of microseconds since simulation start. `SimTime`
/// implements total ordering and cheap copying, and is the key by which the
/// [`EventQueue`](crate::EventQueue) orders events.
///
/// # Example
///
/// ```rust
/// use ph_netsim::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t - SimTime::from_secs(1), Duration::from_millis(500));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time since simulation start as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, or [`Duration::ZERO`] if
    /// `earlier` is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, saturating at [`SimTime::MAX`] instead of
    /// overflowing.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        SimTime(self.0.saturating_add(micros))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
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

    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] for the lenient variant.
    fn sub(self, rhs: SimTime) -> Duration {
        assert!(
            self.0 >= rhs.0,
            "SimTime subtraction underflow: {self:?} - {rhs:?}"
        );
        Duration::from_micros(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
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
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_secs(1) + Duration::from_millis(250);
        assert_eq!(t.as_micros(), 1_250_000);
    }

    #[test]
    fn subtraction_gives_duration() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(2);
        assert_eq!(a - b, Duration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn saturating_since_is_lenient() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(SimTime::MAX + Duration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
