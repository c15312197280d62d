//! Simulated time.
//!
//! All simulation clocks are integer nanoseconds ([`SimTime`]) so that event
//! ordering is exact and runs are bit-for-bit reproducible. Durations are
//! represented by [`SimDuration`]; both are thin wrappers over `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Sentinel for "never"; greater than every reachable instant.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Serialization delay for `bytes` at `rate_bps` bits per second.
    pub fn serialization(bytes: u64, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        // ns = bytes * 8 * 1e9 / rate. Do the multiply in u128 to avoid overflow.
        let ns = (bytes as u128 * 8 * NANOS_PER_SEC as u128) / rate_bps as u128;
        SimDuration(ns as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + SimDuration::from_millis(125);
        assert_eq!(t.nanos(), 125 * NANOS_PER_MILLI);
        assert_eq!((t - SimTime::ZERO).as_secs_f64(), 0.125);
    }

    #[test]
    fn serialization_delay_45mbps() {
        // 1500 B at 45 Mb/s = 266.67 us.
        let d = SimDuration::serialization(1500, 45_000_000);
        assert_eq!(d.nanos(), 266_666);
    }

    #[test]
    fn serialization_no_overflow_large() {
        let d = SimDuration::serialization(u64::from(u32::MAX), 1_000);
        assert!(d.nanos() > 0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration(4));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.125).nanos(), 125 * NANOS_PER_MILLI);
    }
}
