//! Integer-second time arithmetic.
//!
//! All simulation clocks and job durations in the workspace use whole
//! seconds. The traces the paper draws on have one-second resolution, and
//! integer time keeps event ordering exactly deterministic — two runs of a
//! simulation with the same inputs produce byte-identical outcomes.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use qpredict_durable::{Codec, CodecError, Reader, Writer};

/// An absolute instant on the simulation clock, in seconds.
///
/// `Time::ZERO` is the epoch of a trace (typically the submission instant of
/// its first job, or earlier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub i64);

/// A span of simulated time, in seconds. May be negative when it represents
/// a signed difference (for example a prediction error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub i64);

macro_rules! seconds_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut Writer) {
                w.put(&self.0);
            }
            fn decode(r: &mut Reader<'_>, _: &()) -> Result<$t, CodecError> {
                r.get().map($t)
            }
        }
    )*};
}

seconds_codec!(Time, Dur);

impl Time {
    /// The trace epoch.
    pub const ZERO: Time = Time(0);
    /// The latest representable instant; useful as an "infinitely far away"
    /// sentinel in availability profiles.
    pub const MAX: Time = Time(i64::MAX);

    /// Seconds since the epoch.
    #[inline]
    pub fn seconds(self) -> i64 {
        self.0
    }

    /// Fractional minutes since the epoch.
    #[inline]
    pub fn minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// The signed span from `earlier` to `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0 - earlier.0)
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// One second.
    pub const SECOND: Dur = Dur(1);
    /// One minute.
    pub const MINUTE: Dur = Dur(60);
    /// One hour.
    pub const HOUR: Dur = Dur(3600);
    /// One day.
    pub const DAY: Dur = Dur(86_400);
    /// The longest representable span; used as an "unbounded" sentinel.
    pub const MAX: Dur = Dur(i64::MAX);

    /// Construct from whole seconds.
    #[inline]
    pub const fn secs(s: i64) -> Dur {
        Dur(s)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn mins(m: i64) -> Dur {
        Dur(m * 60)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn hours(h: i64) -> Dur {
        Dur(h * 3600)
    }

    /// Construct from fractional seconds, rounding to the nearest second.
    /// Values are clamped into the representable range; NaN maps to
    /// [`Dur::ZERO`] explicitly (it previously fell through the
    /// comparisons to an `as` cast, which *happens* to saturate to zero
    /// — now it's a contract rather than a cast artifact).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        if s.is_nan() {
            Dur::ZERO
        } else if s >= i64::MAX as f64 {
            Dur::MAX
        } else if s <= i64::MIN as f64 {
            Dur(i64::MIN)
        } else {
            Dur(s.round() as i64)
        }
    }

    /// The span in whole seconds.
    #[inline]
    pub fn seconds(self) -> i64 {
        self.0
    }

    /// The span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// The span in fractional minutes.
    #[inline]
    pub fn minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Dur {
        Dur(self.0.abs())
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// True when the span is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Neg for Dur {
    type Output = Dur;
    #[inline]
    fn neg(self) -> Dur {
        Dur(-self.0)
    }
}

impl Mul<i64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: i64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<i64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: i64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let (sign, s) = if s < 0 { ("-", -s) } else { ("", s) };
        if s >= 3600 {
            write!(
                f,
                "{sign}{}h{:02}m{:02}s",
                s / 3600,
                (s % 3600) / 60,
                s % 60
            )
        } else if s >= 60 {
            write!(f, "{sign}{}m{:02}s", s / 60, s % 60)
        } else {
            write!(f, "{sign}{s}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_dur_arithmetic() {
        let t = Time(100);
        let d = Dur(40);
        assert_eq!(t + d, Time(140));
        assert_eq!(t - d, Time(60));
        assert_eq!(Time(140) - t, Dur(40));
        assert_eq!(t.since(Time(60)), Dur(40));
        assert_eq!(Time(60).since(t), Dur(-40));
    }

    #[test]
    fn dur_constructors() {
        assert_eq!(Dur::mins(2), Dur(120));
        assert_eq!(Dur::hours(1), Dur(3600));
        assert_eq!(Dur::from_secs_f64(1.4), Dur(1));
        assert_eq!(Dur::from_secs_f64(1.6), Dur(2));
        assert_eq!(Dur::from_secs_f64(f64::INFINITY), Dur::MAX);
        assert_eq!(Dur::from_secs_f64(f64::NEG_INFINITY), Dur(i64::MIN));
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(-2.5), Dur(-3)); // .round() is half-away-from-zero
    }

    #[test]
    fn dur_units() {
        assert!((Dur(90).minutes() - 1.5).abs() < 1e-12);
        assert_eq!(Dur(-5).abs(), Dur(5));
        assert_eq!(-Dur(5), Dur(-5));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::MAX + Dur(1), Time::MAX);
        assert_eq!(Dur::MAX + Dur(1), Dur::MAX);
        assert_eq!(Dur::MAX * 2, Dur::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dur(59).to_string(), "59s");
        assert_eq!(Dur(61).to_string(), "1m01s");
        assert_eq!(Dur(3723).to_string(), "1h02m03s");
        assert_eq!(Dur(-61).to_string(), "-1m01s");
        assert_eq!(Time(5).to_string(), "t+5s");
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Time(3).max(Time(5)), Time(5));
        assert_eq!(Time(3).min(Time(5)), Time(3));
        assert_eq!(Dur(3).max(Dur(5)), Dur(5));
        assert_eq!(Dur(3).min(Dur(5)), Dur(3));
        assert!(Dur(1).is_positive());
        assert!(!Dur(0).is_positive());
    }
}
