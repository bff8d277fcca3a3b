//! Discrete time in units of the default sampling interval.
//!
//! The paper expresses every quantity of the adaptation algorithm in units
//! of the task's *default sampling interval* `I_d` — the smallest interval
//! the task ever uses (§III-A). `volley-core` therefore works on a discrete
//! tick axis: **one tick = one default sampling interval**. Mapping ticks to
//! wall-clock seconds (15 s for the paper's network tasks, 5 s for system
//! tasks, 1 s for application tasks) is the responsibility of the embedding
//! layer (`volley-sim` / `volley-runtime`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU32;

/// A point on the discrete monitoring time axis, counted in default
/// sampling intervals since the start of the task.
pub type Tick = u64;

/// A sampling interval, measured in default sampling intervals (`I` in the
/// paper, with `I >= 1`).
///
/// The newtype enforces the paper's invariant that the dynamic interval is
/// never smaller than the default one: an `Interval` cannot hold zero.
///
/// ```
/// use volley_core::Interval;
///
/// let i = Interval::new(3).unwrap();
/// assert_eq!(i.get(), 3);
/// assert_eq!(i.saturating_add(1).get(), 4);
/// assert!(Interval::new(0).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Interval(NonZeroU32);

impl Interval {
    /// The default sampling interval `I_d` (one tick).
    pub const DEFAULT: Interval = Interval(match NonZeroU32::new(1) {
        Some(v) => v,
        None => unreachable!(),
    });

    /// Creates an interval of `ticks` default intervals.
    ///
    /// Returns `None` when `ticks == 0`: the dynamic interval can never be
    /// smaller than the default interval.
    pub fn new(ticks: u32) -> Option<Self> {
        NonZeroU32::new(ticks).map(Interval)
    }

    /// Creates an interval, clamping zero up to the default interval.
    pub fn new_clamped(ticks: u32) -> Self {
        Interval(NonZeroU32::new(ticks.max(1)).expect("max(1) is non-zero"))
    }

    /// The interval length in ticks.
    pub fn get(self) -> u32 {
        self.0.get()
    }

    /// The interval grown by `by` ticks, saturating at `u32::MAX`.
    #[must_use]
    pub fn saturating_add(self, by: u32) -> Self {
        Interval::new_clamped(self.get().saturating_add(by))
    }

    /// The interval shrunk by `by` ticks, saturating at the default
    /// interval.
    #[must_use]
    pub fn saturating_sub(self, by: u32) -> Self {
        Interval::new_clamped(self.get().saturating_sub(by))
    }

    /// The smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Interval) -> Interval {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Interval) -> Interval {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::DEFAULT
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Id", self.get())
    }
}

impl From<Interval> for u64 {
    fn from(value: Interval) -> Self {
        u64::from(value.get())
    }
}

impl From<NonZeroU32> for Interval {
    fn from(value: NonZeroU32) -> Self {
        Interval(value)
    }
}

impl TryFrom<u32> for Interval {
    type Error = crate::VolleyError;

    fn try_from(value: u32) -> Result<Self, Self::Error> {
        Interval::new(value)
            .ok_or_else(|| crate::VolleyError::invalid("interval", "must be at least 1 tick"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_interval_is_one_tick() {
        assert_eq!(Interval::DEFAULT.get(), 1);
        assert_eq!(Interval::default(), Interval::DEFAULT);
    }

    #[test]
    fn zero_is_rejected() {
        assert!(Interval::new(0).is_none());
        assert!(Interval::try_from(0u32).is_err());
        assert_eq!(Interval::new_clamped(0).get(), 1);
    }

    #[test]
    fn saturating_arithmetic() {
        let i = Interval::new(5).unwrap();
        assert_eq!(i.saturating_add(2).get(), 7);
        assert_eq!(i.saturating_sub(10).get(), 1);
        assert_eq!(
            Interval::new(u32::MAX).unwrap().saturating_add(1).get(),
            u32::MAX
        );
    }

    #[test]
    fn ordering_and_min() {
        let a = Interval::new(2).unwrap();
        let b = Interval::new(3).unwrap();
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.min(a), a);
    }

    #[test]
    fn display_formats_in_default_interval_units() {
        assert_eq!(Interval::new(7).unwrap().to_string(), "7Id");
    }

    #[test]
    fn serde_round_trip() {
        let i = Interval::new(9).unwrap();
        let json = serde_json::to_string(&i).unwrap();
        let back: Interval = serde_json::from_str(&json).unwrap();
        assert_eq!(back, i);
    }
}
