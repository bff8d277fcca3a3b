//! The store's record model: one row per monitoring event.

use std::fmt;

use serde::{Deserialize, Serialize};
use volley_core::Tick;

/// The monitor index used by task-wide records ([`RecordKind::Alert`]),
/// which have no single owning monitor.
pub const TASK_WIDE: u32 = u32::MAX;

/// What a [`Record`] describes. The discriminants are part of the
/// on-disk segment format — append new kinds, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecordKind {
    /// A scheduled sample: the monitor's sampler observed the value.
    Sample,
    /// A forced sample taken to answer a global poll.
    PollSample,
    /// A task-level state alert (`value` is 1.0, or 2.0 when the
    /// aggregation ran degraded). Monitor is [`TASK_WIDE`].
    Alert,
    /// The monitor's sampling interval changed (`value` is the new
    /// interval in default-interval units).
    IntervalChange,
    /// An observability gauge reading (`monitor` is the interned metric
    /// name id, see [`Store::metric_name`](crate::Store::metric_name)).
    Gauge,
    /// An observability counter reading (same id scheme as `Gauge`).
    Counter,
    /// One field of an observability histogram: `monitor` is the
    /// interned id of `name{count}`, `name{sum}`, `name{max}` or
    /// `name{<bucket index>}` (see
    /// [`Store::record_snapshot`](crate::Store::record_snapshot)).
    Histogram,
}

impl RecordKind {
    /// All kinds, in on-disk discriminant order.
    pub const ALL: [RecordKind; 7] = [
        RecordKind::Sample,
        RecordKind::PollSample,
        RecordKind::Alert,
        RecordKind::IntervalChange,
        RecordKind::Gauge,
        RecordKind::Counter,
        RecordKind::Histogram,
    ];

    /// The on-disk discriminant.
    pub fn as_u8(self) -> u8 {
        match self {
            RecordKind::Sample => 0,
            RecordKind::PollSample => 1,
            RecordKind::Alert => 2,
            RecordKind::IntervalChange => 3,
            RecordKind::Gauge => 4,
            RecordKind::Counter => 5,
            RecordKind::Histogram => 6,
        }
    }

    /// Decodes an on-disk discriminant (`None` for unknown bytes, so old
    /// readers skip blocks written by newer code instead of panicking).
    pub fn from_u8(byte: u8) -> Option<RecordKind> {
        RecordKind::ALL.get(byte as usize).copied()
    }

    /// The CLI spelling (`sample`, `poll`, `alert`, `interval`, `gauge`,
    /// `counter`, `histogram`).
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Sample => "sample",
            RecordKind::PollSample => "poll",
            RecordKind::Alert => "alert",
            RecordKind::IntervalChange => "interval",
            RecordKind::Gauge => "gauge",
            RecordKind::Counter => "counter",
            RecordKind::Histogram => "histogram",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(text: &str) -> Option<RecordKind> {
        RecordKind::ALL.into_iter().find(|k| k.as_str() == text)
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stored monitoring event. Records are tiny and `Copy`; a scan
/// yields them by value without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Owning task index.
    pub task: u32,
    /// Monitor index within the task ([`TASK_WIDE`] for task-level
    /// records, interned metric-name id for obs kinds).
    pub monitor: u32,
    /// What happened.
    pub kind: RecordKind,
    /// When it happened.
    pub tick: Tick,
    /// The payload (sample value, 0/1 flags, interval, metric reading).
    pub value: f64,
}

impl Record {
    /// The series identity a record belongs to: segments store one
    /// columnar block run per distinct key.
    pub fn key(&self) -> SeriesKey {
        SeriesKey {
            task: self.task,
            monitor: self.monitor,
            kind: self.kind,
        }
    }

    /// Total order used everywhere — by series key, then tick. Value bits
    /// never participate, so NaN payloads sort fine.
    pub fn sort_key(&self) -> (u32, u32, u8, Tick) {
        (self.task, self.monitor, self.kind.as_u8(), self.tick)
    }
}

/// The identity of one stored series: `(task, monitor, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Owning task index.
    pub task: u32,
    /// Monitor index (or [`TASK_WIDE`] / metric-name id).
    pub monitor: u32,
    /// Record kind.
    pub kind: RecordKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_discriminants_round_trip() {
        for kind in RecordKind::ALL {
            assert_eq!(RecordKind::from_u8(kind.as_u8()), Some(kind));
            assert_eq!(RecordKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(RecordKind::from_u8(200), None);
        assert_eq!(RecordKind::parse("bogus"), None);
    }

    #[test]
    fn sort_key_orders_by_series_then_tick() {
        let a = Record {
            task: 0,
            monitor: 1,
            kind: RecordKind::Sample,
            tick: 9,
            value: 1.0,
        };
        let b = Record {
            task: 0,
            monitor: 1,
            kind: RecordKind::Sample,
            tick: 10,
            value: f64::NAN,
        };
        let c = Record {
            task: 0,
            monitor: 2,
            kind: RecordKind::Sample,
            tick: 0,
            value: 0.0,
        };
        assert!(a.sort_key() < b.sort_key());
        assert!(b.sort_key() < c.sort_key());
    }
}
