//! Socket-level envelope messages for the agent/coordinator deployment.
//!
//! The in-process protocol ([`crate::message`]) is monitor-addressed: the
//! task session hands each frame to its monitor's slot and never names
//! the peer inside the frame. A socket carries traffic for *many*
//! monitors (an agent multiplexes a contiguous range of them), so the
//! network layer adds addressing — and, because a send gives every
//! monitor the same kind of frame, batching: a line carries a *run*, the
//! frames of one send for consecutive monitors, so a send costs each
//! agent a line instead of a line per monitor.
//!
//! - **agent → coordinator**: the first line on a fresh connection is an
//!   [`AgentHello`] declaring the range of monitors behind the socket.
//!   Every later line is a [`ReplyBatch`] — a run of `PollReply`s at one
//!   epoch and tick or of `Revived` notices at one epoch, or a window's
//!   tick reports row by row — or one raw [`MonitorFrame`]: every other
//!   reply, a run of one, and any reply the wire cannot carry
//!   ([`MonitorToCoordinator::is_wire_representable`]), which travels
//!   alone so its malformed line takes no neighbour down.
//!   [`encode_replies`] writes them; [`expand_reply_line`] turns a line
//!   back into the frames it carries, in order — a window reply into its
//!   rows of reports, read where they lie. An empty line is the agent's
//!   goodbye: every monitor it hosts is shut down.
//! - **coordinator → agent**: every line is a [`ServerFrame`] — a
//!   [`ServerFrame::Welcome`] acknowledging a hello, a
//!   [`ServerFrame::Ctl`] wrapping one control frame for one monitor, a
//!   [`ServerFrame::Fan`] carrying one control frame for a run, or a
//!   [`ServerFrame::Window`]: a grant of one tick's data or more, the
//!   only line tick data travels in. [`ServerFrame::expand`] hands an
//!   agent each `(monitor, frame)`.
//!
//! Either way a run holds frames of one send, at one epoch (and tick),
//! for ascending consecutive monitor ids, and a line holding more than
//! one monitor is split in halves until its payload fits the sender's
//! frame cap: only a single frame can exceed it, as it could before
//! batching.
//!
//! A run's per-monitor numbers travel as *columns*, one JSON string
//! each, not as JSON number arrays: an [`F64Column`] holds each value's
//! [`f64::to_bits`] as 16 lowercase hex digits, a [`DigitColumn`] one
//! ASCII digit per monitor. A column is exact by construction and
//! fixed-width, and its parser accepts canonical text only — a length
//! off the width, a digit outside `[0-9a-f]` (or past the column's
//! largest digit), or a non-finite bit pattern fails the whole line, so
//! no non-finite value reaches a monitor or the coordinator this way
//! either. Lone frames (`Ctl`, a lone [`MonitorFrame`]) keep their
//! decimal numbers.
//!
//! [`ctl_line`] splices a `Ctl` line around an already-encoded control
//! frame. The coordinator never calls it; the benchmark times it
//! (`net.ctl_line_ns`), and unit tests pin it to the plane's bytes and
//! keep it the only hand-spelled JSON in the workspace's non-test code.

use std::ops::Range;

use bytes::Bytes;
use serde::json::Parser;
use serde::{DeError, Deserialize, Serialize, Value};

use volley_core::task::MonitorId;
use volley_core::time::Tick;

use crate::message::{
    decode_line, encode_into, ControlFrame, CoordinatorToMonitor, MonitorFrame,
    MonitorToCoordinator, ReportRow, TickData, NO_REPORT,
};

/// First frame an agent sends on every (re)connection: the range of
/// monitors it hosts, and the highest epoch its actors have observed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentHello {
    /// Fleet-unique agent id (used for fault targeting and stats; not an
    /// authorization boundary).
    pub agent: u32,
    /// The first monitor id hosted behind this connection.
    pub first: u32,
    /// How many monitors from `first` are hosted; a reconnect's routes
    /// override any stale ones for the same ids.
    pub count: u32,
    /// Highest epoch the agent's monitors have observed. Informational:
    /// the coordinator acknowledges with [`ServerFrame::Welcome`] and
    /// re-fences stale monitors through `NewEpoch` control frames.
    pub epoch: u64,
}

/// Lines the coordinator writes to an agent socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// Acknowledges an [`AgentHello`]: the handshake ack, nothing more.
    /// The server always sends epoch 0 and the agent ignores the field —
    /// a monitor only ever raises its epoch on
    /// [`CoordinatorToMonitor::NewEpoch`](crate::message::CoordinatorToMonitor::NewEpoch),
    /// which the coordinator sends to any monitor whose frames arrive
    /// stale.
    Welcome {
        /// Reserved; 0 on the wire today.
        epoch: u64,
    },
    /// One control frame addressed to one hosted monitor.
    Ctl {
        /// Destination monitor id.
        to: u32,
        /// The epoch-stamped control frame, verbatim.
        frame: ControlFrame,
    },
    /// One control frame for the `count` monitors `first..first + count`.
    Fan {
        /// The run's first monitor id.
        first: u32,
        /// How many consecutive monitors the frame goes to.
        count: u32,
        /// The epoch-stamped control frame each of them gets.
        frame: ControlFrame,
    },
    /// A granted window's data for the `count` monitors from `first` —
    /// every grant of tick data, one tick's included: the `len` ticks
    /// from `tick`, of which the first `held` are values the agent
    /// already holds from the window this one was granted in (a window
    /// granted along with a poll inside that one), and the rest carried
    /// row by row — monitor `first + i` gets tick `tick + held + r` as
    /// `values.0[r * count + i]`. The agent steps the run through all
    /// `len` and answers once ([`ReplyBatch::Window`]).
    Window {
        /// The epoch every frame of the window is stamped with.
        epoch: u64,
        /// The window's first tick.
        tick: Tick,
        /// How many ticks it spans (at most [`MAX_WINDOW`]).
        len: u32,
        /// How many of them, from the first, the line carries no values
        /// of.
        held: u32,
        /// The run's first monitor id.
        first: u32,
        /// How many consecutive monitors the run holds.
        count: u32,
        /// `len - held` rows of one finite value per monitor, as their
        /// bits.
        values: F64Column,
    },
}

/// The most ticks one window spans: a window's line carries this many
/// values per monitor, and an agent keeps as many to replay a rewind.
pub const MAX_WINDOW: usize = 8;

impl ServerFrame {
    /// Hands `deliver` each `(monitor, frame)` this line carries, in id
    /// order — a window's carried ticks tick by tick — for the monitors
    /// in `hosted` only, so a run's claimed length costs the agent no
    /// more than the monitors it hosts.
    pub fn expand(self, hosted: Range<u32>, mut deliver: impl FnMut(u32, ControlFrame)) {
        match self {
            ServerFrame::Welcome { .. } => {}
            ServerFrame::Ctl { to, frame } => {
                if hosted.contains(&to) {
                    deliver(to, frame);
                }
            }
            ServerFrame::Fan {
                first,
                count,
                frame,
            } => {
                let end = first.saturating_add(count).min(hosted.end);
                for to in first.max(hosted.start)..end {
                    deliver(to, frame);
                }
            }
            ServerFrame::Window {
                epoch,
                tick,
                held,
                first,
                count,
                values,
                ..
            } => {
                let rows = values.0.chunks_exact(count.max(1) as usize);
                for (tick, row) in (tick + u64::from(held)..).zip(rows) {
                    for (to, &value) in (first..=u32::MAX).zip(row) {
                        if hosted.contains(&to) {
                            let msg = CoordinatorToMonitor::Tick(TickData { tick, value });
                            deliver(to, ControlFrame { epoch, msg });
                        }
                    }
                }
            }
        }
    }
}

/// A reply line carrying a run of consecutive monitors' replies of one
/// kind, at one epoch (and tick).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplyBatch {
    /// `PollReply`s of monitors `first..`: a value and a forced flag each.
    PollReplies {
        /// The epoch every reply of the run is stamped with.
        epoch: u64,
        /// The polled tick.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// One finite value per monitor, in id order, as their bits.
        values: F64Column,
        /// One `forced_sample` per monitor (`0` or `1`), in id order.
        forced: DigitColumn<1>,
    },
    /// The `Revived` notices of the `count` monitors from `first`.
    Revived {
        /// The epoch every notice of the run is stamped with.
        epoch: u64,
        /// The run's first monitor id.
        first: u32,
        /// How many consecutive monitors announce themselves.
        count: u32,
    },
    /// The tick reports of a run of monitors over the ticks of a window
    /// they stepped, from its first: row by row, one flag digit per
    /// monitor — bit 0 `sampled`, bit 1 `violation`, bit 2 `suppressed` —
    /// or `8` where a monitor sent none at this epoch. The rows end with
    /// the first on which one of them violated, or with the window.
    Window {
        /// The epoch every report of the run is stamped with.
        epoch: u64,
        /// The window's first tick.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// How many consecutive monitors each row holds.
        count: u32,
        /// The rows, `count` digits (`0`–`8`) each.
        flags: DigitColumn<8>,
    },
}

/// What an agent line carries, one item at a time: a frame, or a row of
/// a window reply's tick reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<'a> {
    /// A reply frame.
    Frame(MonitorFrame),
    /// One tick's reports of a run of monitors.
    Row(ReportRow<'a>),
}

/// Whether a run of `len` from `first` stays within the ids.
fn fits(first: u32, len: usize) -> bool {
    u64::from(first) + len as u64 <= 1 << 32
}

impl ReplyBatch {
    /// The frames the batch carries, handed to `admit` in order, or
    /// none, returning `false`, when its columns disagree in length or
    /// the run runs past the last id. (Each column's parser has checked
    /// the column's own contents.) A window reply is refused here: it is
    /// read where it lies ([`window_reply`]), in the writer's spelling.
    fn expand(self, mut admit: impl FnMut(Reply<'_>)) -> bool {
        match self {
            ReplyBatch::PollReplies {
                epoch,
                tick,
                first,
                values,
                forced,
            } => {
                let (values, forced) = (values.0, forced.0);
                if !fits(first, values.len()) || values.len() != forced.len() {
                    return false;
                }
                for ((monitor, value), forced) in (first..=u32::MAX).zip(values).zip(forced) {
                    let msg = MonitorToCoordinator::PollReply {
                        monitor: MonitorId(monitor),
                        tick,
                        value,
                        forced_sample: forced == 1,
                    };
                    admit(Reply::Frame(MonitorFrame { epoch, msg }));
                }
            }
            ReplyBatch::Revived {
                epoch,
                first,
                count,
            } => {
                if !fits(first, count as usize) {
                    return false;
                }
                for monitor in first..first.saturating_add(count) {
                    let msg = MonitorToCoordinator::Revived {
                        monitor: MonitorId(monitor),
                    };
                    admit(Reply::Frame(MonitorFrame { epoch, msg }));
                }
            }
            ReplyBatch::Window { .. } => return false,
        }
        true
    }
}

/// A window reply's rows — the reports of the `count` monitors from
/// `first` over the ticks from `tick`, at `epoch`: `digits` row by row,
/// an ASCII digit per monitor — read a row at a time where they lie.
/// The socket plane's feed reads its replies through it where it keeps
/// them, [`expand_reply_line`] where the line lies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyRows<'a> {
    pub(crate) epoch: u64,
    pub(crate) tick: Tick,
    pub(crate) first: u32,
    pub(crate) count: u32,
    pub(crate) digits: &'a [u8],
}

impl<'a> ReplyRows<'a> {
    /// How many rows there are.
    pub(crate) fn len(&self) -> u64 {
        (self.digits.len() / self.count as usize) as u64
    }

    /// The `row`-th row: the reports of tick `tick + row`.
    pub(crate) fn row(&self, row: u64) -> ReportRow<'a> {
        let width = self.count as usize;
        let at = row as usize * width;
        ReportRow {
            epoch: self.epoch,
            tick: self.tick + row,
            first: self.first,
            digits: &self.digits[at..at + width],
        }
    }
}

/// A column of finite `f64`s as one JSON string: each value's
/// [`f64::to_bits`] as 16 lowercase hex digits, most significant nibble
/// first — `[1.0, 0.1]` is `"3ff00000000000003fb999999999999a"`. The
/// parser accepts exactly that: a length that is a multiple of 16, digits
/// in `[0-9a-f]` and finite bit patterns. Both directions work a word at
/// a time, eight digits to a `u64` of byte lanes, and the parser checks
/// the whole column once.
#[derive(Debug, Clone, PartialEq)]
pub struct F64Column(pub Vec<f64>);

/// The value of the 8 hex digits in `word`, the first in its top byte,
/// and a flag word that is non-zero unless each is a lowercase hex digit.
/// A byte lane is a digit when its high bit survives one of two exact
/// per-lane range tests (`m < byte < n` for an ASCII byte; a non-ASCII
/// byte fails both); its nibble is its low four bits, plus 9 for a
/// letter; the eight nibbles then pack pairwise into 32 bits.
fn hex_value(word: u64) -> (u64, u64) {
    const LANES: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let low = word & LOW7;
    let between =
        |m: u64, n: u64| (LANES * (127 + n) - low) & !word & (low + LANES * (127 - m)) & HIGH;
    let letters = between(0x60, 0x67);
    let invalid = (between(0x2f, 0x3a) | letters) ^ HIGH;
    let mut x = (word & 0x0f0f_0f0f_0f0f_0f0f) + (letters >> 7) * 9;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    ((x | x >> 16) & 0xffff_ffff, invalid)
}

/// `half`'s 8 nibbles as lowercase hex digits, most significant first: the
/// nibbles spread into one byte lane each, then every lane offset to `'0'`
/// or, past 9, to `'a' - 10` at once (`n + 6` carries into bit 4 exactly
/// when `n ≥ 10`; no lane overflows).
fn hex_digits(half: u32) -> [u8; 8] {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let mut x = u64::from(half);
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    let letters = (x + 6 * LANES) >> 4 & LANES;
    (x + u64::from(b'0') * LANES + letters * u64::from(b'a' - 10 - b'0')).to_be_bytes()
}

impl F64Column {
    /// Characters per value.
    const WIDTH: usize = 16;

    fn write_digits(&self, out: &mut Vec<u8>) {
        F64View(&self.0).write_digits(out);
    }

    fn parse(text: &str) -> Option<Self> {
        let text = text.as_bytes();
        if !text.len().is_multiple_of(Self::WIDTH) {
            return None;
        }
        // One flag for the whole column, checked once: no branch per value.
        let mut invalid = 0;
        let values = text.chunks_exact(Self::WIDTH).map(|digits| {
            let (value, flag) = Self::cell(digits);
            invalid |= flag;
            value
        });
        let values = values.collect();
        (invalid == 0).then_some(F64Column(values))
    }

    /// The value one cell's 16 digits spell, and a flag that is non-zero
    /// unless they are canonical and the value finite.
    fn cell(digits: &[u8]) -> (f64, u64) {
        const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
        let word = |at: usize| u64::from_be_bytes(digits[at..at + 8].try_into().expect("8 digits"));
        let ((high, high_invalid), (low, low_invalid)) = (hex_value(word(0)), hex_value(word(8)));
        let bits = high << 32 | low;
        let invalid = high_invalid | low_invalid | u64::from(bits & EXPONENT == EXPONENT);
        (f64::from_bits(bits), invalid)
    }
}

/// A [`ServerFrame::Window`] line as an agent reads it: the fields, and
/// the values still the text of their column — read cell by cell where
/// they lie in the line, never collected.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowLine<'a> {
    pub(crate) epoch: u64,
    pub(crate) tick: Tick,
    pub(crate) len: u32,
    pub(crate) held: u32,
    pub(crate) first: u32,
    pub(crate) count: usize,
    /// The cells of rows `held..len`.
    values: &'a [u8],
}

impl<'a> WindowLine<'a> {
    /// The window `line` carries: `None` unless it is a
    /// [`ServerFrame::Window`] line whose values are `len - held` rows of
    /// `count` canonical finite cells, `len` at most [`MAX_WINDOW`] and
    /// `held` at most `len` — the line [`ServerFrame`]'s decoder accepts,
    /// and a shape it would not.
    pub(crate) fn parse(line: &'a [u8]) -> Option<Self> {
        let keys = ["epoch", "tick", "len", "held", "first", "count"];
        let ([epoch, tick, len, held, first, count], values) = window_fields(line, keys, "values")?;
        let [len, held, first, count] = [len, held, first, count].map(u32::try_from);
        let (len, held, first, count) = (len.ok()?, held.ok()?, first.ok()?, count.ok()?);
        let carried = (len as usize).saturating_sub(held as usize) * count as usize;
        let whole = (1..=MAX_WINDOW as u32).contains(&len)
            && held <= len
            && count > 0
            && values.len() == carried * F64Column::WIDTH;
        let mut invalid = 0;
        for digits in values.chunks_exact(F64Column::WIDTH) {
            invalid |= F64Column::cell(digits).1;
        }
        (whole && invalid == 0 && fits(first, count as usize)).then_some(WindowLine {
            epoch,
            tick,
            len,
            held,
            first,
            count: count as usize,
            values,
        })
    }

    /// The value of the run's `column`-th monitor on the window's `row`-th
    /// tick, a carried one: `row` is at least `held`.
    pub(crate) fn value(&self, row: usize, column: usize) -> f64 {
        let at = ((row - self.held as usize) * self.count + column) * F64Column::WIDTH;
        F64Column::cell(&self.values[at..at + F64Column::WIDTH]).0
    }
}

/// The fields of a window line — `{"Window":{…}}` holding exactly the
/// unsigned `keys` and the string `column`, in any order — and the
/// column's text where it lies in `line`; `None` for any other line.
fn window_fields<'a, const K: usize>(
    line: &'a [u8],
    keys: [&str; K],
    column: &str,
) -> Option<([u64; K], &'a [u8])> {
    let mut parser = Parser::new(line);
    if !parser.object_begin().ok()? || parser.object_key().ok()? != "Window" {
        return None;
    }
    let (mut fields, mut seen) = ([0u64; K], 0u32);
    let mut text = None;
    let mut more = parser.object_begin().ok()?;
    while more {
        let key = parser.object_key().ok()?;
        let at = keys.iter().position(|name| *name == key);
        match at {
            Some(at) => fields[at] = u64::from_json(&mut parser).ok()?,
            None if key == column => match parser.parse_str().ok()? {
                std::borrow::Cow::Borrowed(digits) => text = Some(digits.as_bytes()),
                std::borrow::Cow::Owned(_) => return None,
            },
            None => return None,
        }
        seen |= 1 << at.unwrap_or(K);
        more = parser.object_next().ok()?;
    }
    let all = (1 << (K + 1)) - 1;
    if parser.object_next().ok()? || parser.end().is_err() || seen != all {
        return None;
    }
    Some((fields, text?))
}

/// The rows of the [`ReplyBatch::Window`] line `line`, read where they
/// lie: `None` unless it is one in the writer's spelling whose flags are
/// digits `0`–`8` making up whole rows of `count` monitors, at most
/// [`MAX_WINDOW`] of them, and whose run stays within the ids.
pub(crate) fn window_reply(line: &[u8]) -> Option<ReplyRows<'_>> {
    let keys = ["epoch", "tick", "first", "count"];
    let ([epoch, tick, first, count], digits) = window_fields(line, keys, "flags")?;
    let (first, count) = (u32::try_from(first).ok()?, u32::try_from(count).ok()?);
    let rows = digits.len().checked_div(count as usize)?;
    let whole = rows * count as usize == digits.len() && rows <= MAX_WINDOW;
    let flags = digits.iter().all(|&b| (b'0'..=NO_REPORT).contains(&b));
    (whole && flags && fits(first, count as usize)).then_some(ReplyRows {
        epoch,
        tick,
        first,
        count,
        digits,
    })
}

/// The bytes a window line — [`ServerFrame::Window`] or
/// [`ReplyBatch::Window`] — and no other line opens with.
pub(crate) fn window_tag() -> Vec<u8> {
    let probe = crate::message::encode(&ReplyBatch::Window {
        epoch: 0,
        tick: 0,
        first: 0,
        count: 1,
        flags: DigitColumn(vec![0]),
    });
    let key = probe.iter().position(|&b| b == b':').map_or(0, |at| at + 1);
    probe[..key].to_vec()
}

/// An [`F64Column`] over borrowed values: the same text, written
/// without owning them.
struct F64View<'a>(&'a [f64]);

impl F64View<'_> {
    fn write_digits(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.0.len() * F64Column::WIDTH, 0);
        let cells = out[start..].chunks_exact_mut(F64Column::WIDTH);
        for (cell, value) in cells.zip(self.0) {
            let bits = value.to_bits();
            cell[..8].copy_from_slice(&hex_digits((bits >> 32) as u32));
            cell[8..].copy_from_slice(&hex_digits(bits as u32));
        }
    }
}

/// A column of small integers as one JSON string, one ASCII digit each:
/// `[1, 0, 7]` is `"107"`. The parser accepts only digits `0`..=`MAX`; a
/// value over 9, which no digit spells, is written as `:` and so never
/// parses back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitColumn<const MAX: u8>(pub Vec<u8>);

impl<const MAX: u8> DigitColumn<MAX> {
    fn write_digits(&self, out: &mut Vec<u8>) {
        out.extend(self.0.iter().map(|&value| b'0' + value.min(10)));
    }

    fn parse(text: &str) -> Option<Self> {
        let values: Vec<u8> = text.bytes().map(|byte| byte.wrapping_sub(b'0')).collect();
        values
            .iter()
            .all(|&value| value <= MAX)
            .then_some(DigitColumn(values))
    }
}

/// A [`DigitColumn`] over borrowed digits: the same text, written
/// without owning them.
struct DigitView<'a>(&'a [u8]);

impl DigitView<'_> {
    fn write_digits(&self, out: &mut Vec<u8>) {
        out.extend(self.0.iter().map(|&value| b'0' + value.min(10)));
    }
}

/// The values of a run of monitors over a span of ticks, read off the
/// caller's traces as they are written — row by row, each row the run's
/// monitors in id order — so a send copies no value anywhere but onto
/// the wire.
struct ValuesView<'a> {
    value: &'a dyn Fn(u32, Tick) -> f64,
    monitors: Range<u32>,
    ticks: Range<Tick>,
}

impl ValuesView<'_> {
    fn write_digits(&self, out: &mut Vec<u8>) {
        let count = self.monitors.len() * (self.ticks.end - self.ticks.start) as usize;
        let start = out.len();
        out.resize(start + count * F64Column::WIDTH, 0);
        let mut cells = out[start..].chunks_exact_mut(F64Column::WIDTH);
        for tick in self.ticks.clone() {
            for (monitor, cell) in self.monitors.clone().zip(&mut cells) {
                let value = (self.value)(monitor, tick);
                // The wire rule: every runner refuses a non-finite trace
                // value before any tick, so none reaches a column.
                debug_assert!(value.is_finite(), "{value} in a column");
                let bits = value.to_bits();
                cell[..8].copy_from_slice(&hex_digits((bits >> 32) as u32));
                cell[8..].copy_from_slice(&hex_digits(bits as u32));
            }
        }
    }
}

/// The serde impls of a column type: a JSON string of its digits, the
/// same on the streaming and the tree path (`ser` alone for a view).
macro_rules! column_serde {
    (ser [$($generics:tt)*] $column:ty) => {
        impl<$($generics)*> Serialize for $column {
            fn to_value(&self) -> Value {
                let mut digits = Vec::new();
                self.write_digits(&mut digits);
                Value::String(String::from_utf8(digits).expect("digits are ASCII"))
            }

            fn write_json(&self, out: &mut Vec<u8>) {
                out.push(b'"');
                self.write_digits(out);
                out.push(b'"');
            }
        }
    };
    ([$($generics:tt)*] $column:ty) => {
        column_serde!(ser [$($generics)*] $column);

        impl<'de, $($generics)*> Deserialize<'de> for $column {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let text = value.as_str().ok_or_else(|| DeError::custom("expected string"))?;
                Self::parse(text).ok_or_else(|| DeError::custom("malformed column"))
            }

            fn from_json(parser: &mut Parser<'_>) -> Result<Self, DeError> {
                Self::parse(&parser.parse_str()?).ok_or_else(|| DeError::custom("malformed column"))
            }
        }
    };
}

column_serde!([] F64Column);
column_serde!(ser [] F64View<'_>);
column_serde!(ser [] ValuesView<'_>);
column_serde!([const MAX: u8] DigitColumn<MAX>);
column_serde!(ser [] DigitView<'_>);

/// [`ServerFrame::Window`] over values read off the traces — the same
/// variant, fields and derive, so the same bytes — for [`write_data`],
/// which then copies no value out of the traces.
#[derive(Serialize)]
enum DataLine<'a> {
    Window {
        epoch: u64,
        tick: Tick,
        len: u32,
        held: u32,
        first: u32,
        count: u32,
        values: ValuesView<'a>,
    },
}

/// [`ReplyBatch`] over borrowed columns — the same variants, fields and
/// derive, so the same bytes — for [`ReplyWriter`], which holds a run's
/// replies as columns instead of frames.
#[derive(Serialize)]
enum ReplyLine<'a> {
    PollReplies {
        epoch: u64,
        tick: Tick,
        first: u32,
        values: F64View<'a>,
        forced: DigitView<'a>,
    },
    Revived {
        epoch: u64,
        first: u32,
        count: u32,
    },
    Window {
        epoch: u64,
        tick: Tick,
        first: u32,
        count: u32,
        flags: DigitView<'a>,
    },
}

/// The kinds of reply that batch, and what a run of one kind shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    PollReplies(Tick),
    Revived,
}

/// What a reply must share with its neighbours to join their line —
/// kind, epoch and tick — and its sender, which must follow theirs;
/// `None` for a reply that always travels alone: a tick report (one
/// travels in its window's reply), a period report or a snapshot, or one
/// the wire cannot carry.
fn batchable(frame: &MonitorFrame) -> Option<((RunKind, u64), u32)> {
    if !frame.msg.is_wire_representable() {
        return None;
    }
    let (kind, monitor) = match frame.msg {
        MonitorToCoordinator::PollReply { monitor, tick, .. } => {
            (RunKind::PollReplies(tick), monitor)
        }
        MonitorToCoordinator::Revived { monitor } => (RunKind::Revived, monitor),
        _ => return None,
    };
    Some(((kind, frame.epoch), monitor.0))
}

/// An agent's reply encoder: takes the replies to one line one at a
/// time and appends them as lines — each run of consecutive monitors'
/// batchable replies of one kind, epoch and tick as one [`ReplyBatch`]
/// (split so that no line's payload passes the frame cap), every other
/// reply as its own [`MonitorFrame`] line. A run waits as columns, a
/// digit and a value per monitor, never as frames.
#[derive(Debug)]
pub(crate) struct ReplyWriter {
    max_frame: usize,
    /// The open run's kind and epoch, and its first monitor.
    run: Option<((RunKind, u64), u32)>,
    /// Per monitor of the open run: a poll reply's `forced` digit and
    /// value.
    digits: Vec<u8>,
    values: Vec<f64>,
    /// Lines appended since the last [`finish`](Self::finish).
    lines: u64,
}

impl ReplyWriter {
    /// A writer keeping each batch line under `max_frame`.
    pub(crate) fn new(max_frame: usize) -> Self {
        ReplyWriter {
            max_frame,
            run: None,
            digits: Vec::new(),
            values: Vec::new(),
            lines: 0,
        }
    }

    /// Takes the next reply, appending to `out` whatever it completes.
    pub(crate) fn push(&mut self, reply: &MonitorFrame, out: &mut Vec<u8>) {
        let key = batchable(reply);
        let joins = match (self.run, key) {
            (Some((open, first)), Some((key, monitor))) => {
                open == key && u64::from(first) + self.digits.len() as u64 == u64::from(monitor)
            }
            _ => false,
        };
        if !joins {
            self.close(out);
            if key.is_none() {
                encode_into(reply, out);
                self.lines += 1;
                return;
            }
            self.run = key;
        }
        let (digit, value) = match reply.msg {
            MonitorToCoordinator::PollReply {
                value,
                forced_sample,
                ..
            } => (u8::from(forced_sample), value),
            _ => (0, 0.0),
        };
        self.digits.push(digit);
        self.values.push(value);
    }

    /// Appends one [`ReplyBatch::Window`] line: the run of `count`
    /// monitors from `first` over the rows of `flags`, stepped from
    /// `tick` at `epoch`.
    pub(crate) fn window(
        &mut self,
        (epoch, tick): (u64, Tick),
        (first, count): (u32, u32),
        flags: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.close(out);
        let flags = DigitView(flags);
        let line = ReplyLine::Window {
            epoch,
            tick,
            first,
            count,
            flags,
        };
        encode_into(&line, out);
        self.lines += 1;
    }

    /// Appends the open run, if any, and returns how many lines were
    /// appended since the last call.
    pub(crate) fn finish(&mut self, out: &mut Vec<u8>) -> u64 {
        self.close(out);
        std::mem::take(&mut self.lines)
    }

    /// Appends the open run as lines under the frame cap; a run of one
    /// as the frame it was.
    fn close(&mut self, out: &mut Vec<u8>) {
        let Some(((kind, epoch), first)) = self.run.take() else {
            return;
        };
        let (digits, values) = (&self.digits, &self.values);
        let mut write = |part: Range<usize>, out: &mut Vec<u8>| {
            let at = first + part.start as u32;
            if part.len() == 1 {
                let msg = match kind {
                    RunKind::PollReplies(tick) => MonitorToCoordinator::PollReply {
                        monitor: MonitorId(at),
                        tick,
                        value: values[part.start],
                        forced_sample: digits[part.start] == 1,
                    },
                    RunKind::Revived => MonitorToCoordinator::Revived {
                        monitor: MonitorId(at),
                    },
                };
                return encode_into(&MonitorFrame { epoch, msg }, out);
            }
            let line = match kind {
                RunKind::PollReplies(tick) => ReplyLine::PollReplies {
                    epoch,
                    tick,
                    first: at,
                    values: F64View(&values[part.clone()]),
                    forced: DigitView(&digits[part]),
                },
                RunKind::Revived => ReplyLine::Revived {
                    epoch,
                    first: at,
                    count: part.len() as u32,
                },
            };
            encode_into(&line, out);
        };
        let len = self.digits.len();
        self.lines += write_split(0..len, self.max_frame, out, &mut write);
        self.digits.clear();
        self.values.clear();
    }
}

/// Appends `replies` — the frames of one send, in order — as agent
/// lines and returns how many: each run of consecutive monitors'
/// batchable replies of one kind, epoch and tick as one
/// [`ReplyBatch`] (split so that no line's payload passes `max_frame`),
/// every other reply as its own [`MonitorFrame`] line.
pub fn encode_replies(replies: &[MonitorFrame], max_frame: usize, out: &mut Vec<u8>) -> u64 {
    let mut writer = ReplyWriter::new(max_frame);
    for reply in replies {
        writer.push(reply, out);
    }
    writer.finish(out)
}

/// Hands `admit` everything one agent line carries, in order — a
/// [`ReplyBatch`] monitor by monitor, a window reply row by row, any
/// other line decoded as one [`MonitorFrame`] — and returns whether the
/// line carried any: a malformed line, or a batch whose expansion
/// refuses it, admits nothing.
pub fn expand_reply_line(line: &[u8], mut admit: impl FnMut(Reply<'_>)) -> bool {
    if let Some(rows) = window_reply(line) {
        (0..rows.len()).for_each(|row| admit(Reply::Row(rows.row(row))));
        return true;
    }
    match decode_line::<ReplyBatch>(line) {
        Ok(batch) => batch.expand(admit),
        Err(_) => decode_line::<MonitorFrame>(line)
            .map(|frame| admit(Reply::Frame(frame)))
            .is_ok(),
    }
}

/// Appends `frame` for the `count` monitors from `first` as coordinator
/// lines whose payloads fit `max_frame` wherever a split can make them —
/// a [`ServerFrame::Fan`], or a [`ServerFrame::Ctl`] for one — returning
/// how many.
pub(crate) fn write_fan(
    (first, count): (u32, usize),
    frame: ControlFrame,
    max_frame: usize,
    out: &mut Vec<u8>,
) -> u64 {
    write_split(0..count, max_frame, out, &mut |part, out| {
        let at = first + part.start as u32;
        let line = match part.len() {
            1 => ServerFrame::Ctl { to: at, frame },
            n => ServerFrame::Fan {
                first: at,
                count: n as u32,
                frame,
            },
        };
        encode_into(&line, out);
    })
}

/// Appends the data of `ticks` for the monitors `monitors`, read off
/// `value`, as [`ServerFrame::Window`] lines whose payloads fit
/// `max_frame` wherever a split (by monitors) can make them, returning
/// how many — one tick's data as a window of one. A window granted along
/// with a poll names the `held` ticks, from its first, whose values the
/// agent already holds, and carries the rest; any other carries every
/// value.
pub(crate) fn write_data(
    epoch: u64,
    (ticks, held): (Range<Tick>, u64),
    (monitors, value): (Range<u32>, &dyn Fn(u32, Tick) -> f64),
    max_frame: usize,
    out: &mut Vec<u8>,
) -> u64 {
    let (tick, len) = (ticks.start, ticks.end - ticks.start);
    let carried = tick + held.min(len)..ticks.end;
    let rows = (carried.end - carried.start) as usize;
    write_split(0..monitors.len(), max_frame, out, &mut |part, out| {
        let first = monitors.start + part.start as u32;
        // Room for the whole line at once: a long one is not doubled into.
        out.reserve(WINDOW_OVERHEAD + 1 + part.len() * rows * F64Column::WIDTH);
        let line = DataLine::Window {
            epoch,
            tick,
            len: len as u32,
            held: (carried.start - tick) as u32,
            first,
            count: part.len() as u32,
            values: ValuesView {
                value,
                monitors: first..first + part.len() as u32,
                ticks: carried.clone(),
            },
        };
        encode_into(&line, out);
    })
}

/// The longest window whose line for a single monitor fits `max_frame`
/// at any epoch, tick and id — one that fits travels however the plane
/// splits its run — capped at `len`; 1 when no window fits.
pub(crate) fn window_fits(len: u64, max_frame: usize) -> u64 {
    let fits = max_frame.saturating_sub(WINDOW_OVERHEAD) / F64Column::WIDTH;
    len.min(fits.min(MAX_WINDOW) as u64).max(1)
}

/// The most a data line for one monitor holds besides its values:
/// `{"Window":{"epoch":…,"tick":…,"len":…,"held":…,"first":…,"count":…,
/// "values":"…"}}` has 74 bytes of keys and punctuation, and at most
/// 20 + 20 + 1 + 1 + 10 + 1 digits (`len` and `held` are at most
/// [`MAX_WINDOW`], `count` is 1).
const WINDOW_OVERHEAD: usize = 74 + 53;

/// Appends the lines `line` makes of `items`, returning how many: one
/// line for all of them when its payload fits `max_frame` (or `items`
/// is a single one, which cannot be split), else the two halves' lines.
fn write_split(
    items: Range<usize>,
    max_frame: usize,
    out: &mut Vec<u8>,
    line: &mut impl FnMut(Range<usize>, &mut Vec<u8>),
) -> u64 {
    let start = out.len();
    line(items.clone(), out);
    // The payload, as a reader's frame cap measures it: sans newline.
    if items.len() == 1 || out.len() - start - 1 <= max_frame {
        return 1;
    }
    out.truncate(start);
    let mid = items.start + items.len() / 2;
    write_split(items.start..mid, max_frame, out, line)
        + write_split(mid..items.end, max_frame, out, line)
}

/// Encodes a [`ServerFrame::Welcome`] line.
pub fn welcome_line(epoch: u64) -> Bytes {
    crate::message::encode(&ServerFrame::Welcome { epoch })
}

/// Wraps an already-encoded control frame into a [`ServerFrame::Ctl`]
/// line without re-encoding it: `{"Ctl":{"to":N,"frame":` + the control
/// frame's JSON + `}}` — byte for byte what the socket plane streams for
/// a run of one.
///
/// `control` must be [`crate::message::encode`] output (newline
/// terminated); the trailing newline is stripped before splicing.
pub fn ctl_line(to: u32, control: &Bytes) -> Bytes {
    let body = match control.last() {
        Some(b'\n') => &control[..control.len() - 1],
        _ => &control[..],
    };
    let mut out = Vec::with_capacity(body.len() + 32);
    out.extend_from_slice(b"{\"Ctl\":{\"to\":");
    out.extend_from_slice(to.to_string().as_bytes());
    out.extend_from_slice(b",\"frame\":");
    out.extend_from_slice(body);
    out.extend_from_slice(b"}}\n");
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode, encode};

    #[test]
    fn hello_round_trips() {
        let hello = AgentHello {
            agent: 7,
            first: 14,
            count: 3,
            epoch: 3,
        };
        let bytes = encode(&hello);
        let back: AgentHello = decode(&bytes).unwrap();
        assert_eq!(back, hello);
    }

    #[test]
    fn welcome_round_trips() {
        let back: ServerFrame = decode(&welcome_line(9)).unwrap();
        assert_eq!(back, ServerFrame::Welcome { epoch: 9 });
    }

    #[test]
    fn ctl_splice_matches_derived_encoding() {
        // The splice must be byte-identical to encoding the enum the slow
        // way — which is the derive's *streamed* `write_json`, itself held
        // to the `Value` tree's rendering here — for every control message
        // shape that crosses the wire.
        let seal = |epoch, msg| ControlFrame { epoch, msg };
        let frames = vec![
            seal(
                0,
                CoordinatorToMonitor::Tick(TickData {
                    tick: 42,
                    value: 17.5,
                }),
            ),
            seal(
                u64::MAX,
                CoordinatorToMonitor::Tick(TickData {
                    tick: u64::MAX,
                    value: -3.0,
                }),
            ),
            seal(2, CoordinatorToMonitor::Poll { tick: 7 }),
            seal(1, CoordinatorToMonitor::SetAllowance { err: 0.0125 }),
            seal(5, CoordinatorToMonitor::NewEpoch { epoch: 6 }),
            seal(3, CoordinatorToMonitor::SetGate { interval: Some(8) }),
            seal(3, CoordinatorToMonitor::SetGate { interval: None }),
            seal(0, CoordinatorToMonitor::RequestReport),
            seal(0, CoordinatorToMonitor::Shutdown),
        ];
        for frame in frames {
            let control = encode(&frame);
            let spliced = ctl_line(31, &control);
            let wrapped = ServerFrame::Ctl { to: 31, frame };
            let derived = encode(&wrapped);
            assert_eq!(spliced, derived, "splice drifted from derive for {frame:?}");
            // What the socket plane writes: the envelope streamed straight
            // into a connection's write batch, behind what is staged there.
            let mut batch = b"staged\n".to_vec();
            encode_into(&wrapped, &mut batch);
            assert_eq!(batch[7..], spliced[..], "the plane's bytes drifted");
            let mut tree = Vec::new();
            serde::json::write_value(&wrapped.to_value(), &mut tree, None);
            tree.push(b'\n');
            assert_eq!(
                &spliced[..],
                &tree[..],
                "streamed encoding drifted from the tree's"
            );
            // And the result decodes back to the same control frame.
            match decode::<ServerFrame>(&spliced).unwrap() {
                ServerFrame::Ctl { to, frame: back } => {
                    assert_eq!(to, 31);
                    assert_eq!(back, frame);
                }
                other => panic!("expected Ctl, got {other:?}"),
            }
        }
    }

    /// The drift guard for the wire format: [`ctl_line`] is the only
    /// hand-spelled JSON in any crate's non-test code. Every other frame,
    /// record and report gets its text from the derives, so a new
    /// `"{\"epoch\":…"`-style fast path cannot quietly grow beside them.
    #[test]
    fn ctl_line_is_the_only_hand_spliced_json() {
        use std::path::{Path, PathBuf};
        fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).expect("readable dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    sources(&path, out);
                } else if path.extension().is_some_and(|ext| ext == "rs") {
                    out.push(path);
                }
            }
        }
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let mut files = Vec::new();
        for entry in std::fs::read_dir(crates).expect("readable crates dir") {
            sources(&entry.expect("dir entry").path().join("src"), &mut files);
        }
        assert!(files.len() > 50, "walked {} sources", files.len());
        // An object opening on a quoted key: `{\"key\":` inside a string
        // or byte-string literal, `{"key":` inside a raw one.
        let opens_object = |line: &str| {
            [("{\\\"", "\\\":"), ("{\"", "\":")]
                .iter()
                .any(|(open, close)| {
                    line.match_indices(open).any(|(at, _)| {
                        let rest = &line[at + open.len()..];
                        let key =
                            rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
                        key.len() < rest.len() && key.starts_with(close)
                    })
                })
        };
        let mut spliced = Vec::new();
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable source");
            let code = &text[..text.find("#[cfg(test)]").unwrap_or(text.len())];
            for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
                if opens_object(line) {
                    let file = path.strip_prefix(crates).unwrap().display().to_string();
                    spliced.push((file, line.trim().to_string()));
                }
            }
        }
        assert_eq!(
            spliced,
            [(
                "runtime/src/net/wire.rs".to_string(),
                "out.extend_from_slice(b\"{\\\"Ctl\\\":{\\\"to\\\":\");".to_string()
            )],
            "hand-spelled JSON outside `ctl_line`"
        );
    }

    fn poll_reply(monitor: u32, value: f64) -> MonitorFrame {
        poll_reply_at(monitor, 9, value)
    }

    fn poll_reply_at(monitor: u32, tick: Tick, value: f64) -> MonitorFrame {
        let msg = MonitorToCoordinator::PollReply {
            monitor: MonitorId(monitor),
            tick,
            value,
            forced_sample: monitor.is_multiple_of(2),
        };
        MonitorFrame { epoch: 2, msg }
    }

    /// The `TickDone` of `monitor` at `tick` that flag digit `bits`
    /// encodes.
    fn tick_done(monitor: u32, tick: Tick, bits: u8) -> MonitorToCoordinator {
        MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled: bits & 1 != 0,
            violation: bits & 2 != 0,
            suppressed: bits & 4 != 0,
        }
    }

    /// The frames `reply` stands for: a row's reports as their
    /// `TickDone`s.
    fn frames_of(reply: Reply<'_>) -> Vec<MonitorFrame> {
        match reply {
            Reply::Frame(frame) => vec![frame],
            Reply::Row(row) => (row.first..=u32::MAX)
                .zip(row.digits)
                .filter(|(_, &digit)| digit < NO_REPORT)
                .map(|(monitor, &digit)| MonitorFrame {
                    epoch: row.epoch,
                    msg: tick_done(monitor, row.tick, digit - b'0'),
                })
                .collect(),
        }
    }

    /// Every frame an agent payload carries, in order.
    fn expanded(payload: &[u8]) -> Vec<MonitorFrame> {
        let mut frames = Vec::new();
        for line in payload.split_inclusive(|&b| b == b'\n') {
            expand_reply_line(line, |reply| frames.extend(frames_of(reply)));
        }
        frames
    }

    /// A reply the wire cannot carry leaves as its own line — malformed,
    /// so it alone is lost — and its neighbours stay batched around it.
    #[test]
    fn a_non_finite_poll_reply_travels_alone_and_takes_no_neighbour_down() {
        let replies = [
            poll_reply(0, 1.5),
            poll_reply(1, 2.5),
            poll_reply(2, f64::NAN),
            poll_reply(3, -0.0),
            poll_reply(4, 4.5),
        ];
        let mut payload = Vec::new();
        assert_eq!(encode_replies(&replies, usize::MAX, &mut payload), 3);
        let lines: Vec<&[u8]> = payload.split_inclusive(|&b| b == b'\n').collect();
        let batch = |first: u32, values: Vec<f64>, forced: Vec<u8>| {
            encode(&ReplyBatch::PollReplies {
                epoch: 2,
                tick: 9,
                first,
                values: F64Column(values),
                forced: DigitColumn(forced),
            })
        };
        assert_eq!(lines[0], &batch(0, vec![1.5, 2.5], vec![1, 0])[..]);
        assert_eq!(
            lines[1],
            &encode(&replies[2])[..],
            "alone, as it always was"
        );
        assert_eq!(lines[2], &batch(3, vec![-0.0, 4.5], vec![0, 1])[..]);
        let carried: Vec<MonitorFrame> = expanded(&payload);
        let survivors = [0, 1, 3, 4].map(|i| replies[i].clone());
        assert_eq!(carried, survivors);
        assert!(
            carried[2].msg == replies[3].msg
                && matches!(
                    carried[2].msg,
                    MonitorToCoordinator::PollReply { value, .. } if value.is_sign_negative()
                )
        );
    }

    /// A run breaks wherever kind, epoch, tick or the next id does, and a
    /// reply that never batches — a tick report among them, which travels
    /// in its window's reply — sits between runs on its own line.
    #[test]
    fn replies_batch_only_in_runs_of_one_kind_epoch_tick_and_consecutive_ids() {
        let mut stale = poll_reply(3, 3.0);
        stale.epoch = 1;
        let revived = MonitorFrame {
            epoch: 2,
            msg: MonitorToCoordinator::Revived {
                monitor: MonitorId(6),
            },
        };
        let report = MonitorFrame {
            epoch: 2,
            msg: tick_done(9, 10, 0b011),
        };
        let replies = vec![
            poll_reply(0, 0.5),
            poll_reply(1, 1.5),
            poll_reply(2, 2.5),
            stale,
            poll_reply(4, 4.5),
            poll_reply(6, 6.5),
            revived,
            poll_reply_at(7, 10, 7.5),
            poll_reply_at(8, 10, 8.5),
            report,
        ];
        let mut payload = Vec::new();
        // [0 1 2] [3 stale] [4] [6] [Revived] [7 8 at 10] [report 9]
        assert_eq!(encode_replies(&replies, usize::MAX, &mut payload), 7);
        let first = payload.split_inclusive(|&b| b == b'\n').next().unwrap();
        let batch = ReplyBatch::PollReplies {
            epoch: 2,
            tick: 9,
            first: 0,
            values: F64Column(vec![0.5, 1.5, 2.5]),
            forced: DigitColumn(vec![1, 0, 1]),
        };
        assert_eq!(first, &encode(&batch)[..]);
        assert_eq!(expanded(&payload), replies);
    }

    /// Under a frame cap a run splits into halves until every line fits;
    /// a single frame over the cap still leaves, as it did unbatched.
    #[test]
    fn runs_split_under_the_frame_cap_and_expand_to_the_same_frames() {
        let replies: Vec<MonitorFrame> =
            (0..40).map(|m| poll_reply(m, 1e3 + f64::from(m))).collect();
        for cap in [0, 40, 64, 100, 256, 1024, usize::MAX] {
            let mut payload = Vec::new();
            let lines = encode_replies(&replies, cap, &mut payload);
            let longest = payload
                .split_inclusive(|&b| b == b'\n')
                .map(|line| line.len() - 1)
                .max()
                .unwrap();
            let single = encode(&replies[39]).len() - 1;
            assert!(
                longest <= cap.max(single),
                "cap {cap}: a {longest}-byte line"
            );
            assert!(lines as usize <= replies.len());
            assert_eq!(expanded(&payload), replies, "cap {cap}");
        }
    }

    /// What a batch claims is checked before any of it is admitted.
    #[test]
    fn a_malformed_batch_admits_nothing() {
        let bad = [
            ReplyBatch::Window {
                epoch: 0,
                tick: 1,
                first: 0,
                count: 2,
                flags: DigitColumn(vec![0, 8, 1]),
            },
            ReplyBatch::Window {
                epoch: 0,
                tick: 1,
                first: u32::MAX,
                count: 2,
                flags: DigitColumn(vec![0, 0]),
            },
            ReplyBatch::Window {
                epoch: 0,
                tick: 1,
                first: 0,
                count: 1,
                flags: DigitColumn(vec![0; MAX_WINDOW + 1]),
            },
            ReplyBatch::PollReplies {
                epoch: 0,
                tick: 1,
                first: 0,
                values: F64Column(vec![1.0, 2.0]),
                forced: DigitColumn(vec![1]),
            },
        ];
        for batch in bad {
            let mut admitted = 0;
            assert!(!expand_reply_line(&encode(&batch), |_| admitted += 1));
            assert_eq!(admitted, 0, "{batch:?}");
        }
        assert!(!expand_reply_line(b"{\"Window\":7}\n", |_| unreachable!()));
        let last = ReplyBatch::Window {
            epoch: 0,
            tick: 1,
            first: u32::MAX,
            count: 1,
            flags: DigitColumn(vec![1]),
        };
        let mut admitted = Vec::new();
        assert!(expand_reply_line(&encode(&last), |reply| admitted.extend(frames_of(reply))));
        assert!(matches!(
            admitted[..],
            [MonitorFrame {
                msg: MonitorToCoordinator::TickDone {
                    monitor: MonitorId(u32::MAX),
                    sampled: true,
                    ..
                },
                ..
            }]
        ));
    }

    /// The columns' bytes, pinned: each value's bits as 16 lowercase hex
    /// digits, each flag as one digit — and every accepted line encodes
    /// back to exactly the bytes it was read from.
    #[test]
    fn column_lines_carry_bits_and_digits_byte_for_byte() {
        let values = F64Column(vec![1.0, -0.0, 5e-324, f64::MAX, 0.1]);
        let hex = "3ff0000000000000\
                   8000000000000000\
                   0000000000000001\
                   7fefffffffffffff\
                   3fb999999999999a";
        let data = ServerFrame::Window {
            epoch: 3,
            tick: 42,
            len: 1,
            held: 0,
            first: 7,
            count: 5,
            values: values.clone(),
        };
        let reports = ReplyBatch::Window {
            epoch: 3,
            tick: 42,
            first: 7,
            count: 5,
            flags: DigitColumn(vec![0, 1, 2, 7, 5]),
        };
        let polls = ReplyBatch::PollReplies {
            epoch: 3,
            tick: 42,
            first: 7,
            values,
            forced: DigitColumn(vec![1, 0, 0, 1, 1]),
        };
        let golden = [
            format!(
                "{{\"Window\":{{\"epoch\":3,\"tick\":42,\"len\":1,\"held\":0,\"first\":7,\
                 \"count\":5,\"values\":\"{hex}\"}}}}\n"
            ),
            "{\"Window\":{\"epoch\":3,\"tick\":42,\"first\":7,\"count\":5,\"flags\":\"01275\"}}\n"
                .into(),
            format!(
                "{{\"PollReplies\":{{\"epoch\":3,\"tick\":42,\"first\":7,\"values\":\"{hex}\",\
                 \"forced\":\"10011\"}}}}\n"
            ),
        ];
        assert_eq!(std::str::from_utf8(&encode(&data)).unwrap(), golden[0]);
        assert_eq!(std::str::from_utf8(&encode(&reports)).unwrap(), golden[1]);
        assert_eq!(std::str::from_utf8(&encode(&polls)).unwrap(), golden[2]);
        let back: ServerFrame = decode_line(golden[0].as_bytes()).unwrap();
        assert_eq!(encode(&back)[..], *golden[0].as_bytes());
        match back {
            ServerFrame::Window { values, .. } => {
                assert!(values.0[1].is_sign_negative(), "-0.0 keeps its sign");
                assert_eq!(values.0[2].to_bits(), 1, "the least subnormal");
            }
            other => panic!("expected a window, got {other:?}"),
        }
        for line in &golden[1..] {
            let batch: ReplyBatch = decode_line(line.as_bytes()).unwrap();
            assert_eq!(encode(&batch)[..], *line.as_bytes());
            let mut admitted = Vec::new();
            assert!(expand_reply_line(line.as_bytes(), |reply| admitted.extend(frames_of(reply))));
            assert_eq!(admitted.len(), 5);
        }
    }

    /// A column in anything but canonical text fails its whole line: no
    /// frame of it is admitted or delivered, and no non-finite value gets
    /// through as a bit pattern either.
    #[test]
    fn a_non_canonical_column_fails_its_whole_line() {
        let one = "3ff0000000000000";
        let data = |values: &str| {
            format!(
                "{{\"Window\":{{\"epoch\":0,\"tick\":1,\"len\":1,\"held\":0,\"first\":0,\
                 \"count\":2,\"values\":\"{values}\"}}}}\n"
            )
        };
        let polls = |values: &str, forced: &str| {
            format!(
                "{{\"PollReplies\":{{\"epoch\":0,\"tick\":1,\"first\":0,\"values\":\"{values}\",\
                 \"forced\":\"{forced}\"}}}}\n"
            )
        };
        let reports = |flags: &str| {
            format!(
                "{{\"Window\":{{\"epoch\":0,\"tick\":1,\"first\":0,\"count\":2,\
                 \"flags\":\"{flags}\"}}}}\n"
            )
        };
        // The canonical lines these corrupt are accepted.
        let line = data(&one.repeat(2));
        assert!(decode_line::<ServerFrame>(line.as_bytes()).is_ok());
        assert!(WindowLine::parse(line.as_bytes()).is_some());
        assert!(expand_reply_line(
            polls(&one.repeat(2), "10").as_bytes(),
            |_| {}
        ));
        assert!(expand_reply_line(reports("08").as_bytes(), |_| {}));
        assert!(window_reply(reports("08").as_bytes()).is_some());
        let bad_values = [
            format!("{one}{}", &one[1..]),    // odd length
            format!("{one}3FF0000000000000"), // uppercase hex
            format!("{one}3ff000000000000g"), // a non-hex byte
            format!("{one}{:016x}", f64::NAN.to_bits()),
            format!("{one}{:016x}", f64::INFINITY.to_bits()),
            format!("{one}{:016x}", f64::NEG_INFINITY.to_bits()),
            format!("{one}fff8000000000001"), // a negative NaN payload
        ];
        for values in &bad_values {
            let line = data(values);
            assert!(
                decode_line::<ServerFrame>(line.as_bytes()).is_err(),
                "{line}"
            );
            assert!(WindowLine::parse(line.as_bytes()).is_none(), "{line}");
            let line = polls(values, "10");
            assert!(
                !expand_reply_line(line.as_bytes(), |_| unreachable!()),
                "{line}"
            );
        }
        for flags in ["09", "0:", "0a", "0 "] {
            let line = reports(flags);
            assert!(window_reply(line.as_bytes()).is_none(), "{line}");
            assert!(
                !expand_reply_line(line.as_bytes(), |_| unreachable!()),
                "{line}"
            );
        }
        let line = polls(&one.repeat(2), "12");
        assert!(
            !expand_reply_line(line.as_bytes(), |_| unreachable!()),
            "{line}"
        );
        // A number array, the shape before columns, is no column either.
        let line = data(one).replace(&format!("\"{one}\""), "[1.0]");
        assert!(
            decode_line::<ServerFrame>(line.as_bytes()).is_err(),
            "{line}"
        );
    }

    /// Tick data goes out as window lines only — one tick's for a run as
    /// a window of one, one monitor's as a window with a count of one — a
    /// frame repeated for a run as a `Fan` line, for one monitor as a
    /// `Ctl`; each expands back to the frames it was made of.
    #[test]
    fn data_and_fan_runs_become_window_fan_and_ctl_lines_and_expand_back() {
        let value = |to: u32, tick: Tick| f64::from(to) + tick as f64 / 4.0;
        let poll = ControlFrame {
            epoch: 1,
            msg: CoordinatorToMonitor::Poll { tick: 4 },
        };
        let mut wire = Vec::new();
        let mut lines = write_data(1, (4..5, 0), (0..3, &value), usize::MAX, &mut wire);
        lines += write_data(1, (5..6, 0), (3..4, &value), usize::MAX, &mut wire);
        lines += write_fan((0, 3), poll, usize::MAX, &mut wire);
        lines += write_fan((3, 1), poll, usize::MAX, &mut wire);
        assert_eq!(lines, 4);
        let lines: Vec<ServerFrame> = wire
            .split_inclusive(|&b| b == b'\n')
            .map(|line| decode_line(line).unwrap())
            .collect();
        let window = |tick, first, count, values| ServerFrame::Window {
            epoch: 1,
            tick,
            len: 1,
            held: 0,
            first,
            count,
            values: F64Column(values),
        };
        let expected = [
            window(4, 0, 3, vec![1.0, 2.0, 3.0]),
            window(5, 3, 1, vec![4.25]),
            ServerFrame::Fan {
                first: 0,
                count: 3,
                frame: poll,
            },
            ServerFrame::Ctl { to: 3, frame: poll },
        ];
        assert_eq!(lines, expected);
        let mut delivered = Vec::new();
        for line in lines {
            line.expand(0..u32::MAX, |to, frame| delivered.push((to, frame.msg)));
        }
        let data = |to: u32, tick| {
            CoordinatorToMonitor::Tick(TickData {
                tick,
                value: value(to, tick),
            })
        };
        let mut carried: Vec<(u32, CoordinatorToMonitor)> = vec![
            (0, data(0, 4)),
            (1, data(1, 4)),
            (2, data(2, 4)),
            (3, data(3, 5)),
        ];
        carried.extend((0..4).map(|to| (to, poll.msg)));
        assert_eq!(delivered, carried);
    }

    /// A data run written from its borrowed values is, line for line and
    /// under any frame cap, the bytes of the owned `Window` frame.
    #[test]
    fn data_runs_write_the_owned_frames_bytes_under_every_cap() {
        let value = |to: u32, tick: Tick| f64::from(to) * -0.3 + tick as f64;
        for cap in [0, 100, 256, 1024, usize::MAX] {
            for ticks in [6..7, 6..14] {
                let mut wire = Vec::new();
                let lines = write_data(2, (ticks, 0), (5..45, &value), cap, &mut wire);
                let mut seen = 0;
                for line in wire.split_inclusive(|&b| b == b'\n') {
                    let frame: ServerFrame = decode_line(line).unwrap();
                    assert_eq!(encode(&frame)[..], *line, "cap {cap}");
                    seen += 1;
                }
                assert_eq!(seen, lines);
            }
        }
    }

    /// A window granted along with a poll carries only the ticks it does
    /// not name held — none when it holds them all — and its line reads
    /// the same way through the decoder and where it lies; a line whose
    /// values disagree with its shape is refused.
    #[test]
    fn a_window_line_carries_only_the_ticks_it_does_not_hold() {
        let value = |to: u32, tick: Tick| f64::from(to) + tick as f64 / 10.0;
        for (held, len) in [(0, 3), (0, 1), (2, 5), (4, 4)] {
            let mut wire = Vec::new();
            let grant = (10..10 + len, held);
            assert_eq!(
                write_data(7, grant, (4..7, &value), usize::MAX, &mut wire),
                1
            );
            let frame: ServerFrame = decode_line(&wire).unwrap();
            let carried: Vec<f64> = (10 + held..10 + len)
                .flat_map(|tick| (4..7).map(move |to| value(to, tick)))
                .collect();
            let expected = ServerFrame::Window {
                epoch: 7,
                tick: 10,
                len: len as u32,
                held: held as u32,
                first: 4,
                count: 3,
                values: F64Column(carried),
            };
            assert_eq!(frame, expected);
            let line = WindowLine::parse(&wire).expect("a window line");
            assert_eq!(
                (line.tick, line.len, line.held, line.count),
                (10, len as u32, held as u32, 3)
            );
            for row in held..len {
                for column in 0..3 {
                    let at = line.value(row as usize, column);
                    assert_eq!(at, value(4 + column as u32, 10 + row));
                }
            }
            let mut delivered = Vec::new();
            frame.expand(0..u32::MAX, |to, frame| delivered.push((to, frame.msg)));
            assert_eq!(delivered.len() as u64, 3 * (len - held));
        }
        let mut wire = Vec::new();
        write_data(7, (10..13, 1), (4..7, &value), usize::MAX, &mut wire);
        let text = String::from_utf8(wire).unwrap();
        for (from, to) in [("\"held\":1", "\"held\":0"), ("\"held\":1", "\"held\":4")] {
            let bad = text.replace(from, to);
            assert!(WindowLine::parse(bad.as_bytes()).is_none(), "{bad}");
        }
        let bad = text.replace("\"count\":3", "\"count\":2");
        assert!(WindowLine::parse(bad.as_bytes()).is_none(), "{bad}");
    }

    /// An agent takes from a line only the monitors it hosts, whatever
    /// count the line claims.
    #[test]
    fn a_line_delivers_only_the_hosted_monitors() {
        let frame = ControlFrame {
            epoch: 0,
            msg: CoordinatorToMonitor::Shutdown,
        };
        let fan = ServerFrame::Fan {
            first: 2,
            count: u32::MAX,
            frame,
        };
        let mut to = Vec::new();
        fan.expand(5..8, |id, _| to.push(id));
        assert_eq!(to, [5, 6, 7]);
        let data = ServerFrame::Window {
            epoch: 0,
            tick: 0,
            len: 1,
            held: 0,
            first: 6,
            count: 4,
            values: F64Column(vec![1.0; 4]),
        };
        to.clear();
        data.expand(5..8, |id, _| to.push(id));
        assert_eq!(to, [6, 7]);
        to.clear();
        ServerFrame::Ctl { to: 9, frame }.expand(5..8, |id, _| to.push(id));
        assert!(to.is_empty());
    }

    /// The per-nibble column codec the word-at-a-time one replaced, kept
    /// as its oracle.
    mod reference {
        pub fn write_hex(values: &[f64], out: &mut Vec<u8>) {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            for value in values {
                let bits = value.to_bits();
                let mut digits = [0; 16];
                for (at, digit) in digits.iter_mut().enumerate() {
                    *digit = HEX[(bits >> (60 - 4 * at)) as usize & 0xf];
                }
                out.extend_from_slice(&digits);
            }
        }

        pub fn parse_hex(text: &str) -> Option<Vec<f64>> {
            let nibble = |digit: u8| match digit {
                b'0'..=b'9' => Some(u64::from(digit - b'0')),
                b'a'..=b'f' => Some(u64::from(digit - b'a' + 10)),
                _ => None,
            };
            let text = text.as_bytes();
            if !text.len().is_multiple_of(16) {
                return None;
            }
            let values = text.chunks_exact(16).map(|digits| {
                let bits = digits
                    .iter()
                    .try_fold(0, |bits, &digit| Some(bits << 4 | nibble(digit)?))?;
                Some(f64::from_bits(bits)).filter(|value| value.is_finite())
            });
            values.collect()
        }

        pub fn parse_digits(text: &str, max: u8) -> Option<Vec<u8>> {
            let digit = |&byte: &u8| Some(byte.wrapping_sub(b'0')).filter(|&value| value <= max);
            text.as_bytes().iter().map(digit).collect()
        }
    }

    /// What a column's text is built from: canonical digits and the
    /// near misses a parser must refuse.
    const PALETTE: [&str; 26] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "a", "b", "c", "d", "e", "f", "A", "F",
        "g", ":", "/", "`", " ", "é", "\u{7f}", "\u{80}",
    ];

    fn bits_of(column: Option<F64Column>) -> Option<Vec<u64>> {
        column.map(|column| column.0.iter().map(|value| value.to_bits()).collect())
    }

    proptest::proptest! {
        #[test]
        fn column_writer_prints_what_format_prints(
            words in proptest::collection::vec(0..u64::MAX, 0..9),
        ) {
            let values: Vec<f64> = words.iter().map(|&bits| f64::from_bits(bits)).collect();
            let mut written = b"kept".to_vec();
            F64Column(values.clone()).write_digits(&mut written);
            let printed: String = words.iter().map(|bits| format!("{bits:016x}")).collect();
            proptest::prop_assert_eq!(&written[4..], printed.as_bytes());
            let mut borrowed = Vec::new();
            F64View(&values).write_digits(&mut borrowed);
            let mut old = Vec::new();
            reference::write_hex(&values, &mut old);
            proptest::prop_assert_eq!(&borrowed, &old);
            proptest::prop_assert_eq!(&written[4..], &old[..]);
        }

        #[test]
        fn column_parsers_accept_and_refuse_what_the_reference_does(
            cells in proptest::collection::vec(0..u64::MAX, 0..6),
            digits in proptest::collection::vec(0..u8::MAX, 0..81),
            (flaw, at, trim) in (0usize..2 * PALETTE.len() + 4, 0usize..96, 0usize..24),
            top in 0u8..10,
            noise in proptest::collection::vec(0usize..PALETTE.len(), 0..81),
        ) {
            // A hex column and a digit column, each clean about half the
            // time and otherwise with one flaw: a character swapped for a
            // palette entry, a non-finite value, a cut; the digits run
            // up to `top`, on either side of each column's largest.
            let mut values = cells.clone();
            if flaw >= 2 * PALETTE.len() && !values.is_empty() {
                let n = values.len();
                values[at % n] |= 0x7ff0_0000_0000_0000;
            }
            let hex: String = values.iter().map(|bits| format!("{bits:016x}")).collect();
            let mut hex = swapped(&hex, flaw, at);
            if trim < 3 {
                hex.truncate(hex.floor_char_boundary(hex.len().saturating_sub(trim)));
            }
            let digits: String = digits.iter().map(|d| char::from(b'0' + d % (top + 1))).collect();
            let digits = swapped(&digits, flaw, at);
            let noise: String = noise.iter().map(|&pick| PALETTE[pick]).collect();
            for text in [&hex, &digits, &noise] {
                proptest::prop_assert_eq!(
                    bits_of(F64Column::parse(text)),
                    bits_of(reference::parse_hex(text).map(F64Column)),
                    "{:?}",
                    text
                );
                proptest::prop_assert_eq!(
                    DigitColumn::<8>::parse(text).map(|column| column.0),
                    reference::parse_digits(text, 8),
                    "{:?}",
                    text
                );
                proptest::prop_assert_eq!(
                    DigitColumn::<1>::parse(text).map(|column| column.0),
                    reference::parse_digits(text, 1),
                    "{:?}",
                    text
                );
            }
        }
    }

    proptest::proptest! {
        /// The plane's writers under any frame cap and any fragmentation:
        /// a run's tick data over a span of ticks — a window, one tick's
        /// included, naming some of them held — and a run's repeated
        /// control frame become lines that a reader capped at the sender's
        /// cap (or a one-monitor line's length, if longer) reassembles,
        /// that decode, fit the cap unless they carry one monitor, and
        /// expand back to exactly the frames of the run.
        #[test]
        fn data_and_fan_lines_expand_to_the_frames_they_were_made_of(
            segments in proptest::collection::vec(((0u8..4, 1u32..9, 0u32..3), (0u8..4, 1u64..9)), 0..12),
            cap in 0usize..600,
            cuts in proptest::collection::vec(0usize..16_384, 0..24),
        ) {
            // A segment: kind, run length, gap before it (0 continues the
            // last id), an epoch/tick/held wobble, and a window's length.
            // A one-monitor line is longest for the run's last, widest id.
            let (mut wire, mut lines, mut sent, mut lone) = (Vec::new(), 0, Vec::new(), 0);
            let mut next = 0u32;
            for (i, &((kind, count, gap), (wobble, len))) in segments.iter().enumerate() {
                next += gap;
                let (epoch, tick) = (u64::from(wobble & 1), 40 + u64::from(wobble >> 1));
                let run = next..next + count;
                let value = |to: u32, tick: Tick| f64::from(to) * 1.25 - tick as f64 + i as f64;
                if kind == 0 {
                    let held = u64::from(wobble >> 1).min(len);
                    let ticks = tick..tick + len;
                    lines += write_data(epoch, (ticks, held), (run.clone(), &value), cap, &mut wire);
                    for tick in tick + held..tick + len {
                        for to in run.clone() {
                            let msg = CoordinatorToMonitor::Tick(TickData { tick, value: value(to, tick) });
                            sent.push((to, ControlFrame { epoch, msg }));
                        }
                    }
                    let mut one = Vec::new();
                    write_data(epoch, (tick..tick + len, held), (run.end - 1..run.end, &value), 0, &mut one);
                    lone = lone.max(one.len() - 1);
                } else {
                    let msg = match kind {
                        1 => CoordinatorToMonitor::Poll { tick },
                        2 => CoordinatorToMonitor::SetAllowance { err: 0.01 * f64::from(wobble) },
                        _ => CoordinatorToMonitor::Shutdown,
                    };
                    let frame = ControlFrame { epoch, msg };
                    lines += write_fan((run.start, run.len()), frame, cap, &mut wire);
                    sent.extend(run.clone().map(|to| (to, frame)));
                    let one = encode(&ServerFrame::Ctl { to: run.end - 1, frame });
                    lone = lone.max(one.len() - 1);
                }
                next += count;
            }
            let mut points: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
            points.extend([0, wire.len()]);
            points.sort_unstable();
            points.dedup();
            let mut reader = crate::net::FrameBuffer::new(cap.max(lone));
            let mut read = Vec::new();
            for pair in points.windows(2) {
                reader.extend(&wire[pair[0]..pair[1]]);
                while let Some(line) = reader.next_line().expect("every line under the cap") {
                    read.push(line.to_vec());
                }
            }
            proptest::prop_assert_eq!(read.len() as u64, lines);
            let mut delivered = Vec::new();
            for line in &read {
                let frame: ServerFrame = decode_line(line).expect("a control line decodes");
                let before = delivered.len();
                frame.expand(0..u32::MAX, |to, frame| delivered.push((to, frame)));
                let monitors = delivered[before..].iter().map(|&(to, _)| to);
                let single = monitors.clone().min() == monitors.max();
                proptest::prop_assert!(single || line.len() - 1 <= cap);
            }
            // Split lines reorder a window's cells: rows within a part.
            let order = |(to, frame): &(u32, ControlFrame)| match frame.msg {
                CoordinatorToMonitor::Tick(data) => (*to, data.tick),
                _ => (*to, 0),
            };
            delivered.sort_by_key(order);
            sent.sort_by_key(order);
            proptest::prop_assert_eq!(delivered, sent);
        }
    }

    /// `text` with its `at`-th character (modulo its length) swapped for
    /// palette entry `flaw`, or as it is when `flaw` is past the palette.
    fn swapped(text: &str, flaw: usize, at: usize) -> String {
        let mut chars: Vec<&str> = text.split_inclusive(|_| true).collect();
        if let (Some(swap), false) = (PALETTE.get(flaw), chars.is_empty()) {
            let n = chars.len();
            chars[at % n] = swap;
        }
        chars.concat()
    }

    /// The writer at the edges: every nibble value in every position, and
    /// the all-ones pattern the generator's range leaves out.
    #[test]
    fn column_writer_prints_every_nibble_in_every_position() {
        let mut words = vec![0, u64::MAX];
        for at in 0..16 {
            words.extend((0..16u64).map(|nibble| nibble << (4 * at)));
        }
        let values: Vec<f64> = words.iter().map(|&bits| f64::from_bits(bits)).collect();
        let mut written = Vec::new();
        F64Column(values).write_digits(&mut written);
        let printed: String = words.iter().map(|bits| format!("{bits:016x}")).collect();
        assert_eq!(std::str::from_utf8(&written).unwrap(), printed);
    }

    #[test]
    fn ctl_splice_tolerates_missing_newline() {
        let frame = ControlFrame {
            epoch: 0,
            msg: CoordinatorToMonitor::Poll { tick: 1 },
        };
        let encoded = encode(&frame);
        let trimmed = Bytes::copy_from_slice(&encoded[..encoded.len() - 1]);
        assert_eq!(ctl_line(2, &encoded), ctl_line(2, &trimmed));
    }
}
