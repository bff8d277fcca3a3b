//! Socket-level envelope messages for the agent/coordinator deployment.
//!
//! The in-process protocol ([`crate::message`]) is monitor-addressed: the
//! task session hands each frame to its monitor's slot and never names
//! the peer inside the frame. A socket carries traffic for *many*
//! monitors (an agent multiplexes a contiguous range of them), so the
//! network layer adds addressing — and, because a tick sends every
//! monitor the same kind of frame, batching: a line carries a *run*, the
//! frames of one send for consecutive monitors, so a tick costs each
//! agent a line per phase instead of a line per monitor.
//!
//! - **agent → coordinator**: the first line on a fresh connection is an
//!   [`AgentHello`] declaring the range of monitors behind the socket.
//!   Every later line is a [`ReplyBatch`] — a run of `TickDone`s or of
//!   `PollReply`s at one epoch and tick — or one raw
//!   [`MonitorFrame`]: every other reply, a run of one, and any reply
//!   the wire cannot carry ([`MonitorToCoordinator::is_wire_representable`]),
//!   which travels alone so its malformed line takes no neighbour down.
//!   [`encode_replies`] writes them; [`expand_reply_line`] turns a line
//!   back into the frames it carries, in order. An empty line is the
//!   agent's goodbye: every monitor it hosts is shut down.
//! - **coordinator → agent**: every line is a [`ServerFrame`] — a
//!   [`ServerFrame::Welcome`] acknowledging a hello, a
//!   [`ServerFrame::Ctl`] wrapping one control frame for one monitor,
//!   [`ServerFrame::Ticks`] carrying one tick's data for a run, or a
//!   [`ServerFrame::Fan`] carrying one control frame for a run.
//!   [`encode_controls`] writes them by the socket plane's rule;
//!   [`ServerFrame::expand`] hands an agent each `(monitor, frame)`.
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
    MonitorToCoordinator, TickData,
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
    /// One tick's data for a run of monitors: monitor `first + i` gets
    /// `CoordinatorToMonitor::Tick` of `values.0[i]` at `epoch`.
    Ticks {
        /// The epoch every frame of the run is stamped with.
        epoch: u64,
        /// The tick the values belong to.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// One finite value per monitor, in id order, as their bits.
        values: F64Column,
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
}

impl ServerFrame {
    /// Hands `deliver` each `(monitor, frame)` this line carries, in id
    /// order, for the monitors in `hosted` only — so a run's claimed
    /// length costs the agent no more than the monitors it hosts.
    pub fn expand(self, hosted: Range<u32>, mut deliver: impl FnMut(u32, ControlFrame)) {
        match self {
            ServerFrame::Welcome { .. } => {}
            ServerFrame::Ctl { to, frame } => {
                if hosted.contains(&to) {
                    deliver(to, frame);
                }
            }
            ServerFrame::Ticks {
                epoch,
                tick,
                first,
                values,
            } => {
                for (to, value) in (first..=u32::MAX).zip(values.0) {
                    if hosted.contains(&to) {
                        let msg = CoordinatorToMonitor::Tick(TickData { tick, value });
                        deliver(to, ControlFrame { epoch, msg });
                    }
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
        }
    }
}

/// A reply line carrying a run of consecutive monitors' replies of one
/// kind, at one epoch and tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplyBatch {
    /// `TickDone`s of monitors `first..`: one flag digit each — bit 0
    /// `sampled`, bit 1 `violation`, bit 2 `suppressed`.
    TickDones {
        /// The epoch every reply of the run is stamped with.
        epoch: u64,
        /// The tick the replies conclude.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// One flag digit (`0`–`7`) per monitor, in id order.
        flags: DigitColumn<7>,
    },
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
}

impl ReplyBatch {
    /// The frames the batch carries, handed to `admit` in order — or
    /// none, returning `false`, when its columns disagree in length or
    /// the run runs past the last id. (Each column's parser has checked
    /// the column's own contents.)
    fn expand(self, mut admit: impl FnMut(MonitorFrame)) -> bool {
        let fits = |first: u32, len: usize| u64::from(first) + len as u64 <= 1 << 32;
        match self {
            ReplyBatch::TickDones {
                epoch,
                tick,
                first,
                flags,
            } => {
                if !fits(first, flags.0.len()) {
                    return false;
                }
                for (monitor, bits) in (first..=u32::MAX).zip(flags.0) {
                    let msg = MonitorToCoordinator::TickDone {
                        monitor: MonitorId(monitor),
                        tick,
                        sampled: bits & 1 != 0,
                        violation: bits & 2 != 0,
                        suppressed: bits & 4 != 0,
                    };
                    admit(MonitorFrame { epoch, msg });
                }
            }
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
                    admit(MonitorFrame { epoch, msg });
                }
            }
        }
        true
    }

    /// The batch of `run`, replies [`batchable`] found consecutive.
    fn of(run: &[MonitorFrame]) -> ReplyBatch {
        let epoch = run[0].epoch;
        match run[0].msg {
            MonitorToCoordinator::PollReply { monitor, tick, .. } => {
                let (values, forced) = run
                    .iter()
                    .map(|frame| match frame.msg {
                        MonitorToCoordinator::PollReply {
                            value,
                            forced_sample,
                            ..
                        } => (value, u8::from(forced_sample)),
                        _ => unreachable!("a run holds one kind"),
                    })
                    .unzip();
                ReplyBatch::PollReplies {
                    epoch,
                    tick,
                    first: monitor.0,
                    values: F64Column(values),
                    forced: DigitColumn(forced),
                }
            }
            MonitorToCoordinator::TickDone { monitor, tick, .. } => {
                let flags = run.iter().map(|frame| match frame.msg {
                    MonitorToCoordinator::TickDone {
                        sampled,
                        violation,
                        suppressed,
                        ..
                    } => u8::from(sampled) | u8::from(violation) << 1 | u8::from(suppressed) << 2,
                    _ => unreachable!("a run holds one kind"),
                });
                ReplyBatch::TickDones {
                    epoch,
                    tick,
                    first: monitor.0,
                    flags: DigitColumn(flags.collect()),
                }
            }
            _ => unreachable!("only tick reports and poll replies batch"),
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
        const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
        let text = text.as_bytes();
        if !text.len().is_multiple_of(Self::WIDTH) {
            return None;
        }
        // One flag for the whole column, checked once: no branch per value.
        let mut invalid = 0;
        let values = text.chunks_exact(Self::WIDTH).map(|digits| {
            let word =
                |at: usize| u64::from_be_bytes(digits[at..at + 8].try_into().expect("8 digits"));
            let ((high, high_invalid), (low, low_invalid)) =
                (hex_value(word(0)), hex_value(word(8)));
            let bits = high << 32 | low;
            invalid |= high_invalid | low_invalid | u64::from(bits & EXPONENT == EXPONENT);
            f64::from_bits(bits)
        });
        let values = values.collect();
        (invalid == 0).then_some(F64Column(values))
    }
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
column_serde!([const MAX: u8] DigitColumn<MAX>);

/// [`ServerFrame::Ticks`] over a run's borrowed values — the same
/// variant, fields and derive, so the same bytes — for
/// [`ControlRun::write`], which then copies no values out of its run.
#[derive(Serialize)]
enum TicksLine<'a> {
    Ticks {
        epoch: u64,
        tick: Tick,
        first: u32,
        values: F64View<'a>,
    },
}

/// What a reply must share with its neighbours to join their line —
/// kind (`true` for a poll reply), epoch and tick — and its sender,
/// which must follow theirs; `None` for a reply that always travels
/// alone: one that is neither a tick report nor a poll reply, or that
/// the wire cannot carry.
fn batchable(frame: &MonitorFrame) -> Option<((bool, u64, Tick), u32)> {
    if !frame.msg.is_wire_representable() {
        return None;
    }
    match frame.msg {
        MonitorToCoordinator::TickDone { monitor, tick, .. } => {
            Some(((false, frame.epoch, tick), monitor.0))
        }
        MonitorToCoordinator::PollReply { monitor, tick, .. } => {
            Some(((true, frame.epoch, tick), monitor.0))
        }
        _ => None,
    }
}

/// Appends `replies` — the frames of one send, in order — as agent
/// lines and returns how many: each run of consecutive monitors'
/// batchable replies of one kind, epoch and tick as one
/// [`ReplyBatch`] (split so that no line's payload passes `max_frame`),
/// every other reply as its own [`MonitorFrame`] line.
pub fn encode_replies(replies: &[MonitorFrame], max_frame: usize, out: &mut Vec<u8>) -> u64 {
    let joins = |pair: &[MonitorFrame]| match (batchable(&pair[0]), batchable(&pair[1])) {
        (Some((key, monitor)), Some((next_key, next))) => {
            key == next_key && monitor.checked_add(1) == Some(next)
        }
        _ => false,
    };
    let mut lines = 0;
    let mut rest = replies;
    while !rest.is_empty() {
        let len = 1 + rest.windows(2).take_while(|pair| joins(pair)).count();
        let (run, tail) = rest.split_at(len);
        lines += write_split(0..len, max_frame, out, &mut |part, out| match &run[part] {
            [one] => encode_into(one, out),
            many => encode_into(&ReplyBatch::of(many), out),
        });
        rest = tail;
    }
    lines
}

/// Hands `admit` every frame one agent line carries, in order — a
/// [`ReplyBatch`] monitor by monitor, any other line decoded as one
/// [`MonitorFrame`] — and returns whether the line carried any: a
/// malformed line, or a batch whose expansion refuses it, admits
/// nothing.
pub fn expand_reply_line(line: &[u8], mut admit: impl FnMut(MonitorFrame)) -> bool {
    match decode_line::<ReplyBatch>(line) {
        Ok(batch) => batch.expand(admit),
        Err(_) => decode_line::<MonitorFrame>(line).map(&mut admit).is_ok(),
    }
}

/// A run of control frames for consecutive monitors, as a send gathers
/// it: one tick's data (each frame's value kept in `values`), or one
/// frame repeated.
pub(crate) struct ControlRun {
    first: u32,
    len: usize,
    /// The run's first frame.
    frame: ControlFrame,
    /// Every frame's value, for a run of tick data; empty otherwise.
    values: Vec<f64>,
}

impl ControlRun {
    fn new(to: u32, frame: ControlFrame) -> Self {
        let values = match frame.msg {
            CoordinatorToMonitor::Tick(data) => vec![data.value],
            _ => Vec::new(),
        };
        ControlRun {
            first: to,
            len: 1,
            frame,
            values,
        }
    }

    /// Frames in the run.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Takes `frame` for monitor `to` into the run if it continues it:
    /// the next id, and the same frame — or, for tick data, the same
    /// epoch and tick and a value the wire can carry (a non-finite one
    /// travels alone, like a reply that holds one).
    fn join(&mut self, to: u32, frame: &ControlFrame) -> bool {
        let next = u64::from(self.first) + self.len as u64 == u64::from(to);
        let joins = next
            && match (self.frame.msg, frame.msg) {
                (CoordinatorToMonitor::Tick(run), CoordinatorToMonitor::Tick(data)) => {
                    (self.frame.epoch, run.tick) == (frame.epoch, data.tick)
                        && run.value.is_finite()
                        && data.value.is_finite()
                }
                (CoordinatorToMonitor::Tick(_), _) | (_, CoordinatorToMonitor::Tick(_)) => false,
                _ => self.frame == *frame,
            };
        if joins {
            if let CoordinatorToMonitor::Tick(data) = frame.msg {
                self.values.push(data.value);
            }
            self.len += 1;
        }
        joins
    }

    /// Appends the run's frames `part` (indexes into the run) as lines
    /// whose payloads fit `max_frame` wherever a split can make them,
    /// returning how many.
    pub(crate) fn write(&self, part: Range<usize>, max_frame: usize, out: &mut Vec<u8>) -> u64 {
        write_split(part, max_frame, out, &mut |part, out| {
            let first = self.first + part.start as u32;
            let (epoch, msg) = (self.frame.epoch, self.frame.msg);
            let line = match msg {
                CoordinatorToMonitor::Tick(data) if part.len() > 1 => {
                    let line = TicksLine::Ticks {
                        epoch,
                        tick: data.tick,
                        first,
                        values: F64View(&self.values[part]),
                    };
                    return encode_into(&line, out);
                }
                CoordinatorToMonitor::Tick(data) => {
                    let value = self.values[part.start];
                    let msg = CoordinatorToMonitor::Tick(TickData { value, ..data });
                    ServerFrame::Ctl {
                        to: first,
                        frame: ControlFrame { epoch, msg },
                    }
                }
                _ if part.len() > 1 => ServerFrame::Fan {
                    first,
                    count: part.len() as u32,
                    frame: self.frame,
                },
                _ => ServerFrame::Ctl {
                    to: first,
                    frame: self.frame,
                },
            };
            encode_into(&line, out);
        })
    }
}

/// Cuts `frames` — `(key, monitor, frame)` in send order — into
/// [`ControlRun`]s and hands `emit` each with its frames' key: a run
/// holds consecutive frames under one key, so each is staged before any
/// later frame of that key. The socket plane keys a frame by the
/// connection it is routed to.
pub(crate) fn control_runs<K: PartialEq>(
    frames: impl IntoIterator<Item = (K, u32, ControlFrame)>,
    mut emit: impl FnMut(K, ControlRun),
) {
    let mut pending: Option<(K, ControlRun)> = None;
    for (key, to, frame) in frames {
        if let Some((open, run)) = &mut pending {
            if *open == key && run.join(to, &frame) {
                continue;
            }
        }
        if let Some((key, run)) = pending.replace((key, ControlRun::new(to, frame))) {
            emit(key, run);
        }
    }
    if let Some((key, run)) = pending {
        emit(key, run);
    }
}

/// Appends `frames` — `(monitor, frame)` in send order, all for one
/// connection — as coordinator lines by the socket plane's rule and
/// returns how many: each run of one tick's data as
/// [`ServerFrame::Ticks`], each run of one repeated frame as
/// [`ServerFrame::Fan`] (split so that no line's payload passes
/// `max_frame`), a run of one as [`ServerFrame::Ctl`].
pub fn encode_controls(frames: &[(u32, ControlFrame)], max_frame: usize, out: &mut Vec<u8>) -> u64 {
    let mut lines = 0;
    let keyed = frames.iter().map(|&(to, frame)| ((), to, frame));
    control_runs(keyed, |(), run| {
        lines += run.write(0..run.len(), max_frame, out)
    });
    lines
}

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
        let msg = MonitorToCoordinator::PollReply {
            monitor: MonitorId(monitor),
            tick: 9,
            value,
            forced_sample: monitor.is_multiple_of(2),
        };
        MonitorFrame { epoch: 2, msg }
    }

    fn tick_done(monitor: u32, bits: u8) -> MonitorFrame {
        let msg = MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick: 9,
            sampled: bits & 1 != 0,
            violation: bits & 2 != 0,
            suppressed: bits & 4 != 0,
        };
        MonitorFrame { epoch: 2, msg }
    }

    /// Every frame an agent payload carries, in order.
    fn expanded(payload: &[u8]) -> Vec<MonitorFrame> {
        let mut frames = Vec::new();
        for line in payload.split_inclusive(|&b| b == b'\n') {
            expand_reply_line(line, |frame| frames.push(frame));
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
    /// reply that never batches sits between runs on its own line.
    #[test]
    fn replies_batch_only_in_runs_of_one_kind_epoch_tick_and_consecutive_ids() {
        let mut stale = tick_done(3, 1);
        stale.epoch = 1;
        let revived = MonitorFrame {
            epoch: 2,
            msg: MonitorToCoordinator::Revived {
                monitor: MonitorId(6),
            },
        };
        let replies = vec![
            tick_done(0, 0),
            tick_done(1, 0b111),
            tick_done(2, 0b001),
            stale,
            tick_done(4, 0b011),
            tick_done(6, 0b100),
            revived,
            tick_done(7, 0),
            tick_done(8, 0),
            poll_reply(9, 1.0),
        ];
        let mut payload = Vec::new();
        // [0 1 2] [3 stale] [4] [6] [Revived] [7 8] [poll 9]
        assert_eq!(encode_replies(&replies, usize::MAX, &mut payload), 7);
        let first = payload.split_inclusive(|&b| b == b'\n').next().unwrap();
        let flags = DigitColumn(vec![0, 0b111, 0b001]);
        let batch = ReplyBatch::TickDones {
            epoch: 2,
            tick: 9,
            first: 0,
            flags,
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
            ReplyBatch::TickDones {
                epoch: 0,
                tick: 1,
                first: 0,
                flags: DigitColumn(vec![0, 8]),
            },
            ReplyBatch::TickDones {
                epoch: 0,
                tick: 1,
                first: u32::MAX,
                flags: DigitColumn(vec![0, 0]),
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
        assert!(!expand_reply_line(
            b"{\"TickDones\":7}\n",
            |_| unreachable!()
        ));
        let last = ReplyBatch::TickDones {
            epoch: 0,
            tick: 1,
            first: u32::MAX,
            flags: DigitColumn(vec![1]),
        };
        let mut admitted = Vec::new();
        assert!(expand_reply_line(&encode(&last), |frame| admitted.push(frame)));
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
        let ticks = ServerFrame::Ticks {
            epoch: 3,
            tick: 42,
            first: 7,
            values: values.clone(),
        };
        let dones = ReplyBatch::TickDones {
            epoch: 3,
            tick: 42,
            first: 7,
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
            format!("{{\"Ticks\":{{\"epoch\":3,\"tick\":42,\"first\":7,\"values\":\"{hex}\"}}}}\n"),
            "{\"TickDones\":{\"epoch\":3,\"tick\":42,\"first\":7,\"flags\":\"01275\"}}\n".into(),
            format!(
                "{{\"PollReplies\":{{\"epoch\":3,\"tick\":42,\"first\":7,\"values\":\"{hex}\",\
                 \"forced\":\"10011\"}}}}\n"
            ),
        ];
        assert_eq!(std::str::from_utf8(&encode(&ticks)).unwrap(), golden[0]);
        assert_eq!(std::str::from_utf8(&encode(&dones)).unwrap(), golden[1]);
        assert_eq!(std::str::from_utf8(&encode(&polls)).unwrap(), golden[2]);
        let back: ServerFrame = decode_line(golden[0].as_bytes()).unwrap();
        assert_eq!(encode(&back)[..], *golden[0].as_bytes());
        match back {
            ServerFrame::Ticks { values, .. } => {
                assert!(values.0[1].is_sign_negative(), "-0.0 keeps its sign");
                assert_eq!(values.0[2].to_bits(), 1, "the least subnormal");
            }
            other => panic!("expected Ticks, got {other:?}"),
        }
        for line in &golden[1..] {
            let batch: ReplyBatch = decode_line(line.as_bytes()).unwrap();
            assert_eq!(encode(&batch)[..], *line.as_bytes());
            let mut admitted = Vec::new();
            assert!(expand_reply_line(line.as_bytes(), |frame| admitted.push(frame)));
            assert_eq!(admitted.len(), 5);
        }
    }

    /// A column in anything but canonical text fails its whole line: no
    /// frame of it is admitted or delivered, and no non-finite value gets
    /// through as a bit pattern either.
    #[test]
    fn a_non_canonical_column_fails_its_whole_line() {
        let one = "3ff0000000000000";
        let ticks = |values: &str| {
            format!(
                "{{\"Ticks\":{{\"epoch\":0,\"tick\":1,\"first\":0,\"values\":\"{values}\"}}}}\n"
            )
        };
        let polls = |values: &str, forced: &str| {
            format!(
                "{{\"PollReplies\":{{\"epoch\":0,\"tick\":1,\"first\":0,\"values\":\"{values}\",\
                 \"forced\":\"{forced}\"}}}}\n"
            )
        };
        let dones = |flags: &str| {
            format!(
                "{{\"TickDones\":{{\"epoch\":0,\"tick\":1,\"first\":0,\"flags\":\"{flags}\"}}}}\n"
            )
        };
        // The canonical lines these corrupt are accepted.
        assert!(decode_line::<ServerFrame>(ticks(&one.repeat(2)).as_bytes()).is_ok());
        assert!(expand_reply_line(
            polls(&one.repeat(2), "10").as_bytes(),
            |_| {}
        ));
        assert!(expand_reply_line(dones("07").as_bytes(), |_| {}));
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
            let line = ticks(values);
            assert!(
                decode_line::<ServerFrame>(line.as_bytes()).is_err(),
                "{line}"
            );
            let line = polls(values, "10");
            assert!(
                !expand_reply_line(line.as_bytes(), |_| unreachable!()),
                "{line}"
            );
        }
        for flags in ["08", "0:", "0a", "0 "] {
            let line = dones(flags);
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
        let line = ticks(one).replace(&format!("\"{one}\""), "[1.0]");
        assert!(
            decode_line::<ServerFrame>(line.as_bytes()).is_err(),
            "{line}"
        );
    }

    /// Control frames go out by the same rule: one tick's data for
    /// consecutive monitors as a `Ticks` line, a frame repeated for them
    /// as a `Fan` line, a run of one — and a non-finite value — as `Ctl`.
    #[test]
    fn control_runs_become_ticks_fan_and_ctl_lines_and_expand_back() {
        let seal = |epoch, msg| ControlFrame { epoch, msg };
        let data = |tick, value| CoordinatorToMonitor::Tick(TickData { tick, value });
        let poll = CoordinatorToMonitor::Poll { tick: 4 };
        let frames = vec![
            (0, seal(1, data(4, 1.0))),
            (1, seal(1, data(4, 2.0))),
            (2, seal(1, data(4, f64::NAN))),
            (3, seal(1, data(4, 3.0))),
            (4, seal(1, data(5, 3.0))),
            (0, seal(1, poll)),
            (1, seal(1, poll)),
            (2, seal(1, poll)),
            (3, seal(2, poll)),
        ];
        let mut wire = Vec::new();
        assert_eq!(encode_controls(&frames, usize::MAX, &mut wire), 6);
        let lines: Vec<ServerFrame> = wire
            .split_inclusive(|&b| b == b'\n')
            .filter_map(|line| decode_line(line).ok())
            .collect();
        let ticks = ServerFrame::Ticks {
            epoch: 1,
            tick: 4,
            first: 0,
            values: F64Column(vec![1.0, 2.0]),
        };
        let fan = ServerFrame::Fan {
            first: 0,
            count: 3,
            frame: seal(1, poll),
        };
        // The NaN line is malformed (its value encodes as `null`), alone.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], ticks);
        assert_eq!(lines[3], fan);
        let mut delivered = Vec::new();
        for line in lines {
            line.expand(0..u32::MAX, |to, frame| delivered.push((to, frame)));
        }
        let mut carried = frames.clone();
        carried.remove(2);
        assert_eq!(delivered, carried);
    }

    /// A tick run written from its borrowed values is, line for line and
    /// under any frame cap, the bytes of the owned `Ticks` frame.
    #[test]
    fn tick_runs_write_the_owned_frames_bytes_under_every_cap() {
        let frames: Vec<(u32, ControlFrame)> = (0..40)
            .map(|to| {
                let data = TickData {
                    tick: 6,
                    value: f64::from(to) * -0.3,
                };
                let msg = CoordinatorToMonitor::Tick(data);
                (to + 5, ControlFrame { epoch: 2, msg })
            })
            .collect();
        for cap in [0, 100, 256, 1024, usize::MAX] {
            let mut wire = Vec::new();
            let lines = encode_controls(&frames, cap, &mut wire);
            let mut seen = 0;
            for line in wire.split_inclusive(|&b| b == b'\n') {
                let frame: ServerFrame = decode_line(line).unwrap();
                assert_eq!(encode(&frame)[..], *line, "cap {cap}");
                seen += 1;
            }
            assert_eq!(seen, lines);
        }
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
        let ticks = ServerFrame::Ticks {
            epoch: 0,
            tick: 0,
            first: 6,
            values: F64Column(vec![1.0; 4]),
        };
        to.clear();
        ticks.expand(5..8, |id, _| to.push(id));
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
                    DigitColumn::<7>::parse(text).map(|column| column.0),
                    reference::parse_digits(text, 7),
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
