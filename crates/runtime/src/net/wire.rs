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
//! [`ctl_line`] splices a `Ctl` line around an already-encoded control
//! frame. The coordinator never calls it; the benchmark times it
//! (`net.ctl_line_ns`), and unit tests pin it to the plane's bytes and
//! keep it the only hand-spelled JSON in the workspace's non-test code.

use std::ops::Range;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

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
    /// `CoordinatorToMonitor::Tick` of `values[i]` at `epoch`.
    Ticks {
        /// The epoch every frame of the run is stamped with.
        epoch: u64,
        /// The tick the values belong to.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// One value per monitor, in id order.
        values: Vec<f64>,
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
                for (to, value) in (first..=u32::MAX).zip(values) {
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
    /// `TickDone`s of monitors `first..`: one flag byte each — bit 0
    /// `sampled`, bit 1 `violation`, bit 2 `suppressed`.
    TickDones {
        /// The epoch every reply of the run is stamped with.
        epoch: u64,
        /// The tick the replies conclude.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// One flag byte per monitor, in id order.
        flags: Vec<u8>,
    },
    /// `PollReply`s of monitors `first..`: a value and a forced flag each.
    PollReplies {
        /// The epoch every reply of the run is stamped with.
        epoch: u64,
        /// The polled tick.
        tick: Tick,
        /// The run's first monitor id.
        first: u32,
        /// One value per monitor, in id order.
        values: Vec<f64>,
        /// One `forced_sample` per monitor, in id order.
        forced: Vec<bool>,
    },
}

impl ReplyBatch {
    /// The frames the batch carries, handed to `admit` in order — or
    /// none, returning `false`, when its columns disagree in length, a
    /// flag byte sets an unknown bit or the run runs past the last id.
    fn expand(self, mut admit: impl FnMut(MonitorFrame)) -> bool {
        let fits = |first: u32, len: usize| u64::from(first) + len as u64 <= 1 << 32;
        match self {
            ReplyBatch::TickDones {
                epoch,
                tick,
                first,
                flags,
            } => {
                if !fits(first, flags.len()) || flags.iter().any(|&bits| bits > 0b111) {
                    return false;
                }
                for (monitor, bits) in (first..=u32::MAX).zip(flags) {
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
                if !fits(first, values.len()) || values.len() != forced.len() {
                    return false;
                }
                for ((monitor, value), forced_sample) in (first..=u32::MAX).zip(values).zip(forced)
                {
                    let msg = MonitorToCoordinator::PollReply {
                        monitor: MonitorId(monitor),
                        tick,
                        value,
                        forced_sample,
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
                        } => (value, forced_sample),
                        _ => unreachable!("a run holds one kind"),
                    })
                    .unzip();
                ReplyBatch::PollReplies {
                    epoch,
                    tick,
                    first: monitor.0,
                    values,
                    forced,
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
                    flags: flags.collect(),
                }
            }
            _ => unreachable!("only tick reports and poll replies batch"),
        }
    }
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
/// [`batchable`] replies of one kind, epoch and tick as one
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
/// malformed line, or a batch [`ReplyBatch::expand`] refuses, admits
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
                CoordinatorToMonitor::Tick(data) if part.len() > 1 => ServerFrame::Ticks {
                    epoch,
                    tick: data.tick,
                    first,
                    values: self.values[part].to_vec(),
                },
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
        let batch = |first: u32, values: Vec<f64>, forced: Vec<bool>| {
            encode(&ReplyBatch::PollReplies {
                epoch: 2,
                tick: 9,
                first,
                values,
                forced,
            })
        };
        assert_eq!(lines[0], &batch(0, vec![1.5, 2.5], vec![true, false])[..]);
        assert_eq!(
            lines[1],
            &encode(&replies[2])[..],
            "alone, as it always was"
        );
        assert_eq!(lines[2], &batch(3, vec![-0.0, 4.5], vec![false, true])[..]);
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
        let flags = vec![0, 0b111, 0b001];
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
                flags: vec![0, 8],
            },
            ReplyBatch::TickDones {
                epoch: 0,
                tick: 1,
                first: u32::MAX,
                flags: vec![0, 0],
            },
            ReplyBatch::PollReplies {
                epoch: 0,
                tick: 1,
                first: 0,
                values: vec![1.0, 2.0],
                forced: vec![true],
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
            flags: vec![1],
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
            values: vec![1.0, 2.0],
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
            values: vec![1.0; 4],
        };
        to.clear();
        ticks.expand(5..8, |id, _| to.push(id));
        assert_eq!(to, [6, 7]);
        to.clear();
        ServerFrame::Ctl { to: 9, frame }.expand(5..8, |id, _| to.push(id));
        assert!(to.is_empty());
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
