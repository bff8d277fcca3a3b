//! Wire messages of the monitor/coordinator protocol.
//!
//! Every message is `Serialize`/`Deserialize` and framed losslessly by
//! [`encode`]/[`decode`], so the in-process channel transport could be
//! swapped for a socket without touching the actors. The encoding is
//! line-delimited JSON over a [`bytes::Bytes`] buffer — chosen for
//! debuggability (the paper's prototype likewise shipped human-readable
//! reports between bash-driven monitors and coordinators).
//!
//! ## What a frame costs
//!
//! [`encode`] / [`encode_into`] / [`decode`] / [`decode_line`] and the
//! `seal`s run the serde stand-in's *streaming* path: the derives write
//! each message's text straight into the byte buffer (static key
//! literals, no intermediate tree) and read it straight off the input
//! (keys matched where they lie, nothing allocated but the message's own
//! vectors). There is no per-frame fast path here and none is needed —
//! the generic functions are the fast ones, for every message type, and
//! stay the ones the benchmark ledger times. `serde::Value` is only
//! built by callers that want a document (reports, the serve plane); it
//! is also the oracle `tests/proptest_messages.rs` holds every frame's
//! bytes and every decoder verdict to.
//!
//! ## Epoch fencing
//!
//! With a warm-standby coordinator, frames from a deposed coordinator
//! (or replies addressed to it) must not be mistaken for current
//! traffic — a partitioned former coordinator double-counting reports or
//! double-commanding monitors is the classic split-brain failure. Every
//! monitor↔coordinator frame therefore travels inside an epoch-stamped
//! envelope ([`MonitorFrame`], [`ControlFrame`]); a takeover bumps the
//! epoch and both sides reject frames from older epochs (see
//! [`crate::coordinator`] and [`crate::monitor`] for the exact rules).

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use volley_core::adaptation::PeriodReport;
use volley_core::snapshot::SamplerSnapshot;
use volley_core::task::MonitorId;
use volley_core::time::Tick;

/// Data an agent hands its monitor for one tick: the ground-truth value
/// of the monitored variable.
///
/// The monitor only *looks at* the value when its sampling schedule (or a
/// global poll) says so — delivering it every tick models the fact that
/// the agent-side state exists whether or not anyone pays to sample it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickData {
    /// The tick being processed.
    pub tick: Tick,
    /// Ground-truth value of the monitored variable at this tick.
    pub value: f64,
}

/// Messages from a monitor to its coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MonitorToCoordinator {
    /// End-of-tick report: whether this monitor sampled, and whether the
    /// sampled value violated the local threshold.
    TickDone {
        /// Reporting monitor.
        monitor: MonitorId,
        /// The tick this report concludes.
        tick: Tick,
        /// Whether the monitor performed a scheduled sampling operation.
        sampled: bool,
        /// Whether a sampled value exceeded the local threshold. Always
        /// `false` when `sampled` is `false`.
        violation: bool,
        /// Whether the adaptive schedule was due to sample this tick but a
        /// multi-task gate ([`CoordinatorToMonitor::SetGate`]) held the
        /// sample back. Defaults to `false` so pre-gate frames decode.
        #[serde(default)]
        suppressed: bool,
    },
    /// Response to a global poll: the monitor's current value.
    PollReply {
        /// Replying monitor.
        monitor: MonitorId,
        /// The polled tick.
        tick: Tick,
        /// The monitor's current value (freshly sampled if necessary).
        value: f64,
        /// Whether answering required a forced sampling operation.
        forced_sample: bool,
    },
    /// Per-updating-period averages for allowance reallocation (§IV-B).
    Report {
        /// Reporting monitor.
        monitor: MonitorId,
        /// The period aggregates.
        report: PeriodReport,
    },
    /// `monitor` was (re)started and will report again — await it
    /// instead of skipping it as quarantined, and tell it its ledger
    /// allowance. In process the driver's supervisor hands it over before
    /// it sends the restarted monitor its first tick, so the notice always
    /// precedes that monitor's first report; behind sockets an agent
    /// sends one per hosted monitor each time it (re)connects.
    Revived {
        /// The restarted monitor.
        monitor: MonitorId,
    },
    /// Reply to [`CoordinatorToMonitor::RequestSnapshot`]: the monitor's
    /// full adaptation state, for the coordinator's checkpoint.
    StateSnapshot {
        /// Reporting monitor.
        monitor: MonitorId,
        /// The sampler state.
        snapshot: SamplerSnapshot,
    },
}

impl MonitorToCoordinator {
    /// Whether the wire can carry this message: whether every float in
    /// it is finite. The codec writes a non-finite float as `null` and no
    /// decoder takes that back, so behind a socket such a reply is a
    /// malformed line: skipped, its sender left to the deadline. The
    /// coordinator gives a frame handed over as a value the same
    /// treatment, or the in-process report and the networked one would
    /// part on the same trace. (A sampler that saw a non-finite value, or
    /// swings wide enough to overflow, holds one in its δ statistics and
    /// last-sample cache until the window restarts.)
    pub fn is_wire_representable(&self) -> bool {
        let finite = |x: &f64| x.is_finite();
        match self {
            Self::PollReply { value, .. } => value.is_finite(),
            Self::Report { report: r, .. } => [
                r.avg_beta_current,
                r.avg_beta_grown,
                r.avg_potential_reduction,
            ]
            .iter()
            .all(finite),
            Self::StateSnapshot { snapshot: s, .. } => {
                let (config, stats) = (&s.config, &s.tracker.stats);
                let last = s.tracker.last.map_or(0.0, |(_, value)| value);
                let allowances = [config.error_allowance(), config.slack_ratio(), s.err];
                let state = [s.threshold, stats.mean, stats.variance, last];
                allowances.iter().chain(&state).all(finite)
            }
            Self::TickDone { .. } | Self::Revived { .. } => true,
        }
    }

    /// A `TickDone`'s sender, tick and flags as one number — bit 0
    /// `sampled`, bit 1 `violation`, bit 2 `suppressed` — its digit in a
    /// [`ReportRow`]; `None` for any other message.
    pub(crate) fn report(&self) -> Option<(MonitorId, Tick, u8)> {
        let Self::TickDone {
            monitor,
            tick,
            sampled,
            violation,
            suppressed,
        } = *self
        else {
            return None;
        };
        let flags = u8::from(sampled) | u8::from(violation) << 1 | u8::from(suppressed) << 2;
        Some((monitor, tick, flags))
    }
}

/// One tick's reports of a run of consecutive monitors from `first`, as
/// the coordinator machine reads them
/// ([`on_rows`](crate::coordinator::CoordinatorActor::on_rows)): an ASCII
/// digit per monitor — its [`report`](MonitorToCoordinator::report), or
/// [`NO_REPORT`] — as a window reply spells them. A `TickDone` is a row
/// of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportRow<'a> {
    /// The epoch every report of the row is stamped with.
    pub epoch: u64,
    /// The tick the reports conclude.
    pub tick: Tick,
    /// The run's first monitor id.
    pub first: u32,
    /// One digit (`0`–`8`) per monitor, in id order.
    pub digits: &'a [u8],
}

/// The digit of a monitor that sent no report: `8`.
pub const NO_REPORT: u8 = b'8';

/// Messages from the coordinator (or runner) to a monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoordinatorToMonitor {
    /// Process one tick of agent data.
    Tick(TickData),
    /// Answer a global poll for `tick`.
    Poll {
        /// The tick to report the current value for.
        tick: Tick,
    },
    /// Drain and send the updating-period report.
    RequestReport,
    /// Adopt a new error allowance.
    SetAllowance {
        /// The new allowance for this monitor.
        err: f64,
    },
    /// Adopt a new (strictly higher) coordinator epoch after a failover.
    /// A monitor only ever *raises* its epoch, and only on this message —
    /// data frames at a higher epoch do not implicitly re-fence it.
    NewEpoch {
        /// The new coordinator epoch.
        epoch: u64,
    },
    /// Send the full sampler state for checkpointing
    /// ([`MonitorToCoordinator::StateSnapshot`]).
    RequestSnapshot,
    /// Replace the sampler with checkpointed state (failover recovery:
    /// the standby restores the monitor's learned interval and δ
    /// statistics).
    RestoreState {
        /// The state to restore.
        snapshot: SamplerSnapshot,
    },
    /// Discard the sampler and restart at the default interval — the
    /// paper's conservative `I_d` restart, used when no checkpointed
    /// state exists for this monitor.
    ResetSampler,
    /// Engage or release the multi-task suppression gate (§II.B).
    /// `Some(i)` stretches the monitor's effective sampling interval to
    /// at least `i` ticks while its task's leader is calm; `None`
    /// releases the gate, snapping the monitor back to its adaptive
    /// schedule on the next tick.
    SetGate {
        /// Minimum ticks between samples while gated; `None` = ungated.
        interval: Option<u32>,
    },
    /// Terminate the monitor (an agent exits once all its monitors did).
    Shutdown,
}

impl CoordinatorToMonitor {
    /// The tick a `Poll` asks about; `None` for every other message.
    pub(crate) fn polled_tick(&self) -> Option<Tick> {
        match *self {
            CoordinatorToMonitor::Poll { tick } => Some(tick),
            _ => None,
        }
    }
}

/// Epoch-stamped envelope for every monitor→coordinator frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorFrame {
    /// The coordinator epoch the sender believes is current.
    pub epoch: u64,
    /// The payload.
    pub msg: MonitorToCoordinator,
}

impl MonitorFrame {
    /// Encodes `msg` sealed at `epoch`.
    pub fn seal(epoch: u64, msg: MonitorToCoordinator) -> Bytes {
        encode(&MonitorFrame { epoch, msg })
    }
}

/// Epoch-stamped envelope for every coordinator→monitor frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlFrame {
    /// The sending coordinator's epoch.
    pub epoch: u64,
    /// The payload.
    pub msg: CoordinatorToMonitor,
}

impl ControlFrame {
    /// Encodes `msg` sealed at `epoch`.
    pub fn seal(epoch: u64, msg: CoordinatorToMonitor) -> Bytes {
        encode(&ControlFrame { epoch, msg })
    }
}

/// Per-tick summary the coordinator returns to the runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TickSummary {
    /// The concluded tick.
    pub tick: Tick,
    /// Scheduled sampling operations this tick.
    pub scheduled_samples: u32,
    /// Forced (poll-induced) sampling operations this tick.
    pub poll_samples: u32,
    /// Local violations reported (post message-loss).
    pub local_violations: u32,
    /// Whether a global poll ran.
    pub polled: bool,
    /// Whether the poll found `Σ v_i > T`.
    pub alerted: bool,
    /// Monitors whose tick report missed the collection deadline (or that
    /// were already quarantined) this tick.
    pub missing_reports: u32,
    /// Whether any aggregation this tick substituted a missing monitor's
    /// local threshold `T_i` for its value (degraded mode).
    pub degraded: bool,
    /// Frames rejected this tick because they carried a stale coordinator
    /// epoch (traffic addressed to a deposed coordinator).
    pub stale_epoch_frames: u32,
    /// Scheduled samples held back this tick by the multi-task
    /// suppression gate (§II.B). Defaults keep pre-gate frames decoding.
    #[serde(default)]
    pub suppressed_samples: u32,
    /// Whether the suppression gate was engaged when this tick closed.
    #[serde(default)]
    pub gated: bool,
}

/// Encodes a message as one JSON line in a [`Bytes`] buffer.
///
/// # Panics
///
/// Never panics for the message types of this module (they contain no
/// non-serializable values).
pub fn encode<M: Serialize>(message: &M) -> Bytes {
    let mut buf = serde_json::to_vec(message).expect("protocol messages serialize");
    buf.push(b'\n');
    Bytes::from(buf)
}

/// Appends exactly the bytes of [`encode`] to `out`: for senders that
/// batch frames into one write buffer (or reuse one scratch buffer)
/// instead of allocating a [`Bytes`] per frame.
pub fn encode_into<M: Serialize>(message: &M, out: &mut Vec<u8>) {
    serde_json::to_writer(out, message).expect("protocol messages serialize");
    out.push(b'\n');
}

/// Decodes a message produced by [`encode`].
///
/// # Errors
///
/// Returns a JSON error for malformed frames.
pub fn decode<M: for<'de> Deserialize<'de>>(frame: &Bytes) -> Result<M, serde_json::Error> {
    decode_line(frame)
}

/// [`decode`] for a frame still sitting in a read buffer (see
/// [`FrameBuffer::next_line`](crate::net::FrameBuffer::next_line)).
///
/// # Errors
///
/// Returns a JSON error for malformed frames.
pub fn decode_line<M: for<'de> Deserialize<'de>>(line: &[u8]) -> Result<M, serde_json::Error> {
    serde_json::from_slice(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use volley_core::Interval;

    #[test]
    fn encode_decode_round_trip() {
        let msg = MonitorToCoordinator::TickDone {
            monitor: MonitorId(3),
            tick: 99,
            sampled: true,
            violation: true,
            suppressed: false,
        };
        let frame = encode(&msg);
        assert_eq!(frame.last(), Some(&b'\n'));
        let back: MonitorToCoordinator = decode(&frame).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn encode_into_appends_exactly_what_encode_returns() {
        let frames = [
            MonitorFrame {
                epoch: 3,
                msg: MonitorToCoordinator::Revived {
                    monitor: MonitorId(9),
                },
            },
            MonitorFrame {
                epoch: u64::MAX,
                msg: MonitorToCoordinator::PollReply {
                    monitor: MonitorId(0),
                    tick: 5,
                    value: -1.25e-3,
                    forced_sample: true,
                },
            },
        ];
        let mut batch = Vec::new();
        let mut expected = Vec::new();
        for frame in &frames {
            encode_into(frame, &mut batch);
            expected.extend_from_slice(&encode(frame));
        }
        assert_eq!(batch, expected);
        let lines: Vec<&[u8]> = batch.split_inclusive(|&b| b == b'\n').collect();
        for (line, frame) in lines.iter().zip(&frames) {
            assert_eq!(&decode_line::<MonitorFrame>(line).unwrap(), frame);
        }
    }

    #[test]
    fn poll_reply_round_trip() {
        let msg = MonitorToCoordinator::PollReply {
            monitor: MonitorId(0),
            tick: 5,
            value: 1.25,
            forced_sample: false,
        };
        let back: MonitorToCoordinator = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn report_round_trip() {
        let msg = MonitorToCoordinator::Report {
            monitor: MonitorId(7),
            report: PeriodReport {
                observations: 10,
                avg_beta_current: 0.01,
                avg_beta_grown: 0.02,
                avg_potential_reduction: 0.5,
                interval: Interval::new_clamped(3),
                at_max_interval: false,
            },
        };
        let back: MonitorToCoordinator = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn revived_round_trip() {
        let msg = MonitorToCoordinator::Revived {
            monitor: MonitorId(2),
        };
        let back: MonitorToCoordinator = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn tick_done_without_suppressed_field_decodes_as_unsuppressed() {
        // Frames encoded before the multi-task gate existed lack the
        // `suppressed` field; the default keeps them decodable.
        let legacy = Bytes::from_static(
            b"{\"TickDone\":{\"monitor\":1,\"tick\":4,\"sampled\":true,\"violation\":false}}\n",
        );
        let back: MonitorToCoordinator = decode(&legacy).unwrap();
        assert_eq!(
            back,
            MonitorToCoordinator::TickDone {
                monitor: MonitorId(1),
                tick: 4,
                sampled: true,
                violation: false,
                suppressed: false,
            }
        );
    }

    fn sampler_snapshot() -> SamplerSnapshot {
        use volley_core::{AdaptationConfig, AdaptiveSampler};
        let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 75.0);
        sampler.observe(0, 10.0);
        sampler.observe(1, 11.5);
        sampler.to_snapshot()
    }

    #[test]
    fn coordinator_messages_round_trip() {
        for msg in [
            CoordinatorToMonitor::Tick(TickData {
                tick: 1,
                value: 2.0,
            }),
            CoordinatorToMonitor::Poll { tick: 1 },
            CoordinatorToMonitor::RequestReport,
            CoordinatorToMonitor::SetAllowance { err: 0.004 },
            CoordinatorToMonitor::NewEpoch { epoch: 3 },
            CoordinatorToMonitor::RequestSnapshot,
            CoordinatorToMonitor::RestoreState {
                snapshot: sampler_snapshot(),
            },
            CoordinatorToMonitor::ResetSampler,
            CoordinatorToMonitor::SetGate { interval: Some(8) },
            CoordinatorToMonitor::SetGate { interval: None },
            CoordinatorToMonitor::Shutdown,
        ] {
            let back: CoordinatorToMonitor = decode(&encode(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn state_snapshot_round_trip() {
        let msg = MonitorToCoordinator::StateSnapshot {
            monitor: MonitorId(1),
            snapshot: sampler_snapshot(),
        };
        let back: MonitorToCoordinator = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn sealed_envelopes_round_trip_with_epoch() {
        let frame = MonitorFrame::seal(
            7,
            MonitorToCoordinator::TickDone {
                monitor: MonitorId(2),
                tick: 10,
                sampled: true,
                violation: false,
                suppressed: false,
            },
        );
        let back: MonitorFrame = decode(&frame).unwrap();
        assert_eq!(back.epoch, 7);
        assert!(matches!(
            back.msg,
            MonitorToCoordinator::TickDone { tick: 10, .. }
        ));

        let frame = ControlFrame::seal(2, CoordinatorToMonitor::Poll { tick: 4 });
        let back: ControlFrame = decode(&frame).unwrap();
        assert_eq!(back.epoch, 2);
        assert_eq!(back.msg, CoordinatorToMonitor::Poll { tick: 4 });
    }

    /// `is_wire_representable` is "its encoding decodes": poison any one
    /// float of a reply and both turn false together.
    #[test]
    fn a_message_is_wire_representable_until_any_float_of_it_is_not() {
        let monitor = MonitorId(1);
        let report = PeriodReport {
            observations: 10,
            avg_beta_current: 0.01,
            avg_beta_grown: 0.02,
            avg_potential_reduction: 0.5,
            interval: Interval::new_clamped(3),
            at_max_interval: false,
        };
        let snapshot = sampler_snapshot();
        let poisoned_reports: [fn(&mut PeriodReport); 3] = [
            |r| r.avg_beta_current = f64::NAN,
            |r| r.avg_beta_grown = f64::INFINITY,
            |r| r.avg_potential_reduction = f64::NEG_INFINITY,
        ];
        let poisoned_snapshots: [fn(&mut SamplerSnapshot); 5] = [
            |s| s.threshold = f64::NAN,
            |s| s.err = f64::INFINITY,
            |s| s.tracker.stats.mean = f64::NEG_INFINITY,
            |s| s.tracker.stats.variance = f64::INFINITY,
            |s| s.tracker.last = Some((3, f64::NAN)),
        ];
        let mut cases = vec![
            (
                MonitorToCoordinator::Report {
                    monitor,
                    report: report.clone(),
                },
                true,
            ),
            (
                MonitorToCoordinator::StateSnapshot { monitor, snapshot },
                true,
            ),
            (MonitorToCoordinator::Revived { monitor }, true),
        ];
        for value in [1.5e308, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let reply = MonitorToCoordinator::PollReply {
                monitor,
                tick: 4,
                value,
                forced_sample: true,
            };
            cases.push((reply, value.is_finite()));
        }
        for poison in poisoned_reports {
            let mut report = report.clone();
            poison(&mut report);
            cases.push((MonitorToCoordinator::Report { monitor, report }, false));
        }
        for poison in poisoned_snapshots {
            let mut snapshot = snapshot;
            poison(&mut snapshot);
            cases.push((
                MonitorToCoordinator::StateSnapshot { monitor, snapshot },
                false,
            ));
        }
        for (msg, carried) in cases {
            assert_eq!(msg.is_wire_representable(), carried, "{msg:?}");
            let decoded = decode::<MonitorToCoordinator>(&encode(&msg));
            assert_eq!(decoded.is_ok(), carried, "{msg:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let garbage = Bytes::from_static(b"not json\n");
        assert!(decode::<TickSummary>(&garbage).is_err());
    }

    #[test]
    fn runner_frames_round_trip() {
        let summary = TickSummary {
            tick: 12,
            scheduled_samples: 3,
            poll_samples: 1,
            local_violations: 2,
            polled: true,
            alerted: false,
            missing_reports: 1,
            degraded: true,
            stale_epoch_frames: 2,
            suppressed_samples: 0,
            gated: false,
        };
        let back: TickSummary = decode(&encode(&summary)).unwrap();
        assert_eq!(back, summary);
    }
}
