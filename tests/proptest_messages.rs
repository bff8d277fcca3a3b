//! Property tests of the wire protocol: every message variant survives an
//! encode/decode round trip, and the decoder never panics on arbitrary or
//! truncated input — a hostile peer can at worst produce a decode error.
//!
//! Every round trip is also a differential test of the codec itself:
//! frames are written and read by the serde stand-in's streaming path,
//! and [`differential::check`] holds that path to the `Value`-tree path —
//! byte-identical encoding, and the same verdict (same value, or an error
//! from both) on the frame and on every truncation, bit flip, key
//! reordering, duplicate key, unknown key and whitespace padding of it.
//!
//! And of what sits behind the codec: a coordinator machine handed a
//! batch of frames as values and one handed the batch's encoding end up
//! with the same outbox ([`driven_both_ways`]).

#[path = "../vendor/serde_json/tests/differential/mod.rs"]
mod differential;

use proptest::prelude::*;

use bytes::Bytes;
use volley::core::adaptation::PeriodReport;
use volley::core::allocation::AllocationConfig;
use volley::core::coordinator::{CoordinationScheme, Coordinator};
use volley::core::snapshot::SamplerSnapshot;
use volley::core::task::{MonitorId, TaskSpec};
use volley::core::Interval;
use volley::core::{AdaptationConfig, AdaptiveSampler};
use volley::runtime::coordinator::{CoordinatorActor, Output};
use volley::runtime::message::{
    decode, decode_line, encode, encode_into, ControlFrame, CoordinatorToMonitor, MonitorFrame,
    MonitorToCoordinator, TickData, TickSummary,
};
use volley::runtime::net::{encode_replies, AgentHello, FrameBuffer, ReplyBatch, ServerFrame};

/// A realistic sampler snapshot with proptest-supplied variation: built
/// through the real sampler so every invariant the restore path expects
/// holds, then perturbed in the serializable fields.
fn sampler_snapshot(threshold: f64, observed: u64) -> SamplerSnapshot {
    let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), threshold);
    let mut tick = 0u64;
    for i in 0..observed {
        let obs = sampler.observe(tick, (i % 13) as f64);
        tick = obs.next_sample_tick.max(tick + 1);
    }
    sampler.to_snapshot()
}

fn round_trip<M>(msg: &M)
where
    M: serde::Serialize + for<'de> serde::Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let frame = encode(msg);
    assert_eq!(frame.last(), Some(&b'\n'), "frames are newline-terminated");
    let back: M = decode(&frame).expect("round trip decodes");
    assert_eq!(&back, msg);
    // The in-place variants are the same codec: same bytes, same value.
    let mut batched = b"earlier frame\n".to_vec();
    encode_into(msg, &mut batched);
    assert_eq!(batched, [b"earlier frame\n", &frame[..]].concat());
    assert_eq!(
        &decode_line::<M>(&frame).expect("borrowed line decodes"),
        msg
    );
    differential::check(msg);
}

/// [`round_trip`] inside both epoch envelopes' worth of nesting: the
/// frames as they actually cross a socket.
fn sealed_round_trip(epoch: u64, msg: MonitorToCoordinator) {
    round_trip(&MonitorFrame { epoch, msg });
}

fn control_round_trip(epoch: u64, to: u32, msg: CoordinatorToMonitor) {
    let frame = ControlFrame { epoch, msg };
    round_trip(&frame);
    round_trip(&ServerFrame::Ctl { to, frame });
}

/// Floats at the edges of what the wire's text must carry exactly.
const EDGE_VALUES: [f64; 8] = [
    0.0,
    -0.0,
    5e-324,
    -2.225_073_858_507_201e-308,
    1e308,
    -1e308,
    f64::MAX,
    f64::MIN_POSITIVE,
];

/// The epoch of the machines [`driven_both_ways`] builds: frames sealed
/// below it are stale.
const EPOCH: u64 = 1;

/// One generated frame for a 3-monitor task whose open round is `tick`:
/// `kind` picks the variant, `bits` its flags and — for the variants
/// that carry floats — whether one of them is a value no wire can carry.
/// Monitor 3 is foreign; `bits` ≥ 14 seals the frame at a deposed epoch.
fn generated_frame(kind: u8, monitor: u32, tick: u64, bits: u8) -> MonitorFrame {
    const VALUES: [f64; 8] = [
        10.0,
        120.5,
        250.0,
        -3.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5e308,
    ];
    let lost = VALUES[4 + usize::from(bits % 3)];
    let id = MonitorId(monitor);
    let msg = match kind {
        0..=3 => MonitorToCoordinator::TickDone {
            monitor: id,
            tick,
            sampled: bits & 1 != 0,
            violation: bits & 3 == 3,
            suppressed: bits & 5 == 4,
        },
        4 => MonitorToCoordinator::PollReply {
            monitor: id,
            tick,
            value: VALUES[usize::from(bits % 8)],
            forced_sample: bits & 8 != 0,
        },
        5 => {
            let beta = f64::from(bits) / 64.0;
            let mut report = PeriodReport {
                observations: 100 + u32::from(bits),
                avg_beta_current: beta / 2.0,
                avg_beta_grown: beta,
                avg_potential_reduction: 1.0 - 1.0 / f64::from(monitor + 2),
                interval: Interval::new_clamped(monitor + 1),
                at_max_interval: false,
                cost_curve: vec![1.0, 0.9, 0.75, 0.5, 0.4, 0.3, 0.25, 0.2],
            };
            match bits % 5 {
                3 => report.avg_beta_grown = lost,
                4 => report.cost_curve[usize::from(bits % 8)] = lost,
                _ => {}
            }
            MonitorToCoordinator::Report {
                monitor: id,
                report,
            }
        }
        6 => {
            let mut snapshot = sampler_snapshot(75.0, u64::from(bits));
            match bits % 5 {
                2 => snapshot.tracker.stats.variance = lost,
                3 => snapshot.tracker.last = Some((tick, lost)),
                4 => snapshot.err = lost,
                _ => {}
            }
            MonitorToCoordinator::StateSnapshot {
                monitor: id,
                snapshot,
            }
        }
        _ => MonitorToCoordinator::Revived { monitor: id },
    };
    let epoch = if bits >= 14 { EPOCH - 1 } else { EPOCH };
    MonitorFrame { epoch, msg }
}

/// `(kind, monitor, ticks ahead of the open round plus one, bits)`: what
/// [`generated_frame`] makes a frame of.
type FrameRecipe = (u8, u32, u64, u8);

/// Feeds three identical coordinator machines the same `events` — each a
/// batch of frames that arrive together and whether the phase's deadline
/// passes after it — one by [`CoordinatorActor::on_frames`] (values, as
/// the in-process plane hands them over), one by
/// [`CoordinatorActor::on_payload`] of the batch's encoding a line per
/// frame, and one by `on_payload` of the lines an agent writes for it
/// ([`encode_replies`]: runs batched) — and holds them to the same outbox
/// after every event, the first two to the same count. Kind 9 repeats
/// the batch's previous frame. Returns every output, in order.
fn driven_both_ways(events: &[(Vec<FrameRecipe>, bool)]) -> Vec<Output> {
    let machine = || {
        let spec = TaskSpec::builder(300.0)
            .monitors(3)
            .error_allowance(0.02)
            .build()
            .expect("valid spec");
        let scheme = CoordinationScheme::Adaptive;
        let rules = Coordinator::new(&spec, scheme, AllocationConfig::default()).expect("rules");
        // Three ticks short of the first updating period's end.
        CoordinatorActor::new(rules, Some(996))
            .with_epoch(EPOCH)
            .with_quarantine_after(2)
            .with_multitask(4)
            .with_checkpoint(2)
    };
    let (mut by_value, mut by_wire, mut by_batch) = (machine(), machine(), machine());
    let mut open_round = 997u64;
    let mut outputs = Vec::new();
    for (batch, deadline) in events {
        let mut frames: Vec<MonitorFrame> = Vec::new();
        for &(kind, monitor, ahead, bits) in batch {
            let tick = (open_round + ahead).saturating_sub(1);
            let frame = match frames.last() {
                Some(previous) if kind == 9 => previous.clone(),
                _ => generated_frame(kind, monitor, tick, bits),
            };
            frames.push(frame);
        }
        for frame in &frames {
            let carried = decode::<MonitorFrame>(&encode(frame)).is_ok();
            assert_eq!(frame.msg.is_wire_representable(), carried, "{frame:?}");
        }
        let payload: Vec<u8> = frames.iter().flat_map(|f| encode(f).to_vec()).collect();
        let mut batched = Vec::new();
        encode_replies(&frames, usize::MAX, &mut batched);
        let count = by_value.on_frames(frames.iter().cloned());
        assert_eq!(
            count,
            by_wire.on_payload(&payload),
            "a frame and its line count alike"
        );
        assert_eq!(count == 0, by_batch.on_payload(&batched) == 0);
        if *deadline {
            by_value.on_deadline();
            by_wire.on_deadline();
            by_batch.on_deadline();
        }
        let asked: Vec<Output> = std::iter::from_fn(|| by_value.pop_output()).collect();
        let wired: Vec<Output> = std::iter::from_fn(|| by_wire.pop_output()).collect();
        let batched: Vec<Output> = std::iter::from_fn(|| by_batch.pop_output()).collect();
        assert_eq!(asked, wired, "after {frames:?} (deadline: {deadline})");
        assert_eq!(
            asked, batched,
            "batched, after {frames:?} (deadline: {deadline})"
        );
        for output in &asked {
            if let Output::Summary(summary) = output {
                open_round = summary.tick + 1;
            }
        }
        outputs.extend(asked);
    }
    outputs
}

/// The scripted run of [`driven_both_ways`]: every ingredient the
/// generated sequences only probably contain — a stale-epoch frame, a
/// duplicate, a payload spanning two ticks, replies no wire can carry, a
/// reallocation round and a snapshot round — and the outputs that prove
/// each was reached.
#[test]
fn values_and_payloads_drive_the_machine_alike_through_a_scripted_run() {
    let done = |monitor, ahead, bits| (0u8, monitor, ahead, bits);
    let events = [
        // Tick 997: monitor 1 first speaks from the deposed epoch, monitor
        // 0 twice; monitor 2's report for tick 998 rides along.
        (
            vec![
                done(0, 1, 1),
                (9, 0, 0, 0),
                done(1, 1, 15),
                done(1, 1, 1),
                done(2, 1, 1),
                done(2, 2, 3),
            ],
            false,
        ),
        // Tick 998: the read-ahead violation polls once the others report.
        (vec![done(0, 1, 1), done(1, 1, 1)], false),
        // Monitor 1's value is one no wire can carry: the poll waits it
        // out and degrades. Then the checkpoint's snapshot round, monitor
        // 2's sampler state lost the same way.
        (vec![(4, 0, 1, 0), (4, 1, 1, 4), (4, 2, 1, 1)], true),
        (vec![(6, 0, 1, 0), (6, 1, 1, 1), (6, 2, 1, 3)], true),
        // Tick 999, quiet. Tick 1000 ends the updating period: reports
        // are gathered — a finite round, so allowances move or stay by
        // the rules alone — then the next snapshot round.
        (vec![done(0, 1, 1), done(1, 1, 1), done(2, 1, 1)], false),
        (vec![done(0, 1, 1), done(1, 1, 1), done(2, 1, 1)], false),
        (vec![(5, 0, 1, 0), (5, 1, 1, 1), (5, 2, 1, 2)], false),
        (vec![(6, 0, 1, 0), (6, 1, 1, 1), (6, 2, 1, 5)], false),
    ];
    let outputs = driven_both_ways(&events);
    let summaries: Vec<TickSummary> = outputs
        .iter()
        .filter_map(|output| match output {
            Output::Summary(summary) => Some(*summary),
            _ => None,
        })
        .collect();
    let ticks: Vec<u64> = summaries.iter().map(|s| s.tick).collect();
    assert_eq!(ticks, [997, 998, 999, 1000]);
    assert_eq!(summaries[0].stale_epoch_frames, 1);
    assert_eq!(
        summaries[0].scheduled_samples, 3,
        "the duplicate counts once"
    );
    assert!(
        summaries[1].polled && summaries[1].degraded,
        "{summaries:?}"
    );
    let snapshots: Vec<Vec<bool>> = outputs
        .iter()
        .filter_map(|output| match output {
            Output::Snapshot(snapshot) => {
                Some(snapshot.samplers.iter().map(Option::is_some).collect())
            }
            _ => None,
        })
        .collect();
    assert_eq!(snapshots, [[true, true, false], [true, true, true]]);
    let asked_for_reports = outputs.iter().any(|output| {
        matches!(
            output,
            Output::Send {
                msg: CoordinatorToMonitor::RequestReport,
                ..
            }
        )
    });
    assert!(asked_for_reports, "tick 1000 reallocates");
}

proptest! {
    /// The reply direction has two entrances and one machine behind them:
    /// whatever frames arrive, in whatever batches, handing them over as
    /// values and handing over their encoding leave the coordinator with
    /// the same outbox — sends, notices, log records, summaries — after
    /// every batch. Non-finite floats included: the line the codec makes
    /// of them does not decode, and the value is dropped just the same.
    #[test]
    fn values_and_payloads_drive_the_machine_alike(
        events in prop::collection::vec(
            (
                prop::collection::vec((0u8..10, 0u32..4, 0u64..3, 0u8..16), 0..8),
                0u8..4,
            ),
            1..40,
        ),
    ) {
        let events: Vec<_> = events
            .into_iter()
            .map(|(batch, deadline)| (batch, deadline == 0))
            .collect();
        driven_both_ways(&events);
    }

    /// `MonitorToCoordinator` round-trips for every variant.
    #[test]
    fn monitor_frames_round_trip(
        monitor in 0u32..1000,
        tick in 0u64..u64::MAX,
        value in -1e12f64..1e12,
        flags in 0u8..4,
    ) {
        let sampled = flags & 1 != 0;
        let violation = flags & 2 != 0;
        round_trip(&MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled,
            violation,
            suppressed: flags & 2 != 0 && !sampled,
        });
        round_trip(&MonitorToCoordinator::PollReply {
            monitor: MonitorId(monitor),
            tick,
            value,
            forced_sample: sampled,
        });
        round_trip(&MonitorToCoordinator::Revived {
            monitor: MonitorId(monitor),
        });
        sealed_round_trip(tick ^ u64::from(monitor), MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled,
            violation,
            suppressed: !sampled,
        });
        sealed_round_trip(u64::from(flags), MonitorToCoordinator::PollReply {
            monitor: MonitorId(monitor),
            tick,
            value,
            forced_sample: violation,
        });
    }

    /// The snapshot-bearing variants — the only ones carrying full
    /// adaptation state — round-trip in both directions.
    #[test]
    fn snapshot_frames_round_trip(
        monitor in 0u32..1000,
        threshold in 1.0f64..1e6,
        observed in 0u64..40,
    ) {
        let snapshot = sampler_snapshot(threshold, observed);
        round_trip(&MonitorToCoordinator::StateSnapshot {
            monitor: MonitorId(monitor),
            snapshot,
        });
        round_trip(&CoordinatorToMonitor::RestoreState { snapshot });
        round_trip(&snapshot);
        sealed_round_trip(observed, MonitorToCoordinator::StateSnapshot {
            monitor: MonitorId(monitor),
            snapshot,
        });
        control_round_trip(observed, monitor, CoordinatorToMonitor::RestoreState { snapshot });
    }

    /// Period reports — the only variant holding nested structures and a
    /// variable-length payload — round-trip too.
    #[test]
    fn period_reports_round_trip(
        monitor in 0u32..1000,
        observations in 0u32..100_000,
        beta in 0.0f64..1.0,
        interval in 0u32..4096,
        curve in prop::collection::vec(0.0f64..1.0, 0..16),
    ) {
        let report = PeriodReport {
            observations,
            avg_beta_current: beta,
            avg_beta_grown: beta / 2.0,
            avg_potential_reduction: 1.0 - beta,
            interval: Interval::new_clamped(interval),
            at_max_interval: interval >= 4095,
            cost_curve: curve,
        };
        round_trip(&report);
        sealed_round_trip(u64::from(observations), MonitorToCoordinator::Report {
            monitor: MonitorId(monitor),
            report,
        });
    }

    /// `CoordinatorToMonitor` round-trips for every variant.
    #[test]
    fn coordinator_frames_round_trip(
        tick in 0u64..u64::MAX,
        value in -1e12f64..1e12,
        err in 0.0f64..1.0,
    ) {
        round_trip(&CoordinatorToMonitor::Tick(TickData { tick, value }));
        round_trip(&CoordinatorToMonitor::Poll { tick });
        round_trip(&CoordinatorToMonitor::RequestReport);
        round_trip(&CoordinatorToMonitor::SetAllowance { err });
        round_trip(&CoordinatorToMonitor::NewEpoch { epoch: tick });
        round_trip(&CoordinatorToMonitor::RequestSnapshot);
        round_trip(&CoordinatorToMonitor::ResetSampler);
        round_trip(&CoordinatorToMonitor::SetGate {
            interval: if err < 0.5 { Some(tick as u32 % 64 + 1) } else { None },
        });
        round_trip(&CoordinatorToMonitor::Shutdown);
        let to = (tick % 4096) as u32;
        control_round_trip(tick, to, CoordinatorToMonitor::Tick(TickData { tick, value }));
        control_round_trip(tick, to, CoordinatorToMonitor::Poll { tick });
        control_round_trip(0, to, CoordinatorToMonitor::SetAllowance { err });
        control_round_trip(1, to, CoordinatorToMonitor::SetGate { interval: None });
        control_round_trip(2, to, CoordinatorToMonitor::Shutdown);
    }

    /// The batched lines round-trip byte for byte against the tree
    /// oracle, corruptions and all — tick data and the fan-out on the way
    /// out, tick reports and poll replies on the way back — and every
    /// float a run carries comes back bit for bit: ±0.0, subnormals and
    /// ±1e308 included.
    #[test]
    fn batched_lines_round_trip_bit_exactly(
        epoch in 0u64..u64::MAX,
        tick in 0u64..u64::MAX,
        first in 0u32..u32::MAX,
        count in 0u32..u32::MAX,
        picks in prop::collection::vec((0usize..EDGE_VALUES.len() + 1, -1e12f64..1e12, 0u8..8), 0..12),
    ) {
        let values: Vec<f64> = picks
            .iter()
            .map(|&(edge, value, _)| EDGE_VALUES.get(edge).copied().unwrap_or(value))
            .collect();
        let flags: Vec<u8> = picks.iter().map(|&(_, _, bits)| bits).collect();
        let forced: Vec<bool> = flags.iter().map(|&bits| bits & 1 != 0).collect();
        let ticks = ServerFrame::Ticks { epoch, tick, first, values: values.clone() };
        let polls = ReplyBatch::PollReplies { epoch, tick, first, values: values.clone(), forced };
        round_trip(&ticks);
        round_trip(&polls);
        round_trip(&ReplyBatch::TickDones { epoch, tick, first, flags });
        let frame = ControlFrame { epoch, msg: CoordinatorToMonitor::Poll { tick } };
        round_trip(&ServerFrame::Fan { first, count, frame });
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        match decode::<ServerFrame>(&encode(&ticks)).expect("decodes") {
            ServerFrame::Ticks { values: back, .. } => prop_assert_eq!(bits(&back), bits(&values)),
            other => panic!("expected Ticks, got {other:?}"),
        }
        match decode::<ReplyBatch>(&encode(&polls)).expect("decodes") {
            ReplyBatch::PollReplies { values: back, .. } => prop_assert_eq!(bits(&back), bits(&values)),
            other => panic!("expected PollReplies, got {other:?}"),
        }
    }

    /// The socket-level envelopes round-trip: the hello an agent opens
    /// with and the welcome it is answered with. The hello names its
    /// range, not the range's members, so its line stays short for any
    /// range — a 13 000-monitor agent's included.
    #[test]
    fn handshake_frames_round_trip(
        agent in 0u32..u32::MAX,
        first in 0u32..u32::MAX,
        hosted in 0u32..u32::MAX,
        epoch in 0u64..u64::MAX,
    ) {
        let hello = AgentHello {
            agent,
            first,
            count: hosted,
            epoch,
        };
        round_trip(&hello);
        prop_assert!(encode(&hello).len() <= 96, "{} bytes", encode(&hello).len());
        round_trip(&ServerFrame::Welcome { epoch });
    }

    /// Epoch envelopes round-trip: sealing a message and decoding the
    /// frame recovers both the epoch and the payload.
    #[test]
    fn epoch_envelopes_round_trip(
        epoch in 0u64..u64::MAX,
        monitor in 0u32..1000,
        tick in 0u64..u64::MAX,
    ) {
        let msg = MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled: true,
            violation: false,
            suppressed: false,
        };
        let sealed = MonitorFrame::seal(epoch, msg.clone());
        let frame: MonitorFrame = decode(&sealed).expect("monitor envelope decodes");
        prop_assert_eq!(frame.epoch, epoch);
        prop_assert_eq!(frame.msg, msg);

        let ctrl = CoordinatorToMonitor::Poll { tick };
        let sealed = ControlFrame::seal(epoch, ctrl);
        let frame: ControlFrame = decode(&sealed).expect("control envelope decodes");
        prop_assert_eq!(frame.epoch, epoch);
        prop_assert_eq!(frame.msg, ctrl);
    }

    /// What lets a monitor host (or the socket loop) hand the coordinator
    /// a whole drain as one payload: `k` encoded frames concatenated split
    /// back on newlines into the same `k` frames, byte for byte — a frame
    /// holds exactly one newline, its last byte — and `FrameBuffer` cuts
    /// the payload at the same places.
    #[test]
    fn concatenated_frames_split_back_into_the_same_frames(
        epoch in 0u64..1000,
        k in 0usize..40,
        tick in 0u64..u64::MAX,
        value in -1e12f64..1e12,
        threshold in 1.0f64..1e6,
    ) {
        let frames: Vec<Bytes> = (0..k as u32)
            .map(|i| {
                let monitor = MonitorId(i);
                let msg = match i % 4 {
                    0 => MonitorToCoordinator::TickDone {
                        monitor,
                        tick,
                        sampled: i % 8 == 0,
                        violation: false,
                        suppressed: i % 8 != 0,
                    },
                    1 => MonitorToCoordinator::PollReply {
                        monitor,
                        tick,
                        value,
                        forced_sample: true,
                    },
                    2 => MonitorToCoordinator::Revived { monitor },
                    _ => MonitorToCoordinator::StateSnapshot {
                        monitor,
                        snapshot: sampler_snapshot(threshold, u64::from(i)),
                    },
                };
                MonitorFrame::seal(epoch + u64::from(i), msg)
            })
            .collect();
        let payload: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();

        let lines: Vec<&[u8]> = payload.split_inclusive(|&b| b == b'\n').collect();
        prop_assert_eq!(lines.len(), k);
        let mut reassembled = FrameBuffer::new(1 << 20);
        reassembled.extend(&payload);
        for (line, frame) in lines.iter().zip(&frames) {
            prop_assert_eq!(*line, &frame[..]);
            prop_assert_eq!(
                decode_line::<MonitorFrame>(line).expect("a split line decodes"),
                decode::<MonitorFrame>(frame).expect("the frame decodes")
            );
            prop_assert_eq!(&reassembled.next_frame().expect("under the cap"), &Some(frame.clone()));
        }
        prop_assert_eq!(reassembled.pending(), 0);
    }

    /// The `TickSummary` the coordinator hands its driver round-trips.
    #[test]
    fn runner_frames_round_trip(
        tick in 0u64..u64::MAX,
        counts in (0u32..10_000, 0u32..10_000, 0u32..10_000, 0u32..10_000),
        flags in 0u8..4,
    ) {
        round_trip(&TickSummary {
            tick,
            scheduled_samples: counts.0,
            poll_samples: counts.1,
            local_violations: counts.2,
            polled: flags & 1 != 0,
            alerted: flags & 2 != 0,
            missing_reports: counts.3,
            degraded: flags & 1 != 0,
            stale_epoch_frames: counts.2,
            suppressed_samples: counts.1,
            gated: flags & 2 != 0,
        });
    }

    /// Decoding arbitrary bytes never panics — it either yields a value
    /// or an error.
    #[test]
    fn decoding_arbitrary_bytes_never_panics(
        raw in prop::collection::vec(0u16..256, 0..128),
    ) {
        let bytes = Bytes::from(raw.iter().map(|&b| b as u8).collect::<Vec<u8>>());
        let _ = decode::<MonitorToCoordinator>(&bytes);
        let _ = decode::<CoordinatorToMonitor>(&bytes);
        let _ = decode::<TickSummary>(&bytes);
        let _ = decode::<MonitorFrame>(&bytes);
        let _ = decode::<ControlFrame>(&bytes);
        // ... and whatever the verdict, the tree path reaches the same one.
        differential::assert_decoders_agree::<MonitorFrame>(&bytes);
        differential::assert_decoders_agree::<ControlFrame>(&bytes);
        differential::assert_decoders_agree::<ServerFrame>(&bytes);
        differential::assert_decoders_agree::<ReplyBatch>(&bytes);
        differential::assert_decoders_agree::<AgentHello>(&bytes);
        differential::assert_decoders_agree::<TickSummary>(&bytes);
    }

    /// Frames written before the multi-task gate existed carry no
    /// `suppressed` (or `suppressed_samples` / `gated`) member; they still
    /// decode, on both paths, to the ungated value.
    #[test]
    fn pre_gate_frames_still_decode(
        epoch in 0u64..1000,
        monitor in 0u32..1000,
        tick in 0u64..u64::MAX,
    ) {
        let legacy = format!(
            "{{\"epoch\":{epoch},\"msg\":{{\"TickDone\":{{\"monitor\":{monitor},\"tick\":{tick},\
             \"sampled\":true,\"violation\":false}}}}}}\n"
        );
        differential::assert_decoders_agree::<MonitorFrame>(legacy.as_bytes());
        let frame: MonitorFrame = decode_line(legacy.as_bytes()).expect("legacy frame decodes");
        prop_assert_eq!(frame, MonitorFrame {
            epoch,
            msg: MonitorToCoordinator::TickDone {
                monitor: MonitorId(monitor),
                tick,
                sampled: true,
                violation: false,
                suppressed: false,
            },
        });
        let legacy = format!(
            "{{\"tick\":{tick},\"scheduled_samples\":1,\"poll_samples\":2,\
             \"local_violations\":3,\"polled\":true,\"alerted\":false,\"missing_reports\":0,\
             \"degraded\":false,\"stale_epoch_frames\":0}}"
        );
        differential::assert_decoders_agree::<TickSummary>(legacy.as_bytes());
        let summary: TickSummary =
            decode_line(legacy.as_bytes()).expect("legacy summary decodes");
        prop_assert_eq!((summary.suppressed_samples, summary.gated), (0, false));
    }

    /// Decoding a truncated frame of a real message never panics, and a
    /// strict prefix never decodes into a different valid message.
    #[test]
    fn truncated_frames_error_not_panic(
        monitor in 0u32..1000,
        tick in 0u64..u64::MAX,
        cut in 0usize..4096,
    ) {
        let msg = MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled: true,
            violation: false,
            suppressed: false,
        };
        let frame = encode(&msg);
        // Stay strictly inside the JSON body: cutting only the trailing
        // newline leaves a complete document, which rightly decodes.
        let cut = cut % (frame.len() - 1);
        let truncated = Bytes::from(frame.as_ref()[..cut].to_vec());
        prop_assert!(decode::<MonitorToCoordinator>(&truncated).is_err());
    }
}
