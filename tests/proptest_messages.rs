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

#[path = "../vendor/serde_json/tests/differential/mod.rs"]
mod differential;

use proptest::prelude::*;

use bytes::Bytes;
use volley::core::adaptation::PeriodReport;
use volley::core::snapshot::SamplerSnapshot;
use volley::core::task::MonitorId;
use volley::core::Interval;
use volley::core::{AdaptationConfig, AdaptiveSampler};
use volley::runtime::message::{
    decode, decode_line, encode, encode_into, ControlFrame, CoordinatorToMonitor, MonitorFrame,
    MonitorToCoordinator, TickData, TickSummary,
};
use volley::runtime::net::{AgentHello, FrameBuffer, ServerFrame};

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

proptest! {
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
        round_trip(&MonitorToCoordinator::LeaderState {
            tick,
            active: flags & 1 != 0,
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

    /// The socket-level envelopes round-trip: the hello an agent opens
    /// with and the welcome it is answered with.
    #[test]
    fn handshake_frames_round_trip(
        agent in 0u32..10_000,
        first in 0u32..100_000,
        hosted in 0u32..300,
        epoch in 0u64..u64::MAX,
    ) {
        round_trip(&AgentHello {
            agent,
            monitors: (first..first + hosted).collect(),
            epoch,
        });
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
