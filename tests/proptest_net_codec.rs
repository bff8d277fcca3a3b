//! Property tests of the socket frame codec: [`FrameBuffer`] must
//! reassemble newline-delimited frames identically no matter how the
//! kernel fragments the byte stream — arbitrary chunk boundaries,
//! byte-at-a-time delivery, polls interleaved between partial reads —
//! and must agree bit-for-bit with the blocking reader
//! (`read_frame_limited`) it replaces on the nonblocking path. And the
//! batched lines on top of it must carry exactly the per-monitor frames
//! they were made of, both ways, under any frame cap and any
//! fragmentation.

use std::io::{BufRead, BufReader, Read};

use proptest::prelude::*;

use volley::core::task::MonitorId;
use volley::core::VolleyError;
use volley::runtime::message::{
    decode_line, encode, ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator,
    TickData,
};
use volley::runtime::net::{
    encode_controls, encode_replies, expand_reply_line, FrameBuffer, ReplyBatch, ServerFrame,
};

/// The blocking reference reader: one newline-delimited frame of at most
/// `max_size` bytes from `reader`; `Ok(None)` signals a clean end of
/// stream. An oversized frame is an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error wrapping
/// [`VolleyError::FrameTooLarge`], and so is a stream that ends
/// mid-frame (bytes after the last newline).
fn read_frame_limited<R: BufRead>(
    reader: &mut R,
    max_size: usize,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut buffer = Vec::new();
    // Read at most one byte past the cap: enough to distinguish "exactly
    // at the limit" from "over it" without unbounded buffering.
    let mut limited = reader.take(max_size as u64 + 1);
    let read = limited.read_until(b'\n', &mut buffer)?;
    if read == 0 {
        return Ok(None);
    }
    if buffer.last() != Some(&b'\n') {
        if buffer.len() > max_size {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                VolleyError::FrameTooLarge {
                    size: buffer.len(),
                    max_size,
                },
            ));
        }
        // EOF in the middle of a frame: a crashed peer's half-written
        // message, never a message.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stream ended mid-frame after {} bytes", buffer.len()),
        ));
    }
    Ok(Some(buffer))
}

#[test]
fn frames_are_read_until_a_clean_end_of_stream() {
    let wire = b"{\"tick\":9}\nsecond\n".to_vec();
    let mut reader = BufReader::new(wire.as_slice());
    let first = read_frame_limited(&mut reader, 64).unwrap().unwrap();
    assert_eq!(first, b"{\"tick\":9}\n");
    let second = read_frame_limited(&mut reader, 64).unwrap().unwrap();
    assert_eq!(second, b"second\n");
    assert!(
        read_frame_limited(&mut reader, 64).unwrap().is_none(),
        "stream ends cleanly"
    );
}

#[test]
fn oversized_frame_is_rejected() {
    let wire = vec![b'x'; 100]; // no newline within the cap
    let mut reader = BufReader::new(wire.as_slice());
    let err = read_frame_limited(&mut reader, 64).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("65"), "reports the observed size");
}

#[test]
fn frame_exactly_at_the_cap_is_accepted() {
    let mut wire = vec![b'x'; 63];
    wire.push(b'\n');
    let mut reader = BufReader::new(wire.as_slice());
    let frame = read_frame_limited(&mut reader, 64).unwrap().unwrap();
    assert_eq!(frame.len(), 64);
}

#[test]
fn truncated_final_frame_is_an_error() {
    let wire = b"{\"tick\":1".to_vec(); // peer died mid-write
    let mut reader = BufReader::new(wire.as_slice());
    let err = read_frame_limited(&mut reader, 64).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("mid-frame"));
}

/// Builds the wire image: every frame payload (newline-free) terminated
/// by `\n`.
fn wire_image(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for frame in frames {
        wire.extend_from_slice(frame);
        wire.push(b'\n');
    }
    wire
}

/// Sanitizes proptest byte vectors: strips newlines so each vec is one
/// frame payload.
fn payloads(raw: &[Vec<u16>]) -> Vec<Vec<u8>> {
    raw.iter()
        .map(|frame| {
            frame
                .iter()
                .map(|&b| b as u8)
                .filter(|&b| b != b'\n')
                .collect()
        })
        .collect()
}

/// Splits `wire` at the (deduplicated, sorted) cut points and feeds the
/// chunks to the buffer, draining complete frames after every chunk —
/// the exact access pattern of the nonblocking event loop.
fn reassemble(wire: &[u8], cuts: &[usize], max_frame: usize) -> Result<Vec<Vec<u8>>, ()> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    points.push(0);
    points.push(wire.len());
    points.sort_unstable();
    points.dedup();

    let mut fb = FrameBuffer::new(max_frame);
    let mut out = Vec::new();
    for pair in points.windows(2) {
        fb.extend(&wire[pair[0]..pair[1]]);
        loop {
            match fb.next_frame() {
                Ok(Some(frame)) => out.push(frame.to_vec()),
                Ok(None) => break,
                Err(_) => return Err(()),
            }
        }
    }
    assert_eq!(
        fb.pending(),
        0,
        "a fully-delivered wire leaves nothing pending"
    );
    Ok(out)
}

proptest! {
    /// Any frame sequence survives any fragmentation: the reassembled
    /// frames equal the originals (newline included) regardless of where
    /// the stream was cut.
    #[test]
    fn arbitrary_splits_reassemble_exactly(
        raw in prop::collection::vec(prop::collection::vec(0u16..256, 0..48), 0..10),
        cuts in prop::collection::vec(0usize..4096, 0..24),
    ) {
        let frames = payloads(&raw);
        let wire = wire_image(&frames);
        let got = reassemble(&wire, &cuts, 64).expect("all payloads under the cap");
        prop_assert_eq!(got.len(), frames.len());
        for (frame, payload) in got.iter().zip(&frames) {
            prop_assert_eq!(&frame[..frame.len() - 1], &payload[..]);
            prop_assert_eq!(frame.last(), Some(&b'\n'));
        }
    }

    /// Byte-at-a-time delivery (the worst fragmentation the kernel can
    /// produce) gives the same result as one big chunk.
    #[test]
    fn byte_at_a_time_equals_single_chunk(
        raw in prop::collection::vec(prop::collection::vec(0u16..256, 0..32), 0..6),
    ) {
        let frames = payloads(&raw);
        let wire = wire_image(&frames);
        let every_byte: Vec<usize> = (0..=wire.len()).collect();
        let fine = reassemble(&wire, &every_byte, 64).expect("under cap");
        let coarse = reassemble(&wire, &[], 64).expect("under cap");
        prop_assert_eq!(fine, coarse);
    }

    /// The nonblocking reassembler agrees frame-for-frame with the
    /// blocking `read_frame_limited` on the same byte stream.
    #[test]
    fn agrees_with_blocking_reader(
        raw in prop::collection::vec(prop::collection::vec(0u16..256, 0..48), 0..8),
        cuts in prop::collection::vec(0usize..4096, 0..16),
    ) {
        let frames = payloads(&raw);
        let wire = wire_image(&frames);
        let nonblocking = reassemble(&wire, &cuts, 4096).expect("under cap");

        let mut reader = BufReader::new(&wire[..]);
        let mut blocking = Vec::new();
        while let Some(frame) = read_frame_limited(&mut reader, 4096).expect("reads") {
            blocking.push(frame);
        }
        prop_assert_eq!(nonblocking, blocking);
    }

    /// Oversized frames error no matter how they are fragmented, and the
    /// error fires without waiting for a newline that may never come.
    #[test]
    fn oversized_frames_error_under_any_split(
        cap in 1usize..32,
        extra in 1usize..32,
        cuts in prop::collection::vec(0usize..128, 0..12),
    ) {
        let payload = vec![b'x'; cap + extra];
        let wire = wire_image(&[payload]);
        prop_assert!(reassemble(&wire, &cuts, cap).is_err());

        // Same oversize, but the newline never arrives: the cap must
        // still trip once pending bytes exceed it.
        let mut fb = FrameBuffer::new(cap);
        let headless = &wire[..wire.len() - 1];
        let mut errored = false;
        for &b in headless {
            fb.extend(&[b]);
            match fb.next_frame() {
                Ok(None) => {}
                Ok(Some(frame)) => panic!("no newline was sent, got {frame:?}"),
                Err(_) => {
                    errored = true;
                    break;
                }
            }
        }
        prop_assert!(errored, "cap must trip before a newline arrives");
    }

    /// Repeated polling while starved is stable: `Ok(None)` forever, no
    /// phantom frames, and `pending` tracks exactly the undelivered tail.
    #[test]
    fn polling_while_starved_is_stable(
        raw in prop::collection::vec(0u16..256, 1..64),
        polls in 1usize..8,
    ) {
        let payload: Vec<u8> = raw.iter().map(|&b| b as u8).filter(|&b| b != b'\n').collect();
        let mut fb = FrameBuffer::new(256);
        for (i, &b) in payload.iter().enumerate() {
            fb.extend(&[b]);
            for _ in 0..polls {
                prop_assert!(fb.next_frame().expect("under cap").is_none());
            }
            prop_assert_eq!(fb.pending(), i + 1);
        }
        fb.extend(b"\n");
        let frame = fb.next_frame().expect("under cap").expect("complete");
        prop_assert_eq!(&frame[..frame.len() - 1], &payload[..]);
        prop_assert_eq!(fb.pending(), 0);
    }

    /// Any per-monitor frame sequence, batched by the socket plane's
    /// rule (coordinator → agent) or the agent's (agent → coordinator)
    /// under any frame cap and cut at arbitrary byte boundaries, decodes
    /// and expands to exactly the original sequence — less only the
    /// replies no wire can carry, each lost alone. Every line holding
    /// more than one monitor fits the cap.
    #[test]
    fn batched_lines_expand_to_the_frames_they_were_made_of(
        segments in prop::collection::vec((0u8..4, 1u32..9, 0u32..3, 0u8..4), 0..12),
        cap in 0usize..600,
        cuts in prop::collection::vec(0usize..16_384, 0..24),
    ) {
        // A segment: kind, length, gap before it (0 continues the last
        // id), and an epoch/tick wobble that may break a run at its seam.
        let (mut controls, mut replies) = (Vec::new(), Vec::new());
        let mut next = 0u32;
        for (i, &(kind, len, gap, wobble)) in segments.iter().enumerate() {
            next += gap;
            let (epoch, tick) = (u64::from(wobble & 1), 40 + u64::from(wobble >> 1));
            for to in next..next + len {
                let value = f64::from(to) * 1.25 - f64::from(i as u32);
                let msg = match kind {
                    0 => CoordinatorToMonitor::Tick(TickData { tick, value }),
                    1 => CoordinatorToMonitor::Poll { tick },
                    2 => CoordinatorToMonitor::SetAllowance { err: 0.01 * f64::from(wobble) },
                    _ => CoordinatorToMonitor::Shutdown,
                };
                controls.push((to, ControlFrame { epoch, msg }));
                let monitor = MonitorId(to);
                let msg = match kind {
                    0 => MonitorToCoordinator::TickDone {
                        monitor,
                        tick,
                        sampled: to % 2 == 0,
                        violation: to % 4 == 0,
                        suppressed: to % 3 == 1,
                    },
                    1 | 2 => MonitorToCoordinator::PollReply {
                        monitor,
                        tick,
                        value: if kind == 2 && to % 5 == 0 { f64::NAN } else { value },
                        forced_sample: to % 2 == 1,
                    },
                    _ => MonitorToCoordinator::Revived { monitor },
                };
                replies.push(MonitorFrame { epoch, msg });
            }
            next += len;
        }
        // A reader's cap: the sender's, or a lone frame's line if longer.
        let reader_cap = |lone: usize| cap.max(lone);

        let mut wire = Vec::new();
        let lines = encode_controls(&controls, cap, &mut wire);
        let lone = controls
            .iter()
            .map(|&(to, frame)| encode(&ServerFrame::Ctl { to, frame }).len() - 1)
            .max()
            .unwrap_or(0);
        let got = reassemble(&wire, &cuts, reader_cap(lone)).expect("every line under the cap");
        prop_assert_eq!(got.len() as u64, lines);
        let mut delivered = Vec::new();
        for line in &got {
            let frame: ServerFrame = decode_line(line).expect("a control line decodes");
            let before = delivered.len();
            frame.expand(0..u32::MAX, |to, frame| delivered.push((to, frame)));
            prop_assert!(delivered.len() - before <= 1 || line.len() - 1 <= cap);
        }
        prop_assert_eq!(delivered, controls);

        let mut wire = Vec::new();
        let lines = encode_replies(&replies, cap, &mut wire);
        let lone = replies.iter().map(|frame| encode(frame).len() - 1).max().unwrap_or(0);
        let got = reassemble(&wire, &cuts, reader_cap(lone)).expect("every line under the cap");
        prop_assert_eq!(got.len() as u64, lines);
        let mut admitted = Vec::new();
        for line in &got {
            let before = admitted.len();
            let carried = expand_reply_line(line, |frame| admitted.push(frame));
            let batch = decode_line::<ReplyBatch>(line).is_ok();
            prop_assert_eq!(carried, admitted.len() > before);
            prop_assert!(!batch || line.len() - 1 <= cap);
        }
        let carried: Vec<MonitorFrame> = replies
            .into_iter()
            .filter(|frame| frame.msg.is_wire_representable())
            .collect();
        prop_assert_eq!(admitted, carried);
    }
}
