//! Socket-level envelope messages for the agent/coordinator deployment.
//!
//! The in-process protocol ([`crate::message`]) is monitor-addressed: the
//! task session hands each frame to its monitor's slot and never names
//! the peer inside the frame. A socket carries traffic for
//! *many* monitors (an agent multiplexes a contiguous range of them), so
//! the network layer adds the thinnest possible addressing shim:
//!
//! - **agent → coordinator**: the first line on a fresh connection is an
//!   [`AgentHello`] declaring which monitors live behind the socket.
//!   Every subsequent line is a raw [`crate::message::MonitorFrame`],
//!   forwarded to the coordinator actor byte-for-byte — the frames
//!   already carry their `monitor` id, so no re-encoding happens on the
//!   hot path.
//! - **coordinator → agent**: every line is a [`ServerFrame`] — either a
//!   [`ServerFrame::Welcome`] acknowledging a hello, or a
//!   [`ServerFrame::Ctl`] wrapping one control frame with the
//!   destination monitor id.
//!
//! The coordinator's socket plane encodes a `Ctl` envelope from its
//! values, straight into the connection's write batch. [`ctl_line`]
//! builds the same line by textual splice around an already-encoded
//! control frame; nothing in the coordinator calls it any more — it
//! stays exported because the benchmark times it (`net.ctl_line_ns`),
//! and a unit test pins splice, derive and the plane's bytes to one
//! another so that row keeps describing the wire. It is the only
//! hand-spelled JSON in the workspace's non-test code (a second test
//! keeps it so): every other frame gets its text from the derives'
//! streaming `write_json`.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::message::ControlFrame;

/// First frame an agent sends on every (re)connection: which monitors it
/// hosts, and the highest epoch its actors have observed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentHello {
    /// Fleet-unique agent id (used for fault targeting and stats; not an
    /// authorization boundary).
    pub agent: u32,
    /// Monitor ids hosted behind this connection. On reconnect the new
    /// connection's routes override any stale ones for the same ids.
    pub monitors: Vec<u32>,
    /// Highest epoch the agent's monitors have observed. Informational:
    /// the coordinator acknowledges with [`ServerFrame::Welcome`] and
    /// re-fences stale monitors through `NewEpoch` control frames.
    pub epoch: u64,
}

/// Frames the coordinator writes to an agent socket.
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
}

/// Encodes a [`ServerFrame::Welcome`] line.
pub fn welcome_line(epoch: u64) -> Bytes {
    crate::message::encode(&ServerFrame::Welcome { epoch })
}

/// Wraps an already-encoded control frame into a [`ServerFrame::Ctl`]
/// line without re-encoding it: `{"Ctl":{"to":N,"frame":` + the control
/// frame's JSON + `}}` — byte for byte what the socket plane streams.
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
    use crate::message::{
        decode, encode, encode_into, ControlFrame, CoordinatorToMonitor, TickData,
    };

    #[test]
    fn hello_round_trips() {
        let hello = AgentHello {
            agent: 7,
            monitors: vec![14, 15, 16],
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
