//! Socket-level hardening shared by both ends of the networked
//! deployment ([`crate::net`]).
//!
//! The actors speak newline-delimited JSON frames
//! ([`crate::message::encode`]). The wire is treated as hostile: frames
//! are capped at a maximum size (a corrupt or malicious peer cannot make
//! a reader buffer without bound), a stream that ends mid-frame is a
//! decode error rather than a silently accepted partial message, and
//! socket reads and writes can carry timeouts ([`TransportConfig`]).
//!
//! [`read_frame_limited`] is the blocking reference reader: the
//! nonblocking [`FrameBuffer`](crate::net::FrameBuffer) the coordinator
//! and the agents use is property-tested to agree with it byte for byte.

use std::io::{BufRead, Read};
use std::time::Duration;

use bytes::Bytes;

use volley_core::VolleyError;

/// Default cap on a single wire frame. Protocol messages are tens to a
/// few hundred bytes; 64 KiB leaves room for large period reports while
/// bounding what a misbehaving peer can make us buffer.
pub const DEFAULT_MAX_FRAME_SIZE: usize = 64 * 1024;

/// Socket-level hardening knobs for [`crate::net::NetCoordinator`] and
/// [`crate::net::run_agent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum accepted frame size in bytes.
    pub max_frame_size: usize,
    /// Read timeout applied to the socket (`None` = block forever).
    /// An idle-but-healthy coordinator sends nothing between ticks, so
    /// only set this below the expected tick period if a dead peer must
    /// be detected by the monitor side too.
    pub read_timeout: Option<Duration>,
    /// Write timeout applied to the socket (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// Reads one newline-delimited frame of at most `max_size` bytes from
/// the wire; `Ok(None)` signals a clean end of stream.
///
/// # Errors
///
/// Propagates reader failures. Returns an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error wrapping
/// [`VolleyError::FrameTooLarge`] for an oversized frame, or one for a
/// stream that ends mid-frame (bytes after the last newline).
pub fn read_frame_limited<R: BufRead>(
    reader: &mut R,
    max_size: usize,
) -> std::io::Result<Option<Bytes>> {
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
    Ok(Some(Bytes::from(buffer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_read_until_a_clean_end_of_stream() {
        let wire = b"{\"tick\":9}\nsecond\n".to_vec();
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let first = read_frame_limited(&mut reader, 64).unwrap().unwrap();
        assert_eq!(&*first, b"{\"tick\":9}\n");
        let second = read_frame_limited(&mut reader, 64).unwrap().unwrap();
        assert_eq!(&*second, b"second\n");
        assert!(
            read_frame_limited(&mut reader, 64).unwrap().is_none(),
            "stream ends cleanly"
        );
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let wire = vec![b'x'; 100]; // no newline within the cap
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let err = read_frame_limited(&mut reader, 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("65"), "reports the observed size");
    }

    #[test]
    fn frame_exactly_at_the_cap_is_accepted() {
        let mut wire = vec![b'x'; 63];
        wire.push(b'\n');
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let frame = read_frame_limited(&mut reader, 64).unwrap().unwrap();
        assert_eq!(frame.len(), 64);
    }

    #[test]
    fn truncated_final_frame_is_an_error() {
        let wire = b"{\"tick\":1".to_vec(); // peer died mid-write
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let err = read_frame_limited(&mut reader, 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mid-frame"));
    }
}
