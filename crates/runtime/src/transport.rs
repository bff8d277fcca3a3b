//! Socket-level hardening shared by both ends of the networked
//! deployment ([`crate::net`]).
//!
//! The actors speak newline-delimited JSON frames
//! ([`crate::message::encode`]). The wire is treated as hostile: frames
//! are capped at a maximum size (a corrupt or malicious peer cannot make
//! a reader buffer without bound), a stream that ends mid-frame is a
//! decode error rather than a silently accepted partial message, and
//! socket reads and writes can carry timeouts ([`TransportConfig`]).
//! Frames are reassembled by the nonblocking
//! [`FrameBuffer`](crate::net::FrameBuffer) the coordinator and the
//! agents share.

use std::time::Duration;

/// Default cap on a single wire line. A one-monitor message is tens to a
/// few hundred bytes; a batched line carries a run of monitors (a tick's
/// data or replies: ≈ 5–25 bytes a monitor), so 64 KiB holds runs of a
/// few thousand monitors in one line — a sender splits a longer run —
/// and room for large period reports, while bounding what a misbehaving
/// peer can make us buffer.
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
