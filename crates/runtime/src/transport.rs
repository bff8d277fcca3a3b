//! Socket-level hardening shared by both ends of the networked
//! deployment ([`crate::net`]). The wire is hostile: frames are capped
//! (a peer cannot make a reader buffer without bound), a stream that ends
//! mid-frame is a decode error, and an agent's writes can carry a timeout
//! ([`TransportConfig`]). Both ends reassemble frames with
//! [`FrameBuffer`](crate::net::FrameBuffer).

use std::time::Duration;

/// Default cap on a single wire line. A one-monitor message is tens to a
/// few hundred bytes; a batched line carries a run of monitors (a tick's
/// data or replies: ≈ 5–25 bytes a monitor), so 64 KiB holds runs of a
/// few thousand monitors in one line — a sender splits a longer run —
/// and room for large period reports, while bounding what a misbehaving
/// peer can make us buffer.
pub const DEFAULT_MAX_FRAME_SIZE: usize = 64 * 1024;

/// Socket-level hardening knobs for [`crate::net::NetCoordinator`] and
/// [`crate::net::run_agent`]. No read timeout: an idle agent blocks in a
/// read, and learns of a dead coordinator when the socket closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum accepted frame size in bytes.
    pub max_frame_size: usize,
    /// Write timeout of an agent's socket (`None` = block forever): it
    /// unblocks an agent whose coordinator stops reading, which then
    /// drops the connection and re-dials.
    pub write_timeout: Option<Duration>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            write_timeout: None,
        }
    }
}
