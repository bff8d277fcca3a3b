//! Networked deployment: agents and a socket-serving coordinator.
//!
//! Everything the in-process runner proves about the protocol — epoch
//! fencing, tick deadlines, quarantine/degraded aggregation — carries
//! over unchanged, because the same actors run on both sides; this
//! module only replaces the channel transport with sockets:
//!
//! - [`NetCoordinator`] binds a TCP or Unix listener and drives the task
//!   over a fleet of connected agents, stepping their nonblocking
//!   sockets on its own thread (bounded per-connection queues, batched
//!   writes, idle reaping).
//! - The wire ([`ServerFrame`], [`ReplyBatch`]) carries a run of
//!   consecutive monitors' frames as one line, so a tick costs an agent
//!   a line per phase, not a line per monitor; [`encode_controls`],
//!   [`encode_replies`], [`ServerFrame::expand`] and
//!   [`expand_reply_line`] are its codec.
//! - [`run_agent`] hosts a slice of the task's monitors behind one
//!   socket, reconnecting with jittered exponential backoff and the
//!   `Revived` re-handshake when the connection dies.
//! - [`NetFaultPlan`] injects connection-level faults (reconnect
//!   storms) for `volley chaos --net`.
//!
//! See `DESIGN.md` §14 for the wire format and connection state machine.

mod agent;
mod codec;
mod faults;
mod server;
mod wire;

pub use agent::{run_agent, AgentConfig, AgentReport, BackoffConfig};
pub use codec::FrameBuffer;
pub use faults::NetFaultPlan;
pub(crate) use server::SocketPlane;
pub use server::{NetAddr, NetCoordinator, NetRunOutcome, NetStats, DEFAULT_TICK_DEADLINE};
pub use wire::{
    ctl_line, encode_controls, encode_replies, expand_reply_line, welcome_line, AgentHello,
    ReplyBatch, ServerFrame,
};
