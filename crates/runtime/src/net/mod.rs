//! Networked deployment: the in-process actors, over sockets.
//! [`NetCoordinator`] drives the task over a fleet of agents on one
//! thread; [`run_agent`] hosts a slice of the monitors behind one socket,
//! a blocking driver around the agent's sans-IO machine; the wire
//! ([`ServerFrame`], [`ReplyBatch`]) carries a run of consecutive
//! monitors' frames as one line ([`encode_replies`],
//! [`ServerFrame::expand`], [`expand_reply_line`]) — tick data a window
//! of one to [`MAX_WINDOW`] quiet ticks at a time, one line each way per
//! agent, rewound where a poll lands inside it, and the next window sent
//! with the poll; [`NetFaultPlan`] schedules
//! reconnect storms for `volley chaos --net`. Every time read
//! and wait goes through one crate-private `Clock`: the wall clock in
//! production; in tests, a virtual one that runs the real socket plane
//! against real agent machines on one thread, from one seed, and counts
//! a steady window's work there against its budget. See `DESIGN.md` §8.

use std::time::{Duration, Instant};

mod agent;
mod codec;
mod faults;
mod server;
mod wire;

pub use agent::{run_agent, AgentConfig, AgentReport, BackoffConfig};
pub use codec::FrameBuffer;
pub use faults::NetFaultPlan;
pub use server::{NetAddr, NetCoordinator, NetRunOutcome, NetStats, DEFAULT_TICK_DEADLINE};
pub(crate) use server::{SocketPlane, WindowFeed};
pub use wire::{
    ctl_line, encode_replies, expand_reply_line, welcome_line, AgentHello, DigitColumn, F64Column,
    Reply, ReplyBatch, ServerFrame, MAX_WINDOW,
};

/// The one source of time of the socket plane and the agent driver.
pub(crate) trait Clock: Send {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Waits until `until`; `io`, when given, is the caller's own wait on
    /// its sockets, handed the longest it may block: all the time left on
    /// the wall clock, so a ready socket ends the wait early; zero on a
    /// virtual clock, which runs its world and moves time on instead.
    fn wait_until(&mut self, until: Instant, io: Option<&mut dyn FnMut(Duration)>);
}

/// Real time: a wait is the caller's `poll`, or a sleep.
pub(crate) struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn wait_until(&mut self, until: Instant, io: Option<&mut dyn FnMut(Duration)>) {
        let left = until.saturating_duration_since(Instant::now());
        match io {
            Some(io) => io(left),
            None => std::thread::sleep(left),
        }
    }
}

#[cfg(test)]
mod sweep;
#[cfg(test)]
mod work_budget;
