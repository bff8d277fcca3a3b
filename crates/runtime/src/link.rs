//! Cloneable channel endpoints for monitor inboxes.
//!
//! The runner and the coordinator both send frames to every monitor, and
//! neither knows where the monitor lives; [`MonitorLink`] is that
//! indirection. A link feeds one of three things:
//!
//! - a plain frame channel ([`MonitorLink::new`]) — the monitors' shared
//!   link *to* the coordinator, which a failover repoints at the
//!   successor's inbox ([`MonitorLink::replace`], seen by every clone);
//! - the inbox of the in-process host thread that steps the monitor
//!   ([`MonitorLink::hosted`]), frames tagged with the monitor index;
//! - the socket event loop's shared `(monitor, frame)` channel
//!   ([`MonitorLink::tagged`]), which is how the networked coordinator
//!   ([`crate::net`]) funnels every monitor's outbound traffic into one
//!   loop without the coordinator actor knowing the transport changed.
//!   Each tagged send fires the loop's [`Waker`], so the loop blocks in
//!   `poll` instead of polling the channel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use crossbeam::channel::Sender;
use volley_serve::reactor::Waker;

use crate::monitor::{HostMsg, MonitorActor, MonitorSlot};

/// Where a link's frames go.
#[derive(Debug)]
enum LinkTarget {
    Channel(Sender<Bytes>),
    Hosted {
        monitor: u32,
        inbox: Sender<HostMsg>,
        /// The liveness flag of the slot currently installed.
        alive: Arc<AtomicBool>,
    },
    Tagged {
        monitor: u32,
        out: Sender<(u32, Bytes)>,
        waker: Waker,
    },
}

/// A cloneable handle to one monitor's inbox.
#[derive(Debug, Clone)]
pub struct MonitorLink {
    inner: Arc<Mutex<LinkTarget>>,
}

impl MonitorLink {
    fn to(target: LinkTarget) -> Self {
        MonitorLink {
            inner: Arc::new(Mutex::new(target)),
        }
    }

    /// Wraps a frame-channel sender.
    pub fn new(sender: Sender<Bytes>) -> Self {
        Self::to(LinkTarget::Channel(sender))
    }

    /// Links to monitor `monitor` on the in-process host reading `inbox`;
    /// `alive` is its slot's [`MonitorSlot::liveness`].
    pub(crate) fn hosted(monitor: u32, inbox: Sender<HostMsg>, alive: Arc<AtomicBool>) -> Self {
        Self::to(LinkTarget::Hosted {
            monitor,
            inbox,
            alive,
        })
    }

    /// Wraps a shared multiplexer sender: every frame sent through this
    /// link arrives as `(monitor, frame)` on `out`, preserving per-link
    /// FIFO order. Used by the socket transport, where one event loop
    /// serves every monitor connection; `waker` interrupts that loop's
    /// wait after each send.
    pub fn tagged(monitor: u32, out: Sender<(u32, Bytes)>, waker: Waker) -> Self {
        Self::to(LinkTarget::Tagged {
            monitor,
            out,
            waker,
        })
    }

    /// Sends one frame; `false` means the monitor is gone (it crashed or
    /// shut down, or whatever hosted it dropped the receiver).
    pub fn send(&self, frame: Bytes) -> bool {
        let guard = self.inner.lock().expect("link lock never poisoned");
        match &*guard {
            LinkTarget::Channel(sender) => sender.send(frame).is_ok(),
            LinkTarget::Hosted {
                monitor,
                inbox,
                alive,
            } => {
                // Queued even for a dead monitor — its slot drops the
                // frame, but must still hear a shutdown.
                let alive = alive.load(Ordering::Relaxed);
                inbox.send(HostMsg::Frame(*monitor, frame)).is_ok() && alive
            }
            LinkTarget::Tagged {
                monitor,
                out,
                waker,
            } => {
                let sent = out.send((*monitor, frame)).is_ok();
                waker.wake();
                sent
            }
        }
    }

    /// Replaces a hosted monitor with `actor` in a fresh slot with a
    /// liveness flag of its own (the predecessor's stays as it fell). The
    /// install rides the host's inbox under the link's lock, so frames
    /// sent before it never reach the newcomer and frames sent after it
    /// do. No-op on a link that is not [`hosted`](Self::hosted).
    pub(crate) fn install(&self, actor: MonitorActor) {
        let mut guard = self.inner.lock().expect("link lock never poisoned");
        if let LinkTarget::Hosted { inbox, alive, .. } = &mut *guard {
            let slot = MonitorSlot::new(actor);
            *alive = slot.liveness();
            let _ = inbox.send(HostMsg::Install(Box::new(slot)));
        }
    }

    /// Redirects this link (and every clone of it) to a new frame
    /// channel, dropping the previous sender.
    pub fn replace(&self, sender: Sender<Bytes>) {
        let mut guard = self.inner.lock().expect("link lock never poisoned");
        *guard = LinkTarget::Channel(sender);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use volley_serve::reactor::Reactor;

    #[test]
    fn send_reaches_receiver() {
        let (tx, rx) = unbounded::<Bytes>();
        let link = MonitorLink::new(tx);
        assert!(link.send(Bytes::from_static(b"a")));
        assert_eq!(&*rx.recv().unwrap(), b"a");
    }

    #[test]
    fn replace_redirects_all_clones() {
        let (tx1, rx1) = unbounded::<Bytes>();
        let (tx2, rx2) = unbounded::<Bytes>();
        let link = MonitorLink::new(tx1);
        let clone = link.clone();
        link.replace(tx2);
        assert!(clone.send(Bytes::from_static(b"b")), "clone sees the swap");
        assert_eq!(&*rx2.recv().unwrap(), b"b");
        // The old inbox is disconnected once its sender is dropped.
        assert!(rx1.try_recv().is_err());
    }

    #[test]
    fn send_reports_dead_inbox() {
        let (tx, rx) = unbounded::<Bytes>();
        let link = MonitorLink::new(tx);
        drop(rx);
        assert!(!link.send(Bytes::from_static(b"c")));
    }

    #[test]
    fn tagged_link_stamps_the_monitor_index() {
        let (tx, rx) = unbounded::<(u32, Bytes)>();
        let mut reactor = Reactor::new().unwrap();
        let a = MonitorLink::tagged(3, tx.clone(), reactor.waker());
        let b = MonitorLink::tagged(7, tx, reactor.waker());
        assert!(a.send(Bytes::from_static(b"x")));
        assert!(b.send(Bytes::from_static(b"y")));
        assert_eq!(rx.recv().unwrap(), (3, Bytes::from_static(b"x")));
        assert_eq!(rx.recv().unwrap(), (7, Bytes::from_static(b"y")));
        // The sends armed the waker: a wait with no deadline returns.
        reactor.wait(&[], None, &mut Vec::new());
    }

    #[test]
    fn tagged_link_reports_dead_multiplexer() {
        let (tx, rx) = unbounded::<(u32, Bytes)>();
        let link = MonitorLink::tagged(0, tx, Reactor::new().unwrap().waker());
        drop(rx);
        assert!(!link.send(Bytes::from_static(b"z")));
    }
}
