//! Swappable channel endpoints for monitor inboxes.
//!
//! The runner and the coordinator both send frames to every monitor. When
//! the runner restarts a crashed or stalled monitor it must atomically
//! redirect *both* senders to the fresh actor's inbox; [`MonitorLink`]
//! provides that indirection: a cloneable handle whose underlying
//! [`Sender`] can be replaced at runtime, with clones observing the swap.
//!
//! A link can also be *tagged* ([`MonitorLink::tagged`]): instead of an
//! actor inbox it feeds a shared `(monitor, frame)` channel, which is how
//! the networked coordinator ([`crate::net`]) funnels every monitor's
//! outbound traffic into one socket event loop without the coordinator
//! actor knowing the transport changed. Each tagged send fires the
//! loop's [`Waker`], so the loop blocks in `poll` instead of polling the
//! channel.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use crossbeam::channel::Sender;
use volley_serve::reactor::Waker;

/// Where a link's frames go: straight into an actor inbox, or tagged with
/// the monitor index into a shared multiplexer channel.
#[derive(Debug)]
enum LinkTarget {
    Channel(Sender<Bytes>),
    Tagged {
        monitor: u32,
        out: Sender<(u32, Bytes)>,
        waker: Waker,
    },
}

/// A cloneable, swappable handle to one monitor's inbox.
#[derive(Debug, Clone)]
pub struct MonitorLink {
    inner: Arc<Mutex<LinkTarget>>,
}

impl MonitorLink {
    /// Wraps a monitor-inbox sender.
    pub fn new(sender: Sender<Bytes>) -> Self {
        MonitorLink {
            inner: Arc::new(Mutex::new(LinkTarget::Channel(sender))),
        }
    }

    /// Wraps a shared multiplexer sender: every frame sent through this
    /// link arrives as `(monitor, frame)` on `out`, preserving per-link
    /// FIFO order. Used by the socket transport, where one event loop
    /// serves every monitor connection; `waker` interrupts that loop's
    /// wait after each send.
    pub fn tagged(monitor: u32, out: Sender<(u32, Bytes)>, waker: Waker) -> Self {
        let target = LinkTarget::Tagged {
            monitor,
            out,
            waker,
        };
        MonitorLink {
            inner: Arc::new(Mutex::new(target)),
        }
    }

    /// Sends one frame; `false` means the monitor's inbox is gone
    /// (its thread exited and the receiver was dropped).
    pub fn send(&self, frame: Bytes) -> bool {
        let guard = self.inner.lock().expect("link lock never poisoned");
        match &*guard {
            LinkTarget::Channel(sender) => sender.send(frame).is_ok(),
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

    /// Redirects this link (and every clone of it) to a new inbox;
    /// dropping the previous sender disconnects the old actor, letting a
    /// stalled thread drain out and exit.
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
