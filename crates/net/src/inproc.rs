//! In-process transport: the simulator's original channel medium behind
//! the [`Transport`] trait.

use std::any::Any;
use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;

use crate::mailbox::{mailbox, MailboxRx, MailboxTx};
use crate::{LinkId, LinkRx, LinkTx, NetError, Transport};

/// Mailbox-pair registry: each `LinkId` lazily materializes one unbounded
/// [`mailbox`] whose two endpoints are each claimable exactly once.
///
/// Both endpoints are *moved out* on claim — the registry retains nothing —
/// so dropping the claimed `LinkTx` disconnects the channel and the peer's
/// blocked receive observes `Closed`, exactly as when a node fail-stops.
///
/// Message values cross threads by move — no serialization, no loss, no
/// reordering — which makes this backend the reference medium: a program
/// correct over `InProc` that fail-stops over a faulty medium demonstrates
/// *detection*, not a transport artifact.
#[derive(Default)]
pub struct InProc {
    // Typed per message type: the same registry serves runs with different
    // `M` without collision because the boxed entries are downcast by the
    // concrete channel type.
    links: Mutex<HashMap<LinkId, ChannelEntry>>,
}

struct ChannelEntry {
    tx: Option<Box<dyn Any + Send>>,
    rx: Option<Box<dyn Any + Send>>,
}

impl InProc {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry_with<M: Send + 'static, R>(
        &self,
        link: LinkId,
        f: impl FnOnce(&mut ChannelEntry) -> R,
    ) -> R {
        let mut links = self.links.lock();
        let entry = links.entry(link).or_insert_with(|| {
            let (tx, rx) = mailbox::<M>();
            ChannelEntry {
                tx: Some(Box::new(tx)),
                rx: Some(Box::new(rx)),
            }
        });
        let result = f(entry);
        if entry.tx.is_none() && entry.rx.is_none() {
            links.remove(&link);
        }
        result
    }
}

impl std::fmt::Debug for InProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProc")
            .field("links", &self.links.lock().len())
            .finish()
    }
}

impl<M: Send + 'static> Transport<M> for InProc {
    fn connect_tx(
        &self,
        link: LinkId,
        _deadline: Duration,
    ) -> Result<Box<dyn LinkTx<M>>, NetError> {
        self.entry_with::<M, _>(link, |entry| {
            let boxed = entry
                .tx
                .take()
                .ok_or_else(|| NetError::Io(format!("sender for link {link} already claimed")))?;
            let tx = boxed.downcast::<MailboxTx<M>>().map_err(|boxed| {
                entry.tx = Some(boxed);
                NetError::Io(format!(
                    "link {link} already open with another message type"
                ))
            })?;
            Ok(tx as Box<dyn LinkTx<M>>)
        })
    }

    fn connect_rx(
        &self,
        link: LinkId,
        _deadline: Duration,
    ) -> Result<Box<dyn LinkRx<M>>, NetError> {
        self.entry_with::<M, _>(link, |entry| {
            let boxed = entry
                .rx
                .take()
                .ok_or_else(|| NetError::Io(format!("receiver for link {link} already claimed")))?;
            let rx = boxed.downcast::<MailboxRx<M>>().map_err(|boxed| {
                entry.rx = Some(boxed);
                NetError::Io(format!(
                    "link {link} already open with another message type"
                ))
            })?;
            Ok(rx as Box<dyn LinkRx<M>>)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::contract;
    use crate::{CancelToken, LinkCache};

    fn open_pair(transport: &InProc, link: LinkId) -> (Box<dyn LinkTx<u32>>, Box<dyn LinkRx<u32>>) {
        let tx = transport.connect_tx(link, Duration::from_secs(1)).unwrap();
        let rx = transport.connect_rx(link, Duration::from_secs(1)).unwrap();
        (tx, rx)
    }

    #[test]
    fn delivers_in_order() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(1), &cancel).unwrap(),
            1
        );
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(1), &cancel).unwrap(),
            2
        );
    }

    #[test]
    fn timeout_when_silent() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (_tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_millis(20), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn closed_when_sender_dropped() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (tx, rx) = open_pair(&transport, link);
        drop(tx);
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_secs(1), &cancel)
            .unwrap_err();
        assert_eq!(err, NetError::Closed);
    }

    #[test]
    fn endpoints_claimed_once_and_registry_empties() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let _pair = open_pair(&transport, link);
        assert!(transport.links.lock().is_empty(), "both ends claimed");
        let tx2: Result<Box<dyn LinkTx<u32>>, _> =
            transport.connect_tx(link, Duration::from_secs(1));
        // Re-opening the same LinkId after both ends were claimed creates a
        // *fresh* channel — the engine never does this within one run.
        assert!(tx2.is_ok());
    }

    #[test]
    fn cancel_interrupts_blocked_recv_quickly() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (_tx, rx) = open_pair(&transport, link);
        contract::cancel_interrupts_a_long_blocked_recv(&*rx);
        contract::cancel_racing_recv_start_is_never_lost(&*rx);
        contract::silent_deadline_wakes_exactly_once(&*rx);
    }

    #[test]
    fn cached_receiver_follows_each_runs_token() {
        // `LinkCache` hands every run the same endpoint under that run's
        // fresh token.
        let cache = LinkCache::new(InProc::new());
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let _tx: Box<dyn LinkTx<u32>> = cache.connect_tx(link, Duration::from_secs(1)).unwrap();
        let rx: Box<dyn LinkRx<u32>> = cache.connect_rx(link, Duration::from_secs(1)).unwrap();
        contract::reused_receiver_follows_its_current_token(&*rx);
    }

    #[test]
    fn receiver_claimed_once() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let _rx: Box<dyn LinkRx<u32>> = transport.connect_rx(link, Duration::from_secs(1)).unwrap();
        // The sender end is still registered, so the entry persists and a
        // second receiver claim must fail rather than mint a new channel.
        let second: Result<Box<dyn LinkRx<u32>>, _> =
            transport.connect_rx(link, Duration::from_secs(1));
        assert!(second.is_err());
    }
}
