//! Link memoization: reuse established endpoints across runs.
//!
//! The engine connects every link of the cube at the start of each run and
//! drops the endpoints at the end. That is the right lifecycle for a
//! one-shot sort, but a resident service sorting a *stream* of jobs would
//! re-dial every socket per job — and, worse for fault experiments, a
//! wrapper transport that keeps per-endpoint state (e.g. the per-link send
//! counter a crash fault in `aoft-adv` fires on) would lose that state on
//! every reconnect. [`LinkCache`] sits between the engine and any backend and
//! hands out shared handles to endpoints it establishes at most once per
//! [`LinkId`], so links — and whatever state their endpoints carry — live
//! for the cache's lifetime, not a run's.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{CancelToken, LinkId, LinkRx, LinkTx, NetError, Transport};

/// A [`Transport`] wrapper that establishes each endpoint at most once and
/// hands out shared handles on every subsequent connect.
///
/// Sharing rules the caller must respect: two *concurrent* runs must not
/// receive on the same `LinkId` (they would steal each other's frames).
/// Give concurrent runs disjoint link namespaces — e.g. via
/// [`MappedTransport::with_tag_base`](crate::MappedTransport::with_tag_base)
/// — and tag sequential runs with distinct job ids so a receiver can
/// discard frames a fail-stopped predecessor left in flight.
///
/// Dropping a shared handle does **not** close the underlying endpoint;
/// the cache owns the lifecycle. [`LinkCache::purge_node`] evicts every
/// link touching a label (e.g. a quarantined node), closing the endpoints
/// once all outstanding handles are gone.
pub struct LinkCache<T> {
    inner: Arc<T>,
    // Entries are boxed per message type, downcast on claim — the same
    // dyn-Any pattern `InProc`'s registry uses.
    entries: Mutex<HashMap<LinkId, CacheEntry>>,
}

#[derive(Default)]
struct CacheEntry {
    tx: Option<Box<dyn Any + Send>>,
    rx: Option<Box<dyn Any + Send>>,
}

impl<T> LinkCache<T> {
    /// Wraps `inner`, starting with an empty cache.
    pub fn new(inner: T) -> Self {
        Self::from_shared(Arc::new(inner))
    }

    /// Wraps an already-shared backend.
    pub(crate) fn from_shared(inner: Arc<T>) -> Self {
        Self {
            inner,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Number of links with at least one cached endpoint.
    pub(crate) fn cached_links(&self) -> usize {
        self.entries.lock().len()
    }

    /// Evicts every cached endpoint on a link into or out of `label`.
    ///
    /// Use after quarantining a node: its links are never dialled again,
    /// and the underlying endpoints close once the last outstanding shared
    /// handle drops.
    pub fn purge_node(&self, label: u32) {
        self.entries
            .lock()
            .retain(|link, _| link.from != label && link.to != label);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for LinkCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkCache")
            .field("inner", &self.inner)
            .field("cached_links", &self.cached_links())
            .finish()
    }
}

impl<M: Send + 'static, T: Transport<M> + Send + Sync> Transport<M> for LinkCache<T> {
    fn connect_tx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkTx<M>>, NetError> {
        // The registry lock is held across the inner connect. That is safe
        // with the engine's dial order (every sending end is dialled before
        // any receiving end waits) and merely serializes establishment
        // across concurrent runs — after the first job, hits never touch
        // the backend at all.
        let mut entries = self.entries.lock();
        let entry = entries.entry(link).or_default();
        if let Some(boxed) = entry.tx.as_ref() {
            let shared = boxed
                .downcast_ref::<Shared<dyn LinkTx<M>>>()
                .ok_or_else(|| {
                    NetError::Io(format!("link {link} cached with another message type"))
                })?;
            return Ok(Box::new(SharedTx(Arc::clone(shared))));
        }
        let endpoint = self.inner.connect_tx(link, deadline)?;
        let shared: Shared<dyn LinkTx<M>> = Arc::new(Mutex::new(endpoint));
        entry.tx = Some(Box::new(Arc::clone(&shared)));
        Ok(Box::new(SharedTx(shared)))
    }

    fn connect_rx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkRx<M>>, NetError> {
        let mut entries = self.entries.lock();
        let entry = entries.entry(link).or_default();
        if let Some(boxed) = entry.rx.as_ref() {
            let shared = boxed
                .downcast_ref::<Shared<dyn LinkRx<M>>>()
                .ok_or_else(|| {
                    NetError::Io(format!("link {link} cached with another message type"))
                })?;
            return Ok(Box::new(SharedRx(Arc::clone(shared))));
        }
        let endpoint = self.inner.connect_rx(link, deadline)?;
        let shared: Shared<dyn LinkRx<M>> = Arc::new(Mutex::new(endpoint));
        entry.rx = Some(Box::new(Arc::clone(&shared)));
        Ok(Box::new(SharedRx(shared)))
    }
}

type Shared<E> = Arc<Mutex<Box<E>>>;

struct SharedTx<M>(Shared<dyn LinkTx<M>>);

impl<M: Send> LinkTx<M> for SharedTx<M> {
    fn send(&self, msg: M) -> Result<(), NetError> {
        self.0.lock().send(msg)
    }

    /// A no-op: the cache owns the endpoint's lifecycle, so a run finishing
    /// must not tear the link down for the next job.
    fn close(&self) {}
}

struct SharedRx<M>(Shared<dyn LinkRx<M>>);

impl<M: Send> LinkRx<M> for SharedRx<M> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<M, NetError> {
        // The endpoint lock is held for the whole blocking wait; callers
        // are required not to receive concurrently on one LinkId, so the
        // only contender would be a protocol violation anyway.
        self.0.lock().recv_deadline(timeout, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InProc;

    fn link(from: u32, to: u32, tag: u8) -> LinkId {
        LinkId { from, to, tag }
    }

    const D: Duration = Duration::from_secs(1);

    #[test]
    fn endpoints_survive_reconnect() {
        let cache = LinkCache::new(InProc::new());
        let cancel = CancelToken::new();
        let id = link(0, 1, 0);

        let tx1: Box<dyn LinkTx<u32>> = cache.connect_tx(id, D).unwrap();
        let rx1: Box<dyn LinkRx<u32>> = cache.connect_rx(id, D).unwrap();
        tx1.send(7).unwrap();
        assert_eq!(rx1.recv_deadline(D, &cancel).unwrap(), 7);
        drop((tx1, rx1));

        // On bare InProc a second connect after both claims would mint a
        // fresh channel; through the cache it is the *same* channel, so a
        // frame sent before the "reconnect" is still there after it.
        let tx2: Box<dyn LinkTx<u32>> = cache.connect_tx(id, D).unwrap();
        tx2.send(8).unwrap();
        drop(tx2);
        let rx2: Box<dyn LinkRx<u32>> = cache.connect_rx(id, D).unwrap();
        assert_eq!(rx2.recv_deadline(D, &cancel).unwrap(), 8);
        assert_eq!(cache.cached_links(), 1);
    }

    #[test]
    fn dropping_handles_does_not_close_the_link() {
        let cache = LinkCache::new(InProc::new());
        let cancel = CancelToken::new();
        let id = link(2, 3, 1);
        let tx: Box<dyn LinkTx<u32>> = cache.connect_tx(id, D).unwrap();
        tx.send(1).unwrap();
        tx.close();
        drop(tx);
        let rx: Box<dyn LinkRx<u32>> = cache.connect_rx(id, D).unwrap();
        // Were the sender really gone the channel would read Closed after
        // draining; the cache keeps it open.
        assert_eq!(rx.recv_deadline(D, &cancel).unwrap(), 1);
        let err = rx
            .recv_deadline(Duration::from_millis(20), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn purge_node_evicts_incident_links() {
        let cache = LinkCache::new(InProc::new());
        let _a: Box<dyn LinkTx<u32>> = cache.connect_tx(link(0, 5, 0), D).unwrap();
        let _b: Box<dyn LinkTx<u32>> = cache.connect_tx(link(5, 0, 0), D).unwrap();
        let _c: Box<dyn LinkTx<u32>> = cache.connect_tx(link(1, 2, 0), D).unwrap();
        assert_eq!(cache.cached_links(), 3);
        cache.purge_node(5);
        assert_eq!(cache.cached_links(), 1);
    }

    #[test]
    fn mixed_message_types_are_rejected_per_link() {
        let cache = LinkCache::new(InProc::new());
        let id = link(0, 1, 0);
        let _tx: Box<dyn LinkTx<u32>> = cache.connect_tx(id, D).unwrap();
        let other: Result<Box<dyn LinkTx<u64>>, _> = cache.connect_tx(id, D);
        assert!(other.is_err());
    }
}
