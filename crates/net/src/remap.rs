//! Label remapping: run a logical cube on an arbitrary subset of physical
//! nodes.
//!
//! Degraded-mode recovery (paper §4: retry the sort on the surviving
//! subcube) needs to run a *logical* `2^d'`-node machine whose node `i` is
//! actually physical node `map[i]` — skipping quarantined labels — without
//! the node programs knowing. [`MappedTransport`] performs that translation
//! at the link layer: the engine keeps dialling logical links `u → u^2^d`,
//! and the wrapper rewrites both endpoints through the map before handing
//! the request to the real medium.
//!
//! A tag offset ([`MappedTransport::with_tag_base`]) additionally shifts
//! every link into a private tag namespace, letting several concurrent
//! logical machines (a service's worker slots) multiplex one physical
//! transport without sharing any [`LinkId`].

use std::sync::Arc;
use std::time::Duration;

use crate::{LinkId, LinkRx, LinkTx, NetError, Transport};

/// A [`Transport`] adaptor translating logical node labels (and link tags)
/// to physical ones.
#[derive(Debug, Clone)]
pub struct MappedTransport<T> {
    inner: Arc<T>,
    map: Arc<[u32]>,
    tag_base: u8,
}

impl<T> MappedTransport<T> {
    /// Wraps `inner` so that logical label `i` addresses physical label
    /// `map[i]`.
    ///
    /// Connecting a link whose endpoint lies outside the map fails with
    /// [`NetError::Io`] rather than panicking — the engine surfaces that as
    /// a failed link establishment.
    pub fn new(inner: Arc<T>, map: Vec<u32>) -> Self {
        Self {
            inner,
            map: map.into(),
            tag_base: 0,
        }
    }

    /// The identity mapping over `n` labels (useful to apply only a tag
    /// offset).
    pub fn identity(inner: Arc<T>, n: u32) -> Self {
        Self::new(inner, (0..n).collect())
    }

    /// Shifts every link tag by `base`, giving this logical machine a
    /// private tag namespace on the shared physical transport.
    ///
    /// Tags are 8-bit: `base + dim` must stay below 256 or connects fail
    /// with [`NetError::Io`].
    pub fn with_tag_base(mut self, base: u8) -> Self {
        self.tag_base = base;
        self
    }

    /// The wrapped physical transport.
    pub fn inner(&self) -> &Arc<T> {
        &self.inner
    }

    fn translate(&self, link: LinkId) -> Result<LinkId, NetError> {
        let physical = |label: u32| {
            self.map.get(label as usize).copied().ok_or_else(|| {
                NetError::Io(format!(
                    "logical label {label} outside the {}-node map",
                    self.map.len()
                ))
            })
        };
        let tag = self.tag_base.checked_add(link.tag).ok_or_else(|| {
            NetError::Io(format!(
                "tag {} + base {} overflows the 8-bit tag space",
                link.tag, self.tag_base
            ))
        })?;
        Ok(LinkId {
            from: physical(link.from)?,
            to: physical(link.to)?,
            tag,
        })
    }
}

impl<M: Send, T: Transport<M> + Send + Sync> Transport<M> for MappedTransport<T> {
    fn connect_tx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkTx<M>>, NetError> {
        self.inner.connect_tx(self.translate(link)?, deadline)
    }

    fn connect_rx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkRx<M>>, NetError> {
        self.inner.connect_rx(self.translate(link)?, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelToken, InProc};

    const D: Duration = Duration::from_secs(1);

    #[test]
    fn logical_links_land_on_physical_labels() {
        let physical = Arc::new(InProc::new());
        // Logical 2-node machine on physical nodes {4, 6}.
        let mapped = MappedTransport::new(Arc::clone(&physical), vec![4, 6]);
        let logical = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let tx: Box<dyn LinkTx<u32>> = mapped.connect_tx(logical, D).unwrap();
        // The receiving end is claimable on the *physical* id directly.
        let rx: Box<dyn LinkRx<u32>> = physical
            .connect_rx(
                LinkId {
                    from: 4,
                    to: 6,
                    tag: 0,
                },
                D,
            )
            .unwrap();
        tx.send(9).unwrap();
        assert_eq!(rx.recv_deadline(D, &CancelToken::new()).unwrap(), 9);
    }

    #[test]
    fn tag_base_separates_namespaces() {
        let physical = Arc::new(InProc::new());
        let slot_a = MappedTransport::identity(Arc::clone(&physical), 2).with_tag_base(0);
        let slot_b = MappedTransport::identity(Arc::clone(&physical), 2).with_tag_base(8);
        let logical = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let cancel = CancelToken::new();
        let tx_a: Box<dyn LinkTx<u32>> = slot_a.connect_tx(logical, D).unwrap();
        let rx_a: Box<dyn LinkRx<u32>> = slot_a.connect_rx(logical, D).unwrap();
        let tx_b: Box<dyn LinkTx<u32>> = slot_b.connect_tx(logical, D).unwrap();
        let rx_b: Box<dyn LinkRx<u32>> = slot_b.connect_rx(logical, D).unwrap();
        tx_a.send(1).unwrap();
        tx_b.send(2).unwrap();
        assert_eq!(rx_a.recv_deadline(D, &cancel).unwrap(), 1);
        assert_eq!(rx_b.recv_deadline(D, &cancel).unwrap(), 2);
    }

    #[test]
    fn out_of_map_label_is_an_error() {
        let physical = Arc::new(InProc::new());
        let mapped = MappedTransport::new(physical, vec![0, 1]);
        let bad = LinkId {
            from: 0,
            to: 2,
            tag: 0,
        };
        let err = Transport::<u32>::connect_tx(&mapped, bad, D)
            .err()
            .expect("out-of-map label must fail");
        assert!(matches!(err, NetError::Io(_)), "{err:?}");
    }

    #[test]
    fn tag_overflow_is_an_error() {
        let physical = Arc::new(InProc::new());
        let mapped = MappedTransport::identity(physical, 2).with_tag_base(250);
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 10,
        };
        let err = Transport::<u32>::connect_tx(&mapped, link, D)
            .err()
            .expect("tag overflow must fail");
        assert!(matches!(err, NetError::Io(_)), "{err:?}");
    }
}
