//! The transport contract: identified unidirectional links with typed
//! endpoints.

use std::time::Duration;

use crate::{CancelToken, NetError};

/// Identity of one directed link.
///
/// `from`/`to` are node labels (a hypercube node index, or the host's
/// sentinel); `tag` disambiguates parallel links between the same pair —
/// the simulator uses the cube dimension, so each compare-exchange
/// direction gets its own link, matching the paper's one-port-per-dimension
/// machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Sending endpoint's node label.
    pub from: u32,
    /// Receiving endpoint's node label.
    pub to: u32,
    /// Channel tag (the cube dimension for node-to-node links).
    pub tag: u8,
}

impl LinkId {
    /// The unordered `(lo, hi)` pair of node labels this link connects —
    /// the session key of the multiplexed backend: every link whose
    /// endpoints are the same pair of peers, in either direction and under
    /// any tag, rides one physical session.
    pub(crate) fn peer_pair(self) -> (u32, u32) {
        (self.from.min(self.to), self.from.max(self.to))
    }

    /// Handshake encoding: 9 bytes, little-endian fields.
    pub(crate) fn to_handshake(self) -> [u8; 9] {
        let mut bytes = [0u8; 9];
        bytes[..4].copy_from_slice(&self.from.to_le_bytes());
        bytes[4..8].copy_from_slice(&self.to.to_le_bytes());
        bytes[8] = self.tag;
        bytes
    }

    pub(crate) fn from_handshake(bytes: [u8; 9]) -> Self {
        LinkId {
            from: u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")),
            to: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
            tag: bytes[8],
        }
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{}#{}", self.from, self.to, self.tag)
    }
}

/// The sending end of a link.
pub trait LinkTx<M>: Send {
    /// Hands `msg` to the transport for delivery.
    ///
    /// Queuing is asynchronous: `Ok` means the transport accepted the
    /// message, not that the peer received it — exactly the guarantee of a
    /// hardware send port. Delivery failure to a *dead* peer surfaces on
    /// the receiving side (timeout or failure detector), per the paper's
    /// receiver-side detection model.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if this endpoint can no longer accept messages.
    fn send(&self, msg: M) -> Result<(), NetError>;

    /// Announces orderly shutdown to the peer (best effort).
    fn close(&self) {}
}

/// The receiving end of a link.
pub trait LinkRx<M>: Send {
    /// Blocks for the next message, for at most `timeout`.
    ///
    /// A blocked receive is woken by [`CancelToken::cancel`] on the token
    /// it was called with — whichever token that is; an endpoint may serve
    /// a different run's token on every call — and otherwise sleeps until a
    /// message, the peer's close or the deadline: no periodic wake-ups.
    /// Socket and in-process backends alike get this from the one
    /// [`mailbox`](crate::mailbox) their receivers are built on.
    ///
    /// # Errors
    ///
    /// * [`NetError::Timeout`] — nothing arrived in time (a detectable
    ///   missing message).
    /// * [`NetError::Cancelled`] — the run fail-stopped while waiting.
    /// * [`NetError::Closed`] — the peer endpoint is gone.
    /// * [`NetError::PeerDead`] — the failure detector declared the peer
    ///   dead.
    /// * [`NetError::Codec`] / [`NetError::Io`] — the stream failed
    ///   integrity checks or the socket died.
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<M, NetError>;
}

/// A medium that can establish the two ends of any [`LinkId`].
///
/// One `Transport` instance serves a whole run: the engine calls
/// `connect_tx` for the sending end and `connect_rx` for the receiving end
/// of every link, then hands the boxed endpoints to the node threads. The
/// two calls may happen on different threads and in any order; `deadline`
/// bounds how long establishment may block.
pub trait Transport<M: Send>: Sync {
    /// Establishes the sending endpoint of `link`.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the medium cannot reach the peer within `deadline`.
    fn connect_tx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkTx<M>>, NetError>;

    /// Establishes the receiving endpoint of `link`.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the peer's dial did not arrive within `deadline`,
    /// or the endpoint was already claimed.
    fn connect_rx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkRx<M>>, NetError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_round_trip() {
        let link = LinkId {
            from: 0xDEAD_BEEF,
            to: 7,
            tag: 2,
        };
        assert_eq!(LinkId::from_handshake(link.to_handshake()), link);
    }
}
