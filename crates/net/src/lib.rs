//! Transport layer for AOFT message exchange.
//!
//! The simulator (`aoft-sim`) executes the paper's node programs over
//! directed point-to-point links. This crate makes the link *medium*
//! pluggable: a [`Transport`] hands out typed unidirectional endpoints
//! ([`LinkTx`]/[`LinkRx`]) per [`LinkId`], and two backends implement it —
//!
//! * [`InProc`]: in-process channels, the original simulator medium;
//! * [`MuxTransport`]: real TCP over loopback (or any reachable address),
//!   one session per *peer pair* carrying every link between the two
//!   nodes, with a length-prefixed, checksummed frame codec ([`frame`]),
//!   pooled wire buffers ([`pool`]), two doorbell-driven tx servicers and
//!   one blocking reader per session end, send retry with capped
//!   exponential [`Backoff`], and
//!   a heartbeat-based failure detector that surfaces a silent peer as
//!   [`NetError::PeerDead`] on every link of the session.
//!
//! The failure-detection contract matches the paper's fail-stop model
//! (assumption 4: *a missing message is detectable*): every receive takes a
//! deadline, and a dead or silent peer yields an error the caller converts
//! into an executable-assertion violation — never a silent wrong answer.
//!
//! Cancellation is an event: [`CancelToken::cancel`] wakes every receiver
//! blocked under the token. All receiving ends — [`InProc`] links, the
//! simulator's host links, the typed inbox behind a mux receiver — are one
//! [`mailbox`], the crate's single blocking-receive loop, so when one node
//! fail-stops the whole machine, peers blocked in `recv` return at once
//! regardless of the transport in use, and a receiver with nothing to do
//! sleeps until its deadline without periodic wake-ups.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod backoff;
mod cache;
mod cancel;
mod error;
pub mod frame;
mod inproc;
mod link;
mod mailbox;
mod mux;
pub mod pool;
mod remap;
mod timer;
pub mod wire;

pub use backoff::Backoff;
pub use cache::LinkCache;
pub use cancel::CancelToken;
pub use error::NetError;
pub use frame::FrameKind;
pub use inproc::InProc;
pub use link::{LinkId, LinkRx, LinkTx, Transport};
pub use mailbox::{mailbox, MailboxRx, MailboxTx};
pub use mux::{MuxConfig, MuxTransport};
pub use pool::BufPool;
pub use remap::MappedTransport;
pub use wire::{CodecError, Wire};
