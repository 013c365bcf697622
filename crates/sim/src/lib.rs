//! A hypercube multicomputer simulator.
//!
//! The paper's experiments ran on a 64-node Ncube hypercube; this crate is the
//! substitute substrate: a thread-per-node message-passing multicomputer that
//! honours the paper's environmental assumptions (Section 3):
//!
//! 1. inter-node communications and processors may be Byzantine — faults are
//!    injected through the [`Adversary`] hook on each node's outgoing links;
//! 2. the host processor and host links are reliable — host traffic bypasses
//!    the adversary;
//! 3. message transmission is over point-to-point links and there is no
//!    atomic broadcast — a node can only `send` to hypercube neighbors;
//! 4. the absence of a message is detectable and constitutes an error —
//!    every blocking receive carries a timeout;
//! 5. initial data distribution is trusted — programs receive their initial
//!    values out of band.
//!
//! # Virtual time
//!
//! Each node advances a private virtual clock measured in *ticks* (Ncube
//! "clock ticks" in the paper). Sends charge `α + β·len` communication ticks
//! per the [`CostModel`]; computation is charged explicitly by the program
//! (`charge_compare`, `charge_move`, …); a receive synchronizes the local
//! clock with the packet's availability time, the Lamport-style `max` rule.
//! Because the bitonic exchange pattern is deterministic, the resulting
//! virtual times are reproducible run to run, independent of OS scheduling.
//!
//! # Fail-stop
//!
//! When a node's executable assertions detect faulty behaviour it calls
//! [`NodeCtx::signal_error`]: the report is forwarded to the host, the run is
//! cancelled, and every blocked receive wakes with [`SimError::Cancelled`] —
//! the whole machine halts without producing output, exactly the fail-stop
//! discipline of the paper's Theorem 3.
//!
//! # Examples
//!
//! Two nodes exchanging values across dimension 0:
//!
//! ```
//! use aoft_hypercube::Hypercube;
//! use aoft_sim::{Engine, NodeCtx, Program, SimConfig, SimError, Word};
//!
//! struct Swap;
//!
//! impl Program<Word> for Swap {
//!     type Output = u32;
//!
//!     fn run(&self, ctx: &mut NodeCtx<'_, Word>) -> Result<u32, SimError> {
//!         let partner = ctx.id().neighbor(0);
//!         ctx.send(partner, Word(ctx.id().raw()))?;
//!         let got = ctx.recv_from(partner)?;
//!         Ok(got.0)
//!     }
//! }
//!
//! let engine = Engine::new(Hypercube::new(1)?, SimConfig::default());
//! let report = engine.run(&Swap);
//! assert_eq!(report.outputs(), Some(&[1, 0][..]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

mod adversary;
mod config;
mod det;
mod engine;
mod error;
mod host;
mod message;
mod metrics;
mod node;
mod program;
mod time;
mod trace;

pub use adversary::{Action, Adversary, AdversarySet, SendContext};
pub use aoft_net::{
    Backoff, InProc, LinkCache, LinkId, MappedTransport, NetError, Transport, Wire,
};
pub use config::SimConfig;
pub use det::DetEngine;
pub use engine::{Engine, Outcome, RunReport, Simulator};
pub use error::{ErrorReport, SimError};
pub use host::HostCtx;
pub use message::{Packet, Payload, Word};
pub use metrics::{NodeMetrics, RunMetrics};
pub use node::NodeCtx;
pub use program::Program;
pub use time::{CostModel, Ticks};
pub use trace::{Event, EventKind, Trace};

/// The id the host endpoint uses in traces and send contexts.
///
/// The host is not part of the hypercube graph `G` (Section 1); it gets a
/// sentinel label outside any supported cube.
pub const HOST_ID: aoft_hypercube::NodeId = aoft_hypercube::NodeId::new(u32::MAX);
