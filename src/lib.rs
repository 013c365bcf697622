//! # AOFT — Reliable Distributed Sorting through Application-Oriented Fault Tolerance
//!
//! A reproduction of McMillin & Ni, *"Reliable Distributed Sorting Through the
//! Application-Oriented Fault Tolerance Paradigm"* (ICDCS 1989): fault-tolerant
//! bitonic sorting on a simulated hypercube multicomputer.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`hypercube`] — topology, home subcubes, node-set masks, disjoint paths.
//! * [`sim`] — thread-per-node multicomputer simulator with virtual-time cost
//!   accounting, a host processor, metrics and tracing.
//! * [`faults`] — Byzantine adversaries, fault plans and coverage campaigns.
//! * [`sort`] — the paper's contribution: the non-redundant bitonic sort
//!   `S_NR`, the fault-tolerant `S_FT` with the constraint predicate
//!   (Φ_P, Φ_F, Φ_C), block variants, and the host-sequential baselines.
//! * [`net`] — the link medium: in-process channels, or multiplexed TCP
//!   sessions (one per peer pair) with heartbeat failure detection.
//! * [`svc`] — a resident sorting service: bounded job queue with admission
//!   control, a worker pool multiplexing the cube over any transport, and a
//!   diagnosis-driven recovery loop (quarantine + degraded-mode retry).
//! * [`obs`] — unified observability: Prometheus text endpoints (a
//!   service's or fleet's own numbers, then a process registry of the
//!   families nobody else owns), fixed-bucket latency histograms, and a
//!   JSONL event journal for fail-stop postmortems.
//! * [`models`] — analytic cost models and the experiment harness that
//!   regenerates every table and figure of the paper.
//! * [`replay`] — deterministic record/replay: schema-versioned run traces
//!   that re-execute bit-exactly on the cooperative scheduler
//!   (`aoft-replay verify <trace>`).
//! * [`adv`] — live-fire Byzantine adversaries over the real wire: semantic
//!   fault injection at the codec boundary of any transport, plus the
//!   `aoft-adv campaign` zero-silent-corruption gate.
//!
//! # Quickstart
//!
//! ```
//! use aoft::sort::{SortBuilder, Algorithm};
//!
//! // Sort 8 values, one per node of a 3-dimensional hypercube, with the
//! // fault-tolerant algorithm S_FT.
//! let input = vec![10, 8, 3, 9, 4, 2, 7, 5];
//! let report = SortBuilder::new(Algorithm::FaultTolerant)
//!     .keys(input.clone())
//!     .run()?;
//! let mut expected = input;
//! expected.sort();
//! assert_eq!(report.output(), &expected[..]);
//! # Ok::<(), aoft::sort::SortError>(())
//! ```

#![forbid(unsafe_code)]

pub use aoft_adv as adv;
pub use aoft_faults as faults;
pub use aoft_hypercube as hypercube;
pub use aoft_models as models;
pub use aoft_net as net;
pub use aoft_obs as obs;
pub use aoft_replay as replay;
pub use aoft_sim as sim;
pub use aoft_sort as sort;
pub use aoft_svc as svc;
