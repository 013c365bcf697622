//! # aoft-svc — a resident sorting service over the AOFT cube
//!
//! The paper's machinery — `S_FT`'s constraint predicates, fail-stop
//! detection, diagnosis — is built for *one* sort. This crate keeps that
//! machinery resident and serves a **stream** of sorts, closing the loop the
//! paper leaves to "the system": reports are delivered, faults localized,
//! and appropriate action taken, job after job.
//!
//! ```text
//!  clients ──submit──▶ [ bounded queue ] ──▶ workers ──▶ cube (2^d nodes)
//!             ▲              │                  │            │
//!       backpressure     admission          scheduler    fail-stop
//!                                               │            │
//!                                               ◀─ diagnose ──┘
//!                                        quarantine + degraded retry
//! ```
//!
//! * **Admission control** — [`SortService::submit`] bounds the queue;
//!   beyond [`SvcConfig::queue_depth`] callers get
//!   [`SubmitError::Backpressure`] instead of unbounded buffering.
//! * **Multiplexing** — worker slots own disjoint link-tag namespaces and
//!   every attempt runs under a unique run id, so concurrent and retried
//!   jobs share one physical transport without crosstalk.
//! * **Recovery** — each fail-stop is diagnosed; implicated nodes are
//!   avoided by the striking job, repeat offenders quarantined
//!   service-wide, and retries run degraded on the surviving subcube.
//! * **Metrics** — [`SortService::metrics`] reports job counters, retry
//!   totals, latency percentiles and merged simulator counters.
//!
//! # Quickstart
//!
//! ```
//! use aoft_net::InProc;
//! use aoft_svc::{JobSpec, SortService, SvcConfig};
//!
//! let service = SortService::start(SvcConfig::new(3), InProc::new())?;
//! let handle = service.submit(JobSpec::new(vec![5, 3, 8, 1, 7, 2, 6, 4]))?;
//! let report = handle.wait().expect("fail-stop, never silently wrong");
//! assert_eq!(report.output, vec![1, 2, 3, 4, 5, 6, 7, 8]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod batch;
mod config;
mod fleet;
mod job;
mod metrics;
mod queue;
mod recovery;
mod remote;
mod service;

pub use config::{ConfigError, SvcConfig};
pub use fleet::{FleetConfig, FleetHandle, FleetMetrics, FleetReport, FleetRouter};
pub use job::{JobError, JobHandle, JobId, JobReport, JobSpec, SubmitError};
pub use metrics::SvcMetrics;
pub use remote::CubeHost;
pub use service::SortService;
