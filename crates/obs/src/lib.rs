//! # aoft-obs — unified observability for the AOFT sorting stack
//!
//! One leaf crate (no dependencies on the rest of the workspace) that every
//! other layer reports into:
//!
//! * `registry` — the process-wide metric [`Registry`]
//!   of counters, gauges, labeled families, and fixed-bucket histograms:
//!   the families no service or fleet owns (sort core, simulator,
//!   transport, buffer pool, adversary harness).
//! * [`hist`] — the HDR-style [`Histogram`]: bounded
//!   memory at any sample count, lock-free recording, percentiles exact for
//!   single-valued buckets.
//! * [`event`] — structured [`Event`]s along the
//!   job → attempt → stage (i, j) → predicate-check span hierarchy, kept in
//!   a bounded ring and optionally journaled as JSONL for fail-stop
//!   postmortems.
//! * `server` — a dependency-free `/metrics` endpoint
//!   ([`ObsServer`]) that serves its owner's families, then the process
//!   registry's, plus a [`scrape`] helper for tests and the nightly soak.
//! * [`prom`] — the exposition format: the one writer every endpoint
//!   renders with ([`prom::Exposition`]), and a minimal parser so tests can
//!   assert a scrape is well-formed.
//!
//! Instrumented crates either touch [`global()`] fields directly (single
//! atomics) or, on hot paths, cache a labeled family's
//! [`with_label`](Family::with_label) handle once and pay only atomic
//! increments afterwards. A service or fleet keeps its own numbers and
//! renders them on its own endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod event;
pub mod hist;
pub mod prom;
mod registry;
mod server;

pub use event::{emit, flush_journal, install_journal, recent_events, Event};
pub use hist::Histogram;
pub use registry::{global, Counter, Family, Gauge, Registry};
pub use server::{scrape, ObsServer};

use std::time::{Duration, Instant};

/// A started span clock. [`Stopwatch::elapsed`] reads it without consuming,
/// so one watch can time nested observations.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self(Instant::now())
    }

    /// Time since the watch started.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Records one constraint-predicate evaluation: bumps the per-family check
/// counter and the shared timing histogram.
pub fn record_predicate_check(family: &str, elapsed: Duration) {
    let reg = global();
    reg.predicate_checks.add(family, 1);
    reg.predicate_check_time.record(elapsed);
}

/// Records an executable-assertion violation: bumps the per-family
/// violation counter and journals a `violation` event carrying the
/// diagnosis coordinates.
pub fn record_violation(family: &str, code: u32, node: u32, stage: Option<u32>, detail: &str) {
    global().violations.add(family, 1);
    emit(
        Event::new("violation")
            .predicate(family)
            .code(code)
            .node(node)
            .stage(stage)
            .detail(detail),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_hook_counts_and_journals() {
        record_violation("phi_f", 2, 3, Some(1), "not a permutation");
        assert!(global().violations.with_label("phi_f").get() >= 1);
        let seen = recent_events()
            .iter()
            .any(|e| e.kind == "violation" && e.predicate.as_deref() == Some("phi_f"));
        assert!(seen, "violation event journaled");
    }

    #[test]
    fn predicate_check_hook_records_both_metrics() {
        let before = global().predicate_check_time.count();
        record_predicate_check("phi_p", Duration::from_micros(40));
        assert!(global().predicate_checks.with_label("phi_p").get() >= 1);
        assert!(global().predicate_check_time.count() > before);
    }
}
