//! Service configuration and its validation.

use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

use aoft_sort::Algorithm;

/// Configuration of a [`SortService`](crate::SortService).
///
/// Start from [`SvcConfig::new`] and override what the deployment needs;
/// [`SortService::start`](crate::SortService::start) validates the whole
/// configuration once, so a running service never re-checks it per job.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Cube dimension `d`: jobs run on up to `2^d` nodes.
    pub dim: u32,
    /// Admission bound: jobs queued beyond the workers. Submits past this
    /// depth are rejected with backpressure rather than buffered without
    /// bound.
    pub queue_depth: usize,
    /// Worker slots: jobs sorted concurrently, each in a private link
    /// namespace of the shared transport.
    pub workers: usize,
    /// Attempts per job (first run plus retries) before the job fails with
    /// [`JobError::Exhausted`](crate::JobError::Exhausted).
    pub max_attempts: usize,
    /// Smallest cube dimension a degraded retry may shrink to. Below this
    /// the job fails with
    /// [`JobError::CubeExhausted`](crate::JobError::CubeExhausted).
    pub min_dim: u32,
    /// Distinct failed jobs striking a node before it is quarantined
    /// service-wide (struck nodes are always avoided *within* the striking
    /// job regardless). `u32::MAX` disables quarantine entirely — even a
    /// Φ_C equivocation proof only feeds the per-job avoid set — for
    /// harnesses that rotate transient faults through every node.
    pub quarantine_after: u32,
    /// First delay of the retry backoff schedule; doubles each time the
    /// schedule is used. Time cures only absence, so the schedule applies
    /// to exactly one kind of retry: the failed attempt reported something
    /// *missing* (a receive timeout, closed link, dead peer or runtime
    /// failure) **and** the retry runs on the very nodes that just failed
    /// (nobody to avoid, or an avoid set cleared because it outgrew the
    /// machine) — the transient-environment case. Every other retry — a
    /// re-planned cube, or a fail-stop whose evidence is purely
    /// Φ_P/Φ_F/Φ_C, which never fire because the machine was slow — starts
    /// at once and leaves the schedule where it was.
    pub backoff_initial: Duration,
    /// Backoff cap.
    pub(crate) backoff_max: Duration,
    /// Per-receive timeout inside a run (assumption 4's absence detector).
    pub recv_timeout: Duration,
    /// The sorting algorithm jobs run.
    pub algorithm: Algorithm,
    /// Address to serve Prometheus metrics on (`None` disables the
    /// endpoint). Port 0 binds an ephemeral port, reported by
    /// [`SortService::metrics_addr`](crate::SortService::metrics_addr). In
    /// a fleet's cube configuration it is the fleet's one endpoint
    /// ([`FleetRouter::metrics_addr`](crate::FleetRouter::metrics_addr)).
    pub metrics_addr: Option<SocketAddr>,
    /// Most jobs one cube attempt may coalesce into a single composite-key
    /// sort. `1` (the default) disables batching: every job runs as a batch
    /// of one, never coalesced. A batch never waits for company: it takes
    /// what is queued when a worker claims it. Capped at 1024 — ten
    /// sequence bits still leave a ±2^20 key range.
    pub batch_max: usize,
}

impl SvcConfig {
    /// A service on a `2^dim`-node cube with production-lean defaults:
    /// one worker, queue depth 64, 3 attempts per job, degraded mode down
    /// to `d = 1`, quarantine after 2 strikes, 10→160 ms backoff (served
    /// only where [`backoff_initial`](Self::backoff_initial) says time can
    /// help), 800 ms receive timeout, `S_FT`.
    pub fn new(dim: u32) -> Self {
        Self {
            dim,
            queue_depth: 64,
            workers: 1,
            max_attempts: 3,
            min_dim: 1,
            quarantine_after: 2,
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(160),
            recv_timeout: Duration::from_millis(800),
            algorithm: Algorithm::FaultTolerant,
            metrics_addr: None,
            batch_max: 1,
        }
    }

    /// Coalesces up to `max` compatible queued jobs per cube attempt (`1`
    /// disables batching).
    pub fn batch_max(mut self, max: usize) -> Self {
        self.batch_max = max;
        self
    }

    /// Sets the admission bound.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the number of concurrent worker slots.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-job attempt budget.
    pub fn max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the smallest degraded dimension.
    pub fn min_dim(mut self, dim: u32) -> Self {
        self.min_dim = dim;
        self
    }

    /// Sets the service-wide quarantine threshold.
    pub fn quarantine_after(mut self, strikes: u32) -> Self {
        self.quarantine_after = strikes;
        self
    }

    /// Sets the backoff schedule a retry serves when — and only when — the
    /// failed attempt's evidence is absence and the retry lands on the same
    /// machine (see [`backoff_initial`](Self::backoff_initial)): time cures
    /// only absence.
    pub fn backoff(mut self, initial: Duration, max: Duration) -> Self {
        self.backoff_initial = initial;
        self.backoff_max = max;
        self
    }

    /// Sets the in-run receive timeout.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Sets the algorithm jobs run.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Serves Prometheus metrics on `addr` (port 0 for an ephemeral port).
    pub fn metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let fail = |msg: String| Err(ConfigError(msg));
        if self.dim == 0 || self.dim > 16 {
            return fail(format!("dim {} outside 1..=16", self.dim));
        }
        if self.min_dim == 0 || self.min_dim > self.dim {
            return fail(format!(
                "min_dim {} outside 1..=dim ({})",
                self.min_dim, self.dim
            ));
        }
        if self.workers == 0 {
            return fail("at least one worker".into());
        }
        if self.queue_depth == 0 {
            return fail("queue depth of zero admits nothing".into());
        }
        if self.max_attempts == 0 {
            return fail("at least one attempt per job".into());
        }
        if self.quarantine_after == 0 {
            return fail("quarantine_after of zero would quarantine healthy nodes".into());
        }
        if self.batch_max == 0 || self.batch_max > 1024 {
            return fail(format!("batch_max {} outside 1..=1024", self.batch_max));
        }
        // Each worker slot owns a private link-tag namespace of `dim` tags;
        // tags are 8-bit on the wire.
        let tags_needed = self.workers as u64 * self.dim as u64;
        if tags_needed > 256 {
            return fail(format!(
                "{} workers × dim {} = {tags_needed} link tags exceeds the 256-tag space",
                self.workers, self.dim
            ));
        }
        Ok(())
    }
}

/// A [`SvcConfig`] the service refuses to start with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub(crate) String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid service configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(SvcConfig::new(3).validate().is_ok());
        assert!(SvcConfig::new(3).metrics_addr.is_none());
    }

    #[test]
    fn metrics_addr_is_recorded() {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let config = SvcConfig::new(3).metrics_addr(addr);
        assert_eq!(config.metrics_addr, Some(addr));
        assert!(config.validate().is_ok());
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(SvcConfig::new(0).validate().is_err());
        assert!(SvcConfig::new(17).validate().is_err());
        assert!(SvcConfig::new(3).min_dim(4).validate().is_err());
        assert!(SvcConfig::new(3).min_dim(0).validate().is_err());
        assert!(SvcConfig::new(3).workers(0).validate().is_err());
        assert!(SvcConfig::new(3).queue_depth(0).validate().is_err());
        assert!(SvcConfig::new(3).max_attempts(0).validate().is_err());
        assert!(SvcConfig::new(3).quarantine_after(0).validate().is_err());
        assert!(SvcConfig::new(8).workers(33).validate().is_err());
        assert!(SvcConfig::new(8).workers(32).validate().is_ok());
        assert!(SvcConfig::new(3).batch_max(0).validate().is_err());
        assert!(SvcConfig::new(3).batch_max(1025).validate().is_err());
        assert!(SvcConfig::new(3).batch_max(1024).validate().is_ok());
    }

    #[test]
    fn batching_defaults_off() {
        let config = SvcConfig::new(3);
        assert_eq!(config.batch_max, 1, "batching is opt-in");
        let batched = SvcConfig::new(3).batch_max(16);
        assert_eq!(batched.batch_max, 16);
        assert!(batched.validate().is_ok());
    }

    #[test]
    fn config_error_displays_reason() {
        let err = SvcConfig::new(0).validate().unwrap_err();
        assert!(err.to_string().contains("dim 0"));
    }
}
