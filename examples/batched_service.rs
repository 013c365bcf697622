//! Micro-batching at the admission door: one cube attempt answering many
//! jobs.
//!
//! ```text
//! cargo run --release --example batched_service
//! ```
//!
//! A single-worker `SortService` with `batch_max = 16` takes a burst of 64
//! jobs over loopback mux sessions, submitted whole (`submit_batch`: one
//! queue lock, one wake-up). The worker's batcher coalesces compatible
//! queued jobs into composite-key attempts — each job's keys tagged with
//! its batch sequence number, so one lexicographic `S_FT` run sorts every
//! job's keys into its own contiguous segment and a demux splits the output
//! back per job. The per-hop latency of the ~30-hop d=3 schedule is paid
//! once per *batch* instead of once per *job*.
//!
//! The example asserts what batching promises: the burst runs as exactly
//! four full batches of 16, and not one of the 64 answers is silently
//! wrong.

mod common;

use std::time::{Duration, Instant};

use aoft::net::MuxTransport;
use aoft::svc::{JobSpec, SortService, SvcConfig};
use common::{demo_keys, sorted};

const JOBS: u64 = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SvcConfig::new(3)
        .workers(1)
        .batch_max(16)
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, MuxTransport::loopback(8)?)?;

    println!("burst-submitting {JOBS} jobs into one worker (batch_max = 16)\n");
    let started = Instant::now();
    let inputs: Vec<Vec<i32>> = (0..JOBS).map(|index| demo_keys(64, index as i64)).collect();
    let specs = inputs
        .iter()
        .map(|keys| JobSpec::new(keys.clone()))
        .collect();
    let handles = service.submit_batch(specs);

    // A hung batch must fail the run loudly, not stall CI: every wait sits
    // under one wall-clock bound for the whole burst.
    let deadline = started + Duration::from_secs(60);
    for (index, (keys, handle)) in inputs.iter().zip(handles).enumerate() {
        assert!(
            Instant::now() < deadline,
            "burst exceeded its 60s bound at job {index}"
        );
        let report = handle?.wait()?;
        assert_eq!(
            report.output,
            sorted(keys),
            "job {index}: silently wrong output"
        );
    }
    let elapsed = started.elapsed();

    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, JOBS, "every job must complete");
    assert_eq!(
        metrics.batches_flushed, 4,
        "a {JOBS}-job burst admitted whole runs as four full batches"
    );
    assert_eq!(metrics.jobs_coalesced, JOBS, "every job shared an attempt");
    println!(
        "{JOBS} jobs in {elapsed:.1?}: {} batches, {} jobs shared an attempt",
        metrics.batches_flushed, metrics.jobs_coalesced
    );
    println!(
        "amortization: {:.1} jobs per cube attempt on average",
        JOBS as f64 / metrics.batches_flushed as f64
    );
    println!("zero silent corruption across the burst — batching changed the ride, not the answer");

    service.shutdown();
    Ok(())
}
