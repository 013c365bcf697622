//! Service-level throughput: jobs/sec through a resident [`SortService`],
//! clean versus running degraded after a node death.
//!
//! Two steady states per cube size:
//!
//! * `clean` — all `2^d` nodes healthy;
//! * `degraded` — one node fail-silent from the start; a warm-up job pays
//!   the detection timeout, the diagnosis quarantines the dead node, and
//!   the measured stream then runs on the surviving subcube. This is the
//!   paper's recovery story as a service: the fault costs one loud
//!   recovery, not a per-job tax.
//!
//! Criterion reports per-burst wall-clock (→ jobs/sec via
//! `Throughput::Elements`); the service's own p50/p99 job latencies are
//! printed after each scenario.

use std::time::Duration;

use aoft_adv::ByzantineTransport;
use aoft_faults::{FaultKind, FaultPlan, Trigger};
use aoft_hypercube::NodeId;
use aoft_net::InProc;
use aoft_svc::{JobSpec, SortService, SvcConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const BURST: usize = 16;
const KEYS_PER_JOB: i64 = 64;

fn job_keys(salt: i64) -> Vec<i32> {
    (0..KEYS_PER_JOB)
        .map(|x| (((x + salt).wrapping_mul(2_654_435_761)) % 997) as i32)
        .collect()
}

fn config(dim: u32) -> SvcConfig {
    SvcConfig::new(dim)
        .workers(2)
        .queue_depth(2 * BURST)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(10))
        .recv_timeout(Duration::from_millis(300))
}

fn run_burst<T>(service: &SortService<T>, salt: i64)
where
    T: aoft_net::Transport<aoft_sim::Packet<aoft_sort::Msg>> + Send + Sync + 'static,
{
    let handles: Vec<_> = (0..BURST as i64)
        .map(|i| {
            service
                .submit(JobSpec::new(job_keys(salt + i)))
                .expect("queue admits the burst")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("benchmark jobs complete");
    }
}

fn service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_jobs");
    group.warm_up_time(Duration::from_secs_f64(1.0));
    group.measurement_time(Duration::from_secs_f64(3.0));
    group.sample_size(10);
    group.throughput(Throughput::Elements(BURST as u64));

    for dim in 3..=5u32 {
        let nodes = 1usize << dim;

        let service = SortService::start(config(dim), InProc::new()).expect("clean service");
        group.bench_with_input(BenchmarkId::new("clean", nodes), &nodes, |b, _| {
            b.iter(|| run_burst(&service, 0));
        });
        let metrics = service.metrics();
        eprintln!(
            "service_jobs/clean/{nodes}: {} jobs, p50 {:?}, p99 {:?}",
            metrics.jobs_completed, metrics.latency_p50, metrics.latency_p99
        );
        service.shutdown();

        // One node fail-silent from its first send; the warm-up job eats
        // the detection timeout and quarantines it before measurement.
        let dead = (nodes - 1) as u32;
        let crash = FaultPlan::new().with_fault(
            NodeId::new(dead),
            FaultKind::Crash,
            Trigger::from_seq(0),
            0xbe7c,
        );
        let faulty = ByzantineTransport::new(InProc::new(), crash);
        let service = SortService::start(config(dim), faulty).expect("degraded service");
        let report = service
            .submit(JobSpec::new(job_keys(7)))
            .expect("admit warm-up")
            .wait()
            .expect("warm-up job recovers");
        assert!(report.recovered(), "warm-up must pay the recovery");
        group.bench_with_input(BenchmarkId::new("degraded", nodes), &nodes, |b, _| {
            b.iter(|| run_burst(&service, 1_000));
        });
        let metrics = service.metrics();
        eprintln!(
            "service_jobs/degraded/{nodes}: {} jobs ({} recovered, {:?} quarantined), \
             p50 {:?}, p99 {:?}",
            metrics.jobs_completed,
            metrics.recovered_jobs,
            metrics.quarantined,
            metrics.latency_p50,
            metrics.latency_p99
        );
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, service_throughput);
criterion_main!(benches);
