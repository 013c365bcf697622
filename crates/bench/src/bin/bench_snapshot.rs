//! `bench-snapshot`: deterministic performance snapshots and the CI gate
//! that compares them.
//!
//! Two modes:
//!
//! * **snapshot** (default): runs fast, fixed-iteration measurements of the
//!   wire codec, the constraint predicates, and end-to-end service
//!   throughput, and writes a schema-stable JSON document (git SHA, date,
//!   per-metric median/p99 in microseconds). `--quick` shrinks the sample
//!   counts for CI; `--out <path>` writes to a file instead of stdout.
//!
//! * **compare** (`--compare <baseline> <current>`): loads two snapshots
//!   and fails (exit 1) when any metric present in the baseline regressed
//!   by more than `--threshold` (default 0.25, i.e. 25%) on its median.
//!   This is the whole CI gate — no external tooling.
//!
//! The snapshot measures wall-clock on whatever machine runs it, so the
//! gate only ever compares snapshots produced in the same CI environment.

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use std::time::Duration;

use aoft_adv::ByzantineTransport;
use aoft_faults::{FaultKind, FaultPlan, Trigger};
use aoft_hypercube::{NodeId, Subcube};
use aoft_net::frame::{decode_frame_body, encode_frame, frame_header, FrameKind};
use aoft_net::wire::from_bytes;
use aoft_net::{pool, CancelToken, InProc, LinkId, MuxTransport, Transport, Wire};
use aoft_sort::predicates::{bit_compare_stage, bit_compare_stage_with, PredicateScratch};
use aoft_sort::{
    subcube_ascending, Algorithm, Block, LbsBuffer, LbsWire, MergeScratch, Msg, SortBuilder,
};
use aoft_svc::{FleetConfig, FleetRouter, JobSpec, SortService, SvcConfig};
use serde::{Deserialize, Serialize};

/// Snapshot document version; bump only on incompatible shape changes.
const SCHEMA: u32 = 1;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Metric {
    /// Unit of the statistics (always microseconds today).
    unit: String,
    /// Median over the samples.
    median: f64,
    /// 99th percentile (nearest rank) over the samples.
    p99: f64,
    /// Number of samples the statistics summarize.
    samples: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Snapshot {
    schema: u32,
    git_sha: String,
    date: String,
    quick: bool,
    metrics: BTreeMap<String, Metric>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--compare") {
        let baseline = args.get(pos + 1).unwrap_or_else(|| usage("baseline path"));
        let current = args.get(pos + 2).unwrap_or_else(|| usage("current path"));
        let threshold = flag_value(&args, "--threshold")
            .map(|v| v.parse::<f64>().unwrap_or_else(|_| usage("threshold")))
            .unwrap_or(0.25);
        let p99_threshold = flag_value(&args, "--p99-threshold")
            .map(|v| v.parse::<f64>().unwrap_or_else(|_| usage("p99 threshold")))
            .unwrap_or(0.35);
        std::process::exit(compare(baseline, current, threshold, p99_threshold));
    }

    let quick = args.iter().any(|a| a == "--quick");
    let snapshot = take_snapshot(quick);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    match flag_value(&args, "--out") {
        Some(path) => {
            std::fs::write(&path, format!("{json}\n")).expect("write snapshot");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

fn usage(what: &str) -> ! {
    eprintln!("bench-snapshot: missing/invalid {what}");
    eprintln!("usage: bench-snapshot [--quick] [--out FILE]");
    eprintln!(
        "       bench-snapshot --compare BASELINE CURRENT \
         [--threshold 0.25] [--p99-threshold 0.35]"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

// --- snapshot -----------------------------------------------------------

fn take_snapshot(quick: bool) -> Snapshot {
    let mut metrics = BTreeMap::new();
    // At least 100 samples even in quick mode: nearest-rank p99 over 30
    // samples *is* the max, so a single scheduler stall or page-fault storm
    // became the gated p99 (predicate_bit_compare: 0.67µs median vs 202µs
    // p99 in PR 8's snapshot). With 100 samples the p99 rank excludes the
    // single worst sample, and the warm-up in `measure` keeps cold-start
    // noise out of the population entirely. Sub-microsecond metrics make
    // the extra samples nearly free.
    let (samples, batch) = if quick { (100, 20) } else { (200, 100) };

    // Wire codec: a representative stage message (64-key block plus a
    // half-filled 8-slot LBS), measured as the transport actually runs it.
    // Encode is the mux tx path — serialize once into a pooled buffer and
    // stamp the split frame header for the vectored write; decode is the rx
    // path — borrow the payload out of the frame body, no intermediate copy.
    let msg = tagged_msg(64, 8);
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    let frame = encode_frame(FrameKind::Data, &payload);
    metrics.insert(
        "codec_encode".to_string(),
        measure(samples, batch, || {
            let mut buf = pool::global().lease();
            msg.encode(&mut buf);
            std::hint::black_box(frame_header(FrameKind::Data, &buf));
        }),
    );
    metrics.insert(
        "codec_decode".to_string(),
        measure(samples, batch, || {
            let (_, payload) = decode_frame_body(&frame[4..]).expect("valid frame");
            std::hint::black_box(from_bytes::<Msg>(payload).expect("valid payload"));
        }),
    );

    // Constraint predicates: bit_compare (Φ_P + Φ_F) over a 64-node span.
    let (lbs, llbs) = honest_buffers(64, 5, 1);
    metrics.insert(
        "predicate_bit_compare".to_string(),
        measure(samples, batch, || {
            std::hint::black_box(bit_compare_stage(&lbs, &llbs, NodeId::new(0), 5))
                .expect("honest buffers");
        }),
    );

    // The same predicate at a production block size (m = 1024 keys per
    // node), through the scratch-reuse entry point the node program uses.
    // Small batch: each call flattens 64 Ki keys.
    let (big_lbs, big_llbs) = honest_buffers(64, 5, 1024);
    let mut scratch = PredicateScratch::for_machine(64, 1024);
    metrics.insert(
        "predicate_bit_compare_large".to_string(),
        measure(samples, 10, || {
            std::hint::black_box(bit_compare_stage_with(
                &big_lbs,
                &big_llbs,
                NodeId::new(0),
                5,
                &mut scratch,
            ))
            .expect("honest buffers");
        }),
    );

    // The two above are the *presorted* case: `honest_buffers` builds every
    // block from a disjoint consecutive range, so Φ_F's reference runs never
    // overlap and the check is one bulk prefix scan plus a verbatim tail.
    // Real stage data does not look like that. Same shape (64 nodes,
    // stage 5, m = 1024), uniformly random keys: the two runs interleave at
    // key granularity and the merge walk itself is what is timed.
    let (mixed_lbs, mixed_llbs) = interleaved_buffers(64, 5, 1024);
    metrics.insert(
        "predicate_bit_compare_interleaved".to_string(),
        measure(samples, 10, || {
            std::hint::black_box(bit_compare_stage_with(
                &mixed_lbs,
                &mixed_llbs,
                NodeId::new(0),
                5,
                &mut scratch,
            ))
            .expect("honest buffers");
        }),
    );

    // The data-path merge behind every compare-exchange: merge-split two
    // m = 1024 blocks in place through the reusable scratch. These two key
    // sets do not overlap, so this is the presorted case (the ordered-pair
    // early return).
    let mut lo = Block::from_unsorted((0..1024i32).map(|x| x.wrapping_mul(-37) % 4096).collect());
    let mut hi = Block::from_unsorted((0..1024i32).map(|x| x.wrapping_mul(53) % 4096).collect());
    let mut merge = MergeScratch::for_block_len(1024);
    metrics.insert(
        "lbs_merge".to_string(),
        measure(samples, batch, || {
            lo.merge_split_reuse(&mut hi, &mut merge);
            std::hint::black_box((lo.max(), hi.min()));
        }),
    );
    // The merge itself needs operands drawn from one range, taken afresh
    // before every call as handles to two published blocks — the first step
    // of an S_FT stage, where both operands are LBS entries: the halves go
    // to new storage (one 4 KiB allocation each) and the published blocks
    // stay as they are.
    let mixed = aoft_bench::random_keys(2048, 14);
    let lo_keys = Block::from_unsorted(mixed[..1024].to_vec());
    let hi_keys = Block::from_unsorted(mixed[1024..].to_vec());
    metrics.insert(
        "lbs_merge_interleaved".to_string(),
        measure(samples, batch, || {
            lo = lo_keys.clone();
            hi = hi_keys.clone();
            lo.merge_split_reuse(&mut hi, &mut merge);
            std::hint::black_box((lo.max(), hi.min()));
        }),
    );

    // Building the piggybacked array of the largest message of a d = 3,
    // m = 4096 job: all eight entries held. One handle per slot — what is
    // timed is eight reference counts and one 8-slot vector, not 128 KiB
    // of keys.
    let (full_lbs, _) = interleaved_buffers(8, 2, 4096);
    let cube = Subcube::home(3, NodeId::new(0));
    metrics.insert(
        "lbs_to_wire_span8".to_string(),
        measure(samples, batch, || {
            std::hint::black_box(full_lbs.to_wire(cube));
        }),
    );

    // One whole S_FT sort as the service runs it, minus the service: d = 3,
    // m = 4096, in-process links, eight node threads spawned and joined.
    let job_keys = aoft_bench::random_keys(8 * 4096, 15);
    metrics.insert(
        "sft_d3_m4096_inproc_run".to_string(),
        measure(if quick { 30 } else { 100 }, 1, || {
            let report = SortBuilder::new(Algorithm::FaultTolerant)
                .keys(job_keys.clone())
                .nodes(8)
                .run()
                .expect("clean run");
            std::hint::black_box(report.output().len());
        }),
    );

    // Service throughput: per-job submit→completion latency through a
    // resident service on in-process channels, d = 3, two workers — plus
    // the Dwork–Halpern–Waarts-style effort (node-ticks per job including
    // any retried attempts), the cost axis the Byzantine campaign tracks.
    let (latency, effort) = service_latencies(if quick { 16 } else { 48 });
    metrics.insert("service_job_latency".to_string(), latency);
    metrics.insert("service_job_effort".to_string(), effort);

    // The thread claim as a gated number: OS threads the mux transport
    // adds to the process while carrying 8 links of one peer pair — 2 tx
    // servicers, the acceptor and a reader per session end, 5. Threads
    // grow with sessions, not links: thread-per-link would put 16 here,
    // and a regression to that shape fails the gate loudly.
    metrics.insert("transport_threads".to_string(), transport_threads(8));

    // Mux transport: one-frame round trip over a real loopback socket — a
    // peer-pair session with event-driven tx doorbells. Both directions of
    // the ping-pong share one physical session.
    metrics.insert(
        "mux_rtt".to_string(),
        mux_rtt(if quick { 20 } else { 60 }, 10),
    );

    // The mux socket claim as a gated number, asserted against the
    // kernel's fd table: 16 directed links across 4 peer pairs must cost
    // one connection per *pair* (8 loopback fds), not per link (32).
    metrics.insert("mux_sockets".to_string(), mux_sockets());

    // Fleet throughput, clean vs degraded: jobs/second through a 2-cube
    // router, then through the same fleet after one cube's quarantine
    // shrank it out of the rotation. Higher is better — the compare gate
    // inverts direction on the jobs_per_sec unit.
    let fleet_jobs = if quick { 12 } else { 32 };
    let fleet_samples = if quick { 4 } else { 8 };
    metrics.insert(
        "fleet_jobs_per_sec_clean".to_string(),
        fleet_throughput(fleet_jobs, fleet_samples, false),
    );
    metrics.insert(
        "fleet_jobs_per_sec_degraded".to_string(),
        fleet_throughput(fleet_jobs, fleet_samples, true),
    );

    // The batching tentpole as a gated number: the same 2-cube fleet under
    // a burst workload with the micro-batcher on (batch_max = 16), jobs
    // striped in batch-sized chunks so each cube's worker coalesces them
    // into composite-key attempts. Per-hop latency amortizes across the
    // batch, so this should sit far above fleet_jobs_per_sec_clean.
    metrics.insert(
        "batched_jobs_per_sec".to_string(),
        batched_throughput(64, fleet_samples),
    );

    Snapshot {
        schema: SCHEMA,
        git_sha: git_sha(),
        date: today(),
        quick,
        metrics,
    }
}

/// `samples` timings of `batch` calls each, reported per call in µs.
fn measure(samples: usize, batch: usize, mut f: impl FnMut()) -> Metric {
    // Warm-up: populate caches, lazy statics, and first-touch pages outside
    // the measurement. One batch is not enough — on sub-microsecond metrics
    // the first few *sample* batches still eat page faults and allocator
    // growth, and with nearest-rank p99 over 30 samples a single cold
    // sample IS the p99 (predicate_bit_compare: 0.67µs median vs 202µs p99
    // before this discard). Run full discarded sample batches first.
    let warmup_samples = (samples / 10).max(3);
    for _ in 0..warmup_samples * batch {
        f();
    }
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    summarize(&mut timings)
}

fn summarize(timings: &mut [f64]) -> Metric {
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let rank = |pct: usize| {
        let r = (timings.len() * pct).div_ceil(100).max(1);
        timings[r - 1]
    };
    Metric {
        unit: "us".to_string(),
        median: rank(50),
        p99: rank(99),
        samples: timings.len() as u64,
    }
}

fn service_latencies(jobs: usize) -> (Metric, Metric) {
    let config = SvcConfig::new(3).workers(2).queue_depth(2 * jobs);
    let service = SortService::start(config, InProc::new()).expect("service starts");
    let handles: Vec<_> = (0..jobs as i64)
        .map(|salt| {
            let keys: Vec<i32> = (0..64)
                .map(|x: i64| (((x + salt).wrapping_mul(2_654_435_761)) % 997) as i32)
                .collect();
            service.submit(JobSpec::new(keys)).expect("admit")
        })
        .collect();
    let (mut timings, mut efforts): (Vec<f64>, Vec<f64>) = handles
        .into_iter()
        .map(|h| {
            let report = h.wait().expect("job completes");
            (report.latency.as_secs_f64() * 1e6, report.effort as f64)
        })
        .unzip();
    let mut effort_metric = summarize(&mut efforts);
    effort_metric.unit = "ticks".to_string();
    (summarize(&mut timings), effort_metric)
}

/// Median/p99 of a one-frame ping-pong over a loopback mux transport: the
/// ping link (0→1) and the echo link (1→0) resolve to the same peer-pair
/// session, so the measurement exercises the shared tx queue, the doorbell
/// wakeup, and the demux path in both directions.
fn mux_rtt(samples: usize, batch: usize) -> Metric {
    let transport = MuxTransport::loopback(2).expect("bind mux");
    let ping = LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let pong = LinkId {
        from: 1,
        to: 0,
        tag: 0,
    };
    let deadline = Duration::from_secs(5);
    let tx = Transport::<Vec<i64>>::connect_tx(&transport, ping, deadline).expect("dial ping");
    let echo_rx =
        Transport::<Vec<i64>>::connect_rx(&transport, ping, deadline).expect("claim ping");
    let echo_tx = Transport::<Vec<i64>>::connect_tx(&transport, pong, deadline).expect("dial pong");
    let rx = Transport::<Vec<i64>>::connect_rx(&transport, pong, deadline).expect("claim pong");

    let cancel = CancelToken::new();
    let echo_cancel = cancel.clone();
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = echo_rx.recv_deadline(Duration::from_secs(5), &echo_cancel) {
            if echo_tx.send(msg).is_err() {
                break;
            }
        }
    });

    let payload: Vec<i64> = (0..64).collect();
    let metric = measure(samples, batch, || {
        tx.send(payload.clone()).expect("queue the ping");
        std::hint::black_box(
            rx.recv_deadline(Duration::from_secs(5), &cancel)
                .expect("echo returns"),
        );
    });
    cancel.cancel();
    echo.join().expect("echo thread exits");
    metric
}

/// File descriptors the mux backend adds for 16 directed links spread
/// across 4 peer pairs, read from `/proc/self/fd` after every link is
/// established. One loopback connection per pair is 2 fds per pair (both
/// ends live here) = 8; socket-per-link would be 32. Asserted in-process
/// so a regression fails the snapshot itself, not just the compare gate.
fn mux_sockets() -> Metric {
    let live = || {
        std::fs::read_dir("/proc/self/fd")
            .ok()
            .map(|dir| dir.count() as i64)
    };
    let transport = MuxTransport::loopback(8).expect("bind mux");
    let before = live();
    let deadline = Duration::from_secs(5);
    let mut endpoints = Vec::new();
    let pairs = [(0u32, 1u32), (2, 3), (4, 5), (6, 7)];
    for (lo, hi) in pairs {
        for (from, to) in [(lo, hi), (hi, lo)] {
            for tag in 0..2u8 {
                let link = LinkId { from, to, tag };
                endpoints.push(
                    Transport::<Vec<i64>>::connect_tx(&transport, link, deadline).expect("dial"),
                );
            }
        }
    }
    let fds = match (before, live()) {
        (Some(b), Some(a)) => (a - b).max(0) as f64,
        // No procfs: report the transport's own session-end count (one fd
        // per end), which the loopback tests cross-check against procfs.
        _ => transport.session_count() as f64,
    };
    assert!(
        fds <= (2 * pairs.len() + 4) as f64,
        "mux fd count {fds} for {} peer pairs is not O(pairs) \
         (socket-per-link would be {})",
        pairs.len(),
        2 * endpoints.len()
    );
    drop(endpoints);
    Metric {
        unit: "fds".to_string(),
        median: fds,
        p99: fds,
        samples: 1,
    }
}

/// OS threads the mux transport adds to the process while carrying
/// `links` established link pairs of one peer pair — read from
/// `/proc/self/task`, the kernel's own ledger, with the documented count
/// (2 tx servicers + the acceptor + one reader for each of the pair's two
/// loopback session ends) as the fallback on platforms without procfs.
fn transport_threads(links: u8) -> Metric {
    let live = || {
        std::fs::read_dir("/proc/self/task")
            .ok()
            .map(|dir| dir.count() as i64)
    };
    let before = live();
    let transport = MuxTransport::loopback(2).expect("bind mux");
    let deadline = Duration::from_secs(5);
    let mut endpoints = Vec::new();
    for tag in 0..links {
        let link = LinkId {
            from: 0,
            to: 1,
            tag,
        };
        endpoints.push((
            Transport::<Vec<i64>>::connect_tx(&transport, link, deadline).expect("dial"),
            Transport::<Vec<i64>>::connect_rx(&transport, link, deadline).expect("claim"),
        ));
    }
    let threads = match (before, live()) {
        (Some(b), Some(a)) => (a - b).max(0) as f64,
        _ => 5.0,
    };
    drop(endpoints);
    Metric {
        unit: "threads".to_string(),
        median: threads,
        p99: threads,
        samples: 1,
    }
}

/// Jobs/second through a 2-cube fleet router on in-process cubes. With
/// `degraded`, cube 1's transport kills node 5 from its first send and a
/// priming job forces the quarantine, so the measured stream runs on the
/// fleet minus one cube — the throughput cost of routing around shrunken
/// hardware.
fn fleet_throughput(jobs: usize, samples: usize, degraded: bool) -> Metric {
    let cube = SvcConfig::new(3)
        .workers(2)
        .queue_depth(2 * jobs)
        .max_attempts(2)
        .quarantine_after(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(10))
        .recv_timeout(Duration::from_millis(300));
    let router = FleetRouter::start(FleetConfig::new(cube, 2), |i| {
        let mut plan = FaultPlan::new();
        if degraded && i == 1 {
            plan = plan.with_fault(
                NodeId::new(5),
                FaultKind::Crash,
                Trigger::from_seq(0),
                0xBE7C + i as u64,
            );
        }
        Ok(ByzantineTransport::new(InProc::new(), plan))
    })
    .expect("fleet starts");
    if degraded {
        // Prime the quarantine: the pinned job fails its first attempt on
        // the dead node, recovers on the surviving subcube, and leaves
        // cube 1 marked degraded for the measured stream.
        let keys: Vec<i32> = (0..64).rev().collect();
        router
            .submit_to(1, JobSpec::new(keys))
            .expect("priming job admitted")
            .wait()
            .expect("priming job recovers");
    }
    let mut rates: Vec<f64> = (0..samples)
        .map(|sample| {
            let start = Instant::now();
            let handles: Vec<_> = (0..jobs as i64)
                .map(|salt| {
                    let keys: Vec<i32> = (0..64)
                        .map(|x: i64| {
                            (((x + salt + sample as i64).wrapping_mul(2_654_435_761)) % 997) as i32
                        })
                        .collect();
                    router.submit(JobSpec::new(keys)).expect("admit")
                })
                .collect();
            for handle in handles {
                handle.wait().expect("job completes");
            }
            jobs as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    let mut metric = summarize(&mut rates);
    metric.unit = "jobs_per_sec".to_string();
    router.shutdown();
    metric
}

/// Jobs/second through the same 2-cube fleet under a burst workload with
/// micro-batching enabled: each cube's single worker coalesces its chunk of
/// the burst into composite-key attempts, paying the ~30-hop schedule once
/// per batch instead of once per job. The first burst is discarded as
/// warm-up (thread and link bring-up).
fn batched_throughput(jobs: usize, samples: usize) -> Metric {
    let cube = SvcConfig::new(3)
        .workers(1)
        .queue_depth(2 * jobs)
        .batch_max(16)
        .batch_flush(Duration::from_millis(1))
        .recv_timeout(Duration::from_millis(300));
    let router =
        FleetRouter::start(FleetConfig::new(cube, 2), |_| Ok(InProc::new())).expect("fleet starts");
    let burst = |sample: usize| {
        let specs: Vec<JobSpec> = (0..jobs as i64)
            .map(|salt| {
                let keys: Vec<i32> = (0..64)
                    .map(|x: i64| {
                        (((x + salt + sample as i64).wrapping_mul(2_654_435_761)) % 997) as i32
                    })
                    .collect();
                JobSpec::new(keys)
            })
            .collect();
        let start = Instant::now();
        for handle in router.submit_batch(specs) {
            handle.expect("admit").wait().expect("job completes");
        }
        jobs as f64 / start.elapsed().as_secs_f64()
    };
    burst(samples); // warm-up burst, discarded
    let mut rates: Vec<f64> = (0..samples).map(burst).collect();
    let mut metric = summarize(&mut rates);
    metric.unit = "jobs_per_sec".to_string();
    router.shutdown();
    metric
}

/// A representative stage message, mirroring the codec criterion bench.
fn tagged_msg(m: usize, span: usize) -> Msg {
    let block = Block::from_unsorted((0..m as i32).map(|x| x.wrapping_mul(-31)).collect());
    let slots = (0..span)
        .map(|i| (i % 2 == 0).then(|| block.clone()))
        .collect();
    Msg::Tagged {
        data: block.clone(),
        lbs: LbsWire {
            span_start: 0,
            block_len: m as u32,
            slots,
        },
    }
}

/// Honest (LBS, LLBS) buffers at the end of `stage` with `m` keys per block
/// (same construction as the predicates criterion bench, scaled: a node's
/// scalar value `v` expands to the ascending block `[v·m, (v+1)·m)`, which
/// preserves every inter-block comparison and every merge multiset).
fn honest_buffers(nodes: usize, stage: u32, m: usize) -> (LbsBuffer, LbsBuffer) {
    let expand = |v: i32| Block::new((v * m as i32..(v + 1) * m as i32).collect());
    let mut llbs = LbsBuffer::new(nodes, m as u32);
    let mut lbs = LbsBuffer::new(nodes, m as u32);
    let span = 1usize << (stage + 1);
    for start in (0..nodes).step_by(span) {
        let half = span / 2;
        let mut values: Vec<i32> = (0..span as i32).collect();
        values[half..].reverse();
        for (off, v) in values.iter().enumerate() {
            lbs.set(NodeId::new((start + off) as u32), expand(*v));
        }
        for half_start in [0, half] {
            let mut half_vals: Vec<i32> = (half_start..half_start + half)
                .map(|off| values[off])
                .collect();
            half_vals.sort_unstable();
            let q = half / 2;
            if q > 0 {
                half_vals[q..].reverse();
            }
            for (off, v) in half_vals.iter().enumerate() {
                llbs.set(NodeId::new((start + half_start + off) as u32), expand(*v));
            }
        }
    }
    (lbs, llbs)
}

/// Honest (LBS, LLBS) buffers at the end of `stage` for uniformly random
/// keys: LLBS is the input with every `SC_{stage-1}` sorted in its
/// direction, LBS the same keys with every `SC_stage` sorted — what an
/// honest run holds at that check, with the reference runs of Φ_F
/// interleaving at key granularity.
fn interleaved_buffers(nodes: usize, stage: u32, m: usize) -> (LbsBuffer, LbsBuffer) {
    let keys = aoft_bench::random_keys(nodes * m, 14);
    let sorted_over = |dim: u32| {
        let mut buf = LbsBuffer::new(nodes, m as u32);
        let span = 1usize << dim;
        for start in (0..nodes).step_by(span) {
            let mut flat = keys[start * m..(start + span) * m].to_vec();
            flat.sort_unstable();
            let sub = Subcube::home(dim, NodeId::new(start as u32));
            for (off, chunk) in flat.chunks(m).enumerate() {
                // Descending regions are descending at block granularity;
                // every block stays internally ascending.
                let node = if subcube_ascending(sub) {
                    start + off
                } else {
                    start + span - 1 - off
                };
                buf.set(NodeId::new(node as u32), Block::new(chunk.to_vec()));
            }
        }
        buf
    };
    (sorted_over(stage), sorted_over(stage - 1))
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today as `YYYY-MM-DD` (UTC), from the Unix time via the standard civil
/// date algorithm — no date crate in the offline build.
fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

// --- compare ------------------------------------------------------------

fn compare(baseline_path: &str, current_path: &str, threshold: f64, p99_threshold: f64) -> i32 {
    let baseline = load(baseline_path);
    let current = load(current_path);
    if baseline.schema != current.schema {
        eprintln!(
            "schema mismatch: baseline v{} vs current v{}",
            baseline.schema, current.schema
        );
        return 1;
    }
    let ratio_of = |cur: f64, base: f64| if base > 0.0 { cur / base } else { 1.0 };
    let mut failures = 0;
    for (name, base) in &baseline.metrics {
        let Some(cur) = current.metrics.get(name) else {
            println!("FAIL {name}: missing from current snapshot");
            failures += 1;
            continue;
        };
        // Latency-like units regress upward; throughput-like units regress
        // downward. The ratio is always framed so that > 1 means "worse".
        let higher_is_better = base.unit == "jobs_per_sec";
        let median_ratio = if higher_is_better {
            ratio_of(base.median, cur.median)
        } else {
            ratio_of(cur.median, base.median)
        };
        // The tail gets its own, looser budget: p99 is noisier than the
        // median, but an unbounded tail is exactly how a "fast on average"
        // hot path hides an occasional allocation storm.
        let p99_ratio = if higher_is_better {
            ratio_of(base.p99, cur.p99)
        } else {
            ratio_of(cur.p99, base.p99)
        };
        // Sub-microsecond statistics sit at the clock's quantization floor,
        // where half a microsecond of jitter reads as a 50% "regression".
        // A relative breach only fails the gate once the absolute move also
        // clears a 2µs noise floor (latency units only — a 2-unit move in
        // jobs/sec or thread counts is a real signal).
        let noise_floor = if base.unit == "us" { 2.0 } else { 0.0 };
        let median_regressed =
            median_ratio > 1.0 + threshold && (cur.median - base.median).abs() > noise_floor;
        let p99_regressed =
            p99_ratio > 1.0 + p99_threshold && (cur.p99 - base.p99).abs() > noise_floor;
        let status = if median_regressed || p99_regressed {
            failures += 1;
            "FAIL"
        } else {
            "ok  "
        };
        println!(
            "{status} {name}: median {:.2}{} -> {:.2}{} ({:+.1}%), p99 {:.2} -> {:.2} ({:+.1}%)",
            base.median,
            base.unit,
            cur.median,
            cur.unit,
            (median_ratio - 1.0) * 100.0,
            base.p99,
            cur.p99,
            (p99_ratio - 1.0) * 100.0,
        );
    }
    if failures > 0 {
        eprintln!(
            "{failures} metric(s) regressed beyond {:.0}% median / {:.0}% p99 \
             (baseline {} @ {}, current {} @ {})",
            threshold * 100.0,
            p99_threshold * 100.0,
            baseline.git_sha,
            baseline.date,
            current.git_sha,
            current.date,
        );
        1
    } else {
        println!(
            "all {} metric(s) within {:.0}% median / {:.0}% p99 of baseline {}",
            baseline.metrics.len(),
            threshold * 100.0,
            p99_threshold * 100.0,
            baseline.git_sha,
        );
        0
    }
}

fn load(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e:?}");
        std::process::exit(2);
    })
}
