//! Per-layer measurements that need their own fixture rather than a span in
//! the job loop: link round trips and streams, connection set-up, the
//! observability primitives, replay, the deterministic engine, and the
//! virtual-time ratios. Each is timed from here, around public calls.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoft::faults::{FaultKind, FaultPlan, Trigger};
use aoft::hypercube::NodeId;
use aoft::models::complexity::{BlockModel, ModelConstants};
use aoft::net::{
    CancelToken, InProc, LinkCache, LinkId, MappedTransport, MuxConfig, MuxTransport, Transport,
};
use aoft::obs;
use aoft::replay::{record, verify, RecordSpec};
use aoft::sort::composite::{demux, mux, CompositeCodec};
use aoft::sort::{Algorithm, SortBuilder};
use aoft::svc::{FleetConfig, FleetRouter, JobSpec, SortService, SvcConfig};

use crate::gen::Rng;
use crate::run::{Target, Workload, DIM, NODES};
use crate::stats;

const LINK_DEADLINE: Duration = Duration::from_secs(5);

/// Median time of one call of `f`, in microseconds, over `samples` timed
/// batches of `batch` calls, after a tenth as many warm-up batches.
pub fn median_us(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..(samples / 10).max(3) * batch {
        f();
    }
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    stats::median(&timings)
}

fn count_dir(path: &str) -> f64 {
    std::fs::read_dir(path).map_or(0.0, |dir| dir.count() as f64)
}

fn live_threads() -> f64 {
    count_dir("/proc/self/task")
}

fn open_fds() -> f64 {
    count_dir("/proc/self/fd")
}

fn link(from: u32, to: u32, tag: u8) -> LinkId {
    LinkId { from, to, tag }
}

fn loopback_pair() -> Result<MuxTransport, String> {
    let transport =
        MuxTransport::bind(MuxConfig::default()).map_err(|e| format!("bind mux: {e}"))?;
    let addr = transport.local_addr();
    transport.set_peer(0, addr);
    transport.set_peer(1, addr);
    Ok(transport)
}

/// Median round trip, in µs, of a `words`-word message over links 0→1 and
/// 1→0 of `transport`, echoed by a second thread.
fn ping_pong<T>(transport: &T, words: usize, samples: usize) -> Result<f64, String>
where
    T: Transport<Vec<i64>>,
{
    let err = |e| format!("ping-pong link: {e}");
    let tx = transport
        .connect_tx(link(0, 1, 0), LINK_DEADLINE)
        .map_err(err)?;
    let echo_rx = transport
        .connect_rx(link(0, 1, 0), LINK_DEADLINE)
        .map_err(err)?;
    let echo_tx = transport
        .connect_tx(link(1, 0, 0), LINK_DEADLINE)
        .map_err(err)?;
    let rx = transport
        .connect_rx(link(1, 0, 0), LINK_DEADLINE)
        .map_err(err)?;
    let cancel = CancelToken::new();
    let echo_cancel = cancel.clone();
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = echo_rx.recv_deadline(LINK_DEADLINE, &echo_cancel) {
            if echo_tx.send(msg).is_err() {
                break;
            }
        }
    });
    let payload: Vec<i64> = (0..words as i64).collect();
    let mut lost = false;
    let rtt = median_us(samples, 1, || {
        let sent = tx.send(payload.clone()).is_ok();
        let back = rx.recv_deadline(LINK_DEADLINE, &cancel);
        lost |= !sent || back.is_err();
    });
    cancel.cancel();
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    if lost {
        return Err("a ping was lost".into());
    }
    Ok(rtt)
}

/// One-way stream of `frames` messages of `words` words over one mux link:
/// (messages per second, megabytes of payload per second).
fn mux_stream(words: usize, frames: usize) -> Result<(f64, f64), String> {
    let transport = loopback_pair()?;
    let err = |e| format!("stream link: {e}");
    let tx =
        Transport::<Vec<i64>>::connect_tx(&transport, link(0, 1, 0), LINK_DEADLINE).map_err(err)?;
    let rx =
        Transport::<Vec<i64>>::connect_rx(&transport, link(0, 1, 0), LINK_DEADLINE).map_err(err)?;
    let cancel = CancelToken::new();
    let payload: Vec<i64> = (0..words as i64).collect();
    let start = Instant::now();
    let sender = std::thread::spawn(move || (0..frames).all(|_| tx.send(payload.clone()).is_ok()));
    let mut received = 0;
    while received < frames {
        rx.recv_deadline(LINK_DEADLINE, &cancel)
            .map_err(|e| format!("stream stalled after {received} frames: {e}"))?;
        received += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    if !sender.join().unwrap_or(false) {
        return Err("stream sender failed".into());
    }
    let bytes = (frames * words * 8) as f64;
    Ok((frames as f64 / secs, bytes / 1e6 / secs))
}

/// (bind + first link of a new peer pair in ms, one more link on the live
/// session in µs).
fn mux_connect(pairs: usize) -> Result<(f64, f64), String> {
    let dial = |transport: &MuxTransport, tag: u8| -> Result<_, String> {
        let tx = Transport::<Vec<i64>>::connect_tx(transport, link(0, 1, tag), LINK_DEADLINE)
            .map_err(|e| format!("dial: {e}"))?;
        let rx = Transport::<Vec<i64>>::connect_rx(transport, link(0, 1, tag), LINK_DEADLINE)
            .map_err(|e| format!("claim: {e}"))?;
        Ok((tx, rx))
    };
    let mut connects = Vec::new();
    let mut attaches = Vec::new();
    for _ in 0..pairs {
        let start = Instant::now();
        let transport = loopback_pair()?;
        let first = dial(&transport, 0)?;
        connects.push(start.elapsed().as_secs_f64() * 1e3);
        let mut links = vec![first];
        for tag in 1..=20u8 {
            let start = Instant::now();
            links.push(dial(&transport, tag)?);
            attaches.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((stats::median(&connects), stats::median(&attaches)))
}

/// What one d = 3 cube costs on the mux backend: (sessions, fds, threads),
/// counted after a sort has established every link.
fn mux_cube_counts(keys: &[i32]) -> Result<(f64, f64, f64), String> {
    let (fds, threads) = (open_fds(), live_threads());
    let cache = Arc::new(LinkCache::new(crate::run::mux_transport()?));
    SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys.to_vec())
        .nodes(NODES as usize)
        .job(1)
        .run_on(MappedTransport::identity(Arc::clone(&cache), NODES))
        .map_err(|e| format!("sort over a fresh mux cube: {e}"))?;
    Ok((
        cache.inner().session_count() as f64,
        open_fds() - fds,
        live_threads() - threads,
    ))
}

/// Virtual makespan, in ticks, of one deterministic run.
fn det_ticks(algorithm: Algorithm, keys: Vec<i32>, nodes: usize) -> Result<f64, String> {
    SortBuilder::new(algorithm)
        .keys(keys)
        .nodes(nodes)
        .run_deterministic()
        .map(|report| report.elapsed().as_ticks_f64())
        .map_err(|e| format!("deterministic {algorithm} on {nodes} nodes: {e}"))
}

fn plain_service(config: SvcConfig) -> Result<SortService<InProc>, String> {
    SortService::start(config, InProc::new()).map_err(|e| format!("side service: {e}"))
}

/// Median latency, in ms, of a closed loop of fresh 64-key jobs for `length`.
fn closed_loop_ms(
    service: &SortService<InProc>,
    rng: &mut Rng,
    length: Duration,
) -> Result<f64, String> {
    let started = Instant::now();
    let mut latencies = Vec::new();
    while started.elapsed() < length {
        let keys = rng.keys(64);
        let start = Instant::now();
        service
            .submit(JobSpec::new(keys))
            .map_err(|e| format!("side job refused: {e}"))?
            .wait()
            .map_err(|e| format!("side job failed: {e}"))?;
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&latencies))
}

/// `FleetRouter::submit` minus `SortService::submit`, medians, in µs.
fn fleet_route_us(rng: &mut Rng, jobs: usize) -> Result<f64, String> {
    let config = || SvcConfig::new(DIM).workers(2);
    let service = plain_service(config())?;
    let router = FleetRouter::start(FleetConfig::new(config(), 2), |_| Ok(InProc::new()))
        .map_err(|e| format!("side fleet: {e}"))?;
    let (mut direct, mut routed) = (Vec::new(), Vec::new());
    for _ in 0..jobs {
        let spec = JobSpec::new(rng.keys(64));
        let start = Instant::now();
        let handle = service.submit(spec.clone());
        direct.push(start.elapsed().as_secs_f64() * 1e6);
        handle
            .map_err(|e| format!("side job refused: {e}"))?
            .wait()
            .map_err(|e| format!("side job failed: {e}"))?;
        let start = Instant::now();
        let handle = router.submit(spec);
        routed.push(start.elapsed().as_secs_f64() * 1e6);
        handle
            .map_err(|e| format!("fleet job refused: {e}"))?
            .wait()
            .map_err(|e| format!("fleet job failed: {e}"))?;
    }
    router.shutdown();
    service.shutdown();
    Ok(stats::median(&routed) - stats::median(&direct))
}

/// Median latency, in ms, of `jobs` sequential jobs whose first attempt
/// loses a node to a crash: detection there is the receive timeout.
fn omission_recovery_ms(rng: &mut Rng, jobs: u32) -> Result<f64, String> {
    let service = plain_service(SvcConfig::new(DIM).workers(2).quarantine_after(u32::MAX))?;
    let mut latencies = Vec::new();
    for node in 0..jobs {
        let plan = FaultPlan::new().with_fault(
            NodeId::new(node),
            FaultKind::Crash,
            Trigger::from_seq(1),
            rng.next_u64(),
        );
        let start = Instant::now();
        let report = service
            .submit(JobSpec::new(rng.keys(64)).fault_plan(plan))
            .map_err(|e| format!("crash job refused: {e}"))?
            .wait()
            .map_err(|e| format!("crash job failed: {e}"))?;
        if report.recovered() {
            latencies.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    service.shutdown();
    Ok(stats::median(&latencies))
}

/// Peak thread count during a job minus the idle service's, over `jobs` jobs.
fn threads_per_attempt(rng: &mut Rng, jobs: usize) -> Result<f64, String> {
    let service = plain_service(SvcConfig::new(DIM).workers(2))?;
    closed_loop_ms(&service, rng, Duration::from_millis(20))?;
    let base = live_threads();
    let mut peak = base;
    for _ in 0..jobs {
        let handle = service
            .submit(JobSpec::new(rng.keys(64)))
            .map_err(|e| format!("side job refused: {e}"))?;
        while handle.wait_timeout(Duration::ZERO).is_none() {
            peak = peak.max(live_threads());
        }
    }
    service.shutdown();
    Ok(peak - base)
}

/// (`start` in ms, `shutdown` in ms) of the workload's own service, medians
/// of `rounds`.
fn start_shutdown_ms(workload: Workload, rounds: usize) -> Result<(f64, f64), String> {
    let (mut starts, mut stops) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let begin = Instant::now();
        let target = Target::start(workload, Algorithm::FaultTolerant)?;
        starts.push(begin.elapsed().as_secs_f64() * 1e3);
        let begin = Instant::now();
        target.shutdown();
        stops.push(begin.elapsed().as_secs_f64() * 1e3);
    }
    Ok((stats::median(&starts), stats::median(&stops)))
}

/// Every fixture-based per-layer metric. `keys` is one job of the workload.
/// Installs the process's event journal near the end — it cannot be taken
/// out again, so everything measured without one comes first.
pub fn measure(
    workload: Workload,
    seed: u64,
    keys: &[i32],
    out_dir: &std::path::Path,
    quick: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // `--quick` takes a fifth of the samples: a smoke test, not a reading.
    let n = |full: usize| if quick { (full / 5).max(2) } else { full };
    let mut m = BTreeMap::new();
    let mut rng = Rng::new(seed ^ 0x0B5E_55ED);
    let block = workload.block();

    // net
    m.insert("net.inproc_rtt_us", ping_pong(&InProc::new(), 64, n(400))?);
    m.insert("net.mux_rtt_us", ping_pong(&loopback_pair()?, 64, n(400))?);
    m.insert(
        "net.mux_rtt_16k_us",
        ping_pong(&loopback_pair()?, 2048, n(300))?,
    );
    m.insert("net.mux_stream_msgs_per_s", mux_stream(64, n(20_000))?.0);
    m.insert("net.mux_stream_mb_per_s", mux_stream(2048, n(2_000))?.1);
    let (connect_ms, attach_us) = mux_connect(n(10))?;
    m.insert("net.mux_connect_ms", connect_ms);
    m.insert("net.mux_link_attach_us", attach_us);
    let (sessions, fds, threads) = mux_cube_counts(&rng.keys(64))?;
    m.insert("net.mux_sessions", sessions);
    m.insert("net.mux_fds", fds);
    m.insert("net.threads", threads);

    // svc
    let (start_ms, shutdown_ms) = start_shutdown_ms(workload, n(10))?;
    m.insert("svc.start_ms", start_ms);
    m.insert("svc.shutdown_ms", shutdown_ms);
    m.insert("svc.fleet_route_us", fleet_route_us(&mut rng, n(300))?);
    m.insert(
        "svc.omission_recovery_ms",
        omission_recovery_ms(&mut rng, if quick { 1 } else { 3 })?,
    );

    // sim
    m.insert(
        "sim.threads_per_attempt",
        threads_per_attempt(&mut rng, n(20))?,
    );
    let d6_keys = rng.keys(64 * 8);
    let d6 = median_us(n(10), 1, || {
        let run = SortBuilder::new(Algorithm::FaultTolerant)
            .keys(d6_keys.clone())
            .nodes(64)
            .run_deterministic();
        std::hint::black_box(run.is_ok());
    });
    m.insert("sim.det_run_d6_ms", d6 / 1e3);

    // sort: virtual time, exact for a given seed
    let sft_ticks = det_ticks(Algorithm::FaultTolerant, keys.to_vec(), NODES as usize)?;
    let snr_ticks = det_ticks(Algorithm::NonRedundant, keys.to_vec(), NODES as usize)?;
    m.insert("sort.sft_ticks", sft_ticks);
    m.insert("sort.snr_ticks", snr_ticks);
    let model = BlockModel {
        base: ModelConstants::PAPER,
        m: block as f64,
    };
    m.insert(
        "sort.ticks_over_model",
        sft_ticks / model.sft_total(NODES as f64),
    );
    for (dim, name) in [
        (3, "sort.sft_over_snr_ticks_d3"),
        (4, "sort.sft_over_snr_ticks_d4"),
        (5, "sort.sft_over_snr_ticks_d5"),
        (6, "sort.sft_over_snr_ticks_d6"),
    ] {
        let nodes = 1usize << dim;
        let sweep = rng.keys(nodes * 8);
        let ratio = det_ticks(Algorithm::FaultTolerant, sweep.clone(), nodes)?
            / det_ticks(Algorithm::NonRedundant, sweep, nodes)?;
        m.insert(name, ratio);
    }
    let mut host = keys.to_vec();
    let host_us = median_us(200, 1, || {
        host.copy_from_slice(keys);
        host.sort_unstable();
        std::hint::black_box(&host);
    });
    m.insert("sort.host_sort_us", host_us);
    let codec = CompositeCodec::for_batch_max(16);
    let jobs: Vec<Vec<i32>> = (0..16).map(|_| rng.keys(64)).collect();
    let segments: Vec<&[i32]> = jobs.iter().map(Vec::as_slice).collect();
    let mut composite = mux(codec, &segments).ok_or("keys do not fit the composite codec")?;
    composite.sort_unstable();
    let lens = [64usize; 16];
    m.insert(
        "sort.composite_mux_us",
        median_us(200, 4, || {
            std::hint::black_box(mux(codec, &segments));
        }),
    );
    m.insert(
        "sort.composite_demux_us",
        median_us(200, 4, || {
            std::hint::black_box(demux(codec, &composite, &lens).is_ok());
        }),
    );

    // replay
    let crash =
        FaultPlan::new().with_fault(NodeId::new(9), FaultKind::Crash, Trigger::from_seq(1), seed);
    let spec = RecordSpec::new(Algorithm::FaultTolerant, rng.keys(16 * 8))
        .nodes(16)
        .fault_plan(crash);
    let recorded = record(spec.clone()).map_err(|e| format!("replay record: {e}"))?;
    if !verify(&recorded)
        .map_err(|e| format!("replay verify: {e}"))?
        .is_bit_exact()
    {
        return Err("a recorded run does not replay bit-exactly".into());
    }
    let record_us = median_us(n(10), 1, || {
        std::hint::black_box(record(spec.clone()).is_ok());
    });
    let verify_us = median_us(n(10), 1, || {
        std::hint::black_box(verify(&recorded).is_ok());
    });
    m.insert("replay.record_d4_ms", record_us / 1e3);
    m.insert("replay.verify_d4_ms", verify_us / 1e3);

    // obs: first without a journal file, then with one.
    let event = || {
        obs::Event::new("benchmark_probe")
            .job(7)
            .attempt(1)
            .detail("probe")
    };
    m.insert("obs.emit_us", median_us(200, 50, || obs::emit(event())));
    let hist = obs::Histogram::new();
    m.insert(
        "obs.hist_record_us",
        median_us(200, 200, || hist.record(Duration::from_micros(137))),
    );
    let render_us = median_us(20, 1, || {
        std::hint::black_box(obs::global().render_prometheus().len());
    });
    m.insert("obs.render_ms", render_us / 1e3);
    let side = plain_service(SvcConfig::new(DIM).workers(2))?;
    closed_loop_ms(&side, &mut rng, Duration::from_millis(50))?;
    let arm = Duration::from_millis(if quick { 150 } else { 800 });
    let without = closed_loop_ms(&side, &mut rng, arm)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let journal = out_dir.join(format!("journal-{}.jsonl", workload.name()));
    obs::install_journal(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let with = closed_loop_ms(&side, &mut rng, arm)?;
    side.shutdown();
    m.insert("obs.journal_overhead_share", with / without - 1.0);
    m.insert(
        "obs.emit_journal_us",
        median_us(200, 50, || obs::emit(event())),
    );
    obs::flush_journal();
    Ok(m)
}
