//! Acceptance tests for the socket transport: the same `S_FT` and `S_NR`
//! schedules, fail-stop detection and service recovery as over in-process
//! links, with every compare-exchange crossing real loopback TCP — one
//! physical session per *peer pair*, asserted against `/proc/self/fd`,
//! not taken on faith. (The thread bound — one reader per session end —
//! is asserted against `/proc/self/task` in `mux_threads.rs`, a test
//! binary of its own.)

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoft::adv::ByzantineTransport;
use aoft::faults::FaultPlan;
use aoft::hypercube::NodeSet;
use aoft::net::{pool, CancelToken, MuxConfig, MuxTransport};
use aoft::sim::{Packet, Transport};
use aoft::sort::{diagnosis, Algorithm, Msg, SortBuilder, SortError};
use aoft::svc::{JobSpec, SortService, SvcConfig};

fn mux(nodes: u32) -> MuxTransport {
    MuxTransport::loopback(nodes).expect("bind loopback mux")
}

fn builder(keys: Vec<i32>, nodes: usize) -> SortBuilder {
    SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys)
        .nodes(nodes)
        .recv_timeout(Duration::from_millis(800))
}

/// Open file descriptors in this process, via the kernel's own ledger.
fn live_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd")
        .ok()
        .map(|dir| dir.count())
}

/// `S_FT` sorts over real sockets exactly as over in-process links.
#[test]
fn sft_sorts_d3_cube_over_mux() {
    let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-97) % 50).collect();
    let report = builder(keys.clone(), 8)
        .run_on(mux(8))
        .expect("clean mux run");
    assert_eq!(report.output(), common::sorted(&keys).as_slice());
    assert_eq!(report.blocks().len(), 8, "d=3 cube has 8 nodes");
}

/// The socket claim, measured: a d=6 cube has 384 directed links. A socket
/// per link would be 384 connections, 768 loopback fds. The transport
/// opens one connection per *peer pair*: 192 connections, and the kernel's
/// fd table proves it.
#[test]
fn d6_cube_uses_one_socket_per_peer_pair() {
    let Some(base) = live_fds() else {
        eprintln!("no /proc/self/fd on this platform; skipping");
        return;
    };

    // Generous liveness margins, as in the d=6 thread-pool test: 64 compute
    // threads on a small CI box can stall a servicer pass long enough for
    // the default 500 ms silence window to fire spuriously.
    let config = MuxConfig {
        connect_timeout: Duration::from_secs(10),
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_secs(30),
    };
    let transport = MuxTransport::bind(config).expect("bind loopback mux");

    // Sample the fd count while the sort runs; keep the peak.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(live_fds().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        })
    };

    let keys: Vec<i32> = (0..128i32).map(|x| x.wrapping_mul(-61) % 400).collect();
    let report = builder(keys.clone(), 64)
        .recv_timeout(Duration::from_secs(10))
        .run_on(transport)
        .expect("clean d=6 mux run");
    stop.store(true, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler joins");

    assert_eq!(report.output(), common::sorted(&keys).as_slice());
    assert_eq!(report.blocks().len(), 64, "d=6 cube has 64 nodes");

    // A d=6 cube has 64·6/2 = 192 peer pairs. On loopback each pair's one
    // connection holds two fds (both ends live in this process), plus the
    // listener and harness slack. Per-link would be 384 connections.
    let pairs = 64 * 6 / 2;
    let extra = peak.saturating_sub(base);
    let budget = 2 * pairs + 32;
    assert!(
        extra <= budget,
        "fd peak {peak} (base {base}, extra {extra}) exceeds {budget}; \
         socket count is not O(peer pairs)"
    );
    assert!(
        extra < 2 * 384,
        "extra {extra} is in socket-per-link territory (2·384 = 768)"
    );
}

/// Session ends are O(peer pairs): every link of a pair, both directions
/// and all tags, resolves to the same loopback session pair.
#[test]
fn session_count_is_per_pair_not_per_link() {
    let transport = mux(4);
    let deadline = Duration::from_secs(5);
    let mut endpoints: Vec<Box<dyn aoft::net::LinkTx<u64>>> = Vec::new();
    // 8 directed links across 2 peer pairs (0,1) and (2,3).
    for (from, to) in [(0u32, 1u32), (1, 0), (2, 3), (3, 2)] {
        for tag in 0..2u8 {
            let link = aoft::net::LinkId { from, to, tag };
            endpoints.push(
                Transport::<u64>::connect_tx(&transport, link, deadline).expect("connect link"),
            );
        }
    }
    assert_eq!(
        transport.session_count(),
        4,
        "2 peer pairs = 4 loopback session ends, regardless of link count"
    );
}

/// A fail-silent peer fail-stops with receiver-side missing-message
/// diagnostics (node death is a *logical* silence; the shared session
/// stays up, so detection happens at the protocol layer, not the socket).
#[test]
fn killed_peer_fail_stops_with_error_report_over_mux() {
    let keys: Vec<i32> = (0..32).collect();
    let faulty = ByzantineTransport::new(mux(8), common::crash(5, 2, 3));
    match builder(keys, 8).run_on(faulty) {
        Ok(_) => panic!("a silenced peer must not produce a sorted result"),
        Err(SortError::Detected { reports, .. }) => {
            assert!(!reports.is_empty(), "fail-stop must carry diagnostics");
            assert!(
                reports.iter().any(|r| r.detail.contains("no message")),
                "reports should name the starved receive: {reports:?}"
            );
        }
        Err(other) => panic!("expected Detected, got {other:?}"),
    }
}

/// Full service recovery over sockets: a node dead from its first send is
/// diagnosed, quarantined and retried around — and the sessions survive
/// across attempts (that persistence is the transport's perf win).
#[test]
fn service_recovers_dead_node_over_mux() {
    let faulty = ByzantineTransport::new(mux(8), common::crash(5, 0, 0xDEAD5));
    let config = SvcConfig::new(3)
        .max_attempts(4)
        .quarantine_after(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(20))
        .recv_timeout(Duration::from_millis(800));
    let service = SortService::start(config, faulty).expect("service starts");
    let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-73) % 40).collect();
    let report = service
        .submit(JobSpec::new(keys.clone()))
        .expect("admitted")
        .wait()
        .expect("recovers loudly, never silently wrong");
    assert_eq!(report.output, common::sorted(&keys));
    assert!(
        report.recovered(),
        "a dead-from-first-send node must cost at least one retry"
    );
    let metrics = service.metrics();
    assert!(
        metrics.quarantined.contains(&5),
        "diagnosis must quarantine the dead node: {:?}",
        metrics.quarantined
    );
    service.shutdown();
}

/// The non-redundant baseline is transport-generic too — nothing in the
/// medium is `S_FT`-specific.
#[test]
fn snr_also_runs_over_mux() {
    let keys: Vec<i32> = (0..16i32).map(|x| 31 - 2 * x).collect();
    let report = SortBuilder::new(Algorithm::NonRedundant)
        .keys(keys.clone())
        .nodes(8)
        .recv_timeout(Duration::from_millis(800))
        .run_on(mux(8))
        .expect("clean S_NR mux run");
    assert_eq!(report.output(), common::sorted(&keys).as_slice());
}

/// The attempt loop below models "restart the cluster and try again": every
/// attempt gets a brand-new loopback transport, but the environment (node
/// 5's dead outgoing links) persists for the first two attempts. Each
/// failed attempt must carry a receiver-side missing-message diagnosis
/// with a non-empty candidate region. Which dead link gets reported is
/// scheduler roulette — once node 5 goes silent the whole cube stalls
/// within a stage and all starved recv deadlines land microseconds apart,
/// so the reporter may be a starved *neighbor* pair rather than a link
/// incident to node 5 itself (Definition 3 case 2a: a missing message only
/// ever localizes blame to a link, and the detector may be the faulty
/// party). Attribution determinism for synthetic report sets is pinned
/// down in the diagnosis unit tests.
#[test]
fn retry_over_fresh_mux_transports_recovers_with_diagnoses() {
    let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-73) % 40).collect();
    let mut detections = Vec::new();
    let mut sorted = None;
    for attempt in 0..3 {
        let plan = if attempt < 2 {
            common::crash(5, 0, attempt as u64 + 11)
        } else {
            FaultPlan::new()
        };
        let transport = ByzantineTransport::new(mux(8), plan);
        match builder(keys.clone(), 8).run_on(transport) {
            Ok(report) => {
                sorted = Some((attempt + 1, report));
                break;
            }
            Err(SortError::Detected { reports, .. }) => detections.push(reports),
            Err(err) => panic!("attempt {attempt}: {err}"),
        }
    }
    let (attempts_used, report) = sorted.expect("third attempt runs on a healthy cluster");
    assert_eq!(attempts_used, 3);
    assert_eq!(detections.len(), 2);
    for reports in &detections {
        assert!(
            reports
                .iter()
                .any(|r| r.suspect.is_some() && r.detail.contains("no message")),
            "failed attempts must carry a missing-message accusation: {reports:?}"
        );
        assert!(
            reports
                .iter()
                .all(|r| r.detector.index() < 8 && r.suspect.is_none_or(|s| s.index() < 8)),
            "accusations stay within the cube: {reports:?}"
        );
        let diagnosis = diagnosis::diagnose(reports, 3);
        let mut region = NodeSet::empty(8);
        for candidate in diagnosis.candidates() {
            region |= candidate;
        }
        assert!(
            !region.is_empty(),
            "diagnosis must localize the fault to a candidate region: {diagnosis}"
        );
    }
    assert_eq!(report.output(), common::sorted(&keys).as_slice());
}

/// The whole point of deadline-based receives: a dead peer costs one
/// timeout, not a hang. Allow generous scheduling slack on top.
#[test]
fn detection_latency_is_bounded_by_recv_timeout() {
    let keys: Vec<i32> = (0..32).collect();
    let faulty = ByzantineTransport::new(mux(8), common::crash(2, 0, 9));
    let start = Instant::now();
    let result = builder(keys, 8).run_on(faulty);
    assert!(matches!(result, Err(SortError::Detected { .. })));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "detection took {:?}",
        start.elapsed()
    );
}

/// A machine-wide cancel wakes a receive blocked on a socket link at once,
/// even while the session's heartbeat timers and silence checks
/// stay live on the servicer threads.
#[test]
fn cancel_interrupts_mux_recv_under_live_timers() {
    let transport = mux(2);
    let link = aoft::net::LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let _tx = Transport::<Packet<Msg>>::connect_tx(&transport, link, Duration::from_secs(2))
        .expect("dial");
    let rx = Transport::<Packet<Msg>>::connect_rx(&transport, link, Duration::from_secs(2))
        .expect("claim");

    // Blocked long enough (≥ 200 ms) that a poll ramp would be sleeping in
    // its coarsest slices when the cancel lands.
    let cancel = CancelToken::new();
    let trip = cancel.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(260));
        trip.cancel();
    });
    let err = rx
        .recv_deadline(Duration::from_secs(30), &cancel)
        .expect_err("nothing was sent");
    let lag = cancel.cancelled_at().expect("cancelled").elapsed();
    assert!(
        matches!(err, aoft::net::NetError::Cancelled),
        "expected Cancelled, got {err:?}"
    );
    assert!(
        lag < Duration::from_millis(25),
        "cancel() to return took {lag:?}; cancellation is an event, not a poll"
    );
}

/// Every wire buffer leased from the global pool during a full d=4 `S_FT`
/// run over loopback mux sessions comes back: once the tx servicers drain, the
/// outstanding-lease count returns to zero. This is the steady-state
/// allocation discipline observed end to end — buffers cycle through the
/// pool instead of being allocated per message.
#[test]
fn pool_reclaims_all_leases_after_d4_mux_run() {
    let keys: Vec<i32> = (0..64i32).map(|x| x.wrapping_mul(-61) % 53).collect();
    let transport = mux(16);
    let report = SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys.clone())
        .nodes(16)
        .recv_timeout(Duration::from_millis(1500))
        .run_on(transport)
        .expect("clean d=4 mux run");
    let expected = common::sorted(&keys);
    assert_eq!(report.output(), expected.as_slice());

    // Tx servicers may still be flushing their last frames when run_on
    // returns; give them a bounded moment to hand their leases back.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let outstanding = pool::outstanding();
        if outstanding == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool leaked {outstanding} lease(s) after the run drained"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
