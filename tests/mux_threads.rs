//! The socket transport's thread claim, in a test binary of its own: the
//! test counts the threads of the whole process in `/proc/self/task`, so it
//! must not share a process with tests that spawn cubes of their own.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoft::net::{MuxConfig, MuxTransport};
use aoft::sort::{Algorithm, SortBuilder};

/// Live threads in this process, via the kernel's own ledger.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.count())
}

/// The thread claim, measured: a d=6 cube has 384 directed links, which
/// would cost a thread-per-link design 768 dedicated transport threads.
/// `MuxTransport` runs one reader per *session end* — 192 peer pairs, two
/// ends each on loopback — plus 2 tx servicers and the acceptor, so the
/// process peak stays around nodes + 387, below thread-per-link. Every one
/// of those threads is gone once the transport is dropped.
#[test]
fn d6_cube_runs_on_a_bounded_thread_pool() {
    let Some(base) = live_threads() else {
        eprintln!("no /proc/self/task on this platform; skipping");
        return;
    };

    // Generous liveness margins: 64 compute threads on a small CI box can
    // stall a reader long enough for the default 500 ms silence window to
    // fire spuriously. The thread-count claim needs an honest run, not a
    // tight failure detector.
    let config = MuxConfig {
        connect_timeout: Duration::from_secs(10),
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_secs(30),
    };
    // One reader per session end (2·192 on loopback) + 2 tx servicers +
    // the acceptor.
    let transport_threads = 2 * 192 + 2 + 1;
    let transport = MuxTransport::bind(config).expect("bind loopback mux");

    // Sample the task count while the sort runs; keep the peak.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(live_threads().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        })
    };

    let keys: Vec<i32> = (0..128i32).map(|x| x.wrapping_mul(-61) % 400).collect();
    // `run_on` consumes the transport and drops it before returning.
    let report = SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys.clone())
        .nodes(64)
        .recv_timeout(Duration::from_secs(10))
        .run_on(transport)
        .expect("clean d=6 mux run");
    stop.store(true, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler joins");

    assert_eq!(report.output(), common::sorted(&keys).as_slice());
    assert_eq!(report.blocks().len(), 64, "d=6 cube has 64 nodes");

    // Peak extra threads ≈ 64 node threads + the transport's threads +
    // harness slack. Thread-per-link's *transport alone* would add 768.
    let extra = peak.saturating_sub(base);
    let budget = 64 + transport_threads + 32;
    assert!(
        extra <= budget,
        "thread peak {peak} (base {base}, extra {extra}) exceeds {budget}; \
         the transport spawns more than one reader per session end"
    );
    assert!(
        extra < 2 * 64 * 6,
        "extra {extra} is in thread-per-link territory (2·384 = 768)"
    );

    // No reader outlives its transport: the drop joined them all.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut now_live = live_threads().unwrap_or(0);
    while now_live > base && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        now_live = live_threads().unwrap_or(0);
    }
    assert!(
        now_live <= base,
        "{now_live} threads live after the transport dropped (base {base})"
    );
}
