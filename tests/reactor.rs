//! Acceptance tests for the nonblocking reactor transport: the same `S_FT`
//! schedule and service recovery as the threaded TCP backend. That its
//! transport threads are O(reactors) instead of O(links) is asserted against
//! `/proc/self/task` in `reactor_threads.rs`, a test binary of its own.

mod common;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use aoft::faults::{FaultyTransport, LinkFault};
use aoft::net::CancelToken;
use aoft::sim::{Packet, ReactorConfig, ReactorTransport, TcpConfig, TcpTransport, Transport};
use aoft::sort::diagnosis::diagnose;
use aoft::sort::{Algorithm, Msg, SortBuilder, SortError};
use aoft::svc::{JobSpec, SortService, SvcConfig};

fn reactor(nodes: u32) -> ReactorTransport {
    let transport =
        ReactorTransport::bind(ReactorConfig::default()).expect("bind loopback reactor");
    let addr = transport.local_addr();
    for label in 0..nodes {
        transport.set_peer(label, addr);
    }
    transport
}

fn builder(keys: Vec<i32>, nodes: usize) -> SortBuilder {
    SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys)
        .nodes(nodes)
        .recv_timeout(Duration::from_millis(800))
}

/// `S_FT` sorts over the reactor backend exactly as over the threaded one.
#[test]
fn sft_sorts_d3_cube_over_reactor_tcp() {
    let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-97) % 50).collect();
    let report = builder(keys.clone(), 8)
        .run_on(reactor(8))
        .expect("clean reactor run");
    assert_eq!(report.output(), common::sorted(&keys).as_slice());
    assert_eq!(report.blocks().len(), 8, "d=3 cube has 8 nodes");
}

/// A machine-wide cancel interrupts a receive blocked on a reactor link
/// promptly, even while the reactor's timer wheel keeps heartbeats and
/// dead-checks live on the same thread.
#[test]
fn cancel_interrupts_reactor_recv_under_live_timers() {
    let transport = reactor(2);
    let link = aoft::net::LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let _tx = Transport::<Packet<Msg>>::connect_tx(&transport, link, Duration::from_secs(2))
        .expect("dial");
    let rx = Transport::<Packet<Msg>>::connect_rx(&transport, link, Duration::from_secs(2))
        .expect("claim");

    let cancel = CancelToken::new();
    let trip = cancel.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        trip.cancel();
    });
    let start = Instant::now();
    let err = rx
        .recv_deadline(Duration::from_secs(30), &cancel)
        .expect_err("nothing was sent");
    assert!(
        matches!(err, aoft::net::NetError::Cancelled),
        "expected Cancelled, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cancel took {:?}; the poll ramp is broken",
        start.elapsed()
    );
}

/// Parity with `tcp_transport.rs`: a fail-silent peer over the reactor
/// backend fail-stops with receiver-side missing-message diagnostics — the
/// identical contract the threaded backend honours.
#[test]
fn killed_peer_fail_stops_with_error_report_over_reactor() {
    let keys: Vec<i32> = (0..32).collect();
    let kill = LinkFault {
        kill_after: Some(2),
        ..LinkFault::default()
    };
    let faulty = FaultyTransport::new(reactor(8), 3).fault_sender(5, kill);
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

/// Full recovery parity, both backends side by side: the same node-5 kill
/// under a resident service recovers on each — quarantine plus degraded
/// retry — and both deliver the same verified output.
///
/// *Which* nodes end up quarantined is not compared. Node 5 is silent from
/// its first send, every node downstream of it stalls within a stage, and
/// the starved receive deadlines land microseconds apart: which of them
/// reports before the fail-stop cancels the rest is the scheduler's choice,
/// on either medium. What must hold is that the service quarantines where
/// its own diagnosis pointed, and nowhere else.
#[test]
fn service_recovery_parity_between_reactor_and_threaded_backends() {
    fn recover<T>(transport: T) -> Vec<i32>
    where
        T: Transport<Packet<Msg>> + Send + Sync + 'static,
    {
        let kill = LinkFault {
            kill_after: Some(0),
            ..LinkFault::default()
        };
        let faulty = FaultyTransport::new(transport, 0xDEAD5).fault_sender(5, kill);
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
        let quarantined: BTreeSet<u32> = service.metrics().quarantined.iter().copied().collect();
        service.shutdown();

        // The first attempt of a fresh service runs on the whole cube under
        // the identity plan, so its reports speak physical labels: the blast
        // region is every node a candidate set of its diagnosis names.
        let region: BTreeSet<u32> = diagnose(&report.detections[0], 3)
            .candidates()
            .iter()
            .flat_map(|set| set.iter().map(|node| node.raw()))
            .collect();
        let inside: BTreeSet<u32> = quarantined.intersection(&region).copied().collect();
        assert!(
            !inside.is_empty(),
            "diagnosis must quarantine into the blast region {region:?}, got {quarantined:?}"
        );
        // A later fail-stop (rare: the degraded cube still held node 5)
        // reports in that cube's labels and may add nodes of its own.
        if report.detections.len() == 1 {
            assert_eq!(inside, quarantined, "quarantine left the region {region:?}");
        }
        report.output
    }

    let reactor_out = recover(reactor(8));
    let threaded = {
        let transport = TcpTransport::bind(TcpConfig::default()).expect("bind threaded loopback");
        let addr = transport.local_addr();
        for label in 0..8 {
            transport.set_peer(label, addr);
        }
        transport
    };
    let tcp_out = recover(threaded);
    assert_eq!(reactor_out, tcp_out, "backends must agree on the output");
}
