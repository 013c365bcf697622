//! Every number on a scrape belongs to the endpoint's owner: two services,
//! or two fleets, in one process report disjoint numbers, and one owner's
//! shutdown changes nothing on another's scrape.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use aoft_faults::{FaultKind, FaultPlan, Trigger};
use aoft_hypercube::NodeId;
use aoft_net::{InProc, LinkId, LinkRx, LinkTx, NetError, Transport};
use aoft_sim::Packet;
use aoft_sort::Msg;
use aoft_svc::{FleetConfig, FleetRouter, JobSpec, SortService, SvcConfig};
use crossbeam_channel::Receiver;

fn ephemeral() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn keys(salt: i32) -> Vec<i32> {
    (0..16).map(|i| (i * 37 + salt) % 101 - 50).collect()
}

fn scrape(addr: SocketAddr) -> String {
    aoft_obs::scrape(addr).expect("endpoint answers")
}

/// `name` on the endpoint at `addr`, its samples summed over labels.
fn sample(addr: SocketAddr, name: &str) -> f64 {
    aoft_obs::prom::parse_samples(&scrape(addr)).expect("exposition parses")[name]
}

/// In-process links that are handed out only once the gate opens (its
/// sender is dropped): a worker holding a job waits there, and the jobs
/// behind it stay queued.
struct Gated {
    gate: Receiver<()>,
    links: InProc,
}

impl Transport<Packet<Msg>> for Gated {
    fn connect_tx(
        &self,
        link: LinkId,
        deadline: Duration,
    ) -> Result<Box<dyn LinkTx<Packet<Msg>>>, NetError> {
        let _ = self.gate.recv();
        self.links.connect_tx(link, deadline)
    }

    fn connect_rx(
        &self,
        link: LinkId,
        deadline: Duration,
    ) -> Result<Box<dyn LinkRx<Packet<Msg>>>, NetError> {
        let _ = self.gate.recv();
        self.links.connect_rx(link, deadline)
    }
}

#[test]
fn two_services_in_one_process_report_disjoint_numbers() {
    let (open, gate) = crossbeam_channel::unbounded::<()>();
    let gated = Gated {
        gate,
        links: InProc::new(),
    };
    let a =
        SortService::start(SvcConfig::new(2).metrics_addr(ephemeral()), gated).expect("A starts");
    // Bound after A, so dropped before it: should an assertion below fail,
    // the gate opens before A's drop joins the worker waiting there.
    let open = open;
    let b_config = SvcConfig::new(3)
        .max_attempts(4)
        .quarantine_after(1)
        .metrics_addr(ephemeral());
    let b = SortService::start(b_config, InProc::new()).expect("B starts");
    let (a_addr, b_addr) = (a.metrics_addr().unwrap(), b.metrics_addr().unwrap());

    // A's one worker waits at the gate with its first job; three queue.
    let held: Vec<_> = (0..4)
        .map(|i| a.submit(JobSpec::new(keys(i))).expect("A admits"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while a.metrics().queue_depth != 3 {
        assert!(Instant::now() < deadline, "A's worker never took a job");
        std::thread::sleep(Duration::from_millis(1));
    }

    // B serves five jobs; one crashes a node, which B quarantines.
    let crash =
        FaultPlan::new().with_fault(NodeId::new(5), FaultKind::Crash, Trigger::from_seq(0), 7);
    for i in 0..5 {
        let mut spec = JobSpec::new(keys(10 + i));
        if i == 2 {
            spec = spec.fault_plan(crash.clone());
        }
        b.submit(spec)
            .expect("B admits")
            .wait()
            .expect("B recovers");
    }
    let b_quarantined = b.quarantined().len() as f64;
    assert!(b_quarantined > 0.0, "the crash must quarantine a node");
    assert_eq!(sample(b_addr, "aoft_jobs_completed_total"), 5.0);
    assert_eq!(sample(b_addr, "aoft_quarantined_nodes"), b_quarantined);
    assert_eq!(sample(a_addr, "aoft_jobs_completed_total"), 0.0);
    assert_eq!(sample(a_addr, "aoft_quarantined_nodes"), 0.0);
    assert_eq!(sample(a_addr, "aoft_queue_depth"), 3.0);
    b.shutdown();
    assert_eq!(
        sample(a_addr, "aoft_queue_depth"),
        3.0,
        "B's shutdown leaves A's queue as it is"
    );

    drop(open);
    for handle in held {
        handle.wait().expect("A's jobs run once the gate opens");
    }
    assert_eq!(sample(a_addr, "aoft_jobs_completed_total"), 4.0);
    assert_eq!(sample(a_addr, "aoft_queue_depth"), 0.0);
    a.shutdown();
}

#[test]
fn two_fleets_in_one_process_report_disjoint_numbers() {
    let start = |config: FleetConfig| {
        FleetRouter::start(config, |_| Ok(InProc::new())).expect("fleet starts")
    };
    let cube = SvcConfig::new(1).metrics_addr(ephemeral());
    let a = start(FleetConfig::new(cube.clone(), 3));
    let b = start(FleetConfig::new(cube, 1).spares(1));
    for i in 0..3 {
        let job = a.submit(JobSpec::new(keys(i))).expect("A admits");
        job.wait().expect("A sorts");
    }
    let job = b.submit(JobSpec::new(keys(9))).expect("B admits");
    job.wait().expect("B sorts");
    let (a_addr, b_addr) = (a.metrics_addr().unwrap(), b.metrics_addr().unwrap());

    // The fleet's own families, and its cubes' service families.
    let fleet_lines = |addr| -> Vec<String> {
        scrape(addr)
            .lines()
            .filter(|l| l.starts_with("aoft_fleet_") || l.contains("cube=\""))
            .map(String::from)
            .collect()
    };
    let health = |lines: &[String]| {
        let samples = lines
            .iter()
            .filter(|l| l.starts_with("aoft_fleet_cube_health{"));
        samples.count()
    };
    let a_lines = fleet_lines(a_addr);
    assert_eq!(sample(a_addr, "aoft_fleet_cubes"), 3.0);
    assert_eq!(sample(b_addr, "aoft_fleet_cubes"), 2.0);
    assert_eq!(health(&a_lines), 3);
    assert_eq!(health(&fleet_lines(b_addr)), 2);
    assert_eq!(sample(a_addr, "aoft_jobs_completed_total"), 3.0);
    assert_eq!(sample(b_addr, "aoft_jobs_completed_total"), 1.0);
    drop(b);
    assert_eq!(
        fleet_lines(a_addr),
        a_lines,
        "dropping one fleet changes nothing on the other's scrape"
    );
}
