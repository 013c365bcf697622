//! Multi-process fleet mode: cube-host child processes behind one parent
//! router, wired over real sockets.
//!
//! The in-process [`FleetRouter`](crate::FleetRouter) owns its cubes as
//! threads; this module splits that across *processes*. Each child runs a
//! [`CubeHost`]: a complete [`SortService`] cube on its own loopback
//! transport, plus one control-plane connection to the parent — a single
//! multiplexed session (`aoft_net::MuxTransport`) carrying the job link
//! and the result link. The parent runs a [`RemoteFleet`]: it routes jobs
//! round-robin across live children, fails over when a child answers
//! loudly or its session dies, and records the quarantine each child
//! reports — the paper's "appropriate action" loop stretched across a
//! process boundary.
//!
//! Labels: the parent is node [`PARENT_LABEL`] on the control plane; each
//! child picks a label below it, so the child is always the `lo` end of
//! the peer pair and therefore the dialing side. The parent only binds
//! and waits — it needs no routing table for children.
//!
//! Everything on the wire is [`Wire`]-encoded and travels in mux Data
//! frames: CRC-checked, length-delimited, demux-tagged. A corrupted
//! control stream kills the session, which the parent observes as a dead
//! child — detectable, never silent.

use std::net::SocketAddr;
use std::time::Duration;

use aoft_net::wire::{CodecError, Wire};
use aoft_net::{CancelToken, LinkId, LinkRx, LinkTx, MuxConfig, MuxTransport, NetError, Transport};
use aoft_sim::Packet;
use aoft_sort::Msg;

use crate::config::SvcConfig;
use crate::job::JobSpec;
use crate::service::SortService;

/// The parent's node label on the control plane. Children must choose
/// labels strictly below this so they are the dialing (`lo`) end of their
/// session with the parent.
pub(crate) const PARENT_LABEL: u32 = 1000;

/// Demux tag of the parent→child job link.
const JOB_TAG: u8 = 0;
/// Demux tag of the child→parent result link.
const RESULT_TAG: u8 = 1;

/// One control-plane message between the parent and a cube host.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RemoteMsg {
    /// Parent → child: sort these keys.
    Job {
        /// Parent-assigned sequence number, echoed in the answer.
        seq: u64,
        /// The keys to sort.
        keys: Vec<i32>,
    },
    /// Child → parent: the job completed with a verified output.
    Done {
        /// Echo of the job's sequence number.
        seq: u64,
        /// The verified sorted keys.
        output: Vec<i32>,
        /// Attempts the child's cube consumed, successful one included.
        attempts: u64,
        /// Whether the job survived at least one fail-stop and retry.
        recovered: bool,
        /// Nodes the child's cube has quarantined so far (cumulative) —
        /// how quarantine state crosses the process boundary.
        quarantined: Vec<u32>,
    },
    /// Child → parent: the job failed loudly and should fail over.
    Failed {
        /// Echo of the job's sequence number.
        seq: u64,
        /// The child-side error, for diagnostics.
        error: String,
    },
}

impl Wire for RemoteMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RemoteMsg::Job { seq, keys } => {
                out.push(0);
                seq.encode(out);
                keys.encode(out);
            }
            RemoteMsg::Done {
                seq,
                output,
                attempts,
                recovered,
                quarantined,
            } => {
                out.push(1);
                seq.encode(out);
                output.encode(out);
                attempts.encode(out);
                recovered.encode(out);
                quarantined.encode(out);
            }
            RemoteMsg::Failed { seq, error } => {
                out.push(2);
                seq.encode(out);
                error.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = u8::decode(input)?;
        match tag {
            0 => Ok(RemoteMsg::Job {
                seq: u64::decode(input)?,
                keys: Vec::<i32>::decode(input)?,
            }),
            1 => Ok(RemoteMsg::Done {
                seq: u64::decode(input)?,
                output: Vec::<i32>::decode(input)?,
                attempts: u64::decode(input)?,
                recovered: bool::decode(input)?,
                quarantined: Vec::<u32>::decode(input)?,
            }),
            2 => Ok(RemoteMsg::Failed {
                seq: u64::decode(input)?,
                error: String::decode(input)?,
            }),
            other => Err(CodecError::msg(format!(
                "unknown remote control message tag {other}"
            ))),
        }
    }
}

fn job_link(child: u32) -> LinkId {
    LinkId {
        from: PARENT_LABEL,
        to: child,
        tag: JOB_TAG,
    }
}

fn result_link(child: u32) -> LinkId {
    LinkId {
        from: child,
        to: PARENT_LABEL,
        tag: RESULT_TAG,
    }
}

/// A child process's side of the control plane: one resident
/// [`SortService`] cube, served job-by-job to the parent until the parent
/// goes away.
pub struct CubeHost;

impl CubeHost {
    /// Runs the serve loop: dial the parent at `parent`, then answer every
    /// `RemoteMsg::Job` with `Done` or `Failed` until the parent's
    /// session ends (orderly close or death), which is the host's normal
    /// exit. `label` must be below `PARENT_LABEL` and unique per child.
    ///
    /// The cube itself runs on `cube_transport` — typically a loopback
    /// [`MuxTransport`], optionally wrapped in a fault injector — so one
    /// process hosts one complete, independently-failing machine.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the control plane cannot be established, or the
    /// cube's service fails to start (reported as [`NetError::Io`]).
    pub fn serve<T>(
        label: u32,
        parent: SocketAddr,
        svc: SvcConfig,
        cube_transport: T,
    ) -> Result<(), NetError>
    where
        T: Transport<Packet<Msg>> + Send + Sync + 'static,
    {
        if label >= PARENT_LABEL {
            return Err(NetError::Io(format!(
                "cube host label {label} must be below the parent label {PARENT_LABEL}"
            )));
        }
        let service = SortService::start(svc, cube_transport)
            .map_err(|e| NetError::Io(format!("cube service failed to start: {e}")))?;
        let control = MuxTransport::bind(MuxConfig::default())?;
        control.set_peer(PARENT_LABEL, parent);
        let deadline = Duration::from_secs(30);
        // The child dials: connect_rx on the job link and connect_tx on the
        // result link both resolve to the one parent session.
        let jobs: Box<dyn LinkRx<RemoteMsg>> = control.connect_rx(job_link(label), deadline)?;
        let results: Box<dyn LinkTx<RemoteMsg>> =
            control.connect_tx(result_link(label), deadline)?;
        let cancel = CancelToken::new();
        loop {
            let msg = match jobs.recv_deadline(Duration::from_secs(1), &cancel) {
                Ok(msg) => msg,
                Err(NetError::Timeout { .. }) => continue,
                // The parent closed the session or died: orderly exit.
                Err(NetError::Closed) | Err(NetError::PeerDead { .. }) => break,
                Err(err) => return Err(err),
            };
            let RemoteMsg::Job { seq, keys } = msg else {
                // The parent never sends answers; a stray one is corruption
                // the framing somehow missed. Refuse loudly.
                return Err(NetError::Codec("unexpected message on the job link".into()));
            };
            let answer = match service.submit(JobSpec::new(keys)) {
                Ok(handle) => match handle.wait() {
                    Ok(report) => {
                        let recovered = report.recovered();
                        RemoteMsg::Done {
                            seq,
                            output: report.output,
                            attempts: report.attempts as u64,
                            recovered,
                            quarantined: service.quarantined(),
                        }
                    }
                    Err(err) => RemoteMsg::Failed {
                        seq,
                        error: err.to_string(),
                    },
                },
                Err(err) => RemoteMsg::Failed {
                    seq,
                    error: err.to_string(),
                },
            };
            if results.send(answer).is_err() {
                break; // parent gone mid-answer
            }
        }
        service.shutdown();
        Ok(())
    }
}

/// One completed remote job: which child answered and how it got there.
#[derive(Debug, Clone)]
pub struct RemoteReport {
    /// Label of the child that produced the verified output.
    pub cube: u32,
    /// Children this job was rerouted away from before succeeding.
    pub reroutes: usize,
    /// The verified sorted keys.
    pub output: Vec<i32>,
    /// Attempts the answering child's cube consumed.
    pub attempts: u64,
    /// Whether the answering child recovered from at least one fail-stop.
    pub recovered: bool,
}

struct RemoteCube {
    label: u32,
    jobs: Box<dyn LinkTx<RemoteMsg>>,
    results: Box<dyn LinkRx<RemoteMsg>>,
    /// Cleared when the child's session dies or it stops answering; dead
    /// cubes leave the rotation permanently (a supervisor would respawn
    /// the process — out of scope here).
    alive: bool,
    /// Nodes this child has reported quarantined (cumulative).
    quarantined: Vec<u32>,
}

/// The parent's side of the control plane: routes jobs across cube-host
/// children, failing over on loud failures and dead sessions.
pub struct RemoteFleet {
    // Owns the control transport: dropping the fleet closes every child's
    // session, which is each child's exit signal.
    _control: MuxTransport,
    cubes: Vec<RemoteCube>,
    rr: usize,
    next_seq: u64,
    job_timeout: Duration,
    cancel: CancelToken,
    failovers: u64,
}

impl RemoteFleet {
    /// Waits for every child in `children` to dial `control` and wires
    /// their job/result links. `job_timeout` bounds how long one child may
    /// hold a job before the parent declares it dead and reroutes.
    ///
    /// # Errors
    ///
    /// [`NetError`] when any child fails to connect within `deadline`.
    pub fn connect(
        control: MuxTransport,
        children: &[u32],
        deadline: Duration,
        job_timeout: Duration,
    ) -> Result<Self, NetError> {
        let mut cubes = Vec::with_capacity(children.len());
        for &label in children {
            let jobs = control.connect_tx(job_link(label), deadline)?;
            let results = control.connect_rx(result_link(label), deadline)?;
            cubes.push(RemoteCube {
                label,
                jobs,
                results,
                alive: true,
                quarantined: Vec::new(),
            });
        }
        Ok(Self {
            _control: control,
            cubes,
            rr: 0,
            next_seq: 0,
            job_timeout,
            cancel: CancelToken::new(),
            failovers: 0,
        })
    }

    /// Children still in the routing rotation.
    pub(crate) fn alive(&self) -> usize {
        self.cubes.iter().filter(|c| c.alive).count()
    }

    /// Jobs that had to be rerouted away from a failing child.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Quarantined nodes as last reported by each live child, keyed by
    /// child label — cube-local recovery state, visible across the
    /// process boundary.
    pub fn quarantine_map(&self) -> Vec<(u32, Vec<u32>)> {
        self.cubes
            .iter()
            .map(|c| (c.label, c.quarantined.clone()))
            .collect()
    }

    /// Sorts `keys` somewhere in the fleet: round-robin over live
    /// children, rerouting on a loud child failure or a dead session until
    /// a child answers or none remain.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when no live child remains;
    /// [`NetError::Io`] when every tried child failed the job loudly.
    pub fn submit(&mut self, keys: Vec<i32>) -> Result<RemoteReport, NetError> {
        let mut reroutes = 0usize;
        let mut last_error: Option<String> = None;
        for _ in 0..self.cubes.len() {
            let Some(index) = self.next_cube() else { break };
            let seq = self.next_seq;
            self.next_seq += 1;
            match self.run_on(index, seq, keys.clone()) {
                Ok((output, attempts, recovered)) => {
                    return Ok(RemoteReport {
                        cube: self.cubes[index].label,
                        reroutes,
                        output,
                        attempts,
                        recovered,
                    });
                }
                Err(RunError::ChildFailed(error)) => {
                    // The child is alive and honest about the failure (its
                    // own retries are exhausted); try a different one.
                    self.failovers += 1;
                    aoft_obs::global().fleet_failovers.inc();
                    reroutes += 1;
                    last_error = Some(error);
                }
                Err(RunError::ChildDead(err)) => {
                    self.cubes[index].alive = false;
                    self.failovers += 1;
                    aoft_obs::global().fleet_failovers.inc();
                    reroutes += 1;
                    last_error = Some(err.to_string());
                }
            }
        }
        match last_error {
            Some(error) if self.alive() > 0 => Err(NetError::Io(format!(
                "every live child failed the job: {error}"
            ))),
            _ => Err(NetError::Closed),
        }
    }

    /// The next live cube in round-robin order.
    fn next_cube(&mut self) -> Option<usize> {
        let n = self.cubes.len();
        for offset in 0..n {
            let index = (self.rr + offset) % n;
            if self.cubes[index].alive {
                self.rr = (index + 1) % n;
                return Some(index);
            }
        }
        None
    }

    fn run_on(
        &mut self,
        index: usize,
        seq: u64,
        keys: Vec<i32>,
    ) -> Result<(Vec<i32>, u64, bool), RunError> {
        let cube = &mut self.cubes[index];
        cube.jobs
            .send(RemoteMsg::Job { seq, keys })
            .map_err(RunError::ChildDead)?;
        loop {
            let answer = cube
                .results
                .recv_deadline(self.job_timeout, &self.cancel)
                .map_err(RunError::ChildDead)?;
            match answer {
                RemoteMsg::Done {
                    seq: got,
                    output,
                    attempts,
                    recovered,
                    quarantined,
                } => {
                    cube.quarantined = quarantined;
                    if got != seq {
                        continue; // stale answer from a job we rerouted past
                    }
                    return Ok((output, attempts, recovered));
                }
                RemoteMsg::Failed { seq: got, error } => {
                    if got != seq {
                        continue;
                    }
                    return Err(RunError::ChildFailed(error));
                }
                RemoteMsg::Job { .. } => {
                    return Err(RunError::ChildDead(NetError::Codec(
                        "unexpected message on the result link".into(),
                    )));
                }
            }
        }
    }
}

enum RunError {
    /// The child answered `Failed`: alive, but its cube gave up loudly.
    ChildFailed(String),
    /// The child's session died or timed out: out of the rotation.
    ChildDead(NetError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Control-plane bytes come from another process: decoding any
        /// byte string, valid message tag or not, ends in `Ok` or `Err`,
        /// never a panic.
        #[test]
        fn remote_msg_decode_never_panics(
            tag in 0u8..4,
            body in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&body);
            let _ = RemoteMsg::decode(&mut &bytes[..]);
            let _ = RemoteMsg::decode(&mut &body[..]);
        }
    }

    #[test]
    fn remote_msg_round_trips() {
        let msgs = [
            RemoteMsg::Job {
                seq: 7,
                keys: vec![3, -1, 4, 1, -5],
            },
            RemoteMsg::Done {
                seq: 7,
                output: vec![-5, -1, 1, 3, 4],
                attempts: 2,
                recovered: true,
                quarantined: vec![5],
            },
            RemoteMsg::Failed {
                seq: 8,
                error: "cube exhausted".into(),
            },
        ];
        for msg in msgs {
            let bytes = aoft_net::wire::to_bytes(&msg);
            let got: RemoteMsg = aoft_net::wire::from_bytes(&bytes).expect("round trip");
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let err = aoft_net::wire::from_bytes::<RemoteMsg>(&[9]).expect_err("unknown tag");
        assert!(err.0.contains("unknown remote control message tag"));
    }

    /// End-to-end control plane inside one process: a cube host serving a
    /// loopback cube, a fleet routing to it over real sockets.
    #[test]
    fn cube_host_answers_a_fleet_over_sockets() {
        let parent_control = MuxTransport::bind(MuxConfig::default()).expect("bind parent");
        let parent_addr = parent_control.local_addr();
        let host = std::thread::spawn(move || {
            let cube = MuxTransport::loopback(8).expect("bind cube loopback");
            let svc = SvcConfig::new(3).recv_timeout(Duration::from_millis(800));
            CubeHost::serve(101, parent_addr, svc, cube).expect("host serves until close");
        });
        let mut fleet = RemoteFleet::connect(
            parent_control,
            &[101],
            Duration::from_secs(10),
            Duration::from_secs(30),
        )
        .expect("child connects");
        let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-37) % 60).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let report = fleet.submit(keys).expect("remote job completes");
        assert_eq!(report.output, expected);
        assert_eq!(report.cube, 101);
        assert_eq!(report.reroutes, 0);
        drop(fleet); // closes the session; the host exits its serve loop
        host.join().expect("host thread exits cleanly");
    }
}
