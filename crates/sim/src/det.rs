//! Deterministic cooperative execution: the same machine, the same node
//! programs, but every scheduling decision made by a round-robin baton
//! instead of the OS.
//!
//! # Why
//!
//! The thread-per-node [`Engine`](crate::Engine) is deterministic in its
//! *virtual* times (the Lamport clock rule), but not in its *failure
//! behaviour*: receive timeouts race against wall-clock load, and which
//! blocked node observes a fail-stop cancellation first depends on OS
//! scheduling. A failing nightly soak therefore cannot be re-run
//! interleaving-for-interleaving. [`DetEngine`] removes every such race:
//! given the same program, fault plan and seeds, two runs produce bit-equal
//! outputs, metrics, traces and error-report sequences — the property the
//! `aoft-replay` crate records and verifies.
//!
//! # How
//!
//! One participant per node plus one for the host. Each runs on its own
//! (small-stack) OS thread so the blocking [`Program`] API is unchanged, but
//! exactly one participant holds the *baton* at any instant; all others are
//! parked. The baton holder runs until it blocks on a receive whose queue is
//! empty, then hands the baton to the next runnable participant in label
//! order. Sends never block (queues are unbounded) and never yield.
//!
//! Timeouts are virtual: a blocked receive times out only when the whole
//! machine is stalled — no participant is runnable — at which point the
//! lowest-labelled blocked participant is woken with a timeout verdict (or a
//! cancellation verdict once the machine is fail-stopping). A genuinely
//! starved receiver thus still observes the paper's assumption-4 "absence of
//! a message is detectable", while a receiver that merely ran ahead of its
//! peer never times out spuriously, no matter how slow the host machine is.
//!
//! Because only one thread is ever runnable, a 4096-node (d = 12) machine
//! costs one context switch per blocking receive rather than true thread
//! contention, which is what makes d = 10..12 sweeps CI-affordable.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use aoft_hypercube::{Hypercube, NodeId};
use aoft_net::{CancelToken, LinkRx, LinkTx, NetError};
use crossbeam_channel::unbounded;
use parking_lot::Mutex;

use crate::adversary::AdversarySet;
use crate::engine::{assemble_report, RunReport, Simulator};
use crate::host::HostCtx;
use crate::message::{Packet, Payload};
use crate::node::NodeCtx;
use crate::program::Program;
use crate::SimConfig;

/// Stack size per participant thread. Node programs keep their working sets
/// on the heap, so 512 KiB leaves generous headroom while letting a d = 12
/// machine (4097 threads) fit comfortably in address-space limits.
const PARTICIPANT_STACK: usize = 512 * 1024;

/// Why the stall resolver woke a blocked participant.
#[derive(Clone, Copy)]
enum Verdict {
    Timeout,
    Cancelled,
}

/// Scheduling state of one participant.
enum Status {
    /// Has work to do (or has not started); eligible for the baton.
    Runnable,
    /// Parked inside a receive on `chan`. `verdict` is set by the stall
    /// resolver when the whole machine is blocked.
    Blocked {
        chan: usize,
        verdict: Option<Verdict>,
    },
    /// Finished; never scheduled again.
    Done,
}

/// One directed message queue between two participants.
struct ChanState<Q> {
    queue: VecDeque<Q>,
    closed: bool,
    sender: usize,
    receiver: usize,
}

struct SchedState<Q> {
    /// Set once all participant threads are spawned and registered.
    started: bool,
    /// Index of the participant currently holding the baton.
    active: usize,
    participants: Vec<Status>,
    threads: Vec<Option<Thread>>,
    chans: Vec<ChanState<Q>>,
}

struct Scheduler<Q> {
    state: Mutex<SchedState<Q>>,
    cancel: CancelToken,
}

impl<Q: Send> Scheduler<Q> {
    /// Blocks until this participant holds the baton.
    fn wait_for_turn(&self, me: usize) {
        loop {
            {
                let st = self.state.lock();
                if st.started && st.active == me {
                    return;
                }
            }
            std::thread::park();
        }
    }

    /// Hands the baton to the next runnable participant after `me` in
    /// round-robin order. Called with `me`'s status already updated. When no
    /// participant is runnable the machine is stalled: the lowest-labelled
    /// blocked participant is issued a verdict (its virtual timeout) and
    /// woken instead — possibly `me` itself.
    fn pass_baton(&self, st: &mut SchedState<Q>, me: usize) {
        let n = st.participants.len();
        for off in 1..=n {
            let i = (me + off) % n;
            if matches!(st.participants[i], Status::Runnable) {
                st.active = i;
                if let Some(t) = &st.threads[i] {
                    t.unpark();
                }
                return;
            }
        }
        let verdict = if self.cancel.is_cancelled() {
            Verdict::Cancelled
        } else {
            Verdict::Timeout
        };
        if let Some(i) =
            (0..n).find(|&i| matches!(st.participants[i], Status::Blocked { verdict: None, .. }))
        {
            if let Status::Blocked { verdict: v, .. } = &mut st.participants[i] {
                *v = Some(verdict);
            }
            st.active = i;
            if i != me {
                if let Some(t) = &st.threads[i] {
                    t.unpark();
                }
            }
        }
        // Otherwise every participant is Done and there is nothing left to
        // schedule.
    }

    /// Marks `me` finished: closes every queue it feeds (waking their
    /// blocked receivers) and passes the baton on.
    fn finish(&self, me: usize) {
        let mut st = self.state.lock();
        st.participants[me] = Status::Done;
        for idx in 0..st.chans.len() {
            if st.chans[idx].sender != me {
                continue;
            }
            st.chans[idx].closed = true;
            let receiver = st.chans[idx].receiver;
            if let Status::Blocked {
                chan,
                verdict: None,
            } = st.participants[receiver]
            {
                if chan == idx {
                    st.participants[receiver] = Status::Runnable;
                }
            }
        }
        if st.active == me {
            self.pass_baton(&mut st, me);
        }
    }
}

/// Marks its participant finished when dropped, so a panicking node program
/// still releases the baton and the rest of the machine can fail-stop
/// instead of deadlocking.
struct Baton<Q: Send> {
    sched: Arc<Scheduler<Q>>,
    me: usize,
}

impl<Q: Send> Drop for Baton<Q> {
    fn drop(&mut self) {
        self.sched.finish(self.me);
    }
}

/// Sending end of a deterministic link.
struct DetTx<Q> {
    sched: Arc<Scheduler<Q>>,
    chan: usize,
}

impl<Q: Send> LinkTx<Q> for DetTx<Q> {
    fn send(&self, msg: Q) -> Result<(), NetError> {
        let mut st = self.sched.state.lock();
        let (receiver, dead) = {
            let chan = &st.chans[self.chan];
            (
                chan.receiver,
                matches!(st.participants[chan.receiver], Status::Done),
            )
        };
        if dead {
            return Err(NetError::Closed);
        }
        st.chans[self.chan].queue.push_back(msg);
        // A delivery makes a receiver blocked on this queue runnable again —
        // but the sender keeps the baton; the receiver runs at its turn.
        if let Status::Blocked {
            chan,
            verdict: None,
        } = st.participants[receiver]
        {
            if chan == self.chan {
                st.participants[receiver] = Status::Runnable;
            }
        }
        Ok(())
    }
}

/// Receiving end of a deterministic link.
struct DetRx<Q> {
    sched: Arc<Scheduler<Q>>,
    chan: usize,
    owner: usize,
}

impl<Q: Send> LinkRx<Q> for DetRx<Q> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<Q, NetError> {
        let me = self.owner;
        loop {
            let mut st = self.sched.state.lock();
            debug_assert_eq!(st.active, me, "receive without holding the baton");
            if let Status::Blocked { verdict, .. } = &mut st.participants[me] {
                let verdict = verdict.take();
                st.participants[me] = Status::Runnable;
                match verdict {
                    Some(Verdict::Timeout) => {
                        return Err(NetError::Timeout { waited: timeout });
                    }
                    Some(Verdict::Cancelled) => return Err(NetError::Cancelled),
                    // Woken by a delivery or a close; fall through and look.
                    None => {}
                }
            }
            if cancel.is_cancelled() {
                return Err(NetError::Cancelled);
            }
            if let Some(msg) = st.chans[self.chan].queue.pop_front() {
                return Ok(msg);
            }
            if st.chans[self.chan].closed {
                return Err(NetError::Closed);
            }
            st.participants[me] = Status::Blocked {
                chan: self.chan,
                verdict: None,
            };
            self.sched.pass_baton(&mut st, me);
            let keep = st.active == me;
            drop(st);
            if !keep {
                self.sched.wait_for_turn(me);
            }
        }
    }
}

/// The deterministic counterpart of [`Engine`](crate::Engine): same
/// topology, same configuration, same [`Program`] API, but execution is
/// fully serialized under a cooperative round-robin scheduler with virtual
/// timeouts, so every run is bit-reproducible — see the [module
/// docs](self).
///
/// Construct with [`DetEngine::new`]; run through the [`Simulator`]
/// methods, which it shares with the threaded engine.
pub struct DetEngine {
    cube: Hypercube,
    config: SimConfig,
}

impl DetEngine {
    /// Creates a deterministic machine with the given topology and
    /// configuration.
    pub fn new(cube: Hypercube, config: SimConfig) -> Self {
        Self { cube, config }
    }

    /// The machine's topology.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }
}

impl<M: Payload> Simulator<M> for DetEngine {
    fn cube(&self) -> &Hypercube {
        &self.cube
    }

    fn config(&self) -> &SimConfig {
        &self.config
    }

    fn run_with_host<P, H, R>(
        &self,
        program: &P,
        adversaries: AdversarySet<M>,
        host_fn: H,
    ) -> (RunReport<P::Output>, R)
    where
        P: Program<M>,
        H: FnOnce(&mut HostCtx<'_, M>) -> R + Send,
        R: Send,
    {
        let n = self.cube.len();
        assert_eq!(
            adversaries.len(),
            n,
            "adversary set sized for {} nodes, machine has {n}",
            adversaries.len()
        );
        let dims = self.cube.dim() as usize;
        let host = n; // participant index of the host

        // Channel layout: node v's dimension-d inbox at v*dims + d (fed by
        // v's dimension-d neighbor), then node u's host uplink at
        // n*dims + u, then u's host downlink at n*dims + n + u.
        let mut chans: Vec<ChanState<Packet<M>>> = Vec::with_capacity(n * dims + 2 * n);
        for v in 0..n {
            for d in 0..dims {
                chans.push(ChanState {
                    queue: VecDeque::new(),
                    closed: false,
                    sender: v ^ (1 << d),
                    receiver: v,
                });
            }
        }
        for u in 0..n {
            chans.push(ChanState {
                queue: VecDeque::new(),
                closed: false,
                sender: u,
                receiver: host,
            });
        }
        for u in 0..n {
            chans.push(ChanState {
                queue: VecDeque::new(),
                closed: false,
                sender: host,
                receiver: u,
            });
        }

        let cancel = CancelToken::new();
        let sched = Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                started: false,
                active: 0,
                participants: (0..=n).map(|_| Status::Runnable).collect(),
                threads: (0..=n).map(|_| None).collect(),
                chans,
            }),
            cancel: cancel.clone(),
        });

        let tx = |chan: usize| -> Box<dyn LinkTx<Packet<M>>> {
            Box::new(DetTx {
                sched: Arc::clone(&sched),
                chan,
            })
        };
        let rx = |chan: usize, owner: usize| -> Box<dyn LinkRx<Packet<M>>> {
            Box::new(DetRx {
                sched: Arc::clone(&sched),
                chan,
                owner,
            })
        };

        let (err_tx, err_rx) = unbounded();
        let cost = *self.config.cost();
        let timeout = self.config.timeout();
        let tracing = self.config.trace_enabled();
        let job = self.config.job_id();
        let cube = self.cube;

        let mut node_inputs = Vec::with_capacity(n);
        for (u, adversary) in adversaries.take_all().into_iter().enumerate() {
            let outs: Vec<_> = (0..dims).map(|d| tx((u ^ (1 << d)) * dims + d)).collect();
            let ins: Vec<_> = (0..dims).map(|d| rx(u * dims + d, u)).collect();
            let host_tx = tx(n * dims + u);
            let host_rx = rx(n * dims + n + u, u);
            node_inputs.push((
                NodeId::new(u as u32),
                outs,
                ins,
                host_tx,
                host_rx,
                adversary,
            ));
        }
        let to_nodes: Vec<_> = (0..n).map(|u| tx(n * dims + n + u)).collect();
        let from_nodes: Vec<_> = (0..n).map(|u| rx(n * dims + u, host)).collect();

        let (node_results, host_result, host_metrics, host_events) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (id, outs, ins, host_tx, host_rx, adversary) in node_inputs {
                let err_tx = err_tx.clone();
                let cancel = cancel.clone();
                let cost = &cost;
                let program = &program;
                let sched = Arc::clone(&sched);
                let me = id.index();
                let thread = std::thread::Builder::new()
                    .name(format!("det-node-{me}"))
                    .stack_size(PARTICIPANT_STACK)
                    .spawn_scoped(scope, move || {
                        let baton = Baton {
                            sched: Arc::clone(&sched),
                            me,
                        };
                        sched.wait_for_turn(me);
                        let mut ctx = NodeCtx::new(
                            id, cube, cost, timeout, outs, ins, host_tx, host_rx, err_tx, cancel,
                            adversary, job, tracing,
                        );
                        let result = program.run(&mut ctx);
                        let (metrics, events) = ctx.finish();
                        drop(baton);
                        (id, result, metrics, events)
                    })
                    .expect("spawn deterministic node thread");
                handles.push(thread);
            }

            let host_handle = {
                let err_tx = err_tx.clone();
                let cancel = cancel.clone();
                let cost = &cost;
                let sched = Arc::clone(&sched);
                std::thread::Builder::new()
                    .name("det-host".into())
                    .stack_size(PARTICIPANT_STACK)
                    .spawn_scoped(scope, move || {
                        let baton = Baton {
                            sched: Arc::clone(&sched),
                            me: host,
                        };
                        sched.wait_for_turn(host);
                        let mut ctx = HostCtx::new(
                            cube, cost, timeout, to_nodes, from_nodes, err_tx, cancel, job, tracing,
                        );
                        let result = host_fn(&mut ctx);
                        let (metrics, events) = ctx.finish();
                        drop(baton);
                        (result, metrics, events)
                    })
                    .expect("spawn deterministic host thread")
            };

            // Everyone is spawned and parked (or about to park); register
            // the thread handles and hand node 0 the first baton.
            {
                let mut st = sched.state.lock();
                for (i, h) in handles.iter().enumerate() {
                    st.threads[i] = Some(h.thread().clone());
                }
                st.threads[host] = Some(host_handle.thread().clone());
                st.started = true;
                st.active = 0;
                let first = st.threads[0].clone();
                drop(st);
                if let Some(t) = first {
                    t.unpark();
                }
            }

            // Join everything before surfacing any panic: the Baton
            // guard keeps the schedule draining even across a panicking
            // participant, so all threads terminate.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let host_joined = host_handle.join();
            let mut node_results: Vec<_> = joined
                .into_iter()
                .map(|r| r.expect("node thread panicked"))
                .collect();
            node_results.sort_by_key(|(id, ..)| *id);
            let (host_result, host_metrics, host_events) =
                host_joined.expect("host thread panicked");
            (node_results, host_result, host_metrics, host_events)
        });

        drop(err_tx);
        let reports: Vec<_> = err_rx.try_iter().collect();
        let report = assemble_report(node_results, host_metrics, host_events, reports);
        (report, host_result)
    }
}

impl fmt::Debug for DetEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetEngine")
            .field("cube", &self.cube)
            .field("config", &self.config)
            .finish()
    }
}

impl fmt::Display for DetEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DetEngine on {}", self.cube)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::message::Word;
    use crate::{Engine, NodeCtx, Outcome};

    struct Swap;

    impl Program<Word> for Swap {
        type Output = u32;

        fn run(&self, ctx: &mut NodeCtx<'_, Word>) -> Result<u32, SimError> {
            let partner = ctx.id().neighbor(0);
            ctx.send(partner, Word(ctx.id().raw()))?;
            let got = ctx.recv_from(partner)?;
            Ok(got.0)
        }
    }

    #[test]
    fn matches_threaded_engine_on_honest_run() {
        let cube = Hypercube::new(3).unwrap();
        let threaded = Engine::new(cube, SimConfig::default()).run(&Swap);
        let det = DetEngine::new(cube, SimConfig::default());
        let report = Simulator::<Word>::run(&det, &Swap);
        assert_eq!(report.outputs(), threaded.outputs());
        // Virtual-time accounting is identical: the cost model and the
        // Lamport rule do not depend on the scheduler.
        for (a, b) in report
            .metrics()
            .nodes
            .iter()
            .zip(threaded.metrics().nodes.iter())
        {
            assert_eq!(a.msgs_sent, b.msgs_sent);
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    struct MutualStarve;

    impl Program<Word> for MutualStarve {
        type Output = ();

        // Every node waits for a message nobody ever sends: the machine
        // stalls globally and the virtual timeout must fire — wall-clock
        // never enters into it.
        fn run(&self, ctx: &mut NodeCtx<'_, Word>) -> Result<(), SimError> {
            let partner = ctx.id().neighbor(0);
            ctx.recv_from(partner)?;
            Ok(())
        }
    }

    #[test]
    fn global_stall_resolves_to_virtual_timeouts() {
        let cube = Hypercube::new(1).unwrap();
        // An hour-long timeout: a wall-clock wait would hang the test, the
        // virtual one resolves instantly.
        let config = SimConfig::default().recv_timeout(Duration::from_secs(3600));
        let det = DetEngine::new(cube, config);
        let a = Simulator::<Word>::run(&det, &MutualStarve);
        let b = Simulator::<Word>::run(&det, &MutualStarve);
        match a.outcome() {
            Outcome::FailStop { reports } => {
                assert!(!reports.is_empty());
                assert!(reports[0].detail.contains("no message from"));
            }
            Outcome::Completed(_) => panic!("starved machine completed"),
        }
        assert_eq!(a.reports(), b.reports(), "fail-stop cascade is bit-stable");
    }
}
