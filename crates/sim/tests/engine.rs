//! Engine-level behaviour tests: message delivery, virtual time, fail-stop,
//! adversaries, host traffic and determinism.

use std::time::Duration;

use aoft_hypercube::{Hypercube, NodeId};
use aoft_sim::{
    Action, Adversary, AdversarySet, CostModel, Engine, NodeCtx, Program, SendContext, SimConfig,
    SimError, Ticks, Word,
};

fn engine(dim: u32) -> Engine {
    Engine::new(
        Hypercube::new(dim).unwrap(),
        SimConfig::new()
            .cost_model(CostModel::unit())
            .recv_timeout(Duration::from_millis(300)),
    )
}

/// Every node sends its label across every dimension and checks what it
/// hears back.
struct AllDimExchange;

impl Program<Word> for AllDimExchange {
    type Output = Vec<u32>;

    fn run(&self, ctx: &mut NodeCtx<'_, Word>) -> Result<Vec<u32>, SimError> {
        let mut heard = Vec::new();
        for d in 0..ctx.dim() {
            let partner = ctx.id().neighbor(d);
            ctx.send(partner, Word(ctx.id().raw()))?;
            heard.push(ctx.recv_from(partner)?.0);
        }
        Ok(heard)
    }
}

#[test]
fn exchange_delivers_correct_values() {
    let report = engine(3).run(&AllDimExchange);
    let outputs = report.outputs().expect("honest run completes");
    for (i, heard) in outputs.iter().enumerate() {
        let me = NodeId::new(i as u32);
        let expected: Vec<u32> = (0..3).map(|d| me.neighbor(d).raw()).collect();
        assert_eq!(heard, &expected, "node {me}");
    }
}

#[test]
fn virtual_time_is_deterministic() {
    let a = engine(4).run(&AllDimExchange);
    let b = engine(4).run(&AllDimExchange);
    assert_eq!(a.metrics().elapsed(), b.metrics().elapsed());
    for (ma, mb) in a.metrics().nodes.iter().zip(&b.metrics().nodes) {
        assert_eq!(ma, mb, "per-node metrics identical across runs");
    }
}

#[test]
fn unit_cost_accounting_per_node() {
    // Unit model: each send costs α + β·1 = 2 ticks. Each node sends once
    // per dimension.
    let report = engine(2).run(&AllDimExchange);
    for m in &report.metrics().nodes {
        assert_eq!(m.msgs_sent, 2);
        assert_eq!(m.words_sent, 2);
        assert_eq!(m.msgs_received, 2);
        assert_eq!(m.send_time, Ticks::from_ticks(4));
        assert_eq!(m.compute_time, Ticks::ZERO);
    }
    // All nodes act in lockstep; nobody should finish before 4 ticks.
    assert_eq!(report.metrics().elapsed(), Ticks::from_ticks(4));
}

#[test]
fn charges_accumulate_compute_time() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        ctx.charge_compares(3);
        ctx.charge_moves(5);
        Ok(())
    };
    let report = engine(1).run(&program);
    for m in &report.metrics().nodes {
        assert_eq!(m.compute_time, Ticks::from_ticks(8));
        assert_eq!(m.finished_at, Ticks::from_ticks(8));
    }
}

#[test]
fn recv_synchronizes_clocks() {
    // Node 0 computes for 100 ticks then sends; node 1 receives and must
    // see its clock jump past 100.
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<u64, SimError> {
        if ctx.id().raw() == 0 {
            ctx.charge(Ticks::from_ticks(100));
            ctx.send(NodeId::new(1), Word(1))?;
        } else {
            ctx.recv_from(NodeId::new(0))?;
        }
        Ok(ctx.now().as_ticks())
    };
    let outputs = engine(1).run(&program).into_outputs().unwrap();
    assert_eq!(outputs[0], 102); // 100 compute + 2 send
    assert_eq!(outputs[1], 102); // synced to availability time
}

#[test]
fn send_to_non_neighbor_is_rejected() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        if ctx.id().raw() == 0 {
            match ctx.send(NodeId::new(3), Word(0)) {
                Err(SimError::NotANeighbor { from, to }) => {
                    assert_eq!(from, NodeId::new(0));
                    assert_eq!(to, NodeId::new(3));
                }
                other => panic!("expected NotANeighbor, got {other:?}"),
            }
        }
        Ok(())
    };
    let report = engine(2).run(&program);
    assert!(!report.is_fail_stop());
}

#[test]
fn recv_from_outside_cube_is_rejected() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        match ctx.recv_from(NodeId::new(9)) {
            Err(SimError::NotANeighbor { .. }) => Ok(()),
            other => panic!("expected NotANeighbor, got {other:?}"),
        }
    };
    assert!(!engine(1).run(&program).is_fail_stop());
}

#[test]
fn missing_message_times_out() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        if ctx.id().raw() == 1 {
            // Node 0 never sends: we must observe a timeout (assumption 4).
            match ctx.recv_from(NodeId::new(0)) {
                Err(SimError::MissingMessage { from, .. }) => {
                    assert_eq!(from, NodeId::new(0));
                }
                // Node 0 may already have exited, closing the link.
                Err(SimError::LinkClosed { .. }) => {}
                other => panic!("expected missing message, got {other:?}"),
            }
        }
        Ok(())
    };
    assert!(!engine(1).run(&program).is_fail_stop());
}

#[test]
fn signal_error_fail_stops_whole_machine() {
    const JOB: u64 = 0x5167_0001;
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        if ctx.id().raw() == 2 {
            // Long enough that a poll ramp would be at its coarsest slices.
            std::thread::sleep(Duration::from_millis(250));
            ctx.signal_error(42, "synthetic violation");
            return Err(SimError::Cancelled);
        }
        // Everyone else blocks on a message that never comes; the
        // cancellation itself must wake them — node links and host links
        // alike — not a timer.
        let result = if ctx.id().raw() % 2 == 0 {
            ctx.recv_from(ctx.id().neighbor(0))
        } else {
            ctx.recv_host()
        };
        match result {
            Err(SimError::Cancelled) => Ok(()),
            other => panic!("expected cancellation, got {other:?}"),
        }
    };
    let eng = Engine::new(
        Hypercube::new(3).unwrap(),
        SimConfig::new()
            .cost_model(CostModel::unit())
            .recv_timeout(Duration::from_secs(30))
            .job(JOB),
    );
    let (report, host_saw) = eng.run_with_host(&program, AdversarySet::honest(8), |host| {
        host.recv_from(NodeId::new(0))
    });
    assert_eq!(host_saw.unwrap_err(), SimError::Cancelled);
    assert!(report.is_fail_stop());
    let primary = &report.reports()[0];
    assert_eq!(primary.detector, NodeId::new(2));
    assert_eq!(primary.code, 42);
    assert!(primary.detail.contains("synthetic"));

    let fanout: Vec<_> = aoft_obs::recent_events()
        .into_iter()
        .filter(|e| e.kind == "failstop_fanout" && e.job == Some(JOB))
        .collect();
    assert_eq!(fanout.len(), 1, "one fan-out event per fail-stopped run");
    let elapsed_us = fanout[0].elapsed_us.expect("fan-out duration");
    assert!(
        elapsed_us < 10_000,
        "cancel() to last thread returned took {elapsed_us} µs"
    );
}

#[test]
fn clean_run_emits_no_fanout_event() {
    const JOB: u64 = 0x5167_0002;
    let eng = Engine::new(
        Hypercube::new(2).unwrap(),
        SimConfig::new().cost_model(CostModel::unit()).job(JOB),
    );
    assert!(!eng.run(&AllDimExchange).is_fail_stop());
    assert!(!aoft_obs::recent_events()
        .iter()
        .any(|e| e.kind == "failstop_fanout" && e.job == Some(JOB)));
}

#[test]
fn node_error_without_signal_still_fails_run() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        if ctx.id().raw() == 0 {
            Err(SimError::MissingMessage {
                from: NodeId::new(1),
                waited: Duration::from_millis(1),
            })
        } else {
            Ok(())
        }
    };
    let report = engine(1).run(&program);
    assert!(report.is_fail_stop());
    assert_eq!(report.reports()[0].code, 0);
    assert!(report.reports()[0].detail.contains("runtime failure"));
}

/// Adversary that corrupts the payload of every message.
struct FlipBits;

impl Adversary<Word> for FlipBits {
    fn intercept(&mut self, _ctx: &SendContext, payload: Word) -> Action<Word> {
        Action::Deliver(Word(payload.0 ^ 0xFFFF))
    }

    fn label(&self) -> &str {
        "flip-bits"
    }
}

#[test]
fn adversary_corrupts_payloads() {
    let mut advs = AdversarySet::honest(2);
    advs.install(NodeId::new(0), Box::new(FlipBits));
    let report = engine(1).run_faulty(&AllDimExchange, advs);
    let outputs = report.outputs().expect("corruption alone does not block");
    assert_eq!(outputs[1], vec![0xFFFF], "node 1 sees corrupted value");
    assert_eq!(outputs[0], vec![1], "honest node 1 delivered cleanly");
}

/// Adversary that silently drops everything.
struct Mute;

impl Adversary<Word> for Mute {
    fn intercept(&mut self, _ctx: &SendContext, _payload: Word) -> Action<Word> {
        Action::Drop
    }
}

#[test]
fn dropped_messages_surface_as_missing() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<bool, SimError> {
        let partner = ctx.id().neighbor(0);
        ctx.send(partner, Word(7))?;
        match ctx.recv_from(partner) {
            Ok(_) => Ok(true),
            Err(SimError::MissingMessage { .. }) | Err(SimError::LinkClosed { .. }) => Ok(false),
            Err(other) => Err(other),
        }
    };
    let mut advs = AdversarySet::honest(2);
    advs.install(NodeId::new(0), Box::new(Mute));
    let report = engine(1).run_faulty(&program, advs);
    let outputs = report.outputs().expect("nodes handle the loss themselves");
    assert!(outputs[0], "faulty node still receives from honest partner");
    assert!(!outputs[1], "honest node sees the message vanish");
}

/// Adversary that reroutes a message to a different neighbor with a bogus
/// payload (Fan action).
struct Reroute;

impl Adversary<Word> for Reroute {
    fn intercept(&mut self, ctx: &SendContext, payload: Word) -> Action<Word> {
        // Send the true payload to the intended destination AND a forged
        // word to the dimension-1 neighbor.
        Action::Fan(vec![(ctx.dst, payload), (ctx.src.neighbor(1), Word(999))])
    }
}

#[test]
fn fan_action_delivers_to_multiple_neighbors() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<Option<u32>, SimError> {
        match ctx.id().raw() {
            0 => {
                ctx.send(NodeId::new(1), Word(5))?;
                Ok(None)
            }
            1 => Ok(Some(ctx.recv_from(NodeId::new(0))?.0)),
            2 => Ok(Some(ctx.recv_from(NodeId::new(0))?.0)),
            _ => Ok(None),
        }
    };
    let mut advs = AdversarySet::honest(4);
    advs.install(NodeId::new(0), Box::new(Reroute));
    let report = engine(2).run_faulty(&program, advs);
    let outputs = report.outputs().unwrap();
    assert_eq!(outputs[1], Some(5));
    assert_eq!(outputs[2], Some(999), "forged message reached node 2");
}

#[test]
fn host_gather_and_scatter() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<u32, SimError> {
        ctx.send_host(Word(ctx.id().raw() * 10))?;
        Ok(ctx.recv_host()?.0)
    };
    let eng = engine(2);
    let (report, gathered) = eng.run_with_host(&program, AdversarySet::honest(4), |host| {
        let values = host.gather().expect("all nodes upload");
        let doubled: Vec<Word> = values.iter().map(|w| Word(w.0 * 2)).collect();
        host.scatter(doubled).expect("all nodes alive");
        values.iter().map(|w| w.0).collect::<Vec<u32>>()
    });
    assert_eq!(gathered, vec![0, 10, 20, 30]);
    let outputs = report.outputs().unwrap();
    assert_eq!(outputs, &[0, 20, 40, 60]);
    // Host accounting: 4 receives + 4 sends.
    assert_eq!(report.metrics().host.msgs_sent, 4);
    assert_eq!(report.metrics().host.msgs_received, 4);
}

#[test]
fn host_can_signal_error() {
    let program = |ctx: &mut NodeCtx<'_, Word>| -> Result<(), SimError> {
        ctx.send_host(Word(ctx.id().raw()))?;
        Ok(())
    };
    let eng = engine(1);
    let (report, ()) = eng.run_with_host(&program, AdversarySet::honest(2), |host| {
        let _ = host.gather();
        host.signal_error(9, "host rejected the result");
    });
    assert!(report.is_fail_stop());
    assert_eq!(report.reports()[0].code, 9);
    assert_eq!(report.reports()[0].detector, aoft_sim::HOST_ID);
}

#[test]
fn trace_records_send_and_recv() {
    let eng = Engine::new(
        Hypercube::new(1).unwrap(),
        SimConfig::new()
            .cost_model(CostModel::unit())
            .recv_timeout(Duration::from_millis(300))
            .trace(true),
    );
    let report = eng.run(&AllDimExchange);
    let trace = report.trace();
    assert!(!trace.is_empty());
    let text = trace.to_string();
    assert!(text.contains("send #0"), "{text}");
    assert!(text.contains("recv <-"), "{text}");
    // Two sends + two recvs in total.
    assert_eq!(trace.len(), 4);
}

#[test]
fn trace_disabled_by_default() {
    let report = engine(1).run(&AllDimExchange);
    assert!(report.trace().is_empty());
}

#[test]
fn larger_cube_runs_complete() {
    // 128 threads: a smoke test that the engine scales past toy sizes.
    let report = engine(7).run(&AllDimExchange);
    assert_eq!(report.outputs().unwrap().len(), 128);
}

#[test]
fn zero_dim_machine_runs_single_node() {
    let program =
        |ctx: &mut NodeCtx<'_, Word>| -> Result<u32, SimError> { Ok(ctx.machine_size() as u32) };
    let report = engine(0).run(&program);
    assert_eq!(report.outputs(), Some(&[1u32][..]));
}
