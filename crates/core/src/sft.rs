//! `S_FT`: the fault-tolerant distributed bitonic sort of Figure 3.
//!
//! The exchange schedule is identical to [`S_NR`](crate::SnrProgram) — the
//! fault tolerance adds **no messages**, only content:
//!
//! * every exchange message piggybacks the sender's view of the *last
//!   bitonic sequence* (`LBS`), the values that entered the current stage;
//! * on every receive, the consistency predicate Φ_C merges the piggybacked
//!   entries into the local view, cross-checking every overlap — entries
//!   reach each checker over vertex-disjoint paths, so a Byzantine sender
//!   that tells different peers different things is caught (Lemma 6);
//! * at the end of every stage (after the first), `bit_compare` verifies the
//!   now-fully-distributed sequence: bitonic in the right orientation (Φ_P)
//!   and a permutation of the previous stage's sequence (Φ_F);
//! * one extra *pure-exchange* stage distributes the final output so the
//!   very last stage can be verified the same way.
//!
//! Any violation is signalled to the host and the machine fail-stops: with
//! the fault bounds of Theorem 3 the algorithm never delivers an incorrect
//! sort.

use aoft_hypercube::{NodeId, Subcube};
use aoft_sim::{NodeCtx, Program, SimError};

use crate::block::MergeScratch;
use crate::predicates::{
    bit_compare_cost, bit_compare_final_with, bit_compare_stage_with, phi_c, vect_mask_before_into,
    vect_mask_into, PredicateScratch,
};
use crate::snr::local_sort_compares;
use crate::{subcube_ascending, Block, LbsBuffer, Msg, Violation};

/// How the piggybacked sequence travels with the exchange data.
///
/// The paper's design point is [`Shipping::Piggybacked`]: the `LBS` rides
/// inside the exchange message, so fault tolerance adds zero messages. The
/// [`Shipping::Separate`] variant is the ablation strawman — identical
/// checking, but the sequence ships in its *own* message, doubling the
/// per-step message count (and thus the `α` startup cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shipping {
    /// `LBS` rides in the exchange message (the paper's Figure 3).
    #[default]
    Piggybacked,
    /// `LBS` ships in a separate message (ablation baseline).
    Separate,
}

/// The `S_FT` node program.
///
/// # Examples
///
/// ```
/// use aoft_hypercube::Hypercube;
/// use aoft_sim::{Engine, SimConfig};
/// use aoft_sort::{block, SftProgram};
///
/// let engine = Engine::new(Hypercube::new(3)?, SimConfig::default());
/// let program = SftProgram::new(block::distribute(&[10, 8, 3, 9, 4, 2, 7, 5], 8));
/// let outputs = engine.run(&program).into_outputs().expect("honest run");
/// assert_eq!(block::collect(&outputs), vec![2, 3, 4, 5, 7, 8, 9, 10]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SftProgram {
    blocks: Vec<Block>,
    shipping: Shipping,
}

impl SftProgram {
    /// Creates the program from one initial block per node (node 0 first).
    ///
    /// # Panics
    ///
    /// Panics if blocks are empty or unequally sized.
    pub fn new(blocks: Vec<Block>) -> Self {
        assert!(!blocks.is_empty(), "at least one node's data required");
        let m = blocks[0].len();
        assert!(m > 0, "blocks must be non-empty");
        assert!(
            blocks.iter().all(|b| b.len() == m),
            "all blocks must hold the same number of keys"
        );
        Self {
            blocks,
            shipping: Shipping::Piggybacked,
        }
    }

    /// Selects how the verified sequences travel (ablation hook).
    pub fn with_shipping(mut self, shipping: Shipping) -> Self {
        self.shipping = shipping;
        self
    }

    /// Keys per node.
    pub fn block_len(&self) -> usize {
        self.blocks[0].len()
    }
}

/// Signals `violation` to the host and converts it into the `SimError` the
/// node thread unwinds with.
fn fail(ctx: &mut NodeCtx<'_, Msg>, violation: Violation) -> SimError {
    let suspect = violation.suspect_hint();
    fail_as(ctx, violation, suspect)
}

/// [`fail`] with an explicit accusation: `suspect` overrides the
/// violation's own hint when the detection site can name the culprit more
/// precisely than the violation variant alone (the Φ_C equivocation proof
/// of [`SftState::consume_lbs`]).
fn fail_as(ctx: &mut NodeCtx<'_, Msg>, violation: Violation, suspect: Option<NodeId>) -> SimError {
    aoft_obs::record_violation(
        violation.family(),
        violation.code(),
        ctx.id().index() as u32,
        violation.stage_hint(),
        &violation.to_string(),
    );
    ctx.signal_report(
        violation.code(),
        violation.stage_hint(),
        suspect,
        violation.to_string(),
    );
    SimError::Cancelled
}

/// Receive with assumption 4 folded in: a missing message *is* an error and
/// is signalled before unwinding.
fn recv_checked(ctx: &mut NodeCtx<'_, Msg>, from: NodeId) -> Result<Msg, SimError> {
    match ctx.recv_from(from) {
        Ok(msg) => Ok(msg),
        Err(err @ (SimError::MissingMessage { .. } | SimError::LinkClosed { .. })) => {
            // If the machine is already fail-stopping, a vanished peer is a
            // casualty of the halt, not a fresh fault — don't pile on
            // secondary diagnostics.
            if ctx.is_cancelled() {
                return Err(SimError::Cancelled);
            }
            let violation = Violation::MessageLost { from };
            aoft_obs::record_violation(
                violation.family(),
                violation.code(),
                ctx.id().index() as u32,
                None,
                &violation.to_string(),
            );
            ctx.signal_report(
                violation.code(),
                None,
                violation.suspect_hint(),
                violation.to_string(),
            );
            Err(err)
        }
        Err(other) => Err(other),
    }
}

struct SftState {
    me: NodeId,
    n: u32,
    machine: usize,
    m: usize,
    shipping: Shipping,
    a: Block,
    lbs: LbsBuffer,
    llbs: LbsBuffer,
    /// Reusable working memory for every predicate evaluation.
    scratch: PredicateScratch,
    /// Reusable merge buffer for every compare-exchange.
    merge: MergeScratch,
}

/// Which holdings mask an incoming piggybacked array is checked against.
#[derive(Clone, Copy)]
enum Expect {
    /// An initiating message: the sender's *pre*-exchange holdings.
    Before,
    /// A reply: the *post*-exchange union.
    After,
}

impl SftState {
    /// Ships an exchange operand plus the current `LBS` view, per the
    /// configured shipping mode.
    fn send_pair(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        partner: NodeId,
        data: Block,
        span: Subcube,
    ) -> Result<(), SimError> {
        let lbs = self.lbs.to_wire(span);
        match self.shipping {
            Shipping::Piggybacked => ctx.send(partner, Msg::Tagged { data, lbs }),
            Shipping::Separate => {
                ctx.send(partner, Msg::Data(data))?;
                ctx.send(partner, Msg::Lbs(lbs))
            }
        }
    }

    /// Receives an exchange operand plus the sender's `LBS` view.
    fn recv_pair(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        partner: NodeId,
        stage: u32,
        step: u32,
    ) -> Result<(Block, crate::LbsWire), SimError> {
        match self.shipping {
            Shipping::Piggybacked => match recv_checked(ctx, partner)? {
                Msg::Tagged { data, lbs } => Ok((data, lbs)),
                _ => Err(fail(ctx, Violation::UnexpectedMessage { stage, step })),
            },
            Shipping::Separate => {
                let data = match recv_checked(ctx, partner)? {
                    Msg::Data(block) => block,
                    _ => return Err(fail(ctx, Violation::UnexpectedMessage { stage, step })),
                };
                let lbs = match recv_checked(ctx, partner)? {
                    Msg::Lbs(wire) => wire,
                    _ => return Err(fail(ctx, Violation::UnexpectedMessage { stage, step })),
                };
                Ok((data, lbs))
            }
        }
    }
    /// Applies Φ_C to one piggybacked array and charges its cost: Lemma 9's
    /// `O(2^{j+1} + 2^{i−j})` — the merge work plus the `vect_mask`
    /// evaluation.
    ///
    /// The sender's legitimate holdings are computed into the reusable
    /// scratch mask, and adoption moves entry handles out of `wire` — the
    /// merge allocates nothing and copies no key.
    #[allow(clippy::too_many_arguments)]
    fn consume_lbs(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        wire: &mut crate::LbsWire,
        expect: Expect,
        partner: NodeId,
        schedule_stage: u32,
        report_stage: u32,
        step: u32,
    ) -> Result<(), SimError> {
        match expect {
            Expect::Before => vect_mask_before_into(
                self.machine,
                schedule_stage,
                step,
                partner,
                self.scratch.mask_mut(),
            ),
            Expect::After => vect_mask_into(
                self.machine,
                schedule_stage,
                step,
                partner,
                self.scratch.mask_mut(),
            ),
        }
        ctx.charge_moves(self.scratch.mask.len());
        let watch = aoft_obs::Stopwatch::new();
        let checked = phi_c(&mut self.lbs, wire, &self.scratch.mask, report_stage, step);
        aoft_obs::record_predicate_check("phi_c", watch.elapsed());
        match checked {
            Ok(outcome) => {
                ctx.charge_compares(outcome.compared * self.m);
                ctx.charge_moves(outcome.adopted * self.m);
                Ok(())
            }
            // Equivocation proof (Lemma 6). Two shapes of Φ_C evidence are
            // one-hop attributable to `partner`:
            //
            // * In a *reply* (`Expect::After`) every compared entry is one
            //   this node transmitted to `partner` in this very step — the
            //   exchange schedule makes pre-step holdings complementary, so
            //   the overlap of the union mask with the local held-set is
            //   exactly what just went out. A disagreeing echo travelled
            //   `me → partner → me`: the two copies' routes share only
            //   {me, partner}, this node vouches for itself, so the sender
            //   is named directly.
            // * A disagreeing (or missing) entry that is `partner`'s *own*:
            //   vertex-disjoint routes of an entry share only its owner, so
            //   a sender caught contradicting itself about its own value is
            //   the fault. (An honest sender missing a mask-required entry
            //   would have fail-stopped at its own consume instead of
            //   replying, so omission is equally self-incriminating.)
            //
            // Any other conflict stays unattributed: a relayed copy in an
            // initiating array may have been damaged anywhere along its
            // route, and naming a node without proof risks quarantining a
            // bystander.
            Err(violation) => {
                let one_hop = matches!(
                    &violation,
                    Violation::Inconsistent { .. } | Violation::MissingEntry { .. }
                );
                let entry_is_partner = matches!(
                    &violation,
                    Violation::Inconsistent { entry, .. }
                    | Violation::MissingEntry { entry, .. } if *entry == partner
                );
                let suspect = if one_hop && (matches!(expect, Expect::After) || entry_is_partner) {
                    Some(partner)
                } else {
                    violation.suspect_hint()
                };
                Err(fail_as(ctx, violation, suspect))
            }
        }
    }

    /// One exchange step of the main loop: compare-exchange plus piggyback.
    fn exchange(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        stage: u32,
        step: u32,
        ascending: bool,
        span: Subcube,
    ) -> Result<(), SimError> {
        let partner = self.me.neighbor(step);
        if self.me.is_low_end(step) {
            // Partner initiates; its array reflects its pre-exchange
            // holdings.
            let (mut data, mut wire) = self.recv_pair(ctx, partner, stage, step)?;
            self.consume_lbs(ctx, &mut wire, Expect::Before, partner, stage, stage, step)?;
            self.check_operand(ctx, &data, stage)?;

            let (compares, moves) = Block::merge_split_cost(self.m);
            ctx.charge_compares(compares);
            ctx.charge_moves(moves);
            // `a` becomes the low half and the received block the high
            // half. Both are new blocks: at the first step of a stage the
            // operands are LBS entries other nodes hold, and stay as they
            // are; afterwards each is its node's alone and its storage is
            // recycled through the scratch.
            self.a.merge_split_reuse(&mut data, &mut self.merge);
            if !ascending {
                std::mem::swap(&mut self.a, &mut data);
            }

            // The reply carries the *updated* LBS: the merged union, which
            // lets the partner cross-check the entries it just sent us.
            self.send_pair(ctx, partner, data, span)?;
        } else {
            // `a` is rewritten from the reply below, so its current value
            // can be moved straight into the outgoing message.
            let own = std::mem::take(&mut self.a);
            self.send_pair(ctx, partner, own, span)?;
            let (data, mut wire) = self.recv_pair(ctx, partner, stage, step)?;
            // The reply reflects the post-exchange union.
            self.consume_lbs(ctx, &mut wire, Expect::After, partner, stage, stage, step)?;
            self.check_operand(ctx, &data, stage)?;
            self.a = data;
        }
        Ok(())
    }

    /// Structural validation of a received compare-exchange operand.
    ///
    /// Note that the *content* of the operand is deliberately not judged
    /// here: a skewed-but-sorted block is indistinguishable locally and is
    /// exactly what Φ_F catches at the next stage boundary.
    fn check_operand(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        data: &Block,
        stage: u32,
    ) -> Result<(), SimError> {
        if data.len() != self.m {
            return Err(fail(
                ctx,
                Violation::MalformedBlock {
                    stage,
                    expected: self.m as u32,
                    got: data.len() as u32,
                },
            ));
        }
        Ok(())
    }

    /// One step of the final pure-exchange verification stage: same
    /// schedule as stage `n−1`, `LBS`-only messages, no compare-exchange.
    fn final_exchange(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        step: u32,
        span: Subcube,
    ) -> Result<(), SimError> {
        let partner = self.me.neighbor(step);
        let schedule_stage = self.n - 1;
        // Violations during the extra stage are reported as "stage n", the
        // paper's `i = n` index for the last check.
        let report_stage = self.n;
        if self.me.is_low_end(step) {
            let msg = recv_checked(ctx, partner)?;
            let mut wire = match msg {
                Msg::Lbs(lbs) => lbs,
                _ => {
                    return Err(fail(
                        ctx,
                        Violation::UnexpectedMessage {
                            stage: report_stage,
                            step,
                        },
                    ))
                }
            };
            self.consume_lbs(
                ctx,
                &mut wire,
                Expect::Before,
                partner,
                schedule_stage,
                report_stage,
                step,
            )?;
            ctx.send(partner, Msg::Lbs(self.lbs.to_wire(span)))?;
        } else {
            ctx.send(partner, Msg::Lbs(self.lbs.to_wire(span)))?;
            let msg = recv_checked(ctx, partner)?;
            let mut wire = match msg {
                Msg::Lbs(lbs) => lbs,
                _ => {
                    return Err(fail(
                        ctx,
                        Violation::UnexpectedMessage {
                            stage: report_stage,
                            step,
                        },
                    ))
                }
            };
            self.consume_lbs(
                ctx,
                &mut wire,
                Expect::After,
                partner,
                schedule_stage,
                report_stage,
                step,
            )?;
        }
        Ok(())
    }
}

impl Program<Msg> for SftProgram {
    type Output = Block;

    fn run(&self, ctx: &mut NodeCtx<'_, Msg>) -> Result<Block, SimError> {
        let me = ctx.id();
        let n = ctx.dim();
        let machine = ctx.machine_size();
        let a = self.blocks[me.index()].clone();
        let m = a.len();
        ctx.charge_compares(local_sort_compares(m));
        if n == 0 {
            return Ok(a);
        }

        let mut lbs = LbsBuffer::new(machine, m as u32);
        lbs.reset_to_self(me, a.clone());
        let llbs = lbs.snapshot();
        let mut state = SftState {
            me,
            n,
            machine,
            m,
            shipping: self.shipping,
            a,
            lbs,
            llbs,
            scratch: PredicateScratch::for_machine(machine, m as u32),
            merge: MergeScratch::for_block_len(m),
        };

        for stage in 0..n {
            let stage_watch = aoft_obs::Stopwatch::new();
            let span = Subcube::home(stage + 1, me);
            let ascending = subcube_ascending(span);
            for step in (0..=stage).rev() {
                state.exchange(ctx, stage, step, ascending, span)?;
            }

            // End of stage: verify the (previous stage's) sequence, now
            // fully distributed — skipped at stage 0 per assumption 5.
            if stage > 0 {
                ctx.charge_compares(bit_compare_cost(stage, state.m));
                let watch = aoft_obs::Stopwatch::new();
                let checked =
                    bit_compare_stage_with(&state.lbs, &state.llbs, me, stage, &mut state.scratch);
                // bit_compare evaluates both Φ_P (bitonicity) and Φ_F
                // (permutation) over the distributed sequence.
                let reg = aoft_obs::global();
                reg.predicate_checks.add("phi_p", 1);
                reg.predicate_checks.add("phi_f", 1);
                reg.predicate_check_time.record(watch.elapsed());
                if let Err(violation) = checked {
                    return Err(fail(ctx, violation));
                }
            }
            aoft_obs::global().stage_time.record(stage_watch.elapsed());
            // LLBS := LBS; LBS := own value (Figure 3's copy loop + reset).
            // The buffers trade roles and the new LBS lets go of the entries
            // of two stages ago; no key moves. The charge is the paper's
            // copy loop all the same.
            ctx.charge_moves(span.len() * state.m);
            std::mem::swap(&mut state.lbs, &mut state.llbs);
            state.lbs.reset_to_self(me, state.a.clone());
        }

        // Final verification: pure exchange of the final LBS (Figure 3's
        // trailing loop), then the full-cube bit_compare.
        let span = Subcube::home(n, me);
        for step in (0..n).rev() {
            state.final_exchange(ctx, step, span)?;
        }
        ctx.charge_compares(bit_compare_cost(n - 1, state.m) * 2);
        let watch = aoft_obs::Stopwatch::new();
        let checked = bit_compare_final_with(&state.lbs, &state.llbs, me, n, &mut state.scratch);
        let reg = aoft_obs::global();
        reg.predicate_checks.add("phi_p", 1);
        reg.predicate_checks.add("phi_f", 1);
        reg.predicate_check_time.record(watch.elapsed());
        if let Err(violation) = checked {
            return Err(fail(ctx, violation));
        }

        Ok(state.a)
    }
}

#[cfg(test)]
mod tests {
    use aoft_hypercube::Hypercube;
    use aoft_sim::{CostModel, Engine, SimConfig};

    use super::*;
    use crate::block;

    fn engine(dim: u32) -> Engine {
        Engine::new(
            Hypercube::new(dim).unwrap(),
            SimConfig::new()
                .cost_model(CostModel::unit())
                .recv_timeout(std::time::Duration::from_millis(500)),
        )
    }

    fn run_sort(keys: &[i32], dim: u32) -> Vec<i32> {
        let nodes = 1usize << dim;
        let program = SftProgram::new(block::distribute(keys, nodes));
        let outputs = engine(dim)
            .run(&program)
            .into_outputs()
            .expect("honest run completes");
        block::collect(&outputs)
    }

    #[test]
    fn sorts_paper_example() {
        assert_eq!(
            run_sort(&[10, 8, 3, 9, 4, 2, 7, 5], 3),
            vec![2, 3, 4, 5, 7, 8, 9, 10]
        );
    }

    #[test]
    fn sorts_various_cube_sizes() {
        for dim in 0..=5u32 {
            let nodes = 1usize << dim;
            let keys: Vec<i32> = (0..nodes as i32).map(|x| (x * 37 + 11) % 64 - 32).collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            assert_eq!(run_sort(&keys, dim), expected, "dim {dim}");
        }
    }

    #[test]
    fn sorts_blocks() {
        let keys: Vec<i32> = (0..64).map(|x| (x * 29 + 3) % 77).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(run_sort(&keys, 4), expected, "m = 4 per node");
    }

    #[test]
    fn sorts_duplicates() {
        assert_eq!(
            run_sort(&[5, 5, 5, 5, 1, 1, 1, 1], 3),
            vec![1, 1, 1, 1, 5, 5, 5, 5]
        );
    }

    #[test]
    fn same_message_count_as_snr() {
        // The headline claim: no increase in message complexity over S_NR —
        // only the final pure-exchange stage (n extra messages) is added.
        let dim = 3u32;
        let keys: Vec<i32> = (0..8).collect();
        let snr = crate::SnrProgram::new(block::distribute(&keys, 8));
        let sft = SftProgram::new(block::distribute(&keys, 8));
        let snr_msgs = engine(dim).run(&snr).metrics().node_total().msgs_sent;
        let sft_msgs = engine(dim).run(&sft).metrics().node_total().msgs_sent;
        let final_stage_msgs = 8 * dim as u64;
        assert_eq!(sft_msgs, snr_msgs + final_stage_msgs);
    }

    #[test]
    fn messages_are_longer_than_snr() {
        // ... but S_FT ships more words (Theorem 4's N·log N term).
        let dim = 3u32;
        let keys: Vec<i32> = (0..8).collect();
        let snr = crate::SnrProgram::new(block::distribute(&keys, 8));
        let sft = SftProgram::new(block::distribute(&keys, 8));
        let snr_words = engine(dim).run(&snr).metrics().node_total().words_sent;
        let sft_words = engine(dim).run(&sft).metrics().node_total().words_sent;
        assert!(
            sft_words > 2 * snr_words,
            "S_FT {sft_words}w vs S_NR {snr_words}w"
        );
    }

    #[test]
    fn single_node_machine_is_trivial() {
        assert_eq!(run_sort(&[3, 1, 2], 0), vec![1, 2, 3]);
    }

    #[test]
    fn two_node_machine_runs_final_verification() {
        assert_eq!(run_sort(&[9, 2], 1), vec![2, 9]);
    }

    #[test]
    fn separate_shipping_sorts_but_doubles_messages() {
        let keys: Vec<i32> = (0..8).rev().collect();
        let piggy = SftProgram::new(block::distribute(&keys, 8));
        let separate =
            SftProgram::new(block::distribute(&keys, 8)).with_shipping(Shipping::Separate);

        let piggy_report = engine(3).run(&piggy);
        let sep_report = engine(3).run(&separate);
        let piggy_out = piggy_report.outputs().expect("honest run");
        let sep_out = sep_report.outputs().expect("honest run");
        assert_eq!(block::collect(piggy_out), block::collect(sep_out));

        // The ablation point: same checking, twice the main-loop messages.
        let piggy_msgs = piggy_report.metrics().node_total().msgs_sent;
        let sep_msgs = sep_report.metrics().node_total().msgs_sent;
        let main_loop_msgs = 8 * (3 * 4 / 2) as u64;
        assert_eq!(sep_msgs, piggy_msgs + main_loop_msgs);
    }

    #[test]
    fn separate_shipping_still_detects_faults() {
        use aoft_faults::{FaultKind, FaultPlan, Trigger};
        let keys: Vec<i32> = (0..8).rev().collect();
        let program =
            SftProgram::new(block::distribute(&keys, 8)).with_shipping(Shipping::Separate);
        let plan = FaultPlan::new().with_fault(
            aoft_hypercube::NodeId::new(2),
            FaultKind::CorruptValue,
            Trigger::from_seq(2),
            5,
        );
        let report = engine(3).run_faulty(&program, plan.build(8));
        assert!(report.is_fail_stop());
    }

    #[test]
    fn deterministic_metrics() {
        let keys: Vec<i32> = (0..16).map(|x| 97 - 3 * x).collect();
        let program = SftProgram::new(block::distribute(&keys, 16));
        let a = engine(4).run(&program);
        let b = engine(4).run(&program);
        assert_eq!(a.metrics().elapsed(), b.metrics().elapsed());
        assert_eq!(a.metrics().nodes, b.metrics().nodes);
    }
}
