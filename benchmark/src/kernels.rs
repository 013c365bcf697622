//! The inside of one job, timed from outside: a direct `SortBuilder` run on
//! the workload's shape and transport, a no-op engine run, and one call of
//! each kernel a job is made of — each as one span.

use std::sync::Arc;
use std::time::Duration;

use aoft::hypercube::{Hypercube, NodeId, NodeSet, Subcube};
use aoft::net::frame::{decode_frame_body, encode_frame, frame_header};
use aoft::net::wire::from_bytes;
use aoft::net::{pool, FrameKind, InProc, LinkCache, MappedTransport, MuxTransport, Wire};
use aoft::sim::{Engine, NodeCtx, SimConfig, SimError};
use aoft::sort::block::distribute;
use aoft::sort::predicates::{
    bit_compare_final_with, phi_c, phi_f_with, phi_p_final_with, vect_mask, vect_mask_before,
    vect_mask_into, PredicateScratch,
};
use aoft::sort::{
    Algorithm, Block, LbsBuffer, LbsWire, MergeScratch, Msg, SortBuilder, SortError, SortReport,
};

use crate::run::{Workload, DIM, NODES};
use crate::trace::Recorder;

/// The receive timeout the service's default configuration runs jobs with.
const RECV_TIMEOUT: Duration = Duration::from_millis(800);

/// Links for direct runs, kept alive across runs as the service keeps its
/// own: a run pays for the sort, not for dialling.
pub enum Direct {
    Inproc(Arc<LinkCache<InProc>>),
    Mux(Arc<LinkCache<MuxTransport>>),
}

impl Direct {
    pub fn new(workload: Workload) -> Result<Direct, String> {
        if workload.is_mux() {
            Ok(Direct::Mux(Arc::new(LinkCache::new(
                crate::run::mux_transport()?,
            ))))
        } else {
            Ok(Direct::Inproc(Arc::new(LinkCache::new(InProc::new()))))
        }
    }

    /// One sort of `keys` on the d = 3 cube, no service around it. `run_id`
    /// must be new each time: it is how stale frames on reused links are
    /// told from this run's.
    pub fn run(
        &self,
        algorithm: Algorithm,
        keys: Vec<i32>,
        run_id: u64,
    ) -> Result<SortReport, SortError> {
        let builder = SortBuilder::new(algorithm)
            .keys(keys)
            .nodes(NODES as usize)
            .recv_timeout(RECV_TIMEOUT)
            .job(run_id);
        match self {
            Direct::Inproc(cache) => {
                builder.run_on(MappedTransport::identity(Arc::clone(cache), NODES))
            }
            Direct::Mux(cache) => {
                builder.run_on(MappedTransport::identity(Arc::clone(cache), NODES))
            }
        }
    }

    /// Sessions of the mux transport under the cache (0 for in-process).
    pub fn mux_sessions(&self) -> usize {
        match self {
            Direct::Inproc(_) => 0,
            Direct::Mux(cache) => cache.inner().session_count(),
        }
    }
}

/// `Engine::new(d = 3).run(no-op)`: what spawning and joining the eight
/// node threads costs, with no program inside them.
pub fn engine_noop() {
    let cube = Hypercube::new(DIM).expect("d = 3 is a valid cube");
    let engine = Engine::new(cube, SimConfig::new());
    let report = engine.run::<Msg, _>(&|_ctx: &mut NodeCtx<'_, Msg>| Ok::<(), SimError>(()));
    std::hint::black_box(report.is_fail_stop());
}

/// Prepared inputs for one call of each kernel at block size `m`.
pub struct Kernels {
    keys: Vec<i32>,
    lo: Block,
    hi: Block,
    merge: MergeScratch,
    /// An honest (LBS, LLBS) pair for the final check of a d = 3 run whose
    /// two halves interleave — the general merge walk of Φ_F.
    lbs: LbsBuffer,
    llbs: LbsBuffer,
    /// The same for presorted input: the low half entirely below the high
    /// half, so Φ_F takes its verbatim-tail fast path.
    lbs_sorted: LbsBuffer,
    llbs_sorted: LbsBuffer,
    scratch: PredicateScratch,
    phi_c_local: LbsBuffer,
    phi_c_wire: LbsWire,
    phi_c_mask: NodeSet,
    msg: Msg,
    payload: Vec<u8>,
    frame: Vec<u8>,
    encode_buf: Vec<u8>,
}

fn cube_span() -> Subcube {
    Subcube::home(DIM, NodeId::new(0))
}

/// (LBS, LLBS) at the final check, given the multisets the two half-cubes
/// held entering the last stage: LLBS is bitonic (low half ascending over
/// nodes 0–3, high half descending over nodes 4–7), LBS fully sorted.
fn final_pair(mut low: Vec<i32>, mut high: Vec<i32>, m: usize) -> (LbsBuffer, LbsBuffer) {
    low.sort_unstable();
    high.sort_unstable();
    let mut all = [low.as_slice(), high.as_slice()].concat();
    all.sort_unstable();
    let half = NODES as usize / 2;
    let mut lbs = LbsBuffer::new(NODES as usize, m as u32);
    let mut llbs = LbsBuffer::new(NODES as usize, m as u32);
    for node in 0..NODES as usize {
        lbs.set(
            NodeId::new(node as u32),
            Block::new(all[node * m..(node + 1) * m].to_vec()),
        );
        let chunk = if node < half {
            &low[node * m..(node + 1) * m]
        } else {
            let from_top = NODES as usize - 1 - node;
            &high[from_top * m..(from_top + 1) * m]
        };
        llbs.set(NodeId::new(node as u32), Block::new(chunk.to_vec()));
    }
    (lbs, llbs)
}

impl Kernels {
    /// Builds the inputs from one job's keys and checks that every
    /// predicate accepts them — a kernel timed on input it rejects would
    /// be timing the error path.
    pub fn new(keys: &[i32]) -> Result<Kernels, String> {
        let nodes = NODES as usize;
        let m = keys.len() / nodes;
        let me = NodeId::new(0);
        let partner = NodeId::new(1);
        let (low, high) = keys.split_at(keys.len() / 2);
        let (lbs, llbs) = final_pair(low.to_vec(), high.to_vec(), m);
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let (low, high) = sorted.split_at(sorted.len() / 2);
        let (lbs_sorted, llbs_sorted) = final_pair(low.to_vec(), high.to_vec(), m);

        // Φ_C on the largest array of the schedule: the reply of stage 2,
        // step 0, whose eight entries are half echo (compared) and half
        // news (adopted).
        let mut phi_c_local = LbsBuffer::new(nodes, m as u32);
        for node in vect_mask_before(nodes, DIM - 1, 0, me).iter() {
            let block = llbs.get(node).ok_or("honest LLBS misses an entry")?;
            phi_c_local.set_from(node, block);
        }
        let phi_c_wire = llbs.to_wire(cube_span());
        let phi_c_mask = vect_mask(nodes, DIM - 1, 0, partner);

        let data = Block::from_unsorted(keys[..m].to_vec());
        let mut lbs_wire = llbs.to_wire(cube_span());
        for slot in lbs_wire.slots.iter_mut().skip(1).step_by(2) {
            *slot = None;
        }
        let msg = Msg::Tagged {
            data,
            lbs: lbs_wire,
        };
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        let frame = encode_frame(FrameKind::Data, &payload);

        let mut kernels = Kernels {
            keys: keys.to_vec(),
            lo: Block::from_unsorted(keys[..m].to_vec()),
            hi: Block::from_unsorted(keys[m..2 * m].to_vec()),
            merge: MergeScratch::for_block_len(m),
            lbs,
            llbs,
            lbs_sorted,
            llbs_sorted,
            scratch: PredicateScratch::for_machine(nodes, m as u32),
            phi_c_local,
            phi_c_wire,
            phi_c_mask,
            msg,
            payload,
            frame,
            encode_buf: Vec::new(),
        };
        kernels.self_check()?;
        Ok(kernels)
    }

    fn self_check(&mut self) -> Result<(), String> {
        let me = NodeId::new(0);
        let span = cube_span();
        let s = &mut self.scratch;
        phi_p_final_with(&self.lbs, span, DIM, s).map_err(|v| format!("phi_p rejects: {v}"))?;
        phi_f_with(&self.lbs, &self.llbs, span, DIM, s)
            .map_err(|v| format!("phi_f rejects: {v}"))?;
        phi_f_with(&self.lbs_sorted, &self.llbs_sorted, span, DIM, s)
            .map_err(|v| format!("phi_f rejects presorted input: {v}"))?;
        bit_compare_final_with(&self.lbs, &self.llbs, me, DIM, s)
            .map_err(|v| format!("bit_compare rejects: {v}"))?;
        let outcome = phi_c(
            &mut self.phi_c_local.clone(),
            &mut self.phi_c_wire.clone(),
            &self.phi_c_mask,
            DIM - 1,
            0,
        )
        .map_err(|v| format!("phi_c rejects: {v}"))?;
        if outcome.adopted + outcome.compared != self.phi_c_mask.len() || outcome.compared == 0 {
            return Err(format!("phi_c did not see a full reply: {outcome:?}"));
        }
        let decoded: Msg = from_bytes(&self.payload).map_err(|e| format!("msg decode: {e}"))?;
        if decoded != self.msg {
            return Err("msg does not round-trip".into());
        }
        let (lo, hi) = (self.lo.clone(), self.hi.clone());
        let (mut a, mut b) = (lo.clone(), hi.clone());
        a.merge_split_reuse(&mut b, &mut self.merge);
        if a.max() > b.min() || !a.is_sorted() || !b.is_sorted() {
            return Err("merge_split left the halves out of order".into());
        }
        Ok(())
    }

    /// One span per kernel call. Inputs a call consumes are cloned before
    /// its span opens.
    pub fn run(&mut self, rec: &mut Recorder, job: u64) {
        let me = NodeId::new(0);
        let span = cube_span();
        let nodes = NODES as usize;

        let keys = &self.keys;
        rec.span("sort.distribute", job, None, || {
            std::hint::black_box(distribute(keys, nodes));
        });

        let (mut lo, mut hi) = (self.lo.clone(), self.hi.clone());
        let merge = &mut self.merge;
        rec.span("sort.merge_split", job, None, || {
            lo.merge_split_reuse(&mut hi, merge);
        });
        std::hint::black_box((lo.max(), hi.min()));

        let s = &mut self.scratch;
        let ok = rec.span("sort.phi_p", job, None, || {
            phi_p_final_with(&self.lbs, span, DIM, s).is_ok()
        });
        std::hint::black_box(ok);
        let ok = rec.span("sort.phi_f", job, None, || {
            phi_f_with(&self.lbs, &self.llbs, span, DIM, s).is_ok()
        });
        std::hint::black_box(ok);
        let ok = rec.span("sort.phi_f_sorted", job, None, || {
            phi_f_with(&self.lbs_sorted, &self.llbs_sorted, span, DIM, s).is_ok()
        });
        std::hint::black_box(ok);
        let ok = rec.span("sort.bit_compare", job, None, || {
            bit_compare_final_with(&self.lbs, &self.llbs, me, DIM, s).is_ok()
        });
        std::hint::black_box(ok);

        let (mut local, mut wire) = (self.phi_c_local.clone(), self.phi_c_wire.clone());
        let ok = rec.span("sort.phi_c", job, None, || {
            phi_c(&mut local, &mut wire, &self.phi_c_mask, DIM - 1, 0).is_ok()
        });
        std::hint::black_box(ok);
        rec.span("sort.vect_mask", job, None, || {
            vect_mask_into(nodes, DIM - 1, 0, NodeId::new(1), s.mask_mut());
        });

        let buf = &mut self.encode_buf;
        buf.clear();
        rec.span("sort.msg_encode", job, None, || self.msg.encode(buf));
        let ok = rec.span("sort.msg_decode", job, None, || {
            from_bytes::<Msg>(&self.payload).is_ok()
        });
        std::hint::black_box(ok);

        rec.span("net.frame_encode", job, None, || {
            let mut lease = pool::global().lease();
            self.msg.encode(&mut lease);
            std::hint::black_box(frame_header(FrameKind::Data, &lease));
        });
        let ok = rec.span("net.frame_decode", job, None, || {
            decode_frame_body(&self.frame[4..]).is_ok()
        });
        std::hint::black_box(ok);
        rec.span("net.pool_lease", job, None, || {
            std::hint::black_box(pool::global().lease().len());
        });
    }
}
