//! Multiplexed peer sessions: one physical TCP connection per *peer pair*.
//!
//! [`MuxTransport`] is the crate's one socket backend. A d-cube has
//! `d·2^d` directed [`LinkId`]s but only `d·2^(d-1)` peer pairs, and every
//! link between two nodes — both directions, all tags — rides **one
//! session per unordered peer pair**:
//!
//! * the session handshake exchanges a magic preamble, the peer-pair ids
//!   and a link manifest; every subsequent Data frame carries the 9-byte
//!   [`LinkId`] handshake encoding as a *demux tag* prefix inside the frame
//!   payload — the [`crate::frame`] codec, single-pass framing into
//!   [`crate::pool`] buffer leases, one extra tag per frame;
//! * all of a pair's links share one tx queue set, drained fairly
//!   (round-robin across links) into a single `write_vectored`;
//! * wakeups are **event-driven**, never sleep-polled: a tx doorbell
//!   (`Condvar`) wakes the owning tx servicer the moment a sender enqueues,
//!   and every session end has one reader thread blocked in `read` on its
//!   own socket, so the first byte of a frame wakes exactly the thread
//!   that demuxes it. The reader reads straight into a persistent
//!   per-session buffer ([`RxBuf`]) that grows only with bytes received;
//! * heartbeats and write-retry backoff are **per-session** obligations on
//!   the tx servicer's [`TimerWheel`] — one timer per peer pair, not one
//!   per directed link — and the silence dead-check is the reader's read
//!   timeout (`heartbeat_interval`);
//! * threads: [`TX_SERVICERS`] tx + 1 acceptor, plus one reader per
//!   session end, joined when the transport drops.
//!
//! Failure semantics follow the session: when a session dies (silence past
//! the heartbeat window, EOF, socket error, corrupt stream), **every** link
//! it carried observes the same terminal error — `PeerDead` fans out to all
//! of the pair's receivers at once, so one observation covers all links.
//!
//! A mux listener expects the session preamble and mux Data frames carry
//! the demux tag: both sides of a pair must speak mux.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoft_obs::Counter;
use parking_lot::{Condvar, Mutex};

use crate::frame::{
    decode_frame_body, encode_frame, frame_header, FrameKind, HEADER_LEN, MAX_FRAME_LEN,
};
use crate::mailbox::{mailbox, MailboxRx, MailboxTx};
use crate::pool;
use crate::timer::TimerWheel;
use crate::wire::{from_bytes, Wire};
use crate::{Backoff, CancelToken, LinkId, LinkRx, LinkTx, NetError, Transport};

/// Session preamble magic: distinguishes a mux dial from anything else and
/// versions the session layer (last byte).
const MUX_MAGIC: [u8; 8] = *b"AOFTMUX\x01";

/// The size a session's receive buffer starts at and grows by: one read's
/// worth of bytes beyond those already held.
const READ_CHUNK: usize = 64 * 1024;

/// `SO_SNDTIMEO` on session sockets: a write stalled longer than this
/// parks the session on the retry path instead of freezing its (shared)
/// tx servicer.
const WRITE_SLICE: Duration = Duration::from_millis(100);

/// Queued frames one tx drain coalesces into a single `write_vectored`.
const MAX_TX_COALESCE: usize = 64;

/// Manifest entries a session preamble may carry; larger claims are
/// treated as a corrupt dial.
const MAX_MANIFEST: usize = 1024;

/// How long the acceptor waits for a dialer's session preamble before
/// dropping the connection.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Write attempts per batch before the session is declared dead.
const MAX_SEND_RETRIES: u32 = 5;

/// First write-retry delay; doubles per attempt.
const INITIAL_BACKOFF: Duration = Duration::from_millis(5);

/// Write-retry delay ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// Frames one *link* queues before `send` blocks — the per-link
/// backpressure bound (a session's queue capacity is this × links).
const TX_QUEUE_FRAMES: usize = 1024;

/// Tx servicer threads; sessions hash onto them round-robin. The doorbell
/// keeps every count event-driven.
const TX_SERVICERS: usize = 2;

/// The liveness clocks of a [`MuxTransport`], per *session* (peer pair).
/// Everything else about the backend is a constant of this module.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Deadline the engine should pass when establishing links.
    pub connect_timeout: Duration,
    /// Idle gap after which a session emits a heartbeat frame.
    pub heartbeat_interval: Duration,
    /// Inbound silence after which the whole session — every link it
    /// carries — is declared dead. Must be several multiples of
    /// `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
}

impl Default for MuxConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(500),
        }
    }
}

type Pair = (u32, u32);

fn pair_label(pair: Pair) -> String {
    format!("{}~{}", pair.0, pair.1)
}

/// Monotonic ids for sessions and endpoint attach tokens.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// One frame staged on a session's tx side. `payload` already starts with
/// the 9-byte demux tag for Data/LinkBye frames; `None` is a bare-header
/// session frame (heartbeat, bye).
struct MuxFrame {
    header: [u8; 4 + HEADER_LEN],
    payload: Option<pool::Lease<'static>>,
    queued_at: Instant,
}

impl MuxFrame {
    fn payload_bytes(&self) -> &[u8] {
        self.payload.as_ref().map_or(&[], |lease| lease.as_slice())
    }

    fn total(&self) -> usize {
        self.header.len() + self.payload_bytes().len()
    }
}

struct LinkQueue {
    frames: VecDeque<MuxFrame>,
    /// Token of the currently attached [`MuxTx`]; a stale handle's `close`
    /// must not close a queue that was since re-attached.
    open_token: u64,
    /// A `LinkBye` has been enqueued; the queue is removed once drained.
    closed: bool,
}

struct TxInner {
    queues: HashMap<LinkId, LinkQueue>,
    /// Round-robin order over `queues` keys — fairness across a pair's
    /// links when draining into one vectored write.
    order: Vec<LinkId>,
    rr: usize,
    /// `true` while the session sits on its servicer's ready list (or is
    /// being drained); senders ring the doorbell only on the
    /// false → true edge, so an active session costs one notify per drain,
    /// not one per frame.
    ready: bool,
}

impl TxInner {
    fn any_queued(&self) -> bool {
        self.queues.values().any(|q| !q.frames.is_empty())
    }
}

/// Where inbound frames for one link land before/after `connect_rx`.
enum Inbox {
    /// Frames that arrived before the receiver attached (copied out of the
    /// stream accumulator; only the attach race pays this copy).
    Buffering(VecDeque<Vec<u8>>),
    /// Live typed delivery; the token identifies the attached [`MuxRx`].
    Attached(Box<dyn MuxSink>, u64),
}

/// A session's rx demux table, keyed by link.
type Inboxes = Mutex<HashMap<LinkId, Inbox>>;

/// Type-erased delivery target: the session's reader demuxes raw payload
/// bytes without knowing the link's message type.
trait MuxSink: Send {
    fn deliver_data(&self, payload: &[u8]) -> SinkStatus;
    fn fail(&self, err: NetError);
}

#[derive(PartialEq)]
enum SinkStatus {
    Delivered,
    Gone,
}

struct TypedMuxSink<M> {
    events: MailboxTx<Result<M, NetError>>,
}

impl<M: Wire + Send + 'static> MuxSink for TypedMuxSink<M> {
    fn deliver_data(&self, payload: &[u8]) -> SinkStatus {
        match from_bytes::<M>(payload) {
            Ok(msg) => {
                if self.events.send(Ok(msg)).is_ok() {
                    SinkStatus::Delivered
                } else {
                    SinkStatus::Gone
                }
            }
            Err(err) => {
                let _ = self.events.send(Err(NetError::Codec(err.0)));
                SinkStatus::Gone
            }
        }
    }

    fn fail(&self, err: NetError) {
        let _ = self.events.send(Err(err));
    }
}

/// One end of a peer-pair session: the socket, the shared tx queue set and
/// the rx demux table. Both directions of every link between the pair ride
/// this one connection.
struct Session {
    id: u64,
    label: String,
    /// The session end's one socket: its tx servicer writes and its reader
    /// reads through `&TcpStream`.
    stream: TcpStream,
    tx: Mutex<TxInner>,
    /// Wakes senders blocked on a full per-link queue.
    space: Condvar,
    doorbell: Arc<TxDoorbell>,
    dead: AtomicBool,
    /// The first terminal error; every later observer fans out this one.
    fate: Mutex<Option<NetError>>,
    inboxes: Inboxes,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
}

impl Session {
    /// Marks the session dead exactly once: records `err` as its fate,
    /// wakes parked senders, shuts the socket down (which wakes the
    /// session's reader out of its blocked `read`) and drops it from the
    /// session gauge. Returns `true` for the call that performed the kill.
    fn kill(&self, err: NetError) -> bool {
        if self.dead.swap(true, Ordering::AcqRel) {
            return false;
        }
        *self.fate.lock() = Some(err);
        self.space.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
        aoft_obs::global().mux_sessions.add(-1);
        true
    }

    fn fate(&self) -> NetError {
        self.fate.lock().clone().unwrap_or(NetError::Closed)
    }

    /// Delivers the session's terminal error to every attached receiver —
    /// one session death becomes `PeerDead`/`Closed` on *every* link it
    /// carried — and drops buffered frames for never-attached links.
    fn fail_inboxes(&self) {
        let err = self.fate();
        let mut inboxes = self.inboxes.lock();
        for (_, inbox) in inboxes.drain() {
            if let Inbox::Attached(sink, _) = inbox {
                sink.fail(err.clone());
            }
        }
    }

    /// Puts the session on its tx servicer's ready list and rings the
    /// doorbell — the event-driven wakeup that keeps the tx side off any
    /// idle-sleep polling.
    fn ring(self: &Arc<Self>) {
        {
            let mut state = self.doorbell.state.lock();
            state.ready.push_back(Arc::clone(self));
        }
        self.doorbell.bell.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Endpoint handles
// ---------------------------------------------------------------------------

struct MuxTx<M> {
    session: Arc<Session>,
    link: LinkId,
    tag: [u8; 9],
    token: u64,
    cap: usize,
    _marker: PhantomData<fn(M)>,
}

impl<M: Wire + Send> LinkTx<M> for MuxTx<M> {
    fn send(&self, msg: M) -> Result<(), NetError> {
        if self.session.dead.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        // Single-pass framing: demux tag and message body serialize into
        // one pooled lease; the 10-byte header travels as a separate slice
        // of the vectored write.
        let mut payload = pool::global().lease();
        payload.extend_from_slice(&self.tag);
        msg.encode(&mut payload);
        let header = frame_header(FrameKind::Data, &payload);
        let frame = MuxFrame {
            header,
            payload: Some(payload),
            queued_at: Instant::now(),
        };
        let mut inner = self.session.tx.lock();
        loop {
            if self.session.dead.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            let queue = inner.queues.get(&self.link).ok_or(NetError::Closed)?;
            if queue.open_token != self.token || queue.closed {
                // A newer handle re-attached this link, or this handle
                // already closed it.
                return Err(NetError::Closed);
            }
            if queue.frames.len() < self.cap {
                break;
            }
            // Bounded wait so a dead servicer cannot strand the sender.
            self.session
                .space
                .wait_for(&mut inner, Duration::from_millis(50));
        }
        let queue = inner.queues.get_mut(&self.link).ok_or(NetError::Closed)?;
        queue.frames.push_back(frame);
        let must_ring = !inner.ready;
        inner.ready = true;
        drop(inner);
        if must_ring {
            self.session.ring();
        }
        Ok(())
    }

    fn close(&self) {
        self.close_link();
    }
}

impl<M> MuxTx<M> {
    /// Enqueues a `LinkBye` for this link (never blocks; byes bypass the
    /// cap) and marks the queue for removal once drained. A no-op when the
    /// link was since re-attached by a newer handle.
    fn close_link(&self) {
        let mut inner = self.session.tx.lock();
        let Some(queue) = inner.queues.get_mut(&self.link) else {
            return;
        };
        if queue.open_token != self.token || queue.closed {
            return;
        }
        queue.closed = true;
        if !self.session.dead.load(Ordering::Acquire) {
            queue.frames.push_back(MuxFrame {
                header: frame_header(FrameKind::LinkBye, &self.tag),
                payload: Some({
                    let mut lease = pool::global().lease();
                    lease.extend_from_slice(&self.tag);
                    lease
                }),
                queued_at: Instant::now(),
            });
        }
        let must_ring = !inner.ready;
        inner.ready = true;
        drop(inner);
        if must_ring {
            self.session.ring();
        }
    }
}

impl<M> Drop for MuxTx<M> {
    fn drop(&mut self) {
        self.close_link();
    }
}

struct MuxRx<M> {
    session: Arc<Session>,
    link: LinkId,
    token: u64,
    events: MailboxRx<Result<M, NetError>>,
}

impl<M: Send + 'static> LinkRx<M> for MuxRx<M> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<M, NetError> {
        self.events.recv_deadline(timeout, cancel)?
    }
}

impl<M> Drop for MuxRx<M> {
    fn drop(&mut self) {
        // Detach so frames for a future re-attach of this link buffer
        // fresh instead of feeding a dropped channel. Guarded by the attach
        // token: a stale handle must not evict its successor.
        let mut inboxes = self.session.inboxes.lock();
        if let Some(Inbox::Attached(_, token)) = inboxes.get(&self.link) {
            if *token == self.token {
                inboxes.remove(&self.link);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tx servicers: doorbell-driven drains
// ---------------------------------------------------------------------------

/// The doorbell one tx servicer sleeps on: sessions to adopt plus sessions
/// with queued frames.
struct TxDoorbell {
    state: Mutex<TxSvcState>,
    bell: Condvar,
}

#[derive(Default)]
struct TxSvcState {
    intake: Vec<Arc<Session>>,
    ready: VecDeque<Arc<Session>>,
}

enum TxTimerKind {
    /// The session's idle-heartbeat obligation came due.
    Heartbeat,
    /// A parked retry backoff elapsed.
    Retry,
}

/// A per-session obligation on the tx servicer's wheel — one entry per
/// *session*, however many links it carries.
struct TxTimer {
    id: u64,
    kind: TxTimerKind,
}

struct TxLocal {
    session: Arc<Session>,
    batch: Option<TxBatch>,
    attempts: u32,
    backoff: Backoff,
    blocked_until: Option<Instant>,
    last_write: Instant,
}

struct TxBatch {
    frames: Vec<MuxFrame>,
    written: usize,
}

impl TxBatch {
    fn total(&self) -> usize {
        self.frames.iter().map(MuxFrame::total).sum()
    }
}

/// Writes as much of `batch` as the socket accepts right now. `Ok(true)`
/// means the batch completed; `Ok(false)` means the socket pushed back
/// (`WouldBlock`/`SO_SNDTIMEO`) and the batch resumes later from the exact
/// byte offset — a retried write never re-sends a byte.
fn write_batch(stream: &TcpStream, batch: &mut TxBatch) -> io::Result<bool> {
    let total = batch.total();
    while batch.written < total {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(batch.frames.len() * 2);
        let mut skip = batch.written;
        for frame in &batch.frames {
            for part in [&frame.header[..], frame.payload_bytes()] {
                if skip >= part.len() {
                    skip -= part.len();
                } else {
                    slices.push(IoSlice::new(&part[skip..]));
                    skip = 0;
                }
            }
        }
        let mut writer: &TcpStream = stream;
        match writer.write_vectored(&slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => batch.written += n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(false)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

struct TxWorker {
    config: MuxConfig,
    shared: Arc<TxDoorbell>,
    shutdown: Arc<AtomicBool>,
}

enum DrainOutcome {
    Keep,
    Remove,
}

impl TxWorker {
    fn run(self) {
        let mut sessions: HashMap<u64, TxLocal> = HashMap::new();
        let mut wheel: TimerWheel<TxTimer> = TimerWheel::new();
        let heartbeat = self.config.heartbeat_interval.max(Duration::from_millis(1));
        loop {
            let (intake, ready) = {
                let mut state = self.shared.state.lock();
                (
                    std::mem::take(&mut state.intake),
                    std::mem::take(&mut state.ready),
                )
            };
            let now = Instant::now();
            for session in intake {
                wheel.schedule(
                    now + heartbeat,
                    TxTimer {
                        id: session.id,
                        kind: TxTimerKind::Heartbeat,
                    },
                );
                sessions.insert(
                    session.id,
                    TxLocal {
                        session,
                        batch: None,
                        attempts: 0,
                        backoff: Backoff::new(INITIAL_BACKOFF, MAX_BACKOFF),
                        blocked_until: None,
                        last_write: now,
                    },
                );
            }
            for session in ready {
                if let Some(local) = sessions.get_mut(&session.id) {
                    if let DrainOutcome::Remove = self.drain(local, &mut wheel) {
                        sessions.remove(&session.id);
                    }
                }
            }
            let now = Instant::now();
            while let Some(timer) = wheel.pop_expired(now) {
                let Some(local) = sessions.get_mut(&timer.id) else {
                    continue; // stale: the session is gone
                };
                let outcome = match timer.kind {
                    TxTimerKind::Heartbeat => {
                        let outcome = self.fire_heartbeat(local, &mut wheel, now);
                        if matches!(outcome, DrainOutcome::Keep) {
                            wheel.schedule(
                                now + heartbeat,
                                TxTimer {
                                    id: timer.id,
                                    kind: TxTimerKind::Heartbeat,
                                },
                            );
                        }
                        outcome
                    }
                    TxTimerKind::Retry => self.drain(local, &mut wheel),
                };
                if let DrainOutcome::Remove = outcome {
                    sessions.remove(&timer.id);
                }
            }
            if self.shutdown.load(Ordering::Acquire) {
                for (_, mut local) in sessions.drain() {
                    if local.session.dead.load(Ordering::Acquire) {
                        continue;
                    }
                    // Flush whatever is staged or queued (bounded), then
                    // close orderly; the peer fans out Closed per link.
                    let flush_deadline = Instant::now() + Duration::from_secs(1);
                    loop {
                        if local.batch.is_none() {
                            match pop_batch(&local.session, Instant::now()) {
                                Some(batch) => local.batch = Some(batch),
                                None => break,
                            }
                        }
                        let batch = local.batch.as_mut().expect("batch staged above");
                        match write_batch(&local.session.stream, batch) {
                            Ok(true) => local.batch = None,
                            Ok(false) => {
                                if Instant::now() >= flush_deadline {
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => break,
                        }
                    }
                    let mut writer: &TcpStream = &local.session.stream;
                    let _ = writer.write_all(&encode_frame(FrameKind::Bye, &[]));
                    let _ = local.session.stream.shutdown(Shutdown::Both);
                }
                return;
            }
            // Sleep on the bell, bounded by the earliest obligation. The
            // doorbell ends the wait immediately on any local enqueue.
            let mut state = self.shared.state.lock();
            if !state.intake.is_empty() || !state.ready.is_empty() {
                continue;
            }
            let timeout = wheel
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(100))
                .clamp(Duration::from_millis(1), Duration::from_millis(100));
            self.shared.bell.wait_for(&mut state, timeout);
        }
    }

    /// Emits an idle heartbeat: only when the session has nothing staged
    /// (a busy session's data *is* its liveness signal).
    fn fire_heartbeat(
        &self,
        local: &mut TxLocal,
        wheel: &mut TimerWheel<TxTimer>,
        now: Instant,
    ) -> DrainOutcome {
        if local.session.dead.load(Ordering::Acquire) {
            return DrainOutcome::Remove;
        }
        if local.batch.is_some()
            || local.blocked_until.is_some()
            || now.saturating_duration_since(local.last_write) < self.config.heartbeat_interval
        {
            return DrainOutcome::Keep;
        }
        if local.session.tx.lock().any_queued() {
            return DrainOutcome::Keep;
        }
        local.batch = Some(TxBatch {
            frames: vec![MuxFrame {
                header: frame_header(FrameKind::Heartbeat, &[]),
                payload: None,
                queued_at: now,
            }],
            written: 0,
        });
        self.drain(local, wheel)
    }

    /// Drives one session: builds a batch from its link queues (fair
    /// round-robin) if none is in flight, then writes it, parking on the
    /// wheel for backoff when the socket pushes back.
    fn drain(&self, local: &mut TxLocal, wheel: &mut TimerWheel<TxTimer>) -> DrainOutcome {
        let reg = aoft_obs::global();
        if local.session.dead.load(Ordering::Acquire) {
            return DrainOutcome::Remove;
        }
        let now = Instant::now();
        if let Some(until) = local.blocked_until {
            if now < until {
                return DrainOutcome::Keep; // the Retry timer re-enters
            }
            local.blocked_until = None;
        }
        if local.batch.is_none() {
            match pop_batch(&local.session, now) {
                Some(batch) => local.batch = Some(batch),
                None => return DrainOutcome::Keep, // spurious ring
            }
        }
        let done = {
            let batch = local.batch.as_mut().expect("batch staged above");
            match write_batch(&local.session.stream, batch) {
                Ok(done) => done,
                Err(err) => {
                    local.attempts += 1;
                    reg.net_send_retries.add(&local.session.label, 1);
                    if local.attempts > MAX_SEND_RETRIES {
                        local.session.kill(NetError::Io(format!(
                            "session {} write failed after {} attempts: {err}",
                            local.session.label, local.attempts
                        )));
                        return DrainOutcome::Remove;
                    }
                    let until = now + local.backoff.next_delay();
                    local.blocked_until = Some(until);
                    wheel.schedule(
                        until,
                        TxTimer {
                            id: local.session.id,
                            kind: TxTimerKind::Retry,
                        },
                    );
                    return DrainOutcome::Keep;
                }
            }
        };
        if !done {
            // Socket pushed back mid-batch: resume shortly; not a failure.
            let until = now + Duration::from_millis(1);
            local.blocked_until = Some(until);
            wheel.schedule(
                until,
                TxTimer {
                    id: local.session.id,
                    kind: TxTimerKind::Retry,
                },
            );
            return DrainOutcome::Keep;
        }
        let batch = local.batch.take().expect("batch staged above");
        local.session.bytes_sent.add(batch.total() as u64);
        local.attempts = 0;
        local.backoff.reset();
        local.last_write = Instant::now();
        // More frames may have queued while writing; keep the session on
        // the ready list so siblings get their turn between drains.
        let mut inner = local.session.tx.lock();
        if inner.any_queued() {
            inner.ready = true;
            drop(inner);
            local.session.ring();
        } else {
            inner.ready = false;
        }
        DrainOutcome::Keep
    }
}

/// Pops up to [`MAX_TX_COALESCE`] frames off a session's link queues, one
/// frame per link per cycle starting at the rotating cursor — the fair
/// round-robin drain that feeds a single `write_vectored`.
fn pop_batch(session: &Session, now: Instant) -> Option<TxBatch> {
    let reg = aoft_obs::global();
    let mut guard = session.tx.lock();
    let inner = &mut *guard;
    let mut frames: Vec<MuxFrame> = Vec::new();
    if !inner.order.is_empty() {
        inner.rr = (inner.rr + 1) % inner.order.len();
        let n = inner.order.len();
        let start = inner.rr;
        'outer: loop {
            let mut popped = false;
            for i in 0..n {
                let link = inner.order[(start + i) % n];
                if let Some(queue) = inner.queues.get_mut(&link) {
                    if let Some(frame) = queue.frames.pop_front() {
                        frames.push(frame);
                        popped = true;
                        if frames.len() >= MAX_TX_COALESCE {
                            break 'outer;
                        }
                    }
                }
            }
            if !popped {
                break;
            }
        }
    }
    // Fully-drained closed links leave the queue set: their LinkBye is in
    // the batch (or already on the wire), so the slot is free for a future
    // re-attach of the same link.
    let queues = &mut inner.queues;
    inner.order.retain(|link| match queues.get(link) {
        Some(queue) => !(queue.closed && queue.frames.is_empty()),
        None => false,
    });
    queues.retain(|_, queue| !(queue.closed && queue.frames.is_empty()));
    if frames.is_empty() {
        inner.ready = false;
        return None;
    }
    // Stay marked ready while the batch is in flight: the post-write check
    // in `drain` settles the flag, and senders skip redundant rings.
    inner.ready = true;
    drop(guard);
    // Senders parked on a full queue may proceed.
    session.space.notify_all();
    reg.mux_frames_per_write.record_count(frames.len() as u64);
    // Doorbell-to-drain latency: the age of the oldest frame in the batch.
    let oldest = frames
        .iter()
        .map(|f| now.saturating_duration_since(f.queued_at))
        .max()
        .unwrap_or(Duration::ZERO);
    reg.mux_wake_latency
        .record_micros(oldest.as_micros().min(u128::from(u64::MAX)) as u64);
    Some(TxBatch { frames, written: 0 })
}

// ---------------------------------------------------------------------------
// Readers: one blocking read loop per session end, demux, failure detection
// ---------------------------------------------------------------------------

/// A session end's receive buffer. Bytes are read straight into
/// `buf[end..]` and wait in `buf[start..end]` until they complete a frame;
/// nothing is copied on the way in and nothing is zero-filled per read.
///
/// The buffer starts at [`READ_CHUNK`] and grows by one `READ_CHUNK` only
/// when it is full of a single partial frame whose length field has
/// already been validated (≤ [`MAX_FRAME_LEN`]): it never holds more than
/// the bytes received plus one read, so a length claim backed by no bytes
/// reserves nothing.
#[derive(Default)]
struct RxBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RxBuf {
    /// The free tail the next read fills: never empty. A full buffer first
    /// moves its pending bytes to the front, and grows only if they fill it.
    fn spare(&mut self) -> &mut [u8] {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// Records `n` bytes just read into [`RxBuf::spare`].
    fn filled(&mut self, n: usize) {
        self.end += n;
    }

    /// Received bytes not yet consumed as frames.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }
}

/// A session end's reader thread: pumps the socket until the session ends,
/// then fans its fate out to every link the session carried.
fn read_session(session: Arc<Session>, config: MuxConfig) {
    let fate = pump_session(&session, &config);
    session.kill(fate);
    session.fail_inboxes();
}

/// Blocks in `read` on the session's socket, demuxing every complete frame
/// as it lands, until the stream ends, errs, turns corrupt or goes silent
/// past `heartbeat_timeout`. The read timeout is `heartbeat_interval`, the
/// cadence the silence check needs; a [`Session::kill`] from anywhere wakes
/// the read by shutting the socket down. Returns the session's fate.
fn pump_session(session: &Session, config: &MuxConfig) -> NetError {
    let interval = config.heartbeat_interval.max(Duration::from_millis(1));
    if let Err(err) = session.stream.set_read_timeout(Some(interval)) {
        return err.into();
    }
    let mut rx = RxBuf::default();
    let mut last_seen = Instant::now();
    let mut misses_reported = 0u64;
    loop {
        if session.dead.load(Ordering::Acquire) {
            return session.fate();
        }
        let mut reader: &TcpStream = &session.stream;
        match reader.read(rx.spare()) {
            Ok(0) => return NetError::Closed,
            Ok(n) => {
                rx.filled(n);
                last_seen = Instant::now();
                misses_reported = 0;
                session.bytes_received.add(n as u64);
                match drain_session_frames(&session.inboxes, &mut rx) {
                    FrameDrain::Continue => {}
                    FrameDrain::SessionBye => return NetError::Closed,
                    FrameDrain::Corrupt(detail) => return NetError::Codec(detail),
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Per-session failure detection: one silence clock covers
                // every link the session carries.
                let silent = last_seen.elapsed();
                if silent > config.heartbeat_timeout {
                    aoft_obs::global().net_peer_dead.add(&session.label, 1);
                    return NetError::PeerDead { silent_for: silent };
                }
                let misses = (silent.as_micros() / interval.as_micros()) as u64;
                if misses > misses_reported {
                    aoft_obs::global()
                        .net_heartbeat_misses
                        .add(&session.label, misses - misses_reported);
                    misses_reported = misses;
                }
            }
            Err(e) => return NetError::Io(e.to_string()),
        }
    }
}

#[derive(Debug, PartialEq)]
enum FrameDrain {
    Continue,
    SessionBye,
    Corrupt(String),
}

/// Decodes and demuxes every complete frame pending in `rx`, leaving any
/// trailing partial frame in place. Data and LinkBye frames route by their
/// 9-byte demux tag; Heartbeat refreshes liveness implicitly (any bytes
/// do); Bye ends the whole session.
fn drain_session_frames(inboxes: &Inboxes, rx: &mut RxBuf) -> FrameDrain {
    let pending = rx.pending();
    let mut consumed = 0;
    let outcome = loop {
        let rest = &pending[consumed..];
        if rest.len() < 4 {
            break FrameDrain::Continue;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
            break FrameDrain::Corrupt(format!("frame length {len} out of range"));
        }
        if rest.len() < 4 + len {
            break FrameDrain::Continue;
        }
        match decode_frame_body(&rest[4..4 + len]) {
            Ok((FrameKind::Data, payload)) => {
                let Some(tag) = demux_tag(payload) else {
                    break FrameDrain::Corrupt("data frame shorter than its demux tag".into());
                };
                deliver(inboxes, tag, &payload[9..]);
            }
            Ok((FrameKind::LinkBye, payload)) => {
                let Some(tag) = demux_tag(payload) else {
                    break FrameDrain::Corrupt("link bye shorter than its demux tag".into());
                };
                close_inbox(inboxes, tag);
            }
            Ok((FrameKind::Heartbeat, _)) => {}
            Ok((FrameKind::Bye, _)) => break FrameDrain::SessionBye,
            Err(err) => break FrameDrain::Corrupt(err.0),
        }
        consumed += 4 + len;
    };
    rx.consume(consumed);
    outcome
}

fn demux_tag(payload: &[u8]) -> Option<LinkId> {
    if payload.len() < 9 {
        return None;
    }
    let mut tag = [0u8; 9];
    tag.copy_from_slice(&payload[..9]);
    Some(LinkId::from_handshake(tag))
}

fn deliver(inboxes: &Inboxes, link: LinkId, bytes: &[u8]) {
    let mut inboxes = inboxes.lock();
    match inboxes.get_mut(&link) {
        Some(Inbox::Attached(sink, _)) => {
            if sink.deliver_data(bytes) == SinkStatus::Gone {
                inboxes.remove(&link);
            }
        }
        Some(Inbox::Buffering(queue)) => queue.push_back(bytes.to_vec()),
        None => {
            // Receiver not attached yet (the connect_rx race): buffer the
            // raw payload; the attach drains it in order.
            let mut queue = VecDeque::new();
            queue.push_back(bytes.to_vec());
            inboxes.insert(link, Inbox::Buffering(queue));
        }
    }
}

fn close_inbox(inboxes: &Inboxes, link: LinkId) {
    let mut inboxes = inboxes.lock();
    match inboxes.remove(&link) {
        Some(Inbox::Attached(sink, _)) => sink.fail(NetError::Closed),
        // Buffered-but-never-claimed frames drop with the link, exactly as
        // a per-link socket closed before its connect_rx claim would.
        Some(Inbox::Buffering(_)) | None => {}
    }
}

// ---------------------------------------------------------------------------
// The transport: session establishment and link attachment
// ---------------------------------------------------------------------------

/// State the acceptor and servicer threads share with the transport handle.
struct MuxShared {
    config: MuxConfig,
    accepted: Mutex<HashMap<Pair, Arc<Session>>>,
    accepted_cv: Condvar,
    tx_pool: Vec<Arc<TxDoorbell>>,
    next_assign: AtomicUsize,
    /// One reader per session end created so far and not yet seen to
    /// finish; the transport joins them all when it drops.
    readers: Mutex<Vec<JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
}

impl MuxShared {
    /// Wraps an established socket as a live session: registers it with a
    /// tx doorbell (round-robin), spawns its reader and counts it on the
    /// session gauge.
    fn create_session(&self, pair: Pair, stream: TcpStream) -> Result<Arc<Session>, NetError> {
        // The tx servicer and the reader share this one fd (`read`/`write`
        // through `&TcpStream` are independently safe): one fd per session
        // end is exactly the resource claim the fd-count tests assert.
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_SLICE))?;
        let label = pair_label(pair);
        let reg = aoft_obs::global();
        let idx = self.next_assign.fetch_add(1, Ordering::Relaxed);
        let doorbell = Arc::clone(&self.tx_pool[idx % self.tx_pool.len()]);
        let session = Arc::new(Session {
            id: next_id(),
            label: label.clone(),
            stream,
            tx: Mutex::new(TxInner {
                queues: HashMap::new(),
                order: Vec::new(),
                rr: 0,
                ready: false,
            }),
            space: Condvar::new(),
            doorbell,
            dead: AtomicBool::new(false),
            fate: Mutex::new(None),
            inboxes: Mutex::new(HashMap::new()),
            bytes_sent: reg.mux_bytes_sent.with_label(&label),
            bytes_received: reg.mux_bytes_received.with_label(&label),
        });
        let reader = {
            let session = Arc::clone(&session);
            let config = self.config.clone();
            std::thread::Builder::new()
                .name(format!("aoft-mux-rx-{label}"))
                .spawn(move || read_session(session, config))
                .map_err(|e| NetError::Io(format!("spawn mux reader for {label}: {e}")))?
        };
        reg.mux_sessions.add(1);
        {
            // Reap the readers of sessions that have ended (joining a
            // finished thread does not block), so the list tracks live ones.
            let mut readers = self.readers.lock();
            while let Some(done) = readers.iter().position(JoinHandle::is_finished) {
                let _ = readers.swap_remove(done).join();
            }
            readers.push(reader);
        }
        {
            let mut state = session.doorbell.state.lock();
            state.intake.push(Arc::clone(&session));
        }
        session.doorbell.bell.notify_one();
        Ok(session)
    }
}

/// Dialer → acceptor session preamble: magic, peer pair, dialer label and
/// an informational link manifest.
fn write_preamble(
    stream: &TcpStream,
    pair: Pair,
    dialer: u32,
    manifest: &[LinkId],
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(22 + manifest.len() * 9);
    buf.extend_from_slice(&MUX_MAGIC);
    buf.extend_from_slice(&pair.0.to_le_bytes());
    buf.extend_from_slice(&pair.1.to_le_bytes());
    buf.extend_from_slice(&dialer.to_le_bytes());
    buf.extend_from_slice(&(manifest.len().min(MAX_MANIFEST) as u16).to_le_bytes());
    for link in manifest.iter().take(MAX_MANIFEST) {
        buf.extend_from_slice(&link.to_handshake());
    }
    let mut writer: &TcpStream = stream;
    writer.write_all(&buf)
}

fn read_preamble(stream: &TcpStream) -> Result<Pair, NetError> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut head = [0u8; 22];
    (&mut &*stream).read_exact(&mut head)?;
    if head[..8] != MUX_MAGIC {
        return Err(NetError::Codec("bad mux session magic".into()));
    }
    let lo = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    let hi = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
    if lo > hi {
        return Err(NetError::Codec(format!(
            "mux preamble pair out of order: ({lo}, {hi})"
        )));
    }
    let count = u16::from_le_bytes(head[20..22].try_into().expect("2 bytes")) as usize;
    if count > MAX_MANIFEST {
        return Err(NetError::Codec(format!(
            "mux manifest claims {count} links (max {MAX_MANIFEST})"
        )));
    }
    // The manifest is informational (the trigger link plus whatever the
    // dialer chose to announce); consume and discard it.
    let mut entry = [0u8; 9];
    for _ in 0..count {
        (&mut &*stream).read_exact(&mut entry)?;
    }
    stream.set_read_timeout(None)?;
    Ok((lo, hi))
}

fn acceptor_loop(listener: TcpListener, shared: Arc<MuxShared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // A corrupt or foreign dial just loses its socket; it must not
        // take the acceptor down.
        let Ok(pair) = read_preamble(&stream) else {
            continue;
        };
        let Ok(session) = shared.create_session(pair, stream) else {
            continue;
        };
        let mut map = shared.accepted.lock();
        if let Some(old) = map.insert(pair, Arc::clone(&session)) {
            // A re-dial for a pair replaces its (dead or stale)
            // predecessor; whoever still held it observes Closed.
            old.kill(NetError::Closed);
            old.fail_inboxes();
        }
        drop(map);
        shared.accepted_cv.notify_all();
    }
}

enum DialSlot {
    /// Some caller is mid-dial; wait on the condvar.
    Dialing,
    Ready(Arc<Session>),
}

/// A socket transport that multiplexes every link of a peer pair over one
/// physical TCP session.
///
/// Socket count is `O(peer pairs)`, not `O(directed links)`. Threads are
/// 2 tx servicers + the acceptor, plus one reader blocked on each session
/// end's socket: 27 for a loopback d=3 cube (24 ends), 387 at d=6 — the
/// price of a first byte that wakes its reader directly, where a shared
/// reader pool would sweep. Dropping the transport kills every session and
/// joins every reader. Every label dials this
/// transport's own listener unless [`MuxTransport::set_peer`] routes it
/// elsewhere; both sides of a pair must use `MuxTransport`.
///
/// Session establishment is deterministic: for any pair `(lo, hi)` the
/// endpoint acting as `lo` dials `hi`'s listener; the endpoint acting as
/// `hi` waits for the inbound session. On a single transport (loopback
/// cluster) both roles coexist, so each pair holds exactly two session
/// ends over one TCP connection.
pub struct MuxTransport {
    shared: Arc<MuxShared>,
    listener_addr: SocketAddr,
    peers: Mutex<HashMap<u32, SocketAddr>>,
    dial: Mutex<HashMap<Pair, DialSlot>>,
    dial_cv: Condvar,
    threads: Vec<JoinHandle<()>>,
}

impl MuxTransport {
    /// Binds a listener on an ephemeral loopback port and starts the tx
    /// servicers and the acceptor; each session brings its own reader.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind or a servicer thread
    /// cannot spawn.
    pub fn bind(config: MuxConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listener_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let mut tx_pool = Vec::new();
        for idx in 0..TX_SERVICERS {
            let doorbell = Arc::new(TxDoorbell {
                state: Mutex::new(TxSvcState::default()),
                bell: Condvar::new(),
            });
            tx_pool.push(Arc::clone(&doorbell));
            let worker = TxWorker {
                config: config.clone(),
                shared: doorbell,
                shutdown: Arc::clone(&shutdown),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aoft-mux-tx-{idx}"))
                    .spawn(move || worker.run())
                    .map_err(|e| NetError::Io(format!("spawn mux tx servicer {idx}: {e}")))?,
            );
        }
        let shared = Arc::new(MuxShared {
            config,
            accepted: Mutex::new(HashMap::new()),
            accepted_cv: Condvar::new(),
            tx_pool,
            next_assign: AtomicUsize::new(0),
            readers: Mutex::new(Vec::new()),
            shutdown,
        });
        let acceptor_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("aoft-mux-accept".into())
                .spawn(move || acceptor_loop(listener, acceptor_shared))
                .map_err(|e| NetError::Io(format!("spawn mux acceptor: {e}")))?,
        );
        Ok(Self {
            shared,
            listener_addr,
            peers: Mutex::new(HashMap::new()),
            dial: Mutex::new(HashMap::new()),
            dial_cv: Condvar::new(),
            threads,
        })
    }

    /// A whole cube in one process: binds with the default config and
    /// routes every label in `0..nodes` to this transport's own listener,
    /// so each compare-exchange crosses a real loopback socket. In a
    /// multi-process cluster each label's [`MuxTransport::set_peer`] points
    /// at a different process instead.
    ///
    /// # Errors
    ///
    /// As [`MuxTransport::bind`].
    pub fn loopback(nodes: u32) -> Result<Self, NetError> {
        let transport = Self::bind(MuxConfig::default())?;
        for label in 0..nodes {
            transport.set_peer(label, transport.listener_addr);
        }
        Ok(transport)
    }

    /// The address peers dial to reach this transport's sessions.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// Routes future dials toward node `label` to `addr` instead of this
    /// transport's own listener (multi-process clusters).
    pub fn set_peer(&self, label: u32, addr: SocketAddr) {
        self.peers.lock().insert(label, addr);
    }

    /// Live session *ends* held by this transport (dialed + accepted).
    /// A loopback cluster holds two ends per peer pair; a multi-process
    /// cluster holds one end per remote pair.
    pub fn session_count(&self) -> usize {
        let dialed = self
            .dial
            .lock()
            .values()
            .filter(|slot| matches!(slot, DialSlot::Ready(s) if !s.dead.load(Ordering::Acquire)))
            .count();
        let accepted = self
            .shared
            .accepted
            .lock()
            .values()
            .filter(|s| !s.dead.load(Ordering::Acquire))
            .count();
        dialed + accepted
    }

    fn addr_of(&self, label: u32) -> SocketAddr {
        self.peers
            .lock()
            .get(&label)
            .copied()
            .unwrap_or(self.listener_addr)
    }

    /// Resolves the session carrying `link` for the local endpoint
    /// (`local_is_from` says which end of the link we are): the `lo` side
    /// of the pair dials, the `hi` side waits for the inbound session.
    fn session_for(
        &self,
        link: LinkId,
        deadline: Duration,
        local_is_from: bool,
    ) -> Result<Arc<Session>, NetError> {
        if link.from == link.to {
            return Err(NetError::Io(format!(
                "mux transport does not support self-links ({link})"
            )));
        }
        let pair = link.peer_pair();
        let local = if local_is_from { link.from } else { link.to };
        if local == pair.0 {
            self.dial_session(pair, local, link, deadline)
        } else {
            self.wait_accepted(pair, deadline)
        }
    }

    fn dial_session(
        &self,
        pair: Pair,
        dialer: u32,
        trigger: LinkId,
        deadline: Duration,
    ) -> Result<Arc<Session>, NetError> {
        let deadline_at = Instant::now() + deadline;
        {
            let mut map = self.dial.lock();
            loop {
                let stale = match map.get(&pair) {
                    Some(DialSlot::Ready(session)) => {
                        if !session.dead.load(Ordering::Acquire) {
                            return Ok(Arc::clone(session));
                        }
                        true
                    }
                    Some(DialSlot::Dialing) => {
                        let now = Instant::now();
                        if now >= deadline_at {
                            return Err(NetError::Timeout { waited: deadline });
                        }
                        let _ = self
                            .dial_cv
                            .wait_for(&mut map, (deadline_at - now).min(Duration::from_millis(50)));
                        continue;
                    }
                    None => {
                        map.insert(pair, DialSlot::Dialing);
                        break;
                    }
                };
                if stale {
                    map.remove(&pair);
                }
            }
        }
        // This caller owns the dial; everyone else waits on the slot.
        let result = self.establish(pair, dialer, trigger, deadline_at);
        let mut map = self.dial.lock();
        match result {
            Ok(session) => {
                map.insert(pair, DialSlot::Ready(Arc::clone(&session)));
                drop(map);
                self.dial_cv.notify_all();
                Ok(session)
            }
            Err(err) => {
                map.remove(&pair);
                drop(map);
                self.dial_cv.notify_all();
                Err(err)
            }
        }
    }

    fn establish(
        &self,
        pair: Pair,
        dialer: u32,
        trigger: LinkId,
        deadline_at: Instant,
    ) -> Result<Arc<Session>, NetError> {
        let remote = if dialer == pair.0 { pair.1 } else { pair.0 };
        let addr = self.addr_of(remote);
        let mut delay = Duration::from_millis(5);
        let stream = loop {
            let now = Instant::now();
            if now >= deadline_at {
                return Err(NetError::Timeout {
                    waited: Duration::ZERO,
                });
            }
            let budget = (deadline_at - now).min(self.shared.config.connect_timeout);
            match TcpStream::connect_timeout(&addr, budget) {
                Ok(stream) => break stream,
                Err(_) => {
                    // The peer's listener may not be up yet (process
                    // startup races); back off and re-dial until the
                    // engine's deadline.
                    std::thread::sleep(
                        delay.min(deadline_at.saturating_duration_since(Instant::now())),
                    );
                    delay = (delay * 2).min(Duration::from_millis(100));
                }
            }
        };
        write_preamble(&stream, pair, dialer, &[trigger])?;
        self.shared.create_session(pair, stream)
    }

    fn wait_accepted(&self, pair: Pair, deadline: Duration) -> Result<Arc<Session>, NetError> {
        let deadline_at = Instant::now() + deadline;
        let mut map = self.shared.accepted.lock();
        loop {
            let stale = match map.get(&pair) {
                Some(session) => {
                    if !session.dead.load(Ordering::Acquire) {
                        return Ok(Arc::clone(session));
                    }
                    true
                }
                None => false,
            };
            if stale {
                map.remove(&pair);
            }
            let now = Instant::now();
            if now >= deadline_at {
                return Err(NetError::Timeout { waited: deadline });
            }
            let _ = self
                .shared
                .accepted_cv
                .wait_for(&mut map, (deadline_at - now).min(Duration::from_millis(50)));
        }
    }
}

impl<M: Wire + Send + 'static> Transport<M> for MuxTransport {
    fn connect_tx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkTx<M>>, NetError> {
        let session = self.session_for(link, deadline, true)?;
        let token = next_id();
        {
            let mut inner = session.tx.lock();
            if !inner.queues.contains_key(&link) {
                inner.order.push(link);
            }
            // A re-attach replaces the previous attempt's queue outright —
            // stale undelivered frames belong to the failed attempt.
            inner.queues.insert(
                link,
                LinkQueue {
                    frames: VecDeque::new(),
                    open_token: token,
                    closed: false,
                },
            );
        }
        if session.dead.load(Ordering::Acquire) {
            return Err(session.fate());
        }
        Ok(Box::new(MuxTx {
            session,
            link,
            tag: link.to_handshake(),
            token,
            cap: TX_QUEUE_FRAMES,
            _marker: PhantomData,
        }))
    }

    fn connect_rx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkRx<M>>, NetError> {
        let session = self.session_for(link, deadline, false)?;
        let (events_tx, events_rx) = mailbox::<Result<M, NetError>>();
        let token = next_id();
        let sink = TypedMuxSink::<M> { events: events_tx };
        {
            let mut inboxes = session.inboxes.lock();
            match inboxes.remove(&link) {
                Some(Inbox::Buffering(mut queue)) => {
                    // Frames that raced ahead of this attach flow through
                    // the new sink in arrival order.
                    let mut gone = false;
                    while let Some(bytes) = queue.pop_front() {
                        if sink.deliver_data(&bytes) == SinkStatus::Gone {
                            gone = true;
                            break;
                        }
                    }
                    if !gone {
                        inboxes.insert(link, Inbox::Attached(Box::new(sink), token));
                    }
                }
                Some(Inbox::Attached(old_sink, _)) => {
                    // A newer claim evicts the previous receiver (a failed
                    // attempt's endpoint the engine is replacing).
                    old_sink.fail(NetError::Closed);
                    inboxes.insert(link, Inbox::Attached(Box::new(sink), token));
                }
                None => {
                    inboxes.insert(link, Inbox::Attached(Box::new(sink), token));
                }
            }
        }
        if session.dead.load(Ordering::Acquire) {
            // Raced with the session's death after the reader's inbox
            // fan-out: fail our own sink so the receiver observes
            // the session's fate instead of a silent timeout.
            let err = session.fate();
            let mut inboxes = session.inboxes.lock();
            if let Some(Inbox::Attached(sink, t)) = inboxes.remove(&link) {
                if t == token {
                    sink.fail(err);
                } else {
                    inboxes.insert(link, Inbox::Attached(sink, t));
                }
            }
        }
        Ok(Box::new(MuxRx {
            session,
            link,
            token,
            events: events_rx,
        }))
    }
}

impl Drop for MuxTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for doorbell in &self.shared.tx_pool {
            doorbell.bell.notify_all();
        }
        // The acceptor sits in blocking accept; a throwaway connection
        // makes it re-check the shutdown flag.
        let _ = TcpStream::connect(self.listener_addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Account every surviving session off the gauge and fail any
        // receiver still attached; the kill also wakes each reader, so none
        // outlives the transport.
        let mut accepted = self.shared.accepted.lock();
        for (_, session) in accepted.drain() {
            session.kill(NetError::Closed);
            session.fail_inboxes();
        }
        drop(accepted);
        for (_, slot) in self.dial.lock().drain() {
            if let DialSlot::Ready(session) = slot {
                session.kill(NetError::Closed);
                session.fail_inboxes();
            }
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock());
        for handle in readers {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::mailbox::contract;
    use proptest::prelude::*;

    fn link(from: u32, to: u32, tag: u8) -> LinkId {
        LinkId { from, to, tag }
    }

    fn fast_config() -> MuxConfig {
        MuxConfig {
            connect_timeout: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(250),
        }
    }

    #[test]
    fn round_trip_over_one_session() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        // Three links between the same pair, both directions, mixed tags:
        // all must ride one connection (two session ends on loopback).
        let links = [link(1, 2, 0), link(2, 1, 0), link(1, 2, 7)];
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for l in links {
            txs.push(Transport::<u64>::connect_tx(&transport, l, deadline).unwrap());
            rxs.push(Transport::<u64>::connect_rx(&transport, l, deadline).unwrap());
        }
        assert_eq!(transport.session_count(), 2, "one pair = two loopback ends");
        for round in 0..50u64 {
            for (i, tx) in txs.iter().enumerate() {
                tx.send(round * 10 + i as u64).unwrap();
            }
            for (i, rx) in rxs.iter().enumerate() {
                let got = rx.recv_deadline(Duration::from_secs(5), &cancel).unwrap();
                assert_eq!(
                    got,
                    round * 10 + i as u64,
                    "link {} round {round}",
                    links[i]
                );
            }
        }
    }

    #[test]
    fn per_link_fifo_under_interleave() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let a = link(3, 4, 0);
        let b = link(3, 4, 1);
        let tx_a = Transport::<u64>::connect_tx(&transport, a, deadline).unwrap();
        let tx_b = Transport::<u64>::connect_tx(&transport, b, deadline).unwrap();
        let rx_a = Transport::<u64>::connect_rx(&transport, a, deadline).unwrap();
        let rx_b = Transport::<u64>::connect_rx(&transport, b, deadline).unwrap();
        for i in 0..200u64 {
            tx_a.send(i).unwrap();
            tx_b.send(1000 + i).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(
                rx_a.recv_deadline(Duration::from_secs(5), &cancel).unwrap(),
                i
            );
            assert_eq!(
                rx_b.recv_deadline(Duration::from_secs(5), &cancel).unwrap(),
                1000 + i
            );
        }
    }

    #[test]
    fn buffered_frames_survive_late_attach() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let l = link(5, 6, 2);
        let tx = Transport::<u64>::connect_tx(&transport, l, deadline).unwrap();
        for i in 0..10u64 {
            tx.send(i).unwrap();
        }
        // Give the frames time to cross before the receiver exists.
        std::thread::sleep(Duration::from_millis(100));
        let rx = Transport::<u64>::connect_rx(&transport, l, deadline).unwrap();
        for i in 0..10u64 {
            assert_eq!(
                rx.recv_deadline(Duration::from_secs(5), &cancel).unwrap(),
                i
            );
        }
    }

    #[test]
    fn link_bye_closes_only_that_link() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let dying = link(7, 8, 0);
        let surviving = link(7, 8, 1);
        let tx_dying = Transport::<u64>::connect_tx(&transport, dying, deadline).unwrap();
        let tx_surviving = Transport::<u64>::connect_tx(&transport, surviving, deadline).unwrap();
        let rx_dying = Transport::<u64>::connect_rx(&transport, dying, deadline).unwrap();
        let rx_surviving = Transport::<u64>::connect_rx(&transport, surviving, deadline).unwrap();
        tx_dying.send(1).unwrap();
        assert_eq!(
            rx_dying
                .recv_deadline(Duration::from_secs(5), &cancel)
                .unwrap(),
            1
        );
        drop(tx_dying); // enqueues the LinkBye
        let err = rx_dying
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Closed), "got {err}");
        // The sibling link on the same session is unaffected.
        tx_surviving.send(2).unwrap();
        assert_eq!(
            rx_surviving
                .recv_deadline(Duration::from_secs(5), &cancel)
                .unwrap(),
            2
        );
        assert_eq!(transport.session_count(), 2);
    }

    #[test]
    fn dropped_sender_yields_closed() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let l = link(0, 2, 1);
        let tx = Transport::<u64>::connect_tx(&transport, l, deadline).unwrap();
        let rx = Transport::<u64>::connect_rx(&transport, l, deadline).unwrap();
        // Nothing was ever sent: the drop alone must surface as Closed,
        // not as a timeout.
        drop(tx);
        let err = rx
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        assert_eq!(err, NetError::Closed);
    }

    #[test]
    fn cancel_interrupts_blocked_mux_recv() {
        // The heartbeat timers stay live on the servicer threads throughout:
        // none of them may wake (or end) a receive.
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let deadline = Duration::from_secs(5);
        let l = link(3, 4, 0);
        let _tx = Transport::<u32>::connect_tx(&transport, l, deadline).unwrap();
        let rx = Transport::<u32>::connect_rx(&transport, l, deadline).unwrap();
        contract::cancel_interrupts_a_long_blocked_recv(&*rx);
        contract::cancel_racing_recv_start_is_never_lost(&*rx);
        contract::silent_deadline_wakes_exactly_once(&*rx);
        contract::reused_receiver_follows_its_current_token(&*rx);
    }

    #[test]
    fn silent_raw_peer_fans_peer_dead_to_every_link() {
        // A hand-rolled peer that completes the preamble and then goes
        // silent: every link attached to that session must observe
        // PeerDead, not just one.
        let config = MuxConfig {
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(120),
            ..MuxConfig::default()
        };
        let transport = MuxTransport::bind(config).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        // Local label 9 is `hi` of pair (2, 9): the remote end dials us.
        let raw = TcpStream::connect(transport.local_addr()).unwrap();
        write_preamble(&raw, (2, 9), 2, &[]).unwrap();
        let l_a = link(2, 9, 0);
        let l_b = link(2, 9, 1);
        let rx_a = Transport::<u64>::connect_rx(&transport, l_a, deadline).unwrap();
        let rx_b = Transport::<u64>::connect_rx(&transport, l_b, deadline).unwrap();
        let err_a = rx_a
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        let err_b = rx_b
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        for err in [err_a, err_b] {
            assert!(matches!(err, NetError::PeerDead { .. }), "got {err}");
        }
        drop(raw);
    }

    #[test]
    fn corrupt_stream_kills_the_session() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let raw = TcpStream::connect(transport.local_addr()).unwrap();
        write_preamble(&raw, (1, 9), 1, &[]).unwrap();
        let rx = Transport::<u64>::connect_rx(&transport, link(1, 9, 0), deadline).unwrap();
        // Garbage that parses as an absurd frame length.
        (&raw).write_all(&[0xFF; 64]).unwrap();
        let err = rx
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Codec(_)), "got {err}");
    }

    #[test]
    fn connect_rx_times_out_without_a_dialer() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        // Local label 5 is `hi` of (1, 5); nobody ever dials.
        let err = match Transport::<u64>::connect_rx(
            &transport,
            link(1, 5, 0),
            Duration::from_millis(200),
        ) {
            Ok(_) => panic!("connect_rx succeeded without a dialer"),
            Err(err) => err,
        };
        assert!(matches!(err, NetError::Timeout { .. }), "got {err}");
    }

    #[test]
    fn self_links_rejected() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let err =
            match Transport::<u64>::connect_tx(&transport, link(3, 3, 0), Duration::from_secs(1)) {
                Ok(_) => panic!("self-link connect_tx succeeded"),
                Err(err) => err,
            };
        assert!(matches!(err, NetError::Io(_)), "got {err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Peer bytes are hostile input. Any stream — valid frames, garbage,
        /// length claims up to the maximum backed by a few bytes — cut into
        /// reads of any size ends only in continue, corrupt or session-bye,
        /// never a panic, and the receive buffer never holds more than the
        /// bytes received plus one read.
        #[test]
        fn hostile_streams_end_in_continue_corrupt_or_bye(
            segments in prop::collection::vec(
                (0u8..8, prop::collection::vec(any::<u8>(), 0..48), any::<u32>()),
                0..10,
            ),
            reads in prop::collection::vec(1usize..100_000, 1..12),
        ) {
            let kinds = [FrameKind::Data, FrameKind::LinkBye, FrameKind::Heartbeat, FrameKind::Bye];
            let mut stream = Vec::new();
            for (kind, bytes, n) in &segments {
                let mut payload = link(n % 16, 16, 0).to_handshake().to_vec();
                payload.extend_from_slice(bytes);
                match *kind {
                    k @ 0..=3 => stream.extend(encode_frame(kinds[k as usize], &payload)),
                    4 => {
                        // Longer than one read: the buffer has to grow.
                        payload.resize(9 + *n as usize % (3 * READ_CHUNK), 7);
                        stream.extend(encode_frame(FrameKind::Data, &payload));
                    }
                    5 => {
                        let claim = HEADER_LEN + *n as usize % (MAX_FRAME_LEN - HEADER_LEN + 1);
                        stream.extend((claim as u32).to_le_bytes());
                        stream.extend_from_slice(bytes);
                    }
                    // A well-formed frame that may be short of its tag.
                    6 => stream.extend(encode_frame(kinds[*n as usize % 4], bytes)),
                    _ => stream.extend_from_slice(bytes),
                }
            }
            let inboxes: Inboxes = Mutex::new(HashMap::new());
            let mut rx = RxBuf::default();
            let (mut received, mut outcome) = (0, FrameDrain::Continue);
            for read in reads.iter().cycle() {
                if received == stream.len() || outcome != FrameDrain::Continue {
                    break;
                }
                let spare = rx.spare();
                let n = (*read).min(spare.len()).min(stream.len() - received);
                spare[..n].copy_from_slice(&stream[received..received + n]);
                rx.filled(n);
                received += n;
                prop_assert!(rx.buf.len() <= received + READ_CHUNK, "{} held", rx.buf.len());
                outcome = drain_session_frames(&inboxes, &mut rx);
            }
            // Frames this codec wrote are never judged corrupt, however the
            // reads cut them.
            if segments.iter().all(|(kind, _, _)| *kind <= 4) {
                prop_assert!(!matches!(outcome, FrameDrain::Corrupt(_)), "{:?}", outcome);
            }
        }
    }

    #[test]
    fn heartbeats_keep_an_idle_session_alive() {
        let config = MuxConfig {
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(150),
            ..MuxConfig::default()
        };
        let transport = MuxTransport::bind(config).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let l = link(11, 12, 0);
        let tx = Transport::<u64>::connect_tx(&transport, l, deadline).unwrap();
        let rx = Transport::<u64>::connect_rx(&transport, l, deadline).unwrap();
        // Stay idle well past the heartbeat timeout, then exchange.
        std::thread::sleep(Duration::from_millis(600));
        tx.send(42).unwrap();
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(5), &cancel).unwrap(),
            42
        );
    }
}
