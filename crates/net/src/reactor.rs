//! Reactor backend: nonblocking sockets multiplexed by a fixed thread pool.
//!
//! The [`TcpTransport`](crate::TcpTransport) spends two OS threads per
//! link; at hypercube dimension d that is `2 · d · 2^d` transport threads —
//! the scaling ceiling ROADMAP item 1 names. [`ReactorTransport`] keeps the
//! same wire format, handshake, heartbeat failure detector, and
//! [`Transport`] contract, but drives *every* link from a small fixed pool
//! of reactor threads (`O(reactors)`, not `O(links)`):
//!
//! * sockets run nonblocking; each reactor pass pumps every owned link's
//!   reads and writes until they would block, then sleeps on a short
//!   adaptive ramp bounded by its [`TimerWheel`]'s next deadline;
//! * reactor 0 additionally owns the nonblocking listener and a handshake
//!   state machine that assembles the 9-byte [`LinkId`] preamble
//!   incrementally before publishing the socket for `connect_rx` to claim;
//! * tx frames travel exactly as in the threaded backend — a precomputed
//!   [`frame_header`] plus a pooled payload lease, written vectored — but
//!   queue into a *bounded* per-link command queue: a full queue blocks the
//!   sender (backpressure) instead of growing without bound;
//! * heartbeats, silence dead-checks, and write-retry backoff are all
//!   timers on the reactor's wheel ([`crate::timer`]), replacing the
//!   per-link `recv_timeout`/`read_timeout` clocks of the threaded backend.
//!
//! The crate forbids `unsafe` and links no FFI, so there is no `epoll`;
//! readiness is discovered by polling `WouldBlock` on nonblocking sockets.
//! Under load a reactor hot-loops (no sleep while any link makes progress),
//! so throughput matches the threaded backend; only the first byte after an
//! idle period pays up to one idle-sleep slice (bounded by
//! [`ReactorConfig::idle_sleep_max`]) of latency.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoft_obs::LinkCounters;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use crate::frame::{
    decode_frame_body, encode_frame, frame_header, FrameKind, HEADER_LEN, MAX_FRAME_LEN,
};
use crate::pool;
use crate::tcp::{FailureWatch, PendingSockets, HANDSHAKE_TIMEOUT};
use crate::timer::{Timer, TimerKind, TimerWheel};
use crate::wire::{from_bytes, Wire};
use crate::{Backoff, CancelToken, LinkId, LinkRx, LinkTx, NetError, PollSlices, Transport};

/// Default first idle-sleep slice; doubles per idle pass up to
/// [`ReactorConfig::idle_sleep_max`]. Overridable at runtime via
/// [`ReactorConfig::idle_sleep_min`] or the `AOFT_REACTOR_IDLE_US` env knob.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(500);

/// Reads the `AOFT_REACTOR_IDLE_US` env knob: `"<min_us>"` or
/// `"<min_us>:<max_us>"` (microseconds). Returns the provided defaults when
/// the variable is unset or malformed, and never lets the ramp invert
/// (`max` is floored at `min`). Shared by the reactor and mux backends so
/// soaks can sweep the latency/CPU trade-off without a rebuild.
pub(crate) fn idle_ramp_from_env(
    default_min: Duration,
    default_max: Duration,
) -> (Duration, Duration) {
    let (mut min, mut max) = (default_min, default_max);
    if let Ok(raw) = std::env::var("AOFT_REACTOR_IDLE_US") {
        let mut parts = raw.splitn(2, ':');
        if let Some(us) = parts.next().and_then(|p| p.trim().parse::<u64>().ok()) {
            min = Duration::from_micros(us);
        }
        if let Some(us) = parts.next().and_then(|p| p.trim().parse::<u64>().ok()) {
            max = Duration::from_micros(us);
        }
    }
    (min, max.max(min))
}

/// Reads one reactor pass allows a single rx link before yielding to its
/// siblings — bounds per-link monopoly of the pass, not throughput.
const READS_PER_PASS: usize = 8;

/// Queued frames one tx drain coalesces into a single `write_vectored` —
/// bounds the IoSlice list and per-link monopoly of the pass, not
/// throughput (the pump loops until the queue empties or the socket
/// blocks).
const MAX_TX_COALESCE: usize = 64;

/// Tuning knobs for the reactor backend. Timing fields carry the same
/// meaning as their [`crate::TcpConfig`] counterparts.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Reactor threads in the pool. Every link hashes onto one of them;
    /// total transport threads equal this number, regardless of link count.
    pub reactors: usize,
    /// Deadline the engine should pass when establishing links.
    pub connect_timeout: Duration,
    /// Idle gap after which a tx link emits a heartbeat frame.
    pub heartbeat_interval: Duration,
    /// Inbound silence after which the peer is declared dead. Must be
    /// several multiples of `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Write attempts per frame before the link is declared dead.
    pub max_send_retries: u32,
    /// First retry delay; doubles per attempt.
    pub initial_backoff: Duration,
    /// Retry delay ceiling.
    pub max_backoff: Duration,
    /// Frames a tx link queues before `send` blocks — the per-link
    /// backpressure bound.
    pub tx_queue_frames: usize,
    /// First slice of the adaptive idle-sleep ramp; the ramp doubles from
    /// here on every pass that makes no progress. Lower means lower
    /// first-byte latency at higher idle CPU.
    pub idle_sleep_min: Duration,
    /// Ceiling of the adaptive idle-sleep ramp; bounds first-byte latency
    /// after an idle period.
    pub idle_sleep_max: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        // `AOFT_REACTOR_IDLE_US=<min_us>[:<max_us>]` overrides the ramp
        // bounds so soaks can sweep the latency/CPU trade-off.
        let (idle_sleep_min, idle_sleep_max) =
            idle_ramp_from_env(IDLE_SLEEP_MIN, Duration::from_millis(2));
        Self {
            reactors: 2,
            connect_timeout: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(500),
            max_send_retries: 5,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            tx_queue_frames: 1024,
            idle_sleep_min,
            idle_sleep_max,
        }
    }
}

/// A socket transport whose links are multiplexed over a fixed reactor
/// pool.
///
/// Drop-in replacement for [`crate::TcpTransport`]: same listener-per-
/// process model, same `set_peer` routing for multi-process clusters, same
/// wire format — the two backends interoperate on the same socket.
pub struct ReactorTransport {
    config: ReactorConfig,
    listener_addr: SocketAddr,
    peers: Mutex<HashMap<u32, SocketAddr>>,
    pending: Arc<PendingSockets>,
    intakes: Vec<Sender<Reg>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorTransport {
    /// Binds a nonblocking listener on an ephemeral loopback port and
    /// starts the reactor pool (`config.reactors` threads, minimum 1).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind.
    pub fn bind(config: ReactorConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let listener_addr = listener.local_addr()?;
        let pending = Arc::new(PendingSockets::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool_size = config.reactors.max(1);
        let mut intakes = Vec::with_capacity(pool_size);
        let mut threads = Vec::with_capacity(pool_size);
        let mut listener = Some(listener);
        for idx in 0..pool_size {
            let (reg_tx, reg_rx) = unbounded::<Reg>();
            let ctx = ReactorCtx {
                config: config.clone(),
                intake: reg_rx,
                // Reactor 0 owns the accept + handshake state machine.
                listener: listener.take(),
                pending: Arc::clone(&pending),
                shutdown: Arc::clone(&shutdown),
            };
            intakes.push(reg_tx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aoft-reactor-{idx}"))
                    .spawn(move || ctx.run())
                    .map_err(|e| NetError::Io(format!("spawn reactor {idx}: {e}")))?,
            );
        }
        aoft_obs::global().reactor_threads.add(pool_size as i64);
        Ok(Self {
            config,
            listener_addr,
            peers: Mutex::new(HashMap::new()),
            pending,
            intakes,
            shutdown,
            threads,
        })
    }

    /// The address peers dial to reach this transport's links.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// Routes future dials for node `label` to `addr` instead of this
    /// transport's own listener (multi-process clusters).
    pub fn set_peer(&self, label: u32, addr: SocketAddr) {
        self.peers.lock().insert(label, addr);
    }

    /// Reactor threads in the pool — the transport's total thread count,
    /// independent of how many links it carries.
    pub fn reactor_count(&self) -> usize {
        self.threads.len()
    }

    fn addr_of(&self, label: u32) -> SocketAddr {
        self.peers
            .lock()
            .get(&label)
            .copied()
            .unwrap_or(self.listener_addr)
    }

    /// The reactor a link hashes onto: both endpoints of a `LinkId` land on
    /// a deterministic member of the pool.
    fn reactor_of(&self, link: LinkId) -> usize {
        let h = (link.from as usize)
            .wrapping_mul(31)
            .wrapping_add(link.to as usize)
            .wrapping_mul(31)
            .wrapping_add(link.tag as usize);
        h % self.intakes.len()
    }
}

impl std::fmt::Debug for ReactorTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorTransport")
            .field("listener_addr", &self.listener_addr)
            .field("reactors", &self.threads.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        aoft_obs::global()
            .reactor_threads
            .add(-(self.intakes.len() as i64));
    }
}

impl<M: Wire + Send + 'static> Transport<M> for ReactorTransport {
    fn connect_tx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkTx<M>>, NetError> {
        let addr = self.addr_of(link.to);
        let timeout = deadline.max(Duration::from_millis(1));
        let mut stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| NetError::Io(format!("dial {addr} for link {link}: {e}")))?;
        stream.set_nodelay(true)?;
        // The handshake goes out blocking (9 bytes, always fits a send
        // buffer); only then does the socket flip nonblocking for the
        // reactor.
        stream.write_all(&link.to_handshake())?;
        stream.set_nonblocking(true)?;
        let shared = Arc::new(TxShared {
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            cap: self.config.tx_queue_frames.max(1),
            dead: AtomicBool::new(false),
        });
        self.intakes[self.reactor_of(link)]
            .send(Reg::Tx {
                stream,
                shared: Arc::clone(&shared),
                link,
            })
            .map_err(|_| NetError::Closed)?;
        Ok(Box::new(ReactorTx {
            shared,
            _marker: PhantomData,
        }))
    }

    fn connect_rx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkRx<M>>, NetError> {
        let deadline_at = Instant::now() + deadline;
        let stream = {
            let mut sockets = self.pending.sockets.lock();
            loop {
                if let Some(stream) = sockets.remove(&link) {
                    break stream;
                }
                let now = Instant::now();
                if now >= deadline_at {
                    return Err(NetError::Timeout { waited: deadline });
                }
                self.pending
                    .arrived
                    .wait_for(&mut sockets, deadline_at - now);
            }
        };
        stream.set_nonblocking(true)?;
        let (events_tx, events) = unbounded::<Result<M, NetError>>();
        self.intakes[self.reactor_of(link)]
            .send(Reg::Rx {
                stream,
                sink: Box::new(TypedSink { events: events_tx }),
                link,
            })
            .map_err(|_| NetError::Closed)?;
        Ok(Box::new(ReactorRx { events }))
    }
}

// ---------------------------------------------------------------------------
// Endpoint handles
// ---------------------------------------------------------------------------

enum TxCmd {
    /// A frame split as header plus pooled payload — same shape as the
    /// threaded backend's command, written vectored by the reactor.
    Frame {
        header: [u8; 4 + HEADER_LEN],
        payload: pool::Lease<'static>,
    },
    /// Orderly close.
    Bye,
}

/// Sender-side state shared between a [`ReactorTx`] handle and the reactor
/// that drains it: a bounded command queue plus the link's death flag.
struct TxShared {
    queue: Mutex<VecDeque<TxCmd>>,
    /// Signalled by the reactor whenever it pops a command — wakes senders
    /// blocked on a full queue.
    space: Condvar,
    cap: usize,
    dead: AtomicBool,
}

impl TxShared {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        // Senders parked on a full queue must observe death promptly.
        self.space.notify_all();
    }
}

struct ReactorTx<M> {
    shared: Arc<TxShared>,
    _marker: PhantomData<fn(M)>,
}

impl<M: Wire + Send> LinkTx<M> for ReactorTx<M> {
    fn send(&self, msg: M) -> Result<(), NetError> {
        if self.shared.dead.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let mut payload = pool::global().lease();
        msg.encode(&mut payload);
        let header = frame_header(FrameKind::Data, &payload);
        let mut queue = self.shared.queue.lock();
        while queue.len() >= self.shared.cap {
            if self.shared.dead.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            aoft_obs::global().reactor_tx_backpressure.inc();
            // Bounded wait so a reactor that died without marking the link
            // dead cannot strand the sender forever.
            self.shared
                .space
                .wait_for(&mut queue, Duration::from_millis(50));
        }
        if self.shared.dead.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        queue.push_back(TxCmd::Frame { header, payload });
        Ok(())
    }

    fn close(&self) {
        // Bye bypasses the cap: close must never block.
        self.shared.queue.lock().push_back(TxCmd::Bye);
    }
}

struct ReactorRx<M> {
    events: Receiver<Result<M, NetError>>,
}

impl<M: Send> LinkRx<M> for ReactorRx<M> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<M, NetError> {
        let deadline = Instant::now() + timeout;
        let mut slices = PollSlices::new();
        loop {
            if cancel.is_cancelled() {
                return Err(NetError::Cancelled);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout { waited: timeout });
            }
            let slice = slices.next_slice(deadline - now);
            match self.events.recv_timeout(slice) {
                Ok(Ok(msg)) => return Ok(msg),
                Ok(Err(err)) => return Err(err),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
            }
        }
    }
}

/// Type-erased delivery target for one rx link, so reactor threads handle
/// links of any message type uniformly; the typed decode happens behind
/// this trait.
trait RxSink: Send {
    /// Decodes and forwards one Data payload; `Gone` tells the reactor to
    /// drop the link (receiver disappeared or the payload was corrupt).
    fn deliver_data(&self, payload: &[u8]) -> SinkStatus;
    /// Terminal error delivery (best effort; the receiver may be gone).
    fn fail(&self, err: NetError);
}

#[derive(PartialEq)]
enum SinkStatus {
    Delivered,
    Gone,
}

struct TypedSink<M> {
    events: Sender<Result<M, NetError>>,
}

impl<M: Wire + Send> RxSink for TypedSink<M> {
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

// ---------------------------------------------------------------------------
// Reactor threads
// ---------------------------------------------------------------------------

enum Reg {
    Tx {
        stream: TcpStream,
        shared: Arc<TxShared>,
        link: LinkId,
    },
    Rx {
        stream: TcpStream,
        sink: Box<dyn RxSink>,
        link: LinkId,
    },
}

/// An accepted socket still assembling its 9-byte `LinkId` preamble.
struct Handshake {
    stream: TcpStream,
    buf: [u8; 9],
    got: usize,
    deadline: Instant,
}

struct TxState {
    stream: TcpStream,
    shared: Arc<TxShared>,
    counters: LinkCounters,
    cur: Option<TxBatch>,
    attempts: u32,
    backoff: Backoff,
    /// Set while a retry backoff is pending; cleared by the Retry timer.
    blocked_until: Option<Instant>,
    last_write: Instant,
    gen: u64,
}

/// One frame staged for writing. `payload: None` is a bare-header frame
/// (heartbeat).
struct TxFrame {
    header: [u8; 4 + HEADER_LEN],
    payload: Option<pool::Lease<'static>>,
}

impl TxFrame {
    fn payload_bytes(&self) -> &[u8] {
        self.payload.as_ref().map_or(&[], |lease| lease.as_slice())
    }

    fn total(&self) -> usize {
        self.header.len() + self.payload_bytes().len()
    }
}

/// A coalesced run of frames mid-write: everything a tx drain pulled from
/// the link's queue in one pass, written through one `write_vectored`.
/// `written` tracks progress over the concatenated byte stream, so a
/// `WouldBlock` (or a retried transient failure) resumes mid-run without
/// re-sending a byte.
struct TxBatch {
    frames: Vec<TxFrame>,
    written: usize,
}

impl TxBatch {
    fn single(frame: TxFrame) -> Self {
        Self {
            frames: vec![frame],
            written: 0,
        }
    }

    fn total(&self) -> usize {
        self.frames.iter().map(TxFrame::total).sum()
    }
}

struct RxState {
    stream: TcpStream,
    sink: Box<dyn RxSink>,
    acc: Vec<u8>,
    last_seen: Instant,
    misses_reported: u64,
    watch: FailureWatch,
    gen: u64,
}

enum Slot {
    Tx(TxState),
    Rx(RxState),
}

enum Pump {
    Progress,
    Idle,
    Remove,
}

struct ReactorCtx {
    config: ReactorConfig,
    intake: Receiver<Reg>,
    listener: Option<TcpListener>,
    pending: Arc<PendingSockets>,
    shutdown: Arc<AtomicBool>,
}

impl ReactorCtx {
    fn run(self) {
        let reg = aoft_obs::global();
        let mut wheel = TimerWheel::new();
        let mut slots: Vec<Option<Slot>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut next_gen: u64 = 0;
        let mut handshakes: Vec<Handshake> = Vec::new();
        let idle_sleep_min = self.config.idle_sleep_min;
        let mut idle_sleep = idle_sleep_min;
        let mut buf = [0u8; 8192];
        loop {
            reg.reactor_wakeups.inc();
            if self.shutdown.load(Ordering::Acquire) {
                self.drain(&mut slots, reg);
                return;
            }
            let mut progress = false;

            // New registrations.
            while let Ok(r) = self.intake.try_recv() {
                progress = true;
                let now = Instant::now();
                next_gen += 1;
                let gen = next_gen;
                let (slot, first_timer) = match r {
                    Reg::Tx {
                        stream,
                        shared,
                        link,
                    } => (
                        Slot::Tx(TxState {
                            stream,
                            shared,
                            counters: LinkCounters::for_link(&link.to_string()),
                            cur: None,
                            attempts: 0,
                            backoff: Backoff::new(
                                self.config.initial_backoff,
                                self.config.max_backoff,
                            ),
                            blocked_until: None,
                            last_write: now,
                            gen,
                        }),
                        TimerKind::Heartbeat,
                    ),
                    Reg::Rx { stream, sink, link } => (
                        Slot::Rx(RxState {
                            stream,
                            sink,
                            acc: Vec::new(),
                            last_seen: now,
                            misses_reported: 0,
                            watch: FailureWatch {
                                heartbeat_timeout: self.config.heartbeat_timeout,
                                heartbeat_interval: self.config.heartbeat_interval,
                                link,
                                counters: LinkCounters::for_link(&link.to_string()),
                            },
                            gen,
                        }),
                        TimerKind::DeadCheck,
                    ),
                };
                let idx = match free.pop() {
                    Some(idx) => {
                        slots[idx] = Some(slot);
                        idx
                    }
                    None => {
                        slots.push(Some(slot));
                        slots.len() - 1
                    }
                };
                wheel.schedule(
                    now + self.heartbeat_tick(),
                    Timer {
                        slot: idx,
                        gen,
                        kind: first_timer,
                    },
                );
                reg.reactor_links.add(1);
            }

            // Accept + handshake pump (reactor 0 only).
            if let Some(listener) = &self.listener {
                let now = Instant::now();
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            progress = true;
                            if stream.set_nonblocking(true).is_ok() {
                                handshakes.push(Handshake {
                                    stream,
                                    buf: [0u8; 9],
                                    got: 0,
                                    deadline: now + HANDSHAKE_TIMEOUT,
                                });
                            }
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
                let mut still_pending = Vec::with_capacity(handshakes.len());
                for mut hs in handshakes.drain(..) {
                    match pump_handshake(&mut hs, now) {
                        HsOutcome::Pending => still_pending.push(hs),
                        HsOutcome::Complete(link) => {
                            progress = true;
                            self.pending.sockets.lock().insert(link, hs.stream);
                            self.pending.arrived.notify_all();
                        }
                        HsOutcome::Drop => {}
                    }
                }
                handshakes = still_pending;
            }

            // Expired timers.
            let now = Instant::now();
            while let Some(timer) = wheel.pop_expired(now) {
                match self.fire_timer(timer, &mut slots, &mut wheel, now) {
                    TimerOutcome::Live => {}
                    TimerOutcome::Removed(idx) => {
                        slots[idx] = None;
                        free.push(idx);
                        reg.reactor_links.add(-1);
                    }
                }
            }

            // I/O pump.
            for (idx, entry) in slots.iter_mut().enumerate() {
                let outcome = match entry.as_mut() {
                    Some(Slot::Tx(tx)) => self.pump_tx(tx, idx, &mut wheel, now),
                    Some(Slot::Rx(rx)) => pump_rx(rx, &mut buf),
                    None => Pump::Idle,
                };
                match outcome {
                    Pump::Progress => progress = true,
                    Pump::Idle => {}
                    Pump::Remove => {
                        progress = true;
                        *entry = None;
                        free.push(idx);
                        reg.reactor_links.add(-1);
                    }
                }
            }

            // Sleep only when a full pass made no progress; never sleep
            // past the wheel's next obligation.
            if progress {
                idle_sleep = idle_sleep_min;
            } else {
                let mut sleep = idle_sleep;
                idle_sleep = (idle_sleep * 2).min(self.config.idle_sleep_max);
                if let Some(deadline) = wheel.next_deadline() {
                    sleep = sleep.min(deadline.saturating_duration_since(Instant::now()));
                }
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
        }
    }

    /// The heartbeat/dead-check cadence, floored so a zero interval cannot
    /// spin the wheel.
    fn heartbeat_tick(&self) -> Duration {
        self.config.heartbeat_interval.max(Duration::from_millis(1))
    }

    fn fire_timer(
        &self,
        timer: Timer,
        slots: &mut [Option<Slot>],
        wheel: &mut TimerWheel<Timer>,
        now: Instant,
    ) -> TimerOutcome {
        let Some(slot) = slots.get_mut(timer.slot).and_then(Option::as_mut) else {
            return TimerOutcome::Live; // stale timer; slot already gone
        };
        match (slot, timer.kind) {
            (Slot::Tx(tx), TimerKind::Heartbeat) if tx.gen == timer.gen => {
                // Idle link: emit a beacon so the peer's failure detector
                // stays quiet. A link with traffic (or a frame mid-write)
                // needs none.
                if tx.cur.is_none()
                    && tx.shared.queue.lock().is_empty()
                    && now.duration_since(tx.last_write) >= self.config.heartbeat_interval
                {
                    tx.cur = Some(TxBatch::single(TxFrame {
                        header: frame_header(FrameKind::Heartbeat, &[]),
                        payload: None,
                    }));
                }
                wheel.schedule(now + self.heartbeat_tick(), timer);
                TimerOutcome::Live
            }
            (Slot::Rx(rx), TimerKind::DeadCheck) if rx.gen == timer.gen => {
                let silent_for = now.duration_since(rx.last_seen);
                rx.misses_reported = rx.watch.note_silence(silent_for, rx.misses_reported);
                if silent_for > rx.watch.heartbeat_timeout {
                    rx.watch.note_peer_dead(silent_for);
                    rx.sink.fail(NetError::PeerDead { silent_for });
                    TimerOutcome::Removed(timer.slot)
                } else {
                    wheel.schedule(now + self.heartbeat_tick(), timer);
                    TimerOutcome::Live
                }
            }
            (Slot::Tx(tx), TimerKind::Retry) if tx.gen == timer.gen => {
                tx.blocked_until = None;
                TimerOutcome::Live
            }
            _ => TimerOutcome::Live, // stale generation or mismatched kind
        }
    }

    /// Drains a tx link's queue onto its socket until it would block or the
    /// queue empties.
    fn pump_tx(
        &self,
        tx: &mut TxState,
        slot: usize,
        wheel: &mut TimerWheel<Timer>,
        now: Instant,
    ) -> Pump {
        if tx.blocked_until.is_some_and(|until| until > now) {
            return Pump::Idle;
        }
        tx.blocked_until = None;
        let mut progress = false;
        loop {
            if tx.cur.is_none() {
                // Coalesce: drain every queued frame (bounded) under one
                // lock acquisition into one vectored write, instead of one
                // frame per pass. A Bye at the queue front is only acted on
                // once every frame ahead of it has been staged.
                let (frames, bye) = {
                    let mut queue = tx.shared.queue.lock();
                    let mut frames: Vec<TxFrame> = Vec::new();
                    let mut bye = false;
                    while frames.len() < MAX_TX_COALESCE {
                        match queue.front() {
                            Some(TxCmd::Frame { .. }) => {
                                let Some(TxCmd::Frame { header, payload }) = queue.pop_front()
                                else {
                                    unreachable!("front was a frame");
                                };
                                frames.push(TxFrame {
                                    header,
                                    payload: Some(payload),
                                });
                            }
                            Some(TxCmd::Bye) => {
                                if frames.is_empty() {
                                    queue.pop_front();
                                    bye = true;
                                }
                                break;
                            }
                            None => break,
                        }
                    }
                    if !frames.is_empty() {
                        tx.shared.space.notify_all();
                    }
                    (frames, bye)
                };
                if bye {
                    // Best-effort farewell; the peer treats EOF the
                    // same way if the nonblocking write falls short.
                    let _ = (&tx.stream).write(&encode_frame(FrameKind::Bye, &[]));
                    let _ = tx.stream.shutdown(Shutdown::Both);
                    tx.shared.mark_dead();
                    return Pump::Remove;
                }
                if frames.is_empty() {
                    return if progress { Pump::Progress } else { Pump::Idle };
                }
                aoft_obs::global()
                    .reactor_frames_per_write
                    .record_count(frames.len() as u64);
                tx.cur = Some(TxBatch { frames, written: 0 });
            }
            let cur = tx.cur.as_mut().expect("frames staged above");
            match write_batch(&mut tx.stream, cur) {
                WriteOutcome::Done(total) => {
                    tx.counters.bytes_sent.add(total as u64);
                    tx.cur = None;
                    tx.attempts = 0;
                    tx.backoff.reset();
                    tx.last_write = Instant::now();
                    progress = true;
                }
                WriteOutcome::Blocked => {
                    return Pump::Progress; // partial bytes may have moved
                }
                WriteOutcome::Failed(err) => {
                    tx.attempts += 1;
                    if tx.attempts > self.config.max_send_retries {
                        aoft_obs::emit(
                            aoft_obs::Event::new("link_write_failed")
                                .detail(format!("retries exhausted: {err}")),
                        );
                        tx.shared.mark_dead();
                        return Pump::Remove;
                    }
                    tx.counters.send_retries.inc();
                    let until = now + tx.backoff.next_delay();
                    tx.blocked_until = Some(until);
                    wheel.schedule(
                        until,
                        Timer {
                            slot,
                            gen: tx.gen,
                            kind: TimerKind::Retry,
                        },
                    );
                    return Pump::Progress;
                }
            }
        }
    }

    /// On shutdown: announce Bye on every live tx link, release blocked
    /// senders, and drop the sinks (their receivers observe `Closed`).
    fn drain(&self, slots: &mut Vec<Option<Slot>>, reg: &aoft_obs::Registry) {
        for slot in slots.drain(..) {
            match slot {
                Some(Slot::Tx(tx)) => {
                    let _ = (&tx.stream).write(&encode_frame(FrameKind::Bye, &[]));
                    let _ = tx.stream.shutdown(Shutdown::Both);
                    tx.shared.mark_dead();
                    reg.reactor_links.add(-1);
                }
                Some(Slot::Rx(_)) => {
                    reg.reactor_links.add(-1);
                }
                None => {}
            }
        }
    }
}

enum TimerOutcome {
    Live,
    Removed(usize),
}

enum HsOutcome {
    Pending,
    Complete(LinkId),
    Drop,
}

fn pump_handshake(hs: &mut Handshake, now: Instant) -> HsOutcome {
    loop {
        if hs.got == hs.buf.len() {
            return HsOutcome::Complete(LinkId::from_handshake(hs.buf));
        }
        let got = hs.got;
        match (&hs.stream).read(&mut hs.buf[got..]) {
            Ok(0) => return HsOutcome::Drop,
            Ok(n) => hs.got += n,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                return if now >= hs.deadline {
                    HsOutcome::Drop
                } else {
                    HsOutcome::Pending
                };
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return HsOutcome::Drop,
        }
    }
}

enum WriteOutcome {
    Done(usize),
    Blocked,
    Failed(io::Error),
}

/// Advances a coalesced frame run from `batch.written`: every unfinished
/// header and payload chunk goes into one `write_vectored` — the same
/// split-write shape as the threaded backend, generalized to many frames
/// per syscall and resumable across `WouldBlock`.
fn write_batch(stream: &mut TcpStream, batch: &mut TxBatch) -> WriteOutcome {
    let total = batch.total();
    let TxBatch { frames, written } = batch;
    while *written < total {
        let res = {
            // Rebuild the IoSlice list from the resume point: whole chunks
            // already written are skipped, a partially written chunk
            // contributes its tail.
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * frames.len());
            let mut skip = *written;
            for frame in frames.iter() {
                for chunk in [&frame.header[..], frame.payload_bytes()] {
                    if skip >= chunk.len() {
                        skip -= chunk.len();
                    } else {
                        slices.push(IoSlice::new(&chunk[skip..]));
                        skip = 0;
                    }
                }
            }
            stream.write_vectored(&slices)
        };
        match res {
            Ok(0) => {
                return WriteOutcome::Failed(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(n) => *written += n,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return WriteOutcome::Blocked,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return WriteOutcome::Failed(e),
        }
    }
    WriteOutcome::Done(total)
}

/// Reads an rx socket until it would block (bounded per pass), reassembling
/// and delivering frames.
fn pump_rx(rx: &mut RxState, buf: &mut [u8]) -> Pump {
    let mut reads = 0;
    loop {
        match rx.stream.read(buf) {
            Ok(0) => {
                rx.sink.fail(NetError::Closed);
                return Pump::Remove;
            }
            Ok(n) => {
                rx.last_seen = Instant::now();
                rx.misses_reported = 0;
                rx.watch.counters.bytes_received.add(n as u64);
                rx.acc.extend_from_slice(&buf[..n]);
                if let Drain::Stop = drain_to_sink(&mut rx.acc, &*rx.sink) {
                    return Pump::Remove;
                }
                reads += 1;
                if reads >= READS_PER_PASS {
                    return Pump::Progress;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                return if reads > 0 {
                    Pump::Progress
                } else {
                    Pump::Idle
                };
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                rx.sink.fail(NetError::Io(e.to_string()));
                return Pump::Remove;
            }
        }
    }
}

enum Drain {
    Continue,
    Stop,
}

/// Decodes every complete frame at the front of `acc` into the sink —
/// the type-erased twin of the threaded backend's frame drain, sharing
/// `decode_frame_body` so both backends accept exactly the same streams.
fn drain_to_sink(acc: &mut Vec<u8>, sink: &dyn RxSink) -> Drain {
    let mut consumed = 0;
    let outcome = loop {
        let rest = &acc[consumed..];
        if rest.len() < 4 {
            break Drain::Continue;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            sink.fail(NetError::Codec(format!(
                "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
            )));
            break Drain::Stop;
        }
        if rest.len() < 4 + len {
            break Drain::Continue;
        }
        match decode_frame_body(&rest[4..4 + len]) {
            Ok((FrameKind::Data, payload)) => {
                if sink.deliver_data(payload) == SinkStatus::Gone {
                    break Drain::Stop;
                }
            }
            Ok((FrameKind::Heartbeat, _)) => {}
            // On a dedicated per-link socket a link close and a session
            // close are the same event.
            Ok((FrameKind::Bye | FrameKind::LinkBye, _)) => {
                sink.fail(NetError::Closed);
                break Drain::Stop;
            }
            Err(err) => {
                sink.fail(NetError::Codec(err.0));
                break Drain::Stop;
            }
        }
        consumed += 4 + len;
    };
    acc.drain(..consumed);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::to_bytes;

    fn fast_config() -> ReactorConfig {
        ReactorConfig {
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(150),
            ..ReactorConfig::default()
        }
    }

    type LinkPair = (Box<dyn LinkTx<Vec<u32>>>, Box<dyn LinkRx<Vec<u32>>>);

    fn open_pair(transport: &ReactorTransport, link: LinkId) -> LinkPair {
        let tx = transport.connect_tx(link, Duration::from_secs(2)).unwrap();
        let rx = transport.connect_rx(link, Duration::from_secs(2)).unwrap();
        (tx, rx)
    }

    #[test]
    fn loopback_round_trip_in_order() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        tx.send(vec![3, 1, 4]).unwrap();
        tx.send(vec![1, 5]).unwrap();
        let a = rx.recv_deadline(Duration::from_secs(2), &cancel).unwrap();
        let b = rx.recv_deadline(Duration::from_secs(2), &cancel).unwrap();
        assert_eq!(a, vec![3, 1, 4]);
        assert_eq!(b, vec![1, 5]);
    }

    #[test]
    fn heartbeats_keep_idle_link_alive() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 2,
            to: 3,
            tag: 1,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        std::thread::sleep(Duration::from_millis(500));
        tx.send(vec![42]).unwrap();
        let msg = rx.recv_deadline(Duration::from_secs(2), &cancel).unwrap();
        assert_eq!(msg, vec![42]);
    }

    #[test]
    fn silent_peer_declared_dead() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 4,
            to: 5,
            tag: 0,
        };
        let mut raw = TcpStream::connect(transport.local_addr()).unwrap();
        raw.write_all(&link.to_handshake()).unwrap();
        let rx: Box<dyn LinkRx<Vec<u32>>> =
            transport.connect_rx(link, Duration::from_secs(2)).unwrap();
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        match err {
            NetError::PeerDead { silent_for } => {
                assert!(silent_for >= Duration::from_millis(150), "{silent_for:?}");
            }
            other => panic!("expected PeerDead, got {other:?}"),
        }
        drop(raw);
    }

    #[test]
    fn orderly_close_yields_closed() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 6,
            to: 7,
            tag: 2,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        tx.send(vec![9]).unwrap();
        tx.close();
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(2), &cancel).unwrap(),
            vec![9]
        );
        let err = rx
            .recv_deadline(Duration::from_secs(2), &cancel)
            .unwrap_err();
        assert_eq!(err, NetError::Closed);
    }

    #[test]
    fn corrupted_stream_detected() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 1,
            to: 0,
            tag: 0,
        };
        let mut raw = TcpStream::connect(transport.local_addr()).unwrap();
        raw.write_all(&link.to_handshake()).unwrap();
        let rx: Box<dyn LinkRx<u32>> = transport.connect_rx(link, Duration::from_secs(2)).unwrap();
        let mut frame = encode_frame(FrameKind::Data, &to_bytes(&42u32));
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        raw.write_all(&frame).unwrap();
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_secs(2), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Codec(_)), "{err:?}");
    }

    #[test]
    fn connect_rx_times_out_without_dialer() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 9,
            to: 9,
            tag: 9,
        };
        let result: Result<Box<dyn LinkRx<u32>>, _> =
            transport.connect_rx(link, Duration::from_millis(50));
        assert!(matches!(result, Err(NetError::Timeout { .. })));
    }

    #[test]
    fn cancel_interrupts_blocked_reactor_recv() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 3,
            to: 4,
            tag: 0,
        };
        let (_tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        let observer = cancel.clone();
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                observer.cancel();
            });
            let err = rx
                .recv_deadline(Duration::from_secs(30), &cancel)
                .unwrap_err();
            assert_eq!(err, NetError::Cancelled);
        });
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancel took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn many_links_one_thread_pool() {
        let transport = ReactorTransport::bind(fast_config()).unwrap();
        assert_eq!(transport.reactor_count(), 2);
        let cancel = CancelToken::new();
        let mut pairs = Vec::new();
        for i in 0..16u32 {
            let link = LinkId {
                from: 100 + i,
                to: 200 + i,
                tag: (i % 8) as u8,
            };
            pairs.push(open_pair(&transport, link));
        }
        for (i, (tx, _)) in pairs.iter().enumerate() {
            tx.send(vec![i as u32]).unwrap();
        }
        for (i, (_, rx)) in pairs.iter().enumerate() {
            let msg = rx.recv_deadline(Duration::from_secs(5), &cancel).unwrap();
            assert_eq!(msg, vec![i as u32]);
        }
    }

    #[test]
    fn interoperates_with_threaded_backend_wire_format() {
        // A reactor dialer against a threaded-listener transport: the two
        // backends share frames, handshake, and heartbeats byte-for-byte.
        let threaded = crate::TcpTransport::bind(crate::TcpConfig::default()).unwrap();
        let reactor = ReactorTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 11,
            to: 12,
            tag: 3,
        };
        reactor.set_peer(link.to, threaded.local_addr());
        let tx: Box<dyn LinkTx<Vec<u32>>> =
            reactor.connect_tx(link, Duration::from_secs(2)).unwrap();
        let rx: Box<dyn LinkRx<Vec<u32>>> =
            threaded.connect_rx(link, Duration::from_secs(2)).unwrap();
        let cancel = CancelToken::new();
        tx.send(vec![7, 7, 7]).unwrap();
        let msg = rx.recv_deadline(Duration::from_secs(2), &cancel).unwrap();
        assert_eq!(msg, vec![7, 7, 7]);
    }
}
