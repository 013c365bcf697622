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
//! * a send is a write: the sending thread frames its message and writes
//!   it whole to the socket under its session end's write lock
//!   ([`Writer`]). No tx thread, queue or wake-up sits between a send and
//!   the socket, so a frame is either on the wire or not yet sent;
//! * every session end has one reader thread blocked in `read` on its own
//!   socket, so the first byte of a frame wakes exactly the thread that
//!   demuxes it. The reader reads straight into a persistent per-session
//!   buffer ([`RxBuf`]) that grows only with bytes received;
//! * liveness is per *session* — one clock per peer pair, not one per
//!   directed link — and runs on the reader: its read timeout
//!   (`heartbeat_interval`) paces both the silence dead-check and the idle
//!   heartbeat it writes;
//! * threads: 1 acceptor plus one reader per session end, joined when the
//!   transport drops.
//!
//! Failure semantics follow the session: when a session dies (silence past
//! the heartbeat window, EOF, socket error, a failed or stalled write,
//! corrupt stream), **every** link it carried observes the same terminal
//! error — `PeerDead` fans out to all of the pair's receivers at once, so
//! one observation covers all links.
//!
//! # Why writing from the sender's thread is sound
//!
//! * **Frames never interleave on the wire.** Every frame a session end
//!   writes — a sender's Data frame, a `LinkBye`, the reader's heartbeat,
//!   the transport's closing `Bye` — is written whole while its writer holds
//!   the session end's write lock. A write that fails or stalls kills the
//!   session (shuts its socket down) before the lock is released, so no
//!   frame ever follows a torn one.
//! * **A reader that writes a heartbeat cannot deadlock with its peer's
//!   reader.** The reader only `try_lock`s the write lock, so it never waits
//!   on a sender; a sender holding it is mid-write, and its bytes are the
//!   liveness signal. It writes only when its end has written nothing for
//!   `heartbeat_interval`, so a heartbeat never queues behind its own end's
//!   backlog. And every write is bounded by `SO_SNDTIMEO` =
//!   `heartbeat_timeout`: two readers stuck writing into each other's full
//!   buffers give up within that window and kill the session — the verdict
//!   the silence detector reaches on a peer that stops reading anyway.
//! * **A re-attach leaves a failed attempt's frames to the receiver.**
//!   `connect_tx` on a link replaces its attach token, so the old handle's
//!   sends return `Closed` from then on. Whatever the old handle wrote is
//!   already on the wire; the receiver's run-id filter drops it
//!   (`sim.stale_dropped`), as it does for any frame still in flight when
//!   an attempt fails.
//!
//! A mux listener expects the session preamble and mux Data frames carry
//! the demux tag: both sides of a pair must speak mux.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoft_obs::Counter;
use parking_lot::{Condvar, Mutex};

use crate::frame::{decode_frame_body, frame_header, FrameKind, HEADER_LEN, MAX_FRAME_LEN};
use crate::mailbox::{mailbox, MailboxRx, MailboxTx};
use crate::pool;
use crate::wire::{from_bytes, Wire};
use crate::{CancelToken, LinkId, LinkRx, LinkTx, NetError, Transport};

/// Session preamble magic: distinguishes a mux dial from anything else and
/// versions the session layer (last byte).
const MUX_MAGIC: [u8; 8] = *b"AOFTMUX\x01";

/// The size a session's receive buffer starts at and grows by: one read's
/// worth of bytes beyond those already held.
const READ_CHUNK: usize = 64 * 1024;

/// Manifest entries a session preamble may carry; larger claims are
/// treated as a corrupt dial.
const MAX_MANIFEST: usize = 1024;

/// How long the acceptor waits for a dialer's session preamble before
/// dropping the connection.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The liveness clocks of a [`MuxTransport`], per *session* (peer pair).
/// Everything else about the backend is a constant of this module.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Deadline the engine should pass when establishing links.
    pub connect_timeout: Duration,
    /// Idle gap after which a session emits a heartbeat frame.
    pub heartbeat_interval: Duration,
    /// Inbound silence after which the whole session — every link it
    /// carries — is declared dead, and the longest one write may stall
    /// before it kills the session. Must be several multiples of
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

/// Monotonic endpoint attach tokens.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// A session end's tx side, behind its write lock: whoever holds the lock
/// owns the socket's write half until its frame is whole on the wire.
struct Writer {
    /// Open tx links, each with the attach token of its current [`MuxTx`];
    /// a stale handle's token no longer matches, so it cannot send or close.
    links: HashMap<LinkId, u64>,
    /// When this session end last wrote a frame: the idle clock of the
    /// reader's heartbeat.
    last_write: Instant,
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

/// One end of a peer-pair session: the socket, its write lock and the rx
/// demux table. Both directions of every link between the pair ride this
/// one connection.
struct Session {
    label: String,
    /// The session end's one socket: senders write and its reader reads
    /// through `&TcpStream`.
    stream: TcpStream,
    /// The write lock: held for exactly one whole frame at a time.
    writer: Mutex<Writer>,
    dead: AtomicBool,
    /// The first terminal error; every later observer fans out this one.
    fate: Mutex<Option<NetError>>,
    inboxes: Inboxes,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
}

impl Session {
    /// Marks the session dead exactly once: records `err` as its fate,
    /// shuts the socket down (which wakes a sender blocked in `write` and
    /// the session's reader out of its blocked `read`) and drops it from
    /// the session gauge. Returns `true` for the call that performed the
    /// kill.
    fn kill(&self, err: NetError) -> bool {
        if self.dead.swap(true, Ordering::AcqRel) {
            return false;
        }
        *self.fate.lock() = Some(err);
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

    /// Writes one frame — `header`, then `payload` — whole. The caller
    /// holds the write lock (`writer` is its guarded state). A write that
    /// fails or stalls past `SO_SNDTIMEO` kills the session, because a
    /// frame cut short would corrupt the stream, and returns its fate.
    fn write_frame(
        &self,
        writer: &mut Writer,
        header: &[u8],
        payload: &[u8],
    ) -> Result<(), NetError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let reg = aoft_obs::global();
        if let Err(err) = write_whole(&self.stream, header, payload) {
            reg.net_send_retries.add(&self.label, 1);
            self.kill(NetError::Io(format!(
                "session {} write failed: {err}",
                self.label
            )));
            return Err(self.fate());
        }
        writer.last_write = Instant::now();
        self.bytes_sent.add((header.len() + payload.len()) as u64);
        reg.mux_frames_per_write.record_count(1);
        Ok(())
    }

    /// The reader's heartbeat: written only when this end has written
    /// nothing for `interval` and no sender holds the write lock — a sender
    /// mid-write is the liveness signal. Never waits for the lock.
    fn heartbeat_if_idle(&self, interval: Duration) {
        let Some(mut writer) = self.writer.try_lock() else {
            return;
        };
        if writer.last_write.elapsed() >= interval {
            let header = frame_header(FrameKind::Heartbeat, &[]);
            let _ = self.write_frame(&mut writer, &header, &[]);
        }
    }

    /// Ends the session orderly: a `Bye` under the write lock (the peer fans
    /// `Closed` out to every link), then the kill and the local fan-out.
    fn close(&self) {
        {
            let mut writer = self.writer.lock();
            let header = frame_header(FrameKind::Bye, &[]);
            let _ = self.write_frame(&mut writer, &header, &[]);
        }
        self.kill(NetError::Closed);
        self.fail_inboxes();
    }
}

/// Writes `header` then `payload` to `stream` whole, resuming after short
/// writes with one `write_vectored` per attempt.
fn write_whole(stream: &TcpStream, header: &[u8], payload: &[u8]) -> io::Result<()> {
    let total = header.len() + payload.len();
    let mut written = 0;
    while written < total {
        let (head, body) = match written.checked_sub(header.len()) {
            None => (&header[written..], payload),
            Some(into_payload) => (&[][..], &payload[into_payload..]),
        };
        match (&mut &*stream).write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Endpoint handles
// ---------------------------------------------------------------------------

struct MuxTx<M> {
    session: Arc<Session>,
    link: LinkId,
    tag: [u8; 9],
    token: u64,
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
        let asked = Instant::now();
        let mut writer = self.session.writer.lock();
        aoft_obs::global().mux_wake_latency.record(asked.elapsed());
        if writer.links.get(&self.link) != Some(&self.token) {
            // A newer handle re-attached this link, or this handle
            // already closed it.
            return Err(NetError::Closed);
        }
        self.session.write_frame(&mut writer, &header, &payload)
    }

    fn close(&self) {
        self.close_link();
    }
}

impl<M> MuxTx<M> {
    /// Closes this link to further sends and writes its `LinkBye`. A no-op
    /// when the link was since re-attached by a newer handle, or is
    /// already closed.
    fn close_link(&self) {
        let mut writer = self.session.writer.lock();
        if writer.links.get(&self.link) != Some(&self.token) {
            return;
        }
        writer.links.remove(&self.link);
        let header = frame_header(FrameKind::LinkBye, &self.tag);
        let _ = self.session.write_frame(&mut writer, &header, &self.tag);
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
/// cadence the silence check and this end's idle heartbeat need: after
/// every read, with data or without, the reader writes a heartbeat if its
/// end has gone quiet. A [`Session::kill`] from anywhere wakes the read by
/// shutting the socket down. Returns the session's fate.
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
        session.heartbeat_if_idle(interval);
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

/// State the acceptor and the session readers share with the transport
/// handle.
struct MuxShared {
    config: MuxConfig,
    accepted: Mutex<HashMap<Pair, Arc<Session>>>,
    accepted_cv: Condvar,
    /// One reader per session end created so far and not yet seen to
    /// finish; the transport joins them all when it drops.
    readers: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
}

impl MuxShared {
    /// Wraps an established socket as a live session: bounds its writes,
    /// spawns its reader and counts it on the session gauge.
    fn create_session(&self, pair: Pair, stream: TcpStream) -> Result<Arc<Session>, NetError> {
        // Senders and the reader share this one fd (`read`/`write` through
        // `&TcpStream` are independently safe): one fd per session end is
        // exactly the resource claim the fd-count tests assert.
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(
            self.config.heartbeat_timeout.max(Duration::from_millis(1)),
        ))?;
        let label = pair_label(pair);
        let reg = aoft_obs::global();
        let session = Arc::new(Session {
            label: label.clone(),
            stream,
            writer: Mutex::new(Writer {
                links: HashMap::new(),
                last_write: Instant::now(),
            }),
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
        // Reap the readers of sessions that have ended (joining a finished
        // thread does not block), so the list tracks live ones.
        let mut readers = self.readers.lock();
        while let Some(done) = readers.iter().position(JoinHandle::is_finished) {
            let _ = readers.swap_remove(done).join();
        }
        readers.push(reader);
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
/// the acceptor plus one reader blocked on each session end's socket: 25
/// for a loopback d=3 cube (24 ends), 385 at d=6 — the price of a first
/// byte that wakes its reader directly, where a shared reader pool would
/// sweep. Senders write from their own threads. Dropping the transport
/// closes every session and joins every reader. Every label dials this
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
    acceptor: Option<JoinHandle<()>>,
}

impl MuxTransport {
    /// Binds a listener on an ephemeral loopback port and starts the
    /// acceptor; each session brings its own reader.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind or the acceptor thread
    /// cannot spawn.
    pub fn bind(config: MuxConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listener_addr = listener.local_addr()?;
        let shared = Arc::new(MuxShared {
            config,
            accepted: Mutex::new(HashMap::new()),
            accepted_cv: Condvar::new(),
            readers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("aoft-mux-accept".into())
            .spawn(move || acceptor_loop(listener, acceptor_shared))
            .map_err(|e| NetError::Io(format!("spawn mux acceptor: {e}")))?;
        Ok(Self {
            shared,
            listener_addr,
            peers: Mutex::new(HashMap::new()),
            dial: Mutex::new(HashMap::new()),
            dial_cv: Condvar::new(),
            acceptor: Some(acceptor),
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
        // A re-attach replaces the previous handle's token: its sends
        // return `Closed` from here on.
        session.writer.lock().links.insert(link, token);
        if session.dead.load(Ordering::Acquire) {
            return Err(session.fate());
        }
        Ok(Box::new(MuxTx {
            session,
            link,
            tag: link.to_handshake(),
            token,
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
        // The acceptor sits in blocking accept; a throwaway connection
        // makes it re-check the shutdown flag.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Close every surviving session end: the peer sees `Bye`, the gauge
        // drops, any receiver still attached fails, and the kill wakes each
        // reader, so none outlives the transport.
        let accepted: Vec<_> = self.shared.accepted.lock().drain().collect();
        for (_, session) in accepted {
            session.close();
        }
        let dialed: Vec<_> = self.dial.lock().drain().collect();
        for (_, slot) in dialed {
            if let DialSlot::Ready(session) = slot {
                session.close();
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
        drop(tx_dying); // writes the LinkBye
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
        // The readers' heartbeats and silence checks stay live throughout:
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
    fn stalled_write_kills_the_session_within_the_heartbeat_timeout() {
        // A raw peer completes the preamble and keeps the session alive
        // with heartbeats, but never reads. Once the socket buffers fill, a
        // send blocks in `write` until `SO_SNDTIMEO` (= heartbeat_timeout)
        // ends it; the session dies, and its fate reaches the receiver.
        let config = MuxConfig {
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(200),
            ..MuxConfig::default()
        };
        // Slack covers a short write's own wait before the one that fails.
        let bound = config.heartbeat_timeout + Duration::from_secs(1);
        let transport = MuxTransport::bind(config).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        // Local label 9 is `hi` of pair (2, 9): the remote end dials us.
        let raw = TcpStream::connect(transport.local_addr()).unwrap();
        write_preamble(&raw, (2, 9), 2, &[]).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let beats = {
            let (raw, stop) = (raw.try_clone().unwrap(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let beat = encode_frame(FrameKind::Heartbeat, &[]);
                while !stop.load(Ordering::Relaxed) && (&raw).write_all(&beat).is_ok() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let tx = Transport::<Vec<u8>>::connect_tx(&transport, link(9, 2, 0), deadline).unwrap();
        let rx = Transport::<u64>::connect_rx(&transport, link(2, 9, 0), deadline).unwrap();
        // The sends run on their own thread, so a send that never returns
        // fails this test instead of hanging it.
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            let body = vec![7u8; 64 * 1024];
            loop {
                let sent = tx.send(body.clone());
                let failed = sent.is_err();
                if sent_tx.send(sent).is_err() || failed {
                    return;
                }
            }
        });
        let started = Instant::now();
        let err = loop {
            let Ok(sent) = sent_rx.recv_timeout(bound) else {
                // Unblock the stuck write so the failure can unwind.
                let _ = raw.shutdown(Shutdown::Both);
                panic!("a send blocked for more than {bound:?}");
            };
            if let Err(err) = sent {
                break err;
            }
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "sends into a peer that never reads kept succeeding"
            );
        };
        sender.join().unwrap();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
        let seen = rx
            .recv_deadline(Duration::from_secs(5), &cancel)
            .unwrap_err();
        assert_eq!(seen, err, "the receiver observes the session's fate");
        stop.store(true, Ordering::Relaxed);
        beats.join().unwrap();
    }

    #[test]
    fn hostile_dials_lose_only_their_own_socket() {
        let transport = MuxTransport::bind(fast_config()).unwrap();
        let cancel = CancelToken::new();
        let deadline = Duration::from_secs(5);
        let l = link(1, 2, 0);
        let tx = Transport::<u64>::connect_tx(&transport, l, deadline).unwrap();
        let rx = Transport::<u64>::connect_rx(&transport, l, deadline).unwrap();
        assert_eq!(transport.session_count(), 2);
        let preamble = |magic: [u8; 8], lo: u32, hi: u32, count: u16| {
            let mut buf = magic.to_vec();
            for word in [lo, hi, lo] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            buf.extend_from_slice(&count.to_le_bytes());
            buf
        };
        let hostile = [
            ("wrong magic", preamble(*b"NOTAMUX\x01", 2, 9, 0)),
            ("lo > hi", preamble(MUX_MAGIC, 9, 2, 0)),
            (
                "manifest above the cap",
                preamble(MUX_MAGIC, 2, 9, MAX_MANIFEST as u16 + 1),
            ),
            (
                "truncated preamble",
                preamble(MUX_MAGIC, 2, 9, 0)[..10].to_vec(),
            ),
            ("silent connection", Vec::new()),
        ];
        for (case, bytes) in hostile {
            let raw = TcpStream::connect(transport.local_addr()).unwrap();
            (&raw).write_all(&bytes).unwrap();
            // The acceptor drops the socket: EOF or reset, not a timeout.
            raw.set_read_timeout(Some(HANDSHAKE_TIMEOUT * 5)).unwrap();
            match (&raw).read(&mut [0u8; 16]) {
                Ok(0) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                other => panic!("{case}: socket still open ({other:?})"),
            }
            assert_eq!(transport.session_count(), 2, "{case}");
        }
        // A valid dial made afterwards still gets a working session.
        let raw = TcpStream::connect(transport.local_addr()).unwrap();
        write_preamble(&raw, (3, 9), 3, &[]).unwrap();
        let fresh = link(3, 9, 0);
        let fresh_rx = Transport::<u64>::connect_rx(&transport, fresh, deadline).unwrap();
        let mut payload = fresh.to_handshake().to_vec();
        42u64.encode(&mut payload);
        (&raw)
            .write_all(&encode_frame(FrameKind::Data, &payload))
            .unwrap();
        assert_eq!(
            fresh_rx
                .recv_deadline(Duration::from_secs(5), &cancel)
                .unwrap(),
            42
        );
        assert_eq!(transport.session_count(), 3);
        // And the session that was there all along is untouched.
        tx.send(5).unwrap();
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(5), &cancel).unwrap(),
            5
        );
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
