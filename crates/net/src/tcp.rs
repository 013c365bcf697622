//! TCP backend: thread-per-link transport over real sockets.
//!
//! One [`TcpTransport`] serves a whole process: it owns a single listener,
//! and an acceptor thread routes each inbound connection to the right link
//! by a 9-byte [`LinkId`] handshake. Each established link gets:
//!
//! * a **writer thread** — drains a command queue onto the socket; data
//!   payloads arrive already serialized into pooled buffers
//!   ([`crate::pool`]) with a precomputed [`frame_header`], and go out with
//!   a vectored write (header + payload, no concatenation copy); while the
//!   queue is idle it emits
//!   heartbeat frames every `heartbeat_interval`, and it retries failed
//!   writes with capped exponential [`Backoff`] before declaring the link
//!   dead;
//! * a **reader thread** — reassembles frames from the byte stream,
//!   verifies version/kind/CRC, decodes [`Wire`] payloads, and watches the
//!   clock: silence longer than `heartbeat_timeout` means the peer process
//!   is gone, surfaced as [`NetError::PeerDead`].
//!
//! That last event is the transport-level *failure detector*: under the
//! paper's fail-stop model a dead processor simply stops sending, and the
//! heartbeat timeout converts that silence into a detectable event the
//! engine reports through the same `ErrorReport` path as an internal
//! consistency violation.

use std::collections::HashMap;
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
use crate::wire::{from_bytes, Wire};
use crate::{Backoff, CancelToken, LinkId, LinkRx, LinkTx, NetError, PollSlices, Transport};

/// How long the reader blocks in one `read` call before re-checking the
/// silence clock. Bounds failure-detection granularity, not throughput.
const READ_SLICE: Duration = Duration::from_millis(5);

/// How long the acceptor waits for a dialer's handshake before dropping
/// the connection. Shared with the reactor backend's nonblocking handshake
/// state machine.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Tuning knobs for the TCP backend.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Deadline the engine should pass when establishing links.
    pub connect_timeout: Duration,
    /// Idle gap after which the writer emits a heartbeat frame.
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
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(500),
            max_send_retries: 5,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
        }
    }
}

/// Inbound connections that completed their handshake but whose
/// `connect_rx` has not yet claimed them. Shared with the reactor backend,
/// whose reactor 0 fills it from the nonblocking accept path.
#[derive(Default)]
pub(crate) struct PendingSockets {
    pub(crate) sockets: Mutex<HashMap<LinkId, TcpStream>>,
    pub(crate) arrived: Condvar,
}

/// A socket transport rooted at one loopback listener.
///
/// By default every link dials this transport's own listener, which is the
/// single-process cluster case (`examples/tcp_cluster.rs`); `set_peer`
/// points a node label at a different process's listener.
pub struct TcpTransport {
    config: TcpConfig,
    listener_addr: SocketAddr,
    peers: Mutex<HashMap<u32, SocketAddr>>,
    pending: Arc<PendingSockets>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl TcpTransport {
    /// Binds a listener on an ephemeral loopback port and starts the
    /// acceptor thread.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the listener cannot bind.
    pub fn bind(config: TcpConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listener_addr = listener.local_addr()?;
        let pending = Arc::new(PendingSockets::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let pending = Arc::clone(&pending);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(&listener, &pending, &shutdown))
        };
        Ok(Self {
            config,
            listener_addr,
            peers: Mutex::new(HashMap::new()),
            pending,
            shutdown,
            acceptor: Some(acceptor),
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

    fn addr_of(&self, label: u32) -> SocketAddr {
        self.peers
            .lock()
            .get(&label)
            .copied()
            .unwrap_or(self.listener_addr)
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("listener_addr", &self.listener_addr)
            .field("config", &self.config)
            .finish()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor's `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, pending: &PendingSockets, shutdown: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Ok(link) = read_handshake(&stream) {
            pending.sockets.lock().insert(link, stream);
            pending.arrived.notify_all();
        }
    }
}

fn read_handshake(stream: &TcpStream) -> io::Result<LinkId> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut bytes = [0u8; 9];
    (&mut &*stream).read_exact(&mut bytes)?;
    Ok(LinkId::from_handshake(bytes))
}

impl<M: Wire + Send + 'static> Transport<M> for TcpTransport {
    fn connect_tx(&self, link: LinkId, deadline: Duration) -> Result<Box<dyn LinkTx<M>>, NetError> {
        let addr = self.addr_of(link.to);
        let timeout = deadline.max(Duration::from_millis(1));
        let mut stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| NetError::Io(format!("dial {addr} for link {link}: {e}")))?;
        stream.set_nodelay(true)?;
        stream.write_all(&link.to_handshake())?;
        let (commands, queue) = unbounded::<TxCmd>();
        let dead = Arc::new(AtomicBool::new(false));
        {
            let dead = Arc::clone(&dead);
            let config = self.config.clone();
            let counters = LinkCounters::for_link(&link.to_string());
            std::thread::spawn(move || writer_loop(&mut stream, &queue, &dead, &config, &counters));
        }
        Ok(Box::new(TcpTx {
            commands,
            dead,
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
        stream.set_read_timeout(Some(READ_SLICE))?;
        let (events_tx, events) = unbounded::<Result<M, NetError>>();
        let watch = FailureWatch {
            heartbeat_timeout: self.config.heartbeat_timeout,
            heartbeat_interval: self.config.heartbeat_interval,
            link,
            counters: LinkCounters::for_link(&link.to_string()),
        };
        std::thread::spawn(move || reader_loop(stream, &events_tx, &watch));
        Ok(Box::new(TcpRx { events }))
    }
}

enum TxCmd {
    /// A frame split as header plus pooled payload, encoded once on the
    /// sender's thread and written with a vectored write — no concatenation
    /// copy, and the payload buffer returns to the pool after the write.
    Frame {
        header: [u8; 4 + HEADER_LEN],
        payload: pool::Lease<'static>,
    },
    /// Orderly close.
    Bye,
}

struct TcpTx<M> {
    commands: Sender<TxCmd>,
    dead: Arc<AtomicBool>,
    _marker: PhantomData<fn(M)>,
}

impl<M: Wire + Send> LinkTx<M> for TcpTx<M> {
    fn send(&self, msg: M) -> Result<(), NetError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let mut payload = pool::global().lease();
        msg.encode(&mut payload);
        let header = frame_header(FrameKind::Data, &payload);
        self.commands
            .send(TxCmd::Frame { header, payload })
            .map_err(|_| NetError::Closed)
    }

    fn close(&self) {
        let _ = self.commands.send(TxCmd::Bye);
    }
}

fn writer_loop(
    stream: &mut TcpStream,
    queue: &Receiver<TxCmd>,
    dead: &AtomicBool,
    config: &TcpConfig,
    counters: &LinkCounters,
) {
    let heartbeat = encode_frame(FrameKind::Heartbeat, &[]);
    loop {
        match queue.recv_timeout(config.heartbeat_interval) {
            Ok(TxCmd::Frame { header, payload }) => {
                if write_with_retry(stream, &header, &payload, config, counters).is_err() {
                    dead.store(true, Ordering::Release);
                    return;
                }
                counters
                    .bytes_sent
                    .add((header.len() + payload.len()) as u64);
            }
            Ok(TxCmd::Bye) | Err(RecvTimeoutError::Disconnected) => {
                let _ = stream.write_all(&encode_frame(FrameKind::Bye, &[]));
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                if stream.write_all(&heartbeat).is_err() {
                    dead.store(true, Ordering::Release);
                    return;
                }
                counters.bytes_sent.add(heartbeat.len() as u64);
            }
        }
    }
}

/// Retries a frame write up to `max_send_retries` times with capped
/// exponential backoff.
///
/// A retry after a *partial* write can put garbage on the stream; that is
/// acceptable because every frame is CRC-guarded — the peer detects the
/// corruption and fail-stops, which is exactly the paper's contract: faults
/// need not be masked, only never silent.
fn write_with_retry(
    stream: &mut TcpStream,
    header: &[u8],
    payload: &[u8],
    config: &TcpConfig,
    counters: &LinkCounters,
) -> io::Result<()> {
    let mut backoff = Backoff::new(config.initial_backoff, config.max_backoff);
    let mut attempts = 0u32;
    loop {
        match write_split_frame(stream, header, payload).and_then(|()| stream.flush()) {
            Ok(()) => return Ok(()),
            Err(err) => {
                attempts += 1;
                if attempts > config.max_send_retries {
                    return Err(err);
                }
                counters.send_retries.inc();
                std::thread::sleep(backoff.next_delay());
            }
        }
    }
}

/// Writes `header` then `payload` onto the stream with vectored writes —
/// the frame is never concatenated into one buffer. A manual byte offset
/// tracks progress across short writes (the two slices are rebuilt from it,
/// keeping the loop on APIs available at the crate's MSRV).
fn write_split_frame(stream: &mut TcpStream, header: &[u8], payload: &[u8]) -> io::Result<()> {
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < header.len() {
            stream.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])?
        } else {
            stream.write(&payload[written - header.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "socket accepted no bytes",
            ));
        }
        written += n;
    }
    Ok(())
}

struct TcpRx<M> {
    events: Receiver<Result<M, NetError>>,
}

impl<M: Send> LinkRx<M> for TcpRx<M> {
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

/// The reader side's failure-detector state: timing thresholds plus the
/// observability handles for the link it watches. Shared with the reactor
/// backend, whose dead-check timer drives the same accounting.
pub(crate) struct FailureWatch {
    pub(crate) heartbeat_timeout: Duration,
    pub(crate) heartbeat_interval: Duration,
    pub(crate) link: LinkId,
    pub(crate) counters: LinkCounters,
}

impl FailureWatch {
    /// Counts each expected-but-absent heartbeat exactly once: with the
    /// peer silent for `silent_for`, `silent_for / heartbeat_interval`
    /// beacons should have arrived; any beyond `already_reported` are new
    /// misses.
    pub(crate) fn note_silence(&self, silent_for: Duration, already_reported: u64) -> u64 {
        let interval = self.heartbeat_interval.as_micros().max(1);
        let expected = (silent_for.as_micros() / interval) as u64;
        if expected > already_reported {
            self.counters
                .heartbeat_misses
                .add(expected - already_reported);
        }
        expected.max(already_reported)
    }

    pub(crate) fn note_peer_dead(&self, silent_for: Duration) {
        self.counters.peer_dead.inc();
        aoft_obs::emit(
            aoft_obs::Event::new("peer_dead")
                .link(&self.link.to_string())
                .elapsed(silent_for)
                .detail("heartbeat timeout exceeded; declaring fail-stop"),
        );
    }
}

fn reader_loop<M: Wire>(
    mut stream: TcpStream,
    events: &Sender<Result<M, NetError>>,
    watch: &FailureWatch,
) {
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    let mut last_seen = Instant::now();
    let mut misses_reported = 0u64;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = events.send(Err(NetError::Closed));
                return;
            }
            Ok(n) => {
                last_seen = Instant::now();
                misses_reported = 0;
                watch.counters.bytes_received.add(n as u64);
                acc.extend_from_slice(&buf[..n]);
                if let Drain::Stop = drain_frames(&mut acc, events) {
                    return;
                }
            }
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let silent_for = last_seen.elapsed();
                misses_reported = watch.note_silence(silent_for, misses_reported);
                if silent_for > watch.heartbeat_timeout {
                    watch.note_peer_dead(silent_for);
                    let _ = events.send(Err(NetError::PeerDead { silent_for }));
                    return;
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => {
                let _ = events.send(Err(NetError::Io(err.to_string())));
                return;
            }
        }
    }
}

enum Drain {
    Continue,
    Stop,
}

/// Decodes every complete frame at the front of `acc`, forwarding the
/// results; leftover bytes (a partial frame) stay in `acc`.
fn drain_frames<M: Wire>(acc: &mut Vec<u8>, events: &Sender<Result<M, NetError>>) -> Drain {
    let mut consumed = 0;
    let outcome = loop {
        let rest = &acc[consumed..];
        if rest.len() < 4 {
            break Drain::Continue;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            let _ = events.send(Err(NetError::Codec(format!(
                "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
            ))));
            break Drain::Stop;
        }
        if rest.len() < 4 + len {
            break Drain::Continue;
        }
        match decode_frame_body(&rest[4..4 + len]) {
            Ok((FrameKind::Data, payload)) => match from_bytes::<M>(payload) {
                Ok(msg) => {
                    if events.send(Ok(msg)).is_err() {
                        break Drain::Stop;
                    }
                }
                Err(err) => {
                    let _ = events.send(Err(NetError::Codec(err.0)));
                    break Drain::Stop;
                }
            },
            Ok((FrameKind::Heartbeat, _)) => {}
            // On a dedicated per-link socket a link close and a session
            // close are the same event.
            Ok((FrameKind::Bye | FrameKind::LinkBye, _)) => {
                let _ = events.send(Err(NetError::Closed));
                break Drain::Stop;
            }
            Err(err) => {
                let _ = events.send(Err(NetError::Codec(err.0)));
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

    fn fast_config() -> TcpConfig {
        TcpConfig {
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(150),
            ..TcpConfig::default()
        }
    }

    type LinkPair = (Box<dyn LinkTx<Vec<u32>>>, Box<dyn LinkRx<Vec<u32>>>);

    fn open_pair(transport: &TcpTransport, link: LinkId) -> LinkPair {
        let tx = transport.connect_tx(link, Duration::from_secs(2)).unwrap();
        let rx = transport.connect_rx(link, Duration::from_secs(2)).unwrap();
        (tx, rx)
    }

    #[test]
    fn loopback_round_trip_in_order() {
        let transport = TcpTransport::bind(fast_config()).unwrap();
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
        let transport = TcpTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 2,
            to: 3,
            tag: 1,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        // Idle for several heartbeat timeouts; the writer's beacons must
        // keep the failure detector quiet.
        std::thread::sleep(Duration::from_millis(500));
        tx.send(vec![42]).unwrap();
        let msg = rx.recv_deadline(Duration::from_secs(2), &cancel).unwrap();
        assert_eq!(msg, vec![42]);
    }

    #[test]
    fn silent_peer_declared_dead() {
        let transport = TcpTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 4,
            to: 5,
            tag: 0,
        };
        // A hand-rolled dialer that handshakes and then goes silent —
        // a process that froze right after connecting.
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
        let transport = TcpTransport::bind(fast_config()).unwrap();
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
    fn dropped_sender_yields_closed() {
        let transport = TcpTransport::bind(fast_config()).unwrap();
        let link = LinkId {
            from: 0,
            to: 2,
            tag: 1,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        drop(tx);
        let err = rx
            .recv_deadline(Duration::from_secs(2), &cancel)
            .unwrap_err();
        assert_eq!(err, NetError::Closed);
    }

    #[test]
    fn corrupted_stream_detected() {
        let transport = TcpTransport::bind(fast_config()).unwrap();
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
        frame[last] ^= 0x01; // single payload bit flip
        raw.write_all(&frame).unwrap();
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_secs(2), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Codec(_)), "{err:?}");
    }

    #[test]
    fn connect_rx_times_out_without_dialer() {
        let transport = TcpTransport::bind(fast_config()).unwrap();
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
    fn cancel_interrupts_blocked_tcp_recv() {
        let transport = TcpTransport::bind(fast_config()).unwrap();
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
}
