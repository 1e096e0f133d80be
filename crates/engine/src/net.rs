//! TCP serving for the [`wire`](crate::wire) protocol: one shared
//! [`Service`] behind an epoll readiness reactor.
//!
//! [`TcpServer::bind`] takes an address plus a [`NetConfig`] and starts
//! a small fixed pool of event-loop threads (one per core, capped) that
//! multiplexes every connection through nonblocking sockets and
//! per-connection [`LineSession`] state machines (banner → incremental
//! line framing → [`Codec`] decode → [`Service`] dispatch → write
//! buffer with partial-write continuation). An idle connection costs a
//! few hundred bytes of buffers and **no thread**, so the server scales
//! to thousands of mostly-idle connections with an O(cores) thread
//! count. Connections are pinned to a loop by fd hash; idle timeouts
//! ride a lazy timer wheel (`reactor::TimerWheel`) revalidated against
//! real activity, so the request hot path does no timer bookkeeping.
//! The acceptor blocks on epoll over the listener fd plus a shutdown
//! eventfd doorbell, so an idle server does zero accept-path wakeups.
//!
//! TCP serving is Linux-only: elsewhere [`TcpServer::bind`] fails with
//! [`std::io::ErrorKind::Unsupported`], and the stdio mode of
//! `blowfish-serve` serves instead.
//!
//! Overload and lifecycle behaviour, all tested over loopback:
//!
//! * **Backpressure** — at most [`NetConfig::max_connections`] live
//!   connections; beyond that, new clients get one
//!   `err server-busy …` line and an immediate close (an explicit shed,
//!   counted in [`NetStats::shed`], rather than an unbounded queue).
//! * **Listen backlog** — [`NetConfig::listen_backlog`] is passed to
//!   `listen(2)` (std's `TcpListener::bind` hardcodes 128), so a mass
//!   simultaneous connect burst can ride the kernel queue instead of
//!   tripping SYN-flood defenses.
//! * **Line cap** — a request line longer than [`MAX_LINE_BYTES`] gets
//!   `err line-too-long …` and a close, enforced mid-stream while the
//!   line is still arriving: one client cannot grow an unbounded buffer
//!   server-side.
//! * **Idle timeout** — a connection silent for
//!   [`NetConfig::idle_timeout`] is closed by a timer-wheel eviction, so
//!   abandoned clients cannot pin resources forever.
//! * **Graceful shutdown** — [`TcpServer::shutdown`] stops accepting,
//!   notifies every live connection with `err server-shutdown …`, and
//!   waits (bounded) for the connection count to drain.
//!
//! The reactor's internal counters (spurious wakeups, partial writes
//! resumed, timer-wheel evictions) are visible to clients through the
//! TCP-only `stats net` request, answered at the framing layer without
//! touching the engine — load tests use it to assert that idle
//! connections generate no events.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use {
    crate::reactor::{
        listen_with_backlog, Epoll, EpollEvent, EventFd, TimerWheel, EPOLLERR, EPOLLHUP, EPOLLIN,
        EPOLLOUT, EPOLLRDHUP,
    },
    std::collections::HashMap,
    std::io::{ErrorKind, Read, Write},
    std::net::{TcpListener, TcpStream},
    std::os::unix::io::AsRawFd,
    std::sync::Mutex,
    std::thread::JoinHandle,
};

use crate::service::Service;
use crate::wire::{Codec, WireReply};

/// Hard cap on one request line. The longest legitimate lines are
/// `tenant … data=v,v,…` uploads (a 4096-cell domain at ~20 bytes per
/// value is ~80 KiB), so the cap is sized above that, not above typical
/// traffic.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// Cap on reactor event-loop threads (the pool is
/// `min(available cores, this)`): past a handful of loops the protocol
/// is service-bound, not event-bound.
#[cfg(target_os = "linux")]
const MAX_EVENT_LOOPS: usize = 8;

/// Bytes read per `read(2)` in the reactor loops.
#[cfg(target_os = "linux")]
const READ_CHUNK: usize = 16 * 1024;

/// Max `read` calls served per readiness event before yielding back to
/// the loop (level-triggered epoll re-fires if more input is pending),
/// so one firehose connection cannot starve its loop-mates.
#[cfg(target_os = "linux")]
const READS_PER_EVENT: usize = 16;

/// Tuning for a [`TcpServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Live-connection cap; connection attempts beyond it are shed with
    /// `err server-busy`.
    pub max_connections: usize,
    /// Close a connection after this much silence.
    pub idle_timeout: Duration,
    /// `listen(2)` backlog: how many completed handshakes the kernel
    /// may queue before the acceptor picks them up. Size it at least to
    /// the largest simultaneous connect burst expected (the kernel
    /// clamps to `net.core.somaxconn`).
    pub listen_backlog: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 1024,
            idle_timeout: Duration::from_secs(300),
            listen_backlog: 1024,
        }
    }
}

/// Monotonic counters describing a server's lifetime traffic, shared
/// with the acceptor and every event-loop thread and surfaced to clients
/// through the TCP-only `stats net` request.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted into an event loop (including ones since
    /// closed).
    pub accepted: AtomicU64,
    /// Connections shed with `err server-busy` at the cap.
    pub shed: AtomicU64,
    /// Connections closed for exceeding the idle timeout.
    pub idle_closed: AtomicU64,
    /// Request lines served (one reply written per count).
    pub requests: AtomicU64,
    /// Currently open connections.
    pub live: AtomicUsize,
    /// Reactor readiness events that produced no bytes in either
    /// direction — wakeups the server paid for nothing. Idle
    /// connections must keep this at zero.
    pub spurious_wakeups: AtomicU64,
    /// Writes that hit a full socket buffer and were completed later by
    /// an `EPOLLOUT` readiness event (partial-write continuations).
    pub partial_writes_resumed: AtomicU64,
    /// Connections evicted by the reactor's idle timer wheel (the
    /// reactor's contribution to [`idle_closed`](NetStats::idle_closed)).
    pub timer_evictions: AtomicU64,
    /// Event-loop threads serving connections: one per core, capped at
    /// 8.
    pub event_loops: AtomicUsize,
}

impl NetStats {
    /// The `ok stats net …` reply line: `model=reactor` (the field
    /// clients match first), then every counter, ordered stably for
    /// parsers.
    pub fn wire_line(&self) -> String {
        format!(
            "ok stats net model=reactor accepted={} live={} requests={} shed={} idle_closed={} \
             spurious_wakeups={} partial_writes_resumed={} timer_evictions={} event_loops={}",
            self.accepted.load(Ordering::SeqCst),
            self.live.load(Ordering::SeqCst),
            self.requests.load(Ordering::SeqCst),
            self.shed.load(Ordering::SeqCst),
            self.idle_closed.load(Ordering::SeqCst),
            self.spurious_wakeups.load(Ordering::SeqCst),
            self.partial_writes_resumed.load(Ordering::SeqCst),
            self.timer_evictions.load(Ordering::SeqCst),
            self.event_loops.load(Ordering::SeqCst),
        )
    }
}

/// The per-connection protocol state machine the event loops drive (and
/// the framing property tests drive with arbitrary chunkings): banner,
/// incremental line framing with the [`MAX_LINE_BYTES`] cap enforced
/// mid-stream, [`Codec`] decode, [`Service`] dispatch, and a
/// pending-output buffer the caller drains at whatever pace the socket
/// allows.
///
/// Drivers feed raw received bytes to [`ingest`](LineSession::ingest)
/// and write out [`output`](LineSession::output), acknowledging with
/// [`consume`](LineSession::consume) (which may be partial — the
/// continuation state *is* the buffer). Lifecycle verdicts
/// ([`closing`](LineSession::closing)) are sticky: once the session
/// decides to close, further input is discarded and only the remaining
/// output needs flushing ([`finished`](LineSession::finished)).
#[derive(Debug)]
pub struct LineSession {
    codec: Codec,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    closing: bool,
}

impl Default for LineSession {
    fn default() -> Self {
        LineSession::new()
    }
}

impl LineSession {
    /// A fresh session with the protocol banner already queued as
    /// pending output.
    pub fn new() -> LineSession {
        let mut wbuf = Codec::banner().into_bytes();
        wbuf.push(b'\n');
        LineSession {
            codec: Codec::new(),
            rbuf: Vec::new(),
            wbuf,
            wpos: 0,
            closing: false,
        }
    }

    /// Feeds received bytes through framing and dispatch, queueing one
    /// reply line per complete request line. Counts served requests in
    /// `stats`; answers the TCP-only `stats net` introspection line
    /// locally. Input after a close decision is discarded.
    pub fn ingest(&mut self, bytes: &[u8], service: &Service, stats: &NetStats) {
        if self.closing {
            return;
        }
        self.rbuf.extend_from_slice(bytes);
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes[..pos]);
            let line = line.trim_end_matches('\r');
            if line.trim() == "stats net" {
                stats.requests.fetch_add(1, Ordering::SeqCst);
                self.push_line(&stats.wire_line());
                continue;
            }
            match self.codec.serve(service, line) {
                WireReply::Reply(reply) => {
                    stats.requests.fetch_add(1, Ordering::SeqCst);
                    self.push_line(&reply);
                }
                WireReply::Silent => {}
                WireReply::Quit => {
                    self.closing = true;
                    self.rbuf.clear();
                    return;
                }
            }
        }
        if self.rbuf.len() > MAX_LINE_BYTES {
            self.push_line("err line-too-long (request line limit exceeded)");
            self.closing = true;
            self.rbuf.clear();
        }
    }

    /// The peer closed its write half (or the socket died): finish
    /// flushing whatever is pending, then close. Queues no reply.
    pub fn note_eof(&mut self) {
        self.closing = true;
    }

    /// The connection exceeded its idle timeout: queue the explanatory
    /// error and close (counted in [`NetStats::idle_closed`]).
    pub fn note_idle_timeout(&mut self, stats: &NetStats) {
        if !self.closing {
            stats.idle_closed.fetch_add(1, Ordering::SeqCst);
            self.push_line("err idle-timeout (connection closing)");
            self.closing = true;
        }
    }

    /// The server is shutting down: queue the explanatory error and
    /// close.
    pub fn note_shutdown(&mut self) {
        if !self.closing {
            self.push_line("err server-shutdown (connection closing)");
            self.closing = true;
        }
    }

    /// Bytes waiting to be written to the socket.
    pub fn output(&self) -> &[u8] {
        &self.wbuf[self.wpos..]
    }

    /// Acknowledges `n` bytes of [`output`](LineSession::output) as
    /// written (partial writes keep the rest pending).
    pub fn consume(&mut self, n: usize) {
        self.wpos = (self.wpos + n).min(self.wbuf.len());
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// Whether the session has decided to close (no further input will
    /// be served).
    pub fn closing(&self) -> bool {
        self.closing
    }

    /// Whether the session is closing *and* fully flushed — the driver
    /// may now drop the socket.
    pub fn finished(&self) -> bool {
        self.closing && self.output().is_empty()
    }

    fn push_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }
}

/// A running TCP front end over a shared [`Service`]. Dropping the
/// handle shuts the server down.
pub struct TcpServer {
    addr: SocketAddr,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    /// Every serving thread with the doorbell that wakes it: the
    /// acceptor first, then the event loops. Shutdown joins them in this
    /// order, so no connection reaches an inbox after its loop drained.
    #[cfg(target_os = "linux")]
    threads: Vec<(Arc<EventFd>, JoinHandle<()>)>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:7741`, or port `0` for an ephemeral
    /// port) with the configured listen backlog and starts serving. Every
    /// epoll set and doorbell is created before any thread starts, so a
    /// setup failure comes back as its `io::Error`. The returned handle
    /// reports the concrete [`local_addr`](TcpServer::local_addr) and
    /// serves until [`shutdown`](TcpServer::shutdown) or drop.
    #[cfg(target_os = "linux")]
    pub fn bind(
        service: Arc<Service>,
        addr: &str,
        config: NetConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = bind_listener(addr, config.listen_backlog)?;
        listener.set_nonblocking(true)?;
        let accept_wake = Arc::new(EventFd::new()?);
        let accept_epoll = Epoll::new()?;
        accept_epoll.add(listener.as_raw_fd(), EPOLLIN, 0)?;
        accept_epoll.add(accept_wake.raw_fd(), EPOLLIN, 1)?;
        let n = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_EVENT_LOOPS);
        let mut loops = Vec::with_capacity(n);
        for _ in 0..n {
            let handle = Arc::new(EventLoopHandle {
                doorbell: Arc::new(EventFd::new()?),
                inbox: Mutex::new(Vec::new()),
            });
            let epoll = Epoll::new()?;
            epoll.add(handle.doorbell.raw_fd(), EPOLLIN, WAKE_TOKEN)?;
            loops.push((handle, epoll));
        }

        // From here on, a failed spawn drops `server`, and its shutdown
        // stops and joins every thread already started.
        let mut server = TcpServer {
            addr: listener.local_addr()?,
            stats: Arc::new(NetStats::default()),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::with_capacity(n + 1),
        };
        server.stats.event_loops.store(n, Ordering::SeqCst);
        let mut handles = Vec::with_capacity(n);
        for (i, (handle, epoll)) in loops.into_iter().enumerate() {
            let (h, service, config, stats, stop) = (
                Arc::clone(&handle),
                Arc::clone(&service),
                config.clone(),
                Arc::clone(&server.stats),
                Arc::clone(&server.stop),
            );
            let thread = std::thread::Builder::new()
                .name(format!("blowfish-loop-{i}"))
                .spawn(move || event_loop(&epoll, &h, &service, &config, &stats, &stop))?;
            server.threads.push((Arc::clone(&handle.doorbell), thread));
            handles.push(handle);
        }
        // The acceptor starts last, so every loop it dispatches to is
        // running, but is joined first.
        let (stats, stop) = (Arc::clone(&server.stats), Arc::clone(&server.stop));
        let max_connections = config.max_connections;
        let acceptor = std::thread::Builder::new()
            .name("blowfish-accept".to_string())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &accept_epoll,
                    &handles,
                    max_connections,
                    &stats,
                    &stop,
                )
            })?;
        server.threads.insert(0, (accept_wake, acceptor));
        Ok(server)
    }

    /// TCP serving needs the Linux epoll reactor: off Linux this always
    /// fails with [`std::io::ErrorKind::Unsupported`].
    #[cfg(not(target_os = "linux"))]
    pub fn bind(
        _service: Arc<Service>,
        _addr: &str,
        _config: NetConfig,
    ) -> std::io::Result<TcpServer> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "TCP serving needs Linux epoll; serve stdio instead",
        ))
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shared traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Stops accepting, notifies live connections, and waits up to
    /// `drain` for them to finish; returns `true` if the server drained
    /// fully. Each thread is woken through its doorbell and joined; an
    /// event loop notifies and closes its connections on the way out.
    pub fn shutdown(&mut self, drain: Duration) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        for (doorbell, thread) in self.threads.drain(..) {
            doorbell.notify();
            let _ = thread.join();
        }
        let deadline = Instant::now() + drain;
        while self.stats.live.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        true
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(2));
    }
}

/// Binds the listener with an explicit backlog, falling back to std's
/// 128-entry default when the raw path fails.
#[cfg(target_os = "linux")]
fn bind_listener(addr: &str, backlog: usize) -> std::io::Result<TcpListener> {
    use std::net::ToSocketAddrs;
    if let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        if let Ok(listener) = listen_with_backlog(sock_addr, backlog) {
            return Ok(listener);
        }
    }
    TcpListener::bind(addr)
}

/// The accept loop: admit or shed each connection, then hand it to the
/// event loop owning its fd hash. It blocks on epoll over the listener
/// plus the shutdown doorbell — zero wakeups while no client connects.
#[cfg(target_os = "linux")]
fn accept_loop(
    listener: &TcpListener,
    epoll: &Epoll,
    loops: &[Arc<EventLoopHandle>],
    max_connections: usize,
    stats: &NetStats,
    stop: &AtomicBool,
) {
    let mut events = [EpollEvent::zeroed(); 4];
    while !stop.load(Ordering::SeqCst) {
        // Drain every queued handshake before parking again.
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept errors (per-connection resets, fd
                // pressure): back off briefly rather than killing
                // serving.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(20));
                    break;
                }
            };
            if stats.live.load(Ordering::SeqCst) >= max_connections {
                shed(stream, stats);
                continue;
            }
            stats.live.fetch_add(1, Ordering::SeqCst);
            stats.accepted.fetch_add(1, Ordering::SeqCst);
            let target = &loops[(stream.as_raw_fd() as usize) % loops.len()];
            target.inbox.lock().unwrap().push(stream);
            target.doorbell.notify();
        }
        // The doorbell is left un-drained on purpose: once rung
        // (shutdown), every subsequent wait returns immediately and the
        // loop re-checks the stop flag.
        let _ = epoll.wait(&mut events, None);
    }
}

/// Over-cap connection: one explanatory line, then close.
#[cfg(target_os = "linux")]
fn shed(mut stream: TcpStream, stats: &NetStats) {
    stats.shed.fetch_add(1, Ordering::SeqCst);
    let _ = stream.write_all(b"err server-busy (connection limit reached, retry later)\n");
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// What the acceptor shares with one reactor event loop.
#[cfg(target_os = "linux")]
struct EventLoopHandle {
    /// Rung by the acceptor (new connection in the inbox) and by
    /// shutdown.
    doorbell: Arc<EventFd>,
    /// Freshly accepted connections awaiting adoption by the loop.
    inbox: Mutex<Vec<TcpStream>>,
}

/// One reactor-owned connection.
#[cfg(target_os = "linux")]
struct Conn {
    stream: TcpStream,
    session: LineSession,
    last_active: Instant,
    /// Whether `EPOLLOUT` is currently registered (pending output).
    interest_out: bool,
    /// Whether the last flush stopped on a full socket buffer (the next
    /// `EPOLLOUT` completion counts as a resumed partial write).
    partial_write: bool,
}

/// The doorbell's token in a loop's epoll set (fds are nonnegative, so
/// the max token can never collide).
#[cfg(target_os = "linux")]
const WAKE_TOKEN: u64 = u64::MAX;

/// One reactor event loop: adopts connections from its inbox, serves
/// readiness events on `epoll` (which already holds the doorbell under
/// [`WAKE_TOKEN`]) through the [`LineSession`] state machine, and evicts
/// idlers via a lazy timer wheel.
#[cfg(target_os = "linux")]
fn event_loop(
    epoll: &Epoll,
    handle: &EventLoopHandle,
    service: &Service,
    config: &NetConfig,
    stats: &NetStats,
    stop: &AtomicBool,
) {
    // Wheel granularity: coarse enough that thousands of idle
    // connections cost a handful of wakeups per minute, fine enough
    // that evictions land within ~25% of the configured timeout.
    let granularity =
        (config.idle_timeout / 4).clamp(Duration::from_millis(25), Duration::from_secs(10));
    let slots = (config.idle_timeout.as_nanos() / granularity.as_nanos()).max(1) as usize + 2;
    let mut wheel = TimerWheel::new(granularity, slots, Instant::now());
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut fired: Vec<u64> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];

    loop {
        let timeout = wheel.next_timeout(Instant::now());
        let n = epoll.wait(&mut events, timeout).unwrap_or_default();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        for event in events.iter().take(n) {
            let (token, bits) = (event.token, event.events);
            if token == WAKE_TOKEN {
                handle.doorbell.drain();
                adopt_inbox(handle, epoll, &mut conns, &mut wheel, config, stats, now);
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let close = serve_readiness(conn, bits, service, stats, &mut chunk, now);
            let fd = conn.stream.as_raw_fd();
            if close || conn.session.finished() {
                let _ = epoll.delete(fd);
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                conns.remove(&token);
                stats.live.fetch_sub(1, Ordering::SeqCst);
            } else {
                // Keep EPOLLOUT registered exactly while output is
                // pending (level-triggered: a standing EPOLLOUT on a
                // writable idle socket would busy-fire).
                let want_out = !conn.session.output().is_empty();
                if want_out != conn.interest_out {
                    let bits = EPOLLIN | if want_out { EPOLLOUT } else { 0 };
                    if epoll.modify(fd, bits, token).is_ok() {
                        conn.interest_out = want_out;
                    }
                }
            }
        }
        // Timer wheel: candidates only — revalidate against real
        // activity and either evict or reschedule for the remainder.
        wheel.poll(now, &mut fired);
        for token in fired.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let idle = now.saturating_duration_since(conn.last_active);
            if idle >= config.idle_timeout {
                stats.timer_evictions.fetch_add(1, Ordering::SeqCst);
                conn.session.note_idle_timeout(stats);
                let _ = flush_nonblocking(conn);
                let fd = conn.stream.as_raw_fd();
                let _ = epoll.delete(fd);
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                conns.remove(&token);
                stats.live.fetch_sub(1, Ordering::SeqCst);
            } else {
                wheel.schedule(token, config.idle_timeout - idle);
            }
        }
    }

    // Shutdown drain: notify and close every connection this loop owns,
    // plus any not-yet-adopted inbox strays (the acceptor has already
    // been joined, so the inbox cannot refill).
    for (_, mut conn) in conns.drain() {
        conn.session.note_shutdown();
        let _ = flush_nonblocking(&mut conn);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        stats.live.fetch_sub(1, Ordering::SeqCst);
    }
    for stream in handle.inbox.lock().unwrap().drain(..) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        stats.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Moves freshly accepted connections from the inbox into the loop:
/// nonblocking mode, banner queued (and eagerly flushed), epoll
/// registration, idle-timer scheduling.
#[cfg(target_os = "linux")]
fn adopt_inbox(
    handle: &EventLoopHandle,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    wheel: &mut TimerWheel,
    config: &NetConfig,
    stats: &NetStats,
    now: Instant,
) {
    let fresh: Vec<TcpStream> = handle.inbox.lock().unwrap().drain(..).collect();
    for stream in fresh {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            stats.live.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let fd = stream.as_raw_fd();
        let token = fd as u64;
        let mut conn = Conn {
            stream,
            session: LineSession::new(),
            last_active: now,
            interest_out: false,
            partial_write: false,
        };
        // Eager banner write: almost always completes in one call.
        let _ = flush_nonblocking(&mut conn);
        if conn.session.finished() {
            stats.live.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let want_out = !conn.session.output().is_empty();
        let bits = EPOLLIN | if want_out { EPOLLOUT } else { 0 };
        if epoll.add(fd, bits, token).is_err() {
            stats.live.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        conn.interest_out = want_out;
        wheel.schedule(token, config.idle_timeout);
        conns.insert(token, conn);
    }
}

/// Serves one readiness event on one connection; returns `true` when
/// the connection must be closed (fatal I/O error — clean closes are
/// reported through `session.finished()`).
#[cfg(target_os = "linux")]
fn serve_readiness(
    conn: &mut Conn,
    bits: u32,
    service: &Service,
    stats: &NetStats,
    chunk: &mut [u8],
    now: Instant,
) -> bool {
    let mut progressed = false;
    if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
        // Drain available input (bounded per event; level-triggered
        // epoll re-fires if more remains).
        for _ in 0..READS_PER_EVENT {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.session.note_eof();
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    conn.last_active = now;
                    conn.session.ingest(&chunk[..n], service, stats);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Connection reset or similar: nothing more to say
                    // to this peer.
                    return true;
                }
            }
        }
    }
    if bits & EPOLLOUT != 0 && conn.partial_write && !conn.session.output().is_empty() {
        stats.partial_writes_resumed.fetch_add(1, Ordering::SeqCst);
    }
    match flush_nonblocking(conn) {
        Ok(wrote) => progressed |= wrote,
        Err(_) => return true,
    }
    if !progressed {
        stats.spurious_wakeups.fetch_add(1, Ordering::SeqCst);
    }
    false
}

/// Writes as much pending output as the socket accepts right now;
/// `Ok(true)` if any bytes moved. A full socket buffer marks the
/// connection as mid-partial-write (completed later under `EPOLLOUT`).
#[cfg(target_os = "linux")]
fn flush_nonblocking(conn: &mut Conn) -> std::io::Result<bool> {
    let mut wrote = false;
    while !conn.session.output().is_empty() {
        match conn.stream.write(conn.session.output()) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => {
                conn.session.consume(n);
                wrote = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                conn.partial_write = true;
                return Ok(wrote);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.partial_write = false;
    Ok(wrote)
}

// TCP serving exists only on Linux.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn server_with(config: NetConfig) -> TcpServer {
        TcpServer::bind(Arc::new(Service::new()), "127.0.0.1:0", config).unwrap()
    }

    /// Connect and consume the banner.
    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut banner = String::new();
        reader.read_line(&mut banner).unwrap();
        assert!(banner.starts_with("ok blowfish/1 "), "{banner}");
        (reader, stream)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream, line: &str) -> String {
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn serves_a_full_session_over_tcp_under_both_models() {
        let mut server = server_with(NetConfig::default());
        let (mut reader, mut stream) = client(server.local_addr());
        assert_eq!(
            roundtrip(
                &mut reader,
                &mut stream,
                "tenant acme policy=line:16 eps=0.5 budget=1.0 data=uniform:3",
            ),
            "ok tenant acme policy=G^1_16 cells=16"
        );
        assert_eq!(
            roundtrip(&mut reader, &mut stream, "hello blowfish/1"),
            "ok hello blowfish/1"
        );
        // Connection-scoped default tenant works over the socket.
        assert_eq!(
            roundtrip(&mut reader, &mut stream, "use acme"),
            "ok use acme"
        );
        let fit = roundtrip(&mut reader, &mut stream, "fit as=r1 seed=7");
        assert_eq!(fit, "ok fit r1 charged=0.5 spent=0.5 remaining=0.5");
        let answer = roundtrip(&mut reader, &mut stream, "answer from=r1 0..15");
        assert!(answer.starts_with("ok answer 1 "), "{answer}");
        // quit closes the connection (EOF on the reader).
        writeln!(stream, "quit").unwrap();
        let mut rest = String::new();
        reader.read_line(&mut rest).unwrap();
        assert_eq!(rest, "");
        assert!(server.shutdown(Duration::from_secs(5)));
        assert_eq!(server.stats().requests.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn reactor_is_the_linux_default_and_reports_itself() {
        let mut server = server_with(NetConfig::default());
        assert!(server.stats().event_loops.load(Ordering::SeqCst) >= 1);
        // The TCP-only `stats net` introspection line answers at the
        // framing layer with every counter.
        let (mut reader, mut stream) = client(server.local_addr());
        let reply = roundtrip(&mut reader, &mut stream, "stats net");
        assert!(reply.starts_with("ok stats net model=reactor "), "{reply}");
        for key in [
            "accepted=1",
            "live=1",
            "requests=1",
            "shed=0",
            "idle_closed=0",
            "spurious_wakeups=",
            "partial_writes_resumed=",
            "timer_evictions=0",
            "event_loops=",
        ] {
            assert!(reply.contains(key), "missing {key} in {reply}");
        }
        assert!(server.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn default_tenant_state_is_per_connection() {
        let mut server = server_with(NetConfig::default());
        let (mut r1, mut s1) = client(server.local_addr());
        let (mut r2, mut s2) = client(server.local_addr());
        roundtrip(
            &mut r1,
            &mut s1,
            "tenant acme policy=line:8 eps=0.5 budget=4 data=uniform:1",
        );
        assert_eq!(roundtrip(&mut r1, &mut s1, "use acme"), "ok use acme");
        let ok = roundtrip(&mut r1, &mut s1, "fit as=a seed=1");
        assert!(ok.starts_with("ok fit a "), "{ok}");
        // The second connection shares the service but not the default.
        let err = roundtrip(&mut r2, &mut s2, "fit as=b seed=2");
        assert!(err.starts_with("err bad request"), "{err}");
        let ok2 = roundtrip(&mut r2, &mut s2, "fit acme as=b seed=2");
        assert!(ok2.starts_with("ok fit b "), "{ok2}");
        assert!(server.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn connections_beyond_the_cap_are_shed_under_both_models() {
        let mut server = server_with(NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        });
        let keep1 = client(server.local_addr());
        let keep2 = client(server.local_addr());
        // The third connection gets the busy line, not a banner.
        let extra = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(extra);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("err server-busy"), "{line}");
        // …and then EOF.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "");
        assert_eq!(server.stats().shed.load(Ordering::SeqCst), 1);
        // Freeing a slot re-opens admission.
        drop(keep1);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let again = TcpStream::connect(server.local_addr()).unwrap();
            let mut reader = BufReader::new(again);
            let mut banner = String::new();
            reader.read_line(&mut banner).unwrap();
            if banner.starts_with("ok blowfish/1") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "slot never freed; last reply {banner}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(keep2);
        assert!(server.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn oversized_lines_close_the_connection_under_both_models() {
        let mut server = server_with(NetConfig::default());
        let (mut reader, mut stream) = client(server.local_addr());
        let huge = vec![b'x'; MAX_LINE_BYTES + 4096];
        stream.write_all(&huge).unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("err line-too-long"), "{reply}");
        assert!(server.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn idle_connections_time_out_under_both_models() {
        let mut server = server_with(NetConfig {
            idle_timeout: Duration::from_millis(300),
            ..NetConfig::default()
        });
        let (mut reader, _stream) = client(server.local_addr());
        let started = Instant::now();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("err idle-timeout"), "{line}");
        assert!(started.elapsed() >= Duration::from_millis(250));
        assert_eq!(server.stats().idle_closed.load(Ordering::SeqCst), 1);
        // The eviction rode the timer wheel.
        assert_eq!(server.stats().timer_evictions.load(Ordering::SeqCst), 1);
        assert!(server.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn shutdown_notifies_parked_connections_under_both_models() {
        let mut server = server_with(NetConfig::default());
        let (mut reader, _stream) = client(server.local_addr());
        assert!(server.shutdown(Duration::from_secs(5)));
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("err server-shutdown"), "{line}");
        // New connections are refused once the listener is gone.
        assert!(TcpStream::connect(server.local_addr()).is_err());
    }

    #[test]
    fn pipelined_burst_is_served_in_order_without_loss() {
        // 2000 requests written before any reply is read: exercises
        // framing across partial reads and the reactor's write-buffer
        // continuation under socket backpressure.
        let mut server = server_with(NetConfig::default());
        let (reader, mut stream) = client(server.local_addr());
        let total = 2000usize;
        let writer = std::thread::spawn(move || {
            let mut burst = String::new();
            for _ in 0..total {
                burst.push_str("help\n");
            }
            stream.write_all(burst.as_bytes()).unwrap();
            stream.flush().unwrap();
            stream
        });
        let mut reader = reader;
        let mut got = 0usize;
        let mut line = String::new();
        while got < total {
            line.clear();
            let n = reader.read_line(&mut line).unwrap();
            assert!(n > 0, "connection closed after {got} replies");
            assert!(line.starts_with("ok help blowfish/1 "), "{line}");
            got += 1;
        }
        let stream = writer.join().unwrap();
        drop(stream);
        assert_eq!(server.stats().requests.load(Ordering::SeqCst), total as u64);
        assert!(server.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn line_session_matches_the_direct_codec_path() {
        // The state machine's replies are byte-identical to serving the
        // same lines straight through a codec (the equivalence the
        // framing proptest pins down at scale).
        let service = Service::new();
        let stats = NetStats::default();
        let mut session = LineSession::new();
        let script = "tenant acme policy=line:8 eps=0.5 budget=2 data=uniform:1\n\
                      use acme\nfit as=h seed=3\nanswer from=h 0..7\nbogus\n";
        session.ingest(script.as_bytes(), &service, &stats);

        let twin = Service::new();
        let mut codec = Codec::new();
        let mut expected = Codec::banner();
        expected.push('\n');
        for line in script.lines() {
            if let WireReply::Reply(reply) = codec.serve(&twin, line) {
                expected.push_str(&reply);
                expected.push('\n');
            }
        }
        assert_eq!(String::from_utf8_lossy(session.output()), expected);
        assert!(!session.closing());
        // Partial consumption keeps the continuation intact.
        let full = session.output().to_vec();
        session.consume(3);
        assert_eq!(session.output(), &full[3..]);
        session.consume(full.len());
        assert!(session.output().is_empty());
        // quit discards any buffered input after it.
        session.ingest(b"quit\nfit as=never seed=1\n", &service, &stats);
        assert!(session.finished());
    }
}
