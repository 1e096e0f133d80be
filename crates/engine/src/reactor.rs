//! Linux readiness primitives for the TCP server in [`net`](crate::net):
//! thin, std-only wrappers over `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! `eventfd`, and a raw `socket`/`bind`/`listen` path that honours a
//! configurable backlog — declared via direct `extern "C"` bindings in
//! the same no-crates.io spirit as the workspace `shims/`.
//!
//! The pieces compose into the reactor:
//!
//! * [`Epoll`] — one readiness set per event loop. Level-triggered
//!   (the default), so a connection with buffered input or pending
//!   output keeps firing until drained — no lost-wakeup edge cases.
//! * [`EventFd`] — the cross-thread doorbell. The acceptor rings it to
//!   hand a freshly accepted connection to an event loop, and
//!   `shutdown` rings it to wake every loop (and the acceptor itself)
//!   out of an otherwise unbounded `epoll_wait`.
//! * [`TimerWheel`] — a lazy hashed wheel for idle timeouts: entries
//!   are *candidates* revalidated against the connection's actual
//!   last-activity instant when their slot fires, so activity never
//!   has to reschedule anything (an idle-heavy server does O(1) timer
//!   work per tick, not per connection).
//! * [`listen_with_backlog`] — `TcpListener::bind` hardcodes a
//!   128-entry listen backlog; serving (and load-testing) thousands of
//!   simultaneous connects needs the backlog to cover the burst, so
//!   the socket is created raw and `listen(2)` gets the real number.
//!
//! Everything here is `target_os = "linux"`-only (gated at the module
//! declaration), which is why TCP serving is Linux-only.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{FromRawFd, RawFd};
use std::time::{Duration, Instant};

// Values from the Linux UAPI headers (asm-generic), stable ABI.
/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never registered).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`; always reported, never registered).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;

/// One `struct epoll_event`. Packed on x86-64 (the kernel ABI packs it
/// there so 32-bit and 64-bit userlands share a layout); naturally
/// aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token identifying the fd (this module uses the fd
    /// value itself).
    pub token: u64,
}

impl EpollEvent {
    /// An empty event, for sizing `epoll_wait` buffers.
    pub fn zeroed() -> EpollEvent {
        EpollEvent {
            events: 0,
            token: 0,
        }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

/// Converts a `-1` syscall return into the thread's `errno` error.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll readiness set (`epoll_create1` fd, closed on drop).
///
/// Level-triggered: a registered fd keeps reporting readiness while the
/// condition holds, so handlers may read/write as little as they like
/// per wakeup without risking a lost event.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates an empty readiness set.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, token };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers `fd` under `token` for the given readiness bits
    /// (`EPOLLRDHUP` is implied so peer half-closes surface as events).
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events | EPOLLRDHUP, token)
    }

    /// Changes the readiness bits an already registered fd reports.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events | EPOLLRDHUP, token)
    }

    /// Removes an fd from the set (idempotent in practice: a close also
    /// removes it, but an explicit delete keeps the set's size honest
    /// while the `TcpStream` is still alive).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut event = EpollEvent::zeroed();
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks until readiness or `timeout` (`None` = unbounded), filling
    /// `events` and returning how many fired. `EINTR` retries instead of
    /// surfacing.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a 0.4 ms residue does not busy-spin at 0 ms.
            Some(t) => {
                t.as_millis().min(i32::MAX as u128) as c_int
                    + if t.subsec_nanos() % 1_000_000 != 0 {
                        1
                    } else {
                        0
                    }
            }
        };
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as c_int,
                    timeout_ms,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A kernel event counter (`eventfd`) used as a wakeup doorbell:
/// [`notify`](EventFd::notify) from any thread makes the owning loop's
/// `epoll_wait` return; [`drain`](EventFd::drain) resets it.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking doorbell at count zero.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for registering with an [`Epoll`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell (adds 1 to the counter). Never blocks: on the
    /// astronomically unreachable counter overflow the notification is
    /// already pending, which is all a doorbell needs.
    pub fn notify(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Clears pending notifications so level-triggered polling stops
    /// reporting the doorbell as readable.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// Binds a TCP listener with an explicit `listen(2)` backlog instead of
/// the 128 entries `TcpListener::bind` hardcodes (the kernel still
/// clamps to `net.core.somaxconn`). `SO_REUSEADDR` is set like std does,
/// so rebinding a recently closed server address works.
pub fn listen_with_backlog(addr: SocketAddr, backlog: usize) -> io::Result<TcpListener> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    let fd = cvt(unsafe { socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // From here on the raw fd must be closed on any error path.
    let guard = FdGuard { fd };
    let reuse: c_int = 1;
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&reuse as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    })?;
    match addr {
        SocketAddr::V4(v4) => {
            let raw = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            cvt(unsafe {
                bind(
                    fd,
                    (&raw as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            })?;
        }
        SocketAddr::V6(v6) => {
            let raw = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            cvt(unsafe {
                bind(
                    fd,
                    (&raw as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            })?;
        }
    }
    cvt(unsafe { listen(fd, backlog.min(c_int::MAX as usize) as c_int) })?;
    std::mem::forget(guard);
    // SAFETY: the fd is a freshly created, listening TCP socket owned by
    // nobody else.
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// Closes a raw fd when an error path unwinds out of
/// [`listen_with_backlog`].
struct FdGuard {
    fd: RawFd,
}

impl Drop for FdGuard {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A lazy hashed timer wheel for connection idle timeouts.
///
/// Entries are **candidates**, not authoritative deadlines: connection
/// activity never touches the wheel. When a slot fires, the owner
/// revalidates each candidate against the connection's real
/// last-activity instant and either evicts it or
/// [`schedule`](TimerWheel::schedule)s it again for the remaining time.
/// That makes the per-request hot path timer-free and the per-tick work
/// proportional to the slot population, not the connection count.
#[derive(Debug)]
pub struct TimerWheel {
    granularity: Duration,
    slots: Vec<Vec<u64>>,
    cursor: usize,
    next_tick: Instant,
    len: usize,
}

impl TimerWheel {
    /// A wheel whose horizon (`slots × granularity`) must cover the
    /// longest delay ever scheduled; delays beyond it are clamped to the
    /// farthest slot (they fire early and get rescheduled — correct,
    /// just less lazy).
    pub fn new(granularity: Duration, slots: usize, now: Instant) -> TimerWheel {
        TimerWheel {
            granularity: granularity.max(Duration::from_millis(1)),
            slots: vec![Vec::new(); slots.max(2)],
            cursor: 0,
            next_tick: now + granularity,
            len: 0,
        }
    }

    /// Number of scheduled candidates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no candidates are scheduled (an empty wheel needs no
    /// wakeups at all).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` to fire after roughly `delay` (rounded up to
    /// the next slot boundary, clamped to the wheel horizon).
    pub fn schedule(&mut self, token: u64, delay: Duration) {
        let ticks = delay
            .as_nanos()
            .div_ceil(self.granularity.as_nanos().max(1)) as usize;
        let ahead = ticks.clamp(1, self.slots.len() - 1);
        let slot = (self.cursor + ahead) % self.slots.len();
        self.slots[slot].push(token);
        self.len += 1;
    }

    /// How long `epoll_wait` may sleep before the next slot is due:
    /// `None` when the wheel is empty (sleep unboundedly — a doorbell
    /// covers external wakeups).
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.is_empty() {
            None
        } else {
            Some(self.next_tick.saturating_duration_since(now))
        }
    }

    /// Advances the cursor over every slot whose tick has passed,
    /// draining their candidates into `fired`.
    pub fn poll(&mut self, now: Instant, fired: &mut Vec<u64>) {
        while now >= self.next_tick {
            self.cursor = (self.cursor + 1) % self.slots.len();
            let slot = &mut self.slots[self.cursor];
            self.len -= slot.len();
            fired.append(slot);
            self.next_tick += self.granularity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener as StdListener, TcpStream};

    #[test]
    fn epoll_reports_listener_and_stream_readiness() {
        let listener = StdListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        let lfd = std::os::unix::io::AsRawFd::as_raw_fd(&listener);
        epoll.add(lfd, EPOLLIN, 7).unwrap();

        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = vec![EpollEvent::zeroed(); 8];
        let n = epoll.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);

        // A connect makes the listener readable under token 7.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let (token, bits) = (events[0].token, events[0].events);
        assert_eq!(token, 7);
        assert_ne!(bits & EPOLLIN, 0);

        // Accepted stream becomes readable once the client writes.
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let sfd = std::os::unix::io::AsRawFd::as_raw_fd(&stream);
        epoll.add(sfd, EPOLLIN, 9).unwrap();
        client.write_all(b"hi\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = epoll
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events[..n].iter().any(|e| e.token == 9) {
                break;
            }
            assert!(Instant::now() < deadline, "stream never became readable");
        }
        // Interest can be narrowed and the fd removed.
        epoll.modify(sfd, EPOLLIN | EPOLLOUT, 9).unwrap();
        epoll.delete(sfd).unwrap();
    }

    #[test]
    fn eventfd_wakes_and_drains() {
        let epoll = Epoll::new().unwrap();
        let doorbell = EventFd::new().unwrap();
        epoll.add(doorbell.raw_fd(), EPOLLIN, 1).unwrap();
        let mut events = vec![EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        doorbell.notify();
        doorbell.notify();
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let token = events[0].token;
        assert_eq!(token, 1);
        doorbell.drain();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        // Notifying from another thread wakes a parked wait.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                doorbell.notify();
            });
            let n = epoll
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1);
            doorbell.drain();
        });
    }

    #[test]
    fn listen_with_backlog_serves_connections() {
        let listener = listen_with_backlog("127.0.0.1:0".parse().unwrap(), 512).unwrap();
        let addr = listener.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        let client = TcpStream::connect(addr).unwrap();
        let (_server_side, peer) = listener.accept().unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
    }

    #[test]
    fn timer_wheel_fires_lazily_and_reschedules() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(100), 8, t0);
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_timeout(t0), None);

        wheel.schedule(1, Duration::from_millis(150));
        wheel.schedule(2, Duration::from_millis(450));
        assert_eq!(wheel.len(), 2);
        // Before the first tick nothing fires.
        let mut fired = Vec::new();
        wheel.poll(t0 + Duration::from_millis(50), &mut fired);
        assert!(fired.is_empty());
        // 150 ms rounds up to the second tick (200 ms).
        wheel.poll(t0 + Duration::from_millis(210), &mut fired);
        assert_eq!(fired, vec![1]);
        fired.clear();
        // Token 2 fires by 500 ms; a revalidating owner reschedules it.
        wheel.poll(t0 + Duration::from_millis(510), &mut fired);
        assert_eq!(fired, vec![2]);
        assert!(wheel.is_empty());
        wheel.schedule(2, Duration::from_millis(100));
        assert_eq!(wheel.len(), 1);
        assert!(wheel
            .next_timeout(t0 + Duration::from_millis(510))
            .is_some());
        // Delays beyond the horizon clamp to the farthest slot instead of
        // wrapping onto a near one.
        wheel.schedule(3, Duration::from_secs(3600));
        fired.clear();
        wheel.poll(t0 + Duration::from_millis(1300), &mut fired);
        assert!(fired.contains(&2) && fired.contains(&3));
    }
}
