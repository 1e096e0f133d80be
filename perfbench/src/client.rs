//! The load side: starts a `blowfish-serve` process, onboards the initial
//! tenants over the wire, and drives an open-loop phase over two
//! connections from two threads — the calling thread sends on schedule,
//! one spawned thread receives and checks every reply — or a closed-loop
//! probe from the calling thread alone.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use blowfish_core::overdraw_slack;
use blowfish_engine::reactor::{Epoll, EpollEvent, EPOLLIN, EPOLLRDHUP};

use crate::stats::{parse_net_stats, parse_stats, ServerStats};
use crate::workload::{Expect, Kind, Req, Workload, HANDLE};

pub const CONNECTIONS: usize = 2;

/// One connection with the bytes read past the last complete line.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Request lines written on this connection.
    pub sent: u64,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // Bounds a send into a server that stopped reading; the phase then
        // counts as overloaded instead of hanging.
        stream
            .set_write_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            pending: Vec::new(),
            sent: 0,
        };
        let banner = conn.read_line(Duration::from_secs(10))?;
        if !banner.starts_with("ok blowfish/1 ready") {
            return Err(format!("unexpected banner: {banner}"));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.sent += 1;
        (&self.stream)
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Blocking read of one reply line.
    fn read_line(&mut self, timeout: Duration) -> Result<String, String> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        loop {
            if let Some(line) = take_line(&mut self.pending) {
                return Ok(line);
            }
            let mut buf = [0u8; 65536];
            match (&self.stream).read(&mut buf) {
                Ok(0) => return Err("connection closed by server".into()),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// A round trip whose reply is awaited by spinning on a non-blocking
    /// read, so that a timed round trip holds no wake-up of this thread.
    fn spin_roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.stream
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut buf = [0u8; 65536];
        let line = loop {
            if let Some(line) = take_line(&mut self.pending) {
                break Ok(line);
            }
            match (&self.stream).read(&mut buf) {
                Ok(0) => break Err("connection closed by server".into()),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        break Err("no reply within 60 s".into());
                    }
                    std::hint::spin_loop();
                }
                Err(e) => break Err(format!("read: {e}")),
            }
        };
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        line
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_line(Duration::from_secs(60))
    }
}

fn take_line(pending: &mut Vec<u8>) -> Option<String> {
    let pos = pending.iter().position(|&b| b == b'\n')?;
    let line = String::from_utf8_lossy(&pending[..pos]).into_owned();
    pending.drain(..=pos);
    Some(line)
}

/// A running `blowfish-serve --tcp 127.0.0.1:0` with its two connections.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    state_dir: Option<PathBuf>,
    pub conns: Vec<Conn>,
    pub spawned: Instant,
}

impl Server {
    pub fn start(binary: &Path, state_dir: Option<PathBuf>, log: &Path) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut cmd = Command::new(binary);
        cmd.args(["--tcp", "127.0.0.1:0"]);
        if let Some(dir) = &state_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            cmd.arg("--state-dir")
                .arg(dir)
                .args(["--fsync", "per-charge"]);
        }
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut first = String::new();
        let read = BufReader::new(stdout).read_line(&mut first);
        let stdin = child.stdin.take();
        let mut server = Server {
            child,
            stdin,
            state_dir,
            conns: Vec::new(),
            spawned,
        };
        read.map_err(|e| format!("server stdout: {e}"))?;
        let addr = first
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("server did not report its address: {first:?}"))?
            .to_string();
        for _ in 0..CONNECTIONS {
            server.conns.push(Conn::connect(&addr)?);
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the connections and stdin, waits for the server to drain and
    /// exit (killing it if it does not), and removes its state directory.
    pub fn stop(mut self) -> Result<(), String> {
        self.conns.clear();
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break Some(status),
                None if Instant::now() > deadline => break None,
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if status.is_none() {
            let _ = self.child.kill();
            self.child.wait().map_err(|e| e.to_string())?;
        }
        if let Some(dir) = &self.state_dir {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("server exited with {s}")),
            None => Err("server did not exit after stdin closed".into()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on an error path: never leave a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Per-tenant tallies of what the server replied, for reconciling with its
/// final `stats`.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub onboarded: bool,
    pub fits_requested: usize,
    pub fits_admitted: usize,
    /// Fold of the `charged=` receipts in reply order.
    pub receipt_fold: f64,
    /// Closed-form utility oracle: summed squared error and summed
    /// expected variance over this tenant's answered ranges.
    pub sq_err: f64,
    pub expected_var: f64,
    pub ranges: usize,
}

/// The checker every reply passes through.
pub struct Checker<'a> {
    pub w: &'a Workload,
    pub tallies: Vec<Tally>,
    pub failures: Vec<String>,
    pub sq_err: f64,
    pub ranges: usize,
}

impl<'a> Checker<'a> {
    pub fn new(w: &'a Workload) -> Checker<'a> {
        Checker {
            w,
            tallies: vec![Tally::default(); w.tenants.len()],
            failures: Vec::new(),
            sq_err: 0.0,
            ranges: 0,
        }
    }

    /// Checks one reply against its request; returns whether it was right.
    pub fn check(&mut self, req: &Req, reply: &str) -> bool {
        match self.verdict(req, reply) {
            Ok(()) => true,
            Err(why) => {
                if self.failures.len() < 20 {
                    self.failures.push(format!(
                        "{}: {why} (request {:.60}; reply {reply:.100})",
                        req.kind.name(),
                        req.line.trim_end()
                    ));
                }
                false
            }
        }
    }

    fn verdict(&mut self, req: &Req, reply: &str) -> Result<(), String> {
        let tenant = &self.w.tenants[req.tenant];
        let tally = &mut self.tallies[req.tenant];
        match &req.expect {
            Expect::Onboarded => {
                let want = format!("ok tenant {} ", tenant.id);
                let cells = format!("cells={}", tenant.cells());
                if !reply.starts_with(&want) || !reply.ends_with(&cells) {
                    return Err("expected the tenant receipt".into());
                }
                tally.onboarded = true;
            }
            Expect::Admitted { spent, remaining } => {
                tally.fits_requested += 1;
                let want = format!("ok fit {HANDLE} ");
                if !reply.starts_with(&want) {
                    return Err("expected an admitted fit".into());
                }
                let field = |k: &str| -> Result<f64, String> {
                    reply
                        .split_whitespace()
                        .find_map(|t| t.strip_prefix(k))
                        .and_then(|v| v.parse().ok())
                        .ok_or(format!("fit receipt without {k}"))
                };
                let charged = field("charged=")?;
                if charged.to_bits() != tenant.charge.to_bits() {
                    return Err(format!(
                        "charged {charged}, expected exactly {}",
                        tenant.charge
                    ));
                }
                let got = (field("spent=")?, field("remaining=")?);
                if got.0.to_bits() != spent.to_bits() || got.1.to_bits() != remaining.to_bits() {
                    return Err(format!("receipt {got:?}, oracle ({spent}, {remaining})"));
                }
                tally.fits_admitted += 1;
                tally.receipt_fold += charged;
            }
            Expect::Rejected => {
                tally.fits_requested += 1;
                let want = format!("budget exhausted for tenant {}: ", tenant.id);
                if !reply.starts_with("err ") || !reply.contains(&want) {
                    return Err("expected the typed budget rejection".into());
                }
            }
            Expect::Answers => {
                let mut tokens = reply.split_whitespace();
                if tokens.next() != Some("ok") || tokens.next() != Some("answer") {
                    return Err("expected an answer batch".into());
                }
                let n: usize = tokens
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad count")?;
                if n != req.ranges.len() {
                    return Err(format!("{n} answers for {} ranges", req.ranges.len()));
                }
                let mut answered = 0;
                for (r, token) in req.ranges.iter().zip(tokens) {
                    let v: f64 = token.parse().map_err(|_| format!("bad value {token}"))?;
                    if !v.is_finite() {
                        return Err(format!("non-finite answer {v}"));
                    }
                    let err = v - tenant.truth(r);
                    self.sq_err += err * err;
                    if let Some(var) = tenant.expected_var(r) {
                        tally.sq_err += err * err;
                        tally.expected_var += var;
                        tally.ranges += 1;
                    }
                    answered += 1;
                }
                if answered != n {
                    return Err(format!("{answered} values for a count of {n}"));
                }
                self.ranges += n;
            }
        }
        Ok(())
    }

    /// Reconciles the final `stats` with the replies: every onboarded
    /// tenant listed, spend equal bit for bit to the fold of its receipts,
    /// and admissions equal to the order-independent floor.
    pub fn reconcile(&self, stats: &ServerStats) -> Vec<String> {
        let mut out = Vec::new();
        let onboarded = self.tallies.iter().filter(|t| t.onboarded).count();
        if stats.tenants.len() != onboarded {
            out.push(format!(
                "stats lists {} tenants, {onboarded} were onboarded",
                stats.tenants.len()
            ));
        }
        for (tenant, tally) in self.w.tenants.iter().zip(&self.tallies) {
            if !tally.onboarded {
                continue;
            }
            let Some(row) = stats.tenants.get(&tenant.id) else {
                out.push(format!("{} missing from stats", tenant.id));
                continue;
            };
            if row.spent.to_bits() != tally.receipt_fold.to_bits() {
                out.push(format!(
                    "{}: stats spent {} != receipt fold {}",
                    tenant.id, row.spent, tally.receipt_fold
                ));
            }
            let (mut floor, mut spent) = (0, 0.0f64);
            while floor < tally.fits_requested
                && spent + tenant.charge <= tenant.budget + overdraw_slack(tenant.budget)
            {
                spent += tenant.charge;
                floor += 1;
            }
            if row.fits != tally.fits_admitted || row.fits != floor {
                out.push(format!(
                    "{}: stats fits={} receipts={} floor={floor}",
                    tenant.id, row.fits, tally.fits_admitted
                ));
            }
        }
        out
    }

    /// Closed-form tenants' pooled measured MSE over expected MSE.
    pub fn utility_ratio(&self) -> Option<(f64, usize)> {
        let (sq, var, n) = self.tallies.iter().fold((0.0, 0.0, 0), |(s, v, n), t| {
            (s + t.sq_err, v + t.expected_var, n + t.ranges)
        });
        (n > 0 && var > 0.0).then(|| (sq / var, n))
    }
}

/// Sends the setup requests pipelined per connection and waits for every
/// reply. Returns the seconds from spawning the server to the last reply.
pub fn run_setup(server: &mut Server, checker: &mut Checker, reqs: &[Req]) -> Result<f64, String> {
    for req in reqs {
        let c = checker.w.tenants[req.tenant].conn;
        server.conns[c].send(&req.line)?;
    }
    for req in reqs {
        let c = checker.w.tenants[req.tenant].conn;
        let reply = server.conns[c].read_line(Duration::from_secs(60))?;
        checker.check(req, &reply);
    }
    Ok(server.spawned.elapsed().as_secs_f64())
}

/// Closed loop: sends each request once the previous reply is in, on its
/// tenant's connection, then a `hello` on the same connection, spinning
/// until each reply line is complete. Returns each request's round trip and
/// that of the `hello` after it, ns.
pub fn run_closed(
    server: &mut Server,
    checker: &mut Checker,
    reqs: &[Req],
) -> Result<Vec<(u64, u64)>, String> {
    let timed = |conn: &mut Conn, line: &str| -> Result<(String, u64), String> {
        let sent = Instant::now();
        let reply = conn.spin_roundtrip(line)?;
        Ok((reply, sent.elapsed().as_nanos() as u64))
    };
    reqs.iter()
        .map(|req| {
            let conn = &mut server.conns[checker.w.tenants[req.tenant].conn];
            let (reply, req_ns) = timed(conn, &req.line)?;
            checker.check(req, &reply);
            let (hello, hello_ns) = timed(conn, "hello\n")?;
            if !hello.starts_with("ok hello ") {
                checker.failures.push(format!("hello: {hello:.100}"));
            }
            Ok((req_ns, hello_ns))
        })
        .collect()
}

/// What one open-loop phase observed.
pub struct PhaseOutcome {
    /// Latency from due time to the complete reply line, ns; `None` when no
    /// reply came.
    pub latency_ns: Vec<Option<u64>>,
    pub late_ns: Vec<u64>,
    /// Requests actually written.
    pub sent: usize,
    /// Requests whose reply failed its check.
    pub wrong: usize,
    /// Requests sent that got no reply before the phase ended.
    pub missing: usize,
    /// The sender gave up (it fell more than `abort_late` behind or a send
    /// timed out).
    pub aborted: bool,
}

/// Drives `reqs` at the `due` offsets (ns) over the server's connections.
/// The receiver stops at the last due time plus `drain`.
pub fn run_phase(
    server: &mut Server,
    checker: &mut Checker,
    reqs: &[Req],
    due: &[u64],
    abort_late: Duration,
    drain: Duration,
) -> Result<PhaseOutcome, String> {
    let n = reqs.len();
    let conn_of: Vec<usize> = reqs
        .iter()
        .map(|r| checker.w.tenants[r.tenant].conn)
        .collect();
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); CONNECTIONS];
    for (i, &c) in conn_of.iter().enumerate() {
        order[c].push(i);
    }
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_nanos(*due.last().unwrap_or(&0)) + drain;
    let conns = &mut server.conns;
    let pendings: Vec<Vec<u8>> = conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.pending))
        .collect();
    let streams: Vec<&TcpStream> = conns.iter().map(|c| &c.stream).collect();

    // The sender publishes how many requests it wrote; `usize::MAX` until it
    // has finished, so the receiver knows when the last reply is in.
    let sent_total = AtomicUsize::new(usize::MAX);
    let (received, late_ns, sent, aborted, pendings) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            receive(
                &streams,
                pendings,
                &order,
                reqs,
                checker,
                start,
                deadline,
                drain,
                &sent_total,
            )
        });
        let mut late_ns = Vec::with_capacity(n);
        let mut aborted = false;
        let mut sent = 0;
        for ((req, &offset), &c) in reqs.iter().zip(due).zip(&conn_of) {
            let at = start + Duration::from_nanos(offset);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let late = Instant::now().saturating_duration_since(at);
            late_ns.push(late.as_nanos() as u64);
            if late > abort_late || (&*streams[c]).write_all(req.line.as_bytes()).is_err() {
                aborted = true;
                break;
            }
            sent += 1;
        }
        sent_total.store(sent, Ordering::SeqCst);
        let (received, pendings) = receiver.join().expect("receiver thread");
        (received, late_ns, sent, aborted, pendings)
    });
    for ((conn, pending), conn_order) in conns.iter_mut().zip(pendings).zip(&order) {
        conn.pending = pending;
        conn.sent += conn_order.iter().filter(|&&i| i < sent).count() as u64;
    }
    let (mut wrong, mut missing) = (0, 0);
    let latency_ns: Vec<Option<u64>> = received
        .into_iter()
        .zip(due)
        .take(sent)
        .map(|(r, &offset)| match r {
            Some((done, ok)) => {
                wrong += usize::from(!ok);
                Some(done.saturating_sub(offset))
            }
            None => {
                missing += 1;
                None
            }
        })
        .collect();
    Ok(PhaseOutcome {
        latency_ns,
        late_ns,
        sent,
        wrong,
        missing,
        aborted,
    })
}

type Received = Vec<Option<(u64, bool)>>;

/// The receiving thread: waits for readability on both connections, splits
/// reply lines, and matches the j-th reply on a connection to the j-th
/// request sent on it. Records (completion ns since `start`, correct).
/// Stops once every sent request has its reply, at `deadline`, or `drain`
/// after the sender stopped early.
#[allow(clippy::too_many_arguments)]
fn receive(
    streams: &[&TcpStream],
    mut pendings: Vec<Vec<u8>>,
    order: &[Vec<usize>],
    reqs: &[Req],
    checker: &mut Checker,
    start: Instant,
    mut deadline: Instant,
    drain: Duration,
    sent_total: &AtomicUsize,
) -> (Received, Vec<Vec<u8>>) {
    let mut received: Received = vec![None; reqs.len()];
    let mut next = vec![0usize; streams.len()];
    let epoll = Epoll::new().expect("epoll");
    for (c, s) in streams.iter().enumerate() {
        epoll
            .add(s.as_raw_fd(), EPOLLIN | EPOLLRDHUP, c as u64)
            .expect("epoll add");
    }
    let mut events = vec![EpollEvent::zeroed(); CONNECTIONS];
    let mut buf = vec![0u8; 1 << 16];
    let mut open = vec![true; streams.len()];
    let mut done = 0;
    let mut sender_done = false;
    loop {
        let now = Instant::now();
        let sent = sent_total.load(Ordering::SeqCst);
        if sent != usize::MAX && !sender_done {
            sender_done = true;
            deadline = deadline.min(now + drain);
        }
        if (sender_done && done >= sent) || now >= deadline || !open.iter().any(|&o| o) {
            break;
        }
        let wait = (deadline - now).min(Duration::from_millis(50));
        let Ok(fired) = epoll.wait(&mut events, Some(wait)) else {
            break;
        };
        for ev in &events[..fired] {
            let c = ev.token as usize;
            let mut stream = streams[c];
            let got = stream.read(&mut buf);
            let at = start.elapsed().as_nanos() as u64;
            match got {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    let _ = epoll.delete(streams[c].as_raw_fd());
                    continue;
                }
                Ok(n) => pendings[c].extend_from_slice(&buf[..n]),
            }
            while let Some(line) = take_line(&mut pendings[c]) {
                let Some(&i) = order[c].get(next[c]) else {
                    checker
                        .failures
                        .push(format!("unrequested reply: {line:.100}"));
                    continue;
                };
                next[c] += 1;
                done += 1;
                let ok = checker.check(&reqs[i], &line);
                received[i] = Some((at, ok));
            }
        }
    }
    (received, pendings)
}

/// The final `stats`, the `stats net` counters, and every reconciliation
/// problem found.
pub type FinalStats = (
    ServerStats,
    std::collections::BTreeMap<String, u64>,
    Vec<String>,
);

/// Reads the final `stats` and `stats net`, reconciles them with the
/// replies, and checks that the server counted every line sent.
pub fn final_stats(server: &mut Server, checker: &Checker) -> Result<FinalStats, String> {
    let stats = parse_stats(&server.conns[0].roundtrip("stats\n")?)?;
    let net = parse_net_stats(&server.conns[0].roundtrip("stats net\n")?)?;
    let mut problems = checker.reconcile(&stats);
    let sent: u64 = server.conns.iter().map(|c| c.sent).sum();
    if net["requests"] != sent {
        problems.push(format!(
            "stats net requests={} but {sent} lines were sent",
            net["requests"]
        ));
    }
    Ok((stats, net, problems))
}

/// Server CPU time in seconds: the sum over its threads of the scheduler's
/// on-CPU time (`/proc/<pid>/task/*/schedstat`, in ns). The same quantity
/// as utime + stime in `/proc/<pid>/stat`, without the 10 ms tick
/// granularity that makes the latter vary by a few percent per phase.
pub fn server_cpu_s(pid: u32) -> Result<f64, String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    let mut ns = 0u64;
    for task in tasks {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(stat) = std::fs::read_to_string(&path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("bad {}", path.display()))?;
    }
    Ok(ns as f64 / 1e9)
}

/// The calling thread's CPU time in seconds (`/proc/thread-self/schedstat`).
pub fn thread_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").map_err(|e| e.to_string())?;
    stat.split_whitespace()
        .next()
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| "bad /proc/thread-self/schedstat".into())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn server_hwm_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".into())
}

pub fn kind_latencies(reqs: &[Req], out: &PhaseOutcome, kind: Kind) -> Vec<f64> {
    reqs.iter()
        .zip(&out.latency_ns)
        .filter(|(r, _)| r.kind == kind)
        .filter_map(|(_, l)| l.map(|ns| ns as f64 / 1e6))
        .collect()
}
