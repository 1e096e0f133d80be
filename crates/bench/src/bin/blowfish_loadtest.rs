//! `blowfish_loadtest` — loopback TCP load testing for the `blowfish/1`
//! wire protocol.
//!
//! Replays a simulator scenario's trace from many concurrent client
//! connections against a real socket server (an in-process one by
//! default, or an external `blowfish-serve --tcp` via `--connect`),
//! validates every reply, reconciles the ledger bit-for-bit against the
//! observed fit receipts, and reports client-measured p50/p95/p99
//! latency plus sustained throughput. Any violation — a dropped or
//! corrupted reply, an admission off the order-independent floor, a
//! spend that does not reconcile — makes the process exit nonzero.
//!
//! ```text
//! blowfish_loadtest [--scenario NAME] [--connections N] [--seed N]
//!                   [--requests N] [--connect ADDR]
//!                   [--out FILE] [--snapshot FILE] [--list]
//! blowfish_loadtest --idle N [--probes N] [--dwell-ms N]
//!                   [--out FILE] [--snapshot FILE]
//! blowfish_loadtest --ping ADDR     # banner handshake check, exit 0/1
//! blowfish_loadtest --client ADDR   # stdin → socket, replies → stdout
//! ```
//!
//! * `--scenario NAME` — catalog scenario driving the trace (default
//!   `exhaustion-tight`; its bursty arrivals and the zipf hot-key
//!   `grid-hotkey` scenario are the CI pair);
//! * `--connections N` — concurrent client sockets, all held open
//!   simultaneously (default 64);
//! * `--idle N` — instead of a trace replay, run the mostly-idle
//!   connection-scaling test: N silent connections held open while
//!   `--probes` requests measure latency through them; asserts the
//!   server's thread count stays ≤ 2 × cores (`/proc/self/status`) and
//!   that the silent dwell (`--dwell-ms`, default 1000) moves the
//!   reactor's spurious-wakeup counter by exactly zero;
//! * `--connect ADDR` — target an already running server instead of the
//!   in-process one;
//! * `--out FILE` — write the full JSON report;
//! * `--snapshot FILE` — write the `bench_gate`-consumable
//!   `net-<scenario>/<metric>` (or `net-idle-reactor/<metric>`)
//!   tail-latency snapshot;
//! * `--ping ADDR` — one connection, banner verified, nothing sent:
//!   readiness probe for scripted CI startup;
//! * `--client ADDR` — minimal interactive client: banner to stderr,
//!   request lines from stdin, reply lines to stdout (so scripted
//!   sessions produce byte-identical stdout to the stdin/stdout server
//!   mode).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use blowfish_bench::simulate::{run_idle, run_load, IdleReport, LoadReport, Scenario};

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_name = "exhaustion-tight".to_string();
    let mut connections = 64usize;
    let mut seed: Option<u64> = None;
    let mut requests: Option<usize> = None;
    let mut connect: Option<String> = None;
    let mut out: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut idle: Option<usize> = None;
    let mut probes = 200usize;
    let mut dwell = Duration::from_millis(1000);

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned();
        match args[i].as_str() {
            "--list" => {
                println!("available scenarios:");
                for s in Scenario::catalog() {
                    println!("  {:<18} {}", s.name, s.description);
                }
                return 0;
            }
            "--ping" => {
                return match value(i) {
                    Some(addr) => ping(&addr),
                    None => usage("--ping needs an address"),
                };
            }
            "--client" => {
                return match value(i) {
                    Some(addr) => client(&addr),
                    None => usage("--client needs an address"),
                };
            }
            "--scenario" => match value(i) {
                Some(name) => {
                    scenario_name = name;
                    i += 1;
                }
                None => return usage("--scenario needs a name"),
            },
            "--connections" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    connections = v;
                    i += 1;
                }
                None => return usage("--connections needs an integer"),
            },
            "--seed" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    seed = Some(v);
                    i += 1;
                }
                None => return usage("--seed needs an integer"),
            },
            "--requests" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    requests = Some(v);
                    i += 1;
                }
                None => return usage("--requests needs an integer"),
            },
            "--idle" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    idle = Some(v);
                    i += 1;
                }
                None => return usage("--idle needs a connection count"),
            },
            "--probes" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    probes = v;
                    i += 1;
                }
                None => return usage("--probes needs an integer"),
            },
            "--dwell-ms" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    dwell = Duration::from_millis(v);
                    i += 1;
                }
                None => return usage("--dwell-ms needs an integer"),
            },
            "--connect" => match value(i) {
                Some(addr) => {
                    connect = Some(addr);
                    i += 1;
                }
                None => return usage("--connect needs an address"),
            },
            "--out" => match value(i) {
                Some(file) => {
                    out = Some(file);
                    i += 1;
                }
                None => return usage("--out needs a file"),
            },
            "--snapshot" => match value(i) {
                Some(file) => {
                    snapshot = Some(file);
                    i += 1;
                }
                None => return usage("--snapshot needs a file"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if let Some(connections) = idle {
        return run_idle_mode(connections, probes, dwell, out, snapshot);
    }

    let mut scenario = match Scenario::find(&scenario_name) {
        Some(s) => s,
        None => {
            eprintln!("unknown scenario {scenario_name} (try --list)");
            return 2;
        }
    };
    if let Some(seed) = seed {
        scenario.seed = seed;
    }
    if let Some(requests) = requests {
        scenario.requests = requests;
    }

    let report = match run_load(&scenario, connections, connect.as_deref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{scenario_name}: load test could not run: {e}");
            return 2;
        }
    };
    print_summary(&report);
    if let Some(file) = &out {
        if let Err(e) = std::fs::write(file, report.to_json()) {
            eprintln!("could not write {file}: {e}");
            return 2;
        }
        println!("  full report written to {file}");
    }
    if let Some(file) = &snapshot {
        if let Err(e) = std::fs::write(file, report.snapshot_json()) {
            eprintln!("could not write {file}: {e}");
            return 2;
        }
        println!("  tail-latency snapshot written to {file}");
    }
    if report.passed() {
        println!("\nPASS: zero dropped/corrupted replies, ledger reconciles bit-for-bit");
        0
    } else {
        eprintln!("\nFAIL: {} violation(s)", report.violations.len());
        1
    }
}

fn usage(problem: &str) -> i32 {
    eprintln!(
        "{problem}\nusage: blowfish_loadtest [--scenario NAME] [--connections N] \
         [--seed N] [--requests N] [--connect ADDR] \
         [--out FILE] [--snapshot FILE] [--list] \
         | --idle N [--probes N] [--dwell-ms N] | --ping ADDR | --client ADDR"
    );
    2
}

/// `--idle N`: the mostly-idle connection-scaling mode.
fn run_idle_mode(
    connections: usize,
    probes: usize,
    dwell: Duration,
    out: Option<String>,
    snapshot: Option<String>,
) -> i32 {
    let report = match run_idle(connections, probes, dwell) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("idle test could not run: {e}");
            return 2;
        }
    };
    print_idle_summary(&report);
    if let Some(file) = &out {
        if let Err(e) = std::fs::write(file, report.to_json()) {
            eprintln!("could not write {file}: {e}");
            return 2;
        }
        println!("  full report written to {file}");
    }
    if let Some(file) = &snapshot {
        if let Err(e) = std::fs::write(file, report.snapshot_json()) {
            eprintln!("could not write {file}: {e}");
            return 2;
        }
        println!("  snapshot written to {file}");
    }
    if report.passed() {
        println!("\nPASS: idle connections cost no threads and no wakeups");
        0
    } else {
        eprintln!("\nFAIL: {} violation(s)", report.violations.len());
        1
    }
}

fn print_idle_summary(report: &IdleReport) {
    println!(
        "=== idle scaling test — {} silent connections — {}",
        report.connections,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    match report.server_threads {
        Some(threads) => println!(
            "  server threads {} (bound 2 × {} cores = {}), {:.3} threads/kconn",
            threads,
            report.cores,
            2 * report.cores,
            report.threads_per_kconn().unwrap_or(0.0),
        ),
        None => println!("  server thread census unavailable on this platform"),
    }
    println!(
        "  spurious wakeups over dwell: {}, live at peak: {}",
        report.spurious_delta, report.live_reported
    );
    println!(
        "  probe latency p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs, mean {:.1} µs",
        report.timing.p50_latency_ns as f64 / 1e3,
        report.timing.p95_latency_ns as f64 / 1e3,
        report.timing.p99_latency_ns as f64 / 1e3,
        report.timing.mean_latency_ns / 1e3,
    );
    for v in &report.violations {
        println!("  VIOLATION: {v}");
    }
}

/// Readiness probe: succeed iff the server answers with the protocol
/// banner.
fn ping(addr: &str) -> i32 {
    match TcpStream::connect(addr) {
        Ok(stream) => {
            let mut reader = BufReader::new(stream);
            let mut banner = String::new();
            match reader.read_line(&mut banner) {
                Ok(_) if banner.starts_with("ok blowfish/1") => {
                    println!("{}", banner.trim_end());
                    0
                }
                _ => {
                    eprintln!("no blowfish/1 banner from {addr}: {banner}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("cannot connect {addr}: {e}");
            1
        }
    }
}

/// Minimal interactive client: banner to stderr, stdin lines to the
/// socket, reply lines to stdout (stdout therefore matches a scripted
/// stdin/stdout `blowfish-serve` session byte for byte).
fn client(addr: &str) -> i32 {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("cannot connect {addr}: {e}");
            return 1;
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot clone socket: {e}");
            return 1;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut banner = String::new();
    if reader.read_line(&mut banner).is_err() || !banner.starts_with("ok blowfish/1") {
        eprintln!("no blowfish/1 banner from {addr}: {banner}");
        return 1;
    }
    eprint!("{banner}");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut stdout = stdout.lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if writeln!(writer, "{line}").is_err() {
            break;
        }
        // Blank/comment lines are Silent server-side: no reply to read.
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "quit" {
            break;
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if write!(stdout, "{reply}")
                    .and_then(|_| stdout.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    0
}

fn print_summary(report: &LoadReport) {
    println!(
        "=== {} load test — {} connections, {} requests — {}",
        report.scenario,
        report.connections,
        report.requests,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    println!(
        "  {} replies ({} shed), throughput {:.0} req/s",
        report.replies, report.shed, report.timing.requests_per_sec
    );
    println!(
        "  latency p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs, mean {:.1} µs",
        report.timing.p50_latency_ns as f64 / 1e3,
        report.timing.p95_latency_ns as f64 / 1e3,
        report.timing.p99_latency_ns as f64 / 1e3,
        report.timing.mean_latency_ns / 1e3,
    );
    for t in &report.tenants {
        println!(
            "    {} fits {:>3}/{:<3} (floor {:>3}) spent {:>8.3}/{:<9.3} answers {:>3}+{:<3}",
            t.id,
            t.fits_admitted,
            t.fits_requested,
            t.expected_admitted,
            t.spent_reported,
            t.budget,
            t.answers_ok,
            t.answers_raced,
        );
    }
    for v in &report.violations {
        println!("  VIOLATION: {v}");
    }
}
