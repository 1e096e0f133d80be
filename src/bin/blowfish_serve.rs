//! `blowfish-serve` — the end-to-end server entry point: a
//! budget-metered multi-tenant [`Service`] speaking the versioned
//! newline-delimited `blowfish/1` wire protocol, over stdin/stdout by
//! default or over TCP with `--tcp`.
//!
//! One request per line in, one `ok …`/`err …` line out; `quit` (or EOF)
//! ends the session. Try it interactively:
//!
//! ```text
//! $ cargo run --release --bin blowfish-serve
//! tenant acme policy=line:16 eps=0.5 budget=2.0 data=uniform:3
//! ok tenant acme policy=G^1_16 cells=16
//! fit acme as=r1 seed=7 task=range1d
//! ok fit r1 charged=0.5 spent=0.5 remaining=1.5
//! answer acme from=r1 3..9
//! ok answer 1 21.35…
//! quit
//! ```
//!
//! or pipe a script: `blowfish-serve < requests.txt`. In TCP mode:
//!
//! ```text
//! $ blowfish-serve --tcp 127.0.0.1:7741 --max-conns 1024 --idle-timeout-secs 300 \
//!       --backlog 1024
//! ```
//!
//! TCP mode is Linux-only: an epoll reactor multiplexes all connections
//! over O(cores) event-loop threads, so thousands of mostly-idle
//! connections cost no threads. `--backlog` sizes the kernel listen
//! queue for mass connect bursts. Stdio mode runs everywhere.
//!
//! every connection is greeted with the `ok blowfish/1 ready …` banner
//! and gets its own connection-scoped codec (so `use <tenant>` defaults
//! are per client). Over-limit connections are shed with
//! `err server-busy`; SIGTERM-free graceful shutdown is driven by the
//! process exiting (the server drains on drop). The full command syntax
//! is documented in the `blowfish_engine::wire` module.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use blowfish_privacy::core::{FsyncPolicy, Ledger, LedgerDurability};
use blowfish_privacy::engine::{Codec, NetConfig, Service, TcpServer, WireReply};

struct Args {
    tcp: Option<String>,
    config: NetConfig,
    state_dir: Option<PathBuf>,
    durability: LedgerDurability,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        config: NetConfig::default(),
        state_dir: None,
        durability: LedgerDurability::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value("an address (host:port)")?),
            "--state-dir" => args.state_dir = Some(PathBuf::from(value("a directory")?)),
            "--fsync" => {
                let token = value("per-charge|batched[:n]|off")?;
                args.durability.fsync = FsyncPolicy::parse(&token).map_err(|_| {
                    format!("--fsync must be per-charge, batched[:n], or off, got {token}")
                })?
            }
            "--snapshot-every" => {
                args.durability.snapshot_every = value("a charge count")?
                    .parse()
                    .map_err(|_| "--snapshot-every needs an integer".to_string())?
            }
            "--max-conns" => {
                args.config.max_connections = value("a count")?
                    .parse()
                    .map_err(|_| "--max-conns needs an integer".to_string())?
            }
            "--idle-timeout-secs" => {
                args.config.idle_timeout = Duration::from_secs(
                    value("seconds")?
                        .parse()
                        .map_err(|_| "--idle-timeout-secs needs an integer".to_string())?,
                )
            }
            "--backlog" => {
                args.config.listen_backlog = value("a count")?
                    .parse()
                    .map_err(|_| "--backlog needs an integer".to_string())?
            }
            "--help" | "-h" => {
                println!(
                    "usage: blowfish-serve [--tcp ADDR] [--max-conns N] [--idle-timeout-secs S]\n\
                     \x20                     [--backlog N]\n\
                     \x20                     [--state-dir DIR] [--fsync per-charge|batched[:n]|off]\n\
                     \x20                     [--snapshot-every N]\n\
                     \n\
                     Without --tcp, serves the blowfish/1 protocol over stdin/stdout.\n\
                     With --tcp ADDR (e.g. 127.0.0.1:7741), serves concurrent TCP clients\n\
                     from epoll event loops (Linux only).\n\
                     With --state-dir DIR, the privacy ledger is durable: charges are\n\
                     write-ahead logged (and periodically snapshotted) under DIR, and a\n\
                     restarted server recovers every account bit-for-bit before serving."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("blowfish-serve: {e}");
            std::process::exit(2);
        }
    };
    let service = match &args.state_dir {
        Some(dir) => {
            let (ledger, report) = match Ledger::durable(dir, args.durability) {
                Ok(recovered) => recovered,
                Err(e) => {
                    eprintln!(
                        "blowfish-serve: cannot recover state from {}: {e}",
                        dir.display()
                    );
                    std::process::exit(2);
                }
            };
            eprintln!(
                "blowfish-serve: durable ledger at {} (fsync={}): recovered {} tenants \
                 (snapshot gen {:?}, {} WAL records replayed)",
                dir.display(),
                args.durability.fsync,
                ledger.tenant_count(),
                report.snapshot_generation,
                report.wal_records_replayed,
            );
            for warning in &report.warnings {
                eprintln!("blowfish-serve: recovery warning: {warning}");
            }
            Arc::new(Service::with_ledger(Arc::new(ledger)))
        }
        None => Arc::new(Service::new()),
    };
    match args.tcp {
        Some(addr) => serve_tcp(Arc::clone(&service), &addr, args.config),
        None => serve_stdio(&service),
    }
    // Sync the WAL before exiting, so a power loss after a clean stop
    // takes nothing under any policy. Every acked record is already in
    // the log, so a kill that skips this loses no acked charge.
    if let Err(e) = service.ledger().flush() {
        eprintln!("blowfish-serve: final WAL flush failed: {e}");
        std::process::exit(1);
    }
}

/// TCP mode: bind, report the bound address on stdout (so scripts using
/// port 0 can discover it), then park until stdin closes — the
/// conventional "run under a supervisor, stop via EOF/kill" lifecycle.
fn serve_tcp(service: Arc<Service>, addr: &str, config: NetConfig) {
    let mut server = match TcpServer::bind(service, addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("blowfish-serve: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    // Park until EOF on stdin; ignore any input content.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
    }
    eprintln!("blowfish-serve: draining connections");
    server.shutdown(Duration::from_secs(5));
}

/// stdin/stdout mode: one codec for the whole session (byte-compatible
/// with pre-TCP releases — the banner goes to stderr, never stdout).
fn serve_stdio(service: &Service) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut codec = Codec::new();
    eprintln!("{}", Codec::banner());
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        match codec.serve(service, &line) {
            WireReply::Reply(reply) => {
                if writeln!(out, "{reply}").and_then(|_| out.flush()).is_err() {
                    break;
                }
            }
            WireReply::Silent => {}
            WireReply::Quit => break,
        }
    }
}
