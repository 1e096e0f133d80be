//! `blowfish_simulate` — the trace-driven workload simulator.
//!
//! Generates seeded multi-tenant scenario traces, replays them through
//! the engine's `Service` layer, scores ledger exactness, admission
//! behavior, closed-form utility, and throughput, and emits
//! machine-readable `SimReport` JSON. Any gate violation makes the
//! process exit nonzero — which is how the CI `simulate-smoke` step
//! fails a build that breaks the service layer's accounting.
//!
//! ```text
//! blowfish_simulate [--quick] [--list] [--scenario NAME]
//!                   [--seed N] [--requests N] [--out DIR]
//! ```
//!
//! * `--quick` — the four canned smoke scenarios (also the default when
//!   `BLOWFISH_BENCH_QUICK` is set); without it the full catalog runs;
//! * `--scenario NAME` — one catalog scenario (repeatable);
//! * `--seed N` / `--requests N` — override those axes on the selected
//!   scenarios (reports remain deterministic per seed);
//! * `--out DIR` — write `{DIR}/{scenario}.json` full reports (timing
//!   included) plus `{DIR}/{scenario}.det.json` deterministic sections
//!   (byte-identical across runs of one seed — the diffable artifact);
//! * `--list` — print the catalog and exit.
//!
//! ## Crash-recovery mode
//!
//! ```text
//! blowfish_simulate --scenario NAME --state-dir DIR --kill-at <N|seeded>
//!                   [--fsync per-charge|batched[:n]|off]
//! ```
//!
//! Replays each selected scenario twice: once uninterrupted in memory,
//! once against a durable ledger under `--state-dir` with the replay
//! cut dead at request index N (`seeded` derives the cut point from the
//! scenario seed) and recovered into a second service that finishes the
//! trace. Under every `--fsync` policy (default `per-charge`) the
//! recovered run's deterministic report must be **byte-identical** to
//! the uninterrupted one; any divergence (or gate violation in either
//! run) exits nonzero. This is the CI `crash-recovery` gate.

use blowfish_bench::simulate::{run, run_with_recovery, Scenario, SimReport};
use blowfish_bench::{quick_mode, sci};
use blowfish_core::FsyncPolicy;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = quick_mode();
    let mut list = false;
    let mut names: Vec<String> = Vec::new();
    let mut seed: Option<u64> = None;
    let mut requests: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut kill_at: Option<String> = None;
    let mut fsync = FsyncPolicy::PerCharge;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--state-dir" => match args.get(i + 1) {
                Some(dir) => {
                    state_dir = Some(dir.clone());
                    i += 1;
                }
                None => return usage("--state-dir needs a directory"),
            },
            "--kill-at" => match args.get(i + 1) {
                Some(v) => {
                    kill_at = Some(v.clone());
                    i += 1;
                }
                None => return usage("--kill-at needs an index or `seeded`"),
            },
            "--fsync" => match args.get(i + 1).map(|t| FsyncPolicy::parse(t)) {
                Some(Ok(policy)) => {
                    fsync = policy;
                    i += 1;
                }
                _ => return usage("--fsync needs per-charge, batched[:n], or off"),
            },
            "--scenario" => match args.get(i + 1) {
                Some(name) => {
                    names.push(name.clone());
                    i += 1;
                }
                None => return usage("--scenario needs a name"),
            },
            "--seed" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(v) => {
                    seed = Some(v);
                    i += 1;
                }
                None => return usage("--seed needs an integer"),
            },
            "--requests" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(v) => {
                    requests = Some(v);
                    i += 1;
                }
                None => return usage("--requests needs an integer"),
            },
            "--out" => match args.get(i + 1) {
                Some(dir) => {
                    out = Some(dir.clone());
                    i += 1;
                }
                None => return usage("--out needs a directory"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if list {
        println!("available scenarios:");
        for s in Scenario::catalog() {
            println!("  {:<18} {}", s.name, s.description);
        }
        return 0;
    }

    let mut scenarios: Vec<Scenario> = if names.is_empty() {
        if quick {
            Scenario::quick_catalog()
        } else {
            Scenario::catalog()
        }
    } else {
        let mut picked = Vec::new();
        for name in &names {
            match Scenario::find(name) {
                Some(s) => picked.push(s),
                None => {
                    eprintln!("unknown scenario {name} (try --list)");
                    return 2;
                }
            }
        }
        picked
    };
    for s in &mut scenarios {
        if let Some(seed) = seed {
            s.seed = seed;
        }
        if let Some(requests) = requests {
            s.requests = requests;
        }
    }

    match (&state_dir, &kill_at) {
        (Some(_), None) | (None, Some(_)) => {
            return usage("crash-recovery mode needs both --state-dir and --kill-at")
        }
        _ => {}
    }

    let mut failed = false;
    for scenario in &scenarios {
        let report = match run(scenario) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{}: simulation error: {e}", scenario.name);
                return 2;
            }
        };
        print_summary(&report);
        if let Some(dir) = &out {
            if let Err(e) = write_reports(dir, &report) {
                eprintln!("{}: could not write reports: {e}", scenario.name);
                return 2;
            }
        }
        failed |= !report.passed();

        if let (Some(state_dir), Some(kill_token)) = (&state_dir, &kill_at) {
            match check_recovery(
                scenario,
                &report,
                state_dir,
                kill_token,
                fsync,
                out.as_deref(),
            ) {
                Ok(ok) => failed |= !ok,
                Err(e) => {
                    eprintln!("{}: crash-recovery error: {e}", scenario.name);
                    return 2;
                }
            }
        }
    }
    if failed {
        eprintln!("\nFAIL: at least one scenario violated a gate");
        1
    } else {
        println!("\nall {} scenario(s) passed every gate", scenarios.len());
        0
    }
}

fn usage(problem: &str) -> i32 {
    eprintln!(
        "{problem}\nusage: blowfish_simulate [--quick] [--list] [--scenario NAME] \
         [--seed N] [--requests N] [--out DIR]\n\
         \x20      [--state-dir DIR --kill-at <N|seeded> [--fsync per-charge|batched[:n]|off]]"
    );
    2
}

/// Runs the kill/recover replay for one scenario and holds it against
/// the uninterrupted report: both must pass every gate, and the
/// deterministic sections must be byte-identical.
/// On divergence the recovered deterministic report (and the state
/// directory) are left on disk for artifact upload.
fn check_recovery(
    scenario: &Scenario,
    uninterrupted: &SimReport,
    state_dir: &str,
    kill_token: &str,
    fsync: FsyncPolicy,
    out: Option<&str>,
) -> Result<bool, blowfish_bench::BenchError> {
    let kill_at = match kill_token {
        // Seed-derived cut point: deterministic per scenario, lands
        // strictly inside the trace so both lives do real work.
        "seeded" => (scenario.seed as usize % scenario.requests.max(2).saturating_sub(1)) + 1,
        token => match token.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--kill-at must be an index or `seeded`, got {token}");
                return Ok(false);
            }
        },
    };
    let dir = std::path::Path::new(state_dir).join(&scenario.name);
    let _ = std::fs::remove_dir_all(&dir);
    let recovered = run_with_recovery(scenario, &dir, kill_at, fsync)?;
    println!(
        "  crash-recovery: killed at request {}/{} (fsync={fsync}): {} snapshot \
         tenants, {} WAL records replayed{}",
        recovered.kill_at,
        scenario.requests,
        recovered.recovery.snapshot_tenants,
        recovered.recovery.wal_records_replayed,
        if recovered.recovery.is_clean() {
            String::new()
        } else {
            format!(" ({} warnings)", recovered.recovery.warnings.len())
        },
    );
    for warning in &recovered.recovery.warnings {
        println!("    recovery warning: {warning}");
    }
    if !recovered.report.passed() {
        for v in &recovered.report.violations {
            println!("  RECOVERY VIOLATION: {v}");
        }
        return Ok(false);
    }
    if recovered.report.deterministic_json() != uninterrupted.deterministic_json() {
        println!(
            "  RECOVERY VIOLATION: recovered deterministic report diverged from the \
             uninterrupted replay"
        );
        if let Some(out) = out {
            let path =
                std::path::Path::new(out).join(format!("{}.recovered.det.json", scenario.name));
            let _ = std::fs::create_dir_all(out);
            let _ = std::fs::write(&path, recovered.report.deterministic_json());
            println!("  recovered report written to {}", path.display());
        }
        return Ok(false);
    }
    println!("  crash-recovery: deterministic report is byte-identical after recovery");
    // A clean pass leaves nothing to inspect.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(true)
}

fn print_summary(report: &SimReport) {
    let fits: usize = report.tenants.iter().map(|t| t.fits_requested).sum();
    let admitted: usize = report.tenants.iter().map(|t| t.fits_admitted).sum();
    let rejected: usize = report.tenants.iter().map(|t| t.fits_rejected).sum();
    let queries: usize = report.tenants.iter().map(|t| t.queries_answered).sum();
    println!(
        "\n=== {} (seed {}) — {}",
        report.scenario,
        report.seed,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    println!(
        "  {} requests over {} tenants: {admitted}/{fits} fits admitted \
         ({rejected} budget-rejected), {queries} queries answered",
        report.requests,
        report.tenants.len(),
    );
    println!(
        "  throughput {:.0} req/s, mean latency {:.1} µs, p99 {:.1} µs",
        report.timing.requests_per_sec,
        report.timing.mean_latency_ns / 1e3,
        report.timing.p99_latency_ns as f64 / 1e3,
    );
    for t in &report.tenants {
        let utility = match (t.measured_mse, t.expected_mse) {
            (Some(m), Some(e)) => {
                format!("mse {} vs expected {} ({:.2}x)", sci(m), sci(e), m / e)
            }
            (Some(m), None) => format!("mse {} (no closed form)", sci(m)),
            _ => "no queries answered".to_string(),
        };
        println!(
            "    {} [{:<13}] fits {:>3}/{:<3} spent {:>8.3}/{:<9.3} {utility}",
            t.id, t.policy, t.fits_admitted, t.fits_requested, t.spent, t.budget,
        );
    }
    for v in &report.violations {
        println!("  VIOLATION: {v}");
    }
}

fn write_reports(dir: &str, report: &SimReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let base = std::path::Path::new(dir);
    std::fs::write(
        base.join(format!("{}.json", report.scenario)),
        report.to_json(),
    )?;
    std::fs::write(
        base.join(format!("{}.det.json", report.scenario)),
        report.deterministic_json(),
    )?;
    println!(
        "  reports written to {}/{}.json (+ .det.json)",
        dir, report.scenario
    );
    Ok(())
}
