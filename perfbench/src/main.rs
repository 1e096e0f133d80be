//! `perfbench`: the end-to-end serving benchmark of `blowfish-serve`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload answer-hot --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     compare perfbench/out/result-A.json perfbench/out/result-B.json
//! ```
//!
//! Run from the repository root. The benchmark builds the release server,
//! then (`--trace 0`) serves the workload's rated phase, its `max_rps`
//! ladder and its probe servers over loopback TCP, checking every reply,
//! and prints the end-to-end metrics; or (`--trace 1`) serves the rated phase once more
//! untraced and replays the same stream in-process with spans, printing
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod env;
mod replay;
mod rng;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use client::{Checker, PhaseOutcome, Server};
use stats::{max_rps, mean, mean_of_medians, median, percentile, Step};
use workload::{Kind, Profile, Req, Workload};

/// End-to-end metrics (`--trace 0`) that the result line carries, as listed
/// in `BENCHMARK.json`. A `--trace 0` run prints every end-to-end metric;
/// the rated-rate latency percentiles, `max_rps` and `fail_frac` are left
/// off the result line because on a shared 2-vCPU virtual machine
/// hypervisor stalls move them by more than any bound a regression gate can
/// use (see `perfbench/README.md`), and `fail_frac` is 0 in every correct
/// run. `fit_service_ms` is the fit time the result line carries: a fit's
/// round trip on an otherwise idle server over that of a no-op, which
/// leaves out the loopback and wake-up cost that the machine's load moves.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_service_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("server_rss_mb", "MB"),
    ("answer_rmse", "counts"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.residual_p50_us.fit", "us"),
    ("net.residual_p50_us.answer", "us"),
    ("net.cpu_outside_handle_frac", "fraction"),
    ("net.partial_writes_resumed", "count"),
    ("net.spurious_wakeups", "count"),
    ("net.shed", "count"),
    ("wire.decode_us_p50.fit", "us"),
    ("wire.decode_us_p50.answer", "us"),
    ("wire.decode_us_p50.onboard", "us"),
    ("wire.encode_us_p50.fit", "us"),
    ("wire.encode_us_p50.answer", "us"),
    ("wire.encode_us_p50.onboard", "us"),
    ("wire.reply_bytes_mean", "bytes"),
    ("service.handle_us_p50.fit", "us"),
    ("service.handle_us_p50.answer", "us"),
    ("service.handle_us_p50.onboard", "us"),
    ("service.handle_us_p99.fit", "us"),
    ("service.handle_us_p99.answer", "us"),
    ("service.handle_us_p99.onboard", "us"),
    ("plan.lookup_us_p50", "us"),
    ("plan.build_ms_p50", "ms"),
    ("plan.build_ms_p99", "ms"),
    ("plan.builds", "count"),
    ("plan.hit_ratio", "fraction"),
    ("accounting.charge_us_p50", "us"),
    ("accounting.charge_us_p99", "us"),
    ("accounting.admit_ratio", "fraction"),
    ("accounting.wal_bytes_per_charge", "bytes"),
    ("accounting.snapshots", "count"),
    ("strategies.fit_us_p50", "us"),
    ("strategies.fit_us_p99", "us"),
    ("strategies.fit_ns_per_cell", "ns"),
    ("strategies.answer_us_p50", "us"),
    ("strategies.answer_ns_per_query", "ns"),
    ("linalg.solves", "count"),
    ("linalg.cg_iters", "count"),
    ("linalg.factorizations", "count"),
    ("linalg.cg_fallbacks", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// A measured closed-form utility must stay within this factor of theory.
const UTILITY_BAND: f64 = 1.5;

struct Args {
    workload: &'static Profile,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::profile(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: perfbench compare RESULT_A.json RESULT_B.json");
            std::process::exit(2);
        };
        if let Err(e) = env::compare(Path::new(a), Path::new(b)) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload answer-hot|fit-durable|policy-churn \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    }
}

/// Where the benchmark reads and writes: the repository root (the working
/// directory), its output directory, and the server binary.
struct Paths {
    out: PathBuf,
    server: PathBuf,
}

fn build_server() -> Result<Paths, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("perfbench/Cargo.toml").is_file()
        || !root.join("src/bin/blowfish_serve.rs").is_file()
    {
        return Err("run from the repository root (the blowfish-serve sources are missing)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "blowfish-serve",
        ])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building blowfish-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), |t| root.join(t));
    let server = target.join("release/blowfish-serve");
    let out = root.join("perfbench/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Paths { out, server })
}

/// Timing of one run: the rated phase takes `RATED_SHARE` of `--seconds`,
/// and each ladder step an equal part of the rest, but no more requests
/// than the rated phase, so that fast steps are shorter rather than the
/// generated stream longer.
struct Plan {
    rated_n: usize,
    step_s: f64,
}

impl Plan {
    fn new(p: &Profile, seconds: u64) -> Plan {
        let secs = seconds as f64;
        Plan {
            rated_n: (p.rated_rps * secs * workload::RATED_SHARE).ceil() as usize,
            step_s: secs * (1.0 - workload::RATED_SHARE) / workload::MAX_STEPS as f64,
        }
    }
}

/// One server's life: spawn, set up, one open-loop phase, final stats.
struct Served {
    setup_s: f64,
    outcome: PhaseOutcome,
    cpu_s: f64,
    rss_mb: f64,
    violations: Vec<String>,
    attempted: usize,
    sq_err: f64,
    ranges: usize,
    utility: Option<(f64, usize)>,
    counters: BTreeMap<String, u64>,
}

/// Starts a fresh server (with its own state directory when the workload is
/// durable) and runs the set-up: `(server, checker, setup_s)`.
fn start<'w>(
    w: &'w Workload,
    paths: &Paths,
    tag: &str,
) -> Result<(Server, Checker<'w>, f64), String> {
    let state_dir = w.profile.durable.then(|| {
        paths
            .out
            .join(format!("state-{}-{tag}", std::process::id()))
    });
    let log = paths.out.join(format!("server-{}.log", w.profile.name));
    let mut server = Server::start(&paths.server, state_dir, &log)?;
    let mut checker = Checker::new(w);
    let setup_s = client::run_setup(&mut server, &mut checker, &w.setup)?;
    Ok((server, checker, setup_s))
}

/// Serves `n` requests of the stream at the `due` offsets on a fresh server;
/// `drain` bounds how late the generator may run and how long replies are
/// awaited after the last send.
fn serve(
    w: &Workload,
    paths: &Paths,
    n: usize,
    due: &[u64],
    tag: &str,
    drain: Duration,
) -> Result<Served, String> {
    let (mut server, mut checker, setup_s) = start(w, paths, tag)?;
    let pid = server.pid();
    let cpu0 = client::server_cpu_s(pid)?;
    let outcome = client::run_phase(
        &mut server,
        &mut checker,
        &w.stream[..n],
        &due[..n],
        drain,
        drain,
    )?;
    let cpu_s = client::server_cpu_s(pid)? - cpu0;
    let rss_mb = client::server_hwm_mb(pid)?;
    let mut violations = std::mem::take(&mut checker.failures);
    let mut counters = BTreeMap::new();
    if !outcome.aborted && outcome.missing == 0 {
        let (stats, net, problems) = client::final_stats(&mut server, &checker)?;
        violations.extend(problems);
        for (k, v) in &stats.counters {
            if let Ok(v) = v.parse() {
                counters.insert(format!("stats.{k}"), v);
            }
        }
        counters.extend(net.into_iter().map(|(k, v)| (format!("net.{k}"), v)));
    }
    server.stop()?;
    Ok(Served {
        setup_s,
        cpu_s,
        rss_mb,
        violations,
        attempted: w.setup.len() + outcome.sent,
        sq_err: checker.sq_err,
        ranges: checker.ranges,
        utility: checker.utility_ratio(),
        counters,
        outcome,
    })
}

/// Servers that serve only the set-up and the probe, besides the one of
/// every phase. They run in three equal groups — before the rated phase,
/// after it, and after the ladder — so that they sample the whole run, not
/// one stretch of a shared machine's load. `setup_s` is the least set-up
/// time of all servers of a run; `fit_service_ms` comes from the probes.
const PROBE_SERVERS: usize = 30;

/// What the probe servers of a run saw.
#[derive(Default)]
struct Probes {
    setups: Vec<f64>,
    /// By tenant, each probe fit's round trip minus that of the no-op
    /// `hello` after it, ms.
    fit_ms: BTreeMap<usize, Vec<f64>>,
    attempted: usize,
    wrong: usize,
    violations: Vec<String>,
}

impl Probes {
    /// Runs one group of probe servers. Each starts, runs the set-up, then
    /// the probe fits one at a time, reconciles its final `stats` and stops.
    fn run_group(&mut self, w: &Workload, paths: &Paths) -> Result<(), String> {
        for _ in 0..PROBE_SERVERS / 3 {
            let tag = format!("probe{}", self.setups.len());
            let (mut server, mut checker, setup_s) = start(w, paths, &tag)?;
            let fit_ns = client::run_closed(&mut server, &mut checker, &w.probe)?;
            let (_, _, problems) = client::final_stats(&mut server, &checker)?;
            server.stop()?;
            self.setups.push(setup_s);
            self.attempted += w.setup.len() + w.probe.len();
            self.wrong += checker.failures.len();
            self.violations.extend(checker.failures);
            self.violations.extend(problems);
            for (req, &(fit, hello)) in w.probe.iter().zip(&fit_ns) {
                self.fit_ms
                    .entry(req.tenant)
                    .or_default()
                    .push((fit as f64 - hello as f64) / 1e6);
            }
        }
        Ok(())
    }
}

/// A ladder step's `drain`: an overloaded step is given up soon, since it
/// only has to fail.
fn drain(p: &Profile) -> Duration {
    Duration::from_secs_f64((4.0 * p.limit_ms / 1e3).max(1.0))
}

/// The rated phase's `drain`: a reply that comes late in a slow minute of a
/// shared machine is late, not missing, so the rated phase waits for it.
const RATED_DRAIN: Duration = Duration::from_secs(10);

fn latencies_ms(out: &PhaseOutcome) -> Vec<f64> {
    out.latency_ns
        .iter()
        .flatten()
        .map(|&ns| ns as f64 / 1e6)
        .collect()
}

/// Whether queueing grew across a step: the median latency of its last
/// quarter exceeds that of its first quarter by more than half the limit.
fn backlog_grew(out: &PhaseOutcome, limit_ms: f64) -> bool {
    let lat = latencies_ms(out);
    let q = lat.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&lat[..q]).unwrap_or(0.0);
    let last = median(&lat[lat.len() - q..]).unwrap_or(0.0);
    last - first > limit_ms / 2.0
}

struct Report {
    args_line: String,
    trace: bool,
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    info: Vec<(String, String)>,
    violations: Vec<String>,
    result_file: PathBuf,
}

impl Report {
    fn print(&self) {
        println!("perfbench {}", self.args_line);
        for (k, v) in &self.info {
            println!("  {k:<34} {v}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
        for v in self.violations.iter().take(10) {
            println!("  VIOLATION {v}");
        }
        if self.violations.len() > 10 {
            println!("  ... {} violations in all", self.violations.len());
        }
        println!("  result file: {}", self.result_file.display());
        // The result line carries the metrics BENCHMARK.json lists; a
        // failing run records none.
        let listed = if self.trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = if self.correct {
            self.metrics
                .iter()
                .filter(|(name, _, _)| listed.iter().any(|(n, _)| n == name))
                .map(|(name, value, unit)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        } else {
            Vec::new()
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }

    fn write(&self, env: &BTreeMap<&'static str, String>, args: &Args) -> Result<(), String> {
        use blowfish_bench::report::snapshot::JsonValue as J;
        let str_map =
            |m: Vec<(String, String)>| J::Obj(m.into_iter().map(|(k, v)| (k, J::Str(v))).collect());
        let doc = J::Obj(vec![
            ("workload".into(), J::Str(args.workload.name.into())),
            ("seed".into(), J::Num(args.seed as f64)),
            ("seconds".into(), J::Num(args.seconds as f64)),
            ("trace".into(), J::Num(f64::from(u8::from(args.trace)))),
            (
                "env".into(),
                str_map(
                    env.iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            ("correct".into(), J::Bool(self.correct)),
            ("attempted".into(), J::Num(self.attempted as f64)),
            ("failed".into(), J::Num(self.failed as f64)),
            (
                "metrics".into(),
                J::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v, u)| {
                            (
                                n.to_string(),
                                J::Obj(vec![
                                    ("value".into(), J::Num(*v)),
                                    ("unit".into(), J::Str(u.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("info".into(), str_map(self.info.clone())),
            (
                "violations".into(),
                J::Arr(self.violations.iter().map(|v| J::Str(v.clone())).collect()),
            ),
        ]);
        std::fs::write(&self.result_file, doc.to_pretty()).map_err(|e| e.to_string())
    }
}

fn p(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Most windows a phase's p99 is the median over (see `windowed_p99`).
const WINDOWS: usize = 12;

fn p99(in_order: &[f64]) -> f64 {
    stats::windowed_p99(in_order, WINDOWS).unwrap_or(0.0)
}

fn run(args: &Args) -> Result<Report, String> {
    let paths = build_server()?;
    let profile = args.workload;
    let plan = Plan::new(profile, args.seconds);
    let w = workload::generate(profile, args.seed, plan.rated_n);
    let env = env::stamp(&paths.out);
    let mut info = vec![
        (
            "stream_digest".to_string(),
            format!("{:016x}", workload::stream_digest(&w)),
        ),
        (
            "seeds".to_string(),
            format!(
                "default={} held_out={}",
                workload::DEFAULT_SEED,
                workload::HELD_OUT_SEED
            ),
        ),
        ("rated_rps".to_string(), format!("{}", profile.rated_rps)),
        ("limit_p99_ms".to_string(), format!("{}", profile.limit_ms)),
    ];
    info.extend(env.iter().map(|(k, v)| (format!("env.{k}"), v.clone())));
    let rated_due = workload::arrivals(args.seed, 0, profile.rated_rps, plan.rated_n);
    let mut probes = Probes::default();
    if !args.trace {
        probes.run_group(&w, &paths)?;
    }
    // The rated phase. A phase whose generator ran later than the latency
    // limit at p99 measured the generator, not the server: it is invalid
    // and is run once more before the run gives up.
    let late_bound_ns = profile.limit_ms * 1e6;
    let mut rated = None;
    for attempt in 0..2 {
        let served = serve(
            &w,
            &paths,
            plan.rated_n,
            &rated_due,
            &format!("rated{attempt}"),
            RATED_DRAIN,
        )?;
        let late_p99 = p99(&served
            .outcome
            .late_ns
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>());
        if late_p99 <= late_bound_ns {
            rated = Some(served);
            break;
        }
        eprintln!(
            "perfbench: rated phase invalid: generator p99 lateness {:.0} us > bound {:.0} us",
            late_p99 / 1e3,
            late_bound_ns / 1e3
        );
    }
    let rated = rated.ok_or("the generator fell behind its bound twice; run invalid")?;
    let result_file = paths.out.join(format!(
        "result-{}-s{}-t{}.json",
        profile.name,
        args.seed,
        u8::from(args.trace)
    ));
    let mut violations = rated.violations.clone();
    if rated.outcome.missing > 0 || rated.outcome.aborted {
        violations.push(format!(
            "rated phase: {} requests without a reply",
            rated.outcome.missing
        ));
    }
    if let Some((ratio, n)) = rated.utility {
        info.push((
            "utility_mse_over_theory".into(),
            format!("{ratio:.4} over {n} ranges"),
        ));
        if !(1.0 / UTILITY_BAND..=UTILITY_BAND).contains(&ratio) {
            violations.push(format!(
                "closed-form tenants: measured MSE / theory = {ratio:.3}, outside [1/{UTILITY_BAND}, {UTILITY_BAND}]"
            ));
        }
    }
    let report = if args.trace {
        traced(
            args,
            &w,
            &paths,
            &plan,
            rated,
            violations,
            info,
            result_file,
        )?
    } else {
        untraced(
            args,
            &w,
            &paths,
            &plan,
            rated,
            probes,
            violations,
            info,
            result_file,
        )?
    };
    report.write(&env, args)?;
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    w: &Workload,
    paths: &Paths,
    plan: &Plan,
    rated: Served,
    mut probes: Probes,
    mut violations: Vec<String>,
    mut info: Vec<(String, String)>,
    result_file: PathBuf,
) -> Result<Report, String> {
    let profile = w.profile;
    let reqs = &w.stream[..plan.rated_n];
    let out = &rated.outcome;
    let mut setups = vec![rated.setup_s];
    let mut attempted = rated.attempted;
    let mut failed = out.wrong + out.missing;
    probes.run_group(w, paths)?;
    let all = latencies_ms(out);
    let rated_step = Step {
        rate: profile.rated_rps,
        p99_ms: p99(&all),
        ok: out.wrong + out.missing == 0
            && !out.aborted
            && p99(&all) <= profile.limit_ms
            && !backlog_grew(out, profile.limit_ms),
    };
    let mut error = None;
    let mut probed = 0;
    let steps = stats::ladder_search(workload::LADDER, |m| {
        if m == 1.0 {
            return Some(rated_step.clone());
        }
        if error.is_some() || probed >= workload::MAX_STEPS {
            return None;
        }
        probed += 1;
        let rate = profile.rated_rps * m;
        let n = ((rate * plan.step_s).ceil() as usize).min(w.stream.len());
        let tag = workload::LADDER.iter().position(|&x| x == m).unwrap_or(0) as u64 + 1;
        let due = workload::arrivals(args.seed, tag, rate, n);
        match serve(w, paths, n, &due, &format!("step{tag}"), drain(profile)) {
            Ok(s) => {
                setups.push(s.setup_s);
                attempted += s.attempted;
                failed += s.outcome.wrong;
                // A wrong reply is wrong at any load; missing replies of an
                // overloaded step only fail the step.
                violations.extend(s.violations);
                // An unanswered request waited at least until the step
                // ended; count it at the longest wait the step could see.
                let longest_ms = (n as f64 / rate + drain(profile).as_secs_f64()) * 1e3;
                let lat: Vec<f64> = s
                    .outcome
                    .latency_ns
                    .iter()
                    .map(|l| l.map_or(longest_ms, |ns| ns as f64 / 1e6))
                    .chain(std::iter::repeat_n(longest_ms, n - s.outcome.sent))
                    .collect();
                let p99 = p99(&lat);
                let ok = s.outcome.wrong == 0
                    && s.outcome.missing == 0
                    && !s.outcome.aborted
                    && p99 <= profile.limit_ms
                    && !backlog_grew(&s.outcome, profile.limit_ms);
                info.push((
                    format!("step.{m}"),
                    format!("rate={rate:.0} p99_ms={p99:.3} ok={ok}"),
                ));
                Some(Step {
                    rate,
                    p99_ms: p99,
                    ok,
                })
            }
            Err(e) => {
                error = Some(e);
                None
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    probes.run_group(w, paths)?;
    setups.extend(&probes.setups);
    attempted += probes.attempted;
    failed += probes.wrong;
    violations.extend(probes.violations);
    let service = probes.fit_ms;
    let max = max_rps(&steps, profile.limit_ms);
    let kind = |k: Kind| client::kind_latencies(reqs, out, k);
    let (fits, answers, onboards) = (kind(Kind::Fit), kind(Kind::Answer), kind(Kind::Onboard));
    let served = out.latency_ns.iter().flatten().count().max(1);
    let mut metrics = vec![
        // The least disturbed set-up of the run: on a shared machine a
        // set-up runs slower than its work, never faster.
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        ("max_rps", max, "req/s"),
        ("fit_p50_ms", p(&fits, 50.0), "ms"),
        ("fit_p99_ms", p99(&fits), "ms"),
        (
            "fit_service_ms",
            mean_of_medians(service.values()).unwrap_or(0.0),
            "ms",
        ),
        ("answer_p50_ms", p(&answers, 50.0), "ms"),
        ("answer_p99_ms", p99(&answers), "ms"),
    ];
    // Only `policy-churn` onboards tenants after set-up.
    if !onboards.is_empty() {
        metrics.push(("onboard_p50_ms", p(&onboards, 50.0), "ms"));
        metrics.push(("onboard_p99_ms", p99(&onboards), "ms"));
    }
    metrics.extend([
        ("cpu_us_per_req", rated.cpu_s * 1e6 / served as f64, "us"),
        ("server_rss_mb", rated.rss_mb, "MB"),
        (
            "answer_rmse",
            (rated.sq_err / rated.ranges.max(1) as f64).sqrt(),
            "counts",
        ),
        (
            "fail_frac",
            (out.wrong + out.missing) as f64 / out.sent.max(1) as f64,
            "fraction",
        ),
    ]);
    let per = (all.len() / WINDOWS).max(1);
    let windows: Vec<String> = all
        .chunks(per)
        .map(|c| format!("{:.2}", p(c, 99.0)))
        .collect();
    info.push(("rated.window_p99_ms".into(), windows.join(" ")));
    info.push((
        "plain_p99_ms".into(),
        format!(
            "fit={:.3} answer={:.3} onboard={:.3}",
            p(&fits, 99.0),
            p(&answers, 99.0),
            p(&onboards, 99.0)
        ),
    ));
    info.push((
        "samples".into(),
        format!(
            "fit={} answer={} onboard={} fit_service={}",
            fits.len(),
            answers.len(),
            onboards.len(),
            service.values().map(Vec::len).sum::<usize>()
        ),
    ));
    info.push((
        "setup_ms_each".into(),
        setups
            .iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    Ok(Report {
        args_line: args_line(args),
        trace: false,
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        info,
        violations,
        result_file,
    })
}

fn args_line(args: &Args) -> String {
    format!(
        "--workload {} --seed {} --seconds {} --trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    w: &Workload,
    paths: &Paths,
    plan: &Plan,
    rated: Served,
    mut violations: Vec<String>,
    mut info: Vec<(String, String)>,
    result_file: PathBuf,
) -> Result<Report, String> {
    let profile = w.profile;
    let stream = &w.stream[..plan.rated_n];
    let out = &rated.outcome;
    let reqs: Vec<&Req> = w.setup.iter().chain(stream).collect();
    let setup_len = w.setup.len();
    let state = |pass: &str| {
        profile.durable.then(|| {
            paths
                .out
                .join(format!("trace-state-{}-{pass}", std::process::id()))
        })
    };
    // Both wire passes are checked reply by reply, as the server is.
    let mut run_wire = |pass: &str, traced: bool| -> Result<replay::WirePass, String> {
        let dir = state(pass);
        let mut checker = Checker::new(w);
        let result = replay::wire_pass(&reqs, setup_len, dir.as_deref(), traced, &mut checker);
        if let Some(d) = &dir {
            std::fs::remove_dir_all(d).map_err(|e| e.to_string())?;
        }
        violations.extend(
            checker
                .failures
                .into_iter()
                .map(|f| format!("in-process {pass}: {f}")),
        );
        result
    };
    let off = run_wire("off", false)?;
    let wire = run_wire("on", true)?;
    let mirror = {
        let dir = state("mirror");
        let result = replay::mirror_pass(&reqs, setup_len, dir.as_deref());
        if let Some(d) = &dir {
            std::fs::remove_dir_all(d).map_err(|e| e.to_string())?;
        }
        result?
    };
    let stem = format!("{}-s{}", profile.name, args.seed);
    wire.tracer
        .dump(&paths.out.join(format!("spans-{stem}-wire.tsv")))
        .map_err(|e| e.to_string())?;
    mirror
        .tracer
        .dump(&paths.out.join(format!("spans-{stem}-mirror.tsv")))
        .map_err(|e| e.to_string())?;

    let ws = &wire.tracer.spans;
    let ms = &mirror.tracer.spans;
    let us = |spans, name, kind| replay::span_us(spans, &reqs, setup_len, name, kind);
    let kinds = [Kind::Fit, Kind::Answer, Kind::Onboard];
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64| {
        let &(name, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed metric");
        metrics.push((name, value, unit));
    };
    // net: client-observed latency and server CPU minus the in-process path.
    for (k, name) in [
        (Kind::Fit, "net.residual_p50_us.fit"),
        (Kind::Answer, "net.residual_p50_us.answer"),
    ] {
        let client_us = p(&client::kind_latencies(stream, out, k), 50.0) * 1e3;
        put(name, client_us - p(&us(ws, "request", Some(k)), 50.0));
    }
    let served = out.latency_ns.iter().flatten().count().max(1) as f64;
    let cpu_per_req_us = rated.cpu_s * 1e6 / served;
    // CPU against CPU: the untraced in-process pass's thread CPU time per
    // request (I/O waits such as fsync excluded, as in the server's count).
    let path_per_req_us = off.stream_cpu_s * 1e6 / off.replies.max(1) as f64;
    put(
        "net.cpu_outside_handle_frac",
        1.0 - path_per_req_us / cpu_per_req_us.max(1e-9),
    );
    let counter = |k: &str| rated.counters.get(k).copied().unwrap_or(0) as f64;
    put(
        "net.partial_writes_resumed",
        counter("net.partial_writes_resumed"),
    );
    put("net.spurious_wakeups", counter("net.spurious_wakeups"));
    put("net.shed", counter("net.shed"));
    for (metric, span, q) in [
        ("wire.decode_us_p50", "wire.decode", 50.0),
        ("wire.encode_us_p50", "wire.encode", 50.0),
        ("service.handle_us_p50", "service.serve", 50.0),
        ("service.handle_us_p99", "service.serve", 99.0),
    ] {
        for k in kinds {
            // Only `policy-churn` onboards tenants after set-up, so the
            // onboarding figures take in set-up's tenant lines as well.
            let from = if k == Kind::Onboard { 0 } else { setup_len };
            let samples = replay::span_us(ws, &reqs, from, span, Some(k));
            put(&format!("{metric}.{}", k.name()), p(&samples, q));
        }
    }
    put(
        "wire.reply_bytes_mean",
        wire.reply_bytes as f64 / wire.replies.max(1) as f64,
    );
    // plan: warm lookups in the stream; builds over setup and stream.
    let cold: Vec<f64> = mirror
        .cold_spans
        .iter()
        .map(|&i| ms[i].duration_ns() as f64 / 1e6)
        .collect();
    let warm: Vec<f64> = ms
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.name == "plan" && s.request >= setup_len && !mirror.cold_spans.contains(i)
        })
        .map(|(_, s)| s.duration_ns() as f64 / 1e3)
        .collect();
    put("plan.lookup_us_p50", p(&warm, 50.0));
    put("plan.build_ms_p50", p(&cold, 50.0));
    put("plan.build_ms_p99", p(&cold, 99.0));
    put("plan.builds", mirror.cold_lookups as f64);
    let lookups = (mirror.warm_lookups + mirror.cold_lookups).max(1) as f64;
    put("plan.hit_ratio", mirror.warm_lookups as f64 / lookups);
    let charge = us(ms, "accounting.charge", None);
    put("accounting.charge_us_p50", p(&charge, 50.0));
    put("accounting.charge_us_p99", p(&charge, 99.0));
    put(
        "accounting.admit_ratio",
        mirror.admitted as f64 / mirror.charges.max(1) as f64,
    );
    let wal: Vec<f64> = mirror.wal_bytes.iter().map(|&b| b as f64).collect();
    put("accounting.wal_bytes_per_charge", mean(&wal).unwrap_or(0.0));
    put("accounting.snapshots", counter("stats.last_snapshot"));
    let fits = us(ms, "strategies.fit", None);
    put("strategies.fit_us_p50", p(&fits, 50.0));
    put("strategies.fit_us_p99", p(&fits, 99.0));
    let total = |spans: &[trace::Span], name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    put(
        "strategies.fit_ns_per_cell",
        total(ms, "strategies.fit") / mirror.fitted_cells.max(1) as f64,
    );
    put(
        "strategies.answer_us_p50",
        p(&us(ms, "strategies.answer", None), 50.0),
    );
    put(
        "strategies.answer_ns_per_query",
        total(ms, "strategies.answer") / mirror.answered_queries.max(1) as f64,
    );
    put("linalg.solves", counter("stats.solves"));
    put("linalg.cg_iters", counter("stats.cg_iters"));
    put("linalg.factorizations", counter("stats.factored"));
    put("linalg.cg_fallbacks", counter("stats.cg_fallback"));
    let late: Vec<f64> = out.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
    put("gen.late_p99_us", p99(&late));
    put(
        "trace.overhead_frac",
        wire.stream_s / off.stream_s.max(1e-9) - 1.0,
    );

    for (name, ns) in replay::self_time_by_name(ms) {
        info.push((
            format!("mirror.self_ms.{name}"),
            format!("{:.3}", ns as f64 / 1e6),
        ));
    }
    for (name, ns) in replay::self_time_by_name(ws) {
        info.push((
            format!("wire.self_ms.{name}"),
            format!("{:.3}", ns as f64 / 1e6),
        ));
    }
    info.push(("plan.total_builds".into(), mirror.total_builds.to_string()));
    Ok(Report {
        args_line: args_line(args),
        trace: true,
        correct: violations.is_empty(),
        attempted: rated.attempted,
        failed: out.wrong + out.missing,
        metrics,
        info,
        violations,
        result_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_bench::report::snapshot::JsonValue;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Arr(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let profiles: Vec<&str> = workload::PROFILES.iter().map(|p| p.name).collect();
        assert_eq!(names, profiles);
    }
}
