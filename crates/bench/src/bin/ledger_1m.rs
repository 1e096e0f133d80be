//! `ledger_1m` — the million-tenant ledger scale gate.
//!
//! Opens a ledger with 1M tenant accounts and drives 100k charges
//! through it, measuring what the sharded design promises:
//!
//! * **O(1) charge latency** — ns/charge at 1M tenants must stay within
//!   a small factor of ns/charge at 10k tenants (lock-striped hash
//!   segments have no per-tenant scan anywhere on the charge path);
//! * **bounded memory** — resident-set growth per opened account must
//!   stay under a fixed byte budget (no hidden per-tenant
//!   pre-allocation or quadratic index).
//!
//! Both bounds are asserted in-process (`--check`, the CI mode) and the
//! raw measurements are written as a slash-keyed snapshot (`--out`) so
//! `bench_gate` also holds them against the committed
//! `BENCH_service.json` baselines with its 3x rule.
//!
//! ```text
//! ledger_1m [--tenants N] [--charges N] [--out FILE] [--check]
//! ```

use std::time::Instant;

use blowfish_core::{Epsilon, Ledger};

/// O(1) assertion: charging among 1M accounts may cost at most this
/// factor over charging among 10k (hashing + striping noise, not
/// data-structure growth; cache effects at 1M keys cost well under 2x).
const O1_FACTOR: f64 = 4.0;

/// Memory assertion: bytes of RSS growth per opened account. An account
/// is an id string, an f64 pair and a counter inside a striped hash map
/// — comfortably under 400 B; 1024 B catches a per-tenant
/// pre-allocation regression while ignoring allocator slack.
const MAX_BYTES_PER_TENANT: f64 = 1024.0;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tenants: usize = 1_000_000;
    let mut charges: usize = 100_000;
    let mut out: Option<String> = None;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tenants" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(v) if v > 0 => {
                    tenants = v;
                    i += 1;
                }
                _ => return usage("--tenants needs a positive integer"),
            },
            "--charges" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(v) if v > 0 => {
                    charges = v;
                    i += 1;
                }
                _ => return usage("--charges needs a positive integer"),
            },
            "--out" => match args.get(i + 1) {
                Some(file) => {
                    out = Some(file.clone());
                    i += 1;
                }
                None => return usage("--out needs a file"),
            },
            "--check" => check = true,
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    // Small-population reference point for the O(1) comparison.
    let small_tenants = (tenants / 100).clamp(1, 10_000);
    let small = measure(small_tenants, charges);
    let large = measure(tenants, charges);
    let ratio = large.ns_per_charge / small.ns_per_charge.max(1.0);

    println!(
        "ledger_1m: {small_tenants} tenants: {:.0} ns/charge; {tenants} tenants: \
         {:.0} ns/charge ({ratio:.2}x), {:.0} ns/open, {:.1} MB RSS growth \
         ({:.0} B/tenant)",
        small.ns_per_charge,
        large.ns_per_charge,
        large.ns_per_open,
        large.rss_growth_bytes / (1024.0 * 1024.0),
        large.bytes_per_tenant,
    );

    if let Some(file) = &out {
        let json = format!(
            "{{\n  \"bench\": \"ledger_1m ({tenants} tenants, {charges} charges)\",\n  \
             \"results_ns\": {{\n    \
             \"ledger_1m/ns_per_charge_small\": {:.0},\n    \
             \"ledger_1m/ns_per_charge_1m\": {:.0},\n    \
             \"ledger_1m/ns_per_open_1m\": {:.0},\n    \
             \"ledger_1m/rss_bytes_per_tenant\": {:.0}\n  }}\n}}\n",
            small.ns_per_charge, large.ns_per_charge, large.ns_per_open, large.bytes_per_tenant,
        );
        if let Err(e) = std::fs::write(file, json) {
            eprintln!("ledger_1m: cannot write {file}: {e}");
            return 2;
        }
        println!("ledger_1m: snapshot written to {file}");
    }

    if check {
        let mut failed = false;
        if ratio > O1_FACTOR {
            failed = true;
            println!(
                "FAIL O(1): {tenants}-tenant charges cost {ratio:.2}x the \
                 {small_tenants}-tenant cost (allowed {O1_FACTOR}x)"
            );
        }
        // RSS is only a meaningful per-tenant signal at scale (allocator
        // slack dominates small populations), and unavailable off-Linux.
        if tenants >= 100_000 {
            match large.bytes_per_tenant {
                b if b < 0.0 => {
                    println!("note: RSS not measurable on this platform; memory bound not enforced")
                }
                b if b > MAX_BYTES_PER_TENANT => {
                    failed = true;
                    println!(
                        "FAIL memory: {b:.0} B of RSS per tenant \
                         (allowed {MAX_BYTES_PER_TENANT:.0})"
                    );
                }
                _ => {}
            }
        }
        if failed {
            return 1;
        }
        println!("ledger_1m: O(1) charge latency and bounded memory hold");
    }
    0
}

fn usage(problem: &str) -> i32 {
    eprintln!("{problem}\nusage: ledger_1m [--tenants N] [--charges N] [--out FILE] [--check]");
    2
}

struct Measurement {
    ns_per_open: f64,
    ns_per_charge: f64,
    rss_growth_bytes: f64,
    bytes_per_tenant: f64,
}

/// Opens `tenants` accounts and spreads `charges` admitted charges over
/// them with a multiplicative-hash walk (every charge hits a different
/// stripe/account neighborhood — the worst case for any design that
/// secretly scans).
///
/// The charge timing is best-of-3 after an untimed warm-up pass: the
/// very first walk over a freshly opened million-account map is
/// dominated by first-touch page faults and hugepage collapse, which
/// measure the allocator, not the ledger. The gate asserts
/// data-structure complexity, so it times the steady state. (Total
/// charged spend — 4 passes × `charges` × 1e-3 — stays far below the
/// 1e9 budget, so no pass ever hits the exhaustion path.)
fn measure(tenants: usize, charges: usize) -> Measurement {
    let ids: Vec<String> = (0..tenants).map(|i| format!("tenant-{i:08}")).collect();
    let budget = Epsilon::new(1e9).expect("valid budget");
    let eps = Epsilon::new(1e-3).expect("valid charge");

    let rss_before = rss_bytes();
    let ledger = Ledger::new();
    let opened = Instant::now();
    for id in &ids {
        ledger.open(id, budget).expect("open");
    }
    let ns_per_open = opened.elapsed().as_nanos() as f64 / tenants as f64;
    let rss_growth_bytes = match (rss_before, rss_bytes()) {
        (Some(before), Some(after)) => after.saturating_sub(before) as f64,
        _ => -1.0,
    };

    let mut ns_per_charge = f64::INFINITY;
    for pass in 0..4 {
        let charged = Instant::now();
        for i in 0..charges {
            let id = &ids[(i.wrapping_mul(2_654_435_761)) % tenants];
            ledger.charge(id, "scale", eps).expect("charge");
        }
        let pass_ns = charged.elapsed().as_nanos() as f64 / charges as f64;
        if pass > 0 {
            ns_per_charge = ns_per_charge.min(pass_ns);
        }
    }

    Measurement {
        ns_per_open,
        ns_per_charge,
        rss_growth_bytes,
        bytes_per_tenant: if rss_growth_bytes < 0.0 {
            -1.0
        } else {
            rss_growth_bytes / tenants as f64
        },
    }
}

/// Current resident set in bytes (`/proc/self/status` VmRSS); `None`
/// off-Linux.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
