//! `wal_fuzz` — WAL fault-injection harness for the durable ledger.
//!
//! Builds a real ledger state directory (opens + charges with
//! non-representable ε sums, so bit-exactness is actually exercised),
//! then injects each storage fault the recovery path must survive and
//! asserts the *typed* contract:
//!
//! * `torn-record` — the final WAL record is cut mid-frame (a crash
//!   during `write`): recovery must succeed, warn about the torn tail,
//!   and restore exactly the fold of the surviving record prefix;
//! * `flipped-checksum` — a payload byte of a WAL record is flipped
//!   (bit rot): recovery must succeed, warn, and truncate to the valid
//!   prefix before the damaged record — never replay a record whose
//!   checksum fails;
//! * `truncated-snapshot` — `snapshot.bin` loses its tail (storage lost
//!   the rename): recovery must fail with the typed
//!   `CoreError::CorruptState` — a damaged snapshot has no safe durable
//!   prefix, and silently resetting budgets would be a privacy bug;
//! * `bad-header` — the WAL magic is damaged: typed `CorruptState`.
//!
//! Every case additionally asserts the two universal invariants: no
//! panic, and **no silent budget reset** (a recovery that "succeeds"
//! with less spend than the durable prefix recorded is a failure even
//! if nothing crashed). Run all cases (CI) or one:
//!
//! ```text
//! wal_fuzz [--case torn-record|flipped-checksum|truncated-snapshot|bad-header|all]
//!          [--dir DIR]
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use blowfish_core::accounting::wal::wal_frame_bounds;
use blowfish_core::accounting::{SNAPSHOT_FILE, WAL_FILE};
use blowfish_core::{CoreError, Epsilon, FsyncPolicy, Ledger, LedgerDurability};

const CASES: &[&str] = &[
    "torn-record",
    "flipped-checksum",
    "truncated-snapshot",
    "bad-header",
];

/// The charge script: (tenant, amount), in issue order. Amounts are
/// deliberately non-representable (0.1, 0.3) so a recovery that
/// re-derives spend any way other than replaying the identical f64
/// fold shows up as a bit mismatch.
const SCRIPT: &[(&str, f64)] = &[
    ("acme", 0.1),
    ("zeta", 0.3),
    ("acme", 0.1),
    ("acme", 0.3),
    ("zeta", 0.1),
    ("acme", 0.1),
];

const TENANTS: &[&str] = &["acme", "zeta"];
const BUDGET: f64 = 10.0;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut case = "all".to_string();
    let mut dir = std::env::temp_dir().join(format!("blowfish-wal-fuzz-{}", std::process::id()));
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--case" => match args.get(i + 1) {
                Some(c) => {
                    case = c.clone();
                    i += 1;
                }
                None => return usage("--case needs a name"),
            },
            "--dir" => match args.get(i + 1) {
                Some(d) => {
                    dir = PathBuf::from(d);
                    i += 1;
                }
                None => return usage("--dir needs a directory"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let selected: Vec<&str> = if case == "all" {
        CASES.to_vec()
    } else if CASES.contains(&case.as_str()) {
        vec![case.as_str()]
    } else {
        return usage(&format!("unknown case {case}"));
    };

    let mut failed = false;
    for name in selected {
        let state = dir.join(name);
        let _ = fs::remove_dir_all(&state);
        let outcome = run_case(name, &state);
        match outcome {
            Ok(detail) => {
                println!("PASS {name}: {detail}");
                let _ = fs::remove_dir_all(&state);
            }
            Err(problem) => {
                failed = true;
                println!("FAIL {name}: {problem}");
                println!("     state left at {} for inspection", state.display());
            }
        }
    }
    if failed {
        1
    } else {
        println!("all WAL fault-injection cases recovered with the typed contract");
        0
    }
}

fn usage(problem: &str) -> i32 {
    eprintln!(
        "{problem}\nusage: wal_fuzz [--case {}|all] [--dir DIR]",
        CASES.join("|")
    );
    2
}

/// Builds the scripted state under `dir` with per-charge fsync (every
/// record durable) and no automatic snapshots, then drops the ledger
/// without flushing — the state a kill would leave.
fn build_state(dir: &Path) -> Result<(), CoreError> {
    let config = LedgerDurability {
        fsync: FsyncPolicy::PerCharge,
        snapshot_every: 0,
    };
    let (ledger, _) = Ledger::durable(dir, config)?;
    for tenant in TENANTS {
        ledger.open(tenant, Epsilon::new(BUDGET)?)?;
    }
    for (tenant, amount) in SCRIPT {
        ledger.charge(tenant, "fuzz", Epsilon::new(*amount)?)?;
    }
    Ok(())
}

/// Spend each tenant must show when exactly the first `records` WAL
/// records (tenant opens included) survive: the bit-exact fold of the
/// script prefix.
fn expected_after(records: usize) -> Vec<(&'static str, f64)> {
    let charges = records.saturating_sub(TENANTS.len());
    TENANTS
        .iter()
        .map(|tenant| {
            let spent = SCRIPT[..charges.min(SCRIPT.len())]
                .iter()
                .filter(|(t, _)| t == tenant)
                .fold(0.0_f64, |acc, (_, amount)| acc + amount);
            (*tenant, spent)
        })
        .collect()
}

/// Recovery must succeed, warn (the fault is visible, never silent),
/// and restore the bit-exact fold of the surviving prefix.
fn assert_prefix_recovery(
    dir: &Path,
    surviving_records: usize,
    why: &str,
) -> Result<String, String> {
    let (ledger, report) = Ledger::recover(dir)
        .map_err(|e| format!("{why}: recovery must succeed on a damaged tail, got: {e}"))?;
    if report.warnings.is_empty() {
        return Err(format!("{why}: recovery must warn, not silently pass"));
    }
    if report.wal_records_replayed != surviving_records {
        return Err(format!(
            "{why}: {} records replayed, expected the {surviving_records}-record prefix",
            report.wal_records_replayed
        ));
    }
    for (tenant, expected) in expected_after(surviving_records) {
        let spent = ledger
            .spent(tenant)
            .map_err(|e| format!("{why}: recovered ledger lost tenant {tenant}: {e}"))?;
        if spent.to_bits() != expected.to_bits() {
            return Err(format!(
                "{why}: {tenant} recovered spend {spent} != durable prefix fold {expected} \
                 (silent budget reset or corrupt replay)"
            ));
        }
    }
    Ok(format!(
        "recovered {surviving_records}-record prefix bit-exactly, warned: {:?}",
        report.warnings.first().unwrap()
    ))
}

fn run_case(name: &str, dir: &Path) -> Result<String, String> {
    build_state(dir).map_err(|e| format!("building the scripted state failed: {e}"))?;
    let wal = dir.join(WAL_FILE);
    let bounds = wal_frame_bounds(&wal).map_err(|e| format!("scanning WAL frames failed: {e}"))?;
    let total = TENANTS.len() + SCRIPT.len();
    if bounds.len() != total {
        return Err(format!(
            "scripted WAL has {} frames, expected {total}",
            bounds.len()
        ));
    }
    match name {
        "torn-record" => {
            // Cut 3 bytes into the last frame: a mid-write crash.
            let (start, end) = bounds[total - 1];
            let cut = start + ((end - start) / 2).max(3);
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&wal)
                .map_err(|e| e.to_string())?;
            file.set_len(cut).map_err(|e| e.to_string())?;
            drop(file);
            assert_prefix_recovery(dir, total - 1, "torn final record")
        }
        "flipped-checksum" => {
            // Flip one payload byte of the second-to-last record: its
            // CRC no longer matches, so it and everything after must be
            // dropped as the non-durable tail.
            let (start, end) = bounds[total - 2];
            let mut bytes = fs::read(&wal).map_err(|e| e.to_string())?;
            let target = (start + (end - start) / 2) as usize;
            bytes[target] ^= 0x20;
            fs::write(&wal, &bytes).map_err(|e| e.to_string())?;
            assert_prefix_recovery(dir, total - 2, "flipped checksum byte")
        }
        "truncated-snapshot" => {
            // Snapshot, then damage the snapshot file: recovery must be
            // the typed hard error, never an Ok with reset budgets.
            {
                let (ledger, _) = Ledger::recover(dir).map_err(|e| e.to_string())?;
                ledger.snapshot_now().map_err(|e| e.to_string())?;
            }
            let snap = dir.join(SNAPSHOT_FILE);
            let len = fs::metadata(&snap).map_err(|e| e.to_string())?.len();
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&snap)
                .map_err(|e| e.to_string())?;
            file.set_len(len - 7).map_err(|e| e.to_string())?;
            drop(file);
            expect_corrupt_state(dir, "truncated snapshot")
        }
        "bad-header" => {
            let mut bytes = fs::read(&wal).map_err(|e| e.to_string())?;
            bytes[2] ^= 0xFF;
            fs::write(&wal, &bytes).map_err(|e| e.to_string())?;
            expect_corrupt_state(dir, "damaged WAL header")
        }
        other => Err(format!("unknown case {other}")),
    }
}

/// Recovery must refuse with the typed corruption error — and must not
/// come back `Ok` with budgets quietly reset to zero.
fn expect_corrupt_state(dir: &Path, why: &str) -> Result<String, String> {
    match Ledger::recover(dir) {
        Err(CoreError::CorruptState { what, detail }) => {
            Ok(format!("typed refusal: corrupt {what} ({detail})"))
        }
        Err(other) => Err(format!(
            "{why}: expected the typed CorruptState error, got: {other}"
        )),
        Ok((ledger, _)) => {
            let spends: Vec<f64> = TENANTS
                .iter()
                .map(|t| ledger.spent(t).unwrap_or(0.0))
                .collect();
            Err(format!(
                "{why}: recovery succeeded over corrupt state (spends {spends:?}) — \
                 a silent budget reset"
            ))
        }
    }
}
