//! Property tests for the durable ledger's crash contract.
//!
//! For *any* interleaving of charges, manual snapshots (which rotate and
//! truncate the WAL), and a crash that cuts the surviving WAL at *any*
//! byte offset of its log or of the zero tail that pads its file to a
//! whole chunk, recovery must be **prefix-consistent**:
//!
//! * the recovered state is exactly the snapshot plus the bit-exact fold
//!   of the WAL records that fully survive the cut — never a reordering,
//!   never a partial record, and in particular **never less spend than
//!   the snapshot durably recorded** (a silent budget reset is the
//!   privacy bug this whole subsystem exists to prevent);
//! * a cut inside the 16-byte WAL header is the typed
//!   [`CoreError::CorruptState`] refusal, not a panic and not an `Ok`
//!   with forgotten spend;
//! * the recovered ledger stays live: a fresh charge is admitted and
//!   folds on top of the recovered spend.
//!
//! Each case draws its fsync policy from all three. Every policy writes
//! a record to the log before acknowledging it, so after a kill the log
//! holds every acked record in issue order — which is what makes "the
//! durable prefix" a well-defined, globally ordered object the test can
//! fold itself. The policies differ only in what a power loss may take,
//! which no test here can cause.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use blowfish_core::accounting::wal::{wal_frame_bounds, WAL_HEADER_LEN};
use blowfish_core::accounting::WAL_FILE;
use blowfish_core::{CoreError, Epsilon, FsyncPolicy, Ledger, LedgerDurability};
use proptest::prelude::*;

const TENANTS: &[&str] = &["acme", "zeta", "nile"];
const BUDGET: f64 = 1e6;
/// `Batched(4)` syncs inside most scripts, so both of its branches run.
const POLICIES: [FsyncPolicy; 3] = [
    FsyncPolicy::PerCharge,
    FsyncPolicy::Batched(4),
    FsyncPolicy::Off,
];

/// One scripted action against the live ledger.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Charge `TENANTS[tenant]` an amount picked from a non-representable
    /// palette (so only a bit-exact replay folds back to the same spend).
    Charge { tenant: usize, amount: f64 },
    /// `snapshot_now()`: persist everything and truncate the WAL.
    Snapshot,
}

/// What the disk must fold back to, tracked alongside the live run:
/// the spends at the last snapshot plus every WAL record written since.
struct DurableModel {
    /// Per-tenant spend captured by the most recent snapshot (all zeros
    /// plus opens-only before any snapshot).
    base: HashMap<&'static str, f64>,
    /// The records in the current WAL generation, in issue order.
    /// `None` entries are `Open` records (no spend effect).
    wal: Vec<Option<(&'static str, f64)>>,
    /// Whether any snapshot ran. Before the first one, the opens are the
    /// first `TENANTS.len()` WAL records; after it, every tenant lives
    /// in the snapshot and can never be lost to a WAL cut.
    snapshot_taken: bool,
}

impl DurableModel {
    /// Spends after replaying the first `surviving` WAL records on the base.
    fn fold(&self, surviving: usize) -> HashMap<&'static str, f64> {
        let mut spends = self.base.clone();
        for rec in self.wal[..surviving].iter().flatten() {
            *spends.get_mut(rec.0).expect("scripted tenant") += rec.1;
        }
        spends
    }
}

/// Replays `ops` against a durable ledger in `dir` under `fsync`, then
/// drops it without flushing (the state a SIGKILL leaves). Returns the
/// durable model mirroring what reached the disk.
fn run_script(dir: &Path, fsync: FsyncPolicy, ops: &[Op]) -> DurableModel {
    let config = LedgerDurability {
        fsync,
        snapshot_every: 0,
    };
    let (ledger, _) = Ledger::durable(dir, config).expect("fresh durable ledger");
    let mut model = DurableModel {
        base: TENANTS.iter().map(|t| (*t, 0.0)).collect(),
        wal: Vec::new(),
        snapshot_taken: false,
    };
    for tenant in TENANTS {
        ledger
            .open(tenant, Epsilon::new(BUDGET).expect("budget"))
            .expect("open");
        model.wal.push(None);
    }
    let mut live: HashMap<&str, f64> = TENANTS.iter().map(|t| (*t, 0.0)).collect();
    for op in ops {
        match *op {
            Op::Charge { tenant, amount } => {
                let tenant = TENANTS[tenant % TENANTS.len()];
                ledger
                    .charge(tenant, "prop", Epsilon::new(amount).expect("amount"))
                    .expect("charge under a huge budget");
                *live.get_mut(tenant).expect("tenant") += amount;
                model.wal.push(Some((tenant, amount)));
            }
            Op::Snapshot => {
                ledger.snapshot_now().expect("snapshot");
                model.base = live.clone();
                model.wal.clear();
                model.snapshot_taken = true;
            }
        }
    }
    model
}

/// Decodes proptest picks into an op script. Roughly 1 in 8 ops is a
/// snapshot, so scripts mix zero, one, and several truncations.
fn script(picks: &[(usize, u8)]) -> Vec<Op> {
    let amounts = [0.1, 0.3, 0.7, 1.0 / 3.0];
    picks
        .iter()
        .map(|&(tenant, kind)| match kind {
            11 => Op::Snapshot,
            k => Op::Charge {
                tenant,
                amount: amounts[k as usize % amounts.len()],
            },
        })
        .collect()
}

/// Crashes the ledger state in `dir` by cutting its WAL file to `cut`
/// bytes (`cut_at` picks it from the log's end and the file's length),
/// then requires prefix-consistent, live recovery. Frame bounds are read
/// *before* the cut — they define which records fully survive.
fn cut_and_recover(
    dir: &Path,
    model: &DurableModel,
    cut_at: impl FnOnce(u64, u64) -> u64,
) -> Result<(), TestCaseError> {
    let wal_path = dir.join(WAL_FILE);
    let bounds = wal_frame_bounds(&wal_path).expect("scan surviving WAL");
    prop_assert_eq!(bounds.len(), model.wal.len());
    let log_len = bounds.last().map_or(WAL_HEADER_LEN, |&(_, end)| end);
    let file_len = fs::metadata(&wal_path).expect("wal metadata").len();
    let cut = cut_at(log_len, file_len);
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .expect("open wal for truncation");
    file.set_len(cut).expect("truncate wal");
    drop(file);

    if cut < WAL_HEADER_LEN {
        // Not even the header survived: the typed refusal, never a
        // panic and never an Ok that forgot the snapshot's spend.
        match Ledger::recover(dir) {
            Err(CoreError::CorruptState { .. }) => {}
            Err(other) => prop_assert!(false, "expected CorruptState, got {other}"),
            Ok(_) => prop_assert!(false, "recovery over a headerless WAL must refuse"),
        }
        return Ok(());
    }

    let surviving = bounds.iter().filter(|(_, end)| *end <= cut).count();
    let (recovered, report) = match Ledger::recover(dir) {
        Ok(pair) => pair,
        Err(e) => {
            prop_assert!(false, "recovery must survive a cut tail, got {e}");
            unreachable!()
        }
    };
    prop_assert_eq!(report.wal_records_replayed, surviving);

    let expected = model.fold(surviving);
    for (index, tenant) in TENANTS.iter().enumerate() {
        // Before the first snapshot the opens are WAL records 0..3,
        // so a deep enough cut may legitimately lose a tenant — but
        // only then, and losing is not resetting: the account is
        // absent, never present with forgotten spend.
        let open_survives = model.snapshot_taken || surviving > index;
        match recovered.spent(tenant) {
            Ok(spent) => {
                prop_assert!(
                    open_survives,
                    "{tenant} recovered although its open was cut away"
                );
                let want = expected[*tenant];
                prop_assert!(
                    spent.to_bits() == want.to_bits(),
                    "{tenant}: recovered {spent} != durable prefix fold {want} \
                     (cut {cut} of a {log_len}-byte log, {surviving}/{} records)",
                    bounds.len(),
                );
                // Prefix consistency per se: never below the snapshot.
                prop_assert!(spent >= model.base[*tenant]);
            }
            Err(CoreError::UnknownTenant { .. }) => {
                prop_assert!(
                    !open_survives,
                    "{tenant} lost although its open is in the durable prefix \
                     (cut {cut} of a {log_len}-byte log, {surviving} records)"
                );
            }
            Err(e) => prop_assert!(false, "spent({tenant}) errored: {e}"),
        }
    }

    // Liveness: the recovered ledger keeps charging, folding on top
    // of the recovered spend.
    if let Ok(before) = recovered.spent(TENANTS[0]) {
        recovered
            .charge(TENANTS[0], "post-recovery", Epsilon::new(0.1).expect("eps"))
            .expect("post-recovery charge");
        let after = recovered.spent(TENANTS[0]).expect("spent after charge");
        prop_assert!(after.to_bits() == (before + 0.1).to_bits());
    }
    Ok(())
}

fn state_dir(kind: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blowfish-durability-{kind}-{}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_interleaving_cut_anywhere_recovers_the_durable_prefix(
        case in 0u64..1_000_000,
        picks in proptest::collection::vec((0usize..16, 0u8..12), 1..24),
        cut_pick in 0.0f64..1.0,
        policy in 0usize..POLICIES.len(),
    ) {
        let dir = state_dir("prop", case);
        let model = run_script(&dir, POLICIES[policy], &script(&picks));
        // Crash: cut the WAL at an arbitrary byte offset in
        // [0, end of the last frame]. The file runs on in zeros to a
        // whole chunk; cuts there are the case below.
        let outcome = cut_and_recover(&dir, &model, |log_len, _| {
            ((cut_pick * (log_len + 1) as f64) as u64).min(log_len)
        });
        let _ = fs::remove_dir_all(&dir);
        outcome?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_cut_inside_the_zero_tail_loses_no_record(
        case in 0u64..1_000_000,
        picks in proptest::collection::vec((0usize..16, 0u8..12), 1..24),
        cut_pick in 0.0f64..1.0,
        policy in 0usize..POLICIES.len(),
    ) {
        let dir = state_dir("zero-tail", case);
        let model = run_script(&dir, POLICIES[policy], &script(&picks));
        // Crash: cut the WAL in (end of the last frame, file length],
        // where only the zeros of its unused chunk space are lost.
        let outcome = cut_and_recover(&dir, &model, |log_len, file_len| {
            log_len + 1 + (cut_pick * (file_len - log_len) as f64) as u64
        });
        let _ = fs::remove_dir_all(&dir);
        outcome?;
    }
}
