//! Privacy-budget accounting.
//!
//! Thin, validated wrappers for ε (and δ) plus the composition rules the
//! Section-5 strategies rely on: sequential composition (budgets add,
//! [`Epsilon::split`]) and the Lemma 4.5 subgraph-approximation scaling
//! (an `(ε, G′)` mechanism is `(ℓ·ε, G)`-private, so target budgets
//! divide by the certified stretch, [`Epsilon::for_stretch`]).
//!
//! The budget itself is kept by [`Ledger`], the thread-safe
//! **multi-tenant** ledger behind the engine's `Service` layer: one
//! privacy account per tenant and atomic check-and-charge under
//! sequential composition. The strategies apply Lemma 4.5 themselves and
//! report the ε they actually spend, which is what the ledger charges.
//! Over-budget requests are rejected with the typed
//! [`CoreError::BudgetExhausted`] and leave the account untouched — spend
//! is monotone and never exceeds the registered total.
//!
//! ## Sharding and durability
//!
//! The multi-tenant [`Ledger`] is built for production scale:
//!
//! * Accounts are **lock-striped** across [`LEDGER_STRIPES`] segments
//!   (the same pattern as the engine's `PlanCache`), so one process
//!   holds millions of accounts and concurrent charges to different
//!   tenants rarely contend — a charge takes one stripe lock for an
//!   O(1) account update.
//! * Optionally, the ledger is **durable**: opened against a state
//!   directory ([`Ledger::durable`] / [`Ledger::recover`]), every
//!   budget-affecting event is written to a write-ahead log ([`wal`])
//!   *before* the in-memory account mutates, with periodic snapshots
//!   ([`snapshot`]) bounding log growth and recovery time. Losing the
//!   ε ledger *is* the privacy violation — a restart that forgets spend
//!   lets every tenant re-spend their budget — so recovery replays
//!   WAL-on-top-of-snapshot to accounts whose [`AccountSnapshot`]s are
//!   f64-bit-identical to the uninterrupted run (f64 as stored bits;
//!   per-tenant record order preserved). A killed process loses no
//!   acknowledged charge under any [`FsyncPolicy`]; the policy only
//!   decides what a power loss may take (see its docs).

pub mod snapshot;
pub mod wal;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use rand::Rng;

pub use snapshot::{SnapshotImage, SnapshotTenant, SNAPSHOT_FILE};
pub use wal::{FsyncPolicy, WalRecord, WalTail, WAL_FILE};

use crate::CoreError;

/// A validated privacy budget ε > 0.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a budget, rejecting non-positive or non-finite values.
    pub fn new(eps: f64) -> Result<Self, CoreError> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(CoreError::InvalidEpsilon { eps });
        }
        Ok(Epsilon(eps))
    }

    /// The raw value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Splits the budget evenly across `parts` sequentially-composed
    /// sub-mechanisms.
    pub fn split(&self, parts: usize) -> Result<Epsilon, CoreError> {
        if parts == 0 {
            return Err(CoreError::InvalidEpsilon { eps: 0.0 });
        }
        Epsilon::new(self.0 / parts as f64)
    }

    /// Scales the budget by `1/ℓ` for a certified stretch-ℓ spanner
    /// (Corollary 4.6): running the transformed mechanism at `ε/ℓ` yields
    /// an `(ε, G)`-Blowfish guarantee.
    pub fn for_stretch(&self, stretch: usize) -> Result<Epsilon, CoreError> {
        if stretch == 0 {
            return Err(CoreError::InvalidEpsilon { eps: 0.0 });
        }
        Epsilon::new(self.0 / stretch as f64)
    }

    /// Half the budget — the paper's experiments compare `ε/2`-DP baselines
    /// against `(ε, G)`-Blowfish mechanisms (Section 6). Refused when
    /// `ε/2` underflows to 0, as at the smallest subnormal ε.
    pub fn half(&self) -> Result<Epsilon, CoreError> {
        Epsilon::new(self.0 / 2.0)
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// How per-tenant total budgets are assigned when a simulated population
/// of tenants is generated: real multi-tenant traffic is rarely uniform
/// (a few tenants hold deep budgets, the long tail runs on scraps), and
/// admission behavior — where exactly `⌊budget/ε⌋` cuts off — depends on
/// the draw. Sampling is deterministic given the RNG state, so seeded
/// traces reproduce identical budget assignments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetDistribution {
    /// Every tenant gets the same total budget.
    Fixed(f64),
    /// Budgets drawn uniformly from `[lo, hi)`.
    Uniform {
        /// Smallest assignable budget.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// A two-tier population: every `high_every`-th tenant (by index) is
    /// a deep-budget tenant at `high`, the rest run at `low`.
    Tiered {
        /// Budget of the long-tail tenants.
        low: f64,
        /// Budget of the deep-pocketed tier.
        high: f64,
        /// Tier period: tenant indices divisible by this get `high`.
        high_every: usize,
    },
}

impl BudgetDistribution {
    /// Draws the total budget of the tenant at `index`. `Fixed` and
    /// `Tiered` are index-deterministic and ignore the RNG; `Uniform`
    /// consumes exactly one draw.
    pub fn sample<R: Rng + ?Sized>(&self, index: usize, rng: &mut R) -> Result<Epsilon, CoreError> {
        match *self {
            BudgetDistribution::Fixed(v) => Epsilon::new(v),
            BudgetDistribution::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi <= lo {
                    return Err(CoreError::InvalidCharge {
                        reason: "uniform budget distribution needs 0 < lo < hi",
                    });
                }
                Epsilon::new(rng.gen_range(lo..hi))
            }
            BudgetDistribution::Tiered {
                low,
                high,
                high_every,
            } => {
                if high_every == 0 {
                    return Err(CoreError::InvalidCharge {
                        reason: "tiered budget distribution needs high_every ≥ 1",
                    });
                }
                Epsilon::new(if index.is_multiple_of(high_every) {
                    high
                } else {
                    low
                })
            }
        }
    }
}

/// A validated failure probability δ ∈ (0, 1) for (ε, δ) guarantees
/// (Appendix A's `P(ε, δ)` lower-bound constant).
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Delta(f64);

impl Delta {
    /// Creates a δ, rejecting values outside `(0, 1)`.
    pub fn new(delta: f64) -> Result<Self, CoreError> {
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
            return Err(CoreError::InvalidDelta { delta });
        }
        Ok(Delta(delta))
    }

    /// The raw value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }
}

/// Float tolerance for budget admission checks: absorbs f64 summation
/// error without licensing meaningful overdraws. The `1e-9` absolute
/// floor covers human-scale budgets exactly as before; the `1e-12`
/// *relative* term tracks accumulated rounding at large magnitudes (per
/// charge the error is ~ulp(total) ≈ 2e-16·total, so `1e-12·total`
/// absorbs thousands of charges) while keeping the admissible overdraw
/// proportionally negligible — a 10¹² budget can exceed by at most
/// ~1 ε, not the ~10³ ε a purely relative `1e-9` slack would allow.
///
/// Public so external admission *oracles* (the trace simulator's scorer
/// predicts exactly which fits a ledger will admit) can replicate the
/// rule instead of duplicating the constants.
pub fn overdraw_slack(total: f64) -> f64 {
    1e-9 + 1e-12 * total
}

/// Receipt for one successful [`Ledger`] charge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Charge {
    /// The ε debited: exactly the `eps` passed to [`Ledger::charge`].
    pub amount: f64,
    /// Cumulative tenant spend after this charge.
    pub spent: f64,
    /// Budget remaining after this charge.
    pub remaining: f64,
}

/// One consistent read of a tenant account, taken under a single lock
/// acquisition so the fields cannot disagree with each other (reading
/// them through separate calls can interleave with a concurrent charge).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccountSnapshot {
    /// The registered total budget.
    pub total: f64,
    /// Cumulative ε spent.
    pub spent: f64,
    /// Budget remaining (never negative).
    pub remaining: f64,
    /// Number of admitted charges over the account's lifetime.
    pub charges: usize,
}

/// Number of lock-striped account segments in a [`Ledger`] — tenants
/// hash to a stripe, so concurrent charges to different tenants take
/// different locks (the engine `PlanCache` uses the same pattern).
pub const LEDGER_STRIPES: usize = 16;

/// One tenant's privacy account: exact lifetime totals. Charge labels
/// are written to the WAL of a durable ledger and kept nowhere else.
#[derive(Clone, Debug)]
struct Account {
    total: Epsilon,
    spent: f64,
    /// Lifetime count of admitted charges.
    charges: usize,
}

impl Account {
    fn fresh(total: Epsilon) -> Self {
        Account {
            total,
            spent: 0.0,
            charges: 0,
        }
    }
}

/// Configuration for a durable [`Ledger`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerDurability {
    /// When WAL appends reach stable storage relative to charge acks.
    pub fsync: FsyncPolicy,
    /// Take a snapshot (and truncate the WAL) every this many appended
    /// records; `0` disables automatic snapshots ([`Ledger::snapshot_now`]
    /// still works).
    pub snapshot_every: u64,
}

impl Default for LedgerDurability {
    fn default() -> Self {
        LedgerDurability {
            fsync: FsyncPolicy::PerCharge,
            snapshot_every: 8192,
        }
    }
}

/// What [`Ledger::recover`] found in the state directory.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot that was loaded, if one existed.
    pub snapshot_generation: Option<u64>,
    /// Tenant accounts restored from the snapshot.
    pub snapshot_tenants: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Records in a stale-generation WAL that were (correctly) ignored.
    pub wal_records_ignored: usize,
    /// Tail state of the replayed WAL, when one was replayed.
    pub wal_tail: Option<WalTail>,
    /// Human-readable anomalies (torn tail, stale log, skipped records).
    /// A torn tail is the record a kill cut mid-write, which was never
    /// acknowledged; after a power loss it can also be records the
    /// [`FsyncPolicy`] had acknowledged but not yet synced.
    pub warnings: Vec<String>,
}

impl RecoveryReport {
    /// True when recovery found a pristine state (no dropped bytes, no
    /// anomalies).
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

/// Persistence health counters surfaced through the wire `stats` verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityStats {
    /// The configured fsync policy.
    pub policy: FsyncPolicy,
    /// Current WAL length in bytes (header included).
    pub wal_bytes: u64,
    /// Generation of the last completed snapshot (0 = none yet).
    pub snapshot_generation: u64,
}

/// The durability side-car of a [`Ledger`]: WAL writer, snapshot
/// scheduling state, and the fail-stop poison flag.
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    policy: FsyncPolicy,
    snapshot_every: u64,
    wal: Mutex<wal::WalWriter>,
    /// Generation of the last completed snapshot.
    generation: AtomicU64,
    /// Records appended since that snapshot; schedules the next one.
    records_since_snapshot: AtomicU64,
    /// Guards against concurrent automatic snapshots.
    snapshotting: AtomicBool,
    /// Set when a WAL append or rotation fails: from then on every
    /// durable mutation is refused (fail-stop) rather than risking
    /// acked-but-unlogged charges.
    poisoned: AtomicBool,
}

impl Durable {
    fn check_healthy(&self) -> Result<(), CoreError> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(CoreError::Durability {
                op: "append wal",
                path: self.dir.display().to_string(),
                detail: "ledger is fail-stopped after an earlier WAL write failure".to_string(),
            });
        }
        Ok(())
    }

    /// Writes `rec` to the WAL (synced as the policy requires) while the
    /// caller holds the tenant's stripe lock and before it mutates the
    /// account. Lock order is stripe → WAL, everywhere. A failed append
    /// poisons durability (fail-stop).
    fn persist(&self, rec: &WalRecord<&str>) -> Result<(), CoreError> {
        self.check_healthy()?;
        if let Err(e) = self.wal.lock().expect("wal lock").append(rec) {
            self.poisoned.store(true, Ordering::Relaxed);
            return Err(e);
        }
        self.records_since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A thread-safe multi-tenant privacy ledger.
///
/// Each tenant owns one cumulative account: releases compose
/// *sequentially* (spends add, Theorem 2.5-style), so the account is a
/// hard cap on the total ε any adversary observes across every release
/// the tenant ever requests. A charge either fits in the remaining budget
/// and is applied atomically, or is rejected with the typed
/// [`CoreError::BudgetExhausted`] **without** mutating the account —
/// there is no partial debit and spend can never exceed the registered
/// total (beyond the tiny `overdraw_slack` float tolerance) nor go
/// negative.
///
/// Accounts are sharded across [`LEDGER_STRIPES`] lock-striped segments;
/// the check-and-charge runs under one stripe mutex, so concurrent
/// chargers cannot jointly overdraw an account, charges to different
/// tenants mostly proceed in parallel, and the lock is held only for the
/// O(1) account update (plus, when durable, the WAL append), never
/// across mechanism work.
///
/// A ledger opened with [`Ledger::durable`] or [`Ledger::recover`]
/// additionally writes every open/charge to a write-ahead log before
/// applying it — see [`FsyncPolicy`] for what a kill or a power loss
/// may take.
#[derive(Debug)]
pub struct Ledger {
    stripes: Vec<Mutex<HashMap<String, Account>>>,
    durable: Option<Durable>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            stripes: (0..LEDGER_STRIPES).map(|_| Mutex::default()).collect(),
            durable: None,
        }
    }
}

fn stripe_index(tenant: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() as usize) % LEDGER_STRIPES
}

impl Ledger {
    /// An empty in-memory ledger with no tenants and no persistence.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Opens (or creates) a **durable** ledger backed by `dir`,
    /// recovering whatever state the directory holds: the last snapshot
    /// is loaded, the WAL stamped with the same generation is replayed
    /// on top (truncating a torn/checksum-failing tail back to the last
    /// durable prefix), and the log is reopened for append. Returns the
    /// ledger plus a [`RecoveryReport`] describing what was found.
    ///
    /// Failure modes are typed, never a panic and never a silent budget
    /// reset: an unreadable snapshot or WAL header is
    /// [`CoreError::CorruptState`] (refusing to serve beats forgetting
    /// spend), I/O failures are [`CoreError::Durability`].
    pub fn durable(
        dir: &Path,
        config: LedgerDurability,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        std::fs::create_dir_all(dir).map_err(|e| CoreError::Durability {
            op: "create state dir",
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let mut report = RecoveryReport::default();
        let snap = snapshot::read_snapshot(dir)?;
        let wal_img = wal::read_wal(&dir.join(WAL_FILE))?;

        let mut stripes: Vec<HashMap<String, Account>> =
            (0..LEDGER_STRIPES).map(|_| HashMap::new()).collect();
        let mut generation = 0u64;
        if let Some(s) = &snap {
            generation = s.generation;
            report.snapshot_generation = Some(s.generation);
            report.snapshot_tenants = s.tenants.len();
            for t in &s.tenants {
                let total = Epsilon::new(t.total).map_err(|_| CoreError::CorruptState {
                    what: "snapshot".to_string(),
                    detail: format!("tenant {} has invalid budget {}", t.tenant, t.total),
                })?;
                let prev = stripes[stripe_index(&t.tenant)].insert(
                    t.tenant.clone(),
                    Account {
                        total,
                        spent: t.spent,
                        charges: t.charges as usize,
                    },
                );
                if prev.is_some() {
                    return Err(CoreError::CorruptState {
                        what: "snapshot".to_string(),
                        detail: format!("tenant {} appears twice", t.tenant),
                    });
                }
            }
        }

        let writer = match wal_img {
            None => {
                if snap.is_some() {
                    report.warnings.push(
                        "wal.log missing; starting a fresh log at the snapshot generation"
                            .to_string(),
                    );
                }
                wal::WalWriter::rotate(dir, generation, config.fsync)?
            }
            Some(img) => {
                if img.generation > generation {
                    return Err(CoreError::CorruptState {
                        what: "wal header".to_string(),
                        detail: format!(
                            "wal generation {} is newer than the snapshot generation {} — \
                             the snapshot it extends is missing",
                            img.generation, generation
                        ),
                    });
                }
                if img.generation < generation {
                    // Crash between snapshot rename and WAL rotation:
                    // every record in the stale log is already inside
                    // the snapshot. Ignoring it is the correct (and
                    // only safe) interpretation.
                    report.wal_records_ignored = img.records.len();
                    report.warnings.push(format!(
                        "ignoring stale wal at generation {} (snapshot is at {}): \
                         crash between snapshot and log rotation",
                        img.generation, generation
                    ));
                    wal::WalWriter::rotate(dir, generation, config.fsync)?
                } else {
                    match img.tail {
                        WalTail::Torn { dropped_bytes, .. } => report.warnings.push(format!(
                            "torn wal tail: dropped {dropped_bytes} trailing bytes past the \
                             durable prefix"
                        )),
                        WalTail::Corrupt { dropped_bytes, .. } => report.warnings.push(format!(
                            "checksum-failing wal tail: dropped {dropped_bytes} trailing bytes \
                             past the durable prefix"
                        )),
                        WalTail::Clean => {}
                    }
                    report.wal_tail = Some(img.tail);
                    for rec in &img.records {
                        match rec {
                            WalRecord::Open { tenant, total } => {
                                let total =
                                    Epsilon::new(*total).map_err(|_| CoreError::CorruptState {
                                        what: "wal record".to_string(),
                                        detail: format!(
                                            "open of tenant {tenant} with invalid budget {total}"
                                        ),
                                    })?;
                                let stripe = &mut stripes[stripe_index(tenant)];
                                if stripe.contains_key(tenant) {
                                    report.warnings.push(format!(
                                        "replay: duplicate open of tenant {tenant} ignored"
                                    ));
                                } else {
                                    stripe.insert(tenant.clone(), Account::fresh(total));
                                }
                            }
                            WalRecord::Charge { tenant, amount, .. } => {
                                match stripes[stripe_index(tenant)].get_mut(tenant) {
                                    Some(account) => {
                                        // Replay applies the identical f64
                                        // addition in the identical per-tenant
                                        // order — no re-admission check, the
                                        // charge was already admitted.
                                        account.spent += amount;
                                        account.charges += 1;
                                    }
                                    None => report.warnings.push(format!(
                                        "replay: charge against unknown tenant {tenant} ignored"
                                    )),
                                }
                            }
                        }
                        report.wal_records_replayed += 1;
                    }
                    wal::WalWriter::reopen(dir, img.valid_bytes, config.fsync)?
                }
            }
        };

        let ledger = Ledger {
            stripes: stripes.into_iter().map(Mutex::new).collect(),
            durable: Some(Durable {
                dir: dir.to_path_buf(),
                policy: config.fsync,
                snapshot_every: config.snapshot_every,
                wal: Mutex::new(writer),
                generation: AtomicU64::new(generation),
                records_since_snapshot: AtomicU64::new(0),
                snapshotting: AtomicBool::new(false),
                poisoned: AtomicBool::new(false),
            }),
        };
        Ok((ledger, report))
    }

    /// [`Ledger::durable`] with the default [`LedgerDurability`]
    /// (per-charge fsync) — the recovery entry point.
    pub fn recover(dir: &Path) -> Result<(Self, RecoveryReport), CoreError> {
        Ledger::durable(dir, LedgerDurability::default())
    }

    /// Persistence health (policy, WAL size, snapshot generation), or
    /// `None` for an in-memory ledger.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let d = self.durable.as_ref()?;
        let wal_bytes = d.wal.lock().expect("wal lock").bytes();
        Some(DurabilityStats {
            policy: d.policy,
            wal_bytes,
            snapshot_generation: d.generation.load(Ordering::Relaxed),
        })
    }

    /// Opens a tenant account with a total cumulative budget. Rejects a
    /// tenant id that is already registered — budgets are append-only and
    /// cannot be silently reset.
    pub fn open(&self, tenant: &str, total: Epsilon) -> Result<(), CoreError> {
        self.open_inner(tenant, total, false).map(|_| ())
    }

    /// Opens `tenant` if absent; *attaches* to the existing account when
    /// it is already registered with the **bit-identical** total budget
    /// (the recovery path: a service re-onboarding its tenants over a
    /// recovered ledger must not double-open, but a budget that changed
    /// across the restart is still the typed
    /// [`CoreError::DuplicateTenant`] — budgets cannot be silently
    /// reset). Returns `true` when the account was newly opened.
    pub fn open_or_attach(&self, tenant: &str, total: Epsilon) -> Result<bool, CoreError> {
        self.open_inner(tenant, total, true)
    }

    fn open_inner(&self, tenant: &str, total: Epsilon, attach: bool) -> Result<bool, CoreError> {
        let mut stripe = self.stripes[stripe_index(tenant)]
            .lock()
            .expect("ledger stripe lock");
        if let Some(existing) = stripe.get(tenant) {
            if attach && existing.total.value().to_bits() == total.value().to_bits() {
                return Ok(false);
            }
            return Err(CoreError::DuplicateTenant {
                tenant: tenant.to_string(),
            });
        }
        if let Some(d) = &self.durable {
            d.persist(&WalRecord::Open {
                tenant,
                total: total.value(),
            })?;
        }
        stripe.insert(tenant.to_string(), Account::fresh(total));
        drop(stripe);
        self.maybe_snapshot();
        Ok(true)
    }

    /// Charges `eps` to `tenant` under sequential composition. On success
    /// returns the [`Charge`] receipt; when the remaining budget cannot
    /// cover it, returns [`CoreError::BudgetExhausted`] and leaves the
    /// account untouched. `label` names the release (the engine passes
    /// the spec id); a durable ledger writes it into the charge's WAL
    /// record, and nothing else keeps it.
    pub fn charge(&self, tenant: &str, label: &str, eps: Epsilon) -> Result<Charge, CoreError> {
        self.debit(tenant, label, eps.value())
    }

    /// The single atomic check-and-debit every charge path funnels into.
    /// When durable, the WAL record is written (and synced as the policy
    /// requires) *before* the in-memory account mutates — an acked
    /// charge is always at least as durable as the policy promises, and
    /// a WAL failure rejects the charge without mutating the account.
    /// The record is encoded from the borrowed `tenant` and `label`, so
    /// a warm charge makes no heap allocation.
    fn debit(&self, tenant: &str, label: &str, amount: f64) -> Result<Charge, CoreError> {
        let mut stripe = self.stripes[stripe_index(tenant)]
            .lock()
            .expect("ledger stripe lock");
        let account = stripe.get(tenant).ok_or_else(|| CoreError::UnknownTenant {
            tenant: tenant.to_string(),
        })?;
        let total = account.total.value();
        let new_spent = account.spent + amount;
        if new_spent > total + overdraw_slack(total) {
            return Err(CoreError::BudgetExhausted {
                tenant: tenant.to_string(),
                total,
                spent: account.spent,
                requested: amount,
            });
        }
        if let Some(d) = &self.durable {
            d.persist(&WalRecord::Charge {
                tenant,
                label,
                amount,
            })?;
        }
        let account = stripe.get_mut(tenant).expect("account vanished");
        account.spent = new_spent;
        account.charges += 1;
        let receipt = Charge {
            amount,
            spent: new_spent,
            remaining: (total - new_spent).max(0.0),
        };
        drop(stripe);
        self.maybe_snapshot();
        Ok(receipt)
    }

    /// Automatic snapshot trigger — runs outside the stripe locks; at
    /// most one snapshot at a time. Failures are swallowed here (the WAL
    /// still holds every record, so durability is unaffected and the
    /// next trigger retries); use [`Ledger::snapshot_now`] to observe
    /// snapshot errors.
    fn maybe_snapshot(&self) {
        let Some(d) = &self.durable else { return };
        if d.snapshot_every == 0
            || d.records_since_snapshot.load(Ordering::Relaxed) < d.snapshot_every
        {
            return;
        }
        if d.snapshotting.swap(true, Ordering::Acquire) {
            return;
        }
        let _ = self.snapshot_now();
        d.snapshotting.store(false, Ordering::Release);
    }

    /// Captures all accounts into `snapshot.bin` (atomic tmp + rename)
    /// and rotates the WAL to a fresh log stamped with the new
    /// generation. Returns the new generation.
    pub fn snapshot_now(&self) -> Result<u64, CoreError> {
        let d = self.durable.as_ref().ok_or(CoreError::InvalidCharge {
            reason: "snapshot requires a durable ledger",
        })?;
        // All stripe locks in index order (the only multi-stripe path,
        // so no lock-order inversion), then the WAL lock.
        let guards: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.lock().expect("ledger stripe lock"))
            .collect();
        let generation = d.generation.load(Ordering::Relaxed) + 1;
        let mut tenants: Vec<SnapshotTenant> = guards
            .iter()
            .flat_map(|g| {
                g.iter().map(|(id, a)| SnapshotTenant {
                    tenant: id.clone(),
                    total: a.total.value(),
                    spent: a.spent,
                    charges: a.charges as u64,
                })
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        snapshot::write_snapshot(
            &d.dir,
            &SnapshotImage {
                generation,
                tenants,
            },
        )?;
        let mut wal_guard = d.wal.lock().expect("wal lock");
        match wal::WalWriter::rotate(&d.dir, generation, d.policy) {
            Ok(w) => *wal_guard = w,
            Err(e) => {
                // The snapshot landed but the log could not be rotated:
                // new appends would go to a stale-generation log that
                // recovery (correctly) ignores. Fail-stop instead.
                d.poisoned.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        d.generation.store(generation, Ordering::Relaxed);
        d.records_since_snapshot.store(0, Ordering::Relaxed);
        Ok(generation)
    }

    /// Syncs the log, so a power loss after it takes no acknowledged
    /// record under any policy — the clean shutdown path. Every record
    /// is already in the log file, so a kill needs no flush. Fails on a
    /// fail-stopped ledger; a no-op for in-memory ledgers.
    pub fn flush(&self) -> Result<(), CoreError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        d.check_healthy()?;
        d.wal.lock().expect("wal lock").sync()
    }

    /// Cumulative spend of a tenant.
    pub fn spent(&self, tenant: &str) -> Result<f64, CoreError> {
        self.with_account(tenant, |a| a.spent)
    }

    /// Remaining budget of a tenant (never negative).
    pub fn remaining(&self, tenant: &str) -> Result<f64, CoreError> {
        self.with_account(tenant, |a| (a.total.value() - a.spent).max(0.0))
    }

    /// One consistent view of a tenant account (total, spent, remaining,
    /// lifetime charge count) under a single lock acquisition — fields
    /// read via separate calls can interleave with concurrent charges
    /// and disagree with each other.
    pub fn snapshot(&self, tenant: &str) -> Result<AccountSnapshot, CoreError> {
        self.with_account(tenant, |a| AccountSnapshot {
            total: a.total.value(),
            spent: a.spent,
            remaining: (a.total.value() - a.spent).max(0.0),
            charges: a.charges,
        })
    }

    /// Registered tenant ids, sorted.
    #[cfg(test)]
    pub fn tenants(&self) -> Vec<String> {
        let mut ids: Vec<String> = Vec::new();
        for stripe in &self.stripes {
            let g = stripe.lock().expect("ledger stripe lock");
            ids.extend(g.keys().cloned());
        }
        ids.sort();
        ids
    }

    /// Number of registered tenants — O(stripes), without cloning ids.
    pub fn tenant_count(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("ledger stripe lock").len())
            .sum()
    }

    fn with_account<T>(&self, tenant: &str, f: impl FnOnce(&Account) -> T) -> Result<T, CoreError> {
        let stripe = self.stripes[stripe_index(tenant)]
            .lock()
            .expect("ledger stripe lock");
        stripe
            .get(tenant)
            .map(f)
            .ok_or_else(|| CoreError::UnknownTenant {
                tenant: tenant.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
    }

    #[test]
    fn split_and_stretch() {
        let e = Epsilon::new(0.9).unwrap();
        assert!((e.split(3).unwrap().value() - 0.3).abs() < 1e-12);
        assert!((e.for_stretch(3).unwrap().value() - 0.3).abs() < 1e-12);
        assert!((e.half().unwrap().value() - 0.45).abs() < 1e-12);
        assert!(e.split(0).is_err());
        // Half the smallest subnormal ε underflows to 0: refused.
        let tiny = Epsilon::new(5e-324).unwrap();
        assert!(tiny.half().is_err());
        assert_eq!(
            Epsilon::new(1e-323).unwrap().half().unwrap().value(),
            5e-324
        );
        assert!(e.for_stretch(0).is_err());
    }

    #[test]
    fn budget_distribution_sampling() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            BudgetDistribution::Fixed(2.0)
                .sample(3, &mut rng)
                .unwrap()
                .value(),
            2.0
        );
        let tiered = BudgetDistribution::Tiered {
            low: 1.0,
            high: 100.0,
            high_every: 4,
        };
        assert_eq!(tiered.sample(0, &mut rng).unwrap().value(), 100.0);
        assert_eq!(tiered.sample(1, &mut rng).unwrap().value(), 1.0);
        assert_eq!(tiered.sample(4, &mut rng).unwrap().value(), 100.0);
        let uniform = BudgetDistribution::Uniform { lo: 0.5, hi: 1.5 };
        for i in 0..20 {
            let b = uniform.sample(i, &mut rng).unwrap().value();
            assert!((0.5..1.5).contains(&b));
        }
        // Seeded draws reproduce.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(
            uniform.sample(0, &mut a).unwrap(),
            uniform.sample(0, &mut b).unwrap()
        );
        // Invalid parameterizations are typed errors.
        assert!(BudgetDistribution::Fixed(0.0).sample(0, &mut rng).is_err());
        assert!(BudgetDistribution::Uniform { lo: 2.0, hi: 1.0 }
            .sample(0, &mut rng)
            .is_err());
        assert!(BudgetDistribution::Tiered {
            low: 1.0,
            high: 2.0,
            high_every: 0
        }
        .sample(0, &mut rng)
        .is_err());
    }

    #[test]
    fn delta_validation() {
        assert!(Delta::new(0.001).is_ok());
        assert!(Delta::new(0.0).is_err());
        assert!(Delta::new(1.0).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Epsilon::new(0.5).unwrap().to_string(), "ε=0.5");
    }

    #[test]
    fn ledger_open_and_duplicate() {
        let ledger = Ledger::new();
        ledger.open("alice", Epsilon::new(1.0).unwrap()).unwrap();
        assert!(matches!(
            ledger.open("alice", Epsilon::new(2.0).unwrap()),
            Err(CoreError::DuplicateTenant { .. })
        ));
        ledger.open("bob", Epsilon::new(0.5).unwrap()).unwrap();
        assert_eq!(ledger.tenants(), vec!["alice", "bob"]);
        assert_eq!(ledger.tenant_count(), 2);
        assert!(matches!(
            ledger.spent("carol"),
            Err(CoreError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn open_or_attach_requires_bit_identical_budget() {
        let ledger = Ledger::new();
        assert!(ledger
            .open_or_attach("t", Epsilon::new(1.5).unwrap())
            .unwrap());
        // Attach to the same budget is idempotent…
        assert!(!ledger
            .open_or_attach("t", Epsilon::new(1.5).unwrap())
            .unwrap());
        // …but a different budget is still a duplicate-open error.
        assert!(matches!(
            ledger.open_or_attach("t", Epsilon::new(2.0).unwrap()),
            Err(CoreError::DuplicateTenant { .. })
        ));
    }

    #[test]
    fn ledger_sequential_charges_and_exhaustion() {
        let ledger = Ledger::new();
        ledger.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        let c1 = ledger
            .charge("t", "fit-1", Epsilon::new(0.4).unwrap())
            .unwrap();
        assert!((c1.amount - 0.4).abs() < 1e-12);
        let c2 = ledger
            .charge("t", "fit-2", Epsilon::new(0.6).unwrap())
            .unwrap();
        assert!((c2.spent - 1.0).abs() < 1e-12);
        assert!(c2.remaining < 1e-12);
        // The rejection is typed and leaves the account untouched.
        let err = ledger
            .charge("t", "fit-3", Epsilon::new(0.1).unwrap())
            .unwrap_err();
        match err {
            CoreError::BudgetExhausted {
                tenant,
                total,
                spent,
                requested,
            } => {
                assert_eq!(tenant, "t");
                assert!((total - 1.0).abs() < 1e-12);
                assert!((spent - 1.0).abs() < 1e-12);
                assert!((requested - 0.1).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!((ledger.spent("t").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(ledger.snapshot("t").unwrap().charges, 2);
    }

    #[test]
    fn snapshot_is_internally_consistent() {
        let ledger = Ledger::new();
        ledger.open("t", Epsilon::new(2.0).unwrap()).unwrap();
        ledger.charge("t", "a", Epsilon::new(0.5).unwrap()).unwrap();
        let snap = ledger.snapshot("t").unwrap();
        assert_eq!(
            snap,
            AccountSnapshot {
                total: 2.0,
                spent: 0.5,
                remaining: 1.5,
                charges: 1,
            }
        );
        assert!(matches!(
            ledger.snapshot("ghost"),
            Err(CoreError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn ledger_concurrent_charges_never_overdraw() {
        use std::sync::Arc;
        let ledger = Arc::new(Ledger::new());
        ledger.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        let eps = Epsilon::new(0.01).unwrap();
        let successes: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let ledger = Arc::clone(&ledger);
                    scope.spawn(move || {
                        (0..50)
                            .filter(|_| ledger.charge("t", "spin", eps).is_ok())
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        // 400 attempted charges of 0.01 against a budget of 1.0: exactly
        // 100 can fit, regardless of interleaving.
        assert_eq!(successes, 100);
        assert!((ledger.spent("t").unwrap() - 1.0).abs() < 1e-9);
        assert!(ledger.remaining("t").unwrap() >= 0.0);
    }

    // --- durability ------------------------------------------------------

    fn state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blowfish-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(fsync: FsyncPolicy, snapshot_every: u64) -> LedgerDurability {
        LedgerDurability {
            fsync,
            snapshot_every,
        }
    }

    /// Budgets/charges chosen to be non-representable sums, so equality
    /// below is meaningful bit-exactness, not round-number luck.
    fn spend_pattern(ledger: &Ledger) {
        for i in 0..20 {
            let tenant = format!("tenant-{}", i % 5);
            let _ = ledger.open_or_attach(&tenant, Epsilon::new(0.7).unwrap());
            let _ = ledger.charge(&tenant, &format!("c{i}"), Epsilon::new(0.1).unwrap());
        }
    }

    fn snapshots_of(ledger: &Ledger) -> Vec<(String, AccountSnapshot)> {
        ledger
            .tenants()
            .into_iter()
            .map(|t| {
                let s = ledger.snapshot(&t).unwrap();
                (t, s)
            })
            .collect()
    }

    fn assert_bit_identical(a: &[(String, AccountSnapshot)], b: &[(String, AccountSnapshot)]) {
        assert_eq!(a.len(), b.len());
        for ((ta, sa), (tb, sb)) in a.iter().zip(b) {
            assert_eq!(ta, tb);
            assert_eq!(sa.total.to_bits(), sb.total.to_bits(), "total of {ta}");
            assert_eq!(sa.spent.to_bits(), sb.spent.to_bits(), "spent of {ta}");
            assert_eq!(
                sa.remaining.to_bits(),
                sb.remaining.to_bits(),
                "remaining of {ta}"
            );
            assert_eq!(sa.charges, sb.charges, "charges of {ta}");
        }
    }

    #[test]
    fn durable_ledger_recovers_bit_identical_accounts() {
        let dir = state_dir("recover");
        let baseline = Ledger::new();
        spend_pattern(&baseline);

        let (durable, report) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 0)).unwrap();
        assert!(report.is_clean());
        spend_pattern(&durable);
        drop(durable); // crash: no flush, no snapshot

        let (recovered, report) = Ledger::recover(&dir).unwrap();
        assert!(report.is_clean(), "warnings: {:?}", report.warnings);
        assert_eq!(report.wal_records_replayed, 5 + 20);
        // Spend and charge counts survive bit for bit.
        assert_bit_identical(&snapshots_of(&baseline), &snapshots_of(&recovered));
        assert_eq!(recovered.snapshot("tenant-0").unwrap().charges, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_wal_on_top_of_snapshot() {
        let dir = state_dir("snap-then-wal");
        let baseline = Ledger::new();
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 0)).unwrap();
        for ledger in [&baseline, &durable] {
            ledger.open("t", Epsilon::new(1.0).unwrap()).unwrap();
            ledger.charge("t", "a", Epsilon::new(0.1).unwrap()).unwrap();
        }
        let generation = durable.snapshot_now().unwrap();
        assert_eq!(generation, 1);
        for ledger in [&baseline, &durable] {
            ledger.charge("t", "b", Epsilon::new(0.2).unwrap()).unwrap();
        }
        drop(durable);

        let (recovered, report) = Ledger::recover(&dir).unwrap();
        assert_eq!(report.snapshot_generation, Some(1));
        assert_eq!(report.snapshot_tenants, 1);
        assert_eq!(report.wal_records_replayed, 1);
        assert_bit_identical(&snapshots_of(&baseline), &snapshots_of(&recovered));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_with_history_entries_recover_their_totals() {
        // Earlier versions wrote each account's latest `(label, ε)`
        // charges into its snapshot frame. Such a snapshot, laid out by
        // hand here, recovers to bit-identical totals, and the next
        // snapshot drops the entries.
        use wal::{crc32, put_f64_bits, put_str, put_u32, put_u64};
        let dir = state_dir("history-snap");
        std::fs::create_dir_all(&dir).unwrap();
        let history = [("dp-laplace", 0.1), ("mm-range-wavelet", 0.2)];
        let mut bytes = b"BFSNAP/1".to_vec();
        put_u64(&mut bytes, 5); // generation
        put_u64(&mut bytes, 2); // tenant count
        for (tenant, total, spent, entries) in [
            ("acme", 2.5, 0.1 + 0.2, &history[..]),
            ("zeta", 1.0, 0.0, &[][..]),
        ] {
            let mut payload = Vec::new();
            put_str(&mut payload, tenant);
            put_f64_bits(&mut payload, total);
            put_f64_bits(&mut payload, spent);
            put_u64(&mut payload, entries.len() as u64);
            put_u32(&mut payload, entries.len() as u32);
            for (label, amount) in entries {
                put_str(&mut payload, label);
                put_f64_bits(&mut payload, *amount);
            }
            put_u32(&mut bytes, payload.len() as u32);
            put_u32(&mut bytes, crc32(&payload));
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        drop(wal::WalWriter::rotate(&dir, 5, FsyncPolicy::Off).unwrap());

        let (recovered, report) = Ledger::recover(&dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.warnings);
        assert_eq!(report.snapshot_generation, Some(5));
        assert_eq!(report.snapshot_tenants, 2);
        let expected = vec![
            (
                "acme".to_string(),
                AccountSnapshot {
                    total: 2.5,
                    spent: 0.1 + 0.2,
                    remaining: 2.5 - (0.1 + 0.2),
                    charges: 2,
                },
            ),
            (
                "zeta".to_string(),
                AccountSnapshot {
                    total: 1.0,
                    spent: 0.0,
                    remaining: 1.0,
                    charges: 0,
                },
            ),
        ];
        assert_bit_identical(&expected, &snapshots_of(&recovered));
        assert_eq!(recovered.snapshot_now().unwrap(), 6);
        drop(recovered);
        let rewritten = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        let entry_bytes: usize = history.iter().map(|(l, _)| 4 + l.len() + 8).sum();
        assert_eq!(rewritten as usize, bytes.len() - entry_bytes);
        let (again, _) = Ledger::recover(&dir).unwrap();
        assert_bit_identical(&expected, &snapshots_of(&again));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_snapshots_truncate_the_wal() {
        let dir = state_dir("auto-snap");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 8)).unwrap();
        durable.open("t", Epsilon::new(100.0).unwrap()).unwrap();
        for i in 0..20 {
            durable
                .charge("t", &format!("c{i}"), Epsilon::new(0.5).unwrap())
                .unwrap();
        }
        let stats = durable.durability_stats().unwrap();
        assert!(stats.snapshot_generation >= 2, "stats: {stats:?}");
        drop(durable);
        let img = wal::read_wal(&dir.join(WAL_FILE)).unwrap().unwrap();
        assert!(img.records.len() < 8, "{} records", img.records.len());
        let (recovered, _) = Ledger::recover(&dir).unwrap();
        assert_eq!(
            recovered.spent("t").unwrap().to_bits(),
            (0..20).fold(0.0f64, |acc, _| acc + 0.5).to_bits()
        );
        assert_eq!(recovered.snapshot("t").unwrap().charges, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_policy_loses_an_acked_charge_to_a_kill() {
        for policy in [
            FsyncPolicy::PerCharge,
            FsyncPolicy::Batched(64),
            FsyncPolicy::Off,
        ] {
            let dir = state_dir(&format!("kill-{policy}"));
            let (durable, _) = Ledger::durable(&dir, cfg(policy, 0)).unwrap();
            spend_pattern(&durable);
            let expected = snapshots_of(&durable);
            drop(durable); // kill: no flush
            let (recovered, report) = Ledger::recover(&dir).unwrap();
            assert!(report.is_clean(), "{policy}: {:?}", report.warnings);
            assert_eq!(report.wal_records_replayed, 5 + 20, "{policy}");
            assert_bit_identical(&expected, &snapshots_of(&recovered));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn batched_records_reach_the_log_before_their_ack() {
        let dir = state_dir("batched-stats");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::Batched(64), 0)).unwrap();
        durable.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        durable
            .charge("t", "a", Epsilon::new(0.5).unwrap())
            .unwrap();
        let stats = durable.durability_stats().unwrap();
        assert!(stats.wal_bytes > wal::WAL_HEADER_LEN, "{stats:?}");
        let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(on_disk, stats.wal_bytes);
        drop(durable);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_generation_wal_is_ignored_with_a_warning() {
        let dir = state_dir("stale-wal");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 0)).unwrap();
        durable.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        durable
            .charge("t", "a", Epsilon::new(0.25).unwrap())
            .unwrap();
        durable.snapshot_now().unwrap();
        drop(durable);
        // Simulate a crash between snapshot rename and WAL rotation by
        // regressing the log: write a generation-0 wal with a bogus
        // extra charge that is already reflected in the snapshot.
        let mut w = wal::WalWriter::rotate(&dir, 0, FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Charge {
            tenant: "t".to_string(),
            label: "a".to_string(),
            amount: 0.25,
        })
        .unwrap();
        drop(w);

        let (recovered, report) = Ledger::recover(&dir).unwrap();
        assert_eq!(report.wal_records_ignored, 1);
        assert!(!report.is_clean());
        // The stale record was not double-applied.
        assert_eq!(recovered.spent("t").unwrap().to_bits(), 0.25f64.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_recovers_the_durable_prefix() {
        let dir = state_dir("torn-tail");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 0)).unwrap();
        durable.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        durable
            .charge("t", "a", Epsilon::new(0.25).unwrap())
            .unwrap();
        durable
            .charge("t", "b", Epsilon::new(0.25).unwrap())
            .unwrap();
        drop(durable);
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (recovered, report) = Ledger::recover(&dir).unwrap();
        assert!(matches!(report.wal_tail, Some(WalTail::Torn { .. })));
        assert!(!report.is_clean());
        // Charge "b" was torn; the durable prefix (open + charge "a")
        // survives exactly.
        assert_eq!(recovered.spent("t").unwrap().to_bits(), 0.25f64.to_bits());
        assert_eq!(recovered.snapshot("t").unwrap().charges, 1);
        // The ledger keeps serving after tail truncation.
        recovered
            .charge("t", "c", Epsilon::new(0.5).unwrap())
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_refuses_to_open() {
        let dir = state_dir("bad-snap");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 0)).unwrap();
        durable.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        durable.snapshot_now().unwrap();
        drop(durable);
        let snap_path = dir.join(SNAPSHOT_FILE);
        let len = std::fs::metadata(&snap_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&snap_path)
            .unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        assert!(matches!(
            Ledger::recover(&dir),
            Err(CoreError::CorruptState { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_rejections_do_not_log_or_mutate() {
        let dir = state_dir("rejects");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::PerCharge, 0)).unwrap();
        durable.open("t", Epsilon::new(0.3).unwrap()).unwrap();
        durable
            .charge("t", "a", Epsilon::new(0.2).unwrap())
            .unwrap();
        assert!(matches!(
            durable.charge("t", "b", Epsilon::new(0.2).unwrap()),
            Err(CoreError::BudgetExhausted { .. })
        ));
        drop(durable);
        let img = wal::read_wal(&dir.join(WAL_FILE)).unwrap().unwrap();
        // Only the open and the admitted charge were logged.
        assert_eq!(img.records.len(), 2);
        let (recovered, _) = Ledger::recover(&dir).unwrap();
        assert_eq!(recovered.snapshot("t").unwrap().charges, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_concurrent_charges_recover_exactly() {
        use std::sync::Arc;
        let dir = state_dir("concurrent");
        let (durable, _) = Ledger::durable(&dir, cfg(FsyncPolicy::Batched(16), 0)).unwrap();
        let ledger = Arc::new(durable);
        for t in 0..4 {
            ledger
                .open(&format!("t{t}"), Epsilon::new(1.0).unwrap())
                .unwrap();
        }
        let eps = Epsilon::new(0.01).unwrap();
        std::thread::scope(|scope| {
            for w in 0..8 {
                let ledger = Arc::clone(&ledger);
                scope.spawn(move || {
                    for i in 0..50 {
                        let tenant = format!("t{}", (w + i) % 4);
                        let _ = ledger.charge(&tenant, "spin", eps);
                    }
                });
            }
        });
        let expected = snapshots_of(&ledger);
        drop(ledger); // kill: no flush
        let (recovered, _) = Ledger::recover(&dir).unwrap();
        assert_bit_identical(&expected, &snapshots_of(&recovered));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
