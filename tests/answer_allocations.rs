//! The wire `answer` path makes a number of heap allocations that does
//! not grow with the line's range count: the ranges are parsed into one
//! flat buffer, validated and answered without building a query per
//! range, and the values are written into one pre-sized reply. A `tenant`
//! line makes a number that does not grow with its policy's edge count:
//! a distance-threshold policy is classified from its recorded θ without
//! building its edges, and a tree policy's adjacency is flat. A warm `fit`
//! line makes a number that does not grow with the domain: the 2-D
//! strategies keep their edge estimates in flat buffers and run every
//! Privelet pass in one set of work buffers, and θ-grid's Haar plans are
//! derived when its strategy is built, and a fit that replaces a stored
//! handle allocates no new key. A stored release keeps one table of k
//! floats, built in place over the fit's histogram. A θ-line plan keeps
//! the same few hundred bytes whatever k: it holds no spanner graph or
//! incidence. A warm ledger charge makes no allocation at all, in memory
//! or durable: an account holds only its totals, and the WAL encodes the
//! charge from the borrowed tenant and label into a reused frame buffer.
//!
//! A counting global allocator needs a test binary of its own: every
//! other test in a shared binary would count too. The counters are
//! per-thread, so the harness's own threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blowfish_privacy::engine::{Codec, WireReply};
use blowfish_privacy::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(allocated: usize, freed: usize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + allocated as isize - freed as isize));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialised thread-local `Cell`s without a
// destructor, so touching them neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size(), 0);
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size, layout.size());
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // hands out the system allocator's blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(0, layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) the calling thread makes
/// while serving `line`; the reply must start with `ok <verb> `.
fn allocations_of(codec: &mut Codec, service: &Service, line: &str, verb: &str) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let reply = codec.serve(service, line);
    let after = ALLOCATIONS.with(Cell::get);
    match &reply {
        WireReply::Reply(r) if r.starts_with(&format!("ok {verb} ")) => {}
        other => panic!("{line}: {other:?}"),
    }
    drop(reply);
    after - before
}

/// An `answer` line with `n` ranges cycling through `ranges`.
fn answer_line(tenant: &str, ranges: &[&str], n: usize) -> String {
    let mut line = format!("answer {tenant} from=h");
    for r in ranges.iter().cycle().take(n) {
        line.push(' ');
        line.push_str(r);
    }
    line
}

#[test]
fn answer_allocations_do_not_grow_with_the_range_count() {
    let service = Service::new();
    let mut codec = Codec::new();
    for line in [
        "tenant acme policy=line:256 eps=0.5 budget=4 data=uniform:3",
        "tenant geo policy=grid:16 eps=0.5 budget=4 data=uniform:2",
        "fit acme as=h seed=1",
        "fit geo as=h seed=2",
    ] {
        match codec.serve(&service, line) {
            WireReply::Reply(r) if r.starts_with("ok ") => {}
            other => panic!("{line}: {other:?}"),
        }
    }
    let one_d = ["0..255", "17..17", "3..200", "0..9", "128..255", "40..41"];
    let two_d = ["0..15x0..15", "3..3x7..7", "0..0x0..15", "2..11x5..9"];
    for (tenant, ranges) in [("acme", &one_d[..]), ("geo", &two_d[..])] {
        // Warm up once so that no one-off set-up is counted.
        let line = |n| answer_line(tenant, ranges, n);
        allocations_of(&mut codec, &service, &line(1), "answer");
        let counts: Vec<usize> = [1, 8, 32]
            .iter()
            .map(|&n| allocations_of(&mut codec, &service, &line(n), "answer"))
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{tenant}: allocations for 1, 8 and 32 ranges: {counts:?}"
        );
    }
}

#[test]
fn onboarding_allocations_do_not_grow_with_the_policy() {
    let service = Service::new();
    let mut codec = Codec::new();
    // The distance-threshold policies span 4 095 to 523 776 edges; the
    // star's tree incidence is built at onboarding, so it allocates more
    // (108 measured: the graph is copied once, into the policy's `Arc`
    // that the plan cache shares, and its components are found once).
    for (i, (policy, limit)) in [
        ("line:4096", 64),
        ("theta-line:4096:8", 64),
        ("grid:64", 64),
        ("theta-grid:64:2", 64),
        ("complete:1024", 64),
        ("star:4096", 120),
    ]
    .into_iter()
    .enumerate()
    {
        let line = format!("tenant t{i} policy={policy} eps=1 budget=1 data=uniform:1");
        let count = allocations_of(&mut codec, &service, &line, "tenant");
        assert!(
            count <= limit,
            "{policy}: {count} allocations (limit {limit})"
        );
    }
}

#[test]
fn fit_allocations_do_not_grow_with_the_domain() {
    const LIMIT: usize = 32;
    let service = Service::new();
    let mut codec = Codec::new();
    let mut counts = Vec::new();
    // Every planner default at two sizes, then the Privelet baselines and
    // θ-line's group-Privelet estimator.
    for (i, (policy, mech)) in [
        ("line:256", ""),
        ("line:4096", ""),
        ("theta-line:256:4", ""),
        ("theta-line:4096:4", ""),
        ("star:256", ""),
        ("star:4096", ""),
        ("grid:16", ""),
        ("grid:128", ""),
        ("theta-grid:16:2", ""),
        ("theta-grid:64:2", ""),
        ("theta-grid:16:4", ""),
        ("theta-grid:64:4", ""),
        ("line:4096", " mech=dp-privelet-1d"),
        ("grid:128", " mech=dp-privelet-nd"),
        ("theta-line:4096:4", " mech=theta-line-4-group-privelet"),
    ]
    .into_iter()
    .enumerate()
    {
        let tenant = format!("tenant t{i} policy={policy} eps=0.5 budget=100 data=uniform:3");
        allocations_of(&mut codec, &service, &tenant, "tenant");
        // The first fit builds the mechanism and its plans, the second
        // replaces a stored estimate: count the third.
        let fit = |seed: u64| format!("fit t{i} as=h seed={seed}{mech}");
        allocations_of(&mut codec, &service, &fit(1), "fit");
        allocations_of(&mut codec, &service, &fit(2), "fit");
        counts.push((
            policy,
            mech,
            allocations_of(&mut codec, &service, &fit(3), "fit"),
        ));
    }
    assert!(
        counts.iter().all(|&(_, _, count)| count <= LIMIT),
        "allocations per warm fit line (limit {LIMIT}): {counts:?}"
    );
}

#[test]
fn a_stored_release_keeps_one_table_of_k_floats() {
    // A release is stored as its range table alone, built in place over
    // the fit's histogram buffer. A fit under a new handle keeps the k
    // floats of that table plus a constant: the table's header and
    // domain, its `Arc` and the handle's key. Keeping the histogram too
    // would keep 2k floats. A fit that replaces a handle keeps nothing
    // more.
    const CONSTANT: isize = 512;
    let service = Service::new();
    let mut codec = Codec::new();
    let mut kept_bytes = |line: &str| {
        let before = LIVE_BYTES.with(Cell::get);
        allocations_of(&mut codec, &service, line, "fit");
        LIVE_BYTES.with(Cell::get) - before
    };
    let mut onboard = Codec::new();
    for (i, (policy, k)) in [
        ("line:4096", 4096),
        ("theta-line:4096:4", 4096),
        ("star:4096", 4096),
        ("grid:128", 128 * 128),
        ("theta-grid:64:2", 64 * 64),
    ]
    .into_iter()
    .enumerate()
    {
        let tenant = format!("tenant t{i} policy={policy} eps=0.5 budget=100 data=uniform:3");
        allocations_of(&mut onboard, &service, &tenant, "tenant");
        let fit = |handle: &str, seed: u64| format!("fit t{i} as={handle} seed={seed}");
        // The first fit builds the mechanism and its plans.
        kept_bytes(&fit("h", 1));
        let table = 8 * k as isize;
        let added = kept_bytes(&fit("n", 2));
        assert!(
            (table..table + CONSTANT).contains(&added),
            "{policy}: a new handle keeps {added} bytes, the table is {table}"
        );
        let replaced = kept_bytes(&fit("n", 3));
        assert_eq!(
            replaced, 0,
            "{policy}: replacing a handle keeps {replaced} bytes"
        );
    }
}

#[test]
fn theta_line_plans_keep_the_same_bytes_whatever_k() {
    // The heap a plan-cache entry keeps: the shared strategy and what it
    // owns. The parent design kept the spanner graph and its incidence,
    // 770 552 bytes at (4096, 4).
    let kept = |k: usize| {
        let before = LIVE_BYTES.with(Cell::get);
        let plan = std::sync::Arc::new(ThetaLineStrategy::new(k, 4).unwrap());
        let kept = LIVE_BYTES.with(Cell::get) - before;
        drop(plan);
        kept
    };
    let (small, large) = (kept(256), kept(4096));
    assert_eq!(
        small, large,
        "bytes kept by a (256, 4) and a (4096, 4) plan"
    );
    assert!(large < 4096, "a (4096, 4) plan keeps {large} bytes");
}

#[test]
fn warm_charges_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("blowfish-charge-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The default durability fsyncs every charge before its receipt.
    let (durable, _) = Ledger::recover(&dir).unwrap();
    let eps = Epsilon::new(0.5).unwrap();
    for (name, ledger) in [("in-memory", Ledger::new()), ("per-charge", durable)] {
        ledger.open("acme", Epsilon::new(1e6).unwrap()).unwrap();
        // The first charge sizes the WAL's frame buffer.
        ledger.charge("acme", "mm-hist-wavelet", eps).unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..64 {
            ledger.charge("acme", "mm-hist-wavelet", eps).unwrap();
        }
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(made, 0, "{name}: {made} allocations over 64 warm charges");
        assert_eq!(ledger.snapshot("acme").unwrap().charges, 65);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
