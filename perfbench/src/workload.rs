//! The three seeded workloads. One seed generates the tenants, their data,
//! policies and mechanisms, the request stream (tenant, kind, fit seeds and
//! queries), and — per phase — the Poisson arrival times. Every expected
//! reply is computed here too: each tenant's requests travel over one
//! connection in order, so budget admissions are deterministic.

use std::fmt::Write as _;

use blowfish_core::overdraw_slack;

use crate::rng::{cumulative, Rng};

/// Per-workload constants. The latency limits and rated rates are frozen
/// here; `perfbench/README.md` gives the reasons for each value.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub name: &'static str,
    /// p99 latency limit of a ladder step, ms.
    pub limit_ms: f64,
    /// Offered rate of the rated phase, requests per second.
    pub rated_rps: f64,
    /// Whether the server keeps a durable ledger (`--state-dir`,
    /// `--fsync per-charge`).
    pub durable: bool,
}

/// Rate multipliers the `max_rps` ladder may probe; 1.0 is the rated rate.
/// Four steps up reach 10×, past the knee of every workload on a quiet
/// machine.
pub const LADDER: &[f64] = &[0.3, 0.55, 1.0, 1.8, 3.2, 5.6, 10.0];

/// Most ladder steps one run probes besides the rated phase.
pub const MAX_STEPS: usize = 4;

/// Share of the run's `--seconds` spent in the rated phase; the ladder
/// steps share the rest.
pub const RATED_SHARE: f64 = 0.5;

pub const PROFILES: &[Profile] = &[
    Profile {
        name: "answer-hot",
        limit_ms: 50.0,
        rated_rps: 7000.0,
        durable: false,
    },
    Profile {
        name: "fit-durable",
        limit_ms: 100.0,
        rated_rps: 1000.0,
        durable: true,
    },
    Profile {
        name: "policy-churn",
        limit_ms: 500.0,
        rated_rps: 600.0,
        durable: false,
    },
];

/// The seed results are quoted on, and the held-out seed a claimed gain
/// must also hold on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

pub fn profile(name: &str) -> Option<&'static Profile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// A tenant's policy family, as written on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    Line,
    ThetaLine(usize),
    Star,
    Grid,
    ThetaGrid(usize),
}

/// Per-range error variance with a closed form (Theorem 5.2 for the line
/// policy's `Transformed + Laplace`: `2/ε²` per noisy prefix endpoint).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClosedForm {
    LineLaplace,
}

#[derive(Clone, Debug)]
pub struct Tenant {
    pub id: String,
    pub family: Family,
    /// `[k]` for 1-D policies, `[rows, cols]` for grids.
    pub dims: Vec<usize>,
    pub data: Vec<u32>,
    pub eps: f64,
    pub budget: f64,
    /// Explicit `mech=` id, or `None` for the planner default.
    pub mech: Option<&'static str>,
    /// The ε one admitted fit debits.
    pub charge: f64,
    pub closed_form: Option<ClosedForm>,
    pub conn: usize,
    /// Prefix sums (1-D) or the summed-area table (2-D) of `data`.
    prefix: Vec<f64>,
}

impl Tenant {
    pub fn cells(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn policy_token(&self) -> String {
        let k = self.dims[0];
        match self.family {
            Family::Line => format!("line:{k}"),
            Family::ThetaLine(t) => format!("theta-line:{k}:{t}"),
            Family::Star => format!("star:{k}"),
            Family::Grid => format!("grid:{k}"),
            Family::ThetaGrid(t) => format!("theta-grid:{k}:{t}"),
        }
    }

    /// The exact count of a range on the tenant's data.
    pub fn truth(&self, r: &Range) -> f64 {
        let (lo, hi) = (r.lo.map(usize::from), r.hi.map(usize::from));
        match self.dims.as_slice() {
            [_] => self.prefix[hi[0] + 1] - self.prefix[lo[0]],
            [_, cols] => {
                let w = cols + 1;
                let at = |i: usize, j: usize| self.prefix[i * w + j];
                let (r0, c0, r1, c1) = (lo[0], lo[1], hi[0] + 1, hi[1] + 1);
                at(r1, c1) - at(r0, c1) - at(r1, c0) + at(r0, c0)
            }
            _ => unreachable!("tenants are 1-D or 2-D"),
        }
    }

    /// Closed-form error variance of one range, when the mechanism has one.
    pub fn expected_var(&self, r: &Range) -> Option<f64> {
        match self.closed_form? {
            ClosedForm::LineLaplace => {
                let k = self.dims[0];
                let noisy = usize::from(r.lo[0] > 0) + usize::from(usize::from(r.hi[0]) < k - 1);
                Some(noisy as f64 * 2.0 / (self.eps * self.eps))
            }
        }
    }
}

/// An inclusive range query (`lo[1]`/`hi[1]` unused on 1-D tenants).
#[derive(Clone, Debug, PartialEq)]
pub struct Range {
    pub lo: [u16; 2],
    pub hi: [u16; 2],
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Onboard,
    Fit,
    Answer,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Onboard => "onboard",
            Kind::Fit => "fit",
            Kind::Answer => "answer",
        }
    }
}

/// The reply a request must get.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    Onboarded,
    /// `ok fit h charged=<charge> spent=<spent> remaining=<remaining>`,
    /// compared bit for bit.
    Admitted {
        spent: f64,
        remaining: f64,
    },
    /// The typed budget-exhausted rejection.
    Rejected,
    Answers,
}

#[derive(Clone, Debug)]
pub struct Req {
    pub tenant: usize,
    pub kind: Kind,
    /// The wire line, newline included.
    pub line: String,
    pub ranges: Vec<Range>,
    pub expect: Expect,
}

pub struct Workload {
    pub profile: &'static Profile,
    pub tenants: Vec<Tenant>,
    /// Onboarding plus one warm-up fit for every initial tenant.
    pub setup: Vec<Req>,
    /// [`PROBE_FITS`] fits of the initial tenants in turn, for servers that
    /// serve nothing but the set-up and these, one at a time
    /// (`fit_service_ms`); their outcomes follow from the state set-up
    /// leaves.
    pub probe: Vec<Req>,
    /// The request stream; every phase replays a prefix of it.
    pub stream: Vec<Req>,
}

/// The handle every fit stores its estimate under (one per tenant).
pub const HANDLE: &str = "h";

const AMPLE_BUDGET: f64 = 1e6;
const EPS: f64 = 1.0;

/// Fits in [`Workload::probe`].
pub const PROBE_FITS: usize = 128;

struct Generator {
    tenants: Vec<Tenant>,
    /// Oracle state per tenant: running spend, and whether an estimate is
    /// stored under [`HANDLE`].
    spent: Vec<f64>,
    has_estimate: Vec<bool>,
    data_rng: Rng,
    probe_rng: Rng,
    probe: Vec<Req>,
}

impl Generator {
    fn add_tenant(
        &mut self,
        family: Family,
        dims: Vec<usize>,
        budget: f64,
        mech: Option<&'static str>,
        conn: usize,
    ) -> usize {
        let index = self.tenants.len();
        let cells: usize = dims.iter().product();
        let data: Vec<u32> = (0..cells)
            .map(|_| self.data_rng.below(1000) as u32)
            .collect();
        let prefix = prefix_sums(&dims, &data);
        let baseline = mech.is_some_and(|m| m.starts_with("mm-") || m.starts_with("dp-"));
        let charge = if baseline { EPS / 2.0 } else { EPS };
        self.tenants.push(Tenant {
            id: format!("t{index}"),
            family,
            dims,
            data,
            eps: EPS,
            budget,
            mech,
            charge,
            closed_form: (mech == Some("line-laplace")).then_some(ClosedForm::LineLaplace),
            conn,
            prefix,
        });
        self.spent.push(0.0);
        self.has_estimate.push(false);
        index
    }

    fn onboard(&self, t: usize) -> Req {
        let tenant = &self.tenants[t];
        let mut line = format!(
            "tenant {} policy={} eps={} budget={} data=",
            tenant.id,
            tenant.policy_token(),
            tenant.eps,
            tenant.budget
        );
        for (i, v) in tenant.data.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write!(line, "{v}").expect("write to String");
        }
        line.push('\n');
        Req {
            tenant: t,
            kind: Kind::Onboard,
            line,
            ranges: Vec::new(),
            expect: Expect::Onboarded,
        }
    }

    /// A fit, with its outcome predicted by the ledger's own admission rule.
    fn fit(&mut self, t: usize, rng: &mut Rng) -> Req {
        let tenant = &self.tenants[t];
        let mut line = format!(
            "fit {} as={HANDLE} seed={} task=hist",
            tenant.id,
            rng.next_u64()
        );
        if let Some(m) = tenant.mech {
            write!(line, " mech={m}").expect("write to String");
        }
        line.push('\n');
        let new_spent = self.spent[t] + tenant.charge;
        let expect = if new_spent > tenant.budget + overdraw_slack(tenant.budget) {
            Expect::Rejected
        } else {
            self.spent[t] = new_spent;
            self.has_estimate[t] = true;
            Expect::Admitted {
                spent: new_spent,
                remaining: (tenant.budget - new_spent).max(0.0),
            }
        };
        Req {
            tenant: t,
            kind: Kind::Fit,
            line,
            ranges: Vec::new(),
            expect,
        }
    }

    /// An answer batch with a balanced point / range / prefix / marginal
    /// mix (`n` a multiple of 4).
    fn answer(&self, t: usize, n: usize, rng: &mut Rng) -> Req {
        let tenant = &self.tenants[t];
        let mut ranges: Vec<Range> = (0..n)
            .map(|i| range_of_kind(i % 4, &tenant.dims, rng))
            .collect();
        rng.shuffle(&mut ranges);
        let mut line = format!("answer {} from={HANDLE}", tenant.id);
        for r in &ranges {
            match tenant.dims.len() {
                1 => write!(line, " {}..{}", r.lo[0], r.hi[0]),
                _ => write!(line, " {}..{}x{}..{}", r.lo[0], r.hi[0], r.lo[1], r.hi[1]),
            }
            .expect("write to String");
        }
        line.push('\n');
        Req {
            tenant: t,
            kind: Kind::Answer,
            line,
            ranges,
            expect: Expect::Answers,
        }
    }

    /// The set-up, and the probe that follows it on its own servers.
    fn setup(&mut self, rng: &mut Rng) -> Vec<Req> {
        let n = self.tenants.len();
        let mut reqs: Vec<Req> = (0..n).map(|t| self.onboard(t)).collect();
        for t in 0..n {
            reqs.push(self.fit(t, rng));
        }
        // The stream is served on servers that never see the probe, so the
        // oracle state is put back after predicting it.
        let saved = (self.spent.clone(), self.has_estimate.clone());
        let mut probe_rng = self.probe_rng.clone();
        self.probe = (0..PROBE_FITS)
            .map(|i| self.fit(i % n, &mut probe_rng))
            .collect();
        (self.spent, self.has_estimate) = saved;
        reqs
    }
}

fn prefix_sums(dims: &[usize], data: &[u32]) -> Vec<f64> {
    match dims {
        [k] => {
            let mut p = vec![0.0; k + 1];
            for i in 0..*k {
                p[i + 1] = p[i] + f64::from(data[i]);
            }
            p
        }
        [rows, cols] => {
            let w = cols + 1;
            let mut p = vec![0.0; (rows + 1) * w];
            for i in 0..*rows {
                for j in 0..*cols {
                    p[(i + 1) * w + j + 1] =
                        f64::from(data[i * cols + j]) + p[i * w + j + 1] + p[(i + 1) * w + j]
                            - p[i * w + j];
                }
            }
            p
        }
        _ => unreachable!("tenants are 1-D or 2-D"),
    }
}

/// Kind 0 point, 1 range, 2 prefix, 3 marginal (the 1-D total; a full row
/// or column in 2-D).
fn range_of_kind(kind: usize, dims: &[usize], rng: &mut Rng) -> Range {
    let r = range_bounds(kind, dims, rng);
    let narrow =
        |v: [usize; 2]| v.map(|x| u16::try_from(x).expect("domains stay below 65536 cells a side"));
    Range {
        lo: narrow(r.0),
        hi: narrow(r.1),
    }
}

fn range_bounds(kind: usize, dims: &[usize], rng: &mut Rng) -> ([usize; 2], [usize; 2]) {
    struct Range {
        lo: [usize; 2],
        hi: [usize; 2],
    }
    let span = |rng: &mut Rng, k: usize| {
        let (a, b) = (rng.below(k), rng.below(k));
        (a.min(b), a.max(b))
    };
    let r = match (kind, dims) {
        (0, [k]) => {
            let i = rng.below(*k);
            Range {
                lo: [i, 0],
                hi: [i, 0],
            }
        }
        (1, [k]) => {
            let (a, b) = span(rng, *k);
            Range {
                lo: [a, 0],
                hi: [b, 0],
            }
        }
        (2, [k]) => Range {
            lo: [0, 0],
            hi: [rng.below(*k), 0],
        },
        (_, [k]) => Range {
            lo: [0, 0],
            hi: [k - 1, 0],
        },
        (0, [r, c]) => {
            let (i, j) = (rng.below(*r), rng.below(*c));
            Range {
                lo: [i, j],
                hi: [i, j],
            }
        }
        (1, [r, c]) => {
            let ((a, b), (x, y)) = (span(rng, *r), span(rng, *c));
            Range {
                lo: [a, x],
                hi: [b, y],
            }
        }
        (2, [r, c]) => Range {
            lo: [0, 0],
            hi: [rng.below(*r), rng.below(*c)],
        },
        (_, [r, c]) => {
            if rng.below(2) == 0 {
                let i = rng.below(*r);
                Range {
                    lo: [i, 0],
                    hi: [i, c - 1],
                }
            } else {
                let j = rng.below(*c);
                Range {
                    lo: [0, j],
                    hi: [r - 1, j],
                }
            }
        }
        _ => unreachable!("tenants are 1-D or 2-D"),
    };
    (r.lo, r.hi)
}

fn family_dims(family: Family, k1: usize, k2: usize) -> Vec<usize> {
    match family {
        Family::Grid | Family::ThetaGrid(_) => vec![k2, k2],
        _ => vec![k1],
    }
}

/// Assigns each weight to the connection with the smaller running load,
/// heaviest first, so the server's event loops see balanced traffic.
fn balance(weights: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let mut load = [0.0f64; 2];
    let mut conn = vec![0; weights.len()];
    for i in order {
        let c = usize::from(load[1] < load[0]);
        conn[i] = c;
        load[c] += weights[i];
    }
    conn
}

/// Generates `name`'s workload for `seed` with a stream of `n` requests.
pub fn generate(profile: &'static Profile, seed: u64, n: usize) -> Workload {
    let mut b = Generator {
        tenants: Vec::new(),
        spent: Vec::new(),
        has_estimate: Vec::new(),
        data_rng: Rng::fork(seed, 1),
        probe_rng: Rng::fork(seed, 4),
        probe: Vec::new(),
    };
    let mut tenant_rng = Rng::fork(seed, 2);
    let mut req_rng = Rng::fork(seed, 3);
    let mut stream = Vec::with_capacity(n);
    let setup = match profile.name {
        "answer-hot" => answer_hot(&mut b, &mut req_rng, n, &mut stream),
        "fit-durable" => fit_durable(&mut b, &mut tenant_rng, &mut req_rng, n, &mut stream),
        "policy-churn" => policy_churn(&mut b, &mut tenant_rng, &mut req_rng, n, &mut stream),
        other => unreachable!("unknown workload {other}"),
    };
    Workload {
        profile,
        tenants: b.tenants,
        setup,
        probe: b.probe,
        stream,
    }
}

const HOT_FAMILIES: [Family; 5] = [
    Family::Line,
    Family::ThetaLine(4),
    Family::Star,
    Family::Grid,
    Family::ThetaGrid(2),
];

fn answer_hot(b: &mut Generator, rrng: &mut Rng, n: usize, out: &mut Vec<Req>) -> Vec<Req> {
    const TENANTS: usize = 64;
    // zipf(1.1) by tenant index. Families cycle with the index, so each
    // family's share of the traffic (and so the utility mix) is the same
    // for every seed.
    let weights: Vec<f64> = (0..TENANTS)
        .map(|r| 1.0 / ((r + 1) as f64).powf(1.1))
        .collect();
    let conns = balance(&weights);
    let mut lines = 0;
    for t in 0..TENANTS {
        let family = HOT_FAMILIES[t % HOT_FAMILIES.len()];
        // Every other line tenant names line-laplace, whose error has a
        // closed form (the utility oracle); the rest use planner defaults.
        let mech = (family == Family::Line).then(|| {
            lines += 1;
            (lines % 2 == 0).then_some("line-laplace")
        });
        b.add_tenant(
            family,
            family_dims(family, 256, 16),
            AMPLE_BUDGET,
            mech.flatten(),
            conns[t],
        );
    }
    let setup = b.setup(rrng);
    let cum = cumulative(weights);
    while out.len() < n {
        let t = rrng.weighted(&cum);
        if rrng.unit() < 0.1 {
            let req = b.fit(t, rrng);
            out.push(req);
        } else {
            out.push(b.answer(t, 32, rrng));
        }
    }
    setup
}

fn fit_durable(
    b: &mut Generator,
    trng: &mut Rng,
    rrng: &mut Rng,
    n: usize,
    out: &mut Vec<Req>,
) -> Vec<Req> {
    const TENANTS: usize = 32;
    const FAMILIES: [Family; 3] = [Family::Line, Family::ThetaLine(4), Family::Star];
    // Exactly a quarter of the tenants get a budget below one release: every
    // fourth tenant of a seeded order grouped by family, so each family
    // loses the same share for every seed.
    let mut order: Vec<usize> = (0..TENANTS).collect();
    trng.shuffle(&mut order);
    order.sort_by_key(|&t| t % FAMILIES.len());
    let mut starved = [false; TENANTS];
    for &t in order.iter().step_by(4) {
        starved[t] = true;
    }
    for t in 0..TENANTS {
        let family = FAMILIES[t % FAMILIES.len()];
        let budget = if starved[t] { EPS / 2.0 } else { AMPLE_BUDGET };
        b.add_tenant(family, vec![2048], budget, None, t % 2);
    }
    let setup = b.setup(rrng);
    let ample: Vec<usize> = (0..TENANTS).filter(|&t| !starved[t]).collect();
    while out.len() < n {
        if rrng.unit() < 0.85 {
            let t = rrng.below(TENANTS);
            let req = b.fit(t, rrng);
            out.push(req);
        } else {
            let t = ample[rrng.below(ample.len())];
            out.push(b.answer(t, 8, rrng));
        }
    }
    setup
}

const CHURN_MECHS: [Option<&str>; 5] = [
    Some("mm-hist-hierarchical"),
    Some("mm-hist-wavelet"),
    Some("mm-range-hierarchical"),
    Some("mm-range-wavelet"),
    None,
];

const K_STRATA: usize = 16;

/// The k of stratum `s` of `strata` equal slices of log k over 64..=4096, at
/// position `u` in 0..1 within the slice.
fn k_in_stratum(s: usize, strata: usize, u: f64) -> usize {
    let x = (s as f64 + u) / strata as f64;
    ((64.0 * 64f64.powf(x)).round() as usize).clamp(64, 4096)
}

/// Draws k log-uniform in 64..=4096, θ in 1..=8 and a mechanism. Each block
/// of 80 joiners holds every (k stratum, mechanism) pair once, in a seeded
/// order, so every seed plans a like mix of cold builds.
struct ChurnDraws {
    block: Vec<(usize, usize)>,
}

impl ChurnDraws {
    fn next(&mut self, rng: &mut Rng) -> (usize, usize, Option<&'static str>) {
        if self.block.is_empty() {
            self.block = (0..K_STRATA)
                .flat_map(|s| (0..CHURN_MECHS.len()).map(move |m| (s, m)))
                .collect();
            rng.shuffle(&mut self.block);
        }
        let (stratum, mech) = self.block.pop().expect("refilled above");
        let k = k_in_stratum(stratum, K_STRATA, rng.unit());
        (k, rng.between(1, 8), CHURN_MECHS[mech])
    }
}

fn policy_churn(
    b: &mut Generator,
    trng: &mut Rng,
    rrng: &mut Rng,
    n: usize,
    out: &mut Vec<Req>,
) -> Vec<Req> {
    const INITIAL: usize = 8;
    const JOIN_SHARE: f64 = 1.0 / 20.0;
    const RECENCY: f64 = 0.8;
    let mut draws = ChurnDraws { block: Vec::new() };
    let mut add = |b: &mut Generator, trng: &mut Rng| {
        let (k, theta, mech) = draws.next(trng);
        let conn = b.tenants.len() % 2;
        b.add_tenant(Family::ThetaLine(theta), vec![k], AMPLE_BUDGET, mech, conn)
    };
    // The initial tenants, planned during set-up, have fixed policies: one
    // per eighth of the k range (at its middle), θ = 1..=8 and the
    // mechanisms in turn, so that set-up does the same planning work for
    // every seed. The seed still draws their data.
    for i in 0..INITIAL {
        b.add_tenant(
            Family::ThetaLine(i + 1),
            vec![k_in_stratum(i, INITIAL, 0.5)],
            AMPLE_BUDGET,
            CHURN_MECHS[i % CHURN_MECHS.len()],
            i % 2,
        );
    }
    let setup = b.setup(rrng);
    // Traffic skews to recent tenants: recency rank r has weight 0.8^r.
    let recency = cumulative((0..64).map(|r| RECENCY.powi(r)));
    while out.len() < n {
        if rrng.unit() < JOIN_SHARE {
            let t = add(b, trng);
            out.push(b.onboard(t));
            continue;
        }
        let newest = b.tenants.len() - 1;
        let t = newest - rrng.weighted(&recency).min(newest);
        // A tenant's first request after joining is its (cold) fit.
        if !b.has_estimate[t] || rrng.unit() < 0.3 {
            let req = b.fit(t, rrng);
            out.push(req);
        } else {
            out.push(b.answer(t, 16, rrng));
        }
    }
    setup
}

/// Poisson arrival offsets (ns from the phase start) for `n` requests at
/// `rate` per second; `tag` keeps each phase's arrivals independent.
pub fn arrivals(seed: u64, tag: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::fork(seed, 1000 + tag);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(rate);
            (t * 1e9) as u64
        })
        .collect()
}

/// FNV-1a over every wire line of the setup, probe and stream, for checking
/// that a seed reproduces its request stream byte for byte.
pub fn stream_digest(w: &Workload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for req in w.setup.iter().chain(&w.probe).chain(&w.stream) {
        for &byte in req.line.as_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for p in PROFILES {
            let a = generate(p, 7, 2000);
            let b = generate(p, 7, 2000);
            assert_eq!(stream_digest(&a), stream_digest(&b), "{}", p.name);
            let lines = |w: &Workload| w.stream.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
            assert_eq!(lines(&a), lines(&b));
            assert_ne!(
                stream_digest(&a),
                stream_digest(&generate(p, 8, 2000)),
                "{}",
                p.name
            );
            // A longer stream extends the shorter one: phases replay prefixes.
            let longer = generate(p, 7, 3000);
            assert_eq!(lines(&a)[..], lines(&longer)[..2000]);
            assert_eq!(arrivals(7, 1, 100.0, 50), arrivals(7, 1, 100.0, 50));
        }
    }

    #[test]
    fn poisson_arrivals_have_the_offered_rate() {
        let a = arrivals(3, 0, 2000.0, 20_000);
        let secs = *a.last().unwrap() as f64 / 1e9;
        assert!(
            (20_000.0 / secs - 2000.0).abs() < 60.0,
            "{}",
            20_000.0 / secs
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mixes_match_their_definitions() {
        let hot = generate(profile("answer-hot").unwrap(), 1, 20_000);
        let share = |w: &Workload, k: Kind| {
            w.stream.iter().filter(|r| r.kind == k).count() as f64 / w.stream.len() as f64
        };
        assert!((share(&hot, Kind::Fit) - 0.1).abs() < 0.01);
        assert_eq!(share(&hot, Kind::Onboard), 0.0);
        assert!(hot
            .stream
            .iter()
            .filter(|r| r.kind == Kind::Answer)
            .all(|r| r.ranges.len() == 32));

        // The probe continues from set-up; the stream does not see it.
        let first = hot.stream.iter().find(|r| r.kind == Kind::Fit).unwrap();
        let t = &hot.tenants[first.tenant];
        let spent = 2.0 * t.charge;
        assert_eq!(
            first.expect,
            Expect::Admitted {
                spent,
                remaining: t.budget - spent
            }
        );
        assert_eq!(hot.probe.len(), PROBE_FITS);
        let probed = |w: &Workload, t: usize| w.probe.iter().filter(|r| r.tenant == t).count();
        assert!((0..64).all(|t| probed(&hot, t) == PROBE_FITS / 64));

        let durable = generate(profile("fit-durable").unwrap(), 1, 20_000);
        assert_eq!(share(&durable, Kind::Onboard), 0.0);
        for r in &durable.probe {
            let t = &durable.tenants[r.tenant];
            assert_eq!(r.kind, Kind::Fit);
            assert_eq!(r.expect == Expect::Rejected, t.budget < t.charge);
        }
        let starved = durable
            .tenants
            .iter()
            .filter(|t| t.budget < t.charge)
            .count();
        assert_eq!(starved, 8);
        for r in &durable.stream {
            let t = &durable.tenants[r.tenant];
            if r.kind == Kind::Fit && t.budget < t.charge {
                assert_eq!(r.expect, Expect::Rejected);
            }
            if r.kind == Kind::Answer {
                assert!(
                    t.budget >= t.charge,
                    "answers go to tenants that hold an estimate"
                );
            }
        }

        let churn = generate(profile("policy-churn").unwrap(), 1, 20_000);
        assert!((share(&churn, Kind::Onboard) - 0.05).abs() < 0.01);
        let ks: Vec<usize> = churn.tenants.iter().map(|t| t.dims[0]).collect();
        assert!(ks.iter().all(|&k| (64..=4096).contains(&k)));
        assert!(ks.iter().any(|&k| k <= 512) && ks.iter().any(|&k| k > 512));
        // Every answer follows an admitted fit of its tenant.
        let mut fitted = vec![false; churn.tenants.len()];
        for r in churn.setup.iter().chain(&churn.stream) {
            match r.kind {
                Kind::Fit => fitted[r.tenant] = true,
                Kind::Answer => assert!(fitted[r.tenant]),
                Kind::Onboard => {}
            }
        }
    }

    #[test]
    fn truth_sums_the_data() {
        let w = generate(profile("answer-hot").unwrap(), 5, 10);
        for t in &w.tenants[..5] {
            let mut rng = Rng::new(9);
            for kind in 0..4 {
                let r = range_of_kind(kind, &t.dims, &mut rng);
                let cols = *t.dims.get(1).unwrap_or(&1);
                let mut sum = 0.0;
                for i in usize::from(r.lo[0])..=usize::from(r.hi[0]) {
                    for j in usize::from(r.lo[1])..=usize::from(r.hi[1]) {
                        sum += f64::from(t.data[i * cols + j]);
                    }
                }
                assert_eq!(t.truth(&r), sum);
            }
        }
    }
}
