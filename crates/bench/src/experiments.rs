//! The shared experiment loops behind Figures 8 and 9, driven through the
//! `blowfish-engine` registry.
//!
//! Section 6 protocol: for each task, compare `ε/2`-differentially-private
//! baselines against `(ε, G)`-Blowfish strategies, reporting average mean
//! squared error per query over independent runs (the paper uses 5) on
//! 10,000 random range queries (or the full histogram workload).
//!
//! Every panel opens one engine [`Session`] per dataset — planning the
//! policy artifacts once — and iterates the registry lineup for its task,
//! so the panels and any future serving path share one code path and one
//! mechanism catalogue. Per-cell seeds are derived exactly as the
//! pre-engine harness did, keeping panel outputs bit-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::{measure_error, DataVector, Domain, Epsilon, ErrorReport, RangeQuery};
use blowfish_data::{aggregate_1d, dataset, DatasetId};
use blowfish_engine::{Policy, Session, Task};
use blowfish_strategies::{Estimate, Mechanism};

use crate::error::BenchError;
use crate::report::Measurement;

/// Experiment configuration shared by every panel.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Total Blowfish budget ε (baselines run at ε/2).
    pub epsilon: f64,
    /// Independent runs per (dataset, algorithm) cell (paper: 5).
    pub trials: usize,
    /// Random range queries per run (paper: 10,000).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl Config {
    /// Paper defaults at the given ε.
    pub fn paper(epsilon: f64) -> Self {
        Config {
            epsilon,
            trials: 5,
            queries: 10_000,
            seed: 0x5EED,
        }
    }

    fn eps(&self) -> Result<Epsilon, BenchError> {
        Ok(Epsilon::new(self.epsilon)?)
    }
}

/// Runs `trials` independent executions of a fallible estimator and
/// reports the per-trial MSE statistics with [`BenchError`] propagation.
/// Shared by the panel loops, `fig3`, and `ablations`; the statistics
/// themselves are delegated to core's `measure_error` so they cannot
/// drift between the bench harnesses and the core error harness.
pub fn measure_bench<F>(truth: &[f64], trials: usize, mut run: F) -> Result<ErrorReport, BenchError>
where
    F: FnMut(usize) -> Result<Vec<f64>, BenchError>,
{
    if trials == 0 || truth.is_empty() {
        return Err(BenchError::Config {
            what: "trials must be positive and truth non-empty",
        });
    }
    // Collect the fallible estimates first (BenchError), then feed them
    // to the infallible core statistics loop (CoreError).
    let mut estimates = Vec::with_capacity(trials);
    for t in 0..trials {
        estimates.push(run(t)?);
    }
    let mut next = estimates.into_iter();
    Ok(measure_error(truth, trials, |_| {
        Ok(next.next().expect("one estimate per trial"))
    })?)
}

/// The exact answers to `specs` over `x`: an [`Estimate`] of the true
/// counts, answered like any release.
pub fn true_answers(x: &DataVector, specs: &[RangeQuery]) -> Result<Vec<f64>, BenchError> {
    Ok(Estimate::new(x.domain(), x.counts().to_vec())?.answer_many(specs)?)
}

/// Runs one (dataset, mechanism) cell: `trials` independent fits, each
/// answered through the fitted [`Estimate`].
fn run_cell(
    x: &DataVector,
    truth: &[f64],
    mech: &dyn Mechanism,
    answer: impl Fn(&Estimate) -> Result<Vec<f64>, BenchError>,
    trials: usize,
    seed: u64,
) -> Result<(f64, f64), BenchError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let report = measure_bench(truth, trials, |_| {
        let est = mech.fit(x, &mut rng)?;
        answer(&est)
    })?;
    Ok((report.mean_mse, report.std_mse))
}

/// One dataset column of a panel: the session, the data/truth pair, and
/// the per-cell seed base (master seed ⊕ column salt; the algorithm-name
/// hash is mixed in per registry entry, reproducing the historical
/// per-cell seeds exactly).
struct PanelColumn<'a> {
    session: &'a Session,
    task: Task,
    x: &'a DataVector,
    truth: &'a [f64],
    column: &'a str,
    trials: usize,
    seed_base: u64,
}

impl PanelColumn<'_> {
    /// Runs every registry mechanism of the column's task, fanning the
    /// cells out across cores ([`blowfish_engine::parallel_map`]). Each
    /// cell's RNG is seeded exactly as the serial harness seeded it, and
    /// cells never share a random stream, so the measurements are
    /// bit-identical to the historical serial loop (pinned by
    /// `tests/engine_equivalence.rs`).
    fn run(
        &self,
        answer: impl Fn(&Estimate) -> Result<Vec<f64>, BenchError> + Sync,
        out: &mut Vec<Measurement>,
    ) -> Result<(), BenchError> {
        let specs = self.session.registry(self.task)?;
        let cells =
            blowfish_engine::parallel_map(&specs, |_, spec| -> Result<Measurement, BenchError> {
                let mech = self.session.mechanism(spec)?;
                let name = spec.label();
                let (mse, std) = run_cell(
                    self.x,
                    self.truth,
                    mech.as_ref(),
                    &answer,
                    self.trials,
                    self.seed_base ^ hash(name),
                )?;
                Ok(Measurement {
                    column: self.column.to_string(),
                    algorithm: name.to_string(),
                    mse,
                    std,
                })
            });
        for cell in cells {
            out.push(cell?);
        }
        Ok(())
    }
}

/// The Hist panel (Figures 8b/8f, 9b/9f): the identity workload on
/// datasets A–G under `G¹_k`.
pub fn hist_panel(cfg: &Config) -> Result<Vec<Measurement>, BenchError> {
    let eps = cfg.eps()?;
    let mut out = Vec::new();
    for id in DatasetId::one_dimensional() {
        let x = dataset(id);
        let truth = x.counts().to_vec();
        let session = Session::with_policy(x.domain().clone(), Policy::Theta1d { theta: 1 }, eps)?;
        PanelColumn {
            session: &session,
            task: Task::Histogram,
            x: &x,
            truth: &truth,
            column: id.name(),
            trials: cfg.trials,
            seed_base: cfg.seed ^ hash(id.name()),
        }
        .run(|est| Ok(est.histogram().to_vec()), &mut out)?;
    }
    Ok(out)
}

/// The 1D-Range panel (Figures 8c/8g, 9c/9g): random 1-D ranges on A–G
/// under `G¹_k`.
pub fn range1d_panel(cfg: &Config) -> Result<Vec<Measurement>, BenchError> {
    let eps = cfg.eps()?;
    let mut out = Vec::new();
    for id in DatasetId::one_dimensional() {
        let x = dataset(id);
        let d = Domain::one_dim(x.len());
        let mut qrng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD);
        let specs = blowfish_core::random_range_specs(&d, cfg.queries, &mut qrng);
        let truth = true_answers(&x, &specs)?;
        let session = Session::with_policy(d, Policy::Theta1d { theta: 1 }, eps)?;
        PanelColumn {
            session: &session,
            task: Task::Range1d,
            x: &x,
            truth: &truth,
            column: id.name(),
            trials: cfg.trials,
            seed_base: cfg.seed ^ hash(id.name()),
        }
        .run(|est| Ok(est.answer_many(&specs)?), &mut out)?;
    }
    Ok(out)
}

/// The `G⁴_k` panel (Figures 8d/8h, 9d/9h): dataset D aggregated to
/// domain sizes 512–4096, random 1-D ranges.
pub fn theta_panel(cfg: &Config) -> Result<Vec<Measurement>, BenchError> {
    let eps = cfg.eps()?;
    let base = dataset(DatasetId::D);
    let mut out = Vec::new();
    for k in [512usize, 1024, 2048, 4096] {
        let x = if k == 4096 {
            base.clone()
        } else {
            aggregate_1d(&base, k)?
        };
        let d = Domain::one_dim(k);
        let mut qrng = StdRng::seed_from_u64(cfg.seed ^ 0xDCBA ^ k as u64);
        let specs = blowfish_core::random_range_specs(&d, cfg.queries, &mut qrng);
        let truth = true_answers(&x, &specs)?;
        let session = Session::with_policy(d, Policy::Theta1d { theta: 4 }, eps)?;
        PanelColumn {
            session: &session,
            task: Task::Range1d,
            x: &x,
            truth: &truth,
            column: &k.to_string(),
            trials: cfg.trials,
            seed_base: cfg.seed ^ k as u64,
        }
        .run(|est| Ok(est.answer_many(&specs)?), &mut out)?;
    }
    Ok(out)
}

/// The 2D-Range panel (Figures 8a/8e, 9a/9e): random 2-D ranges on the
/// tweet grids under `G¹_{k²}`.
pub fn range2d_panel(cfg: &Config) -> Result<Vec<Measurement>, BenchError> {
    let eps = cfg.eps()?;
    let mut out = Vec::new();
    for id in DatasetId::two_dimensional() {
        let x = dataset(id);
        let k = x.domain().dim(0);
        let d = Domain::square(k);
        let mut qrng = StdRng::seed_from_u64(cfg.seed ^ 0x2D2D ^ k as u64);
        let specs: Vec<RangeQuery> = blowfish_core::random_range_specs(&d, cfg.queries, &mut qrng);
        let truth = true_answers(&x, &specs)?;
        let session = Session::with_policy(d, Policy::Theta2d { theta: 1 }, eps)?;
        PanelColumn {
            session: &session,
            task: Task::Range2d,
            x: &x,
            truth: &truth,
            column: id.name(),
            trials: cfg.trials,
            seed_base: cfg.seed ^ k as u64,
        }
        .run(|est| Ok(est.answer_many(&specs)?), &mut out)?;
    }
    Ok(out)
}

/// Small deterministic string hash for seed derivation.
fn hash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Returns the workload description line printed by the figure binaries.
pub fn panel_description(name: &str, cfg: &Config) -> String {
    format!(
        "{name}: ε={} (baselines at ε/2), {} trials, {} random queries",
        cfg.epsilon, cfg.trials, cfg.queries
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            epsilon: 1.0,
            trials: 2,
            queries: 50,
            seed: 1,
        }
    }

    #[test]
    fn hist_panel_shape() {
        let rows = hist_panel(&tiny()).unwrap();
        // 7 datasets × 5 algorithms.
        assert_eq!(rows.len(), 35);
        assert!(rows.iter().all(|m| m.mse.is_finite() && m.mse >= 0.0));
    }

    #[test]
    fn range1d_panel_shape() {
        let rows = range1d_panel(&tiny()).unwrap();
        assert_eq!(rows.len(), 35);
    }

    #[test]
    fn theta_panel_shape() {
        let rows = theta_panel(&tiny()).unwrap();
        // 4 domain sizes × 4 algorithms.
        assert_eq!(rows.len(), 16);
    }

    #[test]
    fn range2d_panel_shape() {
        let mut cfg = tiny();
        cfg.queries = 30;
        let rows = range2d_panel(&cfg).unwrap();
        // 3 datasets × 3 algorithms.
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn parallel_panel_output_is_identical_to_serial_runner() {
        // PanelColumn::run fans cells across threads; re-deriving every
        // cell serially with the same per-cell seeds must reproduce the
        // measurements bit-for-bit (f64 equality, no tolerance).
        let cfg = tiny();
        let rows = hist_panel(&cfg).unwrap();
        let eps = cfg.eps().unwrap();
        let mut serial = Vec::new();
        for id in DatasetId::one_dimensional() {
            let x = dataset(id);
            let truth = x.counts().to_vec();
            let session =
                Session::with_policy(x.domain().clone(), Policy::Theta1d { theta: 1 }, eps)
                    .unwrap();
            for spec in session.registry(Task::Histogram).unwrap() {
                let mech = session.mechanism(&spec).unwrap();
                let name = spec.label();
                let (mse, std) = run_cell(
                    &x,
                    &truth,
                    mech.as_ref(),
                    |est| Ok(est.histogram().to_vec()),
                    cfg.trials,
                    (cfg.seed ^ hash(id.name())) ^ hash(name),
                )
                .unwrap();
                serial.push((id.name().to_string(), name.to_string(), mse, std));
            }
        }
        assert_eq!(rows.len(), serial.len());
        for (m, (column, algorithm, mse, std)) in rows.iter().zip(&serial) {
            assert_eq!(&m.column, column);
            assert_eq!(&m.algorithm, algorithm);
            assert!(
                m.mse == *mse && m.std == *std,
                "parallel panel diverged from serial: {column}/{algorithm}"
            );
        }
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = tiny();
        cfg.epsilon = -1.0;
        assert!(hist_panel(&cfg).is_err());
        let mut cfg = tiny();
        cfg.trials = 0;
        assert!(range1d_panel(&cfg).is_err());
    }

    #[test]
    fn helpers() {
        let cfg = tiny();
        assert!(panel_description("Hist", &cfg).contains("ε=1"));
        assert_ne!(hash("a"), hash("b"));
    }
}
