//! # blowfish-bench
//!
//! Experiment harnesses regenerating **every table and figure** of the
//! evaluation in *Haney, Machanavajjhala & Ding (VLDB 2015)*, plus
//! criterion micro-benchmarks of the underlying machinery.
//!
//! Binaries (run with `cargo run --release -p blowfish-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 (dataset statistics, paper vs generated) |
//! | `fig3`   | Figure 3 (data-independent error-bound table, measured) |
//! | `fig8`   | Figure 8 (four panels at ε = 0.01 and 0.1) |
//! | `fig9`   | Figure 9 (same panels at ε = 1 and 0.001) |
//! | `fig10`  | Figure 10 (SVD lower bounds, 1-D and 2-D) |
//! | `all_experiments` | everything above in sequence |
//!
//! Each binary accepts `--trials N` and `--queries N` to trade fidelity
//! for speed; defaults follow the paper (5 trials, 10,000 queries).
//!
//! Beyond the figure reproductions, the [`simulate`] module is the
//! trace-driven workload simulator (`blowfish_simulate` bin): seeded
//! multi-tenant scenarios replayed through the engine's `Service` layer
//! and scored against exact ledger/admission/utility oracles, emitting
//! machine-readable [`SimReport`](simulate::SimReport) JSON. The
//! [`report::snapshot`] module is the shared JSON layer those reports
//! and the committed `BENCH_*.json` perf baselines both use — and the
//! `bench_gate` bin diffs fresh bench runs against the baselines in CI.

pub mod error;
pub mod experiments;
pub mod report;
pub mod simulate;

pub use error::BenchError;
pub use experiments::{
    hist_panel, measure_bench, panel_description, range1d_panel, range2d_panel, theta_panel,
    true_answers, Config,
};
pub use report::{print_panel, sci, Measurement};

/// Whether quick mode (`BLOWFISH_BENCH_QUICK`) is active — benches, the
/// workload simulator, and CI steps share the criterion shim's single
/// parse site instead of each re-reading the environment.
pub use criterion::quick_mode;

/// Parses `--flag value` style overrides shared by the figure binaries.
pub fn parse_args(args: &[String]) -> ArgOverrides {
    let mut out = ArgOverrides::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.trials = Some(v);
                    i += 1;
                }
            }
            "--queries" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.queries = Some(v);
                    i += 1;
                }
            }
            "--panel" => {
                if let Some(v) = args.get(i + 1) {
                    out.panel = Some(v.clone());
                    i += 1;
                }
            }
            "--epsilon" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.epsilon = Some(v);
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parsed command-line overrides.
#[derive(Clone, Debug, Default)]
pub struct ArgOverrides {
    /// `--trials N`.
    pub trials: Option<usize>,
    /// `--queries N`.
    pub queries: Option<usize>,
    /// `--panel NAME` (figure-specific).
    pub panel: Option<String>,
    /// `--epsilon X` (replaces the default ε sweep with a single value).
    pub epsilon: Option<f64>,
}

impl ArgOverrides {
    /// Applies the overrides to a paper-default config.
    pub fn apply(&self, mut cfg: Config) -> Config {
        if let Some(t) = self.trials {
            cfg.trials = t;
        }
        if let Some(q) = self.queries {
            cfg.queries = q;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--trials", "3", "--queries", "100", "--panel", "hist"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_args(&args);
        assert_eq!(o.trials, Some(3));
        assert_eq!(o.queries, Some(100));
        assert_eq!(o.panel.as_deref(), Some("hist"));
        let cfg = o.apply(Config::paper(0.1));
        assert_eq!(cfg.trials, 3);
        assert_eq!(cfg.queries, 100);
        assert_eq!(cfg.epsilon, 0.1);
    }

    #[test]
    fn arg_parsing_ignores_unknown_and_bad_values() {
        let args: Vec<String> = ["--unknown", "--trials", "x", "--epsilon", "0.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_args(&args);
        assert_eq!(o.trials, None);
        assert_eq!(o.epsilon, Some(0.5));
    }
}
