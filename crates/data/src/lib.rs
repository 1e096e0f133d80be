//! # blowfish-data
//!
//! Seeded synthetic datasets reproducing Table 1 of *Haney,
//! Machanavajjhala & Ding (VLDB 2015)*. The originals are not
//! redistributable; each stand-in is matched on the published statistics —
//! domain size and scale exactly, zero percentage exactly for the 1-D sets
//! and closely for the tweet grids — with shapes chosen to match each
//! dataset's description (see DESIGN.md §3.5/§7 for the substitution
//! rationale).
//!
//! * [`synthetic`] — the 1-D generators (datasets A–G).
//! * [`twitter`] — the 2-D geo point-set generator (T100/T50/T25, all
//!   aggregations of one point set).
//! * [`aggregate`] — re-binning (dataset D at 512..4096 for Figure 8d).
//! * [`table1`] — the dataset registry and the regenerated Table 1.

pub mod aggregate;
pub mod synthetic;
pub mod table1;
pub mod twitter;

pub use aggregate::aggregate_1d;
pub use synthetic::{generate_1d, scenario_population, Shape, SyntheticSpec};
pub use table1::{
    dataset, dataset_with_seed, paper_stats, table1_rows, DatasetId, PaperStats, Table1Row,
};
pub use twitter::{twitter_grid, TWITTER_SCALE};

/// Box–Muller normal shared across generator modules.
pub(crate) fn synthetic_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Errors reported by dataset utilities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataError {
    /// An aggregation request was invalid.
    BadAggregation {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::BadAggregation { what } => write!(f, "bad aggregation: {what}"),
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DataError::BadAggregation { what: "nope" };
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn figure_8d_aggregation_chain() {
        // Dataset D re-binned to the Figure 8d domain sizes.
        let d = dataset(DatasetId::D);
        for k in [2048usize, 1024, 512] {
            let agg = aggregate_1d(&d, k).unwrap();
            assert_eq!(agg.len(), k);
            assert_eq!(agg.total(), d.total());
        }
    }
}
