//! Synthetic equivalent of the paper's two-dimensional Twitter dataset
//! (Table 1: T100 / T50 / T25).
//!
//! The original is 1.9×10⁵ geo-tagged tweets over the western USA,
//! aggregated onto 100×100, 50×50, and 25×25 grids. The synthetic stand-in
//! samples the same number of points from a mixture of population centers
//! (a few dense metros, several mid-size towns, and a thin rural
//! background) over the unit square, then bins at the three resolutions —
//! so the three grids are aggregations of a *single* point set, exactly as
//! in the paper. Mixture parameters are tuned so the per-resolution zero
//! percentages land near Table 1's (84.93 / 69.24 / 43.20).

use rand::Rng as _;
use rand::SeedableRng;

use blowfish_core::{DataVector, Domain};

/// Number of simulated tweets (Table 1 "Scale").
pub const TWITTER_SCALE: usize = 190_000;

/// A population center: location, spread, and mixture weight.
struct Center {
    x: f64,
    y: f64,
    sigma: f64,
    weight: f64,
}

/// Samples the synthetic tweet point set (positions in `[0,1)²`).
///
/// The mixture parameters were tuned by randomized search against the
/// Table 1 zero percentages at all three resolutions simultaneously
/// (`table1` measures 82.99 / 71.40 / 43.36 vs published 84.93 / 69.24 /
/// 43.20).
fn sample_points(seed: u64) -> Vec<(f64, f64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Fixed geography (placement seeded separately so the map itself is
    // stable): 3 regional clusters with diffuse halos, 13 dense towns,
    // plus a thin rural background.
    let mut geo = rand::rngs::StdRng::seed_from_u64(0xB10F15);
    let mut centers = Vec::new();
    let mut metros = Vec::new();
    for _ in 0..3 {
        let (x, y) = (geo.gen_range(0.1..0.9), geo.gen_range(0.1..0.9));
        metros.push((x, y));
        centers.push(Center {
            x,
            y,
            sigma: 0.021_376_9,
            weight: 4.271_45,
        });
    }
    for _ in 0..13 {
        centers.push(Center {
            x: geo.gen_range(0.05..0.95),
            y: geo.gen_range(0.05..0.95),
            sigma: 0.008_176_6,
            weight: 2.933_30,
        });
    }
    for &(x, y) in &metros {
        centers.push(Center {
            x,
            y,
            sigma: 0.029_407_5,
            weight: 2.130_40,
        });
    }
    let background_weight = 0.107_192_6;
    let total_w: f64 = centers.iter().map(|c| c.weight).sum::<f64>() + background_weight;

    let mut points = Vec::with_capacity(TWITTER_SCALE);
    while points.len() < TWITTER_SCALE {
        let mut pick = rng.gen::<f64>() * total_w;
        let mut chosen: Option<&Center> = None;
        for c in &centers {
            if pick < c.weight {
                chosen = Some(c);
                break;
            }
            pick -= c.weight;
        }
        let (x, y) = match chosen {
            Some(c) => (
                c.x + c.sigma * super::synthetic_normal(&mut rng),
                c.y + c.sigma * super::synthetic_normal(&mut rng),
            ),
            None => (rng.gen::<f64>(), rng.gen::<f64>()),
        };
        if (0.0..1.0).contains(&x) && (0.0..1.0).contains(&y) {
            points.push((x, y));
        }
    }
    points
}

/// Bins a point set onto a `k × k` grid.
fn bin(points: &[(f64, f64)], k: usize) -> DataVector {
    let mut counts = vec![0.0; k * k];
    for &(x, y) in points {
        let r = ((y * k as f64) as usize).min(k - 1);
        let c = ((x * k as f64) as usize).min(k - 1);
        counts[r * k + c] += 1.0;
    }
    DataVector::new(Domain::square(k), counts).expect("k*k counts")
}

/// The synthetic tweet counts at resolution `k ∈ {100, 50, 25}` (other
/// resolutions are allowed; those three match Table 1).
pub fn twitter_grid(k: usize, seed: u64) -> DataVector {
    bin(&sample_points(seed), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_scale_and_aggregation_consistency() {
        let (t100, t50, t25) = (
            twitter_grid(100, 1),
            twitter_grid(50, 1),
            twitter_grid(25, 1),
        );
        assert_eq!(t100.total() as usize, TWITTER_SCALE);
        assert_eq!(t50.total() as usize, TWITTER_SCALE);
        assert_eq!(t25.total() as usize, TWITTER_SCALE);
        // Coarser grids are exact 2x2 aggregations of finer ones.
        for r in 0..50 {
            for c in 0..50 {
                let fine = t100.get((2 * r) * 100 + 2 * c)
                    + t100.get((2 * r) * 100 + 2 * c + 1)
                    + t100.get((2 * r + 1) * 100 + 2 * c)
                    + t100.get((2 * r + 1) * 100 + 2 * c + 1);
                assert_eq!(fine, t50.get(r * 50 + c));
            }
        }
    }

    #[test]
    fn sparsity_near_table_1() {
        let (t100, t50, t25) = (
            twitter_grid(100, 1),
            twitter_grid(50, 1),
            twitter_grid(25, 1),
        );
        // Paper: 84.93 / 69.24 / 43.20 — allow a tolerance band; the
        // qualitative requirement is "sparser at finer resolution".
        let (z100, z50, z25) = (t100.percent_zero(), t50.percent_zero(), t25.percent_zero());
        assert!(
            (z100 - 84.93).abs() < 8.0,
            "T100 zero% {z100} too far from 84.93"
        );
        assert!(
            (z50 - 69.24).abs() < 8.0,
            "T50 zero% {z50} too far from 69.24"
        );
        assert!(
            (z25 - 43.20).abs() < 8.0,
            "T25 zero% {z25} too far from 43.20"
        );
        assert!(z100 > z50 && z50 > z25);
    }

    #[test]
    fn deterministic() {
        let a = twitter_grid(25, 9);
        let b = twitter_grid(25, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn clusters_exist() {
        let t = twitter_grid(100, 2);
        let max = t.counts().iter().fold(0.0_f64, |m, &v| m.max(v));
        // Metro cells should be orders of magnitude above the mean.
        assert!(max > 50.0 * t.total() / 10_000.0, "max cell {max}");
    }
}
