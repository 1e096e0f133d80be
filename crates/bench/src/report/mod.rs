//! Markdown/console reporting helpers for the experiment harnesses, plus
//! the machine-readable [`snapshot`] layer shared by the committed
//! `BENCH_*.json` baselines, the CI bench-regression gate, and the
//! `blowfish_simulate` run reports.

pub mod snapshot;

/// One measured cell of an experiment panel.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Column label (dataset or domain size).
    pub column: String,
    /// Algorithm (series) label.
    pub algorithm: String,
    /// Mean squared error per query, averaged over trials.
    pub mse: f64,
    /// Standard deviation of the per-trial MSE.
    pub std: f64,
}

/// Formats a value in short scientific notation (the paper's axes are
/// log-scale, so 3 significant digits is plenty).
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if !v.is_finite() {
        return format!("{v}");
    }
    let exp = v.abs().log10().floor() as i32;
    let mant = v / 10f64.powi(exp);
    format!("{mant:.2}e{exp}")
}

/// Prints a panel as a markdown table: algorithms as rows, columns as
/// datasets/sizes — mirroring the bar groups of Figures 8/9.
pub fn print_panel(title: &str, columns: &[String], rows: &[Measurement]) {
    println!("\n### {title}\n");
    let algorithms: Vec<String> = {
        let mut seen = Vec::new();
        for m in rows {
            if !seen.contains(&m.algorithm) {
                seen.push(m.algorithm.clone());
            }
        }
        seen
    };
    print!("| algorithm |");
    for c in columns {
        print!(" {c} |");
    }
    println!();
    print!("|---|");
    for _ in columns {
        print!("---|");
    }
    println!();
    for a in &algorithms {
        print!("| {a} |");
        for c in columns {
            let cell = rows
                .iter()
                .find(|m| &m.algorithm == a && &m.column == c)
                .map(|m| sci(m.mse))
                .unwrap_or_else(|| "-".to_string());
            print!(" {cell} |");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(1234.0), "1.23e3");
        assert_eq!(sci(0.00456), "4.56e-3");
        assert_eq!(sci(1.0), "1.00e0");
    }

    #[test]
    fn print_panel_smoke() {
        let rows = vec![
            Measurement {
                column: "A".into(),
                algorithm: "Laplace".into(),
                mse: 10.0,
                std: 1.0,
            },
            Measurement {
                column: "B".into(),
                algorithm: "Laplace".into(),
                mse: 20.0,
                std: 2.0,
            },
        ];
        // Just ensure it does not panic with missing cells.
        print_panel("test", &["A".into(), "B".into(), "C".into()], &rows);
    }
}
