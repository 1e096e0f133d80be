//! The environment stamp every result carries, and the comparison of two
//! result files, which refuses results taken in different environments.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use blowfish_bench::report::snapshot::JsonValue;

/// Stamp fields that must agree before two results are compared. The
/// commit and the date are recorded but expected to differ.
pub const COMPARED: &[&str] = &["nproc", "cpu", "kernel", "rustc", "state_fs"];

pub fn stamp(state_dir: &Path) -> BTreeMap<&'static str, String> {
    let mut s = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    s.insert("nproc", nproc.to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim())
        })
        .unwrap_or("unknown");
    s.insert("cpu", cpu.to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    s.insert("kernel", or_unknown(kernel.trim()));
    s.insert("rustc", or_unknown(&command_line("rustc", &["-V"])));
    s.insert("state_fs", filesystem_of(state_dir));
    s.insert(
        "commit",
        or_unknown(&command_line("git", &["rev-parse", "HEAD"])),
    );
    s.insert("date", utc_date());
    s
}

fn or_unknown(v: &str) -> String {
    if v.is_empty() {
        "unknown".into()
    } else {
        v.to_string()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// The type of the filesystem holding `dir`: the longest mount point in
/// `/proc/self/mounts` that prefixes its canonical path.
fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// Today's UTC date, `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days since 1970-01-01 to a proleptic Gregorian date (H. Hinnant).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

/// `perfbench compare A B`: prints each metric of result file B against A,
/// or refuses when the two environment stamps differ.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        JsonValue::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let field = |j: &JsonValue, k: &str| {
        j.get("env")
            .and_then(|e| e.get(k))
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    for k in COMPARED {
        let (va, vb) = (field(&ja, k), field(&jb, k));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: environment field {k} differs ({va:?} vs {vb:?})"
            ));
        }
    }
    for k in ["workload", "seed", "seconds", "trace"] {
        let (va, vb) = (
            ja.get(k).map(|v| v.to_pretty()),
            jb.get(k).map(|v| v.to_pretty()),
        );
        if va != vb {
            return Err(format!(
                "refusing to compare: {k} differs ({va:?} vs {vb:?})"
            ));
        }
    }
    let metrics = |j: &JsonValue| -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        if let Some(JsonValue::Obj(members)) = j.get("metrics") {
            for (name, m) in members {
                if let Some(v) = m.get("value").and_then(|v| v.as_f64()) {
                    out.insert(name.clone(), v);
                }
            }
        }
        out
    };
    let (ma, mb) = (metrics(&ja), metrics(&jb));
    println!("{:<36} {:>14} {:>14} {:>9}", "metric", "A", "B", "B/A");
    for (name, va) in &ma {
        if let Some(vb) = mb.get(name) {
            let ratio = if *va != 0.0 {
                format!("{:.3}", vb / va)
            } else {
                "-".into()
            };
            println!("{name:<36} {va:>14.4} {vb:>14.4} {ratio:>9}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_742), (2026, 10, 16));
    }

    #[test]
    fn compare_refuses_mismatched_stamps() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = |cpu: &str, v: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"seconds\": 5, \"trace\": 0, \
                 \"env\": {{\"nproc\": \"2\", \"cpu\": \"{cpu}\", \"kernel\": \"k\", \
                 \"rustc\": \"r\", \"state_fs\": \"ext4\", \"commit\": \"c\", \"date\": \"d\"}}, \
                 \"metrics\": {{\"m\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}"
            )
        };
        let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
        std::fs::write(&a, doc("x", 1.0)).unwrap();
        std::fs::write(&b, doc("x", 2.0)).unwrap();
        std::fs::write(&c, doc("y", 2.0)).unwrap();
        assert!(compare(&a, &b).is_ok());
        let refused = compare(&a, &c).unwrap_err();
        assert!(refused.contains("cpu"), "{refused}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
