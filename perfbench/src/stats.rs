//! Order statistics, the `max_rps` ladder search, and parsers for the
//! server's `stats` and `stats net` reply lines.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples per window of [`windowed_p99`]: ten beyond the 99th percentile.
pub const WINDOW_MIN: usize = 1000;

/// The p99 of samples in arrival order, as the median of the p99s of up to
/// `max_windows` consecutive windows of at least [`WINDOW_MIN`] samples
/// each (one window when there are fewer). A stall of the shared machine
/// that lands in one window then moves one window's value, not the result.
pub fn windowed_p99(in_order: &[f64], max_windows: usize) -> Option<f64> {
    let windows = (in_order.len() / WINDOW_MIN).clamp(1, max_windows.max(1));
    let per = in_order.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * per
            };
            percentile(&in_order[w * per..end], 99.0)
        })
        .collect();
    median(&p99s)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The mean over groups of each group's median. Every group weighs the
/// same, and no result falls in the gap between groups of different cost,
/// as the median of the pooled samples can.
pub fn mean_of_medians<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>) -> Option<f64> {
    let medians: Vec<f64> = groups.into_iter().filter_map(|g| median(g)).collect();
    mean(&medians)
}

/// One probed rate of the ladder.
#[derive(Clone, Debug)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency of every request at this rate, ms.
    pub p99_ms: f64,
    /// p99 within the limit, nothing failed, and the backlog did not grow.
    pub ok: bool,
}

/// Walks the fixed ladder of rate multipliers from `1.0` (the rated rate):
/// upward while steps pass, or downward while they fail, and stops at the
/// first step that changes the verdict. `probe` runs one step, or returns
/// `None` when the run has no time left for another.
pub fn ladder_search(ladder: &[f64], mut probe: impl FnMut(f64) -> Option<Step>) -> Vec<Step> {
    let start = ladder
        .iter()
        .position(|&m| m == 1.0)
        .expect("the ladder holds the rated rate");
    let Some(first) = probe(ladder[start]) else {
        return Vec::new();
    };
    let upward = first.ok;
    let mut steps = vec![first];
    let mut i = start;
    loop {
        let next = if upward {
            i.checked_add(1)
        } else {
            i.checked_sub(1)
        };
        let Some(n) = next.filter(|&n| n < ladder.len()) else {
            break;
        };
        i = n;
        let Some(step) = probe(ladder[i]) else {
            break;
        };
        let flipped = step.ok != upward;
        steps.push(step);
        if flipped {
            break;
        }
    }
    steps.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    steps
}

/// The highest rate meeting the limit, interpolated between the highest
/// passing step and the failing step just above it on log(p99) against
/// log(rate), so that the result moves smoothly instead of jumping a whole
/// ladder step. A step that failed on errors or backlog with a p99 inside
/// the limit gives no slope to interpolate on, so the passing step below it
/// is the answer.
pub fn max_rps(steps: &[Step], limit_ms: f64) -> f64 {
    let Some(fail_at) = steps.iter().position(|s| !s.ok) else {
        return steps.iter().map(|s| s.rate).fold(0.0, f64::max);
    };
    let hi = &steps[fail_at];
    let q_hi = hi.p99_ms / limit_ms;
    let Some(lo) = steps[..fail_at].iter().rev().find(|s| s.ok) else {
        // Even the lowest step failed: scale it down by its overshoot.
        return hi.rate / q_hi.max(1.0);
    };
    if q_hi <= 1.0 {
        return lo.rate;
    }
    let q_lo = (lo.p99_ms / limit_ms).clamp(1e-9, 1.0);
    let t = (-q_lo.ln() / (q_hi.ln() - q_lo.ln())).clamp(0.0, 1.0);
    lo.rate * (hi.rate / lo.rate).powf(t)
}

/// One tenant row of a `stats` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantRow {
    pub spent: f64,
    pub remaining: f64,
    pub fits: usize,
    pub estimates: usize,
}

/// A parsed `ok stats …` reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    pub counters: BTreeMap<String, String>,
    pub tenants: BTreeMap<String, TenantRow>,
}

fn key_values<'a>(tokens: impl Iterator<Item = &'a str>) -> BTreeMap<String, String> {
    tokens
        .filter_map(|t| t.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Parses `ok stats builds=… tenants=N | id spent=… remaining=… fits=…
/// estimates=… | …`.
pub fn parse_stats(line: &str) -> Result<ServerStats, String> {
    let mut parts = line.split(" | ");
    let head = parts.next().unwrap_or_default();
    let body = head
        .strip_prefix("ok stats ")
        .ok_or_else(|| format!("not a stats reply: {line:.80}"))?;
    let counters = key_values(body.split_whitespace());
    let declared: usize = counters
        .get("tenants")
        .and_then(|v| v.parse().ok())
        .ok_or("stats reply without tenants=")?;
    let mut tenants = BTreeMap::new();
    for part in parts {
        let mut tokens = part.split_whitespace();
        let id = tokens.next().ok_or("empty tenant row")?.to_string();
        let kv = key_values(tokens);
        let field = |k: &str| kv.get(k).ok_or(format!("tenant {id} row without {k}="));
        let row = TenantRow {
            spent: field("spent")?.parse().map_err(|_| "bad spent=")?,
            remaining: field("remaining")?.parse().map_err(|_| "bad remaining=")?,
            fits: field("fits")?.parse().map_err(|_| "bad fits=")?,
            estimates: field("estimates")?.parse().map_err(|_| "bad estimates=")?,
        };
        tenants.insert(id, row);
    }
    if tenants.len() != declared {
        return Err(format!(
            "stats declares {declared} tenants but lists {}",
            tenants.len()
        ));
    }
    Ok(ServerStats { counters, tenants })
}

/// Parses `ok stats net model=… accepted=… requests=… …` into its counters.
pub fn parse_net_stats(line: &str) -> Result<BTreeMap<String, u64>, String> {
    let body = line
        .strip_prefix("ok stats net ")
        .ok_or_else(|| format!("not a stats net reply: {line:.80}"))?;
    let mut out = BTreeMap::new();
    for (k, v) in key_values(body.split_whitespace()) {
        if k != "model" {
            let n = v.parse().map_err(|_| format!("bad counter {k}={v}"))?;
            out.insert(k, n);
        }
    }
    if !out.contains_key("requests") {
        return Err("stats net reply without requests=".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn mean_of_medians_weighs_groups_equally() {
        // Pooled, the median would jump between 1 and 10 with one sample.
        let cheap = vec![1.0, 1.0, 1.0, 1.0, 1.0, 50.0];
        let dear = vec![10.0, 10.0, 12.0];
        assert_eq!(mean_of_medians([&cheap, &dear]), Some(5.5));
        assert_eq!(mean_of_medians([] as [&Vec<f64>; 0]), None);
    }

    #[test]
    fn windowed_p99_discounts_a_stall_in_one_window() {
        let mut v = vec![1.0; 5000];
        // A 100-sample stall inside the third window.
        for x in &mut v[2100..2200] {
            *x = 50.0;
        }
        assert_eq!(percentile(&v, 99.0), Some(50.0));
        assert_eq!(windowed_p99(&v, 5), Some(1.0));
        // Too few samples for two windows: the plain p99.
        assert_eq!(
            windowed_p99(&v[2000..2500], 5),
            percentile(&v[2000..2500], 99.0)
        );
        assert_eq!(windowed_p99(&[], 5), None);
    }

    #[test]
    fn stats_line_round_trips() {
        let line = "ok stats builds=7 solves=3 cg_iters=0 factored=1 cg_fallback=0 \
                    durable=per-charge wal_bytes=4096 last_snapshot=2 tenants=2 \
                    | t0 spent=1.5 remaining=0.5 fits=3 estimates=1 \
                    | t1 spent=0 remaining=0.25 fits=0 estimates=0";
        let s = parse_stats(line).unwrap();
        assert_eq!(s.counters["builds"], "7");
        assert_eq!(s.counters["wal_bytes"], "4096");
        assert_eq!(s.counters["durable"], "per-charge");
        assert_eq!(s.tenants["t0"].spent, 1.5);
        assert_eq!(s.tenants["t1"].fits, 0);
        let miscounted = line.replace("tenants=2", "tenants=3");
        assert!(parse_stats(&miscounted).is_err());
        assert!(parse_stats("err unknown tenant x").is_err());
        let empty = parse_stats("ok stats builds=0 solves=0 tenants=0").unwrap();
        assert!(empty.tenants.is_empty());
    }

    #[test]
    fn net_stats_line_parses_every_counter() {
        let line = "ok stats net model=reactor accepted=2 live=2 requests=123 shed=0 \
                    idle_closed=0 spurious_wakeups=4 partial_writes_resumed=1 \
                    timer_evictions=0 event_loops=2";
        let n = parse_net_stats(line).unwrap();
        assert_eq!(n["requests"], 123);
        assert_eq!(n["spurious_wakeups"], 4);
        assert_eq!(n["partial_writes_resumed"], 1);
        assert!(!n.contains_key("model"));
        assert!(parse_net_stats("ok stats net model=reactor shed=0").is_err());
        assert!(parse_net_stats("ok stats builds=1").is_err());
    }

    /// p99 of an M/M/1-like curve: `base / (1 - rate/capacity)`, and an
    /// overloaded server past capacity.
    fn synthetic(rate: f64, capacity: f64) -> Step {
        let p99_ms = if rate < capacity {
            0.2 / (1.0 - rate / capacity)
        } else {
            1e4
        };
        Step {
            rate,
            p99_ms,
            ok: p99_ms <= 2.0,
        }
    }

    #[test]
    fn ladder_search_brackets_and_interpolates_the_knee() {
        let ladder = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0];
        // Limit 2 ms is reached at rate = 0.9 * capacity.
        for capacity in [1500.0, 2300.0, 2900.0] {
            let mut probes = 0;
            let steps = ladder_search(&ladder, |m| {
                probes += 1;
                Some(synthetic(1000.0 * m, capacity))
            });
            let knee = 0.9 * capacity;
            let est = max_rps(&steps, 2.0);
            assert!(
                (est - knee).abs() / knee < 0.2,
                "capacity {capacity}: estimated {est}, knee {knee}"
            );
            // Stops one step past the knee instead of walking the ladder.
            assert!(probes <= ladder.len());
            assert!(steps.iter().any(|s| !s.ok));
        }
    }

    #[test]
    fn ladder_search_walks_down_when_the_rated_rate_fails() {
        let ladder = [0.25, 0.5, 0.75, 1.0, 1.5];
        let steps = ladder_search(&ladder, |m| Some(synthetic(1000.0 * m, 700.0)));
        let rates: Vec<f64> = steps.iter().map(|s| s.rate).collect();
        assert_eq!(rates, vec![500.0, 750.0, 1000.0]);
        let est = max_rps(&steps, 2.0);
        assert!(est > 500.0 && est < 750.0, "{est}");
    }

    #[test]
    fn ladder_search_stops_when_the_step_budget_runs_out() {
        let ladder = [0.5, 1.0, 1.5, 2.0, 3.0];
        let mut budget = 2;
        let steps = ladder_search(&ladder, |m| {
            (budget > 0).then(|| {
                budget -= 1;
                synthetic(1000.0 * m, 10_000.0)
            })
        });
        assert_eq!(steps.len(), 2);
        // Every probed step passed: the highest one is a lower bound.
        assert_eq!(max_rps(&steps, 2.0), 1500.0);
    }

    #[test]
    fn max_rps_is_monotone_in_the_failing_p99_and_caps_when_nothing_fails() {
        let pass = Step {
            rate: 100.0,
            p99_ms: 1.0,
            ok: true,
        };
        let fail = |p99_ms| Step {
            rate: 200.0,
            p99_ms,
            ok: false,
        };
        let near = max_rps(&[pass.clone(), fail(2.5)], 2.0);
        let far = max_rps(&[pass.clone(), fail(50.0)], 2.0);
        assert!(near > far && far > 100.0 && near < 200.0);
        // A step failing only on errors or backlog gives no slope.
        assert_eq!(max_rps(&[pass.clone(), fail(0.5)], 2.0), 100.0);
        assert_eq!(max_rps(&[pass], 2.0), 100.0);
    }
}
