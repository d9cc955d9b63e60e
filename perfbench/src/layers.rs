//! Per-layer bookkeeping for the traced run: reading spans and counters
//! out of an er-obs report, per-span self time, and the trace dump.

use er_obs::json::Value;
use er_obs::Report;

use crate::{Args, Outcome};

/// Total milliseconds of the span at `path` (0 when absent).
pub fn span_ms(report: &Report, path: &str) -> f64 {
    report.span(path).map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

/// Counter value as a float.
pub fn counter(report: &Report, name: &str) -> f64 {
    report.counter(name) as f64
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Share of dispatch decisions that went to the pool.
pub fn parallel_frac(report: &Report) -> f64 {
    let parallel = counter(report, "pool.dispatch.parallel");
    ratio(
        parallel,
        parallel + counter(report, "pool.dispatch.serial_inline"),
    )
}

/// Busy time of every pool worker over `threads × wall_ns`.
pub fn busy_frac(report: &Report, threads: usize, wall_ns: f64) -> f64 {
    let busy: f64 = report.workers.iter().map(|w| w.busy_ns as f64).sum();
    ratio(busy, threads as f64 * wall_ns)
}

/// Self time of every span: its total minus the totals of its direct
/// children, in milliseconds, in report order.
pub fn self_times_ms(report: &Report) -> Vec<(String, f64)> {
    report
        .spans
        .iter()
        .map(|s| {
            let prefix = format!("{}/", s.path);
            let children: u64 = report
                .spans
                .iter()
                .filter(|c| {
                    c.path
                        .strip_prefix(&prefix)
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .map(|c| c.total_ns)
                .sum();
            (
                s.path.clone(),
                s.total_ns.saturating_sub(children) as f64 / 1e6,
            )
        })
        .collect()
}

/// Writes the traced run's dump — provenance, per-layer metrics, self
/// time per span and the raw er-obs report — to `perfbench/out/` and
/// returns its path.
pub fn write_dump(args: &Args, provenance: &Value, outcome: &Outcome) -> Result<String, String> {
    let report = outcome.report.clone().unwrap_or_default();
    let metrics = outcome
        .metrics
        .iter()
        .map(|(k, &v)| (k.clone(), Value::Num(v)))
        .collect();
    let self_times = self_times_ms(&report)
        .into_iter()
        .map(|(k, v)| (k, Value::Num(v)))
        .collect();
    let dump = Value::Obj(vec![
        ("provenance".to_owned(), provenance.clone()),
        ("per_layer".to_owned(), Value::Obj(metrics)),
        (
            "not_on_path".to_owned(),
            Value::Arr(
                outcome
                    .not_on_path
                    .iter()
                    .map(|n| Value::Str((*n).to_owned()))
                    .collect(),
            ),
        ),
        ("self_time_ms".to_owned(), Value::Obj(self_times)),
        ("er_obs".to_owned(), report.to_value()),
    ]);
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, dump.to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_obs::SpanStat;

    fn stat(path: &str, total_ns: u64) -> SpanStat {
        SpanStat {
            path: path.to_owned(),
            count: 1,
            total_ns,
            min_ns: total_ns,
            max_ns: total_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let report = Report {
            spans: vec![
                stat("a", 10_000_000),
                stat("a/b", 4_000_000),
                stat("a/b/c", 3_000_000),
                stat("a/d", 1_000_000),
                stat("ab", 7_000_000),
            ],
            ..Report::default()
        };
        let got = self_times_ms(&report);
        let want = [
            ("a", 5.0),
            ("a/b", 1.0),
            ("a/b/c", 3.0),
            ("a/d", 1.0),
            ("ab", 7.0),
        ];
        for ((path, ms), (wp, wms)) in got.iter().zip(want) {
            assert_eq!(path, wp);
            assert!((ms - wms).abs() < 1e-12, "{path}: {ms}");
        }
    }
}
