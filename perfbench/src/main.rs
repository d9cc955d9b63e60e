//! End-to-end and per-layer benchmark of the entity-resolution pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The metric names and units come from
//! `BENCHMARK.json` there; `perfbench/README.md` gives each workload's
//! reason and the layer → metric → workload predictions. The last line
//! of standard output is the result object; with `--trace 0` it holds
//! the end-to-end metrics (er-obs recording off), with `--trace 1` the
//! per-layer ones (a traced run, with an untraced reference phase for
//! the overhead ratios). A traced run also writes its er-obs dump and
//! per-layer self times to `perfbench/out/`.

mod batch;
mod layers;
mod provenance;
mod queries;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use er_obs::json::Value;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["batch-cora", "batch-census-meta", "serve-census-stream"];

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: &'static str,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement window of one run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured: operation counts, gate failures and metric
/// values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: resolves, epochs, queries and gate checks.
    pub attempted: u64,
    /// Operations that failed, gate checks included.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics the workload's path does not exercise; they
    /// report 0.
    pub not_on_path: Vec<&'static str>,
    /// Facts stated beside the metrics: sample counts, record counts.
    pub notes: Vec<(String, Value)>,
    /// The traced phase's er-obs report (traced runs only).
    pub report: Option<er_obs::Report>,
}

impl Outcome {
    /// Counts one correctness check; a failing one is reported on
    /// standard error and counts as a failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: correctness gate failed: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        let previous = self.metrics.insert(name.to_owned(), value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Records a fact stated beside the metrics.
    pub fn note(&mut self, name: &str, value: impl Into<NoteValue>) {
        self.notes.push((name.to_owned(), value.into().0));
    }
}

/// A note value: a number or a string.
pub struct NoteValue(Value);

impl From<f64> for NoteValue {
    fn from(v: f64) -> Self {
        Self(Value::Num(v))
    }
}

impl From<usize> for NoteValue {
    fn from(v: usize) -> Self {
        Self(Value::Num(v as f64))
    }
}

impl From<&str> for NoteValue {
    fn from(v: &str) -> Self {
        Self(Value::Str(v.to_owned()))
    }
}

impl From<String> for NoteValue {
    fn from(v: String) -> Self {
        Self(Value::Str(v))
    }
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn metric_spec(kind: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = er_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(kind)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {kind} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json {kind} entry without {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The result object: exactly the metrics of `spec`, each with its unit.
fn result_line(outcome: &Outcome, spec: &[(String, String)]) -> Result<Value, String> {
    let mut metrics = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if outcome.not_on_path.contains(&name.as_str()) => 0.0,
            None => return Err(format!("no value measured for metric {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.clone(),
            Value::Obj(vec![
                ("value".to_owned(), Value::Num(value)),
                ("unit".to_owned(), Value::Str(unit.clone())),
            ]),
        ));
    }
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !spec.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    Ok(Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(outcome.failed == 0)),
        ("attempted".to_owned(), Value::Num(outcome.attempted as f64)),
        ("failed".to_owned(), Value::Num(outcome.failed as f64)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ]))
}

/// Renders `value` on one line.
fn one_line(value: &Value) -> String {
    value
        .to_pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| {
        format!(
            "{e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        )
    })?;
    let spec = metric_spec(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let threads = provenance::nproc();
    let outcome = match args.workload {
        "batch-cora" => batch::run(&batch::CORA, &args, threads),
        "batch-census-meta" => batch::run(&batch::CENSUS_META, &args, threads),
        "serve-census-stream" => serve::run(&args, threads),
        other => unreachable!("workload {other} passed argument parsing"),
    };
    let provenance = provenance::header(&args, threads, &outcome.notes);
    for (name, value) in &outcome.metrics {
        println!("{name:<36} {value}");
    }
    if !outcome.not_on_path.is_empty() && args.trace {
        println!(
            "not on this workload's path (reported as 0): {}",
            outcome.not_on_path.join(", ")
        );
    }
    println!("provenance {}", one_line(&provenance));
    if args.trace {
        let path = layers::write_dump(&args, &provenance, &outcome)?;
        println!("trace dump: {path}");
    }
    println!("{}", one_line(&result_line(&outcome, &spec)?));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
