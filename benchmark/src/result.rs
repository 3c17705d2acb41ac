//! The result of a run as data and as JSON, and the comparison of two
//! result files.
//!
//! JSON goes through `locec_obs::json::Value` — the workspace's one JSON
//! implementation — both ways, so a result file this program wrote is a
//! result file it can read.

use std::fmt::Write as _;

use locec_obs::json::Value;

use crate::spec::{MetricDef, END_TO_END};
use crate::stats::Summary;

/// One reported metric. Timings are medians of `n` samples and carry
/// their quartiles; single measurements have `n == 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

impl Metric {
    /// A single measurement.
    pub fn single(def: &MetricDef, value: f64) -> Metric {
        Metric::from_summary(
            def,
            Summary {
                median: value,
                q1: value,
                q3: value,
                n: 1,
            },
        )
    }

    /// The median of `samples` with its quartiles (0 when there are none).
    pub fn median_of(def: &MetricDef, samples: &[f64]) -> Metric {
        match Summary::of(samples) {
            Some(s) => Metric::from_summary(def, s),
            None => Metric::single(def, 0.0),
        }
    }

    fn from_summary(def: &MetricDef, s: Summary) -> Metric {
        // JSON has no NaN or infinity; a metric that could not be computed
        // reads 0.
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        Metric {
            name: def.name.to_owned(),
            unit: def.unit.to_owned(),
            value: finite(s.median),
            q1: finite(s.q1),
            q3: finite(s.q3),
            n: s.n as u64,
        }
    }
}

/// Where and how a run was made.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Meta {
    pub git_rev: String,
    pub rustc: String,
    pub hardware_threads: u64,
    pub threads: u64,
    pub clients: u64,
    pub users: u64,
    pub nodes: u64,
    pub edges: u64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub gate_failures: Vec<String>,
    pub labels_crc32: u64,
    pub division_crc32: u64,
    pub updated_division_crc32: u64,
    pub meta: Meta,
    /// End-to-end metrics (measured with tracing off; in a traced run they
    /// are the untraced repetitions of that run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Array(
        metrics
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", Value::Str(m.name.clone())),
                    ("unit", Value::Str(m.unit.clone())),
                    ("value", Value::Float(m.value)),
                    ("q1", Value::Float(m.q1)),
                    ("q3", Value::Float(m.q3)),
                    ("n", Value::Uint(m.n)),
                ])
            })
            .collect(),
    )
}

fn metrics_from(v: Option<&Value>) -> Option<Vec<Metric>> {
    v?.as_array()?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                value: m.get("value")?.as_f64()?,
                q1: m.get("q1")?.as_f64()?,
                q3: m.get("q3")?.as_f64()?,
                n: m.get("n")?.as_u64()?,
            })
        })
        .collect()
}

impl RunResult {
    pub fn to_value(&self) -> Value {
        let m = &self.meta;
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Uint(self.seed)),
            ("seconds", Value::Float(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("smoke", Value::Bool(self.smoke)),
            ("correct", Value::Bool(self.correct)),
            ("ops_attempted", Value::Uint(self.ops_attempted)),
            ("ops_failed", Value::Uint(self.ops_failed)),
            (
                "gate_failures",
                Value::Array(self.gate_failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("labels_crc32", Value::Uint(self.labels_crc32)),
            ("division_crc32", Value::Uint(self.division_crc32)),
            (
                "updated_division_crc32",
                Value::Uint(self.updated_division_crc32),
            ),
            (
                "meta",
                obj(vec![
                    ("git_rev", Value::Str(m.git_rev.clone())),
                    ("rustc", Value::Str(m.rustc.clone())),
                    ("hardware_threads", Value::Uint(m.hardware_threads)),
                    ("threads", Value::Uint(m.threads)),
                    ("clients", Value::Uint(m.clients)),
                    ("users", Value::Uint(m.users)),
                    ("nodes", Value::Uint(m.nodes)),
                    ("edges", Value::Uint(m.edges)),
                ]),
            ),
            ("end_to_end", metrics_value(&self.end_to_end)),
            ("per_layer", metrics_value(&self.per_layer)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<RunResult> {
        let text = |v: &Value, k: &str| Some(v.get(k)?.as_str()?.to_owned());
        let uint = |v: &Value, k: &str| v.get(k)?.as_u64();
        let flag = |k: &str| match v.get(k)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        };
        let m = v.get("meta")?;
        Some(RunResult {
            workload: text(v, "workload")?,
            seed: uint(v, "seed")?,
            seconds: v.get("seconds")?.as_f64()?,
            traced: flag("traced")?,
            smoke: flag("smoke")?,
            correct: flag("correct")?,
            ops_attempted: uint(v, "ops_attempted")?,
            ops_failed: uint(v, "ops_failed")?,
            gate_failures: v
                .get("gate_failures")?
                .as_array()?
                .iter()
                .map(|g| g.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
            labels_crc32: uint(v, "labels_crc32")?,
            division_crc32: uint(v, "division_crc32")?,
            updated_division_crc32: uint(v, "updated_division_crc32")?,
            meta: Meta {
                git_rev: text(m, "git_rev")?,
                rustc: text(m, "rustc")?,
                hardware_threads: uint(m, "hardware_threads")?,
                threads: uint(m, "threads")?,
                clients: uint(m, "clients")?,
                users: uint(m, "users")?,
                nodes: uint(m, "nodes")?,
                edges: uint(m, "edges")?,
            },
            end_to_end: metrics_from(v.get("end_to_end"))?,
            per_layer: metrics_from(v.get("per_layer"))?,
        })
    }

    /// The one-line result the driver reads: `correct`, `attempted`,
    /// `failed` and the metrics of the kind this run measured.
    pub fn driver_line(&self) -> String {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Uint(self.ops_attempted.max(1))),
            ("failed", Value::Uint(self.ops_failed)),
            (
                "metrics",
                Value::Object(
                    metrics
                        .iter()
                        .map(|m| {
                            let body = obj(vec![
                                ("value", Value::Float(m.value)),
                                ("unit", Value::Str(m.unit.clone())),
                            ]);
                            (m.name.clone(), body)
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} seed {} ({} users, {} edges, T={} C={} of {} hardware threads){}",
            self.workload,
            self.seed,
            self.meta.users,
            self.meta.edges,
            self.meta.threads,
            self.meta.clients,
            self.meta.hardware_threads,
            if self.traced { ", traced" } else { "" },
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = write!(out, "  {:<32} {:>16.6} {:<8}", m.name, m.value, m.unit);
            if m.n > 1 {
                let _ = write!(out, " q1 {:.6} q3 {:.6} n {}", m.q1, m.q3, m.n);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  ops {} attempted, {} failed; labels_crc32 {:08x} division_crc32 {:08x} updated_division_crc32 {:08x}; {}",
            self.ops_attempted,
            self.ops_failed,
            self.labels_crc32,
            self.division_crc32,
            self.updated_division_crc32,
            if self.correct { "correct" } else { "INCORRECT" },
        );
        out
    }
}

/// A suite result: every run of every workload.
pub fn suite_value(runs: &[RunResult]) -> Value {
    obj(vec![
        ("schema", Value::Uint(1)),
        (
            "runs",
            Value::Array(runs.iter().map(RunResult::to_value).collect()),
        ),
    ])
}

pub fn suite_from_json(text: &str) -> Result<Vec<RunResult>, String> {
    let v = Value::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    v.get("runs")
        .and_then(Value::as_array)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(|r| RunResult::from_value(r).ok_or_else(|| "a run is missing fields".to_owned()))
        .collect()
}

// ------------------------------------------------------------- compare

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound: the row cannot
    /// say "unchanged".
    Unresolved,
}

/// One (workload, end-to-end metric) row of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values of one metric over the runs of one workload. With a single run
/// the run's own quartiles stand in for the run-to-run ones.
fn across_runs(runs: &[&RunResult], metric: &str) -> Option<Summary> {
    let found: Vec<&Metric> = runs
        .iter()
        .filter_map(|r| r.end_to_end.iter().find(|m| m.name == metric))
        .collect();
    match found.as_slice() {
        [] => None,
        [one] => Some(Summary {
            median: one.value,
            q1: one.q1,
            q3: one.q3,
            n: 1,
        }),
        many => Summary::of(&many.iter().map(|m| m.value).collect::<Vec<_>>()),
    }
}

fn untraced_runs_of<'a>(runs: &'a [RunResult], workload: &str) -> Vec<&'a RunResult> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .collect()
}

pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let worse = if a.median == 0.0 {
        0.0
    } else if def.higher_is_better {
        (a.median - b.median) / a.median.abs()
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let spread = a.spread().max(b.spread());
    let verdict = if worse > def.bound && worse > spread {
        Verdict::Regressed
    } else if spread > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compares two suite results row by row. Untraced runs only: end-to-end
/// metrics always come from runs with tracing off.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().filter(|r| !r.traced) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let (ra, rb) = (untraced_runs_of(a, w), untraced_runs_of(b, w));
        for def in &END_TO_END {
            if let (Some(sa), Some(sb)) = (across_runs(&ra, def.name), across_runs(&rb, def.name)) {
                let (worse, verdict) = judge(def, &sa, &sb);
                rows.push(Row {
                    workload: w.to_owned(),
                    metric: def.name,
                    a: sa,
                    b: sb,
                    worse,
                    bound: def.bound,
                    verdict,
                });
            }
        }
    }
    rows
}

/// The comparison as text, plus whether it found a regression: a metric
/// past its bound, a higher share of failed operations, or an incorrect
/// run in B.
pub fn compare_report(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let rows = compare(a, b);
    let _ = writeln!(
        out,
        "{:<14} {:<13} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "bound"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<14} {:<13} {:>12.5} {:>11.5}..{:<10.5} {:>12.5} {:>11.5}..{:<10.5} {:>+7.2}% {:>5.1}%  {}",
            r.workload,
            r.metric,
            r.a.median,
            r.a.q1,
            r.a.q3,
            r.b.median,
            r.b.q1,
            r.b.q3,
            100.0 * r.worse,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let mut regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);

    let failed_share = |runs: &[RunResult]| {
        let attempted: u64 = runs.iter().map(|r| r.ops_attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.ops_failed).sum();
        failed as f64 / attempted.max(1) as f64
    };
    let (fa, fb) = (failed_share(a), failed_share(b));
    let _ = writeln!(out, "ops_failed share: A {fa:.6}  B {fb:.6}");
    if fb > fa || b.iter().any(|r| !r.correct) {
        let _ = writeln!(
            out,
            "B fails more operations than A, or has an incorrect run: regressed"
        );
        regressed = true;
    }

    // Digests are comparable where both sides ran the same workload on the
    // same seed.
    let (mut same, mut differ) = (0, 0);
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed && rb.smoke == ra.smoke)
        {
            let digests =
                |r: &RunResult| (r.labels_crc32, r.division_crc32, r.updated_division_crc32);
            if digests(ra) == digests(rb) {
                same += 1;
            } else {
                differ += 1;
                let _ = writeln!(out, "digests differ: {} seed {}", ra.workload, ra.seed);
            }
        }
    }
    let _ = writeln!(
        out,
        "digests: {same} run pairs bit-identical, {differ} differ"
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    fn sample_run() -> RunResult {
        RunResult {
            workload: "batch_xgb".into(),
            seed: 7,
            seconds: 20.0,
            traced: false,
            smoke: true,
            correct: true,
            ops_attempted: 12_345,
            ops_failed: 0,
            gate_failures: vec!["a \"quoted\" gate".into()],
            labels_crc32: 0xDEAD_BEEF,
            division_crc32: 1,
            updated_division_crc32: 2,
            meta: Meta {
                git_rev: "abc123".into(),
                rustc: "rustc 1.0".into(),
                hardware_threads: 2,
                threads: 2,
                clients: 2,
                users: 2_000,
                nodes: 2_000,
                edges: 25_000,
            },
            end_to_end: vec![
                Metric::median_of(&END_TO_END[1], &[1.25, 1.5, 1.75]),
                Metric::single(&END_TO_END[2], 0.912_345_678_901_234_5),
            ],
            per_layer: vec![Metric::single(&PER_LAYER[0], 1e-7)],
        }
    }

    #[test]
    fn result_json_round_trips_through_obs_value() {
        let run = sample_run();
        let text = suite_value(std::slice::from_ref(&run)).render_pretty();
        let back = suite_from_json(&text).expect("parses");
        assert_eq!(
            back,
            vec![run.clone()],
            "every field and every digit survives"
        );
        let compact = Value::parse(&run.to_value().render()).expect("compact form parses");
        assert_eq!(RunResult::from_value(&compact), Some(run));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample_run().driver_line();
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let pipeline = v.get("metrics").unwrap().get("pipeline_s").unwrap();
        assert_eq!(pipeline.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(pipeline.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(pipeline.as_object().unwrap().len(), 2);
    }

    #[test]
    fn non_finite_values_are_written_as_zero() {
        let m = Metric::single(&END_TO_END[1], f64::NAN);
        assert_eq!(m.value, 0.0);
    }

    fn runs_with(metric: usize, values: &[f64]) -> Vec<RunResult> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| RunResult {
                seed: i as u64,
                correct: true,
                ops_attempted: 100,
                end_to_end: vec![Metric::single(&END_TO_END[metric], v)],
                ..sample_run()
            })
            .collect()
    }

    #[test]
    fn compare_flags_a_time_that_grew_past_its_bound() {
        // pipeline_s: lower is better. B is slower by twice the bound.
        let a = runs_with(1, &[1.00, 1.01, 0.99, 1.00, 1.02]);
        let by = 1.0 + 2.0 * END_TO_END[1].bound;
        let slower = runs_with(1, &[by, by + 0.01, by - 0.01, by, by + 0.02]);
        let rows = compare(&a, &slower);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!((rows[0].worse - 2.0 * END_TO_END[1].bound).abs() < 1e-9);
        assert!(compare_report(&a, &slower).1);

        let same = compare(&a, &runs_with(1, &[1.03, 1.01, 1.02, 1.00, 1.04]));
        assert_eq!(same[0].verdict, Verdict::Ok);
        let faster = compare(&a, &runs_with(1, &[0.5, 0.5, 0.5, 0.5, 0.5]));
        assert_eq!(faster[0].verdict, Verdict::Ok);
        assert!(!compare_report(&a, &a).1);
    }

    #[test]
    fn compare_respects_direction_and_reports_wide_spread_as_unresolved() {
        // serve_qps: higher is better. B is lower by twice the bound.
        let a = runs_with(5, &[1000.0, 1010.0, 990.0]);
        let low = 1000.0 * (1.0 - 2.0 * END_TO_END[5].bound);
        assert_eq!(
            compare(&a, &runs_with(5, &[low, low + 5.0, low - 5.0]))[0].verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare(&a, &runs_with(5, &[1300.0, 1310.0, 1290.0]))[0].verdict,
            Verdict::Ok
        );
        let noisy = runs_with(5, &[700.0, 1000.0, 1300.0]);
        assert_eq!(compare(&a, &noisy)[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn compare_fails_on_more_failed_operations_and_reports_digests() {
        let a = runs_with(1, &[1.0]);
        let mut b = runs_with(1, &[1.0]);
        let (text, regressed) = compare_report(&a, &b);
        assert!(!regressed);
        assert!(text.contains("1 run pairs bit-identical, 0 differ"));
        b[0].ops_failed = 1;
        b[0].labels_crc32 ^= 1;
        let (text, regressed) = compare_report(&a, &b);
        assert!(regressed);
        assert!(text.contains("digests differ: batch_xgb seed 0"));
    }
}
