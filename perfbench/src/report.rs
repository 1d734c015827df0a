//! Collects a run's metrics and prints them: a readable table, then
//! one JSON line with exactly the metrics `BENCHMARK.json` declares
//! for the run's mode.

use std::path::PathBuf;

use serde::Value;

/// One declared metric: name and unit.
struct Declared {
    name: String,
    unit: String,
}

/// The `end_to_end` (untraced) or `per_layer` (traced) metric list
/// of `BENCHMARK.json`.
fn declared(traced: bool) -> Result<Vec<Declared>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let Ok(Value::Object(top)) = serde_json::parse(&text) else {
        return Err("BENCHMARK.json is not a JSON object".into());
    };
    let key = if traced { "per_layer" } else { "end_to_end" };
    let Some((_, Value::Array(items))) = top.into_iter().find(|(k, _)| k == key) else {
        return Err(format!("BENCHMARK.json lacks `{key}`"));
    };
    items
        .into_iter()
        .map(|item| {
            let Value::Object(f) = item else {
                return Err(format!("`{key}` entry is not an object"));
            };
            let field = |k: &str| match f.iter().find(|(n, _)| n == k) {
                Some((_, Value::String(s))) => Ok(s.clone()),
                _ => Err(format!("`{key}` entry lacks `{k}`")),
            };
            Ok(Declared {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

/// Metrics, counts and verdict of one workload run.
pub struct Report {
    workload: &'static str,
    traced: bool,
    /// `(name, value, samples behind it)`.
    metrics: Vec<(String, f64, Option<usize>)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value, None));
    }

    /// Records a metric computed from `samples` samples.
    pub fn metric_n(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push((name.to_string(), value, Some(samples)));
    }

    /// Records request totals.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints a progress or diagnostic line.
    pub fn note(&mut self, line: String) {
        println!("[{}] {line}", self.workload);
    }

    /// Marks the run incorrect.
    pub fn fail(&mut self, problem: String) {
        println!("[{}] CHECK FAILED: {problem}", self.workload);
        self.problems.push(problem);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the metric table and returns the result line, checking
    /// that every declared metric was measured.
    pub fn finish(&mut self) -> String {
        let declared = match declared(self.traced) {
            Ok(d) => d,
            Err(e) => {
                self.fail(e);
                Vec::new()
            }
        };
        let mut out = Vec::new();
        for d in &declared {
            match self
                .metrics
                .iter()
                .rev()
                .find(|(n, _, _)| *n == d.name)
                .map(|(_, v, n)| (*v, *n))
            {
                Some((v, samples)) if v.is_finite() => {
                    let samples = samples.map_or_else(String::new, |n| format!("(n={n})"));
                    println!(
                        "[{}] {:<34} {:>16.6} {:<6} {samples}",
                        self.workload, d.name, v, d.unit
                    );
                    out.push((
                        d.name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::Number(v)),
                            ("unit".into(), Value::String(d.unit.clone())),
                        ]),
                    ));
                }
                other => self.fail(format!("metric {} was not measured ({other:?})", d.name)),
            }
        }
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(out)),
        ]);
        serde_json::to_string(&line).expect("values serialize")
    }
}
