//! The result record: the line the benchmark ends with, the file it keeps
//! beside it, and the comparison of two records against the metric bounds
//! in `BENCHMARK.json`.

use mnv_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run's results.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

fn push_str(out: &mut String, s: &str) {
    out.push_str(&Json::str(s).to_string());
}

/// A number in its shortest round-trip form (every digit as measured).
fn push_num(out: &mut String, v: f64) {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let _ = write!(out, "{v}");
}

impl Record {
    fn write_fields(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str(out, name);
            out.push_str(":{\"value\":");
            push_num(out, *value);
            out.push_str(",\"unit\":");
            push_str(out, unit);
            out.push('}');
        }
        out.push('}');
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn line(&self) -> String {
        let mut out = String::from("{");
        self.write_fields(&mut out);
        out.push('}');
        out
    }

    /// The results file: the line's fields plus what the run was.
    pub fn to_file(&self) -> String {
        let mut out = String::from("{\"workload\":");
        push_str(&mut out, &self.workload);
        let _ = write!(out, ",\"seed\":{},\"trace\":{},", self.seed, self.trace);
        self.write_fields(&mut out);
        out.push_str("}\n");
        out
    }

    /// Read a results file back.
    pub fn parse(text: &str) -> Result<Record, String> {
        let j = json::parse(text.trim())?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("results file lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_num()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let flag = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("`{k}` is not a boolean"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name} has no unit"))?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// A metric's declaration in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the earlier value by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metric declarations of `BENCHMARK.json`.
pub fn specs(benchmark_json: &str) -> Result<(Vec<Spec>, Vec<Spec>), String> {
    let j = json::parse(benchmark_json)?;
    let list = |key: &str| -> Result<Vec<Spec>, String> {
        let arr = j
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?;
        arr.iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` entry lacks `{k}`"))
                };
                Ok(Spec {
                    name: s("name")?,
                    lower_is_better: s("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_num),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// How one metric moved between two records.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    pub name: String,
    pub before: f64,
    pub after: f64,
    /// Relative change, positive when the metric got worse.
    pub worse_by: f64,
    pub bound: Option<f64>,
}

impl Delta {
    /// `Some(true)` when a bounded metric worsened by no more than its bound.
    pub fn within(&self) -> Option<bool> {
        self.bound.map(|b| self.worse_by <= b)
    }
}

/// Compare `after` with `before` metric by metric.
pub fn compare(before: &Record, after: &Record, specs: &[Spec]) -> Vec<Delta> {
    specs
        .iter()
        .filter_map(|s| {
            let (b, _) = before.metrics.get(&s.name)?;
            let (a, _) = after.metrics.get(&s.name)?;
            let rel = if *b == 0.0 {
                if a == b {
                    0.0
                } else {
                    f64::INFINITY * (a - b).signum()
                }
            } else {
                (a - b) / b.abs()
            };
            let worse_by = if s.lower_is_better { rel } else { -rel };
            Some(Delta {
                name: s.name.clone(),
                before: *b,
                after: *a,
                worse_by,
                bound: s.bound,
            })
        })
        .collect()
}

/// Render a comparison as a table.
pub fn render(deltas: &[Delta]) -> String {
    let mut out = format!(
        "{:<40}{:>16}{:>16}{:>10}  {}\n",
        "metric", "before", "after", "worse", "verdict"
    );
    for d in deltas {
        let verdict = match (d.within(), d.bound) {
            (Some(true), Some(b)) => format!("within bound {:.0}%", b * 100.0),
            (Some(false), Some(b)) => format!("OUTSIDE bound {:.0}%", b * 100.0),
            _ => "no bound".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<40}{:>16.6}{:>16.6}{:>9.2}%  {verdict}",
            d.name,
            d.before,
            d.after,
            d.worse_by * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "host_s".to_string(),
            (1.234_567_890_123_456_7, "s".to_string()),
        );
        metrics.insert(
            "setup_s".to_string(),
            (0.000_512_345_678_9, "s".to_string()),
        );
        metrics.insert("mips".to_string(), (97.5, "MIPS".to_string()));
        Record {
            workload: "mir-trap".into(),
            seed: 11,
            trace: false,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn results_file_round_trips_exactly() {
        let r = record();
        assert_eq!(Record::parse(&r.to_file()).unwrap(), r);
        // The result line is valid JSON with exactly the four keys.
        let line = json::parse(&r.line()).unwrap();
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num),
            Some(0.000_512_345_678_9)
        );
        assert!(Record::parse("{\"seed\":1}").is_err());
    }

    #[test]
    fn compare_applies_direction_and_bound() {
        let before = record();
        let mut after = record();
        after.metrics.get_mut("host_s").unwrap().0 *= 1.2; // 20% slower
        after.metrics.get_mut("mips").unwrap().0 *= 1.05; // 5% faster
        let specs = specs(
            r#"{"end_to_end":[
                {"name":"host_s","unit":"s","better":"lower","bound":0.1},
                {"name":"mips","unit":"MIPS","better":"higher","bound":0.1}],
               "per_layer":[{"name":"x","unit":"count","better":"higher"}]}"#,
        )
        .unwrap();
        let d = compare(&before, &after, &specs.0);
        assert_eq!(d.len(), 2);
        assert!((d[0].worse_by - 0.2).abs() < 1e-12);
        assert_eq!(d[0].within(), Some(false));
        assert!((d[1].worse_by + 0.05).abs() < 1e-12);
        assert_eq!(d[1].within(), Some(true));
        assert_eq!(specs.1[0].bound, None);
        let table = render(&d);
        assert!(table.contains("OUTSIDE bound 10%"), "{table}");
    }
}
