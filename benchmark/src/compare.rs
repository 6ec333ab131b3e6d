//! `pmcf_benchmark compare <dir-a> <dir-b>`: whether two sets of runs
//! agree.
//!
//! Each directory holds one `<workload>.<seed>.out` file per run, the
//! standard output of `pmcf_benchmark --trace 0` (as `run.sh` writes
//! them). For every workload and end-to-end metric of `BENCHMARK.json`,
//! it prints each set's median and quartiles, each set's spread (the
//! quartile distance over the median), and whether the two medians
//! differ by less than the metric's bound. It exits with 1 when any pair
//! differs.

use crate::stats::{median, quartiles};
use pmcf_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Metric → values, per workload.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// An end-to-end metric of `BENCHMARK.json`.
pub struct Spec {
    pub name: String,
    pub bound: f64,
}

/// Workload names and end-to-end metrics of a `BENCHMARK.json`.
pub fn read_spec(path: &Path) -> Result<(Vec<String>, Vec<Spec>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[JsonValue], String> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("{}: no {key} list", path.display()))
    };
    let name = |v: &JsonValue| -> Result<String, String> {
        v.get("name")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: entry without a name", path.display()))
    };
    let workloads = list("workloads")?
        .iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|v| {
            Ok(Spec {
                name: name(v)?,
                bound: v.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// Reads every `<workload>.<seed>.out` in `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        let Some(stem) = file.strip_suffix(".out") else {
            continue;
        };
        let workload = stem.split('.').next().unwrap_or(stem).to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let doc = json::parse(last).map_err(|e| format!("{file}: last line is not JSON: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| format!("{file}: no metrics"))?;
        let per = runs.entry(workload).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn summary(values: &[f64]) -> String {
    let (med, n) = (median(values.iter().copied()), values.len());
    match quartiles(values) {
        Some([q1, _, q3]) => format!(
            "{med:.6} [{q1:.6}, {q3:.6}] spread {:.1}% n={n}",
            100.0 * (q3 - q1) / med
        ),
        None => format!("{med:.6} n={n}"),
    }
}

/// Compares the run directories `args` names, against the bounds of the
/// `BENCHMARK.json` in the current directory (the repository root).
pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: pmcf_benchmark compare <dir-a> <dir-b>");
        return ExitCode::from(2);
    };
    let loaded = read_spec(Path::new("BENCHMARK.json"))
        .and_then(|spec| Ok((spec, load(Path::new(a))?, load(Path::new(b))?)));
    let ((workloads, metrics), runs_a, runs_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("pmcf_benchmark compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_agree = true;
    println!("workload metric | A: median [q1, q3] spread n | B: median [q1, q3] spread n | B/A-1 bound verdict");
    for w in &workloads {
        for spec in &metrics {
            let get = |r: &Runs| {
                r.get(w)
                    .and_then(|m| m.get(&spec.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (get(&runs_a), get(&runs_b));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{w} {} | missing in {}",
                    spec.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                all_agree = false;
                continue;
            }
            let diff = median(vb.iter().copied()) / median(va.iter().copied()) - 1.0;
            let agree = diff.abs() < spec.bound;
            all_agree &= agree;
            println!(
                "{w} {} | {} | {} | {:+.1}% {:.0}% {}",
                spec.name,
                summary(&va),
                summary(&vb),
                100.0 * diff,
                100.0 * spec.bound,
                if agree { "agree" } else { "DIFFER" }
            );
        }
    }
    if all_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
