//! Noise-aware regression gate over `pmcf.bench/v1` artifacts.
//!
//! [`gate`] diffs a candidate artifact against a committed baseline row
//! by row and metric by metric. Thresholds are chosen so deterministic
//! counters (work, depth, iterations) tolerate small model drift (±5%
//! noise passes) while a genuine 2× blow-up fails; wall-clock metrics
//! are advisory only (CI machines are too noisy to gate on), and fitted
//! scaling exponents are checked with an absolute slack. The
//! `bench-gate` binary wraps this as `... --json - | bench-gate
//! --baseline results/baseline/<bench>.json`.

use pmcf_obs::json::{parse, JsonValue};

// Gate thresholds. Every ratio compares `candidate/baseline` and fires
// when the candidate is *worse* (larger); improvements never fail the
// gate. They are constants: a bound that could be set per run would only
// add a way to loosen the gate.

/// Max allowed ratio for work-like counters (deterministic; 1.30 absorbs
/// model drift from minor refactors, flags 2×).
pub const WORK_RATIO: f64 = 1.30;
/// Max allowed ratio for depth counters.
pub const DEPTH_RATIO: f64 = 1.30;
/// Max allowed ratio for iteration counts.
pub const ITER_RATIO: f64 = 1.50;
/// Advisory ratio for wall-clock metrics (produces warnings, never
/// failures).
pub const WALL_RATIO: f64 = 3.0;
/// Absolute slack for fitted scaling exponents (|Δ| above this fails).
pub const EXPONENT_SLACK: f64 = 0.35;

/// How a metric is judged, inferred from its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricClass {
    Work,
    Depth,
    Iter,
    Wall,
    Exponent,
    Other,
}

fn classify(name: &str) -> MetricClass {
    let n = name.to_ascii_lowercase();
    if n.contains("exponent") {
        MetricClass::Exponent
    } else if n.contains("wall") || n.contains("seconds") || n.contains("time") {
        MetricClass::Wall
    } else if n.contains("depth") {
        MetricClass::Depth
    } else if n.contains("iter") {
        MetricClass::Iter
    } else if n.contains("work") || n == "cost" {
        MetricClass::Work
    } else {
        MetricClass::Other
    }
}

/// Severity of one finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Gate fails (nonzero exit).
    Fail,
    /// Advisory only.
    Warn,
}

/// One metric that moved past its threshold.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Identity of the row (or `<top-level>` for artifact extras).
    pub row: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Fail or warn.
    pub severity: Severity,
    /// Human-readable explanation with the threshold that fired.
    pub detail: String,
}

/// The gate's verdict over a baseline/candidate pair.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Bench name (from the baseline artifact).
    pub bench: String,
    /// Seed the candidate artifact was produced with, when recorded.
    pub seed: Option<u64>,
    /// Everything that moved past a threshold.
    pub findings: Vec<Finding>,
    /// Rows matched between the two artifacts.
    pub rows_compared: usize,
    /// Numeric metrics compared across matched rows and extras.
    pub metrics_compared: usize,
}

impl GateReport {
    /// True when no finding is a failure (warnings don't gate).
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Fail)
    }

    /// Failures only.
    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Fail)
    }

    /// Exact shell commands that reproduce the candidate measurement for
    /// each failing row, deduplicated. The command re-runs the bench bin
    /// at the failing row's instance size with the candidate's seed and
    /// the full observability surface enabled, so the regression can be
    /// re-measured (and triaged span-by-span via `report_diff`) without
    /// reverse-engineering the sweep.
    pub fn repro_commands(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for f in self.failures() {
            let cap = row_param(&f.row, "n").or_else(|| row_param(&f.row, "size"));
            let mut cmd = format!(
                "PMCF_REPORT=results/candidate/{b}.report.json \
                 cargo run --release -p pmcf-bench --bin {b} --",
                b = self.bench
            );
            if let Some(cap) = cap {
                cmd.push_str(&format!(" {cap}"));
            }
            if let Some(seed) = self.seed {
                cmd.push_str(&format!(" --seed {seed}"));
            }
            cmd.push_str(&format!(" --json results/candidate/{}.json", self.bench));
            if !out.contains(&cmd) {
                out.push(cmd);
            }
        }
        out
    }

    /// Markdown summary: verdict line plus a findings table when
    /// anything fired.
    pub fn to_markdown(&self) -> String {
        let fails = self.failures().count();
        let warns = self.findings.len() - fails;
        let mut out = format!(
            "## bench-gate — {}\n\n{}: {} rows, {} metrics compared; {} failure(s), {} warning(s)\n",
            self.bench,
            if self.passed() { "PASS" } else { "FAIL" },
            self.rows_compared,
            self.metrics_compared,
            fails,
            warns,
        );
        if !self.findings.is_empty() {
            out.push_str("\n| row | metric | baseline | candidate | severity | detail |\n");
            out.push_str("|---|---|---:|---:|---|---|\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "| {} | {} | {:.4} | {:.4} | {} | {} |\n",
                    f.row,
                    f.metric,
                    f.baseline,
                    f.candidate,
                    match f.severity {
                        Severity::Fail => "FAIL",
                        Severity::Warn => "warn",
                    },
                    f.detail,
                ));
            }
        }
        let repro = self.repro_commands();
        if !repro.is_empty() {
            out.push_str("\n### Reproduce\n\n```sh\n");
            for cmd in &repro {
                out.push_str(cmd);
                out.push('\n');
            }
            out.push_str("```\n");
        }
        out
    }
}

/// Extract a named numeric sweep parameter (`key=value`) from a
/// [`row_key`]-formatted row identity string. Integral values print
/// without a trailing `.0` so they can be passed back as a bench-bin
/// positional argument.
fn row_param(row: &str, key: &str) -> Option<String> {
    for tok in row.split(' ') {
        if let Some(v) = tok.strip_prefix(&format!("{key}=")) {
            if let Ok(x) = v.parse::<f64>() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    return Some(format!("{}", x as i64));
                }
                return Some(v.to_string());
            }
        }
    }
    None
}

/// Parse an artifact and verify it carries the `pmcf.bench/v1` schema.
pub fn parse_artifact(src: &str) -> Result<JsonValue, String> {
    let v = parse(src)?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == crate::artifact::SCHEMA => Ok(v),
        other => Err(format!(
            "not a {} artifact (schema {:?})",
            crate::artifact::SCHEMA,
            other
        )),
    }
}

/// Numeric fields that parameterize a row (instance dimensions and sweep
/// knobs) rather than measure it. They join the row key so that rows of
/// the same instance at different sweep points don't collide — a
/// collision makes the gate diff *mismatched* rows, which can fail a
/// baseline against itself (or mask a regression when the first match
/// happens to be the cheapest row).
const KEY_FIELDS: [&str; 7] = ["n", "m", "size", "batch", "sources", "rounds", "eps"];

/// Identity of a row: the bench-stable fields (all string values, plus
/// the parameter fields of [`KEY_FIELDS`] when present), independent of
/// the measured metrics.
fn row_key(row: &JsonValue) -> String {
    let mut parts = Vec::new();
    if let Some(obj) = row.as_obj() {
        for (k, v) in obj {
            match v {
                JsonValue::Str(s) => parts.push(format!("{k}={s}")),
                _ if KEY_FIELDS.contains(&k.as_str()) => {
                    if let Some(x) = v.as_f64() {
                        parts.push(format!("{k}={x}"));
                    }
                }
                _ => {}
            }
        }
    }
    if parts.is_empty() {
        "<row>".to_string()
    } else {
        parts.join(" ")
    }
}

fn ratio(baseline: f64, candidate: f64) -> f64 {
    if baseline.abs() < 1e-12 {
        if candidate.abs() < 1e-12 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        candidate / baseline
    }
}

/// Compare one named metric pair, pushing a finding when it crosses its
/// class threshold. Returns whether the metric was numeric (counted).
fn judge_metric(
    row: &str,
    name: &str,
    base: &JsonValue,
    cand: &JsonValue,
    findings: &mut Vec<Finding>,
) -> bool {
    // boolean invariants: a true→false flip is always a regression
    if let (JsonValue::Bool(b), JsonValue::Bool(c)) = (base, cand) {
        if *b && !*c {
            findings.push(Finding {
                row: row.to_string(),
                metric: name.to_string(),
                baseline: 1.0,
                candidate: 0.0,
                severity: Severity::Fail,
                detail: "boolean invariant regressed true → false".to_string(),
            });
        }
        return false;
    }
    // nested objects (e.g. the per-solver `exponents` map): recurse one
    // level, qualifying the metric name with the outer key
    if let (JsonValue::Obj(bo), JsonValue::Obj(_)) = (base, cand) {
        for (k, bv) in bo {
            if let Some(cv) = cand.get(k) {
                judge_metric(row, &format!("{name}.{k}"), bv, cv, findings);
            }
        }
        return false;
    }
    let (Some(b), Some(c)) = (base.as_f64(), cand.as_f64()) else {
        return false;
    };
    let class = classify(name);
    match class {
        MetricClass::Exponent => {
            let delta = (c - b).abs();
            if delta > EXPONENT_SLACK {
                findings.push(Finding {
                    row: row.to_string(),
                    metric: name.to_string(),
                    baseline: b,
                    candidate: c,
                    severity: Severity::Fail,
                    detail: format!("exponent moved by {delta:.3} (slack {EXPONENT_SLACK:.3})"),
                });
            }
        }
        MetricClass::Wall => {
            let r = ratio(b, c);
            if r > WALL_RATIO {
                findings.push(Finding {
                    row: row.to_string(),
                    metric: name.to_string(),
                    baseline: b,
                    candidate: c,
                    severity: Severity::Warn,
                    detail: format!(
                        "wall-clock {r:.2}× baseline (advisory, threshold {WALL_RATIO:.2}×)"
                    ),
                });
            }
        }
        MetricClass::Work | MetricClass::Depth | MetricClass::Iter | MetricClass::Other => {
            let limit = match class {
                MetricClass::Depth => DEPTH_RATIO,
                MetricClass::Iter => ITER_RATIO,
                _ => WORK_RATIO,
            };
            let r = ratio(b, c);
            if r > limit {
                findings.push(Finding {
                    row: row.to_string(),
                    metric: name.to_string(),
                    baseline: b,
                    candidate: c,
                    // unknown counters are advisory: their scale-up may
                    // be benign (e.g. a sampler touching more buckets)
                    severity: if class == MetricClass::Other {
                        Severity::Warn
                    } else {
                        Severity::Fail
                    },
                    detail: format!("{r:.2}× baseline (threshold {limit:.2}×)"),
                });
            }
        }
    }
    true
}

/// Does this value carry depth or exponent measurements? Used to decide
/// whether a candidate-only row/metric deserves an advisory finding: a
/// new depth or exponent series is exactly the kind of coverage that
/// should get pinned into the baseline, so the gate says so (as a
/// warning — a freshly-added measurement cannot regress anything).
fn carries_depth_or_exponent(name: &str, v: &JsonValue) -> bool {
    match v {
        JsonValue::Obj(pairs) => pairs
            .iter()
            .any(|(k, pv)| carries_depth_or_exponent(&format!("{name}.{k}"), pv)),
        JsonValue::Int(_) | JsonValue::UInt(_) | JsonValue::Float(_) => {
            matches!(classify(name), MetricClass::Depth | MetricClass::Exponent)
        }
        _ => false,
    }
}

/// Diff `candidate` against `baseline`.
///
/// Rows are matched by `row_key`; a baseline row with no candidate
/// counterpart is itself a failure (coverage must not silently shrink).
/// Extra candidate rows are allowed; when such a row (or a candidate-only
/// top-level metric) carries depth or exponent measurements it earns an
/// advisory finding asking for a baseline pin, never a failure. Returns
/// `Err` when the two artifacts are not the same bench.
pub fn gate(baseline: &JsonValue, candidate: &JsonValue) -> Result<GateReport, String> {
    let bench = baseline
        .get("bench")
        .and_then(JsonValue::as_str)
        .unwrap_or("<unknown>")
        .to_string();
    let cand_bench = candidate
        .get("bench")
        .and_then(JsonValue::as_str)
        .unwrap_or("<unknown>");
    if bench != cand_bench {
        return Err(format!(
            "bench mismatch: baseline is {bench:?}, candidate is {cand_bench:?}"
        ));
    }
    let seed = candidate.get("seed").and_then(JsonValue::as_u64);
    let base_rows = baseline
        .get("rows")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);
    let cand_rows = candidate
        .get("rows")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);

    let mut findings = Vec::new();
    let mut rows_compared = 0;
    let mut metrics_compared = 0;

    for brow in base_rows {
        let key = row_key(brow);
        let Some(crow) = cand_rows.iter().find(|r| row_key(r) == key) else {
            findings.push(Finding {
                row: key,
                metric: "<row>".to_string(),
                baseline: 1.0,
                candidate: 0.0,
                severity: Severity::Fail,
                detail: "row present in baseline but missing from candidate".to_string(),
            });
            continue;
        };
        rows_compared += 1;
        if let Some(obj) = brow.as_obj() {
            for (name, bval) in obj {
                if let Some(cval) = crow.get(name) {
                    if judge_metric(&row_key(brow), name, bval, cval, &mut findings) {
                        metrics_compared += 1;
                    }
                }
            }
        }
    }

    // candidate-only rows: never a failure, but a new depth/exponent
    // series is coverage worth pinning — surface it as an advisory
    for crow in cand_rows {
        let key = row_key(crow);
        if base_rows.iter().any(|r| row_key(r) == key) {
            continue;
        }
        let depthish = crow
            .as_obj()
            .map(|obj| obj.iter().any(|(k, v)| carries_depth_or_exponent(k, v)))
            .unwrap_or(false);
        if depthish {
            findings.push(Finding {
                row: key,
                metric: "<row>".to_string(),
                baseline: 0.0,
                candidate: 1.0,
                severity: Severity::Warn,
                detail: "new depth/exponent row, advisory — pin it into the baseline".to_string(),
            });
        }
    }

    // top-level extras (fitted exponents, sweep metadata) — everything
    // except the structural keys
    if let Some(obj) = baseline.as_obj() {
        for (name, bval) in obj {
            if matches!(
                name.as_str(),
                "schema" | "bench" | "seed" | "rows" | "profile"
            ) {
                continue;
            }
            if let Some(cval) = candidate.get(name) {
                if judge_metric("<top-level>", name, bval, cval, &mut findings) {
                    metrics_compared += 1;
                }
            }
        }
    }

    // candidate-only top-level depth/exponent metrics: same advisory
    if let Some(obj) = candidate.as_obj() {
        for (name, cval) in obj {
            if matches!(
                name.as_str(),
                "schema" | "bench" | "seed" | "rows" | "profile"
            ) || baseline.get(name).is_some()
            {
                continue;
            }
            if carries_depth_or_exponent(name, cval) {
                findings.push(Finding {
                    row: "<top-level>".to_string(),
                    metric: name.to_string(),
                    baseline: 0.0,
                    candidate: cval.as_f64().unwrap_or(1.0),
                    severity: Severity::Warn,
                    detail: "new depth/exponent metric, advisory — pin it into the baseline"
                        .to_string(),
                });
            }
        }
    }

    Ok(GateReport {
        bench,
        seed,
        findings,
        rows_compared,
        metrics_compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(rows: &[(&str, u64, u64, f64)], exponent: f64) -> JsonValue {
        let rows_json: String = rows
            .iter()
            .map(|(s, w, d, wall)| {
                format!(
                    r#"{{"solver":"{s}","n":16,"m":64,"work":{w},"depth":{d},"wall_seconds":{wall},"feasible":true}}"#
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        parse(&format!(
            r#"{{"schema":"pmcf.bench/v1","bench":"demo","seed":42,"work_exponent":{exponent},"rows":[{rows_json}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = art(&[("ref", 1000, 50, 0.1), ("robust", 800, 30, 0.2)], 1.5);
        let r = gate(&a, &a).unwrap();
        assert!(r.passed(), "{}", r.to_markdown());
        assert_eq!(r.rows_compared, 2);
        assert!(r.findings.is_empty());
        assert!(r.metrics_compared >= 8);
    }

    #[test]
    fn five_percent_noise_passes() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.50);
        let cand = art(&[("ref", 1050, 52, 0.104)], 1.55);
        let r = gate(&base, &cand).unwrap();
        assert!(r.passed(), "{}", r.to_markdown());
        assert!(r.findings.is_empty());
    }

    #[test]
    fn doubled_work_fails() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let cand = art(&[("ref", 2000, 50, 0.1)], 1.5);
        let r = gate(&base, &cand).unwrap();
        assert!(!r.passed());
        let f: Vec<_> = r.failures().collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].metric, "work");
    }

    #[test]
    fn missing_row_fails_but_extra_row_is_fine() {
        let base = art(&[("ref", 1000, 50, 0.1), ("robust", 800, 30, 0.2)], 1.5);
        let cand = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let r = gate(&base, &cand).unwrap();
        assert!(!r.passed());
        assert!(r.failures().any(|f| f.metric == "<row>"));
        // reversed direction: candidate grew a row — allowed
        let r2 = gate(&cand, &base).unwrap();
        assert!(r2.passed(), "{}", r2.to_markdown());
    }

    #[test]
    fn exponent_slack_is_absolute() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.50);
        let ok = art(&[("ref", 1000, 50, 0.1)], 1.80);
        let bad = art(&[("ref", 1000, 50, 0.1)], 1.90);
        assert!(gate(&base, &ok).unwrap().passed());
        let r = gate(&base, &bad).unwrap();
        assert!(!r.passed());
        assert!(r.failures().any(|f| f.metric == "work_exponent"));
    }

    #[test]
    fn wall_clock_blowup_only_warns() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let cand = art(&[("ref", 1000, 50, 5.0)], 1.5);
        let r = gate(&base, &cand).unwrap();
        assert!(r.passed(), "wall must not gate: {}", r.to_markdown());
        assert!(r
            .findings
            .iter()
            .any(|f| f.severity == Severity::Warn && f.metric == "wall_seconds"));
    }

    #[test]
    fn boolean_invariant_flip_fails() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let src = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":42,"work_exponent":1.5,"rows":[{"solver":"ref","n":16,"m":64,"work":1000,"depth":50,"wall_seconds":0.1,"feasible":false}]}"#,
        )
        .unwrap();
        let r = gate(&base, &src).unwrap();
        assert!(!r.passed());
        assert!(r.failures().any(|f| f.metric == "feasible"));
    }

    #[test]
    fn nested_exponent_maps_are_compared() {
        let base = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":1,"exponents":{"robust":1.5},"rows":[]}"#,
        )
        .unwrap();
        let bad = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":1,"exponents":{"robust":2.1},"rows":[]}"#,
        )
        .unwrap();
        let r = gate(&base, &bad).unwrap();
        assert!(!r.passed());
        assert!(r.failures().any(|f| f.metric == "exponents.robust"));
        assert!(gate(&base, &base).unwrap().passed());
    }

    #[test]
    fn bench_mismatch_is_an_error() {
        let a = art(&[("ref", 1, 1, 0.1)], 1.5);
        let b = parse(r#"{"schema":"pmcf.bench/v1","bench":"other","seed":1,"rows":[]}"#).unwrap();
        assert!(gate(&a, &b).is_err());
    }

    #[test]
    fn improvements_never_fail() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let cand = art(&[("ref", 100, 5, 0.01)], 1.5);
        let r = gate(&base, &cand).unwrap();
        assert!(r.passed(), "{}", r.to_markdown());
    }

    #[test]
    fn sweep_parameter_fields_disambiguate_rows() {
        // Three rows of the same instance at different sweep points
        // (`batch`) must pair up batch-for-batch: without `batch` in the
        // row key, every baseline row diffs against the *first* candidate
        // row and a baseline can fail against itself.
        let rows = |w16: u64, w64: u64, w256: u64| {
            parse(&format!(
                r#"{{"schema":"pmcf.bench/v1","bench":"demo","seed":7,"rows":[
                    {{"section":"dynx","n":128,"m":1024,"batch":16,"work":{w16}}},
                    {{"section":"dynx","n":128,"m":1024,"batch":64,"work":{w64}}},
                    {{"section":"dynx","n":128,"m":1024,"batch":256,"work":{w256}}}]}}"#
            ))
            .unwrap()
        };
        let base = rows(1_700_000, 900_000, 800_000);
        let r = gate(&base, &base).unwrap();
        assert!(r.passed(), "self-gate must pass: {}", r.to_markdown());
        assert!(r.findings.is_empty());
        // a genuine regression in the *last* sweep point still fails
        let bad = rows(1_700_000, 900_000, 1_700_000);
        let r = gate(&base, &bad).unwrap();
        assert!(!r.passed());
        assert!(r
            .failures()
            .any(|f| f.metric == "work" && f.row.contains("batch=256")));
    }

    #[test]
    fn new_depth_row_is_advisory_not_failure() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        // candidate grows a new-keyed row carrying a depth metric
        let cand = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":42,"work_exponent":1.5,"rows":[
                {"solver":"ref","n":16,"m":64,"work":1000,"depth":50,"wall_seconds":0.1,"feasible":true},
                {"section":"critpath","solver":"robust","n":16,"total_depth":4200}]}"#,
        )
        .unwrap();
        let r = gate(&base, &cand).unwrap();
        assert!(r.passed(), "{}", r.to_markdown());
        assert!(r.findings.iter().any(|f| f.severity == Severity::Warn
            && f.metric == "<row>"
            && f.detail.contains("advisory")),);
        // a candidate-only row with no depth/exponent content stays silent
        let quiet = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":42,"work_exponent":1.5,"rows":[
                {"solver":"ref","n":16,"m":64,"work":1000,"depth":50,"wall_seconds":0.1,"feasible":true},
                {"section":"extra","solver":"robust","n":16,"work":7}]}"#,
        )
        .unwrap();
        let r = gate(&base, &quiet).unwrap();
        assert!(r.passed());
        assert!(r.findings.is_empty(), "{}", r.to_markdown());
    }

    #[test]
    fn new_top_level_depth_exponents_are_advisory() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let cand = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":42,"work_exponent":1.5,
                "depth_exponents":{"robust":0.62},"rows":[
                {"solver":"ref","n":16,"m":64,"work":1000,"depth":50,"wall_seconds":0.1,"feasible":true}]}"#,
        )
        .unwrap();
        let r = gate(&base, &cand).unwrap();
        assert!(r.passed(), "{}", r.to_markdown());
        assert!(r
            .findings
            .iter()
            .any(|f| f.severity == Severity::Warn && f.metric == "depth_exponents"));
        // once pinned, the same metric gates like any exponent
        let pinned = cand.clone();
        let drifted = parse(
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":42,"work_exponent":1.5,
                "depth_exponents":{"robust":1.12},"rows":[
                {"solver":"ref","n":16,"m":64,"work":1000,"depth":50,"wall_seconds":0.1,"feasible":true}]}"#,
        )
        .unwrap();
        let r = gate(&pinned, &drifted).unwrap();
        assert!(!r.passed());
        assert!(r.failures().any(|f| f.metric == "depth_exponents.robust"));
    }

    #[test]
    fn failing_gate_carries_exact_repro_command() {
        let base = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let cand = art(&[("ref", 2000, 120, 0.1)], 1.5);
        let r = gate(&base, &cand).unwrap();
        assert!(!r.passed());
        assert_eq!(r.seed, Some(42));
        let repro = r.repro_commands();
        // two failing metrics (work, depth) on the same row dedup to one
        // command line
        assert_eq!(repro.len(), 1, "{repro:?}");
        let cmd = &repro[0];
        assert!(cmd.contains("--bin demo"), "{cmd}");
        assert!(cmd.contains(" 16 "), "instance size from row key: {cmd}");
        assert!(cmd.contains("--seed 42"), "{cmd}");
        assert!(
            cmd.starts_with("PMCF_REPORT=results/candidate/demo.report.json cargo run"),
            "{cmd}"
        );
        let md = r.to_markdown();
        assert!(md.contains("### Reproduce"), "{md}");
        assert!(md.contains(cmd.as_str()), "{md}");
    }

    #[test]
    fn passing_gate_has_no_repro_section() {
        let a = art(&[("ref", 1000, 50, 0.1)], 1.5);
        let r = gate(&a, &a).unwrap();
        assert!(r.repro_commands().is_empty());
        assert!(!r.to_markdown().contains("### Reproduce"));
    }

    #[test]
    fn parse_artifact_rejects_wrong_schema() {
        assert!(parse_artifact(r#"{"schema":"pmcf.events/v1"}"#).is_err());
        assert!(parse_artifact(r#"{"schema":"pmcf.bench/v1","bench":"x","rows":[]}"#).is_ok());
    }
}
