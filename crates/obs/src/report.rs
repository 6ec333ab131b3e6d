//! Unified run reports: one machine-readable artifact per solve.
//!
//! PRs 1–6 grew five separate telemetry streams — span profiles, flight
//! recorder events, critical-path ledgers, counters, and pool telemetry —
//! each with its own schema and its own output path. A [`RunReport`]
//! (`pmcf.report/v1`) ties them together for *one* run: the span-profile
//! tree, the critical-path attribution, every counter, a pool-telemetry
//! summary, the invariant-monitor verdicts, and a per-iteration IPM
//! convergence table (μ, duality-gap proxy, step size, CG iterations,
//! wall ns) recorded from both IPM loops.
//!
//! Two ways to produce one:
//!
//! * **Environment** — set `PMCF_REPORT=<path>` and call
//!   [`report_init_from_env`] at process start; both IPM loops then feed
//!   [`record_ipm_iter`] (which also emits the `ipm.iter` event when a
//!   flight recorder is installed), and `tracker_from_env` (in `pmcf-pram`)
//!   switches the span profiler and depth ledger on automatically. At
//!   the end of the run, [`take_run_report`] +
//!   [`RunReport::absorb_tracker`] + [`RunReport::write`] land the
//!   artifact.
//! * **Builder** — call [`report_begin`] / [`record_ipm_iter`] /
//!   [`take_run_report`] programmatically (tests, embedding harnesses).
//!
//! Reports round-trip through the in-tree JSON reader
//! ([`RunReport::from_json`]), which is what the cross-run diff engine
//! ([`crate::reportdiff`]) consumes.
//!
//! With neither a report nor a flight recorder listening, an IPM
//! iteration costs two relaxed atomic loads and builds no row.

use crate::event::Value;
use crate::monitor::{run_monitors, Verdict};
use crate::recorder::{self, FlightRecorder, DEFAULT_CAPACITY};
use pmcf_pram::profile::{json_string, SpanReport};
use pmcf_pram::{CritPathEntry, CritPathReport, Tracker};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

pub use pmcf_pram::profile::REPORT_ENV;

/// Schema identifier stamped into every run report.
pub const REPORT_SCHEMA: &str = "pmcf.report/v1";

/// One node of the span tree carried by a report (the profile tree with
/// wall time flattened to nanoseconds so it serializes losslessly).
///
/// Work/depth are **inclusive** — a span's cost contains its children's
/// (child scopes are subsets of the parent scope) — mirroring
/// `pmcf.profile/v1`. Use [`ReportSpan::self_work`] and friends for
/// exclusive ("self") costs.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSpan {
    /// Span name as passed to `Tracker::span`.
    pub name: String,
    /// Work accumulated inside this span across all invocations.
    pub work: u64,
    /// Depth accumulated inside this span across all invocations.
    pub depth: u64,
    /// Wall nanoseconds spent inside this span across all invocations.
    pub wall_ns: u64,
    /// Number of times the span was entered.
    pub count: u64,
    /// Nested spans, in first-entered order.
    pub children: Vec<ReportSpan>,
}

impl ReportSpan {
    /// Convert a profiler span (recursively).
    pub fn from_profile(s: &SpanReport) -> ReportSpan {
        ReportSpan {
            name: s.name.clone(),
            work: s.work,
            depth: s.depth,
            wall_ns: s.wall.as_nanos() as u64,
            count: s.count,
            children: s.children.iter().map(ReportSpan::from_profile).collect(),
        }
    }

    /// Work charged in this span but not in any child (exclusive cost).
    pub fn self_work(&self) -> u64 {
        self.work
            .saturating_sub(self.children.iter().map(|c| c.work).sum())
    }

    /// Depth charged in this span but not in any child.
    pub fn self_depth(&self) -> u64 {
        self.depth
            .saturating_sub(self.children.iter().map(|c| c.depth).sum())
    }

    /// Wall nanoseconds spent in this span but not in any child.
    pub fn self_wall_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.children.iter().map(|c| c.wall_ns).sum())
    }
}

/// One IPM iteration: a row of the report's convergence table and the
/// payload of the `ipm.iter` event (see [`IpmIterRow::fields`]).
#[derive(Clone, Debug, PartialEq)]
pub struct IpmIterRow {
    /// Engine that ran the iteration (`"reference"` / `"robust"`).
    pub engine: String,
    /// Iteration index (1-based, as counted by the engine's stats).
    pub iteration: u64,
    /// Path parameter μ at the start of the iteration.
    pub mu: f64,
    /// Duality-gap proxy (`μ · Σ τ` for both engines).
    pub gap: f64,
    /// Multiplicative μ step applied at the end of the iteration
    /// (`None` when the engine took no centering step this iteration).
    pub step: Option<f64>,
    /// CG iterations spent inside this IPM iteration.
    pub cg_iters: u64,
    /// Wall nanoseconds for this IPM iteration.
    pub wall_ns: u64,
    /// Cumulative charged work at the end of the iteration (0 in
    /// reports written before this column existed).
    pub work: u64,
    /// Cumulative charged depth at the end of the iteration (0 in
    /// reports written before this column existed).
    pub depth: u64,
}

impl IpmIterRow {
    /// The row as named fields, in serialization order: the `ipm.iter`
    /// event's fields and the keys of the report's convergence object.
    /// `step` is left out when the engine took no centering step.
    pub fn fields(&self) -> Vec<(&'static str, Value)> {
        let mut fields = vec![
            ("engine", Value::from(self.engine.as_str())),
            ("iteration", self.iteration.into()),
            ("mu", self.mu.into()),
            ("gap", self.gap.into()),
        ];
        if let Some(step) = self.step {
            fields.push(("step", step.into()));
        }
        fields.extend([
            ("cg_iters", self.cg_iters.into()),
            ("wall_ns", self.wall_ns.into()),
            ("work", self.work.into()),
            ("depth", self.depth.into()),
        ]);
        fields
    }
}

/// Critical-path attribution carried by a report (a flattened
/// `pmcf.critpath/v1` snapshot).
#[derive(Clone, Debug, PartialEq)]
pub struct CritSummary {
    /// The tracker's total depth at snapshot time.
    pub total_depth: u64,
    /// Sum over entries (equals `total_depth` — the ledger is exact).
    pub attributed_depth: u64,
    /// Fork-join merge points folded into the attribution.
    pub joins: u64,
    /// Span paths on the critical path, deepest first.
    pub entries: Vec<CritPathEntry>,
}

impl CritSummary {
    /// Flatten a ledger report.
    pub fn from_report(r: &CritPathReport) -> CritSummary {
        CritSummary {
            total_depth: r.total_depth,
            attributed_depth: r.attributed_depth,
            joins: r.joins,
            entries: r.entries.clone(),
        }
    }
}

/// Thread-pool telemetry summary (fork/join/steal counters and the
/// busiest-over-mean imbalance ratio at snapshot time).
#[derive(Clone, Debug, PartialEq)]
pub struct PoolSummary {
    /// Worker threads in the pool (1 = sequential execution).
    pub threads: u64,
    /// Fork-join points executed.
    pub joins: u64,
    /// Batches split across the pool.
    pub batches: u64,
    /// Jobs pushed onto the shared queue.
    pub jobs_queued: u64,
    /// First-of-batch jobs run inline on the submitting thread.
    pub jobs_inline: u64,
    /// Queued jobs executed by a blocked thread while it waited.
    pub steals: u64,
    /// Max-over-mean busy time across threads (0.0 when not recorded).
    pub imbalance: f64,
}

/// The unified run report (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Run name (bench bin name, or whatever the builder passed).
    pub name: String,
    /// Pool thread count the run executed with.
    pub threads: u64,
    /// Total charged work (thread-count independent).
    pub work: u64,
    /// Total charged depth (thread-count independent).
    pub depth: u64,
    /// Top-level spans of the profile tree.
    pub spans: Vec<ReportSpan>,
    /// Monotone counters (includes `pmcf.alloc.*` and solver counters).
    pub counters: BTreeMap<String, u64>,
    /// Critical-path attribution, when the depth ledger ran.
    pub critpath: Option<CritSummary>,
    /// Pool telemetry, when available.
    pub pool: Option<PoolSummary>,
    /// Invariant-monitor verdicts over the run's event stream.
    pub verdicts: Vec<Verdict>,
    /// Per-iteration IPM convergence table, in recording order.
    pub convergence: Vec<IpmIterRow>,
}

impl RunReport {
    /// An empty report with just a name.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            threads: 1,
            work: 0,
            depth: 0,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            critpath: None,
            pool: None,
            verdicts: Vec::new(),
            convergence: Vec::new(),
        }
    }

    /// Pull totals, the span tree, counters, and the critical path out of
    /// a tracker (profile/critpath sections stay empty on an unprofiled
    /// tracker).
    pub fn absorb_tracker(&mut self, t: &Tracker) {
        self.work = t.work();
        self.depth = t.depth();
        if let Some(p) = t.profile_report() {
            self.spans = p.spans.iter().map(ReportSpan::from_profile).collect();
            self.counters = p.counters.clone();
        }
        if let Some(c) = t.critpath_report() {
            self.critpath = Some(CritSummary::from_report(&c));
        }
    }

    /// Schema-versioned JSON rendering (`pmcf.report/v1`).
    pub fn to_json(&self) -> String {
        fn span_json(s: &ReportSpan, out: &mut String) {
            out.push_str(&format!(
                "{{\"name\":{},\"work\":{},\"depth\":{},\"wall_ns\":{},\"count\":{},\"children\":[",
                json_string(&s.name),
                s.work,
                s.depth,
                s.wall_ns,
                s.count
            ));
            for (i, c) in s.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                span_json(c, out);
            }
            out.push_str("]}");
        }
        let mut out = format!(
            "{{\"schema\":{},\"name\":{},\"threads\":{},\"work\":{},\"depth\":{},\"spans\":[",
            json_string(REPORT_SCHEMA),
            json_string(&self.name),
            self.threads,
            self.work,
            self.depth
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_json(s, &mut out);
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v));
        }
        out.push_str("},\"critpath\":");
        match &self.critpath {
            None => out.push_str("null"),
            Some(c) => {
                out.push_str(&format!(
                    "{{\"total_depth\":{},\"attributed_depth\":{},\"joins\":{},\"entries\":[",
                    c.total_depth, c.attributed_depth, c.joins
                ));
                for (i, e) in c.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"path\":{},\"depth\":{}}}",
                        json_string(&e.path),
                        e.depth
                    ));
                }
                out.push_str("]}");
            }
        }
        out.push_str(",\"pool\":");
        match &self.pool {
            None => out.push_str("null"),
            Some(p) => out.push_str(&format!(
                "{{\"threads\":{},\"joins\":{},\"batches\":{},\"jobs_queued\":{},\
                 \"jobs_inline\":{},\"steals\":{},\"imbalance\":{}}}",
                p.threads,
                p.joins,
                p.batches,
                p.jobs_queued,
                p.jobs_inline,
                p.steals,
                fmt_f64(p.imbalance)
            )),
        }
        out.push_str(",\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"monitor\":{},\"ok\":{},\"checked\":{},\"detail\":{}}}",
                json_string(&v.monitor),
                v.ok,
                v.checked,
                json_string(&v.detail)
            ));
        }
        out.push_str("],\"convergence\":[");
        for (i, r) in self.convergence.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (k, v)) in r.fields().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(k));
                out.push(':');
                v.render(&mut out);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a `pmcf.report/v1` document (the round-trip inverse of
    /// [`RunReport::to_json`]).
    pub fn from_json(src: &str) -> Result<RunReport, String> {
        use crate::json::{parse, JsonValue};
        let v = parse(src)?;
        match v.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == REPORT_SCHEMA => {}
            other => return Err(format!("not a {REPORT_SCHEMA} report (schema {other:?})")),
        }
        fn span_of(v: &JsonValue) -> Result<ReportSpan, String> {
            Ok(ReportSpan {
                name: str_field(v, "name")?,
                work: u64_field(v, "work")?,
                depth: u64_field(v, "depth")?,
                wall_ns: u64_field(v, "wall_ns")?,
                count: u64_field(v, "count")?,
                children: v
                    .get("children")
                    .and_then(JsonValue::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(span_of)
                    .collect::<Result<_, _>>()?,
            })
        }
        let spans = v
            .get("spans")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(span_of)
            .collect::<Result<_, _>>()?;
        let mut counters = BTreeMap::new();
        if let Some(obj) = v.get("counters").and_then(JsonValue::as_obj) {
            for (k, cv) in obj {
                counters.insert(
                    k.clone(),
                    as_u64(cv).ok_or_else(|| format!("counter {k:?} is not a u64"))?,
                );
            }
        }
        let critpath = match v.get("critpath") {
            None | Some(JsonValue::Null) => None,
            Some(c) => Some(CritSummary {
                total_depth: u64_field(c, "total_depth")?,
                attributed_depth: u64_field(c, "attributed_depth")?,
                joins: u64_field(c, "joins")?,
                entries: c
                    .get("entries")
                    .and_then(JsonValue::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|e| {
                        Ok(CritPathEntry {
                            path: str_field(e, "path")?,
                            depth: u64_field(e, "depth")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            }),
        };
        let pool = match v.get("pool") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(PoolSummary {
                threads: u64_field(p, "threads")?,
                joins: u64_field(p, "joins")?,
                batches: u64_field(p, "batches")?,
                jobs_queued: u64_field(p, "jobs_queued")?,
                jobs_inline: u64_field(p, "jobs_inline")?,
                steals: u64_field(p, "steals")?,
                imbalance: f64_field(p, "imbalance")?,
            }),
        };
        let verdicts = v
            .get("verdicts")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                Ok(Verdict {
                    monitor: str_field(m, "monitor")?,
                    ok: match m.get("ok") {
                        Some(JsonValue::Bool(b)) => *b,
                        _ => return Err("verdict missing boolean `ok`".to_string()),
                    },
                    checked: u64_field(m, "checked")?,
                    detail: str_field(m, "detail")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let convergence = v
            .get("convergence")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|r| {
                Ok(IpmIterRow {
                    engine: str_field(r, "engine")?,
                    iteration: u64_field(r, "iteration")?,
                    mu: f64_field(r, "mu")?,
                    gap: f64_field(r, "gap")?,
                    step: match r.get("step") {
                        None | Some(JsonValue::Null) => None,
                        Some(s) => Some(s.as_f64().ok_or("step is not a number")?),
                    },
                    cg_iters: u64_field(r, "cg_iters")?,
                    wall_ns: u64_field(r, "wall_ns")?,
                    work: r.get("work").map_or(Ok(0), |_| u64_field(r, "work"))?,
                    depth: r.get("depth").map_or(Ok(0), |_| u64_field(r, "depth"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunReport {
            name: str_field(&v, "name")?,
            threads: u64_field(&v, "threads")?,
            work: u64_field(&v, "work")?,
            depth: u64_field(&v, "depth")?,
            spans,
            counters,
            critpath,
            pool,
            verdicts,
            convergence,
        })
    }

    /// Write the JSON report to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut body = self.to_json();
        body.push('\n');
        std::fs::write(path, body)
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

fn as_u64(v: &crate::json::JsonValue) -> Option<u64> {
    use crate::json::JsonValue;
    match v {
        JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
        JsonValue::UInt(u) => Some(*u),
        _ => None,
    }
}

fn u64_field(v: &crate::json::JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing/non-integer field {key:?}"))
}

fn f64_field(v: &crate::json::JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("missing/non-numeric field {key:?}"))
}

fn str_field(v: &crate::json::JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing/non-string field {key:?}"))
}

// ---------------------------------------------------------------------
// The process-global convergence collector.
// ---------------------------------------------------------------------

struct CollectorState {
    rows: Vec<IpmIterRow>,
    path: Option<PathBuf>,
    /// Whether [`report_init_from_env`] installed its own flight
    /// recorder (vs. piggybacking on a `PMCF_EVENTS` one).
    installed_recorder: bool,
}

/// Fast gate: one relaxed load decides the disabled path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static COLLECTOR: Mutex<CollectorState> = Mutex::new(CollectorState {
    rows: Vec::new(),
    path: None,
    installed_recorder: false,
});

fn lock_collector() -> std::sync::MutexGuard<'static, CollectorState> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a run report is currently being collected.
#[inline]
fn report_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Start collecting a run report programmatically (clears any previous
/// collection; no output path is set — the caller keeps the report).
pub fn report_begin() {
    let mut st = lock_collector();
    st.rows.clear();
    st.path = None;
    st.installed_recorder = false;
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Start collecting from the environment: when `PMCF_REPORT=<path>` is
/// set, activate the collector with `<path>` as the output target and —
/// if no flight recorder is installed (no `PMCF_EVENTS`) — install one
/// so the report's monitor verdicts cover the run's events. Returns
/// whether collection was enabled.
pub fn report_init_from_env() -> bool {
    let Some(path) = std::env::var_os(REPORT_ENV).filter(|p| !p.is_empty()) else {
        return false;
    };
    let mut st = lock_collector();
    st.rows.clear();
    st.path = Some(PathBuf::from(path));
    st.installed_recorder = if recorder::recording() {
        false
    } else {
        recorder::install(FlightRecorder::new(DEFAULT_CAPACITY));
        true
    };
    ACTIVE.store(true, Ordering::Relaxed);
    true
}

/// Whether [`record_ipm_iter`] has a sink: a flight recorder on this
/// thread or a report being collected. Engines time an iteration only
/// when one is listening.
#[inline]
pub fn ipm_iter_listening() -> bool {
    report_active() || recorder::recording()
}

/// Record one IPM iteration — the engines' only per-iteration record.
/// The row becomes an `ipm.iter` event when a flight recorder is
/// installed on this thread and a convergence row when a report is
/// being collected. `row` runs only when one of them is listening.
#[inline]
pub fn record_ipm_iter(row: impl FnOnce() -> IpmIterRow) {
    let report = report_active();
    let events = recorder::recording();
    if !(report || events) {
        return;
    }
    let row = row();
    if events {
        recorder::emit("ipm.iter", row.fields());
    }
    if report {
        lock_collector().rows.push(row);
    }
}

/// Finish collecting: deactivate and assemble a [`RunReport`] named
/// `name` with the convergence table, pool-telemetry summary, and
/// monitor verdicts over the current flight recording. Returns `None`
/// when no collection was active. The caller typically follows with
/// [`RunReport::absorb_tracker`] and [`RunReport::write`]
/// (to [`report_output_path`]).
pub fn take_run_report(name: &str) -> Option<RunReport> {
    if !ACTIVE.swap(false, Ordering::Relaxed) {
        return None;
    }
    let (rows, installed) = {
        let mut st = lock_collector();
        let installed = std::mem::take(&mut st.installed_recorder);
        (std::mem::take(&mut st.rows), installed)
    };
    let verdicts = recorder::with_recorder(|r| run_monitors(&r.snapshot()))
        .unwrap_or_else(|| run_monitors(&[]));
    if installed {
        recorder::uninstall();
    }
    let pool = rayon::telemetry::snapshot();
    let mut report = RunReport::new(name);
    report.threads = pool.threads as u64;
    report.pool = Some(PoolSummary {
        threads: pool.threads as u64,
        joins: pool.joins,
        batches: pool.batches,
        jobs_queued: pool.jobs_queued,
        jobs_inline: pool.jobs_inline,
        steals: pool.steals,
        imbalance: pool.imbalance_ratio(),
    });
    report.verdicts = verdicts;
    report.convergence = rows;
    Some(report)
}

/// The output path `PMCF_REPORT` named at init time (if any).
pub fn report_output_path() -> Option<PathBuf> {
    lock_collector().path.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_pram::Cost;

    /// The collector is process-global; tests touching it must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn row(engine: &str, step: Option<f64>, cg_iters: u64) -> IpmIterRow {
        IpmIterRow {
            engine: engine.to_string(),
            iteration: 1,
            mu: 64.0,
            gap: 128.0,
            step,
            cg_iters,
            wall_ns: 1000,
            work: 500,
            depth: 20,
        }
    }

    fn sample_report() -> RunReport {
        report_begin();
        record_ipm_iter(|| row("reference", Some(0.5), 12));
        record_ipm_iter(|| row("robust", None, 7));
        let mut rep = take_run_report("sample").unwrap();
        let mut t = Tracker::profiled().with_critpath();
        t.span("ipm/loop", |t| {
            t.charge(Cost::new(10, 4));
            t.span("ipm/newton", |t| t.charge(Cost::new(30, 6)));
        });
        t.counter("solver.cg_iterations_total", 19);
        rep.absorb_tracker(&t);
        rep
    }

    #[test]
    fn builder_path_collects_convergence_rows() {
        let _g = locked();
        let rep = sample_report();
        assert_eq!(rep.convergence.len(), 2);
        assert_eq!(rep.convergence[0].engine, "reference");
        assert_eq!(rep.convergence[0].step, Some(0.5));
        assert_eq!(rep.convergence[1].step, None);
        assert_eq!(rep.work, 40);
        assert_eq!(rep.depth, 10);
        assert_eq!(rep.counters["solver.cg_iterations_total"], 19);
        let cp = rep.critpath.as_ref().unwrap();
        assert_eq!(cp.total_depth, cp.attributed_depth);
        assert!(rep.pool.is_some());
        assert_eq!(rep.verdicts.len(), 5, "one verdict per monitor");
    }

    #[test]
    fn record_without_begin_is_noop() {
        let _g = locked();
        let _ = take_run_report("drain"); // clear any leftover collection
        record_ipm_iter(|| panic!("no sink is listening"));
        assert!(take_run_report("x").is_none());
    }

    #[test]
    fn one_record_feeds_event_ring_and_report() {
        let _g = locked();
        report_begin();
        recorder::install(FlightRecorder::new(16));
        let r = row("robust", Some(0.75), 3);
        record_ipm_iter(|| r.clone());
        let rec = recorder::uninstall().expect("recorder installed");
        let rep = take_run_report("both").unwrap();
        assert_eq!(rep.convergence, vec![r.clone()]);
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "ipm.iter");
        let want: Vec<(String, Value)> = r
            .fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(events[0].fields, want);
        assert_eq!(events[0].num("work"), Some(500.0));
        assert_eq!(events[0].num("depth"), Some(20.0));
    }

    #[test]
    fn rows_without_costs_load_as_zero() {
        let src = r#"{"schema":"pmcf.report/v1","name":"old","threads":1,"work":0,"depth":0,
            "convergence":[{"engine":"reference","iteration":1,"mu":2e0,"gap":4e0,
            "step":null,"cg_iters":3,"wall_ns":9}]}"#;
        let rep = RunReport::from_json(src).unwrap();
        assert_eq!(rep.convergence.len(), 1);
        assert_eq!((rep.convergence[0].work, rep.convergence[0].depth), (0, 0));
        assert_eq!(rep.convergence[0].step, None);
    }

    #[test]
    fn json_round_trips_exactly() {
        let _g = locked();
        let rep = sample_report();
        let json = rep.to_json();
        assert!(json.starts_with("{\"schema\":\"pmcf.report/v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(RunReport::from_json(r#"{"schema":"pmcf.bench/v1"}"#).is_err());
        assert!(RunReport::from_json(r#"{"name":"x"}"#).is_err());
        assert!(RunReport::from_json("not json").is_err());
    }

    #[test]
    fn self_costs_subtract_children() {
        let _g = locked();
        let rep = sample_report();
        let loop_span = rep.spans.iter().find(|s| s.name == "ipm/loop").unwrap();
        assert_eq!(loop_span.work, 40);
        assert_eq!(loop_span.self_work(), 10);
        assert_eq!(loop_span.self_depth(), 4);
    }

    #[test]
    fn write_creates_parent_dirs() {
        let _g = locked();
        let dir = std::env::temp_dir().join("pmcf_obs_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/run.report.json");
        sample_report().write(&path).unwrap();
        let back = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.name, "sample");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
