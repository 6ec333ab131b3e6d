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
//! * **Session** — a `PMCF_REPORT=<path>` session
//!   ([`crate::init_from_env`] … [`crate::finish`]) begins the
//!   collector, both IPM loops feed [`record_ipm_iter`] (which also
//!   emits the `ipm.iter` event to the session's flight recorder), the
//!   bins' [`crate::tracker`]s carry the span profiler and depth ledger,
//!   and `finish` writes the report to `<path>`.
//! * **Builder** — call [`report_begin`] / [`record_ipm_iter`] /
//!   [`take_run_report`] programmatically (tests, embedding harnesses).
//!
//! Reports round-trip through the in-tree JSON reader
//! ([`RunReport::from_json`]), which is what the cross-run diff engine
//! ([`crate::reportdiff`]) consumes. [`profile_json`] and
//! [`critpath_json`] render `pmcf-pram`'s profile and critical path as
//! the standalone `pmcf.profile/v1` and `pmcf.critpath/v1` documents; a
//! span node has the same six keys there and in a report.
//!
//! With neither a report nor a flight recorder listening, an IPM
//! iteration costs two relaxed atomic loads and builds no row.

use crate::json::{self, JsonValue};
use crate::monitor::{run_monitors, Verdict};
use crate::recorder;
use pmcf_pram::profile::{ProfileReport, SpanReport};
use pmcf_pram::{CritPathEntry, CritPathReport, Tracker};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Schema identifier stamped into every run report.
pub const REPORT_SCHEMA: &str = "pmcf.report/v1";
/// Schema identifier of a rendered span profile ([`profile_json`]).
pub const PROFILE_SCHEMA: &str = "pmcf.profile/v1";
/// Schema identifier of a rendered critical path ([`critpath_json`]).
pub const CRITPATH_SCHEMA: &str = "pmcf.critpath/v1";

/// One span node with its children: the same six keys in
/// `pmcf.profile/v1` and `pmcf.report/v1`.
fn span_json(s: &SpanReport) -> JsonValue {
    JsonValue::obj([
        ("name", s.name.as_str().into()),
        ("work", s.work.into()),
        ("depth", s.depth.into()),
        ("wall_ns", s.wall_ns().into()),
        ("count", s.count.into()),
        ("children", s.children.iter().map(span_json).collect()),
    ])
}

/// A span profile as a `pmcf.profile/v1` document: totals, the span
/// tree, counters and histograms.
pub fn profile_json(p: &ProfileReport) -> JsonValue {
    let histogram = |h: &pmcf_pram::profile::Histogram| {
        JsonValue::obj([
            ("count", h.count.into()),
            ("sum", h.sum.into()),
            ("min", h.min.into()),
            ("max", h.max.into()),
            ("buckets", h.buckets.iter().map(|&b| b.into()).collect()),
        ])
    };
    JsonValue::obj([
        ("schema", PROFILE_SCHEMA.into()),
        ("work", p.work.into()),
        ("depth", p.depth.into()),
        ("spans", p.spans.iter().map(span_json).collect()),
        ("counters", counters_json(&p.counters)),
        (
            "histograms",
            JsonValue::obj(p.histograms.iter().map(|(k, h)| (k.as_str(), histogram(h)))),
        ),
    ])
}

/// A critical path as a `pmcf.critpath/v1` document: totals and every
/// span path with its depth and share of the total.
pub fn critpath_json(c: &CritPathReport) -> JsonValue {
    let share = |depth: u64| {
        if c.total_depth > 0 {
            depth as f64 / c.total_depth as f64
        } else {
            0.0
        }
    };
    JsonValue::obj([
        ("schema", CRITPATH_SCHEMA.into()),
        ("total_depth", c.total_depth.into()),
        ("attributed_depth", c.attributed_depth.into()),
        ("joins", c.joins.into()),
        (
            "spans",
            c.entries
                .iter()
                .map(|e| {
                    JsonValue::obj([
                        ("path", e.path.as_str().into()),
                        ("depth", e.depth.into()),
                        ("share", share(e.depth).into()),
                    ])
                })
                .collect(),
        ),
    ])
}

fn counters_json(counters: &BTreeMap<String, u64>) -> JsonValue {
    JsonValue::obj(counters.iter().map(|(k, &v)| (k.as_str(), v.into())))
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
    pub fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        let mut fields = vec![
            ("engine", self.engine.as_str().into()),
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
    pub spans: Vec<SpanReport>,
    /// Monotone counters (includes `pmcf.alloc.*` and solver counters).
    pub counters: BTreeMap<String, u64>,
    /// Critical-path attribution, when the depth ledger ran.
    pub critpath: Option<CritPathReport>,
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
            self.spans = p.spans;
            self.counters = p.counters;
        }
        if let Some(c) = t.critpath_report() {
            self.critpath = Some(c);
        }
    }

    /// The `pmcf.report/v1` document.
    pub fn to_json(&self) -> JsonValue {
        let critpath = self.critpath.as_ref().map(|c| {
            JsonValue::obj([
                ("total_depth", c.total_depth.into()),
                ("attributed_depth", c.attributed_depth.into()),
                ("joins", c.joins.into()),
                (
                    "entries",
                    c.entries
                        .iter()
                        .map(|e| {
                            JsonValue::obj([
                                ("path", e.path.as_str().into()),
                                ("depth", e.depth.into()),
                            ])
                        })
                        .collect(),
                ),
            ])
        });
        let pool = self.pool.as_ref().map(|p| {
            JsonValue::obj([
                ("threads", p.threads.into()),
                ("joins", p.joins.into()),
                ("batches", p.batches.into()),
                ("jobs_queued", p.jobs_queued.into()),
                ("jobs_inline", p.jobs_inline.into()),
                ("steals", p.steals.into()),
                ("imbalance", p.imbalance.into()),
            ])
        });
        let verdicts = self.verdicts.iter().map(|v| {
            JsonValue::obj([
                ("monitor", v.monitor.as_str().into()),
                ("ok", v.ok.into()),
                ("checked", v.checked.into()),
                ("detail", v.detail.as_str().into()),
            ])
        });
        JsonValue::obj([
            ("schema", REPORT_SCHEMA.into()),
            ("name", self.name.as_str().into()),
            ("threads", self.threads.into()),
            ("work", self.work.into()),
            ("depth", self.depth.into()),
            ("spans", self.spans.iter().map(span_json).collect()),
            ("counters", counters_json(&self.counters)),
            ("critpath", critpath.into()),
            ("pool", pool.into()),
            ("verdicts", verdicts.collect()),
            (
                "convergence",
                self.convergence
                    .iter()
                    .map(|r| JsonValue::obj(r.fields()))
                    .collect(),
            ),
        ])
    }

    /// Parse a `pmcf.report/v1` document (the round-trip inverse of
    /// [`RunReport::to_json`]).
    pub fn from_json(src: &str) -> Result<RunReport, String> {
        let v = json::parse(src)?;
        match v.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == REPORT_SCHEMA => {}
            other => return Err(format!("not a {REPORT_SCHEMA} report (schema {other:?})")),
        }
        let u64_of = |v: &JsonValue, key: &str| v.field(key, JsonValue::as_u64);
        let str_of = |v: &JsonValue, key: &str| v.field(key, JsonValue::as_str).map(str::to_string);
        fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
            v.get(key).and_then(JsonValue::as_arr).unwrap_or(&[])
        }
        fn span_of(v: &JsonValue) -> Result<SpanReport, String> {
            Ok(SpanReport {
                name: v.field("name", JsonValue::as_str)?.to_string(),
                work: v.field("work", JsonValue::as_u64)?,
                depth: v.field("depth", JsonValue::as_u64)?,
                wall: Duration::from_nanos(v.field("wall_ns", JsonValue::as_u64)?),
                count: v.field("count", JsonValue::as_u64)?,
                children: list(v, "children")
                    .iter()
                    .map(span_of)
                    .collect::<Result<_, _>>()?,
            })
        }
        let mut counters = BTreeMap::new();
        if let Some(obj) = v.get("counters").and_then(JsonValue::as_obj) {
            for (k, cv) in obj {
                let c = cv
                    .as_u64()
                    .ok_or_else(|| format!("counter {k:?} is not a u64"))?;
                counters.insert(k.clone(), c);
            }
        }
        let critpath = match v.get("critpath") {
            None | Some(JsonValue::Null) => None,
            Some(c) => Some(CritPathReport {
                total_depth: u64_of(c, "total_depth")?,
                attributed_depth: u64_of(c, "attributed_depth")?,
                joins: u64_of(c, "joins")?,
                entries: list(c, "entries")
                    .iter()
                    .map(|e| {
                        Ok(CritPathEntry {
                            path: str_of(e, "path")?,
                            depth: u64_of(e, "depth")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            }),
        };
        let pool = match v.get("pool") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(PoolSummary {
                threads: u64_of(p, "threads")?,
                joins: u64_of(p, "joins")?,
                batches: u64_of(p, "batches")?,
                jobs_queued: u64_of(p, "jobs_queued")?,
                jobs_inline: u64_of(p, "jobs_inline")?,
                steals: u64_of(p, "steals")?,
                imbalance: p.field("imbalance", JsonValue::as_f64)?,
            }),
        };
        let verdicts = list(&v, "verdicts")
            .iter()
            .map(|m| {
                Ok(Verdict {
                    monitor: str_of(m, "monitor")?,
                    ok: m.field("ok", JsonValue::as_bool)?,
                    checked: u64_of(m, "checked")?,
                    detail: str_of(m, "detail")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let convergence = list(&v, "convergence")
            .iter()
            .map(|r| {
                Ok(IpmIterRow {
                    engine: str_of(r, "engine")?,
                    iteration: u64_of(r, "iteration")?,
                    mu: r.field("mu", JsonValue::as_f64)?,
                    gap: r.field("gap", JsonValue::as_f64)?,
                    step: match r.get("step") {
                        None | Some(JsonValue::Null) => None,
                        Some(_) => Some(r.field("step", JsonValue::as_f64)?),
                    },
                    cg_iters: u64_of(r, "cg_iters")?,
                    wall_ns: u64_of(r, "wall_ns")?,
                    work: r.get("work").map_or(Ok(0), |_| u64_of(r, "work"))?,
                    depth: r.get("depth").map_or(Ok(0), |_| u64_of(r, "depth"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunReport {
            name: str_of(&v, "name")?,
            threads: u64_of(&v, "threads")?,
            work: u64_of(&v, "work")?,
            depth: u64_of(&v, "depth")?,
            spans: list(&v, "spans")
                .iter()
                .map(span_of)
                .collect::<Result<_, _>>()?,
            counters,
            critpath,
            pool,
            verdicts,
            convergence,
        })
    }

    /// Read a `pmcf.report/v1` file; errors name the path.
    pub fn load(path: &Path) -> Result<RunReport, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        RunReport::from_json(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the JSON report to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        json::write_file(path, &self.to_json())
    }
}

// ---------------------------------------------------------------------
// The process-global convergence collector.
// ---------------------------------------------------------------------

/// Fast gate: one relaxed load decides the disabled path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static ROWS: Mutex<Vec<IpmIterRow>> = Mutex::new(Vec::new());

fn lock_rows() -> std::sync::MutexGuard<'static, Vec<IpmIterRow>> {
    ROWS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a run report is currently being collected.
#[inline]
fn report_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Start collecting a run report (clears any previous collection).
pub fn report_begin() {
    lock_rows().clear();
    ACTIVE.store(true, Ordering::Relaxed);
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
        recorder::emit_with("ipm.iter", || row.fields());
    }
    if report {
        lock_rows().push(row);
    }
}

/// The report collected so far, named `name`, without stopping the
/// collection: the convergence table, a pool-telemetry summary, and the
/// monitor verdicts over this thread's flight recording. Returns `None`
/// when no collection is active.
pub fn run_report(name: &str) -> Option<RunReport> {
    if !report_active() {
        return None;
    }
    let verdicts = recorder::with_recorder(|r| run_monitors(&r.snapshot()))
        .unwrap_or_else(|| run_monitors(&[]));
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
    report.convergence = lock_rows().clone();
    Some(report)
}

/// Finish collecting: [`run_report`], then stop the collection.
pub fn take_run_report(name: &str) -> Option<RunReport> {
    let report = run_report(name)?;
    ACTIVE.store(false, Ordering::Relaxed);
    lock_rows().clear();
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
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
        let want: Vec<(String, JsonValue)> = r
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
        let json = rep.to_json().to_string();
        assert!(json.starts_with("{\"schema\":\"pmcf.report/v1\""));
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn profile_and_critpath_documents_are_schema_tagged() {
        let mut t = Tracker::profiled().with_critpath();
        t.span("a", |t| {
            t.charge(Cost::new(1, 1));
            t.span("b\"q", |t| t.charge(Cost::new(1, 9)));
        });
        t.counter("k", 1);
        t.observe("h", 5);
        let p = profile_json(&t.profile_report().unwrap());
        assert_eq!(
            p.get("schema").and_then(JsonValue::as_str),
            Some(PROFILE_SCHEMA)
        );
        assert_eq!(p.field("work", JsonValue::as_u64), Ok(2));
        let a = &p.get("spans").unwrap().as_arr().unwrap()[0];
        let keys: Vec<&str> = a
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["name", "work", "depth", "wall_ns", "count", "children"]
        );
        let c = critpath_json(&t.critpath_report().unwrap());
        assert_eq!(
            c.get("schema").and_then(JsonValue::as_str),
            Some(CRITPATH_SCHEMA)
        );
        assert_eq!(c.field("total_depth", JsonValue::as_u64), Ok(10));
        let deepest = &c.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(deepest.field("path", JsonValue::as_str), Ok("a > b\"q"));
        assert_eq!(deepest.field("share", JsonValue::as_f64), Ok(0.9));
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
