//! Chrome trace-event exporter (`PMCF_TRACE`).
//!
//! Turns the rayon shim's wall-clock pool telemetry — per-thread busy
//! slices, fork/join/steal counters — plus the wall-clock slice of every
//! `Tracker::span` closed during the session into a single Chrome
//! trace-event JSON file that loads directly in Perfetto
//! (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! Set `PMCF_TRACE=1` (default path `pmcf-trace.json`) or
//! `PMCF_TRACE=<path>` before running an instrumented binary. The bench
//! bins call [`trace_init_from_env`] at startup and [`trace_finish`] on
//! exit. Library code needs no trace-specific call: the span guard
//! records its own slice while a session is open
//! ([`pmcf_pram::annotation`]), and costs one relaxed atomic load when
//! none is.
//!
//! Span slices and pool slices share a timeline: both are timestamped
//! via [`rayon::telemetry::now_ns`] against the same process-global
//! epoch, and a span closed on a pool worker carries that worker's
//! dense thread id, so a `linalg/solve` span drawn on thread 3 sits
//! directly above the `worker` slices thread 3 executed inside it.
//!
//! The file is the standard trace-event "JSON object format":
//!
//! ```json
//! {"traceEvents": [
//!    {"ph":"M","name":"thread_name", ...},
//!    {"ph":"X","name":"worker","ts":12.5,"dur":3.0,"pid":1,"tid":2}
//!  ],
//!  "displayTimeUnit": "ms",
//!  "otherData": {"schema":"pmcf.trace/v1", "joins":…, "steals":…,
//!                "imbalance_ratio":…}}
//! ```
//!
//! `ts`/`dur` are microseconds: integers when exact, otherwise floats
//! that keep nanosecond precision. `otherData.schema` marks the file as
//! ours for the CI smoke check; Perfetto ignores unknown keys.

use std::sync::Mutex;

use crate::json::{self, JsonValue};
use pmcf_pram::annotation::{self, Annotation};
use rayon::telemetry::{self, PoolTelemetry};

/// Environment variable that switches the trace exporter on.
pub const TRACE_ENV: &str = "PMCF_TRACE";
/// Path written when `PMCF_TRACE` is merely truthy rather than a path.
pub const DEFAULT_TRACE_PATH: &str = "pmcf-trace.json";
/// Schema tag stored under `otherData.schema`.
pub const TRACE_SCHEMA: &str = "pmcf.trace/v1";

/// Output path captured by [`trace_start`].
static TRACE_PATH: Mutex<Option<String>> = Mutex::new(None);

fn trace_path() -> std::sync::MutexGuard<'static, Option<String>> {
    TRACE_PATH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resolve `PMCF_TRACE` to an output path: unset/`0`/`false`/`off` →
/// `None`; `1`/`true`/`on` → [`DEFAULT_TRACE_PATH`]; anything else is
/// taken as the path itself.
pub fn trace_path_from_env() -> Option<String> {
    let raw = std::env::var(TRACE_ENV).ok()?;
    let v = raw.trim();
    match v.to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" => None,
        "1" | "true" | "on" => Some(DEFAULT_TRACE_PATH.to_string()),
        _ => Some(v.to_string()),
    }
}

/// Start a trace session manually (used by tests; binaries use
/// [`trace_init_from_env`]). Discards earlier span slices and resets
/// the pool's slice buffer so the trace covers exactly one run.
pub fn trace_start(path: Option<String>) {
    telemetry::reset();
    telemetry::set_recording(true);
    *trace_path() = path;
    annotation::start();
}

/// Start tracing if `PMCF_TRACE` requests it; returns whether tracing
/// is now active.
pub fn trace_init_from_env() -> bool {
    match trace_path_from_env() {
        Some(path) => {
            trace_start(Some(path));
            true
        }
        None => false,
    }
}

/// Stop tracing, render the trace, and write it to the path captured at
/// init (if any). Returns the trace document when tracing was active.
pub fn trace_finish() -> Option<JsonValue> {
    if !annotation::annotating() {
        return None;
    }
    let (spans, dropped) = annotation::finish();
    telemetry::set_recording(false);
    let pool = telemetry::snapshot();
    let path = trace_path().take();
    let doc = render_trace(&pool, &spans, dropped);
    if let Some(path) = path {
        match json::write_file(path.as_ref(), &doc) {
            Ok(()) => eprintln!(
                "[pmcf-obs] wrote trace: {} ({} pool slices, {} annotations)",
                path,
                pool.slices.len(),
                spans.len()
            ),
            Err(e) => eprintln!("[pmcf-obs] failed to write trace {path}: {e}"),
        }
    }
    Some(doc)
}

/// Microseconds for a nanosecond timestamp: an integer when exact, a
/// float with nanosecond precision otherwise.
fn us(ns: u64) -> JsonValue {
    if ns.is_multiple_of(1_000) {
        (ns / 1_000).into()
    } else {
        (ns as f64 / 1_000.0).into()
    }
}

/// One complete (`"ph":"X"`) slice on lane `tid`.
fn slice(name: &str, tid: usize, start_ns: u64, end_ns: u64) -> JsonValue {
    JsonValue::obj([
        ("name", name.into()),
        ("ph", "X".into()),
        ("ts", us(start_ns)),
        ("dur", us(end_ns.saturating_sub(start_ns))),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
    ])
}

/// Render pool telemetry plus annotation spans as a Chrome trace-event
/// document (see module docs for the layout).
pub fn render_trace(pool: &PoolTelemetry, spans: &[Annotation], dropped_spans: u64) -> JsonValue {
    // Thread-name metadata: give every dense tid a readable lane label.
    let lanes = pool
        .thread_names
        .len()
        .max(spans.iter().map(|s| s.tid + 1).max().unwrap_or(0));
    let lane_names = (0..lanes).map(|tid| {
        let label = match pool.thread_names.get(tid).and_then(|n| n.as_deref()) {
            Some(name) => name.to_string(),
            None if tid == 0 => "main".to_string(),
            None => format!("thread-{tid}"),
        };
        JsonValue::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            ("args", JsonValue::obj([("name", label.into())])),
        ])
    });
    let events = lane_names
        .chain(
            spans
                .iter()
                .map(|a| slice(&a.name, a.tid, a.start_ns, a.end_ns)),
        )
        .chain(
            pool.slices
                .iter()
                .map(|s| slice(s.kind.label(), s.tid, s.start_ns, s.end_ns)),
        )
        .collect();
    JsonValue::obj([
        ("traceEvents", events),
        ("displayTimeUnit", "ms".into()),
        (
            "otherData",
            JsonValue::obj([
                ("schema", TRACE_SCHEMA.into()),
                ("threads", pool.threads.into()),
                ("joins", pool.joins.into()),
                ("batches", pool.batches.into()),
                ("jobs_queued", pool.jobs_queued.into()),
                ("jobs_inline", pool.jobs_inline.into()),
                ("steals", pool.steals.into()),
                ("pool_slices", pool.slices.len().into()),
                ("dropped_slices", pool.dropped_slices.into()),
                ("annotations", spans.len().into()),
                ("dropped_annotations", dropped_spans.into()),
                ("total_busy_ns", pool.total_busy_ns().into()),
                ("imbalance_ratio", pool.imbalance_ratio().into()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_pram::Tracker;

    /// Tracing state is process-global; serialize tests that flip it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Names of the span slices (complete events that are not pool
    /// slices) in a rendered trace, after checking every event's shape.
    fn span_names(doc: &JsonValue) -> Vec<String> {
        let v = json::parse(&doc.to_string()).expect("exporter must emit valid JSON");
        assert_eq!(&v, doc);
        let other = v.get("otherData").unwrap();
        assert_eq!(other.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let mut metadata = 0;
        let mut complete = Vec::new();
        for e in events {
            match e.get("ph").and_then(JsonValue::as_str) {
                Some("M") => {
                    metadata += 1;
                    assert_eq!(
                        e.get("name").and_then(JsonValue::as_str),
                        Some("thread_name")
                    );
                }
                Some("X") => {
                    assert!(e.get("ts").unwrap().as_f64().is_some());
                    assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                    assert!(e.get("tid").unwrap().as_f64().is_some());
                    complete.push(e.get("name").unwrap().as_str().unwrap().to_string());
                }
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert!(metadata >= 1, "every lane needs a thread_name event");
        let count = |k: &str| other.get(k).unwrap().as_f64().unwrap() as usize;
        assert_eq!(complete.len(), count("annotations") + count("pool_slices"));
        assert_eq!(count("dropped_annotations"), 0);
        // Pool slices are rendered after the span slices.
        complete.truncate(count("annotations"));
        complete
    }

    #[test]
    fn scope_is_noop_when_inactive() {
        let _g = lock();
        let _ = trace_finish();
        // Pool slice recording alone is not a trace session.
        telemetry::set_recording(true);
        Tracker::profiled().span("ignored", |_| ());
        Tracker::new().span("ignored", |_| ());
        telemetry::set_recording(false);
        assert!(trace_finish().is_none());
        let (spans, _) = annotation::finish();
        assert!(spans.iter().all(|a| a.name != "ignored"));
    }

    #[test]
    fn trace_round_trips_through_json_reader() {
        let _g = lock();
        trace_start(None);
        // A plain tracker: no profiler is needed for slices.
        let mut t = Tracker::new();
        t.span("ipm/loop", |t| t.span("ipm/newton", |_| ()));
        rayon::join(|| (), || ());
        let doc = trace_finish().expect("tracing was active");
        let names = span_names(&doc);
        assert!(names.iter().any(|n| n == "ipm/loop"));
        assert!(names.iter().any(|n| n == "ipm/newton"));
        let other = doc.get("otherData").unwrap();
        assert!(other.get("joins").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn spans_in_par_join_branches_are_recorded() {
        let _g = lock();
        trace_start(None);
        let mut t = Tracker::new();
        t.span("outer", |t| {
            t.par_join(
                |t| t.span("branch/left", |_| ()),
                |t| t.span("branch/right", |_| ()),
            )
        });
        let names = span_names(&trace_finish().expect("tracing was active"));
        for want in ["outer", "branch/left", "branch/right"] {
            assert!(names.iter().any(|n| n == want), "{want} missing");
        }
    }

    #[test]
    fn env_value_parsing() {
        // trace_path_from_env reads the real environment, so test the
        // mapping through a copy of its match logic via trace_start paths.
        for (val, want) in [
            ("1", Some(DEFAULT_TRACE_PATH.to_string())),
            ("true", Some(DEFAULT_TRACE_PATH.to_string())),
            ("on", Some(DEFAULT_TRACE_PATH.to_string())),
            ("0", None),
            ("false", None),
            ("off", None),
            ("", None),
            ("out/custom.json", Some("out/custom.json".to_string())),
        ] {
            let got = match val.trim().to_ascii_lowercase().as_str() {
                "" | "0" | "false" | "off" => None,
                "1" | "true" | "on" => Some(DEFAULT_TRACE_PATH.to_string()),
                _ => Some(val.trim().to_string()),
            };
            assert_eq!(got, want, "value {val:?}");
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        assert_eq!(us(2_000).to_string(), "2");
        assert_eq!(us(1_500).to_string(), "1.5e0");
        assert_eq!(us(1_234_567), JsonValue::Float(1_234.567));
    }
}
