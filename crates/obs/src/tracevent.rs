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
//! `ts`/`dur` are microseconds (fractional — nanosecond precision is
//! preserved). `otherData.schema` marks the file as ours for the CI
//! smoke check; Perfetto ignores unknown keys.

use std::sync::Mutex;

use pmcf_pram::annotation::{self, Annotation};
use pmcf_pram::profile::json_string;
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
/// init (if any). Returns the rendered JSON when tracing was active.
pub fn trace_finish() -> Option<String> {
    if !annotation::annotating() {
        return None;
    }
    let (spans, dropped) = annotation::finish();
    telemetry::set_recording(false);
    let pool = telemetry::snapshot();
    let path = trace_path().take();
    let json = render_trace(&pool, &spans, dropped);
    if let Some(path) = path {
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!(
                "[pmcf-obs] wrote trace: {} ({} pool slices, {} annotations)",
                path,
                pool.slices.len(),
                spans.len()
            ),
            Err(e) => eprintln!("[pmcf-obs] failed to write trace {path}: {e}"),
        }
    }
    Some(json)
}

fn push_us(out: &mut String, ns: u64) {
    // µs with nanosecond precision; trims to integer when exact.
    if ns.is_multiple_of(1_000) {
        out.push_str(&(ns / 1_000).to_string());
    } else {
        out.push_str(&format!("{:.3}", ns as f64 / 1_000.0));
    }
}

fn push_complete_event(out: &mut String, name: &str, tid: usize, start_ns: u64, end_ns: u64) {
    out.push_str("{\"name\":");
    out.push_str(&json_string(name));
    out.push_str(",\"ph\":\"X\",\"ts\":");
    push_us(out, start_ns);
    out.push_str(",\"dur\":");
    push_us(out, end_ns.saturating_sub(start_ns));
    out.push_str(",\"pid\":1,\"tid\":");
    out.push_str(&tid.to_string());
    out.push('}');
}

/// Render pool telemetry plus annotation spans as a Chrome trace-event
/// JSON document (see module docs for the layout).
pub fn render_trace(pool: &PoolTelemetry, spans: &[Annotation], dropped_spans: u64) -> String {
    let mut out = String::with_capacity(256 + 96 * (pool.slices.len() + spans.len()));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    // Thread-name metadata: give every dense tid a readable lane label.
    let lanes = pool
        .thread_names
        .len()
        .max(spans.iter().map(|s| s.tid + 1).max().unwrap_or(0));
    for tid in 0..lanes {
        let label = match pool.thread_names.get(tid).and_then(|n| n.as_deref()) {
            Some(name) => name.to_string(),
            None if tid == 0 => "main".to_string(),
            None => format!("thread-{tid}"),
        };
        sep(&mut out);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        out.push_str(&tid.to_string());
        out.push_str(",\"args\":{\"name\":");
        out.push_str(&json_string(&label));
        out.push_str("}}");
    }
    for a in spans {
        sep(&mut out);
        push_complete_event(&mut out, &a.name, a.tid, a.start_ns, a.end_ns);
    }
    for s in &pool.slices {
        sep(&mut out);
        push_complete_event(&mut out, s.kind.label(), s.tid, s.start_ns, s.end_ns);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"schema\":{},\"threads\":{},\"joins\":{},\"batches\":{},\"jobs_queued\":{},\
         \"jobs_inline\":{},\"steals\":{},\"pool_slices\":{},\"dropped_slices\":{},\
         \"annotations\":{},\"dropped_annotations\":{},\"total_busy_ns\":{},\
         \"imbalance_ratio\":{:.4}",
        json_string(TRACE_SCHEMA),
        pool.threads,
        pool.joins,
        pool.batches,
        pool.jobs_queued,
        pool.jobs_inline,
        pool.steals,
        pool.slices.len(),
        pool.dropped_slices,
        spans.len(),
        dropped_spans,
        pool.total_busy_ns(),
        pool.imbalance_ratio(),
    ));
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};
    use pmcf_pram::Tracker;

    /// Tracing state is process-global; serialize tests that flip it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Names of the span slices (complete events that are not pool
    /// slices) in a rendered trace, after checking every event's shape.
    fn span_names(json: &str) -> Vec<String> {
        let v = json::parse(json).expect("exporter must emit valid JSON");
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
        let json = trace_finish().expect("tracing was active");
        let names = span_names(&json);
        assert!(names.iter().any(|n| n == "ipm/loop"));
        assert!(names.iter().any(|n| n == "ipm/newton"));
        let v = json::parse(&json).unwrap();
        let other = v.get("otherData").unwrap();
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
        let mut s = String::new();
        push_us(&mut s, 2_000);
        assert_eq!(s, "2");
        s.clear();
        push_us(&mut s, 1_500);
        assert_eq!(s, "1.500");
    }
}
