//! Chrome trace-event exporter.
//!
//! Turns the rayon shim's wall-clock pool telemetry — per-thread busy
//! slices, fork/join/steal counters — plus the wall-clock slice of every
//! `Tracker::span` closed during the session into a single Chrome
//! trace-event JSON file that loads directly in Perfetto
//! (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! A `PMCF_REPORT=<path>` session ([`crate::init_from_env`]) opens the
//! trace with [`trace_start`], and [`crate::finish`] writes the document
//! [`trace_finish`] renders to `<path>.trace.json` (the extension
//! replaced). Library code needs no trace-specific call: the span guard
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

use crate::json::JsonValue;
use pmcf_pram::annotation::{self, Annotation};
use rayon::telemetry::{self, PoolTelemetry};

/// Schema tag stored under `otherData.schema`.
pub const TRACE_SCHEMA: &str = "pmcf.trace/v1";

/// Start a trace session: discard earlier span slices and reset the
/// pool's slice buffer so the trace covers exactly one run.
pub fn trace_start() {
    telemetry::reset();
    telemetry::set_recording(true);
    annotation::start();
}

/// Stop tracing and render the trace. Returns the trace document when
/// tracing was active.
pub fn trace_finish() -> Option<JsonValue> {
    if !annotation::annotating() {
        return None;
    }
    let (spans, dropped) = annotation::finish();
    telemetry::set_recording(false);
    Some(render_trace(&telemetry::snapshot(), &spans, dropped))
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
    use crate::json;
    use pmcf_pram::Tracker;
    use std::sync::Mutex;

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
        trace_start();
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
        trace_start();
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
    fn timestamps_are_microseconds() {
        assert_eq!(us(2_000).to_string(), "2");
        assert_eq!(us(1_500).to_string(), "1.5e0");
        assert_eq!(us(1_234_567), JsonValue::Float(1_234.567));
    }
}
