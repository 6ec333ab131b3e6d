//! `pmcf-obs`: observability for the parallel min-cost-flow stack.
//!
//! Five pieces, layered bottom-up:
//!
//! 1. **Flight recorder** ([`recorder`]) — a bounded in-memory ring of
//!    [`Event`]s fed by [`emit_with`] calls sprinkled through the solver
//!    (IPM iterations, expander maintenance, sampler calls), dumped as a
//!    `pmcf.events/v1` JSONL recording.
//! 2. **JSON** ([`json`]) — the workspace's one JSON value
//!    ([`JsonValue`]): every document is built as one and rendered by
//!    its `Display` impl, and the dependency-free parser reads
//!    recordings, reports and `pmcf.bench/v1` artifacts back.
//! 3. **Invariant monitors** ([`monitor`]) — deterministic folds over an
//!    event stream flagging violations of the guarantees the paper
//!    proves: μ-monotonicity, centrality bounds, certified conductance,
//!    tracker reconciliation, and the `√n·polylog` iteration envelope.
//! 4. **Trace exporter** ([`tracevent`]) — the thread pool's wall-clock
//!    telemetry plus the slice of every `Tracker::span` closed during
//!    the run, as a Perfetto-loadable Chrome trace-event document.
//! 5. **Unified run reports** ([`report`]) — one run's span profile,
//!    critical path, counters, pool telemetry, monitor verdicts, and
//!    per-iteration IPM convergence table in a single `pmcf.report/v1`
//!    artifact; the [`reportdiff`] engine (and the `report_diff` bin)
//!    aligns two such reports span-by-span and ranks the regressing
//!    spans for triage. [`record_ipm_iter`] is the one per-iteration
//!    call: it feeds both the `ipm.iter` event and the report's
//!    convergence row.
//!
//! One switch turns all of them on: `PMCF_REPORT=<path>`. A bench bin
//! calls [`init_from_env`] first and [`finish`] last, and takes its
//! trackers from [`tracker`]. While the session is open the trackers
//! carry the span profiler and the depth ledger, a flight recorder
//! listens, and the trace records; `finish` writes the report to
//! `<path>`, the trace to `<path>.trace.json` and the recording to
//! `<path>.events.jsonl` (each replacing the path's extension).
//!
//! The crate depends only on `pmcf-pram` (span trees, critical paths,
//! span slices) and the in-tree `rayon` shim (pool telemetry), both of
//! which sit below every solver crate, so the whole workspace can emit
//! events without cycles.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod monitor;
pub mod recorder;
pub mod report;
pub mod reportdiff;
pub mod tracevent;

pub use event::{Event, SCHEMA};
pub use json::JsonValue;
pub use monitor::{all_ok, run_monitors, Verdict};
pub use recorder::{emit_with, install, recording, uninstall, with_recorder, FlightRecorder};
pub use report::{
    critpath_json, ipm_iter_listening, profile_json, record_ipm_iter, report_begin, run_report,
    take_run_report, IpmIterRow, RunReport, CRITPATH_SCHEMA, PROFILE_SCHEMA, REPORT_SCHEMA,
};
pub use reportdiff::{diff_reports, DiffStatus, ReportDiff, SpanDelta, DIFF_SCHEMA};
pub use tracevent::{trace_finish, trace_start, TRACE_SCHEMA};

use pmcf_pram::Tracker;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The one observability switch: the path a session writes its run
/// report to.
pub const REPORT_ENV: &str = "PMCF_REPORT";

/// The report path of the open session.
static SESSION: Mutex<Option<PathBuf>> = Mutex::new(None);

fn session() -> MutexGuard<'static, Option<PathBuf>> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Open the session `PMCF_REPORT=<path>` asks for: begin the
/// convergence collector, install a flight recorder on this thread
/// (dumped to `<path>.events.jsonl` on panic too), and start the trace.
/// Returns whether a session is open; without a non-empty path nothing
/// changes.
pub fn init_from_env() -> bool {
    let Some(path) = std::env::var_os(REPORT_ENV).filter(|p| !p.is_empty()) else {
        return false;
    };
    let path = PathBuf::from(path);
    report_begin();
    recorder::install_dumping(path.with_extension("events.jsonl"));
    trace_start();
    *session() = Some(path);
    true
}

/// A tracker for one bench run: profiled and carrying a depth ledger
/// while a session is open, plain otherwise.
pub fn tracker() -> Tracker {
    if session().is_some() {
        Tracker::profiled().with_critpath()
    } else {
        Tracker::new()
    }
}

/// Close the session: write the run report named `name` (with `t`'s
/// spans, counters and critical path absorbed) to the session's path,
/// the trace and the flight recording beside it. Does nothing when no
/// session is open.
pub fn finish(name: &str, t: Option<&Tracker>) {
    let Some(path) = session().take() else {
        return;
    };
    let trace = trace_finish();
    let report = take_run_report(name).map(|mut run| {
        if let Some(t) = t {
            run.absorb_tracker(t);
        }
        run.to_json().to_string()
    });
    let files = [
        (
            path.with_extension("trace.json"),
            trace.map(|doc| doc.to_string()),
        ),
        (
            path.with_extension("events.jsonl"),
            uninstall().map(|rec| rec.to_jsonl()),
        ),
        (path, report),
    ];
    for (file, body) in files {
        let Some(body) = body else { continue };
        match json::write_file(&file, &body) {
            Ok(()) => eprintln!("{name}: wrote {}", file.display()),
            Err(e) => eprintln!("{name}: could not write {}: {e}", file.display()),
        }
    }
}
