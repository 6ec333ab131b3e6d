//! `pmcf-obs`: observability for the parallel min-cost-flow stack.
//!
//! Five pieces, layered bottom-up:
//!
//! 1. **Flight recorder** ([`recorder`]) — a bounded in-memory ring of
//!    [`Event`]s fed by [`emit_with`] calls sprinkled through the solver
//!    (IPM iterations, expander maintenance, sampler calls). Set
//!    `PMCF_EVENTS=<path>` to dump a `pmcf.events/v1` JSONL recording on
//!    completion *and* on panic.
//! 2. **JSON** ([`json`]) — the workspace's one JSON value
//!    ([`JsonValue`]): every document is built as one and rendered by
//!    its `Display` impl, and the dependency-free parser reads
//!    recordings, reports and `pmcf.bench/v1` artifacts back.
//! 3. **Invariant monitors** ([`monitor`]) — deterministic folds over an
//!    event stream flagging violations of the guarantees the paper
//!    proves: μ-monotonicity, centrality bounds, certified conductance,
//!    tracker reconciliation, and the `√n·polylog` iteration envelope.
//! 4. **Trace exporter** ([`tracevent`]) — `PMCF_TRACE=1` turns the
//!    thread pool's wall-clock telemetry plus the slice of every
//!    `Tracker::span` closed during the run into a Perfetto-loadable
//!    Chrome trace-event file.
//! 5. **Unified run reports** ([`report`]) — `PMCF_REPORT=<path>` ties
//!    one run's span profile, critical path, counters, pool telemetry,
//!    monitor verdicts, and per-iteration IPM convergence table into a
//!    single `pmcf.report/v1` artifact; the [`reportdiff`] engine (and
//!    the `report_diff` bin) aligns two such reports span-by-span and
//!    ranks the regressing spans for triage. [`record_ipm_iter`] is the
//!    one per-iteration call: it feeds both the `ipm.iter` event and the
//!    report's convergence row.
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
pub use recorder::{
    emit_with, finish, init_from_env, install, recording, uninstall, with_recorder, FlightRecorder,
};
pub use report::{
    critpath_json, ipm_iter_listening, profile_json, record_ipm_iter, report_begin, report_finish,
    report_init_from_env, take_run_report, IpmIterRow, RunReport, CRITPATH_SCHEMA, PROFILE_SCHEMA,
    REPORT_ENV, REPORT_SCHEMA,
};
pub use reportdiff::{diff_reports, DiffStatus, ReportDiff, SpanDelta, DIFF_SCHEMA};
pub use tracevent::{trace_finish, trace_init_from_env, TRACE_ENV, TRACE_SCHEMA};
