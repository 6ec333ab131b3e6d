//! The one observability switch, end to end: with `PMCF_REPORT` unset no
//! session opens and nothing is written; with it set, one solve on a
//! `pmcf_obs::tracker()` lands the run report at the path and the
//! Perfetto trace and the flight recording beside it.
//!
//! The environment and the session are process-global, so this file
//! holds a single test.

use pmcf_core::{solve_mcf, SolverConfig};
use pmcf_graph::generators;
use pmcf_obs::{json, JsonValue, RunReport, REPORT_ENV, TRACE_SCHEMA};

#[test]
fn report_env_switches_every_recording() {
    let dir = std::env::temp_dir().join(format!("pmcf_session_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("run.json");
    let (trace_path, events_path) = (dir.join("run.trace.json"), dir.join("run.events.jsonl"));
    let p = generators::random_mcf(12, 40, 4, 3, 1);

    // unset: no session, a plain tracker, no files
    std::env::remove_var(REPORT_ENV);
    assert!(!pmcf_obs::init_from_env());
    let mut t = pmcf_obs::tracker();
    assert!(!t.is_profiled());
    assert!(t.critpath_report().is_none());
    solve_mcf(&mut t, &p, &SolverConfig::default()).expect("feasible");
    pmcf_obs::finish("session", Some(&t));
    assert!(!dir.exists(), "finish wrote files without a session");

    // set: one session records everything
    std::env::set_var(REPORT_ENV, &path);
    assert!(pmcf_obs::init_from_env());
    let mut t = pmcf_obs::tracker();
    assert!(t.is_profiled());
    solve_mcf(&mut t, &p, &SolverConfig::default()).expect("feasible");
    pmcf_obs::finish("session", Some(&t));
    std::env::remove_var(REPORT_ENV);

    let report = RunReport::load(&path).expect("report written");
    assert_eq!(report.name, "session");
    assert_eq!((report.work, report.depth), (t.work(), t.depth()));
    assert!(!report.spans.is_empty());
    let cp = report
        .critpath
        .as_ref()
        .expect("the tracker carried a ledger");
    assert_eq!(cp.total_depth, cp.attributed_depth);
    assert!(!report.convergence.is_empty());
    assert!(!report.verdicts.is_empty());
    assert!(
        report.verdicts.iter().all(|v| v.ok),
        "{:?}",
        report.verdicts
    );

    let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("trace written"))
        .expect("trace is JSON");
    let other = trace.get("otherData").expect("otherData");
    assert_eq!(other.field("schema", JsonValue::as_str), Ok(TRACE_SCHEMA));
    assert_eq!(other.field("dropped_annotations", JsonValue::as_u64), Ok(0));
    let slices = trace.field("traceEvents", JsonValue::as_arr).unwrap();
    assert!(slices
        .iter()
        .any(|e| e.field("ph", JsonValue::as_str) == Ok("X")
            && e.field("name", JsonValue::as_str)
                .is_ok_and(|n| n.starts_with("ipm/"))));

    let events = std::fs::read_to_string(&events_path).expect("events written");
    let mut lines = events.lines().map(|l| json::parse(l).expect("JSONL line"));
    let header = lines.next().expect("header line");
    assert_eq!(
        header.field("schema", JsonValue::as_str),
        Ok(pmcf_obs::SCHEMA)
    );
    assert!(lines.any(|e| e.field("kind", JsonValue::as_str) == Ok("ipm.iter")));
    let _ = std::fs::remove_dir_all(&dir);
}
