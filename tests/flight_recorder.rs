//! End-to-end flight recorder coverage: a recorded solve on seed
//! instances must produce a `pmcf.events/v1` stream on which every
//! invariant monitor reports `ok`, and the JSONL round trip must
//! preserve the verdicts.

use pmcf_core::init;
use pmcf_core::reference::PathFollowConfig;
use pmcf_graph::generators;
use pmcf_obs::monitor::{all_ok, run_monitors, to_markdown};
use pmcf_obs::{json, FlightRecorder, JsonValue};
use pmcf_pram::Tracker;

fn record_solve(engine: &str, seed: u64) -> (Vec<pmcf_obs::Event>, u64) {
    pmcf_obs::install(FlightRecorder::new(pmcf_obs::recorder::DEFAULT_CAPACITY));
    let p = generators::random_mcf(10, 36, 4, 3, seed);
    let ext = init::extend(&p).unwrap();
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mu_end = init::final_mu(&ext.prob);
    let mut t = Tracker::profiled();
    match engine {
        "reference" => {
            let _ = pmcf_core::reference::path_follow(
                &mut t,
                &ext.prob,
                ext.x0.clone(),
                mu0,
                mu_end,
                &PathFollowConfig::default(),
            );
        }
        "robust" => {
            let _ = pmcf_core::robust::path_follow(
                &mut t,
                &ext.prob,
                ext.x0.clone(),
                mu0,
                mu_end,
                &PathFollowConfig::default(),
            );
        }
        other => panic!("unknown engine {other}"),
    }
    let rec = pmcf_obs::uninstall().expect("recorder installed");
    (rec.snapshot(), rec.dropped())
}

#[test]
fn reference_solve_recording_passes_all_monitors() {
    let (events, _) = record_solve("reference", 1);
    assert!(!events.is_empty());
    assert!(events.iter().any(|e| e.kind == "solve.start"));
    let iters: Vec<_> = events.iter().filter(|e| e.kind == "ipm.iter").collect();
    assert!(!iters.is_empty());
    for e in &iters {
        assert_eq!(
            e.get("engine").and_then(JsonValue::as_str),
            Some("reference")
        );
        for field in ["iteration", "mu", "gap", "step", "work", "depth"] {
            assert!(e.num(field).is_some(), "ipm.iter without {field}");
        }
    }
    assert!(events.iter().any(|e| e.kind == "ipm.centered"));
    assert!(events.iter().any(|e| e.kind == "solve.end"));
    let verdicts = run_monitors(&events);
    assert!(
        all_ok(&verdicts),
        "monitor violations:\n{}",
        to_markdown(&verdicts)
    );
    // every monitor actually saw events on a reference solve
    for v in &verdicts {
        if v.monitor != "conductance-certified" {
            assert!(v.checked > 0, "{} checked nothing", v.monitor);
        }
    }
}

#[test]
fn robust_solve_recording_passes_all_monitors() {
    let (events, _) = record_solve("robust", 2);
    assert!(events.iter().any(|e| e.kind == "ipm.iter"));
    assert!(events.iter().any(|e| e.kind == "ipm.epoch"));
    let verdicts = run_monitors(&events);
    assert!(
        all_ok(&verdicts),
        "monitor violations:\n{}",
        to_markdown(&verdicts)
    );
}

#[test]
fn recording_survives_jsonl_round_trip_with_same_verdicts() {
    pmcf_obs::install(FlightRecorder::new(8192));
    let p = generators::random_mcf(8, 24, 3, 3, 5);
    let ext = init::extend(&p).unwrap();
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mut t = Tracker::new();
    let _ = pmcf_core::reference::path_follow(
        &mut t,
        &ext.prob,
        ext.x0.clone(),
        mu0,
        mu0 / 1e4,
        &PathFollowConfig::default(),
    );
    let rec = pmcf_obs::uninstall().unwrap();
    let direct = run_monitors(&rec.snapshot());
    let (parsed, dropped) = json::parse_recording(&rec.to_jsonl()).unwrap();
    assert_eq!(dropped, rec.dropped());
    let replayed = run_monitors(&parsed);
    assert_eq!(direct, replayed);
    assert!(all_ok(&replayed));
}

#[test]
fn expander_maintenance_is_certified_under_recording() {
    pmcf_obs::install(FlightRecorder::new(8192));
    let mut d = pmcf_expander::DynamicExpanderDecomposition::new(48, 0.1, 3);
    let mut t = Tracker::new();
    let g = generators::gnm_ugraph(48, 240, 4);
    let keys = d.insert_edges(&mut t, g.edges());
    d.delete_edges(&mut t, &keys[0..20]);
    let rec = pmcf_obs::uninstall().unwrap();
    let events = rec.snapshot();
    let rebuilds = events
        .iter()
        .filter(|e| e.kind == "expander.rebuild")
        .count();
    assert!(rebuilds > 0, "no rebuild events recorded");
    // at least one rebuild actually spot-checked a part
    assert!(
        events
            .iter()
            .filter(|e| e.kind == "expander.rebuild")
            .any(|e| e.num("checked_parts").unwrap_or(0.0) > 0.0),
        "certification never ran"
    );
    let verdicts = run_monitors(&events);
    assert!(
        all_ok(&verdicts),
        "monitor violations:\n{}",
        to_markdown(&verdicts)
    );
}
