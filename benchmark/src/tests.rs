//! Reduced-size runs of every workload, checked against `BENCHMARK.json`.

use crate::compare::read_spec;
use crate::run;
use crate::traced::decompose;
use crate::workload::{Bench, Kind, Outcome, Workload, ALL};
use pmcf_core::Engine;
use pmcf_graph::generators;
use pmcf_obs::json::{self, JsonValue};
use pmcf_pram::Tracker;
use std::path::Path;

fn spec_path() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

/// Metric names of one `BENCHMARK.json` list.
fn spec_names(key: &str) -> Vec<String> {
    let doc = json::parse(&std::fs::read_to_string(spec_path()).unwrap()).unwrap();
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn every_metric_name_is_well_formed() {
    let (workloads, _) = read_spec(spec_path()).unwrap();
    for name in spec_names("end_to_end")
        .iter()
        .chain(&spec_names("per_layer"))
        .chain(&workloads)
    {
        assert!(valid_name(name), "{name}");
    }
    assert_eq!(
        workloads,
        ALL.iter().map(|k| k.name()).collect::<Vec<_>>(),
        "BENCHMARK.json lists the workloads the binary knows"
    );
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
}

#[test]
fn reduced_runs_emit_exactly_the_listed_metrics_and_fail_nothing() {
    for kind in ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (report, doc) = run(Workload::reduced(kind), 7, 0.0, trace).unwrap();
            let got: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, spec_names(key), "{} trace={trace}", kind.name());
            assert_eq!(report.failed, 0, "{} trace={trace}", kind.name());
            assert!(report.correct(), "{} trace={trace}", kind.name());
            assert!(report.attempted >= 1);
            if let Some(doc) = doc {
                let doc = json::parse(&doc).expect("trace document is JSON");
                assert!(!doc
                    .get("spans")
                    .and_then(JsonValue::as_arr)
                    .unwrap()
                    .is_empty());
            }
        }
    }
}

#[test]
fn decomposed_pipeline_costs_what_solve_mcf_costs() {
    for seed in 0..4 {
        for engine in [Engine::Reference, Engine::Robust] {
            let p = generators::random_mcf(12, 42, 8, 6, seed);
            let d = decompose(&p, engine).unwrap();
            assert!(d.costs_equal, "seed {seed} {engine:?}");
            assert!(d.solve_s > 0.0 && d.path_s > 0.0);
        }
    }
}

#[test]
fn a_wrong_answer_is_counted_as_failed() {
    for kind in [Kind::ReferenceDense, Kind::ResolveChurn, Kind::SmallMix] {
        let (mut bench, _) = Bench::setup(Workload::reduced(kind), 3).unwrap();
        let mut records = bench.run_for(0.0, 6, Tracker::new, |_, _, _| {});
        assert_eq!(bench.judge(&records), 0, "{}", kind.name());
        records[1].outcome = match records[1].outcome {
            Outcome::Cost(c) => Outcome::Cost(c + 1),
            Outcome::Value(v) => Outcome::Value(v - 1),
            _ => Outcome::Invalid,
        };
        assert_eq!(bench.judge(&records), 1, "{}", kind.name());
        records[2].outcome = Outcome::Panic;
        assert_eq!(bench.judge(&records), 2, "{}", kind.name());
    }
}
