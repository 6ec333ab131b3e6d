//! Replay every checked-in `pmcf.case/v1` file under `results/cases/`.
//!
//! Each case is a shrunken instance that once made the oracles disagree
//! (or exposed a panic/overflow). Replaying them in `cargo test` keeps
//! each fixed bug fixed: a regression flips the corresponding case from
//! clean back to mismatching and fails this test with the case path.

use pmcf_diff::{run_scenario, CaseFile};
use pmcf_obs::json;
use std::path::PathBuf;

fn case_paths() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cases");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|entry| {
            let p = entry.ok()?.path();
            (p.extension().and_then(|x| x.to_str()) == Some("json")).then_some(p)
        })
        .collect();
    paths.sort();
    paths
}

/// The writer reproduces every checked-in case: loading a file and
/// rendering it again gives the same JSON tree (whitespace aside).
#[test]
fn checked_in_cases_re_render_to_the_same_tree() {
    let paths = case_paths();
    assert!(!paths.is_empty());
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = CaseFile::load(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            json::parse(&case.to_json().to_string()),
            json::parse(&text),
            "{}",
            path.display()
        );
    }
}

#[test]
fn every_checked_in_case_replays_clean() {
    let paths = case_paths();
    assert!(
        paths.len() >= 3,
        "expected at least three regression cases, found {}",
        paths.len()
    );
    for path in paths {
        let case = CaseFile::load(&path).unwrap_or_else(|e| panic!("{e}"));
        let report = run_scenario(&case.scenario);
        assert!(
            report.clean(),
            "{} regressed: {}\n(original reason: {})",
            path.display(),
            report
                .mismatch
                .clone()
                .unwrap_or_else(|| report.monitor_failures.join("; ")),
            case.reason
        );
    }
}
