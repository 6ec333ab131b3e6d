//! Property tests for the bench regression gate: measurement noise of
//! ±5% must never fail the gate, while a synthetic 2× work regression
//! must always be flagged — across randomly shaped artifacts.

use pmcf_bench::gate::{gate, parse_artifact, Severity, WORK_RATIO};
use pmcf_obs::json::JsonValue;
use proptest::prelude::*;

/// Build a `pmcf.bench/v1` artifact with `rows` (solver, work, depth,
/// iterations) entries and a fitted exponent.
fn artifact(rows: &[(String, u64, u64, u64)], exponent: f64) -> JsonValue {
    let body: Vec<String> = rows
        .iter()
        .map(|(s, w, d, it)| {
            format!(
                r#"{{"solver":"{s}","n":32,"m":128,"work":{w},"depth":{d},"iterations":{it},"wall_seconds":0.1}}"#
            )
        })
        .collect();
    let src = format!(
        r#"{{"schema":"pmcf.bench/v1","bench":"prop","seed":7,"work_exponent":{exponent:e},"rows":[{}]}}"#,
        body.join(",")
    );
    parse_artifact(&src).expect("synthetic artifact parses")
}

fn scale(v: u64, factor: f64) -> u64 {
    ((v as f64) * factor).round().max(1.0) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ±5% multiplicative noise on every metric of every row passes the
    /// default thresholds.
    #[test]
    fn noise_within_five_percent_passes(
        base_work in 1_000u64..1_000_000,
        base_depth in 100u64..10_000,
        iters in 10u64..500,
        noise in 0.95f64..1.05,
        rows in 1usize..5,
    ) {
        let baseline: Vec<(String, u64, u64, u64)> = (0..rows)
            .map(|i| (format!("solver{i}"), base_work * (i as u64 + 1), base_depth, iters))
            .collect();
        let candidate: Vec<(String, u64, u64, u64)> = baseline
            .iter()
            .map(|(s, w, d, it)| {
                (s.clone(), scale(*w, noise), scale(*d, noise), scale(*it, noise))
            })
            .collect();
        let report = gate(
            &artifact(&baseline, 1.5),
            &artifact(&candidate, 1.5 * noise),
        )
        .unwrap();
        prop_assert!(
            report.passed() && report.findings.is_empty(),
            "noise {noise:.3} produced findings:\n{}",
            report.to_markdown()
        );
    }

    /// Doubling the work of any one row always fails the gate, and the
    /// finding names that row's work metric.
    #[test]
    fn doubled_work_always_flagged(
        base_work in 1_000u64..1_000_000,
        base_depth in 100u64..10_000,
        iters in 10u64..500,
        rows in 1usize..5,
        victim_seed in 0u64..1_000,
    ) {
        let baseline: Vec<(String, u64, u64, u64)> = (0..rows)
            .map(|i| (format!("solver{i}"), base_work + i as u64, base_depth, iters))
            .collect();
        let victim = (victim_seed as usize) % rows;
        let candidate: Vec<(String, u64, u64, u64)> = baseline
            .iter()
            .enumerate()
            .map(|(i, (s, w, d, it))| {
                let w = if i == victim { w * 2 } else { *w };
                (s.clone(), w, *d, *it)
            })
            .collect();
        let report = gate(&artifact(&baseline, 1.5), &artifact(&candidate, 1.5))
        .unwrap();
        prop_assert!(!report.passed(), "2x work passed:\n{}", report.to_markdown());
        prop_assert!(
            report
                .failures()
                .any(|f| f.metric == "work" && f.row.contains(&format!("solver{victim}"))),
            "wrong finding:\n{}",
            report.to_markdown()
        );
    }

    /// The gate's verdict is a pure function of the two artifacts:
    /// re-running it yields an identical report.
    #[test]
    fn verdict_is_deterministic(
        work in 1_000u64..1_000_000,
        factor in 0.5f64..2.5,
    ) {
        let base = artifact(&[("s".to_string(), work, 100, 50)], 1.5);
        let cand = artifact(&[("s".to_string(), scale(work, factor), 100, 50)], 1.5);
        let a = gate(&base, &cand).unwrap();
        let b = gate(&base, &cand).unwrap();
        prop_assert_eq!(a.passed(), b.passed());
        prop_assert_eq!(a.findings.len(), b.findings.len());
        for (x, y) in a.findings.iter().zip(&b.findings) {
            prop_assert_eq!(&x.metric, &y.metric);
            prop_assert_eq!(x.severity == Severity::Fail, y.severity == Severity::Fail);
        }
        // and the threshold itself is sharp: > work_ratio iff flagged
        let flagged = a.failures().any(|f| f.metric == "work");
        let ratio = scale(work, factor) as f64 / work as f64;
        prop_assert_eq!(flagged, ratio > WORK_RATIO);
    }
}
