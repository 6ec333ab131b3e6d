//! `bench-gate` — fail CI when a `pmcf.bench/v1` artifact regresses
//! against a committed baseline.
//!
//! Usage:
//! ```text
//! bench-gate --baseline results/baseline/table1_mcf.json [--candidate <path|->]
//!            [--baseline-report <path>] [--candidate-report <path>]
//!            [--triage-top K] [--quiet]
//! ```
//!
//! The thresholds are the constants in `pmcf_bench::gate`; no flag moves
//! them. The candidate defaults to stdin, so a harness streams straight in:
//! `table1_mcf -- --json - | bench-gate -- --baseline <baseline>`.
//!
//! When `--baseline-report` and `--candidate-report` name `pmcf.report/v1`
//! run reports for the same two runs, a gate *failure* additionally
//! prints a span-level triage table (the `report_diff` ranking) so the
//! regression is attributed to the span that moved, not just the
//! top-line counter that crossed a threshold.
//!
//! Exit codes: 0 pass, 1 regression, 2 usage / I/O / parse error.

use pmcf_bench::gate::{gate, parse_artifact};
use pmcf_obs::{diff_reports, RunReport};
use std::io::Read;
use std::process::ExitCode;

struct Cli {
    baseline: String,
    candidate: Option<String>,
    baseline_report: Option<String>,
    candidate_report: Option<String>,
    triage_top: usize,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-gate --baseline <path> [--candidate <path|->] \
         [--baseline-report <path>] [--candidate-report <path>] \
         [--triage-top K] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut baseline = None;
    let mut candidate = None;
    let mut baseline_report = None;
    let mut candidate_report = None;
    let mut triage_top = 10usize;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = args.next(),
            "--candidate" => candidate = args.next(),
            "--baseline-report" => baseline_report = args.next(),
            "--candidate-report" => candidate_report = args.next(),
            "--triage-top" => {
                triage_top = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--triage-top requires a positive integer");
                    usage()
                })
            }
            "--quiet" => quiet = true,
            other => {
                eprintln!("unrecognized argument {other:?}");
                usage();
            }
        }
    }
    let Some(baseline) = baseline else {
        eprintln!("--baseline is required");
        usage();
    };
    Cli {
        baseline,
        candidate,
        baseline_report,
        candidate_report,
        triage_top,
        quiet,
    }
}

/// Best-effort span-level triage: diff the two run reports and render
/// the top-K ranking. Any failure to load either report degrades to an
/// explanatory line rather than masking the gate verdict.
fn triage_markdown(cli: &Cli) -> Option<String> {
    let (base_path, cand_path) = match (&cli.baseline_report, &cli.candidate_report) {
        (Some(b), Some(c)) => (b, c),
        _ => return None,
    };
    match (
        RunReport::load(base_path.as_ref()),
        RunReport::load(cand_path.as_ref()),
    ) {
        (Ok(base), Ok(cand)) => {
            let diff = diff_reports(&base, &cand);
            Some(diff.to_markdown(cli.triage_top))
        }
        (b, c) => {
            let mut msg = String::from("### Span triage unavailable\n\n");
            for r in [b, c] {
                if let Err(e) = r {
                    msg.push_str(&format!("- {e}\n"));
                }
            }
            Some(msg)
        }
    }
}

fn read_source(spec: &Option<String>) -> Result<String, String> {
    match spec.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            Ok(buf)
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let run = || -> Result<bool, String> {
        let base_src = std::fs::read_to_string(&cli.baseline)
            .map_err(|e| format!("reading {}: {e}", cli.baseline))?;
        let cand_src = read_source(&cli.candidate)?;
        let base = parse_artifact(&base_src).map_err(|e| format!("baseline: {e}"))?;
        let cand = parse_artifact(&cand_src).map_err(|e| format!("candidate: {e}"))?;
        let report = gate(&base, &cand)?;
        if !cli.quiet || !report.passed() {
            println!("{}", report.to_markdown());
        }
        if !report.passed() {
            if let Some(triage) = triage_markdown(&cli) {
                println!("{triage}");
            }
        }
        Ok(report.passed())
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::from(2)
        }
    }
}
