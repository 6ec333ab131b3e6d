//! `report_diff` — diff two `pmcf.report/v1` run reports and print the
//! span-level triage table.
//!
//! Usage:
//! ```text
//! report_diff <baseline.report.json> <candidate.report.json>
//!             [--top K] [--json <path|->] [--expect-identical-costs] [--quiet]
//! ```
//!
//! `--expect-identical-costs` turns the diff into an assertion: exit 1
//! unless charged work/depth are bit-identical on every span and every
//! counter outside `sched.*` is equal (the cross-`RAYON_NUM_THREADS`
//! determinism check; wall time and the scheduling-dependent `sched.*`
//! counters are exempt).
//!
//! Exit codes: 0 ok, 1 cost-identity assertion failed, 2 usage / I/O /
//! parse error.

use pmcf_obs::{diff_reports, json, ReportDiff, RunReport};
use std::process::ExitCode;

struct Cli {
    baseline: String,
    candidate: String,
    top: usize,
    json: Option<String>,
    expect_identical: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: report_diff <baseline.report.json> <candidate.report.json> \
         [--top K] [--json <path|->] [--expect-identical-costs] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut positional = Vec::new();
    let mut top = 10usize;
    let mut json = None;
    let mut expect_identical = false;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--top requires an integer");
                    usage()
                })
            }
            "--json" => json = args.next(),
            "--expect-identical-costs" => expect_identical = true,
            "--quiet" => quiet = true,
            other if !other.starts_with("--") => positional.push(other.to_string()),
            other => {
                eprintln!("unrecognized argument {other:?}");
                usage();
            }
        }
    }
    if positional.len() != 2 {
        eprintln!("expected exactly two report paths");
        usage();
    }
    let mut it = positional.into_iter();
    Cli {
        baseline: it.next().unwrap(),
        candidate: it.next().unwrap(),
        top,
        json,
        expect_identical,
        quiet,
    }
}

fn write_json(spec: &str, diff: &ReportDiff) -> Result<(), String> {
    let doc = diff.to_json();
    if spec == "-" {
        println!("{doc}");
        return Ok(());
    }
    json::write_file(spec.as_ref(), &doc).map_err(|e| format!("writing {spec}: {e}"))
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let run = || -> Result<bool, String> {
        let base = RunReport::load(cli.baseline.as_ref())?;
        let cand = RunReport::load(cli.candidate.as_ref())?;
        let diff = diff_reports(&base, &cand);
        // markdown goes to stderr when the JSON stream owns stdout,
        // mirroring the bench bins' `--json -` convention
        if !cli.quiet {
            if cli.json.as_deref() == Some("-") {
                eprintln!("{}", diff.to_markdown(cli.top));
            } else {
                println!("{}", diff.to_markdown(cli.top));
            }
        }
        if let Some(spec) = &cli.json {
            write_json(spec, &diff)?;
        }
        if cli.expect_identical && !diff.charged_costs_identical() {
            eprintln!("report_diff: charged work/depth or counters differ between runs:");
            for v in diff.charged_cost_violations().iter().take(20) {
                eprintln!("  {v}");
            }
            return Ok(false);
        }
        Ok(true)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("report_diff: {e}");
            ExitCode::from(2)
        }
    }
}
