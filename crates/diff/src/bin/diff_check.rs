//! Differential fuzz driver.
//!
//! ```bash
//! cargo run --release -p pmcf-diff --bin diff_check -- --seeds 64
//! cargo run --release -p pmcf-diff --bin diff_check -- --family mcf-bigm-boundary --seeds 256
//! cargo run --release -p pmcf-diff --bin diff_check -- --replay results/cases/overflow_bigm_boundary.json
//! ```
//!
//! Runs every registered family for seeds `0..N` through every
//! applicable oracle. On a mismatch a `MISMATCH` line goes to stderr,
//! the instance is greedily shrunk and written as a `pmcf.case/v1` file
//! under `--cases` (default `results/cases/`), and the exit code is 1.

use pmcf_diff::{families, run_scenario, CaseFile};
use std::path::PathBuf;

struct Args {
    seeds: u64,
    family: Option<String>,
    cases_dir: PathBuf,
    replay: Vec<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 16,
        family: None,
        cases_dir: PathBuf::from("results/cases"),
        replay: Vec::new(),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"))
            }
            "--family" => {
                args.family = Some(it.next().unwrap_or_else(|| usage("--family needs a name")))
            }
            "--cases" => {
                args.cases_dir =
                    PathBuf::from(it.next().unwrap_or_else(|| usage("--cases needs a dir")))
            }
            "--replay" => args.replay.push(PathBuf::from(
                it.next().unwrap_or_else(|| usage("--replay needs a file")),
            )),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "diff_check — cross-engine differential fuzzing\n\n\
         flags:\n  \
         --seeds <N>      seeds 0..N per family (default 16)\n  \
         --family <name>  only families whose name contains <name>\n  \
         --cases <dir>    where to write shrunken mismatch cases (default results/cases)\n  \
         --replay <file>  replay a pmcf.case/v1 file instead of fuzzing (repeatable)\n  \
         --quiet          only print mismatches and the summary"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let args = parse_args();
    let code = if args.replay.is_empty() {
        fuzz(&args)
    } else {
        replay(&args)
    };
    std::process::exit(code);
}

fn replay(args: &Args) -> i32 {
    let mut failed = 0;
    for path in &args.replay {
        let case = match CaseFile::load(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("FAIL  {e}");
                failed += 1;
                continue;
            }
        };
        let report = run_scenario(&case.scenario);
        if report.clean() {
            println!(
                "ok    {} ({}, seed {}): {}",
                path.display(),
                case.family,
                case.seed,
                report.verdict_summary()
            );
        } else {
            failed += 1;
            eprintln!(
                "FAIL  {} ({}): {}",
                path.display(),
                case.family,
                report
                    .mismatch
                    .clone()
                    .unwrap_or_else(|| report.monitor_failures.join("; "))
            );
        }
    }
    i32::from(failed > 0)
}

fn fuzz(args: &Args) -> i32 {
    let families: Vec<_> = families()
        .into_iter()
        .filter(|f| {
            args.family
                .as_deref()
                .is_none_or(|filter| f.name.contains(filter))
        })
        .collect();
    if families.is_empty() {
        usage("no family matches the filter");
    }
    let mut ran = 0u64;
    let mut mismatches = 0u64;
    for f in &families {
        let mut family_bad = 0u64;
        for seed in 0..args.seeds {
            let sc = (f.gen)(seed);
            let report = run_scenario(&sc);
            ran += 1;
            if report.clean() {
                continue;
            }
            mismatches += 1;
            family_bad += 1;
            let reason = report.mismatch.clone().unwrap_or_else(|| {
                format!("monitor failures: {}", report.monitor_failures.join("; "))
            });
            eprintln!("MISMATCH  {} seed {seed}: {reason}", f.name);
            // shrink while the failure (any unclean report) persists
            let small = pmcf_diff::shrink::shrink(&sc, &|cand| !run_scenario(cand).clean());
            let case = CaseFile {
                family: f.name.to_string(),
                seed,
                reason,
                scenario: small,
            };
            let path =
                args.cases_dir
                    .join(format!("{}_seed{}.json", f.name.replace('-', "_"), seed));
            match case.write_to(&path) {
                Ok(()) => eprintln!("          shrunken case written to {}", path.display()),
                Err(e) => eprintln!("          could not write case file: {e}"),
            }
        }
        if !args.quiet {
            println!(
                "{:<26} {:>4} seeds  {}",
                f.name,
                args.seeds,
                if family_bad == 0 {
                    "ok".to_string()
                } else {
                    format!("{family_bad} MISMATCHES")
                }
            );
        }
    }
    println!(
        "\ndiff_check: {} scenarios across {} families, {} mismatch(es)",
        ran,
        families.len(),
        mismatches
    );
    i32::from(mismatches > 0)
}
