//! `pmcf_benchmark`: the repository benchmark. `README.md` beside this
//! crate describes the workloads and metrics; `BENCHMARK.json` at the
//! repository root lists them with their regression bounds.
//!
//! ```text
//! pmcf_benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//! pmcf_benchmark compare <dir-a> <dir-b>
//! ```
//!
//! A run makes the workload's inputs from the seed, sets up five times,
//! runs the closed loop for `--seconds`, checks every answer against an
//! oracle, and prints one `<workload> <metric> <value> <unit>` line per
//! metric and the result as JSON on the last line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! reports the per-layer ones and, with `--trace-out`, writes its spans.

mod compare;
mod report;
mod stats;
mod traced;
mod workload;

use report::{Metric, Report};
use stats::{median, percentile, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Bench, Kind, Record, SetupTimes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str =
    "usage: pmcf_benchmark --workload <robust-dense|reference-dense|resolve-churn|small-mix> \
[--seed <u64>] [--seconds <s>] [--trace 0|1] [--trace-out <file>]\n       \
pmcf_benchmark compare <dir-a> <dir-b>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut trace_out) = (None, 1, 20.0, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload names no known workload")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// Removes every `PMCF_*` variable: `PMCF_SEQ_CUTOFF` moves the fork
/// cutoff, and `PMCF_PROFILE`, `PMCF_REPORT` and their siblings turn on
/// recording inside the program. Returns the names removed.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PMCF_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmcf_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything starts the pool: it reads RAYON_NUM_THREADS once.
    for name in scrub_env() {
        eprintln!("pmcf_benchmark: removed {name} from the environment");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(
        "RAYON_NUM_THREADS",
        args.kind.threads().min(cores).to_string(),
    );

    match run(
        Workload::new(args.kind),
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok((report, trace_doc)) => {
            if let (Some(path), Some(doc)) = (&args.trace_out, trace_doc) {
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("pmcf_benchmark: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pmcf_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run: set-ups, then the timed or the traced run. The traced run
/// also returns its trace document.
fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Report, Option<String>), String> {
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let (b, times) = Bench::setup(w, seed)?;
        setups.push(times);
        bench = Some(b);
    }
    let bench = bench.expect("SETUP_REPS > 0");
    if trace {
        let (report, doc) = traced::run(bench, &setups, seconds)?;
        Ok((report, Some(doc)))
    } else {
        Ok((timed(bench, &setups, seconds), None))
    }
}

/// The end-to-end metrics: the closed loop with a plain `Tracker::new()`
/// per call, tracing off.
fn timed(mut bench: Bench, setups: &[SetupTimes], seconds: f64) -> Report {
    let w = bench.workload;
    let records = bench.run_for(
        seconds,
        w.min_calls(),
        pmcf_pram::Tracker::new,
        |_, _, _| {},
    );
    let failed = bench.judge(&records);
    let secs: Vec<f64> = records.iter().map(Record::secs).collect();
    let busy: f64 = secs.iter().sum();
    let metrics = vec![
        Metric::new("call_s_p50", median(secs.iter().copied()), "s"),
        Metric::new("ops_per_s", secs.len() as f64 / busy, "1/s"),
        Metric::new("setup_s", median(setups.iter().map(|s| s.total_s)), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut notes = vec![
        Metric::new("samples", secs.len() as f64, "count"),
        Metric::new("fail_frac", failed as f64 / secs.len() as f64, "ratio"),
    ];
    if let Some(p) = tail_percentile(secs.len()) {
        notes.push(Metric::new(
            format!("call_s_p{p}"),
            percentile(&secs, p),
            "s",
        ));
    }
    if w.kind == Kind::SmallMix {
        let mut families: Vec<&str> = records.iter().map(|r| r.family).collect();
        families.sort();
        families.dedup();
        for f in families {
            let fs: Vec<f64> = records
                .iter()
                .filter(|r| r.family == f)
                .map(Record::secs)
                .collect();
            notes.push(Metric::new(format!("{f}.call_s_p50"), median(fs), "s"));
        }
    }
    Report {
        workload: w.kind.name(),
        attempted: secs.len() as u64,
        failed,
        metrics,
        notes,
    }
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests;
