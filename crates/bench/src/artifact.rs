//! Machine-readable bench artifacts.
//!
//! Every harness binary accepts `--json <path>` and `--seed <u64>` and,
//! when asked, writes a schema-versioned JSON artifact next to the
//! human-readable markdown it prints. The artifact carries the raw rows
//! of each table, any fitted scaling exponents, the RNG seed, and — under
//! a `PMCF_REPORT` session, whose trackers are profiled — the
//! hierarchical span-tree profile of a designated solve, so external
//! tooling can diff runs without scraping stdout.
//!
//! Artifacts are built as [`JsonValue`]s and rendered by the workspace's
//! one JSON writer (`pmcf_obs::json`).

use pmcf_obs::json::{self, JsonValue};
use pmcf_pram::Tracker;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every artifact.
pub const SCHEMA: &str = "pmcf.bench/v1";

/// Command-line arguments shared by every bench binary.
///
/// Layout: one optional positional integer (its meaning is per-binary —
/// usually a size cap), plus `--json <path>` and `--seed <u64>`.
/// `--json -` streams the artifact JSON to stdout and routes all
/// human-readable markdown to stderr, so the harness can be piped
/// straight into `bench-gate`.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// The positional size cap, if given.
    pub max_size: Option<usize>,
    /// Where to write the JSON artifact, if requested.
    pub json: Option<PathBuf>,
    /// `--json -`: stream the artifact to stdout, markdown to stderr.
    pub stream: bool,
    /// RNG seed for instance generation (recorded in the artifact).
    pub seed: Option<u64>,
}

impl BenchArgs {
    /// Parse `std::env::args()`, panicking with a usage message on
    /// malformed input (these are internal harnesses, not a CLI product).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit argument iterator (testable core of
    /// [`BenchArgs::parse`]).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut out = BenchArgs::default();
        let mut args = iter.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => {
                    let p = args.next().expect("--json requires a path or '-'");
                    if p == "-" {
                        out.stream = true;
                    } else {
                        out.json = Some(PathBuf::from(p));
                    }
                }
                "--seed" => {
                    let s = args.next().expect("--seed requires a u64");
                    out.seed = Some(s.parse().expect("--seed requires a u64"));
                }
                other => {
                    let v: usize = other.parse().unwrap_or_else(|_| {
                        panic!("unrecognized argument {other:?} (expected a size, --json <path|->, or --seed <u64>)")
                    });
                    out.max_size = Some(v);
                }
            }
        }
        out
    }

    /// The seed to use: `--seed` if given, else `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The size cap: the positional argument if given, else `default`.
    pub fn max_size_or(&self, default: usize) -> usize {
        self.max_size.unwrap_or(default)
    }

    /// Print one line of markdown: to stderr under `--json -` (keeping
    /// stdout clean for the artifact), to stdout otherwise.
    pub fn md_line(&self, line: &str) {
        if self.stream {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
}

/// `mdln!(args)` / `mdln!(args, "fmt", ...)` — markdown output that
/// respects `--json -` stream routing (see [`BenchArgs::md_line`]).
#[macro_export]
macro_rules! mdln {
    ($args:expr) => {
        $args.md_line("")
    };
    ($args:expr, $($fmt:tt)*) => {
        $args.md_line(&format!($($fmt)*))
    };
}

/// Accumulates one run's results and writes the artifact.
pub struct Artifact {
    bench: String,
    seed: u64,
    rows: Vec<JsonValue>,
    extra: Vec<(String, JsonValue)>,
    profile: Option<JsonValue>,
    md_stderr: bool,
}

impl Artifact {
    /// Start an artifact for the named bench with the recorded seed.
    pub fn new(bench: &str, seed: u64) -> Self {
        Artifact {
            bench: bench.to_string(),
            seed,
            rows: Vec::new(),
            extra: Vec::new(),
            profile: None,
            md_stderr: false,
        }
    }

    /// Start an artifact wired to `args`: under `--json -`, any markdown
    /// this artifact prints (profile reports, write notices) goes to
    /// stderr so stdout stays a clean JSON stream.
    pub fn for_run(bench: &str, seed: u64, args: &BenchArgs) -> Self {
        let mut a = Artifact::new(bench, seed);
        a.md_stderr = args.stream;
        a
    }

    fn md_line(&self, line: &str) {
        if self.md_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    /// Append a table row (an ordered key → value object).
    pub fn row(&mut self, pairs: Vec<(&str, JsonValue)>) {
        self.rows.push(JsonValue::obj(pairs));
    }

    /// Attach a top-level key (fitted exponents, sweep metadata, …).
    pub fn set(&mut self, key: &str, value: JsonValue) {
        self.extra.push((key.to_string(), value));
    }

    /// Embed the span-tree profile of `t`, if it carries one (i.e. the
    /// tracker came from `pmcf_obs::tracker()` during a `PMCF_REPORT`
    /// session), and print it as a flamegraph-style markdown report.
    pub fn attach_profile(&mut self, label: &str, t: &Tracker) {
        if let Some(rep) = t.profile_report() {
            self.md_line(&format!("\n### Span profile — {label}\n"));
            self.md_line(&rep.to_markdown());
            self.profile = Some(pmcf_obs::profile_json(&rep));
        }
    }

    /// The full artifact document.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = vec![
            ("schema".to_string(), SCHEMA.into()),
            ("bench".to_string(), self.bench.as_str().into()),
            ("seed".to_string(), self.seed.into()),
        ];
        obj.extend(self.extra.iter().cloned());
        obj.push(("rows".to_string(), JsonValue::Arr(self.rows.clone())));
        if let Some(p) = &self.profile {
            obj.push(("profile".to_string(), p.clone()));
        }
        JsonValue::Obj(obj)
    }

    /// Emit the artifact as `args` requested: under `--json -` the JSON
    /// streams to stdout (ready to pipe into `bench-gate`); under
    /// `--json <path>` it is written to the file (creating parent
    /// directories) and the destination is announced; otherwise no-op.
    pub fn emit(&self, args: &BenchArgs) {
        if args.stream {
            println!("{}", self.to_json());
        } else if let Some(p) = &args.json {
            self.write(p).expect("artifact write failed");
            self.md_line(&format!("\n[artifact] wrote {}", p.display()));
        }
    }

    /// Write the artifact to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        json::write_file(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_shape_is_schema_versioned() {
        let mut a = Artifact::new("demo", 9);
        a.row(vec![("n", 4usize.into()), ("work", 100u64.into())]);
        a.set("exponent", 1.5.into());
        assert_eq!(
            a.to_json().to_string(),
            r#"{"schema":"pmcf.bench/v1","bench":"demo","seed":9,"exponent":1.5e0,"rows":[{"n":4,"work":100}]}"#
        );
    }

    #[test]
    fn artifact_embeds_profile_verbatim() {
        let mut t = Tracker::profiled();
        t.span("a", |t| t.charge(pmcf_pram::Cost::par_flat(5)));
        let rep = t.profile_report().unwrap();
        let mut a = Artifact::new("demo", 0);
        a.profile = Some(pmcf_obs::profile_json(&rep));
        let js = a.to_json().to_string();
        assert!(js.contains("\"profile\":{\"schema\":\"pmcf.profile/v1\""));
    }

    #[test]
    fn json_dash_streams_and_path_writes() {
        let a = BenchArgs::parse_from(["--json", "-", "--seed", "7", "64"].map(String::from));
        assert!(a.stream);
        assert!(a.json.is_none());
        assert_eq!(a.seed_or(0), 7);
        assert_eq!(a.max_size_or(0), 64);
        let b = BenchArgs::parse_from(["--json", "out.json"].map(String::from));
        assert!(!b.stream);
        assert_eq!(b.json.as_deref(), Some(Path::new("out.json")));
    }

    #[test]
    fn for_run_routes_markdown_by_stream_flag() {
        let streaming = BenchArgs::parse_from(["--json", "-"].map(String::from));
        assert!(Artifact::for_run("demo", 1, &streaming).md_stderr);
        assert!(!Artifact::for_run("demo", 1, &BenchArgs::default()).md_stderr);
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("pmcf_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        let a = Artifact::new("demo", 1);
        a.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("\"schema\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
