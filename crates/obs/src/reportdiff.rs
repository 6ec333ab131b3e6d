//! Cross-run report diffing: which span regressed, by how much?
//!
//! [`diff_reports`] aligns two [`RunReport`] span trees by span *path*
//! (segments joined with the critical-path ledger's `" > "` separator),
//! producing one [`SpanDelta`] per path — kept, added, or removed — with
//! exact per-span deltas of work, depth, wall time, and call counts,
//! plus counter deltas (which cover the solver's CG totals and the
//! scheduling-dependent `sched.*` pool counters) and per-engine
//! convergence aggregates.
//!
//! Span work/depth in a profile are **inclusive**: inflating one leaf
//! inflates every ancestor by the same amount. Ranking therefore sorts
//! by the **self** (exclusive) work delta first, so the triage table
//! names the actual culprit span rather than its enclosing phases.
//!
//! Because charged work/depth are a deterministic accounting — bit
//! identical across `RAYON_NUM_THREADS` — two identical-seed runs must
//! show *zero* work/depth delta on every span, and equal counters
//! outside `sched.*`; anything else is a real behavioral difference.
//! [`ReportDiff::charged_costs_identical`] checks exactly that (wall
//! time is excluded — it is honest clock time and never identical — and
//! so are the `sched.*` counters, which count pool checkouts whose
//! outcome depends on how fork-join branches interleave).
//!
//! The result serializes as `pmcf.reportdiff/v1`
//! ([`ReportDiff::to_json`]) and renders as
//! a markdown triage table ([`ReportDiff::to_markdown`]) — the same
//! table `bench-gate` attaches to a failure when baseline and candidate
//! reports are available.

use crate::json::JsonValue;
use crate::report::RunReport;
use pmcf_pram::critpath::PATH_SEP;
use pmcf_pram::profile::SpanReport;
use std::collections::BTreeMap;

/// Schema identifier stamped into every diff document.
pub const DIFF_SCHEMA: &str = "pmcf.reportdiff/v1";

/// Flattened per-span measurements (one side of a [`SpanDelta`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Inclusive work.
    pub work: u64,
    /// Inclusive depth.
    pub depth: u64,
    /// Inclusive wall nanoseconds.
    pub wall_ns: u64,
    /// Times the span was entered.
    pub count: u64,
    /// Exclusive work (inclusive minus the immediate children's).
    pub self_work: u64,
    /// Exclusive depth.
    pub self_depth: u64,
    /// Exclusive wall nanoseconds.
    pub self_wall_ns: u64,
}

/// How a span path fared in the alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Present in both runs.
    Kept,
    /// Only in the candidate run.
    Added,
    /// Only in the baseline run.
    Removed,
}

impl DiffStatus {
    /// Stable lowercase label used in JSON and markdown.
    pub fn label(self) -> &'static str {
        match self {
            DiffStatus::Kept => "kept",
            DiffStatus::Added => "added",
            DiffStatus::Removed => "removed",
        }
    }
}

/// One aligned span path with both sides' stats (a missing side counts
/// as zero in every delta).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanDelta {
    /// Span path, segments joined by `" > "`.
    pub path: String,
    /// Kept / added / removed.
    pub status: DiffStatus,
    /// Baseline stats (`None` for added spans).
    pub base: Option<SpanStats>,
    /// Candidate stats (`None` for removed spans).
    pub cand: Option<SpanStats>,
}

impl SpanDelta {
    fn b(&self) -> SpanStats {
        self.base.unwrap_or_default()
    }

    fn c(&self) -> SpanStats {
        self.cand.unwrap_or_default()
    }

    /// Candidate-minus-baseline inclusive work.
    pub fn d_work(&self) -> i64 {
        self.c().work as i64 - self.b().work as i64
    }

    /// Candidate-minus-baseline inclusive depth.
    pub fn d_depth(&self) -> i64 {
        self.c().depth as i64 - self.b().depth as i64
    }

    /// Candidate-minus-baseline inclusive wall nanoseconds.
    pub fn d_wall_ns(&self) -> i64 {
        self.c().wall_ns as i64 - self.b().wall_ns as i64
    }

    /// Candidate-minus-baseline exclusive (self) work — the ranking key.
    pub fn d_self_work(&self) -> i64 {
        self.c().self_work as i64 - self.b().self_work as i64
    }

    /// Candidate-minus-baseline exclusive (self) depth.
    pub fn d_self_depth(&self) -> i64 {
        self.c().self_depth as i64 - self.b().self_depth as i64
    }

    /// Candidate-minus-baseline call count.
    pub fn d_count(&self) -> i64 {
        self.c().count as i64 - self.b().count as i64
    }
}

/// One counter present in either run.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Baseline value (`None` when absent).
    pub base: Option<u64>,
    /// Candidate value (`None` when absent).
    pub cand: Option<u64>,
}

impl CounterDelta {
    /// Candidate-minus-baseline (missing side counts as zero).
    pub fn delta(&self) -> i64 {
        self.cand.unwrap_or(0) as i64 - self.base.unwrap_or(0) as i64
    }
}

/// Whether `c` moved although it counts the computation itself, not
/// how the pool scheduled it (`sched.*`).
fn deterministic_counter_moved(c: &CounterDelta) -> bool {
    !c.name.starts_with("sched.") && c.delta() != 0
}

/// Per-engine convergence aggregates across the two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergenceDelta {
    /// IPM engine name.
    pub engine: String,
    /// Baseline iteration count.
    pub base_iterations: u64,
    /// Candidate iteration count.
    pub cand_iterations: u64,
    /// Baseline total CG iterations across the solve.
    pub base_cg: u64,
    /// Candidate total CG iterations.
    pub cand_cg: u64,
    /// Baseline final μ (0.0 when the engine recorded no iterations).
    pub base_final_mu: f64,
    /// Candidate final μ.
    pub cand_final_mu: f64,
}

/// The full cross-run diff (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ReportDiff {
    /// Baseline run name.
    pub baseline: String,
    /// Candidate run name.
    pub candidate: String,
    /// Baseline total charged work.
    pub base_work: u64,
    /// Candidate total charged work.
    pub cand_work: u64,
    /// Baseline total charged depth.
    pub base_depth: u64,
    /// Candidate total charged depth.
    pub cand_depth: u64,
    /// Every span path in either run, exactly once, sorted by path.
    pub spans: Vec<SpanDelta>,
    /// Every counter in either run, exactly once, sorted by name.
    pub counters: Vec<CounterDelta>,
    /// Per-engine convergence aggregates (union of engines, sorted).
    pub convergence: Vec<ConvergenceDelta>,
}

/// Flatten a span tree into path → stats (paths are unique because the
/// profiler merges same-name siblings; aggregation is defensive).
fn flatten(spans: &[SpanReport], prefix: &str, out: &mut BTreeMap<String, SpanStats>) {
    for s in spans {
        let path = if prefix.is_empty() {
            s.name.clone()
        } else {
            format!("{prefix}{PATH_SEP}{}", s.name)
        };
        let e = out.entry(path.clone()).or_default();
        e.work += s.work;
        e.depth += s.depth;
        e.wall_ns += s.wall_ns();
        e.count += s.count;
        e.self_work += s.self_work();
        e.self_depth += s.self_depth();
        e.self_wall_ns += s.self_wall_ns();
        flatten(&s.children, &path, out);
    }
}

fn convergence_aggregate(r: &RunReport) -> BTreeMap<String, (u64, u64, f64)> {
    let mut out: BTreeMap<String, (u64, u64, f64)> = BTreeMap::new();
    for row in &r.convergence {
        let e = out.entry(row.engine.clone()).or_insert((0, 0, 0.0));
        e.0 += 1;
        e.1 += row.cg_iters;
        e.2 = row.mu; // rows are in recording order; the last one wins
    }
    out
}

/// Align two reports (see module docs). Every span path and counter name
/// in either report appears exactly once in the result.
pub fn diff_reports(base: &RunReport, cand: &RunReport) -> ReportDiff {
    let mut bmap = BTreeMap::new();
    let mut cmap = BTreeMap::new();
    flatten(&base.spans, "", &mut bmap);
    flatten(&cand.spans, "", &mut cmap);
    let mut paths: Vec<&String> = bmap.keys().collect();
    for p in cmap.keys() {
        if !bmap.contains_key(p) {
            paths.push(p);
        }
    }
    paths.sort();
    let spans = paths
        .into_iter()
        .map(|p| {
            let b = bmap.get(p).copied();
            let c = cmap.get(p).copied();
            SpanDelta {
                path: p.clone(),
                status: match (b.is_some(), c.is_some()) {
                    (true, true) => DiffStatus::Kept,
                    (false, _) => DiffStatus::Added,
                    (_, false) => DiffStatus::Removed,
                },
                base: b,
                cand: c,
            }
        })
        .collect();

    let mut names: Vec<&String> = base.counters.keys().collect();
    for n in cand.counters.keys() {
        if !base.counters.contains_key(n) {
            names.push(n);
        }
    }
    names.sort();
    let counters = names
        .into_iter()
        .map(|n| CounterDelta {
            name: n.clone(),
            base: base.counters.get(n).copied(),
            cand: cand.counters.get(n).copied(),
        })
        .collect();

    let bconv = convergence_aggregate(base);
    let cconv = convergence_aggregate(cand);
    let mut engines: Vec<&String> = bconv.keys().collect();
    for e in cconv.keys() {
        if !bconv.contains_key(e) {
            engines.push(e);
        }
    }
    engines.sort();
    let convergence = engines
        .into_iter()
        .map(|e| {
            let b = bconv.get(e).copied().unwrap_or((0, 0, 0.0));
            let c = cconv.get(e).copied().unwrap_or((0, 0, 0.0));
            ConvergenceDelta {
                engine: e.clone(),
                base_iterations: b.0,
                cand_iterations: c.0,
                base_cg: b.1,
                cand_cg: c.1,
                base_final_mu: b.2,
                cand_final_mu: c.2,
            }
        })
        .collect();

    ReportDiff {
        baseline: base.name.clone(),
        candidate: cand.name.clone(),
        base_work: base.work,
        cand_work: cand.work,
        base_depth: base.depth,
        cand_depth: cand.depth,
        spans,
        counters,
        convergence,
    }
}

impl ReportDiff {
    /// Spans ranked most-regressing first: by self-work delta, then
    /// inclusive work delta, then wall delta (ties broken by path).
    /// Returns at most `k` spans that regressed on *some* axis; spans
    /// with no positive delta never appear.
    pub fn ranked(&self, k: usize) -> Vec<&SpanDelta> {
        let mut regressed: Vec<&SpanDelta> = self
            .spans
            .iter()
            .filter(|d| {
                d.d_self_work() > 0
                    || d.d_work() > 0
                    || d.d_self_depth() > 0
                    || d.d_depth() > 0
                    || d.d_wall_ns() > 0
                    || d.status == DiffStatus::Added
            })
            .collect();
        regressed.sort_by(|a, b| {
            b.d_self_work()
                .cmp(&a.d_self_work())
                .then(b.d_work().cmp(&a.d_work()))
                .then(b.d_wall_ns().cmp(&a.d_wall_ns()))
                .then(a.path.cmp(&b.path))
        });
        regressed.truncate(k);
        regressed
    }

    /// Whether the two runs charged identical work and depth — totals
    /// and every span, with no span added or removed — and counted the
    /// same value on every counter outside `sched.*`. This is the
    /// cross-thread-count determinism check: same seed, different
    /// `RAYON_NUM_THREADS` must return `true`. Wall time, pool telemetry
    /// and the `sched.*` counters are ignored (they depend on the
    /// clock and on scheduling).
    pub fn charged_costs_identical(&self) -> bool {
        self.base_work == self.cand_work
            && self.base_depth == self.cand_depth
            && self
                .spans
                .iter()
                .all(|d| d.status == DiffStatus::Kept && d.d_work() == 0 && d.d_depth() == 0)
            && !self.counters.iter().any(deterministic_counter_moved)
    }

    /// Span paths violating [`charged_costs_identical`], with their
    /// work/depth deltas (for error messages).
    pub fn charged_cost_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.base_work != self.cand_work {
            out.push(format!(
                "total work {} → {}",
                self.base_work, self.cand_work
            ));
        }
        if self.base_depth != self.cand_depth {
            out.push(format!(
                "total depth {} → {}",
                self.base_depth, self.cand_depth
            ));
        }
        for d in &self.spans {
            if d.status != DiffStatus::Kept {
                out.push(format!("{} ({})", d.path, d.status.label()));
            } else if d.d_work() != 0 || d.d_depth() != 0 {
                out.push(format!(
                    "{} (Δwork {:+}, Δdepth {:+})",
                    d.path,
                    d.d_work(),
                    d.d_depth()
                ));
            }
        }
        for c in &self.counters {
            if deterministic_counter_moved(c) {
                out.push(format!("counter {} (Δ {:+})", c.name, c.delta()));
            }
        }
        out
    }

    /// The `pmcf.reportdiff/v1` document.
    pub fn to_json(&self) -> JsonValue {
        let stats = |s: Option<SpanStats>| {
            s.map(|s| {
                JsonValue::obj([
                    ("work", s.work.into()),
                    ("depth", s.depth.into()),
                    ("wall_ns", s.wall_ns.into()),
                    ("count", s.count.into()),
                    ("self_work", s.self_work.into()),
                    ("self_depth", s.self_depth.into()),
                    ("self_wall_ns", s.self_wall_ns.into()),
                ])
            })
            .into()
        };
        let pair =
            |base: u64, cand: u64| JsonValue::obj([("base", base.into()), ("cand", cand.into())]);
        JsonValue::obj([
            ("schema", DIFF_SCHEMA.into()),
            ("baseline", self.baseline.as_str().into()),
            ("candidate", self.candidate.as_str().into()),
            ("work", pair(self.base_work, self.cand_work)),
            ("depth", pair(self.base_depth, self.cand_depth)),
            (
                "spans",
                self.spans
                    .iter()
                    .map(|d| {
                        JsonValue::obj([
                            ("path", d.path.as_str().into()),
                            ("status", d.status.label().into()),
                            ("base", stats(d.base)),
                            ("cand", stats(d.cand)),
                        ])
                    })
                    .collect(),
            ),
            (
                "counters",
                self.counters
                    .iter()
                    .map(|c| {
                        JsonValue::obj([
                            ("name", c.name.as_str().into()),
                            ("base", c.base.into()),
                            ("cand", c.cand.into()),
                        ])
                    })
                    .collect(),
            ),
            (
                "convergence",
                self.convergence
                    .iter()
                    .map(|c| {
                        JsonValue::obj([
                            ("engine", c.engine.as_str().into()),
                            ("base_iterations", c.base_iterations.into()),
                            ("cand_iterations", c.cand_iterations.into()),
                            ("base_cg", c.base_cg.into()),
                            ("cand_cg", c.cand_cg.into()),
                            ("base_final_mu", c.base_final_mu.into()),
                            ("cand_final_mu", c.cand_final_mu.into()),
                        ])
                    })
                    .collect(),
            ),
        ])
    }

    /// Markdown triage: top-`k` regressing spans (self-work ranked),
    /// changed counters, and the convergence aggregates.
    pub fn to_markdown(&self, k: usize) -> String {
        let mut out = format!(
            "### Span-level triage — {} → {}\n\n",
            self.baseline, self.candidate
        );
        out.push_str(&format!(
            "charged work {} → {} ({:+}), charged depth {} → {} ({:+})\n\n",
            self.base_work,
            self.cand_work,
            self.cand_work as i64 - self.base_work as i64,
            self.base_depth,
            self.cand_depth,
            self.cand_depth as i64 - self.base_depth as i64,
        ));
        let ranked = self.ranked(k);
        if ranked.is_empty() {
            out.push_str("no span regressed on any axis.\n");
        } else {
            out.push_str(
                "| rank | span path | status | Δwork (self) | Δwork | Δdepth | Δwall | Δcalls |\n",
            );
            out.push_str("|---|---|---|---:|---:|---:|---:|---:|\n");
            for (i, d) in ranked.iter().enumerate() {
                out.push_str(&format!(
                    "| {} | {} | {} | {:+} | {:+} | {:+} | {:+.3}ms | {:+} |\n",
                    i + 1,
                    d.path,
                    d.status.label(),
                    d.d_self_work(),
                    d.d_work(),
                    d.d_depth(),
                    d.d_wall_ns() as f64 / 1e6,
                    d.d_count(),
                ));
            }
        }
        let changed: Vec<&CounterDelta> = self.counters.iter().filter(|c| c.delta() != 0).collect();
        if !changed.is_empty() {
            out.push_str("\n| counter | baseline | candidate | Δ |\n|---|---:|---:|---:|\n");
            for c in &changed {
                let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "—".into());
                out.push_str(&format!(
                    "| {} | {} | {} | {:+} |\n",
                    c.name,
                    opt(c.base),
                    opt(c.cand),
                    c.delta()
                ));
            }
        }
        if !self.convergence.is_empty() {
            out.push_str(
                "\n| engine | iterations | CG iterations | final μ |\n|---|---|---|---|\n",
            );
            for c in &self.convergence {
                out.push_str(&format!(
                    "| {} | {} → {} | {} → {} | {:.3e} → {:.3e} |\n",
                    c.engine,
                    c.base_iterations,
                    c.cand_iterations,
                    c.base_cg,
                    c.cand_cg,
                    c.base_final_mu,
                    c.cand_final_mu,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::IpmIterRow;

    fn span(name: &str, work: u64, depth: u64, children: Vec<SpanReport>) -> SpanReport {
        SpanReport {
            name: name.to_string(),
            work,
            depth,
            wall: std::time::Duration::from_nanos(work * 10),
            count: 1,
            children,
        }
    }

    fn report(name: &str, spans: Vec<SpanReport>) -> RunReport {
        let mut r = RunReport::new(name);
        r.work = spans.iter().map(|s| s.work).sum();
        r.depth = spans.iter().map(|s| s.depth).sum();
        r.spans = spans;
        r
    }

    #[test]
    fn identical_reports_have_zero_deltas() {
        let a = report(
            "a",
            vec![span(
                "ipm/loop",
                100,
                20,
                vec![span("ipm/newton", 60, 10, vec![])],
            )],
        );
        let d = diff_reports(&a, &a);
        assert!(d.charged_costs_identical());
        assert!(d.charged_cost_violations().is_empty());
        assert!(d.ranked(10).is_empty());
        assert_eq!(d.spans.len(), 2);
        assert!(d.spans.iter().all(|s| s.status == DiffStatus::Kept));
    }

    #[test]
    fn inflated_leaf_ranks_first_not_its_ancestor() {
        // Inflating a leaf's charged work inflates every ancestor's
        // *inclusive* work by the same amount; self-work ranking must
        // name the leaf.
        let base = report(
            "base",
            vec![span(
                "ipm/loop",
                1000,
                50,
                vec![span(
                    "ipm/newton",
                    600,
                    30,
                    vec![span("solve", 500, 20, vec![])],
                )],
            )],
        );
        let cand = report(
            "cand",
            vec![span(
                "ipm/loop",
                1400,
                50,
                vec![span(
                    "ipm/newton",
                    1000,
                    30,
                    vec![span("solve", 900, 20, vec![])],
                )],
            )],
        );
        let d = diff_reports(&base, &cand);
        assert!(!d.charged_costs_identical());
        let ranked = d.ranked(3);
        assert_eq!(
            ranked[0].path,
            format!("ipm/loop{PATH_SEP}ipm/newton{PATH_SEP}solve")
        );
        assert_eq!(ranked[0].d_self_work(), 400);
        // ancestors regressed inclusively but not exclusively
        assert!(ranked.iter().skip(1).all(|s| s.d_self_work() == 0));
        let md = d.to_markdown(3);
        assert!(md.contains("| 1 | ipm/loop > ipm/newton > solve |"), "{md}");
    }

    #[test]
    fn added_and_removed_spans_are_flagged() {
        let base = report(
            "base",
            vec![span("a", 10, 1, vec![]), span("b", 5, 1, vec![])],
        );
        let cand = report(
            "cand",
            vec![span("a", 10, 1, vec![]), span("c", 7, 2, vec![])],
        );
        let d = diff_reports(&base, &cand);
        assert!(!d.charged_costs_identical());
        let by_path = |p: &str| d.spans.iter().find(|s| s.path == p).unwrap();
        assert_eq!(by_path("a").status, DiffStatus::Kept);
        assert_eq!(by_path("b").status, DiffStatus::Removed);
        assert_eq!(by_path("c").status, DiffStatus::Added);
        assert_eq!(by_path("b").d_work(), -5);
        assert_eq!(by_path("c").d_work(), 7);
        // every span from either run appears exactly once
        assert_eq!(d.spans.len(), 3);
    }

    #[test]
    fn counters_and_convergence_diff() {
        let mut base = report("base", vec![]);
        base.counters.insert("sched.alloc.fresh".into(), 10);
        base.counters
            .insert("solver.cg_iterations_total".into(), 100);
        base.convergence.push(IpmIterRow {
            engine: "robust".into(),
            iteration: 1,
            mu: 8.0,
            gap: 16.0,
            step: Some(0.5),
            cg_iters: 100,
            wall_ns: 5,
            work: 0,
            depth: 0,
        });
        let mut cand = report("cand", vec![]);
        cand.counters.insert("sched.alloc.fresh".into(), 2);
        cand.counters.insert("sched.alloc.reuse".into(), 8);
        cand.convergence.push(IpmIterRow {
            engine: "robust".into(),
            iteration: 1,
            mu: 8.0,
            gap: 16.0,
            step: Some(0.5),
            cg_iters: 60,
            wall_ns: 4,
            work: 0,
            depth: 0,
        });
        cand.convergence.push(IpmIterRow {
            engine: "robust".into(),
            iteration: 2,
            mu: 4.0,
            gap: 8.0,
            step: Some(0.5),
            cg_iters: 50,
            wall_ns: 4,
            work: 0,
            depth: 0,
        });
        let d = diff_reports(&base, &cand);
        // only the solver counter counts the computation itself
        assert_eq!(
            d.charged_cost_violations(),
            vec!["counter solver.cg_iterations_total (Δ -100)".to_string()]
        );
        cand.counters
            .insert("solver.cg_iterations_total".into(), 100);
        assert!(diff_reports(&base, &cand).charged_costs_identical());
        let fresh = d
            .counters
            .iter()
            .find(|c| c.name == "sched.alloc.fresh")
            .unwrap();
        assert_eq!(fresh.delta(), -8);
        let reuse = d
            .counters
            .iter()
            .find(|c| c.name == "sched.alloc.reuse")
            .unwrap();
        assert_eq!((reuse.base, reuse.cand), (None, Some(8)));
        let gone = d
            .counters
            .iter()
            .find(|c| c.name == "solver.cg_iterations_total")
            .unwrap();
        assert_eq!((gone.base, gone.cand), (Some(100), None));
        let conv = &d.convergence[0];
        assert_eq!(conv.engine, "robust");
        assert_eq!((conv.base_iterations, conv.cand_iterations), (1, 2));
        assert_eq!((conv.base_cg, conv.cand_cg), (100, 110));
        assert_eq!(conv.cand_final_mu, 4.0);
    }

    #[test]
    fn json_round_trips_exactly() {
        let base = report(
            "base",
            vec![span(
                "ipm/loop",
                100,
                20,
                vec![span("ipm/newton", 60, 10, vec![])],
            )],
        );
        let mut cand = report(
            "cand",
            vec![span(
                "ipm/loop",
                140,
                20,
                vec![span("extra", 10, 5, vec![])],
            )],
        );
        cand.counters.insert("k".into(), 3);
        let d = diff_reports(&base, &cand);
        let json = d.to_json();
        let text = json.to_string();
        assert!(text.starts_with("{\"schema\":\"pmcf.reportdiff/v1\""));
        assert_eq!(crate::json::parse(&text).unwrap(), json);
        let spans = json.get("spans").unwrap().as_arr().unwrap();
        let extra = spans
            .iter()
            .find(|s| s.get("path").and_then(JsonValue::as_str) == Some("ipm/loop > extra"))
            .unwrap();
        assert_eq!(extra.field("status", JsonValue::as_str), Ok("added"));
        assert_eq!(extra.get("base"), Some(&JsonValue::Null));
        let k = &json.get("counters").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            (k.get("base"), k.get("cand")),
            (Some(&JsonValue::Null), Some(&JsonValue::Int(3)))
        );
    }
}
