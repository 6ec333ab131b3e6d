//! Hierarchical span profiler and metrics registry.
//!
//! The flat [`Tracker`](crate::Tracker) answers "how much work/depth did
//! the whole run cost?"; the paper, however, bounds *phases* — IPM
//! iterations, expander rebuild/prune/trim, unit-flow pushes, Laplacian
//! solves, heavy-hitter queries — and a production solver needs that same
//! per-phase attribution to find regressions. This module adds:
//!
//! * **Spans** — nestable named scopes opened with
//!   [`Tracker::span`](crate::Tracker::span). Each node of the resulting
//!   phase tree accumulates `(work, depth, wall-time, invocations)`,
//!   where work/depth are the deltas of the owning tracker across the
//!   scope. Because spans never *charge* anything themselves, a profiled
//!   run reports exactly the same global totals as an unprofiled one,
//!   and the work of a node's children can never exceed the node's own
//!   (child scopes are subsets of the parent scope).
//! * **Metrics** — a registry of named monotone counters
//!   ([`Tracker::counter`](crate::Tracker::counter)) and power-of-two
//!   bucket histograms ([`Tracker::observe`](crate::Tracker::observe)).
//! * **Reports** — [`ProfileReport`], a snapshot renderable as an
//!   indented flamegraph-style markdown table (`pmcf-obs` renders it as
//!   `pmcf.profile/v1` JSON for the bench artifact pipeline).
//!
//! Profiling is strictly opt-in: a tracker built with
//! [`Tracker::new`](crate::Tracker::new) or
//! [`Tracker::disabled`](crate::Tracker::disabled) carries no profiler,
//! and every span/metric call on it is a direct pass-through with no
//! allocation — wall-clock benches pay nothing. Opt in with
//! [`Tracker::profiled`](crate::Tracker::profiled); the bench bins get
//! profiled trackers from `pmcf_obs::tracker()` while a `PMCF_REPORT`
//! session is open.
//!
//! Span nesting is tracked through the tracker's fork/join plumbing, so
//! spans opened inside [`Tracker::join`](crate::Tracker::join) /
//! [`Tracker::parallel`](crate::Tracker::parallel) branches attach under
//! the span that was open when the branch forked. Within one parent the
//! depth deltas of sequential children add, while parallel siblings both
//! record their own branch-local depth (work always just adds — the
//! model's invariant `Σ child work ≤ parent work` holds either way).

use crate::Cost;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One node of the span tree (interior accumulator).
#[derive(Clone, Debug, Default)]
struct Node {
    name: String,
    cost: Cost,
    wall: Duration,
    count: u64,
    children: Vec<Node>,
}

impl Node {
    fn child_index(&mut self, name: &str) -> usize {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return i;
        }
        self.children.push(Node {
            name: name.to_string(),
            ..Node::default()
        });
        self.children.len() - 1
    }
}

/// Power-of-two bucket histogram over non-negative `u64` observations.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `buckets[i]` counts observations in `[2^(i-1), 2^i)` (`buckets[0]`
    /// counts zeros and ones).
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Fold another histogram into this one (used when merging branch
    /// profilers back into their parent at a fork-join boundary).
    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
        } else {
            self.min = self.min.min(other.min);
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += ob;
        }
    }

    fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
        } else {
            self.min = self.min.min(v);
        }
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let bucket = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The shared mutable profiler state: the span tree under construction,
/// the open-span stack, and the metrics registry.
#[derive(Debug, Default)]
pub(crate) struct ProfilerState {
    root: Node,
    /// Index path from the root to the currently open span.
    stack: Vec<usize>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl ProfilerState {
    fn node_at(&mut self, path: &[usize]) -> &mut Node {
        let mut node = &mut self.root;
        for &i in path {
            node = &mut node.children[i];
        }
        node
    }

    fn enter(&mut self, name: &str) {
        let path = self.stack.clone();
        let idx = self.node_at(&path).child_index(name);
        self.stack.push(idx);
    }

    fn exit(&mut self, delta: Cost, wall: Duration) {
        // Tolerate an empty stack: a panic mid-span can tear guards down
        // out of order, and a second panic here would abort the process
        // before the flight recorder's panic hook can dump.
        if self.stack.is_empty() {
            return;
        }
        let path = self.stack.clone();
        let node = self.node_at(&path);
        node.cost = node.cost.seq(delta);
        node.wall += wall;
        node.count += 1;
        self.stack.pop();
    }

    fn counter(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Merge `src`'s children into `dst` by name, recursively: costs
    /// compose sequentially (work and depth both add — the *parallel*
    /// composition across sibling branches happens in the tracker's cost
    /// totals, not the span tree), wall and counts add.
    fn merge_children(dst: &mut Node, src_children: Vec<Node>) {
        for c in src_children {
            let idx = dst.child_index(&c.name);
            let d = &mut dst.children[idx];
            d.cost = d.cost.seq(c.cost);
            d.wall += c.wall;
            d.count += c.count;
            Self::merge_children(d, c.children);
        }
    }

    /// Absorb a detached branch profiler's state: its span tree is grafted
    /// under this profiler's currently open span (the span that was open
    /// when the branch forked), and its metrics fold into the registry.
    /// Branches are absorbed in branch order, so the resulting tree is
    /// identical to what sequential branch execution on a shared profiler
    /// would have produced — this is what makes profiled runs
    /// deterministic regardless of thread interleaving.
    fn absorb(&mut self, branch: ProfilerState) {
        let path = self.stack.clone();
        let node = self.node_at(&path);
        Self::merge_children(node, branch.root.children);
        for (k, v) in branch.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in branch.histograms {
            match self.histograms.get_mut(&k) {
                Some(dh) => dh.merge(&h),
                None => {
                    self.histograms.insert(k, h);
                }
            }
        }
    }
}

/// Shared handle to a profiler, cloned into forked trackers.
///
/// The state sits behind an `Arc<Mutex<_>>` so branch trackers running on
/// pool threads can record spans and metrics; same-thread forks share the
/// handle, while detached forks (real fork-join) get a fresh profiler
/// that is [`absorbed`](Profiler::absorb_branch) back on join.
#[derive(Clone, Debug, Default)]
pub(crate) struct Profiler {
    state: Arc<Mutex<ProfilerState>>,
}

impl Profiler {
    fn lock(&self) -> std::sync::MutexGuard<'_, ProfilerState> {
        // A panic while the lock is held poisons it; profiling must keep
        // working during unwinding (span guards close, the flight
        // recorder dumps), so shrug the poison off.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn enter(&self, name: &str) {
        self.lock().enter(name);
    }

    pub(crate) fn exit(&self, delta: Cost, wall: Duration) {
        self.lock().exit(delta, wall);
    }

    pub(crate) fn counter(&self, name: &str, delta: u64) {
        self.lock().counter(name, delta);
    }

    pub(crate) fn observe(&self, name: &str, value: u64) {
        self.lock().observe(name, value);
    }

    /// Merge a detached branch profiler into this one, grafting the
    /// branch's spans under the currently open span (see
    /// [`ProfilerState::absorb`]). Call in branch order for deterministic
    /// trees.
    pub(crate) fn absorb_branch(&self, branch: &Profiler) {
        let taken = std::mem::take(&mut *branch.lock());
        self.lock().absorb(taken);
    }

    pub(crate) fn report(&self, totals: Cost) -> ProfileReport {
        let st = self.lock();
        ProfileReport {
            work: totals.work,
            depth: totals.depth,
            spans: st.root.children.iter().map(SpanReport::from_node).collect(),
            counters: st.counters.clone(),
            histograms: st.histograms.clone(),
        }
    }
}

/// Guard data captured when a span opens (see [`crate::Tracker::span`]).
#[derive(Debug)]
pub(crate) struct SpanStart {
    pub(crate) cost_before: Cost,
    pub(crate) wall_start: Instant,
}

/// One rendered node of the phase tree.
///
/// Work/depth/wall are **inclusive** — a span's cost contains its
/// children's (child scopes are subsets of the parent scope); the
/// `self_*` methods give exclusive costs.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanReport {
    /// Span name as passed to `Tracker::span`.
    pub name: String,
    /// Work accumulated inside this span across all invocations.
    pub work: u64,
    /// Depth accumulated inside this span across all invocations
    /// (sequential-composition sum of the per-invocation depth deltas).
    pub depth: u64,
    /// Wall time spent inside this span across all invocations.
    pub wall: Duration,
    /// Number of times the span was entered.
    pub count: u64,
    /// Nested spans, in first-entered order.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    fn from_node(n: &Node) -> SpanReport {
        SpanReport {
            name: n.name.clone(),
            work: n.cost.work,
            depth: n.cost.depth,
            wall: n.wall,
            count: n.count,
            children: n.children.iter().map(SpanReport::from_node).collect(),
        }
    }

    /// Sum of the immediate children's work (≤ `self.work` by
    /// construction).
    pub fn child_work(&self) -> u64 {
        self.children.iter().map(|c| c.work).sum()
    }

    /// Wall time in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall.as_nanos() as u64
    }

    /// Work charged in this span but not in any child (exclusive cost).
    pub fn self_work(&self) -> u64 {
        self.work.saturating_sub(self.child_work())
    }

    /// Depth charged in this span but not in any child.
    pub fn self_depth(&self) -> u64 {
        self.depth
            .saturating_sub(self.children.iter().map(|c| c.depth).sum())
    }

    /// Wall nanoseconds spent in this span but not in any child.
    pub fn self_wall_ns(&self) -> u64 {
        self.wall_ns()
            .saturating_sub(self.children.iter().map(SpanReport::wall_ns).sum())
    }
}

/// A finished profile: global totals, the span tree, and all metrics.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Global tracker work at snapshot time (the tree root's work).
    pub work: u64,
    /// Global tracker depth at snapshot time (the tree root's depth).
    pub depth: u64,
    /// Top-level spans.
    pub spans: Vec<SpanReport>,
    /// Monotone counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, sorted by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl ProfileReport {
    /// Look up a span by `/`-separated path, e.g. `"ipm/solve"`.
    pub fn span(&self, path: &str) -> Option<&SpanReport> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut cur = self.spans.iter().find(|s| s.name == first)?;
        for p in parts {
            cur = cur.children.iter().find(|s| s.name == p)?;
        }
        Some(cur)
    }

    /// Indented flamegraph-style markdown rendering. `ns / self unit` is
    /// a span's self wall time over its self work: where it is far above
    /// its siblings', the span does machine work its charges miss.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("### Phase profile\n\n");
        out.push_str(
            "| phase | work | % of total | depth | wall | self wall | ns / self unit | calls |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        out.push_str(&format!(
            "| (total) | {} | 100.0% | {} | — | — | — | — |\n",
            self.work, self.depth,
        ));
        fn walk(out: &mut String, s: &SpanReport, indent: usize, total_work: u64) {
            let pct = if total_work > 0 {
                100.0 * s.work as f64 / total_work as f64
            } else {
                0.0
            };
            let per_unit = match s.self_work() {
                0 => "—".to_string(),
                w => format!("{:.1}", s.self_wall_ns() as f64 / w as f64),
            };
            out.push_str(&format!(
                "| {}{} | {} | {:.1}% | {} | {:.3}ms | {:.3}ms | {} | {} |\n",
                "&nbsp;&nbsp;".repeat(indent),
                s.name,
                s.work,
                pct,
                s.depth,
                s.wall.as_secs_f64() * 1e3,
                s.self_wall_ns() as f64 / 1e6,
                per_unit,
                s.count
            ));
            for c in &s.children {
                walk(out, c, indent + 1, total_work);
            }
        }
        for s in &self.spans {
            walk(&mut out, s, 1, self.work);
        }
        if !self.counters.is_empty() {
            out.push_str("\n### Counters\n\n| counter | value |\n|---|---|\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("| {k} | {v} |\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "\n### Histograms\n\n| histogram | count | mean | min | max |\n|---|---|---|---|---|\n",
            );
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "| {k} | {} | {:.2} | {} | {} |\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cost, Tracker};

    #[test]
    fn span_tree_accumulates_and_reconciles() {
        let mut t = Tracker::profiled();
        t.span("outer", |t| {
            t.charge(Cost::new(10, 10));
            t.span("inner", |t| t.charge(Cost::new(3, 3)));
            t.span("inner", |t| t.charge(Cost::new(4, 4)));
        });
        t.charge(Cost::new(100, 1));
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.work, t.work());
        assert_eq!(rep.depth, t.depth());
        let outer = rep.span("outer").unwrap();
        assert_eq!(outer.work, 17);
        assert_eq!(outer.count, 1);
        let inner = rep.span("outer/inner").unwrap();
        assert_eq!(inner.work, 7);
        assert_eq!(inner.count, 2);
        assert!(outer.child_work() <= outer.work);
    }

    #[test]
    fn spans_inside_parallel_branches_nest_under_parent() {
        let mut t = Tracker::profiled();
        t.span("phase", |t| {
            t.join(
                |t| t.span("left", |t| t.charge(Cost::new(5, 5))),
                |t| t.span("right", |t| t.charge(Cost::new(7, 2))),
            );
        });
        let rep = t.profile_report().unwrap();
        let phase = rep.span("phase").unwrap();
        assert_eq!(phase.work, 12);
        assert_eq!(phase.depth, 5); // par composition at the join
        assert_eq!(rep.span("phase/left").unwrap().work, 5);
        assert_eq!(rep.span("phase/right").unwrap().work, 7);
        assert!(phase.child_work() <= phase.work);
    }

    #[test]
    fn unprofiled_tracker_spans_are_pass_through() {
        let mut t = Tracker::new();
        let out = t.span("anything", |t| {
            t.charge(Cost::new(2, 2));
            42
        });
        assert_eq!(out, 42);
        assert_eq!(t.work(), 2);
        assert!(t.profile_report().is_none());
    }

    #[test]
    fn disabled_tracker_spans_are_free_and_silent() {
        let mut t = Tracker::disabled();
        t.span("x", |t| t.charge(Cost::new(9, 9)));
        t.counter("c", 3);
        t.observe("h", 5);
        assert_eq!(t.work(), 0);
        assert!(t.profile_report().is_none());
    }

    #[test]
    fn counters_and_histograms_register() {
        let mut t = Tracker::profiled();
        t.counter("ipm.iterations", 1);
        t.counter("ipm.iterations", 2);
        t.observe("solver.iters", 8);
        t.observe("solver.iters", 2);
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["ipm.iterations"], 3);
        let h = &rep.histograms["solver.iters"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 8);
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_flow_through_forked_branches() {
        let mut t = Tracker::profiled();
        t.parallel(3, |i, t| t.counter("branch.hits", i as u64 + 1));
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["branch.hits"], 6);
    }

    #[test]
    fn markdown_report_mentions_every_phase() {
        let mut t = Tracker::profiled();
        t.span("alpha", |t| t.span("beta", |t| t.charge(Cost::UNIT)));
        let md = t.profile_report().unwrap().to_markdown();
        assert!(md.contains("alpha"));
        assert!(md.contains("beta"));
        assert!(md.contains("(total)"));
        assert!(md.contains(
            "| phase | work | % of total | depth | wall | self wall | ns / self unit | calls |"
        ));
        // alpha charges nothing itself: no per-unit figure; beta does
        let row = |name: &str| {
            md.lines()
                .find(|l| l.contains(&format!(";{name} |")))
                .unwrap()
                .split('|')
                .map(str::trim)
                .collect::<Vec<_>>()
        };
        let (alpha, beta) = (row("alpha"), row("beta"));
        assert_eq!(alpha.len(), 10, "{alpha:?}");
        assert_eq!(alpha[7], "—");
        assert!(beta[7].parse::<f64>().is_ok(), "{beta:?}");
    }
}
