//! A mutable accumulator for threading PRAM costs through an algorithm.
//!
//! Algorithms in this workspace take `&mut Tracker` and charge costs as
//! they go. Sequential program order maps to [`Tracker::charge`]
//! (sequential composition); parallel sections are expressed with
//! [`Tracker::join`] / [`Tracker::parallel`], which compose the branch
//! costs with `par` before charging them.

use crate::annotation;
use crate::critpath::{CritPathReport, DepthLedger};
use crate::profile::{ProfileReport, Profiler, SpanStart};
use crate::Cost;

/// Accumulates the work/depth of an algorithm run.
///
/// ```
/// use pmcf_pram::{Cost, Tracker};
/// let mut t = Tracker::new();
/// t.charge(Cost::par_flat(1024));              // one parallel pass
/// t.join(|t| t.charge(Cost::new(10, 5)),       // two parallel branches
///        |t| t.charge(Cost::new(20, 9)));
/// assert_eq!(t.work(), 1024 + 30);
/// assert_eq!(t.depth(), 12 + 9); // (1 + log2(1024) + 1) then max(5, 9)
/// ```
///
/// With a profiler attached (see [`Tracker::profiled`]), named scopes
/// opened with [`Tracker::span`] additionally build a phase tree with
/// per-phase work/depth/wall-time, and [`Tracker::counter`] /
/// [`Tracker::observe`] feed a metrics registry:
///
/// ```
/// use pmcf_pram::{Cost, Tracker};
/// let mut t = Tracker::profiled();
/// t.span("solve", |t| {
///     t.counter("solve.calls", 1);
///     t.charge(Cost::par_flat(64));
/// });
/// let report = t.profile_report().unwrap();
/// assert_eq!(report.span("solve").unwrap().work, 64);
/// assert_eq!(report.counters["solve.calls"], 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Tracker {
    total: Cost,
    /// When true the tracker ignores charges (zero-overhead "off" mode for
    /// wall-clock benchmarking of the same code paths).
    disabled: bool,
    /// Attached span/metrics profiler; `None` (the default) makes every
    /// span and metric call a free pass-through.
    profiler: Option<Profiler>,
    /// Attached critical-path depth ledger (see [`crate::critpath`]);
    /// `None` (the default) costs nothing.
    ledger: Option<Box<DepthLedger>>,
}

impl Tracker {
    /// A fresh tracker with zero accumulated cost.
    pub fn new() -> Self {
        Tracker::default()
    }

    /// A tracker that ignores all charges.
    pub fn disabled() -> Self {
        Tracker {
            total: Cost::ZERO,
            disabled: true,
            profiler: None,
            ledger: None,
        }
    }

    /// A fresh tracker with a span/metrics profiler attached.
    pub fn profiled() -> Self {
        Tracker {
            total: Cost::ZERO,
            disabled: false,
            profiler: Some(Profiler::default()),
            ledger: None,
        }
    }

    /// Attach a critical-path depth ledger (see [`crate::critpath`]):
    /// every subsequent charge attributes its depth to the open span
    /// path, and every join records which branch won the depth max.
    /// Composable with [`Tracker::profiled`].
    pub fn with_critpath(mut self) -> Self {
        self.ledger = Some(Box::default());
        self
    }

    /// Whether a profiler is attached (spans and metrics are recorded).
    pub fn is_profiled(&self) -> bool {
        self.profiler.is_some()
    }

    /// Whether a critical-path depth ledger is attached.
    pub fn is_critpath(&self) -> bool {
        self.ledger.is_some()
    }

    /// Snapshot the critical-path attribution (the per-span-path depth
    /// ledger against the current total depth). `None` without a ledger.
    pub fn critpath_report(&self) -> Option<CritPathReport> {
        self.ledger.as_ref().map(|l| l.report(self.total.depth))
    }

    /// Run `f` inside a named span. With a profiler attached, the span
    /// accumulates the tracker's work/depth delta across the scope, the
    /// wall time, and an invocation count into the phase tree (nested
    /// calls build nested tree nodes). Without one, and outside a trace
    /// session, this is exactly `f(self)` — no allocation, no
    /// bookkeeping. During a trace session every span also records its
    /// wall-clock slice ([`crate::annotation`]), profiled or not.
    ///
    /// Spans never charge costs themselves, so profiled and unprofiled
    /// runs of the same code report identical totals.
    ///
    /// Built on [`Tracker::span_guard`], so the span closes even if `f`
    /// panics — a dump-on-panic flight recording sees a consistent span
    /// tree.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracker) -> T) -> T {
        let mut guard = self.span_guard(name);
        f(&mut guard)
    }

    /// Open a named span and return an RAII guard that closes it on drop
    /// (including during unwinding). The guard derefs to the tracker, so
    /// charges inside the span go through the guard:
    ///
    /// ```
    /// use pmcf_pram::{Cost, Tracker};
    /// let mut t = Tracker::profiled();
    /// {
    ///     let mut span = t.span_guard("phase");
    ///     span.charge(Cost::par_flat(32));
    /// } // span closes here
    /// assert_eq!(t.profile_report().unwrap().span("phase").unwrap().work, 32);
    /// ```
    ///
    /// Prefer [`Tracker::span`] for straight-line scopes; the guard form
    /// exists for spans whose lifetime doesn't nest as a closure (e.g.
    /// across loop iterations) and for panic safety.
    pub fn span_guard(&mut self, name: &str) -> SpanGuard<'_> {
        let profiler = self.profiler.clone();
        let start = if let Some(p) = &profiler {
            p.enter(name);
            Some(SpanStart {
                cost_before: self.total,
                wall_start: std::time::Instant::now(),
            })
        } else {
            None
        };
        let ledger_open = if let Some(l) = &mut self.ledger {
            l.push(name);
            true
        } else {
            false
        };
        let slice =
            annotation::annotating().then(|| (name.to_string(), rayon::telemetry::now_ns()));
        SpanGuard {
            tracker: self,
            profiler,
            start,
            ledger_open,
            slice,
        }
    }

    /// Add `delta` to the named monotone counter (no-op without a
    /// profiler).
    #[inline]
    pub fn counter(&mut self, name: &str, delta: u64) {
        if let Some(p) = &self.profiler {
            p.counter(name, delta);
        }
    }

    /// Record one observation in the named histogram (no-op without a
    /// profiler).
    #[inline]
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(p) = &self.profiler {
            p.observe(name, value);
        }
    }

    /// Snapshot the profile: the span tree (rooted at this tracker's
    /// current totals) plus all metrics. `None` without a profiler.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(|p| p.report(self.total))
    }

    /// Whether this tracker is accounting (false if built via [`Tracker::disabled`]).
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Total cost accumulated so far.
    pub fn total(&self) -> Cost {
        self.total
    }

    /// Accumulated work.
    pub fn work(&self) -> u64 {
        self.total.work
    }

    /// Accumulated depth.
    pub fn depth(&self) -> u64 {
        self.total.depth
    }

    /// Reset to zero (keeps the enabled/disabled flag and any attached
    /// ledger, whose attribution is cleared alongside the totals).
    pub fn reset(&mut self) {
        self.total = Cost::ZERO;
        if let Some(l) = &mut self.ledger {
            l.clear();
        }
    }

    /// Charge a cost in sequence with everything charged so far.
    #[inline]
    pub fn charge(&mut self, c: Cost) {
        if !self.disabled {
            self.total += c;
            if let Some(l) = &mut self.ledger {
                l.charge(c.depth);
            }
        }
    }

    /// Charge a flat parallel loop over `n` constant-work items.
    #[inline]
    pub fn charge_par_flat(&mut self, n: u64) {
        self.charge(Cost::par_flat(n));
    }

    /// Charge a flat parallel loop over `n` items of `per_item` cost each.
    #[inline]
    pub fn charge_par_for(&mut self, n: u64, per_item: Cost) {
        self.charge(Cost::par_for(n, per_item));
    }

    /// Run two closures as parallel branches; their charges compose with
    /// `par` (work adds, depth maxes) before being charged here.
    ///
    /// The closures run sequentially on this thread — the *cost model* is
    /// parallel. Use [`Tracker::par_join`] when the branches are heavy
    /// enough to be worth shipping to the thread pool.
    pub fn join<A, B>(
        &mut self,
        f: impl FnOnce(&mut Tracker) -> A,
        g: impl FnOnce(&mut Tracker) -> B,
    ) -> (A, B) {
        let mut ta = self.fork();
        let mut tb = self.fork();
        let a = f(&mut ta);
        let b = g(&mut tb);
        self.merge_pair(ta, tb, false);
        (a, b)
    }

    /// Like [`Tracker::join`], but the branches really run concurrently
    /// (rayon fork-join) when the pool has more than one thread.
    ///
    /// Each branch gets a detached tracker: costs accumulate locally and
    /// are `par`-composed on join exactly as in `join`, and with a
    /// profiler attached each branch records into a private span
    /// tree/metrics registry that is merged back (in branch order, so the
    /// result is identical to sequential execution) under the span open
    /// at the fork. Charged work/depth is therefore independent of the
    /// execution mode — only wall-clock changes.
    pub fn par_join<A, B>(
        &mut self,
        f: impl FnOnce(&mut Tracker) -> A + Send,
        g: impl FnOnce(&mut Tracker) -> B + Send,
    ) -> (A, B)
    where
        A: Send,
        B: Send,
    {
        if rayon::current_num_threads() <= 1 {
            return self.join(f, g);
        }
        let mut ta = self.fork_detached();
        let mut tb = self.fork_detached();
        let (a, b) = rayon::join(|| f(&mut ta), || g(&mut tb));
        self.merge_pair(ta, tb, true);
        (a, b)
    }

    /// Run `k` closures as parallel branches over indices `0..k`.
    ///
    /// Branches execute on the thread pool when it has more than one
    /// thread and `k ≥ 2` (the sequential path is kept for small `k` and
    /// single-threaded pools); charged costs and profiler output are
    /// identical either way — see [`Tracker::parallel_in`].
    pub fn parallel<T: Send>(
        &mut self,
        k: usize,
        f: impl Fn(usize, &mut Tracker) -> T + Sync + Send,
    ) -> Vec<T> {
        let mode = if k >= 2 && rayon::current_num_threads() > 1 {
            ParMode::Forked
        } else {
            ParMode::Sequential
        };
        self.parallel_in(mode, k, f)
    }

    /// [`Tracker::parallel`] with the execution mode pinned.
    ///
    /// `Sequential` runs the branches in a loop on this thread against
    /// same-thread forks (shared profiler); `Forked` gives each branch a
    /// detached tracker, executes them via the pool (which may itself be
    /// single-threaded), and merges trackers back in branch order. Both
    /// modes charge identical work/depth and produce identical span
    /// trees, counters and histograms — proptests in this crate pin that
    /// equivalence, and determinism tests use `Forked` explicitly so the
    /// merge path is exercised even on single-core machines.
    pub fn parallel_in<T: Send>(
        &mut self,
        mode: ParMode,
        k: usize,
        f: impl Fn(usize, &mut Tracker) -> T + Sync + Send,
    ) -> Vec<T> {
        match mode {
            ParMode::Sequential => {
                let mut outs = Vec::with_capacity(k);
                let mut branches = Vec::with_capacity(k);
                for i in 0..k {
                    let mut t = self.fork();
                    outs.push(f(i, &mut t));
                    branches.push(t);
                }
                self.merge_branches(branches, false);
                outs
            }
            ParMode::Forked => {
                let mut branches: Vec<Tracker> = (0..k).map(|_| self.fork_detached()).collect();
                let outs: Vec<T> = {
                    use rayon::prelude::*;
                    branches
                        .par_iter_mut()
                        .enumerate()
                        .with_min_len(1)
                        .map(|(i, bt)| f(i, bt))
                        .collect()
                };
                self.merge_branches(branches, true);
                outs
            }
        }
    }

    /// Run a closure in a sub-scope and return its cost alongside its value
    /// without charging it here (caller decides how to compose).
    pub fn scoped<T>(&mut self, f: impl FnOnce(&mut Tracker) -> T) -> (T, Cost) {
        let mut t = self.fork();
        let v = f(&mut t);
        (v, t.total)
    }

    fn fork(&self) -> Tracker {
        Tracker {
            total: Cost::ZERO,
            disabled: self.disabled,
            // Branches share the profiler, so spans opened inside a
            // branch nest under the span that was open at the fork.
            profiler: self.profiler.clone(),
            // The ledger is never shared: each branch attributes depth
            // to paths relative to the fork, and only the winner's
            // entries survive the merge.
            ledger: self.ledger.as_ref().map(|_| Box::default()),
        }
    }

    /// A branch tracker for real fork-join: private cost total and (when
    /// profiled) a private profiler, merged back via
    /// [`Tracker::merge_branches`]. Detaching keeps branch span stacks
    /// independent across threads — a shared open-span stack would
    /// interleave nondeterministically.
    fn fork_detached(&self) -> Tracker {
        Tracker {
            total: Cost::ZERO,
            disabled: self.disabled,
            profiler: self.profiler.as_ref().map(|_| Profiler::default()),
            ledger: self.ledger.as_ref().map(|_| Box::default()),
        }
    }

    /// Two-branch join point with the exact cost/profiler/ledger
    /// semantics of [`Tracker::merge_branches`], but no intermediate
    /// `Vec` — [`Tracker::join`]/[`Tracker::par_join`] sit on the
    /// per-step hot path of the IPM loops, where the steady state is
    /// required to be allocation-free (the `robust_step` alloc gate).
    fn merge_pair(&mut self, mut ta: Tracker, mut tb: Tracker, detached: bool) {
        if detached {
            if let Some(p) = &self.profiler {
                for b in [&ta, &tb] {
                    if let Some(bp) = &b.profiler {
                        p.absorb_branch(bp);
                    }
                }
            }
        }
        if self.disabled {
            return;
        }
        if let Some(ledger) = &mut self.ledger {
            // First branch attaining the depth max wins, matching
            // `merge_branches`' branch-order tie break.
            let winner = if tb.total.depth > ta.total.depth {
                &mut tb
            } else {
                &mut ta
            };
            if let Some(wl) = winner.ledger.take() {
                ledger.absorb_winner(*wl);
            }
        }
        self.total += Cost::par(ta.total, tb.total);
    }

    /// Join point: par-compose and charge the branch costs; when
    /// `detached`, graft each branch's profiler output (spans under the
    /// currently open span, metrics into the registry) in branch order
    /// (same-thread forks already share the profiler). With a ledger
    /// attached, record which branch won the depth max: the winner's
    /// attribution is grafted under the open span path, losing branches'
    /// attributions are dropped — exactly mirroring how only the max
    /// branch depth reaches this tracker's total.
    fn merge_branches(&mut self, mut branches: Vec<Tracker>, detached: bool) {
        if detached {
            if let Some(p) = &self.profiler {
                for b in &branches {
                    if let Some(bp) = &b.profiler {
                        p.absorb_branch(bp);
                    }
                }
            }
        }
        if self.disabled {
            return;
        }
        if let Some(ledger) = &mut self.ledger {
            let max = branches.iter().map(|b| b.total.depth).max().unwrap_or(0);
            // First branch attaining the max: deterministic in branch
            // order, so Sequential and Forked execution agree.
            if let Some(w) = branches.iter().position(|b| b.total.depth == max) {
                if let Some(wl) = branches[w].ledger.take() {
                    ledger.absorb_winner(*wl);
                }
            }
        }
        let combined = branches.iter().map(|b| b.total).fold(Cost::ZERO, Cost::par);
        // Fork/join overhead of spawning the branches is already reflected
        // in each branch's own accounting; charge the combined cost
        // sequentially after whatever preceded it.
        self.total += combined;
    }
}

/// Execution mode for [`Tracker::parallel_in`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParMode {
    /// Branches run in a loop on the calling thread (shared profiler).
    Sequential,
    /// Branches run through the thread pool with detached trackers that
    /// are merged back in branch order.
    Forked,
}

/// RAII guard for an open span (see [`Tracker::span_guard`]).
///
/// Dereferences to the underlying [`Tracker`], and closes the span when
/// dropped — by normal scope exit, early `return`, or unwinding — so the
/// profiler's span stack stays balanced no matter how the scope ends.
/// Closing also records the span's trace-session slice, if any.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracker: &'a mut Tracker,
    profiler: Option<Profiler>,
    start: Option<SpanStart>,
    /// Whether this guard pushed a segment onto the tracker's depth
    /// ledger path (popped again on drop).
    ledger_open: bool,
    /// Name and start time of the trace-session slice, when a session
    /// was open at entry (see [`crate::annotation`]).
    slice: Option<(String, u64)>,
}

impl SpanGuard<'_> {
    /// Close the span now (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl std::ops::Deref for SpanGuard<'_> {
    type Target = Tracker;
    fn deref(&self) -> &Tracker {
        self.tracker
    }
}

impl std::ops::DerefMut for SpanGuard<'_> {
    fn deref_mut(&mut self) -> &mut Tracker {
        self.tracker
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((name, start_ns)) = self.slice.take() {
            annotation::record(name, start_ns);
        }
        if self.ledger_open {
            if let Some(l) = &mut self.tracker.ledger {
                l.pop();
            }
        }
        if let (Some(p), Some(start)) = (self.profiler.take(), self.start.take()) {
            // saturating: a panic can interleave guard teardown with
            // tracker resets, and drop must never panic itself
            let delta = Cost::new(
                self.tracker
                    .total
                    .work
                    .saturating_sub(start.cost_before.work),
                self.tracker
                    .total
                    .depth
                    .saturating_sub(start.cost_before.depth),
            );
            p.exit(delta, start.wall_start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_charges_accumulate() {
        let mut t = Tracker::new();
        t.charge(Cost::new(3, 3));
        t.charge(Cost::new(4, 2));
        assert_eq!(t.total(), Cost::new(7, 5));
    }

    #[test]
    fn join_takes_max_depth() {
        let mut t = Tracker::new();
        t.join(
            |t| t.charge(Cost::new(10, 2)),
            |t| t.charge(Cost::new(5, 9)),
        );
        assert_eq!(t.total(), Cost::new(15, 9));
    }

    #[test]
    fn parallel_branches_compose() {
        let mut t = Tracker::new();
        let outs = t.parallel(4, |i, t| {
            t.charge(Cost::new(1, (i + 1) as u64));
            i * 2
        });
        assert_eq!(outs, vec![0, 2, 4, 6]);
        assert_eq!(t.total(), Cost::new(4, 4));
    }

    #[test]
    fn nested_join_depth() {
        let mut t = Tracker::new();
        t.join(
            |t| {
                t.join(|t| t.charge(Cost::new(1, 4)), |t| t.charge(Cost::new(1, 5)));
            },
            |t| t.charge(Cost::new(1, 2)),
        );
        assert_eq!(t.total(), Cost::new(3, 5));
    }

    #[test]
    fn disabled_tracker_ignores_everything() {
        let mut t = Tracker::disabled();
        t.charge(Cost::new(100, 100));
        t.join(|t| t.charge(Cost::new(1, 1)), |t| t.charge(Cost::new(1, 1)));
        assert_eq!(t.total(), Cost::ZERO);
        assert!(!t.is_enabled());
    }

    #[test]
    fn scoped_does_not_charge() {
        let mut t = Tracker::new();
        let ((), c) = t.scoped(|t| t.charge(Cost::new(7, 7)));
        assert_eq!(c, Cost::new(7, 7));
        assert_eq!(t.total(), Cost::ZERO);
        t.charge(c);
        assert_eq!(t.total(), Cost::new(7, 7));
    }

    #[test]
    fn span_guard_matches_closure_span() {
        let mut a = Tracker::profiled();
        a.span("phase", |t| t.charge(Cost::new(10, 3)));
        let mut b = Tracker::profiled();
        {
            let mut g = b.span_guard("phase");
            g.charge(Cost::new(10, 3));
        }
        let (ra, rb) = (a.profile_report().unwrap(), b.profile_report().unwrap());
        assert_eq!(
            ra.span("phase").unwrap().work,
            rb.span("phase").unwrap().work
        );
        assert_eq!(
            ra.span("phase").unwrap().count,
            rb.span("phase").unwrap().count
        );
    }

    #[test]
    fn span_guard_survives_early_return_and_end() {
        fn body(t: &mut Tracker, bail: bool) -> u64 {
            let mut g = t.span_guard("inner");
            g.charge(Cost::new(1, 1));
            if bail {
                return 1; // guard drops here
            }
            g.end();
            2
        }
        let mut t = Tracker::profiled();
        assert_eq!(body(&mut t, true), 1);
        assert_eq!(body(&mut t, false), 2);
        let report = t.profile_report().unwrap();
        assert_eq!(report.span("inner").unwrap().count, 2);
        assert_eq!(report.span("inner").unwrap().work, 2);
    }

    #[test]
    fn span_closes_on_panic() {
        let mut t = Tracker::profiled();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("outer", |t| {
                t.charge(Cost::new(5, 5));
                t.span("boom", |_t| panic!("mid-span failure"));
            })
        }));
        assert!(result.is_err());
        // both spans closed during unwinding: the stack is balanced, so a
        // fresh span lands at the top level, not under "outer"
        t.span("after", |t| t.charge(Cost::new(2, 2)));
        let report = t.profile_report().unwrap();
        assert_eq!(report.span("outer").unwrap().count, 1);
        assert_eq!(report.span("outer/boom").unwrap().count, 1);
        assert_eq!(report.span("after").unwrap().count, 1);
        assert!(report.span("outer/after").is_none());
    }

    #[test]
    fn unprofiled_span_guard_is_free_passthrough() {
        let mut t = Tracker::new();
        let mut g = t.span_guard("anything");
        g.charge(Cost::new(3, 3));
        drop(g);
        assert_eq!(t.total(), Cost::new(3, 3));
        assert!(t.profile_report().is_none());
    }

    #[test]
    fn reset_clears_totals() {
        let mut t = Tracker::new();
        t.charge(Cost::new(5, 5));
        t.reset();
        assert_eq!(t.total(), Cost::ZERO);
        assert!(t.is_enabled());
    }
}
