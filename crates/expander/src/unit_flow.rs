//! `ParallelUnitFlow` and `PushThenRelabel` (paper Algorithms 1–2).
//!
//! A bounded-height push-relabel routine on an undirected graph: given a
//! source demand `Δ`, per-vertex sink capacities `∇(v) = rate · deg(v)`,
//! uniform edge capacity `η`, and height `h`, it routes as much demand
//! into sinks as possible while raising unroutable excess to level `h+1`.
//! Lemma 3.10's postconditions (saturation across level gaps,
//! near-saturated sinks on positive levels, zero excess below `h`) are
//! the contract the trimming procedure builds on; they are asserted in
//! tests.
//!
//! Work is proportional to the *active* part of the instance (Claim 1 /
//! Lemma 3.11): sink budgets are granted lazily (a global per-degree rate
//! plus a per-vertex watermark) so only vertices holding excess and their
//! incident edges are ever touched — no `Θ(n)` passes. Pushes within one
//! level are logically parallel; we execute a level sweep sequentially
//! and charge the PRAM cost (`O(1)` depth per level per the paper's CRCW
//! push step) per DESIGN.md's simulation convention.

use pmcf_graph::UGraph;
use pmcf_pram::{Cost, Tracker};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Static description of a unit-flow instance over (a subgraph of) `g`.
pub struct UnitFlowProblem<'a> {
    /// The host graph.
    pub g: &'a UGraph,
    /// Vertex participation mask (the set `A` trimming works inside).
    pub alive: &'a [bool],
    /// Edge usability mask (deleted edges are sources, not conduits).
    pub edge_ok: &'a [bool],
    /// Uniform edge capacity `η` per direction.
    pub cap: f64,
    /// Height `h`; labels live in `0..=h+1`.
    pub height: usize,
}

/// Mutable flow state that persists across successive unit-flow calls
/// (the trimming loop reuses flow between rounds, §3.2/§3.3).
#[derive(Clone, Debug, Default)]
pub struct UnitFlowState {
    /// Signed flow per edge, positive in stored `(tail → head)` direction.
    pub flow: Vec<f64>,
    /// Level per vertex, in `0..=h+1`.
    pub label: Vec<usize>,
    /// Total absorbed at each vertex so far.
    pub absorbed: Vec<f64>,
    /// Realized (touched) sink budget per vertex.
    budget: Vec<f64>,
    /// Per-degree sink rate granted globally so far.
    granted: f64,
    /// Watermark of `granted` each vertex has realized.
    seen: Vec<f64>,
    /// Standing excess per vertex.
    pub excess: Vec<f64>,
    /// Vertices with (possibly) positive excess.
    active: Vec<usize>,
    /// Vertices whose label ever became nonzero (for cleanup/inspection).
    labeled: Vec<usize>,
    /// Total pushes performed (work diagnostic).
    pub pushes: u64,
}

impl UnitFlowState {
    /// Fresh state for an `n`-vertex, `m`-edge graph.
    pub fn new(n: usize, m: usize) -> Self {
        UnitFlowState {
            flow: vec![0.0; m],
            label: vec![0; n],
            absorbed: vec![0.0; n],
            budget: vec![0.0; n],
            granted: 0.0,
            seen: vec![0.0; n],
            excess: vec![0.0; n],
            active: Vec::new(),
            labeled: Vec::new(),
            pushes: 0,
        }
    }

    /// Reinitialize in place for an `n`-vertex, `m`-edge graph, keeping
    /// the existing heap capacity. Equivalent to [`UnitFlowState::new`]
    /// observationally; allocation-free when the previous instance was at
    /// least as large.
    pub fn reset(&mut self, n: usize, m: usize) {
        self.flow.clear();
        self.flow.resize(m, 0.0);
        self.label.clear();
        self.label.resize(n, 0);
        self.absorbed.clear();
        self.absorbed.resize(n, 0.0);
        self.budget.clear();
        self.budget.resize(n, 0.0);
        self.granted = 0.0;
        self.seen.clear();
        self.seen.resize(n, 0.0);
        self.excess.clear();
        self.excess.resize(n, 0.0);
        self.active.clear();
        self.labeled.clear();
        self.pushes = 0;
    }

    /// Check out a state for an `n`-vertex, `m`-edge graph from the
    /// process-wide pool, falling back to a fresh allocation when the
    /// pool is empty. The decremental decomposition rebuilds a
    /// [`crate::trimming::Trimmer`] (and therefore a state — six
    /// vertex/edge-sized vectors) on every expander split; checking the
    /// old state back in with [`UnitFlowState::give`] makes the rebuild
    /// allocation-free in steady state.
    pub fn take(n: usize, m: usize) -> UnitFlowState {
        let parked = POOL.lock().ok().and_then(|mut p| p.pop());
        match parked {
            Some(mut s) => {
                POOL_REUSE.fetch_add(1, Ordering::Relaxed);
                s.reset(n, m);
                s
            }
            None => {
                POOL_FRESH.fetch_add(1, Ordering::Relaxed);
                UnitFlowState::new(n, m)
            }
        }
    }

    /// Park a no-longer-needed state for reuse by a later
    /// [`UnitFlowState::take`]. The pool is bounded; overflow states are
    /// simply dropped.
    pub fn give(s: UnitFlowState) {
        if let Ok(mut p) = POOL.lock() {
            if p.len() < POOL_MAX {
                p.push(s);
            }
        }
    }

    /// Realize any pending lazily-granted sink budget at `v`.
    #[inline]
    fn touch(&mut self, g: &UGraph, v: usize) {
        let pending = self.granted - self.seen[v];
        if pending > 0.0 {
            self.budget[v] += pending * g.degree(v) as f64;
            self.seen[v] = self.granted;
        }
    }

    /// Remaining (realized + pending) sink budget at `v`.
    #[inline]
    pub fn remaining_budget(&self, g: &UGraph, v: usize) -> f64 {
        self.budget[v] + (self.granted - self.seen[v]) * g.degree(v) as f64
    }

    /// Signed flow leaving `v` along edge `e` (given stored tail).
    #[inline]
    fn out_flow(&self, e: usize, v: usize, tail: usize) -> f64 {
        if v == tail {
            self.flow[e]
        } else {
            -self.flow[e]
        }
    }

    /// Add `delta` to the flow out of `v` on edge `e`.
    #[inline]
    fn push_on(&mut self, e: usize, v: usize, tail: usize, delta: f64) {
        if v == tail {
            self.flow[e] += delta;
        } else {
            self.flow[e] -= delta;
        }
    }

    /// Absorb as much of `amount` at `v` as budget allows; returns leftover.
    #[inline]
    fn absorb(&mut self, g: &UGraph, v: usize, amount: f64) -> f64 {
        self.touch(g, v);
        let take = amount.min(self.budget[v]);
        self.budget[v] -= take;
        self.absorbed[v] += take;
        amount - take
    }

    /// Vertices whose label ever became positive.
    pub fn labeled_vertices(&self) -> &[usize] {
        &self.labeled
    }
}

/// Parked states awaiting reuse; bounded so pathological churn cannot
/// hoard memory.
static POOL: Mutex<Vec<UnitFlowState>> = Mutex::new(Vec::new());
const POOL_MAX: usize = 8;
static POOL_FRESH: AtomicU64 = AtomicU64::new(0);
static POOL_REUSE: AtomicU64 = AtomicU64::new(0);

/// Lifetime tallies of the [`UnitFlowState`] pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitFlowPoolStats {
    /// `take` calls served by a fresh allocation.
    pub fresh: u64,
    /// `take` calls served from the pool.
    pub reused: u64,
    /// States currently parked.
    pub parked: usize,
}

/// Snapshot the pool counters (process lifetime).
pub fn pool_stats() -> UnitFlowPoolStats {
    UnitFlowPoolStats {
        fresh: POOL_FRESH.load(Ordering::Relaxed),
        reused: POOL_REUSE.load(Ordering::Relaxed),
        parked: POOL.lock().map(|p| p.len()).unwrap_or(0),
    }
}

/// Result summary of a [`parallel_unit_flow`] invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitFlowOutcome {
    /// Excess remaining on vertices with label ≤ h.
    pub remaining_excess: f64,
    /// Total absorbed during this invocation.
    pub absorbed_now: f64,
    /// Outer rounds executed.
    pub rounds: usize,
    /// PushThenRelabel sweeps executed.
    pub sweeps: usize,
}

/// One `PushThenRelabel` sweep (Algorithm 2) over the state's active set.
/// Returns `(pushes, relabels)` performed.
fn push_then_relabel(
    t: &mut Tracker,
    p: &UnitFlowProblem<'_>,
    s: &mut UnitFlowState,
) -> (u64, u64) {
    use std::collections::BTreeMap;
    let h = p.height;
    let mut pushes = 0u64;
    // Bucket active vertices by level for the top-down sweep; only levels
    // that actually hold excess are visited. Pushes cascade: excess landing
    // on a lower level is processed later in the same sweep.
    s.active.retain(|&v| s.excess[v] > 1e-12);
    let mut by_level: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &v in &s.active {
        by_level.entry(s.label[v].min(h + 1)).or_default().push(v);
    }
    t.charge(Cost::par_flat(s.active.len() as u64));

    while let Some((&j, _)) = by_level.iter().next_back() {
        let level_verts = by_level.remove(&j).unwrap();
        if j == 0 || j > h {
            continue; // level 0 cannot push; h+1 is parked
        }
        // All pushes at level j are parallel in the model: depth O(1),
        // work = edges scanned.
        let mut scanned = 0u64;
        for v in level_verts {
            if s.label[v] != j || s.excess[v] <= 1e-12 {
                continue;
            }
            for &(w, e) in p.g.neighbors(v) {
                scanned += 1;
                if s.excess[v] <= 1e-12 {
                    break;
                }
                if !p.edge_ok[e] || !p.alive[w] || w == v {
                    continue;
                }
                if s.label[w] + 1 != j {
                    continue;
                }
                let (tail, _) = p.g.endpoints(e);
                let residual = p.cap - s.out_flow(e, v, tail);
                if residual <= 1e-12 {
                    continue;
                }
                let delta = s.excess[v].min(residual);
                s.push_on(e, v, tail, delta);
                s.excess[v] -= delta;
                let leftover = s.absorb(p.g, w, delta);
                if leftover > 0.0 {
                    if s.excess[w] <= 1e-12 {
                        s.active.push(w);
                        by_level.entry(s.label[w].min(h + 1)).or_default().push(w);
                    }
                    s.excess[w] += leftover;
                }
                pushes += 1;
            }
        }
        t.charge(Cost::new(scanned.max(1), 1));
    }

    // Relabel: any vertex still holding excess whose sink is exhausted and
    // whose downhill edges are saturated rises one level.
    let mut relabels = 0u64;
    let mut relabel_scanned = 0u64;
    s.active.retain(|&v| s.excess[v] > 1e-12);
    for idx in 0..s.active.len() {
        let v = s.active[idx];
        if s.excess[v] <= 1e-12 || s.label[v] > h {
            continue;
        }
        s.touch(p.g, v);
        if s.budget[v] > 1e-12 {
            // could still absorb locally — do it now
            let ex = s.excess[v];
            s.excess[v] = 0.0;
            let leftover = s.absorb(p.g, v, ex);
            s.excess[v] = leftover;
            if leftover <= 1e-12 {
                continue;
            }
        }
        let j = s.label[v];
        let mut stuck = true;
        if j >= 1 {
            for &(w, e) in p.g.neighbors(v) {
                relabel_scanned += 1;
                if !p.edge_ok[e] || !p.alive[w] || w == v || s.label[w] + 1 != j {
                    continue;
                }
                let (tail, _) = p.g.endpoints(e);
                if p.cap - s.out_flow(e, v, tail) > 1e-12 {
                    stuck = false;
                    break;
                }
            }
        }
        if stuck {
            if s.label[v] == 0 {
                s.labeled.push(v);
            }
            s.label[v] = (j + 1).min(h + 1);
            relabels += 1;
        }
    }
    t.charge(Cost::new(relabel_scanned.max(1), 1));
    s.pushes += pushes;
    (pushes, relabels)
}

/// `ParallelUnitFlow` (Algorithm 1).
///
/// `new_source` injects additional demand (vertex, amount); `sink_rate`
/// is this invocation's *new* per-degree sink allowance (every vertex `v`
/// gains `sink_rate · deg(v)` budget, granted lazily). The paper meters
/// the allowance over `8·log₂ n` inner rounds for its amortized analysis;
/// we grant it up front — the postconditions of Lemma 3.10 are unchanged
/// (relabelling still requires an exhausted sink) and the practical
/// behaviour is far better conditioned at workstation scale (DESIGN.md
/// §2). State persists across invocations, so trimming can reuse flow
/// between its rounds.
pub fn parallel_unit_flow(
    t: &mut Tracker,
    p: &UnitFlowProblem<'_>,
    s: &mut UnitFlowState,
    new_source: &[(usize, f64)],
    sink_rate: f64,
    max_sweeps: usize,
) -> UnitFlowOutcome {
    t.span("expander/unit-flow", |t| {
        t.counter("unitflow.invocations", 1);
        let absorbed_before: f64 = s.absorbed.iter().sum();

        // Grant this invocation's allowance globally (lazily realized), then
        // let standing excess holders absorb into it.
        s.granted += sink_rate;
        s.active.retain(|&v| s.excess[v] > 1e-12);
        for idx in 0..s.active.len() {
            let v = s.active[idx];
            let ex = s.excess[v];
            if ex > 0.0 {
                s.excess[v] = 0.0;
                s.excess[v] = s.absorb(p.g, v, ex);
            }
        }
        t.charge(Cost::par_flat(s.active.len() as u64));

        // Inject the new demand, absorbing locally where possible.
        for &(v, amt) in new_source {
            debug_assert!(p.alive[v], "source on dead vertex {v}");
            let leftover = s.absorb(p.g, v, amt);
            if leftover > 0.0 {
                if s.excess[v] <= 1e-12 {
                    s.active.push(v);
                }
                s.excess[v] += leftover;
            }
        }
        t.charge(Cost::par_flat(new_source.len() as u64));

        let mut outcome = UnitFlowOutcome {
            rounds: 1,
            ..UnitFlowOutcome::default()
        };
        for _ in 0..max_sweeps {
            let standing: f64 = s
                .active
                .iter()
                .filter(|&&v| s.label[v] <= p.height && s.excess[v] > 0.0)
                .map(|&v| s.excess[v])
                .sum();
            t.charge(Cost::reduce(s.active.len() as u64));
            if standing <= 1e-12 {
                break;
            }
            let (pushed, relabeled) = push_then_relabel(t, p, s);
            t.counter("unitflow.pushes", pushed);
            t.counter("unitflow.relabels", relabeled);
            outcome.sweeps += 1;
            if pushed == 0 && relabeled == 0 {
                break; // no progress possible: all excess stuck at h+1
            }
            if s.active.iter().all(|&v| s.label[v] > p.height) {
                break; // everything unroutable is parked at h+1
            }
        }

        // Final cleanup: labels h+1 drop to h (Algorithm 1, line 8).
        for i in 0..s.labeled.len() {
            let v = s.labeled[i];
            if s.label[v] == p.height + 1 {
                s.label[v] = p.height;
            }
        }
        t.charge(Cost::par_flat(s.labeled.len() as u64));

        s.active.retain(|&v| s.excess[v] > 1e-12);
        outcome.remaining_excess = s
            .active
            .iter()
            .filter(|&&v| p.alive[v] && s.label[v] <= p.height)
            .map(|&v| s.excess[v])
            .sum();
        outcome.absorbed_now = s.absorbed.iter().sum::<f64>() - absorbed_before;
        pmcf_obs::emit_with("unitflow.run", || {
            vec![
                ("sources", new_source.len().into()),
                ("sink_rate", sink_rate.into()),
                ("sweeps", outcome.sweeps.into()),
                ("absorbed", outcome.absorbed_now.into()),
                ("remaining_excess", outcome.remaining_excess.into()),
                ("height", p.height.into()),
            ]
        });
        outcome
    })
}

/// Verify Lemma 3.10's postconditions on a finished state (test helper;
/// scans the whole graph, so test-only by design).
pub fn check_lemma_3_10(
    p: &UnitFlowProblem<'_>,
    s: &UnitFlowState,
    total_sink_rate: f64,
) -> Result<(), String> {
    let n = p.g.n();
    let log_n = (n.max(4) as f64).log2().ceil();
    // (i) level gaps imply saturation
    for (e, &(u, v)) in p.g.edges().iter().enumerate() {
        if !p.edge_ok[e] || !p.alive[u] || !p.alive[v] || u == v {
            continue;
        }
        for (a, b) in [(u, v), (v, u)] {
            if s.label[a] > s.label[b] + 1 {
                let (tail, _) = p.g.endpoints(e);
                let out = s.out_flow(e, a, tail);
                if (out - p.cap).abs() > 1e-9 {
                    return Err(format!(
                        "edge {e} ({a}->{b}): labels {} > {}+1 but flow {out} ≠ cap {}",
                        s.label[a], s.label[b], p.cap
                    ));
                }
            }
        }
    }
    // (ii) positive label ⇒ sink nearly saturated
    for v in 0..n {
        if p.alive[v] && s.label[v] >= 1 {
            let need = total_sink_rate * p.g.degree(v) as f64 / (8.0 * log_n) - 1e-9;
            if s.absorbed[v] < need {
                return Err(format!(
                    "vertex {v}: label {} but absorbed {} < {need}",
                    s.label[v], s.absorbed[v]
                ));
            }
        }
    }
    // (iii) label < h ⇒ no excess
    for v in 0..n {
        if p.alive[v] && s.label[v] < p.height && s.excess[v] > 1e-9 {
            return Err(format!(
                "vertex {v}: label {} < h={} but excess {}",
                s.label[v], p.height, s.excess[v]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    fn run_instance(
        g: &UGraph,
        sources: &[(usize, f64)],
        sink_rate: f64,
        cap: f64,
        h: usize,
    ) -> (UnitFlowState, UnitFlowOutcome) {
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap,
            height: h,
        };
        let mut s = UnitFlowState::new(g.n(), g.m());
        let mut t = Tracker::new();
        let out = parallel_unit_flow(&mut t, &p, &mut s, sources, sink_rate, 100_000);
        (s, out)
    }

    #[test]
    fn small_demand_fully_absorbed_on_expander() {
        let g = generators::random_regular_ugraph(32, 6, 1);
        let (s, out) = run_instance(&g, &[(0, 3.0), (5, 2.0)], 1.0, 10.0, 20);
        assert!(
            out.remaining_excess < 1e-9,
            "excess {}",
            out.remaining_excess
        );
        assert!((out.absorbed_now - 5.0).abs() < 1e-9);
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g: &g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap: 10.0,
            height: 20,
        };
        check_lemma_3_10(&p, &s, 1.0).unwrap();
    }

    #[test]
    fn small_demand_absorbed_near_source() {
        // demand well under the total sink allowance is fully absorbed,
        // and the source itself takes a share
        let g = generators::random_regular_ugraph(16, 4, 2);
        let (s, out) = run_instance(&g, &[(3, 1.0)], 1.0, 5.0, 10);
        assert!(out.remaining_excess < 1e-12);
        let total: f64 = s.absorbed.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s.absorbed[3] > 0.0, "source absorbs part of its demand");
    }

    #[test]
    fn oversupplied_instance_leaves_high_labels() {
        // demand greatly exceeds total sink capacity: some excess must be
        // stranded at the top level h (after the h+1 → h cleanup)
        let g = generators::random_regular_ugraph(16, 4, 3);
        let total_sink = 0.05 * (2 * g.m()) as f64;
        let demand = 4.0 * total_sink;
        let (s, out) = run_instance(&g, &[(0, demand)], 0.05, 2.0, 6);
        assert!(out.remaining_excess > 0.0);
        assert!(s.label.contains(&6), "some vertex at top level");
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g: &g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap: 2.0,
            height: 6,
        };
        check_lemma_3_10(&p, &s, 0.05).unwrap();
    }

    #[test]
    fn flow_conservation_holds() {
        // net(v) := Δ(v) + inflow − outflow − absorbed == excess(v)
        let g = generators::random_regular_ugraph(24, 4, 4);
        let sources = vec![(1usize, 7.0f64), (9, 4.0)];
        let (s, _) = run_instance(&g, &sources, 0.4, 3.0, 12);
        let mut net = vec![0.0f64; g.n()];
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            net[u] -= s.flow[e];
            net[v] += s.flow[e];
        }
        for &(v, amt) in &sources {
            net[v] += amt;
        }
        for (v, &nv) in net.iter().enumerate() {
            let want = s.absorbed[v] + s.excess[v];
            assert!(
                (nv - want).abs() < 1e-9,
                "vertex {v}: net {nv} vs absorbed+excess {want}"
            );
        }
    }

    #[test]
    fn capacity_respected() {
        let g = generators::random_regular_ugraph(16, 4, 5);
        let cap = 1.5;
        let (s, _) = run_instance(&g, &[(0, 20.0)], 0.3, cap, 8);
        for &f in &s.flow {
            assert!(f.abs() <= cap + 1e-9, "flow {f} over cap {cap}");
        }
    }

    #[test]
    fn work_scales_with_demand_not_graph() {
        // Claim 1 / Lemma 3.11: work ∝ active set, not m. Inject tiny
        // demand into a big graph; work must be far below m.
        let g = generators::random_regular_ugraph(2048, 8, 6);
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g: &g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap: 8.0,
            height: 10,
        };
        let mut s = UnitFlowState::new(g.n(), g.m());
        let mut t = Tracker::new();
        let out = parallel_unit_flow(&mut t, &p, &mut s, &[(0, 2.0)], 1.0, 10_000);
        assert!(out.remaining_excess < 1e-12);
        assert!(
            t.work() < (g.m() as u64) / 2,
            "work {} should be ≪ m = {}",
            t.work(),
            g.m()
        );
    }

    #[test]
    fn reset_state_is_observationally_fresh() {
        // Run an instance on a fresh state and on a dirtied-then-reset
        // state: every observable field must agree exactly.
        let g = generators::random_regular_ugraph(24, 4, 8);
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g: &g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap: 3.0,
            height: 10,
        };
        let sources = [(2usize, 5.0f64), (7, 1.0)];
        let mut fresh = UnitFlowState::new(g.n(), g.m());
        let mut t = Tracker::new();
        let out_fresh = parallel_unit_flow(&mut t, &p, &mut fresh, &sources, 0.5, 10_000);

        let mut reused = UnitFlowState::new(64, 300); // wrong-sized, then dirtied
        let big = generators::random_regular_ugraph(64, 6, 9);
        let alive2 = vec![true; big.n()];
        let edge_ok2 = vec![true; big.m()];
        let p2 = UnitFlowProblem {
            g: &big,
            alive: &alive2,
            edge_ok: &edge_ok2,
            cap: 2.0,
            height: 8,
        };
        let mut t2 = Tracker::new();
        let _ = parallel_unit_flow(&mut t2, &p2, &mut reused, &[(0, 9.0)], 0.4, 10_000);
        reused.reset(g.n(), g.m());
        let mut t3 = Tracker::new();
        let out_reused = parallel_unit_flow(&mut t3, &p, &mut reused, &sources, 0.5, 10_000);

        assert_eq!(out_fresh.sweeps, out_reused.sweeps);
        assert_eq!(fresh.flow, reused.flow);
        assert_eq!(fresh.label, reused.label);
        assert_eq!(fresh.absorbed, reused.absorbed);
        assert_eq!(fresh.excess, reused.excess);
        assert_eq!(fresh.pushes, reused.pushes);
        assert_eq!(t.work(), t3.work(), "charged work must match exactly");
        assert_eq!(t.depth(), t3.depth());
    }

    #[test]
    fn pool_take_give_reuses_and_counts() {
        let before = pool_stats();
        let s = UnitFlowState::take(16, 40);
        assert_eq!(s.flow.len(), 40);
        assert_eq!(s.label.len(), 16);
        UnitFlowState::give(s);
        let s2 = UnitFlowState::take(8, 20);
        assert_eq!(s2.flow.len(), 20);
        assert_eq!(s2.label.len(), 8);
        assert!(s2.excess.iter().all(|&e| e == 0.0));
        let after = pool_stats();
        // other tests share the process-global pool, so assert growth,
        // not absolutes: two takes happened, at least one from the pool
        assert!(after.fresh + after.reused >= before.fresh + before.reused + 2);
        assert!(after.reused > before.reused);
        UnitFlowState::give(s2);
        assert!(pool_stats().parked >= 1);
    }

    #[test]
    fn successive_invocations_accumulate_budget() {
        let g = generators::random_regular_ugraph(16, 4, 9);
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g: &g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap: 4.0,
            height: 8,
        };
        let mut s = UnitFlowState::new(g.n(), g.m());
        let mut t = Tracker::new();
        let o1 = parallel_unit_flow(&mut t, &p, &mut s, &[(0, 3.0)], 1.0, 10_000);
        assert!(o1.remaining_excess < 1e-9);
        let o2 = parallel_unit_flow(&mut t, &p, &mut s, &[(1, 3.0)], 1.0, 10_000);
        assert!(o2.remaining_excess < 1e-9);
        let total: f64 = s.absorbed.iter().sum();
        assert!((total - 6.0).abs() < 1e-9);
    }
}
