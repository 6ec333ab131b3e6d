//! Incremental re-solve on graph deltas.
//!
//! After a full [`crate::solve_mcf`], a [`McfCheckpoint`] keeps the
//! instance, the terminal central-path point `(x, y)` and the solver's
//! [`Workspace`] arena. A [`ResolveDelta`] — batched edge
//! insertions/deletions plus cost and capacity changes — rewrites the
//! instance and the warm primal point, and the IPM is **warm-started**
//! from the previous central-path point instead of the cold
//! `x = u/2, y = 0` initialization:
//!
//! 1. surviving edges keep their terminal fractional flow, inserted
//!    edges start at the analytically centered value for their reduced
//!    cost (the closed-form root of `s + μφ'(x) = 0`);
//! 2. conservation is repaired *combinatorially* — the per-vertex
//!    imbalance left by deletions is rerouted through the residual graph
//!    (cost-guided Bellman–Ford augmenting paths, with BFS fallbacks),
//!    which succeeds iff the mutated instance is feasible, so no big-M
//!    extension is needed;
//! 3. the restart parameter `μ_warm` is the smallest μ at which the
//!    repaired point is approximately centered (`‖z‖_∞ ≤ 1`, scanned
//!    geometrically from `μ_end` up) — a one-edge delta restarts right
//!    at `μ_end` and only pays a few polish Newton steps, a 10 %-of-m
//!    delta honestly re-follows a longer stretch of the path.
//!
//! A re-solve runs no expander maintenance of its own: the robust engine
//! builds its epoch structures from the mutated instance like any solve.
//!
//! Exactness is anchored the same way as a fresh solve: the terminal
//! iterate is rounded by [`crate::rounding::round_to_optimal`], which
//! repairs it in place and certifies the integral optimum
//! unconditionally with potentials. Resolve therefore returns the *same*
//! typed [`McfError`] surface and the same exact objective as a fresh
//! solve on the mutated instance — the property the `resolve-churn`
//! differential family races.
//!
//! Resolve iterations appear in the `pmcf.report/v1` convergence table
//! under the `resolve-reference` / `resolve-robust` engine labels.

use crate::api::{self, McfSolution, SolverConfig, Start, WarmState};
use crate::barrier;
use crate::error::McfError;
use crate::init;
use pmcf_graph::{DiGraph, McfProblem};
use pmcf_pram::{Cost, Tracker, Workspace};

/// Largest `‖z‖_∞` accepted by the μ-scan (the ε-centered ball of
/// Definition F.1 has radius 1).
const Z_ACCEPT: f64 = 1.0;
/// Multiplicative distance between a surviving edge's warm flow and its
/// centered value beyond which the flow is snapped back to centered.
/// The z-metric cannot flag a coordinate stranded at the *wrong* bound
/// (at x ≈ 0 the barrier term dominates and |z| → 1∓ regardless of the
/// sign of s), so displacement is measured in primal space instead: a
/// cost sign flip moves the centered point across the box (ratio
/// ≈ u/x ≫ 10³) while benign bound-huggers stay within a small factor
/// (≈ 2|s|u/μ ratio bands, single digits at our scales).
const SNAP_RATIO: f64 = 16.0;
/// Residual-graph arcs thinner than this are unusable during repair.
const ARC_TOL: f64 = 1e-10;
/// Residual thickness for the cost-guided routing pass. Arcs at least
/// this thick approximate the residual graph of the *rounded* old
/// optimum, which is negative-cycle-free by the old optimality — so
/// Bellman–Ford is well-defined on them. Path-end iterates hug their
/// bounds to ≈ μ_end/|s| ∼ 1e-3, so the threshold must sit *above*
/// that scale or wrong-side hug arcs (weight −|s|) leak in and create
/// spurious negative cycles.
const ARC_THICK: f64 = 0.01;
/// Total surplus below this counts as conservation restored (integral
/// instances leave a ≥ 1 gap when genuinely infeasible, so the two
/// thresholds are separated by ~4 orders of magnitude at any m we run).
const SURPLUS_TOL: f64 = 1e-6;

/// An edge to insert, in a [`ResolveDelta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NewEdge {
    /// Tail vertex (must be `< n`; the delta cannot grow the vertex set).
    pub from: usize,
    /// Head vertex (must be `< n`).
    pub to: usize,
    /// Capacity (must be `≥ 0`).
    pub cap: i64,
    /// Cost.
    pub cost: i64,
}

/// A batch of graph changes applied by [`McfCheckpoint::resolve`].
///
/// Indices in `delete`, `set_cost` and `set_cap` refer to the
/// **pre-delta** edge list. Deletions are applied after the cost/cap
/// updates; surviving edges keep their relative order and inserted edges
/// are appended, so the post-delta edge `e` is survivor number `e` (in
/// pre-delta order) for `e < m − |delete|` and insertion
/// `e − (m − |delete|)` otherwise. A delta referencing an out-of-range
/// index, deleting the same edge twice, updating a deleted edge, or
/// inserting a negative capacity / out-of-range endpoint is rejected as
/// [`McfError::InvalidInput`] **atomically** — the checkpoint is left
/// exactly as it was.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolveDelta {
    /// Edges to append.
    pub insert: Vec<NewEdge>,
    /// Pre-delta indices of edges to remove (no duplicates).
    pub delete: Vec<usize>,
    /// `(pre-delta index, new cost)` updates; on repeats the last wins.
    pub set_cost: Vec<(usize, i64)>,
    /// `(pre-delta index, new capacity ≥ 0)` updates; last wins.
    pub set_cap: Vec<(usize, i64)>,
}

impl ResolveDelta {
    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty()
            && self.delete.is_empty()
            && self.set_cost.is_empty()
            && self.set_cap.is_empty()
    }

    /// Number of touched edges (the delta-size axis of the work-ratio
    /// sweep).
    pub fn touched(&self) -> usize {
        self.insert.len() + self.delete.len() + self.set_cost.len() + self.set_cap.len()
    }
}

/// Solver state retained between solves for warm-started re-solves.
///
/// Created by [`api::solve_mcf_checkpointed`]; mutated in place by
/// [`McfCheckpoint::resolve`]. The checkpoint survives *failed* solves
/// too: an [`McfError`] invalidates the warm point (the next resolve
/// silently falls back to a fresh solve and re-arms it) but the problem
/// stays synchronized with the applied deltas, so a churn sequence can
/// continue straight through an infeasible window.
pub struct McfCheckpoint {
    problem: McfProblem,
    cfg: SolverConfig,
    /// Terminal central-path point of the last successful solve; `None`
    /// after an error (→ fresh fallback on the next resolve).
    warm: Option<WarmState>,
    /// Long-lived buffer arena threaded through every warm solve.
    ws: Workspace,
    resolves: u64,
    fresh_fallbacks: u64,
}

impl McfCheckpoint {
    /// Fresh solve that also builds the checkpoint. The checkpoint is
    /// returned even when the solve fails, so delta application can
    /// proceed (e.g. to repair the instance that made it infeasible).
    pub(crate) fn new(
        t: &mut Tracker,
        p: &McfProblem,
        cfg: &SolverConfig,
    ) -> (Self, Result<McfSolution, McfError>) {
        let (warm, result) = match api::solve(t, p, cfg, Start::Cold) {
            Ok((sol, w)) => (Some(w), Ok(sol)),
            Err(e) => (None, Err(e)),
        };
        (
            McfCheckpoint {
                problem: p.clone(),
                cfg: *cfg,
                warm,
                ws: Workspace::new(),
                resolves: 0,
                fresh_fallbacks: 0,
            },
            result,
        )
    }

    /// The current (post-delta) instance.
    pub fn problem(&self) -> &McfProblem {
        &self.problem
    }

    /// The solver configuration the checkpoint was built with.
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Whether the next resolve can warm-start (false right after an
    /// errored solve, until a fresh fallback re-arms it).
    pub fn warm_is_valid(&self) -> bool {
        self.warm.is_some()
    }

    /// Number of resolves performed.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Resolves that had to fall back to a fresh solve.
    pub fn fresh_fallbacks(&self) -> u64 {
        self.fresh_fallbacks
    }

    /// Apply `delta` and re-solve, warm-starting from the previous
    /// central-path point. Returns the exact optimum of the mutated
    /// instance with the same typed [`McfError`] surface as a fresh
    /// [`crate::solve_mcf`].
    pub fn resolve(
        &mut self,
        t: &mut Tracker,
        delta: &ResolveDelta,
    ) -> Result<McfSolution, McfError> {
        t.span("resolve", |t| {
            // 1. validate + apply the delta (atomic on InvalidInput)
            self.apply_delta(t, delta)?;
            self.resolves += 1;
            t.counter("resolve.resolves", 1);
            pmcf_obs::emit_with("resolve.delta", || {
                vec![
                    ("touched", delta.touched().into()),
                    ("inserted", delta.insert.len().into()),
                    ("deleted", delta.delete.len().into()),
                    ("m", self.problem.m().into()),
                    ("warm", self.warm.is_some().into()),
                ]
            });
            // 2. instance-level screens, identical to a fresh solve
            if let Err(e) = api::validate_instance(&self.problem) {
                self.warm = None;
                return Err(e);
            }
            // 3. warm resolve, or fresh fallback when the warm point was
            //    invalidated by a previous error
            let (p, cfg) = (&self.problem, &self.cfg);
            let outcome = match self.warm.take() {
                Some(w) => warm_point(t, p, w)
                    .and_then(|(x, y)| api::solve(t, p, cfg, Start::Warm { x, y, ws: &self.ws })),
                None => {
                    self.fresh_fallbacks += 1;
                    t.counter("resolve.fresh_fallbacks", 1);
                    api::solve(t, p, cfg, Start::Cold)
                }
            };
            match outcome {
                Ok((sol, w)) => {
                    self.warm = Some(w);
                    Ok(sol)
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Validate `delta` (rejecting atomically) and then mutate the
    /// problem and the warm primal point.
    fn apply_delta(&mut self, t: &mut Tracker, delta: &ResolveDelta) -> Result<(), McfError> {
        let (m, n) = (self.problem.m(), self.problem.n());
        let mut del_mask = vec![false; m];
        for &e in &delta.delete {
            if e >= m {
                return Err(McfError::invalid(format!(
                    "delete index {e} out of range (m={m})"
                )));
            }
            if del_mask[e] {
                return Err(McfError::invalid(format!("duplicate delete index {e}")));
            }
            del_mask[e] = true;
        }
        for &(e, _) in &delta.set_cost {
            if e >= m {
                return Err(McfError::invalid(format!(
                    "set_cost index {e} out of range (m={m})"
                )));
            }
            if del_mask[e] {
                return Err(McfError::invalid(format!("set_cost on deleted edge {e}")));
            }
        }
        for &(e, u) in &delta.set_cap {
            if e >= m {
                return Err(McfError::invalid(format!(
                    "set_cap index {e} out of range (m={m})"
                )));
            }
            if del_mask[e] {
                return Err(McfError::invalid(format!("set_cap on deleted edge {e}")));
            }
            if u < 0 {
                return Err(McfError::invalid(format!(
                    "set_cap({e}) to negative capacity {u}"
                )));
            }
        }
        for ne in &delta.insert {
            if ne.from >= n || ne.to >= n {
                return Err(McfError::invalid(format!(
                    "inserted edge ({}, {}) out of range (n={n})",
                    ne.from, ne.to
                )));
            }
            if ne.cap < 0 {
                return Err(McfError::invalid(format!(
                    "inserted edge with negative capacity {}",
                    ne.cap
                )));
            }
        }

        // -- validated; mutation is infallible from here --
        let mut cap = self.problem.cap.clone();
        let mut cost = self.problem.cost.clone();
        for &(e, c) in &delta.set_cost {
            cost[e] = c;
        }
        for &(e, u) in &delta.set_cap {
            cap[e] = u;
        }

        // rebuild the edge-parallel vectors: survivors in order, then
        // insertions. Inserted warm flows are NaN-marked; `solve_warm`
        // replaces them with the analytically centered value once the
        // local reduced costs are known.
        let mut edges = Vec::with_capacity(m - delta.delete.len() + delta.insert.len());
        let mut new_cap = Vec::with_capacity(edges.capacity());
        let mut new_cost = Vec::with_capacity(edges.capacity());
        let mut new_x: Vec<f64> = Vec::with_capacity(edges.capacity());
        let warm_x = self.warm.as_ref().map(|w| w.x_frac.as_slice());
        for e in 0..m {
            if del_mask[e] {
                continue;
            }
            edges.push(self.problem.graph.endpoints(e));
            new_cap.push(cap[e]);
            new_cost.push(cost[e]);
            if let Some(x) = warm_x {
                new_x.push(x[e]);
            }
        }
        for ne in &delta.insert {
            edges.push((ne.from, ne.to));
            new_cap.push(ne.cap);
            new_cost.push(ne.cost);
            if warm_x.is_some() {
                new_x.push(f64::NAN);
            }
        }
        t.charge(Cost {
            work: (m + delta.insert.len()).max(1) as u64,
            depth: 1,
        });
        self.problem = McfProblem::new(
            DiGraph::from_edges(n, edges),
            new_cap,
            new_cost,
            self.problem.demand.clone(),
        );
        if let Some(w) = self.warm.as_mut() {
            w.x_frac = new_x;
        }
        Ok(())
    }
}

/// Closed-form centered flow for a single edge: the root of
/// `s + μ φ'(x) = 0` (τ = 1), written in the cancellation-free form
/// `x = 2u / (s̃u + 2 + √((s̃u)² + 4))` with `s̃ = s/μ`. Falls out to
/// `u/2` at `s = 0`, `→ 0` for strongly positive reduced cost and
/// `→ u` for strongly negative.
fn centered_x(s: f64, u: f64, mu: f64) -> f64 {
    let su = s / mu * u;
    2.0 * u / (su + 2.0 + su.hypot(2.0))
}

/// Restore `Aᵀx = b` on the warm fractional point by rerouting the
/// per-vertex surplus through the residual graph (augmenting paths from
/// surplus to deficit vertices: cost-guided Bellman–Ford first, BFS as
/// the fallback). If a feasible flow `f` exists then `f − x` itself is
/// a valid routing, so failure certifies [`McfError::Infeasible`] —
/// exactly the class a fresh solve returns on the same instance.
///
/// `frozen` marks edges whose value the seeding stage chose on purpose
/// (snapped-to-centered survivors and freshly inserted edges). Their
/// residual arcs are avoided on a first BFS pass so the repair routes
/// the displacement *around* them — augmenting straight back through a
/// snapped edge would undo the snap and strand the coordinate at the
/// wrong bound again. A second, permissive pass keeps the infeasibility
/// certificate intact when avoiding them disconnects every deficit.
fn repair_feasibility(
    t: &mut Tracker,
    p: &McfProblem,
    x: &mut [f64],
    y: &mut [f64],
    frozen: &[bool],
) -> Result<(), McfError> {
    let (n, m) = (p.n(), p.m());
    // surplus σ_v = (Aᵀx)_v − b_v  (> 0: too much inflow)
    let mut surplus = vec![0.0f64; n];
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        surplus[u] -= x[e];
        surplus[v] += x[e];
    }
    for (s, &b) in surplus.iter_mut().zip(&p.demand) {
        *s -= b as f64;
    }
    let max_pos = |s: &[f64]| s.iter().cloned().fold(0.0f64, f64::max);
    let has_frozen = frozen.iter().any(|&f| f);
    // adjacency over usable (non-self-loop) edges
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        if u != v {
            adj[u].push(e);
            adj[v].push(e);
        }
    }
    t.span("resolve/repair", |t| {
        let cap_iters = (4 * m * n).max(64);
        let mut rounds = 0usize;
        while max_pos(&surplus) > SURPLUS_TOL {
            rounds += 1;
            if rounds > cap_iters {
                return Err(McfError::numerical(
                    "feasibility repair exceeded its augmentation budget",
                ));
            }
            // Route selection, best quality first:
            //  1. cost-guided — Bellman–Ford over *thick* unfrozen
            //     residual arcs with ±cost weights. Routing along the
            //     cheapest residual path is the augmentation the new
            //     optimum itself would make, so the edges it touches
            //     land on the right side of their box and the μ-scan
            //     can restart near μ_end;
            //  2. BFS avoiding frozen arcs (any thickness ≥ ARC_TOL);
            //  3. permissive BFS — sees every arc, so only its failure
            //     certifies infeasibility.
            let mut pred: Vec<Option<(usize, bool)>> = vec![None; n]; // (edge, forward?)
            let mut sink_found = None;
            let mut dist_tree: Option<Vec<f64>> = None;
            {
                let mut dist = vec![f64::INFINITY; n];
                for v in 0..n {
                    if surplus[v] > SURPLUS_TOL / 2.0 {
                        dist[v] = 0.0;
                    }
                }
                let mut rounds_bf = 0u64;
                let mut tainted = false;
                for round in 0..n {
                    rounds_bf += 1;
                    let mut changed = false;
                    for (e, &(a, b)) in p.graph.edges().iter().enumerate() {
                        if a == b || frozen[e] {
                            continue;
                        }
                        // reduced cost of the forward arc; the backward
                        // arc carries its negation
                        let s = p.cost[e] as f64 - (y[b] - y[a]);
                        // the slack absorbs float-noise negative cycles
                        // (two near-zero reduced costs around a 2-cycle);
                        // genuinely profitable cycles have magnitude ≳ 1
                        // on integer-cost instances
                        if p.cap[e] as f64 - x[e] > ARC_THICK && dist[a] + s < dist[b] - 1e-7 {
                            dist[b] = dist[a] + s;
                            pred[b] = Some((e, true));
                            changed = true;
                        }
                        if x[e] > ARC_THICK && dist[b] - s < dist[a] - 1e-7 {
                            dist[a] = dist[b] - s;
                            pred[a] = Some((e, false));
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                    // still relaxing after n−1 rounds ⇒ a negative cycle
                    // slipped through the thickness filter; the tree is
                    // untrustworthy, fall back to BFS
                    tainted = round + 1 == n;
                }
                t.charge(Cost {
                    work: rounds_bf * 2 * m as u64,
                    depth: rounds_bf,
                });
                if tainted {
                    pred.iter_mut().for_each(|p| *p = None);
                } else {
                    // demand a deficit worth routing to (the largest one
                    // is ≥ max_pos/n when feasible) so float-dust
                    // deficits can't starve the augmentation budget by
                    // winning the min-dist tie at tiny amounts
                    let deficit_floor = -max_pos(&surplus) / (2.0 * n as f64);
                    sink_found = (0..n)
                        .filter(|&v| pred[v].is_some() && surplus[v] < deficit_floor)
                        .min_by(|&a, &b| dist[a].total_cmp(&dist[b]));
                    if sink_found.is_some() {
                        dist_tree = Some(dist);
                    }
                }
            }
            // BFS fallbacks: the full residual-reachable set from every
            // surplus vertex, routed toward the most-negative vertex in
            // it (deficits may be spread thin, so the nearest one above
            // a fixed threshold need not exist even when feasible)
            let passes: &[bool] = if has_frozen { &[false, true] } else { &[true] };
            for &allow_frozen in passes {
                if sink_found.is_some() {
                    break;
                }
                pred.iter_mut().for_each(|p| *p = None);
                let mut seen = vec![false; n];
                let mut queue: Vec<usize> =
                    (0..n).filter(|&v| surplus[v] > SURPLUS_TOL / 2.0).collect();
                for &v in &queue {
                    seen[v] = true;
                }
                let mut head = 0;
                while head < queue.len() {
                    let v = queue[head];
                    head += 1;
                    for &e in &adj[v] {
                        if !allow_frozen && frozen[e] {
                            continue;
                        }
                        let (a, b) = p.graph.endpoints(e);
                        let (to, fwd, resid) = if a == v {
                            (b, true, p.cap[e] as f64 - x[e])
                        } else {
                            (a, false, x[e])
                        };
                        if seen[to] || resid <= ARC_TOL {
                            continue;
                        }
                        seen[to] = true;
                        pred[to] = Some((e, fwd));
                        queue.push(to);
                    }
                }
                t.charge(Cost {
                    work: (n + 2 * m) as u64,
                    depth: (n + 2 * m) as u64,
                });
                sink_found = queue
                    .iter()
                    .copied()
                    .filter(|&v| pred[v].is_some() && surplus[v] < -ARC_TOL)
                    .min_by(|&a, &b| surplus[a].total_cmp(&surplus[b]));
                if sink_found.is_some() {
                    break;
                }
            }
            // if a feasible flow f exists, f − x routes every surplus to
            // real deficits, and the largest reachable one holds at
            // least surplus/n ≫ ARC_TOL — so nothing meaningfully
            // negative being reachable (even via frozen edges) certifies
            // infeasibility
            let Some(sink) = sink_found else {
                return Err(McfError::Infeasible);
            };
            // walk back to the originating surplus vertex, find bottleneck
            let mut path = Vec::new();
            let mut v = sink;
            while let Some((e, fwd)) = pred[v] {
                path.push((e, fwd));
                let (a, b) = p.graph.endpoints(e);
                v = if fwd { a } else { b };
            }
            let source = v;
            let mut amt = surplus[source].min(-surplus[sink]);
            for &(e, fwd) in &path {
                let resid = if fwd { p.cap[e] as f64 - x[e] } else { x[e] };
                amt = amt.min(resid);
            }
            for &(e, fwd) in &path {
                if fwd {
                    x[e] += amt;
                } else {
                    x[e] -= amt;
                }
            }
            surplus[source] -= amt;
            surplus[sink] += amt;
            // cost-guided rounds also shift the potentials, SSP-style:
            // y ← y + min(dist, dist_sink). Path edges left mid-box get
            // reduced cost exactly 0 (centered there), and every thick
            // arc keeps the sign the shortest-path inequalities give it,
            // so the warm duals track the rerouted primal instead of
            // going stale.
            if let Some(dist) = dist_tree {
                let cap_d = dist[sink];
                for (yv, &dv) in y.iter_mut().zip(&dist) {
                    *yv += dv.min(cap_d);
                }
                t.charge(Cost {
                    work: n as u64,
                    depth: 1,
                });
            }
            t.counter("resolve.repair_augmentations", 1);
        }
        Ok(())
    })
}

/// The warm start's μ₀ for one connected component at the repaired point
/// `(x, y)`: the μ-scan of [`pick_mu`] between `μ_end` and the cold
/// start's μ, charged, counted and declared as `resolve.warm_start`.
pub(crate) fn warm_mu(t: &mut Tracker, p: &McfProblem, x: &[f64], y: &[f64], mu_end: f64) -> f64 {
    let capf: Vec<f64> = p.cap.iter().map(|&u| u as f64).collect();
    let mu_hi = init::initial_mu(p, 0.25);
    // reduced costs + interior-clamped copy, for the μ-scan only (the
    // engine re-derives both from (x, y) itself)
    let mut xc = x.to_vec();
    barrier::clamp_interior_soft(&mut xc, &capf, 1e-9);
    let s: Vec<f64> = p
        .graph
        .edges()
        .iter()
        .zip(&p.cost)
        .map(|(&(u, v), &c)| c as f64 - (y[v] - y[u]))
        .collect();
    let mu0 = pick_mu(&xc, &s, &capf, mu_end, mu_hi);
    t.charge(Cost {
        work: (p.m() * (((mu0 / mu_end).log2() / 2.0) as usize + 1)) as u64,
        depth: 8,
    });
    t.counter("resolve.warm_solves", 1);
    pmcf_obs::emit_with("resolve.warm_start", || {
        vec![
            ("mu_warm", mu0.into()),
            ("mu_end", mu_end.into()),
            ("mu_cold", mu_hi.into()),
            ("m", p.m().into()),
        ]
    });
    mu0
}

/// Pick the restart parameter: the smallest μ in the geometric ladder
/// `μ_end·4^k` at which the warm point is approximately centered
/// (`‖z‖_∞ ≤ 1`, with τ ≡ 1 as a constant-factor proxy — both engines
/// refresh real leverage weights immediately on entry). Small deltas
/// barely move `z`, so they restart at `μ_end`; large deltas climb
/// until the ladder reaches the cold-start μ.
fn pick_mu(x: &[f64], s: &[f64], cap: &[f64], mu_end: f64, mu_hi: f64) -> f64 {
    let mut mu = mu_end;
    loop {
        let mut worst = 0.0f64;
        for ((&xe, &ue), &se) in x.iter().zip(cap).zip(s) {
            let z = (se + mu * barrier::dphi(xe, ue)) / (mu * barrier::ddphi(xe, ue).sqrt());
            worst = worst.max(z.abs());
        }
        if worst <= Z_ACCEPT || mu >= mu_hi {
            return mu.min(mu_hi);
        }
        mu *= 4.0;
    }
}

/// The warm start for the full (already mutated) instance: the previous
/// terminal point seeded for the delta and repaired to satisfy
/// `Aᵀx = b`, or the typed [`McfError::Infeasible`] the repair certifies.
fn warm_point(
    t: &mut Tracker,
    p: &McfProblem,
    warm: WarmState,
) -> Result<(Vec<f64>, Vec<f64>), McfError> {
    let (n, m) = (p.n(), p.m());
    let mut x = warm.x_frac;
    let mut y = warm.y;
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(y.len(), n);

    // seed the warm primal: survivors clamped into the (possibly
    // shrunk) box, inserted edges (NaN-marked) at their centered value
    // for a path-end μ proxy. Surviving edges the delta knocked far off
    // the path (a cost change moves s, a cap change moves the box) are
    // snapped to their centered value too, so a small delta restarts at
    // μ_end instead of dragging the μ-scan up. Displacement is measured
    // as primal distance to the centered value, NOT by |z|: a cost sign
    // flip leaves the coordinate at the wrong bound where the barrier
    // term pins |z| ≈ 1 — invisibly off-path — yet the engine would pay
    // a full migration across the box for it at small μ.
    let mu_ref = init::final_mu(p);
    let mut frozen = vec![false; m];
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        let uf = p.cap[e] as f64;
        if p.cap[e] <= 0 || u == v {
            x[e] = 0.0;
            continue;
        }
        let s = p.cost[e] as f64 - (y[v] - y[u]);
        let xc = centered_x(s, uf, mu_ref);
        if x[e].is_nan() {
            x[e] = xc;
            frozen[e] = true;
        } else {
            let xe = x[e].clamp(uf * 1e-9, uf * (1.0 - 1e-9));
            let ratio = (xe / xc).max(xc / xe);
            if ratio > SNAP_RATIO && (xe - xc).abs() > 0.05 * uf {
                x[e] = xc;
                frozen[e] = true;
            }
        }
        x[e] = x[e].clamp(0.0, uf);
    }
    t.charge(Cost {
        work: m.max(1) as u64,
        depth: 1,
    });

    // combinatorial feasibility repair (typed Infeasible on failure)
    repair_feasibility(t, p, &mut x, &mut y, &frozen)?;
    Ok((x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{solve_mcf, Engine};
    use pmcf_baselines::ssp;
    use pmcf_graph::generators;

    fn fresh_cost(p: &McfProblem) -> Result<i64, McfError> {
        let mut t = Tracker::new();
        solve_mcf(&mut t, p, &SolverConfig::default()).map(|s| s.cost)
    }

    #[test]
    fn single_edge_cost_change_matches_fresh() {
        let p = generators::random_mcf(10, 36, 4, 3, 7);
        let mut t = Tracker::new();
        let (mut ck, first) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        let first = first.unwrap();
        assert_eq!(first.cost, ssp::min_cost_flow(&p).unwrap().cost(&p));
        let delta = ResolveDelta {
            set_cost: vec![(5, 9)],
            ..Default::default()
        };
        let sol = ck.resolve(&mut t, &delta).unwrap();
        assert_eq!(sol.cost, fresh_cost(ck.problem()).unwrap());
        assert!(sol.flow.is_feasible(ck.problem()));
        assert!(ck.warm_is_valid());
        assert_eq!(ck.fresh_fallbacks(), 0);
    }

    #[test]
    fn churn_sequence_matches_fresh_and_ssp() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let p = generators::random_mcf(9, 30, 4, 3, 3);
        let mut t = Tracker::new();
        let (mut ck, _) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        for round in 0..6 {
            let m = ck.problem().m();
            let n = ck.problem().n();
            let mut delta = ResolveDelta::default();
            match round % 3 {
                0 => {
                    delta
                        .set_cost
                        .push((rng.gen_range(0..m), rng.gen_range(-3..4)));
                    delta
                        .set_cap
                        .push((rng.gen_range(0..m), rng.gen_range(0..5)));
                }
                1 => {
                    delta.delete.push(rng.gen_range(0..m));
                    let from: usize = rng.gen_range(0..n);
                    delta.insert.push(NewEdge {
                        from,
                        to: (from + 1 + rng.gen_range(0..n - 1)) % n,
                        cap: rng.gen_range(1..5),
                        cost: rng.gen_range(-2..4),
                    });
                }
                _ => {
                    delta.insert.push(NewEdge {
                        from: rng.gen_range(0..n),
                        to: rng.gen_range(0..n), // may be a self loop
                        cap: rng.gen_range(0..4),
                        cost: rng.gen_range(-2..4),
                    });
                }
            }
            let got = ck.resolve(&mut t, &delta);
            let want = ssp::min_cost_flow(ck.problem());
            match (got, want) {
                (Ok(sol), Some(w)) => {
                    assert_eq!(sol.cost, w.cost(ck.problem()), "round {round}");
                    assert!(sol.flow.is_feasible(ck.problem()), "round {round}");
                }
                (Err(McfError::Infeasible), None) => {}
                (g, w) => panic!("round {round}: resolve {g:?} vs ssp {w:?}"),
            }
        }
    }

    #[test]
    fn robust_engine_resolve_agrees() {
        let cfg = SolverConfig {
            engine: Engine::Robust,
            ..Default::default()
        };
        let p = generators::random_mcf(9, 30, 4, 3, 5);
        let mut t = Tracker::new();
        let (mut ck, first) = McfCheckpoint::new(&mut t, &p, &cfg);
        assert_eq!(
            first.unwrap().cost,
            ssp::min_cost_flow(&p).unwrap().cost(&p)
        );
        // insertions and cost changes never break feasibility
        let delta = ResolveDelta {
            set_cost: vec![(3, 4)],
            insert: vec![NewEdge {
                from: 0,
                to: 4,
                cap: 3,
                cost: -1,
            }],
            ..Default::default()
        };
        let sol = ck.resolve(&mut t, &delta).unwrap();
        assert_eq!(
            sol.cost,
            ssp::min_cost_flow(ck.problem()).unwrap().cost(ck.problem())
        );
        // a deletion may or may not stay feasible: match fresh either way
        let got = ck.resolve(
            &mut t,
            &ResolveDelta {
                delete: vec![3],
                ..Default::default()
            },
        );
        match (got, ssp::min_cost_flow(ck.problem())) {
            (Ok(sol), Some(w)) => assert_eq!(sol.cost, w.cost(ck.problem())),
            (Err(McfError::Infeasible), None) => {}
            (g, w) => panic!(
                "resolve {g:?} vs ssp cost {:?}",
                w.map(|f| f.cost(ck.problem()))
            ),
        }
    }

    #[test]
    fn invalid_deltas_are_typed_and_atomic() {
        let p = generators::random_mcf(8, 24, 4, 3, 11);
        let mut t = Tracker::new();
        let (mut ck, _) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        let m = ck.problem().m();
        let bad: Vec<ResolveDelta> = vec![
            ResolveDelta {
                delete: vec![m],
                ..Default::default()
            },
            ResolveDelta {
                delete: vec![1, 1],
                ..Default::default()
            },
            ResolveDelta {
                delete: vec![2],
                set_cost: vec![(2, 5)],
                ..Default::default()
            },
            ResolveDelta {
                set_cap: vec![(0, -3)],
                ..Default::default()
            },
            ResolveDelta {
                insert: vec![NewEdge {
                    from: 0,
                    to: 99,
                    cap: 1,
                    cost: 1,
                }],
                ..Default::default()
            },
            ResolveDelta {
                insert: vec![NewEdge {
                    from: 0,
                    to: 1,
                    cap: -1,
                    cost: 1,
                }],
                ..Default::default()
            },
        ];
        for (i, d) in bad.iter().enumerate() {
            let before_m = ck.problem().m();
            let err = ck.resolve(&mut t, d).unwrap_err();
            assert_eq!(err.kind(), "invalid_input", "delta {i}");
            assert_eq!(ck.problem().m(), before_m, "delta {i} must be atomic");
            assert!(
                ck.warm_is_valid(),
                "delta {i} must not poison the warm state"
            );
        }
        // checkpoint still fully usable afterwards
        let sol = ck
            .resolve(
                &mut t,
                &ResolveDelta {
                    set_cost: vec![(0, 2)],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            sol.cost,
            ssp::min_cost_flow(ck.problem()).unwrap().cost(ck.problem())
        );
    }

    #[test]
    fn infeasible_window_then_recovery() {
        // single edge serving the demand; deleting it is Infeasible,
        // re-inserting recovers through the fresh-fallback path
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let p = McfProblem::new(g, vec![5], vec![1], vec![-3, 3]);
        let mut t = Tracker::new();
        let (mut ck, first) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        assert_eq!(first.unwrap().cost, 3);
        let err = ck
            .resolve(
                &mut t,
                &ResolveDelta {
                    delete: vec![0],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, McfError::Infeasible));
        assert!(!ck.warm_is_valid());
        let sol = ck
            .resolve(
                &mut t,
                &ResolveDelta {
                    insert: vec![NewEdge {
                        from: 0,
                        to: 1,
                        cap: 4,
                        cost: 2,
                    }],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(sol.cost, 6);
        assert_eq!(ck.fresh_fallbacks(), 1);
        assert!(ck.warm_is_valid());
    }

    #[test]
    fn overflow_delta_is_typed_then_recoverable() {
        let p = generators::random_mcf(8, 24, 4, 3, 13);
        let mut t = Tracker::new();
        let (mut ck, _) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        let err = ck
            .resolve(
                &mut t,
                &ResolveDelta {
                    set_cost: vec![(0, 1i64 << 61)],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), "overflow");
        // revert the cost; next resolve goes through the fresh fallback
        let sol = ck
            .resolve(
                &mut t,
                &ResolveDelta {
                    set_cost: vec![(0, 1)],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            sol.cost,
            ssp::min_cost_flow(ck.problem()).unwrap().cost(ck.problem())
        );
    }

    #[test]
    fn deleting_every_edge_yields_zero_flow_when_balanced() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let p = McfProblem::new(g, vec![2, 2], vec![1, 1], vec![0, 0, 0]);
        let mut t = Tracker::new();
        let (mut ck, first) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        assert_eq!(first.unwrap().cost, 0);
        let sol = ck
            .resolve(
                &mut t,
                &ResolveDelta {
                    delete: vec![0, 1],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(sol.cost, 0);
        assert_eq!(ck.problem().m(), 0);
    }

    #[test]
    fn resolve_does_no_expander_work() {
        fn expander_spans(spans: &[pmcf_pram::profile::SpanReport]) -> Vec<String> {
            let mut out = Vec::new();
            for s in spans {
                if s.name.starts_with("expander/") {
                    out.push(s.name.clone());
                }
                out.extend(expander_spans(&s.children));
            }
            out
        }
        let p = generators::random_mcf(9, 30, 4, 3, 21);
        let mut t = Tracker::profiled();
        let (mut ck, first) = crate::solve_mcf_checkpointed(&mut t, &p, &SolverConfig::default());
        first.unwrap();
        let delta = ResolveDelta {
            delete: vec![2],
            insert: vec![NewEdge {
                from: 1,
                to: 5,
                cap: 3,
                cost: 2,
            }],
            ..Default::default()
        };
        let got = ck.resolve(&mut t, &delta);
        match (got, ssp::min_cost_flow(ck.problem())) {
            (Ok(sol), Some(w)) => assert_eq!(sol.cost, w.cost(ck.problem())),
            (Err(McfError::Infeasible), None) => {}
            (g, w) => panic!("resolve {g:?} vs ssp {w:?}"),
        }
        let rep = t.profile_report().expect("profiled tracker");
        assert_eq!(expander_spans(&rep.spans), Vec::<String>::new());
        let counters: Vec<&String> = rep
            .counters
            .keys()
            .filter(|k| k.starts_with("expander."))
            .collect();
        assert!(counters.is_empty(), "expander counters {counters:?}");
    }

    #[test]
    fn single_edge_resolve_is_substantially_cheaper_than_fresh() {
        let p = generators::random_mcf(12, 44, 4, 3, 17);
        let mut t = Tracker::new();
        let (mut ck, _) = McfCheckpoint::new(&mut t, &p, &SolverConfig::default());
        let delta = ResolveDelta {
            set_cost: vec![(7, 2)],
            ..Default::default()
        };
        let w0 = t.work();
        let sol = ck.resolve(&mut t, &delta).unwrap();
        let resolve_work = t.work() - w0;
        let mut tf = Tracker::new();
        let fresh = solve_mcf(&mut tf, ck.problem(), &SolverConfig::default()).unwrap();
        assert_eq!(sol.cost, fresh.cost);
        let ratio = resolve_work as f64 / tf.work() as f64;
        assert!(
            ratio < 0.5,
            "single-edge resolve work ratio {ratio:.3} (resolve {resolve_work}, fresh {})",
            tf.work()
        );
    }

    #[test]
    fn centered_x_is_the_centrality_root() {
        for &(s, u, mu) in &[
            (3.0, 7.0, 0.5),
            (-2.0, 4.0, 0.1),
            (0.0, 6.0, 1.0),
            (40.0, 5.0, 0.01),
        ] {
            let x = centered_x(s, u, mu);
            assert!(x > 0.0 && x < u, "x={x} outside (0, {u})");
            let resid: f64 = s + mu * barrier::dphi(x, u);
            assert!(
                resid.abs() < 1e-6 * s.abs().max(1.0),
                "s={s} u={u} mu={mu}: resid {resid}"
            );
        }
        assert!((centered_x(0.0, 6.0, 1.0) - 3.0).abs() < 1e-12);
    }
}
