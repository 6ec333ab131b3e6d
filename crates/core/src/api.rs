//! Public solver entry points (paper Theorem 1.2).

use crate::error::McfError;
use crate::init;
use crate::reference::{self, PathFollowConfig, PathStats};
use crate::robust;
use crate::rounding;
use pmcf_graph::{DiGraph, Flow, McfProblem};
use pmcf_pram::{Tracker, Workspace};

/// Which IPM engine to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Exact per-iteration recomputation: `Õ(m)` work / iteration (the
    /// [LS14] cost shape; numerically anchored).
    #[default]
    Reference,
    /// The paper's data-structure-driven engine: `Õ(m/√n + n)` accounted
    /// work / iteration (Theorem 1.2).
    Robust,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverConfig {
    /// Engine choice.
    pub engine: Engine,
    /// Path-following parameters.
    pub path: PathFollowConfig,
}

/// Which backend answers the max-flow corollary ([`max_flow_with`]).
/// All three return exact integral answers; they differ in cost shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaxFlowEngine {
    /// The IPM circulation reduction through [`solve_mcf`] (the
    /// Theorem 1.2 path; best charged depth on dense instances).
    #[default]
    Ipm,
    /// Sequential Dinic (`pmcf_baselines::dinic`; the classical
    /// comparator — lowest constant factors at small scale).
    Dinic,
    /// Synchronous parallel push-relabel
    /// (`pmcf_baselines::push_relabel`; BBS ESA 2015 — the
    /// wall-clock-competitive parallel engine).
    PushRelabel,
}

/// Map a baseline [`pmcf_baselines::FlowError`] onto the core error
/// vocabulary (same classes `validate_instance` uses).
fn flow_err(e: pmcf_baselines::FlowError) -> McfError {
    match e {
        pmcf_baselines::FlowError::InvalidInput(d) => McfError::invalid(d),
        pmcf_baselines::FlowError::Overflow(d) => McfError::overflow(d),
    }
}

/// Shared degenerate-input screen for the max-flow corollary: lengths,
/// endpoint ranges, `s == t`, negative capacities, and the `Σu < 2^62`
/// accumulation headroom — rejected as typed [`McfError`]s *before* any
/// reduction arithmetic (the circulation reduction sums capacities
/// unchecked, so this must run first).
pub fn validate_max_flow_input(
    graph: &DiGraph,
    cap: &[i64],
    s: usize,
    sink: usize,
) -> Result<(), McfError> {
    pmcf_baselines::push_relabel::validate_input(graph, cap, s, sink).map_err(flow_err)
}

/// A solved instance.
#[derive(Clone, Debug)]
pub struct McfSolution {
    /// The exact optimal integral flow.
    pub flow: Flow,
    /// Its cost.
    pub cost: i64,
    /// Path-following statistics.
    pub stats: PathStats,
}

/// Validate the documented magnitude precondition `C·W·m² < 2^62` plus
/// the internal headroom the big-M construction and the combinatorial
/// repair passes need, using checked arithmetic throughout — an
/// out-of-range instance is rejected with [`McfError::Overflow`] instead
/// of silently wrapping, and demands that provably exceed the total
/// capacity are [`McfError::Infeasible`] without running the IPM.
pub fn validate_instance(p: &McfProblem) -> Result<(), McfError> {
    let c = p.max_cost();
    let w = p.max_cap();
    let m = i64::try_from(p.m()).map_err(|_| McfError::overflow("edge count exceeds i64"))?;
    let n = i64::try_from(p.n()).map_err(|_| McfError::overflow("vertex count exceeds i64"))?;
    let cwm2 = m
        .checked_mul(m)
        .and_then(|m2| c.checked_mul(w).and_then(|cw| cw.checked_mul(m2)));
    match cwm2 {
        Some(v) if v < (1i64 << 62) => {}
        _ => {
            return Err(McfError::overflow(format!(
                "C·W·m² precondition violated (C={c}, W={w}, m={m} needs C·W·m² < 2^62)"
            )))
        }
    }
    // total capacity bounds every feasible flow; Σ|b| > 2·Σu is
    // unsatisfiable outright
    let total_cap = p
        .cap
        .iter()
        .try_fold(0i64, |a, &u| a.checked_add(u))
        .ok_or_else(|| McfError::overflow("total capacity Σu exceeds i64"))?;
    let total_demand = p
        .demand
        .iter()
        .try_fold(0i64, |a, &b| {
            a.checked_add(b.unsigned_abs().try_into().ok()?)
        })
        .ok_or(McfError::Infeasible)?; // Σ|b| overflowing i64 certainly exceeds 2·Σu
    if total_demand > total_cap.saturating_mul(2) {
        return Err(McfError::Infeasible);
    }
    // headroom: the rounding pipeline runs Bellman-Ford and Dijkstra
    // over a residual graph whose costs reach ±big-M; path sums and
    // potentials must stay in i64 with margin
    let big_m = init::checked_big_m(p)
        .ok_or_else(|| McfError::overflow("big-M construction: 2 + 4·Σ|c_e|·u_e exceeds i64"))?;
    match (n + 2).checked_mul(big_m) {
        Some(v) if v < (1i64 << 59) => Ok(()),
        _ => Err(McfError::overflow(format!(
            "path-cost headroom: (n+2)·big_M = (n+2)·{big_m} must stay below 2^59"
        ))),
    }
}

/// Exact minimum-cost `b`-flow: `min cᵀx, Aᵀx = b, 0 ≤ x ≤ u`.
///
/// Fails with [`McfError::Infeasible`] if the demands cannot be
/// satisfied, and [`McfError::Overflow`] if the instance violates the
/// `C·W·m² < 2^62` magnitude precondition (see [`validate_instance`]) —
/// the input is rejected instead of wrapping. A
/// [`McfError::NumericalFailure`] indicates a solver bug, never a
/// property of the instance.
///
/// ```
/// use pmcf_core::{solve_mcf, SolverConfig};
/// use pmcf_graph::{DiGraph, McfProblem};
/// use pmcf_pram::Tracker;
/// let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (0, 2)]);
/// let p = McfProblem::new(g, vec![2, 2, 1], vec![1, 1, 5], vec![-2, 0, 2]);
/// let mut t = Tracker::new();
/// let sol = solve_mcf(&mut t, &p, &SolverConfig::default()).unwrap();
/// assert_eq!(sol.cost, 4); // both units ride the cheap two-hop path
/// assert_eq!(sol.flow.x, vec![2, 2, 0]);
/// ```
///
/// (The doc example routes both units over the cheap two-hop path; the
/// expensive direct edge stays empty.)
pub fn solve_mcf(
    t: &mut Tracker,
    p: &McfProblem,
    cfg: &SolverConfig,
) -> Result<McfSolution, McfError> {
    solve(t, p, cfg, Start::Cold).map(|(sol, _)| sol)
}

/// Where a solve starts on the central path.
pub(crate) enum Start<'a> {
    /// The big-M extension's box-centre point with `y = 0` (App. F).
    Cold,
    /// A previous terminal point, repaired to satisfy `Aᵀx = b` on the
    /// current instance, and the checkpoint's buffer arena.
    Warm {
        /// Fractional primal point, one entry per edge.
        x: Vec<f64>,
        /// Dual potentials, one entry per vertex.
        y: Vec<f64>,
        /// Arena the engine runs against instead of a private one.
        ws: &'a Workspace,
    },
}

/// Terminal central-path point of a solve — the warm-start material a
/// [`crate::resolve::McfCheckpoint`] carries between solves. The driver
/// returns it in the original numbering; per component it is in the
/// component's numbering.
#[derive(Clone, Debug)]
pub(crate) struct WarmState {
    /// Final fractional primal iterate, one entry per edge (stripped
    /// edges carry `0`).
    pub x_frac: Vec<f64>,
    /// Final dual potentials, one entry per vertex (defined per component
    /// up to an additive shift, which `s = c − Ay` is invariant to).
    pub y: Vec<f64>,
}

/// The solve pipeline of Theorem 1.2: validate, strip zero-capacity
/// edges and self loops, split into connected components (the Laplacian
/// needs connectivity), solve each component from `start` and round it,
/// then assemble the answer and the terminal point a checkpoint keeps.
pub(crate) fn solve(
    t: &mut Tracker,
    p: &McfProblem,
    cfg: &SolverConfig,
    start: Start<'_>,
) -> Result<(McfSolution, WarmState), McfError> {
    validate_instance(p)?;
    let (n, m) = (p.n(), p.m());
    let keep: Vec<usize> = (0..m)
        .filter(|&e| {
            let (u, v) = p.graph.endpoints(e);
            p.cap[e] > 0 && u != v
        })
        .collect();
    let ug =
        pmcf_graph::UGraph::from_edges(n, keep.iter().map(|&e| p.graph.endpoints(e)).collect());
    let (comp, ncomp) = ug.components();
    let mut verts: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    let mut local_of = vec![0; n];
    for (v, &c) in comp.iter().enumerate() {
        local_of[v] = verts[c].len();
        verts[c].push(v);
    }
    let mut comp_edges: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for &e in &keep {
        comp_edges[comp[p.graph.endpoints(e).0]].push(e);
    }

    let mut x_all = vec![0i64; m];
    let mut stats = PathStats::default();
    let mut point = WarmState {
        x_frac: vec![0.0; m],
        y: vec![0.0; n],
    };
    for (verts, edges) in verts.iter().zip(&comp_edges) {
        if verts.len() == 1 {
            // isolated vertex: feasible iff zero demand
            if p.demand[verts[0]] != 0 {
                return Err(McfError::Infeasible);
            }
            continue;
        }
        // demands must balance within the component
        if verts.iter().map(|&v| p.demand[v]).sum::<i64>() != 0 {
            return Err(McfError::Infeasible);
        }
        let lp = McfProblem::new(
            DiGraph::from_edges(
                verts.len(),
                edges
                    .iter()
                    .map(|&e| {
                        let (u, v) = p.graph.endpoints(e);
                        (local_of[u], local_of[v])
                    })
                    .collect(),
            ),
            edges.iter().map(|&e| p.cap[e]).collect(),
            edges.iter().map(|&e| p.cost[e]).collect(),
            verts.iter().map(|&v| p.demand[v]).collect(),
        );
        let local_start = match &start {
            Start::Cold => Start::Cold,
            Start::Warm { x, y, ws } => Start::Warm {
                x: edges.iter().map(|&e| x[e]).collect(),
                y: verts.iter().map(|&v| y[v]).collect(),
                ws,
            },
        };
        let (x_local, st, local) = solve_component(t, &lp, cfg, local_start)?;
        for (le, &e) in edges.iter().enumerate() {
            x_all[e] = x_local[le];
            point.x_frac[e] = local.x_frac[le];
        }
        for (i, &v) in verts.iter().enumerate() {
            point.y[v] = local.y[i];
        }
        stats.merge(&st);
    }

    let flow = Flow { x: x_all };
    if !flow.is_feasible(p) {
        return Err(McfError::numerical(
            "assembled per-component optimum violates feasibility",
        ));
    }
    let cost = flow
        .try_cost(p)
        .ok_or_else(|| McfError::overflow("optimal cost cᵀx overflows i64"))?;
    Ok((McfSolution { flow, cost, stats }, point))
}

/// Solve one connected component (at least one edge) from `start`: path
/// following by the configured engine, then exact rounding. A cold start
/// runs on the big-M extension; a warm start runs on the component
/// itself, whose repaired point is already feasible, and falls back to a
/// cold start when it ends outside the ε-centered ball.
fn solve_component(
    t: &mut Tracker,
    p: &McfProblem,
    cfg: &SolverConfig,
    start: Start<'_>,
) -> Result<(Vec<i64>, PathStats, WarmState), McfError> {
    let ext;
    let (prob, x0, warm) = match start {
        Start::Cold => {
            ext = init::extend(p)?;
            (&ext.prob, ext.x0, None)
        }
        Start::Warm { x, y, ws } => (p, x, Some((y, ws))),
    };
    let mu_end = init::final_mu(prob);
    let mu0 = match &warm {
        None => init::initial_mu(prob, 0.25),
        Some((y, _)) => crate::resolve::warm_mu(t, prob, &x0, y, mu_end),
    };
    let is_warm = warm.is_some();
    let (state, stats) = match cfg.engine {
        Engine::Reference => reference::follow(t, prob, x0, warm, mu0, mu_end, &cfg.path),
        Engine::Robust => robust::follow(t, prob, x0, warm, mu0, mu_end, &cfg.path),
    };
    // A warm run that terminates outside the ε-centered ball cannot be
    // trusted (degenerate components whose feasible set has empty strict
    // interior have no central path at all without the big-M extension,
    // and no amount of recentering reaches one). Solve the component
    // again from a cold start, whose extension always carries the
    // auxiliary slack; its terminal fields replace the warm run's.
    if is_warm && (stats.final_centrality > 1.0 || stats.final_centrality.is_nan()) {
        t.counter("resolve.warm_fallbacks", 1);
        pmcf_obs::emit_with("resolve.warm_fallback", || {
            vec![
                ("centrality", stats.final_centrality.into()),
                ("m", p.m().into()),
            ]
        });
        let (x, cold, point) = solve_component(t, p, cfg, Start::Cold)?;
        // the warm run's work stays counted; its terminal point does not
        let mut total = PathStats {
            final_centrality: 0.0,
            ..stats
        };
        total.merge(&cold);
        return Ok((x, total, point));
    }
    let mut x = rounding::round_to_optimal(prob, &state.x)?.x;
    // feasible original instance ⇒ big-M drives aux flow to zero
    if x[p.m()..].iter().any(|&xe| xe != 0) {
        return Err(McfError::Infeasible); // demands not satisfiable without auxiliary edges
    }
    x.truncate(p.m());
    // aux coordinates are dropped from the terminal point: the aux flows
    // are ≈ 0 and the aux vertex does not survive into a resolve
    let mut point = WarmState {
        x_frac: state.x,
        y: state.y,
    };
    point.x_frac.truncate(p.m());
    point.y.truncate(p.n());
    Ok((x, stats, point))
}

/// [`solve_mcf`] that additionally returns an
/// [`McfCheckpoint`](crate::resolve::McfCheckpoint) for incremental
/// re-solves: each [`McfCheckpoint::resolve`](crate::resolve::McfCheckpoint::resolve)
/// applies a [`ResolveDelta`](crate::resolve::ResolveDelta) through the
/// dynamic expander decomposition and warm-starts the IPM from the
/// previous solve's terminal central-path point. The checkpoint is
/// returned even when the solve fails (the first resolve then falls back
/// to a fresh solve).
pub fn solve_mcf_checkpointed(
    t: &mut Tracker,
    p: &McfProblem,
    cfg: &SolverConfig,
) -> (crate::resolve::McfCheckpoint, Result<McfSolution, McfError>) {
    crate::resolve::McfCheckpoint::new(t, p, cfg)
}

/// Exact minimum-cost *maximum* s-t flow (Theorem 1.2's statement).
/// Returns `(flow on original edges, st value, cost)`. The original-cost
/// accumulation uses checked arithmetic: an overflow is rejected as
/// [`McfError::Overflow`] instead of silently wrapping.
pub fn min_cost_flow(
    t: &mut Tracker,
    graph: &DiGraph,
    cap: &[i64],
    cost: &[i64],
    s: usize,
    sink: usize,
    cfg: &SolverConfig,
) -> Result<(Flow, i64, i64), McfError> {
    validate_max_flow_input(graph, cap, s, sink)?;
    let (p, back) = McfProblem::min_cost_max_flow(graph, cap, cost, s, sink);
    let sol = solve_mcf(t, &p, cfg)?;
    let value = sol.flow.st_value(back);
    let x = sol.flow.x[..graph.m()].to_vec();
    let real_cost = x
        .iter()
        .zip(cost)
        .try_fold(0i64, |acc, (&f, &c)| acc.checked_add(f.checked_mul(c)?))
        .ok_or_else(|| McfError::overflow("s-t flow cost cᵀx overflows i64"))?;
    Ok((Flow { x }, value, real_cost))
}

/// Exact maximum s-t flow via the default engine (the IPM circulation
/// reduction). See [`max_flow_with`] for backend selection.
pub fn max_flow(
    t: &mut Tracker,
    graph: &DiGraph,
    cap: &[i64],
    s: usize,
    sink: usize,
    cfg: &SolverConfig,
) -> Result<(Flow, i64), McfError> {
    max_flow_with(t, graph, cap, s, sink, cfg, MaxFlowEngine::Ipm)
}

/// Exact maximum s-t flow through a selectable backend. Every engine
/// sees the same [`validate_max_flow_input`] screen first, so the
/// rejection class of a degenerate instance does not depend on the
/// engine choice (the differential harness races them on exactly that).
pub fn max_flow_with(
    t: &mut Tracker,
    graph: &DiGraph,
    cap: &[i64],
    s: usize,
    sink: usize,
    cfg: &SolverConfig,
    engine: MaxFlowEngine,
) -> Result<(Flow, i64), McfError> {
    validate_max_flow_input(graph, cap, s, sink)?;
    match engine {
        MaxFlowEngine::Ipm => {
            let (p, back) = McfProblem::max_flow(graph, cap, s, sink);
            let sol = solve_mcf(t, &p, cfg)?;
            let value = sol.flow.st_value(back);
            Ok((
                Flow {
                    x: sol.flow.x[..graph.m()].to_vec(),
                },
                value,
            ))
        }
        MaxFlowEngine::Dinic => {
            let (value, x) =
                pmcf_baselines::dinic::try_max_flow(graph, cap, s, sink).map_err(flow_err)?;
            Ok((Flow { x }, value))
        }
        MaxFlowEngine::PushRelabel => {
            let out =
                pmcf_baselines::push_relabel::max_flow(t, graph, cap, s, sink).map_err(flow_err)?;
            Ok((Flow { x: out.x }, out.value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_baselines::{dinic, ssp};
    use pmcf_graph::generators;

    #[test]
    fn matches_ssp_on_random_instances() {
        for seed in 0..5 {
            let p = generators::random_mcf(10, 36, 4, 3, seed);
            let opt = ssp::min_cost_flow(&p).unwrap();
            let mut t = Tracker::new();
            let sol = solve_mcf(&mut t, &p, &SolverConfig::default()).unwrap();
            assert!(sol.flow.is_feasible(&p), "seed {seed}");
            assert_eq!(sol.cost, opt.cost(&p), "seed {seed}");
        }
    }

    #[test]
    fn solve_mcf_reports_the_engine_counters() {
        // connected, capacities ≥ 1, no self loops: nothing is stripped
        // and the one component is the instance, so the pipeline's engine
        // run is exactly the direct call
        let p = generators::random_mcf(12, 42, 8, 6, 1);
        let ext = init::extend(&p).unwrap();
        let (mu0, mu_end) = (init::initial_mu(&ext.prob, 0.25), init::final_mu(&ext.prob));
        let counts = |s: &PathStats| {
            (
                s.iterations,
                s.newton_steps,
                s.cg_iterations,
                s.sampled_coords,
            )
        };
        for engine in [Engine::Reference, Engine::Robust] {
            let cfg = SolverConfig {
                engine,
                ..Default::default()
            };
            let sol = solve_mcf(&mut Tracker::new(), &p, &cfg).unwrap();
            let x0 = ext.x0.clone();
            let mut t = Tracker::new();
            let (_, direct) = match engine {
                Engine::Reference => {
                    reference::path_follow(&mut t, &ext.prob, x0, mu0, mu_end, &cfg.path)
                }
                Engine::Robust => {
                    robust::path_follow(&mut t, &ext.prob, x0, mu0, mu_end, &cfg.path)
                }
            };
            assert_eq!(counts(&sol.stats), counts(&direct), "{engine:?}");
        }
    }

    #[test]
    fn max_flow_matches_dinic() {
        for seed in 0..3 {
            let (g, cap) = generators::random_max_flow(10, 30, 5, seed);
            let (want, _) = dinic::max_flow(&g, &cap, 0, 9);
            let mut t = Tracker::new();
            let (flow, got) = max_flow(&mut t, &g, &cap, 0, 9, &SolverConfig::default()).unwrap();
            assert_eq!(got, want, "seed {seed}");
            // it's a real flow
            let mut net = vec![0i64; g.n()];
            for (e, &(u, v)) in g.edges().iter().enumerate() {
                net[u] -= flow.x[e];
                net[v] += flow.x[e];
                assert!(flow.x[e] >= 0 && flow.x[e] <= cap[e]);
            }
            for &nv in &net[1..9] {
                assert_eq!(nv, 0);
            }
        }
    }

    #[test]
    fn all_three_max_flow_engines_agree() {
        for seed in 0..3 {
            let (g, cap) = generators::random_max_flow(10, 30, 5, seed);
            let mut t = Tracker::new();
            let cfg = SolverConfig::default();
            let mut answers = Vec::new();
            for eng in [
                MaxFlowEngine::Ipm,
                MaxFlowEngine::Dinic,
                MaxFlowEngine::PushRelabel,
            ] {
                let (flow, value) = max_flow_with(&mut t, &g, &cap, 0, 9, &cfg, eng).unwrap();
                // every engine returns a feasible flow of its value
                let mut net = vec![0i64; g.n()];
                for (e, &(u, v)) in g.edges().iter().enumerate() {
                    assert!(flow.x[e] >= 0 && flow.x[e] <= cap[e], "{eng:?} seed {seed}");
                    net[u] -= flow.x[e];
                    net[v] += flow.x[e];
                }
                for &nv in &net[1..9] {
                    assert_eq!(nv, 0, "{eng:?} seed {seed}");
                }
                assert_eq!(net[9], value, "{eng:?} seed {seed}");
                answers.push(value);
            }
            assert_eq!(answers[0], answers[1], "seed {seed}");
            assert_eq!(answers[1], answers[2], "seed {seed}");
        }
    }

    #[test]
    fn max_flow_degenerates_reject_identically_across_engines() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let cfg = SolverConfig::default();
        // (caps, s, t, expected kind)
        let cases: [(&[i64], usize, usize, &str); 4] = [
            (&[1, 1], 0, 0, "invalid_input"),
            (&[1, 1], 0, 7, "invalid_input"),
            (&[-2, 1], 0, 2, "invalid_input"),
            (&[1i64 << 61, 1i64 << 61], 0, 2, "overflow"),
        ];
        for (cap, s, t, kind) in cases {
            for eng in [
                MaxFlowEngine::Ipm,
                MaxFlowEngine::Dinic,
                MaxFlowEngine::PushRelabel,
            ] {
                let mut tr = Tracker::new();
                let err = max_flow_with(&mut tr, &g, cap, s, t, &cfg, eng).unwrap_err();
                assert_eq!(err.kind(), kind, "{eng:?} caps {cap:?} s={s} t={t}");
            }
        }
    }

    #[test]
    fn min_cost_max_flow_is_cheapest_max_flow() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]);
        let cap = vec![2, 2, 2, 2, 2];
        let cost = vec![1, 10, 1, 1, 1];
        let mut t = Tracker::new();
        let (flow, value, c) =
            min_cost_flow(&mut t, &g, &cap, &cost, 0, 3, &SolverConfig::default()).unwrap();
        assert_eq!(value, 4, "max flow saturates both source edges");
        // cheapest routing: 2 via 0→1→3 (cost 4), 2 via 0→2→3 (cost 22)
        // or reroute 0→2 …: max flow forces both source edges full, so
        // cost = 2·1 + 2·10 + routing; best is x = [2,2,2,2,0] → 26
        assert_eq!(c, 26);
        assert_eq!(flow.x, vec![2, 2, 2, 2, 0]);
    }

    #[test]
    fn infeasible_demand_is_typed() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let p = McfProblem::new(g, vec![1], vec![1], vec![-5, 5]);
        let mut t = Tracker::new();
        assert!(matches!(
            solve_mcf(&mut t, &p, &SolverConfig::default()),
            Err(McfError::Infeasible)
        ));
    }

    #[test]
    fn disconnected_s_t_demand_is_infeasible_not_a_panic() {
        // two components, demand crossing the cut
        let g = DiGraph::from_edges(4, vec![(0, 1), (2, 3)]);
        let p = McfProblem::new(g, vec![5, 5], vec![1, 1], vec![-2, 0, 0, 2]);
        let mut t = Tracker::new();
        assert!(matches!(
            solve_mcf(&mut t, &p, &SolverConfig::default()),
            Err(McfError::Infeasible)
        ));
    }

    #[test]
    fn overflow_boundary_inputs_are_rejected_not_wrapped() {
        // C·W·m² ≥ 2^62: rejected by validation, never silently wrapped
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let huge = 1i64 << 61;
        let p = McfProblem::new(g, vec![4], vec![huge], vec![-4, 4]);
        let mut t = Tracker::new();
        match solve_mcf(&mut t, &p, &SolverConfig::default()) {
            Err(McfError::Overflow { .. }) => {}
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn in_range_magnitudes_pass_validation() {
        let p = generators::random_mcf(10, 36, 4, 3, 1);
        assert!(validate_instance(&p).is_ok());
    }

    #[test]
    fn zero_cap_edges_and_self_loops_are_tolerated() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 1), (1, 2), (0, 2)]);
        let p = McfProblem::new(g, vec![3, 5, 3, 0], vec![1, -100, 1, 0], vec![-2, 0, 2]);
        let mut t = Tracker::new();
        let sol = solve_mcf(&mut t, &p, &SolverConfig::default()).unwrap();
        assert_eq!(sol.flow.x[1], 0, "self loop carries nothing");
        assert_eq!(sol.flow.x[3], 0, "zero-cap edge carries nothing");
        assert_eq!(sol.cost, 4);
    }

    #[test]
    fn disconnected_components_solved_independently() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (2, 3)]);
        let p = McfProblem::new(g, vec![2, 2], vec![3, 5], vec![-1, 1, -2, 2]);
        let mut t = Tracker::new();
        let sol = solve_mcf(&mut t, &p, &SolverConfig::default()).unwrap();
        assert_eq!(sol.flow.x, vec![1, 2]);
        assert_eq!(sol.cost, 13);
    }
}
