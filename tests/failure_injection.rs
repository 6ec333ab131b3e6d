//! Failure injection and pathological-instance battery: the solver must
//! either produce the certified optimum or cleanly report infeasibility,
//! never panic or return a wrong answer.

use pmcf_baselines::ssp;
use pmcf_core::{
    solve_mcf, solve_mcf_checkpointed, Engine, McfError, McfSolution, ResolveDelta, SolverConfig,
};
use pmcf_graph::{generators, DiGraph, McfProblem};
use pmcf_pram::Tracker;

/// Run `p` on both engines through both starts — a fresh solve, then a
/// checkpoint and an empty-delta resolve, which still runs the whole warm
/// path (or the fresh fallback when the base solve failed) — and hold
/// every answer to the SSP oracle's verdict and cost.
fn check(p: &McfProblem, label: &str) {
    let want = ssp::min_cost_flow(p);
    let agrees = |got: Result<McfSolution, McfError>, run: &str| match (&want, got) {
        (Some(w), Ok(g)) => {
            assert!(g.flow.is_feasible(p), "{label} ({run}): infeasible output");
            assert_eq!(g.cost, w.cost(p), "{label} ({run}): wrong cost");
        }
        (None, Err(McfError::Infeasible)) => {}
        (w, g) => panic!(
            "{label} ({run}): oracle feasible={} but solver said {:?}",
            w.is_some(),
            g.map(|s| s.cost)
        ),
    };
    for engine in [Engine::Reference, Engine::Robust] {
        let cfg = SolverConfig {
            engine,
            ..Default::default()
        };
        let mut t = Tracker::new();
        agrees(solve_mcf(&mut t, p, &cfg), &format!("{engine:?}, fresh"));
        let (mut ck, first) = solve_mcf_checkpointed(&mut t, p, &cfg);
        agrees(first, &format!("{engine:?}, checkpoint"));
        let resolved = ck.resolve(&mut t, &ResolveDelta::default());
        agrees(resolved, &format!("{engine:?}, resolve"));
    }
}

#[test]
fn single_edge_graphs() {
    let g = DiGraph::from_edges(2, vec![(0, 1)]);
    check(
        &McfProblem::new(g.clone(), vec![5], vec![3], vec![-5, 5]),
        "saturated single edge",
    );
    check(
        &McfProblem::new(g.clone(), vec![5], vec![-3], vec![0, 0]),
        "negative-cost circulation on a single edge (none possible)",
    );
    check(
        &McfProblem::new(g, vec![5], vec![3], vec![-6, 6]),
        "over-capacity demand (infeasible)",
    );
}

#[test]
fn path_graphs_and_bottlenecks() {
    let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    check(
        &McfProblem::new(
            g.clone(),
            vec![9, 1, 9, 9],
            vec![1, 1, 1, 1],
            vec![-1, 0, 0, 0, 1],
        ),
        "tight middle bottleneck",
    );
    check(
        &McfProblem::new(g, vec![9, 0, 9, 9], vec![1, 1, 1, 1], vec![-1, 0, 0, 0, 1]),
        "zero-capacity cut (infeasible)",
    );
}

#[test]
fn complete_graph_with_all_negative_costs() {
    let mut edges = Vec::new();
    for u in 0..5 {
        for v in 0..5 {
            if u != v {
                edges.push((u, v));
            }
        }
    }
    let m = edges.len();
    let g = DiGraph::from_edges(5, edges);
    check(
        &McfProblem::circulation(g, vec![2; m], vec![-1; m]),
        "all-negative complete circulation",
    );
}

#[test]
fn parallel_edges_with_different_costs() {
    let g = DiGraph::from_edges(2, vec![(0, 1), (0, 1), (0, 1)]);
    check(
        &McfProblem::new(g, vec![2, 2, 2], vec![5, 1, 3], vec![-4, 4]),
        "parallel edges must fill cheapest first",
    );
}

#[test]
fn zero_cost_everything() {
    let p = generators::random_mcf(8, 24, 4, 0, 3);
    check(&p, "all-zero costs");
}

#[test]
fn extreme_capacity_spread() {
    let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (0, 2)]);
    check(
        &McfProblem::new(
            g,
            vec![1_000_000, 1_000_000, 1],
            vec![1, 1, 0],
            vec![-1_000_000, 0, 1_000_000],
        ),
        "million-unit flow",
    );
}

#[test]
fn demands_on_isolated_vertices() {
    let g = DiGraph::from_edges(4, vec![(0, 1)]);
    check(
        &McfProblem::new(g.clone(), vec![3], vec![1], vec![-1, 1, 0, 0]),
        "isolated vertices with zero demand",
    );
    check(
        &McfProblem::new(g, vec![3], vec![1], vec![-1, 0, 0, 1]),
        "demand on an isolated vertex (infeasible)",
    );
}

#[test]
fn twenty_random_stress_instances() {
    for seed in 100..120 {
        let n = 6 + (seed as usize) % 5;
        let p = generators::random_mcf(n, 3 * n, 4, 4, seed);
        check(&p, &format!("stress seed {seed}"));
    }
}
