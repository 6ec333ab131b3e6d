//! Rounding the interior iterate to an exact integral optimum.
//!
//! The paper (§2.2) rounds coordinates to the nearest integer once the
//! duality gap is below ½. Our pipeline makes exactness *unconditional*:
//!
//! 1. round `x` coordinate-wise and clamp into `[0, u]`,
//! 2. repair conservation with a min-cost `b`-flow on the residual graph.
//!    This is not a few augmenting paths: `ssp::min_cost_flow`
//!    pre-saturates every negative-cost residual arc, so the repair costs
//!    about one full sequential SSP solve, uncharged (the benchmark's
//!    `round.round_s` ≈ `baselines.ssp_s`). ROADMAP item 2 replaces it
//!    with a repair seeded from the IPM's duals,
//! 3. cancel negative cycles in the residual graph until none remain —
//!    the classical optimality certificate: an integral flow is
//!    minimum-cost **iff** its residual has no negative cycle.
//!
//! Step 3 certifies the output even if the IPM stopped early; it just
//! performs more cancellations then.

use crate::error::McfError;
use pmcf_baselines::ssp;
use pmcf_graph::{DiGraph, Flow, McfProblem};

/// Round, repair, and certify. Fails with [`McfError::Infeasible`] if
/// the instance has no feasible flow at all, and with
/// [`McfError::InvalidInput`] / [`McfError::NumericalFailure`] on
/// malformed iterates instead of panicking (or, worse, silently looping
/// in release builds).
pub fn round_to_optimal(p: &McfProblem, x: &[f64]) -> Result<Flow, McfError> {
    if x.len() != p.m() {
        return Err(McfError::invalid(format!(
            "iterate length {} does not match edge count {}",
            x.len(),
            p.m()
        )));
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(McfError::numerical("iterate contains NaN/∞ coordinates"));
    }
    let mut xi: Vec<i64> = x
        .iter()
        .zip(&p.cap)
        .map(|(&v, &u)| (v.round() as i64).clamp(0, u))
        .collect();

    // repair conservation: route the imbalance through the residual graph
    let imb = p.imbalance(&xi); // Aᵀx − b per vertex
    if imb.iter().any(|&r| r != 0) {
        // the correction y must satisfy Aᵀy = b − Aᵀx = −imb
        let need: Vec<i64> = imb.iter().map(|&r| -r).collect();
        let correction = residual_flow(p, &xi, &need).ok_or(McfError::Infeasible)?;
        for (e, d) in correction.iter().enumerate() {
            xi[e] += d;
        }
    }
    debug_assert!(p.imbalance(&xi).iter().all(|&r| r == 0));

    // certify optimality: cancel negative residual cycles
    cancel_negative_cycles(p, &mut xi)?;
    let f = Flow { x: xi };
    if !f.is_feasible(p) {
        return Err(McfError::numerical(
            "repaired flow violates feasibility after cycle cancelling",
        ));
    }
    Ok(f)
}

/// Solve a min-cost `demand`-flow on the residual graph of `x`; returns
/// the signed per-edge correction.
fn residual_flow(p: &McfProblem, x: &[i64], demand: &[i64]) -> Option<Vec<i64>> {
    // residual: forward arcs (cap u−x, cost c), backward arcs (cap x,
    // cost −c) — encode backward arcs as extra edges of a residual
    // McfProblem and map back.
    let mut edges = Vec::new();
    let mut cap = Vec::new();
    let mut cost = Vec::new();
    let mut kind = Vec::new(); // (orig edge, +1/-1)
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        if p.cap[e] - x[e] > 0 {
            edges.push((u, v));
            cap.push(p.cap[e] - x[e]);
            cost.push(p.cost[e]);
            kind.push((e, 1i64));
        }
        if x[e] > 0 {
            edges.push((v, u));
            cap.push(x[e]);
            cost.push(-p.cost[e]);
            kind.push((e, -1i64));
        }
    }
    let rp = McfProblem::new(
        DiGraph::from_edges(p.n(), edges),
        cap,
        cost,
        demand.to_vec(),
    );
    let rf = ssp::min_cost_flow(&rp)?;
    let mut out = vec![0i64; p.m()];
    for (re, &(e, sign)) in kind.iter().enumerate() {
        out[e] += sign * rf.x[re];
    }
    Some(out)
}

/// Bellman-Ford-based negative-cycle cancelling on the residual graph.
/// Each cancellation strictly decreases cost; terminates at optimality.
///
/// Degenerate inputs surface as errors: a length-mismatched flow is
/// [`McfError::InvalidInput`], and a zero-bottleneck cycle (which would
/// previously pass a `debug_assert!` silently in release builds and
/// then loop forever, cancelling nothing) is
/// [`McfError::NumericalFailure`].
pub fn cancel_negative_cycles(p: &McfProblem, x: &mut [i64]) -> Result<(), McfError> {
    if x.len() != p.m() {
        return Err(McfError::invalid(format!(
            "flow length {} does not match edge count {}",
            x.len(),
            p.m()
        )));
    }
    if x.iter().zip(&p.cap).any(|(&xi, &u)| xi < 0 || xi > u) {
        return Err(McfError::invalid(
            "flow violates capacity bounds; residual graph undefined",
        ));
    }
    loop {
        let Some(cycle) = find_negative_cycle(p, x) else {
            return Ok(());
        };
        if cycle.is_empty() {
            return Err(McfError::numerical("extracted an empty residual cycle"));
        }
        // bottleneck residual capacity around the cycle
        let mut bott = i64::MAX;
        for &(e, fwd) in &cycle {
            let r = if fwd { p.cap[e] - x[e] } else { x[e] };
            bott = bott.min(r);
        }
        if bott <= 0 {
            return Err(McfError::numerical(format!(
                "zero-bottleneck residual cycle of {} arcs: cancelling cannot progress",
                cycle.len()
            )));
        }
        for &(e, fwd) in &cycle {
            if fwd {
                x[e] += bott;
            } else {
                x[e] -= bott;
            }
        }
    }
}

/// Find one negative-cost cycle in the residual graph of `x`, as a list
/// of `(edge, is_forward)`; `None` if the flow is optimal.
fn find_negative_cycle(p: &McfProblem, x: &[i64]) -> Option<Vec<(usize, bool)>> {
    let n = p.n();
    // residual arcs: (from, to, cost, edge, forward)
    let mut arcs = Vec::new();
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        if p.cap[e] - x[e] > 0 {
            arcs.push((u, v, p.cost[e], e, true));
        }
        if x[e] > 0 {
            arcs.push((v, u, -p.cost[e], e, false));
        }
    }
    // Bellman-Ford from a virtual source to all (dist 0 everywhere)
    let mut dist = vec![0i64; n];
    let mut pre: Vec<Option<usize>> = vec![None; n]; // arc index
    let mut last_relaxed = None;
    for _ in 0..n {
        last_relaxed = None;
        for (ai, &(u, v, c, _, _)) in arcs.iter().enumerate() {
            if dist[u] + c < dist[v] {
                dist[v] = dist[u] + c;
                pre[v] = Some(ai);
                last_relaxed = Some(v);
            }
        }
        last_relaxed?;
    }
    // a vertex relaxed in round n is on/reaches a negative cycle: walk
    // back n steps to land on the cycle, then extract it
    let mut v = last_relaxed?;
    for _ in 0..n {
        let ai = pre[v]?;
        v = arcs[ai].0;
    }
    let start = v;
    let mut cycle = Vec::new();
    loop {
        let ai = pre[v]?;
        let (u, _, _, e, fwd) = arcs[ai];
        cycle.push((e, fwd));
        v = u;
        if v == start {
            break;
        }
    }
    cycle.reverse();
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    #[test]
    fn near_optimal_fractional_rounds_exactly() {
        for seed in 0..6 {
            let p = generators::random_mcf(8, 24, 3, 3, seed);
            let opt = ssp::min_cost_flow(&p).unwrap();
            // perturb the optimum fractionally
            let x: Vec<f64> = opt
                .x
                .iter()
                .enumerate()
                .map(|(e, &v)| v as f64 + 0.3 * (((e * 7 + seed as usize) % 5) as f64 - 2.0) / 5.0)
                .collect();
            let rounded = round_to_optimal(&p, &x).unwrap();
            assert!(rounded.is_feasible(&p), "seed {seed}");
            assert_eq!(rounded.cost(&p), opt.cost(&p), "seed {seed}");
        }
    }

    #[test]
    fn garbage_input_still_certified_optimal() {
        // even starting from a terrible point, cancelling certifies the
        // optimum (this is the unconditional-exactness property)
        for seed in 0..4 {
            let p = generators::random_mcf(6, 18, 3, 4, seed + 20);
            let opt = ssp::min_cost_flow(&p).unwrap();
            let x = vec![0.0; p.m()]; // wildly infeasible for b ≠ 0
            let rounded = round_to_optimal(&p, &x).unwrap();
            assert!(rounded.is_feasible(&p), "seed {seed}");
            assert_eq!(rounded.cost(&p), opt.cost(&p), "seed {seed}");
        }
    }

    #[test]
    fn negative_cycle_cancelling_reaches_optimum() {
        // circulation with a profitable cycle: start at zero flow
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let p = McfProblem::circulation(g, vec![4, 4, 4], vec![1, 1, -5]);
        let mut x = vec![0i64; 3];
        cancel_negative_cycles(&p, &mut x).unwrap();
        assert_eq!(x, vec![4, 4, 4]);
    }

    #[test]
    fn already_optimal_is_untouched() {
        let p = generators::random_mcf(8, 24, 4, 3, 31);
        let opt = ssp::min_cost_flow(&p).unwrap();
        let mut x = opt.x.clone();
        cancel_negative_cycles(&p, &mut x).unwrap();
        assert_eq!(x, opt.x, "optimal flow must be a fixed point");
    }
}
