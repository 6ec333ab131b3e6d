//! Initial-point construction (paper Appendix F / [vdBLL+21] §8).
//!
//! The IPM needs a strictly interior primal point with `Aᵀx = b` and a
//! dual-feasible `s = c − Ay` that is approximately centered for the
//! starting `μ`. We use the standard auxiliary-vertex construction:
//!
//! * every original edge starts at its box center `x_e = u_e/2`, where
//!   `φ'(x_e) = 0` — so with `y = 0` (hence `s = c`) the centrality error
//!   is `|c_e| / (μ τ_e √φ''_e)`, which vanishes for large `μ`;
//! * the resulting imbalance `d = b − Aᵀ(u/2)` is absorbed by auxiliary
//!   edges between each imbalanced vertex and a fresh vertex `z`, sized
//!   `2|d_v|` so that *they* also start at their centers;
//! * auxiliary edges carry a `big-M` cost, so the LP optimum drives them
//!   to zero whenever the original instance is feasible.

use crate::error::McfError;
use pmcf_graph::{DiGraph, McfProblem};

/// The extended problem plus bookkeeping to map back.
pub struct Extended {
    /// The extended instance (original edges first, then auxiliaries).
    pub prob: McfProblem,
    /// Number of original edges.
    pub m_orig: usize,
    /// The auxiliary vertex (`= n_orig`), or `None` if no aux edges were
    /// needed.
    pub aux_vertex: Option<usize>,
    /// Initial interior point (box centers).
    pub x0: Vec<f64>,
    /// The big-M cost used on auxiliary edges.
    pub big_m: i64,
}

/// The big-M cost that dominates any achievable original cost, or
/// `None` if its construction would overflow `i64` (the caller must
/// reject the instance instead of letting the arithmetic wrap).
pub fn checked_big_m(p: &McfProblem) -> Option<i64> {
    let mut sum: i64 = 0;
    for (&c, &u) in p.cost.iter().zip(&p.cap) {
        let abs: i64 = c.unsigned_abs().try_into().ok()?;
        sum = sum.checked_add(abs.checked_mul(u)?)?;
    }
    sum.checked_mul(4)?.checked_add(2)
}

/// Build the extended instance. Edges with zero capacity are kept but
/// pinned (the engines skip them); self-loops are tolerated and ignored.
/// Fails with [`McfError::Overflow`] when the big-M construction would
/// overflow `i64`.
pub fn extend(p: &McfProblem) -> Result<Extended, McfError> {
    let n = p.n();
    let m = p.m();
    // centre of the box per edge; zero-capacity edges are frozen at 0
    let x0_orig: Vec<f64> = p.cap.iter().map(|&u| u as f64 / 2.0).collect();
    // imbalance d = b − Aᵀ x0
    let mut d: Vec<f64> = p.demand.iter().map(|&b| b as f64).collect();
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        d[u] += x0_orig[e];
        d[v] -= x0_orig[e];
    }
    let imbalanced: Vec<(usize, f64)> = d
        .iter()
        .enumerate()
        .filter(|&(_, &dv)| dv.abs() > 1e-9)
        .map(|(v, &dv)| (v, dv))
        .collect();

    let big_m = checked_big_m(p)
        .ok_or_else(|| McfError::overflow("big-M construction: 2 + 4·Σ|c_e|·u_e exceeds i64"))?;

    if imbalanced.is_empty() {
        return Ok(Extended {
            prob: p.clone(),
            m_orig: m,
            aux_vertex: None,
            x0: x0_orig,
            big_m,
        });
    }

    let z = n; // auxiliary vertex
    let mut edges = p.graph.edges().to_vec();
    let mut cap = p.cap.clone();
    let mut cost = p.cost.clone();
    let mut x0 = x0_orig;
    for &(v, dv) in &imbalanced {
        // d_v > 0: v needs net inflow d_v → edge z→v at x0 = d_v, cap 2d_v
        // d_v < 0: v needs net outflow → edge v→z
        // The capacity must be *exactly* 2|d_v| so that x0 sits at the box
        // center (φ' = 0 there, which is what makes the initial point
        // centered for large μ). 2|d_v| is always integral: imbalances are
        // half-integers because x0 is half the (integer) capacities.
        let need = dv.abs();
        let cap_aux = (2.0 * need).round() as i64;
        if dv > 0.0 {
            edges.push((z, v));
        } else {
            edges.push((v, z));
        }
        cap.push(cap_aux.max(1));
        cost.push(big_m);
        x0.push(need);
    }
    let mut demand = p.demand.clone();
    demand.push(0);
    let graph = DiGraph::from_edges(n + 1, edges);
    Ok(Extended {
        prob: McfProblem::new(graph, cap, cost, demand),
        m_orig: m,
        aux_vertex: Some(z),
        x0,
        big_m,
    })
}

/// The starting path parameter: large enough that the box-center point is
/// `ε`-centered for `s = c` and `τ ≥ n/m` (see module docs).
pub fn initial_mu(p: &McfProblem, eps: f64) -> f64 {
    let c_max = p.max_cost().max(1) as f64;
    let w_max = p.max_cap().max(1) as f64;
    let ratio = p.m() as f64 / p.n() as f64;
    // centrality_e = |c_e| u_e/(2√2 μ τ_e) ≤ c_max·w_max·ratio/(2√2 μ)
    8.0 * c_max * w_max * ratio / eps
}

/// The final path parameter: small enough that the duality gap is below
/// `1/4`. The paper rounds the iterate directly at that gap, but small
/// integer costs leave a whole optimal face and the path converges to
/// its fractional centre, so the rounded point is usually still
/// imbalanced. [`crate::rounding::round_to_optimal`] then routes just
/// that imbalance: on `table1_mcf --seed 42` Σ|imb| ≤ 18 takes Σ|imb|/2
/// one-unit paths, about 20k arc scans at n = 144 (its `round.repair`
/// event).
pub fn final_mu(p: &McfProblem) -> f64 {
    // gap ≈ μ · Σ τ ≈ μ · 2n (Στ = Σσ + m·(n/m) ≤ 2n)
    1.0 / (16.0 * (p.n() as f64 + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{centrality, CentralPathState};
    use pmcf_graph::generators;

    #[test]
    fn extension_is_primal_feasible_at_x0() {
        for seed in 0..5 {
            let p = generators::random_mcf(10, 30, 6, 4, seed);
            let ext = extend(&p).unwrap();
            // Aᵀ x0 = b on the extended instance
            let mut net: Vec<f64> = ext.prob.demand.iter().map(|&b| -b as f64).collect();
            for (e, &(u, v)) in ext.prob.graph.edges().iter().enumerate() {
                net[u] -= ext.x0[e];
                net[v] += ext.x0[e];
            }
            for (v, r) in net.iter().enumerate() {
                assert!(r.abs() < 1e-9, "seed {seed} vertex {v}: residual {r}");
            }
            // interior: 0 < x0 < cap for positive-cap edges
            for (e, &x) in ext.x0.iter().enumerate() {
                let u = ext.prob.cap[e] as f64;
                if u > 0.0 {
                    assert!(x > 0.0 && x < u, "edge {e}: {x} vs cap {u}");
                }
            }
        }
    }

    #[test]
    fn balanced_instance_needs_no_aux() {
        // circulation with even caps: u/2 is already balanced iff Aᵀ(u/2)=0
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let p = McfProblem::circulation(g, vec![4, 4, 4], vec![1, 2, 3]);
        let ext = extend(&p).unwrap();
        assert!(ext.aux_vertex.is_none());
        assert_eq!(ext.prob.m(), 3);
    }

    #[test]
    fn big_m_dominates_any_original_cost() {
        let p = generators::random_mcf(8, 20, 5, 7, 3);
        let ext = extend(&p).unwrap();
        let max_gain: i64 = p
            .cost
            .iter()
            .zip(&p.cap)
            .map(|(&c, &u)| c.unsigned_abs() as i64 * u)
            .sum();
        assert!(ext.big_m > 2 * max_gain);
    }

    #[test]
    fn initial_point_is_centered_for_large_mu() {
        // the construction promises ε-centering at μ₀ by design
        let p = generators::random_mcf(9, 27, 5, 4, 3);
        let ext = extend(&p).unwrap();
        let (n, m) = (ext.prob.n(), ext.prob.m());
        let st = CentralPathState {
            x: ext.x0.clone(),
            y: vec![0.0; n],
            s: ext.prob.cost.iter().map(|&c| c as f64).collect(),
            tau: vec![n as f64 / m as f64; m],
            mu: initial_mu(&ext.prob, 0.25),
        };
        let cap: Vec<f64> = ext.prob.cap.iter().map(|&u| u as f64).collect();
        let (_, worst) = centrality(&st, &cap);
        assert!(worst <= 0.5, "initial centrality {worst}");
    }

    #[test]
    fn mu_bounds_are_ordered() {
        let p = generators::random_mcf(12, 40, 8, 6, 4);
        assert!(initial_mu(&p, 0.1) > final_mu(&p) * 100.0);
    }
}
