//! Rounding the interior iterate to an exact integral optimum.
//!
//! The paper (§2.2) rounds coordinates to the nearest integer once the
//! duality gap is below ½. Our pipeline makes exactness *unconditional*
//! by repairing the rounded point in place:
//!
//! 1. round `x` coordinate-wise and clamp into `[0, u]`;
//! 2. run Bellman–Ford on the residual graph of that pseudo-flow
//!    (bounds hold, conservation need not) and cancel any negative
//!    cycle it finds. The distances it ends with are potentials π under
//!    which every residual arc has a non-negative reduced cost
//!    `c_e + π_u − π_v`;
//! 3. route only the rounded point's imbalance: successive shortest
//!    paths by Dijkstra on reduced costs, from every excess vertex to
//!    the nearest deficit, updating π after each path so reduced-cost
//!    optimality holds throughout;
//! 4. certify in O(m): bounds, conservation and a non-negative reduced
//!    cost under π on every residual arc. By LP duality that is the
//!    classical certificate — the residual graph has no negative cycle —
//!    so the integral flow is minimum-cost.
//!
//! The repair is a backstop whose size the `round.repair` event records.
//! Small integer costs leave a whole optimal face and the path converges
//! to its fractional centre, so the rounded point is usually imbalanced.
//! On `table1_mcf --seed 42` (n = 36–144, all engines) Σ|imb| is 0–18,
//! Bellman–Ford settles in 5–8 rounds and cancels nothing, and every
//! path moves one unit, Σ|imb|/2 paths in all. At n = 144 the repair
//! scans about 20k arcs, where the full SSP re-solve it replaced scanned
//! 1.31M (EXPERIMENTS.md, E-REPAIR). It is sequential and not yet
//! charged to the [`pmcf_pram::Tracker`].

use crate::error::McfError;
use pmcf_graph::{Flow, McfProblem};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one repair did: the fields of the `round.repair` event.
#[derive(Debug, Default)]
pub(crate) struct RepairStats {
    /// Σ|imb| of the rounded point.
    pub imbalance: u64,
    pub bf_rounds: u64,
    pub cancellations: u64,
    /// Augmenting paths routed.
    pub paths: u64,
    /// Residual arcs Bellman–Ford relaxed, adjacency entries Dijkstra
    /// scanned and residual arcs the certificate checked.
    pub arc_scans: u64,
}

/// Round, repair, and certify. Fails with [`McfError::Infeasible`] if
/// the instance has no feasible flow at all, with
/// [`McfError::Overflow`] if a potential leaves `i64`, and with
/// [`McfError::InvalidInput`] / [`McfError::NumericalFailure`] on
/// malformed iterates or a failed certificate instead of panicking (or,
/// worse, silently looping in release builds).
pub fn round_to_optimal(p: &McfProblem, x: &[f64]) -> Result<Flow, McfError> {
    let mut stats = RepairStats::default();
    let flow = repair(p, x, &mut stats);
    pmcf_obs::emit_with("round.repair", || {
        vec![
            ("m", p.m().into()),
            ("imbalance", stats.imbalance.into()),
            ("bf_rounds", stats.bf_rounds.into()),
            ("cancellations", stats.cancellations.into()),
            ("paths", stats.paths.into()),
            ("arc_scans", stats.arc_scans.into()),
        ]
    });
    flow
}

/// [`round_to_optimal`]'s body, recording what it did in `stats`.
pub(crate) fn repair(p: &McfProblem, x: &[f64], stats: &mut RepairStats) -> Result<Flow, McfError> {
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
    let mut imb = p.imbalance(&xi); // Aᵀx − b per vertex
    stats.imbalance = imb.iter().map(|r| r.unsigned_abs()).sum();
    let mut pi = cancel(p, &mut xi, stats)?;
    // cancelling moves flow around cycles only: the imbalance stands
    route_imbalance(p, &mut xi, &mut imb, &mut pi, stats)?;
    stats.arc_scans += certify(p, &xi, &pi)?;
    Ok(Flow { x: xi })
}

/// Bellman-Ford-based negative-cycle cancelling on the residual graph
/// of `x`, which must respect the bounds but need not conserve flow.
/// Each cancellation strictly decreases cost. Returns the potentials π
/// Bellman–Ford ended with: every residual arc `u → v` of cost `c` has
/// `c + π_u − π_v ≥ 0`, which for a conserving `x` certifies it optimal.
///
/// Degenerate inputs surface as errors: a length-mismatched or
/// out-of-bounds flow is [`McfError::InvalidInput`], a zero-bottleneck
/// cycle (which would otherwise loop forever, cancelling nothing) is
/// [`McfError::NumericalFailure`], and a distance leaving `i64` is
/// [`McfError::Overflow`].
pub fn cancel_negative_cycles(p: &McfProblem, x: &mut [i64]) -> Result<Vec<i64>, McfError> {
    cancel(p, x, &mut RepairStats::default())
}

fn cancel(p: &McfProblem, x: &mut [i64], stats: &mut RepairStats) -> Result<Vec<i64>, McfError> {
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
        let cycle = match bellman_ford(p, x, stats)? {
            BellmanFord::Potentials(pi) => return Ok(pi),
            BellmanFord::Cycle(cycle) => cycle,
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
        stats.cancellations += 1;
    }
}

/// How one Bellman–Ford pass over a residual graph ended.
enum BellmanFord {
    /// No negative cycle: the distances from a virtual source joined to
    /// every vertex at cost 0.
    Potentials(Vec<i64>),
    /// A negative-cost cycle as `(edge, is_forward)` arcs.
    Cycle(Vec<(usize, bool)>),
}

fn bellman_ford(
    p: &McfProblem,
    x: &[i64],
    stats: &mut RepairStats,
) -> Result<BellmanFord, McfError> {
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
        stats.bf_rounds += 1;
        stats.arc_scans += arcs.len() as u64;
        last_relaxed = None;
        for (ai, &(u, v, c, _, _)) in arcs.iter().enumerate() {
            let d = dist[u]
                .checked_add(c)
                .ok_or_else(|| McfError::overflow("residual distance exceeds i64"))?;
            if d < dist[v] {
                dist[v] = d;
                pre[v] = Some(ai);
                last_relaxed = Some(v);
            }
        }
        if last_relaxed.is_none() {
            return Ok(BellmanFord::Potentials(dist));
        }
    }
    // a vertex relaxed in round n is on/reaches a negative cycle: walk
    // back n steps to land on the cycle, then extract it (an empty
    // cycle reports a broken predecessor chain)
    let Some(mut v) = last_relaxed else {
        return Ok(BellmanFord::Potentials(dist)); // n = 0
    };
    for _ in 0..n {
        let Some(ai) = pre[v] else {
            return Ok(BellmanFord::Cycle(Vec::new()));
        };
        v = arcs[ai].0;
    }
    let start = v;
    let mut cycle = Vec::new();
    loop {
        let Some(ai) = pre[v] else {
            return Ok(BellmanFord::Cycle(Vec::new()));
        };
        let (u, _, _, e, fwd) = arcs[ai];
        cycle.push((e, fwd));
        v = u;
        if v == start {
            break;
        }
    }
    cycle.reverse();
    Ok(BellmanFord::Cycle(cycle))
}

/// Successive shortest paths from the rounded flow: route `imb` (the
/// per-vertex `Aᵀx − b`) from excess to deficit vertices along Dijkstra
/// paths on reduced costs under `pi`, which must already be
/// non-negative on every residual arc. After each path
/// `π_v += min(d_v, d_sink)` keeps them so — the loop `ssp.rs` runs,
/// started from the rounded point instead of from zero. Every path moves
/// at least one unit, so there are at most Σ|imb|/2 of them.
fn route_imbalance(
    p: &McfProblem,
    x: &mut [i64],
    imb: &mut [i64],
    pi: &mut [i64],
    stats: &mut RepairStats,
) -> Result<(), McfError> {
    if imb.iter().all(|&r| r == 0) {
        return Ok(());
    }
    let n = p.n();
    let edges = p.graph.edges();
    let overflow = || McfError::overflow("repair potential exceeds i64");
    // CSR adjacency: every edge at its tail (forward arc) and at its
    // head (backward arc); self loops never lie on a shortest path
    let mut start = vec![0usize; n + 1];
    for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
        start[u + 1] += 1;
        start[v + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut adj = vec![(0usize, false); start[n]];
    let mut fill = start.clone();
    for (e, &(u, v)) in edges.iter().enumerate().filter(|(_, (u, v))| u != v) {
        adj[fill[u]] = (e, true);
        fill[u] += 1;
        adj[fill[v]] = (e, false);
        fill[v] += 1;
    }
    let residual = |x: &[i64], e: usize, fwd: bool| if fwd { p.cap[e] - x[e] } else { x[e] };
    let tail = |e: usize, fwd: bool| if fwd { edges[e].0 } else { edges[e].1 };

    const INF: i64 = i64::MAX;
    let mut dist = vec![INF; n];
    let mut pred: Vec<Option<(usize, bool)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    while imb.iter().any(|&r| r > 0) {
        dist.fill(INF);
        pred.fill(None);
        done.fill(false);
        heap.clear();
        for v in (0..n).filter(|&v| imb[v] > 0) {
            dist[v] = 0;
            heap.push(Reverse((0i64, v)));
        }
        let mut sink = None;
        while let Some(Reverse((d, u))) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            if imb[u] < 0 {
                sink = Some(u);
                break;
            }
            stats.arc_scans += (start[u + 1] - start[u]) as u64;
            for &(e, fwd) in &adj[start[u]..start[u + 1]] {
                let (to, c) = if fwd {
                    (edges[e].1, p.cost[e])
                } else {
                    (edges[e].0, -p.cost[e])
                };
                if done[to] || residual(x, e, fwd) <= 0 {
                    continue;
                }
                let nd = c
                    .checked_add(pi[u])
                    .and_then(|rc| rc.checked_sub(pi[to]))
                    .and_then(|rc| d.checked_add(rc))
                    .ok_or_else(overflow)?;
                if nd < dist[to] {
                    dist[to] = nd;
                    pred[to] = Some((e, fwd));
                    heap.push(Reverse((nd, to)));
                }
            }
        }
        // no deficit reachable from any excess: the reachable set's
        // boundary is saturated, so no flow can fix its imbalance
        let t = sink.ok_or(McfError::Infeasible)?;
        let dt = dist[t];
        for (pv, &dv) in pi.iter_mut().zip(&dist) {
            *pv = pv.checked_add(dv.min(dt)).ok_or_else(overflow)?;
        }
        let mut amount = -imb[t];
        let mut v = t;
        while let Some((e, fwd)) = pred[v] {
            amount = amount.min(residual(x, e, fwd));
            v = tail(e, fwd);
        }
        let s = v;
        amount = amount.min(imb[s]);
        let mut v = t;
        while let Some((e, fwd)) = pred[v] {
            x[e] += if fwd { amount } else { -amount };
            v = tail(e, fwd);
        }
        imb[s] -= amount;
        imb[t] += amount;
        stats.paths += 1;
    }
    // deficits left without any excess: the demands do not sum to zero
    if imb.iter().any(|&r| r != 0) {
        return Err(McfError::Infeasible);
    }
    Ok(())
}

/// The O(m) optimality certificate: `x` respects the bounds, conserves
/// flow, and every residual arc has a non-negative reduced cost under
/// `pi` — so, by LP duality, its residual graph has no negative cycle.
/// A violation is a [`McfError::NumericalFailure`], never patched.
/// Returns the number of residual arcs checked.
fn certify(p: &McfProblem, x: &[i64], pi: &[i64]) -> Result<u64, McfError> {
    let mut arcs = 0u64;
    for (e, &(u, v)) in p.graph.edges().iter().enumerate() {
        if x[e] < 0 || x[e] > p.cap[e] {
            return Err(McfError::numerical(format!(
                "repaired flow {} on edge {e} leaves [0, {}]",
                x[e], p.cap[e]
            )));
        }
        let rc = p.cost[e] as i128 + pi[u] as i128 - pi[v] as i128;
        for (residual, violated) in [(x[e] < p.cap[e], rc < 0), (x[e] > 0, rc > 0)] {
            if residual {
                arcs += 1;
                if violated {
                    return Err(McfError::numerical(format!(
                        "residual arc of edge {e} has negative reduced cost under the \
                         repair's potentials"
                    )));
                }
            }
        }
    }
    if p.imbalance(x).iter().any(|&r| r != 0) {
        return Err(McfError::numerical("repaired flow violates conservation"));
    }
    Ok(arcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, reference};
    use pmcf_baselines::ssp;
    use pmcf_graph::{generators, DiGraph};
    use pmcf_pram::Tracker;

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
        // even starting from a terrible point, the repair certifies the
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
        let pi = cancel_negative_cycles(&p, &mut x).unwrap();
        assert_eq!(x, vec![4, 4, 4]);
        assert_eq!(certify(&p, &x, &pi).unwrap(), 3);
    }

    #[test]
    fn already_optimal_is_untouched() {
        let p = generators::random_mcf(8, 24, 4, 3, 31);
        let opt = ssp::min_cost_flow(&p).unwrap();
        let mut x = opt.x.clone();
        cancel_negative_cycles(&p, &mut x).unwrap();
        assert_eq!(x, opt.x, "optimal flow must be a fixed point");
    }

    #[test]
    fn demand_exceeding_a_cut_is_infeasible() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let p = McfProblem::new(g, vec![1], vec![1], vec![-2, 2]);
        assert!(matches!(
            round_to_optimal(&p, &[0.0]),
            Err(McfError::Infeasible)
        ));
    }

    #[test]
    fn certificate_rejects_a_negative_reduced_cost() {
        // two parallel edges; routing over the expensive one leaves the
        // cheap one's forward arc at reduced cost 1 + 0 − 3 < 0
        let g = DiGraph::from_edges(2, vec![(0, 1), (0, 1)]);
        let p = McfProblem::new(g, vec![2, 2], vec![1, 3], vec![-2, 2]);
        assert!(matches!(
            certify(&p, &[0, 2], &[0, 3]),
            Err(McfError::NumericalFailure { .. })
        ));
        assert_eq!(certify(&p, &[2, 0], &[0, 1]).unwrap(), 2);
    }

    #[test]
    fn repair_routes_only_the_imbalance_of_an_ipm_point() {
        for seed in 0..2 {
            let p = generators::random_mcf(64, 512, 8, 6, seed);
            let ext = init::extend(&p).unwrap();
            let (state, _) = reference::path_follow(
                &mut Tracker::new(),
                &ext.prob,
                ext.x0.clone(),
                init::initial_mu(&ext.prob, 0.25),
                init::final_mu(&ext.prob),
                &reference::PathFollowConfig::default(),
            );
            let mut stats = RepairStats::default();
            let flow = repair(&ext.prob, &state.x, &mut stats).unwrap();
            assert!(flow.x[p.m()..].iter().all(|&xe| xe == 0), "seed {seed}");
            // the test must reach the repair, not round straight back
            assert!(
                stats.imbalance > 0,
                "seed {seed}: rounded point is balanced"
            );
            assert_eq!(stats.cancellations, 0, "seed {seed}");
            assert!(
                2 * stats.paths <= stats.imbalance,
                "seed {seed}: {} paths for Σ|imb| = {}",
                stats.paths,
                stats.imbalance
            );
        }
    }
}
