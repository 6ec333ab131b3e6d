//! Leverage scores of diagonally-scaled incidence matrices.
//!
//! For `B = √D·A` (grounded incidence `A`, positive diagonal `D`), the
//! leverage score of row `e` is
//!
//! ```text
//!   σ_e = d_e · a_eᵀ (AᵀDA)⁻¹ a_e
//! ```
//!
//! Leverage scores sum to `rank(A) = n − 1` and lie in `[0, 1]`.
//!
//! The estimator follows the standard scheme the paper invokes in
//! Theorem C.2 ("approximating the leverage score … can be achieved by
//! solving `Õ(1/ε²)` instances of `(AᵀVᵀVA)⁻¹b`"): with a JL sketch `Q`,
//! `σ_e = ‖P e_e‖²` for the projection `P = √D A L⁻¹ Aᵀ √D`, estimated by
//! `Σ_i (√d_e (A z_i)_e)²` where `L z_i = Aᵀ √D qᵢ`.

use crate::dense::DenseMat;
use crate::sketch::JlSketch;
use crate::solver::{LaplacianSolver, RhsSpec, SolveParams, SolverOpts};
use pmcf_graph::{incidence, DiGraph};
use pmcf_pram::{primitives as pp, Cost, Tracker};

/// Exact leverage scores via a dense inverse (test oracle; `O(n³)`).
pub fn exact_leverage(g: &DiGraph, d: &[f64], ground: usize) -> Vec<f64> {
    let l = DenseMat::from_flat(
        g.n(),
        g.n(),
        incidence::grounded_laplacian_flat(g, d, ground),
    );
    let inv = l.inverse().expect("grounded Laplacian must be invertible");
    g.edges()
        .iter()
        .enumerate()
        .map(|(e, &(u, v))| {
            // a_e = e_v - e_u with the ground coordinate removed
            let mut quad = 0.0;
            for (i, wi) in [(u, -1.0), (v, 1.0)] {
                if i == ground {
                    continue;
                }
                for (j, wj) in [(u, -1.0), (v, 1.0)] {
                    if j == ground {
                        continue;
                    }
                    quad += wi * wj * inv.get(i, j);
                }
            }
            (d[e] * quad).clamp(0.0, 1.0)
        })
        .collect()
}

/// Sketched leverage-score estimation: `Õ(1/ε²)` Laplacian solves.
///
/// Returns estimates `σ̂` with `σ̂_e ≈ (1±ε) σ_e + O(ε)` w.h.p., clamped
/// to `[0, 1]`. Every sketch row is solved with `opts`: barrier weights
/// tolerate constant-factor error, so callers pass a loose tolerance.
pub fn estimate_leverage(
    t: &mut Tracker,
    solver: &LaplacianSolver,
    opts: SolverOpts,
    d: &[f64],
    eps: f64,
    seed: u64,
) -> Vec<f64> {
    let g = solver.graph();
    let (n, m) = (g.n(), g.m());
    assert_eq!(d.len(), m);
    t.span("linalg/leverage", |t| {
        t.counter("leverage.estimates", 1);
        // Hard cap: barrier/sampling weights tolerate constant-factor error,
        // and each sketch row costs a full Laplacian solve.
        let r = JlSketch::rows_for(eps, n).clamp(8, 24).min(4 * m.max(1));
        let q = JlSketch::new(r, m, seed);
        // All scratch (sketch rows, RHS vectors, CG state, A-applications)
        // recycles through the solver's arena: after the first estimate on
        // a given size class, repeated calls stop allocating.
        let ws = solver.workspace();
        let (fresh0, reuse0) = (ws.fresh(), ws.reused());
        let mut sqrt_d = ws.take(t, m);
        pp::par_tabulate_into(t, &mut sqrt_d, |e| d[e].sqrt());

        let mut sigma = vec![0.0f64; m];
        // The r sketch rows are independent → parallel branches in the
        // model (and on the pool): build the r right-hand sides, solve
        // them as one batch sharing a single preconditioner, then apply A
        // to each solution.
        let rhss: Vec<Vec<f64>> = t.parallel(r, |i, t| {
            // rhs = Aᵀ (√D qᵢ); the m-length row is scratch and goes
            // straight back to the pool for the next branch
            let mut row = ws.take(t, m);
            pp::par_tabulate_into(t, &mut row, |e| q.entry(i, e) * sqrt_d[e]);
            let mut rhs = ws.take(t, n);
            incidence::apply_at_into(t, g, &row, &mut rhs);
            ws.give(row);
            rhs
        });
        let specs: Vec<RhsSpec<'_>> = rhss.iter().map(|b| RhsSpec { b, guess: None }).collect();
        let params = SolveParams {
            opts: Some(opts),
            d_gen: None,
            ws: Some(ws),
        };
        let solves = solver.solve_batch(t, d, &specs, &params);
        let results: Vec<Vec<f64>> = t.parallel(r, |i, t| {
            let mut az = ws.take(t, m);
            incidence::apply_a_into(t, g, &solves[i].0, &mut az);
            az
        });
        for az in &results {
            for e in 0..m {
                let val = sqrt_d[e] * az[e];
                sigma[e] += val * val;
            }
        }
        t.charge(Cost::par_for(r as u64, Cost::par_flat(m as u64)));
        for s in sigma.iter_mut() {
            *s = s.clamp(0.0, 1.0);
        }
        for (x, _) in solves {
            ws.give(x);
        }
        for buf in rhss.into_iter().chain(results) {
            ws.give(buf);
        }
        ws.give(sqrt_d);
        t.counter("sched.leverage_rhs_fresh", ws.fresh() - fresh0);
        t.counter("sched.leverage_rhs_reuse", ws.reused() - reuse0);
        sigma
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_scores_sum_to_rank() {
        for seed in 0..4 {
            let g = generators::gnm_digraph(10, 30, seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            let d: Vec<f64> = (0..30).map(|_| rng.gen_range(0.2..5.0)).collect();
            let sigma = exact_leverage(&g, &d, 0);
            let sum: f64 = sigma.iter().sum();
            assert!(
                (sum - 9.0).abs() < 1e-6,
                "Σσ = {sum}, expected rank n-1 = 9"
            );
            assert!(sigma.iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn bridge_edge_has_leverage_one() {
        // A bridge's row is essential: leverage exactly 1.
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (1, 2), (2, 3)]);
        let sigma = exact_leverage(&g, &[1.0; 4], 0);
        assert!((sigma[0] - 1.0).abs() < 1e-9);
        assert!((sigma[3] - 1.0).abs() < 1e-9);
        // the two parallel edges share: 1/2 each... plus tree structure
        assert!((sigma[1] - 0.5).abs() < 1e-9);
        assert!((sigma[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn estimates_track_exact_scores() {
        let g = generators::gnm_digraph(16, 60, 3);
        let mut rng = SmallRng::seed_from_u64(8);
        let d: Vec<f64> = (0..60).map(|_| rng.gen_range(0.5..2.0)).collect();
        let exact = exact_leverage(&g, &d, 0);
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let est = estimate_leverage(&mut t, &solver, SolverOpts::default(), &d, 0.25, 42);
        for (e, (a, b)) in est.iter().zip(&exact).enumerate() {
            assert!(
                (a - b).abs() < 0.35 * b + 0.1,
                "edge {e}: est {a} vs exact {b}"
            );
        }
    }

    #[test]
    fn estimate_work_is_accounted() {
        let g = generators::gnm_digraph(12, 40, 4);
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let _ = estimate_leverage(
            &mut t,
            &solver,
            SolverOpts::default(),
            &vec![1.0; 40],
            0.5,
            1,
        );
        assert!(t.work() > 0);
        assert!(t.depth() > 0);
        // depth should be far below work (parallel sketch rows)
        assert!(t.depth() < t.work());
    }
}
