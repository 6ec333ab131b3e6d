//! The parallel SDD solver (paper Lemma A.1).
//!
//! Solves `AᵀDA x = b` where `A` is a (column-deleted) incidence matrix
//! and `D` a positive diagonal — i.e. a grounded weighted graph
//! Laplacian. The paper cites the `Õ(nnz)`-work, `Õ(1)`-depth solver of
//! [PS14]; per DESIGN.md §2 we substitute Jacobi-preconditioned conjugate
//! gradient: identical interface (ε-approximate solve), matrix-free
//! parallel matvecs, and the iteration count is *reported* in
//! [`SolveStats`] so the substitution's cost is visible rather than
//! hidden.
//!
//! ## Reuse layer
//!
//! The IPM calls this solver thousands of times against slowly-drifting
//! diagonals, so the solver carries state worth reusing:
//!
//! * **Preconditioner cache** — the Jacobi diagonal is keyed on an
//!   optional caller-supplied `d` *generation* ([`SolveParams::d_gen`]),
//!   so repeated solves against the same `d` rebuild nothing. The graph
//!   and grounded vertex are fixed at construction, so the generation
//!   alone identifies the diagonal.
//! * **Warm starts** — [`RhsSpec::guess`] seeds CG from a previous
//!   solution (`D` drifts slowly along the central path, so the previous
//!   Newton direction is close). A guess is accepted only if it strictly
//!   beats the zero start (`‖b − Lx₀‖ < ‖b‖`), so a stale guess can never
//!   hurt convergence; acceptance shows up in
//!   [`SolveStats::warm_start`] and the `solver.warm_start_hits` counter.
//! * **Batched multi-RHS** — [`LaplacianSolver::solve_batch`] solves
//!   several right-hand sides against one diagonal: the preconditioner is
//!   built once and the per-RHS CG runs are independent parallel branches
//!   ([`Tracker::parallel`]), matching the paper's "`Õ(1/ε²)` independent
//!   instances" structure in both the cost model and real execution.
//! * **Per-phase tolerance** — [`SolveParams::opts`] overrides the
//!   construction-time tolerance per call, so callers can solve loosely
//!   far from the central path and tightly near termination.
//!
//! Every solve feeds the `solver.solves` / `solver.cg_iterations_total` /
//! `solver.warm_start_hits` counters, the `solver.cg_iterations`
//! histogram, and (when a flight recorder is installed) emits a
//! `solver.solve` event. Batched solves run on pool threads, which carry
//! no flight recorder, so the batch entry point emits one `solver.batch`
//! summary event from the calling thread instead.

use pmcf_graph::{incidence, DiGraph};
use pmcf_pram::{primitives as pp, Cost, Tracker, Workspace};
use std::sync::{Arc, Mutex};

/// Options controlling a Laplacian solve.
#[derive(Clone, Copy, Debug)]
pub struct SolverOpts {
    /// Relative residual target `‖b − Lx‖₂ ≤ tol · ‖b‖₂`.
    pub tol: f64,
    /// Iteration cap (the best iterate seen is returned on overrun).
    pub max_iter: usize,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            tol: 1e-10,
            max_iter: 10_000,
        }
    }
}

/// Statistics from one solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// CG iterations used.
    pub iterations: usize,
    /// Relative residual of the *returned* iterate.
    pub rel_residual: f64,
    /// CG exited early through the `pᵀLp ≤ 0` guard (indefinite or
    /// non-finite curvature — numerically exhausted). The reported
    /// residual is the true residual of the returned iterate, never a
    /// stale default.
    pub breakdown: bool,
    /// A caller-supplied warm-start guess was accepted (its residual beat
    /// the zero start).
    pub warm_start: bool,
}

/// A Jacobi preconditioner (inverse grounded-Laplacian diagonal) built
/// for one diagonal `d`; cheap to clone and share across threads.
#[derive(Clone, Debug)]
pub struct Precond {
    minv: Arc<Vec<f64>>,
}

/// Per-call knobs shared by [`LaplacianSolver::solve_with`],
/// [`LaplacianSolver::solve_batch`] and [`LaplacianSolver::solve_pair`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveParams<'a> {
    /// Override the solver's construction-time options (per-phase
    /// adaptive tolerance); `None` uses the defaults.
    pub opts: Option<SolverOpts>,
    /// Generation number of `d` for the preconditioner cache: callers
    /// that solve repeatedly against an unchanged `d` pass the same
    /// generation and skip the rebuild. `None` bypasses the cache.
    pub d_gen: Option<u64>,
    /// Buffer pool to draw CG scratch vectors from; `None` uses the
    /// solver's own arena. Callers running a whole IPM pass one
    /// [`Workspace`] so every solve (and the returned solution vectors,
    /// once handed back with [`Workspace::give`]) recycles through a
    /// single pool.
    pub ws: Option<&'a Workspace>,
}

/// One right-hand side and its optional warm start.
#[derive(Clone, Copy, Debug)]
pub struct RhsSpec<'a> {
    /// The right-hand side vector (`b[ground]` is ignored).
    pub b: &'a [f64],
    /// Warm-start guess (usually the previous Newton step's solution).
    /// Ignored unless it has length `n` and strictly beats the zero
    /// start.
    pub guess: Option<&'a [f64]>,
}

/// A reusable solver for systems `AᵀDA x = b` over a fixed graph.
///
/// The diagonal `D` may change between solves ([`LaplacianSolver::solve`]
/// takes it per call); the graph and grounded vertex are fixed. The
/// solver is `Sync` — batched solves share it across pool threads.
pub struct LaplacianSolver {
    graph: DiGraph,
    ground: usize,
    opts: SolverOpts,
    /// `(d_gen, minv)` of the most recently built keyed preconditioner.
    cache: Mutex<Option<(u64, Arc<Vec<f64>>)>>,
    /// Fallback buffer pool for callers that don't supply
    /// [`SolveParams::ws`]; shared across the fork-join branches of
    /// [`LaplacianSolver::solve_batch`] and [`LaplacianSolver::solve_pair`].
    ws: Workspace,
}

impl LaplacianSolver {
    /// Create a solver for `graph`, grounding vertex `ground` (its
    /// coordinate is pinned to 0, equivalent to deleting that column of
    /// `A`; the graph must be connected for the system to be PD).
    pub fn new(graph: DiGraph, ground: usize, opts: SolverOpts) -> Self {
        assert!(ground < graph.n());
        LaplacianSolver {
            graph,
            ground,
            opts,
            cache: Mutex::new(None),
            ws: Workspace::new(),
        }
    }

    /// The solver's internal buffer pool (the arena used when a call
    /// does not supply [`SolveParams::ws`]). Hand solution vectors back
    /// with [`Workspace::give`] to keep steady-state solves
    /// allocation-free.
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Build (or fetch from cache) the Jacobi preconditioner for `d`.
    ///
    /// The diagonal is gathered vertex-parallel from the adjacency lists
    /// and inverted in the same pass, through [`pp::par_tabulate`] so
    /// real execution matches the charged `par_flat` cost above the
    /// sequential cutoff.
    pub fn precondition(&self, t: &mut Tracker, d: &[f64], d_gen: Option<u64>) -> Precond {
        assert_eq!(d.len(), self.graph.m());
        if let Some(gen) = d_gen {
            let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((cached_gen, minv)) = cache.as_ref() {
                if *cached_gen == gen {
                    t.counter("solver.precond_hits", 1);
                    return Precond {
                        minv: Arc::clone(minv),
                    };
                }
            }
        }
        t.counter("solver.precond_builds", 1);
        let g = &self.graph;
        let ground = self.ground;
        // Edge gather (every edge contributes to both endpoints)…
        t.charge(Cost::par_flat(g.m() as u64));
        // …fused with the vertex-parallel inversion.
        let minv = Arc::new(pp::par_tabulate(t, g.n(), |v| {
            if v == ground {
                return 1.0;
            }
            let mut s = 0.0;
            for &e in g.in_edges(v) {
                s += d[e];
            }
            for &e in g.out_edges(v) {
                s += d[e];
            }
            1.0 / s.max(1e-300)
        }));
        if let Some(gen) = d_gen {
            *self.cache.lock().unwrap_or_else(|e| e.into_inner()) = Some((gen, Arc::clone(&minv)));
        }
        Precond { minv }
    }

    /// Solve `AᵀDA x = b` to the configured tolerance. `b[ground]` is
    /// ignored (forced to 0). Returns the solution (with `x[ground] = 0`)
    /// and stats.
    ///
    /// Profiled under the `linalg/solve` span; each call feeds the
    /// `solver.solves` counter and the `solver.cg_iterations` histogram.
    pub fn solve(&self, t: &mut Tracker, d: &[f64], b: &[f64]) -> (Vec<f64>, SolveStats) {
        self.solve_with(t, d, &RhsSpec { b, guess: None }, &SolveParams::default())
    }

    /// [`LaplacianSolver::solve`] with a warm-start guess and per-call
    /// parameters: adaptive tolerance, preconditioner-cache generation,
    /// and buffer pool.
    pub fn solve_with(
        &self,
        t: &mut Tracker,
        d: &[f64],
        rhs: &RhsSpec<'_>,
        params: &SolveParams<'_>,
    ) -> (Vec<f64>, SolveStats) {
        t.span("linalg/solve", |t| {
            let opts = params.opts.unwrap_or(self.opts);
            let ws = params.ws.unwrap_or(&self.ws);
            let pc = self.precondition(t, d, params.d_gen);
            let (x, stats) = self.cg(t, d, rhs.b, &pc, rhs.guess, &opts, ws);
            self.record_solve(t, &stats);
            pmcf_obs::emit_with("solver.solve", || {
                vec![
                    ("n", self.graph.n().into()),
                    ("m", self.graph.m().into()),
                    ("iterations", (stats.iterations as u64).into()),
                    ("rel_residual", stats.rel_residual.into()),
                    ("warm_start", stats.warm_start.into()),
                    ("breakdown", stats.breakdown.into()),
                    ("tol", opts.tol.into()),
                ]
            });
            (x, stats)
        })
    }

    /// Solve several right-hand sides against one diagonal `d`.
    ///
    /// The preconditioner is built once (or fetched from the cache under
    /// [`SolveParams::d_gen`]); the per-RHS CG runs are independent
    /// parallel branches (charged with `par` composition and really
    /// executed on the pool when it has threads). Used by
    /// `estimate_leverage` (r sketch RHS).
    pub fn solve_batch(
        &self,
        t: &mut Tracker,
        d: &[f64],
        rhss: &[RhsSpec<'_>],
        params: &SolveParams<'_>,
    ) -> Vec<(Vec<f64>, SolveStats)> {
        t.span("linalg/solve-batch", |t| {
            let opts = params.opts.unwrap_or(self.opts);
            let ws = params.ws.unwrap_or(&self.ws);
            let pc = self.precondition(t, d, params.d_gen);
            // All branches draw scratch from one shared arena — the pool
            // is internally synchronized, so concurrent checkouts never
            // alias and every branch's buffers recycle.
            let results = t.parallel(rhss.len(), |i, t| {
                self.cg(t, d, rhss[i].b, &pc, rhss[i].guess, &opts, ws)
            });
            self.record_batch(t, results.iter().map(|(_, st)| st), &opts);
            results
        })
    }

    /// Two-RHS special case of [`LaplacianSolver::solve_batch`] that
    /// never allocates once the workspace is warm: the robust IPM's step
    /// solves exactly two systems (`δ_y` and the `δ_c` correction)
    /// against one diagonal every iteration, and the general batch path
    /// pays per-call `Vec`s for branch trackers and results. Charges,
    /// span tree, counters, and the `solver.batch` event are
    /// bit-identical to `solve_batch` with the same two specs.
    #[allow(clippy::type_complexity)]
    pub fn solve_pair(
        &self,
        t: &mut Tracker,
        d: &[f64],
        ra: &RhsSpec<'_>,
        rb: &RhsSpec<'_>,
        params: &SolveParams<'_>,
    ) -> ((Vec<f64>, SolveStats), (Vec<f64>, SolveStats)) {
        t.span("linalg/solve-batch", |t| {
            let opts = params.opts.unwrap_or(self.opts);
            let ws = params.ws.unwrap_or(&self.ws);
            let pc = self.precondition(t, d, params.d_gen);
            // par_join forks exactly when `parallel(2, ..)` would, and
            // merge_pair charges exactly as merge_branches over two
            // branches — the batch path's accounting, minus its Vecs.
            let (a, b) = t.par_join(
                |t| self.cg(t, d, ra.b, &pc, ra.guess, &opts, ws),
                |t| self.cg(t, d, rb.b, &pc, rb.guess, &opts, ws),
            );
            self.record_batch(t, [&a.1, &b.1], &opts);
            (a, b)
        })
    }

    /// Per-solve counters for each branch of a batch, then one
    /// `solver.batch` summary event from the calling thread (pool
    /// threads carry no flight recorder).
    fn record_batch<'s>(
        &self,
        t: &mut Tracker,
        stats: impl IntoIterator<Item = &'s SolveStats>,
        opts: &SolverOpts,
    ) {
        let (mut rhs, mut total_iters, mut warm_hits) = (0usize, 0u64, 0u64);
        for st in stats {
            self.record_solve(t, st);
            rhs += 1;
            total_iters += st.iterations as u64;
            warm_hits += st.warm_start as u64;
        }
        pmcf_obs::emit_with("solver.batch", || {
            vec![
                ("n", self.graph.n().into()),
                ("m", self.graph.m().into()),
                ("rhs", rhs.into()),
                ("iterations", total_iters.into()),
                ("warm_start_hits", warm_hits.into()),
                ("tol", opts.tol.into()),
            ]
        });
    }

    fn record_solve(&self, t: &mut Tracker, stats: &SolveStats) {
        t.counter("solver.solves", 1);
        t.counter("solver.cg_iterations_total", stats.iterations as u64);
        t.observe("solver.cg_iterations", stats.iterations as u64);
        if stats.warm_start {
            t.counter("solver.warm_start_hits", 1);
        }
        if stats.breakdown {
            t.counter("solver.breakdowns", 1);
        }
    }

    /// Preconditioned CG on `AᵀDA x = b` (grounded). Returns the best
    /// iterate encountered: on clean convergence that is the last one; on
    /// iteration overrun or numerical breakdown it is whichever iterate
    /// had the smallest relative residual, and `stats.rel_residual`
    /// always describes the returned vector.
    ///
    /// Every scratch vector (and the returned solution) is checked out
    /// of `ws`, the matvec is the fused single-pass
    /// [`incidence::apply_laplacian_fused_into`], and the vector updates
    /// use the fused in-place primitives — once the pool is warm a whole
    /// call performs **zero** heap allocations. Charged PRAM cost is
    /// bit-identical to the original unfused composition.
    #[allow(clippy::too_many_arguments)]
    fn cg(
        &self,
        t: &mut Tracker,
        d: &[f64],
        b: &[f64],
        pc: &Precond,
        guess: Option<&[f64]>,
        opts: &SolverOpts,
        ws: &Workspace,
    ) -> (Vec<f64>, SolveStats) {
        let n = self.graph.n();
        let g = &self.graph;
        assert_eq!(d.len(), g.m());
        assert_eq!(b.len(), n);
        debug_assert!(
            d.iter().all(|&w| w > 0.0),
            "D must be positive: first bad {:?}",
            d.iter().enumerate().find(|(_, &w)| w <= 0.0 || w.is_nan())
        );
        let minv: &[f64] = &pc.minv;

        let mut bb = ws.take_copy(t, b);
        bb[self.ground] = 0.0;
        let bnorm = pp::par_dot(t, &bb, &bb).sqrt();
        if bnorm == 0.0 {
            ws.give(bb);
            return (ws.take(t, n), SolveStats::default());
        }

        let mut stats = SolveStats::default();
        let mut x = ws.take(t, n);
        let mut r = ws.take_copy(t, &bb);
        let mut rel = 1.0;
        // Warm start: accept the guess only if it strictly beats x = 0.
        if let Some(g0) = guess.filter(|g0| g0.len() == n) {
            let mut xg = ws.take_copy(t, g0);
            xg[self.ground] = 0.0;
            let mut lx = ws.take(t, n);
            incidence::apply_laplacian_fused_into(t, g, d, self.ground, &xg, &mut lx);
            // Optimal scaling: start from `c·x₀` with `c` minimizing
            // `‖b − c·Lx₀‖₂`. The guess *direction* is what carries
            // across Newton steps; its magnitude often does not
            // (corrector directions shrink quadratically), and the
            // scaled start is never worse than cold.
            let num = pp::par_dot(t, &lx, &bb);
            let den = pp::par_dot(t, &lx, &lx);
            let c = if den > 0.0 && num.is_finite() {
                num / den
            } else {
                0.0
            };
            pp::par_scale(t, c, &mut xg);
            // r currently holds b; fold in −c·Lx₀ and its norm in one pass.
            let rnorm = pp::par_axpy_norm2(t, -c, &lx, &mut r).sqrt();
            ws.give(lx);
            if rnorm.is_finite() && rnorm < bnorm {
                stats.warm_start = true;
                rel = rnorm / bnorm;
                ws.give(std::mem::replace(&mut x, xg));
            } else {
                ws.give(xg);
                r.copy_from_slice(&bb);
            }
        }
        stats.rel_residual = rel;

        let mut z = ws.take(t, n);
        let mut rz = pp::par_hadamard_dot(t, &r, minv, &mut z);
        let mut p = ws.take_copy(t, &z);
        let mut ap = ws.take(t, n);
        let mut best_rel = rel;
        let mut best_x = ws.take_copy(t, &x);

        for it in 0..opts.max_iter {
            incidence::apply_laplacian_fused_into(t, g, d, self.ground, &p, &mut ap);
            let pap = pp::par_dot(t, &p, &ap);
            if pap <= 0.0 || !pap.is_finite() {
                // `stats.rel_residual` already holds the true residual of
                // the current iterate — no stale default escapes.
                stats.breakdown = true;
                break;
            }
            let alpha = rz / pap;
            pp::par_axpy(t, alpha, &p, &mut x);
            let rnorm = pp::par_axpy_norm2(t, -alpha, &ap, &mut r).sqrt();
            rel = rnorm / bnorm;
            stats.iterations = it + 1;
            stats.rel_residual = rel;
            if rel < best_rel {
                best_rel = rel;
                best_x.copy_from_slice(&x);
                t.charge_par_flat(n as u64);
            }
            if rel <= opts.tol {
                break;
            }
            let rz_new = pp::par_hadamard_dot(t, &r, minv, &mut z);
            let beta = rz_new / rz;
            rz = rz_new;
            pp::par_xpay(t, &z, beta, &mut p);
        }
        // Non-monotone exit (overrun or breakdown): hand back the best
        // iterate seen, with its residual.
        if stats.rel_residual > best_rel {
            std::mem::swap(&mut x, &mut best_x);
            stats.rel_residual = best_rel;
        }
        x[self.ground] = 0.0;
        for buf in [bb, r, z, p, ap, best_x] {
            ws.give(buf);
        }
        (x, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use pmcf_graph::generators;
    use pmcf_graph::incidence::dense_grounded_laplacian;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn check_solve(g: DiGraph, d: Vec<f64>, seed: u64) {
        let n = g.n();
        let ground = 0;
        let mut rng = SmallRng::seed_from_u64(seed);
        // random rhs orthogonal to nothing in particular; ground pinned
        let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[ground] = 0.0;
        let solver = LaplacianSolver::new(g.clone(), ground, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, stats) = solver.solve(&mut t, &d, &b);
        assert!(stats.rel_residual < 1e-8, "residual {}", stats.rel_residual);
        // compare against dense solve
        let l = dense_grounded_laplacian(&g, &d, ground);
        let xd = dense::solve(l, b).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - xd[i]).abs() < 1e-6 * (1.0 + xd[i].abs()),
                "coord {i}: {} vs {}",
                x[i],
                xd[i]
            );
        }
    }

    #[test]
    fn matches_dense_on_small_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm_digraph(12, 40, seed);
            let mut rng = SmallRng::seed_from_u64(seed + 100);
            let d: Vec<f64> = (0..40).map(|_| rng.gen_range(0.1..10.0)).collect();
            check_solve(g, d, seed);
        }
    }

    #[test]
    fn handles_wide_weight_range() {
        let g = generators::gnm_digraph(10, 30, 2);
        let mut rng = SmallRng::seed_from_u64(7);
        let d: Vec<f64> = (0..30)
            .map(|_| 10f64.powf(rng.gen_range(-4.0..4.0)))
            .collect();
        let ground = 0;
        let mut b: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[ground] = 0.0;
        let solver = LaplacianSolver::new(g, ground, SolverOpts::default());
        let mut t = Tracker::new();
        let (_, stats) = solver.solve(&mut t, &d, &b);
        assert!(stats.rel_residual < 1e-7, "residual {}", stats.rel_residual);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let g = generators::gnm_digraph(8, 20, 3);
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, stats) = solver.solve(&mut t, &[1.0; 20], &[0.0; 8]);
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn work_scales_with_edges() {
        let mut works = Vec::new();
        for &(n, m) in &[(32usize, 128usize), (64, 512)] {
            let g = generators::gnm_digraph(n, m, 9);
            let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
            let mut t = Tracker::new();
            let mut b = vec![0.0; n];
            b[1] = 1.0;
            b[n - 1] = -1.0;
            let (_, _) = solver.solve(&mut t, &vec![1.0; m], &b);
            works.push(t.work());
        }
        assert!(works[1] > works[0], "more edges ⇒ more work");
    }

    /// Ill-conditioned instance + tiny iteration cap: CG's residual is
    /// not monotone here, so the last iterate can be strictly worse than
    /// the best one seen. The solver must return the best (satellite
    /// regression test for the unused-`best_rel` bug).
    #[test]
    fn overrun_returns_best_iterate() {
        let g = generators::gnm_digraph(24, 72, 11);
        let mut rng = SmallRng::seed_from_u64(13);
        // 12 orders of magnitude of conductance spread
        let d: Vec<f64> = (0..72)
            .map(|_| 10f64.powf(rng.gen_range(-6.0..6.0)))
            .collect();
        let mut b: Vec<f64> = (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[0] = 0.0;
        for cap in [1usize, 2, 3, 5, 8, 13, 21, 34] {
            let solver = LaplacianSolver::new(
                g.clone(),
                0,
                SolverOpts {
                    tol: 1e-14,
                    max_iter: cap,
                },
            );
            let mut t = Tracker::new();
            let (x, stats) = solver.solve(&mut t, &d, &b);
            // the reported residual describes the returned iterate…
            let lx = {
                let mut tt = Tracker::disabled();
                incidence::apply_laplacian(&mut tt, &g, &d, 0, &x)
            };
            let rnorm: f64 = lx
                .iter()
                .zip(&b)
                .map(|(a, bi)| (bi - a) * (bi - a))
                .sum::<f64>()
                .sqrt();
            let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            let actual_rel = rnorm / bnorm;
            assert!(
                (actual_rel - stats.rel_residual).abs() <= 1e-9 + 1e-6 * actual_rel,
                "cap {cap}: reported {} vs recomputed {actual_rel}",
                stats.rel_residual
            );
            // …and never exceeds the zero start (best-iterate guarantee:
            // rel 1.0 is always a candidate).
            assert!(
                stats.rel_residual <= 1.0 + 1e-12,
                "cap {cap}: returned iterate worse than zero start"
            );
        }
    }

    /// Breakdown on the very first iteration must report the true
    /// residual, not the `Default` 0.0 masquerading as an exact solve.
    #[test]
    fn breakdown_reports_true_residual_and_flag() {
        let g = generators::gnm_digraph(10, 30, 5);
        // A non-finite weight forces pᵀLp to be NaN on iteration one.
        let mut d = vec![1.0f64; 30];
        d[0] = f64::INFINITY;
        let mut b = vec![0.0f64; 10];
        b[1] = 1.0;
        b[2] = -1.0;
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (_, stats) = solver.solve(&mut t, &d, &b);
        assert!(stats.breakdown, "breakdown must be surfaced");
        assert!(
            stats.rel_residual > 0.0,
            "breakdown reported rel_residual {} — stale default",
            stats.rel_residual
        );
    }

    #[test]
    fn warm_start_from_exact_solution_converges_instantly() {
        let g = generators::gnm_digraph(12, 40, 21);
        let mut rng = SmallRng::seed_from_u64(22);
        let d: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..2.0)).collect();
        let mut b: Vec<f64> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[0] = 0.0;
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, cold) = solver.solve(&mut t, &d, &b);
        assert!(!cold.warm_start);
        let (_, warm) = solver.solve_with(
            &mut t,
            &d,
            &RhsSpec {
                b: &b,
                guess: Some(&x),
            },
            &SolveParams::default(),
        );
        assert!(warm.warm_start, "exact guess must be accepted");
        assert!(
            warm.iterations <= 1,
            "warm start from the solution took {} iterations",
            warm.iterations
        );
    }

    #[test]
    fn garbage_guess_is_rejected_not_harmful() {
        let g = generators::gnm_digraph(12, 40, 23);
        let d = vec![1.0f64; 40];
        let mut b = vec![0.0f64; 12];
        b[3] = 1.0;
        b[7] = -1.0;
        let garbage = vec![1e12f64; 12];
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x_cold, cold) = solver.solve(&mut t, &d, &b);
        let (x_warm, warm) = solver.solve_with(
            &mut t,
            &d,
            &RhsSpec {
                b: &b,
                guess: Some(&garbage),
            },
            &SolveParams::default(),
        );
        assert!(!warm.warm_start, "garbage guess must be rejected");
        assert_eq!(warm.iterations, cold.iterations);
        for (a, c) in x_warm.iter().zip(&x_cold) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_matches_individual_solves() {
        let g = generators::gnm_digraph(14, 48, 31);
        let mut rng = SmallRng::seed_from_u64(32);
        let d: Vec<f64> = (0..48).map(|_| rng.gen_range(0.2..4.0)).collect();
        let rhss: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let mut b: Vec<f64> = (0..14).map(|_| rng.gen_range(-1.0..1.0)).collect();
                b[0] = 0.0;
                b
            })
            .collect();
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let specs: Vec<RhsSpec<'_>> = rhss.iter().map(|b| RhsSpec { b, guess: None }).collect();
        let batch = solver.solve_batch(&mut t, &d, &specs, &SolveParams::default());
        for (b, (xb, _)) in rhss.iter().zip(&batch) {
            let (xs, _) = solver.solve(&mut t, &d, b);
            for (a, c) in xb.iter().zip(&xs) {
                assert!((a - c).abs() < 1e-9, "batch and single solve disagree");
            }
        }
    }

    #[test]
    fn precond_cache_hits_on_same_generation() {
        let g = generators::gnm_digraph(10, 30, 41);
        let d = vec![1.0f64; 30];
        let mut b = vec![0.0f64; 10];
        b[1] = 1.0;
        b[4] = -1.0;
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::profiled();
        let params = SolveParams {
            d_gen: Some(7),
            ..Default::default()
        };
        let rhs = RhsSpec { b: &b, guess: None };
        let _ = solver.solve_with(&mut t, &d, &rhs, &params);
        let _ = solver.solve_with(&mut t, &d, &rhs, &params);
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["solver.precond_builds"], 1);
        assert_eq!(rep.counters["solver.precond_hits"], 1);
    }
}
