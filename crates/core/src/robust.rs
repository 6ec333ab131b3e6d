//! The robust data-structure-driven engine (paper §2.2 eq. (4)–(5),
//! Appendix F).
//!
//! Same central path as [`crate::reference`], but no per-iteration
//! `Θ(m)` pass: every m-dimensional quantity is accessed through the
//! stack of `pmcf-ds` —
//!
//! * `x̄` and the gradient step via [`PrimalGradient`] (Theorem D.1):
//!   the step direction `∇Ψ(z̄)^{♭(τ̄)}` is computed in the K-bucket
//!   space and applied lazily, `Õ(n)`/iteration;
//! * `s̄` via [`DualMaintenance`] (Theorem E.1): HeavyHitter change
//!   detection instead of recomputation;
//! * `τ̄` via [`LewisMaintenance`] (Theorem C.1);
//! * the sparsified step `R·T̄⁻¹Φ''⁻¹A(δ_y+δ_c)` via [`HeavySampler`]
//!   (Theorem E.2), `Õ(m/√n + n)` sampled coordinates;
//! * the Laplacian solve on a **leverage-score spectral sparsifier**
//!   (`Õ(n)` edges) instead of the full graph;
//! * the infeasibility `Δ = Aᵀx − b` maintained incrementally and
//!   corrected through `δ_c` (paper eq. (5)).
//!
//! Every `⌈√n⌉` iterations the engine *exactifies*: computes the exact
//! `x, s`, recenters with dense Newton steps, and reinitializes all data
//! structures — exactly the cadence at which the paper re-initializes
//! its structures, so the amortized `Õ(m/√n)` per-iteration cost is
//! preserved while keeping the trajectory numerically anchored.

use crate::api::Engine;
use crate::barrier;
use crate::reference::{
    begin, centrality, finish, CentralPathState, PathFollowConfig, PathStats, CENTER_TOL,
    MAX_CORRECTORS, MAX_ITERS, STEP_R,
};
use pmcf_ds::dual::DualMaintenance;
use pmcf_ds::heavy_sampler::HeavySampler;
use pmcf_ds::lewis_maint::LewisMaintenance;
use pmcf_ds::primal::PrimalGradient;
use pmcf_graph::{incidence, DiGraph, McfProblem};
use pmcf_linalg::lewis::ipm_p;
use pmcf_linalg::solver::{LaplacianSolver, RhsSpec, SolveParams, SolverOpts};
use pmcf_pram::{primitives as pp, Cost, Tracker, Workspace};

/// Step-size parameter γ (paper: `ε/(Cλ)`; a small constant here).
const GAMMA: f64 = 0.05;
/// Soft-max sharpness λ.
const LAMBDA: f64 = 3.0;
/// Flat-norm constant `C_norm = C·log(4m/n)` (paper Definition F.1).
const C_NORM: f64 = 3.0;
/// Bucket resolution ε of the gradient reduction.
const EPS_BUCKET: f64 = 0.1;

/// All per-iteration approximations plus the bookkeeping to refresh them.
struct RobustState {
    pg: PrimalGradient,
    dm: DualMaintenance,
    lm: LewisMaintenance,
    hs: HeavySampler,
    /// Δ = Aᵀx − b, maintained incrementally.
    infeas: Vec<f64>,
    /// Exactly maintained τ̄ mirror (the `lm` pointer target).
    tau: Vec<f64>,
    /// Last φ''(x̄) value pushed into the weight-indexed structures, per
    /// edge — updates are gated on ≥25% multiplicative drift to avoid
    /// expander-decomposition churn.
    pushed_dd: Vec<f64>,
}

/// The per-epoch persistent pair-solve operator: one leverage-sampled
/// spectral sparsifier of `AᵀDA`, held across every step of an epoch.
///
/// Re-sampling the sparsifier each step (the pre-PR-10 behaviour) made
/// every per-step CG solve cold: a fresh random topology invalidates the
/// Jacobi cache and turns the previous step's `δ_y` into a guess against
/// a different matrix, so the per-step CG chain — the dominant term of
/// the engine's charged depth — grew with `n`. Holding the topology for
/// the epoch (the paper's own re-initialization cadence) and refreshing
/// only weights that drifted ≥ 25% makes consecutive steps solve the
/// same operator: warm starts land, the Jacobi diagonal caches on
/// [`StepSolver::gen`], and the chain stays short and `n`-independent.
struct StepSolver {
    solver: LaplacianSolver,
    /// Inverse sampling probability per slot (1 for deterministic edges).
    inv_p: Vec<f64>,
    /// Current sparsifier weights `d_e · inv_p_e`.
    weights: Vec<f64>,
    /// Graph edge → slot (`usize::MAX` when not sampled this epoch).
    slot_of: Vec<usize>,
    /// Weight generation for the solver's preconditioner cache.
    gen: u64,
}

/// Sparsifier-diagonal entry `D_e = 1/(τ̄_e φ''(x̄_e))` at the engine's
/// maintained point.
fn d_weight(rs: &RobustState, cap: &[f64], e: usize) -> f64 {
    let (_, d2) = phi_terms(rs.pg.xbar()[e], cap[e]);
    1.0 / (rs.tau[e] * d2)
}

fn phi_terms(x: f64, u: f64) -> (f64, f64) {
    // Lower guard is absolute: on huge-capacity edges the central value
    // μτ/s sits far below any relative floor θ·u, and evaluating the
    // derivatives at a relative floor injects a wildly wrong weight.
    let lo = (1e-9 * u.max(1.0)).min(barrier::INTERIOR_LO_ABS);
    let xc = x.clamp(lo, u - 1e-9 * u.max(1.0));
    (barrier::dphi(xc, u), barrier::ddphi(xc, u))
}

fn z_of(s: f64, x: f64, u: f64, tau: f64, mu: f64) -> f64 {
    let (d1, d2) = phi_terms(x, u);
    ((s + mu * tau * d1) / (mu * tau * d2.sqrt())).clamp(-2.0, 2.0)
}

#[allow(clippy::too_many_arguments)]
fn build_structures(
    t: &mut Tracker,
    p: &McfProblem,
    cap: &[f64],
    x: &[f64],
    s: &[f64],
    mu: f64,
    tau_anchor: &[f64],
    seed: u64,
) -> RobustState {
    t.span("ipm/build-structures", |t| {
        t.counter("ipm.structure_rebuilds", 1);
        build_structures_inner(t, p, cap, x, s, mu, tau_anchor, seed)
    })
}

#[allow(clippy::too_many_arguments)]
fn build_structures_inner(
    t: &mut Tracker,
    p: &McfProblem,
    cap: &[f64],
    x: &[f64],
    s: &[f64],
    mu: f64,
    tau_anchor: &[f64],
    seed: u64,
) -> RobustState {
    let (n, m) = (p.n(), p.m());
    let pp = ipm_p(n, m);
    let z_reg = (n as f64 / m as f64).min(0.5);
    let g_lewis: Vec<f64> = x
        .iter()
        .zip(cap)
        .map(|(&xi, &ui)| 1.0 / phi_terms(xi, ui).1.sqrt())
        .collect();
    // the caller refreshed τ from a dense leverage pass at this epoch
    // boundary or carried the maintained τ̄ over — start from it
    let lm = LewisMaintenance::from_weights(t, g_lewis, tau_anchor.to_vec(), pp, z_reg, 0.2);
    let tau: Vec<f64> = tau_anchor.to_vec();

    let zvec: Vec<f64> = (0..m)
        .map(|e| z_of(s[e], x[e], cap[e], tau[e], mu))
        .collect();
    let g_step: Vec<f64> = x
        .iter()
        .zip(cap)
        .map(|(&xi, &ui)| -GAMMA / phi_terms(xi, ui).1.sqrt())
        .collect();
    let acc: Vec<f64> = x
        .iter()
        .zip(cap)
        .map(|(&xi, &ui)| (0.05 * xi.min(ui - xi)).max(1e-9))
        .collect();
    let pg = PrimalGradient::initialize(
        t,
        p.graph.clone(),
        x.to_vec(),
        g_step,
        tau.iter().map(|&tv| tv.clamp(z_reg, 2.0)).collect(),
        zvec,
        acc,
        EPS_BUCKET,
        LAMBDA,
        C_NORM,
    );
    let s_acc: Vec<f64> = (0..m)
        .map(|e| (0.02 * mu * tau[e] * phi_terms(x[e], cap[e]).1.sqrt()).max(1e-12))
        .collect();
    let dm = DualMaintenance::initialize(t, p.graph.clone(), s.to_vec(), s_acc, 1.0, seed ^ 7);
    let hs_g: Vec<f64> = (0..m)
        .map(|e| 1.0 / (tau[e] * phi_terms(x[e], cap[e]).1))
        .collect();
    let hs = HeavySampler::initialize(t, p.graph.clone(), hs_g, tau.clone(), seed ^ 13);

    let atx = incidence::apply_at(t, &p.graph, x);
    let b: Vec<f64> = p.demand.iter().map(|&d| d as f64).collect();
    let infeas: Vec<f64> = atx.iter().zip(&b).map(|(&a, &bi)| a - bi).collect();
    let pushed_dd: Vec<f64> = x
        .iter()
        .zip(cap)
        .map(|(&xi, &ui)| phi_terms(xi, ui).1)
        .collect();
    RobustState {
        pg,
        dm,
        lm,
        hs,
        infeas,
        tau,
        pushed_dd,
    }
}

/// Run the robust engine from `(x0, μ0)` down to `μ_end`.
pub fn path_follow(
    t: &mut Tracker,
    p: &McfProblem,
    x0: Vec<f64>,
    mu0: f64,
    mu_end: f64,
    cfg: &PathFollowConfig,
) -> (CentralPathState, PathStats) {
    follow(t, p, x0, None, mu0, mu_end, cfg)
}

/// [`path_follow`] from either start: `warm` carries the previous duals
/// and the checkpoint's long-lived [`Workspace`]; without it the run
/// starts from `y = 0` with a private arena. On a warm start the initial
/// `refresh_tau_dense` + recenter rounds re-center the point after the
/// delta before any epoch structure is built.
pub(crate) fn follow(
    t: &mut Tracker,
    p: &McfProblem,
    x0: Vec<f64>,
    warm: Option<(Vec<f64>, &Workspace)>,
    mu0: f64,
    mu_end: f64,
    cfg: &PathFollowConfig,
) -> (CentralPathState, PathStats) {
    let (n, m) = (p.n(), p.m());
    let cap: Vec<f64> = p.cap.iter().map(|&u| u as f64).collect();
    let cost: Vec<f64> = p.cost.iter().map(|&c| c as f64).collect();
    let solver = LaplacianSolver::new(p.graph.clone(), 0, SolverOpts::default());
    // loose solver for weight estimation (constant-factor accuracy is
    // plenty for barrier weights)
    let tau_solver = LaplacianSolver::new(
        p.graph.clone(),
        0,
        SolverOpts {
            tol: 2e-3,
            max_iter: 300,
        },
    );
    let recenter_solver = LaplacianSolver::new(
        p.graph.clone(),
        0,
        SolverOpts {
            tol: 1e-7,
            max_iter: 1500,
        },
    );

    let is_warm = warm.is_some();
    let (y0, ws_ext) = warm.unzip();
    // exact anchor state
    let (mut st, label) = begin(t, p, Engine::Robust, x0, y0, &cap, mu0, mu_end);
    let mut stats = PathStats::default();

    // One buffer arena for the whole solve: Newton temporaries, the
    // per-step RHS copies, and all CG scratch (including the short-lived
    // sparsifier solvers') recycle here. Warm resolves reuse the
    // checkpoint's arena so repeated deltas stop allocating entirely.
    let ws_own = Workspace::new();
    let ws = ws_ext.unwrap_or(&ws_own);
    // dense recentering helper (shared with exactification); carries the
    // previous Newton solution across rounds as a CG warm start
    let mut recenter_warm: Option<Vec<f64>> = None;
    let mut recenter =
        |t: &mut Tracker, st: &mut CentralPathState, stats: &mut PathStats, rounds: usize| {
            t.span("ipm/recenter", |t| {
                t.counter("ipm.recenterings", 1);
                for _ in 0..rounds {
                    let (_, worst) = centrality(st, &cap);
                    if worst <= CENTER_TOL {
                        pmcf_obs::emit_with("ipm.centered", || {
                            vec![
                                ("centrality", worst.into()),
                                ("limit", CENTER_TOL.into()),
                                ("phase", "recenter".into()),
                            ]
                        });
                        break;
                    }
                    // Newton is locally quadratic: a residual far from the
                    // central path does not need a 1e-7 solve to shrink —
                    // scale the CG tolerance to the current centrality so
                    // early recentering rounds stop burning depth on
                    // accuracy the next round discards.
                    let newton_opts = if cfg.warm_start {
                        Some(SolverOpts {
                            tol: (worst * 1e-6).clamp(1e-9, 1e-4),
                            max_iter: 1500,
                        })
                    } else {
                        None
                    };
                    dense_newton(
                        t,
                        p,
                        &recenter_solver,
                        &cap,
                        &cost,
                        st,
                        stats,
                        cfg.warm_start,
                        &mut recenter_warm,
                        newton_opts,
                        ws,
                    );
                }
            })
        };

    // τ anchor from dense leverage estimate
    let refresh_tau_dense = |t: &mut Tracker, st: &mut CentralPathState, round: usize| {
        t.span("ipm/tau-refresh", |t| {
            t.counter("ipm.tau_refreshes", 1);
            let d: Vec<f64> =
                st.x.iter()
                    .zip(&cap)
                    .map(|(&xi, &ui)| 1.0 / phi_terms(xi, ui).1)
                    .collect();
            let sigma = pmcf_linalg::leverage::estimate_leverage(
                t,
                &tau_solver,
                &d,
                0.8,
                cfg.seed + round as u64,
            );
            let reg = n as f64 / m as f64;
            for (te, se) in st.tau.iter_mut().zip(&sigma) {
                *te = se + reg;
            }
        })
    };
    refresh_tau_dense(t, &mut st, 0);
    recenter(t, &mut st, &mut stats, MAX_CORRECTORS);

    let epoch = ((n as f64).sqrt().ceil() as usize).max(8);
    let mut rs = build_structures(t, p, &cap, &st.x, &st.s, st.mu, &st.tau, cfg.seed);
    let mut tau_sum: f64 = rs.tau.iter().sum();

    // Warm starts for the per-step (δ_y, δ_c) pair: the epoch-persistent
    // sparsifier drifts slowly between generations, so the previous step's
    // solutions are excellent guesses against (nearly) the same matrix.
    let mut prev_dy: Option<Vec<f64>> = None;
    let mut prev_dc: Option<Vec<f64>> = None;
    let mut step_solver: Option<StepSolver> = None;

    t.span("ipm/loop", |t| {
        while st.mu > mu_end && stats.iterations < MAX_ITERS {
            stats.iterations += 1;
            t.counter("ipm.iterations", 1);
            let cg_at_start = stats.cg_iterations;
            let iter_wall = pmcf_obs::ipm_iter_listening().then(std::time::Instant::now);

            // ---- epoch boundary: exactify, recenter, rebuild structures ----
            if stats.iterations % epoch == 0 {
                t.span("ipm/epoch", |t| {
                    t.counter("ipm.epochs", 1);
                    pmcf_obs::emit_with("ipm.epoch", || {
                        vec![
                            ("iteration", stats.iterations.into()),
                            ("mu", st.mu.into()),
                            ("epoch_len", epoch.into()),
                        ]
                    });
                    let x_exact = rs.pg.compute_exact(t);
                    let s_exact = rs.dm.compute_exact(t);
                    st.x = x_exact;
                    // NOTE: the maintained s̄ seeds the recentering residuals; the
                    // first dense Newton re-derives s = c − Ay exactly, so dual
                    // feasibility is restored from `y` regardless of the drift
                    // the sampled steps introduced.
                    st.s = s_exact;
                    barrier::clamp_interior_soft(&mut st.x, &cap, 1e-9);
                    // τ anchor refresh is the costly part (Õ(m) of solves): do it
                    // every few epochs only — the Lewis maintenance keeps τ̄
                    // locally fresh in between
                    if (stats.iterations / epoch).is_multiple_of(6) {
                        refresh_tau_dense(t, &mut st, stats.iterations);
                    } else {
                        st.tau.copy_from_slice(&rs.tau);
                    }
                    recenter(t, &mut st, &mut stats, 4);
                    rs = build_structures(
                        t,
                        p,
                        &cap,
                        &st.x,
                        &st.s,
                        st.mu,
                        &st.tau,
                        cfg.seed + stats.iterations as u64,
                    );
                    tau_sum = rs.tau.iter().sum();
                    // the heavy sampler was rebuilt: resample the step
                    // sparsifier from the fresh leverage estimates
                    step_solver = None;
                });
            }

            // ---- robust step (paper eq. (4)-(5)) ----
            // τ̄ updates
            let (tau_updates, tau_now) = rs.lm.query(t);
            for &i in &tau_updates {
                tau_sum += tau_now[i] - rs.tau[i];
                rs.tau[i] = tau_now[i];
            }

            // v̄ = Aᵀ G ∇Ψ(z̄)^{♭(τ̄)}  (bucket step; G = −γΦ''^{-1/2})
            let vbar = rs.pg.query_product(t);

            // spectral sparsifier of AᵀDA, D = (τ̄ Φ''(x̄))⁻¹: edges sampled
            // output-sensitively through the HeavySampler's expander parts
            // (probability ≥ k·σ_e), inverse-probability reweighted. The
            // sample is drawn once per epoch and its weights maintained in
            // place (see [`StepSolver`]); only a degenerate (disconnected)
            // draw leaves `step_solver` empty for a full-matrix fallback.
            let log_n = (n.max(4) as f64).log2();
            if step_solver.is_none() {
                t.span("ipm/step-sparsifier", |t| {
                    // high-leverage edges kept deterministically (conditioning),
                    // light edges sampled ∝ local degree within expander parts
                    let heavy = rs.hs.tau_above(t, 1.0 / (4.0 * log_n));
                    let lev_sample = rs.hs.leverage_sample(t, 4.0 * log_n);
                    let mut h_edges = Vec::with_capacity(heavy.len() + lev_sample.len());
                    let mut edge_ids = Vec::with_capacity(heavy.len() + lev_sample.len());
                    let mut inv_p = Vec::with_capacity(heavy.len() + lev_sample.len());
                    let mut in_heavy = std::collections::HashSet::with_capacity(heavy.len());
                    for &e in &heavy {
                        in_heavy.insert(e);
                        h_edges.push(p.graph.endpoints(e));
                        edge_ids.push(e);
                        inv_p.push(1.0);
                    }
                    for &(e, pe) in &lev_sample {
                        if in_heavy.contains(&e) {
                            continue;
                        }
                        h_edges.push(p.graph.endpoints(e));
                        edge_ids.push(e);
                        inv_p.push(1.0 / pe.max(1e-9));
                    }
                    t.charge(Cost::par_flat(
                        (heavy.len() + lev_sample.len()).max(1) as u64
                    ));
                    // the sample must keep the graph connected (parallel
                    // label-propagation check, Õ(sample) work)
                    let ug = pmcf_graph::UGraph::from_edges(n, h_edges.clone());
                    if pmcf_graph::connectivity::parallel_components(t, &ug).1 == 1 {
                        let weights: Vec<f64> = edge_ids
                            .iter()
                            .zip(&inv_p)
                            .map(|(&e, &ip)| d_weight(&rs, &cap, e) * ip)
                            .collect();
                        let mut slot_of = vec![usize::MAX; m];
                        for (slot, &e) in edge_ids.iter().enumerate() {
                            slot_of[e] = slot;
                        }
                        t.charge(Cost::par_flat(m.max(1) as u64));
                        step_solver = Some(StepSolver {
                            // loose per-step tolerance: the sampled correction
                            // only needs the right direction — solve error
                            // lands in the maintained infeasibility, gets
                            // re-targeted by the next step's δ_c, and is wiped
                            // by the epoch exactification
                            solver: LaplacianSolver::new(
                                DiGraph::from_edges(n, h_edges),
                                0,
                                SolverOpts {
                                    tol: 5e-2,
                                    max_iter: 40,
                                },
                            ),
                            inv_p,
                            weights,
                            slot_of,
                            gen: 1,
                        });
                    } else {
                        // degenerate sample: full matrix this step, resample
                        // on the next one (the sampler's RNG has advanced)
                        t.counter("ipm.sparsifier_fallbacks", 1);
                    }
                });
            }
            let mut rhs_y = ws.take_copy(t, &vbar);
            rhs_y[0] = 0.0;
            let mut rhs_c = ws.take_copy(t, &rs.infeas);
            rhs_c[0] = 0.0;
            // Both right-hand sides share the step's preconditioner: solve
            // them as one batch (independent CG branches in the model).
            let specs = [
                RhsSpec {
                    b: &rhs_y,
                    guess: if cfg.warm_start {
                        prev_dy.as_deref()
                    } else {
                        None
                    },
                },
                RhsSpec {
                    b: &rhs_c,
                    guess: if cfg.warm_start {
                        prev_dc.as_deref()
                    } else {
                        None
                    },
                },
            ];
            let ((dy, st_y), (dc, st_c)) = match &step_solver {
                // keyed solve: while `gen` is unchanged the Jacobi
                // diagonal is a cache hit and the warm starts face the
                // exact matrix they solved last step
                Some(ss) => ss.solver.solve_pair(
                    t,
                    &ss.weights,
                    &specs[0],
                    &specs[1],
                    &SolveParams {
                        opts: None,
                        d_gen: Some(ss.gen),
                        ws: Some(ws),
                    },
                ),
                None => {
                    // full-matrix fallback: pooled Θ(m) diagonal filled by
                    // parallel tabulate (log depth) instead of a serial
                    // collect
                    let mut d_full = ws.take(t, m);
                    pp::par_tabulate_into(t, &mut d_full, |e| d_weight(&rs, &cap, e));
                    let sv = solver.solve_pair(
                        t,
                        &d_full,
                        &specs[0],
                        &specs[1],
                        &SolveParams {
                            opts: Some(SolverOpts {
                                tol: 5e-2,
                                max_iter: 40,
                            }),
                            d_gen: None,
                            ws: Some(ws),
                        },
                    );
                    ws.give(d_full);
                    sv
                }
            };
            stats.cg_iterations += st_y.iterations + st_c.iterations;
            ws.give(rhs_y);
            ws.give(rhs_c);
            stats.newton_steps += 1;

            // combined potential for the sampled correction
            let mut pot = ws.take(t, n);
            for (o, (&a, &b2)) in pot.iter_mut().zip(dy.iter().zip(&dc)) {
                *o = a + b2;
            }

            // R-sampled sparse part of δ_x: −R T̄⁻¹Φ''⁻¹ A(δ_y+δ_c)
            let r_sample = if cfg.dense_sampling {
                // ablation: no sparsification — every coordinate corrected
                t.charge(Cost::par_flat(m as u64));
                (0..m).map(|e| (e, 1.0)).collect()
            } else {
                rs.hs.sample(t, &pot, 0.5, 0.2, 0.5)
            };
            let mut h_sparse: Vec<(usize, f64)> = Vec::with_capacity(r_sample.len());
            for &(e, rii) in &r_sample {
                let (u, v) = p.graph.endpoints(e);
                let a_pot = pot[v] - pot[u];
                let val = -rii * d_weight(&rs, &cap, e) * a_pot;
                if val != 0.0 {
                    h_sparse.push((e, val));
                }
            }
            t.charge(Cost::par_flat(r_sample.len().max(1) as u64));
            stats.sampled_coords += r_sample.len() as u64;
            t.observe("ipm.sampled_coords", r_sample.len() as u64);

            // apply: x̄ ← x̄ + G∇Ψ^♭ + h_sparse (lazy), Δ update, s̄ update
            let j_x = rs.pg.query_sum(t, &h_sparse);
            for (d, &vb) in rs.infeas.iter_mut().zip(&vbar) {
                *d += vb;
            }
            for &(e, val) in &h_sparse {
                let (u, v) = p.graph.endpoints(e);
                rs.infeas[u] -= val;
                rs.infeas[v] += val;
            }
            t.charge(Cost::par_flat((n + h_sparse.len()) as u64));
            // δ_s = −A δ_y (the dual slack moves opposite the potentials)
            let mut neg_dy = ws.take(t, n);
            for (o, &v) in neg_dy.iter_mut().zip(dy.iter()) {
                *o = -v;
            }
            let j_s = rs.dm.add(t, &neg_dy);
            ws.give(neg_dy);
            ws.give(pot);
            // δ_y/δ_c either become the next step's warm starts
            // (displacing their predecessors into the pool) or go
            // straight back
            if cfg.warm_start {
                if let Some(old) = prev_dy.replace(dy) {
                    ws.give(old);
                }
                if let Some(old) = prev_dc.replace(dc) {
                    ws.give(old);
                }
            } else {
                ws.give(dy);
                ws.give(dc);
            }

            // refresh per-coordinate state for everything that moved
            let refresh = t.span_guard("ipm/refresh");
            let mut dirty: Vec<usize> = j_x.into_iter().chain(j_s).chain(tau_updates).collect();
            dirty.sort_unstable();
            dirty.dedup();
            let xbar = rs.pg.xbar();
            let sbar = rs.dm.vbar();
            let mut pg_updates = Vec::with_capacity(dirty.len());
            let mut lm_updates = Vec::new();
            let mut hs_updates = Vec::new();
            let mut pushed: Vec<(usize, f64)> = Vec::new();
            let z_reg = (n as f64 / m as f64).min(0.5);
            for &e in &dirty {
                let xi = xbar[e].clamp(
                    (1e-9 * cap[e].max(1.0)).min(barrier::INTERIOR_LO_ABS),
                    cap[e] * (1.0 - 1e-9),
                );
                let (_, d2) = phi_terms(xi, cap[e]);
                let z = z_of(sbar[e], xi, cap[e], rs.tau[e], st.mu);
                pg_updates.push((e, -GAMMA / d2.sqrt(), rs.tau[e].clamp(z_reg, 2.0), z));
                // weight-indexed structures (expander decompositions inside):
                // only push when φ'' drifted ≥ 25% since the last push — the
                // class structure is insensitive to smaller changes
                let drift = d2 / rs.pushed_dd[e];
                if !(0.8..=1.25).contains(&drift) {
                    lm_updates.push((e, 1.0 / d2.sqrt()));
                    hs_updates.push((e, 1.0 / (rs.tau[e] * d2), rs.tau[e].max(1e-12)));
                    pushed.push((e, d2));
                }
            }
            drop(refresh);
            rs.pg.update(t, &pg_updates);
            rs.lm.scale(t, &lm_updates);
            rs.hs.scale(t, &hs_updates);
            for (e, d2) in pushed {
                rs.pushed_dd[e] = d2;
            }

            // keep the epoch sparsifier's weights tracking the moved
            // coordinates, under the same 25% drift gate as the other
            // weight-indexed structures: most steps leave the matrix
            // bit-identical (generation unchanged ⇒ preconditioner cache
            // hit and a warm start against the very same operator)
            if let Some(ss) = &mut step_solver {
                let mut changed = false;
                for &e in &dirty {
                    let slot = ss.slot_of[e];
                    if slot == usize::MAX {
                        continue;
                    }
                    let w = d_weight(&rs, &cap, e) * ss.inv_p[slot];
                    if !(0.8..=1.25).contains(&(w / ss.weights[slot])) {
                        ss.weights[slot] = w;
                        changed = true;
                    }
                }
                t.charge(Cost::par_flat(dirty.len().max(1) as u64));
                if changed {
                    ss.gen += 1;
                }
            }

            // μ step (Στ̄ maintained incrementally)
            let shrink = (1.0 - STEP_R / tau_sum.sqrt().max(1.0)).max(0.5);
            pmcf_obs::record_ipm_iter(|| pmcf_obs::IpmIterRow {
                engine: label.to_string(),
                iteration: stats.iterations as u64,
                mu: st.mu,
                gap: st.mu * tau_sum,
                step: Some(shrink),
                cg_iters: (stats.cg_iterations - cg_at_start) as u64,
                wall_ns: iter_wall.map_or(0, |w| w.elapsed().as_nanos() as u64),
                work: t.work(),
                depth: t.depth(),
            });
            st.mu *= shrink;
        }
    });

    // final exactification + polish
    st.x = rs.pg.compute_exact(t);
    st.s = rs.dm.compute_exact(t);
    barrier::clamp_interior_soft(&mut st.x, &cap, 1e-9);
    refresh_tau_dense(t, &mut st, stats.iterations + 1);
    recenter(t, &mut st, &mut stats, 2 * MAX_CORRECTORS);
    let (_, mut worst) = centrality(&st, &cap);
    // Extended rescue: warm starts can land here still outside the
    // ε-centered ball (the μ loop may have run zero iterations); keep
    // recentering with a larger budget before certifying termination.
    // Cold runs already sit inside `CENTER_TOL` and skip this entirely.
    if worst > 1.0 {
        recenter(t, &mut st, &mut stats, 64 * MAX_CORRECTORS);
        worst = centrality(&st, &cap).1;
    }
    finish(t, label, is_warm, st.mu, worst, &mut stats);
    (st, stats)
}

/// One dense Newton step (shared with the reference engine's math; used
/// for the periodic recentering whose amortized cost is `Õ(m/√n)`).
///
/// `warm` carries the previous step's `δ_y` as a CG warm start when
/// `warm_start` is set; the solver falls back to a cold start whenever
/// the guess does not reduce the initial residual.
#[allow(clippy::too_many_arguments)]
fn dense_newton(
    t: &mut Tracker,
    p: &McfProblem,
    solver: &LaplacianSolver,
    cap: &[f64],
    cost: &[f64],
    st: &mut CentralPathState,
    stats: &mut PathStats,
    warm_start: bool,
    warm: &mut Option<Vec<f64>>,
    opts: Option<SolverOpts>,
    ws: &Workspace,
) {
    t.span("ipm/newton", |t| {
        t.counter("ipm.newton_steps", 1);
        let m = p.m();
        let n = p.n();
        let mut r_d = ws.take(t, m);
        for (e, o) in r_d.iter_mut().enumerate() {
            let (d1, _) = phi_terms(st.x[e], cap[e]);
            *o = st.s[e] + st.mu * st.tau[e] * d1;
        }
        let mut atx = ws.take(t, n);
        incidence::apply_at_into(t, &p.graph, &st.x, &mut atx);
        let mut d = ws.take(t, m);
        for (e, o) in d.iter_mut().enumerate() {
            let (_, d2) = phi_terms(st.x[e], cap[e]);
            *o = 1.0 / (st.mu * st.tau[e] * d2);
        }
        let mut dr = ws.take(t, m);
        for (o, (&di, &ri)) in dr.iter_mut().zip(d.iter().zip(r_d.iter())) {
            *o = di * ri;
        }
        let mut rhs = ws.take(t, n);
        incidence::apply_at_into(t, &p.graph, &dr, &mut rhs);
        for (v, o) in rhs.iter_mut().enumerate() {
            *o += p.demand[v] as f64 - atx[v];
        }
        rhs[0] = 0.0;
        let params = SolveParams {
            opts,
            d_gen: None,
            ws: Some(ws),
        };
        let spec = RhsSpec {
            b: &rhs,
            guess: if warm_start { warm.as_deref() } else { None },
        };
        let (dy, ss) = solver.solve_with(t, &d, &spec, &params);
        stats.cg_iterations += ss.iterations;
        // δ_x = D(A δ_y − r_d); `dr` is dead, reuse it for A δ_y
        incidence::apply_a_into(t, &p.graph, &dy, &mut dr);
        let mut dx = ws.take(t, m);
        for (e, o) in dx.iter_mut().enumerate() {
            *o = d[e] * (dr[e] - r_d[e]);
        }
        let mut alpha = 1.0f64;
        for (e, &dxe) in dx.iter().enumerate() {
            if dxe > 0.0 {
                alpha = alpha.min(0.90 * (cap[e] - st.x[e]) / dxe);
            } else if dxe < 0.0 {
                alpha = alpha.min(0.90 * st.x[e] / (-dxe));
            }
        }
        t.charge(Cost::par_flat(m as u64 * 4).seq(Cost::reduce(m as u64)));
        for (xe, &dxe) in st.x.iter_mut().zip(dx.iter()) {
            *xe += alpha * dxe;
        }
        barrier::repair_bound_rounding(&mut st.x, cap);
        for (yi, &dyi) in st.y.iter_mut().zip(&dy) {
            *yi += alpha * dyi;
        }
        // s = c − A y; reuse the dead m-length `dr` once more
        incidence::apply_a_into(t, &p.graph, &st.y, &mut dr);
        for ((se, &ce), &aye) in st.s.iter_mut().zip(cost.iter()).zip(dr.iter()) {
            *se = ce - aye;
        }
        stats.newton_steps += 1;
        if warm_start {
            if let Some(old) = warm.replace(dy) {
                ws.give(old);
            }
        } else {
            ws.give(dy);
        }
        for buf in [r_d, atx, d, dr, rhs, dx] {
            ws.give(buf);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use pmcf_baselines::ssp;
    use pmcf_graph::generators;

    #[test]
    fn robust_engine_reaches_optimum() {
        for seed in 0..3 {
            let p = generators::random_mcf(10, 36, 3, 3, seed);
            let opt = ssp::min_cost_flow(&p).unwrap();
            let ext = init::extend(&p).unwrap();
            let mu0 = init::initial_mu(&ext.prob, 0.25);
            let mu_end = init::final_mu(&ext.prob);
            let mut t = Tracker::new();
            let (st, stats) = path_follow(
                &mut t,
                &ext.prob,
                ext.x0.clone(),
                mu0,
                mu_end,
                &PathFollowConfig::default(),
            );
            assert!(stats.iterations > 0);
            let rounded = crate::rounding::round_to_optimal(&ext.prob, &st.x).unwrap();
            assert!(
                rounded.x[ext.m_orig..].iter().all(|&x| x == 0),
                "seed {seed}: aux flow"
            );
            let cost: i64 = rounded.x[..ext.m_orig]
                .iter()
                .zip(&p.cost)
                .map(|(&x, &c)| x * c)
                .sum();
            assert_eq!(cost, opt.cost(&p), "seed {seed}");
        }
    }

    #[test]
    fn robust_work_beats_dense_per_iteration() {
        // accounted work per iteration (excluding epoch boundaries) must
        // be well below m on a dense instance
        let p = generators::random_mcf(64, 4096, 4, 3, 9);
        let ext = init::extend(&p).unwrap();
        let mu0 = init::initial_mu(&ext.prob, 0.25);
        let mut t_rob = Tracker::new();
        let (_, s_rob) = path_follow(
            &mut t_rob,
            &ext.prob,
            ext.x0.clone(),
            mu0,
            mu0 / 50.0, // a few dozen iterations
            &PathFollowConfig::default(),
        );
        // the [LS14] row of Table 1: Θ(m)-work iterations (weights and
        // solves recomputed every iteration)
        let dense_cfg = PathFollowConfig {
            tau_refresh: 1,
            ..PathFollowConfig::default()
        };
        let mut t_ref = Tracker::new();
        let (_, s_ref) = crate::reference::path_follow(
            &mut t_ref,
            &ext.prob,
            ext.x0.clone(),
            mu0,
            mu0 / 50.0,
            &dense_cfg,
        );
        let w_rob = t_rob.work() as f64 / s_rob.iterations.max(1) as f64;
        let w_ref = t_ref.work() as f64 / s_ref.iterations.max(1) as f64;
        assert!(
            w_rob < w_ref,
            "robust {w_rob}/iter should beat dense-LS14 {w_ref}/iter"
        );
    }
}
