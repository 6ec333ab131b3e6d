//! The reference path-following engine.
//!
//! Weighted-barrier primal-dual path following with *exact* per-iteration
//! recomputation: every iteration recomputes `φ'`, `φ''`, the centrality
//! residual and one Newton step through a grounded-Laplacian solve
//! (Lemma A.1). Per-iteration work is `Õ(m)`, iteration count
//! `Õ(√n · log(μ₀/μ_end))` — i.e. the `Õ(m√n)`-work/`Õ(√n)`-depth cost
//! shape of the Lee–Sidford row of Table 1, and the correctness anchor
//! the robust engine (the paper's contribution) is validated against.
//!
//! The Newton system at path parameter `μ` with weights `τ`:
//!
//! ```text
//!   r_d = s + μ τ φ'(x)        (dual centrality residual, s = c − Ay)
//!   r_p = b − Aᵀx              (primal residual)
//!   AᵀDA δ_y = r_p + AᵀD r_d,  D = (μ τ φ''(x))⁻¹
//!   δ_x = D (A δ_y − r_d)
//! ```

use crate::api::Engine;
use crate::barrier;
use pmcf_graph::{incidence, McfProblem};
use pmcf_linalg::leverage::estimate_leverage;
use pmcf_linalg::solver::{LaplacianSolver, RhsSpec, SolveParams, SolverOpts};
use pmcf_pram::{Cost, Tracker, Workspace};

/// Safety factor declared in `solve.start` events for the
/// `iteration-envelope` monitor: with μ shrinking by `1 − r/√Στ` and
/// `Στ ≈ 2n`, a solve takes ≈ `(√(2n)/r)·ln(μ₀/μ_end)` outer iterations;
/// the monitor flags a run exceeding `ENVELOPE_C` times that.
pub const ENVELOPE_C: f64 = 3.0;

/// Centering tolerance: the `‖z‖_∞` target after correction.
pub const CENTER_TOL: f64 = 0.25;
/// μ shrink factor numerator: `μ ← μ(1 − r/√Στ)`.
pub const STEP_R: f64 = 0.5;
/// Corrector Newton steps per μ value (cap).
pub const MAX_CORRECTORS: usize = 12;
/// Hard iteration cap (safety).
pub const MAX_ITERS: usize = 200_000;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct PathFollowConfig {
    /// Refresh the barrier weights every this many iterations.
    pub tau_refresh: usize,
    /// RNG seed for leverage estimation.
    pub seed: u64,
    /// Ablation (A-ABL): replace the HeavySampler's expander-driven
    /// sparsification of `δ_x` with a dense `Θ(m)` correction.
    pub dense_sampling: bool,
    /// Warm-start each Newton solve from the previous step's solution
    /// (`D` drifts slowly along the central path) and adapt the CG
    /// tolerance per phase: loose when far from centered (the damped
    /// line search absorbs direction error), tight near the path.
    /// Disable to measure the cold-start baseline, with every solve at
    /// the solver's construction-time tolerance;
    /// `solver.warm_start_hits` counts acceptances.
    pub warm_start: bool,
}

impl Default for PathFollowConfig {
    fn default() -> Self {
        PathFollowConfig {
            tau_refresh: 25,
            seed: 0x5eed,
            dense_sampling: false,
            warm_start: true,
        }
    }
}

/// Statistics from a path-following run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathStats {
    /// Outer iterations (μ decreases).
    pub iterations: usize,
    /// Total Newton steps (predictor + correctors).
    pub newton_steps: usize,
    /// Total CG iterations across all Laplacian solves.
    pub cg_iterations: usize,
    /// Final μ.
    pub final_mu: f64,
    /// Final ‖z‖_∞ centrality.
    pub final_centrality: f64,
    /// Coordinates touched by the sparsified δ_x corrections (robust
    /// engine only; the A-ABL measurement).
    pub sampled_coords: u64,
}

impl PathStats {
    /// Fold in `later`, a run that followed the ones counted here: the
    /// four counters add, `final_mu` is `later`'s and `final_centrality`
    /// the larger of the two.
    pub(crate) fn merge(&mut self, later: &PathStats) {
        self.iterations += later.iterations;
        self.newton_steps += later.newton_steps;
        self.cg_iterations += later.cg_iterations;
        self.sampled_coords += later.sampled_coords;
        self.final_mu = later.final_mu;
        self.final_centrality = self.final_centrality.max(later.final_centrality);
    }
}

/// Internal state shared by engines.
pub struct CentralPathState {
    /// Primal iterate (strictly interior).
    pub x: Vec<f64>,
    /// Dual potentials.
    pub y: Vec<f64>,
    /// Dual slack `s = c − Ay`.
    pub s: Vec<f64>,
    /// Barrier weights `τ`.
    pub tau: Vec<f64>,
    /// Path parameter.
    pub mu: f64,
}

/// Compute the centrality vector `z_i = (s + μτφ')/(μτ√φ'')` and its
/// ∞-norm.
pub fn centrality(st: &CentralPathState, cap: &[f64]) -> (Vec<f64>, f64) {
    let mut worst = 0.0f64;
    let z: Vec<f64> =
        st.x.iter()
            .zip(cap)
            .zip(&st.s)
            .zip(&st.tau)
            .map(|(((&xi, &ui), &si), &ti)| {
                let zi = (si + st.mu * ti * barrier::dphi(xi, ui))
                    / (st.mu * ti * barrier::ddphi(xi, ui).sqrt());
                worst = worst.max(zi.abs());
                zi
            })
            .collect();
    (z, worst)
}

/// Start-up both engines share: `y` (zero, or the warm duals), `s = c − Ay`,
/// `τ = 1`, the interior clamp, and the `solve.start` event declaring the
/// iteration envelope. Returns the state and the run's label for events
/// and `pmcf.report/v1` convergence rows: the engine's name, prefixed
/// `resolve-` for a warm start so resolve iterations are tellable apart
/// from fresh ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn begin(
    t: &mut Tracker,
    p: &McfProblem,
    engine: Engine,
    x0: Vec<f64>,
    y0: Option<Vec<f64>>,
    cap: &[f64],
    mu0: f64,
    mu_end: f64,
) -> (CentralPathState, &'static str) {
    let (n, m) = (p.n(), p.m());
    let label = match (engine, y0.is_some()) {
        (Engine::Reference, false) => "reference",
        (Engine::Robust, false) => "robust",
        (Engine::Reference, true) => "resolve-reference",
        (Engine::Robust, true) => "resolve-robust",
    };
    let y = y0.unwrap_or_else(|| vec![0.0; n]);
    debug_assert_eq!(y.len(), n);
    let mut s = vec![0.0; m];
    incidence::apply_a_into(t, &p.graph, &y, &mut s);
    for (se, &ce) in s.iter_mut().zip(&p.cost) {
        *se = ce as f64 - *se;
    }
    let mut st = CentralPathState {
        x: x0,
        y,
        s,
        tau: vec![1.0; m],
        mu: mu0,
    };
    barrier::clamp_interior_soft(&mut st.x, cap, 1e-9);
    pmcf_obs::emit_with("solve.start", || {
        vec![
            ("engine", label.into()),
            ("n", n.into()),
            ("m", m.into()),
            ("mu0", mu0.into()),
            ("mu_end", mu_end.into()),
            ("step_r", STEP_R.into()),
            ("gamma", CENTER_TOL.into()),
            ("envelope_c", ENVELOPE_C.into()),
        ]
    });
    (st, label)
}

/// Termination both engines share: record the terminal fields, declare
/// the ε-centered ball of Definition F.1 (`‖z‖_∞ ≤ 1`) with
/// `ipm.centered`, and emit `solve.end` (totals plus the profiled span
/// tree's top-level work when a profiler is attached, for the
/// `tracker-reconciliation` monitor). A warm run that missed the ball
/// declares `ipm.uncentered` instead: the caller discards its point and
/// falls back to a cold solve, whose own declaration then covers the
/// instance. Cold runs always declare, so a genuinely uncentered cold
/// termination stays a loud monitor failure.
pub(crate) fn finish(
    t: &Tracker,
    label: &'static str,
    warm: bool,
    mu: f64,
    worst: f64,
    stats: &mut PathStats,
) {
    stats.final_centrality = worst;
    stats.final_mu = mu;
    if worst <= 1.0 || !warm {
        pmcf_obs::emit_with("ipm.centered", || {
            vec![
                ("centrality", worst.into()),
                ("limit", 1.0.into()),
                ("phase", "final".into()),
            ]
        });
    } else {
        pmcf_obs::emit_with("ipm.uncentered", || {
            vec![("centrality", worst.into()), ("mu", mu.into())]
        });
    }
    pmcf_obs::emit_with("solve.end", || {
        let mut fields: Vec<(&'static str, pmcf_obs::JsonValue)> = vec![
            ("engine", label.into()),
            ("iterations", stats.iterations.into()),
            ("work", t.work().into()),
            ("depth", t.depth().into()),
            ("final_mu", stats.final_mu.into()),
            ("final_centrality", stats.final_centrality.into()),
        ];
        if let Some(report) = t.profile_report() {
            let span_work: u64 = report.spans.iter().map(|s| s.work).sum();
            fields.push(("span_work", span_work.into()));
        }
        fields
    });
}

/// Run path following from `(x0, μ0)` down to `μ_end`; returns the final
/// state and statistics. `Õ(m)` work per iteration.
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
/// starts from `y = 0` with a private arena.
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
    let b: Vec<f64> = p.demand.iter().map(|&d| d as f64).collect();
    let cost: Vec<f64> = p.cost.iter().map(|&c| c as f64).collect();
    let solver = LaplacianSolver::new(p.graph.clone(), 0, SolverOpts::default());
    // loose solver for weight estimation — constant-factor accuracy
    let tau_solver = LaplacianSolver::new(
        p.graph.clone(),
        0,
        SolverOpts {
            tol: 2e-3,
            max_iter: 300,
        },
    );

    let is_warm = warm.is_some();
    let (y0, ws_ext) = warm.unzip();
    let (mut st, label) = begin(t, p, Engine::Reference, x0, y0, &cap, mu0, mu_end);
    let mut stats = PathStats::default();

    let refresh_tau =
        |t: &mut Tracker, st: &mut CentralPathState, stats: &mut PathStats, round: usize| {
            t.span("ipm/tau-refresh", |t| {
                t.counter("ipm.tau_refreshes", 1);
                // τ = σ(Φ''^{-1/2} A) + n/m  (leverage-score weights; the ℓ_p
                // Lewis refinement changes polylog factors only — DESIGN.md §2)
                let d: Vec<f64> =
                    st.x.iter()
                        .zip(&cap)
                        .map(|(&xi, &ui)| 1.0 / barrier::ddphi(xi, ui))
                        .collect();
                let sigma =
                    estimate_leverage(t, &tau_solver, &d, 0.8, cfg.seed.wrapping_add(round as u64));
                let reg = n as f64 / m as f64;
                for (te, se) in st.tau.iter_mut().zip(&sigma) {
                    *te = se + reg;
                }
                stats.cg_iterations += 1; // counted coarsely inside estimate
            })
        };
    refresh_tau(t, &mut st, &mut stats, 0);

    // One buffer arena for the whole solve: every Newton temporary and
    // all CG scratch (threaded through `SolveParams::ws`) recycles here,
    // so steady-state steps perform zero heap allocations in the
    // matvec/vector-op path. Warm resolves reuse the checkpoint's arena
    // so repeated deltas stop allocating entirely.
    let ws_own = Workspace::new();
    let ws = ws_ext.unwrap_or(&ws_own);
    // Previous Newton solution, carried across steps as a warm start.
    let mut prev_dy: Option<Vec<f64>> = None;
    let mut newton =
        |t: &mut Tracker, st: &mut CentralPathState, stats: &mut PathStats, worst: f64| -> f64 {
            t.span("ipm/newton", |t| {
                t.counter("ipm.newton_steps", 1);
                // residuals
                let mut ddx = ws.take(t, m);
                for (o, (&xi, &ui)) in ddx.iter_mut().zip(st.x.iter().zip(&cap)) {
                    *o = barrier::ddphi(xi, ui);
                }
                let mut r_d = ws.take(t, m);
                for (o, (((&xi, &ui), &si), &ti)) in r_d
                    .iter_mut()
                    .zip(st.x.iter().zip(&cap).zip(&st.s).zip(&st.tau))
                {
                    *o = si + st.mu * ti * barrier::dphi(xi, ui);
                }
                let mut r_p = ws.take(t, n);
                incidence::apply_at_into(t, &p.graph, &st.x, &mut r_p);
                for (o, &bi) in r_p.iter_mut().zip(&b) {
                    *o = bi - *o;
                }
                // D = 1/(μ τ φ'')
                let mut d = ws.take(t, m);
                for (o, (&ti, &pi)) in d.iter_mut().zip(st.tau.iter().zip(&ddx)) {
                    *o = 1.0 / (st.mu * ti * pi);
                }
                // rhs = r_p + AᵀD r_d
                let mut dr = ws.take(t, m);
                for (o, (&di, &ri)) in dr.iter_mut().zip(d.iter().zip(&r_d)) {
                    *o = di * ri;
                }
                let mut rhs = ws.take(t, n);
                incidence::apply_at_into(t, &p.graph, &dr, &mut rhs);
                for (o, &a) in rhs.iter_mut().zip(&r_p) {
                    *o += a;
                }
                rhs[0] = 0.0;
                // Per-phase adaptive tolerance: far from centered (large
                // ‖z‖_∞) a loose direction suffices — the damped line search
                // absorbs the error; near the path, tighten back down.
                let tol = if cfg.warm_start {
                    (worst * 1e-6).clamp(1e-10, 1e-4)
                } else {
                    SolverOpts::default().tol
                };
                let params = SolveParams {
                    opts: Some(SolverOpts {
                        tol,
                        max_iter: SolverOpts::default().max_iter,
                    }),
                    d_gen: None,
                    ws: Some(ws),
                };
                let spec = RhsSpec {
                    b: &rhs,
                    guess: if cfg.warm_start {
                        prev_dy.as_deref()
                    } else {
                        None
                    },
                };
                let (dy, solve_stats) = solver.solve_with(t, &d, &spec, &params);
                stats.cg_iterations += solve_stats.iterations;
                // δ_x = D(A δ_y − r_d); `dr` is dead, reuse it for A δ_y
                incidence::apply_a_into(t, &p.graph, &dy, &mut dr);
                let mut dx = ws.take(t, m);
                for (o, ((&di, &ai), &ri)) in dx.iter_mut().zip(d.iter().zip(&dr).zip(&r_d)) {
                    *o = di * (ai - ri);
                }
                t.charge(Cost::par_flat(m as u64 * 4));
                // line search: stay strictly inside the box
                let mut alpha = 1.0f64;
                for ((&xi, &ui), &dxi) in st.x.iter().zip(&cap).zip(&dx) {
                    if dxi > 0.0 {
                        alpha = alpha.min(0.90 * (ui - xi) / dxi);
                    } else if dxi < 0.0 {
                        alpha = alpha.min(0.90 * xi / (-dxi));
                    }
                }
                t.charge(Cost::reduce(m as u64));
                for (xi, &dxi) in st.x.iter_mut().zip(&dx) {
                    *xi += alpha * dxi;
                }
                barrier::repair_bound_rounding(&mut st.x, &cap);
                for (yi, &dyi) in st.y.iter_mut().zip(&dy) {
                    *yi += alpha * dyi;
                }
                // s = c − A y; reuse the dead m-length `dr` once more
                incidence::apply_a_into(t, &p.graph, &st.y, &mut dr);
                for ((si, &ci), &ayi) in st.s.iter_mut().zip(&cost).zip(dr.iter()) {
                    *si = ci - ayi;
                }
                stats.newton_steps += 1;
                // recycle everything; `dy` either becomes the next warm
                // start (displacing its predecessor into the pool) or
                // goes straight back
                if cfg.warm_start {
                    if let Some(old) = prev_dy.replace(dy) {
                        ws.give(old);
                    }
                } else {
                    ws.give(dy);
                }
                for buf in [ddx, r_d, r_p, d, dr, rhs, dx] {
                    ws.give(buf);
                }
                alpha
            })
        };

    t.span("ipm/loop", |t| {
        while st.mu > mu_end && stats.iterations < MAX_ITERS {
            stats.iterations += 1;
            t.counter("ipm.iterations", 1);
            let mu_at_start = st.mu;
            let cg_at_start = stats.cg_iterations;
            let iter_wall = pmcf_obs::ipm_iter_listening().then(std::time::Instant::now);
            if stats.iterations % cfg.tau_refresh == 0 {
                let round = stats.iterations;
                refresh_tau(t, &mut st, &mut stats, round);
            }
            // corrector: re-center at current μ
            for _ in 0..MAX_CORRECTORS {
                let (_, worst) = centrality(&st, &cap);
                t.charge(Cost::par_flat(m as u64));
                if worst <= CENTER_TOL {
                    pmcf_obs::emit_with("ipm.centered", || {
                        vec![
                            ("centrality", worst.into()),
                            ("limit", CENTER_TOL.into()),
                            ("phase", "corrector".into()),
                        ]
                    });
                    break;
                }
                let alpha = newton(t, &mut st, &mut stats, worst);
                if alpha < 1e-12 {
                    break; // numerically stuck; step μ anyway
                }
            }
            // predictor: shrink μ
            let tau_sum: f64 = st.tau.iter().sum();
            let shrink = (1.0 - STEP_R / tau_sum.sqrt().max(1.0)).max(0.5);
            pmcf_obs::record_ipm_iter(|| pmcf_obs::IpmIterRow {
                engine: label.to_string(),
                iteration: stats.iterations as u64,
                mu: mu_at_start,
                gap: mu_at_start * tau_sum,
                step: Some(shrink),
                cg_iters: (stats.cg_iterations - cg_at_start) as u64,
                wall_ns: iter_wall.map_or(0, |w| w.elapsed().as_nanos() as u64),
                work: t.work(),
                depth: t.depth(),
            });
            st.mu *= shrink;
        }
    });
    // final polish at μ_end
    t.span("ipm/polish", |t| {
        for _ in 0..MAX_CORRECTORS {
            let (_, worst) = centrality(&st, &cap);
            if worst <= CENTER_TOL {
                break;
            }
            if newton(t, &mut st, &mut stats, worst) < 1e-12 {
                break;
            }
        }
    });
    let (_, mut worst) = centrality(&st, &cap);
    // Extended rescue: a warm start can exit the μ loop without a single
    // iteration (pick_mu lands on μ_end) or with its corrector budget
    // exhausted while still far outside the ε-centered ball — the
    // termination certificate below would then be a lie. Fixed-μ damped
    // Newton is globally convergent, so keep correcting with a larger
    // budget; cold runs are already inside `CENTER_TOL` and never enter.
    if worst > 1.0 {
        t.span("ipm/polish", |t| {
            for _ in 0..64 * MAX_CORRECTORS {
                if worst <= CENTER_TOL {
                    break;
                }
                if newton(t, &mut st, &mut stats, worst) < 1e-12 {
                    break;
                }
                worst = centrality(&st, &cap).1;
            }
        });
    }
    finish(t, label, is_warm, st.mu, worst, &mut stats);
    (st, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use pmcf_baselines::ssp;
    use pmcf_graph::generators;

    #[test]
    fn stays_feasible_and_interior() {
        let p = generators::random_mcf(10, 30, 4, 3, 1);
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
        // interior
        for (e, &xi) in st.x.iter().enumerate() {
            let ui = ext.prob.cap[e] as f64;
            assert!(xi > 0.0 && xi < ui, "edge {e}: {xi} vs {ui}");
        }
        // near-feasible
        let mut net: Vec<f64> = ext.prob.demand.iter().map(|&b| -b as f64).collect();
        for (e, &(u, v)) in ext.prob.graph.edges().iter().enumerate() {
            net[u] -= st.x[e];
            net[v] += st.x[e];
        }
        let worst = net.iter().fold(0.0f64, |a, &r| a.max(r.abs()));
        assert!(worst < 1e-3, "conservation residual {worst}");
        assert!(stats.final_centrality < 1.0);
    }

    #[test]
    fn objective_approaches_optimum() {
        for seed in 0..4 {
            let p = generators::random_mcf(8, 24, 3, 3, seed);
            let opt = ssp::min_cost_flow(&p).unwrap();
            let opt_cost = opt.cost(&p) as f64;
            let ext = init::extend(&p).unwrap();
            let mu0 = init::initial_mu(&ext.prob, 0.25);
            let mu_end = init::final_mu(&ext.prob);
            let mut t = Tracker::new();
            let (st, _) = path_follow(
                &mut t,
                &ext.prob,
                ext.x0.clone(),
                mu0,
                mu_end,
                &PathFollowConfig::default(),
            );
            // cost of the original coordinates (aux flows ≈ 0)
            let frac_cost: f64 = st.x[..ext.m_orig]
                .iter()
                .zip(&p.cost)
                .map(|(&x, &c)| x * c as f64)
                .sum();
            let aux_flow: f64 = st.x[ext.m_orig..].iter().sum();
            assert!(
                aux_flow < 0.01,
                "seed {seed}: auxiliary flow {aux_flow} should vanish"
            );
            assert!(
                (frac_cost - opt_cost).abs() < 1.0,
                "seed {seed}: fractional cost {frac_cost} vs optimum {opt_cost}"
            );
        }
    }

    #[test]
    fn iteration_count_grows_slowly_with_n() {
        let mut iters = Vec::new();
        for &(n, m) in &[(8usize, 24usize), (32, 160)] {
            let p = generators::random_mcf(n, m, 4, 3, 7);
            let ext = init::extend(&p).unwrap();
            let mu0 = init::initial_mu(&ext.prob, 0.25);
            let mu_end = init::final_mu(&ext.prob);
            let mut t = Tracker::new();
            let (_, stats) = path_follow(
                &mut t,
                &ext.prob,
                ext.x0.clone(),
                mu0,
                mu_end,
                &PathFollowConfig::default(),
            );
            iters.push(stats.iterations);
        }
        // 4× n should grow iterations ≈ 2× (√n law), allow ≤ 4×
        assert!(
            iters[1] < iters[0] * 4,
            "iterations grew too fast: {iters:?}"
        );
    }
}
