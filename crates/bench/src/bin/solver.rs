//! Experiment E-SOLVER — the Laplacian-solver reuse layer: warm starts,
//! preconditioner caching, and batched multi-RHS solves.
//!
//! Rows:
//! - `op=leverage` — a sketched leverage estimation (`r` independent CG
//!   solves through `solve_batch`): wall clock (advisory), charged
//!   work/depth, and total CG iterations.
//! - `op=cg_steady` — repeated workspace-pooled solves against a fixed
//!   diagonal after a warm-up solve, under the counting allocator:
//!   `allocs_per_iter` is the gated metric and must stay exactly 0
//!   (steady-state CG performs no heap allocation in the
//!   matvec/vector-op path).
//! - `op=ipm_cold` / `op=ipm_warm` — a full reference-IPM solve with
//!   warm starts off / on; `cg_iterations` is the gated metric (the
//!   reuse layer's whole point is to shrink it), `wall_seconds` the
//!   advisory wall-clock trend.
//!
//! Boolean invariants (a true→false flip fails the gate):
//! - `warm_start_reduction_ok` — warm-started solve spends ≤ 0.8× the
//!   cold CG iterations,
//! - `batch_matches_single` — `solve_batch` agrees with per-RHS
//!   `solve` to 1e-9,
//! - `parallel_cost_model_consistent` — charged work/depth are
//!   identical across repeat runs and across
//!   `ParMode::Sequential`/`ParMode::Forked` execution of the same
//!   branch program (thread scheduling must not leak into the model).
//!
//! Flags: `--seed <u64> --json <path>`; `PMCF_PROFILE=1` embeds the
//! span-tree profile of the leverage run; `PMCF_REPORT=<path>` writes a
//! unified `pmcf.report/v1` run report with the warm IPM run's spans and
//! per-iteration convergence table.

use pmcf_bench::{mdln, measure_allocs, Artifact, BenchArgs, Json};
use pmcf_core::init;
use pmcf_core::reference::{path_follow, PathFollowConfig};
use pmcf_graph::generators;
use pmcf_linalg::leverage::estimate_leverage;
use pmcf_linalg::solver::{LaplacianSolver, RhsSpec, SolveParams, SolverOpts};
use pmcf_pram::{Cost, ParMode, Tracker};
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    pmcf_obs::report_init_from_env();
    let seed = args.seed_or(11);
    let mut artifact = Artifact::for_run("solver", seed, &args);
    artifact.set(
        "threads",
        Json::Str(rayon::current_num_threads().to_string()),
    );

    mdln!(args, "## E-SOLVER — Laplacian solver reuse layer\n");
    mdln!(
        args,
        "| op | n | m | wall_seconds | work | depth | cg_iterations | warm_start_hits |"
    );
    mdln!(args, "|---|---|---|---|---|---|---|---|");

    // ---- leverage estimation: r independent solves as one batch ----
    let (lev_n, lev_m) = (192usize, 2560usize);
    let g = generators::gnm_digraph(lev_n, lev_m, seed);
    let d: Vec<f64> = (0..lev_m)
        .map(|e| 0.5 + ((e * 37) % 100) as f64 / 25.0)
        .collect();
    let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
    let mut profile = None;
    let run_leverage = || {
        let mut t = Tracker::profiled();
        let wall = Instant::now();
        let _ = estimate_leverage(&mut t, &solver, &d, 0.5, seed);
        (wall.elapsed().as_secs_f64(), t)
    };
    let (lev_wall, lev_t) = run_leverage();
    let lev_iters = counter(&lev_t, "solver.cg_iterations_total");
    mdln!(
        args,
        "| leverage | {lev_n} | {lev_m} | {lev_wall:.4} | {} | {} | {lev_iters} | 0 |",
        lev_t.work(),
        lev_t.depth(),
    );
    artifact.row(vec![
        ("op", Json::from("leverage")),
        ("n", Json::from(lev_n)),
        ("m", Json::from(lev_m)),
        ("wall_seconds", Json::from(lev_wall)),
        ("work", Json::from(lev_t.work())),
        ("depth", Json::from(lev_t.depth())),
        ("cg_iterations", Json::from(lev_iters)),
    ]);
    // charged costs must not depend on scheduling: a repeat run charges
    // the same work/depth bit for bit
    let (_, lev_t2) = run_leverage();
    let repeat_consistent = lev_t2.work() == lev_t.work() && lev_t2.depth() == lev_t.depth();
    if std::env::var_os("PMCF_PROFILE").is_some() {
        profile = Some((format!("leverage, n={lev_n}, m={lev_m}"), lev_t));
    }

    // ---- steady-state CG: zero heap allocations once the pool is warm ----
    // Same instance as the leverage run; fixed diagonal (pinned d_gen so
    // the preconditioner caches), no warm-start guess so every solve runs
    // the full CG loop. One warm-up solve populates the workspace, then
    // the measured solves must not touch the allocator at all: scratch
    // comes from the pool and the returned solution is handed back.
    let steady_b: Vec<f64> = {
        let mut b: Vec<f64> = (0..lev_n)
            .map(|v| ((v * 31 + 3) % 17) as f64 - 8.0)
            .collect();
        b[0] = 0.0;
        b
    };
    let steady_params = SolveParams {
        d_gen: Some(1),
        ..Default::default()
    };
    let steady_rhs = RhsSpec {
        b: &steady_b,
        guess: None,
    };
    let steady_rounds = 16usize;
    // warm-up: builds the preconditioner and fills every buffer class
    {
        let mut t = Tracker::new();
        let (x, _) = solver.solve_with(&mut t, &d, &steady_rhs, &steady_params);
        solver.workspace().give(x);
    }
    let mut steady_t = Tracker::new();
    let steady_wall = Instant::now();
    let ((), steady_allocs) = measure_allocs(|| {
        for _ in 0..steady_rounds {
            let (x, _) = solver.solve_with(&mut steady_t, &d, &steady_rhs, &steady_params);
            solver.workspace().give(x);
        }
    });
    let steady_wall = steady_wall.elapsed().as_secs_f64();
    let steady_iters = {
        let mut t = Tracker::new();
        let (x, stats) = solver.solve_with(&mut t, &d, &steady_rhs, &steady_params);
        solver.workspace().give(x);
        stats.iterations as u64 * steady_rounds as u64
    };
    let allocs_per_iter = steady_allocs as f64 / steady_iters.max(1) as f64;
    let zero_alloc = steady_allocs == 0;
    mdln!(
        args,
        "| cg_steady | {lev_n} | {lev_m} | {steady_wall:.4} | {} | {} | {steady_iters} | 0 |",
        steady_t.work(),
        steady_t.depth(),
    );
    mdln!(
        args,
        "  (cg_steady: {steady_allocs} allocations over {steady_rounds} solves → {allocs_per_iter:.4} allocs/iter)"
    );
    artifact.row(vec![
        ("op", Json::from("cg_steady")),
        ("n", Json::from(lev_n)),
        ("m", Json::from(lev_m)),
        ("wall_seconds", Json::from(steady_wall)),
        ("work", Json::from(steady_t.work())),
        ("depth", Json::from(steady_t.depth())),
        ("cg_iterations", Json::from(steady_iters)),
        ("allocs", Json::from(steady_allocs)),
        ("allocs_per_iter", Json::from(allocs_per_iter)),
    ]);

    // ---- robust-IPM step kernel: keyed pair solve, zero allocations ----
    // The robust IPM solves exactly two systems per Newton step against a
    // slowly-changing diagonal (the epoch-persistent sparsifier): both
    // RHS checked out of the pool, warm-started from the previous step's
    // solutions, solved through the non-allocating pair path with a
    // pinned preconditioner generation. After one warm-up step the
    // measured steps must not touch the allocator at all — this is the
    // exact shape of `robust.rs`' inner loop.
    let rhs_c_src: Vec<f64> = {
        let mut b: Vec<f64> = (0..lev_n)
            .map(|v| ((v * 13 + 5) % 23) as f64 - 11.0)
            .collect();
        b[0] = 0.0;
        b
    };
    let pair_rounds = 16usize;
    let ws = solver.workspace();
    let mut prev_dy: Option<Vec<f64>> = None;
    let mut prev_dc: Option<Vec<f64>> = None;
    let run_step =
        |t: &mut Tracker, prev_dy: &mut Option<Vec<f64>>, prev_dc: &mut Option<Vec<f64>>| {
            let rhs_y = ws.take_copy(t, &steady_b);
            let rhs_c = ws.take_copy(t, &rhs_c_src);
            let sy = RhsSpec {
                b: &rhs_y,
                guess: prev_dy.as_deref(),
            };
            let sc = RhsSpec {
                b: &rhs_c,
                guess: prev_dc.as_deref(),
            };
            let params = SolveParams {
                opts: None,
                d_gen: Some(1),
                ws: Some(ws),
            };
            let ((dy, st_y), (dc, st_c)) = solver.solve_pair(t, &d, &sy, &sc, &params);
            ws.give(rhs_y);
            ws.give(rhs_c);
            if let Some(old) = prev_dy.replace(dy) {
                ws.give(old);
            }
            if let Some(old) = prev_dc.replace(dc) {
                ws.give(old);
            }
            st_y.iterations as u64 + st_c.iterations as u64
        };
    // warm-up: fills every pool class the step touches (two RHS + two
    // solutions in flight plus both branches' CG scratch), and lets the
    // pool's injector ring buffer reach steady capacity
    {
        let mut t = Tracker::new();
        run_step(&mut t, &mut prev_dy, &mut prev_dc);
        run_step(&mut t, &mut prev_dy, &mut prev_dc);
    }
    let mut pair_t = Tracker::new();
    let mut pair_iters = 0u64;
    let pair_wall = Instant::now();
    let ((), pair_allocs) = measure_allocs(|| {
        for _ in 0..pair_rounds {
            pair_iters += run_step(&mut pair_t, &mut prev_dy, &mut prev_dc);
        }
    });
    let pair_wall = pair_wall.elapsed().as_secs_f64();
    let pair_allocs_per_iter = pair_allocs as f64 / pair_iters.max(1) as f64;
    let robust_step_zero_alloc = pair_allocs == 0;
    mdln!(
        args,
        "| robust_step | {lev_n} | {lev_m} | {pair_wall:.4} | {} | {} | {pair_iters} | 0 |",
        pair_t.work(),
        pair_t.depth(),
    );
    mdln!(
        args,
        "  (robust_step: {pair_allocs} allocations over {pair_rounds} pair-solves → {pair_allocs_per_iter:.4} allocs/iter)"
    );
    artifact.row(vec![
        ("op", Json::from("robust_step")),
        ("n", Json::from(lev_n)),
        ("m", Json::from(lev_m)),
        ("wall_seconds", Json::from(pair_wall)),
        ("work", Json::from(pair_t.work())),
        ("depth", Json::from(pair_t.depth())),
        ("cg_iterations", Json::from(pair_iters)),
        ("allocs", Json::from(pair_allocs)),
        ("allocs_per_iter", Json::from(pair_allocs_per_iter)),
    ]);

    // ---- reference IPM, cold vs warm Newton solves ----
    let p = generators::random_mcf(32, 170, 4, 4, seed);
    let ext = init::extend(&p).expect("bench instance within magnitude bounds");
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mu_end = init::final_mu(&ext.prob);
    let run_ipm = |warm: bool| {
        let mut t = Tracker::profiled();
        let cfg = PathFollowConfig {
            warm_start: warm,
            adaptive_tol: warm,
            ..PathFollowConfig::default()
        };
        let wall = Instant::now();
        let (_, stats) = path_follow(&mut t, &ext.prob, ext.x0.clone(), mu0, mu_end, &cfg);
        (stats, t, wall.elapsed().as_secs_f64())
    };
    let (cold_stats, cold_t, cold_wall) = run_ipm(false);
    let (warm_stats, warm_t, warm_wall) = run_ipm(true);
    let warm_hits = counter(&warm_t, "solver.warm_start_hits");
    for (op, stats, t, wall, hits) in [
        ("ipm_cold", &cold_stats, &cold_t, cold_wall, 0u64),
        ("ipm_warm", &warm_stats, &warm_t, warm_wall, warm_hits),
    ] {
        mdln!(
            args,
            "| {op} | {} | {} | {wall:.4} | {} | {} | {} | {hits} |",
            ext.prob.n(),
            ext.prob.m(),
            t.work(),
            t.depth(),
            stats.cg_iterations,
        );
        artifact.row(vec![
            ("op", Json::from(op)),
            ("n", Json::from(ext.prob.n())),
            ("m", Json::from(ext.prob.m())),
            ("wall_seconds", Json::from(wall)),
            ("work", Json::from(t.work())),
            ("depth", Json::from(t.depth())),
            ("cg_iterations", Json::from(stats.cg_iterations)),
            ("warm_start_hits", Json::from(hits)),
        ]);
    }
    let warm_ok = (warm_stats.cg_iterations as f64) <= 0.8 * cold_stats.cg_iterations as f64;

    // ---- batch vs single-RHS agreement ----
    let bg = generators::gnm_digraph(24, 80, seed + 1);
    let bd: Vec<f64> = (0..80)
        .map(|e| 0.4 + ((e * 13) % 50) as f64 / 20.0)
        .collect();
    let bsolver = LaplacianSolver::new(bg, 0, SolverOpts::default());
    let rhss: Vec<Vec<f64>> = (0..3)
        .map(|k| {
            let mut b: Vec<f64> = (0..24)
                .map(|v| ((v * (k + 2) + 7) % 11) as f64 - 5.0)
                .collect();
            let shift = b.iter().sum::<f64>() / 24.0;
            b.iter_mut().for_each(|x| *x -= shift);
            b[0] = 0.0;
            b
        })
        .collect();
    let specs: Vec<RhsSpec<'_>> = rhss.iter().map(|b| RhsSpec { b, guess: None }).collect();
    let mut t = Tracker::new();
    let batch = bsolver.solve_batch(&mut t, &bd, &specs, &SolveParams::default());
    let batch_ok = rhss.iter().zip(&batch).all(|(b, (xb, _))| {
        let (xs, _) = bsolver.solve(&mut Tracker::new(), &bd, b);
        xs.iter().zip(xb).all(|(a, c)| (a - c).abs() <= 1e-9)
    });

    // ---- Sequential vs Forked branch execution charges identically ----
    let charge_program = |mode: ParMode| {
        let mut t = Tracker::profiled();
        t.parallel_in(mode, 4, |i, t| {
            t.span("branch", |t| {
                t.charge(Cost::par_for(3 + i as u64, Cost::par_flat(512)));
                t.counter("branches", 1);
            });
        });
        (t.work(), t.depth())
    };
    let modes_consistent = charge_program(ParMode::Sequential) == charge_program(ParMode::Forked);
    let cost_model_ok = repeat_consistent && modes_consistent;

    mdln!(args);
    mdln!(
        args,
        "warm CG iterations {} vs cold {} (reduction_ok={warm_ok}); batch_matches_single={batch_ok}; parallel_cost_model_consistent={cost_model_ok}",
        warm_stats.cg_iterations,
        cold_stats.cg_iterations,
    );
    artifact.set("warm_start_reduction_ok", Json::from(warm_ok));
    artifact.set("batch_matches_single", Json::from(batch_ok));
    artifact.set("parallel_cost_model_consistent", Json::from(cost_model_ok));
    artifact.set("cg_steady_zero_alloc", Json::from(zero_alloc));
    artifact.set("robust_step_zero_alloc", Json::from(robust_step_zero_alloc));

    if let Some((label, t)) = profile {
        artifact.attach_profile(&label, &t);
    }
    if let Some(mut run) = pmcf_obs::take_run_report("solver") {
        run.absorb_tracker(&warm_t);
        if let Some(path) = pmcf_obs::report_output_path() {
            match run.write(&path) {
                Ok(()) => eprintln!(
                    "solver: wrote {} run report to {}",
                    pmcf_obs::REPORT_SCHEMA,
                    path.display()
                ),
                Err(e) => eprintln!("solver: run report write failed: {e}"),
            }
        }
    }
    artifact.emit(&args);
    pmcf_obs::finish();
}

/// A profiler counter of `t`, or 0 when the tracker is unprofiled.
fn counter(t: &Tracker, name: &str) -> u64 {
    t.profile_report()
        .and_then(|r| r.counters.get(name).copied())
        .unwrap_or(0)
}
