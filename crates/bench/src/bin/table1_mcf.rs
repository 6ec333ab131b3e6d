//! Experiment T1-MCF / E-WORK — Table 1 (left): the parallel min-cost
//! flow landscape, measured.
//!
//! Rows per instance: sequential SSP (depth = work; the stand-in for the
//! near-linear sequential \[CKL+22\] row), the dense \[LS14\]-style IPM
//! (Θ(m)/iteration), our tuned reference, and the robust engine
//! (Theorem 1.2). All four solve each instance *exactly* (values cross
//! checked); work/depth come from the PRAM cost model.
//!
//! Flags: `[max_n] --seed <u64> --json <path>`. With `PMCF_REPORT=<path>`
//! every solve is span-profiled and carries a depth ledger. The robust
//! engine's largest solve's phase tree is printed, with each span's self
//! wall time and nanoseconds per self-charged unit, and embedded in the
//! artifact under `profile`; every engine's largest solve reports its
//! critical path — the per-span attribution of the depth total, printed
//! as a top-K table and embedded as `pmcf.critpath/v1` reports under the
//! `critpath` key. The run also writes the unified `pmcf.report/v1` run
//! report (span tree, critical path, counters, pool telemetry, monitor
//! verdicts, and the per-iteration IPM convergence table) for
//! `report_diff` triage, with the Perfetto trace and the flight
//! recording beside it. At workstation scale the solve's epoch rebuilds
//! (every `√n` iterations) outpace the 4× weight-class drift a
//! `HeavyHitter` class move needs, so the solve alone never reaches the
//! decremental expander path — the profiled run therefore also drives a
//! delete → prune → trim → unit-flow maintenance drill on the same
//! tracker so the artifact covers the whole stack.

use pmcf_baselines::ssp;
use pmcf_bench::{configs, fit_exponent, mdln, Artifact, BenchArgs};
use pmcf_core::solve_mcf;
use pmcf_expander::DynamicExpanderDecomposition;
use pmcf_graph::generators;
use pmcf_obs::JsonValue;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let max_n = args.max_size_or(144);
    let seed = args.seed_or(42);
    let mut artifact = Artifact::for_run("table1_mcf", seed, &args);
    let mut profile = None;
    // per-engine critical-path report at the largest instance solved
    let mut critpaths: Vec<(String, pmcf_pram::CritPathReport)> = Vec::new();

    mdln!(
        args,
        "## Table 1 (left) — min-cost flow: measured work and depth\n"
    );
    mdln!(
        args,
        "| n | m | algorithm | iterations | work | depth | cost |"
    );
    mdln!(args, "|---|---|---|---|---|---|---|");
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut depth_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for &n in &[36usize, 64, 100, 144, 196, 256] {
        if n > max_n {
            break;
        }
        let m = generators::dense_m(n); // m ≈ n^1.5
        let p = generators::random_mcf(n, m, 8, 6, seed + n as u64);
        // sequential baseline: SSP (work = depth = operation count proxy)
        let opt = ssp::min_cost_flow(&p).expect("feasible");
        let ssp_ops = (p.m() as u64) * (p.n() as u64); // O(F·m)-style proxy
        mdln!(
            args,
            "| {n} | {m} | sequential SSP | — | {ssp_ops} | {ssp_ops} | {} |",
            opt.cost(&p)
        );
        artifact.row(vec![
            ("section", "table1".into()),
            ("n", n.into()),
            ("m", m.into()),
            ("algorithm", "sequential SSP".into()),
            ("work", ssp_ops.into()),
            ("depth", ssp_ops.into()),
            ("cost", opt.cost(&p).into()),
        ]);
        for (name, cfg) in configs() {
            let mut t = pmcf_obs::tracker();
            let wall = std::time::Instant::now();
            let sol = solve_mcf(&mut t, &p, &cfg).expect("feasible");
            let wall = wall.elapsed().as_secs_f64();
            assert_eq!(sol.cost, opt.cost(&p), "exactness violated for {name}");
            let (work, depth) = (t.work(), t.depth());
            mdln!(
                args,
                "| {n} | {m} | {name} | {} | {work} | {depth} | {} |",
                sol.stats.iterations,
                sol.cost
            );
            artifact.row(vec![
                ("section", "table1".into()),
                ("n", n.into()),
                ("m", m.into()),
                ("algorithm", name.into()),
                ("iterations", sol.stats.iterations.into()),
                ("work", work.into()),
                ("depth", depth.into()),
                ("wall_seconds", wall.into()),
                ("cost", sol.cost.into()),
            ]);
            series
                .iter_mut()
                .find(|(s, _)| s == name)
                .map(|(_, v)| v.push((n as f64, work as f64)))
                .unwrap_or_else(|| series.push((name.to_string(), vec![(n as f64, work as f64)])));
            depth_series
                .iter_mut()
                .find(|(s, _)| s == name)
                .map(|(_, v)| v.push((n as f64, depth as f64)))
                .unwrap_or_else(|| {
                    depth_series.push((name.to_string(), vec![(n as f64, depth as f64)]))
                });
            // each engine's largest solve supplies its critical path
            if let Some(rep) = t.critpath_report() {
                critpaths.retain(|(s, _)| s != name);
                critpaths.push((name.to_string(), rep));
            }
            // keep the largest robust solve's tracker for the profile
            if cfg.engine == pmcf_core::Engine::Robust && t.is_profiled() {
                profile = Some((format!("{name}, n={n}, m={m}"), t));
            }
        }
    }
    // density sweep at fixed n: the robust-vs-dense gap must widen in m
    mdln!(args, "\n## Density sweep at n = 64 (who wins as m grows)\n");
    mdln!(
        args,
        "| m | dense [LS14] work | robust work | dense/robust |"
    );
    mdln!(args, "|---|---|---|---|");
    if max_n >= 64 {
        for &m in &[512usize, 1024, 2048, 4096] {
            let p = generators::random_mcf(64, m, 8, 6, seed * 10 + m as u64);
            let opt = ssp::min_cost_flow(&p).expect("feasible");
            let mut works = Vec::new();
            for (name, cfg) in configs() {
                if name == "reference IPM" {
                    continue;
                }
                let mut t = pmcf_obs::tracker();
                let sol = solve_mcf(&mut t, &p, &cfg).expect("feasible");
                assert_eq!(sol.cost, opt.cost(&p));
                works.push(t.work());
            }
            mdln!(
                args,
                "| {m} | {} | {} | {:.2} |",
                works[0],
                works[1],
                works[0] as f64 / works[1] as f64
            );
            artifact.row(vec![
                ("section", "density_sweep".into()),
                ("n", 64usize.into()),
                ("m", m.into()),
                ("dense_work", works[0].into()),
                ("robust_work", works[1].into()),
                ("ratio", (works[0] as f64 / works[1] as f64).into()),
            ]);
        }
    }

    mdln!(
        args,
        "\n### Fitted work exponents (work ~ n^a at m = n^1.5)\n"
    );
    let mut exps: Vec<(String, JsonValue)> = Vec::new();
    for (name, pts) in &series {
        if pts.len() >= 3 {
            let a = fit_exponent(pts);
            mdln!(args, "- {name}: a ≈ {a:.2}");
            exps.push((name.clone(), a.into()));
        }
    }
    artifact.set("exponents", JsonValue::Obj(exps));
    mdln!(
        args,
        "\nPaper: robust = Õ(m + n^1.5) = Õ(n^1.5) here; dense = Õ(m√n) = Õ(n^2)."
    );

    mdln!(
        args,
        "\n### Fitted depth exponents (depth ~ n^a at m = n^1.5)\n"
    );
    let mut dexps: Vec<(String, JsonValue)> = Vec::new();
    for (name, pts) in &depth_series {
        if pts.len() >= 3 {
            let a = fit_exponent(pts);
            mdln!(args, "- {name}: a ≈ {a:.2}");
            dexps.push((name.clone(), a.into()));
        }
    }
    artifact.set("depth_exponents", JsonValue::Obj(dexps));
    mdln!(
        args,
        "\nPaper: the parallel IPMs run in Õ(√n) depth per iteration over \
         Õ(√n) iterations — charged depth should grow ~ n, far below work."
    );

    if !critpaths.is_empty() {
        mdln!(
            args,
            "\n## Critical-path depth attribution (largest solve)\n"
        );
        let mut cp: Vec<(String, JsonValue)> = Vec::new();
        for (name, rep) in &critpaths {
            mdln!(args, "### {name}\n");
            mdln!(args, "{}", rep.to_markdown(10));
            cp.push((name.clone(), pmcf_obs::critpath_json(rep)));
        }
        artifact.set("critpath", JsonValue::Obj(cp));
    }

    if let Some((label, t)) = &mut profile {
        // maintenance drill: exercise the decremental expander path
        // (delete → prune → trim → unit-flow) that the solve's epochs
        // never reach at this scale, so the profile covers the stack
        t.span("expander/maintenance", |t| {
            let g = generators::random_regular_ugraph(256, 8, seed);
            let mut d = DynamicExpanderDecomposition::new(256, 0.1, seed);
            let keys = d.insert_edges(t, g.edges());
            for chunk in keys.chunks(64).take(8) {
                d.delete_edges(t, chunk);
            }
        });
        artifact.attach_profile(label, t);
    }
    artifact.emit(&args);
    pmcf_obs::finish("table1_mcf", profile.as_ref().map(|(_, t)| t));
}
