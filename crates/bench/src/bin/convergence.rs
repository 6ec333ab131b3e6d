//! Convergence-curve "figure": μ, duality-gap proxy, step, CG iterations
//! and cumulative charged work/depth per iteration of the reference
//! engine, read from the run report's convergence rows (the paper has no
//! figures; this is the observability a production solver ships with).
//!
//! Flags: `[n] --seed <u64> --json <path>`; the artifact embeds the
//! `pmcf.report/v1` run report under `report`. `PMCF_PROFILE=1` adds the
//! span-tree profile of the solve.

use pmcf_bench::{mdln, Artifact, BenchArgs, Json};
use pmcf_core::init;
use pmcf_core::reference::{path_follow, PathFollowConfig};
use pmcf_graph::generators;
use pmcf_pram::profile::tracker_from_env;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let n = args.max_size_or(64);
    let seed = args.seed_or(7);
    let mut artifact = Artifact::for_run("convergence", seed, &args);

    let m = generators::dense_m(n);
    let p = generators::random_mcf(n, m, 8, 6, seed);
    let ext = init::extend(&p).expect("bench instance within magnitude bounds");
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mu_end = init::final_mu(&ext.prob);
    let mut t = tracker_from_env();
    pmcf_obs::report_begin();
    let (_, stats) = path_follow(
        &mut t,
        &ext.prob,
        ext.x0.clone(),
        mu0,
        mu_end,
        &PathFollowConfig::default(),
    );
    let mut report = pmcf_obs::take_run_report("convergence").expect("collection was begun");
    report.absorb_tracker(&t);
    let rows = &report.convergence;
    mdln!(
        args,
        "## Convergence trace — n={n}, m={m} ({} iterations)\n",
        stats.iterations
    );
    mdln!(
        args,
        "| iter | μ | gap proxy | step | CG iters | work | depth | wall (ms) |\n|---|---|---|---|---|---|---|---|"
    );
    for r in rows.iter().step_by(stats.iterations / 20 + 1) {
        mdln!(
            args,
            "| {} | {:.3e} | {:.3e} | {} | {} | {} | {} | {:.3} |",
            r.iteration,
            r.mu,
            r.gap,
            r.step.map_or("—".into(), |s| format!("{s:.4}")),
            r.cg_iters,
            r.work,
            r.depth,
            r.wall_ns as f64 / 1e6,
        );
    }
    artifact.set("n", Json::from(n));
    artifact.set("m", Json::from(m));
    artifact.set("iterations", Json::from(stats.iterations));
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        if last.iteration > first.iteration {
            let rate =
                ((last.mu / first.mu).ln() / (last.iteration - first.iteration) as f64).exp();
            let tau_sum_guess = 2.0 * n as f64;
            mdln!(
                args,
                "\nμ decay/iter: {rate:.5} (theory: 1 − r/√Στ ≈ {:.5})",
                1.0 - 0.5 / tau_sum_guess.sqrt()
            );
            artifact.set("mu_decay_rate", Json::F64(rate));
        }
    }
    artifact.set("report", Json::Raw(report.to_json()));
    artifact.attach_profile(&format!("reference IPM, n={n}, m={m}"), &t);
    artifact.emit(&args);
    pmcf_obs::finish();
}
