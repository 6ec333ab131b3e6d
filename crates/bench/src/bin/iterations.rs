//! Experiment E-ITER — Theorem 1.2's iteration count: `Õ(√n)`.
//!
//! Sweeps n at m ≈ n^1.5 and fits iterations ~ n^a; the paper predicts
//! a ≈ 0.5 (times log factors from the μ range).
//!
//! Flags: `[max_n] --seed <u64> --json <path>`; `PMCF_REPORT=<path>`
//! writes a `pmcf.report/v1` run report and embeds the span-tree profile
//! of the largest solve.

use pmcf_bench::{fit_exponent, mdln, Artifact, BenchArgs};
use pmcf_core::init;
use pmcf_core::reference::{path_follow, PathFollowConfig};
use pmcf_graph::generators;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let max_n = args.max_size_or(256);
    let seed = args.seed_or(11);
    let mut artifact = Artifact::for_run("iterations", seed, &args);
    let mut profiled = None;

    mdln!(
        args,
        "## E-ITER — path-following iterations vs n (m = n^1.5)\n"
    );
    mdln!(
        args,
        "| n | m | iterations | iterations/√n | iterations/(√n·log μ-range) |"
    );
    mdln!(args, "|---|---|---|---|---|");
    let mut pts = Vec::new();
    for &n in &[36usize, 64, 100, 144, 196, 256] {
        if n > max_n {
            break;
        }
        let m = generators::dense_m(n);
        let p = generators::random_mcf(n, m, 8, 6, seed + n as u64);
        let ext = init::extend(&p).expect("bench instance within magnitude bounds");
        let mu0 = init::initial_mu(&ext.prob, 0.25);
        let mu_end = init::final_mu(&ext.prob);
        let mut t = pmcf_obs::tracker();
        let (_, stats) = path_follow(
            &mut t,
            &ext.prob,
            ext.x0.clone(),
            mu0,
            mu_end,
            &PathFollowConfig::default(),
        );
        let sq = (n as f64).sqrt();
        let lg = (mu0 / mu_end).ln();
        mdln!(
            args,
            "| {n} | {m} | {} | {:.1} | {:.3} |",
            stats.iterations,
            stats.iterations as f64 / sq,
            stats.iterations as f64 / (sq * lg)
        );
        artifact.row(vec![
            ("n", n.into()),
            ("m", m.into()),
            ("iterations", stats.iterations.into()),
            ("per_sqrt_n", (stats.iterations as f64 / sq).into()),
            (
                "per_sqrt_n_log",
                (stats.iterations as f64 / (sq * lg)).into(),
            ),
            ("work", t.work().into()),
            ("depth", t.depth().into()),
        ]);
        profiled = Some((format!("reference IPM, n={n}, m={m}"), t));
        pts.push((n as f64, stats.iterations as f64));
    }
    let a = fit_exponent(&pts);
    mdln!(
        args,
        "\nFitted exponent: iterations ~ n^{a:.2} (paper: 0.5 ± log factors)"
    );
    artifact.set("exponent", a.into());

    if let Some((label, t)) = &profiled {
        artifact.attach_profile(label, t);
    }
    artifact.emit(&args);
    pmcf_obs::finish("iterations", profiled.as_ref().map(|(_, t)| t));
}
