//! Experiment T1-REACH / E-REACH — Table 1 (right): reachability.
//!
//! Parallel BFS has `O(m)` work but `Θ(diameter)` depth; on the
//! high-diameter chained-clique family the IPM route (Corollary 1.5)
//! keeps depth `Õ(√n)` at `Õ(m + n^1.5)` work. Both must agree exactly.
//!
//! Flags: `[max_blocks] --seed <u64> --json <path>`; `PMCF_REPORT=<path>`
//! writes a `pmcf.report/v1` run report and embeds the span-tree profile
//! of the largest IPM run.

use pmcf_baselines::bfs;
use pmcf_bench::{mdln, Artifact, BenchArgs};
use pmcf_core::corollaries::reachability;
use pmcf_core::SolverConfig;
use pmcf_graph::generators;
use pmcf_pram::Tracker;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let max_blocks = args.max_size_or(16);
    let seed = args.seed_or(7);
    let mut artifact = Artifact::for_run("table1_reach", seed, &args);
    let mut profiled = None;

    mdln!(
        args,
        "## Table 1 (right) — reachability: measured work and depth\n"
    );
    mdln!(args, "| n | m | diameter≈ | algorithm | work | depth |");
    mdln!(args, "|---|---|---|---|---|---|");
    for &k in &[4usize, 8, 16, 32] {
        if k > max_blocks {
            break;
        }
        let c = 6; // clique size
        let g = generators::chained_cliques(k, c, seed);
        let (n, m) = (g.n(), g.m());
        let mut tb = Tracker::new();
        let (bfs_mask, levels) = bfs::reachable_par(&mut tb, &g, 0);
        mdln!(
            args,
            "| {n} | {m} | {} | parallel BFS | {} | {} |",
            2 * k,
            tb.work(),
            tb.depth()
        );
        artifact.row(vec![
            ("n", n.into()),
            ("m", m.into()),
            ("diameter", (2 * k).into()),
            ("algorithm", "parallel BFS".into()),
            ("work", tb.work().into()),
            ("depth", tb.depth().into()),
        ]);
        let _ = levels;
        let mut ti = pmcf_obs::tracker();
        let ipm_mask = reachability(&mut ti, &g, 0, &SolverConfig::default())
            .expect("valid reachability instance");
        assert_eq!(ipm_mask, bfs_mask, "reachability mismatch at k={k}");
        mdln!(
            args,
            "| {n} | {m} | {} | IPM (Cor. 1.5) | {} | {} |",
            2 * k,
            ti.work(),
            ti.depth()
        );
        artifact.row(vec![
            ("n", n.into()),
            ("m", m.into()),
            ("diameter", (2 * k).into()),
            ("algorithm", "IPM (Cor. 1.5)".into()),
            ("work", ti.work().into()),
            ("depth", ti.depth().into()),
        ]);
        profiled = Some((format!("IPM reachability, n={n}, m={m}"), ti));
    }
    mdln!(
        args,
        "\nShape: BFS depth grows linearly with the diameter (∝ n);"
    );
    mdln!(
        args,
        "the IPM depth grows with √n·polylog — the crossover the paper claims."
    );

    if let Some((label, t)) = &profiled {
        artifact.attach_profile(label, t);
    }
    artifact.emit(&args);
    pmcf_obs::finish("table1_reach", profiled.as_ref().map(|(_, t)| t));
}
