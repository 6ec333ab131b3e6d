//! Experiments E-MATCH / E-SSSP / E-REACH — Corollaries 1.3–1.5:
//! correctness vs the combinatorial oracles plus measured work/depth.
//!
//! Flags: `--seed <u64> --json <path>`; `PMCF_REPORT=<path>` writes a
//! `pmcf.report/v1` run report and embeds the span-tree profile of the
//! last matching solve.

use pmcf_baselines::{bellman_ford, bfs, hopcroft_karp};
use pmcf_bench::{mdln, Artifact, BenchArgs};
use pmcf_core::corollaries::{bipartite_matching, negative_sssp, reachability};
use pmcf_core::SolverConfig;
use pmcf_graph::generators;
use pmcf_pram::Tracker;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let seed = args.seed_or(3);
    let mut artifact = Artifact::for_run("corollaries", seed, &args);
    let mut profiled = None;

    let cfg = SolverConfig::default();
    mdln!(args, "## E-MATCH — bipartite matching (Corollary 1.3)\n");
    mdln!(
        args,
        "| n_left | n_right | m | HK size | IPM size | IPM work | IPM depth |"
    );
    mdln!(args, "|---|---|---|---|---|---|---|");
    for &(nl, m) in &[(8usize, 24usize), (16, 64), (32, 160)] {
        let g = generators::random_bipartite(nl, nl, m, seed);
        let (want, _) = hopcroft_karp::max_matching(&g, nl);
        let mut t = pmcf_obs::tracker();
        let (got, _) = bipartite_matching(&mut t, &g, nl, &cfg).expect("valid bipartite instance");
        assert_eq!(got, want);
        mdln!(
            args,
            "| {nl} | {nl} | {m} | {want} | {got} | {} | {} |",
            t.work(),
            t.depth()
        );
        artifact.row(vec![
            ("section", "matching".into()),
            ("n_left", nl.into()),
            ("m", m.into()),
            ("size", got.into()),
            ("work", t.work().into()),
            ("depth", t.depth().into()),
        ]);
        profiled = Some((format!("bipartite matching, n_left={nl}, m={m}"), t));
    }

    mdln!(args, "\n## E-SSSP — negative-weight SSSP (Corollary 1.4)\n");
    mdln!(
        args,
        "| n | m | matches Bellman-Ford | IPM work | IPM depth |"
    );
    mdln!(args, "|---|---|---|---|---|");
    for &(n, m) in &[(12usize, 36usize), (24, 96), (48, 240)] {
        let (g, w) = generators::random_negative_sssp(n, m, 6, seed + 2);
        let want = bellman_ford::sssp(&g, &w, 0).unwrap();
        let mut t = pmcf_obs::tracker();
        let got = negative_sssp(&mut t, &g, &w, 0, &cfg).unwrap();
        assert_eq!(got, want);
        mdln!(args, "| {n} | {m} | yes | {} | {} |", t.work(), t.depth());
        artifact.row(vec![
            ("section", "sssp".into()),
            ("n", n.into()),
            ("m", m.into()),
            ("work", t.work().into()),
            ("depth", t.depth().into()),
        ]);
    }

    mdln!(args, "\n## E-REACH — reachability (Corollary 1.5)\n");
    mdln!(
        args,
        "| n | m | matches BFS | IPM work | IPM depth | BFS depth |"
    );
    mdln!(args, "|---|---|---|---|---|---|");
    for &k in &[4usize, 8] {
        let g = generators::chained_cliques(k, 5, seed.wrapping_sub(1));
        let want = bfs::reachable_seq(&g, 0);
        let mut t = pmcf_obs::tracker();
        let got = reachability(&mut t, &g, 0, &cfg).expect("valid reachability instance");
        assert_eq!(got, want);
        let mut tb = Tracker::new();
        let _ = bfs::reachable_par(&mut tb, &g, 0);
        mdln!(
            args,
            "| {} | {} | yes | {} | {} | {} |",
            g.n(),
            g.m(),
            t.work(),
            t.depth(),
            tb.depth()
        );
        artifact.row(vec![
            ("section", "reachability".into()),
            ("n", g.n().into()),
            ("m", g.m().into()),
            ("work", t.work().into()),
            ("depth", t.depth().into()),
            ("bfs_depth", tb.depth().into()),
        ]);
    }

    if let Some((label, t)) = &profiled {
        artifact.attach_profile(label, t);
    }
    artifact.emit(&args);
    pmcf_obs::finish("corollaries", profiled.as_ref().map(|(_, t)| t));
}
