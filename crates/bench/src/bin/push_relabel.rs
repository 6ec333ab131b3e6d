//! Experiment E-PR — the parallel push-relabel max-flow engine
//! (Baumstark–Blelloch–Shun synchronous rounds) under the charged
//! work/depth model.
//!
//! Rows (one per `(n, m)` size on random max-flow instances): flow
//! `value`, charged `work`/`depth`, advisory `wall_seconds` and
//! `pushes_per_second`, and the operation counters
//! `pushes`/`relabels`/`global_relabels`/`rounds`. Every row is
//! cross-checked against Dinic (`dinic_agrees`, a gated boolean).
//!
//! Top-level gated metrics:
//! - `work_exponent` / `depth_exponent` — log-log fits of charged
//!   work and depth against `n` (m = 4n): depth must stay strongly
//!   sublinear in the instance size (the point of the synchronous
//!   bucket-parallel discharge rounds),
//! - `dinic_agrees_all` — all sizes agree with Dinic,
//! - `cost_model_mode_invariant` — charged work/depth and all
//!   operation counters are bit-identical between
//!   `ParMode::Sequential` and `ParMode::Forked` execution.
//!
//! Flags: `--seed <u64> --json <path>`; `PMCF_REPORT=<path>` writes a
//! unified `pmcf.report/v1` run report and embeds the span-tree profile
//! of the largest run.

use pmcf_baselines::{dinic, push_relabel};
use pmcf_bench::{fit_exponent, mdln, Artifact, BenchArgs};
use pmcf_graph::generators;
use pmcf_pram::{ParMode, Tracker};
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let seed = args.seed_or(7);
    let mut artifact = Artifact::for_run("push_relabel", seed, &args);
    artifact.set("threads", rayon::current_num_threads().to_string().into());
    let mut last = None;

    mdln!(args, "## E-PR — parallel push-relabel max flow\n");
    mdln!(
        args,
        "| n | m | value | work | depth | wall_seconds | pushes | relabels | global_relabels | rounds | dinic_agrees |"
    );
    mdln!(args, "|---|---|---|---|---|---|---|---|---|---|---|");

    let mut work_pts = Vec::new();
    let mut depth_pts = Vec::new();
    let mut all_agree = true;
    for &n in &[64usize, 128, 256, 512] {
        let m = 8 * n;
        let (g, cap) = generators::random_max_flow(n, m, 16, seed);
        let mut t = pmcf_obs::tracker();
        let t0 = Instant::now();
        let out = push_relabel::max_flow(&mut t, &g, &cap, 0, n - 1)
            .unwrap_or_else(|e| panic!("push_relabel rejected n={n}: {e}"));
        let wall = t0.elapsed().as_secs_f64();
        let (dv, _) = dinic::max_flow(&g, &cap, 0, n - 1);
        let agrees = out.value == dv;
        all_agree &= agrees;
        work_pts.push((n as f64, t.work() as f64));
        depth_pts.push((n as f64, t.depth() as f64));
        let pps = out.stats.pushes as f64 / wall.max(1e-12);
        mdln!(
            args,
            "| {n} | {m} | {} | {} | {} | {wall:.6} | {} | {} | {} | {} | {agrees} |",
            out.value,
            t.work(),
            t.depth(),
            out.stats.pushes,
            out.stats.relabels,
            out.stats.global_relabels,
            out.stats.rounds
        );
        artifact.row(vec![
            ("n", n.into()),
            ("m", m.into()),
            ("value", out.value.into()),
            ("work", t.work().into()),
            ("depth", t.depth().into()),
            ("wall_seconds", wall.into()),
            ("pushes", out.stats.pushes.into()),
            ("relabels", out.stats.relabels.into()),
            ("global_relabels", out.stats.global_relabels.into()),
            ("rounds", out.stats.rounds.into()),
            ("pushes_per_second", pps.into()),
            ("dinic_agrees", agrees.into()),
        ]);
        last = Some((format!("push-relabel, n={n}, m={m}"), t));
    }

    let we = fit_exponent(&work_pts);
    let de = fit_exponent(&depth_pts);
    mdln!(
        args,
        "\nFitted scaling (m = 8n): work ~ n^{we:.3}, depth ~ n^{de:.3}."
    );
    artifact.set("work_exponent", we.into());
    artifact.set("depth_exponent", de.into());
    artifact.set("dinic_agrees_all", all_agree.into());

    // the charged cost model may not depend on whether the fork-join
    // tree actually forked: rerun one size in both modes explicitly
    let mode_ok = {
        let n = 128;
        let (g, cap) = generators::random_max_flow(n, 4 * n, 8, seed);
        let mut ta = Tracker::new();
        let a =
            push_relabel::max_flow_in(&mut ta, ParMode::Sequential, &g, &cap, 0, n - 1).unwrap();
        let mut tb = Tracker::new();
        let b = push_relabel::max_flow_in(&mut tb, ParMode::Forked, &g, &cap, 0, n - 1).unwrap();
        a.value == b.value
            && a.x == b.x
            && a.stats == b.stats
            && ta.work() == tb.work()
            && ta.depth() == tb.depth()
    };
    mdln!(
        args,
        "Sequential vs Forked charged cost identical: {mode_ok}."
    );
    artifact.set("cost_model_mode_invariant", mode_ok.into());

    if let Some((label, t)) = &last {
        artifact.attach_profile(label, t);
    }
    artifact.emit(&args);
    pmcf_obs::finish("push_relabel", last.as_ref().map(|(_, t)| t));
}
