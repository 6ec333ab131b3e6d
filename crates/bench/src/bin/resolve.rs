//! Experiment E-RESOLVE — incremental re-solve on graph deltas: the
//! work-ratio curve (resolve / fresh) as the delta grows from one edge
//! to 10 % of m.
//!
//! For each delta size `k` the harness checkpoints a fresh solve
//! (`solve_mcf_checkpointed`), applies a random batch of `k` edge
//! changes (a single cost change at `k = 1`; a mix of cost/capacity
//! updates, deletions and insertions beyond), and measures the charged
//! work of `McfCheckpoint::resolve` against a from-scratch `solve_mcf`
//! on the same mutated instance.
//!
//! Rows (`op=resolve_k<k>`): `delta_edges`, charged `work_resolve` /
//! `work_fresh` / `work_ratio` (the headline metric — gated), depth
//! ratio, and the resolve's IPM iteration count next to the fresh one.
//! A final `op=churn` row plays a 12-delta sequence through one
//! checkpoint and reports the cumulative ratio.
//!
//! Boolean invariants (a true→false flip fails the gate):
//! - `single_edge_ratio_below_half` — resolve work < 0.5× fresh for a
//!   1-edge delta (the ISSUE-9 acceptance bar),
//! - `objective_agreement_ok` — every resolve returned exactly the
//!   fresh optimum,
//! - `stale_deletes_zero` — the decomposition's key plumbing never
//!   reported a stale delete across the sweep.
//!
//! Flags: `--seed <u64> --json <path>`; `PMCF_REPORT=<path>` writes a
//! `pmcf.report/v1` run report whose spans, counters and critical path
//! are the churn sequence's (the checkpointing solve and its resolves),
//! and in which resolve iterations appear under the `resolve-reference`
//! engine label.

use pmcf_bench::{mdln, Artifact, BenchArgs};
use pmcf_core::{solve_mcf, NewEdge, ResolveDelta, SolverConfig};
use pmcf_graph::{generators, McfProblem};
use pmcf_pram::Tracker;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A random delta touching `k` edges. `k = 1` is a pure cost change
/// (the headline point of the sweep); larger deltas mix cost and
/// capacity updates with deletions and insertions in a 2:1:1 ratio.
fn random_delta(p: &McfProblem, k: usize, rng: &mut SmallRng) -> ResolveDelta {
    let (n, m) = (p.n(), p.m());
    let mut delta = ResolveDelta::default();
    if k == 1 {
        delta
            .set_cost
            .push((rng.gen_range(0..m), rng.gen_range(-3..5)));
        return delta;
    }
    let structural = k / 4; // deletions and insertions each
    let mut deletable: Vec<usize> = (0..m).collect();
    for _ in 0..structural {
        let i = rng.gen_range(0..deletable.len());
        delta.delete.push(deletable.swap_remove(i));
        let from: usize = rng.gen_range(0..n);
        delta.insert.push(NewEdge {
            from,
            to: (from + 1 + rng.gen_range(0..n - 1)) % n,
            cap: rng.gen_range(1..5),
            cost: rng.gen_range(-3..5),
        });
    }
    for _ in 0..(k - 2 * structural) {
        let i = rng.gen_range(0..deletable.len());
        let e = deletable[i];
        if rng.gen_bool(0.5) {
            delta.set_cost.push((e, rng.gen_range(-3..5)));
        } else {
            delta.set_cap.push((e, rng.gen_range(1..6)));
        }
    }
    delta
}

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let seed = args.seed_or(23);
    let mut artifact = Artifact::for_run("resolve", seed, &args);
    artifact.set("threads", rayon::current_num_threads().to_string().into());

    let cfg = SolverConfig::default();
    let (n, m) = (33usize, 198usize);
    let base = generators::random_mcf(n, m, 4, 3, seed);

    mdln!(args, "## E-RESOLVE — incremental re-solve work ratio\n");
    mdln!(
        args,
        "| op | delta_edges | m | work_resolve | work_fresh | work_ratio | iters_resolve | iters_fresh | wall_seconds |"
    );
    mdln!(args, "|---|---|---|---|---|---|---|---|---|");

    let mut agreement = true;
    let mut stale_total = 0u64;
    let mut single_edge_ratio = f64::NAN;

    // ---- the sweep: 1-edge up to 10%-of-m deltas ----
    let mut sizes = vec![1usize, (m / 100).max(2), (m / 20).max(3), (m / 10).max(4)];
    sizes.dedup();
    for (si, &k) in sizes.iter().enumerate() {
        // a delta may delete its way into infeasibility; draw from a
        // seed-indexed substream until the mutated instance stays
        // solvable so the ratio always compares two successful solves
        let mut attempt = 0u64;
        let (
            work_res,
            depth_res,
            iters_res,
            work_fresh,
            depth_fresh,
            iters_fresh,
            wall,
            sol_ok,
            stale,
        ) = loop {
            let mut rng = SmallRng::seed_from_u64(seed ^ (si as u64) << 8 ^ attempt << 32);
            let mut tck = Tracker::new();
            let (mut ck, first) = pmcf_core::solve_mcf_checkpointed(&mut tck, &base, &cfg);
            first.expect("base bench instance is feasible");
            let delta = random_delta(&base, k, &mut rng);
            let mut tr = Tracker::new();
            let wall = Instant::now();
            let got = ck.resolve(&mut tr, &delta);
            let wall = wall.elapsed().as_secs_f64();
            match got {
                Ok(sol) => {
                    let mut tf = Tracker::new();
                    let fresh = solve_mcf(&mut tf, ck.problem(), &cfg)
                        .expect("resolve succeeded, fresh must too");
                    break (
                        tr.work(),
                        tr.depth(),
                        sol.stats.iterations,
                        tf.work(),
                        tf.depth(),
                        fresh.stats.iterations,
                        wall,
                        sol.cost == fresh.cost,
                        ck.stale_deletes(),
                    );
                }
                Err(_) => {
                    attempt += 1;
                    assert!(attempt < 16, "could not draw a feasible delta of size {k}");
                }
            }
        };
        agreement &= sol_ok;
        stale_total += stale;
        let ratio = work_res as f64 / work_fresh as f64;
        let depth_ratio = depth_res as f64 / depth_fresh as f64;
        if k == 1 {
            single_edge_ratio = ratio;
        }
        let op = format!("resolve_k{k}");
        mdln!(
            args,
            "| {op} | {k} | {m} | {work_res} | {work_fresh} | {ratio:.4} | {iters_res} | {iters_fresh} | {wall:.4} |"
        );
        artifact.row(vec![
            ("op", op.into()),
            ("delta_edges", k.into()),
            ("n", n.into()),
            ("m", m.into()),
            ("work_resolve", work_res.into()),
            ("work_fresh", work_fresh.into()),
            ("work_ratio", ratio.into()),
            ("depth_ratio", depth_ratio.into()),
            ("iterations_resolve", iters_res.into()),
            ("iterations_fresh", iters_fresh.into()),
            ("wall_seconds", wall.into()),
        ]);
    }

    // ---- churn: one checkpoint, 12 deltas, cumulative ratio ----
    let churn_rounds = 12usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    // under `PMCF_REPORT` this tracker is profiled, and the run report
    // holds the churn checkpoint's solve and its resolves
    let mut tck = pmcf_obs::tracker();
    let (mut ck, first) = pmcf_core::solve_mcf_checkpointed(&mut tck, &base, &cfg);
    first.expect("base bench instance is feasible");
    let mut work_res_total = 0u64;
    let mut work_fresh_total = 0u64;
    let wall = Instant::now();
    let mut played = 0usize;
    for _ in 0..churn_rounds {
        let delta = random_delta(ck.problem(), 3, &mut rng);
        let w0 = tck.work();
        match ck.resolve(&mut tck, &delta) {
            Ok(sol) => {
                work_res_total += tck.work() - w0;
                let mut tf = Tracker::new();
                let fresh = solve_mcf(&mut tf, ck.problem(), &cfg)
                    .expect("resolve succeeded, fresh must too");
                work_fresh_total += tf.work();
                agreement &= sol.cost == fresh.cost;
                played += 1;
            }
            Err(_) => {
                // an infeasible window still mutates the checkpoint; the
                // sequence continues (and the next success re-arms warm)
                work_res_total += tck.work() - w0;
            }
        }
    }
    let churn_wall = wall.elapsed().as_secs_f64();
    stale_total += ck.stale_deletes();
    let churn_ratio = work_res_total as f64 / work_fresh_total.max(1) as f64;
    mdln!(
        args,
        "| churn | {played}×3 | {} | {work_res_total} | {work_fresh_total} | {churn_ratio:.4} | - | - | {churn_wall:.4} |",
        ck.problem().m()
    );
    artifact.row(vec![
        ("op", "churn".into()),
        ("delta_edges", (3 * played).into()),
        ("n", n.into()),
        ("m", ck.problem().m().into()),
        ("work_resolve", work_res_total.into()),
        ("work_fresh", work_fresh_total.into()),
        ("work_ratio", churn_ratio.into()),
        ("wall_seconds", churn_wall.into()),
    ]);

    let single_ok = single_edge_ratio < 0.5;
    mdln!(args);
    mdln!(
        args,
        "single-edge ratio {single_edge_ratio:.4} (<0.5: {single_ok}); objective agreement {agreement}; stale deletes {stale_total}"
    );
    artifact.set("single_edge_ratio_below_half", single_ok.into());
    artifact.set("objective_agreement_ok", agreement.into());
    artifact.set("stale_deletes_zero", (stale_total == 0).into());

    artifact.emit(&args);
    pmcf_obs::finish("resolve", Some(&tck));
}
