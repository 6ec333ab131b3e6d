//! Experiment E-UF — Lemma 3.11: ParallelUnitFlow's work scales with the
//! injected demand (`‖Δ‖₀`-ish), not with the host graph size.
//!
//! Also E-UNITFLOW — the pooled scratch-state rows: steady-state
//! `UnitFlowState::take`/`give` cycles must hit the allocator zero
//! times (`allocs_per_iter == 0`, gated), with an advisory row for the
//! full routing call (whose level buckets may still allocate).
//!
//! Flags: `--seed <u64> --json <path>`; `PMCF_REPORT=<path>` writes a
//! unified `pmcf.report/v1` run report and embeds the span-tree profile
//! of the last run.

use pmcf_bench::{mdln, measure_allocs, Artifact, BenchArgs};
use pmcf_expander::unit_flow::{parallel_unit_flow, UnitFlowProblem, UnitFlowState};
use pmcf_graph::generators;

fn main() {
    let args = BenchArgs::parse();
    pmcf_obs::init_from_env();
    let seed = args.seed_or(1);
    let mut artifact = Artifact::for_run("unitflow", seed, &args);
    let mut last = None;

    mdln!(
        args,
        "## E-UF — unit flow: work vs demand size and graph size\n"
    );
    mdln!(args, "| n | m | sources | demand | work | depth | sweeps |");
    mdln!(args, "|---|---|---|---|---|---|---|");
    for &n in &[256usize, 1024, 4096] {
        let g = generators::random_regular_ugraph(n, 8, seed);
        for &k in &[1usize, 8, 32] {
            let alive = vec![true; g.n()];
            let edge_ok = vec![true; g.m()];
            let p = UnitFlowProblem {
                g: &g,
                alive: &alive,
                edge_ok: &edge_ok,
                cap: 10.0,
                height: 50,
            };
            let mut s = UnitFlowState::new(g.n(), g.m());
            // each source injects far more than its own sink can take,
            // forcing the flow to spread through the expander (total
            // demand stays below the global sink capacity rate·2m)
            let sources: Vec<(usize, f64)> = (0..k).map(|i| ((i * 37) % n, 12.0)).collect();
            let mut t = pmcf_obs::tracker();
            let out = parallel_unit_flow(&mut t, &p, &mut s, &sources, 0.5, 50_000);
            assert!(out.remaining_excess < 1e-9, "unroutable at n={n} k={k}");
            mdln!(
                args,
                "| {n} | {} | {k} | {:.0} | {} | {} | {} |",
                g.m(),
                12.0 * k as f64,
                t.work(),
                t.depth(),
                out.sweeps
            );
            artifact.row(vec![
                ("n", n.into()),
                ("m", g.m().into()),
                ("sources", k.into()),
                ("demand", (12.0 * k as f64).into()),
                ("work", t.work().into()),
                ("depth", t.depth().into()),
                ("sweeps", out.sweeps.into()),
            ]);
            last = Some((format!("unit flow, n={n}, sources={k}"), t));
        }
    }
    mdln!(
        args,
        "\nShape: at fixed sources work is flat in n; work grows ~linearly in demand."
    );

    // E-UNITFLOW — pooled scratch state: after warmup, a take/give cycle
    // is a pop + in-place reset + push, so steady-state checkout must be
    // allocation-free.
    mdln!(args, "\n## E-UNITFLOW — pooled scratch reuse\n");
    mdln!(
        args,
        "| n | m | cycles | allocs | allocs/iter | zero-alloc |"
    );
    mdln!(args, "|---|---|---|---|---|---|");
    {
        let (n, m) = (4096usize, 4096 * 4);
        // warmup: park a max-sized state (and give the pool's own vec its
        // capacity) so the measured loop is pure reuse
        UnitFlowState::give(UnitFlowState::new(n, m));
        let cycles = 16u64;
        let (_, allocs) = measure_allocs(|| {
            for _ in 0..cycles {
                let s = UnitFlowState::take(n, m);
                UnitFlowState::give(s);
            }
        });
        let per_iter = allocs as f64 / cycles as f64;
        let zero = allocs == 0;
        mdln!(
            args,
            "| {n} | {m} | {cycles} | {allocs} | {per_iter:.2} | {zero} |"
        );
        artifact.row(vec![
            ("section", "pool".into()),
            ("scenario", "take_give_cycle".into()),
            ("n", n.into()),
            ("m", m.into()),
            ("rounds", cycles.into()),
            ("allocs_per_iter", per_iter.into()),
            ("pool_zero_alloc", zero.into()),
        ]);

        // advisory: a full routing call on a pooled state (level buckets
        // and active-set growth may allocate; tracked, not gated)
        let g = generators::random_regular_ugraph(256, 8, seed);
        let alive = vec![true; g.n()];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem {
            g: &g,
            alive: &alive,
            edge_ok: &edge_ok,
            cap: 10.0,
            height: 50,
        };
        let mut s = UnitFlowState::take(g.n(), g.m());
        let mut t = pmcf_obs::tracker();
        // prime one run so buckets reach steady-state size, then measure
        let _ = parallel_unit_flow(&mut t, &p, &mut s, &[(0, 6.0)], 0.5, 50_000);
        s.reset(g.n(), g.m());
        let (_, call_allocs) =
            measure_allocs(|| parallel_unit_flow(&mut t, &p, &mut s, &[(0, 6.0)], 0.5, 50_000));
        UnitFlowState::give(s);
        mdln!(
            args,
            "\nFull `parallel_unit_flow` call on a pooled state: {call_allocs} allocations (advisory)."
        );
        artifact.row(vec![
            ("section", "pool".into()),
            ("scenario", "full_call".into()),
            ("n", g.n().into()),
            ("m", g.m().into()),
            ("full_call_allocs", call_allocs.into()),
        ]);
    }

    if let Some((label, t)) = &last {
        artifact.attach_profile(label, t);
    }
    artifact.emit(&args);
    pmcf_obs::finish("unitflow", last.as_ref().map(|(_, t)| t));
}
