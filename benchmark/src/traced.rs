//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! It runs the workload's closed loop twice, for half the time each:
//! first untraced, then with `Tracker::profiled()` and pool recording on.
//! On the workload's probe instance it then calls `solve_mcf` and, right
//! after, the public calls `solve_mcf` makes on a connected instance
//! (`validate_instance` → `init::extend` → `path_follow` →
//! `round_to_optimal`), and it times one probe per layer below the IPM.
//! Every call is wrapped in a span recorded here, from outside the
//! program: name, start, end and parent, kept in memory and written once
//! the run ends.

use crate::report::{json_str, Metric, Report};
use crate::stats::median;
use crate::workload::{
    churn_delta, config, mcf_oracle, mcf_outcome, now_ns, Bench, Outcome, Record, Rng, SetupTimes,
};
use pmcf_baselines::{dinic, push_relabel, ssp};
use pmcf_core::reference::PathStats;
use pmcf_core::{
    barrier, init, reference, robust, rounding, solve_mcf, solve_mcf_checkpointed,
    validate_instance, Engine, SolverConfig,
};
use pmcf_ds::heavy_hitter::HeavyHitter;
use pmcf_expander::DynamicExpanderDecomposition;
use pmcf_graph::{Flow, McfProblem};
use pmcf_linalg::{LaplacianSolver, SolverOpts};
use pmcf_pram::Tracker;
use rayon::telemetry;
use std::collections::BTreeMap;

/// Single-edge deletes the expander probe replays.
const DELETE_PROBE: usize = 64;

/// One span: a call made by the benchmark, with the span that made it.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
struct Spans {
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.list.len();
        self.list.push(Span {
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = now_ns();
        self.list[id].end_ns = end;
        (out, (end - self.list[id].start_ns) as f64 * 1e-9)
    }

    /// Adds a finished leaf span under the open one.
    fn leaf(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        self.list.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

/// The decomposed solve of one instance, next to `solve_mcf` on it.
pub struct Decomposed {
    pub solve_s: f64,
    pub validate_s: f64,
    pub extend_s: f64,
    pub path_s: f64,
    pub round_s: f64,
    /// Both paths returned a feasible flow of the same cost.
    pub costs_equal: bool,
    stats: PathStats,
    /// Counters the profiled `path_follow` recorded.
    counters: BTreeMap<String, u64>,
    /// The extended instance and the IPM's final iterate on it.
    ext: McfProblem,
    x_final: Vec<f64>,
}

impl Decomposed {
    fn parts_s(&self) -> f64 {
        self.validate_s + self.extend_s + self.path_s + self.round_s
    }
}

/// Calls `solve_mcf` on `p`, then the public calls it makes on a
/// connected instance, one span each. `p` must be connected, with
/// capacities ≥ 1 and no self loops, so that the two paths do the same
/// work.
#[cfg(test)]
pub fn decompose(p: &McfProblem, engine: Engine) -> Result<Decomposed, String> {
    decompose_in(&mut Spans::default(), p, engine)
}

fn decompose_in(spans: &mut Spans, p: &McfProblem, engine: Engine) -> Result<Decomposed, String> {
    let cfg = config(engine);
    let (whole, solve_s) = spans.scope("solve_mcf", |_| {
        solve_mcf(&mut Tracker::profiled(), p, &cfg)
    });
    let whole = whole.map_err(|e| format!("solve_mcf failed on the probe instance: {e:?}"))?;
    spans
        .scope("decomposed", |s| {
            let mut t = Tracker::profiled();
            let (valid, validate_s) = s.scope("api.validate_instance", |_| validate_instance(p));
            valid.map_err(|e| format!("validate_instance: {e:?}"))?;
            let (ext, extend_s) = s.scope("init.extend", |_| {
                init::extend(p).map(|ext| {
                    let mu0 = init::initial_mu(&ext.prob, 0.25);
                    (mu0, init::final_mu(&ext.prob), ext)
                })
            });
            let (mu0, mu_end, ext) = ext.map_err(|e| format!("init::extend: {e:?}"))?;
            let ((state, stats), path_s) = s.scope("ipm.path_follow", |_| {
                let (x0, path) = (ext.x0.clone(), &cfg.path);
                match engine {
                    Engine::Reference => {
                        reference::path_follow(&mut t, &ext.prob, x0, mu0, mu_end, path)
                    }
                    Engine::Robust => robust::path_follow(&mut t, &ext.prob, x0, mu0, mu_end, path),
                }
            });
            let (rounded, round_s) = s.scope("round.round_to_optimal", |_| {
                rounding::round_to_optimal(&ext.prob, &state.x)
            });
            let rounded = rounded.map_err(|e| format!("round_to_optimal: {e:?}"))?;
            let (x, aux) = rounded.x.split_at(ext.m_orig);
            let flow = Flow { x: x.to_vec() };
            Ok(Decomposed {
                solve_s,
                validate_s,
                extend_s,
                path_s,
                round_s,
                costs_equal: aux.iter().all(|&a| a == 0)
                    && flow.is_feasible(p)
                    && flow.cost(p) == whole.cost,
                stats,
                counters: t.profile_report().map(|r| r.counters).unwrap_or_default(),
                ext: ext.prob,
                x_final: state.x,
            })
        })
        .0
}

/// Runs the traced run on a set-up workload; returns the per-layer
/// metrics and the trace document.
pub fn run(
    mut bench: Bench,
    setups: &[SetupTimes],
    seconds: f64,
) -> Result<(Report, String), String> {
    let w = bench.workload;
    let kind = w.kind;
    let min_calls = w.min_calls();
    let reps = w.probe_reps();
    let mut spans = Spans::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    let ((untraced, traced, counted), _) = spans.scope("traced-run", |s| {
        let (untraced, _) = s.scope("loop.untraced", |_| {
            bench.run_for(seconds / 2.0, min_calls, Tracker::new, |_, _, _| {})
        });

        telemetry::reset();
        telemetry::set_recording(true);
        let cpu0 = cpu_seconds();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let (mut work, mut depth, mut wall) = (0u64, 0u64, 0.0f64);
        let (traced, loop_s) = s.scope("loop.traced", |s| {
            let records = bench.run_for(seconds / 2.0, min_calls, Tracker::profiled, |i, t, r| {
                if i < min_calls {
                    for (k, v) in t.profile_report().map(|p| p.counters).unwrap_or_default() {
                        *counters.entry(k).or_default() += v;
                    }
                    work += t.work();
                    depth += t.depth();
                    wall += r.secs();
                }
            });
            for r in &records[..min_calls] {
                s.leaf(&format!("call/{}", r.family), r.start_ns, r.end_ns);
            }
            records
        });
        telemetry::set_recording(false);
        let pool = telemetry::snapshot();
        let cpu_s = cpu_seconds() - cpu0;
        let counted = Counted {
            counters,
            work,
            depth,
            wall,
            loop_s,
            cpu_s,
            pool,
        };
        (untraced, traced, counted)
    });
    attempted += (untraced.len() + traced.len()) as u64;

    // The probes: the decomposed solve, then one call per layer.
    let engine = kind.engine();
    let probe = bench.probe.clone();
    let mut decomposed = Vec::new();
    spans
        .scope("probes", |s| -> Result<(), String> {
            for _ in 0..reps {
                let d = decompose_in(s, &probe, engine)?;
                attempted += 1;
                failed += u64::from(!d.costs_equal);
                decomposed.push(d);
            }
            Ok(())
        })
        .0?;
    let first = &decomposed[0];
    let n = probe.n();
    let seed = SolverConfig::default().path.seed;

    // linalg: one Laplacian solve with D = 1/φ''(x_final) on the extended graph.
    let capf: Vec<f64> = first.ext.cap.iter().map(|&u| u as f64).collect();
    let dvec: Vec<f64> = barrier::ddphi_vec(&first.x_final, &capf)
        .iter()
        .map(|h| 1.0 / h)
        .collect();
    let rhs: Vec<f64> = (0..first.ext.n())
        .map(|v| ((v * 7919) % 13) as f64 - 6.0)
        .collect();
    let solver = LaplacianSolver::new(first.ext.graph.clone(), 0, SolverOpts::default());
    let mut linalg = Vec::new();
    for _ in 0..reps {
        let mut t = Tracker::profiled();
        let ((_, st), secs) = spans.scope("linalg.solve", |_| solver.solve(&mut t, &dvec, &rhs));
        linalg.push((
            secs,
            st.iterations as f64,
            secs * 1e9 / t.work().max(1) as f64,
        ));
    }

    // ds: HeavyHitter::initialize with the same weights.
    let hh_s = repeat(reps, || {
        let (g, wts) = (first.ext.graph.clone(), dvec.clone());
        let mut t = Tracker::profiled();
        spans
            .scope("ds.heavy_hitter_initialize", |_| {
                HeavyHitter::initialize(&mut t, g, wts, seed)
            })
            .1
    });

    // expander: the whole edge list in one insert, then single-edge deletes.
    let mut ded_insert = Vec::new();
    let mut ded_delete = Vec::new();
    for rep in 0..reps {
        let mut t = Tracker::profiled();
        let mut ded = DynamicExpanderDecomposition::new(n, 0.1, seed);
        let (keys, ins_s) = spans.scope("expander.insert_edges", |_| {
            ded.insert_edges(&mut t, probe.graph.edges())
        });
        let mut rng = Rng::new(bench.seed ^ rep as u64);
        let mut live = keys;
        let k = DELETE_PROBE.min(live.len());
        let (_, del_s) = spans.scope("expander.delete_edges", |_| {
            for _ in 0..k {
                let key = live.swap_remove(rng.below(live.len()));
                ded.delete_edges(&mut t, &[key]);
            }
        });
        ded_insert.push(ins_s);
        ded_delete.push(del_s / k as f64);
    }

    // baselines: the oracle and both max-flow baselines on the probe graph.
    let ssp_s = repeat(reps, || {
        spans
            .scope("baselines.ssp", |_| ssp::min_cost_flow(&probe))
            .1
    });
    let (g, cap, sink) = (&probe.graph, &probe.cap, n - 1);
    let mut dinic_s = Vec::new();
    let mut pr_s = Vec::new();
    for _ in 0..reps {
        let ((want, _), ds) = spans.scope("baselines.dinic", |_| dinic::max_flow(g, cap, 0, sink));
        let mut t = Tracker::profiled();
        let (got, ps) = spans.scope("baselines.push_relabel", |_| {
            push_relabel::max_flow(&mut t, g, cap, 0, sink)
        });
        attempted += 1;
        failed += u64::from(got.ok().map(|f| f.value) != Some(want));
        dinic_s.push(ds);
        pr_s.push(ps);
    }

    // resolve: checkpoint the probe instance, then one churn cycle of deltas.
    let cfg = config(engine);
    let mut t = Tracker::profiled();
    let ((mut ck, first_sol), checkpoint_s) = spans.scope("resolve.checkpoint", |_| {
        solve_mcf_checkpointed(&mut t, &probe, &cfg)
    });
    attempted += 1;
    failed += u64::from(mcf_outcome(&probe, &first_sol) != mcf_oracle(&probe));
    let resolves = w.resolve_probe_calls();
    let mut resolve_iters = 0usize;
    for i in 0..resolves {
        let delta = churn_delta(bench.seed, 0, i, ck.problem(), probe.m());
        let (r, _) = spans.scope("resolve.resolve", |_| ck.resolve(&mut t, &delta));
        attempted += 1;
        resolve_iters += r.as_ref().map_or(0, |s| s.stats.iterations);
        let want: Outcome = mcf_oracle(ck.problem());
        failed += u64::from(mcf_outcome(ck.problem(), &r) != want);
    }
    let ck_counters = t.profile_report().map(|r| r.counters).unwrap_or_default();
    let get = |c: &BTreeMap<String, u64>, k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let warm_fallbacks = get(&ck_counters, "resolve.warm_fallbacks");
    let warm_ok = get(&ck_counters, "resolve.warm_solves") - warm_fallbacks;

    let mut all = untraced.clone();
    all.extend(traced.iter().cloned());
    failed += bench.judge(&all);

    // Per-layer metrics, in the order BENCHMARK.json lists them.
    let med = |f: &dyn Fn(&Decomposed) -> f64| median(decomposed.iter().map(f));
    let secs_p50 = |r: &[Record]| median(r.iter().map(Record::secs));
    let c = &counted;
    let threads = c.pool.threads.max(1) as f64;
    let calls = traced.len() as f64;
    let stats = first.stats;
    let secs = |name, v| Metric::new(name, v, "s");
    let ratio = |name, v| Metric::new(name, v, "ratio");
    let count = |name, v| Metric::new(name, v, "count");
    // a counter of the traced loop, per counted call
    let counter = |name: &'static str| count(name, get(&c.counters, name) / min_calls as f64);
    let metrics = vec![
        secs("graph.gen_s", median(setups.iter().map(|s| s.gen_s))),
        secs("api.validate_s", med(&|d| d.validate_s)),
        secs("api.rest_s", med(&|d| d.solve_s - d.parts_s())),
        secs("init.extend_s", med(&|d| d.extend_s)),
        secs("ipm.path_s", med(&|d| d.path_s)),
        ratio("ipm.share", med(&|d| d.path_s / d.solve_s)),
        Metric::new(
            "ipm.us_per_iter",
            med(&|d| d.path_s) * 1e6 / stats.iterations.max(1) as f64,
            "us",
        ),
        count("ipm.iterations", stats.iterations as f64),
        count("ipm.newton_steps", stats.newton_steps as f64),
        count("ipm.cg_iterations", stats.cg_iterations as f64),
        count("ipm.sampled_coords", stats.sampled_coords as f64),
        count(
            "ipm.structure_rebuilds",
            get(&first.counters, "ipm.structure_rebuilds"),
        ),
        count("ipm.epochs", get(&first.counters, "ipm.epochs")),
        secs("round.round_s", med(&|d| d.round_s)),
        ratio("round.share", med(&|d| d.round_s / d.solve_s)),
        secs("resolve.checkpoint_s", checkpoint_s),
        count("resolve.iterations", resolve_iters as f64 / resolves as f64),
        count(
            "resolve.fallbacks",
            ck.fresh_fallbacks() as f64 + warm_fallbacks,
        ),
        ratio("resolve.warm_frac", warm_ok / resolves as f64),
        secs("linalg.solve_s", median(linalg.iter().map(|l| l.0))),
        count("linalg.cg_iters", linalg[0].1),
        Metric::new(
            "linalg.ns_per_work",
            median(linalg.iter().map(|l| l.2)),
            "ns",
        ),
        counter("solver.cg_iterations_total"),
        counter("solver.precond_builds"),
        counter("solver.warm_start_hits"),
        secs("ds.heavy_hitter_init_s", median(hh_s)),
        counter("hh.heavy_queries"),
        secs("expander.insert_s", median(ded_insert)),
        secs("expander.delete_s", median(ded_delete)),
        counter("expander.inserted_edges"),
        counter("expander.rebuilds"),
        secs("baselines.ssp_s", median(ssp_s)),
        secs("baselines.dinic_s", median(dinic_s)),
        secs("baselines.push_relabel_s", median(pr_s)),
        count("pram.work", c.work as f64 / min_calls as f64),
        count("pram.depth", c.depth as f64 / min_calls as f64),
        Metric::new(
            "pram.ns_per_work",
            c.wall * 1e9 / c.work.max(1) as f64,
            "ns",
        ),
        count("pool.joins_per_op", c.pool.joins as f64 / calls),
        count("pool.steals_per_op", c.pool.steals as f64 / calls),
        ratio(
            "pool.busy_frac",
            c.pool.total_busy_ns() as f64 * 1e-9 / (threads * c.loop_s),
        ),
        ratio("pool.imbalance", c.pool.imbalance_ratio()),
        ratio("pool.cpu_util", c.cpu_s / (threads * c.loop_s)),
        ratio(
            "obs.trace_overhead",
            secs_p50(&traced) / secs_p50(&untraced) - 1.0,
        ),
        ratio("coverage", med(&|d| d.parts_s() / d.solve_s)),
    ];
    let notes = vec![
        Metric::new("samples_untraced", untraced.len() as f64, "count"),
        Metric::new("samples_traced", calls, "count"),
        Metric::new("threads", threads, "count"),
    ];
    let report = Report {
        workload: kind.name(),
        attempted,
        failed,
        metrics,
        notes,
    };
    let counters: Vec<String> = counted
        .counters
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let doc = format!(
        "{{\n  \"schema\": \"pmcf.benchmark.trace/v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {seconds},\n  \"threads\": {threads},\n  \"counted_calls\": {min_calls},\n  \"metrics\": {},\n  \"counters\": {{{}}},\n  \"spans\": {}\n}}\n",
        json_str(kind.name()),
        bench.seed,
        report.metrics_json(),
        counters.join(", "),
        spans.to_json()
    );
    Ok((report, doc))
}

/// What the traced loop measured: counters, work and depth summed over
/// its first `min_calls` calls, and pool and CPU use over the whole loop.
struct Counted {
    counters: BTreeMap<String, u64>,
    work: u64,
    depth: u64,
    /// Wall seconds of the counted calls.
    wall: f64,
    loop_s: f64,
    cpu_s: f64,
    pool: telemetry::PoolTelemetry,
}

fn repeat(reps: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..reps).map(|_| f()).collect()
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s); 0 where unavailable.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; count from after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}
