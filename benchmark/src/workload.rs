//! The four workloads: how their inputs are made from the seed, the
//! closed loop that times them, and the oracles that check every answer
//! once the loop is over.

use pmcf_baselines::{dinic, ssp};
use pmcf_core::{
    max_flow_with, solve_mcf, solve_mcf_checkpointed, Engine, MaxFlowEngine, McfCheckpoint,
    McfError, McfSolution, NewEdge, ResolveDelta, SolverConfig,
};
use pmcf_graph::{generators, DiGraph, Flow, McfProblem};
use pmcf_pram::Tracker;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `solve_mcf` with the robust engine at m = n^1.5.
    RobustDense,
    /// `solve_mcf` with the reference engine at m = n^1.5.
    ReferenceDense,
    /// Single-edge `McfCheckpoint::resolve` calls on one checkpoint.
    ResolveChurn,
    /// Many small calls across five instance families and three engines.
    SmallMix,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Kind; 4] = [
    Kind::RobustDense,
    Kind::ReferenceDense,
    Kind::ResolveChurn,
    Kind::SmallMix,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::RobustDense => "robust-dense",
            Kind::ReferenceDense => "reference-dense",
            Kind::ResolveChurn => "resolve-churn",
            Kind::SmallMix => "small-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Pool threads. Robust-dense uses two so that a fork-join change can
    /// show. Reference-dense keeps its work on one: on a shared 2-vCPU
    /// machine its two-thread p50 moved 28 % between runs against 8 % on
    /// one thread, too much for any bound to hold. The other two make
    /// most of their calls below the fork cutoff.
    pub fn threads(self) -> usize {
        match self {
            Kind::RobustDense => 2,
            Kind::ReferenceDense | Kind::ResolveChurn | Kind::SmallMix => 1,
        }
    }

    /// Engine of the workload's min-cost-flow solves.
    pub fn engine(self) -> Engine {
        match self {
            Kind::RobustDense => Engine::Robust,
            _ => Engine::Reference,
        }
    }
}

/// A workload at a given size. [`Workload::new`] is what the benchmark
/// runs; tests use a reduced copy.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    reduced: bool,
}

impl Workload {
    pub fn new(kind: Kind) -> Self {
        Workload {
            kind,
            reduced: false,
        }
    }

    /// The same workload on small inputs, for tests.
    #[cfg(test)]
    pub fn reduced(kind: Kind) -> Self {
        Workload {
            kind,
            reduced: true,
        }
    }

    /// `(n, m)` of the dense and churn instances: m = n^1.5, as in the
    /// paper's dense regime.
    fn dense_size(self) -> (usize, usize) {
        match (self.kind, self.reduced) {
            (_, true) => (16, 64),
            (Kind::RobustDense, false) => (64, 512),
            (Kind::ReferenceDense, false) => (256, 4096),
            (Kind::ResolveChurn | Kind::SmallMix, false) => (144, 1728),
        }
    }

    /// `(n, m)` of the dense workloads' warm-up solve. Reference-dense
    /// warms up at n = 128: at n = 16 its set-up took 5 ms, and its median
    /// moved 18 % between two sets of runs.
    fn warmup_size(self) -> (usize, usize) {
        match (self.kind, self.reduced) {
            (Kind::ReferenceDense, false) => (128, 1449),
            _ => (16, 64),
        }
    }

    /// Distinct inputs the closed loop cycles through; for the churn, the
    /// checkpoints it cycles through. Several checkpoints average out how
    /// often one instance's resolves leave the polish path: the churn's
    /// rate moved 14 % between seeds with one checkpoint, 13 % with four
    /// and 7 % with eight.
    fn pool_size(self) -> usize {
        match (self.kind, self.reduced) {
            (Kind::SmallMix, true) => 10,
            (_, true) => 2,
            (Kind::RobustDense, false) => 16,
            (Kind::ReferenceDense, false) => 32,
            (Kind::ResolveChurn, false) => 8,
            (Kind::SmallMix, false) => 250,
        }
    }

    /// Calls every loop makes even when its time is up. The traced run
    /// takes its per-call counters from exactly these calls, so they
    /// repeat for a given seed.
    pub fn min_calls(self) -> usize {
        match (self.kind, self.reduced) {
            (_, true) => 4,
            (Kind::RobustDense, false) => 2,
            (Kind::ReferenceDense, false) => 4,
            (Kind::ResolveChurn, false) => 40,
            (Kind::SmallMix, false) => 50,
        }
    }

    /// Repetitions of the traced run's decomposed solve and probes.
    pub fn probe_reps(self) -> usize {
        match (self.kind, self.reduced) {
            (_, true) => 1,
            (Kind::RobustDense, false) => 3,
            _ => 5,
        }
    }

    /// Resolves the traced run's resolve probe makes: two churn cycles.
    pub fn resolve_probe_calls(self) -> usize {
        if self.reduced {
            4
        } else {
            8
        }
    }
}

/// SplitMix64: the benchmark's own input randomness, independent of any
/// generator inside the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// One library call the closed loop can make.
pub enum Call {
    Mcf {
        family: &'static str,
        p: McfProblem,
        engine: Engine,
    },
    /// Max flow from vertex 0 to vertex n − 1.
    MaxFlow {
        family: &'static str,
        g: DiGraph,
        cap: Vec<i64>,
        engine: MaxFlowEngine,
    },
}

impl Call {
    fn family(&self) -> &'static str {
        match self {
            Call::Mcf { family, .. } | Call::MaxFlow { family, .. } => family,
        }
    }
}

/// What a call returned, reduced to what the oracle can confirm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A feasible flow of this cost.
    Cost(i64),
    /// A valid s-t flow of this value.
    Value(i64),
    Infeasible,
    /// A flow that breaks a bound or conservation, or misreports its cost
    /// or value.
    Invalid,
    /// Any other error.
    Error(&'static str),
    Panic,
}

/// One timed call.
#[derive(Clone, Debug)]
pub struct Record {
    /// Pool index, or the churn step.
    pub input: usize,
    pub family: &'static str,
    /// Nanoseconds since the benchmark's epoch, around the library call
    /// only.
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
}

impl Record {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Nanoseconds since the first call of this function.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Mixes the run seed with a stream id and an index.
fn sub_seed(seed: u64, stream: u64, i: usize) -> u64 {
    Rng::new(seed ^ stream.rotate_left(32) ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
        .next_u64()
}

pub fn config(engine: Engine) -> SolverConfig {
    SolverConfig {
        engine,
        ..SolverConfig::default()
    }
}

/// Delta number `step` of churn checkpoint `k`, on its current instance
/// `p`: it cycles set_cost → set_cap → insert → delete, one edge each,
/// with indices below the base edge count `m0` (the live edge count
/// alternates between `m0` and `m0 + 1`).
///
/// Costs and capacities drift by one step and inserted edges cost at
/// least 0. With values drawn afresh, 35 % of the resolves leave the warm
/// start's polish path, which puts the median on the edge between the
/// fast and the slow mode, and the p50 moved 20 % from seed to seed; with
/// drift about 25 % do, and it moved 3 %.
pub fn churn_delta(seed: u64, k: usize, step: usize, p: &McfProblem, m0: usize) -> ResolveDelta {
    let mut rng = Rng::new(sub_seed(sub_seed(seed, 3, k), 3, step));
    let e = rng.below(m0);
    let drift = 2 * rng.range(0, 1) - 1;
    let mut d = ResolveDelta::default();
    match step % 4 {
        0 => d.set_cost.push((e, (p.cost[e] + drift).clamp(-6, 6))),
        1 => d.set_cap.push((e, (p.cap[e] + drift).clamp(1, 8))),
        2 => {
            let n = p.n();
            let from = rng.below(n);
            d.insert.push(NewEdge {
                from,
                to: (from + 1 + rng.below(n - 1)) % n,
                cap: rng.range(1, 8),
                cost: rng.range(0, 6),
            });
        }
        _ => d.delete.push(e),
    }
    d
}

/// Applies `d` to `p` the way `McfCheckpoint::resolve` documents it:
/// updates, then deletions (survivors keep their order), then inserts
/// appended. Used to rebuild each churn step's instance for the oracle.
pub fn apply_delta(p: &McfProblem, d: &ResolveDelta) -> McfProblem {
    let mut cap = p.cap.clone();
    let mut cost = p.cost.clone();
    for &(e, c) in &d.set_cost {
        cost[e] = c;
    }
    for &(e, u) in &d.set_cap {
        cap[e] = u;
    }
    let (mut edges, mut cap2, mut cost2) = (Vec::new(), Vec::new(), Vec::new());
    for (e, &uv) in p.graph.edges().iter().enumerate() {
        if !d.delete.contains(&e) {
            edges.push(uv);
            cap2.push(cap[e]);
            cost2.push(cost[e]);
        }
    }
    for ne in &d.insert {
        edges.push((ne.from, ne.to));
        cap2.push(ne.cap);
        cost2.push(ne.cost);
    }
    McfProblem::new(
        DiGraph::from_edges(p.n(), edges),
        cap2,
        cost2,
        p.demand.clone(),
    )
}

fn same_instance(a: &McfProblem, b: &McfProblem) -> bool {
    a.n() == b.n()
        && a.graph.edges() == b.graph.edges()
        && a.cap == b.cap
        && a.cost == b.cost
        && a.demand == b.demand
}

/// What `solve_mcf` (or a resolve) returned, checked against `p`.
pub fn mcf_outcome(p: &McfProblem, r: &Result<McfSolution, McfError>) -> Outcome {
    match r {
        Ok(sol) if sol.flow.is_feasible(p) && sol.flow.try_cost(p) == Some(sol.cost) => {
            Outcome::Cost(sol.cost)
        }
        Ok(_) => Outcome::Invalid,
        Err(McfError::Infeasible) => Outcome::Infeasible,
        Err(e) => Outcome::Error(e.kind()),
    }
}

/// A max-flow answer checked against capacities and conservation.
fn max_flow_outcome(g: &DiGraph, cap: &[i64], r: &Result<(Flow, i64), McfError>) -> Outcome {
    let (flow, value) = match r {
        Ok(ok) => ok,
        Err(McfError::Infeasible) => return Outcome::Infeasible,
        Err(e) => return Outcome::Error(e.kind()),
    };
    let (n, t) = (g.n(), g.n() - 1);
    let mut net = vec![0i64; n];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        let x = flow.x[e];
        if x < 0 || x > cap[e] {
            return Outcome::Invalid;
        }
        net[u] -= x;
        net[v] += x;
    }
    let conserved = net[1..t].iter().all(|&b| b == 0);
    if conserved && net[t] == *value && net[0] == -value {
        Outcome::Value(*value)
    } else {
        Outcome::Invalid
    }
}

/// The oracle's answer for a min-cost-flow instance.
pub fn mcf_oracle(p: &McfProblem) -> Outcome {
    match ssp::min_cost_flow(p) {
        Some(f) => Outcome::Cost(f.cost(p)),
        None => Outcome::Infeasible,
    }
}

fn oracle(call: &Call) -> Outcome {
    match call {
        Call::Mcf { p, .. } => mcf_oracle(p),
        Call::MaxFlow { g, cap, .. } => Outcome::Value(dinic::max_flow(g, cap, 0, g.n() - 1).0),
    }
}

/// Runs `f` between two clock reads, turning a panic into `None`.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, u64, Option<T>) {
    let start = now_ns();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (start, now_ns(), out)
}

/// A set-up workload: its inputs, and for the churn the checkpoints the
/// loop mutates.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pool: Vec<Call>,
    /// The churn's checkpoints, each with its base instance; step `i`
    /// resolves on checkpoint `i % len`.
    churn: Vec<(McfProblem, McfCheckpoint)>,
    /// The instance the traced run decomposes and probes.
    pub probe: McfProblem,
    next: usize,
}

/// Wall time of one set-up.
pub struct SetupTimes {
    /// Input generation alone.
    pub gen_s: f64,
    /// Generation, warm-up and (for the churn) the checkpoint solves.
    pub total_s: f64,
}

impl Bench {
    /// Makes the inputs from `seed` and runs an untimed warm-up: it
    /// starts the pool and faults in code and allocator pages. For the
    /// churn, the checkpoint solves are the warm-up.
    pub fn setup(workload: Workload, seed: u64) -> Result<(Bench, SetupTimes), String> {
        let t0 = Instant::now();
        let kind = workload.kind;
        let (n, m) = workload.dense_size();
        let dense = |stream, i| generators::random_mcf(n, m, 8, 6, sub_seed(seed, stream, i));
        let (pool, bases): (Vec<Call>, Vec<McfProblem>) = match kind {
            Kind::ResolveChurn => (
                Vec::new(),
                (0..workload.pool_size()).map(|i| dense(2, i)).collect(),
            ),
            Kind::SmallMix => (
                (0..workload.pool_size())
                    .map(|i| mix_call(workload.reduced, i, sub_seed(seed, 1, i)))
                    .collect(),
                Vec::new(),
            ),
            _ => (
                (0..workload.pool_size())
                    .map(|i| Call::Mcf {
                        family: "random_mcf",
                        p: dense(1, i),
                        engine: kind.engine(),
                    })
                    .collect(),
                Vec::new(),
            ),
        };
        let gen_s = t0.elapsed().as_secs_f64();

        let mut churn = Vec::new();
        for base in bases {
            let mut t = Tracker::new();
            let (ck, first) = solve_mcf_checkpointed(&mut t, &base, &config(kind.engine()));
            first.map_err(|e| format!("checkpoint solve failed: {e:?}"))?;
            churn.push((base, ck));
        }
        match kind {
            // five calls of each family
            Kind::SmallMix => pool.iter().take(25).for_each(|c| {
                run_call(&mut Tracker::new(), c);
            }),
            Kind::RobustDense | Kind::ReferenceDense => {
                let (n, m) = workload.warmup_size();
                let p = generators::random_mcf(n, m, 8, 6, sub_seed(seed, 4, 0));
                solve_mcf(&mut Tracker::new(), &p, &config(kind.engine()))
                    .map_err(|e| format!("warm-up solve failed: {e:?}"))?;
            }
            Kind::ResolveChurn => {}
        }
        let probe = match (churn.first(), pool.first()) {
            (Some((base, _)), _) => base.clone(),
            (None, Some(Call::Mcf { p, .. })) => p.clone(),
            _ => return Err("workload has no min-cost-flow instance to probe".into()),
        };
        let total_s = t0.elapsed().as_secs_f64();
        let bench = Bench {
            workload,
            seed,
            pool,
            churn,
            probe,
            next: 0,
        };
        Ok((bench, SetupTimes { gen_s, total_s }))
    }

    /// Makes the next call of the closed loop with tracker `t`.
    pub fn call(&mut self, t: &mut Tracker) -> Record {
        let i = self.next;
        self.next += 1;
        if !self.churn.is_empty() {
            let (k, step) = (i % self.churn.len(), i / self.churn.len());
            let (base, ck) = &mut self.churn[k];
            let delta = churn_delta(self.seed, k, step, ck.problem(), base.m());
            let (start_ns, end_ns, r) = timed(|| ck.resolve(t, &delta));
            return Record {
                input: i,
                family: "resolve",
                start_ns,
                end_ns,
                outcome: r.map_or(Outcome::Panic, |r| mcf_outcome(ck.problem(), &r)),
            };
        }
        let input = i % self.pool.len();
        let call = &self.pool[input];
        let (start_ns, end_ns, outcome) = timed(|| run_call(t, call));
        Record {
            input,
            family: call.family(),
            start_ns,
            end_ns,
            outcome: outcome.unwrap_or(Outcome::Panic),
        }
    }

    /// Closed loop with one client: calls until `seconds` have passed and
    /// at least `min_calls` were made. `new_tracker` makes each call's
    /// tracker and `after` sees it once the call returns.
    pub fn run_for(
        &mut self,
        seconds: f64,
        min_calls: usize,
        mut new_tracker: impl FnMut() -> Tracker,
        mut after: impl FnMut(usize, &Tracker, &Record),
    ) -> Vec<Record> {
        let start = Instant::now();
        let mut records = Vec::new();
        while records.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
            let mut t = new_tracker();
            let r = self.call(&mut t);
            after(records.len(), &t, &r);
            records.push(r);
        }
        records
    }

    /// Checks every record against the oracle; returns how many failed.
    /// Each distinct input (or churn step) is solved once by the oracle.
    pub fn judge(&self, records: &[Record]) -> u64 {
        if self.churn.is_empty() {
            let mut want: BTreeMap<usize, Outcome> = BTreeMap::new();
            return records
                .iter()
                .filter(|r| {
                    let w = want
                        .entry(r.input)
                        .or_insert_with(|| oracle(&self.pool[r.input]));
                    r.outcome != *w
                })
                .count() as u64;
        }
        // Rebuild every churn step's instance; one oracle solve per
        // recorded step.
        let by_step: BTreeMap<usize, &Outcome> =
            records.iter().map(|r| (r.input, &r.outcome)).collect();
        let mut failed = 0;
        for (k, (base, ck)) in self.churn.iter().enumerate() {
            let mut p = base.clone();
            for (step, i) in (k..self.next).step_by(self.churn.len()).enumerate() {
                p = apply_delta(&p, &churn_delta(self.seed, k, step, &p, base.m()));
                if let Some(&got) = by_step.get(&i) {
                    failed += u64::from(*got != mcf_oracle(&p));
                }
            }
            if !same_instance(&p, ck.problem()) {
                eprintln!(
                    "pmcf_benchmark: replayed churn instance {k} differs from its checkpoint"
                );
                failed += 1;
            }
        }
        failed
    }
}

fn run_call(t: &mut Tracker, call: &Call) -> Outcome {
    match call {
        Call::Mcf { p, engine, .. } => mcf_outcome(p, &solve_mcf(t, p, &config(*engine))),
        Call::MaxFlow { g, cap, engine, .. } => {
            let r = max_flow_with(t, g, cap, 0, g.n() - 1, &config(Engine::Reference), *engine);
            max_flow_outcome(g, cap, &r)
        }
    }
}

/// The `i`-th call of the small mix: the five families in turn. Sizes
/// step through fixed ladders rather than being drawn, so every seed
/// runs the same mix of sizes and only the instances differ: with drawn
/// sizes the p50 moved 18 % between seeds.
fn mix_call(reduced: bool, i: usize, seed: u64) -> Call {
    let j = i / 5;
    match i % 5 {
        0 => {
            let n = if reduced {
                8 + j % 5
            } else {
                16 + (7 * j) % 25
            };
            Call::Mcf {
                family: "random_mcf",
                p: generators::random_mcf(n, generators::dense_m(n), 8, 6, seed),
                engine: Engine::Reference,
            }
        }
        1 => {
            let (w, h) = if reduced {
                (2 + j % 2, 1 + j % 3)
            } else {
                (4 + j % 5, 3 + (j / 5) % 4)
            };
            let supply = 1 + (j % 4) as i64;
            Call::Mcf {
                family: "transportation_grid",
                p: generators::transportation_grid(w, h, supply, seed),
                engine: Engine::Reference,
            }
        }
        2 => {
            let k = if reduced { 2 + j % 3 } else { 4 + j % 13 };
            Call::Mcf {
                family: "zigzag_chain",
                p: generators::zigzag_chain(k, seed),
                engine: Engine::Reference,
            }
        }
        3 => {
            let (n, m) = if reduced { (10, 30) } else { (40, 240) };
            let (g, cap) = generators::random_max_flow(n, m, 8, seed);
            Call::MaxFlow {
                family: "max_flow_ipm",
                g,
                cap,
                engine: MaxFlowEngine::Ipm,
            }
        }
        _ => {
            let (n, m) = if reduced { (40, 200) } else { (400, 4000) };
            let (g, cap) = generators::random_max_flow(n, m, 8, seed);
            Call::MaxFlow {
                family: "max_flow_push_relabel",
                g,
                cap,
                engine: MaxFlowEngine::PushRelabel,
            }
        }
    }
}
