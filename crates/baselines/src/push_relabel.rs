//! Synchronous parallel push-relabel — the Baumstark–Blelloch–Shun
//! (ESA 2015) max-flow engine, driven through the `pmcf_pram` fork-join
//! pool so its charged work/depth are bit-identical at any thread count.
//!
//! Structure of one discharge round (all barriers are `Tracker`
//! parallel sections, so the cost model sees them as flat parallel
//! loops):
//!
//! 1. **Push phase** — every active vertex discharges with its
//!    *round-start* label: admissible arcs (`label[v] == label[w] + 1`,
//!    positive residual) are pushed in arc order until the excess runs
//!    out. Residual updates go through per-arc atomics and pushed
//!    excess accumulates into a per-vertex atomic `added` slot. Two
//!    endpoints of an arc pair can never both find it admissible in the
//!    same round (their labels would have to differ by +1 in both
//!    directions), so arc updates are conflict-free and the excess adds
//!    commute — the state after the barrier is independent of
//!    scheduling.
//! 2. **Relabel phase** — vertices whose excess survived their scan
//!    recompute `1 + min label` over residual neighbours *after* the
//!    push barrier (residuals are stable again), exactly as in the BBS
//!    formulation; labels are applied at the barrier. A vertex whose
//!    label reaches `n` can no longer reach the sink and is retired
//!    (its excess is returned to the source in the decomposition
//!    phase).
//! 3. **Working set** — the next round's active set is the sorted,
//!    deduplicated union of push targets and survivors.
//!
//! Periodically (work-triggered, deterministic) a **global relabel**
//! runs a level-synchronous parallel BFS backwards from the sink over
//! the residual graph and lifts every label to its exact distance.
//!
//! After the preflow phase the trapped excess is walked back to the
//! source along flow-carrying arcs (with cycle cancellation), yielding
//! a feasible integral flow whose s-t value equals the preflow value.
//!
//! The atomic excess accumulator is overflow-guarded: the input
//! pre-screen bounds `Σu < 2^62` (the same headroom
//! `validate_instance` enforces via `C·W·m² < 2^62`), and every
//! accumulation goes through a checked compare-exchange loop that trips
//! a flag routed out as [`FlowError::Overflow`] instead of wrapping.

use crate::FlowError;
use pmcf_graph::DiGraph;
use pmcf_pram::{par_depth, Cost, ParMode, Tracker};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// Residual-arc metadata (capacities live in a parallel atomic array).
#[derive(Clone, Copy)]
struct Arc {
    /// Head vertex.
    to: usize,
    /// Index of the paired reverse arc.
    rev: usize,
    /// Originating edge id (`usize::MAX` for reverse arcs).
    edge: usize,
}

/// Counters from one [`max_flow`] run (also available as `pr.*`
/// profiler counters on the tracker).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrStats {
    /// Synchronous discharge rounds executed.
    pub rounds: u64,
    /// Individual push operations.
    pub pushes: u64,
    /// Individual relabel operations.
    pub relabels: u64,
    /// Global relabel (parallel backward BFS) passes.
    pub global_relabels: u64,
}

/// A max-flow answer: the value, a feasible per-edge flow, and stats.
#[derive(Clone, Debug)]
pub struct PrFlow {
    /// Maximum s-t flow value.
    pub value: i64,
    /// Feasible integral flow per original edge.
    pub x: Vec<i64>,
    /// Operation counters.
    pub stats: PrStats,
}

/// Validate a max-flow input; `Err` carries the typed rejection.
pub fn validate_input(g: &DiGraph, cap: &[i64], s: usize, t: usize) -> Result<(), FlowError> {
    if cap.len() != g.m() {
        return Err(FlowError::InvalidInput(format!(
            "capacity vector length {} does not match edge count {}",
            cap.len(),
            g.m()
        )));
    }
    if s >= g.n() || t >= g.n() {
        return Err(FlowError::InvalidInput(format!(
            "source {s} / sink {t} out of range for {} vertices",
            g.n()
        )));
    }
    if s == t {
        return Err(FlowError::InvalidInput(
            "source and sink must differ".into(),
        ));
    }
    if let Some(e) = (0..cap.len()).find(|&e| cap[e] < 0) {
        return Err(FlowError::InvalidInput(format!(
            "negative capacity {} on edge {e}",
            cap[e]
        )));
    }
    let total = cap
        .iter()
        .try_fold(0i64, |a, &u| a.checked_add(u))
        .ok_or_else(|| FlowError::Overflow("total capacity Σu exceeds i64".into()))?;
    if total >= 1i64 << 62 {
        return Err(FlowError::Overflow(format!(
            "total capacity Σu = {total} needs Σu < 2^62 (excess accumulation headroom)"
        )));
    }
    Ok(())
}

/// Overflow-checked atomic excess accumulation: a compare-exchange loop
/// around `checked_add` that trips `overflow` instead of wrapping.
fn add_excess(slot: &AtomicI64, delta: i64, overflow: &AtomicBool) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let Some(next) = cur.checked_add(delta) else {
            overflow.store(true, Ordering::Relaxed);
            return;
        };
        match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Exact max s-t flow, execution mode chosen from the pool size (the
/// charged costs do not depend on the choice).
pub fn max_flow(
    tr: &mut Tracker,
    g: &DiGraph,
    cap: &[i64],
    s: usize,
    t: usize,
) -> Result<PrFlow, FlowError> {
    let mode = if rayon::current_num_threads() > 1 {
        ParMode::Forked
    } else {
        ParMode::Sequential
    };
    max_flow_in(tr, mode, g, cap, s, t)
}

/// [`max_flow`] with the fork-join execution mode pinned — the
/// determinism proptests run both modes and require bit-identical
/// charged work/depth and counters.
pub fn max_flow_in(
    tr: &mut Tracker,
    mode: ParMode,
    g: &DiGraph,
    cap: &[i64],
    s: usize,
    sink: usize,
) -> Result<PrFlow, FlowError> {
    validate_input(g, cap, s, sink)?;
    let mut guard = tr.span_guard("push_relabel");
    let tr = &mut *guard;
    let n = g.n();

    // ---- residual graph (arc pairs, skipping unusable edges) ----
    let mut arcs: Vec<Arc> = Vec::with_capacity(2 * g.m());
    let mut res_init: Vec<i64> = Vec::with_capacity(2 * g.m());
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        if cap[e] <= 0 || u == v {
            continue;
        }
        let a = arcs.len();
        arcs.push(Arc {
            to: v,
            rev: a + 1,
            edge: e,
        });
        arcs.push(Arc {
            to: u,
            rev: a,
            edge: usize::MAX,
        });
        res_init.push(cap[e]);
        res_init.push(0);
        adj[u].push(a);
        adj[v].push(a + 1);
    }
    let res: Vec<AtomicI64> = res_init.into_iter().map(AtomicI64::new).collect();
    let narcs = arcs.len();
    tr.charge(Cost::par_flat((narcs + n).max(1) as u64));
    pmcf_obs::emit_with("pr.start", || {
        vec![
            ("n", n.into()),
            ("arcs", narcs.into()),
            ("s", s.into()),
            ("t", sink.into()),
        ]
    });

    let mut label: Vec<usize> = vec![0; n];
    let mut excess: Vec<i64> = vec![0; n];
    let added: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
    let overflow = AtomicBool::new(false);
    label[s] = n;

    // saturate the source's out-arcs (the initial preflow)
    for &a in &adj[s] {
        let delta = res[a].load(Ordering::Relaxed);
        if arcs[a].edge != usize::MAX && delta > 0 {
            res[a].store(0, Ordering::Relaxed);
            res[arcs[a].rev].fetch_add(delta, Ordering::Relaxed);
            add_excess(&added[arcs[a].to], delta, &overflow);
        }
    }
    tr.charge(Cost::par_flat(adj[s].len().max(1) as u64));
    for v in 0..n {
        excess[v] = added[v].swap(0, Ordering::Relaxed);
    }
    tr.charge(Cost::par_flat(n as u64));

    let mut stats = PrStats::default();
    // deterministic work-triggered global relabel cadence
    let relabel_budget = (4 * narcs + 4 * n).max(16) as u64;
    let mut work_since_relabel = relabel_budget; // force one before round 1

    let mut active: Vec<usize> = Vec::new();
    let rebuild_active = |label: &[usize], excess: &[i64], tr: &mut Tracker| -> Vec<usize> {
        let act: Vec<usize> = (0..n)
            .filter(|&v| v != s && v != sink && excess[v] > 0 && label[v] < n)
            .collect();
        tr.charge(Cost::par_flat(n as u64));
        act
    };

    loop {
        if overflow.load(Ordering::Relaxed) {
            return Err(FlowError::Overflow(
                "atomic excess accumulation overflowed i64".into(),
            ));
        }
        if work_since_relabel >= relabel_budget {
            global_relabel(tr, mode, &arcs, &adj, &res, &mut label, n, s, sink);
            stats.global_relabels += 1;
            tr.counter("pr.global_relabels", 1);
            work_since_relabel = 0;
            active = rebuild_active(&label, &excess, tr);
            pmcf_obs::emit_with("pr.global_relabel", || {
                vec![
                    ("round", stats.rounds.into()),
                    ("active", active.len().into()),
                ]
            });
        }
        if active.is_empty() {
            // a global relabel can unlock retired vertices only by
            // *raising* labels, never reviving them — but excess may
            // still sit on label < n vertices right after one; re-check
            // with a final exact relabel before declaring convergence
            if work_since_relabel > 0 {
                work_since_relabel = relabel_budget;
                continue;
            }
            break;
        }
        stats.rounds += 1;
        tr.counter("pr.rounds", 1);

        // ---- push phase (round-start labels, atomic residuals) ----
        let push_out: Vec<(i64, Vec<usize>, u64, u64)> = {
            let label = &label;
            let excess = &excess;
            let arcs = &arcs;
            let adj = &adj;
            let res = &res;
            let added = &added;
            let overflow = &overflow;
            let active = &active;
            tr.parallel_in(mode, active.len(), move |i, bt| {
                let v = active[i];
                let mut e = excess[v];
                let mut targets = Vec::new();
                let mut pushes = 0u64;
                let mut scanned = 0u64;
                for &a in &adj[v] {
                    if e == 0 {
                        break;
                    }
                    scanned += 1;
                    let w = arcs[a].to;
                    if label[v] != label[w] + 1 {
                        continue;
                    }
                    let r = res[a].load(Ordering::Relaxed);
                    if r <= 0 {
                        continue;
                    }
                    let delta = e.min(r);
                    res[a].fetch_sub(delta, Ordering::Relaxed);
                    res[arcs[a].rev].fetch_add(delta, Ordering::Relaxed);
                    add_excess(&added[w], delta, overflow);
                    e -= delta;
                    pushes += 1;
                    targets.push(w);
                }
                bt.charge(Cost::new(scanned.max(1), scanned.max(1)));
                bt.counter("pr.pushes", pushes);
                (e, targets, pushes, scanned)
            })
        };
        tr.charge(Cost::new(
            active.len() as u64,
            par_depth(active.len() as u64),
        ));

        // ---- barrier: write back survivors, absorb pushed excess ----
        let mut survivors: Vec<usize> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        for (i, (rem, tg, pushes, scanned)) in push_out.iter().enumerate() {
            let v = active[i];
            excess[v] = *rem;
            if *rem > 0 {
                survivors.push(v);
            }
            targets.extend_from_slice(tg);
            stats.pushes += pushes;
            work_since_relabel += scanned + 1;
        }
        if overflow.load(Ordering::Relaxed) {
            return Err(FlowError::Overflow(
                "atomic excess accumulation overflowed i64".into(),
            ));
        }
        targets.sort_unstable();
        targets.dedup();
        tr.charge(Cost::sort(targets.len() as u64));
        for &v in &targets {
            let a = added[v].swap(0, Ordering::Relaxed);
            if a != 0 {
                let Some(next) = excess[v].checked_add(a) else {
                    return Err(FlowError::Overflow(
                        "vertex excess exceeds i64 after accumulation".into(),
                    ));
                };
                excess[v] = next;
            }
        }
        tr.charge(Cost::par_flat(targets.len().max(1) as u64));

        // ---- relabel phase (after the push barrier: residuals stable) ----
        if !survivors.is_empty() {
            let new_labels: Vec<usize> = {
                let label = &label;
                let arcs = &arcs;
                let adj = &adj;
                let res = &res;
                let survivors = &survivors;
                tr.parallel_in(mode, survivors.len(), move |i, bt| {
                    let v = survivors[i];
                    let mut best = usize::MAX;
                    for &a in &adj[v] {
                        if res[a].load(Ordering::Relaxed) > 0 {
                            best = best.min(label[arcs[a].to]);
                        }
                    }
                    bt.charge(Cost::new(
                        adj[v].len().max(1) as u64,
                        adj[v].len().max(1) as u64,
                    ));
                    bt.counter("pr.relabels", 1);
                    if best == usize::MAX {
                        n
                    } else {
                        (best + 1).min(n)
                    }
                })
            };
            tr.charge(Cost::new(
                survivors.len() as u64,
                par_depth(survivors.len() as u64),
            ));
            for (i, &v) in survivors.iter().enumerate() {
                debug_assert!(new_labels[i] >= label[v], "labels must not decrease");
                label[v] = new_labels[i];
                stats.relabels += 1;
                work_since_relabel += 1;
            }
        }

        // ---- next working set: push targets ∪ survivors ----
        let mut next: Vec<usize> = targets;
        next.extend_from_slice(&survivors);
        next.sort_unstable();
        next.dedup();
        tr.charge(Cost::sort(next.len() as u64));
        next.retain(|&v| v != s && v != sink && excess[v] > 0 && label[v] < n);
        tr.charge(Cost::par_flat(next.len().max(1) as u64));
        active = next;
    }

    let value = excess[sink];
    // ---- decomposition: walk trapped excess back to the source ----
    tr.span("pr.decompose", |tr| {
        return_excess(tr, &arcs, &adj, &res, &mut excess, s, sink, n);
    });

    let mut x = vec![0i64; g.m()];
    for (a, arc) in arcs.iter().enumerate() {
        if arc.edge != usize::MAX {
            x[arc.edge] = res[arcs[a].rev].load(Ordering::Relaxed);
        }
    }
    tr.charge(Cost::par_flat(narcs.max(1) as u64));

    pmcf_obs::emit_with("pr.done", || {
        vec![
            ("value", value.into()),
            ("rounds", stats.rounds.into()),
            ("pushes", stats.pushes.into()),
            ("relabels", stats.relabels.into()),
            ("global_relabels", stats.global_relabels.into()),
        ]
    });
    Ok(PrFlow { value, x, stats })
}

/// Global relabel: level-synchronous parallel BFS backwards from the
/// sink over residual arcs, lifting every label to its exact residual
/// distance (unreachable vertices and the source are pinned at `n`).
#[allow(clippy::too_many_arguments)]
fn global_relabel(
    tr: &mut Tracker,
    mode: ParMode,
    arcs: &[Arc],
    adj: &[Vec<usize>],
    res: &[AtomicI64],
    label: &mut [usize],
    n: usize,
    s: usize,
    sink: usize,
) {
    tr.span("pr.global_relabel", |tr| {
        let mut dist = vec![usize::MAX; n];
        dist[sink] = 0;
        let mut frontier = vec![sink];
        let mut level = 0usize;
        while !frontier.is_empty() {
            level += 1;
            // expand: x is one step from w when the residual arc x → w
            // (the reverse pair of an arc out of w) has capacity left
            let found: Vec<Vec<usize>> = {
                let frontier = &frontier;
                let dist = &dist;
                tr.parallel_in(mode, frontier.len(), move |i, bt| {
                    let w = frontier[i];
                    let mut out = Vec::new();
                    for &b in &adj[w] {
                        let x = arcs[b].to;
                        if dist[x] == usize::MAX && res[arcs[b].rev].load(Ordering::Relaxed) > 0 {
                            out.push(x);
                        }
                    }
                    bt.charge(Cost::new(
                        adj[w].len().max(1) as u64,
                        adj[w].len().max(1) as u64,
                    ));
                    out
                })
            };
            tr.charge(Cost::new(
                frontier.len() as u64,
                par_depth(frontier.len() as u64),
            ));
            let mut next: Vec<usize> = Vec::new();
            for f in found {
                for x in f {
                    if dist[x] == usize::MAX {
                        dist[x] = level;
                        next.push(x);
                    }
                }
            }
            tr.charge(Cost::par_flat(next.len().max(1) as u64));
            frontier = next;
        }
        for v in 0..n {
            if v == s {
                label[v] = n;
            } else if dist[v] < n {
                // exact distances never undercut a valid labeling; the
                // max is defensive (labels must be monotone)
                label[v] = label[v].max(dist[v]);
            } else {
                label[v] = n;
            }
        }
        tr.charge(Cost::par_flat(n as u64));
    });
}

/// Return trapped excess to the source: repeatedly walk backwards from
/// each excess vertex along flow-carrying arcs, cancelling flow cycles
/// on the way. Sequential (charged as such); the preflow decomposition
/// guarantees every walk terminates at the source.
#[allow(clippy::too_many_arguments)]
fn return_excess(
    tr: &mut Tracker,
    arcs: &[Arc],
    adj: &[Vec<usize>],
    res: &[AtomicI64],
    excess: &mut [i64],
    s: usize,
    sink: usize,
    n: usize,
) {
    // flow into `v` along original edge (u, v) = residual of the
    // reverse arc, which lives in adj[v]; cursors only ever advance
    // past arcs whose flow has hit zero (flow never increases here)
    let mut cur: Vec<usize> = vec![0; n];
    let mut ops = 0u64;
    // cancelling excess at one vertex never raises it at another, so a
    // snapshot of the overloaded vertices is safe to iterate
    let overloaded: Vec<usize> = (0..n)
        .filter(|&v| v != s && v != sink && excess[v] > 0)
        .collect();
    for v in overloaded {
        while excess[v] > 0 {
            // walk: path of reverse arcs, on_path marks visited vertices
            let mut path: Vec<usize> = Vec::new();
            let mut on_path = std::collections::HashMap::new();
            on_path.insert(v, 0usize);
            let mut u = v;
            loop {
                if u == s {
                    // cancel min(excess, bottleneck) along the path
                    let mut delta = excess[v];
                    for &b in &path {
                        delta = delta.min(res[b].load(Ordering::Relaxed));
                    }
                    for &b in &path {
                        res[b].fetch_sub(delta, Ordering::Relaxed);
                        res[arcs[b].rev].fetch_add(delta, Ordering::Relaxed);
                    }
                    excess[v] -= delta;
                    ops += path.len() as u64 + 1;
                    break;
                }
                // next flow-carrying in-arc of u
                let mut chosen = usize::MAX;
                while cur[u] < adj[u].len() {
                    let b = adj[u][cur[u]];
                    ops += 1;
                    if arcs[b].edge == usize::MAX && res[b].load(Ordering::Relaxed) > 0 {
                        chosen = b;
                        break;
                    }
                    cur[u] += 1;
                }
                debug_assert_ne!(chosen, usize::MAX, "positive excess must have in-flow");
                if chosen == usize::MAX {
                    break; // defensive: drop the walk rather than loop
                }
                let w = arcs[chosen].to;
                if let Some(&p) = on_path.get(&w) {
                    // flow cycle: cancel its bottleneck and resume at w
                    let cycle = &path[p..];
                    let mut delta = res[chosen].load(Ordering::Relaxed);
                    for &b in cycle {
                        delta = delta.min(res[b].load(Ordering::Relaxed));
                    }
                    for &b in cycle.iter().chain(std::iter::once(&chosen)) {
                        res[b].fetch_sub(delta, Ordering::Relaxed);
                        res[arcs[b].rev].fetch_add(delta, Ordering::Relaxed);
                    }
                    ops += cycle.len() as u64 + 1;
                    for &b in &path[p..] {
                        on_path.remove(&arcs[b].to);
                    }
                    path.truncate(p);
                    u = w;
                    debug_assert!(on_path.contains_key(&w));
                    continue;
                }
                on_path.insert(w, path.len() + 1);
                path.push(chosen);
                u = w;
            }
        }
    }
    tr.charge(Cost::sequential(ops.max(1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;
    use pmcf_graph::generators;

    fn solve(g: &DiGraph, cap: &[i64], s: usize, t: usize) -> PrFlow {
        let mut tr = Tracker::new();
        max_flow(&mut tr, g, cap, s, t).unwrap()
    }

    fn assert_feasible(g: &DiGraph, cap: &[i64], s: usize, t: usize, out: &PrFlow) {
        let mut net = vec![0i64; g.n()];
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            assert!(out.x[e] >= 0 && out.x[e] <= cap[e], "edge {e} bounds");
            net[u] -= out.x[e];
            net[v] += out.x[e];
        }
        for (v, &nv) in net.iter().enumerate() {
            if v != s && v != t {
                assert_eq!(nv, 0, "conservation at {v}");
            }
        }
        assert_eq!(net[t], out.value, "sink inflow = value");
        assert_eq!(net[s], -out.value, "source outflow = value");
    }

    #[test]
    fn simple_bottleneck() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let out = solve(&g, &[5, 3], 0, 2);
        assert_eq!(out.value, 3);
        assert_eq!(out.x, vec![3, 3]);
    }

    #[test]
    fn parallel_paths_add_up() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 3), (0, 2), (2, 3)]);
        let out = solve(&g, &[2, 2, 3, 3], 0, 3);
        assert_eq!(out.value, 5);
    }

    #[test]
    fn disconnected_sink_is_zero_flow() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 0), (2, 3)]);
        let out = solve(&g, &[4, 2, 7], 0, 3);
        assert_eq!(out.value, 0);
        assert_eq!(out.x, vec![0, 0, 0]);
    }

    #[test]
    fn self_loops_zero_caps_and_antiparallel_bundles() {
        let g = DiGraph::from_edges(
            3,
            vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (1, 2), (0, 1)],
        );
        let cap = vec![9, 4, 2, 0, 3, 3, 1];
        let (want, _) = dinic::max_flow(&g, &cap, 0, 2);
        let out = solve(&g, &cap, 0, 2);
        assert_eq!(out.value, want);
        assert_feasible(&g, &cap, 0, 2, &out);
        assert_eq!(out.x[0], 0, "self loop stays empty");
        assert_eq!(out.x[3], 0, "zero-cap edge stays empty");
    }

    #[test]
    fn agrees_with_dinic_on_random_graphs() {
        for seed in 0..20 {
            let (g, cap) = generators::random_max_flow(12, 40, 6, seed);
            let (want, _) = dinic::max_flow(&g, &cap, 0, 11);
            let out = solve(&g, &cap, 0, 11);
            assert_eq!(out.value, want, "seed {seed}");
            assert_feasible(&g, &cap, 0, 11, &out);
        }
    }

    #[test]
    fn degenerate_inputs_are_typed_rejections() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let mut tr = Tracker::new();
        assert!(matches!(
            max_flow(&mut tr, &g, &[1], 0, 0),
            Err(FlowError::InvalidInput(_))
        ));
        assert!(matches!(
            max_flow(&mut tr, &g, &[1], 0, 5),
            Err(FlowError::InvalidInput(_))
        ));
        assert!(matches!(
            max_flow(&mut tr, &g, &[1, 2], 0, 1),
            Err(FlowError::InvalidInput(_))
        ));
        assert!(matches!(
            max_flow(&mut tr, &g, &[-3], 0, 1),
            Err(FlowError::InvalidInput(_))
        ));
    }

    #[test]
    fn capacity_sum_overflow_is_typed() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let mut tr = Tracker::new();
        assert!(matches!(
            max_flow(&mut tr, &g, &[i64::MAX / 2, i64::MAX / 2 + 2], 0, 2),
            Err(FlowError::Overflow(_))
        ));
        // inside i64 but past the 2^62 accumulation headroom
        assert!(matches!(
            max_flow(&mut tr, &g, &[1i64 << 61, 1i64 << 61], 0, 2),
            Err(FlowError::Overflow(_))
        ));
    }

    #[test]
    fn excess_accumulator_trips_on_overflow() {
        let slot = AtomicI64::new(i64::MAX - 1);
        let flag = AtomicBool::new(false);
        add_excess(&slot, 1, &flag);
        assert!(!flag.load(Ordering::Relaxed));
        add_excess(&slot, 1, &flag);
        assert!(flag.load(Ordering::Relaxed), "wrap must trip the guard");
        assert_eq!(slot.load(Ordering::Relaxed), i64::MAX, "no wrapping");
    }

    #[test]
    fn charged_cost_identical_sequential_vs_forked() {
        for seed in 0..5 {
            let (g, cap) = generators::random_max_flow(10, 30, 5, seed);
            let mut ta = Tracker::profiled();
            let a = max_flow_in(&mut ta, ParMode::Sequential, &g, &cap, 0, 9).unwrap();
            let mut tb = Tracker::profiled();
            let b = max_flow_in(&mut tb, ParMode::Forked, &g, &cap, 0, 9).unwrap();
            assert_eq!(a.value, b.value, "seed {seed}");
            assert_eq!(a.x, b.x, "seed {seed}");
            assert_eq!(a.stats, b.stats, "seed {seed}");
            assert_eq!(
                (ta.work(), ta.depth()),
                (tb.work(), tb.depth()),
                "seed {seed}"
            );
            let (ra, rb) = (
                ta.profile_report().unwrap().counters,
                tb.profile_report().unwrap().counters,
            );
            assert_eq!(ra, rb, "seed {seed} counters");
        }
    }

    #[test]
    fn stats_count_real_operations() {
        let (g, cap) = generators::random_max_flow(10, 30, 5, 3);
        let out = solve(&g, &cap, 0, 9);
        assert!(out.stats.rounds > 0);
        assert!(out.stats.pushes > 0);
        assert!(out.stats.global_relabels >= 1, "initial global relabel");
    }
}
