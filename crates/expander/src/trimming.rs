//! The `Trimming` procedure (paper Algorithm 3, Lemma 3.7) with the flow
//! reuse across batches that turns it into expander pruning (§3.1, §3.3).
//!
//! Given an expander `G`, an alive-set `A`, and a batch of deleted edges,
//! trimming routes `2/φ` units of source demand per boundary edge into
//! per-degree sinks using [`crate::unit_flow`]. If all demand routes, the
//! flow is a *certificate* (Lemma 3.9) that `G[A]` is still an expander.
//! Otherwise a level cut `S_j = {v : l(v) ≥ j}` of the push-relabel
//! labelling is sparse; `S_j` is trimmed out (its volume is charged to
//! the deleted edges) and the loop repeats — at most `O(log n)` times
//! (Lemma 3.13).
//!
//! One [`Trimmer`] instance supports an online sequence of deletion
//! batches by reusing the accumulated flow and growing the edge
//! capacities `2i/φ` per batch (Lemma 3.8); the certificate degrades
//! gracefully for `≤ (log n)/2` batches (Lemma 3.6), which
//! [`crate::boosting`] then lifts to arbitrarily many.

use crate::unit_flow::{parallel_unit_flow, UnitFlowProblem, UnitFlowState};
use pmcf_graph::{EdgeId, UGraph, Vertex};
use pmcf_pram::{Cost, Tracker};

/// Outcome of one deletion batch.
#[derive(Clone, Debug, Default)]
pub struct TrimBatchResult {
    /// Vertices pruned out by this batch.
    pub removed: Vec<Vertex>,
    /// Host-graph degree sum of the removed vertices.
    pub removed_volume: usize,
    /// Main-loop rounds used.
    pub rounds: usize,
    /// Whether the final flow routed all demand (certificate complete).
    pub certified: bool,
}

/// Tunable trimming parameters.
///
/// The paper's asymptotic choices (`2/φ` source per boundary edge,
/// `deg/log²n` sinks) only bite for astronomically large `n`; the
/// defaults here keep the same *ratios* (source ∝ 1/φ, total sink budget
/// a constant fraction of degree split evenly across the batch budget) at
/// sizes a workstation can run, as recorded in DESIGN.md §2.
#[derive(Clone, Copy, Debug)]
pub struct TrimmerParams {
    /// Target expansion φ of the host graph.
    pub phi: f64,
    /// Source demand injected per boundary-edge endpoint (paper: `2/φ`).
    pub source_per_edge: f64,
    /// Lifetime per-degree sink budget. Lemma 3.9's certificate needs
    /// total sinks `∇(v) ≤ deg(v)`, i.e. a lifetime budget of 1.0.
    pub lifetime_sink: f64,
    /// How much sink capacity to unlock per unit of incoming demand,
    /// relative to total graph volume (headroom for non-uniform
    /// spreading). Grants are `min(remaining, safety·demand/vol(G))`.
    pub demand_safety: f64,
    /// Edge capacity granted per batch (paper: `2/φ` per round).
    pub cap_per_batch: f64,
}

impl TrimmerParams {
    /// Defaults for a host graph with `n` vertices and expansion `phi`.
    pub fn for_graph(_n: usize, phi: f64) -> Self {
        assert!(phi > 0.0 && phi <= 1.0);
        TrimmerParams {
            phi,
            source_per_edge: 2.0 / phi,
            lifetime_sink: 1.0,
            demand_safety: 3.0,
            cap_per_batch: 2.0 / phi,
        }
    }
}

/// Stateful trimming/pruning over a fixed host graph.
#[derive(Clone, Debug)]
pub struct Trimmer {
    g: UGraph,
    params: TrimmerParams,
    /// Push-relabel height `h = Θ(log m / φ)`.
    h: usize,
    alive: Vec<bool>,
    edge_ok: Vec<bool>,
    state: UnitFlowState,
    batches: usize,
    alive_count: usize,
    /// Per-degree sink budget spent so far (of `params.lifetime_sink`).
    sink_spent: f64,
}

impl Trimmer {
    /// Start pruning on `g`, assumed (or certified elsewhere) to be a
    /// `φ`-expander. No preprocessing beyond allocation (Lemma 3.3: "no
    /// initialization required").
    pub fn new(g: UGraph, phi: f64) -> Self {
        let params = TrimmerParams::for_graph(g.n(), phi);
        Trimmer::with_params(g, params)
    }

    /// Start pruning with explicit parameters. The unit-flow scratch
    /// state is checked out of the process-wide pool
    /// ([`UnitFlowState::take`]) and parked back on drop, so the
    /// decomposition's rebuild-on-split churn reuses buffers instead of
    /// allocating six vertex/edge-sized vectors each time.
    pub fn with_params(g: UGraph, params: TrimmerParams) -> Self {
        let n = g.n();
        let m = g.m();
        let h = ((5.0 * (m.max(2) as f64).ln() / params.phi).ceil() as usize).clamp(10, 4000);
        Trimmer {
            params,
            h,
            alive: vec![true; n],
            edge_ok: vec![true; m],
            state: UnitFlowState::take(n, m),
            batches: 0,
            alive_count: n,
            sink_spent: 0.0,
            g,
        }
    }

    /// The host graph.
    pub fn graph(&self) -> &UGraph {
        &self.g
    }

    /// Whether vertex `v` is still in the expander.
    pub fn is_alive(&self, v: Vertex) -> bool {
        self.alive[v]
    }

    /// Whether edge `e` is still usable (not deleted, both ends alive).
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        let (u, v) = self.g.endpoints(e);
        self.edge_ok[e] && self.alive[u] && self.alive[v]
    }

    /// Alive vertex count.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of deletion batches processed so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The batch budget of Lemma 3.6: `(log₂ n)/2`.
    pub fn batch_budget(&self) -> usize {
        (((self.g.n().max(4) as f64).log2() / 2.0).floor() as usize).max(2)
    }

    /// Process one batch of edge deletions, returning the pruned set.
    ///
    /// Work `Õ(|batch|/φ⁴)`, depth `Õ(1/φ³)` (Lemma 3.7 / 3.6).
    pub fn delete_batch(&mut self, t: &mut Tracker, batch: &[EdgeId]) -> TrimBatchResult {
        t.span("expander/trim", |t| {
            t.counter("expander.trim_batches", 1);
            self.batches += 1;
            let source_per_edge = self.params.source_per_edge;
            // Capacities grow per batch (Lemma 3.8's `2i/φ`).
            let cap = self.params.cap_per_batch * (self.batches as f64 + 1.0);
            let n = self.g.n();
            let log_n = (n.max(4) as f64).log2().ceil();
            let m_ln = (self.g.m().max(2) as f64).ln();

            let mut result = TrimBatchResult::default();
            let mut new_sources: Vec<(Vertex, f64)> = Vec::new();

            // Delete the batch edges: stop conducting, refund in-transit flow
            // to the pushing side, add 2/φ boundary demand per alive endpoint.
            for &e in batch {
                if !self.edge_ok[e] {
                    continue;
                }
                self.edge_ok[e] = false;
                let (u, v) = self.g.endpoints(e);
                let f = self.state.flow[e];
                self.state.flow[e] = 0.0;
                if f > 0.0 && self.alive[u] {
                    new_sources.push((u, f));
                } else if f < 0.0 && self.alive[v] {
                    new_sources.push((v, -f));
                }
                for w in [u, v] {
                    if self.alive[w] && u != v {
                        new_sources.push((w, source_per_edge));
                    }
                }
            }
            t.charge(Cost::par_flat(batch.len() as u64));

            // Main loop (Algorithm 3, ≤ O(log n) rounds by Lemma 3.13).
            let max_rounds = (2.0 * log_n).ceil() as usize + 2;
            for round in 0..max_rounds {
                result.rounds = round + 1;
                // Adaptive sink grant (see TrimmerParams): unlock capacity
                // proportional to this round's incoming demand, capped by the
                // remaining lifetime budget (paper: `deg/log²n` per round —
                // vacuous at workstation scale, see DESIGN.md §2).
                let sources = std::mem::take(&mut new_sources);
                let demand: f64 = sources.iter().map(|x| x.1).sum();
                let volume = (2 * self.g.m()).max(1) as f64;
                let remaining = (self.params.lifetime_sink - self.sink_spent).max(0.0);
                let sink_rate = (self.params.demand_safety * demand / volume).min(remaining);
                self.sink_spent += sink_rate;
                let _ = round;
                let max_sweeps =
                    ((cap * self.h as f64 * log_n * log_n) as usize).clamp(64, 200_000);
                let problem = UnitFlowProblem {
                    g: &self.g,
                    alive: &self.alive,
                    edge_ok: &self.edge_ok,
                    cap,
                    height: self.h,
                };
                let out = parallel_unit_flow(
                    t,
                    &problem,
                    &mut self.state,
                    &sources,
                    sink_rate,
                    max_sweeps,
                );
                if out.remaining_excess <= 1e-9 {
                    result.certified = true;
                    break;
                }

                // Level-cut search (Algorithm 3's inner while-loop): among the
                // labelled vertices find a level j whose prefix S_j has a
                // sparse boundary.
                let labeled: Vec<Vertex> = self
                    .state
                    .labeled_vertices()
                    .iter()
                    .copied()
                    .filter(|&v| self.alive[v] && self.state.label[v] >= 1)
                    .collect();
                if labeled.is_empty() {
                    // No labelling to cut on (sweep budget exhausted on a
                    // pathological instance): prune the excess holders.
                    let holders: Vec<Vertex> = (0..n)
                        .filter(|&v| self.alive[v] && self.state.excess[v] > 1e-9)
                        .collect();
                    self.remove_set(t, &holders, source_per_edge, &mut new_sources, &mut result);
                    continue;
                }
                let mut cut_delta = vec![0i64; self.h + 2];
                let mut vol_at = vec![0i64; self.h + 2]; // vol of vertices at exactly level j
                let mut scanned = 0u64;
                for &v in &labeled {
                    let lv = self.state.label[v].min(self.h + 1);
                    vol_at[lv] += self.g.degree(v) as i64;
                    for &(w, e) in self.g.neighbors(v) {
                        scanned += 1;
                        if !self.edge_ok[e] || !self.alive[w] || w == v {
                            continue;
                        }
                        let lw = self.state.label[w];
                        if lw < lv {
                            // edge crosses S_j exactly for j in (lw, lv]:
                            // +1 on levels ≤ lv, −1 on levels ≤ lw
                            cut_delta[lv] += 1;
                            cut_delta[lw] -= 1;
                        }
                    }
                }
                t.charge(Cost::new(
                    scanned.max(1),
                    pmcf_pram::par_depth(scanned.max(1)),
                ));
                // Scan levels high→low keeping running suffix sums; prefer the
                // first level meeting the sparsity threshold, else the best.
                let mut best: Option<(usize, f64)> = None;
                let mut vol_run = 0i64;
                let mut cut_run = 0i64;
                let threshold = 5.0 * m_ln / self.h as f64;
                for j in (1..=self.h + 1).rev() {
                    vol_run += vol_at[j];
                    cut_run += cut_delta[j];
                    if vol_run == 0 {
                        continue;
                    }
                    let ratio = cut_run.max(0) as f64 / vol_run as f64;
                    if best.is_none_or(|(_, b)| ratio < b) {
                        best = Some((j, ratio));
                    }
                    if ratio <= threshold {
                        best = Some((j, ratio));
                        break;
                    }
                }
                let (j_star, _) = best.expect("labelled set nonempty ⇒ some level has volume");
                let prune: Vec<Vertex> = labeled
                    .iter()
                    .copied()
                    .filter(|&v| self.state.label[v] >= j_star)
                    .collect();
                self.remove_set(t, &prune, source_per_edge, &mut new_sources, &mut result);
                if self.alive_count == 0 {
                    break;
                }
            }
            if !result.certified && new_sources.is_empty() && self.state_excess() <= 1e-9 {
                result.certified = true;
            }
            result
        })
    }

    fn state_excess(&self) -> f64 {
        self.state
            .excess
            .iter()
            .enumerate()
            .filter(|&(v, _)| self.alive[v])
            .map(|(_, &e)| e)
            .sum()
    }

    /// Remove a vertex set: refund crossing flow, emit boundary sources,
    /// book-keep result.
    fn remove_set(
        &mut self,
        t: &mut Tracker,
        prune: &[Vertex],
        source_per_edge: f64,
        new_sources: &mut Vec<(Vertex, f64)>,
        result: &mut TrimBatchResult,
    ) {
        let mut scanned = 0u64;
        for &v in prune {
            if !self.alive[v] {
                continue;
            }
            self.alive[v] = false;
            self.alive_count -= 1;
            result.removed.push(v);
            result.removed_volume += self.g.degree(v);
        }
        for &v in prune {
            for &(w, e) in self.g.neighbors(v) {
                scanned += 1;
                if !self.edge_ok[e] {
                    continue;
                }
                if self.alive[w] {
                    // crossing edge: refund flow pushed from w into v,
                    // zero it, and add boundary demand at w
                    let (tail, _) = self.g.endpoints(e);
                    let out_w = if w == tail {
                        self.state.flow[e]
                    } else {
                        -self.state.flow[e]
                    };
                    self.state.flow[e] = 0.0;
                    self.edge_ok[e] = false;
                    if out_w > 0.0 {
                        new_sources.push((w, out_w));
                    }
                    new_sources.push((w, source_per_edge));
                } else if w != v {
                    // dead-dead edge: flow discarded with both endpoints
                    self.state.flow[e] = 0.0;
                    self.edge_ok[e] = false;
                }
            }
        }
        t.charge(Cost::new(
            scanned.max(1),
            pmcf_pram::par_depth(scanned.max(1)),
        ));
    }
}

impl Drop for Trimmer {
    fn drop(&mut self) {
        UnitFlowState::give(std::mem::take(&mut self.state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance;
    use pmcf_graph::generators;

    #[test]
    fn no_deletions_certifies_immediately() {
        let g = generators::random_regular_ugraph(32, 6, 1);
        let mut tr = Trimmer::new(g, 0.2);
        let mut t = Tracker::new();
        let r = tr.delete_batch(&mut t, &[]);
        assert!(r.certified);
        assert!(r.removed.is_empty());
    }

    #[test]
    fn small_deletion_prunes_little() {
        let g = generators::random_regular_ugraph(64, 8, 2);
        let mut tr = Trimmer::new(g, 0.2);
        let mut t = Tracker::new();
        let r = tr.delete_batch(&mut t, &[0, 1, 2]);
        assert!(
            r.removed_volume <= 3 * 8 * 40,
            "pruned volume {} not ∝ batch",
            r.removed_volume
        );
        assert!(tr.alive_count() >= 56, "kept {} of 64", tr.alive_count());
    }

    #[test]
    fn detaching_a_cluster_prunes_it() {
        // Build: 6-regular expander on 48 + a pendant clique of 8 attached
        // by 3 edges. Deleting those 3 edges must prune (roughly) the
        // clique side or certify the split — the surviving core must stay
        // an expander.
        let core = generators::random_regular_ugraph(48, 6, 3);
        let mut edges = core.edges().to_vec();
        let base = 48;
        for u in 0..8usize {
            for v in u + 1..8 {
                edges.push((base + u, base + v));
            }
        }
        let attach: Vec<EdgeId> = (0..3)
            .map(|i| {
                edges.push((i, base + i));
                edges.len() - 1
            })
            .collect();
        let g = UGraph::from_edges(56, edges);
        let mut tr = Trimmer::new(g.clone(), 0.2);
        let mut t = Tracker::new();
        let r = tr.delete_batch(&mut t, &attach);
        for &v in &r.removed {
            assert!(v >= base, "pruned core vertex {v}");
        }
        let keep: Vec<bool> = (0..56).map(|v| tr.is_alive(v) && v < base).collect();
        let (core_sub, _) = g.induced(&keep);
        if core_sub.m() > 0 {
            assert!(
                conductance::find_sparse_cut(&core_sub, 0.02, 7).is_none(),
                "core lost expansion"
            );
        }
    }

    #[test]
    fn successive_batches_stay_bounded() {
        let g = generators::random_regular_ugraph(128, 8, 5);
        let mut tr = Trimmer::new(g, 0.2);
        let mut t = Tracker::new();
        let budget = tr.batch_budget();
        assert!(budget >= 3);
        let mut total_removed_volume = 0;
        for b in 0..budget {
            let batch: Vec<EdgeId> = (b * 4..b * 4 + 4).collect();
            let r = tr.delete_batch(&mut t, &batch);
            total_removed_volume += r.removed_volume;
        }
        // Lemma 3.3 point 2: deg(P) = Õ(Σ|E_j|/φ)
        assert!(
            total_removed_volume <= 4 * budget * 8 * 60,
            "cumulative pruned volume {total_removed_volume} too large"
        );
        assert!(tr.alive_count() >= 100);
    }

    #[test]
    fn work_proportional_to_batch_not_graph() {
        // Same batch on graphs of very different size: work should not
        // scale linearly with m.
        let mut works = Vec::new();
        for &n in &[256usize, 2048] {
            let g = generators::random_regular_ugraph(n, 8, 6);
            let mut tr = Trimmer::new(g, 0.2);
            let mut t = Tracker::new();
            let _ = tr.delete_batch(&mut t, &[0, 1]);
            works.push(t.work());
        }
        assert!(
            works[1] < works[0] * 8,
            "work grew with graph size: {:?}",
            works
        );
    }

    #[test]
    fn deleting_everything_kills_all_edges() {
        let g = generators::random_regular_ugraph(16, 4, 7);
        let m = g.m();
        let mut tr = Trimmer::new(g, 0.2);
        let mut t = Tracker::new();
        let all: Vec<EdgeId> = (0..m).collect();
        let _ = tr.delete_batch(&mut t, &all);
        for e in 0..m {
            assert!(!tr.edge_alive(e));
        }
    }
}
