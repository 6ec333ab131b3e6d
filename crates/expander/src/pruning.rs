//! Expander pruning with unbounded batch count (paper Lemma 3.3).
//!
//! [`BoostedPruner`] = [`crate::trimming::Trimmer`] (Lemma 3.6: good for
//! `(log n)/2` batches) + [`crate::boosting::BatchCounter`] (Lemma 3.5:
//! rollback/rebuild). On a carry, the trimmer is rebuilt from scratch and
//! the merged batch groups are replayed — the rebuilt trimmer never sees
//! more than `O(log)` batches, so its certificate quality is maintained
//! for arbitrarily many user batches.
//!
//! Pruned vertices have their surviving edges *spilled*: in the dynamic
//! decomposition (Lemma 3.1) those edges are reinserted at the bottom
//! bucket. Spilled edges are folded into the batch history so replays see
//! exactly the edges that physically left this expander.

use crate::boosting::BatchCounter;
use crate::trimming::{Trimmer, TrimmerParams};
use pmcf_graph::{EdgeId, UGraph, Vertex};
use pmcf_pram::Tracker;

/// Result of one pruning batch.
#[derive(Clone, Debug, Default)]
pub struct PruneOutcome {
    /// Vertices newly pruned (monotone: never re-added).
    pub newly_pruned: Vec<Vertex>,
    /// Surviving edges spilled out by the pruning (not part of the user's
    /// deletion batch) — the caller must re-home them.
    pub spilled_edges: Vec<EdgeId>,
    /// Whether the underlying trimmer was rebuilt this batch.
    pub rebuilt: bool,
}

/// Expander pruning supporting arbitrarily many deletion batches.
#[derive(Clone, Debug)]
pub struct BoostedPruner {
    host: UGraph,
    params: TrimmerParams,
    inner: Trimmer,
    counter: BatchCounter<EdgeId>,
    /// Edges extracted from this expander (user-deleted or spilled).
    extracted: Vec<bool>,
    /// Cumulative pruned set (Lemma 3.3 point 1: monotone).
    pruned: Vec<bool>,
    pruned_count: usize,
}

impl BoostedPruner {
    /// Merge base `D` of the boosting counter.
    const BASE: usize = 4;

    /// Start pruning on host expander `g` with expansion `phi`.
    pub fn new(g: UGraph, phi: f64) -> Self {
        let params = TrimmerParams::for_graph(g.n(), phi);
        Self::with_params(g, params)
    }

    /// Start pruning with explicit trimmer parameters.
    pub fn with_params(g: UGraph, params: TrimmerParams) -> Self {
        let inner = Trimmer::with_params(g.clone(), params);
        let (n, m) = (g.n(), g.m());
        BoostedPruner {
            host: g,
            params,
            inner,
            counter: BatchCounter::new(Self::BASE),
            extracted: vec![false; m],
            pruned: vec![false; n],
            pruned_count: 0,
        }
    }

    /// The host graph.
    pub fn graph(&self) -> &UGraph {
        &self.host
    }

    /// Whether edge `e` still belongs to this expander.
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        !self.extracted[e]
    }

    /// Number of pruned vertices.
    pub fn pruned_count(&self) -> usize {
        self.pruned_count
    }

    /// Delete a batch of edges; returns newly pruned vertices and spilled
    /// edges. Work amortized `Õ(|batch|/φ⁵)`, depth `Õ(1/φ⁴)`
    /// (Lemma 3.5 ∘ Lemma 3.6).
    pub fn delete_batch(&mut self, t: &mut Tracker, batch: &[EdgeId]) -> PruneOutcome {
        t.span("expander/prune", |t| {
            t.counter("expander.prune_batches", 1);
            let fresh: Vec<EdgeId> = batch
                .iter()
                .copied()
                .filter(|&e| !self.extracted[e])
                .collect();
            for &e in &fresh {
                self.extracted[e] = true;
            }
            let mut out = PruneOutcome::default();
            let carried = self.counter.push(fresh.clone());

            let removed: Vec<Vertex> = if carried {
                out.rebuilt = true;
                self.inner = Trimmer::with_params(self.host.clone(), self.params);
                let mut removed_all = Vec::new();
                let groups: Vec<Vec<EdgeId>> = self.counter.groups().cloned().collect();
                for g in &groups {
                    let r = self.inner.delete_batch(t, g);
                    removed_all.extend(r.removed);
                }
                removed_all
            } else {
                self.inner.delete_batch(t, &fresh).removed
            };

            // Fold pruned vertices into the cumulative set and spill their
            // surviving edges.
            let mut spilled = Vec::new();
            for &v in &removed {
                if !self.pruned[v] {
                    self.pruned[v] = true;
                    self.pruned_count += 1;
                    out.newly_pruned.push(v);
                }
                for &(_, e) in self.host.neighbors(v) {
                    if !self.extracted[e] {
                        self.extracted[e] = true;
                        spilled.push(e);
                    }
                }
            }
            if !spilled.is_empty() {
                // replays must see spilled edges as deleted too
                self.counter.append_to_newest(spilled.iter().copied());
            }
            out.spilled_edges = spilled;
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance;
    use pmcf_graph::generators;

    #[test]
    fn survives_many_batches() {
        // far more batches than the raw trimmer budget (log n / 2 ≈ 4);
        // the total deleted volume stays inside the lifetime sink budget
        // (source 2/edge·endpoint ⇒ ~60·2·2·3 / 2m < 1), so pruning must
        // stay proportional rather than cascading
        let g = generators::random_regular_ugraph(128, 8, 1);
        let m = g.m();
        let mut params = crate::trimming::TrimmerParams::for_graph(128, 0.2);
        params.source_per_edge = 2.0;
        let mut p = BoostedPruner::with_params(g, params);
        let mut t = Tracker::new();
        let mut rebuilds = 0;
        for b in 0..30 {
            let batch = vec![(b * 7) % m, (b * 7 + 1) % m];
            let r = p.delete_batch(&mut t, &batch);
            rebuilds += r.rebuilt as usize;
        }
        assert!(rebuilds >= 5, "boosting should rebuild periodically");
        assert!(
            p.pruned_count() <= 64,
            "pruned {} of 128 after deleting 60/{m} edges",
            p.pruned_count()
        );
    }

    #[test]
    fn alive_graph_stays_expanding() {
        let g = generators::random_regular_ugraph(96, 8, 2);
        let m = g.m();
        let mut p = BoostedPruner::new(g.clone(), 0.2);
        let mut t = Tracker::new();
        for b in 0..10 {
            let batch = vec![(b * 13) % m, (b * 13 + 3) % m, (b * 13 + 5) % m];
            let _ = p.delete_batch(&mut t, &batch);
        }
        // Lemma 3.3 point 3 analogue: alive edge set has no very sparse cut
        let alive_edges: Vec<EdgeId> = (0..m).filter(|&e| p.edge_alive(e)).collect();
        assert!(!alive_edges.is_empty());
        let (sub, _) = g.edge_subgraph(&alive_edges);
        assert!(
            conductance::find_sparse_cut(&sub, 0.02, 3).is_none(),
            "alive subgraph lost expansion"
        );
    }

    #[test]
    fn pruned_set_is_monotone_and_edges_consistent() {
        let g = generators::random_regular_ugraph(64, 6, 3);
        let m = g.m();
        let mut p = BoostedPruner::new(g.clone(), 0.2);
        let mut t = Tracker::new();
        let mut pruned_so_far = [false; 64];
        for b in 0..12 {
            let batch = vec![(b * 11) % m];
            let r = p.delete_batch(&mut t, &batch);
            for &v in &r.newly_pruned {
                assert!(!pruned_so_far[v], "vertex {v} pruned twice");
                pruned_so_far[v] = true;
            }
            // spilled edges must be adjacent to pruned vertices
            for &e in &r.spilled_edges {
                let (a, b2) = g.endpoints(e);
                assert!(
                    pruned_so_far[a] || pruned_so_far[b2],
                    "spilled edge {e} not adjacent to pruned vertex"
                );
            }
        }
        // no alive edge touches a pruned vertex
        for e in 0..m {
            if p.edge_alive(e) {
                let (a, b) = g.endpoints(e);
                assert!(!pruned_so_far[a] && !pruned_so_far[b]);
            }
        }
    }

    #[test]
    fn deleting_same_edge_twice_is_idempotent() {
        let g = generators::random_regular_ugraph(32, 4, 4);
        let mut p = BoostedPruner::new(g, 0.2);
        let mut t = Tracker::new();
        let a = p.delete_batch(&mut t, &[0, 0, 1]);
        let b = p.delete_batch(&mut t, &[0, 1]);
        let _ = a;
        assert!(b.newly_pruned.is_empty() || !b.newly_pruned.is_empty()); // no panic
        assert!(!p.edge_alive(0));
        assert!(!p.edge_alive(1));
    }

    #[test]
    fn amortized_work_tracks_batch_volume() {
        // total work over many small batches should be far below
        // batches × m (the naive recompute bound)
        let g = generators::random_regular_ugraph(512, 8, 5);
        let m = g.m();
        let mut p = BoostedPruner::new(g, 0.2);
        let mut t = Tracker::new();
        let batches = 30usize;
        for b in 0..batches {
            let _ = p.delete_batch(&mut t, &[(b * 17) % m]);
        }
        let naive = (batches * m) as u64;
        assert!(
            t.work() < naive,
            "work {} should beat naive recompute {}",
            t.work(),
            naive
        );
    }
}
