//! The HeavyHitter data structure (paper Appendix B, Lemma B.1).
//!
//! Maintains a weighted incidence operator `Diag(g)·A` of a directed
//! graph under coordinate updates of `g`, and answers
//! `HeavyQuery(h, ε)` — *all* edges `e` with `|(Diag(g)Ah)_e| ≥ ε` —
//! plus proportional sampling, in work governed by `‖Diag(g)Ah‖₂²/ε²`
//! rather than `m`.
//!
//! Structure: edges are bucketed by weight into powers of two
//! (`g_e ∈ [2^i, 2^{i+1})`); each class keeps a
//! [`DynamicExpanderDecomposition`] (Lemma 3.1) of its (undirected) edge
//! set. A query shifts `h` per expander part to be degree-orthogonal;
//! any `ε`-heavy edge has an endpoint with `|h'| ≥ δ/2` (triangle
//! inequality — *correctness is unconditional*), while the expander
//! property bounds how many light vertices can look heavy (Cheeger),
//! which is what keeps the measured work near the paper's bound.

use pmcf_expander::dynamic::{DynamicExpanderDecomposition, EdgeKey};
use pmcf_graph::{DiGraph, EdgeId};
use pmcf_pram::{Cost, Tracker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Expansion target for the per-class decompositions. The paper picks
/// `φ = 1/log⁴ n`; at workstation scale that is indistinguishable from a
/// small constant (DESIGN.md §2).
const CLASS_PHI: f64 = 0.1;

struct ClassState {
    ded: DynamicExpanderDecomposition,
    /// DED key → global edge id, indexed by key: a class's DED hands out
    /// keys densely from 0, and `reinitialize` resets both together. A
    /// key deleted by `scale` keeps a `usize::MAX` slot; views never
    /// reach it, since they skip dead edges.
    edge_of: Vec<EdgeId>,
    /// Seed the class was (re)built with — `seed + c` at build time.
    build_seed: u64,
    /// True while the class's DED state is exactly "one batch insert of
    /// the member edges in edge-id order with `build_seed`" — the state
    /// a fresh `initialize` would produce. Any incremental `scale` churn
    /// clears it. [`HeavyHitter::reinitialize`] may skip rebuilding a
    /// pristine class whose membership and seed are unchanged.
    pristine: bool,
}

/// The normalizer `Q` and per-part shifts of one `(h, K)`, shared by
/// [`HeavyHitter::sample`] and [`HeavyHitter::probability`].
pub struct SamplePotentials {
    q: f64,
    /// Smallest class exponent: class `c`'s shifts are row `c - low`.
    low: i32,
    /// Per-part shift by class row and DED part slot; `None` for a part
    /// without alive degree.
    shifts: Vec<Vec<Option<f64>>>,
}

impl SamplePotentials {
    /// The shift of class `c`'s part in DED slot `slot`, if it has one.
    fn shift(&self, c: i32, slot: usize) -> Option<f64> {
        let row = self.shifts.get(usize::try_from(c - self.low).ok()?)?;
        row.get(slot).copied().flatten()
    }
}

/// Distinct index draws for [`HeavyHitter::sample`] and
/// [`HeavyHitter::sparsify_sample`] without hashing: one marker per
/// index, sized once per call to the largest part degree and cleared
/// through the picks after every draw.
struct Picker {
    mark: Vec<bool>,
    picks: Vec<usize>,
}

impl Picker {
    fn new<'a>(classes: impl Iterator<Item = &'a ClassState>) -> Self {
        let max_deg = classes
            .flat_map(|class| class.ded.part_views())
            .flat_map(|view| view.adj.iter().map(Vec::len))
            .max()
            .unwrap_or(0);
        Picker {
            mark: vec![false; max_deg],
            picks: Vec::new(),
        }
    }

    /// `cnt ≤ deg` distinct indices of `0..deg` in increasing order, by
    /// rejection: one `gen_range` per draw, each counted in `touched`.
    fn draw(&mut self, rng: &mut SmallRng, deg: usize, cnt: usize, touched: &mut u64) -> &[usize] {
        self.picks.clear();
        while self.picks.len() < cnt {
            let j = rng.gen_range(0..deg);
            *touched += 1;
            if !self.mark[j] {
                self.mark[j] = true;
                self.picks.push(j);
            }
        }
        for &j in &self.picks {
            self.mark[j] = false;
        }
        self.picks.sort_unstable();
        &self.picks
    }
}

/// Weighted-incidence heavy-hitter index (Lemma B.1).
pub struct HeavyHitter {
    graph: DiGraph,
    weights: Vec<f64>,
    /// Weight-class exponent per edge (`None` for zero weight).
    class_of: Vec<Option<i32>>,
    /// DED key per edge (valid when `class_of` is `Some`).
    key_of: Vec<EdgeKey>,
    classes: BTreeMap<i32, ClassState>,
    rng: SmallRng,
    seed: u64,
}

/// Weight-class base: classes are `[B^i, B^{i+1})`. The paper uses
/// base 2; base 4 quarters the class-move churn under slowly drifting
/// weights at the price of a 4× slack in the per-class query threshold.
const CLASS_BASE: f64 = 4.0;

fn exponent(w: f64) -> Option<i32> {
    if w <= 0.0 {
        None
    } else {
        Some(w.log2().div_euclid(CLASS_BASE.log2()).floor() as i32)
    }
}

impl HeavyHitter {
    /// Initialize over the directed graph `graph` with edge weights `g`
    /// (Lemma B.1 `Initialize`): `Õ(m)` work, `Õ(1)` depth.
    pub fn initialize(t: &mut Tracker, graph: DiGraph, g: Vec<f64>, seed: u64) -> Self {
        let m = graph.m();
        assert_eq!(g.len(), m);
        assert!(g.iter().all(|&w| w >= 0.0), "weights must be ≥ 0");
        let mut hh = HeavyHitter {
            class_of: vec![None; m],
            key_of: vec![0; m],
            classes: BTreeMap::new(),
            rng: SmallRng::seed_from_u64(seed),
            seed,
            weights: g,
            graph,
        };
        // group edges by class, insert per class in one batch
        let mut by_class: BTreeMap<i32, Vec<EdgeId>> = BTreeMap::new();
        for e in 0..m {
            if let Some(c) = exponent(hh.weights[e]) {
                by_class.entry(c).or_default().push(e);
            }
        }
        t.charge(Cost::sort(m as u64));
        for (c, edges) in by_class {
            hh.insert_into_class(t, c, &edges);
        }
        hh
    }

    fn insert_into_class(&mut self, t: &mut Tracker, c: i32, edges: &[EdgeId]) {
        let n = self.graph.n();
        let seed = self.seed.wrapping_add(c as u64);
        let class = self.classes.entry(c).or_insert_with(|| ClassState {
            ded: DynamicExpanderDecomposition::new(n, CLASS_PHI, seed),
            edge_of: Vec::new(),
            build_seed: seed,
            pristine: true,
        });
        if !class.edge_of.is_empty() {
            // adding to an already-populated class diverges from the
            // single-batch state a fresh build would have
            class.pristine = false;
        }
        let pairs: Vec<(usize, usize)> = edges.iter().map(|&e| self.graph.endpoints(e)).collect();
        let keys = class.ded.insert_edges(t, &pairs);
        for (&e, k) in edges.iter().zip(keys) {
            self.class_of[e] = Some(c);
            self.key_of[e] = k;
            let slot = k as usize;
            if class.edge_of.len() <= slot {
                class.edge_of.resize(slot + 1, usize::MAX);
            }
            class.edge_of[slot] = e;
        }
    }

    /// Re-run `Initialize` over new weights for the same host graph
    /// without discarding the allocation footprint: the per-edge vectors,
    /// the per-class expander decompositions, and their key tables are
    /// all reset in place and refilled. State after `reinitialize(t, g,
    /// seed)` is indistinguishable from `initialize(t, graph, g, seed)` —
    /// same classes, same keys, same rng stream — but steady-state IPM
    /// loops that rebuild their structures every epoch stop paying the
    /// construction allocations again.
    pub fn reinitialize(&mut self, t: &mut Tracker, g: &[f64], seed: u64) {
        let m = self.graph.m();
        assert_eq!(g.len(), m);
        assert!(g.iter().all(|&w| w >= 0.0), "weights must be ≥ 0");
        self.weights.clear();
        self.weights.extend_from_slice(g);
        self.seed = seed;
        self.rng = SmallRng::seed_from_u64(seed);
        let mut by_class: BTreeMap<i32, Vec<EdgeId>> = BTreeMap::new();
        for e in 0..m {
            if let Some(c) = exponent(self.weights[e]) {
                by_class.entry(c).or_default().push(e);
            }
        }
        t.charge(Cost::sort(m as u64));
        // A pristine class whose seed and membership are unchanged is
        // already in the exact state a fresh build would produce — skip
        // it (the common case under slowly drifting IPM weights, where
        // most edges keep their power-of-4 class between epochs).
        let unchanged: Vec<i32> = by_class
            .iter()
            .filter(|&(&c, edges)| {
                self.classes.get(&c).is_some_and(|class| {
                    class.pristine
                        && class.build_seed == seed.wrapping_add(c as u64)
                        && class.ded.edge_count() == edges.len()
                        && edges.iter().all(|&e| self.class_of[e] == Some(c))
                })
            })
            .map(|(&c, _)| c)
            .collect();
        // Drop classes that lost all edges (a fresh initialize would not
        // have them); reset the changed survivors in place for reuse.
        self.classes.retain(|c, _| by_class.contains_key(c));
        for (&c, class) in self.classes.iter_mut() {
            if unchanged.binary_search(&c).is_ok() {
                continue;
            }
            let class_seed = seed.wrapping_add(c as u64);
            class.ded.reset(class_seed);
            class.edge_of.clear();
            class.build_seed = class_seed;
            class.pristine = true;
        }
        // Invalidate per-edge state for every edge outside an unchanged
        // class; the rebuild loop below re-establishes it.
        for e in 0..m {
            let keep = self.class_of[e].is_some_and(|c| unchanged.binary_search(&c).is_ok());
            if !keep {
                self.class_of[e] = None;
                self.key_of[e] = 0;
            }
        }
        for (c, edges) in by_class {
            if unchanged.binary_search(&c).is_ok() {
                continue;
            }
            self.insert_into_class(t, c, &edges);
        }
    }

    /// Update weights `g_i ← s_i` (Lemma B.1 `Scale`): amortized `Õ(|I|)`
    /// work, `Õ(1)` depth.
    pub fn scale(&mut self, t: &mut Tracker, updates: &[(EdgeId, f64)]) {
        // group moves per (old class) for batched deletion, then insert
        let mut deletions: BTreeMap<i32, Vec<EdgeKey>> = BTreeMap::new();
        let mut insertions: BTreeMap<i32, Vec<EdgeId>> = BTreeMap::new();
        for &(e, w) in updates {
            assert!(w >= 0.0);
            let old = self.class_of[e];
            let new = exponent(w);
            self.weights[e] = w;
            if old == new {
                continue;
            }
            if let Some(c) = old {
                deletions.entry(c).or_default().push(self.key_of[e]);
                self.class_of[e] = None;
            }
            if let Some(c) = new {
                insertions.entry(c).or_default().push(e);
            }
        }
        t.charge(Cost::par_flat(updates.len() as u64));
        for (c, keys) in deletions {
            let class = self.classes.get_mut(&c).expect("class exists");
            class.pristine = false;
            for &k in &keys {
                class.edge_of[k as usize] = usize::MAX;
            }
            class.ded.delete_edges(t, &keys);
        }
        for (c, edges) in insertions {
            self.insert_into_class(t, c, &edges);
            // even when this insert created the class, the edges arrive
            // in updates order, not the edge-id order of a fresh build
            self.classes.get_mut(&c).expect("class exists").pristine = false;
        }
    }

    /// All edges with `|(Diag(g)Ah)_e| ≥ ε` (Lemma B.1 `HeavyQuery`).
    ///
    /// Returns every such edge with certainty; the expander structure only
    /// bounds the work.
    pub fn heavy_query(&self, t: &mut Tracker, h: &[f64], eps: f64) -> Vec<EdgeId> {
        assert_eq!(h.len(), self.graph.n());
        assert!(eps > 0.0);
        t.span("ds/heavy-query", |t| {
            t.counter("hh.heavy_queries", 1);
            let mut out = Vec::new();
            let mut touched = 0u64;
            for (&c, class) in &self.classes {
                let delta = eps / CLASS_BASE.powi(c + 1);
                for view in class.ded.part_views() {
                    // degree-weighted shift: h' = h − (Σ deg_v h_v / Σ deg_v)
                    let mut num = 0.0;
                    let mut den = 0.0;
                    for (lv, &gv) in view.verts.iter().enumerate() {
                        let d = view.alive_deg[lv] as f64;
                        num += d * h[gv];
                        den += d;
                    }
                    touched += view.verts.len() as u64;
                    if den == 0.0 {
                        continue;
                    }
                    let shift = num / den;
                    for (lv, &gv) in view.verts.iter().enumerate() {
                        if view.alive_deg[lv] == 0 {
                            continue;
                        }
                        if (h[gv] - shift).abs() < 0.5 * delta {
                            continue;
                        }
                        for &(_, le) in &view.adj[lv] {
                            touched += 1;
                            if !view.alive_edge[le] {
                                continue;
                            }
                            let e = class.edge_of[view.keys[le] as usize];
                            let (tu, tv) = self.graph.endpoints(e);
                            let val = self.weights[e] * (h[tv] - h[tu]);
                            if val.abs() >= eps {
                                out.push(e);
                            }
                        }
                    }
                }
            }
            t.charge(Cost::new(
                touched.max(1),
                pmcf_pram::par_depth(touched.max(1)),
            ));
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Per-vertex sampling potentials for `sample`/`probability`: the
    /// normalizer `Q` and per-part shifts.
    fn sample_potentials(&self, h: &[f64], k_scale: f64) -> SamplePotentials {
        let mut denom = 0.0;
        let low = self.classes.keys().next().copied().unwrap_or(0);
        let mut shifts = Vec::new();
        for (&c, class) in &self.classes {
            let w2 = (CLASS_BASE * CLASS_BASE).powi(c + 1); // ≥ g_e² in class c
            shifts.resize_with((c - low) as usize, Vec::new);
            let mut row = vec![None; class.ded.part_slots()];
            for (slot, view) in class.ded.part_views_keyed() {
                let mut num = 0.0;
                let mut den = 0.0;
                for (lv, &gv) in view.verts.iter().enumerate() {
                    let d = view.alive_deg[lv] as f64;
                    num += d * h[gv];
                    den += d;
                }
                if den == 0.0 {
                    continue;
                }
                let shift = num / den;
                row[slot] = Some(shift);
                for (lv, &gv) in view.verts.iter().enumerate() {
                    let hv = h[gv] - shift;
                    denom += w2 * hv * hv * view.alive_deg[lv] as f64;
                }
            }
            shifts.push(row);
        }
        let q = if denom > 0.0 { k_scale / denom } else { 0.0 };
        SamplePotentials { q, low, shifts }
    }

    /// Sample edges where each `e = (u,v)` is included with probability
    /// `q_e ≥ min(K·(g_e(h_u−h_v))²/(16·‖Diag(g)Ah‖² log⁸n), 1)`-style
    /// bounds (Lemma B.1 `Sample`): expected output `Õ(K)`. Also returns
    /// the potentials the draw used, for [`HeavyHitter::probability`] of
    /// the same `(h, K)`.
    pub fn sample(
        &mut self,
        t: &mut Tracker,
        h: &[f64],
        k_scale: f64,
    ) -> (Vec<EdgeId>, SamplePotentials) {
        t.span("ds/grad-sample", |t| {
            t.counter("hh.grad_samples", 1);
            let pot = self.sample_potentials(h, k_scale);
            let q = pot.q;
            let mut out = Vec::new();
            let mut touched = 0u64;
            let mut picker = Picker::new(self.classes.values());
            for (&c, class) in &self.classes {
                let w2 = (CLASS_BASE * CLASS_BASE).powi(c + 1);
                for (slot, view) in class.ded.part_views_keyed() {
                    let Some(shift) = pot.shift(c, slot) else {
                        continue;
                    };
                    for (lv, &gv) in view.verts.iter().enumerate() {
                        let deg = view.adj[lv].len();
                        if deg == 0 {
                            continue;
                        }
                        let hv = h[gv] - shift;
                        let p = (q * w2 * hv * hv).min(1.0);
                        if p <= 0.0 {
                            continue;
                        }
                        // binomial + distinct picks: work ∝ output
                        let cnt = {
                            let mut cnt = 0usize;
                            if deg <= 32 || (deg as f64 * p) < 16.0 {
                                for _ in 0..deg {
                                    if self.rng.gen_bool(p) {
                                        cnt += 1;
                                    }
                                }
                            } else {
                                cnt = ((deg as f64 * p).round() as usize).min(deg);
                            }
                            cnt
                        };
                        for &j in picker.draw(&mut self.rng, deg, cnt, &mut touched) {
                            let (_, le) = view.adj[lv][j];
                            if view.alive_edge[le] {
                                out.push(class.edge_of[view.keys[le] as usize]);
                            }
                        }
                    }
                    touched += view.verts.len() as u64;
                }
            }
            t.charge(Cost::new(
                touched.max(1),
                pmcf_pram::par_depth(touched.max(1)),
            ));
            out.sort_unstable();
            out.dedup();
            (out, pot)
        })
    }

    /// Probability that `sample(h, k_scale)` would return each edge in
    /// `idx` (Lemma B.1 `Probability`), given the potentials that call
    /// returned.
    pub fn probability(
        &self,
        t: &mut Tracker,
        idx: &[EdgeId],
        h: &[f64],
        pot: &SamplePotentials,
    ) -> Vec<f64> {
        let q = pot.q;
        let mut out = Vec::with_capacity(idx.len());
        for &e in idx {
            let Some(c) = self.class_of[e] else {
                out.push(0.0);
                continue;
            };
            let class = &self.classes[&c];
            let w2 = (CLASS_BASE * CLASS_BASE).powi(c + 1);
            let key = self.key_of[e];
            let mut q_e = 0.0;
            if let Some((slot, view, le)) = class.ded.locate_keyed(key) {
                if view.alive_edge[le] {
                    if let Some(shift) = pot.shift(c, slot) {
                        let (lu, lv) = view.ends[le];
                        let hu = h[view.verts[lu]] - shift;
                        let hv = h[view.verts[lv]] - shift;
                        let pu = (q * w2 * hu * hu).min(1.0);
                        let pv = (q * w2 * hv * hv).min(1.0);
                        q_e = 1.0 - (1.0 - pu) * (1.0 - pv);
                    }
                }
            }
            out.push(q_e);
        }
        t.charge(Cost::par_flat(idx.len().max(1) as u64));
        out
    }

    /// One-round spectral-sparsifier sampling: every vertex samples its
    /// incident alive edges with `p_v = min(1, k/deg_v)`, so edge `e` is
    /// kept with `p_e = 1−(1−p_u)(1−p_v) ≥ k/deg_max(e)` — proportional
    /// to (an upper bound on) its intra-expander leverage score, without
    /// the `φ⁻²` union-bound slack of Lemma B.1's `LeverageScoreSample`
    /// (not implemented: the engine never calls it). Returns
    /// `(edge, p_e)` pairs for inverse-probability reweighting. Expected
    /// output and work `O(k·n)`.
    pub fn sparsify_sample(&mut self, t: &mut Tracker, k: f64) -> Vec<(EdgeId, f64)> {
        t.span("ds/sparsify-sample", |t| {
            t.counter("hh.sparsify_samples", 1);
            let mut picked: Vec<EdgeId> = Vec::new();
            let mut touched = 0u64;
            let mut picker = Picker::new(self.classes.values());
            for class in self.classes.values() {
                for view in class.ded.part_views() {
                    for (lv, adj) in view.adj.iter().enumerate() {
                        let deg = view.alive_deg[lv];
                        if deg == 0 {
                            continue;
                        }
                        let p = (k / deg as f64).min(1.0);
                        if p >= 1.0 {
                            for &(_, le) in adj {
                                if view.alive_edge[le] {
                                    picked.push(class.edge_of[view.keys[le] as usize]);
                                }
                            }
                            touched += adj.len() as u64;
                            continue;
                        }
                        // binomial + distinct picks, work ∝ output
                        let want = {
                            let mut c = 0usize;
                            if adj.len() <= 64 {
                                for _ in 0..adj.len() {
                                    if self.rng.gen_bool(p) {
                                        c += 1;
                                    }
                                }
                                touched += adj.len().min(64) as u64;
                                c
                            } else {
                                ((adj.len() as f64 * p).round() as usize).min(adj.len())
                            }
                        };
                        for &j in picker.draw(&mut self.rng, adj.len(), want, &mut touched) {
                            let (_, le) = view.adj[lv][j];
                            if view.alive_edge[le] {
                                picked.push(class.edge_of[view.keys[le] as usize]);
                            }
                        }
                    }
                    touched += view.verts.len() as u64;
                }
            }
            t.charge(Cost::new(
                touched.max(1),
                pmcf_pram::par_depth(touched.max(1)),
            ));
            picked.sort_unstable();
            picked.dedup();
            // probabilities
            let probs = self.sparsify_probability(t, &picked, k);
            picked.into_iter().zip(probs).collect()
        })
    }

    /// The inclusion probability `sparsify_sample(k)` gives each edge.
    pub fn sparsify_probability(&self, t: &mut Tracker, idx: &[EdgeId], k: f64) -> Vec<f64> {
        t.charge(Cost::par_flat(idx.len().max(1) as u64));
        idx.iter()
            .map(|&e| {
                let Some(c) = self.class_of[e] else {
                    return 0.0;
                };
                let class = &self.classes[&c];
                let Some((view, le)) = class.ded.locate(self.key_of[e]) else {
                    return 0.0;
                };
                if !view.alive_edge[le] {
                    return 0.0;
                }
                let (lu, lv) = view.ends[le];
                let pu = (k / view.alive_deg[lu].max(1) as f64).min(1.0);
                let pv = (k / view.alive_deg[lv].max(1) as f64).min(1.0);
                1.0 - (1.0 - pu) * (1.0 - pv)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    fn brute_heavy(g: &DiGraph, w: &[f64], h: &[f64], eps: f64) -> Vec<EdgeId> {
        g.edges()
            .iter()
            .enumerate()
            .filter(|&(e, &(u, v))| (w[e] * (h[v] - h[u])).abs() >= eps)
            .map(|(e, _)| e)
            .collect()
    }

    #[test]
    fn finds_all_heavy_coordinates() {
        let g = generators::gnm_digraph(40, 200, 1);
        let w: Vec<f64> = (0..200).map(|e| 0.5 + (e % 7) as f64).collect();
        let h: Vec<f64> = (0..40)
            .map(|v| ((v * 31 % 17) as f64 - 8.0) / 8.0)
            .collect();
        // the answer is the exact heavy set whatever the seed: the
        // decomposition only bounds the work (`2 ^ (j << 32)` for j < 6
        // are the seeds one detector per time scale would take)
        let seeds = [2u64].into_iter().chain((0..6u64).map(|j| 2 ^ (j << 32)));
        for seed in seeds {
            let mut t = Tracker::new();
            let hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
            for eps in [0.5, 1.0, 3.0] {
                let got = hh.heavy_query(&mut t, &h, eps);
                let want = brute_heavy(&g, &w, &h, eps);
                assert_eq!(got, want, "seed={seed} eps={eps}");
            }
        }
    }

    #[test]
    fn scale_keeps_queries_correct() {
        let g = generators::gnm_digraph(24, 100, 3);
        let mut t = Tracker::new();
        let mut w = vec![1.0; 100];
        let mut hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), 4);
        // move a third of the edges to very different weights
        let updates: Vec<(EdgeId, f64)> = (0..100)
            .step_by(3)
            .map(|e| (e, if e % 2 == 0 { 8.0 } else { 0.25 }))
            .collect();
        for &(e, s) in &updates {
            w[e] = s;
        }
        hh.scale(&mut t, &updates);
        let h: Vec<f64> = (0..24).map(|v| (v as f64).sin()).collect();
        let got = hh.heavy_query(&mut t, &h, 0.8);
        let want = brute_heavy(&g, &w, &h, 0.8);
        assert_eq!(got, want);
    }

    #[test]
    fn zero_weight_edges_never_heavy() {
        let g = generators::gnm_digraph(10, 30, 5);
        let mut t = Tracker::new();
        let mut w = vec![0.0; 30];
        w[3] = 2.0;
        let hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), 6);
        let h: Vec<f64> = (0..10).map(|v| v as f64).collect();
        let got = hh.heavy_query(&mut t, &h, 0.1);
        assert_eq!(got, brute_heavy(&g, &w, &h, 0.1));
        assert!(got.iter().all(|&e| e == 3 || w[e] > 0.0));
    }

    #[test]
    fn sample_prefers_large_coordinates() {
        let g = generators::gnm_digraph(30, 150, 7);
        let mut t = Tracker::new();
        let w = vec![1.0; 150];
        let mut hh = HeavyHitter::initialize(&mut t, g.clone(), w, 8);
        // h concentrated on one vertex ⇒ its incident edges are the big
        // coordinates of Ah
        let mut h = vec![0.0; 30];
        h[5] = 10.0;
        let mut counts = vec![0usize; 150];
        for _ in 0..30 {
            for e in hh.sample(&mut t, &h, 40.0).0 {
                counts[e] += 1;
            }
        }
        let incident: Vec<usize> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|&(_, &(u, v))| u == 5 || v == 5)
            .map(|(e, _)| e)
            .collect();
        let hit_incident: usize = incident.iter().map(|&e| counts[e]).sum();
        let hit_other: usize = counts.iter().sum::<usize>() - hit_incident;
        assert!(
            hit_incident > hit_other,
            "incident {hit_incident} vs other {hit_other}"
        );
    }

    #[test]
    fn probability_reports_positive_for_heavy_edges() {
        let g = generators::gnm_digraph(16, 60, 9);
        let mut t = Tracker::new();
        let hh = HeavyHitter::initialize(&mut t, g.clone(), vec![1.0; 60], 10);
        let mut h = vec![0.0; 16];
        h[2] = 5.0;
        let idx: Vec<EdgeId> = (0..60).collect();
        let p = hh.probability(&mut t, &idx, &h, &hh.sample_potentials(&h, 50.0));
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            if u == 2 || v == 2 {
                assert!(p[e] > 0.1, "edge {e} incident to hot vertex: p={}", p[e]);
            }
        }
    }

    /// `sample_potentials`, `sample` and `probability` with the shifts in
    /// a hashed map, verbatim but for the part's address (its DED slot):
    /// the oracle the dense shift table must match bit for bit.
    struct HashedPotentials {
        q: f64,
        shifts: std::collections::HashMap<(i32, usize), f64>,
    }

    fn sample_potentials_oracle(hh: &HeavyHitter, h: &[f64], k_scale: f64) -> HashedPotentials {
        let mut denom = 0.0;
        let mut shifts = std::collections::HashMap::new();
        for (&c, class) in &hh.classes {
            let w2 = (CLASS_BASE * CLASS_BASE).powi(c + 1); // ≥ g_e² in class c
            for (slot, view) in class.ded.part_views_keyed() {
                let mut num = 0.0;
                let mut den = 0.0;
                for (lv, &gv) in view.verts.iter().enumerate() {
                    let d = view.alive_deg[lv] as f64;
                    num += d * h[gv];
                    den += d;
                }
                if den == 0.0 {
                    continue;
                }
                let shift = num / den;
                shifts.insert((c, slot), shift);
                for (lv, &gv) in view.verts.iter().enumerate() {
                    let hv = h[gv] - shift;
                    denom += w2 * hv * hv * view.alive_deg[lv] as f64;
                }
            }
        }
        let q = if denom > 0.0 { k_scale / denom } else { 0.0 };
        HashedPotentials { q, shifts }
    }

    fn sample_oracle(
        hh: &mut HeavyHitter,
        t: &mut Tracker,
        h: &[f64],
        k_scale: f64,
    ) -> (Vec<EdgeId>, HashedPotentials) {
        t.span("ds/grad-sample", |t| {
            t.counter("hh.grad_samples", 1);
            let pot = sample_potentials_oracle(hh, h, k_scale);
            let (q, shifts) = (pot.q, &pot.shifts);
            let mut out = Vec::new();
            let mut touched = 0u64;
            for (&c, class) in &hh.classes {
                let w2 = (CLASS_BASE * CLASS_BASE).powi(c + 1);
                for (slot, view) in class.ded.part_views_keyed() {
                    let Some(&shift) = shifts.get(&(c, slot)) else {
                        continue;
                    };
                    for (lv, &gv) in view.verts.iter().enumerate() {
                        let deg = view.adj[lv].len();
                        if deg == 0 {
                            continue;
                        }
                        let hv = h[gv] - shift;
                        let p = (q * w2 * hv * hv).min(1.0);
                        if p <= 0.0 {
                            continue;
                        }
                        // binomial + distinct picks: work ∝ output
                        let cnt = {
                            let mut cnt = 0usize;
                            if deg <= 32 || (deg as f64 * p) < 16.0 {
                                for _ in 0..deg {
                                    if hh.rng.gen_bool(p) {
                                        cnt += 1;
                                    }
                                }
                            } else {
                                cnt = ((deg as f64 * p).round() as usize).min(deg);
                            }
                            cnt
                        };
                        let mut chosen = std::collections::HashSet::with_capacity(cnt);
                        while chosen.len() < cnt {
                            chosen.insert(hh.rng.gen_range(0..deg));
                            touched += 1;
                        }
                        let mut picks: Vec<usize> = chosen.into_iter().collect();
                        picks.sort_unstable();
                        for j in picks {
                            let (_, le) = view.adj[lv][j];
                            if view.alive_edge[le] {
                                out.push(class.edge_of[view.keys[le] as usize]);
                            }
                        }
                    }
                    touched += view.verts.len() as u64;
                }
            }
            t.charge(Cost::new(
                touched.max(1),
                pmcf_pram::par_depth(touched.max(1)),
            ));
            out.sort_unstable();
            out.dedup();
            (out, pot)
        })
    }

    fn probability_oracle(
        hh: &HeavyHitter,
        t: &mut Tracker,
        idx: &[EdgeId],
        h: &[f64],
        pot: &HashedPotentials,
    ) -> Vec<f64> {
        let (q, shifts) = (pot.q, &pot.shifts);
        let mut out = Vec::with_capacity(idx.len());
        for &e in idx {
            let Some(c) = hh.class_of[e] else {
                out.push(0.0);
                continue;
            };
            let class = &hh.classes[&c];
            let w2 = (CLASS_BASE * CLASS_BASE).powi(c + 1);
            let key = hh.key_of[e];
            let mut q_e = 0.0;
            if let Some((slot, view, le)) = class.ded.locate_keyed(key) {
                if view.alive_edge[le] {
                    if let Some(&shift) = shifts.get(&(c, slot)) {
                        let (lu, lv) = view.ends[le];
                        let hu = h[view.verts[lu]] - shift;
                        let hv = h[view.verts[lv]] - shift;
                        let pu = (q * w2 * hu * hu).min(1.0);
                        let pv = (q * w2 * hv * hv).min(1.0);
                        q_e = 1.0 - (1.0 - pu) * (1.0 - pv);
                    }
                }
            }
            out.push(q_e);
        }
        t.charge(Cost::par_flat(idx.len().max(1) as u64));
        out
    }

    #[test]
    fn sample_and_probability_match_the_hashed_oracle() {
        let g = generators::gnm_digraph(48, 400, 23);
        // classes 0, 1 and 3 (class 2 empty), then scale churn: deletes
        // leave dead part slots and moved edges land in new buckets
        let w: Vec<f64> = (0..400).map(|e| [1.0, 5.0, 100.0][e % 3]).collect();
        let updates: Vec<(EdgeId, f64)> = (0..400)
            .step_by(7)
            .map(|e| (e, if e % 2 == 0 { 100.0 } else { 0.0 }))
            .collect();
        let all: Vec<EdgeId> = (0..400).collect();
        let mut drawn = 0;
        for seed in [24u64, 25] {
            let mut t = Tracker::new();
            let mut a = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
            let mut b = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
            for round in 0..2 {
                for (salt, k_scale) in [(0u64, 0.5), (1, 4.0), (2, 40.0), (3, 400.0)] {
                    let h: Vec<f64> = (0..48)
                        .map(|v| (((v as u64 * 29 + salt * 13) % 23) as f64 - 11.0) / 3.0)
                        .collect();
                    let ctx = format!("seed {seed}, round {round}, K {k_scale}");
                    let (mut ta, mut tb) = (Tracker::new(), Tracker::new());
                    let (got, pot) = a.sample(&mut ta, &h, k_scale);
                    let (want, pot_o) = sample_oracle(&mut b, &mut tb, &h, k_scale);
                    assert_eq!(got, want, "{ctx}: sample");
                    drawn += got.len();
                    let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    assert_eq!(
                        bits(a.probability(&mut ta, &all, &h, &pot)),
                        bits(probability_oracle(&b, &mut tb, &all, &h, &pot_o)),
                        "{ctx}: probability"
                    );
                    assert_eq!(ta.work(), tb.work(), "{ctx}: work");
                    assert_eq!(ta.depth(), tb.depth(), "{ctx}: depth");
                }
                a.scale(&mut t, &updates);
                b.scale(&mut t, &updates);
            }
        }
        assert!(drawn > 400, "only {drawn} draws");
    }

    #[test]
    fn leverage_sample_covers_bridges() {
        // a bridge has leverage 1; the decomposition cuts the two cliques
        // apart, so an endpoint of the bridge has intra-part degree 1 and
        // the step sparsifier keeps it with probability 1 even at k = 1
        let mut edges = Vec::new();
        for base in [0usize, 10] {
            for u in 0..10 {
                for v in u + 1..10 {
                    edges.push((base + u, base + v));
                }
            }
        }
        edges.push((9, 10)); // the bridge
        let bridge = edges.len() - 1;
        let g = DiGraph::from_edges(20, edges);
        let mut t = Tracker::new();
        let mut hh = HeavyHitter::initialize(&mut t, g, vec![1.0; 91], 11);
        for _ in 0..10 {
            let kept = hh.sparsify_sample(&mut t, 1.0);
            assert!(kept.contains(&(bridge, 1.0)), "bridge not kept: {kept:?}");
        }
        assert_eq!(hh.sparsify_probability(&mut t, &[bridge], 1.0), vec![1.0]);
    }

    /// Drive two indices through an identical query sequence and demand
    /// byte-identical answers AND identical charged costs. Both consume
    /// their rng in `sample` and `sparsify_sample`, so agreement across
    /// several rounds pins the rng stream position too.
    fn assert_states_agree(a: &mut HeavyHitter, b: &mut HeavyHitter, n: usize, ctx: &str) {
        for salt in 0..3u64 {
            let h: Vec<f64> = (0..n)
                .map(|v| (((v as u64 * 37 + salt * 11) % 19) as f64 - 9.0) / 4.0)
                .collect();
            let (mut ta, mut tb) = (Tracker::new(), Tracker::new());
            assert_eq!(
                a.heavy_query(&mut ta, &h, 0.7),
                b.heavy_query(&mut tb, &h, 0.7),
                "{ctx}: heavy_query salt={salt}"
            );
            assert_eq!(
                a.sample(&mut ta, &h, 4.0).0,
                b.sample(&mut tb, &h, 4.0).0,
                "{ctx}: sample salt={salt}"
            );
            assert_eq!(
                a.sparsify_sample(&mut ta, 2.0),
                b.sparsify_sample(&mut tb, 2.0),
                "{ctx}: sparsify_sample salt={salt}"
            );
            assert_eq!(ta.work(), tb.work(), "{ctx}: charged work salt={salt}");
            assert_eq!(ta.depth(), tb.depth(), "{ctx}: charged depth salt={salt}");
        }
    }

    #[test]
    fn reinitialize_matches_fresh_initialize() {
        let g = generators::gnm_digraph(32, 160, 17);
        let w0: Vec<f64> = (0..160).map(|e| 0.5 + (e % 9) as f64).collect();
        // w1 drifts a slice of edges across class boundaries and keeps
        // the rest — exercising both the rebuild and the pristine-skip
        // paths of reinitialize when the seed is unchanged.
        let w1: Vec<f64> = w0
            .iter()
            .enumerate()
            .map(|(e, &x)| if e % 5 == 0 { x * 16.0 } else { x })
            .collect();
        for (reseed, ctx) in [(18u64, "new seed"), (17u64, "same seed (skip path)")] {
            let mut t = Tracker::new();
            let mut reused = HeavyHitter::initialize(&mut t, g.clone(), w0.clone(), 17);
            reused.reinitialize(&mut t, &w1, reseed);
            let mut fresh = HeavyHitter::initialize(&mut t, g.clone(), w1.clone(), reseed);
            assert_states_agree(&mut reused, &mut fresh, 32, ctx);
        }
    }

    #[test]
    fn reinitialize_after_scale_churn_matches_fresh() {
        // scale moves edges between classes (including into brand-new
        // classes), destroying the fresh-build layout; a subsequent
        // reinitialize with the SAME seed and weights that restore the
        // original classes must still match a fresh build exactly —
        // i.e. churned classes must not be wrongly skipped as pristine.
        let g = generators::gnm_digraph(24, 120, 19);
        let w0: Vec<f64> = (0..120).map(|e| 1.0 + (e % 4) as f64).collect();
        let mut t = Tracker::new();
        let mut reused = HeavyHitter::initialize(&mut t, g.clone(), w0.clone(), 21);
        let updates: Vec<(EdgeId, f64)> = (0..120)
            .step_by(3)
            .map(|e| (e, if e % 2 == 0 { 4096.0 } else { 0.01 }))
            .collect();
        reused.scale(&mut t, &updates);
        reused.reinitialize(&mut t, &w0, 21);
        let mut fresh = HeavyHitter::initialize(&mut t, g.clone(), w0, 21);
        assert_states_agree(&mut reused, &mut fresh, 24, "post-scale churn");
    }

    #[test]
    fn query_work_scales_with_answer_not_m() {
        // a query whose answer is empty and whose h is flat must cost
        // ≪ m on a large expander-ish graph
        let g = generators::gnm_digraph(512, 4096, 12);
        let mut t = Tracker::new();
        let hh = HeavyHitter::initialize(&mut t, g, vec![1.0; 4096], 13);
        let h = vec![0.0; 512];
        t.reset();
        let got = hh.heavy_query(&mut t, &h, 0.5);
        assert!(got.is_empty());
        assert!(
            t.work() < 4096,
            "flat query cost {} should be ≪ m + n·classes",
            t.work()
        );
    }
}
