//! Fully dynamic edge-partitioned expander decomposition (paper
//! Lemma 3.1, following the [BvdBG+22] reduction described in §2.3/§3).
//!
//! The edge set is maintained across `O(log m)` *buckets* `G_1, G_2, …`
//! with `|E(G_i)| ≤ 2^i`. An insertion batch cascades: find the smallest
//! `i` with `2^i ≥ |batch| + Σ_{j≤i} |E_j|`, gather those buckets plus
//! the batch, recompute a static edge-partitioned decomposition
//! ([`crate::static_decomp::edge_decompose`]) and install it as the new
//! `G_i`. A deletion batch routes each edge to its part's
//! [`crate::pruning::BoostedPruner`]; spilled edges are reinserted at the
//! bottom. Amortized update work is `Õ(|batch|/φ⁵)` with `Õ(1/φ⁴)` depth.
//!
//! A part's pruner is built on the part's first delete, not at the
//! rebuild that makes the part. Construction is uncharged and a pruner
//! built later over the part's edge list is the same fresh pruner, so
//! charged costs and outcomes do not move. Most parts are never deleted
//! from before the next cascade replaces them, and then no pruner, no
//! host subgraph copy and no pooled unit-flow state is made for them.
//!
//! With a flight recorder on, new and pruned parts are spot-checked for
//! conductance under their own span, `expander/certify`, which charges
//! nothing, so the check's time stays out of `expander/insert`'s and
//! `expander/delete`'s self time.
//!
//! Parts use *compact* local vertex indexing and expose a [`PartView`]
//! (vertex list, local adjacency, alive flags) so consumers — notably the
//! HeavyHitter of Appendix B — can run per-part computations in work
//! proportional to the part, not to `n`.
//!
//! Edges are addressed by stable [`EdgeKey`]s assigned at insertion,
//! densely from 0, so the key → location and key → endpoints tables are
//! vectors indexed by key; a deleted key keeps its slot until
//! [`DynamicExpanderDecomposition::reset`]. Parts are numbered by *slot*,
//! bucket by bucket, so a consumer can keep per-part values in a dense
//! table between updates.

use crate::pruning::BoostedPruner;
use crate::static_decomp::{edge_decompose, ExpanderPart};
use pmcf_graph::{UGraph, Vertex};
use pmcf_pram::{Cost, Tracker};
use std::collections::BTreeMap;

/// Largest part the flight-recorder spot-check will certify exactly —
/// `find_sparse_cut` is an `O(|part|²)`-ish diagnostic, so certification
/// is bounded to keep recording overhead sane.
const CERTIFY_EDGE_LIMIT: usize = 512;

/// Conductance slack for certification: a part built at target `φ` is
/// flagged only if a cut sparser than `0.3·φ` exists (matching the
/// test-suite's tolerance for the practical decomposition).
const CERTIFY_SLACK: f64 = 0.3;

/// Spot-check a compact part subgraph for a sparse cut. Returns
/// `(certified, Some(measured φ))` — `certified` stays true when the part
/// is too small/large to check meaningfully.
fn certify_part(sub: &UGraph, phi: f64, seed: u64) -> (bool, Option<f64>) {
    if sub.m() <= 2 || sub.m() > CERTIFY_EDGE_LIMIT {
        return (true, None);
    }
    match crate::conductance::find_sparse_cut(sub, phi * CERTIFY_SLACK, seed) {
        Some((_, measured)) => (false, Some(measured)),
        None => (true, None),
    }
}

/// Stable handle for an inserted edge.
pub type EdgeKey = u64;

/// Number of size-capped buckets `G_i`, `|E(G_i)| ≤ 2^i`.
const BUCKETS: usize = 48;

/// Local id of host vertex `v` in the part being installed, assigning
/// the next one on first sight.
fn local_id(local_of: &mut [usize], verts: &mut Vec<Vertex>, v: Vertex) -> usize {
    if local_of[v] == usize::MAX {
        local_of[v] = verts.len();
        verts.push(v);
    }
    local_of[v]
}

/// Compact, incrementally-maintained view of one expander part.
#[derive(Clone, Debug)]
pub struct PartView {
    /// Global vertex ids, in local order.
    pub verts: Vec<Vertex>,
    /// Local adjacency: `adj[lv] = [(local other, local edge), …]`.
    pub adj: Vec<Vec<(usize, usize)>>,
    /// Local edge id → user key.
    pub keys: Vec<EdgeKey>,
    /// Local edge endpoints `(local u, local v)`.
    pub ends: Vec<(usize, usize)>,
    /// Which local edges are still alive.
    pub alive_edge: Vec<bool>,
    /// Alive degree per local vertex.
    pub alive_deg: Vec<usize>,
    /// Number of alive edges.
    pub alive_count: usize,
}

impl PartView {
    fn from_edges(verts: Vec<Vertex>, ends: Vec<(usize, usize)>, keys: Vec<EdgeKey>) -> Self {
        let mut adj = vec![Vec::new(); verts.len()];
        let mut alive_deg = vec![0usize; verts.len()];
        for (le, &(u, v)) in ends.iter().enumerate() {
            adj[u].push((v, le));
            alive_deg[u] += 1;
            if v != u {
                adj[v].push((u, le));
                alive_deg[v] += 1;
            } else {
                alive_deg[u] += 1;
            }
        }
        let alive_count = ends.len();
        PartView {
            verts,
            adj,
            alive_edge: vec![true; ends.len()],
            keys,
            ends,
            alive_deg,
            alive_count,
        }
    }

    fn kill_edge(&mut self, le: usize) {
        if !self.alive_edge[le] {
            return;
        }
        self.alive_edge[le] = false;
        self.alive_count -= 1;
        let (u, v) = self.ends[le];
        self.alive_deg[u] = self.alive_deg[u].saturating_sub(1);
        if v != u {
            self.alive_deg[v] = self.alive_deg[v].saturating_sub(1);
        } else {
            self.alive_deg[u] = self.alive_deg[u].saturating_sub(1);
        }
    }
}

/// One expander part: the view, plus a pruner over the compact host
/// subgraph `view.ends` once the part has seen its first delete.
struct PartState {
    pruner: Option<BoostedPruner>,
    view: PartView,
}

/// One size-capped bucket `G_i`.
#[derive(Default)]
struct Bucket {
    parts: Vec<PartState>,
    /// Alive edges currently homed in this bucket.
    alive: usize,
}

/// Location of an alive edge: `(bucket, part, local edge id)`.
type Loc = (usize, usize, usize);

/// The Lemma 3.1 data structure.
///
/// ```
/// use pmcf_expander::DynamicExpanderDecomposition;
/// use pmcf_pram::Tracker;
/// let mut d = DynamicExpanderDecomposition::new(8, 0.1, 42);
/// let mut t = Tracker::new();
/// let keys = d.insert_edges(&mut t, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
/// assert_eq!(d.edge_count(), 4);
/// assert_eq!(d.delete_edges(&mut t, &keys[..1]), 0); // 0 stale keys
/// assert_eq!(d.edge_count(), 3);
/// // the parts always partition the alive edge set
/// let total: usize = d.parts().iter().map(|p| p.len()).sum();
/// assert_eq!(total, 3);
/// ```
pub struct DynamicExpanderDecomposition {
    n: usize,
    phi: f64,
    seed: u64,
    buckets: Vec<Bucket>,
    /// First part slot of each bucket: part `p` of bucket `b` has slot
    /// `part_base[b] + p`, and the last entry counts every part.
    part_base: Vec<usize>,
    /// Key → current location, `None` once deleted or spilled. Keys are
    /// handed out densely from 0, so the table is indexed by key.
    registry: Vec<Option<Loc>>,
    /// Endpoints per key (needed to rebuild), indexed by key; the next
    /// key is `endpoints.len()`.
    endpoints: Vec<(Vertex, Vertex)>,
    /// Static rebuild count (for the amortized-work experiments).
    pub rebuilds: u64,
    /// Reusable gather buffer for the insertion cascade: the keys of
    /// every bucket `0..=target` are collected here on each rebuild.
    /// Persisting it across [`DynamicExpanderDecomposition::home_keys`]
    /// calls keeps the steady-state cascade from reallocating the
    /// `O(2^target)`-sized scratch every time.
    gather: Vec<EdgeKey>,
    /// Host vertex → local id of the part being installed, `usize::MAX`
    /// elsewhere; reset after each part.
    local_of: Vec<usize>,
}

impl DynamicExpanderDecomposition {
    /// An initially empty decomposition over `n` vertices with expansion
    /// target `phi`.
    pub fn new(n: usize, phi: f64, seed: u64) -> Self {
        assert!(phi > 0.0 && phi <= 1.0);
        DynamicExpanderDecomposition {
            n,
            phi,
            seed,
            buckets: (0..BUCKETS).map(|_| Bucket::default()).collect(),
            part_base: vec![0; BUCKETS + 1],
            registry: Vec::new(),
            endpoints: Vec::new(),
            rebuilds: 0,
            gather: Vec::new(),
            local_of: vec![usize::MAX; n],
        }
    }

    /// Return the structure to its freshly-constructed state — no alive
    /// edges, empty buckets, key counter at zero — while keeping the
    /// top-level containers (bucket vector, registry/endpoint tables)
    /// allocated for reuse. After `reset(seed)` the structure behaves
    /// identically to `new(n, phi, seed)`.
    pub fn reset(&mut self, seed: u64) {
        self.seed = seed;
        for b in &mut self.buckets {
            b.parts.clear();
            b.alive = 0;
        }
        self.part_base.fill(0);
        self.registry.clear();
        self.endpoints.clear();
        self.rebuilds = 0;
    }

    /// Number of alive edges: each is homed in exactly one bucket.
    pub fn edge_count(&self) -> usize {
        self.buckets.iter().map(|b| b.alive).sum()
    }

    /// Current location of an alive edge.
    fn loc(&self, key: EdgeKey) -> Option<Loc> {
        let slot = usize::try_from(key).ok()?;
        self.registry.get(slot).copied().flatten()
    }

    /// Endpoints of an alive edge.
    pub fn endpoints_of(&self, key: EdgeKey) -> Option<(Vertex, Vertex)> {
        self.loc(key).map(|_| self.endpoints[key as usize])
    }

    /// Insert a batch of edges; returns their keys.
    pub fn insert_edges(&mut self, t: &mut Tracker, edges: &[(Vertex, Vertex)]) -> Vec<EdgeKey> {
        t.span("expander/insert", |t| {
            t.counter("expander.inserted_edges", edges.len() as u64);
            pmcf_obs::emit_with("expander.insert", || {
                vec![
                    ("batch", edges.len().into()),
                    ("alive_before", self.edge_count().into()),
                ]
            });
            let first = self.endpoints.len() as EdgeKey;
            for &(u, v) in edges {
                assert!(u < self.n && v < self.n, "endpoint out of range");
                self.endpoints.push((u, v));
            }
            self.registry.resize(self.endpoints.len(), None);
            let keys: Vec<EdgeKey> = (first..self.endpoints.len() as EdgeKey).collect();
            t.charge(Cost::par_flat(edges.len() as u64));
            self.home_keys(t, &keys);
            keys
        })
    }

    /// Delete a batch of edges by key. Returns the number of *stale*
    /// keys in the batch — keys that were never inserted or were already
    /// deleted. Stale keys are a **counted no-op**: each one bumps the
    /// `expander.stale_deletes` counter (and the `stale` field of the
    /// `expander.delete` event) and is otherwise skipped, so
    /// [`DynamicExpanderDecomposition::edge_count`] can never desync
    /// from the registry. Callers that must treat staleness as an error
    /// (e.g. resolve-delta validation) check the returned count.
    pub fn delete_edges(&mut self, t: &mut Tracker, keys: &[EdgeKey]) -> usize {
        t.span("expander/delete", |t| {
            t.counter("expander.deleted_edges", keys.len() as u64);
            let alive_before = self.edge_count();
            // Group the deletions per (bucket, part), counting stale keys.
            let mut per_part: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
            let mut stale = 0usize;
            for &k in keys {
                if let Some((b, p, e)) = self.loc(k) {
                    per_part.entry((b, p)).or_default().push(e);
                    self.registry[k as usize] = None;
                    self.buckets[b].alive -= 1;
                } else {
                    stale += 1;
                }
            }
            if stale > 0 {
                t.counter("expander.stale_deletes", stale as u64);
            }
            pmcf_obs::emit_with("expander.delete", || {
                vec![
                    ("batch", keys.len().into()),
                    ("alive_before", alive_before.into()),
                    ("stale", stale.into()),
                ]
            });
            t.charge(Cost::par_flat(keys.len() as u64));

            let mut spilled_keys: Vec<EdgeKey> = Vec::new();
            for ((b, p), local_edges) in per_part {
                let spilled = {
                    let part = &mut self.buckets[b].parts[p];
                    let view = &part.view;
                    let pruner = part.pruner.get_or_insert_with(|| {
                        let sub = UGraph::from_edges(view.verts.len(), view.ends.clone());
                        BoostedPruner::new(sub, self.phi)
                    });
                    let outcome = pruner.delete_batch(t, &local_edges);
                    for &le in &local_edges {
                        part.view.kill_edge(le);
                    }
                    let mut spilled = Vec::new();
                    for &le in &outcome.spilled_edges {
                        part.view.kill_edge(le);
                        spilled.push(part.view.keys[le]);
                    }
                    // spot-check that pruning left a φ-expander behind
                    // (Lemma 3.9) — only while a flight recorder is on
                    if pmcf_obs::recording() && part.view.alive_count > 0 {
                        let (phi, seed) = (self.phi, self.seed ^ 0xB007);
                        let (certified, measured) = t.span("expander/certify", |_| {
                            let alive_ends: Vec<(usize, usize)> = part
                                .view
                                .ends
                                .iter()
                                .enumerate()
                                .filter(|&(le, _)| part.view.alive_edge[le])
                                .map(|(_, &e)| e)
                                .collect();
                            let sub = UGraph::from_edges(part.view.verts.len(), alive_ends);
                            certify_part(&sub, phi, seed)
                        });
                        let alive = part.view.alive_count;
                        let (deleted, n_spill) = (local_edges.len(), spilled.len());
                        pmcf_obs::emit_with("expander.prune", || {
                            let mut fields: Vec<(&'static str, pmcf_obs::JsonValue)> = vec![
                                ("part_edges", alive.into()),
                                ("deleted", deleted.into()),
                                ("spilled", n_spill.into()),
                                ("phi", phi.into()),
                                ("certified", certified.into()),
                            ];
                            if let Some(mp) = measured {
                                fields.push(("measured_phi", mp.into()));
                            }
                            fields
                        });
                    }
                    spilled
                };
                for k in spilled {
                    // spilled edges are alive user edges that must be re-homed
                    if self.registry[k as usize].take().is_some() {
                        self.buckets[b].alive -= 1;
                        spilled_keys.push(k);
                    }
                }
            }
            if !spilled_keys.is_empty() {
                self.home_keys(t, &spilled_keys);
            }
            stale
        })
    }

    /// Install a set of keys into the bucket structure (insertion cascade).
    fn home_keys(&mut self, t: &mut Tracker, keys: &[EdgeKey]) {
        if keys.is_empty() {
            return;
        }
        // smallest i with 2^i ≥ |keys| + Σ_{j≤i} alive_j
        let mut prefix = 0usize;
        let mut target = 0usize;
        for i in 0..self.buckets.len() {
            prefix += self.buckets[i].alive;
            if (1usize << i) >= keys.len() + prefix {
                target = i;
                break;
            }
            target = i;
        }
        // gather keys of buckets 0..=target plus the new ones, into the
        // persistent scratch (alive filters per part are independent →
        // flat-parallel in the model)
        let mut all_keys = std::mem::take(&mut self.gather);
        all_keys.clear();
        all_keys.extend_from_slice(keys);
        for b in 0..=target {
            for part in self.buckets[b].parts.drain(..) {
                for (le, &k) in part.view.keys.iter().enumerate() {
                    if part.view.alive_edge[le] && self.registry[k as usize].is_some() {
                        all_keys.push(k);
                    }
                }
            }
            self.buckets[b].alive = 0;
        }
        for &k in &all_keys {
            self.registry[k as usize] = None; // will be re-registered below
        }
        t.charge(Cost::par_flat(all_keys.len() as u64));

        // static decomposition of the gathered edge set (Lemma 3.4)
        self.rebuilds += 1;
        t.counter("expander.rebuilds", 1);
        self.seed = self.seed.wrapping_add(0x9e3779b97f4a7c15);
        let edge_list: Vec<(Vertex, Vertex)> = all_keys
            .iter()
            .map(|&k| self.endpoints[k as usize])
            .collect();
        t.charge(Cost::par_flat(all_keys.len() as u64));
        let host = UGraph::from_edges(self.n, edge_list);
        let parts: Vec<ExpanderPart> = t.span("expander/rebuild", |t| {
            edge_decompose(t, &host, self.phi, self.seed)
        });

        let total_edges = all_keys.len();
        let n_parts = parts.len();
        let certify = pmcf_obs::recording();
        let mut checked_parts = 0usize;
        let mut certified = true;
        let mut worst_measured: Option<f64> = None;

        let bucket = &mut self.buckets[target];
        for part in parts {
            // compact local indexing — ids assigned in (deterministic)
            // edge order
            let mut verts = Vec::new();
            let mut ends = Vec::with_capacity(part.edges.len());
            for &e in &part.edges {
                let (u, v) = host.endpoints(e);
                let lu = local_id(&mut self.local_of, &mut verts, u);
                let lv = local_id(&mut self.local_of, &mut verts, v);
                ends.push((lu, lv));
            }
            for &v in &verts {
                self.local_of[v] = usize::MAX;
            }
            let part_keys: Vec<EdgeKey> = part.edges.iter().map(|&e| all_keys[e]).collect();
            if certify && ends.len() > 2 && ends.len() <= CERTIFY_EDGE_LIMIT {
                checked_parts += 1;
                // recorder-only check, charged to nothing: its own span
                // keeps it out of `expander/insert`'s self time
                let (phi, seed) = (self.phi, self.seed ^ 0xFACE);
                let (ok, measured) = t.span("expander/certify", |_| {
                    let sub = UGraph::from_edges(verts.len(), ends.clone());
                    certify_part(&sub, phi, seed)
                });
                if !ok {
                    certified = false;
                    worst_measured = Some(
                        measured
                            .into_iter()
                            .chain(worst_measured)
                            .fold(f64::INFINITY, f64::min),
                    );
                }
            }
            let view = PartView::from_edges(verts, ends, part_keys);
            let pidx = bucket.parts.len();
            for (le, &k) in view.keys.iter().enumerate() {
                self.registry[k as usize] = Some((target, pidx, le));
            }
            bucket.alive += view.keys.len();
            bucket.parts.push(PartState { pruner: None, view });
        }
        pmcf_obs::emit_with("expander.rebuild", || {
            let mut fields: Vec<(&'static str, pmcf_obs::JsonValue)> = vec![
                ("edges", total_edges.into()),
                ("parts", n_parts.into()),
                ("bucket", target.into()),
                ("phi", self.phi.into()),
                ("certified", certified.into()),
                ("checked_parts", checked_parts.into()),
            ];
            if let Some(mp) = worst_measured {
                fields.push(("measured_phi", mp.into()));
            }
            fields
        });
        for b in 0..BUCKETS {
            self.part_base[b + 1] = self.part_base[b] + self.buckets[b].parts.len();
        }
        // hand the scratch back so the next cascade reuses its capacity
        self.gather = all_keys;
    }

    /// O(1) lookup of an alive edge's part view and local edge id.
    pub fn locate(&self, key: EdgeKey) -> Option<(&PartView, usize)> {
        self.locate_keyed(key).map(|(_, view, le)| (view, le))
    }

    /// Like [`DynamicExpanderDecomposition::locate`] but also returns the
    /// part's slot, as [`DynamicExpanderDecomposition::part_views_keyed`]
    /// numbers it.
    pub fn locate_keyed(&self, key: EdgeKey) -> Option<(usize, &PartView, usize)> {
        self.loc(key)
            .map(|(b, p, le)| (self.part_base[b] + p, &self.buckets[b].parts[p].view, le))
    }

    /// Number of part slots, alive or not: every slot that
    /// [`DynamicExpanderDecomposition::part_views_keyed`] yields is below
    /// it. Slots are dense, so a caller can keep per-part values in a
    /// table of this length until the next insert or delete.
    pub fn part_slots(&self) -> usize {
        self.part_base[BUCKETS]
    }

    /// Live part views with their slot: parts are numbered bucket by
    /// bucket, from 0, until the next insert or delete.
    pub fn part_views_keyed(&self) -> impl Iterator<Item = (usize, &PartView)> {
        self.buckets
            .iter()
            .flat_map(|bk| bk.parts.iter())
            .map(|ps| &ps.view)
            .enumerate()
            .filter(|(_, v)| v.alive_count > 0)
    }

    /// Iterate over the live part views (alive_count > 0).
    pub fn part_views(&self) -> impl Iterator<Item = &PartView> {
        self.buckets
            .iter()
            .flat_map(|b| b.parts.iter())
            .map(|p| &p.view)
            .filter(|v| v.alive_count > 0)
    }

    /// Enumerate the current expander parts as lists of `(key, (u, v))`.
    pub fn parts(&self) -> Vec<Vec<(EdgeKey, (Vertex, Vertex))>> {
        self.part_views()
            .map(|view| {
                view.keys
                    .iter()
                    .enumerate()
                    .filter(|&(le, &k)| view.alive_edge[le] && self.loc(k).is_some())
                    .map(|(_, &k)| (k, self.endpoints[k as usize]))
                    .collect::<Vec<_>>()
            })
            .filter(|p: &Vec<_>| !p.is_empty())
            .collect()
    }

    /// Total vertex multiplicity `Σ_i |V(G_i)|` across parts (Lemma 3.1
    /// promises `Õ(n)`).
    pub fn vertex_multiplicity(&self) -> usize {
        self.part_views()
            .map(|v| v.alive_deg.iter().filter(|&&d| d > 0).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn check_partition(d: &DynamicExpanderDecomposition, expected: usize) {
        let parts = d.parts();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, expected, "parts must partition the alive edges");
        let mut seen = std::collections::HashSet::new();
        for p in &parts {
            for &(k, _) in p {
                assert!(seen.insert(k), "edge {k} in two parts");
            }
        }
    }

    #[test]
    fn insert_then_enumerate() {
        let mut d = DynamicExpanderDecomposition::new(16, 0.15, 1);
        let mut t = Tracker::new();
        let edges: Vec<(usize, usize)> = (0..16).map(|i| (i, (i + 1) % 16)).collect();
        let keys = d.insert_edges(&mut t, &edges);
        assert_eq!(keys.len(), 16);
        assert_eq!(d.edge_count(), 16);
        check_partition(&d, 16);
    }

    #[test]
    fn deletions_remove_edges() {
        let mut d = DynamicExpanderDecomposition::new(32, 0.15, 2);
        let mut t = Tracker::new();
        let g = pmcf_graph::generators::random_regular_ugraph(32, 6, 3);
        let keys = d.insert_edges(&mut t, g.edges());
        assert_eq!(d.delete_edges(&mut t, &keys[0..10]), 0);
        assert_eq!(d.edge_count(), g.m() - 10);
        check_partition(&d, g.m() - 10);
        // deleting unknown keys is a counted no-op
        assert_eq!(d.delete_edges(&mut t, &[999_999]), 1);
        assert_eq!(d.edge_count(), g.m() - 10);
    }

    /// Never-inserted keys are a counted no-op: reported in the return
    /// value and the `expander.stale_deletes` counter, with the registry
    /// and `edge_count` untouched.
    #[test]
    fn never_inserted_keys_are_counted_stale() {
        let mut d = DynamicExpanderDecomposition::new(16, 0.15, 4);
        let mut t = Tracker::profiled();
        let edges: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 1) % 16)).collect();
        let keys = d.insert_edges(&mut t, &edges);
        // one real key, two never-inserted ones (past the last key)
        let stale = d.delete_edges(&mut t, &[keys[3], 1_000_000, 1_000_001]);
        assert_eq!(stale, 2);
        assert_eq!(d.edge_count(), 11);
        check_partition(&d, 11);
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["expander.stale_deletes"], 2);
        assert_eq!(rep.counters["expander.deleted_edges"], 3);
    }

    /// Double-deletes — both across batches and within one batch — are
    /// counted stale and never desync `edge_count` from the registry.
    #[test]
    fn double_deletes_are_counted_stale() {
        let mut d = DynamicExpanderDecomposition::new(32, 0.15, 5);
        let mut t = Tracker::profiled();
        let g = pmcf_graph::generators::random_regular_ugraph(32, 6, 6);
        let keys = d.insert_edges(&mut t, g.edges());
        assert_eq!(d.delete_edges(&mut t, &keys[0..4]), 0);
        // same keys again: all four are stale now
        assert_eq!(d.delete_edges(&mut t, &keys[0..4]), 4);
        assert_eq!(d.edge_count(), g.m() - 4);
        // within one batch: the first occurrence deletes, the repeat is stale
        assert_eq!(d.delete_edges(&mut t, &[keys[5], keys[5]]), 1);
        assert_eq!(d.edge_count(), g.m() - 5);
        check_partition(&d, g.m() - 5);
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["expander.stale_deletes"], 5);
    }

    /// The key-indexed tables against a `BTreeMap` of the alive edges:
    /// after interleaved inserts, deletes, double deletes and
    /// never-inserted keys, `edge_count`, `endpoints_of`, `locate`,
    /// `locate_keyed` and `parts()` read what the map says.
    #[test]
    fn key_tables_match_a_btreemap_oracle() {
        let n = 40;
        let mut d = DynamicExpanderDecomposition::new(n, 0.1, 17);
        let mut t = Tracker::new();
        let mut oracle: BTreeMap<EdgeKey, (Vertex, Vertex)> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut keys_out, mut dead) = (0u64, Vec::new());
        for round in 0..30u64 {
            let batch: Vec<(Vertex, Vertex)> = (0..1 + round % 9)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let keys = d.insert_edges(&mut t, &batch);
            assert_eq!(
                keys,
                (keys_out..keys_out + batch.len() as u64).collect::<Vec<_>>()
            );
            keys_out += batch.len() as u64;
            oracle.extend(keys.into_iter().zip(batch));
            if round % 3 == 2 {
                let mut del: Vec<EdgeKey> = oracle.keys().copied().step_by(3).take(6).collect();
                del.push(del[0]); // twice in one batch
                del.extend(dead.last()); // deleted by an earlier batch
                del.extend([keys_out + round, u64::MAX]); // never inserted
                let want = del.iter().filter(|&k| oracle.remove(k).is_none()).count();
                assert_eq!(d.delete_edges(&mut t, &del), want, "round {round}");
                dead.extend(del);
            }
            assert_eq!(d.edge_count(), oracle.len(), "round {round}");
            let slots: Vec<(usize, *const PartView)> = d
                .part_views_keyed()
                .map(|(slot, view)| (slot, view as *const PartView))
                .collect();
            assert!(slots.iter().all(|&(slot, _)| slot < d.part_slots()));
            for k in (0..keys_out + 2).chain([u64::MAX]) {
                assert_eq!(d.endpoints_of(k), oracle.get(&k).copied(), "key {k}");
                let located = d.locate_keyed(k);
                assert_eq!(
                    d.locate(k).map(|(view, le)| (view as *const PartView, le)),
                    located.map(|(_, view, le)| (view as *const PartView, le))
                );
                let Some((slot, view, le)) = located else {
                    assert!(!oracle.contains_key(&k), "key {k} lost");
                    continue;
                };
                assert!(view.alive_edge[le] && view.keys[le] == k, "key {k}");
                let (lu, lv) = view.ends[le];
                assert_eq!(
                    Some((view.verts[lu], view.verts[lv])),
                    oracle.get(&k).copied()
                );
                assert!(slots.contains(&(slot, view as *const PartView)), "key {k}");
            }
            // `parts()` as the map-backed tables rendered it
            let want: Vec<Vec<(EdgeKey, (Vertex, Vertex))>> = d
                .part_views()
                .map(|view| {
                    view.keys
                        .iter()
                        .enumerate()
                        .filter(|&(le, k)| view.alive_edge[le] && oracle.contains_key(k))
                        .map(|(_, &k)| (k, oracle[&k]))
                        .collect::<Vec<_>>()
                })
                .filter(|p: &Vec<_>| !p.is_empty())
                .collect();
            assert_eq!(d.parts(), want, "round {round}");
            let mut all: Vec<_> = want.concat();
            all.sort_unstable();
            assert_eq!(
                all,
                oracle.iter().map(|(&k, &e)| (k, e)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn parts_are_expanders() {
        let mut d = DynamicExpanderDecomposition::new(48, 0.1, 3);
        let mut t = Tracker::new();
        let g = pmcf_graph::generators::gnm_ugraph(48, 240, 4);
        let keys = d.insert_edges(&mut t, g.edges());
        d.delete_edges(&mut t, &keys[0..20]);
        for part in d.parts() {
            if part.len() <= 2 {
                continue;
            }
            let edges: Vec<(usize, usize)> = part.iter().map(|&(_, e)| e).collect();
            let sub = UGraph::from_edges(48, edges);
            if let Some((_, phi)) = conductance::find_sparse_cut(&sub, 0.03, 9) {
                panic!("part of {} edges has conductance {phi}", part.len());
            }
        }
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        let mut d = DynamicExpanderDecomposition::new(64, 0.1, 5);
        let mut t = Tracker::new();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut alive: Vec<EdgeKey> = Vec::new();
        for round in 0..20 {
            let batch: Vec<(usize, usize)> = (0..8)
                .map(|_| {
                    let u = rng.gen_range(0..64);
                    let mut v = rng.gen_range(0..64);
                    if v == u {
                        v = (v + 1) % 64;
                    }
                    (u, v)
                })
                .collect();
            alive.extend(d.insert_edges(&mut t, &batch));
            if round % 3 == 2 && alive.len() > 6 {
                let del: Vec<EdgeKey> = (0..4).map(|i| alive[i * 2]).collect();
                d.delete_edges(&mut t, &del);
                alive.retain(|k| !del.contains(k));
            }
            check_partition(&d, alive.len());
        }
    }

    #[test]
    fn vertex_multiplicity_stays_near_linear() {
        let mut d = DynamicExpanderDecomposition::new(64, 0.1, 6);
        let mut t = Tracker::new();
        let g = pmcf_graph::generators::gnm_ugraph(64, 512, 7);
        let _ = d.insert_edges(&mut t, g.edges());
        // Lemma 3.1: Σ|V(G_i)| = Õ(n); allow a generous log factor
        assert!(
            d.vertex_multiplicity() <= 64 * 12,
            "multiplicity {}",
            d.vertex_multiplicity()
        );
    }

    #[test]
    fn part_views_are_consistent() {
        let mut d = DynamicExpanderDecomposition::new(32, 0.1, 7);
        let mut t = Tracker::new();
        let g = pmcf_graph::generators::random_regular_ugraph(32, 6, 8);
        let keys = d.insert_edges(&mut t, g.edges());
        d.delete_edges(&mut t, &keys[0..5]);
        for view in d.part_views() {
            // alive_deg consistent with alive_edge
            let mut deg = vec![0usize; view.verts.len()];
            for (le, &(u, v)) in view.ends.iter().enumerate() {
                if view.alive_edge[le] {
                    deg[u] += 1;
                    if v != u {
                        deg[v] += 1;
                    } else {
                        deg[u] += 1;
                    }
                }
            }
            assert_eq!(deg, view.alive_deg);
            assert_eq!(
                view.alive_edge.iter().filter(|&&a| a).count(),
                view.alive_count
            );
        }
    }

    #[test]
    fn amortized_insert_work_is_sublinear_per_edge() {
        let mut d = DynamicExpanderDecomposition::new(128, 0.1, 8);
        let g = pmcf_graph::generators::gnm_ugraph(128, 1024, 9);
        // insert in many small batches; total work should be far below
        // batches × m (full static recompute every time)
        let mut t = Tracker::new();
        for chunk in g.edges().chunks(32) {
            let _ = d.insert_edges(&mut t, chunk);
        }
        let total_work = t.work();
        let mut t2 = Tracker::new();
        let mut d2 = DynamicExpanderDecomposition::new(128, 0.1, 10);
        let _ = d2.insert_edges(&mut t2, g.edges());
        let one_shot = t2.work();
        // 32 batches, each ≪ a full rebuild: expect < 32× one-shot cost
        assert!(
            total_work < one_shot * 32,
            "incremental {total_work} vs one-shot {one_shot}"
        );
    }

    #[test]
    fn reset_behaves_like_new() {
        let g = pmcf_graph::generators::gnm_ugraph(48, 256, 23);
        let mut t = Tracker::new();
        // churn a structure, then reset it with a new seed
        let mut reused = DynamicExpanderDecomposition::new(48, 0.1, 5);
        let keys = reused.insert_edges(&mut t, &g.edges()[..200]);
        reused.delete_edges(&mut t, &keys[..64]);
        reused.reset(9);
        let mut fresh = DynamicExpanderDecomposition::new(48, 0.1, 9);
        // identical insert sequences must yield identical keys, parts,
        // and charged costs from here on
        let (mut ta, mut tb) = (Tracker::new(), Tracker::new());
        let ka = reused.insert_edges(&mut ta, g.edges());
        let kb = fresh.insert_edges(&mut tb, g.edges());
        assert_eq!(ka, kb);
        reused.delete_edges(&mut ta, &ka[..32]);
        fresh.delete_edges(&mut tb, &kb[..32]);
        assert_eq!(reused.parts(), fresh.parts());
        assert_eq!(reused.edge_count(), fresh.edge_count());
        assert_eq!(ta.work(), tb.work());
        assert_eq!(ta.depth(), tb.depth());
    }

    /// Delta-churn extension of the bit-identical work/depth test: a
    /// long interleaved insert/delete sequence — with stale deletes
    /// (double-deletes and never-inserted keys) mixed in — must produce
    /// identical keys, parts, and charged work/depth on a fresh
    /// structure and on a churned-then-reset one, at every round. Run
    /// with `RAYON_NUM_THREADS=4` the pool's fork-join path is
    /// exercised and the charges must still match bit for bit.
    #[test]
    fn delta_churn_is_bit_identical_after_reset() {
        let mut t0 = Tracker::new();
        let mut reused = DynamicExpanderDecomposition::new(48, 0.1, 77);
        let g0 = pmcf_graph::generators::gnm_ugraph(48, 180, 31);
        let pre = reused.insert_edges(&mut t0, g0.edges());
        reused.delete_edges(&mut t0, &pre[..90]);
        reused.reset(13);
        let mut fresh = DynamicExpanderDecomposition::new(48, 0.1, 13);

        let (mut ta, mut tb) = (Tracker::new(), Tracker::new());
        let mut rng = SmallRng::seed_from_u64(99);
        let mut alive: Vec<EdgeKey> = Vec::new();
        let mut dead: Vec<EdgeKey> = Vec::new();
        for round in 0..16 {
            let batch: Vec<(usize, usize)> = (0..6)
                .map(|_| {
                    let u: usize = rng.gen_range(0..48);
                    let v = (u + 1 + rng.gen_range(0..47usize)) % 48;
                    (u, v)
                })
                .collect();
            let ka = reused.insert_edges(&mut ta, &batch);
            let kb = fresh.insert_edges(&mut tb, &batch);
            assert_eq!(ka, kb, "round {round}: key streams diverged");
            alive.extend(ka);
            if round % 2 == 1 && alive.len() > 8 {
                // live keys, a double-delete, and a never-inserted key
                let mut del: Vec<EdgeKey> = (0..4).map(|i| alive[i * 2]).collect();
                if let Some(&k) = dead.first() {
                    del.push(k);
                }
                del.push(u64::MAX - round as u64);
                let sa = reused.delete_edges(&mut ta, &del);
                let sb = fresh.delete_edges(&mut tb, &del);
                assert_eq!(sa, sb, "round {round}: stale counts diverged");
                alive.retain(|k| !del.contains(k));
                dead.extend(del);
            }
            assert_eq!(reused.parts(), fresh.parts(), "round {round}");
            assert_eq!(reused.edge_count(), alive.len(), "round {round}");
            assert_eq!(ta.work(), tb.work(), "round {round}: work diverged");
            assert_eq!(ta.depth(), tb.depth(), "round {round}: depth diverged");
        }
    }
}
