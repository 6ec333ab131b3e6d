//! Measuring expansion.
//!
//! The paper's expanders are *conductance* expanders: `G` is a
//! `φ`-expander if every cut `S` has
//! `|E(S, V∖S)| / min(deg(S), deg(V∖S)) ≥ φ` (paper §2.1).
//!
//! Exact minimum conductance is NP-hard, so (per DESIGN.md §2) we use
//! one-sided tools: brute-force enumeration as a small-`n` test oracle,
//! sweep cuts over an approximate Fiedler vector to *find* sparse cuts,
//! and the Cheeger inequality `φ ≥ λ₂/2` to *certify* expansion.
//!
//! [`find_sparse_cut`] is the static decomposition's inner loop, so it
//! runs its three Fiedler rounds in lockstep over one compact CSR of the
//! support: each pass over the adjacency feeds three independent
//! floating-point dependency chains instead of one. Every round keeps the
//! seed, random draws, iteration count and summation order of a lone
//! [`approx_fiedler`], so the cuts are bit-for-bit those of three
//! separate rounds.

use pmcf_graph::{UGraph, Vertex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Exact conductance by enumerating all `2^{n-1}` cuts (test oracle,
/// `n ≤ 24` enforced). Returns `None` for graphs with < 2 non-isolated
/// vertices or no edges; isolated vertices are ignored.
pub fn exact_conductance(g: &UGraph) -> Option<f64> {
    let support = g.support();
    let k = support.len();
    if k < 2 || g.m() == 0 {
        return None;
    }
    assert!(k <= 24, "exact conductance only for tiny graphs");
    let total_vol = g.total_volume();
    let mut best = f64::INFINITY;
    // iterate proper non-empty subsets of the support; fix support[0] out
    // of S to halve the space
    for mask in 1u32..(1 << (k - 1)) {
        let mut cut = 0usize;
        let mut vol = 0usize;
        let in_s = |v: usize| -> bool {
            support[1..]
                .iter()
                .position(|&w| w == v)
                .is_some_and(|i| mask >> i & 1 == 1)
        };
        for &v in &support[1..] {
            if in_s(v) {
                vol += g.degree(v);
            }
        }
        for &(u, v) in g.edges() {
            if in_s(u) != in_s(v) {
                cut += 1;
            }
        }
        let denom = vol.min(total_vol - vol);
        if denom > 0 {
            best = best.min(cut as f64 / denom as f64);
        }
    }
    Some(best)
}

/// Conductance of the specific cut given by a boolean mask.
pub fn cut_conductance(g: &UGraph, in_s: &[bool]) -> Option<f64> {
    let cut = g.cut_size(in_s);
    let vol: usize = (0..g.n()).filter(|&v| in_s[v]).map(|v| g.degree(v)).sum();
    let denom = vol.min(g.total_volume() - vol);
    (denom > 0).then(|| cut as f64 / denom as f64)
}

/// The support of a graph (its vertices of degree > 0) as one compact
/// CSR: the `i`-th support vertex in vertex order gets compact id `i` and
/// keeps its neighbor list in [`UGraph::neighbors`] order, self loops
/// twice.
struct SupportCsr {
    /// Compact id → vertex.
    verts: Vec<Vertex>,
    /// `nbrs[start[i]..start[i + 1]]` are compact vertex `i`'s neighbors;
    /// `nbrs.len()` is the total volume `2m`.
    start: Vec<usize>,
    nbrs: Vec<usize>,
    /// Degree per compact vertex, as the power iteration divides by it.
    deg: Vec<f64>,
    /// Whether the support is every vertex of the graph (see
    /// [`SupportCsr::zero`]).
    full: bool,
}

impl SupportCsr {
    fn new(g: &UGraph) -> Self {
        let verts: Vec<Vertex> = g.support();
        let mut id = vec![usize::MAX; g.n()];
        for (i, &v) in verts.iter().enumerate() {
            id[v] = i;
        }
        let mut start = Vec::with_capacity(verts.len() + 1);
        let mut nbrs = Vec::with_capacity(g.total_volume());
        start.push(0);
        for &v in &verts {
            nbrs.extend(g.neighbors(v).iter().map(|&(w, _)| id[w]));
            start.push(nbrs.len());
        }
        SupportCsr {
            deg: verts.iter().map(|&v| g.degree(v) as f64).collect(),
            full: verts.len() == g.n(),
            verts,
            start,
            nbrs,
        }
    }

    fn len(&self) -> usize {
        self.verts.len()
    }

    fn neighbors(&self, i: usize) -> &[usize] {
        &self.nbrs[self.start[i]..self.start[i + 1]]
    }

    /// Where a sum over the support starts so that it is bit-identical to
    /// the sum over all `n` vertices in vertex order, every vertex outside
    /// the support contributing `+0.0`. A `+0.0` term turns the `-0.0` an
    /// empty float sum starts from into `+0.0` and leaves every other
    /// running sum unchanged, so once one such term is present the support
    /// sum starts from `+0.0`.
    fn zero(&self) -> f64 {
        if self.full {
            std::iter::empty::<f64>().sum()
        } else {
            0.0
        }
    }

    /// The `n`-vertex mask of the compact vertices in `side`.
    fn mask(&self, side: &[usize], n: usize) -> Vec<bool> {
        let mut mask = vec![false; n];
        for &i in side {
            mask[self.verts[i]] = true;
        }
        mask
    }

    /// The compact vertices reachable from compact vertex 0, if they are
    /// not the whole support.
    fn split_component(&self) -> Option<Vec<usize>> {
        let mut seen = vec![false; self.len()];
        seen[0] = true;
        let mut reached = vec![0];
        let mut next = 0;
        while let Some(&v) = reached.get(next) {
            next += 1;
            for &w in self.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    reached.push(w);
                }
            }
        }
        (reached.len() < self.len()).then_some(reached)
    }

    /// `x[·][r] -= Σ_i x[i][r]·deg_i / total`: remove round `r`'s component
    /// along 1 in the D-inner-product (the top eigenvector of the random
    /// walk).
    fn deflate<const R: usize>(&self, x: &mut [[f64; R]], r: usize, total: f64) {
        let s = x
            .iter()
            .zip(&self.deg)
            .fold(self.zero(), |acc, (xi, &d)| acc + xi[r] * d);
        let c = s / total;
        for xi in x.iter_mut() {
            xi[r] -= c;
        }
    }
}

/// Approximate Fiedler vector of the *normalized* Laplacian by power
/// iteration on the lazy random walk `W = (I + D⁻¹A)/2`, deflating the
/// stationary (degree) direction. Isolated vertices get value 0.
///
/// The one-round case of the kernel behind [`find_sparse_cut`]: only the
/// support is swept, over a compact CSR, in `O(|support| + m)` per
/// iteration. Every sum adds the same nonzero terms in the same order as
/// a sweep over all `n` entries, and the generator is drawn for the same
/// vertices in the same order, so the result is bit-for-bit the full
/// sweep's.
pub fn approx_fiedler(g: &UGraph, iters: usize, seed: u64) -> Vec<f64> {
    let csr = SupportCsr::new(g);
    let mut x = vec![0.0; g.n()];
    for (&v, [xv]) in csr.verts.iter().zip(fiedler_rounds(&csr, iters, [seed])) {
        x[v] = xv;
    }
    x
}

/// `R` independent rounds of [`approx_fiedler`]'s power iteration, in
/// lockstep over one CSR: round `r` draws from its own generator, seeded
/// `seeds[r]`, and does exactly the floating-point operations of a lone
/// round in the same order, so its column of the result is bit-for-bit
/// `approx_fiedler(g, iters, seeds[r])` on the support. The rounds share
/// each adjacency entry's load and run `R` independent dependency chains
/// side by side.
fn fiedler_rounds<const R: usize>(
    csr: &SupportCsr,
    iters: usize,
    seeds: [u64; R],
) -> Vec<[f64; R]> {
    let zero = csr.zero();
    let total = csr.deg.iter().fold(zero, |acc, &d| acc + d);
    if total == 0.0 {
        return Vec::new();
    }
    let mut rng = seeds.map(SmallRng::seed_from_u64);
    let mut x: Vec<[f64; R]> = (0..csr.len())
        .map(|_| std::array::from_fn(|r| rng[r].gen_range(-1.0..1.0)))
        .collect();
    for r in 0..R {
        csr.deflate(&mut x, r, total);
    }
    let mut y = vec![[0.0; R]; csr.len()];
    for _ in 0..iters {
        // y = W x, summing y·deg for the deflation on the way
        let mut dsum = [zero; R];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = [0.0; R];
            for &w in csr.neighbors(i) {
                let xw = &x[w];
                for r in 0..R {
                    acc[r] += xw[r];
                }
            }
            let d = csr.deg[i];
            for r in 0..R {
                yi[r] = 0.5 * x[i][r] + 0.5 * acc[r] / d;
                dsum[r] += yi[r] * d;
            }
        }
        // deflate, summing y² for the norm on the way
        let c = dsum.map(|s| s / total);
        let mut nsum = [zero; R];
        for yi in y.iter_mut() {
            for r in 0..R {
                yi[r] -= c[r];
                nsum[r] += yi[r] * yi[r];
            }
        }
        let norm = nsum.map(f64::sqrt);
        for r in (0..R).filter(|&r| norm[r] < 1e-300) {
            // eigen-gap collapsed; re-randomize
            for yi in y.iter_mut() {
                yi[r] = rng[r].gen_range(-1.0..1.0);
            }
            csr.deflate(&mut y, r, total);
        }
        // normalize the other rounds; a finite value divided by 1.0 is
        // itself, so a re-randomized round is left as it is
        let div = norm.map(|s| if s < 1e-300 { 1.0 } else { s });
        for yi in y.iter_mut() {
            for r in 0..R {
                yi[r] /= div[r];
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    x
}

/// Sort the support by round `r`'s column of `x` (stably, from vertex
/// order) into `order` and take the best prefix cut: `(prefix length,
/// conductance)`, or `None` if no prefix is a proper cut. `in_s` is all
/// `false` on entry and on exit.
fn sweep_round<const R: usize>(
    csr: &SupportCsr,
    x: &[[f64; R]],
    r: usize,
    order: &mut Vec<usize>,
    in_s: &mut [bool],
) -> Option<(usize, f64)> {
    order.clear();
    order.extend(0..csr.len());
    order.sort_by(|&a, &b| x[a][r].total_cmp(&x[b][r]));
    let prefixes = &order[..order.len() - 1];
    let mut vol = 0usize;
    let mut cut = 0usize;
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in prefixes.iter().enumerate() {
        in_s[v] = true;
        vol += csr.neighbors(v).len();
        // update cut: edges incident to v flip status
        for &w in csr.neighbors(v) {
            if w == v {
                continue; // self loop never cut
            }
            if in_s[w] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        let denom = vol.min(csr.nbrs.len() - vol);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if best.is_none_or(|(_, b)| phi < b) {
            best = Some((i + 1, phi));
        }
    }
    for &v in prefixes {
        in_s[v] = false;
    }
    best
}

/// Sweep cut: sort vertices by `score/deg`-style embedding value and take
/// the best prefix cut. Returns `(mask, conductance)` of the best sweep
/// cut, or `None` if no proper cut exists.
pub fn sweep_cut(g: &UGraph, embed: &[f64]) -> Option<(Vec<bool>, f64)> {
    assert_eq!(embed.len(), g.n());
    let csr = SupportCsr::new(g);
    if csr.len() < 2 {
        return None;
    }
    let x: Vec<[f64; 1]> = csr.verts.iter().map(|&v| [embed[v]]).collect();
    let mut order = Vec::new();
    let (len, phi) = sweep_round(&csr, &x, 0, &mut order, &mut vec![false; csr.len()])?;
    Some((csr.mask(&order[..len], g.n()), phi))
}

/// Estimate `λ₂` of the normalized Laplacian from the Rayleigh quotient of
/// the approximate Fiedler vector; `λ₂/2 ≤ conductance` (Cheeger), so this
/// yields a one-sided expansion certificate.
pub fn spectral_gap_lower_bound(g: &UGraph, iters: usize, seed: u64) -> f64 {
    let x = approx_fiedler(g, iters, seed);
    rayleigh_quotient(g, &x)
}

/// Rayleigh quotient `xᵀLx / xᵀDx` of the normalized Laplacian (an upper
/// bound on λ₂ for x ⟂ top eigenvector; after power iteration it
/// approaches λ₂ from above only if converged — we use it heuristically
/// and rely on sweep cuts for the decisive test).
pub fn rayleigh_quotient(g: &UGraph, x: &[f64]) -> f64 {
    let num: f64 = g
        .edges()
        .iter()
        .map(|&(u, v)| (x[u] - x[v]) * (x[u] - x[v]))
        .sum();
    let den: f64 = (0..g.n()).map(|v| g.degree(v) as f64 * x[v] * x[v]).sum();
    if den <= 1e-300 {
        0.0
    } else {
        num / den
    }
}

/// Decide (heuristically, one-sided) whether `g` is a `φ`-expander: run
/// three Fiedler rounds with seeds `seed`, `seed + 1` and `seed + 2`; if
/// any sweep cut has conductance `< φ` return the first sparsest one as a
/// witness, otherwise declare `g` an expander.
///
/// The rounds run in lockstep over one compact CSR of the support
/// ([`fiedler_rounds`]), built once per call with the degrees and
/// buffers; each round's vector and sweep are bit-for-bit those of a
/// lone [`approx_fiedler`] and [`sweep_cut`].
pub fn find_sparse_cut(g: &UGraph, phi: f64, seed: u64) -> Option<(Vec<bool>, f64)> {
    // a single edge's one cut has conductance 1
    if g.m() == 0 || (g.m() == 1 && phi <= 1.0) {
        return None;
    }
    let csr = SupportCsr::new(g);
    if csr.len() < 2 {
        return None;
    }
    // Disconnected graphs always have a zero-conductance cut: split off
    // the first support vertex's component, whose cut is empty.
    if let Some(side) = csr.split_component() {
        return Some((csr.mask(&side, g.n()), 0.0));
    }
    let iters = (3.0 * (g.n().max(2) as f64).ln() / phi.max(1e-3)).ceil() as usize;
    let iters = iters.clamp(12, 100);
    let seeds = [seed, seed.wrapping_add(1), seed.wrapping_add(2)];
    let x = fiedler_rounds(&csr, iters, seeds);
    let mut in_s = vec![false; csr.len()];
    let (mut order, mut best_order) = (Vec::with_capacity(csr.len()), Vec::new());
    let mut best: Option<(usize, f64)> = None;
    for r in 0..3 {
        if let Some((len, phi_cut)) = sweep_round(&csr, &x, r, &mut order, &mut in_s) {
            if best.is_none_or(|(_, b)| phi_cut < b) {
                best = Some((len, phi_cut));
                std::mem::swap(&mut order, &mut best_order);
            }
        }
    }
    let (len, phi_cut) = best.filter(|&(_, phi_cut)| phi_cut < phi)?;
    Some((csr.mask(&best_order[..len], g.n()), phi_cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    fn complete_graph(n: usize) -> UGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        UGraph::from_edges(n, edges)
    }

    fn barbell(k: usize) -> UGraph {
        // two k-cliques joined by one edge — conductance ≈ 1/k²
        let mut edges = Vec::new();
        for base in [0, k] {
            for u in 0..k {
                for v in u + 1..k {
                    edges.push((base + u, base + v));
                }
            }
        }
        edges.push((k - 1, k));
        UGraph::from_edges(2 * k, edges)
    }

    /// `approx_fiedler` before it swept only the support, verbatim: the
    /// oracle the support sweep must match bit for bit.
    fn approx_fiedler_oracle(g: &UGraph, iters: usize, seed: u64) -> Vec<f64> {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deg: Vec<f64> = (0..n).map(|v| g.degree(v) as f64).collect();
        let total: f64 = deg.iter().sum();
        if total == 0.0 {
            return vec![0.0; n];
        }
        let mut x: Vec<f64> = (0..n)
            .map(|v| {
                if deg[v] > 0.0 {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let deflate = |x: &mut Vec<f64>| {
            // remove the component along 1 in the D-inner-product (the top
            // eigenvector of the random walk)
            let c: f64 = x.iter().zip(&deg).map(|(xi, di)| xi * di).sum::<f64>() / total;
            for (xi, &di) in x.iter_mut().zip(&deg) {
                if di > 0.0 {
                    *xi -= c;
                }
            }
        };
        deflate(&mut x);
        for _ in 0..iters {
            let mut y = vec![0.0; n];
            for (u, row) in (0..n).map(|u| (u, g.neighbors(u))) {
                if deg[u] == 0.0 {
                    continue;
                }
                let mut acc = 0.0;
                for &(w, _) in row {
                    acc += x[w];
                }
                y[u] = 0.5 * x[u] + 0.5 * acc / deg[u];
            }
            deflate(&mut y);
            let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-300 {
                // eigen-gap collapsed; re-randomize
                for (v, yi) in y.iter_mut().enumerate() {
                    *yi = if deg[v] > 0.0 {
                        rng.gen_range(-1.0..1.0)
                    } else {
                        0.0
                    };
                }
                deflate(&mut y);
            } else {
                for yi in y.iter_mut() {
                    *yi /= norm;
                }
            }
            x = y;
        }
        x
    }

    /// `sweep_cut` before it swept a compact CSR, verbatim.
    fn sweep_cut_oracle(g: &UGraph, embed: &[f64]) -> Option<(Vec<bool>, f64)> {
        let n = g.n();
        assert_eq!(embed.len(), n);
        let mut order: Vec<usize> = (0..n).filter(|&v| g.degree(v) > 0).collect();
        if order.len() < 2 {
            return None;
        }
        order.sort_by(|&a, &b| embed[a].total_cmp(&embed[b]));
        let total_vol = g.total_volume();
        let mut in_s = vec![false; n];
        let mut vol = 0usize;
        let mut cut = 0usize;
        let mut best: Option<(usize, f64)> = None; // (prefix length, conductance)
        for (i, &v) in order.iter().enumerate().take(order.len() - 1) {
            in_s[v] = true;
            vol += g.degree(v);
            // update cut: edges incident to v flip status
            for &(w, _) in g.neighbors(v) {
                if w == v {
                    continue; // self loop never cut
                }
                if in_s[w] {
                    cut -= 1;
                } else {
                    cut += 1;
                }
            }
            let denom = vol.min(total_vol - vol);
            if denom == 0 {
                continue;
            }
            let phi = cut as f64 / denom as f64;
            if best.is_none() || phi < best.unwrap().1 {
                best = Some((i + 1, phi));
            }
        }
        let (len, phi) = best?;
        let mut mask = vec![false; n];
        for &v in order.iter().take(len) {
            mask[v] = true;
        }
        Some((mask, phi))
    }

    /// `find_sparse_cut` before its rounds ran in lockstep, verbatim but
    /// for calling the two oracles above: three separate rounds, each with
    /// its own support, degrees and buffers.
    fn find_sparse_cut_oracle(g: &UGraph, phi: f64, seed: u64) -> Option<(Vec<bool>, f64)> {
        if g.m() == 0 || g.support().len() < 2 {
            return None;
        }
        // Disconnected graphs always have a zero-conductance cut: split by
        // component.
        let (comp, count) = g.components();
        let support_comp: Vec<usize> = g.support().iter().map(|&v| comp[v]).collect();
        if count > 1 && support_comp.windows(2).any(|w| w[0] != w[1]) {
            let c0 = support_comp[0];
            let mask: Vec<bool> = (0..g.n()).map(|v| comp[v] == c0).collect();
            if let Some(phi_cut) = cut_conductance(g, &mask) {
                return Some((mask, phi_cut));
            }
        }
        let iters = (3.0 * (g.n().max(2) as f64).ln() / phi.max(1e-3)).ceil() as usize;
        let iters = iters.clamp(12, 100);
        let mut best: Option<(Vec<bool>, f64)> = None;
        for round in 0..3u64 {
            let x = approx_fiedler_oracle(g, iters, seed.wrapping_add(round));
            if let Some((mask, phi_cut)) = sweep_cut_oracle(g, &x) {
                if best.as_ref().is_none_or(|b| phi_cut < b.1) {
                    best = Some((mask, phi_cut));
                }
            }
        }
        match best {
            Some((mask, phi_cut)) if phi_cut < phi => Some((mask, phi_cut)),
            _ => None,
        }
    }

    /// The graphs `approx_fiedler`'s bit-identity test sweeps for seed `s`.
    fn fiedler_family(s: u64) -> Vec<UGraph> {
        let host = generators::gnm_ugraph(64, 256, s);
        let third: Vec<usize> = (0..host.m()).step_by(3).collect();
        vec![
            // many isolated vertices, as `decompose_subset` sees them
            host.edge_subgraph(&third).0,
            UGraph::from_edges(40, vec![(7, 21)]),
            // a lone self loop deflates to zero: the re-randomize path
            UGraph::from_edges(40, vec![(9, 9)]),
            UGraph::from_edges(12, vec![(0, 0), (0, 5), (5, 11), (11, 0)]),
            // no isolated vertex at all
            generators::random_regular_ugraph(32, 4, s),
        ]
    }

    #[test]
    fn find_sparse_cut_is_bit_identical_to_three_rounds() {
        let bits = |cut: Option<(Vec<bool>, f64)>| cut.map(|(mask, phi)| (mask, phi.to_bits()));
        let (mut graphs, mut swept) = (0, 0);
        for s in 0..3u64 {
            let host = generators::gnm_ugraph(65, 400, 100 + s);
            let mut family = fiedler_family(s);
            for stride in 1..=17 {
                let ids: Vec<usize> = (s as usize % stride..host.m()).step_by(stride).collect();
                let g = host.edge_subgraph(&ids).0;
                // the first support vertex's component alone: connected, with
                // isolated vertices, as the recursion's deeper subsets are
                let (comp, _) = g.components();
                let c0 = g.support().first().map(|&v| comp[v]);
                let keep: Vec<bool> = comp.iter().map(|&c| Some(c) == c0).collect();
                family.push(g.induced(&keep).0);
                family.push(g);
            }
            for (gi, g) in family.iter().enumerate() {
                graphs += 1;
                if g.support().len() >= 2 && g.components().1 == g.n() - g.support().len() + 1 {
                    swept += 1;
                }
                let csr = SupportCsr::new(g);
                for seed in [s, 77 + 1000 * s, u64::MAX - s] {
                    for phi in [0.05, 0.1, 0.3, 1.0, 2.0] {
                        assert_eq!(
                            bits(find_sparse_cut(g, phi, seed)),
                            bits(find_sparse_cut_oracle(g, phi, seed)),
                            "graph {gi} of set {s}, phi {phi}, seed {seed}"
                        );
                    }
                    // the lockstep vectors themselves, which a sweep cut
                    // reads only through their order
                    for iters in [12, 100] {
                        let seeds = [seed, seed.wrapping_add(1), seed.wrapping_add(2)];
                        let x = fiedler_rounds(&csr, iters, seeds);
                        for (r, &round_seed) in seeds.iter().enumerate() {
                            let want = approx_fiedler_oracle(g, iters, round_seed);
                            let got: Vec<u64> = x.iter().map(|xi| xi[r].to_bits()).collect();
                            let want: Vec<u64> =
                                csr.verts.iter().map(|&v| want[v].to_bits()).collect();
                            assert_eq!(got, want, "graph {gi} of set {s}, seed {seed}, round {r}");
                        }
                    }
                }
            }
        }
        // most of them reach the Fiedler rounds: a connected support of ≥ 2
        assert_eq!(graphs, 117);
        assert!(swept >= 70, "only {swept} graphs reach the rounds");
    }

    #[test]
    fn sweep_cut_is_bit_identical_to_the_full_sweep() {
        for s in 0..3u64 {
            for (gi, g) in fiedler_family(s).iter().enumerate() {
                let x = approx_fiedler_oracle(g, 30, s);
                let got = sweep_cut(g, &x).map(|(mask, phi)| (mask, phi.to_bits()));
                let want = sweep_cut_oracle(g, &x).map(|(mask, phi)| (mask, phi.to_bits()));
                assert_eq!(got, want, "seed {s}, graph {gi}");
            }
        }
    }

    #[test]
    fn approx_fiedler_is_bit_identical_to_the_full_sweep() {
        for s in 0..3u64 {
            let host = generators::gnm_ugraph(64, 256, s);
            let third: Vec<usize> = (0..host.m()).step_by(3).collect();
            let graphs = [
                // many isolated vertices, as `decompose_subset` sees them
                host.edge_subgraph(&third).0,
                UGraph::from_edges(40, vec![(7, 21)]),
                // a lone self loop deflates to zero: the re-randomize path
                UGraph::from_edges(40, vec![(9, 9)]),
                UGraph::from_edges(12, vec![(0, 0), (0, 5), (5, 11), (11, 0)]),
                // no isolated vertex at all
                generators::random_regular_ugraph(32, 4, s),
            ];
            for (gi, g) in graphs.iter().enumerate() {
                for iters in [12, 67, 100] {
                    let seed = 1000 * s + iters as u64;
                    let got: Vec<u64> = approx_fiedler(g, iters, seed)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    let want: Vec<u64> = approx_fiedler_oracle(g, iters, seed)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    assert_eq!(got, want, "seed {s}, graph {gi}, iters {iters}");
                }
            }
        }
    }

    #[test]
    fn complete_graph_has_high_conductance() {
        let g = complete_graph(8);
        let phi = exact_conductance(&g).unwrap();
        assert!(phi > 0.4, "K8 conductance {phi}");
    }

    #[test]
    fn barbell_has_low_conductance() {
        let g = barbell(5);
        let phi = exact_conductance(&g).unwrap();
        assert!(phi < 0.06, "barbell conductance {phi}");
    }

    #[test]
    fn sweep_cut_finds_barbell_bottleneck() {
        let g = barbell(6);
        let (mask, phi) = find_sparse_cut(&g, 0.3, 1).expect("should find the bridge cut");
        assert!(phi < 0.05, "found conductance {phi}");
        // the cut should separate the cliques
        let left_in: usize = (0..6).filter(|&v| mask[v]).count();
        assert!(left_in == 6 || left_in == 0, "clique split unevenly");
    }

    #[test]
    fn no_sparse_cut_in_complete_graph() {
        let g = complete_graph(12);
        assert!(find_sparse_cut(&g, 0.2, 2).is_none());
    }

    #[test]
    fn random_regular_is_expander() {
        let g = generators::random_regular_ugraph(64, 6, 7);
        assert!(
            find_sparse_cut(&g, 0.1, 3).is_none(),
            "6-regular random graph should have no cut below 0.1"
        );
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        let g = UGraph::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (mask, phi) = find_sparse_cut(&g, 0.5, 1).unwrap();
        assert_eq!(phi, 0.0);
        assert_eq!(g.cut_size(&mask), 0);
    }

    #[test]
    fn exact_matches_cut_conductance_on_witness() {
        let g = barbell(4);
        let exact = exact_conductance(&g).unwrap();
        let (mask, phi) = find_sparse_cut(&g, 1.0, 5).unwrap();
        assert!(phi >= exact - 1e-12);
        assert!((cut_conductance(&g, &mask).unwrap() - phi).abs() < 1e-12);
    }

    #[test]
    fn rayleigh_quotient_zero_for_constant_on_component() {
        let g = UGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(rayleigh_quotient(&g, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn spectral_bound_positive_for_connected() {
        let g = complete_graph(10);
        let gap = spectral_gap_lower_bound(&g, 200, 1);
        assert!(gap > 0.5, "K10 normalized gap {gap}");
    }
}
