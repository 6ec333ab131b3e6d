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

use pmcf_graph::UGraph;
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

/// Approximate Fiedler vector of the *normalized* Laplacian by power
/// iteration on the lazy random walk `W = (I + D⁻¹A)/2`, deflating the
/// stationary (degree) direction. Isolated vertices get value 0.
///
/// Only the support (degree > 0) is swept, in vertex order, over two
/// swapped buffers: `O(|support| + m)` per iteration, not `O(n + m)`.
/// An isolated entry is `+0.0` and stays `+0.0`, so every sum adds the
/// same nonzero terms in the same order as a sweep over all `n` entries
/// and the generator is drawn for the same vertices in the same order:
/// the result is bit-for-bit the full sweep's.
pub fn approx_fiedler(g: &UGraph, iters: usize, seed: u64) -> Vec<f64> {
    let n = g.n();
    let mut rng = SmallRng::seed_from_u64(seed);
    let deg: Vec<f64> = (0..n).map(|v| g.degree(v) as f64).collect();
    let support: Vec<usize> = (0..n).filter(|&v| deg[v] > 0.0).collect();
    let total = support_sum(&support, n, |v| deg[v]);
    if total == 0.0 {
        return vec![0.0; n];
    }
    let mut x = vec![0.0; n];
    for &v in &support {
        x[v] = rng.gen_range(-1.0..1.0);
    }
    let deflate = |x: &mut [f64]| {
        // remove the component along 1 in the D-inner-product (the top
        // eigenvector of the random walk)
        let c = support_sum(&support, n, |v| x[v] * deg[v]) / total;
        for &v in &support {
            x[v] -= c;
        }
    };
    deflate(&mut x);
    let mut y = vec![0.0; n];
    for _ in 0..iters {
        for &u in &support {
            let mut acc = 0.0;
            for &(w, _) in g.neighbors(u) {
                acc += x[w];
            }
            y[u] = 0.5 * x[u] + 0.5 * acc / deg[u];
        }
        deflate(&mut y);
        let norm = support_sum(&support, n, |v| y[v] * y[v]).sqrt();
        if norm < 1e-300 {
            // eigen-gap collapsed; re-randomize
            for &v in &support {
                y[v] = rng.gen_range(-1.0..1.0);
            }
            deflate(&mut y);
        } else {
            for &v in &support {
                y[v] /= norm;
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    x
}

/// `Σ_v term(v)` over all `n` vertices, in vertex order, where every
/// vertex outside `support` contributes `+0.0`: bit-identical to the full
/// sum. A `+0.0` term turns the `-0.0` an empty float sum starts from into
/// `+0.0` and leaves every other running sum unchanged, so once one such
/// term is present the support sum starts from `+0.0`.
fn support_sum(support: &[usize], n: usize, term: impl Fn(usize) -> f64) -> f64 {
    if support.len() == n {
        support.iter().map(|&v| term(v)).sum()
    } else {
        support.iter().fold(0.0, |acc, &v| acc + term(v))
    }
}

/// Sweep cut: sort vertices by `score/deg`-style embedding value and take
/// the best prefix cut. Returns `(mask, conductance)` of the best sweep
/// cut, or `None` if no proper cut exists.
pub fn sweep_cut(g: &UGraph, embed: &[f64]) -> Option<(Vec<bool>, f64)> {
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

/// Decide (heuristically, one-sided) whether `g` is a `φ`-expander: run a
/// few Fiedler rounds with different seeds; if any sweep cut has
/// conductance `< φ` return that cut as a witness, otherwise declare it
/// an expander.
pub fn find_sparse_cut(g: &UGraph, phi: f64, seed: u64) -> Option<(Vec<bool>, f64)> {
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
        let x = approx_fiedler(g, iters, seed.wrapping_add(round));
        if let Some((mask, phi_cut)) = sweep_cut(g, &x) {
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
