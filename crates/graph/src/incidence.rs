//! Matrix-free application of the edge-vertex incidence matrix.
//!
//! For a directed graph, `A ∈ {-1,0,1}^{m×n}` has `A[e, tail(e)] = -1`
//! and `A[e, head(e)] = +1` (paper, Appendix A "Graph Matrices"). The IPM
//! only ever needs `A h` (a per-edge potential difference), `Aᵀ x` (a
//! per-vertex net inflow), and the SDD matvec `Aᵀ D A y`. All are applied
//! matrix-free off the CSR graph with PRAM costs charged to the tracker.
//!
//! The IPM requires `A` to have full rank, achieved by deleting one
//! column (the *grounded* vertex, paper Fact 7.3 of [vdBLL+21]). We keep
//! n-dimensional vectors and pin the grounded coordinate to zero, which
//! is algebraically identical.
//!
//! Every kernel has an `_into` variant writing into a caller buffer
//! (zero allocations — the CG hot loop runs exclusively on those), and
//! the SDD matvec additionally has a **fused** form
//! ([`apply_laplacian_fused_into`]) that computes `(AᵀDA y)_v` in one
//! pass over the CSR in/out edge lists without materializing the
//! `m`-length intermediate `D·A·y`. Fusion changes the memory traffic,
//! not the model: the fused kernel charges exactly the cost of the
//! unfused composition (proptest-pinned).

use crate::DiGraph;
use pmcf_pram::{Cost, Tracker, SEQ_CUTOFF};
use rayon::prelude::*;

/// `(A h)_e = h[head(e)] - h[tail(e)]` for every edge.
pub fn apply_a(t: &mut Tracker, g: &DiGraph, h: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; g.m()];
    apply_a_into(t, g, h, &mut out);
    out
}

/// [`apply_a`] writing into a caller buffer of length `m`.
pub fn apply_a_into(t: &mut Tracker, g: &DiGraph, h: &[f64], out: &mut [f64]) {
    assert_eq!(h.len(), g.n());
    assert_eq!(out.len(), g.m());
    t.charge(Cost::par_flat(g.m() as u64));
    let edges = g.edges();
    if edges.len() < SEQ_CUTOFF {
        for (o, &(u, v)) in out.iter_mut().zip(edges) {
            *o = h[v] - h[u];
        }
    } else {
        out.par_iter_mut()
            .zip(edges.par_iter())
            .for_each(|(o, &(u, v))| *o = h[v] - h[u]);
    }
}

/// `(Aᵀ x)_v = Σ_{e into v} x_e − Σ_{e out of v} x_e` for every vertex.
///
/// Parallel over vertices using the CSR in/out lists (no atomics needed).
pub fn apply_at(t: &mut Tracker, g: &DiGraph, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; g.n()];
    apply_at_into(t, g, x, &mut out);
    out
}

/// The charged cost of one `Aᵀ` apply: each vertex sums over its
/// incident edges — total work Θ(m), depth O(log max-degree) for the
/// per-vertex reduction.
fn at_cost(g: &DiGraph) -> Cost {
    Cost::new(
        (g.m() as u64) * 2 + g.n() as u64,
        pmcf_pram::par_depth(g.n() as u64) + pmcf_pram::log2_ceil(g.m() as u64 + 1),
    )
}

/// [`apply_at`] writing into a caller buffer of length `n`.
pub fn apply_at_into(t: &mut Tracker, g: &DiGraph, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), g.m());
    assert_eq!(out.len(), g.n());
    t.charge(at_cost(g));
    let body = |v: usize| -> f64 {
        let mut acc = 0.0;
        for &e in g.in_edges(v) {
            acc += x[e];
        }
        for &e in g.out_edges(v) {
            acc -= x[e];
        }
        acc
    };
    if g.n() < SEQ_CUTOFF {
        for (v, o) in out.iter_mut().enumerate() {
            *o = body(v);
        }
    } else {
        out.par_iter_mut()
            .enumerate()
            .for_each(|(v, o)| *o = body(v));
    }
}

/// The SDD / grounded-Laplacian matvec `y ↦ Aᵀ D A y`, where `D = diag(d)`
/// with positive entries and the `ground` coordinate of input and output
/// is pinned to zero (column-deleted `A`).
///
/// This is the *unfused* composition (edge pass, scale, vertex gather),
/// kept as the oracle the fused kernel is proptest-pinned against.
pub fn apply_laplacian(
    t: &mut Tracker,
    g: &DiGraph,
    d: &[f64],
    ground: usize,
    y: &[f64],
) -> Vec<f64> {
    assert_eq!(d.len(), g.m());
    assert_eq!(y.len(), g.n());
    debug_assert!(y[ground] == 0.0, "grounded coordinate must be zero");
    let mut ay = apply_a(t, g, y);
    t.charge(Cost::par_flat(g.m() as u64));
    if ay.len() < SEQ_CUTOFF {
        for (a, w) in ay.iter_mut().zip(d) {
            *a *= w;
        }
    } else {
        ay.par_iter_mut()
            .zip(d.par_iter())
            .for_each(|(a, w)| *a *= w);
    }
    let mut out = apply_at(t, g, &ay);
    out[ground] = 0.0;
    out
}

/// Fused `Aᵀ D A y`: one vertex-parallel pass over the CSR in/out edge
/// lists, no `m`-length intermediate.
///
/// Per vertex `v` (with `x_e = d_e·(y_head − y_tail)` inlined):
///
/// ```text
///   out[v] = Σ_{e into v} d_e·(y_v − y_tail(e))
///          − Σ_{e out of v} d_e·(y_head(e) − y_v)
/// ```
///
/// Charges exactly what the unfused composition charges — an edge pass
/// (`A`), a scale pass (`D`), and the vertex gather (`Aᵀ`) — so model
/// work/depth are bit-identical while the real execution touches memory
/// once ([`crate::incidence`] module docs; pinned by proptest).
pub fn apply_laplacian_fused(
    t: &mut Tracker,
    g: &DiGraph,
    d: &[f64],
    ground: usize,
    y: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.0; g.n()];
    apply_laplacian_fused_into(t, g, d, ground, y, &mut out);
    out
}

/// [`apply_laplacian_fused`] writing into a caller buffer of length `n`
/// (the zero-allocation CG matvec).
pub fn apply_laplacian_fused_into(
    t: &mut Tracker,
    g: &DiGraph,
    d: &[f64],
    ground: usize,
    y: &[f64],
    out: &mut [f64],
) {
    assert_eq!(d.len(), g.m());
    assert_eq!(y.len(), g.n());
    assert_eq!(out.len(), g.n());
    debug_assert!(y[ground] == 0.0, "grounded coordinate must be zero");
    // identical charge to the unfused path: A pass, D scale, Aᵀ gather
    t.charge(Cost::par_flat(g.m() as u64));
    t.charge(Cost::par_flat(g.m() as u64));
    t.charge(at_cost(g));
    let body = |v: usize| -> f64 {
        let yv = y[v];
        let mut acc = 0.0;
        for &e in g.in_edges(v) {
            acc += d[e] * (yv - y[g.tail(e)]);
        }
        for &e in g.out_edges(v) {
            acc -= d[e] * (y[g.head(e)] - yv);
        }
        acc
    };
    if g.n() < SEQ_CUTOFF {
        for (v, o) in out.iter_mut().enumerate() {
            *o = body(v);
        }
    } else {
        out.par_iter_mut()
            .enumerate()
            .for_each(|(v, o)| *o = body(v));
    }
    out[ground] = 0.0;
}

/// Dense representation of `Aᵀ D A` with the grounded row/column zeroed
/// except for a 1 on the diagonal (for small-instance test oracles).
///
/// Thin nested-`Vec` wrapper over the row-major flat builder
/// ([`grounded_laplacian_flat`]); `pmcf_linalg::dense::DenseMat` wraps
/// the same flat storage without the per-row indirection.
pub fn dense_grounded_laplacian(g: &DiGraph, d: &[f64], ground: usize) -> Vec<Vec<f64>> {
    let n = g.n();
    let flat = grounded_laplacian_flat(g, d, ground);
    flat.chunks(n).map(<[f64]>::to_vec).collect()
}

/// Row-major contiguous `n×n` dense grounded Laplacian (the storage the
/// dense oracles actually factorize; entry `(i, j)` is `flat[i*n + j]`).
pub fn grounded_laplacian_flat(g: &DiGraph, d: &[f64], ground: usize) -> Vec<f64> {
    let n = g.n();
    let mut l = vec![0.0; n * n];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        let w = d[e];
        l[u * n + u] += w;
        l[v * n + v] += w;
        l[u * n + v] -= w;
        l[v * n + u] -= w;
    }
    for row in 0..n {
        l[row * n + ground] = 0.0;
    }
    l[ground * n..(ground + 1) * n].fill(0.0);
    l[ground * n + ground] = 1.0;
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn apply_a_is_potential_difference() {
        let g = diamond();
        let mut t = Tracker::new();
        let h = vec![0.0, 1.0, 2.0, 3.0];
        let ah = apply_a(&mut t, &g, &h);
        assert_eq!(ah, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(t.work() >= 4);
    }

    #[test]
    fn apply_at_is_net_inflow() {
        let g = diamond();
        let mut t = Tracker::new();
        let x = vec![1.0, 2.0, 1.0, 2.0];
        let atx = apply_at(&mut t, &g, &x);
        // vertex 0: -1-2 = -3; vertex 1: +1-1 = 0; vertex 2: +2-2 = 0; vertex 3: +1+2 = 3
        assert_eq!(atx, vec![-3.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn a_and_at_are_adjoint() {
        // <A h, x> == <h, A^T x>
        let g = diamond();
        let mut t = Tracker::new();
        let h = vec![0.5, -1.0, 2.0, 0.25];
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let ah = apply_a(&mut t, &g, &h);
        let atx = apply_at(&mut t, &g, &x);
        let lhs: f64 = ah.iter().zip(&x).map(|(a, b)| a * b).sum();
        let rhs: f64 = h.iter().zip(&atx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let g = diamond();
        let mut t1 = Tracker::new();
        let mut t2 = Tracker::new();
        let h = vec![0.5, -1.0, 2.0, 0.25];
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let ah = apply_a(&mut t1, &g, &h);
        let mut ah2 = vec![9.9; 4];
        apply_a_into(&mut t2, &g, &h, &mut ah2);
        assert_eq!(ah, ah2);
        let atx = apply_at(&mut t1, &g, &x);
        let mut atx2 = vec![9.9; 4];
        apply_at_into(&mut t2, &g, &x, &mut atx2);
        assert_eq!(atx, atx2);
        assert_eq!(t1.total(), t2.total());
    }

    #[test]
    fn laplacian_matvec_matches_dense() {
        let g = diamond();
        let mut t = Tracker::new();
        let d = vec![1.0, 2.0, 3.0, 4.0];
        let ground = 0;
        let mut y = vec![0.0, 1.0, -1.0, 2.0];
        y[ground] = 0.0;
        let got = apply_laplacian(&mut t, &g, &d, ground, &y);
        let dense = dense_grounded_laplacian(&g, &d, ground);
        for i in 0..4 {
            let want: f64 = (0..4).map(|j| dense[i][j] * y[j]).sum();
            if i == ground {
                assert_eq!(got[i], 0.0);
            } else {
                assert!(
                    (got[i] - want).abs() < 1e-12,
                    "row {i}: {} vs {want}",
                    got[i]
                );
            }
        }
    }

    #[test]
    fn fused_laplacian_matches_unfused_values_and_cost() {
        let g = diamond();
        let d = vec![1.0, 2.0, 3.0, 4.0];
        for ground in 0..4 {
            let mut y = vec![0.7, 1.0, -1.0, 2.0];
            y[ground] = 0.0;
            let mut t1 = Tracker::new();
            let mut t2 = Tracker::new();
            let unfused = apply_laplacian(&mut t1, &g, &d, ground, &y);
            let fused = apply_laplacian_fused(&mut t2, &g, &d, ground, &y);
            for (i, (a, b)) in unfused.iter().zip(&fused).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "ground {ground} coord {i}: {a} vs {b}"
                );
            }
            assert_eq!(t1.total(), t2.total(), "fused must charge identically");
        }
    }

    #[test]
    fn fused_into_reuses_dirty_buffer() {
        let g = diamond();
        let d = vec![2.0, 1.0, 0.5, 4.0];
        let y = vec![0.0, 1.0, -2.0, 0.25];
        let mut t = Tracker::new();
        let want = apply_laplacian_fused(&mut t, &g, &d, 0, &y);
        let mut out = vec![123.0; 4];
        apply_laplacian_fused_into(&mut t, &g, &d, 0, &y, &mut out);
        assert_eq!(want, out, "stale buffer contents must be overwritten");
    }

    #[test]
    fn flat_and_nested_dense_laplacians_agree() {
        let g = diamond();
        let d = vec![1.5, 2.0, 0.25, 4.0];
        let nested = dense_grounded_laplacian(&g, &d, 1);
        let flat = grounded_laplacian_flat(&g, &d, 1);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(nested[i][j], flat[i * 4 + j], "({i},{j})");
            }
        }
    }

    #[test]
    fn laplacian_annihilates_constants_when_ungrounded() {
        // A * 1 = 0, so A^T D A 1 = 0 (check via per-coordinate identity
        // before grounding).
        let g = diamond();
        let mut t = Tracker::new();
        let ones = vec![1.0; 4];
        let a1 = apply_a(&mut t, &g, &ones);
        assert!(a1.iter().all(|&x| x == 0.0));
    }
}
