//! Instrumented parallel primitives.
//!
//! Each primitive executes on rayon (real parallelism, per the domain
//! guide's idiom of `par_iter` over slices) and charges its standard PRAM
//! cost to the supplied [`Tracker`]. Small inputs fall back to sequential
//! execution to avoid fork overhead, which does not change the charged
//! model cost.

use crate::{Cost, Tracker};
use rayon::prelude::*;

/// The workspace-wide sequential-fallback threshold: inputs shorter than
/// this run sequentially because fork overhead would dominate (the
/// charged model cost is unchanged either way). `pmcf-graph`'s incidence
/// kernels use it too.
pub const SEQ_CUTOFF: usize = 2048;

/// Parallel map: `out[i] = f(&xs[i])`. Work `n`, depth `log n + 1`.
pub fn par_map<T: Sync, U: Send>(
    t: &mut Tracker,
    xs: &[T],
    f: impl Fn(&T) -> U + Sync + Send,
) -> Vec<U> {
    t.charge_par_flat(xs.len() as u64);
    if xs.len() < SEQ_CUTOFF {
        xs.iter().map(f).collect()
    } else {
        xs.par_iter().map(f).collect()
    }
}

/// Parallel tree reduction. Work `n`, depth `log n + 1`.
pub fn par_reduce<T: Sync, U: Send + Sync + Copy>(
    t: &mut Tracker,
    xs: &[T],
    identity: U,
    map: impl Fn(&T) -> U + Sync + Send,
    combine: impl Fn(U, U) -> U + Sync + Send,
) -> U {
    t.charge(Cost::reduce(xs.len() as u64));
    if xs.len() < SEQ_CUTOFF {
        xs.iter().map(map).fold(identity, &combine)
    } else {
        xs.par_iter().map(map).reduce(|| identity, &combine)
    }
}

/// Exclusive prefix scan (Blelloch). Returns `(prefix, total)` where
/// `prefix[i] = Σ_{j<i} xs[j]`. Work `2n`, depth `2 log n + 1`.
pub fn par_exclusive_scan(t: &mut Tracker, xs: &[u64]) -> (Vec<u64>, u64) {
    t.charge(Cost::scan(xs.len() as u64));
    if xs.len() < SEQ_CUTOFF {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0u64;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        return (out, acc);
    }
    // Blocked two-pass scan: per-chunk sums, scan of sums, then local scans.
    let nchunks = rayon::current_num_threads().max(1) * 4;
    let chunk = xs.len().div_ceil(nchunks);
    let sums: Vec<u64> = xs.par_chunks(chunk).map(|c| c.iter().sum()).collect();
    let mut offsets = Vec::with_capacity(sums.len());
    let mut acc = 0u64;
    for &s in &sums {
        offsets.push(acc);
        acc += s;
    }
    let mut out = vec![0u64; xs.len()];
    out.par_chunks_mut(chunk)
        .zip(xs.par_chunks(chunk))
        .zip(offsets.par_iter())
        .for_each(|((o, c), &base)| {
            let mut a = base;
            for (oi, &ci) in o.iter_mut().zip(c) {
                *oi = a;
                a += ci;
            }
        });
    (out, acc)
}

/// Parallel filter keeping elements where `keep` is true, preserving order.
/// Work `O(n)`, depth `O(log n)` (flag + scan + scatter).
pub fn par_filter<T: Sync + Send + Clone>(
    t: &mut Tracker,
    xs: &[T],
    keep: impl Fn(&T) -> bool + Sync + Send,
) -> Vec<T> {
    // flag pass + scan + scatter
    t.charge(Cost::par_flat(xs.len() as u64).seq(Cost::scan(xs.len() as u64)));
    if xs.len() < SEQ_CUTOFF {
        xs.iter().filter(|x| keep(x)).cloned().collect()
    } else {
        xs.par_iter().filter(|x| keep(x)).cloned().collect()
    }
}

/// Parallel sort (unstable). Work `n log n`, depth `log² n`.
pub fn par_sort<T: Send + Ord>(t: &mut Tracker, xs: &mut [T]) {
    t.charge(Cost::sort(xs.len() as u64));
    if xs.len() < SEQ_CUTOFF {
        xs.sort_unstable();
    } else {
        xs.par_sort_unstable();
    }
}

/// Parallel sort by key. Same cost as [`par_sort`].
pub fn par_sort_by_key<T: Send, K: Ord>(
    t: &mut Tracker,
    xs: &mut [T],
    key: impl Fn(&T) -> K + Sync + Send,
) {
    t.charge(Cost::sort(xs.len() as u64));
    if xs.len() < SEQ_CUTOFF {
        xs.sort_unstable_by_key(key);
    } else {
        xs.par_sort_unstable_by_key(key);
    }
}

/// Dot product of two equal-length vectors. Work `2n`, depth `log n + 1`.
pub fn par_dot(t: &mut Tracker, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    t.charge(Cost::par_flat(a.len() as u64).par(Cost::reduce(a.len() as u64)));
    if a.len() < SEQ_CUTOFF {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    } else {
        a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum()
    }
}

/// Parallel tabulate: `out[i] = f(i)` for `i in 0..n`. Work `n`, depth
/// `log n + 1` (a flat parallel loop over the index range).
pub fn par_tabulate<U: Send>(
    t: &mut Tracker,
    n: usize,
    f: impl Fn(usize) -> U + Sync + Send,
) -> Vec<U> {
    t.charge_par_flat(n as u64);
    if n < SEQ_CUTOFF {
        (0..n).map(f).collect()
    } else {
        (0..n).into_par_iter().map(f).collect()
    }
}

/// Elementwise product `out[i] = a[i] * b[i]` (the preconditioner apply
/// `z = M⁻¹ r` in CG). Work `n`, depth `log n + 1`.
pub fn par_hadamard(t: &mut Tracker, a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "hadamard of mismatched lengths");
    t.charge_par_flat(a.len() as u64);
    if a.len() < SEQ_CUTOFF {
        a.iter().zip(b).map(|(x, y)| x * y).collect()
    } else {
        a.par_iter()
            .zip(b.par_iter())
            .map(|(x, y)| *x * *y)
            .collect()
    }
}

/// `y ← x + alpha * y`, elementwise (the CG direction update
/// `p = z + beta·p`). Work `n`, depth `log n + 1`.
pub fn par_xpay(t: &mut Tracker, x: &[f64], alpha: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpay of mismatched lengths");
    t.charge_par_flat(x.len() as u64);
    if x.len() < SEQ_CUTOFF {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = xi + alpha * *yi;
        }
    } else {
        y.par_iter_mut()
            .zip(x.par_iter())
            .for_each(|(yi, xi)| *yi = *xi + alpha * *yi);
    }
}

/// `y ← y + alpha * x`, elementwise.
pub fn par_axpy(t: &mut Tracker, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy of mismatched lengths");
    t.charge_par_flat(x.len() as u64);
    if x.len() < SEQ_CUTOFF {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    } else {
        y.par_iter_mut()
            .zip(x.par_iter())
            .for_each(|(yi, xi)| *yi += alpha * xi);
    }
}

/// [`par_tabulate`] writing into a caller buffer: `out[i] = f(i)`.
/// Identical charged cost; no allocation.
pub fn par_tabulate_into<U: Send>(
    t: &mut Tracker,
    out: &mut [U],
    f: impl Fn(usize) -> U + Sync + Send,
) {
    t.charge_par_flat(out.len() as u64);
    if out.len() < SEQ_CUTOFF {
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(i);
        }
    } else {
        out.par_iter_mut().enumerate().for_each(|(i, o)| *o = f(i));
    }
}

/// `y ← alpha * y`, elementwise in place. Work `n`, depth `log n + 1`.
pub fn par_scale(t: &mut Tracker, alpha: f64, y: &mut [f64]) {
    t.charge_par_flat(y.len() as u64);
    if y.len() < SEQ_CUTOFF {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    } else {
        y.par_iter_mut().for_each(|yi| *yi *= alpha);
    }
}

/// Fused CG residual update: `y ← y + alpha·x`, returning `‖y‖²` of the
/// updated vector in the same pass (the `r ← r − α·Ap; ‖r‖²` step).
///
/// Charges exactly the sequential composition of [`par_axpy`] and
/// [`par_dot`] — fusing removes a memory pass and an allocation, not
/// model cost.
pub fn par_axpy_norm2(t: &mut Tracker, alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy of mismatched lengths");
    let n = y.len() as u64;
    t.charge_par_flat(n);
    t.charge(Cost::par_flat(n).par(Cost::reduce(n)));
    if y.len() < SEQ_CUTOFF {
        let mut acc = 0.0;
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
            acc += *yi * *yi;
        }
        acc
    } else {
        y.par_iter_mut()
            .zip(x.par_iter())
            .map(|(yi, xi)| {
                *yi += alpha * xi;
                *yi * *yi
            })
            .sum()
    }
}

/// Fused preconditioner apply: `out ← a ∘ b` and `Σ aᵢ·outᵢ` in one pass
/// (the CG `z = M⁻¹r; ⟨r, z⟩` pair). Charges the sequential composition
/// of [`par_hadamard`] and [`par_dot`].
pub fn par_hadamard_dot(t: &mut Tracker, a: &[f64], b: &[f64], out: &mut [f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "hadamard of mismatched lengths");
    assert_eq!(a.len(), out.len(), "hadamard_dot output length");
    let n = a.len() as u64;
    t.charge_par_flat(n);
    t.charge(Cost::par_flat(n).par(Cost::reduce(n)));
    if a.len() < SEQ_CUTOFF {
        let mut acc = 0.0;
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
            acc += x * *o;
        }
        acc
    } else {
        out.par_iter_mut()
            .zip(a.par_iter())
            .zip(b.par_iter())
            .map(|((o, x), y)| {
                *o = x * y;
                x * *o
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential() {
        let mut t = Tracker::new();
        let xs: Vec<u64> = (0..100).collect();
        let ys = par_map(&mut t, &xs, |x| x * 2);
        assert_eq!(ys, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(t.work(), 100);
        assert_eq!(t.depth(), 9); // item depth 1 + log2_ceil(100)=7 + 1
    }

    #[test]
    fn reduce_sums() {
        let mut t = Tracker::new();
        let xs: Vec<u64> = (1..=100).collect();
        let s = par_reduce(&mut t, &xs, 0u64, |x| *x, |a, b| a + b);
        assert_eq!(s, 5050);
    }

    #[test]
    fn scan_small_and_large_agree() {
        let mut t = Tracker::new();
        for n in [0usize, 1, 7, 100, 5000] {
            let xs: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
            let (pre, total) = par_exclusive_scan(&mut t, &xs);
            let mut expect = Vec::with_capacity(n);
            let mut acc = 0;
            for &x in &xs {
                expect.push(acc);
                acc += x;
            }
            assert_eq!(pre, expect, "n={n}");
            assert_eq!(total, acc);
        }
    }

    #[test]
    fn filter_preserves_order() {
        let mut t = Tracker::new();
        let xs: Vec<u64> = (0..50).collect();
        let ys = par_filter(&mut t, &xs, |x| x % 3 == 0);
        assert_eq!(ys, (0..50).filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn sort_large_input() {
        let mut t = Tracker::new();
        let mut xs: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 10_000).collect();
        par_sort(&mut t, &mut xs);
        assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.work() >= 10_000);
    }

    #[test]
    fn dot_and_axpy() {
        let mut t = Tracker::new();
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 6.0];
        assert_eq!(par_dot(&mut t, &a, &b), 32.0);
        let mut y = vec![1.0, 1.0, 1.0];
        par_axpy(&mut t, 2.0, &a, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn tabulate_hadamard_xpay_match_sequential() {
        let mut t = Tracker::new();
        for n in [3usize, 5000] {
            let idx = par_tabulate(&mut t, n, |i| i as f64 + 1.0);
            assert_eq!(idx[0], 1.0);
            assert_eq!(idx[n - 1], n as f64);
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            let h = par_hadamard(&mut t, &a, &b);
            for i in 0..n {
                assert_eq!(h[i], a[i] * b[i], "n={n} i={i}");
            }
            let mut y = b.clone();
            par_xpay(&mut t, &a, 2.0, &mut y);
            for i in 0..n {
                assert_eq!(y[i], a[i] + 2.0 * b[i], "n={n} i={i}");
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_counterparts() {
        for n in [5usize, 5000] {
            let mut t1 = Tracker::new();
            let mut t2 = Tracker::new();
            let want = par_tabulate(&mut t1, n, |i| i as f64 * 3.0);
            let mut got = vec![0.0; n];
            par_tabulate_into(&mut t2, &mut got, |i| i as f64 * 3.0);
            assert_eq!(got, want, "n={n}");
            // identical charged costs
            assert_eq!(t1.total(), t2.total(), "n={n}");
        }
    }

    #[test]
    fn fused_axpy_norm2_matches_unfused() {
        for n in [7usize, 4096] {
            let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
            let mut y1: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            let mut y2 = y1.clone();
            let mut t1 = Tracker::new();
            let mut t2 = Tracker::new();
            par_axpy(&mut t1, 0.25, &x, &mut y1);
            let want = par_dot(&mut t1, &y1, &y1);
            let got = par_axpy_norm2(&mut t2, 0.25, &x, &mut y2);
            assert_eq!(y1, y2, "n={n}");
            assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()), "n={n}");
            assert_eq!(t1.total(), t2.total(), "fused cost must match, n={n}");
        }
    }

    #[test]
    fn fused_hadamard_dot_matches_unfused() {
        for n in [9usize, 4096] {
            let a: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 7) as f64)).collect();
            let mut t1 = Tracker::new();
            let mut t2 = Tracker::new();
            let z1 = par_hadamard(&mut t1, &a, &b);
            let want = par_dot(&mut t1, &a, &z1);
            let mut z2 = vec![0.0; n];
            let got = par_hadamard_dot(&mut t2, &a, &b, &mut z2);
            assert_eq!(z1, z2, "n={n}");
            assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()), "n={n}");
            assert_eq!(t1.total(), t2.total(), "fused cost must match, n={n}");
        }
    }

    #[test]
    fn par_scale_scales_in_place() {
        let mut t = Tracker::new();
        let mut y = vec![1.0, -2.0, 3.0];
        par_scale(&mut t, -0.5, &mut y);
        assert_eq!(y, vec![-0.5, 1.0, -1.5]);
        assert_eq!(t.work(), 3);
    }

    #[test]
    fn large_parallel_paths_match_sequential() {
        let mut t = Tracker::new();
        let xs: Vec<u64> = (0..10_000).collect();
        let ys = par_map(&mut t, &xs, |x| x + 1);
        assert_eq!(ys[9999], 10_000);
        let s = par_reduce(&mut t, &xs, 0u64, |x| *x, |a, b| a + b);
        assert_eq!(s, 10_000 * 9_999 / 2);
        let f = par_filter(&mut t, &xs, |x| x % 2 == 0);
        assert_eq!(f.len(), 5_000);
    }
}
