//! Regularized `ℓ_p` Lewis weights (paper eq. (2), Appendix A).
//!
//! For `p ∈ (0, 2)` and a scaled incidence matrix `GA`, the regularized
//! Lewis weights are the solution `τ ∈ R^m_{>0}` of
//!
//! ```text
//!   τ = σ( T^{1/2 − 1/p} · G · A ) + z        (z_e = n/m regularizer)
//! ```
//!
//! The IPM uses `p = 1 − 1/(4 log(4m/n))` ([`ipm_p`]). The fixed point
//! contracts for `p < 2` (Cohen-Peng); the regularizer keeps every
//! weight ≥ `n/m` so scalings stay bounded.
//!
//! The engines never iterate this fixed point with sketched leverage
//! scores: the robust IPM refreshes τ from one sketched leverage pass at
//! its epoch boundaries and maintains it in between
//! (`pmcf_ds::lewis_maint`). What stays here is the exponent and the
//! exact fixed point with its residual, which the tests use as an
//! oracle.

use crate::leverage::exact_leverage;
use pmcf_graph::DiGraph;

/// The Lewis-weight exponent the IPM uses: `p = 1 − 1/(4·log(4m/n))`.
pub fn ipm_p(n: usize, m: usize) -> f64 {
    let ratio = (4.0 * m as f64 / n.max(1) as f64).max(2.0);
    1.0 - 1.0 / (4.0 * ratio.log2())
}

/// Fixed-point computation of regularized Lewis weights with *exact*
/// leverage scores (test oracle, `O(iters · n³)`).
pub fn exact_lewis_weights(
    g: &DiGraph,
    scale: &[f64],
    ground: usize,
    p: f64,
    z: f64,
    iters: usize,
) -> Vec<f64> {
    let m = g.m();
    assert_eq!(scale.len(), m);
    let mut tau = vec![1.0f64.min(z * 2.0).max(z); m];
    for _ in 0..iters {
        // D = (τ^{1/2−1/p} g)² = τ^{1−2/p} g²
        let d: Vec<f64> = tau
            .iter()
            .zip(scale)
            .map(|(&t, &s)| t.powf(1.0 - 2.0 / p) * s * s)
            .collect();
        let sigma = exact_leverage(g, &d, ground);
        for (te, se) in tau.iter_mut().zip(&sigma) {
            *te = se + z;
        }
    }
    tau
}

/// Verify the Lewis-weight fixed point residual `‖τ − σ(...) − z‖_∞ / ‖τ‖_∞`
/// using exact leverage scores (diagnostic / tests).
pub fn fixed_point_residual(
    g: &DiGraph,
    scale: &[f64],
    ground: usize,
    p: f64,
    z: f64,
    tau: &[f64],
) -> f64 {
    let d: Vec<f64> = tau
        .iter()
        .zip(scale)
        .map(|(&t, &s)| t.powf(1.0 - 2.0 / p) * s * s)
        .collect();
    let sigma = exact_leverage(g, &d, ground);
    tau.iter()
        .zip(&sigma)
        .map(|(&t, &s)| (t - s - z).abs() / t.max(1e-12))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    #[test]
    fn ipm_p_is_slightly_below_one() {
        let p = ipm_p(100, 2000);
        assert!(p > 0.9 && p < 1.0, "p = {p}");
    }

    #[test]
    fn exact_fixed_point_converges() {
        let g = generators::gnm_digraph(10, 40, 1);
        let p = ipm_p(10, 40);
        let z = 10.0 / 40.0;
        let tau = exact_lewis_weights(&g, &vec![1.0; 40], 0, p, z, 30);
        let res = fixed_point_residual(&g, &vec![1.0; 40], 0, p, z, &tau);
        assert!(res < 1e-3, "fixed point residual {res}");
        // Σ τ = Σ σ + m z ≈ (n-1) + n
        let sum: f64 = tau.iter().sum();
        assert!((sum - 19.0).abs() < 0.5, "Στ = {sum}");
        assert!(tau.iter().all(|&t| t >= z));
    }

    #[test]
    fn weights_respect_scaling_invariance() {
        // Lewis weights are invariant under uniform scaling of G.
        let g = generators::gnm_digraph(8, 24, 3);
        let p = 0.9;
        let z = 8.0 / 24.0;
        let a = exact_lewis_weights(&g, &[1.0; 24], 0, p, z, 25);
        let b = exact_lewis_weights(&g, &[5.0; 24], 0, p, z, 25);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
