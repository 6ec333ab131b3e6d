//! The two-sided logarithmic barrier (paper eq. (2)).
//!
//! ```text
//!   φ(x)_i  = −log x_i − log(u_i − x_i)
//!   φ'(x)_i = −1/x_i + 1/(u_i − x_i)
//!   φ''(x)_i = 1/x_i² + 1/(u_i − x_i)²
//! ```

/// Barrier value for one coordinate.
#[inline]
pub fn phi(x: f64, u: f64) -> f64 {
    debug_assert!(x > 0.0 && x < u);
    -x.ln() - (u - x).ln()
}

/// First derivative.
#[inline]
pub fn dphi(x: f64, u: f64) -> f64 {
    -1.0 / x + 1.0 / (u - x)
}

/// Second derivative (always positive).
#[inline]
pub fn ddphi(x: f64, u: f64) -> f64 {
    1.0 / (x * x) + 1.0 / ((u - x) * (u - x))
}

/// Vectorized `φ''`.
pub fn ddphi_vec(x: &[f64], u: &[f64]) -> Vec<f64> {
    x.iter().zip(u).map(|(&xi, &ui)| ddphi(xi, ui)).collect()
}

/// Clamp a point into the strict interior with margin `θ·u`.
pub fn clamp_interior(x: &mut [f64], u: &[f64], theta: f64) {
    for (xi, &ui) in x.iter_mut().zip(u) {
        let lo = theta * ui;
        let hi = (1.0 - theta) * ui;
        *xi = xi.clamp(lo, hi);
    }
}

/// Absolute lower interior guard used by [`clamp_interior_soft`].
///
/// Must stay far below the smallest central-path value `μτ/s` any valid
/// instance can produce (`μ ≥ 1e-2`-ish, `s ≤ big_M < 2^62`, so
/// `μτ/s ≳ 1e-21`) while keeping `1/x²` finite in `f64` (`1e60 ≪ f64::MAX`).
pub const INTERIOR_LO_ABS: f64 = 1e-30;

/// Like [`clamp_interior`], but the lower guard is *absolute*, not
/// relative to `u`.
///
/// On huge-capacity edges (e.g. the big-`M` auxiliary arcs of a max-flow
/// reduction) the central-path value `x ≈ μτ/s` is absolute-small — far
/// below any relative floor `θ·u`. A relative lower clamp teleports such
/// an edge orders of magnitude above the central path every time it is
/// applied, and the Newton corrector then burns its whole budget walking
/// the edge back down through a globally crushed step size. The lower
/// guard therefore only protects against non-positive values and is
/// absolute-tiny. The upper guard stays relative: a gap below
/// `u·ε_machine` is not representable in `f64` anyway.
pub fn clamp_interior_soft(x: &mut [f64], u: &[f64], theta: f64) {
    for (xi, &ui) in x.iter_mut().zip(u) {
        let lo = (theta * ui).min(INTERIOR_LO_ABS);
        let hi = (1.0 - theta) * ui;
        *xi = xi.clamp(lo, hi);
    }
}

/// Repair coordinates that float rounding pushed onto (or past) a box
/// bound after a damped Newton update.
///
/// The 0.9-damped line search keeps `x` strictly interior in exact
/// arithmetic — each step multiplies the gap to the blocking bound by at
/// least 0.1 — but once that gap shrinks below an ulp of `u`, the update
/// `x + α·δx` rounds onto the bound *exactly*, `φ''` becomes infinite,
/// and every conductance derived from it collapses to zero. Warm starts
/// can pin a coordinate that hard (a stale warm point at the wrong bound
/// drives many consecutive correctors into the same bound); cold runs
/// never get close, so only out-of-interior coordinates are touched and
/// healthy runs are bit-identical with or without the repair.
pub fn repair_bound_rounding(x: &mut [f64], u: &[f64]) {
    for (xi, &ui) in x.iter_mut().zip(u) {
        if *xi < INTERIOR_LO_ABS {
            *xi = INTERIOR_LO_ABS.min(0.5 * ui);
        } else if *xi >= ui {
            *xi = ui * (1.0 - f64::EPSILON);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_signs_and_symmetry() {
        // center of the box: φ' = 0, φ'' = 8/u²
        assert_eq!(dphi(0.5, 1.0), 0.0);
        assert!((ddphi(0.5, 1.0) - 8.0).abs() < 1e-12);
        // close to 0: φ' very negative; close to u: very positive
        assert!(dphi(0.01, 1.0) < -90.0);
        assert!(dphi(0.99, 1.0) > 90.0);
    }

    #[test]
    fn numeric_derivative_matches() {
        let (x, u, h) = (0.3, 2.0, 1e-6);
        let num1 = (phi(x + h, u) - phi(x - h, u)) / (2.0 * h);
        assert!((num1 - dphi(x, u)).abs() < 1e-5);
        let num2 = (dphi(x + h, u) - dphi(x - h, u)) / (2.0 * h);
        assert!((num2 - ddphi(x, u)).abs() < 1e-4);
    }

    #[test]
    fn clamp_keeps_interior() {
        let mut x = vec![-1.0, 0.5, 5.0];
        let u = vec![1.0, 1.0, 2.0];
        clamp_interior(&mut x, &u, 0.01);
        assert!(x[0] >= 0.01 && x[2] <= 1.98);
        assert_eq!(x[1], 0.5);
    }
}
