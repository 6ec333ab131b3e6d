//! Regularized Lewis-weight maintenance (paper Theorem C.1 via
//! Theorem C.2, Algorithms 4–5).
//!
//! The paper's structure detects leverage-score drift with heavy hitters
//! and JL sketches, amortizing a full rebuild over `T = √n` queries. We
//! keep the same interface with a leaner mechanism (DESIGN.md §2): the
//! structure starts from weights the caller already holds and caches the
//! quadratic forms `quad_e = a_eᵀ(AᵀDA)⁻¹a_e` they imply. A scaled
//! coordinate's leverage is refreshed *locally* as `σ̄_e = d_e·quad_e`,
//! holding `(AᵀDA)⁻¹` at its initial value — accurate to the IPM's
//! slow-drift guarantee (eq. 13/14).
//!
//! The paper's internal rebuild is not implemented. The robust IPM
//! builds a fresh structure at every epoch boundary, from the τ it
//! refreshes there or carries over, so one structure answers at most one
//! epoch of queries.

use pmcf_pram::{Cost, Tracker};

/// The Theorem C.1 data structure.
pub struct LewisMaintenance {
    p: f64,
    z_reg: f64,
    eps: f64,
    /// Current scaling `g` of the matrix `GA`.
    g: Vec<f64>,
    /// Reported weights `τ̄`.
    tau: Vec<f64>,
    /// `τ̄` at the time each coordinate was last reported changed.
    tau_reported: Vec<f64>,
    /// Cached `a_eᵀ(AᵀDA)⁻¹a_e` implied by the initial weights.
    quad: Vec<f64>,
    dirty: Vec<usize>,
}

impl LewisMaintenance {
    /// Initialize from the weights `tau` of the scaling `g` (Theorem C.1
    /// `Initialize`, with the weights supplied by the caller): `O(m)`
    /// work, `O(1)` depth. The quadratic-form cache is derived from the
    /// given weights directly.
    pub fn from_weights(
        t: &mut Tracker,
        g: Vec<f64>,
        tau: Vec<f64>,
        p: f64,
        z_reg: f64,
        eps: f64,
    ) -> Self {
        let m = g.len();
        assert_eq!(tau.len(), m);
        let quad: Vec<f64> = (0..m)
            .map(|e| {
                let d = tau[e].powf(1.0 - 2.0 / p) * g[e] * g[e];
                ((tau[e] - z_reg).max(0.0) / d.max(1e-300)).max(0.0)
            })
            .collect();
        t.charge(Cost::par_flat(m as u64));
        LewisMaintenance {
            p,
            z_reg,
            eps,
            tau_reported: tau.clone(),
            tau,
            quad,
            dirty: Vec::new(),
            g,
        }
    }

    /// Update scalings `g_i ← b_i` (Theorem C.1 `Scale`).
    pub fn scale(&mut self, t: &mut Tracker, updates: &[(usize, f64)]) {
        t.span("ds/lewis-scale", |t| {
            t.charge(Cost::par_flat(updates.len() as u64));
            for &(i, b) in updates {
                assert!(b > 0.0, "scaling must be positive");
                self.g[i] = b;
                self.dirty.push(i);
            }
        })
    }

    /// Query (Theorem C.1 `Query`): refreshes the coordinates scaled
    /// since the last query and returns the indices whose reported `τ̄`
    /// changed (beyond ε/4 relatively) and the current weights.
    /// `O(|scaled|)` work.
    pub fn query(&mut self, t: &mut Tracker) -> (Vec<usize>, &[f64]) {
        let changed = t.span("ds/lewis-query", |t| {
            let dirty = std::mem::take(&mut self.dirty);
            t.charge(Cost::par_flat(dirty.len().max(1) as u64));
            for &i in &dirty {
                let d = self.tau[i].powf(1.0 - 2.0 / self.p) * self.g[i] * self.g[i];
                let sigma = (self.quad[i] * d).clamp(0.0, 1.0);
                self.tau[i] = sigma + self.z_reg;
            }
            // only locally-refreshed coordinates can have changed
            let mut changed = Vec::new();
            for &i in &dirty {
                let rel =
                    (self.tau[i] - self.tau_reported[i]).abs() / self.tau_reported[i].max(1e-300);
                if rel > self.eps / 4.0 {
                    self.tau_reported[i] = self.tau[i];
                    changed.push(i);
                }
            }
            t.charge(Cost::par_flat(dirty.len().max(1) as u64));
            changed
        });
        (changed, &self.tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use pmcf_linalg::leverage::exact_leverage;
    use pmcf_linalg::lewis::{exact_lewis_weights, ipm_p};

    /// A structure over `gnm_digraph(n, m, seed)` at unit scaling, started
    /// from the exact Lewis weights; returns it with `(p, z)` and the
    /// weights it started from.
    fn setup(n: usize, m: usize, seed: u64) -> (LewisMaintenance, Tracker, f64, f64, Vec<f64>) {
        let g = generators::gnm_digraph(n, m, seed);
        let p = ipm_p(n, m);
        let z = n as f64 / m as f64;
        let tau = exact_lewis_weights(&g, &vec![1.0; m], 0, p, z, 30);
        let mut t = Tracker::new();
        let lm = LewisMaintenance::from_weights(&mut t, vec![1.0; m], tau.clone(), p, z, 0.2);
        (lm, t, p, z, tau)
    }

    #[test]
    fn initial_weights_match_exact_fixed_point() {
        // at the fixed point the cached quadratic forms are the exact
        // `a_eᵀ(AᵀDA)⁻¹a_e` for `D = τ^{1−2/p}·g²`
        let (lm, _, p, _, tau) = setup(12, 48, 1);
        let g = generators::gnm_digraph(12, 48, 1);
        let d: Vec<f64> = tau.iter().map(|&te| te.powf(1.0 - 2.0 / p)).collect();
        let sigma = exact_leverage(&g, &d, 0);
        for e in 0..48 {
            let want = sigma[e] / d[e];
            assert!(
                (lm.quad[e] - want).abs() < 1e-3 * want,
                "edge {e}: {} vs {want}",
                lm.quad[e]
            );
        }
        assert_eq!(lm.tau, tau);
    }

    #[test]
    fn local_updates_track_scaled_coordinates() {
        let (mut lm, mut t, _, z, _) = setup(12, 48, 2);
        let tau_before = lm.tau[5];
        // shrink edge 5's weight a lot: its leverage (≈ d·quad) must drop
        lm.scale(&mut t, &[(5, 0.2)]);
        let (changed, tau) = lm.query(&mut t);
        assert!(changed.contains(&5), "scaled coordinate must be reported");
        assert!(
            tau[5] < tau_before,
            "τ̄[5] should drop: {} vs {}",
            tau[5],
            tau_before
        );
        assert!(tau[5] >= z, "regularizer is a floor");
    }

    #[test]
    fn quiet_queries_report_nothing() {
        let (mut lm, mut t, ..) = setup(10, 40, 3);
        let (changed, _) = lm.query(&mut t);
        assert!(changed.is_empty(), "no scales ⇒ no changes: {changed:?}");
    }
}
