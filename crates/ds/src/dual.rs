//! Dual slack maintenance (paper Theorem E.1, Algorithm 9).
//!
//! Maintains `v(t) = v_init + A·Σ_{k≤t} h^{(k)}` (the IPM's dual slack
//! `s`) and reports `v̄` with per-coordinate guarantee
//! `‖w^{-1}(v̄ − v)‖_∞ ≤ ε`, in output-sensitive work: per dyadic time
//! scale `2^j` a HeavyHitter (Lemma B.1) query detects the coordinates
//! whose accumulated drift `(A·f^{(j)})_i` could have crossed the
//! threshold `0.2·w_i·ε/log n`; only those are recomputed exactly. The
//! structure reinitializes itself every `T = Θ(√n)` steps (amortized
//! `Õ(m/√n)`).
//!
//! Deviations from Algorithm 9 (DESIGN.md §2):
//!
//! * The paper *pauses* detector tracking of freshly-synced coordinates
//!   (`D_j.Scale(J, 0)` + resume at the epoch boundary) to tighten the
//!   work bound. Structural weight moves are far more expensive than the
//!   `O(1)` re-verification of a spurious candidate in practice, so
//!   detector weights stay fixed between reinitializations and
//!   candidates are simply re-verified.
//! * Without pausing, the paper's per-scale detectors would all hold the
//!   same weights `1/w` for their whole life, and a heavy query returns
//!   the exact heavy set whatever the detector's seed. So one
//!   HeavyHitter serves every scale: scale `j` queries it with its own
//!   `f^{(j)}` on its own `2^j` schedule.
//! * `SetAccuracy` is not implemented: the IPM fixes the accuracies at
//!   each (re)initialization and never changes them.

use crate::heavy_hitter::HeavyHitter;
use pmcf_graph::DiGraph;
use pmcf_pram::{Cost, Tracker};

/// The Theorem E.1 data structure.
pub struct DualMaintenance {
    graph: DiGraph,
    v_init: Vec<f64>,
    /// Maintained approximation.
    vbar: Vec<f64>,
    /// Per-coordinate accuracy weights.
    w: Vec<f64>,
    eps: f64,
    /// Accumulated `Σ h` since (re)initialization.
    fhat: Vec<f64>,
    /// Per scale j: accumulated h over the current 2^j-epoch.
    f_epoch: Vec<Vec<f64>>,
    /// The one HeavyHitter over weights 1/w that every scale queries.
    detector: HeavyHitter,
    t_step: usize,
    period: usize,
    seed: u64,
}

impl DualMaintenance {
    /// Initialize (Theorem E.1): `Õ(m)` work, `Õ(1)` depth.
    pub fn initialize(
        t: &mut Tracker,
        graph: DiGraph,
        v_init: Vec<f64>,
        w: Vec<f64>,
        eps: f64,
        seed: u64,
    ) -> Self {
        let (n, m) = (graph.n(), graph.m());
        assert_eq!(v_init.len(), m);
        assert_eq!(w.len(), m);
        assert!(w.iter().all(|&x| x > 0.0), "accuracies must be positive");
        assert!(eps > 0.0);
        let period = ((n as f64).sqrt().ceil() as usize).max(4);
        let scales = (period as f64).log2().ceil() as usize + 1;
        let inv_w: Vec<f64> = w.iter().map(|&x| 1.0 / x).collect();
        let detector = HeavyHitter::initialize(t, graph.clone(), inv_w, seed);
        DualMaintenance {
            vbar: v_init.clone(),
            fhat: vec![0.0; n],
            f_epoch: vec![vec![0.0; n]; scales],
            t_step: 0,
            period,
            seed,
            graph,
            v_init,
            w,
            eps,
            detector,
        }
    }

    fn threshold(&self, i: usize) -> f64 {
        let log_n = (self.graph.n().max(4) as f64).log2();
        0.2 * self.w[i] * self.eps / log_n
    }

    /// Exact current value of coordinate `i`.
    fn exact(&self, i: usize) -> f64 {
        let (u, v) = self.graph.endpoints(i);
        self.v_init[i] + (self.fhat[v] - self.fhat[u])
    }

    /// Verify candidates: update `v̄_i` where the drift crossed the
    /// threshold.
    fn verify(&mut self, t: &mut Tracker, candidates: &[usize]) -> Vec<usize> {
        let mut changed = Vec::new();
        for &i in candidates {
            let exact = self.exact(i);
            if (self.vbar[i] - exact).abs() >= self.threshold(i) {
                self.vbar[i] = exact;
                changed.push(i);
            }
        }
        t.charge(Cost::par_flat(candidates.len().max(1) as u64));
        changed
    }

    /// One step (`Add`): `v ← v + A·h`; returns the indices where `v̄`
    /// changed. Charged as the `n` accumulator updates plus the
    /// `scales × n` epoch-vector updates, the queries and the
    /// verification.
    pub fn add(&mut self, t: &mut Tracker, h: &[f64]) -> Vec<usize> {
        assert_eq!(h.len(), self.graph.n());
        t.span("ds/dual-add", |t| {
            if self.t_step == self.period {
                // reinitialize from the current exact state
                let exact: Vec<f64> = (0..self.graph.m()).map(|i| self.exact(i)).collect();
                t.charge(Cost::par_flat(self.graph.m() as u64));
                let fresh = DualMaintenance::initialize(
                    t,
                    self.graph.clone(),
                    exact,
                    self.w.clone(),
                    self.eps,
                    self.seed.wrapping_add(1),
                );
                let vbar_old = std::mem::take(&mut self.vbar);
                *self = fresh;
                // keep the previously reported v̄ (still within tolerance)
                self.vbar = vbar_old;
            }
            self.t_step += 1;
            for (f, &hi) in self.fhat.iter_mut().zip(h) {
                *f += hi;
            }
            t.charge(Cost::par_flat(h.len() as u64));

            let mut candidates = Vec::new();
            let log_n = (self.graph.n().max(4) as f64).log2();
            for (j, f_j) in self.f_epoch.iter_mut().enumerate() {
                for (f, &hi) in f_j.iter_mut().zip(h) {
                    *f += hi;
                }
                if self.t_step.is_multiple_of(1usize << j) {
                    let eps_q = 0.2 * self.eps / log_n;
                    candidates.extend(self.detector.heavy_query(t, f_j, eps_q));
                    f_j.fill(0.0);
                }
            }
            t.charge(Cost::par_flat((self.f_epoch.len() * h.len()) as u64));
            candidates.sort_unstable();
            candidates.dedup();
            self.verify(t, &candidates)
        })
    }

    /// The maintained approximation.
    pub fn vbar(&self) -> &[f64] {
        &self.vbar
    }

    /// Exact `v(t)` (`ComputeExact`): `Õ(m)`.
    pub fn compute_exact(&self, t: &mut Tracker) -> Vec<f64> {
        t.charge(Cost::par_flat(self.graph.m() as u64));
        (0..self.graph.m()).map(|i| self.exact(i)).collect()
    }

    /// Check the invariant `‖w^{-1}(v̄ − v)‖_∞ ≤ ε` (test helper).
    pub fn max_weighted_error(&self) -> f64 {
        (0..self.graph.m())
            .map(|i| (self.vbar[i] - self.exact(i)).abs() / self.w[i])
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tracks_slack_within_tolerance() {
        let g = generators::gnm_digraph(20, 80, 1);
        let mut t = Tracker::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let v0: Vec<f64> = (0..80).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut dm = DualMaintenance::initialize(&mut t, g.clone(), v0, vec![1.0; 80], 0.5, 3);
        for _ in 0..25 {
            let h: Vec<f64> = (0..20).map(|_| rng.gen_range(-0.05..0.05)).collect();
            let _ = dm.add(&mut t, &h);
            assert!(
                dm.max_weighted_error() <= 0.5 + 1e-9,
                "error {}",
                dm.max_weighted_error()
            );
        }
    }

    #[test]
    fn large_update_reported_immediately() {
        let g = generators::gnm_digraph(10, 30, 4);
        let mut t = Tracker::new();
        let mut dm =
            DualMaintenance::initialize(&mut t, g.clone(), vec![0.0; 30], vec![0.1; 30], 0.5, 5);
        // a big potential jump at one vertex must surface all its edges
        let mut h = vec![0.0; 10];
        h[3] = 10.0;
        let changed = dm.add(&mut t, &h);
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            if u == 3 || v == 3 {
                assert!(changed.contains(&e), "edge {e} at hot vertex not reported");
                assert!((dm.vbar()[e].abs() - 10.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn survives_reinitialization_period() {
        let g = generators::gnm_digraph(16, 60, 6);
        let mut t = Tracker::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut dm =
            DualMaintenance::initialize(&mut t, g.clone(), vec![0.0; 60], vec![1.0; 60], 0.3, 8);
        // period = ⌈√16⌉ = 4: run far beyond it
        let mut reference = [0.0f64; 16];
        for _ in 0..20 {
            let h: Vec<f64> = (0..16).map(|_| rng.gen_range(-0.2..0.2)).collect();
            for (r, &hi) in reference.iter_mut().zip(&h) {
                *r += hi;
            }
            let _ = dm.add(&mut t, &h);
        }
        let exact = dm.compute_exact(&mut t);
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let want = reference[v] - reference[u];
            assert!((exact[e] - want).abs() < 1e-9, "edge {e}");
        }
        assert!(dm.max_weighted_error() <= 0.3 + 1e-9);
    }

    #[test]
    fn initialize_decomposes_each_edge_once() {
        // n = 64 gives four time scales; all of them share one detector,
        // so each edge enters an expander decomposition exactly once
        let g = generators::gnm_digraph(64, 512, 13);
        let mut t = Tracker::profiled();
        let w: Vec<f64> = (0..512).map(|e| 0.5 + (e % 5) as f64).collect();
        let _ = DualMaintenance::initialize(&mut t, g, vec![0.0; 512], w, 0.5, 14);
        let counters = t.profile_report().expect("profiled").counters;
        assert_eq!(counters["expander.inserted_edges"], 512);
    }

    #[test]
    fn quiet_steps_cost_little() {
        let g = generators::gnm_digraph(256, 2048, 11);
        let mut t = Tracker::new();
        let mut dm = DualMaintenance::initialize(
            &mut t,
            g.clone(),
            vec![0.0; 2048],
            vec![1.0; 2048],
            0.5,
            12,
        );
        t.reset();
        let h = vec![0.0; 256]; // zero update: nothing to report
        let _ = dm.add(&mut t, &h);
        assert!(
            t.work() < 3000,
            "quiet step cost {} should be ≈ n, ≪ m",
            t.work()
        );
    }
}
