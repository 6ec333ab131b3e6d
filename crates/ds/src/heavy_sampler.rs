//! The HeavySampler (paper Theorem E.2, Algorithm 10).
//!
//! Each IPM step sparsifies part of `δ_x` through a random diagonal
//! matrix `R` with `R_ii = 1/p_i` w.p. `p_i`, where
//!
//! ```text
//!   p_i ≥ min{ 1, C₁·(m/√n)·(GAh)_i²/‖GAh‖² + C₂/√n + C₃·n·τ_i/‖τ‖₁ }
//! ```
//!
//! — a mixture of gradient-proportional sampling (via the HeavyHitter's
//! expander decomposition), uniform `1/√n` sampling, and Lewis-weight
//! proportional sampling (via the τ-sampler). Output size and work are
//! `Õ(m/√n + n)` per step instead of `Θ(m)`.

use crate::heavy_hitter::HeavyHitter;
use crate::tau_sampler::TauSampler;
use pmcf_graph::DiGraph;
use pmcf_pram::{Cost, Tracker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The Theorem E.2 data structure.
pub struct HeavySampler {
    hitter: HeavyHitter,
    tau: TauSampler,
    m: usize,
    n: usize,
    rng: SmallRng,
}

impl HeavySampler {
    /// Initialize over `graph` with gradient scaling `g` and Lewis
    /// weights `tau` (Theorem E.2 `Initialize`): `Õ(m)` work.
    pub fn initialize(
        t: &mut Tracker,
        graph: DiGraph,
        g: Vec<f64>,
        tau: Vec<f64>,
        seed: u64,
    ) -> Self {
        let (n, m) = (graph.n(), graph.m());
        let hitter = HeavyHitter::initialize(t, graph, g, seed);
        let tau = TauSampler::initialize(t, n, tau, seed ^ 0xabcdef);
        HeavySampler {
            hitter,
            tau,
            m,
            n,
            rng: SmallRng::seed_from_u64(seed ^ 0x123456),
        }
    }

    /// Update `g_i ← a_i`, `τ_i ← b_i` (Theorem E.2 `Scale`).
    pub fn scale(&mut self, t: &mut Tracker, updates: &[(usize, f64, f64)]) {
        t.span("ds/sampler-scale", |t| {
            let gs: Vec<(usize, f64)> = updates.iter().map(|&(i, a, _)| (i, a)).collect();
            let ts: Vec<(usize, f64)> = updates.iter().map(|&(i, _, b)| (i, b)).collect();
            self.hitter.scale(t, &gs);
            self.tau.scale(t, &ts);
        })
    }

    /// All edges with `τ_e ≥ threshold` (output-sensitive; used to pin
    /// the high-leverage edges of the spectral sparsifier).
    pub fn tau_above(&self, t: &mut Tracker, threshold: f64) -> Vec<usize> {
        self.tau.indices_above(t, threshold)
    }

    /// Output-sensitive spectral-sparsifier sampling: edges sampled with
    /// probability `p_e ≥ k_scale·σ_e` via the HeavyHitter's expander
    /// parts (the role of Lemma B.1's `LeverageScoreSample`, played by
    /// [`HeavyHitter::sparsify_sample`]), returned with their sampling
    /// probabilities for inverse-probability reweighting.
    pub fn leverage_sample(&mut self, t: &mut Tracker, k_scale: f64) -> Vec<(usize, f64)> {
        self.hitter.sparsify_sample(t, k_scale)
    }

    /// Sample the diagonal `R` (Theorem E.2 `Sample`): returns sparse
    /// `(i, R_ii)` pairs. W.h.p. `Õ((C₁+C₂)m/√n + C₃n)` entries and work.
    pub fn sample(
        &mut self,
        t: &mut Tracker,
        h: &[f64],
        c1: f64,
        c2: f64,
        c3: f64,
    ) -> Vec<(usize, f64)> {
        t.span("ds/sampler-sample", |t| {
            let sqrt_n = (self.n as f64).sqrt();
            // three candidate streams
            let i_u = self.tau.sample(t, 3.0 * c3);
            let k_grad = 3.0 * c1 * self.m as f64 / sqrt_n;
            // the gradient stream's potentials serve its probabilities too
            let (i_v, pot) = self.hitter.sample(t, h, k_grad);
            // uniform stream: Binomial(m, q) then distinct indices
            let q_unif = (3.0 * c2 / sqrt_n).min(1.0);
            let expect = (self.m as f64 * q_unif).ceil() as usize;
            let mut i_w = Vec::with_capacity(expect);
            if q_unif >= 1.0 {
                i_w.extend(0..self.m);
            } else if q_unif > 0.0 {
                let cnt = {
                    let mut c = 0usize;
                    if self.m <= 128 {
                        for _ in 0..self.m {
                            if self.rng.gen_bool(q_unif) {
                                c += 1;
                            }
                        }
                    } else {
                        c = expect.min(self.m);
                    }
                    c
                };
                let mut chosen = std::collections::HashSet::with_capacity(cnt);
                while chosen.len() < cnt {
                    chosen.insert(self.rng.gen_range(0..self.m));
                }
                let mut picks: Vec<usize> = chosen.into_iter().collect();
                picks.sort_unstable();
                i_w.extend(picks);
            }
            t.charge(Cost::par_flat((i_w.len() + 1) as u64));

            // candidate union
            let mut cand: Vec<usize> = i_u.iter().chain(&i_v).chain(&i_w).copied().collect();
            cand.sort_unstable();
            cand.dedup();

            // per-candidate probabilities of each stream
            let u_p = self.tau.probability(t, &cand, 3.0 * c3);
            let v_p = self.hitter.probability(t, &cand, h, &pot);
            let mut out = Vec::with_capacity(cand.len());
            for (j, &i) in cand.iter().enumerate() {
                let (u, v, w) = (u_p[j], v_p[j], q_unif);
                let p = (u + v + w).min(1.0);
                let any = 1.0 - (1.0 - u) * (1.0 - v) * (1.0 - w);
                if any <= 0.0 {
                    continue;
                }
                // i ∈ candidates with prob `any`; accept with p/any to make
                // the final inclusion probability exactly p (Algorithm 10)
                let accept = (p / any).min(1.0);
                if self.rng.gen_bool(accept) {
                    out.push((i, 1.0 / p));
                }
            }
            t.charge(Cost::par_flat(cand.len().max(1) as u64));
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    fn setup(n: usize, m: usize, seed: u64) -> (HeavySampler, DiGraph, Tracker) {
        let g = generators::gnm_digraph(n, m, seed);
        let mut t = Tracker::new();
        let tau: Vec<f64> = vec![2.0 * n as f64 / m as f64; m];
        let hs = HeavySampler::initialize(&mut t, g.clone(), vec![1.0; m], tau, seed);
        (hs, g, t)
    }

    #[test]
    fn output_size_is_sublinear() {
        let (mut hs, _, mut t) = setup(144, 1728, 1); // m = n^1.5
        let h = vec![0.0; 144];
        let mut sizes = Vec::new();
        for _ in 0..5 {
            let r = hs.sample(&mut t, &h, 1.0, 1.0, 1.0);
            sizes.push(r.len());
        }
        let avg: f64 = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // Õ(m/√n + n) = 1728/12 + 144 = 288 · constants; must beat m
        assert!(avg < 1400.0, "average sample size {avg} ≥ m-ish");
        assert!(avg > 10.0, "sampler returned almost nothing: {avg}");
    }

    #[test]
    fn entries_are_inverse_probabilities() {
        let (mut hs, _, mut t) = setup(36, 200, 2);
        let h = vec![0.0; 36];
        let r = hs.sample(&mut t, &h, 1.0, 1.0, 1.0);
        for &(i, rii) in &r {
            assert!(i < 200);
            assert!(rii >= 1.0, "R_ii = 1/p_i ≥ 1, got {rii}");
        }
    }

    #[test]
    fn unbiased_in_expectation() {
        // E[R_ii] = 1 for every i: estimate by averaging over many draws
        let (mut hs, _, mut t) = setup(25, 120, 3);
        let h = vec![0.0; 25];
        let rounds = 800;
        let mut acc = vec![0.0f64; 120];
        for _ in 0..rounds {
            for (i, rii) in hs.sample(&mut t, &h, 1.0, 1.0, 1.0) {
                acc[i] += rii;
            }
        }
        let mean: f64 = acc.iter().sum::<f64>() / (120.0 * rounds as f64);
        assert!((mean - 1.0).abs() < 0.15, "E[R_ii] should be 1, got {mean}");
    }

    #[test]
    fn gradient_direction_boosts_heavy_edges() {
        let (mut hs, g, mut t) = setup(30, 150, 4);
        let mut h = vec![0.0; 30];
        h[7] = 5.0;
        let mut counts = vec![0usize; 150];
        for _ in 0..60 {
            for (i, _) in hs.sample(&mut t, &h, 4.0, 0.2, 0.2) {
                counts[i] += 1;
            }
        }
        let incident: usize = g
            .edges()
            .iter()
            .enumerate()
            .filter(|&(_, &(u, v))| u == 7 || v == 7)
            .map(|(e, _)| counts[e])
            .sum();
        let per_incident =
            incident as f64 / g.edges().iter().filter(|&&(u, v)| u == 7 || v == 7).count() as f64;
        let per_other = (counts.iter().sum::<usize>() - incident) as f64
            / (150 - g.edges().iter().filter(|&&(u, v)| u == 7 || v == 7).count()) as f64;
        assert!(
            per_incident > 1.5 * per_other,
            "incident rate {per_incident} vs other {per_other}"
        );
    }

    #[test]
    fn scale_updates_both_structures() {
        let (mut hs, _, mut t) = setup(20, 80, 5);
        hs.scale(&mut t, &[(0, 4.0, 1.0), (1, 0.25, 3.0)]);
        // no panic + sampling still works
        let h = vec![0.1; 20];
        let r = hs.sample(&mut t, &h, 1.0, 1.0, 1.0);
        assert!(!r.is_empty());
    }
}
