//! Combined primal/gradient maintenance (paper Theorem D.1,
//! Algorithm 8): [`crate::gradient::GradientReduction`] computes the
//! steepest-descent step direction in a `K`-dimensional bucket space;
//! [`crate::accumulator::GradientAccumulator`] accumulates those steps
//! into a per-coordinate-accurate approximation of the primal iterate
//! `x(t)` — together giving `Õ(n)`-work iterations instead of `Θ(m)`.
//!
//! A step travels between the two as sparse `(bucket, s_k)` pairs over
//! the occupied buckets, so no call sweeps the whole `K` grid. Each
//! method runs under its own span (`ds/primal-product`, `ds/primal-sum`,
//! `ds/primal-update`).

use crate::accumulator::GradientAccumulator;
use crate::gradient::GradientReduction;
use pmcf_graph::DiGraph;
use pmcf_pram::Tracker;

/// The Theorem D.1 data structure.
pub struct PrimalGradient {
    reduction: GradientReduction,
    accumulator: GradientAccumulator,
    /// Sparse `(bucket, s_k)` step of the last `query_product`.
    last_steps: Option<Vec<(usize, f64)>>,
}

impl PrimalGradient {
    /// Initialize (Theorem D.1 `Initialize`): `Õ(m)` work, `Õ(1)` depth.
    ///
    /// `g` is the step scaling (`−γ·φ''(x̄)^{−1/2}` in the IPM), `tau` the
    /// Lewis weights, `z` the centrality measure, `w` per-coordinate
    /// accuracy weights, `eps` the target accuracy.
    #[allow(clippy::too_many_arguments)]
    pub fn initialize(
        t: &mut Tracker,
        graph: DiGraph,
        x_init: Vec<f64>,
        g: Vec<f64>,
        tau: Vec<f64>,
        z: Vec<f64>,
        w: Vec<f64>,
        eps: f64,
        lambda: f64,
        c_norm: f64,
    ) -> Self {
        let m = graph.m();
        assert_eq!(w.len(), m);
        let reduction =
            GradientReduction::initialize(t, graph, g.clone(), tau, z, eps, lambda, c_norm);
        let buckets: Vec<usize> = (0..m).map(|i| reduction.bucket_of(i)).collect();
        let acc_eps: Vec<f64> = w.iter().map(|&wi| (wi * eps).max(1e-12)).collect();
        let accumulator = GradientAccumulator::initialize(
            t,
            x_init,
            g,
            buckets,
            reduction.num_buckets(),
            acc_eps,
        );
        PrimalGradient {
            reduction,
            accumulator,
            last_steps: None,
        }
    }

    /// Update `g, τ̃, z` on coordinates (Theorem D.1 `Update`).
    pub fn update(&mut self, t: &mut Tracker, updates: &[(usize, f64, f64, f64)]) {
        t.span("ds/primal-update", |t| {
            self.reduction.update(t, updates);
            let moves: Vec<(usize, usize, f64)> = updates
                .iter()
                .map(|&(i, g, ..)| (i, self.reduction.bucket_of(i), g))
                .collect();
            self.accumulator.move_and_scale(t, &moves);
        })
    }

    /// `QueryProduct`: returns `v̄ = AᵀG(∇Ψ(z̄))^{♭(τ̄)} ∈ R^n`. Must be
    /// followed by [`PrimalGradient::query_sum`].
    pub fn query_product(&mut self, t: &mut Tracker) -> Vec<f64> {
        t.span("ds/primal-product", |t| {
            let (vbar, steps) = self.reduction.query(t);
            self.last_steps = Some(steps);
            vbar
        })
    }

    /// `QuerySum(h)`: accumulate the step from the last `query_product`
    /// plus the sparse correction `h`; returns indices where `x̄` changed.
    pub fn query_sum(&mut self, t: &mut Tracker, h: &[(usize, f64)]) -> Vec<usize> {
        let steps = self
            .last_steps
            .take()
            .expect("query_sum must follow query_product");
        t.span("ds/primal-sum", |t| self.accumulator.query(t, &steps, h))
    }

    /// The maintained primal approximation `x̄`.
    pub fn xbar(&self) -> &[f64] {
        self.accumulator.xbar()
    }

    /// Exact `x(t)` (Theorem D.1 `ComputeExactSum`): `Õ(m)`.
    pub fn compute_exact(&mut self, t: &mut Tracker) -> Vec<f64> {
        self.accumulator.compute_exact(t)
    }

    /// `Ψ(z)` (Theorem D.1 `Potential`).
    pub fn potential(&self) -> f64 {
        self.reduction.potential()
    }

    /// The per-coordinate step value of the last product query.
    pub fn step_of(&self, i: usize) -> f64 {
        let Some(steps) = &self.last_steps else {
            return 0.0;
        };
        let b = self.reduction.bucket_of(i);
        steps
            .binary_search_by_key(&b, |&(k, _)| k)
            .map_or(0.0, |j| steps[j].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (PrimalGradient, DiGraph, Vec<f64>) {
        let g = generators::gnm_digraph(10, 36, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let scale: Vec<f64> = (0..36).map(|_| rng.gen_range(0.5..1.5)).collect();
        let tau: Vec<f64> = (0..36).map(|_| rng.gen_range(0.3..1.9)).collect();
        let z: Vec<f64> = (0..36).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut t = Tracker::new();
        let pg = PrimalGradient::initialize(
            &mut t,
            g.clone(),
            vec![0.0; 36],
            scale.clone(),
            tau,
            z,
            vec![1.0; 36],
            0.1,
            2.0,
            3.0,
        );
        (pg, g, scale)
    }

    #[test]
    fn product_then_sum_accumulates_consistently() {
        let (mut pg, g, scale) = setup(3);
        let mut t = Tracker::new();
        let vbar = pg.query_product(&mut t);
        assert_eq!(vbar.len(), g.n());
        // capture implied per-coordinate steps before consuming
        let steps: Vec<f64> = (0..g.m()).map(|i| pg.step_of(i)).collect();
        let _ = pg.query_sum(&mut t, &[]);
        let exact = pg.compute_exact(&mut t);
        for i in 0..g.m() {
            let want = scale[i] * steps[i];
            assert!(
                (exact[i] - want).abs() < 1e-9,
                "coord {i}: {} vs {want}",
                exact[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "query_sum must follow query_product")]
    fn sum_without_product_panics() {
        let (mut pg, _, _) = setup(4);
        let mut t = Tracker::new();
        let _ = pg.query_sum(&mut t, &[]);
    }

    #[test]
    fn updates_flow_through_both_layers() {
        let (mut pg, _, _) = setup(5);
        let mut t = Tracker::new();
        let p0 = pg.potential();
        pg.update(&mut t, &[(0, 2.0, 1.0, 1.5), (3, 0.7, 0.5, -1.5)]);
        assert!((pg.potential() - p0).abs() > 1e-12);
        let _ = pg.query_product(&mut t);
        let _ = pg.query_sum(&mut t, &[(0, 0.25)]);
        let exact = pg.compute_exact(&mut t);
        // coordinate 0 got direct increment 0.25 plus its bucket step × 2.0
        assert!(exact[0].abs() > 0.0 || exact[0] == 0.25);
    }

    #[test]
    fn many_iterations_remain_bounded_accuracy() {
        let (mut pg, g, scale) = setup(6);
        let mut t = Tracker::new();
        let mut reference = vec![0.0f64; g.m()];
        for _ in 0..30 {
            let _ = pg.query_product(&mut t);
            for (i, r) in reference.iter_mut().enumerate() {
                *r += scale[i] * pg.step_of(i);
            }
            let _ = pg.query_sum(&mut t, &[]);
            for (i, (xb, r)) in pg.xbar().iter().zip(&reference).enumerate() {
                assert!((xb - r).abs() <= 0.1 + 1e-9, "coord {i}: {xb} vs {r}");
            }
        }
        let exact = pg.compute_exact(&mut t);
        for i in 0..g.m() {
            assert!((exact[i] - reference[i]).abs() < 1e-8);
        }
    }
}
