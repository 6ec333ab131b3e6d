//! Gradient reduction (paper Lemmas D.2 and D.4, Algorithm 6).
//!
//! The robust IPM steps in the direction `∇Ψ(z)^{♭(τ̄)}` where
//! `x^{♭(τ)} = argmax_{‖w‖_{τ+∞} ≤ 1} ⟨x, w⟩` and
//! `‖w‖_{τ+∞} = ‖w‖_∞ + C·‖w‖_τ`. Rather than computing the
//! m-dimensional maximizer each iteration, coordinates are grouped into
//! `K = O(ε⁻² log n)` buckets of similar `(τ̃_i, z_i)`; the maximizer is
//! then solved in `R^K` ([`flat_max`], Lemma D.2) and the per-bucket
//! aggregates `w^{(k,ℓ)} = Aᵀ G 1_{i∈I^{(k,ℓ)}}` turn it into the
//! n-dimensional product `AᵀG(∇Ψ(z̄))^{♭(τ̄)}` in `Õ(n)` work per query.
//!
//! [`flat_max`] sorts the occupied buckets once and then evaluates every
//! ∞-budget in closed form, `O(K log K)` work. The structure keeps its
//! occupied buckets in a sorted list, so a query never sweeps the whole
//! bucket grid, and it returns the step as sparse `(bucket, s_k)` pairs
//! for the accumulator.

use pmcf_graph::DiGraph;
use pmcf_pram::{Cost, Tracker};

/// Solve `argmax_{‖vw‖₂ + ‖w‖_∞ ≤ 1} ⟨x, w⟩` (Lemma D.2 / Corollary D.3).
///
/// For a fixed ∞-budget `s`, the optimum is `w_i = sign(x_i)·min(s,
/// c·|x_i|/v_i²)` with `c` saturating the ℓ₂ budget `1−s`, and the
/// objective is concave in `s`. At any `c` the capped coordinates are
/// those of largest `ρ_i = |x_i|/v_i²`, so one sort by `ρ` with prefix
/// sums of `v_i²` and `|x_i|` and suffix sums of `x_i²/v_i²` turns the
/// capped count at budget `s` into one binary search, and `c` and the
/// objective into closed forms. A ternary search over `s` then costs
/// `O(log K)` per evaluation: `O(K log K)` work in all.
pub fn flat_max(x: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), v.len());
    debug_assert!(v.iter().all(|&vi| vi > 0.0), "v must be positive");
    // the coordinates with x_i ≠ 0 by ρ_i descending; a zero coordinate
    // never reaches its cap and adds nothing to either norm
    let mut order: Vec<(f64, usize)> = (0..x.len())
        .filter(|&i| x[i] != 0.0)
        .map(|i| (x[i].abs() / (v[i] * v[i]), i))
        .collect();
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let k = order.len();
    // with the first j of `order` capped at s: Σ v_i² (`capped_q[j]`) and
    // Σ |x_i| (`capped_x[j]`) over them, Σ x_i²/v_i² over the rest
    // (`free_u[j]`)
    let mut capped_q = vec![0.0; k + 1];
    let mut capped_x = vec![0.0; k + 1];
    let mut free_u = vec![0.0; k + 1];
    for (j, &(_, i)) in order.iter().enumerate() {
        capped_q[j + 1] = capped_q[j] + v[i] * v[i];
        capped_x[j + 1] = capped_x[j] + x[i].abs();
    }
    for (j, &(_, i)) in order.iter().enumerate().rev() {
        free_u[j] = free_u[j + 1] + x[i] * x[i] / (v[i] * v[i]);
    }
    // (‖v·w‖₂/s)² at the multiplier where coordinate `order[j]` reaches
    // its cap with the j before it capped: nondecreasing in j, and free
    // of s, so the capped count at (s, r) is the first j reaching (r/s)²
    let reach: Vec<f64> = (0..k)
        .map(|j| capped_q[j] + free_u[j] / (order[j].0 * order[j].0))
        .collect();
    // (capped count, multiplier) at ∞-budget s ∈ [0, 1), with c = ∞
    // when capping every coordinate cannot spend the ℓ₂ budget r = 1 − s
    let multiplier = |s: f64| -> (usize, f64) {
        let r = 1.0 - s;
        let j = reach.partition_point(|&b| b < (r / s) * (r / s));
        if j == k {
            return (k, f64::INFINITY);
        }
        (
            j,
            ((r * r - s * s * capped_q[j]).max(0.0) / free_u[j]).sqrt(),
        )
    };
    // objective ⟨x, w⟩ at ∞-budget s
    let value = |s: f64| -> f64 {
        match multiplier(s) {
            (j, c) if j < k => capped_x[j] * s + c * free_u[j],
            _ => capped_x[k] * s,
        }
    };

    // ternary search over s ∈ [0, 1]
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..60 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if value(m1) < value(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    let s = 0.5 * (lo + hi);
    let (_, c) = multiplier(s);
    x.iter()
        .zip(v)
        .map(|(&xi, &vi)| {
            if xi == 0.0 {
                xi
            } else {
                xi.signum() * (c * xi.abs() / (vi * vi)).min(s)
            }
        })
        .collect()
}

/// The soft-max potential `Ψ(z) = Σ cosh(λ z_i)` and its gradient
/// `∇Ψ(z)_i = λ sinh(λ z_i)` (paper §2.2 / Theorem D.1).
pub fn grad_psi(lambda: f64, z: f64) -> f64 {
    lambda * (lambda * z).sinh()
}

/// Bucket index for a `(τ̃, z)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BucketId {
    /// `τ̃_i ∈ ((1−ε)^{k+1}, (1−ε)^k]`.
    pub k: u32,
    /// `z_i ∈ [z_lo + ℓ·ε/2, z_lo + (ℓ+1)·ε/2)`.
    pub l: u32,
}

/// Gradient reduction data structure (Lemma D.4).
///
/// Unlike the paper we allow `z ∈ [−2, 2]` (the centrality measure is
/// signed); the bucketing argument is unchanged.
pub struct GradientReduction {
    graph: DiGraph,
    eps: f64,
    lambda: f64,
    c_norm: f64,
    g: Vec<f64>,
    tau: Vec<f64>,
    z: Vec<f64>,
    /// Ψ(z), maintained incrementally.
    potential: f64,
    /// bucket assignment per coordinate
    bucket: Vec<BucketId>,
    /// member count per bucket (dense over the K grid)
    count: Vec<u32>,
    /// the buckets with `count > 0`, ascending: a query visits these
    /// only, never the whole grid
    occupied: Vec<usize>,
    /// `w^{(k,ℓ)} = Aᵀ G 1_bucket ∈ R^n` per bucket; a row is allocated
    /// on the bucket's first member, so the few occupied buckets of the
    /// `K` grid are the only ones holding `n` floats
    agg: Vec<Vec<f64>>,
    k_levels: u32,
    l_levels: u32,
}

const Z_LO: f64 = -2.0;
const Z_HI: f64 = 2.0;

impl GradientReduction {
    /// Initialize over the incidence of `graph` with scaling `g`, weights
    /// `τ̃ ∈ [n/m, 2]`, measure `z ∈ [−2, 2]`: `Õ(m)` work, `Õ(1)` depth.
    #[allow(clippy::too_many_arguments)]
    pub fn initialize(
        t: &mut Tracker,
        graph: DiGraph,
        g: Vec<f64>,
        tau: Vec<f64>,
        z: Vec<f64>,
        eps: f64,
        lambda: f64,
        c_norm: f64,
    ) -> Self {
        let (n, m) = (graph.n(), graph.m());
        assert_eq!(g.len(), m);
        assert_eq!(tau.len(), m);
        assert_eq!(z.len(), m);
        let tau_min = (n as f64 / m as f64).min(0.5);
        let k_levels = ((tau_min.ln() / (1.0 - eps).ln()).ceil() as u32 + 2).max(2);
        let l_levels = (((Z_HI - Z_LO) / (eps / 2.0)).ceil() as u32 + 1).max(2);
        let mut s = GradientReduction {
            eps,
            lambda,
            c_norm,
            potential: 0.0,
            bucket: vec![BucketId { k: 0, l: 0 }; m],
            count: vec![0; (k_levels * l_levels) as usize],
            occupied: Vec::new(),
            agg: vec![Vec::new(); (k_levels * l_levels) as usize],
            k_levels,
            l_levels,
            graph,
            g,
            tau,
            z,
        };
        for i in 0..m {
            let b = s.bucket_for(s.tau[i], s.z[i]);
            s.bucket[i] = b;
            let fb = s.flat(b);
            s.count[fb] += 1;
            s.potential += (s.lambda * s.z[i]).cosh();
            s.add_to_agg(i, b, 1.0);
        }
        s.occupied = (0..s.count.len()).filter(|&b| s.count[b] > 0).collect();
        t.charge(Cost::par_flat(m as u64).seq(Cost::scan(m as u64)));
        s
    }

    fn flat(&self, b: BucketId) -> usize {
        (b.k * self.l_levels + b.l) as usize
    }

    fn bucket_for(&self, tau: f64, z: f64) -> BucketId {
        let tau = tau.clamp(1e-12, 2.0);
        let k = ((tau / 2.0).ln() / (1.0 - self.eps).ln())
            .floor()
            .clamp(0.0, (self.k_levels - 1) as f64) as u32;
        let z = z.clamp(Z_LO, Z_HI);
        let l = (((z - Z_LO) / (self.eps / 2.0)).floor() as u32).min(self.l_levels - 1);
        BucketId { k, l }
    }

    /// Representative τ of bucket `k` (upper edge of its interval).
    fn bucket_tau(&self, k: u32) -> f64 {
        2.0 * (1.0 - self.eps).powi(k as i32)
    }

    /// Representative z of bucket `ℓ` (midpoint).
    fn bucket_z(&self, l: u32) -> f64 {
        Z_LO + (l as f64 + 0.5) * self.eps / 2.0
    }

    fn add_to_agg(&mut self, i: usize, b: BucketId, sign: f64) {
        let (u, v) = self.graph.endpoints(i);
        let idx = self.flat(b);
        let w = sign * self.g[i];
        if self.agg[idx].is_empty() {
            self.agg[idx] = vec![0.0; self.graph.n()];
        }
        self.agg[idx][u] -= w;
        self.agg[idx][v] += w;
    }

    /// Update coordinates: `g_i ← b_i`, `τ̃_i ← c_i`, `z_i ← d_i`
    /// (Lemma D.4 `Update`): `Õ(|I|)` work.
    pub fn update(&mut self, t: &mut Tracker, updates: &[(usize, f64, f64, f64)]) {
        t.charge(Cost::par_flat(updates.len() as u64));
        for &(i, gi, ti, zi) in updates {
            let old_b = self.bucket[i];
            self.add_to_agg(i, old_b, -1.0);
            let fo = self.flat(old_b);
            self.count[fo] -= 1;
            if self.count[fo] == 0 {
                let at = self.occupied.binary_search(&fo).expect("occupied");
                self.occupied.remove(at);
            }
            self.potential += (self.lambda * zi).cosh() - (self.lambda * self.z[i]).cosh();
            self.g[i] = gi;
            self.tau[i] = ti;
            self.z[i] = zi;
            let b = self.bucket_for(ti, zi);
            self.bucket[i] = b;
            let fb = self.flat(b);
            if self.count[fb] == 0 {
                let at = self.occupied.binary_search(&fb).expect_err("empty");
                self.occupied.insert(at, fb);
            }
            self.count[fb] += 1;
            self.add_to_agg(i, b, 1.0);
        }
    }

    /// Current potential `Ψ(z)` (Lemma D.4 `Potential`, `Õ(1)`).
    pub fn potential(&self) -> f64 {
        self.potential
    }

    /// Query (Lemma D.4): returns `v̄ = AᵀG(∇Ψ(z̄))^{♭(τ̄)} ∈ R^n` and the
    /// nonzero per-bucket steps `(b, s_b)`, ascending in `b`, with
    /// `(∇Ψ(z̄)^{♭(τ̄)})_i = s_{bucket(i)}` (zero for an absent bucket).
    /// `Õ(n·K)` work over the `K` occupied buckets, `Õ(1)` depth.
    pub fn query(&self, t: &mut Tracker) -> (Vec<f64>, Vec<(usize, f64)>) {
        // low-dimensional representation of the gradient & norm weights
        let (x, v): (Vec<f64>, Vec<f64>) = self
            .occupied
            .iter()
            .map(|&idx| {
                let cnt = self.count[idx] as f64;
                let k = (idx as u32) / self.l_levels;
                let l = (idx as u32) % self.l_levels;
                let x = cnt * grad_psi(self.lambda, self.bucket_z(l));
                (x, (cnt * self.bucket_tau(k)).sqrt() * self.c_norm)
            })
            .unzip();
        let steps: Vec<(usize, f64)> = self
            .occupied
            .iter()
            .zip(flat_max(&x, &v))
            .filter(|&(_, s)| s != 0.0)
            .map(|(&idx, s)| (idx, s))
            .collect();
        // v̄ = Σ_buckets s_b · w^{(b)}
        let mut out = vec![0.0; self.graph.n()];
        for &(idx, s) in &steps {
            for (o, a) in out.iter_mut().zip(&self.agg[idx]) {
                *o += s * a;
            }
        }
        let k = self.occupied.len() as u64;
        t.charge(Cost::sort(k).seq(Cost::par_for(
            k.max(1),
            Cost::par_flat(self.graph.n() as u64),
        )));
        (out, steps)
    }

    /// The per-coordinate step this query implies: `step_i = s[bucket_i]`
    /// (used by the accumulator).
    pub fn bucket_of(&self, i: usize) -> usize {
        self.flat(self.bucket[i])
    }

    /// Number of buckets `K`.
    pub fn num_buckets(&self) -> usize {
        self.count.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute_flat_max(x: &[f64], v: &[f64], grid: usize) -> f64 {
        // random search refined locally — only for tiny K
        let mut rng = SmallRng::seed_from_u64(1);
        let k = x.len();
        let mut best = 0.0f64;
        for _ in 0..grid {
            let dir: Vec<f64> = (0..k)
                .map(|i| x[i].signum() * rng.gen_range(0.0..1.0))
                .collect();
            // scale dir to the boundary: t·(‖v·dir‖₂) + t·‖dir‖∞ = 1
            let l2: f64 = dir
                .iter()
                .zip(v)
                .map(|(d, vi)| (d * vi) * (d * vi))
                .sum::<f64>()
                .sqrt();
            let linf = dir.iter().fold(0.0f64, |a, &d| a.max(d.abs()));
            let t = 1.0 / (l2 + linf);
            let val: f64 = x.iter().zip(&dir).map(|(a, b)| a * b * t).sum();
            best = best.max(val);
        }
        best
    }

    #[test]
    fn flat_max_beats_random_search() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let k = rng.gen_range(2..6);
            let x: Vec<f64> = (0..k).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let v: Vec<f64> = (0..k).map(|_| rng.gen_range(0.2..3.0)).collect();
            let w = flat_max(&x, &v);
            let val: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            // feasibility
            let l2: f64 = w
                .iter()
                .zip(&v)
                .map(|(wi, vi)| (wi * vi) * (wi * vi))
                .sum::<f64>()
                .sqrt();
            let linf = w.iter().fold(0.0f64, |a, &wi| a.max(wi.abs()));
            assert!(l2 + linf <= 1.0 + 1e-6, "infeasible: {l2} + {linf}");
            let rnd = brute_flat_max(&x, &v, 3000);
            assert!(val >= rnd - 1e-2, "flat_max {val} < random search {rnd}");
        }
    }

    /// `flat_max` before the sort-once rewrite, verbatim: a ternary
    /// search over `s` whose every evaluation bisects for the multiplier
    /// `c` over all `K` coordinates. The oracle the closed forms must
    /// match in objective.
    fn flat_max_search(x: &[f64], v: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), v.len());
        let k = x.len();
        if k == 0 {
            return Vec::new();
        }
        debug_assert!(v.iter().all(|&vi| vi > 0.0), "v must be positive");
        let ax: Vec<f64> = x.iter().map(|xi| xi.abs()).collect();
        let vv: Vec<f64> = v.iter().map(|vi| vi * vi).collect();

        // ‖v·w‖₂ at multiplier c: w_i = min(s, c|x_i|/v_i²)
        let norm_at = |c: f64, s: f64| -> f64 {
            ax.iter()
                .zip(&vv)
                .map(|(&a, &q)| {
                    let wi = (c * a / q).min(s);
                    q * wi * wi
                })
                .sum::<f64>()
                .sqrt()
        };
        // the c ≥ 0 with Σ v_i² min(s, c|x_i|/v_i²)² = r² for r = 1 − s;
        // `None` for the pure ∞ budget r ≤ 0
        let multiplier = |s: f64| -> Option<f64> {
            let r = 1.0 - s;
            if r <= 0.0 {
                return None;
            }
            // bracket c
            let mut hi = 1.0;
            let mut norm_hi = norm_at(hi, s);
            while norm_hi < r && hi < 1e18 {
                hi *= 2.0;
                norm_hi = norm_at(hi, s);
            }
            if norm_hi < r {
                return Some(hi); // everything capped at s; cannot reach the budget
            }
            let mut lo = 0.0;
            let mut hi_b = hi;
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi_b);
                // once mid is an endpoint the step leaves (lo, hi_b) at a
                // fixed point that every later step would recompute
                let settled = mid == lo || mid == hi_b;
                if norm_at(mid, s) < r {
                    lo = mid;
                } else {
                    hi_b = mid;
                }
                if settled {
                    break;
                }
            }
            Some(0.5 * (lo + hi_b))
        };
        // w_i at ∞-budget s and multiplier c
        let weight = |i: usize, c: Option<f64>, s: f64| -> f64 {
            match c {
                None => x[i].signum() * s,
                Some(c) => x[i].signum() * (c * ax[i] / vv[i]).min(s),
            }
        };
        // objective ⟨x, w⟩ at ∞-budget s
        let value = |s: f64| -> f64 {
            match multiplier(s) {
                None => ax.iter().map(|a| a * s).sum(),
                c => (0..k).map(|i| x[i] * weight(i, c, s)).sum(),
            }
        };

        // ternary search over s ∈ [0, 1]
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for _ in 0..60 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if value(m1) < value(m2) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        let s = 0.5 * (lo + hi);
        let c = multiplier(s);
        (0..k).map(|i| weight(i, c, s)).collect()
    }

    /// `(⟨x, w⟩, ‖v∘w‖₂ + ‖w‖_∞)`
    fn objective_and_norm(x: &[f64], v: &[f64], w: &[f64]) -> (f64, f64) {
        let val = x.iter().zip(w).map(|(a, b)| a * b).sum();
        let l2 = w
            .iter()
            .zip(v)
            .map(|(wi, vi)| (wi * vi) * (wi * vi))
            .sum::<f64>()
            .sqrt();
        let linf = w.iter().fold(0.0f64, |a, &wi| a.max(wi.abs()));
        (val, l2 + linf)
    }

    #[test]
    fn flat_max_matches_the_search_oracle() {
        let mut rng = SmallRng::seed_from_u64(0xF1A7);
        for case in 0..512usize {
            // every K in 1..=256 twice
            let k = 1 + case * 37 % 256;
            // |x_i| log-uniform in [1e-6, 1e6], both signs, with ±0 mixed in
            let x: Vec<f64> = (0..k)
                .map(|_| match rng.gen_range(0..10) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let a = 10f64.powf(rng.gen_range(-6.0..6.0));
                        if rng.gen_bool(0.5) {
                            a
                        } else {
                            -a
                        }
                    }
                })
                .collect();
            let v: Vec<f64> = (0..k)
                .map(|_| 10f64.powf(rng.gen_range(-3.0..3.0)))
                .collect();
            let (val, norm) = objective_and_norm(&x, &v, &flat_max(&x, &v));
            let (want, _) = objective_and_norm(&x, &v, &flat_max_search(&x, &v));
            assert!(
                val >= want - 1e-12 * want.abs(),
                "case {case}, K = {k}: objective {val} < search {want}"
            );
            assert!(norm <= 1.0 + 1e-12, "case {case}, K = {k}: norm {norm}");
        }
    }

    #[test]
    fn flat_max_single_coordinate() {
        // with one coordinate: max x·w s.t. v|w| + |w| ≤ 1 → w = sign(x)/(1+v)
        let w = flat_max(&[2.0], &[3.0]);
        assert!((w[0] - 1.0 / 4.0).abs() < 1e-6, "w = {}", w[0]);
        let w2 = flat_max(&[-2.0], &[3.0]);
        assert!((w2[0] + 0.25).abs() < 1e-6);
    }

    #[test]
    fn flat_max_empty() {
        assert!(flat_max(&[], &[]).is_empty());
    }

    /// The step of bucket `b` in a query's sparse steps.
    fn step_at(steps: &[(usize, f64)], b: usize) -> f64 {
        steps
            .binary_search_by_key(&b, |&(k, _)| k)
            .map_or(0.0, |j| steps[j].1)
    }

    fn setup(seed: u64) -> (GradientReduction, DiGraph, Vec<f64>, Vec<f64>, Vec<f64>) {
        let g = generators::gnm_digraph(12, 40, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let scale: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..2.0)).collect();
        let tau: Vec<f64> = (0..40).map(|_| rng.gen_range(0.3..1.9)).collect();
        let z: Vec<f64> = (0..40).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let mut t = Tracker::new();
        let gr = GradientReduction::initialize(
            &mut t,
            g.clone(),
            scale.clone(),
            tau.clone(),
            z.clone(),
            0.1,
            2.0,
            3.0,
        );
        (gr, g, scale, tau, z)
    }

    #[test]
    fn potential_matches_direct_sum() {
        let (gr, _, _, _, z) = setup(5);
        let direct: f64 = z.iter().map(|&zi| (2.0 * zi).cosh()).sum();
        assert!((gr.potential() - direct).abs() < 1e-9);
    }

    #[test]
    fn query_matches_explicit_computation() {
        let (gr, g, scale, _, _) = setup(7);
        let mut t = Tracker::new();
        let (vbar, s) = gr.query(&mut t);
        // reconstruct explicitly: step_i = s[bucket(i)], v = AᵀG·step
        let mut expect = vec![0.0; g.n()];
        for (i, gi) in scale.iter().enumerate() {
            let (u, v) = g.endpoints(i);
            let step = step_at(&s, gr.bucket_of(i));
            expect[u] -= gi * step;
            expect[v] += gi * step;
        }
        for (a, b) in vbar.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn update_moves_buckets_and_potential() {
        let (mut gr, _, _, _, _) = setup(9);
        let mut t = Tracker::new();
        let p0 = gr.potential();
        gr.update(&mut t, &[(0, 1.0, 1.0, 1.9), (1, 1.0, 0.4, -1.9)]);
        assert!((gr.potential() - p0).abs() > 1e-9, "potential must move");
        // query still consistent
        let (vbar, s) = gr.query(&mut t);
        assert_eq!(vbar.len(), 12);
        assert!(!s.is_empty());
    }

    #[test]
    fn step_is_flat_norm_bounded() {
        // ‖step‖∞ + C‖step‖_τ̄ ≤ 1 must hold for the implied m-dim step
        let (gr, g, _, tau, _) = setup(11);
        let mut t = Tracker::new();
        let (_, s) = gr.query(&mut t);
        let step: Vec<f64> = (0..g.m()).map(|i| step_at(&s, gr.bucket_of(i))).collect();
        let linf = step.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let ltau: f64 = step
            .iter()
            .zip(&tau)
            .map(|(&si, &ti)| ti * si * si)
            .sum::<f64>()
            .sqrt();
        // bucket τ̄ approximates τ within (1±ε) so allow slack
        assert!(
            linf + 3.0 * ltau <= 1.15,
            "flat norm {} too large",
            linf + 3.0 * ltau
        );
    }
}
