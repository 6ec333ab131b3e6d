//! The gradient accumulator (paper Lemma D.5, Algorithm 7).
//!
//! Maintains a per-coordinate-accurate approximation `x̄` of
//!
//! ```text
//!   x(t) = x_init + Σ_{ℓ≤t} ( h^{(ℓ)} + G·Σ_k 1_{I_k} s_k^{(ℓ)} )
//! ```
//!
//! without touching all `m` coordinates per step: per bucket `k` only the
//! cumulative step sum `f_k = Σ_ℓ s_k^{(ℓ)}` advances; a coordinate is
//! lazily synced when its accumulated drift `|g_i (f_k − f_k^{sync_i})|`
//! could exceed its accuracy `ε_i/10`. Per bucket, two indexed min-heaps
//! hold each coordinate's upper and lower drift threshold, and a
//! position map per coordinate lets a sync re-key it in place, so finding
//! violators is output-sensitive and no heap holds a stale entry. A step
//! arrives as sparse `(k, s_k)` pairs and only those buckets are
//! searched: a bucket whose `f_k` did not move has no violator.
//!
//! The IPM's per-step refresh moves a coordinate's bucket and rescales
//! it in one [`GradientAccumulator::move_and_scale`] call: one sync
//! against the old bucket and scale, one move of its thresholds. It
//! reaches the state of Lemma D.5's `Move` followed by `Scale`, bit for
//! bit.

use pmcf_pram::{Cost, Tracker};

/// Monotone order-preserving mapping f64 → u64 (total order, NaN-free).
fn okey(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One binary min-heap of `(key, coordinate)` per bucket, with every
/// coordinate's slot in its bucket's heap.
struct KeyedHeaps {
    heap: Vec<Vec<(u64, u32)>>,
    slot: Vec<u32>,
}

impl KeyedHeaps {
    /// Empty heaps, each sized for the coordinates `bucket` puts in it.
    fn new(bucket: &[usize], buckets: usize) -> Self {
        let mut size = vec![0; buckets];
        for &b in bucket {
            size[b] += 1;
        }
        KeyedHeaps {
            heap: size.into_iter().map(Vec::with_capacity).collect(),
            slot: vec![0; bucket.len()],
        }
    }

    /// The smallest key of bucket `b` and its coordinate.
    fn min(&self, b: usize) -> Option<(u64, usize)> {
        self.heap[b].first().map(|&(key, i)| (key, i as usize))
    }

    fn push(&mut self, b: usize, i: usize, key: u64) {
        let at = self.heap[b].len();
        self.heap[b].push((key, i as u32));
        self.slot[i] = at as u32;
        self.sift_up(b, at);
    }

    fn remove(&mut self, b: usize, i: usize) {
        let at = self.slot[i] as usize;
        let last = self.heap[b].pop().expect("coordinate in its bucket");
        if at < self.heap[b].len() {
            self.heap[b][at] = last;
            self.slot[last.1 as usize] = at as u32;
            self.settle(b, at);
        }
    }

    fn rekey(&mut self, b: usize, i: usize, key: u64) {
        let at = self.slot[i] as usize;
        self.heap[b][at].0 = key;
        self.settle(b, at);
    }

    /// Restore the heap order around slot `at` after its key changed.
    fn settle(&mut self, b: usize, at: usize) {
        if at > 0 && self.heap[b][at].0 < self.heap[b][(at - 1) / 2].0 {
            self.sift_up(b, at);
        } else {
            self.sift_down(b, at);
        }
    }

    fn sift_up(&mut self, b: usize, mut at: usize) {
        let h = &mut self.heap[b];
        while at > 0 {
            let up = (at - 1) / 2;
            if h[up].0 <= h[at].0 {
                break;
            }
            h.swap(up, at);
            self.slot[h[at].1 as usize] = at as u32;
            at = up;
        }
        self.slot[h[at].1 as usize] = at as u32;
    }

    fn sift_down(&mut self, b: usize, mut at: usize) {
        let h = &mut self.heap[b];
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut least = at;
            if l < h.len() && h[l].0 < h[least].0 {
                least = l;
            }
            if r < h.len() && h[r].0 < h[least].0 {
                least = r;
            }
            if least == at {
                break;
            }
            h.swap(least, at);
            self.slot[h[at].1 as usize] = at as u32;
            at = least;
        }
        self.slot[h[at].1 as usize] = at as u32;
    }
}

/// The accumulator.
pub struct GradientAccumulator {
    /// Approximation of `x(t)`.
    xbar: Vec<f64>,
    /// Scaling per coordinate.
    g: Vec<f64>,
    /// Per-coordinate accuracy.
    eps: Vec<f64>,
    /// Bucket per coordinate.
    bucket: Vec<usize>,
    /// Cumulative step per bucket.
    f: Vec<f64>,
    /// Value of `f[bucket(i)]` when `xbar[i]` was last synced.
    fsync: Vec<f64>,
    /// Per bucket: coordinates keyed by upper violation threshold.
    hi: KeyedHeaps,
    /// Per bucket: coordinates keyed by lower violation threshold
    /// (negated so smallest key = most urgent).
    lo: KeyedHeaps,
}

impl GradientAccumulator {
    /// Initialize (Lemma D.5 `Initialize`): `Õ(m)` work.
    pub fn initialize(
        t: &mut Tracker,
        x_init: Vec<f64>,
        g: Vec<f64>,
        bucket: Vec<usize>,
        num_buckets: usize,
        eps: Vec<f64>,
    ) -> Self {
        let m = x_init.len();
        assert_eq!(g.len(), m);
        assert_eq!(bucket.len(), m);
        assert_eq!(eps.len(), m);
        assert!(bucket.iter().all(|&b| b < num_buckets));
        assert!(m <= u32::MAX as usize);
        let mut s = GradientAccumulator {
            xbar: x_init,
            g,
            eps,
            f: vec![0.0; num_buckets],
            fsync: vec![0.0; m],
            hi: KeyedHeaps::new(&bucket, num_buckets),
            lo: KeyedHeaps::new(&bucket, num_buckets),
            bucket,
        };
        for i in 0..m {
            s.insert_thresholds(i);
        }
        t.charge(Cost::sort(m as u64));
        s
    }

    fn drift_allowance(&self, i: usize) -> f64 {
        let gi = self.g[i].abs().max(1e-300);
        (self.eps[i] / (10.0 * gi)).max(1e-300)
    }

    /// Coordinate `i`'s `(upper, lower)` threshold keys.
    fn thresholds(&self, i: usize) -> (u64, u64) {
        let d = self.drift_allowance(i);
        (okey(self.fsync[i] + d), okey(-(self.fsync[i] - d)))
    }

    fn insert_thresholds(&mut self, i: usize) {
        let b = self.bucket[i];
        let (hi, lo) = self.thresholds(i);
        self.hi.push(b, i, hi);
        self.lo.push(b, i, lo);
    }

    fn remove_thresholds(&mut self, i: usize) {
        let b = self.bucket[i];
        self.hi.remove(b, i);
        self.lo.remove(b, i);
    }

    /// Re-key coordinate `i`'s thresholds within its bucket.
    fn rekey_thresholds(&mut self, i: usize) {
        let b = self.bucket[i];
        let (hi, lo) = self.thresholds(i);
        self.hi.rekey(b, i, hi);
        self.lo.rekey(b, i, lo);
    }

    /// Bring `xbar[i]` up to date (plus optional direct increment `h`).
    fn sync(&mut self, i: usize, h: f64, changed: &mut Vec<usize>) {
        let b = self.bucket[i];
        let delta = self.g[i] * (self.f[b] - self.fsync[i]) + h;
        if delta != 0.0 {
            self.xbar[i] += delta;
            changed.push(i);
        }
        self.fsync[i] = self.f[b];
        self.rekey_thresholds(i);
    }

    /// Move coordinates to new buckets and rescale them, `(i, k, a)`:
    /// bucket `k`, scaling `g_i ← a` (Lemma D.5 `Move` then `Scale`):
    /// `Õ(|I|)` work, charged as `Move` plus `Scale`.
    ///
    /// `x̄_i` first takes the drift accrued under the old bucket and
    /// scale; from then on it accrues under the new ones.
    pub fn move_and_scale(&mut self, t: &mut Tracker, updates: &[(usize, usize, f64)]) {
        t.charge(Cost::par_flat(updates.len() as u64));
        t.charge(Cost::par_flat(updates.len() as u64));
        for &(i, k, a) in updates {
            let old = self.bucket[i];
            let delta = self.g[i] * (self.f[old] - self.fsync[i]);
            if delta != 0.0 {
                self.xbar[i] += delta;
            }
            if k == old {
                self.fsync[i] = self.f[k];
                self.g[i] = a;
                self.rekey_thresholds(i);
            } else {
                self.remove_thresholds(i);
                self.bucket[i] = k;
                self.fsync[i] = self.f[k];
                self.g[i] = a;
                self.insert_thresholds(i);
            }
        }
    }

    /// One step (Lemma D.5 `Query`): advance each listed bucket `k` by
    /// `s_k` (an absent bucket takes no step), apply the sparse direct
    /// increment `h`, and return `J`, the ascending coordinates whose
    /// `x̄` changed. Output-sensitive work: one unit per step entry, per
    /// increment and per violator.
    pub fn query(
        &mut self,
        t: &mut Tracker,
        steps: &[(usize, f64)],
        h: &[(usize, f64)],
    ) -> Vec<usize> {
        let mut changed = Vec::new();
        for &(k, sk) in steps {
            self.f[k] += sk;
        }
        let mut touched = steps.len() as u64 + h.len() as u64;
        for &(i, hi) in h {
            self.sync(i, hi, &mut changed);
        }
        // violators: f_k beyond a stored threshold, in the moved buckets
        for &(k, _) in steps {
            let fk = self.f[k];
            while let Some((key, i)) = self.hi.min(k) {
                if key >= okey(fk) {
                    break;
                }
                self.sync(i, 0.0, &mut changed);
                touched += 1;
            }
            while let Some((key, i)) = self.lo.min(k) {
                if key >= okey(-fk) {
                    break;
                }
                self.sync(i, 0.0, &mut changed);
                touched += 1;
            }
        }
        t.charge(Cost::new(
            touched.max(1),
            pmcf_pram::par_depth(touched.max(1)),
        ));
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// The maintained approximation.
    pub fn xbar(&self) -> &[f64] {
        &self.xbar
    }

    /// Exact `x(t)` (Lemma D.5 `ComputeExactSum`): `Õ(m)` work.
    pub fn compute_exact(&mut self, t: &mut Tracker) -> Vec<f64> {
        let mut changed = Vec::new();
        for i in 0..self.xbar.len() {
            self.sync(i, 0.0, &mut changed);
        }
        t.charge(Cost::par_flat(self.xbar.len() as u64));
        self.xbar.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// A dense per-bucket step as the sparse pairs `query` takes, every
    /// bucket listed.
    fn dense_steps(s: &[f64]) -> Vec<(usize, f64)> {
        s.iter().copied().enumerate().collect()
    }

    /// Reference: exact dense accumulation.
    struct Dense {
        x: Vec<f64>,
        g: Vec<f64>,
        bucket: Vec<usize>,
    }
    impl Dense {
        fn step(&mut self, s: &[f64], h: &[(usize, f64)]) {
            for i in 0..self.x.len() {
                self.x[i] += self.g[i] * s[self.bucket[i]];
            }
            for &(i, hi) in h {
                self.x[i] += hi;
            }
        }
    }

    #[test]
    fn tracks_dense_reference_within_accuracy() {
        let m = 60;
        let kk = 5;
        let mut rng = SmallRng::seed_from_u64(2);
        let g: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..2.0)).collect();
        let bucket: Vec<usize> = (0..m).map(|_| rng.gen_range(0..kk)).collect();
        let eps = vec![0.01; m];
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; m],
            g.clone(),
            bucket.clone(),
            kk,
            eps.clone(),
        );
        let mut dense = Dense {
            x: vec![0.0; m],
            g,
            bucket,
        };
        for step in 0..50 {
            let s: Vec<f64> = (0..kk).map(|_| rng.gen_range(-0.001..0.001)).collect();
            let h: Vec<(usize, f64)> = if step % 7 == 0 {
                vec![(rng.gen_range(0..m), rng.gen_range(-0.5..0.5))]
            } else {
                vec![]
            };
            dense.step(&s, &h);
            let _ = acc.query(&mut t, &dense_steps(&s), &h);
            for (i, (xb, dx)) in acc.xbar().iter().zip(&dense.x).enumerate() {
                assert!(
                    (xb - dx).abs() <= eps[i] + 1e-12,
                    "step {step} coord {i}: {xb} vs {dx}"
                );
            }
        }
        // exact sum matches dense exactly
        let exact = acc.compute_exact(&mut t);
        for (ex, dx) in exact.iter().zip(&dense.x) {
            assert!((ex - dx).abs() < 1e-9);
        }
    }

    #[test]
    fn large_steps_trigger_immediate_sync() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 3],
            vec![1.0; 3],
            vec![0, 0, 1],
            2,
            vec![0.1; 3],
        );
        let j = acc.query(&mut t, &[(0, 1.0)], &[]);
        // bucket 0 moved by 1.0 ≫ ε/10: coordinates 0,1 must sync
        assert!(j.contains(&0) && j.contains(&1));
        assert!(!j.contains(&2));
        assert!((acc.xbar()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_steps_do_not_touch_anything() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 100],
            vec![1.0; 100],
            vec![0; 100],
            1,
            vec![1.0; 100],
        );
        t.reset();
        for _ in 0..5 {
            let j = acc.query(&mut t, &[(0, 0.001)], &[]);
            assert!(j.is_empty());
        }
        // work must be O(steps), not O(m·steps)
        assert!(t.work() < 100, "work {}", t.work());
        // but the drift is still recoverable exactly
        let exact = acc.compute_exact(&mut t);
        assert!((exact[17] - 0.005).abs() < 1e-12);
    }

    /// Lemma D.5's `Move` and `Scale` as separate passes, verbatim from
    /// before [`GradientAccumulator::move_and_scale`] fused them: the
    /// oracle the fused update must match bit for bit.
    impl GradientAccumulator {
        fn move_buckets(&mut self, t: &mut Tracker, moves: &[(usize, usize)]) {
            t.charge(Cost::par_flat(moves.len() as u64));
            let mut changed = Vec::new();
            for &(i, k) in moves {
                self.sync(i, 0.0, &mut changed);
                self.remove_thresholds(i);
                self.bucket[i] = k;
                self.fsync[i] = self.f[k];
                self.insert_thresholds(i);
            }
        }

        fn scale(&mut self, t: &mut Tracker, updates: &[(usize, f64)]) {
            t.charge(Cost::par_flat(updates.len() as u64));
            let mut changed = Vec::new();
            for &(i, a) in updates {
                self.sync(i, 0.0, &mut changed);
                self.remove_thresholds(i);
                self.g[i] = a;
                self.insert_thresholds(i);
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn move_and_scale_is_bit_identical_to_move_then_scale() {
        for seed in 0..6u64 {
            let (m, kk) = (48, 7);
            let mut rng = SmallRng::seed_from_u64(seed);
            let x0: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let bucket: Vec<usize> = (0..m).map(|_| rng.gen_range(0..kk)).collect();
            let eps: Vec<f64> = (0..m).map(|_| rng.gen_range(0.001..0.05)).collect();
            let (mut ta, mut tb) = (Tracker::new(), Tracker::new());
            let mut fused = GradientAccumulator::initialize(
                &mut ta,
                x0.clone(),
                g.clone(),
                bucket.clone(),
                kk,
                eps.clone(),
            );
            let mut pair = GradientAccumulator::initialize(&mut tb, x0, g, bucket, kk, eps);
            for step in 0..40 {
                let s: Vec<f64> = (0..kk).map(|_| rng.gen_range(-0.01..0.01)).collect();
                let h: Vec<(usize, f64)> = if step % 5 == 0 {
                    vec![(rng.gen_range(0..m), rng.gen_range(-0.1..0.1))]
                } else {
                    vec![]
                };
                assert_eq!(
                    fused.query(&mut ta, &dense_steps(&s), &h),
                    pair.query(&mut tb, &dense_steps(&s), &h),
                    "seed {seed} step {step}: changed lists"
                );
                // distinct coordinates, each keeping its bucket, moving to
                // a new one, or flipping the sign of its scaling
                let idx: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.4)).collect();
                let updates: Vec<(usize, usize, f64)> = idx
                    .iter()
                    .map(|&i| match rng.gen_range(0..3) {
                        0 => (i, fused.bucket[i], rng.gen_range(0.5..2.0)),
                        1 => (i, rng.gen_range(0..kk), rng.gen_range(-2.0..2.0)),
                        _ => (i, fused.bucket[i], -fused.g[i]),
                    })
                    .collect();
                fused.move_and_scale(&mut ta, &updates);
                let moves: Vec<(usize, usize)> = updates.iter().map(|&(i, k, _)| (i, k)).collect();
                let scales: Vec<(usize, f64)> = updates.iter().map(|&(i, _, a)| (i, a)).collect();
                pair.move_buckets(&mut tb, &moves);
                pair.scale(&mut tb, &scales);
                assert_eq!(
                    bits(fused.xbar()),
                    bits(pair.xbar()),
                    "seed {seed} step {step}: xbar"
                );
                assert_eq!(ta.work(), tb.work(), "seed {seed} step {step}: work");
                assert_eq!(ta.depth(), tb.depth(), "seed {seed} step {step}: depth");
            }
            assert_eq!(
                bits(&fused.compute_exact(&mut ta)),
                bits(&pair.compute_exact(&mut tb)),
                "seed {seed}: exact sum"
            );
        }
    }

    /// The accumulator before its thresholds moved from two `BTreeMap`s
    /// per bucket into indexed heaps, verbatim but for the query counter
    /// nothing read: the oracle the heaps must match bit for bit, in
    /// `x̄`, in the changed lists and in charged work and depth.
    struct BTreeAccumulator {
        xbar: Vec<f64>,
        g: Vec<f64>,
        eps: Vec<f64>,
        bucket: Vec<usize>,
        f: Vec<f64>,
        fsync: Vec<f64>,
        hi: Vec<BTreeMap<(u64, usize), ()>>,
        lo: Vec<BTreeMap<(u64, usize), ()>>,
    }

    impl BTreeAccumulator {
        fn initialize(
            t: &mut Tracker,
            x_init: Vec<f64>,
            g: Vec<f64>,
            bucket: Vec<usize>,
            num_buckets: usize,
            eps: Vec<f64>,
        ) -> Self {
            let m = x_init.len();
            let mut s = BTreeAccumulator {
                xbar: x_init,
                g,
                eps,
                bucket,
                f: vec![0.0; num_buckets],
                fsync: vec![0.0; m],
                hi: (0..num_buckets).map(|_| BTreeMap::new()).collect(),
                lo: (0..num_buckets).map(|_| BTreeMap::new()).collect(),
            };
            for i in 0..m {
                s.insert_thresholds(i);
            }
            t.charge(Cost::sort(m as u64));
            s
        }

        fn drift_allowance(&self, i: usize) -> f64 {
            let gi = self.g[i].abs().max(1e-300);
            (self.eps[i] / (10.0 * gi)).max(1e-300)
        }

        fn insert_thresholds(&mut self, i: usize) {
            let b = self.bucket[i];
            let d = self.drift_allowance(i);
            self.hi[b].insert((okey(self.fsync[i] + d), i), ());
            self.lo[b].insert((okey(-(self.fsync[i] - d)), i), ());
        }

        fn remove_thresholds(&mut self, i: usize) {
            let b = self.bucket[i];
            let d = self.drift_allowance(i);
            self.hi[b].remove(&(okey(self.fsync[i] + d), i));
            self.lo[b].remove(&(okey(-(self.fsync[i] - d)), i));
        }

        fn sync(&mut self, i: usize, h: f64, changed: &mut Vec<usize>) {
            self.remove_thresholds(i);
            let b = self.bucket[i];
            let delta = self.g[i] * (self.f[b] - self.fsync[i]) + h;
            if delta != 0.0 {
                self.xbar[i] += delta;
                changed.push(i);
            }
            self.fsync[i] = self.f[b];
            self.insert_thresholds(i);
        }

        fn move_and_scale(&mut self, t: &mut Tracker, updates: &[(usize, usize, f64)]) {
            t.charge(Cost::par_flat(updates.len() as u64));
            t.charge(Cost::par_flat(updates.len() as u64));
            for &(i, k, a) in updates {
                self.remove_thresholds(i);
                let delta = self.g[i] * (self.f[self.bucket[i]] - self.fsync[i]);
                if delta != 0.0 {
                    self.xbar[i] += delta;
                }
                self.bucket[i] = k;
                self.fsync[i] = self.f[k];
                self.g[i] = a;
                self.insert_thresholds(i);
            }
        }

        fn query(&mut self, t: &mut Tracker, s: &[f64], h: &[(usize, f64)]) -> Vec<usize> {
            assert_eq!(s.len(), self.f.len());
            let mut changed = Vec::new();
            for (fk, sk) in self.f.iter_mut().zip(s) {
                *fk += sk;
            }
            let mut touched = s.len() as u64 + h.len() as u64;
            for &(i, hi) in h {
                self.sync(i, hi, &mut changed);
            }
            // violators: f_k beyond a stored threshold
            for k in 0..self.f.len() {
                let fk = self.f[k];
                while let Some((&(key, i), ())) = self.hi[k].iter().next() {
                    if key >= okey(fk) {
                        break;
                    }
                    self.sync(i, 0.0, &mut changed);
                    touched += 1;
                }
                while let Some((&(key, i), ())) = self.lo[k].iter().next() {
                    if key >= okey(-fk) {
                        break;
                    }
                    self.sync(i, 0.0, &mut changed);
                    touched += 1;
                }
            }
            t.charge(Cost::new(
                touched.max(1),
                pmcf_pram::par_depth(touched.max(1)),
            ));
            changed.sort_unstable();
            changed.dedup();
            changed
        }

        fn compute_exact(&mut self, t: &mut Tracker) -> Vec<f64> {
            let mut changed = Vec::new();
            for i in 0..self.xbar.len() {
                self.sync(i, 0.0, &mut changed);
            }
            t.charge(Cost::par_flat(self.xbar.len() as u64));
            self.xbar.clone()
        }
    }

    #[test]
    fn accumulator_is_bit_identical_to_the_btree_oracle() {
        for seed in 0..8u64 {
            let (m, kk) = (64, 9);
            let mut rng = SmallRng::seed_from_u64(0xACC0 + seed);
            let x0: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let bucket: Vec<usize> = (0..m).map(|_| rng.gen_range(0..kk)).collect();
            let eps: Vec<f64> = (0..m).map(|_| rng.gen_range(0.001..0.05)).collect();
            let (mut ta, mut tb, mut tc) = (Tracker::new(), Tracker::new(), Tracker::new());
            let mut heaps = GradientAccumulator::initialize(
                &mut ta,
                x0.clone(),
                g.clone(),
                bucket.clone(),
                kk,
                eps.clone(),
            );
            // fed only the buckets that move: a bucket whose f_k stays put
            // holds no violator, so it must reach the same state
            let mut sparse = GradientAccumulator::initialize(
                &mut tc,
                x0.clone(),
                g.clone(),
                bucket.clone(),
                kk,
                eps.clone(),
            );
            let mut oracle = BTreeAccumulator::initialize(&mut tb, x0, g, bucket, kk, eps);
            assert_eq!((ta.work(), ta.depth()), (tb.work(), tb.depth()));
            for step in 0..40 {
                // about a third of the buckets stay put each step
                let s: Vec<f64> = (0..kk)
                    .map(|_| {
                        if rng.gen_bool(0.35) {
                            0.0
                        } else {
                            rng.gen_range(-0.01..0.01)
                        }
                    })
                    .collect();
                // distinct direct increments, some large enough to cross
                // several thresholds at once
                let picked: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.1)).collect();
                let mut h: Vec<(usize, f64)> = picked
                    .into_iter()
                    .map(|i| (i, rng.gen_range(-0.2..0.2)))
                    .collect();
                h.reverse();
                let moved: Vec<(usize, f64)> = dense_steps(&s)
                    .into_iter()
                    .filter(|&(_, sk)| sk != 0.0)
                    .collect();
                let want = oracle.query(&mut tb, &s, &h);
                assert_eq!(
                    heaps.query(&mut ta, &dense_steps(&s), &h),
                    want,
                    "seed {seed} step {step}: changed lists"
                );
                assert_eq!(
                    sparse.query(&mut tc, &moved, &h),
                    want,
                    "seed {seed} step {step}: changed lists, sparse steps"
                );
                // distinct coordinates, each keeping its bucket, moving to
                // a new one, or flipping the sign of its scaling
                let idx: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.4)).collect();
                let updates: Vec<(usize, usize, f64)> = idx
                    .into_iter()
                    .map(|i| match rng.gen_range(0..3) {
                        0 => (i, oracle.bucket[i], rng.gen_range(0.5..2.0)),
                        1 => (i, rng.gen_range(0..kk), rng.gen_range(-2.0..2.0)),
                        _ => (i, oracle.bucket[i], -oracle.g[i]),
                    })
                    .collect();
                heaps.move_and_scale(&mut ta, &updates);
                sparse.move_and_scale(&mut tc, &updates);
                oracle.move_and_scale(&mut tb, &updates);
                assert_eq!(
                    bits(heaps.xbar()),
                    bits(&oracle.xbar),
                    "seed {seed} step {step}: xbar"
                );
                assert_eq!(
                    bits(sparse.xbar()),
                    bits(&oracle.xbar),
                    "seed {seed} step {step}: xbar, sparse steps"
                );
                assert_eq!(ta.work(), tb.work(), "seed {seed} step {step}: work");
                assert_eq!(ta.depth(), tb.depth(), "seed {seed} step {step}: depth");
            }
            assert_eq!(
                bits(&heaps.compute_exact(&mut ta)),
                bits(&oracle.compute_exact(&mut tb)),
                "seed {seed}: exact sum"
            );
            assert_eq!(
                bits(&sparse.compute_exact(&mut tc)),
                bits(&oracle.xbar),
                "seed {seed}: exact sum, sparse steps"
            );
            assert_eq!(ta.work(), tb.work(), "seed {seed}: work");
            assert_eq!(ta.depth(), tb.depth(), "seed {seed}: depth");
        }
    }

    #[test]
    fn moves_and_scales_preserve_value() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 2],
            vec![1.0; 2],
            vec![0, 1],
            2,
            vec![0.05; 2],
        );
        acc.query(&mut t, &[(0, 1.0), (1, 2.0)], &[]);
        // x = [1, 2]; now move coord 0 to bucket 1 and scale it; future
        // steps use the new bucket/scale, past value preserved
        acc.move_and_scale(&mut t, &[(0, 1, 10.0)]);
        acc.query(&mut t, &[(1, 0.5)], &[]);
        let exact = acc.compute_exact(&mut t);
        assert!((exact[0] - (1.0 + 10.0 * 0.5)).abs() < 1e-9, "{}", exact[0]);
        assert!((exact[1] - 2.5).abs() < 1e-9);
    }
}
