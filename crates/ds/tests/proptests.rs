//! Property-based tests of the IPM data structures.

use pmcf_ds::accumulator::GradientAccumulator;
use pmcf_ds::gradient::flat_max;
use pmcf_ds::heavy_hitter::HeavyHitter;
use pmcf_ds::tau_sampler::TauSampler;
use pmcf_graph::generators;
use pmcf_pram::Tracker;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heavy_query_equals_brute_force(
        seed in 0u64..200,
        eps in 0.1f64..5.0,
        hs in prop::collection::vec(-3.0f64..3.0, 16),
    ) {
        let g = generators::gnm_digraph(16, 48, seed);
        let w: Vec<f64> = (0..48).map(|e| ((e * 7 + seed as usize) % 13) as f64 / 3.0).collect();
        let mut t = Tracker::new();
        let hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
        let got = hh.heavy_query(&mut t, &hs, eps);
        let want: Vec<usize> = g.edges().iter().enumerate()
            .filter(|&(e, &(u, v))| (w[e] * (hs[v] - hs[u])).abs() >= eps)
            .map(|(e, _)| e)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn heavy_query_correct_after_scales(
        seed in 0u64..100,
        updates in prop::collection::vec((0usize..48, 0.0f64..8.0), 1..30),
    ) {
        let g = generators::gnm_digraph(16, 48, seed);
        let mut w = vec![1.0f64; 48];
        let mut t = Tracker::new();
        let mut hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
        for chunk in updates.chunks(5) {
            hh.scale(&mut t, chunk);
            for &(e, s) in chunk {
                w[e] = s;
            }
        }
        let hs: Vec<f64> = (0..16).map(|v| ((v * 31 + seed as usize) % 7) as f64 - 3.0).collect();
        let got = hh.heavy_query(&mut t, &hs, 1.0);
        let want: Vec<usize> = g.edges().iter().enumerate()
            .filter(|&(e, &(u, v))| (w[e] * (hs[v] - hs[u])).abs() >= 1.0)
            .map(|(e, _)| e)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn flat_max_always_feasible_and_sign_aligned(
        x in prop::collection::vec(-5.0f64..5.0, 1..8),
        v in prop::collection::vec(0.1f64..4.0, 8),
    ) {
        let v = &v[..x.len()];
        let w = flat_max(&x, v);
        let l2: f64 = w.iter().zip(v).map(|(wi, vi)| (wi * vi) * (wi * vi)).sum::<f64>().sqrt();
        let linf = w.iter().fold(0.0f64, |a, &wi| a.max(wi.abs()));
        prop_assert!(l2 + linf <= 1.0 + 1e-6);
        // the maximizer never moves against the gradient
        for (wi, xi) in w.iter().zip(&x) {
            prop_assert!(wi * xi >= -1e-9);
        }
    }

    #[test]
    fn accumulator_tracks_dense_reference(
        steps in prop::collection::vec(prop::collection::vec(-0.01f64..0.01, 3), 1..40),
        seed in 0u64..50,
    ) {
        let m = 20;
        let g: Vec<f64> = (0..m).map(|i| 0.5 + ((i as u64 + seed) % 4) as f64 / 2.0).collect();
        let bucket: Vec<usize> = (0..m).map(|i| i % 3).collect();
        let eps = vec![0.02; m];
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t, vec![0.0; m], g.clone(), bucket.clone(), 3, eps.clone());
        let mut dense = vec![0.0f64; m];
        for s in &steps {
            for i in 0..m {
                dense[i] += g[i] * s[bucket[i]];
            }
            let steps: Vec<(usize, f64)> = s.iter().copied().enumerate().collect();
            let _ = acc.query(&mut t, &steps, &[]);
            for i in 0..m {
                prop_assert!((acc.xbar()[i] - dense[i]).abs() <= eps[i] + 1e-12);
            }
        }
        let exact = acc.compute_exact(&mut t);
        for i in 0..m {
            prop_assert!((exact[i] - dense[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn tau_sampler_sum_consistent_under_scales(
        updates in prop::collection::vec((0usize..30, 0.01f64..100.0), 1..50),
    ) {
        let mut t = Tracker::new();
        let mut tau = vec![1.0f64; 30];
        let mut s = TauSampler::initialize(&mut t, 10, tau.clone(), 3);
        for chunk in updates.chunks(7) {
            s.scale(&mut t, chunk);
            for &(i, v) in chunk {
                tau[i] = v;
            }
            let want: f64 = tau.iter().sum();
            prop_assert!((s.weight_sum() - want).abs() < 1e-6 * want);
        }
        // probability lower bound holds for every index
        let idx: Vec<usize> = (0..30).collect();
        let p = s.probability(&mut t, &idx, 0.7);
        let sum: f64 = tau.iter().sum();
        for (i, &pi) in p.iter().enumerate() {
            let lb = (0.7 * 10.0 * tau[i] / sum).min(1.0);
            prop_assert!(pi >= lb - 1e-9, "idx {}: {} < {}", i, pi, lb);
        }
    }
}
