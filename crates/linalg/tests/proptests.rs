//! Property-based tests of the linear-algebra substrate.

use pmcf_graph::{generators, incidence};
use pmcf_linalg::dense;
use pmcf_linalg::leverage::exact_leverage;
use pmcf_linalg::sketch::JlSketch;
use pmcf_linalg::solver::{LaplacianSolver, SolverOpts};
use pmcf_pram::Tracker;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cg_matches_dense_on_random_weighted_graphs(
        seed in 0u64..500,
        n in 5usize..14,
    ) {
        let m = 3 * n;
        let g = generators::gnm_digraph(n, m, seed);
        let d: Vec<f64> = (0..m).map(|e| 0.1 + ((e as u64 * 31 + seed) % 50) as f64 / 10.0).collect();
        let mut b: Vec<f64> = (0..n).map(|v| ((v as u64 * 17 + seed) % 11) as f64 - 5.0).collect();
        b[0] = 0.0;
        let solver = LaplacianSolver::new(g.clone(), 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, stats) = solver.solve(&mut t, &d, &b);
        prop_assert!(stats.rel_residual < 1e-7);
        let l = incidence::dense_grounded_laplacian(&g, &d, 0);
        let xd = dense::solve(l, b).unwrap();
        for i in 0..n {
            prop_assert!((x[i] - xd[i]).abs() < 1e-5 * (1.0 + xd[i].abs()),
                "coord {}: {} vs {}", i, x[i], xd[i]);
        }
    }

    #[test]
    fn leverage_scores_sum_to_rank_and_bounded(seed in 0u64..200, n in 5usize..12) {
        let m = 3 * n;
        let g = generators::gnm_digraph(n, m, seed);
        let d: Vec<f64> = (0..m).map(|e| 0.2 + ((e * 13) % 9) as f64).collect();
        let sigma = exact_leverage(&g, &d, 0);
        let sum: f64 = sigma.iter().sum();
        prop_assert!((sum - (n as f64 - 1.0)).abs() < 1e-6, "Σσ = {}", sum);
        prop_assert!(sigma.iter().all(|&s| (-1e-9..=1.0 + 1e-9).contains(&s)));
    }

    #[test]
    fn leverage_monotone_in_own_weight(seed in 0u64..100) {
        // raising an edge's weight cannot decrease its leverage score
        let g = generators::gnm_digraph(8, 24, seed);
        let mut d = vec![1.0; 24];
        let before = exact_leverage(&g, &d, 0);
        d[5] *= 4.0;
        let after = exact_leverage(&g, &d, 0);
        prop_assert!(after[5] >= before[5] - 1e-9);
    }

    #[test]
    fn jl_adjoint_identity(r in 2usize..10, m in 4usize..40, seed in 0u64..100) {
        let q = JlSketch::new(r, m, seed);
        let v: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..r).map(|i| (i as f64).cos()).collect();
        let lhs: f64 = q.apply(&v).iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = v.iter().zip(&q.apply_transpose(&y)).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn dense_solve_then_matvec_roundtrips(n in 2usize..8, seed in 0u64..200) {
        // build SPD system, solve, verify residual
        let mut mat = vec![vec![0.0; n]; n];
        for (i, row) in mat.iter_mut().enumerate() {
            for (j, mv) in row.iter_mut().enumerate() {
                *mv += (((i * 7 + j * 13 + seed as usize) % 19) as f64 - 9.0) / 9.0;
            }
        }
        // M = BᵀB + I
        let mut spd = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                for row in &mat {
                    spd[i][j] += row[i] * row[j];
                }
            }
            spd[i][i] += 1.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let x = dense::solve(spd.clone(), b.clone()).unwrap();
        let back = dense::matvec(&spd, &x);
        for i in 0..n {
            prop_assert!((back[i] - b[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn depth_parity_pair_solve_matches_batch(
        seed in 0u64..300,
        n in 5usize..14,
        gen_raw in 0u64..5,
    ) {
        let gen = (gen_raw > 0).then_some(gen_raw);
        // The robust IPM's per-step two-RHS solve goes through the
        // allocation-free `solve_pair`; its charged work/depth,
        // solutions, and stats must be bit-identical to the general
        // `solve_batch` with the same two specs — on every thread
        // count and ParMode (the pair path forks exactly when the batch
        // path would, and charges are execution-independent).
        let m = 3 * n;
        let g = generators::gnm_digraph(n, m, seed);
        let d: Vec<f64> = (0..m).map(|e| 0.1 + ((e as u64 * 31 + seed) % 50) as f64 / 10.0).collect();
        let mut b1: Vec<f64> = (0..n).map(|v| ((v as u64 * 17 + seed) % 11) as f64 - 5.0).collect();
        let mut b2: Vec<f64> = (0..n).map(|v| ((v as u64 * 29 + seed) % 13) as f64 - 6.0).collect();
        b1[0] = 0.0;
        b2[0] = 0.0;
        let specs = [
            pmcf_linalg::solver::RhsSpec { b: &b1, guess: None },
            pmcf_linalg::solver::RhsSpec { b: &b2, guess: None },
        ];
        // separate solver instances: a shared one would let the second
        // call hit the first's preconditioner cache and charge less
        let solver_b = LaplacianSolver::new(g.clone(), 0, SolverOpts::default());
        let solver_p = LaplacianSolver::new(g, 0, SolverOpts::default());
        let params = pmcf_linalg::solver::SolveParams {
            d_gen: gen,
            ..Default::default()
        };
        let mut tb = Tracker::new();
        let batch = solver_b.solve_batch(&mut tb, &d, &specs, &params);
        let mut tp = Tracker::new();
        let ((x1, s1), (x2, s2)) = solver_p.solve_pair(&mut tp, &d, &specs[0], &specs[1], &params);
        prop_assert_eq!(tp.work(), tb.work());
        prop_assert_eq!(tp.depth(), tb.depth());
        prop_assert_eq!(s1.iterations, batch[0].1.iterations);
        prop_assert_eq!(s2.iterations, batch[1].1.iterations);
        for (a, b) in x1.iter().zip(&batch[0].0).chain(x2.iter().zip(&batch[1].0)) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
