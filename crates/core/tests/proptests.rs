//! Property-based tests of the solver core: exactness against the
//! oracle, rounding invariants, and engine agreement.

use pmcf_baselines::ssp;
use pmcf_core::rounding::{cancel_negative_cycles, round_to_optimal};
use pmcf_core::{solve_mcf, SolverConfig};
use pmcf_graph::generators;
use pmcf_pram::Tracker;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn solver_is_exact_on_arbitrary_instances(
        seed in 0u64..10_000,
        n in 6usize..12,
        density in 3usize..5,
        max_cap in 1i64..6,
        max_cost in 1i64..6,
    ) {
        let m = density * n;
        let p = generators::random_mcf(n, m, max_cap, max_cost, seed);
        let want = ssp::min_cost_flow(&p).unwrap().cost(&p);
        let mut t = Tracker::new();
        let sol = solve_mcf(&mut t, &p, &SolverConfig::default()).unwrap();
        prop_assert!(sol.flow.is_feasible(&p));
        prop_assert_eq!(sol.cost, want);
    }

    #[test]
    fn rounding_from_arbitrary_fractional_points_is_optimal(
        seed in 0u64..5_000,
        noise in 0.0f64..2.0,
    ) {
        // coordinates move by up to ±1, so rounded points are imbalanced
        // and may carry negative cycles: the repair, not the rounding,
        // has to reach the optimum
        let p = generators::random_mcf(7, 21, 3, 3, seed);
        let opt = ssp::min_cost_flow(&p).unwrap();
        let x: Vec<f64> = opt.x.iter().enumerate()
            .map(|(e, &v)| v as f64 + noise * ((((e * 31 + seed as usize) % 11) as f64 / 11.0) - 0.5))
            .collect();
        let rounded = round_to_optimal(&p, &x).unwrap();
        prop_assert!(rounded.is_feasible(&p));
        prop_assert_eq!(rounded.cost(&p), opt.cost(&p));
    }

    #[test]
    fn cycle_cancelling_is_idempotent_at_optimum(seed in 0u64..5_000) {
        let p = generators::random_mcf(7, 21, 3, 4, seed);
        let opt = ssp::min_cost_flow(&p).unwrap();
        let mut x = opt.x.clone();
        cancel_negative_cycles(&p, &mut x).unwrap();
        // cost must be unchanged (a different optimal flow is acceptable)
        let f = pmcf_graph::Flow { x };
        prop_assert!(f.is_feasible(&p));
        prop_assert_eq!(f.cost(&p), opt.cost(&p));
    }
}
