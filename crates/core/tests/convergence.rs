//! The reference engine's convergence rows, read back from a run
//! report: μ descends geometrically at the configured rate while
//! cumulative charged work and depth only grow.
//!
//! The report collector is process-global, so this file holds a single
//! test: a concurrent solve in the same process would add its rows.

use pmcf_core::init;
use pmcf_core::reference::{path_follow, PathFollowConfig};
use pmcf_graph::generators;
use pmcf_pram::Tracker;

#[test]
fn engine_produces_monotone_geometric_trace() {
    let p = generators::random_mcf(8, 24, 4, 3, 1);
    let ext = init::extend(&p).unwrap();
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mut t = Tracker::new();
    pmcf_obs::report_begin();
    let _ = path_follow(
        &mut t,
        &ext.prob,
        ext.x0.clone(),
        mu0,
        mu0 / 1e6,
        &PathFollowConfig::default(),
    );
    let rows = pmcf_obs::take_run_report("convergence")
        .expect("collection was begun")
        .convergence;
    assert!(rows.len() > 50);
    assert!(rows.iter().all(|r| r.engine == "reference"));
    assert!(rows.windows(2).all(|w| w[1].mu <= w[0].mu));
    // μ shrinks geometrically by 1 − r/√Στ each iteration
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let rate = ((last.mu / first.mu).ln() / (last.iteration - first.iteration) as f64).exp();
    assert!(rate < 1.0 && rate > 0.8, "decay rate {rate}");
    // work and depth accumulate monotonically, and depth never exceeds work
    assert!(rows
        .windows(2)
        .all(|w| w[1].work >= w[0].work && w[1].depth >= w[0].depth));
    assert!(rows.iter().all(|r| r.depth <= r.work));
    // every row carries its step, inside the clamp range [0.5, 1)
    assert!(rows
        .iter()
        .all(|r| r.step.is_some_and(|s| (0.5..1.0).contains(&s))));
}
