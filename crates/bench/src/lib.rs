#![warn(missing_docs)]
//! # pmcf-bench — experiment harnesses
//!
//! One binary per experiment id of DESIGN.md §5 plus shared helpers.
//! Each binary prints a markdown table comparable to the paper's
//! exhibits; EXPERIMENTS.md records the paper-vs-measured analysis.

use pmcf_core::reference::PathFollowConfig;
use pmcf_core::{Engine, SolverConfig};

pub mod alloc_counter;
pub mod artifact;
pub mod gate;

pub use alloc_counter::{alloc_bytes, alloc_count, measure_allocs};
pub use artifact::{Artifact, BenchArgs};

/// The three solver rows of Table 1 (left).
pub fn configs() -> Vec<(&'static str, SolverConfig)> {
    vec![
        (
            "dense IPM [LS14]",
            SolverConfig {
                engine: Engine::Reference,
                path: PathFollowConfig {
                    tau_refresh: 1,
                    ..PathFollowConfig::default()
                },
            },
        ),
        (
            "reference IPM",
            SolverConfig {
                engine: Engine::Reference,
                path: PathFollowConfig::default(),
            },
        ),
        (
            "robust IPM (this paper)",
            SolverConfig {
                engine: Engine::Robust,
                path: PathFollowConfig::default(),
            },
        ),
    ]
}

/// Fit `log y = a·log x + b` over points; returns the exponent `a`.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_fit_recovers_power_law() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| (i as f64, (i as f64).powf(1.5) * 7.0))
            .collect();
        assert!((fit_exponent(&pts) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn three_solver_rows() {
        assert_eq!(configs().len(), 3);
    }
}
