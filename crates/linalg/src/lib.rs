#![warn(missing_docs)]

//! # pmcf-linalg — sparse linear algebra for the IPM
//!
//! The substrate of paper Appendix A:
//!
//! * [`solver`] — the parallel SDD solver of Lemma A.1: `ε`-approximate
//!   solutions to `AᵀDA x = b` (grounded Laplacian) via preconditioned
//!   conjugate gradient with Jacobi preconditioning; each matvec is
//!   depth-`Õ(1)`,
//! * [`dense`] — dense Gaussian elimination, the small-instance oracle
//!   used by tests,
//! * [`sketch`] — Johnson-Lindenstrauss sketching,
//! * [`leverage`] — leverage-score estimation `σ(√D·A)` by sketched
//!   solves (the `Õ(1/ε²)`-solve scheme referenced in Theorem C.2),
//! * [`lewis`] — the IPM's Lewis exponent `p` and the exact regularized
//!   `ℓ_p` Lewis-weight fixed point, a test oracle (paper eq. (2) and
//!   Appendix A "Leverage Scores and Lewis-Weights").

pub mod dense;
pub mod leverage;
pub mod lewis;
pub mod sketch;
pub mod solver;

pub use dense::DenseMat;
pub use solver::{LaplacianSolver, SolveStats, SolverOpts};
