#![warn(missing_docs)]

//! # pmcf-core — parallel minimum-cost flow via interior point methods
//!
//! The paper's primary contribution (Theorem 1.2): an IPM whose
//! `Õ(√n)` iterations each cost `Õ(m/√n + n)` work and `Õ(1)` depth,
//! giving exact min-cost flow in `Õ(m + n^{1.5})` work and `Õ(√n)`
//! depth.
//!
//! * [`barrier`] — the two-sided log barrier `φ` and its derivatives,
//! * [`init`] — auxiliary-edge construction of a centered initial point,
//! * [`reference`](mod@reference) — the *reference engine*: weighted path following with
//!   exact per-iteration recomputation (`Õ(m)`/iteration — the \[LS14\]
//!   cost shape; also the correctness anchor),
//! * [`robust`] — the *robust engine* of the paper: the same central
//!   path, but all per-iteration quantities maintained by the
//!   data-structure stack of `pmcf-ds` (`Õ(m/√n + n)` accounted
//!   work/iteration),
//! * [`rounding`] — rounding the interior iterate to an exact integral
//!   optimum (repaired in place, certified unconditionally by
//!   potentials),
//! * [`api`] — the public solver entry points,
//! * [`resolve`] — incremental re-solve on graph deltas: checkpointed
//!   warm restarts from the previous central-path point,
//! * [`corollaries`] — max flow, bipartite matching, negative-weight
//!   SSSP, reachability (Corollaries 1.3–1.5).

pub mod api;
pub mod barrier;
pub mod corollaries;
pub mod error;
pub mod init;
pub mod oracle;
pub mod reference;
pub mod resolve;
pub mod robust;
pub mod rounding;

pub use api::{
    max_flow, max_flow_with, min_cost_flow, solve_mcf, solve_mcf_checkpointed, validate_instance,
    validate_max_flow_input, Engine, MaxFlowEngine, McfSolution, SolverConfig,
};
pub use error::{McfError, SsspError};
pub use resolve::{McfCheckpoint, NewEdge, ResolveDelta};
