#![warn(missing_docs)]

//! # pmcf-diff — the differential correctness harness
//!
//! Every solver in the workspace answers the same questions: the two IPM
//! engines through `solve_mcf` and the corollary reductions, the
//! combinatorial baselines directly. This crate pits them against each
//! other on seeded *adversarial* instance families and treats any
//! disagreement as a bug in somebody:
//!
//! * [`families`](mod@families) — seeded generators for the edge cases that broke (or
//!   could break) the solver: zero-capacity and saturated edges,
//!   self-loops, parallel/antiparallel bundles, disconnected demands,
//!   infeasible demand vectors, degenerate all-equal costs, magnitudes
//!   at the `C·W·m² < 2^62` boundary, star/path/expander topologies;
//! * [`driver`] — runs every applicable oracle on a scenario, compares
//!   verdicts, and checks the flight-recorder invariant monitors stayed
//!   clean during the IPM runs;
//! * [`shrink`] — greedy minimization of a mismatching scenario (drop
//!   edges, shrink magnitudes, trim vertices) while it keeps failing;
//! * [`case`] — replayable `pmcf.case/v1` JSON files under
//!   `results/cases/`, written for every shrunken mismatch and replayed
//!   as regression tests by `cargo test`.
//!
//! The `diff_check` binary drives the whole loop and is wired into CI as
//! a bounded-time fuzz-smoke leg.

pub mod case;
pub mod driver;
pub mod families;
pub mod shrink;

pub use case::CaseFile;
pub use driver::{run_scenario, Report};
pub use families::{families, Family, Scenario};
