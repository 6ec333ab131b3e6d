#![warn(missing_docs)]

//! # pmcf-ds — the IPM data-structure stack (paper Appendices A–E)
//!
//! * [`tau_sampler`] — the τ-proportional sampler (Theorem A.3),
//! * [`heavy_hitter`] — expander-decomposition-backed detection of heavy
//!   coordinates of `Diag(g)·A·h` (Lemma B.1),
//! * [`gradient`] — gradient reduction with the `ℓ₂+ℓ∞` steepest-descent
//!   maximizer (Lemmas D.2/D.4),
//! * [`accumulator`] — the gradient accumulator (Lemma D.5),
//! * [`primal`] — combined primal/gradient maintenance (Theorem D.1),
//! * [`dual`] — dual slack maintenance (Theorem E.1),
//! * [`lewis_maint`] — leverage-score / Lewis-weight maintenance
//!   (Theorems C.1–C.2),
//! * [`heavy_sampler`] — the per-step sampler for `R` (Theorem E.2).

pub mod accumulator;
pub mod dual;
pub mod gradient;
pub mod heavy_hitter;
pub mod heavy_sampler;
pub mod lewis_maint;
pub mod primal;
pub mod tau_sampler;
