#![warn(missing_docs)]

//! # pmcf-expander — parallel expander decomposition machinery
//!
//! Section 3 of the paper, its main technical contribution:
//!
//! * [`conductance`] — conductance/expansion measurement: exact
//!   enumeration (test oracle), sweep cuts, spectral (Cheeger) bounds,
//! * [`unit_flow`] — `ParallelUnitFlow` / `PushThenRelabel`
//!   (Algorithms 1–2, Lemmas 3.10–3.11),
//! * [`trimming`] — the `Trimming` procedure (Algorithm 3, Lemma 3.7),
//! * [`static_decomp`] — static expander decomposition (the \[CMGS25\]
//!   substitute of DESIGN.md §2: recursive spectral partitioning) and the
//!   edge-partition variant of Lemma 3.4,
//! * [`pruning`] — decremental expander pruning (Lemma 3.6 → Lemma 3.3),
//! * [`boosting`] — batch-number boosting by rollback (Lemma 3.5),
//! * [`dynamic`] — the fully dynamic edge-partitioned expander
//!   decomposition (Lemma 3.1).

pub mod boosting;
pub mod conductance;
pub mod dynamic;
pub mod pruning;
pub mod static_decomp;
pub mod trimming;
pub mod unit_flow;

pub use dynamic::DynamicExpanderDecomposition;
