#![warn(missing_docs)]

//! # pmcf-pram — an instrumented PRAM cost model
//!
//! The paper states its results in the PRAM model: an algorithm costs
//! *work* (total operations) and *depth* (longest chain of dependent
//! operations). Real hardware with a handful of cores cannot exhibit a
//! `Õ(√n)`-depth separation directly, so this crate provides the
//! substitute substrate described in `DESIGN.md` §2:
//!
//! * a [`Cost`] algebra with sequential (`seq`) and parallel (`par`)
//!   composition, mirroring how PRAM costs compose,
//! * a [`Tracker`] that algorithms thread through to account their own
//!   work/depth as they execute,
//! * instrumented parallel primitives ([`primitives`]) that both *run*
//!   on rayon (real shared-memory parallelism for wall-clock benches)
//!   and *charge* their textbook PRAM cost to a tracker.
//!
//! The accounting convention throughout the workspace: a flat parallel
//! loop over `n` items of `O(1)` work each costs `n` work and
//! `⌈log₂ n⌉ + 1` depth (the `+1` covers the constant per-item step; the
//! log term is the fork/join tree, as in a CREW PRAM simulation).
//! Reductions, scans and sorts follow the standard PRAM bounds
//! (`n`/`log n`, `n`/`log n`, `n log n`/`log² n`).

pub mod annotation;
pub mod cost;
pub mod critpath;
pub mod primitives;
pub mod profile;
pub mod tracker;
pub mod workspace;

pub use cost::Cost;
pub use critpath::{CritPathEntry, CritPathReport};
pub use primitives::SEQ_CUTOFF;
pub use tracker::{ParMode, SpanGuard, Tracker};
pub use workspace::Workspace;

/// `⌈log₂(n)⌉` for `n ≥ 1`; returns 0 for `n ≤ 1`.
#[inline]
pub fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// `⌈log₂(n)⌉ + 1`, the depth of a flat parallel loop over `n` items.
#[inline]
pub fn par_depth(n: u64) -> u64 {
    log2_ceil(n) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_small_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn par_depth_is_log_plus_one() {
        assert_eq!(par_depth(1), 1);
        assert_eq!(par_depth(8), 4);
    }
}
