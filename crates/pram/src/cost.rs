//! The work/depth cost algebra.
//!
//! A [`Cost`] is a pair `(work, depth)`. Sequential composition adds both
//! components; parallel composition adds work and takes the maximum depth.
//! These are exactly the composition rules of the PRAM / fork-join model
//! the paper's bounds are stated in.

use crate::{log2_ceil, par_depth};

/// A PRAM cost: total operations (`work`) and critical-path length (`depth`).
///
/// ```
/// use pmcf_pram::Cost;
/// let a = Cost::new(100, 10);
/// let b = Cost::new(50, 40);
/// assert_eq!(a.seq(b), Cost::new(150, 50)); // one after the other
/// assert_eq!(a.par(b), Cost::new(150, 40)); // side by side
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Hash)]
pub struct Cost {
    /// Total number of operations across all processors.
    pub work: u64,
    /// Length of the longest chain of dependent operations.
    pub depth: u64,
}

impl Cost {
    /// The zero cost (identity for both compositions).
    pub const ZERO: Cost = Cost { work: 0, depth: 0 };

    /// A single constant-time operation.
    pub const UNIT: Cost = Cost { work: 1, depth: 1 };

    /// Construct a cost from explicit work and depth.
    #[inline]
    pub const fn new(work: u64, depth: u64) -> Self {
        Cost { work, depth }
    }

    /// `O(k)` sequential operations: work `k`, depth `k`.
    #[inline]
    pub const fn sequential(k: u64) -> Self {
        Cost { work: k, depth: k }
    }

    /// Sequential composition: both components add.
    #[inline]
    pub fn seq(self, other: Cost) -> Cost {
        Cost {
            work: self.work.saturating_add(other.work),
            depth: self.depth.saturating_add(other.depth),
        }
    }

    /// Parallel composition: work adds, depth is the maximum branch.
    #[inline]
    pub fn par(self, other: Cost) -> Cost {
        Cost {
            work: self.work.saturating_add(other.work),
            depth: self.depth.max(other.depth),
        }
    }

    /// Flat parallel loop: `n` independent instances of `per_item`.
    ///
    /// Work is `n · per_item.work`; depth is `per_item.depth` plus the
    /// `⌈log₂ n⌉ + 1` fork/join overhead.
    #[inline]
    pub fn par_for(n: u64, per_item: Cost) -> Cost {
        if n == 0 {
            return Cost::ZERO;
        }
        Cost {
            work: n.saturating_mul(per_item.work),
            depth: per_item.depth.saturating_add(par_depth(n)),
        }
    }

    /// Flat parallel loop of `n` constant-work items.
    #[inline]
    pub fn par_flat(n: u64) -> Cost {
        Cost::par_for(n, Cost::UNIT)
    }

    /// Parallel tree reduction over `n` items: work `n`, depth `⌈log₂ n⌉ + 1`.
    #[inline]
    pub fn reduce(n: u64) -> Cost {
        if n == 0 {
            return Cost::ZERO;
        }
        Cost {
            work: n,
            depth: par_depth(n),
        }
    }

    /// Parallel prefix scan over `n` items: work `2n`, depth `2⌈log₂ n⌉ + 1`
    /// (up-sweep plus down-sweep of a Blelloch scan).
    #[inline]
    pub fn scan(n: u64) -> Cost {
        if n == 0 {
            return Cost::ZERO;
        }
        Cost {
            work: 2 * n,
            depth: 2 * log2_ceil(n) + 1,
        }
    }

    /// Parallel merge sort over `n` items: work `n⌈log₂ n⌉`, depth
    /// `⌈log₂ n⌉²` (Cole-style pipelined merging would be `O(log n)`; we
    /// charge the simpler bound our implementation actually realizes).
    #[inline]
    pub fn sort(n: u64) -> Cost {
        if n <= 1 {
            return Cost::new(n, n);
        }
        let l = log2_ceil(n);
        Cost {
            work: n.saturating_mul(l),
            depth: l * l,
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    /// `+` is sequential composition (the common case in straight-line code).
    fn add(self, rhs: Cost) -> Cost {
        self.seq(rhs)
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = self.seq(rhs);
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::seq)
    }
}

/// Combine an iterator of costs in parallel (work sums, depth maxes).
pub fn par_all<I: IntoIterator<Item = Cost>>(iter: I) -> Cost {
    iter.into_iter().fold(Cost::ZERO, Cost::par)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_adds_both() {
        let a = Cost::new(3, 2);
        let b = Cost::new(5, 7);
        assert_eq!(a.seq(b), Cost::new(8, 9));
    }

    #[test]
    fn par_adds_work_maxes_depth() {
        let a = Cost::new(3, 2);
        let b = Cost::new(5, 7);
        assert_eq!(a.par(b), Cost::new(8, 7));
    }

    #[test]
    fn zero_is_identity() {
        let a = Cost::new(3, 2);
        assert_eq!(a.seq(Cost::ZERO), a);
        assert_eq!(a.par(Cost::ZERO), a);
        assert_eq!(Cost::ZERO.seq(a), a);
    }

    #[test]
    fn seq_and_par_are_associative() {
        let a = Cost::new(1, 5);
        let b = Cost::new(2, 3);
        let c = Cost::new(4, 4);
        assert_eq!(a.seq(b).seq(c), a.seq(b.seq(c)));
        assert_eq!(a.par(b).par(c), a.par(b.par(c)));
    }

    #[test]
    fn par_for_matches_manual() {
        let c = Cost::par_for(8, Cost::new(2, 3));
        assert_eq!(c.work, 16);
        assert_eq!(c.depth, 3 + 4); // item depth + log2(8)+1
    }

    #[test]
    fn par_for_zero_items_is_free() {
        assert_eq!(Cost::par_for(0, Cost::UNIT), Cost::ZERO);
        assert_eq!(Cost::reduce(0), Cost::ZERO);
        assert_eq!(Cost::scan(0), Cost::ZERO);
    }

    #[test]
    fn reduce_depth_is_logarithmic() {
        assert_eq!(Cost::reduce(1024).depth, 11);
        assert_eq!(Cost::reduce(1024).work, 1024);
    }

    #[test]
    fn sort_bounds() {
        let c = Cost::sort(1024);
        assert_eq!(c.work, 1024 * 10);
        assert_eq!(c.depth, 100);
        assert_eq!(Cost::sort(1), Cost::new(1, 1));
        assert_eq!(Cost::sort(0), Cost::ZERO);
    }

    #[test]
    fn sum_is_sequential_fold() {
        let total: Cost = [Cost::new(1, 1), Cost::new(2, 2), Cost::new(3, 3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cost::new(6, 6));
    }

    #[test]
    fn par_all_maxes_depth() {
        let total = par_all([Cost::new(1, 1), Cost::new(2, 9), Cost::new(3, 3)]);
        assert_eq!(total, Cost::new(6, 9));
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let big = Cost::new(u64::MAX, u64::MAX);
        let c = big.seq(Cost::UNIT);
        assert_eq!(c.work, u64::MAX);
        assert_eq!(c.depth, u64::MAX);
    }
}
