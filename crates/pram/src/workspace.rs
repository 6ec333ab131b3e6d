//! A per-solve arena of reusable `f64` buffers.
//!
//! The CG/IPM hot loop needs a handful of `n`- and `m`-length scratch
//! vectors per Newton step; allocating them fresh each iteration is the
//! dominant heap churn of a solve. A [`Workspace`] pools returned
//! buffers by capacity class so steady-state iterations recycle instead
//! of allocating: the first few checkouts of each length class hit the
//! allocator (`pmcf.alloc.fresh`), everything after is a pop off the
//! free list (`pmcf.alloc.reuse`). Both counters feed the metrics
//! registry of the supplied [`Tracker`], so reuse is observable in any
//! profiled run (a `PMCF_REPORT` session profiles every bench tracker).
//!
//! Ownership discipline makes aliasing impossible by construction: a
//! checkout *moves* a `Vec<f64>` out of the pool and a checkin moves it
//! back, so two live checkouts can never share storage. Checked-out
//! buffers are always zeroed ([`Workspace::take`]) or fully overwritten
//! ([`Workspace::take_copy`]) — no data leaks between solves.
//!
//! The pool is internally synchronized (`Mutex` over a `BTreeMap` of
//! capacity classes), so one workspace can be shared across the
//! fork-join branches of a batched multi-RHS solve. Checkout/checkin
//! happens once per solve, not per CG iteration, so the lock is cold.

use crate::Tracker;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A pool of reusable `Vec<f64>` buffers, bucketed by capacity class.
///
/// ```
/// use pmcf_pram::{Tracker, Workspace};
/// let ws = Workspace::new();
/// let mut t = Tracker::new();
/// let a = ws.take(&mut t, 8);        // fresh allocation
/// assert!(a.iter().all(|&x| x == 0.0));
/// ws.give(a);
/// let b = ws.take(&mut t, 8);        // recycled, zeroed again
/// assert_eq!(b.len(), 8);
/// assert_eq!(ws.fresh(), 1);
/// assert_eq!(ws.reused(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Free buffers keyed by capacity; `take(len)` pops from the
    /// smallest class that fits, so `n`- and `m`-length requests each
    /// settle into their own bucket.
    pool: Mutex<BTreeMap<usize, Vec<Vec<f64>>>>,
    fresh: AtomicU64,
    reused: AtomicU64,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Check out a zeroed buffer of exactly `len` elements.
    ///
    /// Reuses a pooled buffer whose capacity fits when one exists
    /// (counted as `pmcf.alloc.reuse`); otherwise allocates fresh
    /// (`pmcf.alloc.fresh`).
    pub fn take(&self, t: &mut Tracker, len: usize) -> Vec<f64> {
        match self.pop_fitting(len) {
            Some(mut buf) => {
                t.counter("pmcf.alloc.reuse", 1);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                t.counter("pmcf.alloc.fresh", 1);
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Check out a buffer initialized as a copy of `src` (the pooled
    /// replacement for `src.to_vec()`).
    pub fn take_copy(&self, t: &mut Tracker, src: &[f64]) -> Vec<f64> {
        match self.pop_fitting(src.len()) {
            Some(mut buf) => {
                t.counter("pmcf.alloc.reuse", 1);
                buf.clear();
                buf.extend_from_slice(src);
                buf
            }
            None => {
                t.counter("pmcf.alloc.fresh", 1);
                self.fresh.fetch_add(1, Ordering::Relaxed);
                src.to_vec()
            }
        }
    }

    /// Return a buffer to the pool for later reuse. Accepts any
    /// `Vec<f64>` (including ones not originally checked out here);
    /// zero-capacity vectors are dropped rather than pooled.
    pub fn give(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        pool.entry(buf.capacity()).or_default().push(buf);
    }

    /// Total buffers handed out by fresh allocation so far.
    pub fn fresh(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Total checkouts served from the pool so far.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Free buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        let pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        pool.values().map(Vec::len).sum()
    }

    /// Pop a pooled buffer with capacity ≥ `len`, preferring the
    /// smallest fitting class (keeps the big `m`-buffers for the big
    /// requests). Emptied buckets stay parked in the map — removing and
    /// re-inserting them would churn BTreeMap nodes on every
    /// checkout/checkin cycle, breaking the steady-state zero-allocation
    /// guarantee.
    fn pop_fitting(&self, len: usize) -> Option<Vec<f64>> {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let buf = pool
            .range_mut(len.max(1)..)
            .find_map(|(_, bucket)| bucket.pop())?;
        self.reused.fetch_add(1, Ordering::Relaxed);
        Some(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_after_give() {
        let ws = Workspace::new();
        let mut t = Tracker::new();
        let mut a = ws.take(&mut t, 4);
        a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ws.give(a);
        let b = ws.take(&mut t, 4);
        assert_eq!(b, vec![0.0; 4], "recycled buffer must be cleared");
        assert_eq!(ws.fresh(), 1);
        assert_eq!(ws.reused(), 1);
    }

    #[test]
    fn take_copy_matches_source() {
        let ws = Workspace::new();
        let mut t = Tracker::new();
        let src = vec![1.5, -2.5, 0.0];
        let a = ws.take_copy(&mut t, &src);
        assert_eq!(a, src);
        ws.give(a);
        let b = ws.take_copy(&mut t, &src[..2]);
        assert_eq!(b, &src[..2], "shrinking reuse must truncate");
    }

    #[test]
    fn distinct_checkouts_never_alias() {
        let ws = Workspace::new();
        let mut t = Tracker::new();
        let mut a = ws.take(&mut t, 8);
        let mut b = ws.take(&mut t, 8);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&x| x == 1.0));
        assert!(b.iter().all(|&x| x == 2.0));
        assert_eq!(ws.fresh(), 2, "two live buffers require two allocations");
    }

    #[test]
    fn smallest_fitting_class_is_preferred() {
        let ws = Workspace::new();
        let mut t = Tracker::new();
        let small = ws.take(&mut t, 4);
        let big = ws.take(&mut t, 1024);
        let (small_cap, big_cap) = (small.capacity(), big.capacity());
        ws.give(big);
        ws.give(small);
        let again = ws.take(&mut t, 4);
        assert_eq!(again.capacity(), small_cap, "small request took big buffer");
        let again_big = ws.take(&mut t, 1024);
        assert_eq!(again_big.capacity(), big_cap);
        assert_eq!(ws.fresh(), 2);
        assert_eq!(ws.reused(), 2);
    }

    #[test]
    fn alloc_counters_feed_metrics_registry() {
        let ws = Workspace::new();
        let mut t = Tracker::profiled();
        let a = ws.take(&mut t, 16);
        ws.give(a);
        let b = ws.take(&mut t, 16);
        ws.give(b);
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["pmcf.alloc.fresh"], 1);
        assert_eq!(rep.counters["pmcf.alloc.reuse"], 1);
    }

    #[test]
    fn shared_across_threads() {
        let ws = std::sync::Arc::new(Workspace::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let ws = std::sync::Arc::clone(&ws);
                std::thread::spawn(move || {
                    let mut t = Tracker::new();
                    for _ in 0..50 {
                        let mut v = ws.take(&mut t, 64 + i);
                        v.fill(i as f64);
                        assert_eq!(v.len(), 64 + i);
                        ws.give(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(ws.pooled() >= 1);
    }
}
