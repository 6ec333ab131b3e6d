//! Critical-path depth ledger: *where* did the charged depth go?
//!
//! The flat [`Tracker`](crate::Tracker) answers "how much depth did the
//! run cost"; the span profiler ([`crate::profile`]) attributes *work* to
//! phases but cannot attribute depth, because depth does not sum across
//! parallel siblings — at every join only the deeper branch contributes.
//! This module adds the missing attribution: a `DepthLedger` rides on
//! the tracker and, at every `join` / `par_join` / `parallel` merge,
//! records **which branch won the depth max**. Only the winner's ledger
//! survives the merge (grafted under the span path open at the fork), so
//! walking the surviving entries reconstructs the exact critical path
//! through the span tree, and every unit of `Tracker::depth()` is
//! attributed to a named span:
//!
//! ```
//! use pmcf_pram::{Cost, Tracker};
//! let mut t = Tracker::new().with_critpath();
//! t.span("solve", |t| {
//!     t.join(
//!         |t| t.span("cheap", |t| t.charge(Cost::new(100, 3))),
//!         |t| t.span("deep", |t| t.charge(Cost::new(10, 9))),
//!     );
//! });
//! let rep = t.critpath_report().unwrap();
//! assert_eq!(rep.total_depth, 9);
//! assert_eq!(rep.attributed_depth, 9);     // exact, not approximate
//! assert_eq!(rep.depth_of("solve > deep"), 9); // the losing branch vanishes
//! ```
//!
//! The accounting is *exact*: the sum of all ledger entries equals the
//! tracker's total depth, by induction over the two ways depth enters a
//! tracker — a sequential [`charge`](crate::Tracker::charge) (attributed
//! to the currently open span path) and a branch merge (attributed to
//! the winning branch's entries, whose sum is the branch depth, which is
//! the max the parent charges). Proptests in `tests/proptests.rs` pin
//! this identity for `Sequential` and `Forked` execution and under
//! nested `par_join`.
//!
//! Like profiling, the ledger is strictly opt-in
//! ([`Tracker::with_critpath`](crate::Tracker::with_critpath); a
//! `PMCF_REPORT` session's `pmcf_obs::tracker()` carries one) and never
//! changes charged totals — it only watches them. Reports render as a
//! markdown top-K table (`pmcf-obs` renders them as `pmcf.critpath/v1`
//! JSON for bench artifacts).

use std::collections::BTreeMap;

/// Separator between nested span names in a ledger path. Span names
/// themselves may contain `/` (e.g. `ipm/newton`), so nesting uses a
/// distinct token.
pub const PATH_SEP: &str = " > ";

/// Display name for depth charged outside any span.
pub const UNATTRIBUTED: &str = "(unattributed)";

/// Per-tracker critical-path state: a map from span path to the depth
/// attributed there, plus the open-span path this tracker is currently
/// charging into.
///
/// Branch trackers carry their own (initially empty) ledger with paths
/// relative to the fork point; [`DepthLedger::absorb_winner`] grafts the
/// winning branch's entries under the parent's open path at merge time.
#[derive(Clone, Debug, Default)]
pub(crate) struct DepthLedger {
    /// Depth attributed per span path (`""` = outside any span).
    map: BTreeMap<String, u64>,
    /// Current open-span path, segments joined by [`PATH_SEP`].
    path: String,
    /// Byte length of `path` before each open span, for O(1) pops.
    stack: Vec<usize>,
    /// Join points witnessed (this tracker and all absorbed winners).
    joins: u64,
}

impl DepthLedger {
    /// Open a span: extend the current path.
    pub(crate) fn push(&mut self, name: &str) {
        self.stack.push(self.path.len());
        if !self.path.is_empty() {
            self.path.push_str(PATH_SEP);
        }
        self.path.push_str(name);
    }

    /// Close the innermost span (no-op on an empty stack, mirroring the
    /// profiler's tolerance for panic-path teardown).
    pub(crate) fn pop(&mut self) {
        if let Some(len) = self.stack.pop() {
            self.path.truncate(len);
        }
    }

    /// Attribute `depth` units to the currently open path.
    pub(crate) fn charge(&mut self, depth: u64) {
        if depth == 0 {
            return;
        }
        if let Some(v) = self.map.get_mut(&self.path) {
            *v = v.saturating_add(depth);
        } else {
            self.map.insert(self.path.clone(), depth);
        }
    }

    /// Merge the depth-winning branch's ledger: its (relative) entries
    /// are grafted under this ledger's current open path. Losing
    /// branches' ledgers are simply dropped by the caller — their depth
    /// does not reach the parent total, so attributing it would break
    /// the exactness invariant.
    pub(crate) fn absorb_winner(&mut self, winner: DepthLedger) {
        self.joins = self.joins.saturating_add(1 + winner.joins);
        for (rel, d) in winner.map {
            let key = if rel.is_empty() {
                self.path.clone()
            } else if self.path.is_empty() {
                rel
            } else {
                format!("{}{}{}", self.path, PATH_SEP, rel)
            };
            if let Some(v) = self.map.get_mut(&key) {
                *v = v.saturating_add(d);
            } else {
                self.map.insert(key, d);
            }
        }
    }

    /// Sum of all attributed depth (equals the owning tracker's depth).
    pub(crate) fn attributed(&self) -> u64 {
        self.map.values().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Forget all attribution (keeps the open-span path; used by
    /// `Tracker::reset`).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.joins = 0;
    }

    /// Snapshot into a report against the tracker's total depth.
    pub(crate) fn report(&self, total_depth: u64) -> CritPathReport {
        let mut entries: Vec<CritPathEntry> = self
            .map
            .iter()
            .map(|(path, &depth)| CritPathEntry {
                path: if path.is_empty() {
                    UNATTRIBUTED.to_string()
                } else {
                    path.clone()
                },
                depth,
            })
            .collect();
        // deepest first; ties broken by path for determinism
        entries.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.path.cmp(&b.path)));
        CritPathReport {
            total_depth,
            attributed_depth: self.attributed(),
            joins: self.joins,
            entries,
        }
    }
}

/// One span path on the critical path and the depth it contributed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CritPathEntry {
    /// Span path, segments joined by [`PATH_SEP`]; [`UNATTRIBUTED`] for
    /// depth charged outside any span.
    pub path: String,
    /// Depth units attributed to this path.
    pub depth: u64,
}

/// A finished critical-path attribution (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct CritPathReport {
    /// The owning tracker's total depth at snapshot time.
    pub total_depth: u64,
    /// Sum over [`CritPathReport::entries`] — equals `total_depth` by
    /// the ledger's exactness invariant.
    pub attributed_depth: u64,
    /// Fork-join merge points folded into this attribution.
    pub joins: u64,
    /// Attribution entries, deepest first.
    pub entries: Vec<CritPathEntry>,
}

impl CritPathReport {
    /// Depth attributed to an exact span path (0 when absent).
    pub fn depth_of(&self, path: &str) -> u64 {
        self.entries
            .iter()
            .find(|e| e.path == path)
            .map(|e| e.depth)
            .unwrap_or(0)
    }

    /// Whether every unit of tracker depth was attributed (always true
    /// for ledgers driven through `Tracker`; exposed for tests and CI
    /// schema checks).
    pub fn is_exact(&self) -> bool {
        self.total_depth == self.attributed_depth
    }

    /// Markdown top-`k` table of the deepest span paths.
    pub fn to_markdown(&self, k: usize) -> String {
        let mut out = String::from("### Critical-path depth attribution\n\n");
        out.push_str(&format!(
            "total depth {} across {} join(s); {} span path(s) on the critical path\n\n",
            self.total_depth,
            self.joins,
            self.entries.len()
        ));
        out.push_str("| rank | span path | depth | share |\n|---|---|---|---|\n");
        for (i, e) in self.entries.iter().take(k).enumerate() {
            let share = if self.total_depth > 0 {
                100.0 * e.depth as f64 / self.total_depth as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "| {} | {} | {} | {share:.1}% |\n",
                i + 1,
                e.path,
                e.depth
            ));
        }
        if self.entries.len() > k {
            let rest: u64 = self.entries.iter().skip(k).map(|e| e.depth).sum();
            out.push_str(&format!(
                "| — | ({} more) | {rest} | {:.1}% |\n",
                self.entries.len() - k,
                if self.total_depth > 0 {
                    100.0 * rest as f64 / self.total_depth as f64
                } else {
                    0.0
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cost, Tracker};

    #[test]
    fn sequential_charges_attribute_to_open_span() {
        let mut t = Tracker::new().with_critpath();
        t.charge(Cost::new(1, 2)); // outside any span
        t.span("a", |t| {
            t.charge(Cost::new(5, 3));
            t.span("b", |t| t.charge(Cost::new(7, 4)));
        });
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 9);
        assert!(rep.is_exact());
        assert_eq!(rep.depth_of(super::UNATTRIBUTED), 2);
        assert_eq!(rep.depth_of("a"), 3);
        assert_eq!(rep.depth_of("a > b"), 4);
    }

    #[test]
    fn join_keeps_only_the_deeper_branch() {
        let mut t = Tracker::new().with_critpath();
        t.span("solve", |t| {
            t.join(
                |t| t.span("light", |t| t.charge(Cost::new(100, 1))),
                |t| t.span("heavy", |t| t.charge(Cost::new(1, 8))),
            );
        });
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 8);
        assert!(rep.is_exact());
        assert_eq!(rep.depth_of("solve > heavy"), 8);
        assert_eq!(rep.depth_of("solve > light"), 0);
        assert_eq!(rep.joins, 1);
    }

    #[test]
    fn tie_goes_to_the_first_branch_deterministically() {
        let mut t = Tracker::new().with_critpath();
        t.join(
            |t| t.span("first", |t| t.charge(Cost::new(1, 5))),
            |t| t.span("second", |t| t.charge(Cost::new(1, 5))),
        );
        let rep = t.critpath_report().unwrap();
        assert!(rep.is_exact());
        assert_eq!(rep.depth_of("first"), 5);
        assert_eq!(rep.depth_of("second"), 0);
    }

    #[test]
    fn nested_joins_compose_paths() {
        let mut t = Tracker::new().with_critpath();
        t.span("outer", |t| {
            t.join(
                |t| {
                    t.join(
                        |t| t.span("aa", |t| t.charge(Cost::new(1, 2))),
                        |t| t.span("ab", |t| t.charge(Cost::new(1, 6))),
                    );
                },
                |t| t.span("b", |t| t.charge(Cost::new(1, 3))),
            );
        });
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 6);
        assert!(rep.is_exact());
        assert_eq!(rep.depth_of("outer > ab"), 6);
        assert_eq!(rep.joins, 2);
    }

    #[test]
    fn parallel_matches_manual_join() {
        let mut t = Tracker::new().with_critpath();
        t.span("p", |t| {
            t.parallel(4, |i, t| {
                t.span("item", |t| t.charge(Cost::new(1, i as u64 + 1)))
            });
        });
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 4);
        assert!(rep.is_exact());
        assert_eq!(rep.depth_of("p > item"), 4);
    }

    #[test]
    fn report_renders_markdown() {
        let mut t = Tracker::new().with_critpath();
        t.span("a", |t| t.charge(Cost::new(1, 1)));
        t.span("b", |t| t.charge(Cost::new(1, 9)));
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 10);
        let md = rep.to_markdown(1);
        assert!(md.contains("| 1 | b | 9 |"));
        assert!(md.contains("(1 more)"));
    }

    #[test]
    fn ledger_off_by_default_and_free() {
        let mut t = Tracker::new();
        t.charge(Cost::new(3, 3));
        assert!(t.critpath_report().is_none());
    }

    #[test]
    fn disabled_tracker_ledger_stays_empty() {
        let mut t = Tracker::disabled().with_critpath();
        t.span("x", |t| t.charge(Cost::new(9, 9)));
        t.join(|t| t.charge(Cost::UNIT), |t| t.charge(Cost::UNIT));
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 0);
        assert_eq!(rep.attributed_depth, 0);
    }

    #[test]
    fn scoped_costs_attribute_where_charged() {
        let mut t = Tracker::new().with_critpath();
        let ((), c) = t.scoped(|t| t.span("inner", |t| t.charge(Cost::new(4, 4))));
        assert_eq!(t.depth(), 0); // scoped does not charge
        t.span("outer", |t| t.charge(c));
        let rep = t.critpath_report().unwrap();
        assert!(rep.is_exact());
        assert_eq!(rep.depth_of("outer"), 4);
    }

    #[test]
    fn reset_clears_attribution() {
        let mut t = Tracker::new().with_critpath();
        t.charge(Cost::new(2, 2));
        t.reset();
        let rep = t.critpath_report().unwrap();
        assert_eq!(rep.total_depth, 0);
        assert_eq!(rep.attributed_depth, 0);
        assert!(rep.is_exact());
    }
}
