//! Property-based tests of the PRAM cost algebra, primitives, and the
//! span profiler's reconciliation invariants.

use pmcf_pram::profile::{Histogram, SpanReport};
use pmcf_pram::{cost::par_all, primitives as pp, Cost, ParMode, Tracker, Workspace};
use proptest::prelude::*;

/// One instruction of a random profiling program: `(kind, w, d)`.
/// `kind % 4`: 0/1 = charge `Cost::new(w, d)`, 2 = open a nested span
/// (name derived from `w`) over the following ops, 3 = close the current
/// span and return to the parent.
type Op = (u8, u64, u64);

/// Interprets `ops` inside the current scope; returns ops consumed.
fn run_ops(t: &mut Tracker, ops: &[Op], level: usize) -> usize {
    let mut i = 0;
    while i < ops.len() {
        let (kind, w, d) = ops[i];
        i += 1;
        match kind % 4 {
            0 | 1 => t.charge(Cost::new(w, d)),
            2 if level < 4 => {
                let name = format!("s{}", w % 3);
                let used = t.span(&name, |t| {
                    t.charge(Cost::new(1, 1)); // spans are never empty
                    run_ops(t, &ops[i..], level + 1)
                });
                i += used;
            }
            2 => t.charge(Cost::new(w, d)), // too deep: degrade to charge
            _ => return i,                  // close current span
        }
    }
    i
}

/// Asserts `Σ immediate-child work ≤ node work` on the whole tree.
fn check_child_work(s: &SpanReport) {
    assert!(
        s.child_work() <= s.work,
        "span {}: child work {} exceeds own work {}",
        s.name,
        s.child_work(),
        s.work
    );
    for c in &s.children {
        check_child_work(c);
    }
}

fn cost_strategy() -> impl Strategy<Value = Cost> {
    (0u64..1_000_000, 0u64..10_000).prop_map(|(w, d)| Cost::new(w, d))
}

/// One parallel branch: interpret the op program, then derive counter and
/// histogram traffic from it so fork-join metric merging is exercised.
fn run_branch(t: &mut Tracker, ops: &[Op]) {
    run_ops(t, ops, 0);
    for &(kind, w, d) in ops {
        match kind % 3 {
            0 => t.counter(if w % 2 == 0 { "c0" } else { "c1" }, w + 1),
            1 => t.observe("h", d),
            _ => {}
        }
    }
}

/// Structural span-tree equality ignoring wall time (the only field that
/// legitimately differs between sequential and pool execution).
fn assert_span_trees_eq(a: &[SpanReport], b: &[SpanReport]) {
    assert_eq!(
        a.iter().map(|s| &s.name).collect::<Vec<_>>(),
        b.iter().map(|s| &s.name).collect::<Vec<_>>(),
        "span names/order differ"
    );
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.work, y.work, "span {}: work differs", x.name);
        assert_eq!(x.depth, y.depth, "span {}: depth differs", x.name);
        assert_eq!(x.count, y.count, "span {}: count differs", x.name);
        assert_span_trees_eq(&x.children, &y.children);
    }
}

fn assert_histograms_eq(a: &Histogram, b: &Histogram, name: &str) {
    assert_eq!(a.count, b.count, "histogram {name}: count");
    assert_eq!(a.sum, b.sum, "histogram {name}: sum");
    assert_eq!(a.min, b.min, "histogram {name}: min");
    assert_eq!(a.max, b.max, "histogram {name}: max");
    assert_eq!(a.buckets, b.buckets, "histogram {name}: buckets");
}

proptest! {
    #[test]
    fn seq_associative(a in cost_strategy(), b in cost_strategy(), c in cost_strategy()) {
        prop_assert_eq!(a.seq(b).seq(c), a.seq(b.seq(c)));
    }

    #[test]
    fn par_associative_and_commutative(a in cost_strategy(), b in cost_strategy(), c in cost_strategy()) {
        prop_assert_eq!(a.par(b).par(c), a.par(b.par(c)));
        prop_assert_eq!(a.par(b), b.par(a));
    }

    #[test]
    fn par_depth_never_exceeds_seq_depth(a in cost_strategy(), b in cost_strategy()) {
        prop_assert!(a.par(b).depth <= a.seq(b).depth);
        prop_assert_eq!(a.par(b).work, a.seq(b).work);
    }

    #[test]
    fn par_all_matches_pairwise_fold(costs in prop::collection::vec(cost_strategy(), 0..20)) {
        let folded = costs.iter().copied().fold(Cost::ZERO, Cost::par);
        prop_assert_eq!(par_all(costs), folded);
    }

    #[test]
    fn par_for_work_is_product(n in 0u64..10_000, w in 1u64..100, d in 1u64..50) {
        let c = Cost::par_for(n, Cost::new(w, d));
        prop_assert_eq!(c.work, n * w);
        if n > 0 {
            prop_assert!(c.depth >= d);
            prop_assert!(c.depth <= d + 64 + 1);
        }
    }

    #[test]
    fn scan_matches_sequential_prefix_sums(xs in prop::collection::vec(0u64..1000, 0..3000)) {
        let mut t = Tracker::new();
        let (pre, total) = pp::par_exclusive_scan(&mut t, &xs);
        let mut acc = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(pre[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn filter_equals_std_filter(xs in prop::collection::vec(-1000i64..1000, 0..500), k in 1i64..7) {
        let mut t = Tracker::new();
        let got = pp::par_filter(&mut t, &xs, |x| x % k == 0);
        let want: Vec<i64> = xs.iter().copied().filter(|x| x % k == 0).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sort_equals_std_sort(xs in prop::collection::vec(-5000i64..5000, 0..4000)) {
        let mut t = Tracker::new();
        let mut got = xs.clone();
        pp::par_sort(&mut t, &mut got);
        let mut want = xs;
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn tracker_join_depth_is_max(w1 in 0u64..1000, d1 in 0u64..1000, w2 in 0u64..1000, d2 in 0u64..1000) {
        let mut t = Tracker::new();
        t.join(
            |t| t.charge(Cost::new(w1, d1)),
            |t| t.charge(Cost::new(w2, d2)),
        );
        prop_assert_eq!(t.work(), w1 + w2);
        prop_assert_eq!(t.depth(), d1.max(d2));
    }

    #[test]
    fn reduce_matches_sum(xs in prop::collection::vec(0u64..10_000, 0..3000)) {
        let mut t = Tracker::new();
        let got = pp::par_reduce(&mut t, &xs, 0u64, |x| *x, |a, b| a + b);
        prop_assert_eq!(got, xs.iter().sum::<u64>());
    }

    #[test]
    fn profiled_totals_match_unprofiled(
        ops in prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..40)
    ) {
        // nested spans must reconcile with flat totals: profiling the
        // exact same charge sequence changes nothing about work/depth
        let mut plain = Tracker::new();
        run_ops(&mut plain, &ops, 0);
        let mut prof = Tracker::profiled();
        run_ops(&mut prof, &ops, 0);
        prop_assert_eq!(prof.work(), plain.work());
        prop_assert_eq!(prof.depth(), plain.depth());
        let rep = prof.profile_report().expect("profiled tracker reports");
        prop_assert_eq!(rep.work, prof.work());
        prop_assert_eq!(rep.depth, prof.depth());
    }

    #[test]
    fn child_work_never_exceeds_parent(
        ops in prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..40)
    ) {
        let mut t = Tracker::profiled();
        run_ops(&mut t, &ops, 0);
        let rep = t.profile_report().expect("profiled tracker reports");
        // the report root is the global total; top-level spans are its
        // children, so the invariant starts at the report itself
        let top: u64 = rep.spans.iter().map(|s| s.work).sum();
        prop_assert!(top <= rep.work, "top-level span work {top} > total {}", rep.work);
        for s in &rep.spans {
            check_child_work(s);
        }
    }

    #[test]
    fn disabled_tracker_spans_are_free(
        ops in prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..40)
    ) {
        let mut t = Tracker::disabled();
        run_ops(&mut t, &ops, 0);
        prop_assert_eq!(t.work(), 0);
        prop_assert_eq!(t.depth(), 0);
        prop_assert!(t.profile_report().is_none());
    }

    #[test]
    fn forked_parallel_equals_sequential(
        branch_ops in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..12),
            0..5,
        )
    ) {
        // The cost model is an *accounting* of parallelism: running the
        // same branches through the pool (Forked) or a loop (Sequential)
        // must charge identical work/depth and produce identical span
        // trees, counters, and histograms — only wall time may differ.
        let run = |mode: ParMode| {
            let mut t = Tracker::profiled();
            t.charge(Cost::new(3, 2));
            t.span("outer", |t| {
                t.charge(Cost::new(1, 1));
                t.parallel_in(mode, branch_ops.len(), |i, t| run_branch(t, &branch_ops[i]));
            });
            t
        };
        let seq = run(ParMode::Sequential);
        let par = run(ParMode::Forked);
        prop_assert_eq!(par.work(), seq.work());
        prop_assert_eq!(par.depth(), seq.depth());
        let rs = seq.profile_report().expect("profiled");
        let rp = par.profile_report().expect("profiled");
        assert_span_trees_eq(&rs.spans, &rp.spans);
        prop_assert_eq!(&rs.counters, &rp.counters);
        prop_assert_eq!(
            rs.histograms.keys().collect::<Vec<_>>(),
            rp.histograms.keys().collect::<Vec<_>>()
        );
        for (name, h) in &rs.histograms {
            assert_histograms_eq(h, &rp.histograms[name], name);
        }
    }

    #[test]
    fn nested_forked_parallel_equals_sequential(
        outer_k in 0usize..4,
        inner_k in 0usize..4,
        w in 1u64..100,
    ) {
        // Nested fork-join: each branch forks again, so branch profilers
        // are absorbed under a span that is itself inside a branch.
        let run = |mode: ParMode| {
            let mut t = Tracker::profiled();
            t.parallel_in(mode, outer_k, |i, t| {
                t.span("branch", |t| {
                    t.counter("branches", 1);
                    t.parallel_in(mode, inner_k, |j, t| {
                        t.charge(Cost::new(w * (i as u64 + 1), j as u64 + 1));
                        t.observe("h", (i + j) as u64);
                    });
                });
            });
            t
        };
        let seq = run(ParMode::Sequential);
        let par = run(ParMode::Forked);
        prop_assert_eq!(par.work(), seq.work());
        prop_assert_eq!(par.depth(), seq.depth());
        let rs = seq.profile_report().expect("profiled");
        let rp = par.profile_report().expect("profiled");
        assert_span_trees_eq(&rs.spans, &rp.spans);
        prop_assert_eq!(&rs.counters, &rp.counters);
        for (name, h) in &rs.histograms {
            assert_histograms_eq(h, &rp.histograms[name], name);
        }
    }

    #[test]
    fn par_join_charges_match_join(
        w1 in 0u64..1000, d1 in 0u64..1000,
        w2 in 0u64..1000, d2 in 0u64..1000,
    ) {
        let mut a = Tracker::new();
        a.join(
            |t| t.charge(Cost::new(w1, d1)),
            |t| t.charge(Cost::new(w2, d2)),
        );
        let mut b = Tracker::new();
        b.par_join(
            |t| t.charge(Cost::new(w1, d1)),
            |t| t.charge(Cost::new(w2, d2)),
        );
        prop_assert_eq!(b.work(), a.work());
        prop_assert_eq!(b.depth(), a.depth());
    }

    #[test]
    fn depth_parity_pair_join_matches_parallel_both_modes(
        branch_ops in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..12),
            2..=2,
        )
    ) {
        // The allocation-free two-branch merge (`join`/`par_join` via
        // merge_pair) must charge work/depth bit-identically to the
        // general k-branch path in both execution modes, and produce the
        // same span trees/counters — it is the same model, minus the
        // Vecs. This is what lets the robust IPM's pair solve keep the
        // batch path's charges while running allocation-free.
        let run_parallel = |mode: ParMode| {
            let mut t = Tracker::profiled();
            t.span("outer", |t| {
                t.parallel_in(mode, 2, |i, t| run_branch(t, &branch_ops[i]));
            });
            t
        };
        let mut joined = Tracker::profiled();
        joined.span("outer", |t| {
            t.join(
                |t| run_branch(t, &branch_ops[0]),
                |t| run_branch(t, &branch_ops[1]),
            );
        });
        let mut par_joined = Tracker::profiled();
        par_joined.span("outer", |t| {
            t.par_join(
                |t| run_branch(t, &branch_ops[0]),
                |t| run_branch(t, &branch_ops[1]),
            );
        });
        let seq = run_parallel(ParMode::Sequential);
        let forked = run_parallel(ParMode::Forked);
        for other in [&forked, &joined, &par_joined] {
            prop_assert_eq!(other.work(), seq.work());
            prop_assert_eq!(other.depth(), seq.depth());
        }
        let rs = seq.profile_report().expect("profiled");
        for other in [&forked, &joined, &par_joined] {
            let ro = other.profile_report().expect("profiled");
            assert_span_trees_eq(&rs.spans, &ro.spans);
            prop_assert_eq!(&rs.counters, &ro.counters);
            for (name, h) in &rs.histograms {
                assert_histograms_eq(h, &ro.histograms[name], name);
            }
        }
    }

    #[test]
    fn workspace_roundtrips_under_arbitrary_interleavings(
        ops in prop::collection::vec((0u8..3, 1usize..96), 1..80)
    ) {
        // Arbitrary interleavings of take / take_copy / give: every
        // checkout has the requested length and contents (zeroed, or a
        // copy of the source); concurrently-live checkouts never alias
        // (each is stamped with a unique sentinel that must survive all
        // later checkouts); and buffers are conserved — every fresh
        // allocation is either still live or parked in the pool.
        let ws = Workspace::new();
        let mut t = Tracker::new();
        let mut live: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut next_sentinel = 1.0f64;
        let mut takes = 0u64;
        for &(kind, len) in &ops {
            match kind {
                0 => {
                    let buf = ws.take(&mut t, len);
                    prop_assert_eq!(buf.len(), len);
                    prop_assert!(buf.iter().all(|&x| x == 0.0), "take must zero");
                    let mut buf = buf;
                    buf.fill(next_sentinel);
                    live.push((buf, next_sentinel));
                    next_sentinel += 1.0;
                    takes += 1;
                }
                1 => {
                    let src: Vec<f64> = (0..len).map(|i| i as f64 - 0.5).collect();
                    let mut buf = ws.take_copy(&mut t, &src);
                    prop_assert_eq!(&buf, &src, "take_copy must equal its source");
                    buf.fill(next_sentinel);
                    live.push((buf, next_sentinel));
                    next_sentinel += 1.0;
                    takes += 1;
                }
                _ if !live.is_empty() => {
                    let (buf, sentinel) = live.remove(len % live.len());
                    prop_assert!(
                        buf.iter().all(|&x| x == sentinel),
                        "buffer mutated while checked out (aliasing)"
                    );
                    ws.give(buf);
                }
                _ => {}
            }
        }
        for (buf, sentinel) in &live {
            prop_assert!(buf.iter().all(|&x| x == *sentinel), "live buffer corrupted");
        }
        prop_assert_eq!(ws.fresh() + ws.reused(), takes, "every take is fresh xor reused");
        prop_assert_eq!(
            ws.fresh() as usize,
            live.len() + ws.pooled(),
            "allocations must be conserved: live + pooled = fresh"
        );
    }

    #[test]
    fn critpath_attribution_is_exact(
        ops in prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..40)
    ) {
        // every unit of tracker depth lands in exactly one ledger entry,
        // for arbitrary charge/span programs
        let mut t = Tracker::new().with_critpath();
        run_ops(&mut t, &ops, 0);
        let rep = t.critpath_report().expect("critpath tracker reports");
        prop_assert_eq!(rep.total_depth, t.depth());
        prop_assert!(
            rep.is_exact(),
            "attributed {} != total {}",
            rep.attributed_depth,
            rep.total_depth
        );
        let sum: u64 = rep.entries.iter().map(|e| e.depth).sum();
        prop_assert_eq!(sum, t.depth());
    }

    #[test]
    fn critpath_exact_and_identical_across_par_modes(
        branch_ops in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..500, 0u64..50), 0..12),
            0..5,
        )
    ) {
        // the ledger is part of the deterministic accounting: Sequential
        // and Forked execution of the same branches must attribute the
        // same depth to the same span paths, exactly
        let run = |mode: ParMode| {
            let mut t = Tracker::new().with_critpath();
            t.charge(Cost::new(3, 2));
            t.span("outer", |t| {
                t.charge(Cost::new(1, 1));
                t.parallel_in(mode, branch_ops.len(), |i, t| run_branch(t, &branch_ops[i]));
            });
            t
        };
        let seq = run(ParMode::Sequential);
        let par = run(ParMode::Forked);
        let rs = seq.critpath_report().expect("critpath");
        let rp = par.critpath_report().expect("critpath");
        for (rep, t, label) in [(&rs, &seq, "seq"), (&rp, &par, "forked")] {
            prop_assert_eq!(rep.total_depth, t.depth(), "{}: total", label);
            prop_assert!(rep.is_exact(), "{}: attributed != total", label);
            let sum: u64 = rep.entries.iter().map(|e| e.depth).sum();
            prop_assert_eq!(sum, t.depth(), "{}: entry sum", label);
        }
        prop_assert_eq!(&rs.entries, &rp.entries);
        prop_assert_eq!(rs.joins, rp.joins);
    }

    #[test]
    fn critpath_exact_under_nested_par_join(
        w in 1u64..100,
        d1 in 0u64..60, d2 in 0u64..60, d3 in 0u64..60,
    ) {
        // nested real fork-join through the pool vs the same program via
        // sequential join: exact both ways, identical attribution
        let run = |forked: bool| {
            let mut t = Tracker::new().with_critpath();
            t.span("root", |t| {
                let inner = |t: &mut Tracker| {
                    t.span("l", |t| {
                        if forked {
                            t.par_join(
                                |t| t.span("ll", |t| t.charge(Cost::new(w, d1))),
                                |t| t.span("lr", |t| t.charge(Cost::new(w, d2))),
                            );
                        } else {
                            t.join(
                                |t| t.span("ll", |t| t.charge(Cost::new(w, d1))),
                                |t| t.span("lr", |t| t.charge(Cost::new(w, d2))),
                            );
                        }
                    })
                };
                let outer_r = |t: &mut Tracker| t.span("r", |t| t.charge(Cost::new(w, d3)));
                if forked {
                    t.par_join(inner, outer_r);
                } else {
                    t.join(inner, outer_r);
                }
            });
            t
        };
        let seq = run(false);
        let par = run(true);
        prop_assert_eq!(par.depth(), seq.depth());
        let rs = seq.critpath_report().expect("critpath");
        let rp = par.critpath_report().expect("critpath");
        prop_assert!(rs.is_exact() && rp.is_exact());
        prop_assert_eq!(rs.total_depth, seq.depth());
        prop_assert_eq!(&rs.entries, &rp.entries);
        // `joins` counts merge points *on the critical path* — the inner
        // join is only witnessed when the left branch wins the outer max
        // (ties go to the first branch)
        let expect_joins = if d1.max(d2) >= d3 { 2 } else { 1 };
        prop_assert_eq!(rs.joins, expect_joins);
        prop_assert_eq!(rp.joins, expect_joins);
    }
}
