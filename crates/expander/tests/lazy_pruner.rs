//! A dynamic decomposition builds a part's pruner on the part's first
//! delete, not at the rebuild that makes the part.
//!
//! [`pool_stats`] counts every `UnitFlowState` checkout in the process,
//! and each pruner checks one out. This file holds a single test, so the
//! counts it reads are its own.

use pmcf_expander::unit_flow::pool_stats;
use pmcf_expander::DynamicExpanderDecomposition;
use pmcf_graph::generators;
use pmcf_pram::Tracker;

/// `UnitFlowState` checkouts so far, fresh or reused.
fn checkouts() -> u64 {
    let s = pool_stats();
    s.fresh + s.reused
}

#[test]
fn pruner_waits_for_the_first_delete() {
    let g = generators::random_regular_ugraph(256, 8, 1);
    // the twin built pruners under an earlier life; `reset` must drop
    // them, so from here on both structures see only the same calls
    let mut twin = DynamicExpanderDecomposition::new(256, 0.1, 9);
    let mut t0 = Tracker::new();
    let old = twin.insert_edges(&mut t0, g.edges());
    twin.delete_edges(&mut t0, &old[..128]);
    twin.reset(1);
    let mut lazy = DynamicExpanderDecomposition::new(256, 0.1, 1);
    let (mut ta, mut tb) = (Tracker::new(), Tracker::new());

    let before = checkouts();
    let keys = lazy.insert_edges(&mut ta, g.edges());
    assert_eq!(checkouts(), before, "an insert builds no pruner");

    assert_eq!(twin.insert_edges(&mut tb, g.edges()), keys);
    assert_eq!(lazy.parts(), twin.parts());
    assert_eq!((ta.work(), ta.depth()), (tb.work(), tb.depth()));

    let before = checkouts();
    let stale = lazy.delete_edges(&mut ta, &keys[..64]);
    assert!(
        checkouts() > before,
        "the first delete into a part builds its pruner"
    );
    assert_eq!(stale, 0);
    assert_eq!(twin.delete_edges(&mut tb, &keys[..64]), 0);

    // later deletes reach pruners built by the first one
    for chunk in keys[64..].chunks(96).take(4) {
        assert_eq!(lazy.delete_edges(&mut ta, chunk), 0);
        assert_eq!(twin.delete_edges(&mut tb, chunk), 0);
    }
    assert_eq!(lazy.parts(), twin.parts());
    assert_eq!(lazy.edge_count(), twin.edge_count());
    assert_eq!(lazy.edge_count(), keys.len() - 64 - 4 * 96);
    assert_eq!(ta.work(), tb.work(), "charged work");
    assert_eq!(ta.depth(), tb.depth(), "charged depth");
}
