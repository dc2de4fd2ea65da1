//! Property tests pinning the graph-level reliability machinery against
//! brute-force possible-worlds enumeration.
//!
//! These are the core soundness guarantees of paper §3.1: the reduction
//! rules and the factoring evaluator must preserve exact source–target
//! reliability on *arbitrary* graphs, not just the workflow shapes the
//! paper evaluates on.

#[path = "../../../tests/common/cases.rs"]
mod cases;
#[path = "../../../tests/common/small_graph.rs"]
mod small_graph;

use biorank_graph::{exact, reach, reduction, NodeId, Prob, ProbGraph};

/// Case `i` of each property runs seed `FIRST_SEED + i`; a failure
/// names its seed, and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 64;
const FIRST_SEED: u64 = 0x2E1A_0000;
const RERUN: Option<u64> = None;

/// Runs `property` on 64 small digraphs (2–7 nodes, 0–12 edges in any
/// direction), from the source (node 0) to the last node.
fn for_each_graph(property: impl Fn(ProbGraph, NodeId, NodeId)) {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let (g, ids) = small_graph::small_graph(rng, 2..=7, 0..=12, false);
        property(g, ids[0], ids[ids.len() - 1]);
    });
}

/// Factoring (reductions + conditioning) equals world enumeration.
#[test]
fn factoring_matches_enumeration() {
    for_each_graph(|g, s, t| {
        let truth = exact::enumerate(&g, s, t).unwrap();
        let fast = exact::factoring(&g, s, t, None).unwrap();
        assert!(
            (truth - fast).abs() < 1e-9,
            "enumerate {truth} vs factoring {fast}"
        );
    });
}

/// The reduction rules preserve reliability for the protected target.
#[test]
fn reductions_preserve_reliability() {
    for_each_graph(|g, s, t| {
        let before = exact::enumerate(&g, s, t).unwrap();
        let mut reduced = g.clone();
        reach::prune_to_relevant(&mut reduced, s, &[t]);
        if reduced.node_alive(t) {
            reduction::reduce(&mut reduced, s, &[t]);
            let after = exact::enumerate(&reduced, s, t).unwrap();
            assert!(
                (before - after).abs() < 1e-9,
                "before {before} vs after reduction {after}"
            );
        } else {
            assert!(before.abs() < 1e-12);
        }
    });
}

/// Pruning away irrelevant nodes never changes reliability.
#[test]
fn pruning_preserves_reliability() {
    for_each_graph(|g, s, t| {
        let before = exact::enumerate(&g, s, t).unwrap();
        let mut pruned = g.clone();
        reach::prune_to_relevant(&mut pruned, s, &[t]);
        if pruned.node_alive(t) {
            let after = exact::enumerate(&pruned, s, t).unwrap();
            assert!((before - after).abs() < 1e-12);
        } else {
            assert!(before.abs() < 1e-12);
        }
    });
}

/// Reification (node splits) preserves reliability.
#[test]
fn reify_preserves_reliability() {
    for_each_graph(|g, s, t| {
        let before = exact::enumerate(&g, s, t).unwrap();
        let re = exact::reify(&g, &[s, t]);
        let after = exact::enumerate(&re.graph, re.input(s), re.output(t)).unwrap();
        assert!(
            (before - after).abs() < 1e-9,
            "direct {before} vs reified {after}"
        );
    });
}

/// Reliability is monotone in edge probabilities: raising any q can
/// only increase r(t).
#[test]
fn reliability_monotone_in_edge_probs() {
    for_each_graph(|g, s, t| {
        let before = exact::enumerate(&g, s, t).unwrap();
        let mut boosted = g.clone();
        boosted.map_edge_probs(|_, q| Prob::clamped(q.get() + 0.125));
        let after = exact::enumerate(&boosted, s, t).unwrap();
        assert!(
            after >= before - 1e-12,
            "boost lowered r: {before} → {after}"
        );
    });
}

/// compact() preserves reliability (ids change, semantics don't).
#[test]
fn compact_preserves_reliability() {
    for_each_graph(|g, s, t| {
        let before = exact::enumerate(&g, s, t).unwrap();
        let (dense, remap) = g.compact();
        let s2 = remap[s.index()].unwrap();
        let t2 = remap[t.index()].unwrap();
        let after = exact::enumerate(&dense, s2, t2).unwrap();
        assert!((before - after).abs() < 1e-12);
    });
}
