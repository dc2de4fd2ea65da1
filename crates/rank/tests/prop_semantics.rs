//! Property tests for the cross-semantics claims of paper §3.
//!
//! * Proposition 3.1: on trees rooted at the source, reliability and
//!   propagation coincide.
//! * "In general, the propagation scores will always be bigger or equal
//!   to reliability scores" (§3.2).
//! * Monte Carlo estimates converge to the exact reliability.
//! * Closed-form / factoring / enumeration agree wherever they all apply.

#[path = "../../../tests/common/cases.rs"]
mod cases;
#[path = "../../../tests/common/small_graph.rs"]
mod small_graph;

use biorank_graph::{exact, generate, Prob, QueryGraph};
use biorank_rank::{
    ClosedReliability, Diffusion, InEdge, PathCount, Propagation, Ranker, TraversalMc,
};

/// Case `i` of each property runs seed `FIRST_SEED + i`; a failure
/// names its seed, and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 16;
const FIRST_SEED: u64 = 0x5E3A_0000;
const RERUN: Option<u64> = None;

fn tree_query(seed: u64, n: usize) -> QueryGraph {
    let (g, root) = generate::random_tree(n, seed, (0.2, 1.0), (0.2, 1.0));
    let answers: Vec<_> = g.nodes().filter(|&x| x != root).collect();
    QueryGraph::new(g, root, answers).expect("tree query")
}

fn workflow_query(seed: u64) -> QueryGraph {
    let params = generate::WorkflowParams {
        layers: 2,
        width: 4,
        answers: 3,
        density: 0.4,
        node_prob: (0.3, 1.0),
        edge_prob: (0.3, 1.0),
    };
    generate::layered_workflow(&params, seed)
}

/// Proposition 3.1: reliability == propagation on trees.
#[test]
fn prop31_tree_reliability_equals_propagation() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let q = tree_query(rng.below(500), rng.range(2..20));
        let prop = Propagation::auto().score(&q).unwrap();
        let exact_rel = ClosedReliability::default().score(&q).unwrap();
        for &a in q.answers() {
            assert!(
                (prop.get(a) - exact_rel.get(a)).abs() < 1e-9,
                "node {a}: propagation {} vs reliability {}",
                prop.get(a),
                exact_rel.get(a)
            );
        }
    });
}

/// Propagation dominates reliability on arbitrary workflow DAGs.
#[test]
fn propagation_dominates_reliability() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let q = workflow_query(rng.below(500));
        let prop = Propagation::auto().score(&q).unwrap();
        let rel = ClosedReliability::default().score(&q).unwrap();
        for &a in q.answers() {
            assert!(
                prop.get(a) >= rel.get(a) - 1e-9,
                "node {a}: propagation {} < reliability {}",
                prop.get(a),
                rel.get(a)
            );
        }
    });
}

/// All five semantics yield scores in range and defined for every
/// answer; probabilistic scores stay within [0, 1].
#[test]
fn scores_are_well_formed() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let seed = rng.below(500);
        let q = workflow_query(seed);
        let rankers: Vec<Box<dyn Ranker + Send + Sync>> = vec![
            Box::new(TraversalMc::new(200, seed)),
            Box::new(Propagation::auto()),
            Box::new(Diffusion::auto()),
            Box::new(InEdge),
            Box::new(PathCount),
        ];
        for r in rankers {
            let s = r.score(&q).unwrap();
            for &a in q.answers() {
                let v = s.get(a);
                assert!(v.is_finite(), "{}: non-finite score", r.name());
                assert!(v >= 0.0, "{}: negative score", r.name());
                if matches!(r.name(), "Rel(MC)" | "Prop" | "Diff") {
                    assert!(v <= 1.0 + 1e-9, "{}: score {v} > 1", r.name());
                }
            }
        }
    });
}

/// The closed/factoring reliability evaluator agrees with brute
/// force enumeration on small workflows.
#[test]
fn closed_reliability_is_exact() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let q = workflow_query(rng.below(200));
        let closed = ClosedReliability::default().score(&q).unwrap();
        for &a in q.answers() {
            // Keep enumeration tractable: only validate per-target
            // subgraphs with few uncertain elements.
            let st = q.single_target(a).unwrap();
            let Some(target) = st.target else { continue };
            if small_graph::uncertain_elements(&st.graph) > 16 {
                continue;
            }
            let truth = match exact::enumerate(&st.graph, st.source, target) {
                Ok(r) => r,
                Err(_) => continue,
            };
            assert!(
                (closed.get(a) - truth).abs() < 1e-9,
                "node {a}: closed {} vs enumerated {truth}",
                closed.get(a)
            );
        }
    });
}

/// Diffusion never exceeds the total outflow available from the
/// source (sanity: bounded by 1).
#[test]
fn diffusion_bounded() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let q = workflow_query(rng.below(200));
        let d = Diffusion::auto().score(&q).unwrap();
        for &a in q.answers() {
            assert!(d.get(a) <= 1.0 + 1e-9);
        }
    });
}

/// Raising every probability to 1 makes reliability equal plain
/// reachability (0/1) — and MC must then be exact even with few
/// trials.
#[test]
fn certain_graph_reliability_is_reachability() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let seed = rng.below(200);
        let mut q = workflow_query(seed);
        q.graph_mut().map_node_probs(|_, _| Prob::ONE);
        q.graph_mut().map_edge_probs(|_, _| Prob::ONE);
        let mc = TraversalMc::new(3, seed).score(&q).unwrap();
        let reach = biorank_graph::reach::reachable_from(q.graph(), q.source());
        for &a in q.answers() {
            let expect = if reach[a.index()] { 1.0 } else { 0.0 };
            assert!((mc.get(a) - expect).abs() < 1e-12);
        }
    });
}
