//! The property tests' small random graph, drawn from a case's RNG.
//! Include beside `cases.rs`:
//! `#[path = "…/tests/common/small_graph.rs"] mod small_graph;`.

#![allow(dead_code)] // each test target uses its own subset

use std::ops::RangeInclusive;

use biorank_graph::{NodeId, Prob, ProbGraph};

use crate::cases::Rng;

/// A random digraph of `nodes` nodes and up to `edges` drawn edges
/// (self-loops dropped; with `forward`, every edge runs from the lower
/// to the higher id, so the graph is a DAG). Node 0 is certain, like a
/// query node; every other probability is a multiple of 1/8, so world
/// weights are exact. Redraws until at most 18 elements are uncertain,
/// which keeps `exact::enumerate` fast. Returns the graph and its node
/// ids in order.
pub fn small_graph(
    rng: &mut Rng,
    nodes: RangeInclusive<usize>,
    edges: RangeInclusive<usize>,
    forward: bool,
) -> (ProbGraph, Vec<NodeId>) {
    loop {
        let mut g = ProbGraph::new();
        let n = rng.range(nodes.clone());
        let probs: Vec<u64> = (0..n).map(|_| rng.below(9)).collect();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| match i {
                0 => g.add_node(Prob::ONE),
                _ => g.add_node(Prob::new(probs[i] as f64 / 8.0).unwrap()),
            })
            .collect();
        for _ in 0..rng.range(edges.clone()) {
            let (u, v) = (rng.range(0..n), rng.range(0..n));
            let (u, v) = if forward && u > v { (v, u) } else { (u, v) };
            let q = Prob::new((1 + rng.below(8)) as f64 / 8.0).unwrap();
            if u != v {
                let _ = g.add_edge(ids[u], ids[v], q);
            }
        }
        if uncertain_elements(&g) <= 18 {
            return (g, ids);
        }
    }
}

/// Nodes and edges whose probability is strictly between 0 and 1:
/// `exact::enumerate` walks 2^k worlds of them.
pub fn uncertain_elements(g: &ProbGraph) -> usize {
    let uncertain = |p: Prob| p.get() > 0.0 && p.get() < 1.0;
    g.nodes().filter(|&x| uncertain(g.node_p(x))).count()
        + g.edges().filter(|&e| uncertain(g.edge_q(e))).count()
}
