//! Cheap feature extraction for the cost-based query planner.
//!
//! The planner never runs a candidate strategy to find out what it
//! costs — it reads a small feature vector off the integrated query
//! graph and scores a fixed linear model (see [`crate::planner`]). The
//! expensive-looking part, one pass of the paper's reduction rules
//! over a throwaway clone, is `O(V + E)` to fixpoint and is exactly
//! the preprocessing `ReducedMc` would run anyway — so extraction
//! stays far below the cost of even the cheapest Monte Carlo run,
//! and callers (the service's query engine) cache it per query.

use biorank_graph::{reduction, topo, QueryGraph};

/// Structural features of one integrated query graph, independent of
/// any per-request knobs. Extract once per resident graph and reuse;
/// see [`PlanFeatures`] for the request-specific completion.
///
/// Equality is exact on every field — two equal feature sets are
/// planned identically by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GraphFeatures {
    /// Live node count of the query graph.
    pub nodes: u32,
    /// Live edge count of the query graph.
    pub edges: u32,
    /// Answer-set size `|A|`.
    pub answers: u32,
    /// `true` when the graph is a DAG (the word engine's single-pass
    /// fast path; cyclic graphs pay its fixpoint fallback).
    pub acyclic: bool,
    /// Node count after one run of the §3.1(2) reduction rules with
    /// the source and every answer protected.
    pub reduced_nodes: u32,
    /// Edge count after the same reduction — the graph `ReducedMc`
    /// actually samples.
    pub reduced_edges: u32,
    /// Theorem 3.2 verdict for the query's schema shape (root → every
    /// output set), when the caller knows it. Schema-reducible
    /// queries are the ones whose per-answer subgraphs the closed
    /// solution is guaranteed to solve without factoring fallbacks.
    pub schema_reducible: bool,
}

impl GraphFeatures {
    /// Extracts the structural features of `q`: live counts, a DAG
    /// check, and the reduction residual (rules run on a clone with
    /// the source and answer set protected, mirroring
    /// [`crate::ReducedMc`]). `schema_reducible` starts `false`;
    /// callers holding a Theorem 3.2 verdict set it via
    /// [`with_schema_reducible`](Self::with_schema_reducible).
    pub fn extract(q: &QueryGraph) -> GraphFeatures {
        let mut reduced = q.graph().clone();
        let answers: Vec<_> = q.answers().to_vec();
        let stats = reduction::reduce(&mut reduced, q.source(), &answers);
        GraphFeatures {
            nodes: stats.nodes_before as u32,
            edges: stats.edges_before as u32,
            answers: answers.len() as u32,
            acyclic: topo::is_dag(q.graph()),
            reduced_nodes: stats.nodes_after as u32,
            reduced_edges: stats.edges_after as u32,
            schema_reducible: false,
        }
    }

    /// The same features with the Theorem 3.2 schema verdict filled
    /// in.
    pub fn with_schema_reducible(mut self, reducible: bool) -> GraphFeatures {
        self.schema_reducible = reducible;
        self
    }

    /// Fraction of edges the reduction removed, in `[0, 1]`.
    pub fn shrink(&self) -> f64 {
        if self.edges == 0 {
            return 0.0;
        }
        f64::from(self.edges - self.reduced_edges.min(self.edges)) / f64::from(self.edges)
    }
}

/// The trial policy of the request being planned, mirrored from the
/// service spec without depending on it: the planner only needs the
/// budget and whether early stopping applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrialsPolicy {
    /// Run exactly this many trials.
    Fixed(u32),
    /// Bound-certified early stopping under this trial ceiling.
    Adaptive {
        /// Hard trial ceiling when the ranking never certifies.
        max_trials: u32,
    },
}

impl TrialsPolicy {
    /// The hard trial budget of either policy.
    pub fn budget(&self) -> u32 {
        match *self {
            TrialsPolicy::Fixed(n) => n,
            TrialsPolicy::Adaptive { max_trials } => max_trials,
        }
    }
}

/// The complete planner input: graph structure plus the per-request
/// knobs that move the crossovers (requested k, trial policy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanFeatures {
    /// Structural features of the integrated query graph.
    pub graph: GraphFeatures,
    /// Certified-prefix size when the request opts into top-k
    /// certification (`None` = the full ranking must resolve).
    pub top_k: Option<u32>,
    /// The request's trial policy.
    pub trials: TrialsPolicy,
}

impl PlanFeatures {
    /// Combines cached graph features with one request's knobs.
    pub fn for_request(
        graph: GraphFeatures,
        top_k: Option<u32>,
        trials: TrialsPolicy,
    ) -> PlanFeatures {
        PlanFeatures {
            graph,
            top_k,
            trials,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biorank_graph::{Prob, ProbGraph};

    fn p(v: f64) -> Prob {
        Prob::new(v).unwrap()
    }

    /// s → a → b → t: serial chain, fully reducible around the
    /// protected endpoints.
    fn chain() -> QueryGraph {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let a = g.add_node(p(0.9));
        let b = g.add_node(p(0.8));
        let t = g.add_node(p(0.7));
        g.add_edge(s, a, p(0.9)).unwrap();
        g.add_edge(a, b, p(0.9)).unwrap();
        g.add_edge(b, t, p(0.9)).unwrap();
        QueryGraph::new(g, s, vec![t]).unwrap()
    }

    fn cyclic() -> QueryGraph {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let a = g.add_node(p(0.9));
        let b = g.add_node(p(0.8));
        let t = g.add_node(p(0.7));
        g.add_edge(s, a, p(0.9)).unwrap();
        g.add_edge(a, b, p(0.9)).unwrap();
        g.add_edge(b, a, p(0.9)).unwrap();
        g.add_edge(b, t, p(0.9)).unwrap();
        QueryGraph::new(g, s, vec![t]).unwrap()
    }

    #[test]
    fn chain_reduces_to_protected_nodes() {
        let f = GraphFeatures::extract(&chain());
        assert_eq!(f.nodes, 4);
        assert_eq!(f.edges, 3);
        assert_eq!(f.answers, 1);
        assert!(f.acyclic);
        // Serial collapses leave only source → target.
        assert_eq!(f.reduced_nodes, 2);
        assert_eq!(f.reduced_edges, 1);
        assert!(f.shrink() > 0.5);
        assert!(!f.schema_reducible);
        assert!(f.with_schema_reducible(true).schema_reducible);
    }

    #[test]
    fn cycles_are_detected() {
        let f = GraphFeatures::extract(&cyclic());
        assert!(!f.acyclic);
    }

    #[test]
    fn extraction_leaves_the_graph_untouched() {
        let q = chain();
        let before_nodes = q.graph().node_count();
        let before_edges = q.graph().edge_count();
        let _ = GraphFeatures::extract(&q);
        assert_eq!(q.graph().node_count(), before_nodes);
        assert_eq!(q.graph().edge_count(), before_edges);
    }

    #[test]
    fn extraction_is_deterministic() {
        let a = GraphFeatures::extract(&chain());
        let b = GraphFeatures::extract(&chain());
        assert_eq!(a, b);
    }

    #[test]
    fn trials_policy_budget() {
        assert_eq!(TrialsPolicy::Fixed(500).budget(), 500);
        assert_eq!(TrialsPolicy::Adaptive { max_trials: 9 }.budget(), 9);
    }
}
