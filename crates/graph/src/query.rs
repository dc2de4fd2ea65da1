//! The probabilistic query graph (paper Definition 2.3).
//!
//! `G = (N, E, p, q, s, A)`: a probabilistic entity graph together with a
//! distinguished query node `s` and an answer set `A ⊂ N`. Every ranking
//! semantics in `biorank-rank` consumes this type.

use std::sync::{Arc, OnceLock};

use crate::{csr::CsrGraph, reach, Error, NodeId, ProbGraph};

/// A probabilistic entity graph with a query source node and answer set.
#[derive(Clone, Debug)]
pub struct QueryGraph {
    graph: ProbGraph,
    source: NodeId,
    answers: Vec<NodeId>,
    /// Lazily built CSR snapshot of the live subgraph, shared by every
    /// estimator run against this query. Invalidated
    /// by any mutation ([`QueryGraph::graph_mut`], [`QueryGraph::prune`]).
    csr: OnceLock<Arc<CsrGraph>>,
}

impl QueryGraph {
    /// Builds a query graph, validating that `source` and all `answers`
    /// are live nodes of `graph` and that the answer set is non-empty and
    /// duplicate-free (duplicates are removed; order is preserved).
    pub fn new(graph: ProbGraph, source: NodeId, answers: Vec<NodeId>) -> Result<Self, Error> {
        if !graph.node_alive(source) {
            return Err(Error::NoSuchNode(source));
        }
        let mut seen = vec![false; graph.node_bound()];
        let mut dedup = Vec::with_capacity(answers.len());
        for a in answers {
            if !graph.node_alive(a) {
                return Err(Error::NoSuchNode(a));
            }
            if !seen[a.index()] {
                seen[a.index()] = true;
                dedup.push(a);
            }
        }
        if dedup.is_empty() {
            return Err(Error::EmptyAnswerSet);
        }
        Ok(QueryGraph {
            graph,
            source,
            answers: dedup,
            csr: OnceLock::new(),
        })
    }

    /// The underlying probabilistic entity graph.
    pub fn graph(&self) -> &ProbGraph {
        &self.graph
    }

    /// Mutable access to the underlying graph.
    ///
    /// Callers must not remove the source or answer nodes; the ranking
    /// algorithms assert liveness.
    pub fn graph_mut(&mut self) -> &mut ProbGraph {
        self.csr = OnceLock::new();
        &mut self.graph
    }

    /// The CSR snapshot of the live subgraph, built on first use and
    /// shared (via `Arc`) across estimator runs and worker threads
    /// until the graph is next mutated.
    pub fn csr(&self) -> Arc<CsrGraph> {
        Arc::clone(
            self.csr
                .get_or_init(|| Arc::new(CsrGraph::from_graph(&self.graph))),
        )
    }

    /// The query node `s`.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The answer set `A`, in insertion order.
    pub fn answers(&self) -> &[NodeId] {
        &self.answers
    }

    /// Removes every node not on a `source → answer` path.
    ///
    /// Answers unreachable from the source are kept in the answer set
    /// (they simply score zero under every semantics) but their stranded
    /// evidence subgraphs are dropped. Returns the number of removed
    /// nodes. This mirrors the query-graph construction in the paper: the
    /// mediator only materializes reachable records.
    pub fn prune(&mut self) -> usize {
        self.csr = OnceLock::new();
        let reachable = reach::reachable_from(&self.graph, self.source);
        let kept: Vec<NodeId> = self
            .answers
            .iter()
            .copied()
            .filter(|a| reachable[a.index()])
            .collect();
        let removed = reach::prune_to_relevant(&mut self.graph, self.source, &kept);
        // Re-add unreachable answers as isolated live nodes so that rank
        // vectors still cover them. prune_to_relevant removed them.
        let mut restored = Vec::with_capacity(self.answers.len());
        for &a in &self.answers {
            if self.graph.node_alive(a) {
                restored.push(a);
            }
        }
        self.answers = restored;
        removed
    }

    /// A compacted copy (dense ids) of this query graph.
    pub fn compacted(&self) -> QueryGraph {
        let (g, remap) = self.graph.compact();
        let source = remap[self.source.index()].expect("source must survive compaction");
        let answers = self
            .answers
            .iter()
            .filter_map(|a| remap[a.index()])
            .collect();
        QueryGraph {
            graph: g,
            source,
            answers,
            csr: OnceLock::new(),
        }
    }

    /// Extracts the sub-query-graph relevant to a single answer node.
    ///
    /// This is the unit on which the paper's closed-solution evaluates
    /// reliability: "applying them not to the whole graph, but
    /// individually to each subgraph connecting the source and each target
    /// node" (§3.1(3)). The result is compacted; returns the new graph
    /// plus the mapped source/target ids.
    pub fn single_target(&self, answer: NodeId) -> Result<SingleTarget, Error> {
        if !self.graph.node_alive(answer) {
            return Err(Error::NoSuchNode(answer));
        }
        let mut g = self.graph.clone();
        reach::prune_to_relevant(&mut g, self.source, &[answer]);
        let (dense, remap) = g.compact();
        let source = remap[self.source.index()].expect("source survives");
        let target = remap[answer.index()];
        Ok(SingleTarget {
            graph: dense,
            source,
            target,
        })
    }
}

/// The subgraph connecting the query node to one answer node.
#[derive(Clone, Debug)]
pub struct SingleTarget {
    /// Compacted relevant subgraph.
    pub graph: ProbGraph,
    /// Query node in the compacted graph.
    pub source: NodeId,
    /// Target node in the compacted graph; `None` when the answer was
    /// unreachable from the source (its reliability is 0).
    pub target: Option<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prob;

    fn p(v: f64) -> Prob {
        Prob::new(v).unwrap()
    }

    fn two_answer_graph() -> (ProbGraph, NodeId, NodeId, NodeId, NodeId) {
        // s → a → t1, s → t2, plus junk node j hanging off a.
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let a = g.add_node(p(0.8));
        let t1 = g.add_node(p(0.7));
        let t2 = g.add_node(p(0.6));
        let j = g.add_node(p(0.5));
        g.add_edge(s, a, p(0.9)).unwrap();
        g.add_edge(a, t1, p(0.9)).unwrap();
        g.add_edge(s, t2, p(0.9)).unwrap();
        g.add_edge(a, j, p(0.9)).unwrap();
        (g, s, a, t1, t2)
    }

    #[test]
    fn new_validates_source_and_answers() {
        let (g, s, _, t1, _) = two_answer_graph();
        let ghost = NodeId::from_index(99);
        assert!(QueryGraph::new(g.clone(), ghost, vec![t1]).is_err());
        assert!(QueryGraph::new(g.clone(), s, vec![ghost]).is_err());
        assert!(matches!(
            QueryGraph::new(g.clone(), s, vec![]),
            Err(Error::EmptyAnswerSet)
        ));
        assert!(QueryGraph::new(g, s, vec![t1]).is_ok());
    }

    #[test]
    fn new_dedups_answers_preserving_order() {
        let (g, s, _, t1, t2) = two_answer_graph();
        let q = QueryGraph::new(g, s, vec![t2, t1, t2]).unwrap();
        assert_eq!(q.answers(), &[t2, t1]);
    }

    #[test]
    fn prune_drops_junk_keeps_answers() {
        let (g, s, a, t1, t2) = two_answer_graph();
        let mut q = QueryGraph::new(g, s, vec![t1, t2]).unwrap();
        let removed = q.prune();
        assert_eq!(removed, 1); // junk node j
        assert!(q.graph().node_alive(a));
        assert_eq!(q.answers(), &[t1, t2]);
    }

    #[test]
    fn prune_drops_unreachable_answers_from_set() {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let t = g.add_node(p(1.0));
        let island = g.add_node(p(1.0));
        g.add_edge(s, t, p(0.5)).unwrap();
        let mut q = QueryGraph::new(g, s, vec![t, island]).unwrap();
        q.prune();
        assert_eq!(q.answers(), &[t]);
    }

    #[test]
    fn compacted_remaps_ids() {
        let (g, s, _, t1, t2) = two_answer_graph();
        let mut q = QueryGraph::new(g, s, vec![t1, t2]).unwrap();
        q.prune();
        let c = q.compacted();
        assert_eq!(c.graph().node_count(), 4);
        assert_eq!(c.answers().len(), 2);
        assert!(c.graph().node_alive(c.source()));
        c.graph().check_invariants();
    }

    #[test]
    fn single_target_isolates_one_answer() {
        let (g, s, _, t1, t2) = two_answer_graph();
        let q = QueryGraph::new(g, s, vec![t1, t2]).unwrap();
        let st = q.single_target(t1).unwrap();
        // Relevant subgraph for t1: s → a → t1 (3 nodes, 2 edges).
        assert_eq!(st.graph.node_count(), 3);
        assert_eq!(st.graph.edge_count(), 2);
        assert!(st.target.is_some());
    }

    #[test]
    fn single_target_unreachable_answer() {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let t = g.add_node(p(1.0));
        let island = g.add_node(p(1.0));
        g.add_edge(s, t, p(0.5)).unwrap();
        let q = QueryGraph::new(g, s, vec![t, island]).unwrap();
        let st = q.single_target(island).unwrap();
        assert!(st.target.is_none());
    }
}
