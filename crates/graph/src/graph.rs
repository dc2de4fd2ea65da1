//! The probabilistic entity graph (paper Definition 2.1).
//!
//! `G = (N, E, p, q)` — a labeled directed multigraph where every node
//! carries a presence probability `p : N → [0,1]` and every edge a presence
//! probability `q : E → [0,1]`.
//!
//! The store is arena-style: nodes and edges live in `Vec`s addressed by
//! dense ids, and removal tombstones the slot (keeping all other ids
//! stable) instead of shifting. The graph-reduction engine
//! ([`crate::reduction`]) relies on this: it deletes thousands of elements
//! while holding ids to others. Use [`ProbGraph::compact`] to rebuild a
//! dense graph after heavy reduction.

use crate::{EdgeId, Error, NodeId, Prob};

#[derive(Clone, Debug)]
struct NodeData {
    p: Prob,
    alive: bool,
    label: Box<str>,
}

#[derive(Clone, Debug)]
struct EdgeData {
    src: NodeId,
    dst: NodeId,
    q: Prob,
    alive: bool,
}

/// A directed multigraph with node and edge presence probabilities.
#[derive(Clone, Debug, Default)]
pub struct ProbGraph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    /// Outgoing edge ids per node slot (alive edges only).
    out: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node slot (alive edges only).
    inn: Vec<Vec<EdgeId>>,
    alive_nodes: usize,
    alive_edges: usize,
}

impl ProbGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity for `n` nodes and `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        ProbGraph {
            nodes: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
            out: Vec::with_capacity(n),
            inn: Vec::with_capacity(n),
            alive_nodes: 0,
            alive_edges: 0,
        }
    }

    /// Adds a node with presence probability `p`; returns its id.
    pub fn add_node(&mut self, p: Prob) -> NodeId {
        self.add_labeled_node(p, "")
    }

    /// Adds a node with a human-readable label (entity key, GO term, ...).
    pub fn add_labeled_node(&mut self, p: Prob, label: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData {
            p,
            alive: true,
            label: label.into().into_boxed_str(),
        });
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.alive_nodes += 1;
        id
    }

    /// Adds a directed edge `src → dst` with presence probability `q`.
    ///
    /// Parallel edges are allowed (the parallel-path reduction merges
    /// them); self-loops are rejected because they can never contribute to
    /// source–target connectivity.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, q: Prob) -> Result<EdgeId, Error> {
        if !self.node_alive(src) {
            return Err(Error::NoSuchNode(src));
        }
        if !self.node_alive(dst) {
            return Err(Error::NoSuchNode(dst));
        }
        if src == dst {
            return Err(Error::SelfLoop(src));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeData {
            src,
            dst,
            q,
            alive: true,
        });
        self.out[src.index()].push(id);
        self.inn[dst.index()].push(id);
        self.alive_edges += 1;
        Ok(id)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.alive_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.alive_edges
    }

    /// Upper bound (exclusive) on node indices ever allocated.
    ///
    /// Side tables indexed by [`NodeId::index`] should be sized with this,
    /// not with [`ProbGraph::node_count`].
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on edge indices ever allocated.
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// `true` when `n` refers to a live node.
    pub fn node_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|d| d.alive)
    }

    /// `true` when `e` refers to a live edge.
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(|d| d.alive)
    }

    /// Presence probability of node `n`.
    ///
    /// # Panics
    /// Panics if `n` is dead or out of bounds.
    pub fn node_p(&self, n: NodeId) -> Prob {
        let d = &self.nodes[n.index()];
        assert!(d.alive, "access to dead node {n}");
        d.p
    }

    /// Label of node `n` (empty string when unlabeled).
    pub fn node_label(&self, n: NodeId) -> &str {
        &self.nodes[n.index()].label
    }

    /// Presence probability of edge `e`.
    pub fn edge_q(&self, e: EdgeId) -> Prob {
        let d = &self.edges[e.index()];
        assert!(d.alive, "access to dead edge {e}");
        d.q
    }

    /// Source node of edge `e`.
    pub fn edge_src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination node of edge `e`.
    pub fn edge_dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// `(src, dst, q)` of edge `e`.
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, Prob) {
        let d = &self.edges[e.index()];
        assert!(d.alive, "access to dead edge {e}");
        (d.src, d.dst, d.q)
    }

    /// Iterates over live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Iterates over live edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive)
            .map(|(i, _)| EdgeId::from_index(i))
    }

    /// Outgoing live edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out[n.index()].iter().copied()
    }

    /// Incoming live edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.inn[n.index()].iter().copied()
    }

    /// Out-degree of `n` (live edges only).
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out[n.index()].len()
    }

    /// In-degree of `n` (live edges only).
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.inn[n.index()].len()
    }

    /// Successor nodes of `n` (with multiplicity for parallel edges).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n).map(|e| self.edge_dst(e))
    }

    /// Predecessor nodes of `n` (with multiplicity for parallel edges).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(n).map(|e| self.edge_src(e))
    }

    /// Removes edge `e` (tombstone). Idempotent.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let Some(d) = self.edges.get_mut(e.index()) else {
            return;
        };
        if !d.alive {
            return;
        }
        d.alive = false;
        let (src, dst) = (d.src, d.dst);
        self.out[src.index()].retain(|&x| x != e);
        self.inn[dst.index()].retain(|&x| x != e);
        self.alive_edges -= 1;
    }

    /// Removes node `n` and all incident edges (tombstone). Idempotent.
    pub fn remove_node(&mut self, n: NodeId) {
        if !self.node_alive(n) {
            return;
        }
        let incident: Vec<EdgeId> = self.out_edges(n).chain(self.in_edges(n)).collect();
        for e in incident {
            self.remove_edge(e);
        }
        self.nodes[n.index()].alive = false;
        self.alive_nodes -= 1;
    }

    /// Applies `f` to every live node probability.
    pub fn map_node_probs(&mut self, mut f: impl FnMut(NodeId, Prob) -> Prob) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].alive {
                let id = NodeId::from_index(i);
                self.nodes[i].p = f(id, self.nodes[i].p);
            }
        }
    }

    /// Applies `f` to every live edge probability.
    pub fn map_edge_probs(&mut self, mut f: impl FnMut(EdgeId, Prob) -> Prob) {
        for i in 0..self.edges.len() {
            if self.edges[i].alive {
                let id = EdgeId::from_index(i);
                self.edges[i].q = f(id, self.edges[i].q);
            }
        }
    }

    /// Rebuilds a dense copy of the live subgraph.
    ///
    /// Returns the new graph and the old→new node id mapping (dead slots
    /// map to `None`).
    pub fn compact(&self) -> (ProbGraph, Vec<Option<NodeId>>) {
        let mut g = ProbGraph::with_capacity(self.alive_nodes, self.alive_edges);
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for (i, d) in self.nodes.iter().enumerate() {
            if d.alive {
                remap[i] = Some(g.add_labeled_node(d.p, d.label.to_string()));
            }
        }
        for d in &self.edges {
            if d.alive {
                let s = remap[d.src.index()].expect("live edge with dead src");
                let t = remap[d.dst.index()].expect("live edge with dead dst");
                g.add_edge(s, t, d.q)
                    .expect("compacted edge endpoints must be live");
            }
        }
        (g, remap)
    }

    /// Asserts internal invariants; used by tests and `debug_assert!` call
    /// sites in the reduction engine.
    pub fn check_invariants(&self) {
        let mut live_edges = 0usize;
        for (i, d) in self.edges.iter().enumerate() {
            if !d.alive {
                continue;
            }
            live_edges += 1;
            let e = EdgeId::from_index(i);
            assert!(self.nodes[d.src.index()].alive, "edge {e} has dead src");
            assert!(self.nodes[d.dst.index()].alive, "edge {e} has dead dst");
            assert!(
                self.out[d.src.index()].contains(&e),
                "edge {e} missing from out-adjacency"
            );
            assert!(
                self.inn[d.dst.index()].contains(&e),
                "edge {e} missing from in-adjacency"
            );
        }
        assert_eq!(live_edges, self.alive_edges, "edge count drift");
        let live_nodes = self.nodes.iter().filter(|d| d.alive).count();
        assert_eq!(live_nodes, self.alive_nodes, "node count drift");
        for (i, adj) in self.out.iter().enumerate() {
            for &e in adj {
                assert!(self.edges[e.index()].alive, "dead edge in out[{i}]");
                assert_eq!(self.edges[e.index()].src.index(), i);
            }
        }
        for (i, adj) in self.inn.iter().enumerate() {
            for &e in adj {
                assert!(self.edges[e.index()].alive, "dead edge in inn[{i}]");
                assert_eq!(self.edges[e.index()].dst.index(), i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Prob {
        Prob::new(v).unwrap()
    }

    #[test]
    fn empty_graph_has_no_elements() {
        let g = ProbGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn add_node_and_edge_roundtrip() {
        let mut g = ProbGraph::new();
        let a = g.add_labeled_node(p(0.9), "ABCC8");
        let b = g.add_node(p(0.5));
        let e = g.add_edge(a, b, p(0.7)).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_p(a).get(), 0.9);
        assert_eq!(g.node_label(a), "ABCC8");
        assert_eq!(g.edge(e), (a, b, p(0.7)));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
        g.check_invariants();
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(1.0));
        assert!(matches!(g.add_edge(a, a, p(0.5)), Err(Error::SelfLoop(_))));
    }

    #[test]
    fn dangling_edges_are_rejected() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(1.0));
        let ghost = NodeId::from_index(99);
        assert!(matches!(
            g.add_edge(a, ghost, p(0.5)),
            Err(Error::NoSuchNode(_))
        ));
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        g.add_edge(a, b, p(0.3)).unwrap();
        g.add_edge(a, b, p(0.4)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        let e = g.add_edge(a, b, p(0.3)).unwrap();
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.in_degree(b), 0);
        assert!(!g.edge_alive(e));
        // idempotent
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 0);
        g.check_invariants();
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        let c = g.add_node(p(1.0));
        g.add_edge(a, b, p(0.3)).unwrap();
        g.add_edge(b, c, p(0.3)).unwrap();
        g.add_edge(a, c, p(0.3)).unwrap();
        g.remove_node(b);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.node_alive(a) && g.node_alive(c));
        g.check_invariants();
    }

    #[test]
    fn ids_stay_stable_across_removal() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(0.1));
        let b = g.add_node(p(0.2));
        let c = g.add_node(p(0.3));
        g.remove_node(b);
        assert_eq!(g.node_p(a).get(), 0.1);
        assert_eq!(g.node_p(c).get(), 0.3);
        let d = g.add_node(p(0.4));
        assert_eq!(d.index(), 3, "tombstoned slots are not reused");
    }

    #[test]
    fn compact_preserves_structure_and_probs() {
        let mut g = ProbGraph::new();
        let a = g.add_labeled_node(p(1.0), "s");
        let b = g.add_node(p(0.5));
        let c = g.add_labeled_node(p(0.9), "t");
        g.add_edge(a, b, p(0.7)).unwrap();
        g.add_edge(b, c, p(0.6)).unwrap();
        g.add_edge(a, c, p(0.2)).unwrap();
        g.remove_node(b);
        let (h, remap) = g.compact();
        assert_eq!(h.node_count(), 2);
        assert_eq!(h.edge_count(), 1);
        let na = remap[a.index()].unwrap();
        let nc = remap[c.index()].unwrap();
        assert!(remap[b.index()].is_none());
        assert_eq!(h.node_label(na), "s");
        assert_eq!(h.node_label(nc), "t");
        let e = h.edges().next().unwrap();
        assert_eq!(h.edge(e), (na, nc, p(0.2)));
        h.check_invariants();
    }

    #[test]
    fn map_probs_visits_only_live_elements() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(0.5));
        let b = g.add_node(p(0.5));
        let c = g.add_node(p(0.5));
        g.add_edge(a, b, p(0.5)).unwrap();
        g.add_edge(b, c, p(0.5)).unwrap();
        g.remove_node(c);
        let mut nodes_seen = 0;
        g.map_node_probs(|_, pr| {
            nodes_seen += 1;
            Prob::clamped(pr.get() * 2.0)
        });
        assert_eq!(nodes_seen, 2);
        assert_eq!(g.node_p(a).get(), 1.0);
        let mut edges_seen = 0;
        g.map_edge_probs(|_, q| {
            edges_seen += 1;
            q
        });
        assert_eq!(edges_seen, 1);
    }

    #[test]
    fn successors_and_predecessors() {
        let mut g = ProbGraph::new();
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        let c = g.add_node(p(1.0));
        g.add_edge(a, b, p(0.5)).unwrap();
        g.add_edge(a, c, p(0.5)).unwrap();
        g.add_edge(b, c, p(0.5)).unwrap();
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ, vec![b, c]);
        let pred: Vec<_> = g.predecessors(c).collect();
        assert_eq!(pred, vec![a, b]);
    }

    #[test]
    fn compact_keeps_node_and_edge_counts() {
        let mut g = ProbGraph::new();
        let a = g.add_labeled_node(p(0.9), "x");
        let b = g.add_node(p(0.4));
        g.add_edge(a, b, p(0.25)).unwrap();
        let (h, _) = g.compact();
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
    }
}
