//! Typed identifiers for graph elements.
//!
//! Nodes and edges are addressed by dense `u32` indices wrapped in newtypes
//! so that the two id spaces cannot be confused. Ids are stable for the
//! lifetime of a [`crate::ProbGraph`]: removing an element tombstones its
//! slot rather than shifting later ids.

use std::fmt;

/// Identifier of a node in a [`crate::ProbGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of an edge in a [`crate::ProbGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this node.
    ///
    /// Useful for indexing side tables sized with
    /// [`crate::ProbGraph::node_bound`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NodeId` from a raw index.
    ///
    /// The caller is responsible for the index being in bounds for the
    /// graph it is used with; out-of-bounds ids cause accessor panics.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

impl EdgeId {
    /// Returns the raw index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an `EdgeId` from a raw index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        EdgeId(u32::try_from(i).expect("edge index exceeds u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(format!("{n}"), "n42");
        assert_eq!(format!("{n:?}"), "n42");
    }

    #[test]
    fn edge_id_round_trips_through_index() {
        let e = EdgeId::from_index(7);
        assert_eq!(e.index(), 7);
        assert_eq!(format!("{e}"), "e7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(EdgeId::from_index(0) < EdgeId::from_index(9));
    }
}
