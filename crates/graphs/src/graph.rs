//! Immutable CSR multigraph.

use crate::{EdgeId, GraphError, NodeId, Result};

/// An undirected multigraph in compressed-sparse-row form.
///
/// * Node ids are dense `0..n`, edge ids dense `0..m`.
/// * Parallel edges are allowed (each keeps its own [`EdgeId`]).
/// * A self-loop `{v, v}` contributes **2** to `degree(v)` and appears twice
///   in `v`'s adjacency list, following the usual random-walk convention in
///   which the stationary distribution is proportional to the degree.
///
/// The structure is immutable once built; use [`GraphBuilder`] (or
/// [`Graph::from_edges`]) to construct one. Immutability is deliberate: the
/// CONGEST simulator, the walk engine and the hierarchical embedding all
/// share references to the same base graph for the lifetime of an
/// experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened adjacency: `(neighbor, edge id)` pairs, length `2m`.
    adjacency: Vec<(u32, u32)>,
    /// Endpoints per edge id, length `m`.
    endpoints: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an explicit edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use amt_graphs::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// assert_eq!(g.len(), 3);
    /// assert_eq!(g.edge_count(), 2);
    /// ```
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.try_add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges `m` (self-loops and parallels included).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of `v`: number of incident edge endpoints (self-loops count 2).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The maximum degree Δ of the graph, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|v| self.degree(NodeId::from(v)))
            .max()
            .unwrap_or(0)
    }

    /// The minimum degree of the graph, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        (0..self.len())
            .map(|v| self.degree(NodeId::from(v)))
            .min()
            .unwrap_or(0)
    }

    /// Sum of degrees, `2m`; the total volume of the graph.
    #[inline]
    pub fn volume(&self) -> usize {
        self.adjacency.len()
    }

    /// Iterates over `(neighbor, edge)` pairs incident to `v`.
    ///
    /// Neighbors appear in insertion order; a self-loop at `v` yields the
    /// pair `(v, e)` twice.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.adjacency[self.offsets[v.index()]..self.offsets[v.index() + 1]].iter(),
        }
    }

    /// The `i`-th incident `(neighbor, edge)` pair of `v` (0-based port number).
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree(v)`.
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, i: usize) -> (NodeId, EdgeId) {
        let (w, e) = self.adjacency[self.offsets[v.index()] + i];
        (NodeId(w), EdgeId(e))
    }

    /// Both endpoints of edge `e`, in the order they were inserted.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (u, v) = self.endpoints[e.index()];
        (NodeId(u), NodeId(v))
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from)
    }

    /// Iterates over `(EdgeId, u, v)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::from(i), NodeId(u), NodeId(v)))
    }

    /// Returns `true` if the graph is connected (the empty graph is not).
    pub fn is_connected(&self) -> bool {
        crate::traversal::is_connected(self)
    }

    /// Asserts connectivity, for algorithms that require it.
    ///
    /// # Errors
    ///
    /// [`GraphError::Empty`] for the empty graph, [`GraphError::Disconnected`]
    /// otherwise when not connected.
    pub fn require_connected(&self) -> Result<()> {
        if self.is_empty() {
            return Err(GraphError::Empty);
        }
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(())
    }
}

/// Iterator over the `(neighbor, edge)` pairs incident to a node.
///
/// Produced by [`Graph::neighbors`].
#[derive(Clone, Debug)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, (u32, u32)>,
}

impl Iterator for NeighborIter<'_> {
    type Item = (NodeId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|&(w, e)| (NodeId(w), EdgeId(e)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Incremental builder for [`Graph`].
///
/// # Examples
///
/// ```
/// use amt_graphs::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// let e = b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.endpoints(e), (0u32.into(), 1u32.into()));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge `{u, v}` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`; use [`GraphBuilder::try_add_edge`] for
    /// a fallible variant.
    pub fn add_edge(&mut self, u: usize, v: usize) -> EdgeId {
        self.try_add_edge(u, v).expect("edge endpoint out of range")
    }

    /// Adds an undirected edge `{u, v}`, validating the endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    pub fn try_add_edge(&mut self, u: usize, v: usize) -> Result<EdgeId> {
        for &x in &[u, v] {
            if x >= self.n {
                return Err(GraphError::NodeOutOfRange { node: x, n: self.n });
            }
        }
        let id = EdgeId::from(self.edges.len());
        self.edges.push((u as u32, v as u32));
        Ok(id)
    }

    /// Finalizes the CSR representation.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![(0u32, 0u32); acc];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let e = i as u32;
            adjacency[cursor[u as usize]] = (v, e);
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = (u, e);
            cursor[v as usize] += 1;
        }
        Graph {
            offsets,
            adjacency,
            endpoints: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = path3();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.volume(), 4);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn neighbors_report_edge_ids() {
        let g = path3();
        let nbrs: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(nbrs, vec![(NodeId(0), EdgeId(0)), (NodeId(2), EdgeId(1))]);
        assert_eq!(g.neighbor_at(NodeId(1), 1), (NodeId(2), EdgeId(1)));
    }

    #[test]
    fn self_loop_counts_twice() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.degree(NodeId(0)), 3);
        assert_eq!(g.volume(), 4);
        let loops: Vec<_> = g
            .neighbors(NodeId(0))
            .filter(|&(w, _)| w == NodeId(0))
            .collect();
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn parallel_edges_keep_distinct_ids() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        let ids: Vec<_> = g.neighbors(NodeId(0)).map(|(_, e)| e).collect();
        assert_eq!(ids, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 5, n: 2 });
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = path3();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (EdgeId(0), NodeId(0), NodeId(1)));
    }

    #[test]
    fn require_connected_reports_errors() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(g.require_connected().unwrap_err(), GraphError::Disconnected);
        let e = GraphBuilder::new(0).build();
        assert_eq!(e.require_connected().unwrap_err(), GraphError::Empty);
        assert!(path3().require_connected().is_ok());
    }
}
