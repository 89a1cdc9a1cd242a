//! Centralized references: Kruskal, Prim, union-find, and an MST verifier.
//!
//! All distributed variants in this crate are validated against these.
//! Weights are compared canonically (`(weight, EdgeId)`), so the MST is
//! unique and weight equality with Kruskal implies edge-set equality.

use amt_graphs::{EdgeId, NodeId, WeightedGraph};

/// Union-find with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn components(&self) -> usize {
        self.components
    }
}

/// Kruskal's algorithm under the canonical weight order. Returns the unique
/// MST edge set (sorted by edge id), or `None` if the graph is disconnected
/// or empty.
pub fn kruskal(wg: &WeightedGraph) -> Option<Vec<EdgeId>> {
    let g = wg.graph();
    if g.is_empty() {
        return None;
    }
    let mut order: Vec<EdgeId> = g.edges().map(|(e, _, _)| e).collect();
    order.sort_unstable_by_key(|&e| wg.canonical_weight(e));
    let mut uf = UnionFind::new(g.len());
    let mut tree = Vec::with_capacity(g.len() - 1);
    for e in order {
        let (u, v) = g.endpoints(e);
        if u != v && uf.union(u.index(), v.index()) {
            tree.push(e);
        }
    }
    if uf.components() != 1 {
        return None;
    }
    tree.sort_unstable();
    Some(tree)
}

/// Kruskal over what survives crashes and cuts: the nodes outside `dead`
/// and the edges between them outside `cut`, under the canonical weight
/// order. Returns the minimum spanning forest (sorted by edge id); when the
/// survivors stay connected it is the unique tree a healed run must find.
pub fn survivor_mst(wg: &WeightedGraph, dead: &[NodeId], cut: &[EdgeId]) -> Vec<EdgeId> {
    let g = wg.graph();
    let mut gone = vec![false; g.len()];
    for v in dead {
        gone[v.index()] = true;
    }
    let mut severed = vec![false; g.edge_count()];
    for e in cut {
        severed[e.index()] = true;
    }
    let mut order: Vec<EdgeId> = g
        .edges()
        .filter(|(e, u, v)| !gone[u.index()] && !gone[v.index()] && !severed[e.index()])
        .map(|(e, _, _)| e)
        .collect();
    order.sort_unstable_by_key(|&e| wg.canonical_weight(e));
    let mut uf = UnionFind::new(g.len());
    let mut forest: Vec<EdgeId> = order
        .into_iter()
        .filter(|&e| {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index())
        })
        .collect();
    forest.sort_unstable();
    forest
}

/// Prim's algorithm (binary heap) under the canonical weight order; returns
/// the same edge set as [`kruskal`] on connected graphs.
pub fn prim(wg: &WeightedGraph) -> Option<Vec<EdgeId>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let g = wg.graph();
    if g.is_empty() {
        return None;
    }
    let mut in_tree = vec![false; g.len()];
    let mut tree = Vec::with_capacity(g.len() - 1);
    let mut heap: BinaryHeap<Reverse<(amt_graphs::EdgeWeight, u32)>> = BinaryHeap::new();
    let push_frontier = |v: NodeId, heap: &mut BinaryHeap<_>, in_tree: &[bool]| {
        for (w, e) in g.neighbors(v) {
            if !in_tree[w.index()] && w != v {
                heap.push(Reverse((wg.canonical_weight(e), w.0)));
            }
        }
    };
    in_tree[0] = true;
    push_frontier(NodeId(0), &mut heap, &in_tree);
    while let Some(Reverse((cw, w))) = heap.pop() {
        if in_tree[w as usize] {
            continue;
        }
        in_tree[w as usize] = true;
        tree.push(cw.edge);
        push_frontier(NodeId(w), &mut heap, &in_tree);
    }
    if in_tree.iter().all(|&b| b) {
        tree.sort_unstable();
        Some(tree)
    } else {
        None
    }
}

/// Checks that `edges` is a spanning tree of `wg` with the minimum possible
/// weight (compared against [`kruskal`]).
pub fn verify_mst(wg: &WeightedGraph, edges: &[EdgeId]) -> bool {
    let g = wg.graph();
    if g.is_empty() || edges.len() != g.len() - 1 {
        return false;
    }
    let mut uf = UnionFind::new(g.len());
    for &e in edges {
        let (u, v) = g.endpoints(e);
        if u == v || !uf.union(u.index(), v.index()) {
            return false; // cycle or self-loop
        }
    }
    if uf.components() != 1 {
        return false;
    }
    match kruskal(wg) {
        Some(best) => wg.total_weight(edges) == wg.total_weight(&best),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond() -> WeightedGraph {
        // 0-1 (1), 1-2 (2), 2-3 (3), 3-0 (4), 0-2 (5): MST = {e0, e1, e2}.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        WeightedGraph::new(g, vec![1, 2, 3, 4, 5]).unwrap()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.components(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.components(), 1);
        assert_eq!(uf.find(2), uf.find(1));
    }

    #[test]
    fn kruskal_on_diamond() {
        let wg = diamond();
        let t = kruskal(&wg).unwrap();
        assert_eq!(t, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(wg.total_weight(&t), 6);
    }

    #[test]
    fn survivor_mst_drops_dead_nodes_and_cut_edges() {
        let wg = diamond();
        assert_eq!(survivor_mst(&wg, &[], &[]), kruskal(&wg).unwrap());
        // Without node 3 and the cut edge 1-2, node 2 hangs off 0-2.
        assert_eq!(
            survivor_mst(&wg, &[NodeId(3)], &[EdgeId(1)]),
            vec![EdgeId(0), EdgeId(4)]
        );
        // Cutting both edges of node 1 leaves it a forest of its own.
        assert_eq!(
            survivor_mst(&wg, &[], &[EdgeId(0), EdgeId(1)]),
            vec![EdgeId(2), EdgeId(3)]
        );
    }

    #[test]
    fn prim_matches_kruskal_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10 {
            let g = generators::connected_erdos_renyi(40, 0.15, 50, &mut rng).unwrap();
            let wg = WeightedGraph::with_random_weights(g, 100, &mut rng);
            let k = kruskal(&wg).unwrap();
            let p = prim(&wg).unwrap();
            assert_eq!(k, p, "case {i}");
            assert!(verify_mst(&wg, &k));
        }
    }

    #[test]
    fn disconnected_graphs_have_no_mst() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let wg = WeightedGraph::new(g, vec![1, 1]).unwrap();
        assert_eq!(kruskal(&wg), None);
        assert_eq!(prim(&wg), None);
        assert!(!verify_mst(&wg, &[EdgeId(0), EdgeId(1)]));
    }

    #[test]
    fn verifier_rejects_wrong_trees() {
        let wg = diamond();
        // Spanning but not minimum.
        assert!(!verify_mst(&wg, &[EdgeId(0), EdgeId(2), EdgeId(3)]));
        // Wrong cardinality.
        assert!(!verify_mst(&wg, &[EdgeId(0), EdgeId(1)]));
        // Contains a cycle (0-1, 1-2, 0-2).
        assert!(!verify_mst(&wg, &[EdgeId(0), EdgeId(1), EdgeId(4)]));
    }

    #[test]
    fn kruskal_ignores_self_loops_and_parallels() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (0, 1), (1, 2)]).unwrap();
        let wg = WeightedGraph::new(g, vec![0, 5, 5, 2]).unwrap();
        let t = kruskal(&wg).unwrap();
        // Canonical tie-break picks the lower edge id of the parallel pair.
        assert_eq!(t, vec![EdgeId(1), EdgeId(3)]);
        assert!(verify_mst(&wg, &t));
    }
}
