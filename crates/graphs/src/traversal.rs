//! Breadth-first traversal utilities: distances, components, BFS trees,
//! diameter, and path extraction.

use crate::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// Distance value used to mark unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances; unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.len()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for (w, _) in g.neighbors(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// A rooted BFS tree: for each node its parent and the connecting edge
/// (`None` at the root and at unreachable nodes), plus depths.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root the tree was grown from.
    pub root: NodeId,
    /// `parent[v]` is `Some((parent, edge))` for reachable non-root `v`.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// BFS depth per node; [`UNREACHABLE`] when not reachable.
    pub depth: Vec<u32>,
}

impl BfsTree {
    /// Height of the tree: the maximum finite depth.
    pub fn height(&self) -> u32 {
        self.depth
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// The path of nodes from `v` up to the root (inclusive on both ends).
    ///
    /// Returns `None` if `v` is unreachable from the root.
    pub fn path_to_root(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.depth[v.index()] == UNREACHABLE {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        Some(path)
    }

    /// Children lists derived from the parent pointers.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some((parent, _)) = p {
                ch[parent.index()].push(NodeId::from(i));
            }
        }
        ch
    }
}

/// Grows a BFS tree from `root`.
pub fn bfs_tree(g: &Graph, root: NodeId) -> BfsTree {
    let mut parent = vec![None; g.len()];
    let mut depth = vec![UNREACHABLE; g.len()];
    let mut queue = VecDeque::new();
    depth[root.index()] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for (w, e) in g.neighbors(v) {
            if w != v && depth[w.index()] == UNREACHABLE {
                depth[w.index()] = depth[v.index()] + 1;
                parent[w.index()] = Some((v, e));
                queue.push_back(w);
            }
        }
    }
    BfsTree {
        root,
        parent,
        depth,
    }
}

/// Returns `true` if the graph is connected; the empty graph is not.
pub fn is_connected(g: &Graph) -> bool {
    if g.is_empty() {
        return false;
    }
    bfs_distances(g, NodeId(0))
        .iter()
        .all(|&d| d != UNREACHABLE)
}

/// Connected components: returns `(component_id_per_node, component_count)`.
/// Component ids are dense and ordered by smallest contained node.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let mut comp = vec![u32::MAX; g.len()];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..g.len() {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next;
        queue.push_back(NodeId::from(s));
        while let Some(v) = queue.pop_front() {
            for (w, _) in g.neighbors(v) {
                if comp[w.index()] == u32::MAX {
                    comp[w.index()] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Exact diameter by all-pairs BFS: `O(n·m)`. Returns `None` when the graph
/// is disconnected or empty.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    if !is_connected(g) {
        return None;
    }
    let mut diam = 0;
    for v in g.nodes() {
        let ecc = bfs_distances(g, v).into_iter().max().unwrap_or(0);
        diam = diam.max(ecc);
    }
    Some(diam)
}

/// Double-sweep lower bound on the diameter: one BFS from `start`, a second
/// from the farthest node found. Exact on trees, a good lower bound in
/// general, `O(m)`. Returns `None` when disconnected or empty.
pub fn diameter_double_sweep(g: &Graph, start: NodeId) -> Option<u32> {
    if !is_connected(g) {
        return None;
    }
    let d1 = bfs_distances(g, start);
    let far = d1
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map(|(i, _)| NodeId::from(i))?;
    let d2 = bfs_distances(g, far);
    d2.into_iter().max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn bfs_tree_structure() {
        let g = path_graph(4);
        let t = bfs_tree(&g, NodeId(1));
        assert_eq!(t.height(), 2);
        assert_eq!(t.parent[0], Some((NodeId(1), EdgeId(0))));
        assert_eq!(
            t.path_to_root(NodeId(3)).unwrap(),
            vec![NodeId(3), NodeId(2), NodeId(1)]
        );
        let ch = t.children();
        assert_eq!(ch[1], vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn components_counted_and_labeled() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter_exact(&path_graph(6)), Some(5));
        let cyc = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert_eq!(diameter_exact(&cyc), Some(3));
        assert_eq!(diameter_double_sweep(&path_graph(6), NodeId(2)), Some(5));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(diameter_double_sweep(&g, NodeId(0)), None);
    }

    #[test]
    fn self_loops_do_not_enter_bfs_tree() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)]).unwrap();
        let t = bfs_tree(&g, NodeId(0));
        assert_eq!(t.parent[1], Some((NodeId(0), EdgeId(1))));
        assert_eq!(t.height(), 1);
    }
}
