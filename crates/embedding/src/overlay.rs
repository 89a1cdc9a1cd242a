//! One level of the hierarchy: a virtual-node graph whose edges are
//! embedded as paths in the level below.

use crate::VirtualId;
use amt_graphs::{EdgeId, Graph};
use amt_walks::{KeyPaths, KeySlab};

/// Directed capacity key of an overlay (or base) edge: `edge·2 + direction`.
///
/// Direction bit 0 means "from `endpoints(e).0` to `endpoints(e).1`". These
/// keys feed [`amt_walks::route_paths`], giving each edge unit capacity per
/// direction per round — the CONGEST constraint.
#[inline]
pub fn dir_key(e: EdgeId, forward: bool) -> u64 {
    (u64::from(e.0) << 1) | u64::from(!forward)
}

/// The edge behind a directed key.
#[inline]
pub fn key_edge(key: u64) -> EdgeId {
    EdgeId((key >> 1) as u32)
}

/// Whether a directed key points in the edge's forward direction.
#[inline]
pub fn key_is_forward(key: u64) -> bool {
    key & 1 == 0
}

/// A hierarchy level: a graph on the virtual-node id space plus, for every
/// edge, the directed-key path in the level below that realizes it.
///
/// * Level 0 paths are **base-graph** keys (the lazy-walk trajectories of
///   §3.1.1).
/// * Level `p ≥ 1` paths are level-`(p−1)` overlay keys (the 2Δ-regular walk
///   trajectories of §3.1.2, or BFS paths for the bottom complete graphs and
///   fallback edges).
///
/// Only the forward paths are stored, in one [`KeySlab`] indexed by edge;
/// [`Overlay::dir_path`] reads the reverse direction off the same keys.
#[derive(Clone, Debug)]
pub struct Overlay {
    level: u32,
    graph: Graph,
    edge_paths: KeySlab,
    fallback_edges: usize,
}

impl Overlay {
    /// Wraps a constructed level; `edge_paths.get(e)` is edge `e`'s forward
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `edge_paths.len() != graph.edge_count()`.
    pub fn new(level: u32, graph: Graph, edge_paths: KeySlab, fallback_edges: usize) -> Self {
        let edge_paths = edge_paths.compacted();
        assert_eq!(
            edge_paths.len(),
            graph.edge_count(),
            "one embedded path required per overlay edge"
        );
        Overlay {
            level,
            graph,
            edge_paths,
            fallback_edges,
        }
    }

    /// This overlay's level index (0 = `G₀`).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The overlay topology on the virtual-node id space.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of edges created by connectivity fallbacks rather than walks.
    pub fn fallback_edges(&self) -> usize {
        self.fallback_edges
    }

    /// The lower-level key path realizing edge `e`, in the requested
    /// direction (reversing flips both the order and each key's direction).
    pub fn key_path(&self, e: EdgeId, forward: bool) -> Vec<u64> {
        self.dir_path(dir_key(e, forward)).collect()
    }

    /// Borrowed view of the lower-level key path behind directed key `key`
    /// (see [`Overlay::key_path`]); copies nothing.
    pub fn dir_path(&self, key: u64) -> DirPath<'_> {
        DirPath {
            stored: self.edge_paths.get(key_edge(key).index()).iter(),
            reversed: !key_is_forward(key),
        }
    }

    /// The lower-level paths of a batch of directed keys, as a path set the
    /// scheduler routes without copying (token `i` follows `batch[i]`).
    pub(crate) fn crossing_paths<'a>(&'a self, batch: &'a [u64]) -> CrossingPaths<'a> {
        CrossingPaths {
            overlay: self,
            batch,
        }
    }

    /// The stored forward paths, one per edge (the batch race steps over
    /// them directly).
    pub(crate) fn stored_paths(&self) -> &KeySlab {
        &self.edge_paths
    }

    /// Raw stored (forward) path length of edge `e`.
    pub fn path_len(&self, e: EdgeId) -> usize {
        self.edge_paths.get(e.index()).len()
    }

    /// `(average, max)` stored path length over all edges; `(0, 0)` when
    /// edgeless.
    pub fn path_length_stats(&self) -> (f64, usize) {
        if self.edge_paths.is_empty() {
            return (0.0, 0);
        }
        let total = self.edge_paths.keys().len();
        let max = self.edge_paths.iter().map(<[u64]>::len).max().unwrap_or(0);
        (total as f64 / self.edge_paths.len() as f64, max)
    }

    /// Finds an edge between `a` and `b`, returning `(edge, forward)` where
    /// `forward` is the direction `a → b`. Scans `a`'s adjacency.
    pub fn edge_between(&self, a: VirtualId, b: VirtualId) -> Option<(EdgeId, bool)> {
        for (w, e) in self.graph.neighbors(amt_graphs::NodeId(a.0)) {
            if w.0 == b.0 {
                let (x, _) = self.graph.endpoints(e);
                return Some((e, x.0 == a.0));
            }
        }
        None
    }
}

/// Iterator over one directed overlay-edge path: the stored keys forward,
/// or backward with each key's direction bit flipped.
#[derive(Clone, Debug)]
pub struct DirPath<'a> {
    stored: std::slice::Iter<'a, u64>,
    reversed: bool,
}

impl Iterator for DirPath<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.reversed {
            self.stored.next_back().map(|k| k ^ 1)
        } else {
            self.stored.next().copied()
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.stored.size_hint()
    }
}

impl ExactSizeIterator for DirPath<'_> {}

/// The lower-level paths of a batch of directed overlay keys
/// ([`Overlay::crossing_paths`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CrossingPaths<'a> {
    overlay: &'a Overlay,
    batch: &'a [u64],
}

impl KeyPaths for CrossingPaths<'_> {
    fn count(&self) -> usize {
        self.batch.len()
    }

    fn path(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        self.overlay.dir_path(self.batch[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let e = EdgeId(5);
        assert_eq!(key_edge(dir_key(e, true)), e);
        assert!(key_is_forward(dir_key(e, true)));
        assert!(!key_is_forward(dir_key(e, false)));
        assert_eq!(dir_key(e, true) ^ 1, dir_key(e, false));
    }

    fn tiny_overlay() -> Overlay {
        // Two virtual nodes joined by one edge embedded as keys [k0, k1].
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut paths = KeySlab::new();
        paths.push([dir_key(EdgeId(7), true), dir_key(EdgeId(9), false)]);
        Overlay::new(1, g, paths, 0)
    }

    #[test]
    fn reverse_path_flips_keys_and_order() {
        let ov = tiny_overlay();
        let fwd = ov.key_path(EdgeId(0), true);
        let rev = ov.key_path(EdgeId(0), false);
        assert_eq!(rev.len(), fwd.len());
        assert_eq!(rev[0], fwd[1] ^ 1);
        assert_eq!(rev[1], fwd[0] ^ 1);
    }

    #[test]
    fn crossing_paths_view_the_directed_paths() {
        let ov = tiny_overlay();
        let batch = [dir_key(EdgeId(0), false), dir_key(EdgeId(0), true)];
        let view = ov.crossing_paths(&batch);
        assert_eq!(view.count(), 2);
        let rev: Vec<u64> = view.path(0).collect();
        assert_eq!(rev, ov.key_path(EdgeId(0), false));
        assert_eq!(view.path(1).count(), 2);
    }

    #[test]
    fn edge_between_reports_direction() {
        let ov = tiny_overlay();
        let (e, fwd) = ov.edge_between(VirtualId(0), VirtualId(1)).unwrap();
        assert_eq!(e, EdgeId(0));
        assert!(fwd);
        let (_, back) = ov.edge_between(VirtualId(1), VirtualId(0)).unwrap();
        assert!(!back);
        assert!(ov.edge_between(VirtualId(0), VirtualId(0)).is_none());
    }

    #[test]
    fn stats_and_accessors() {
        let ov = tiny_overlay();
        assert_eq!(ov.level(), 1);
        assert_eq!(ov.path_len(EdgeId(0)), 2);
        assert_eq!(ov.path_length_stats(), (2.0, 2));
        assert_eq!(ov.fallback_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "one embedded path required")]
    fn mismatched_paths_panic() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let _ = Overlay::new(0, g, KeySlab::new(), 0);
    }
}
