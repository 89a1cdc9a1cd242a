//! Baseline: a simplified Garay–Kutten–Peleg-style `Õ(D + √n)` MST.
//!
//! Phase 1 (*controlled growth*): Boruvka with fragment flooding, but only
//! fragments smaller than `√n` propose merges, so flooding distances stay
//! bounded; stops when every fragment has at least `√n` nodes.
//!
//! Phase 2 (*pipelined global merging*): a BFS tree is built from a leader;
//! then, while more than one fragment remains, every fragment's minimum
//! outgoing edge is pipelined up the BFS tree (measured), the root merges
//! fragments centrally, and the chosen edges are pipelined back down
//! (measured). Since at most `√n` fragments remain, each of the `O(log n)`
//! phase-2 iterations costs `O(D + √n)` measured rounds.

use crate::congest_boruvka::{decode_edge, encode, Flooder};
use crate::{reference::UnionFind, MstError, Result};
use amt_congest::{primitives, Metrics, PhaseTimings};
use amt_graphs::{EdgeId, NodeId, WeightedGraph};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Outcome of the GKP-style baseline.
#[derive(Clone, Debug)]
pub struct GkpOutcome {
    /// The MST edges (sorted); equal to the canonical Kruskal MST.
    pub tree_edges: Vec<EdgeId>,
    /// Total tree weight.
    pub total_weight: u64,
    /// Measured rounds, phase 1 + phase 2.
    pub rounds: u64,
    /// Measured rounds of phase 1 (controlled Boruvka).
    pub phase1_rounds: u64,
    /// Measured rounds of phase 2 (pipelined merging).
    pub phase2_rounds: u64,
    /// Height of the global BFS tree used in phase 2.
    pub bfs_height: u32,
    /// Host wall-clock time per stage (`"phase1"`, `"phase2"` entries).
    pub wall: PhaseTimings,
}

/// Runs the baseline.
///
/// # Errors
///
/// [`MstError::Graph`] on disconnected input; [`MstError::Congest`] on
/// simulator violations; [`MstError::TooManyIterations`] as a bug guard.
pub fn run(wg: &WeightedGraph, seed: u64) -> Result<GkpOutcome> {
    let g = wg.graph();
    g.require_connected()?;
    let n = g.len();
    let sqrt_n = (n as f64).sqrt().ceil() as usize;
    let mut comp: Vec<u64> = (0..n as u64).collect();
    // Fragment sizes indexed by label (a fragment's minimum node id).
    let mut size = vec![1usize; n];
    let mut forest = vec![false; wg.edge_count()];
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let mut phase1 = Metrics::default();
    let cap = 4 * (n.max(2) as f64).log2().ceil() as u32 + 10;

    // ---- Phase 1: controlled Boruvka until all fragments reach √n. ----
    let mut wall = PhaseTimings::new();
    let mark = Instant::now();
    let mut flooder = Flooder::new(g, seed, amt_congest::Observe::default())?;
    // More than one fragment, and one of them below √n.
    let growing = |size: &[usize]| {
        let live = size.iter().filter(|&&s| s > 0);
        live.clone().any(|&s| s < sqrt_n) && live.count() > 1
    };
    let mut iters = 0u32;
    while growing(&size) {
        if iters >= cap {
            return Err(MstError::TooManyIterations { cap });
        }
        iters += 1;
        phase1.rounds += 1; // fragment-id exchange

        // Small fragments propose their minimum outgoing edges; the
        // agreement flood is the same machinery as the plain baseline.
        let (m, _) = flooder.flood(
            &forest,
            |v| {
                let c = comp[v.index()];
                if size[c as usize] >= sqrt_n {
                    return u64::MAX;
                }
                wg.min_incident_edge(v, |w| comp[w.index()] != c)
                    .map_or(u64::MAX, |(e, _)| encode(wg, e))
            },
            amt_congest::class::MST_FLOOD,
        )?;
        phase1 = phase1.then(m);

        let mut uf = UnionFind::new(n);
        for &e in &tree_edges {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        for val in flooder.values() {
            if val != u64::MAX {
                let e = decode_edge(wg, val);
                let (a, b) = g.endpoints(e);
                if uf.union(a.index(), b.index()) {
                    forest[e.index()] = true;
                    tree_edges.push(e);
                }
            }
        }
        // Relabel fragments (flood of min node id over the grown forest).
        let (m2, _) =
            flooder.flood(&forest, |v| v.index() as u64, amt_congest::class::MST_LABEL)?;
        phase1 = phase1.then(m2);
        comp.clear();
        comp.extend(flooder.values());
        size.fill(0);
        for &c in &comp {
            size[c as usize] += 1;
        }
    }

    wall.record("phase1", mark.elapsed());

    // ---- Phase 2: pipelined merging over a global BFS tree. ----
    let mark = Instant::now();
    let mut phase2 = Metrics::default();
    let (leader, m_elect) = primitives::elect_leader(g, seed ^ 0xE1EC)?;
    phase2 = phase2.then(m_elect);
    let (tree, m_bfs) = primitives::build_bfs_tree(g, leader, seed ^ 0xBF5)?;
    phase2 = phase2.then(m_bfs);

    let mut iters2 = 0u32;
    while comp.iter().collect::<HashSet<_>>().len() > 1 {
        if iters2 >= cap {
            return Err(MstError::TooManyIterations { cap });
        }
        iters2 += 1;
        phase2.rounds += 1; // fragment-id exchange

        // Fragment minimum outgoing edges (distributed combining justified;
        // items placed at the owning endpoints and pipelined to the root).
        let mut best: HashMap<u64, (amt_graphs::EdgeWeight, EdgeId, NodeId)> = HashMap::new();
        for v in g.nodes() {
            let c = comp[v.index()];
            if let Some((e, _)) = wg.min_incident_edge(v, |w| comp[w.index()] != c) {
                let cw = wg.canonical_weight(e);
                let entry = best.entry(c).or_insert((cw, e, v));
                if cw < entry.0 {
                    *entry = (cw, e, v);
                }
            }
        }
        let mut items: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &(_, e, v) in best.values() {
            items[v.index()].push(u64::from(e.0));
        }
        let (collected, m_up) =
            primitives::pipelined_upcast(g, &tree, items, seed ^ u64::from(iters2))?;
        phase2 = phase2.then(m_up);

        // The root merges centrally (it knows the collected edges).
        let mut uf = UnionFind::new(n);
        for &e in &tree_edges {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let mut selected: Vec<u64> = Vec::new();
        let mut order: Vec<EdgeId> = collected.iter().map(|&x| EdgeId(x as u32)).collect();
        order.sort_unstable_by_key(|&e| wg.canonical_weight(e));
        for e in order {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index()) {
                tree_edges.push(e);
                selected.push(u64::from(e.0));
            }
        }

        // Pipelined downcast of the selected edge ids.
        let (_, m_down) =
            primitives::pipelined_downcast(g, &tree, selected, seed ^ 0xD0 ^ u64::from(iters2))?;
        phase2 = phase2.then(m_down);

        // Relabel fragments centrally (nodes learn their fragment from the
        // broadcast edges; the rounds were charged by the downcast).
        let mut uf2 = UnionFind::new(n);
        for &e in &tree_edges {
            let (u, v) = g.endpoints(e);
            uf2.union(u.index(), v.index());
        }
        for (v, c) in comp.iter_mut().enumerate() {
            *c = uf2.find(v) as u64;
        }
    }

    wall.record("phase2", mark.elapsed());
    tree_edges.sort_unstable();
    Ok(GkpOutcome {
        total_weight: wg.total_weight(&tree_edges),
        tree_edges,
        rounds: phase1.rounds + phase2.rounds,
        phase1_rounds: phase1.rounds,
        phase2_rounds: phase2.rounds,
        bfs_height: tree.height(),
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use amt_graphs::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_kruskal_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..5 {
            let g = generators::connected_erdos_renyi(64, 0.1, 50, &mut rng).unwrap();
            let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
            let out = run(&wg, i).unwrap();
            assert_eq!(out.tree_edges, reference::kruskal(&wg).unwrap(), "case {i}");
            assert_eq!(out.rounds, out.phase1_rounds + out.phase2_rounds);
        }
    }

    #[test]
    fn beats_plain_boruvka_on_low_diameter_graphs() {
        // On expanders (small D), plain Boruvka floods over fragment trees
        // whose diameter keeps growing; GKP pipelines phase 2 over the
        // shallow BFS tree instead.
        let mut rng = StdRng::seed_from_u64(32);
        let n = 256;
        let g = generators::random_regular(n, 6, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        let gkp = run(&wg, 1).unwrap();
        let plain = crate::congest_boruvka::run(&wg, 1).unwrap();
        assert!(reference::verify_mst(&wg, &gkp.tree_edges));
        assert!(
            gkp.rounds < plain.rounds,
            "GKP {} rounds should beat plain Boruvka {} on an expander",
            gkp.rounds,
            plain.rounds
        );
    }

    #[test]
    fn correct_on_paths_where_d_dominates() {
        let mut rng = StdRng::seed_from_u64(33);
        let n = 128;
        let path_edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(n, &path_edges).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        let out = run(&wg, 1).unwrap();
        assert!(reference::verify_mst(&wg, &out.tree_edges));
        // Rounds are Ω(D) on a path — sanity on the measured magnitude.
        assert!(out.rounds as usize >= n / 2, "rounds = {}", out.rounds);
    }

    #[test]
    fn works_on_expanders() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::random_regular(100, 6, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        let out = run(&wg, 2).unwrap();
        assert!(reference::verify_mst(&wg, &out.tree_edges));
        assert!(out.bfs_height > 0);
    }

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let wg = WeightedGraph::new(g, vec![1, 2]).unwrap();
        assert!(matches!(run(&wg, 0), Err(MstError::Graph(_))));
    }
}
