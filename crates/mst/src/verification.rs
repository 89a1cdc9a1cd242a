//! Distributed spanning-tree verification (the problem family of Das Sarma
//! et al. \[17\], whose lower bounds motivate the paper).
//!
//! Given a claimed tree edge set (each node knows which of its incident
//! edges are claimed), the protocol checks distributedly that the claim is
//! a spanning tree:
//!
//! 1. **acyclicity + count** — a spanning tree has exactly `n − 1` edges
//!    and connects everything; we verify both by flooding minimum ids over
//!    the claimed edges (components of the claimed forest) and aggregating
//!    the global edge count and label agreement over a BFS tree.
//! 2. every node ends up knowing the verdict.
//!
//! Rounds are measured through the CONGEST simulator. (Verifying
//! *minimality* distributedly is the Ω(D+√n)-hard problem of \[17\]; the
//! almost-mixing-time MST sidesteps it by being Las Vegas — its output is
//! canonical by construction and checked centrally in tests.)

use crate::congest_boruvka::Flooder;
use crate::Result;
use amt_congest::{primitives, Metrics};
use amt_graphs::{EdgeId, Graph};

/// Outcome of the distributed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerificationOutcome {
    /// `true` iff the claimed edges form a spanning tree of the graph.
    pub is_spanning_tree: bool,
    /// Measured CONGEST rounds of the whole protocol.
    pub rounds: u64,
    /// Claimed edges counted globally.
    pub claimed_edges: u64,
    /// Number of components the claimed forest has.
    pub forest_components: u64,
}

/// Verifies distributedly that `claimed` is a spanning tree of `g`.
///
/// # Errors
///
/// Propagates simulator violations (none occur for valid inputs).
///
/// # Examples
///
/// ```
/// use amt_graphs::{generators, WeightedGraph};
/// use amt_mst::{reference, verification};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = generators::hypercube(4);
/// let wg = WeightedGraph::with_random_weights(g.clone(), 100, &mut rng);
/// let tree = reference::kruskal(&wg).unwrap();
/// let out = verification::verify_spanning_tree_distributed(&g, &tree, 3).unwrap();
/// assert!(out.is_spanning_tree);
/// assert!(out.rounds > 0);
/// ```
pub fn verify_spanning_tree_distributed(
    g: &Graph,
    claimed: &[EdgeId],
    seed: u64,
) -> Result<VerificationOutcome> {
    let n = g.len();
    // Claimed edges as a mask indexed by edge id (ids outside the graph
    // claim nothing).
    let mut claimed_mask = vec![false; g.edge_count()];
    for e in claimed {
        if let Some(slot) = claimed_mask.get_mut(e.index()) {
            *slot = true;
        }
    }
    let mut metrics = Metrics::default();

    // (a) Component labels of the claimed forest: min-id flood restricted
    // to claimed edges, with the fragment flooder of the Boruvka baseline.
    let mut flooder = Flooder::new(g, seed, amt_congest::Observe::default())?;
    let (m1, _) = flooder.flood(
        &claimed_mask,
        |v| v.index() as u64,
        amt_congest::class::MST_LABEL,
    )?;
    let labels: Vec<u64> = flooder.values().collect();
    metrics = metrics.then(m1);

    // (b) Global aggregates over a BFS tree: claimed-edge count (each node
    // contributes its claimed degree; the sum double-counts), number of
    // distinct labels (each node contributes 1 iff its id equals its
    // label, i.e. it is its component's representative), and label
    // agreement (min == max label).
    let (leader, m2) = primitives::elect_leader(g, seed ^ 0x1E)?;
    metrics = metrics.then(m2);
    let (tree, m3) = primitives::build_bfs_tree(g, leader, seed ^ 0xB5)?;
    metrics = metrics.then(m3);

    let claimed_deg: Vec<u64> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .filter(|(_, e)| claimed_mask[e.index()])
                .count() as u64
        })
        .collect();
    let (twice_edges, m4) =
        primitives::aggregate_to_all(g, &tree, &claimed_deg, u64::wrapping_add, seed ^ 0x01)?;
    metrics = metrics.then(m4);

    let reps: Vec<u64> = (0..n).map(|v| u64::from(labels[v] == v as u64)).collect();
    let (components, m5) =
        primitives::aggregate_to_all(g, &tree, &reps, u64::wrapping_add, seed ^ 0x02)?;
    metrics = metrics.then(m5);

    let claimed_edges = twice_edges / 2;
    // n − 1 edges and one component ⇔ spanning tree (count rules out
    // cycles once connectivity holds).
    let is_spanning_tree = claimed_edges == (n as u64).saturating_sub(1) && components == 1;
    Ok(VerificationOutcome {
        is_spanning_tree,
        rounds: metrics.rounds,
        claimed_edges,
        forest_components: components,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use amt_graphs::{generators, WeightedGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Graph, Vec<EdgeId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g.clone(), 1000, &mut rng);
        let tree = reference::kruskal(&wg).unwrap();
        (g, tree)
    }

    #[test]
    fn accepts_real_spanning_trees() {
        let (g, tree) = setup(48, 1);
        let out = verify_spanning_tree_distributed(&g, &tree, 7).unwrap();
        assert!(out.is_spanning_tree);
        assert_eq!(out.claimed_edges, 47);
        assert_eq!(out.forest_components, 1);
    }

    #[test]
    fn rejects_a_missing_edge() {
        let (g, mut tree) = setup(48, 2);
        tree.pop();
        let out = verify_spanning_tree_distributed(&g, &tree, 7).unwrap();
        assert!(!out.is_spanning_tree);
        assert_eq!(out.claimed_edges, 46);
        assert_eq!(out.forest_components, 2);
    }

    #[test]
    fn rejects_an_extra_edge_forming_a_cycle() {
        let (g, mut tree) = setup(48, 3);
        let spare = g
            .edges()
            .map(|(e, _, _)| e)
            .find(|e| !tree.contains(e))
            .expect("graph has non-tree edges");
        tree.push(spare);
        let out = verify_spanning_tree_distributed(&g, &tree, 7).unwrap();
        assert!(!out.is_spanning_tree);
        assert_eq!(out.claimed_edges, 48); // n edges ⇒ a cycle somewhere
    }

    #[test]
    fn rejects_a_disconnected_pseudoforest_with_right_count() {
        // Swap one tree edge for a non-tree edge inside an existing
        // component: count stays n−1 but a cycle + disconnection appears.
        let (g, mut tree) = setup(48, 4);
        let removed = tree.pop().expect("tree nonempty");
        let spare = g
            .edges()
            .map(|(e, _, _)| e)
            .find(|e| !tree.contains(e) && *e != removed)
            .expect("graph has non-tree edges");
        tree.push(spare);
        let out = verify_spanning_tree_distributed(&g, &tree, 7).unwrap();
        // Either it reconnected by luck (spare bridges the gap) or it must
        // be rejected; check consistency with a centralized judgment.
        let mut uf = crate::reference::UnionFind::new(g.len());
        for &e in &tree {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let really_spanning = uf.components() == 1 && tree.len() == g.len() - 1;
        assert_eq!(out.is_spanning_tree, really_spanning);
    }

    #[test]
    fn empty_claim_on_multinode_graph_is_rejected() {
        let (g, _) = setup(32, 5);
        let out = verify_spanning_tree_distributed(&g, &[], 7).unwrap();
        assert!(!out.is_spanning_tree);
        assert_eq!(out.forest_components, 32);
    }
}
