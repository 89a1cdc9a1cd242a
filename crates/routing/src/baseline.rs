//! Baseline routers for comparison experiments.
//!
//! * [`shortest_path_route`] — a *centralized* reference: every packet takes
//!   a BFS shortest path and the store-and-forward schedule is computed
//!   globally. Its makespan is `Θ(congestion + dilation)`, a lower-bound
//!   proxy no distributed algorithm without global knowledge can beat by
//!   much. The paper's point is reaching comparable scaling *without*
//!   global knowledge.
//! * [`random_walk_route`] — the naive distributed strawman: each packet
//!   performs an independent lazy walk until it happens to hit its
//!   destination. Fast per step but needs `Θ(m/d)·polylog` steps per
//!   delivery; the experiments show why the hierarchy is necessary.

use amt_embedding::dir_key;
use amt_graphs::{traversal, Graph, NodeId};
use amt_walks::{route_paths, PathRouteStats, WalkKind};
use rand::Rng;

/// Routes each request along a BFS shortest path, scheduling all packets
/// jointly with per-directed-edge capacity 1. Returns the measured schedule
/// statistics.
///
/// # Examples
///
/// ```
/// use amt_graphs::{Graph, NodeId};
/// use amt_routing::baseline::shortest_path_route;
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let stats = shortest_path_route(&g, &[(NodeId(0), NodeId(3))]);
/// assert_eq!(stats.rounds, 3); // one packet, three hops
/// ```
///
/// # Panics
///
/// Panics if a request pair is disconnected (callers use connected graphs).
pub fn shortest_path_route(g: &Graph, requests: &[(NodeId, NodeId)]) -> PathRouteStats {
    // BFS trees cached per source to keep this O(S·m) for S distinct sources.
    let mut paths: Vec<Vec<u64>> = Vec::with_capacity(requests.len());
    let mut cache: std::collections::HashMap<u32, traversal::BfsTree> = Default::default();
    for &(s, t) in requests {
        let tree = cache
            .entry(s.0)
            .or_insert_with(|| traversal::bfs_tree(g, s));
        let mut node_path = tree
            .path_to_root(t)
            .expect("shortest-path baseline requires connected request pairs");
        node_path.reverse(); // now s … t
        let mut keys = Vec::with_capacity(node_path.len().saturating_sub(1));
        for hop in 1..node_path.len() {
            // The path leads away from the root s, so each node's parent is
            // its predecessor on the path.
            let (p, e) = tree.parent[node_path[hop].index()].expect("interior node has parent");
            debug_assert_eq!(p, node_path[hop - 1]);
            let (a, _) = g.endpoints(e);
            keys.push(dir_key(e, a == node_path[hop - 1]));
        }
        paths.push(keys);
    }
    route_paths(&paths, 1)
}

/// Outcome of the naive random-walk router.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkRouteOutcome {
    /// Measured rounds (per-step max directed-edge load, summed).
    pub rounds: u64,
    /// Packets that reached their destination within the step budget.
    pub delivered: usize,
    /// Packets still wandering when the budget ran out.
    pub undelivered: usize,
    /// Walk steps executed.
    pub steps: u32,
}

/// Routes packets by independent lazy random walks that stop on arrival.
///
/// Each step costs `max(1, max directed-edge load)` rounds, exactly like the
/// parallel-walk scheduler. Stops when all packets arrive or after
/// `max_steps`.
pub fn random_walk_route<R: Rng>(
    g: &Graph,
    requests: &[(NodeId, NodeId)],
    max_steps: u32,
    rng: &mut R,
) -> WalkRouteOutcome {
    let delta = g.max_degree();
    let mut pos: Vec<NodeId> = requests.iter().map(|&(s, _)| s).collect();
    let mut arrived: Vec<bool> = requests.iter().map(|&(s, t)| s == t).collect();
    let mut loads: std::collections::HashMap<(u32, bool), u32> = Default::default();
    let mut rounds = 0u64;
    let mut steps = 0u32;
    while steps < max_steps && arrived.iter().any(|&a| !a) {
        steps += 1;
        loads.clear();
        let mut max_load = 0u32;
        for (i, &(_, t)) in requests.iter().enumerate() {
            if arrived[i] {
                continue;
            }
            if let Some((next, e)) = WalkKind::Lazy.step(g, pos[i], delta, rng) {
                let (a, _) = g.endpoints(e);
                let c = loads.entry((e.0, a == pos[i])).or_insert(0);
                *c += 1;
                max_load = max_load.max(*c);
                pos[i] = next;
            }
            if pos[i] == t {
                arrived[i] = true;
            }
        }
        rounds += u64::from(max_load.max(1));
    }
    let delivered = arrived.iter().filter(|&&a| a).count();
    WalkRouteOutcome {
        rounds,
        delivered,
        undelivered: requests.len() - delivered,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shortest_path_route_on_a_path_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let stats = shortest_path_route(&g, &[(NodeId(0), NodeId(3))]);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.traversals, 3);
    }

    #[test]
    fn shortest_path_route_contention() {
        // Star: every leaf sends to another leaf; all paths share the hub.
        let n = 6;
        let edges: Vec<_> = (1..n).map(|i| (0usize, i)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let reqs: Vec<_> = (1..n as u32)
            .map(|i| (NodeId(i), NodeId(i % (n as u32 - 1) + 1)))
            .collect();
        let stats = shortest_path_route(&g, &reqs);
        // Each path has 2 hops; with distinct leaf pairs, edges are shared
        // by at most 2 packets per direction.
        assert!(
            stats.rounds >= 2 && stats.rounds <= 6,
            "rounds = {}",
            stats.rounds
        );
    }

    #[test]
    fn self_requests_are_instant() {
        let g = generators::ring(5);
        let stats = shortest_path_route(&g, &[(NodeId(2), NodeId(2))]);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn walk_router_eventually_delivers_on_small_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::complete(8);
        let reqs: Vec<_> = (0..8u32)
            .map(|i| (NodeId(i), NodeId((i + 1) % 8)))
            .collect();
        let out = random_walk_route(&g, &reqs, 10_000, &mut rng);
        assert_eq!(out.undelivered, 0);
        assert!(out.rounds >= out.steps as u64 / 2);
    }

    #[test]
    fn walk_router_respects_budget() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::ring(64);
        let reqs = vec![(NodeId(0), NodeId(32))];
        let out = random_walk_route(&g, &reqs, 10, &mut rng);
        assert_eq!(out.steps, 10);
        assert_eq!(out.delivered + out.undelivered, 1);
    }

    #[test]
    fn walk_router_handles_arrived_at_start() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::ring(8);
        let out = random_walk_route(&g, &[(NodeId(3), NodeId(3))], 100, &mut rng);
        assert_eq!(out.delivered, 1);
        assert_eq!(out.rounds, 0);
    }
}
