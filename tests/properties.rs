//! Property-based tests (proptest) on core invariants across crates.

use amt_core::kwise::PartitionHash;
use amt_core::mst::congest_boruvka;
use amt_core::prelude::*;
use amt_core::walks::parallel::{run_parallel_walks, WalkSpec};
use amt_core::walks::route_paths;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a connected graph built from a random spanning tree plus a few
/// random extra edges, with random edge weights.
fn connected_weighted(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (3..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        use rand::RngExt;
        // Random recursive tree keeps it connected.
        for v in 1..n {
            b.add_edge(v, rng.random_range(0..v));
        }
        for _ in 0..n {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                b.add_edge(u, v);
            }
        }
        WeightedGraph::with_random_weights(b.build(), 1_000_000, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn congest_boruvka_matches_kruskal(wg in connected_weighted(24)) {
        let k = reference::kruskal(&wg).expect("connected by construction");
        let out = congest_boruvka::run(&wg, 1).expect("connected");
        prop_assert_eq!(out.tree_edges, k);
    }

    #[test]
    fn gkp_matches_kruskal(wg in connected_weighted(24)) {
        let k = reference::kruskal(&wg).expect("connected by construction");
        let out = amt_core::mst::gkp::run(&wg, 1).expect("connected");
        prop_assert_eq!(out.tree_edges, k);
    }

    #[test]
    fn prim_matches_kruskal(wg in connected_weighted(40)) {
        prop_assert_eq!(reference::prim(&wg), reference::kruskal(&wg));
    }

    #[test]
    fn tree_packing_brackets_exact_min_cut(wg in connected_weighted(18)) {
        let g = wg.graph();
        let caps = vec![1u64; g.edge_count()];
        let exact = stoer_wagner(g, &caps).expect("n >= 2").0;
        let r = tree_packing_min_cut(g, &caps, 6, &MstOracle::Centralized)
            .expect("connected");
        prop_assert!(r.value >= exact);
        prop_assert!(r.value <= 2 * exact.max(1));
    }

    #[test]
    fn route_paths_respects_lower_bounds(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u64..32, 0..10), 0..40)
    ) {
        let stats = route_paths(&paths, 1);
        let dilation_max = paths.iter().map(Vec::len).max().unwrap_or(0) as u64;
        prop_assert!(stats.rounds >= dilation_max);
        prop_assert!(stats.rounds >= stats.max_key_congestion);
        prop_assert!(stats.rounds <= stats.max_key_congestion.max(1) * dilation_max.max(1));
        let total: u64 = paths.iter().map(|p| p.len() as u64).sum();
        prop_assert_eq!(stats.traversals, total);
    }

    #[test]
    fn partition_labels_rebuild_leaf(
        beta in 2u32..9, levels in 1u32..5, k in 1usize..20, seed in any::<u64>(), id in any::<u64>()
    ) {
        let p = PartitionHash::new(beta, levels, k, seed);
        let leaf = p.leaf(id);
        prop_assert!(leaf < p.leaf_count());
        let rebuilt = p
            .labels(id)
            .iter()
            .fold(0u64, |acc, &l| acc * u64::from(beta) + u64::from(l));
        prop_assert_eq!(rebuilt, leaf);
        // Depth-prefix consistency.
        for d in 0..=levels {
            let part = p.part_at(id, d);
            prop_assert!(part < p.parts_at(d));
        }
    }

    #[test]
    fn walk_trajectories_are_graph_walks(seed in any::<u64>(), steps in 1u32..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(24, 4, &mut rng).expect("valid");
        let specs: Vec<_> =
            (0..24u32).map(|i| WalkSpec { start: NodeId(i), steps }).collect();
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng);
        for (t, spec) in run.trajectories().zip(&specs) {
            prop_assert_eq!(t.steps(), steps as usize);
            prop_assert_eq!(t.start(), spec.start);
            // Consecutive keys chain: each move leaves the node the walk
            // reached, from the spec's start, and the last lands on `end()`.
            let mut at = t.start();
            for key in t.dir_keys() {
                let (a, b) = g.endpoints(EdgeId((key >> 1) as u32));
                let (from, to) = if key & 1 == 0 { (a, b) } else { (b, a) };
                prop_assert_eq!(from, at, "key {} does not leave {:?}", key, at);
                at = to;
            }
            prop_assert_eq!(at, t.end());
        }
        // Reversal costs exactly the forward rounds.
        prop_assert_eq!(run.reverse_rounds(), run.stats.rounds);
    }
}

// Routing delivery for arbitrary destination assignments on a fixed
// expander (hierarchy built once — proptest shrinks only the assignment).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn router_delivers_arbitrary_assignments(dsts in proptest::collection::vec(0u32..32, 32)) {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_regular(32, 4, &mut rng).expect("valid");
        let mut cfg = HierarchyConfig::auto(&g, 20, 3);
        cfg.beta = 4;
        cfg.levels = 1;
        cfg.overlay_degree = 5;
        cfg.level0_walks = 10;
        let h = Hierarchy::build(&g, cfg).expect("expander");
        let reqs: Vec<_> = dsts
            .iter()
            .enumerate()
            .map(|(i, &d)| (NodeId(i as u32), NodeId(d)))
            .collect();
        let out = HierarchicalRouter::new(&h).route(&reqs, 5).expect("routable");
        prop_assert_eq!(out.delivered, 32);
        prop_assert_eq!(out.undelivered, 0);
    }
}
