//! Randomized differential test of the price ledger (DESIGN.md §2d):
//! pricing routing plans' ledgers on 2 or 3 threads gives the prices of
//! one, the MST that prices its run this way is Kruskal's and repeats
//! exactly, and `route` is `plan` followed by `price` under both emulation
//! modes. `tests/scheduler_oracle.rs` pins the prices themselves to the
//! original recursion.

use amt_core::embedding::PricingCounts;
use amt_core::mst::AmtMstOutcome;
use amt_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Every deterministic field of an MST outcome (`wall` is host time).
fn observables(out: &AmtMstOutcome) -> impl PartialEq + std::fmt::Debug {
    let iterations: Vec<_> = out
        .per_iteration
        .iter()
        .map(|it| {
            (
                it.components_before,
                it.components_after,
                it.merges,
                it.routing_rounds,
                it.upcast_steps,
                it.max_tree_depth,
                it.max_degree_ratio.to_bits(),
                it.routing_instances,
            )
        })
        .collect();
    (
        out.tree_edges.clone(),
        out.total_weight,
        out.rounds,
        out.hierarchy_build_rounds,
        out.iterations,
        out.routing_instances,
        iterations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ledger_prices_do_not_depend_on_the_worker_count(
        n in 16usize..49,
        levels in 1u32..3,
        graph_seed in any::<u64>(),
        weight_seed in any::<u64>(),
        coin_seed in any::<u64>(),
    ) {
        // The failing input, so a failure can be replayed.
        let ctx = format!(
            "n {n}, levels {levels}, graph seed {graph_seed}, \
             weight seed {weight_seed}, coin seed {coin_seed}"
        );
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let g = generators::random_regular(n, 4, &mut rng).expect("4n is even");
        let mut cfg = HierarchyConfig::auto(&g, 25, graph_seed);
        cfg.beta = 4;
        cfg.levels = levels;
        cfg.overlay_degree = 5;
        cfg.level0_walks = 10;
        let h = Hierarchy::build(&g, cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));

        let mut rng = StdRng::seed_from_u64(weight_seed);
        let wg = WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut rng);
        let mst = AlmostMixingMst::new(&h);
        let out = mst.run(&wg, coin_seed).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        prop_assert_eq!(&out.tree_edges, &reference::kruskal(&wg).unwrap(), "{}", ctx);
        let again = mst.run(&wg, coin_seed).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        prop_assert_eq!(observables(&again), observables(&out), "{}", ctx);

        // One random permutation, routed whole and as plan + price.
        let mut targets: Vec<u32> = (0..n as u32).collect();
        targets.shuffle(&mut rng);
        let reqs: Vec<(NodeId, NodeId)> =
            targets.iter().enumerate().map(|(s, &t)| (NodeId(s as u32), NodeId(t))).collect();
        let plan = HierarchicalRouter::new(&h)
            .plan(&reqs, coin_seed)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for mode in [EmulationMode::Factored, EmulationMode::Exact] {
            let router = HierarchicalRouter::with_config(
                &h,
                RouterConfig { emulation: mode, ..RouterConfig::for_n(n) },
            );
            let routed = router.route(&reqs, coin_seed).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let priced = router.plan(&reqs, coin_seed).unwrap().price(mode);
            prop_assert_eq!(&priced, &routed, "{}, {:?}", ctx, mode);
            // The plan does not depend on the mode it was made under.
            prop_assert_eq!(&plan.price(mode), &routed, "{}, {:?}", ctx, mode);
            prop_assert_eq!(
                (priced.solo_batches, priced.scheduled_batches),
                (routed.solo_batches, routed.scheduled_batches),
                "{}, {:?}", ctx, mode
            );
        }

        // Three more random permutations' plans in one ledger, priced on
        // 1, 2 and 3 threads.
        let mut ledger = plan.into_ledger();
        for _ in 0..3 {
            targets.shuffle(&mut rng);
            let reqs: Vec<(NodeId, NodeId)> =
                targets.iter().enumerate().map(|(s, &t)| (NodeId(s as u32), NodeId(t))).collect();
            let plan = HierarchicalRouter::new(&h)
                .plan(&reqs, rng.random())
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            ledger.extend(plan.into_ledger());
        }
        for mode in [EmulationMode::Factored, EmulationMode::Exact] {
            let key = |workers| -> Vec<(u64, PricingCounts)> {
                h.price_ledger(&ledger, mode, workers).iter().map(|p| (p.rounds, p.counts)).collect()
            };
            let one = key(1);
            for workers in [2, 3] {
                prop_assert_eq!(key(workers), one.clone(), "{}, {:?}, {} workers", ctx, mode, workers);
            }
        }
    }
}
