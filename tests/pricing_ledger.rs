//! Randomized differential test of the price ledger (DESIGN.md §2d):
//! routing plans' entries streamed to 1, 2 or 3 pricing workers in bursts
//! get the prices of the whole ledger priced on one, the MST that prices
//! its run this way is Kruskal's and repeats exactly, and `route` is `plan`
//! followed by `price` under both emulation modes. A producer that fails
//! or panics stops the workers instead of leaving them waiting.
//! `tests/scheduler_oracle.rs` pins the prices themselves to the original
//! recursion.

use amt_core::embedding::{LedgerEntry, PricingCounts};
use amt_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::sync::mpsc;
use std::time::Duration;

/// Rounds and batch counts of each price: everything but the host time.
fn keys(prices: &[amt_core::embedding::Price]) -> Vec<(u64, PricingCounts)> {
    prices.iter().map(|p| (p.rounds, p.counts)).collect()
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
        prop_assert_eq!(&again, &out, "{}", ctx);

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

        // Three more random permutations' plans: four plans' entries,
        // streamed in bursts of one to three entries with a yield or a short
        // sleep between bursts, so the workers catch up with the producer
        // and wait for it at varying points.
        let mut ledgers = vec![plan.into_ledger()];
        for _ in 0..3 {
            targets.shuffle(&mut rng);
            let reqs: Vec<(NodeId, NodeId)> =
                targets.iter().enumerate().map(|(s, &t)| (NodeId(s as u32), NodeId(t))).collect();
            let plan = HierarchicalRouter::new(&h)
                .plan(&reqs, rng.random())
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            ledgers.push(plan.into_ledger());
        }
        let whole = ledgers.concat();
        for mode in [EmulationMode::Factored, EmulationMode::Exact] {
            let one = keys(&h.price_ledger(&whole, mode, 1));
            for workers in [1, 2, 3] {
                let ((), streamed) = h
                    .price_stream(mode, workers, |feed| {
                        for (burst, entries) in ledgers.iter().flat_map(|l| l.chunks(1 + l.len() % 3)).enumerate() {
                            feed.extend(entries.iter().cloned());
                            if burst % 2 == 0 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        }
                        Ok::<_, std::convert::Infallible>(())
                    })
                    .unwrap();
                prop_assert_eq!(keys(&streamed), one.clone(), "{}, {:?}, {} workers", ctx, mode, workers);
            }
        }
    }
}

/// A small hierarchy and one random permutation's plan ledger.
fn with_a_ledger<T>(f: impl FnOnce(&Hierarchy<'_>, Vec<LedgerEntry>) -> T) -> T {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::random_regular(32, 4, &mut rng).expect("4n is even");
    let mut cfg = HierarchyConfig::auto(&g, 25, 11);
    cfg.beta = 4;
    cfg.levels = 1;
    let h = Hierarchy::build(&g, cfg).expect("expander");
    let mut targets: Vec<u32> = (0..32).collect();
    targets.shuffle(&mut rng);
    let reqs: Vec<(NodeId, NodeId)> = targets
        .iter()
        .enumerate()
        .map(|(s, &t)| (NodeId(s as u32), NodeId(t)))
        .collect();
    let ledger = HierarchicalRouter::new(&h)
        .plan(&reqs, 5)
        .expect("routable")
        .into_ledger();
    assert!(!ledger.is_empty());
    f(&h, ledger)
}

/// Runs `f` on a thread of its own and waits for it with a timeout, so a
/// pricing helper left waiting fails the test instead of stalling the
/// suite.
fn returns_promptly<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("pricing did not return: a helper is still waiting for entries")
}

#[test]
fn a_failing_producer_stops_the_pricing_helpers() {
    let out = returns_promptly(|| {
        with_a_ledger(|h, ledger| {
            h.price_stream(EmulationMode::Exact, 3, |feed| {
                feed.extend(ledger);
                Err::<(), _>("planning failed")
            })
            .map(|_| ())
        })
    });
    assert_eq!(out, Err("planning failed"));
}

#[test]
fn a_panicking_producer_stops_the_pricing_helpers_and_the_panic_propagates() {
    let caught = returns_promptly(|| {
        with_a_ledger(|h, ledger| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.price_stream(EmulationMode::Exact, 3, |feed| -> Result<(), ()> {
                    feed.extend(ledger);
                    panic!("planning panicked")
                })
            }))
            .map(|_| ())
            .map_err(|payload| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        })
    });
    assert_eq!(caught, Err(Some("planning panicked".to_string())));
}
