//! Property-based tests for the walk engine and path scheduler.

use amt_graphs::{generators, GraphBuilder, NodeId};
use amt_walks::parallel::{degree_proportional_specs, run_correlated_walks, run_parallel_walks};
use amt_walks::{route_paths, PathScheduler, WalkKind, WalkSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_connected() -> impl Strategy<Value = amt_graphs::Graph> {
    (4usize..20, any::<u64>()).prop_map(|(n, seed)| {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
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
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schedule_rounds_are_capacity_respecting(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u64..24, 0..8), 0..30),
        cap in 1u32..4,
    ) {
        let mut scheduler = PathScheduler::new();
        let stats = scheduler.route(&paths, cap);
        let schedule = scheduler.schedule();
        prop_assert_eq!(schedule.len() as u64, stats.rounds);
        let mut delivered = 0u64;
        for round in schedule.iter() {
            // No key crossed more than `cap` times per round.
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            for chunk in sorted.chunk_by(|a, b| a == b) {
                prop_assert!(chunk.len() as u32 <= cap);
            }
            delivered += round.len() as u64;
        }
        prop_assert_eq!(delivered, stats.traversals);
    }

    #[test]
    fn higher_capacity_never_slower(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u64..16, 1..6), 1..25),
    ) {
        let r1 = route_paths(&paths, 1).rounds;
        let r2 = route_paths(&paths, 2).rounds;
        let r4 = route_paths(&paths, 4).rounds;
        prop_assert!(r2 <= r1);
        prop_assert!(r4 <= r2);
    }

    #[test]
    fn replay_of_everything_reproduces_the_run(g in arb_connected(), seed in any::<u64>()) {
        let specs = degree_proportional_specs(&g, 1, 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng);
        let all: Vec<usize> = (0..specs.len()).collect();
        prop_assert_eq!(run.replay_rounds(&all), run.stats.rounds);
    }

    #[test]
    fn replay_of_everything_reproduces_correlated_runs(
        g in arb_connected(), seed in any::<u64>(),
    ) {
        let specs = degree_proportional_specs(&g, 1, 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng);
        let all: Vec<usize> = (0..specs.len()).collect();
        prop_assert_eq!(run.replay_rounds(&all), run.stats.rounds);
    }

    #[test]
    fn peaks_are_invariant_under_spec_permutation(
        g in arb_connected(), seed in any::<u64>(), perm_seed in any::<u64>(),
    ) {
        // The Lemma 2.4 witness must be a pure function of the walk *set*:
        // reordering the specs may permute trajectories but never the
        // occupancy statistics.
        use rand::seq::SliceRandom;
        let mut specs = degree_proportional_specs(&g, 1, 6);
        for (i, s) in specs.iter_mut().enumerate() {
            s.steps = 2 + (i % 5) as u32;
        }
        let mut permuted = specs.clone();
        permuted.shuffle(&mut StdRng::seed_from_u64(perm_seed));
        for engine in [run_parallel_walks::<StdRng>, run_correlated_walks::<StdRng>] {
            let a = engine(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(seed));
            let b = engine(&g, WalkKind::Lazy, &permuted, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(&a.stats.node_token_peaks, &b.stats.node_token_peaks);
            prop_assert_eq!(&a.stats.per_step_rounds, &b.stats.per_step_rounds);
            prop_assert_eq!(a.stats.rounds, b.stats.rounds);
            prop_assert_eq!(a.stats.traversals, b.stats.traversals);
        }
    }

    #[test]
    fn peaks_equal_brute_force_synchronous_recount(
        g in arb_connected(), seed in any::<u64>(),
    ) {
        let mut specs = degree_proportional_specs(&g, 1, 7);
        for (i, s) in specs.iter_mut().enumerate() {
            s.steps = 1 + (i % 7) as u32;
        }
        for engine in [run_parallel_walks::<StdRng>, run_correlated_walks::<StdRng>] {
            let run = engine(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(seed));
            let mut occ = vec![0u32; g.len()];
            let mut peaks = vec![0u32; g.len()];
            for b in 0..=run.stats.steps as usize {
                occ.fill(0);
                for w in 0..run.len() {
                    occ[run.arena.position(w, b) as usize] += 1;
                }
                for (p, &o) in peaks.iter_mut().zip(&occ) {
                    *p = (*p).max(o);
                }
            }
            prop_assert_eq!(&run.stats.node_token_peaks, &peaks);
        }
    }

    #[test]
    fn correlated_and_independent_agree_on_structure(
        g in arb_connected(), seed in any::<u64>(), steps in 1u32..10,
    ) {
        let specs: Vec<WalkSpec> =
            g.nodes().map(|v| WalkSpec { start: v, steps }).collect();
        for run in [
            run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(seed)),
            run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(seed)),
        ] {
            prop_assert_eq!(run.len(), specs.len());
            for (t, spec) in run.trajectories().zip(&specs) {
                prop_assert_eq!(t.start(), spec.start);
                prop_assert_eq!(t.nodes.len() as u32, steps + 1);
                // Every hop is a real edge.
                for s in 0..t.steps() {
                    if let Some(e) = t.edge(s) {
                        let (a, b) = g.endpoints(e);
                        let (x, y) = (NodeId(t.nodes[s]), NodeId(t.nodes[s + 1]));
                        prop_assert!((a, b) == (x, y) || (a, b) == (y, x));
                    }
                }
            }
            prop_assert_eq!(run.stats.steps, steps);
            prop_assert!(run.stats.rounds >= u64::from(steps));
        }
    }

    #[test]
    fn correlated_rounds_never_beat_the_kt_floor(
        seed in any::<u64>(), k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(48, 4, &mut rng).unwrap();
        let t_len = 12u32;
        let specs = degree_proportional_specs(&g, k, t_len);
        let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng);
        // Each of the T steps costs ≥ 1 round.
        prop_assert!(run.stats.rounds >= u64::from(t_len));
        // And the round-robin bound: each step ≤ ⌈movers/d⌉ ≤ peak load.
        for &r in &run.stats.per_step_rounds {
            prop_assert!(r as usize <= 3 * k + 2, "step cost {r} with k = {k}");
        }
    }

    #[test]
    fn mass_is_preserved_by_evolution(g in arb_connected()) {
        let n = g.len();
        for kind in [WalkKind::Lazy, WalkKind::DeltaRegular] {
            let mut x = vec![0.0; n];
            x[0] = 0.25;
            x[n - 1] = 0.75;
            let mut y = vec![0.0; n];
            kind.evolve(&g, g.max_degree(), &x, &mut y);
            let total: f64 = y.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(y.iter().all(|&v| v >= -1e-12));
        }
    }
}
