//! Differential oracle for the flat path scheduler and emulation pricing:
//! both must reproduce the original `HashMap` scheduler
//! (`crates/walks/tests/support/reference_schedule.rs`) byte for byte.

use amt_core::embedding::{
    key_edge, key_is_forward, EmulationMode, EmulationScratch, Hierarchy, HierarchyConfig,
};
use amt_core::graphs::generators;
use amt_core::walks::{route_paths, PathRouteStats, PathScheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[path = "../crates/walks/tests/support/reference_schedule.rs"]
mod reference;

/// Path sets over a small key pool, so paths collide and repeat keys. The
/// pool is small keys, keys within a few steps of `u64::MAX`, or both
/// mixed, so the remap ranks keys that lie far apart in one call.
fn path_set() -> impl Strategy<Value = Vec<Vec<u64>>> {
    (0u8..3).prop_flat_map(|pool| {
        let key = (any::<bool>(), 0u64..6).prop_map(move |(huge, k)| match (pool, huge) {
            (0, _) | (2, false) => k,
            _ => u64::MAX - k,
        });
        collection::vec(collection::vec(key, 0..7), 0..25)
    })
}

fn rounds_of(sched: &amt_core::walks::KeySlab) -> Vec<Vec<u64>> {
    sched.iter().map(<[u64]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_scheduler_matches_the_reference(
        paths in path_set(),
        other in path_set(),
        cap in 1u32..5,
    ) {
        // The failing input, so a failure can be replayed.
        let ctx = format!("cap {cap}, paths {paths:?}, other {other:?}");
        let (want, want_sched) = reference::route_paths_schedule(&paths, cap);
        let mut fresh = PathScheduler::new();
        prop_assert_eq!(&fresh.route(&paths, cap), &want, "{}", ctx);
        prop_assert_eq!(rounds_of(fresh.schedule()), want_sched.clone(), "{}", ctx);
        prop_assert_eq!(route_paths(&paths, cap), want.clone(), "{}", ctx);
        // A reused scheduler whose arenas hold another path set's state.
        let mut reused = PathScheduler::new();
        reused.route(&other, cap);
        prop_assert_eq!(reused.route(&paths, cap), want.clone(), "{}", ctx);
        prop_assert_eq!(rounds_of(reused.schedule()), want_sched, "{}", ctx);
        // The same stats with no schedule recorded.
        prop_assert_eq!(reused.measure(&paths, cap), want, "{}", ctx);
        prop_assert!(reused.schedule().is_empty(), "{}", ctx);
    }
}

/// Thousands of occurrences over a few hundred keys, half near 0 and half
/// near `u64::MAX` (the shape of `s·n + t` clique keys spread over the
/// whole key space), at every capacity.
#[test]
fn large_sparse_path_set_matches_the_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    let paths: Vec<Vec<u64>> = (0..1500)
        .map(|_| {
            (0..rng.random_range(0..5usize))
                .map(|_| {
                    let k = rng.random_range(0..150u64);
                    if rng.random_bool(0.5) {
                        k
                    } else {
                        u64::MAX - k
                    }
                })
                .collect()
        })
        .collect();
    let mut reused = PathScheduler::new();
    for cap in 1u32..5 {
        let (want, want_sched) = reference::route_paths_schedule(&paths, cap);
        assert!(want.traversals > 2048, "cap {cap}");
        let mut fresh = PathScheduler::new();
        assert_eq!(fresh.route(&paths, cap), want, "cap {cap}");
        assert_eq!(rounds_of(fresh.schedule()), want_sched, "cap {cap}");
        assert_eq!(reused.route(&paths, cap), want, "cap {cap}");
        assert_eq!(rounds_of(reused.schedule()), want_sched, "cap {cap}");
        assert_eq!(reused.measure(&paths, cap), want, "cap {cap}");
    }
}

/// The remap collects keys in a buffer it sorts and deduplicates whenever
/// the buffer reaches `2·settled + 1024` entries. Here the distinct keys
/// outgrow every compaction: about 5 000 occurrences over 3 000 keys, half
/// within 1 500 of 0 and half within 1 500 of `u64::MAX`, so the buffer is
/// compacted several times with a growing settled prefix and keys from both
/// ends arriving between compactions.
#[test]
fn remap_compaction_keeps_keys_that_arrive_between_compactions() {
    let mut rng = StdRng::seed_from_u64(29);
    let paths: Vec<Vec<u64>> = (0..1700)
        .map(|_| {
            (0..rng.random_range(1..5usize))
                .map(|_| {
                    let k = rng.random_range(0..1500u64);
                    if rng.random_bool(0.5) {
                        k
                    } else {
                        u64::MAX - k
                    }
                })
                .collect()
        })
        .collect();
    let mut scheduler = PathScheduler::new();
    for cap in [1u32, 3] {
        let (want, want_sched) = reference::route_paths_schedule(&paths, cap);
        assert!(want.traversals > 4096, "cap {cap}");
        assert_eq!(scheduler.route(&paths, cap), want, "cap {cap}");
        assert_eq!(rounds_of(scheduler.schedule()), want_sched, "cap {cap}");
    }
}

/// Batches the pricing must report: `(single crossing, larger)`. A single
/// crossing is priced in closed form, so the batches below it are not
/// counted.
type Counts = (u64, u64);

/// The original pricing recursion, over the reference scheduler and copied
/// paths: a batch of directed level-`level` keys is scheduled one level
/// down; each round costs a full round of the level below (factored) or its
/// own recursive price (exact).
fn naive_batch(
    h: &Hierarchy,
    level: u32,
    batch: &[u64],
    mode: EmulationMode,
    n: &mut Counts,
) -> u64 {
    let mut below_single = (0, 0);
    let n = match batch.len() {
        0 => return 0,
        1 => {
            n.0 += 1;
            &mut below_single
        }
        _ => {
            n.1 += 1;
            n
        }
    };
    let ov = h.overlay(level);
    let paths: Vec<Vec<u64>> = batch
        .iter()
        .map(|&k| ov.key_path(key_edge(k), key_is_forward(k)))
        .collect();
    let (stats, schedule) = reference::route_paths_schedule(&paths, 1);
    match mode {
        _ if level == 0 => stats.rounds,
        EmulationMode::Factored => stats.rounds * h.full_round_cost(level - 1),
        EmulationMode::Exact => schedule
            .iter()
            .map(|round| naive_batch(h, level - 1, round, mode, n))
            .sum(),
    }
}

fn naive_paths(
    h: &Hierarchy,
    level: u32,
    paths: &[Vec<u64>],
    mode: EmulationMode,
    n: &mut Counts,
) -> u64 {
    let (_, schedule) = reference::route_paths_schedule(paths, 1);
    schedule
        .iter()
        .map(|round| naive_batch(h, level, round, mode, n))
        .sum()
}

/// Random multi-hop path sets of directed level-`level` keys (lengths 0–3),
/// plus a single-crossing set like the router's hop and bottom batches.
fn random_path_sets(h: &Hierarchy, level: u32, rng: &mut StdRng) -> Vec<Vec<Vec<u64>>> {
    let keys = 2 * h.overlay(level).graph().edge_count() as u64;
    let mut sets: Vec<Vec<Vec<u64>>> = (0..3)
        .map(|_| {
            (0..rng.random_range(1..10usize))
                .map(|_| {
                    (0..rng.random_range(0..4usize))
                        .map(|_| rng.random_range(0..keys))
                        .collect()
                })
                .collect()
        })
        .collect();
    sets.push((0..8).map(|_| vec![rng.random_range(0..keys)]).collect());
    sets
}

#[test]
fn emulation_pricing_matches_the_naive_recursion() {
    for (levels, beta, seed) in [(1u32, 4u32, 3u64), (2, 4, 5), (3, 2, 7)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(32, 4, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 20, seed);
        cfg.beta = beta;
        cfg.levels = levels;
        let h = Hierarchy::build(&g, cfg).unwrap();
        // The build's full-round costs are reference schedules too.
        for level in 0..=levels {
            let ov = h.overlay(level);
            let every: Vec<Vec<u64>> = ov
                .graph()
                .edges()
                .flat_map(|(e, _, _)| [ov.key_path(e, true), ov.key_path(e, false)])
                .collect();
            let rounds = reference::route_paths_schedule(&every, 1).0.rounds.max(1);
            let below = if level == 0 {
                1
            } else {
                h.full_round_cost(level - 1)
            };
            assert_eq!(
                h.full_round_cost(level),
                rounds * below,
                "levels {levels}, level {level}"
            );
        }
        let mut scratch = EmulationScratch::new();
        for mode in [EmulationMode::Factored, EmulationMode::Exact] {
            for level in 0..=levels {
                for paths in random_path_sets(&h, level, &mut rng) {
                    let mut want_counts = (0, 0);
                    let want = naive_paths(&h, level, &paths, mode, &mut want_counts);
                    let got = h.emulate_paths(level, &paths, mode, &mut scratch);
                    let counts = scratch.take_counts();
                    let ctx = format!("levels {levels}, level {level}, {mode:?}, {paths:?}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(
                        (counts.solo_batches, counts.scheduled_batches),
                        want_counts,
                        "{ctx}"
                    );
                    let batch: Vec<u64> = paths.iter().flatten().copied().collect();
                    let mut want_counts = (0, 0);
                    let want = naive_batch(&h, level, &batch, mode, &mut want_counts);
                    let got = h.emulate_batch(level, &batch, mode, &mut scratch);
                    let counts = scratch.take_counts();
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(
                        (counts.solo_batches, counts.scheduled_batches),
                        want_counts,
                        "{ctx}"
                    );
                }
            }
        }
    }
}
