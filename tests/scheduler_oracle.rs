//! Differential oracle for the flat path scheduler and emulation pricing
//! (whose batches the batch race schedules): both must reproduce the
//! original `HashMap` scheduler
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

/// Path sets of at most one key per path, which the scheduler schedules in
/// closed form: a few keys, each near 0 or near `u64::MAX`, repeated many
/// times, with empty paths interleaved.
fn single_key_set() -> impl Strategy<Value = Vec<Vec<u64>>> {
    let key = (any::<bool>(), 0u64..4).prop_map(|(huge, k)| if huge { u64::MAX - k } else { k });
    collection::vec(collection::vec(key, 0..2), 0..60)
}

/// `route` (stats and schedule) and `measure` (stats, no schedule) of
/// `paths` on `sched` equal the reference scheduler's.
fn matches_reference(sched: &mut PathScheduler, paths: &[Vec<u64>], cap: u32, ctx: &str) {
    let (want, want_sched) = reference::route_paths_schedule(paths, cap);
    assert_eq!(sched.route(paths, cap), want, "{ctx}");
    assert_eq!(rounds_of(sched.schedule()), want_sched, "{ctx}");
    assert_eq!(sched.measure(paths, cap), want, "{ctx}");
    assert!(sched.schedule().is_empty(), "{ctx}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The closed form of one-key path sets, on a fresh scheduler and on
    // one whose arenas hold another set's state; and the same set with one
    // 2-key path inserted, which must take the queues.
    #[test]
    fn single_key_sets_match_the_reference(
        paths in single_key_set(),
        other in path_set(),
        cap in 1u32..5,
        (at, a, b) in (any::<usize>(), 0u64..4, 0u64..4),
    ) {
        let ctx = format!("cap {cap}, paths {paths:?}, other {other:?}");
        matches_reference(&mut PathScheduler::new(), &paths, cap, &ctx);
        let mut reused = PathScheduler::new();
        reused.route(&other, cap);
        matches_reference(&mut reused, &paths, cap, &ctx);
        let mut mixed = paths.clone();
        mixed.insert(at % (paths.len() + 1), vec![a, u64::MAX - b]);
        let ctx = format!("cap {cap}, mixed {mixed:?}");
        matches_reference(&mut reused, &mixed, cap, &ctx);
    }
}

/// A one-key set with more occurrences than the remap's first compaction
/// threshold (1 024), over twenty keys near 0 and near `u64::MAX` with
/// empty paths interleaved; then the same set with one 2-key path at its
/// end, so the buffer that held every occurrence is compacted there and
/// the set takes the queues.
#[test]
fn large_single_key_set_matches_the_reference() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut paths: Vec<Vec<u64>> = (0..3000)
        .map(|_| {
            if rng.random_bool(0.2) {
                return Vec::new();
            }
            let k = rng.random_range(0..10u64);
            let key = if rng.random_bool(0.5) {
                k
            } else {
                u64::MAX - k
            };
            vec![key]
        })
        .collect();
    let occurrences = paths.iter().flatten().count();
    assert!(occurrences > 1024, "{occurrences} occurrences");
    let mut sched = PathScheduler::new();
    for cap in 1u32..5 {
        matches_reference(&mut sched, &paths, cap, &format!("cap {cap}"));
    }
    paths.push(vec![3, u64::MAX]);
    for cap in 1u32..5 {
        matches_reference(&mut sched, &paths, cap, &format!("mixed, cap {cap}"));
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

/// The build prices the full round of level 0 with the path scheduler and
/// of every level above with the batch race; both must give the path
/// scheduler's capacity-1 makespan on the level's full-round path set
/// (every directed key's path), times the level below's full round.
#[test]
fn full_round_costs_match_the_path_scheduler() {
    for (n, levels) in [(32usize, 2u32), (128, 3)] {
        for seed in [1u64, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_regular(n, 4, &mut rng).unwrap();
            let mut cfg = HierarchyConfig::auto(&g, 20, seed);
            cfg.beta = 2;
            cfg.levels = levels;
            let h = Hierarchy::build(&g, cfg).unwrap();
            for level in 0..=h.depth() {
                let ov = h.overlay(level);
                let every: Vec<Vec<u64>> = (0..2 * ov.graph().edge_count() as u64)
                    .map(|key| ov.dir_path(key).collect())
                    .collect();
                let rounds = PathScheduler::new().measure(&every, 1).rounds.max(1);
                let below = match level {
                    0 => 1,
                    _ => h.full_round_cost(level - 1),
                };
                assert_eq!(
                    h.full_round_cost(level),
                    rounds * below,
                    "n {n}, seed {seed}, level {level}"
                );
            }
        }
    }
}

/// The tokens of one level with the most contention: 24 copies of the
/// longest directed path, then the directed keys whose paths share the
/// longest prefixes with another path of the level.
fn contended_batch(h: &Hierarchy, level: u32) -> Vec<u64> {
    let ov = h.overlay(level);
    let mut paths: Vec<(Vec<u64>, u64)> = (0..2 * ov.graph().edge_count() as u64)
        .map(|k| (ov.dir_path(k).collect(), k))
        .collect();
    let longest = paths.iter().max_by_key(|(p, _)| p.len()).expect("edges").1;
    paths.sort_unstable();
    let mut shared: Vec<(usize, u64)> = paths
        .windows(2)
        .flat_map(|w| {
            let common = w[0]
                .0
                .iter()
                .zip(&w[1].0)
                .take_while(|(a, b)| a == b)
                .count();
            [(common, w[0].1), (common, w[1].1)]
        })
        .collect();
    shared.sort_unstable_by(|a, b| b.cmp(a));
    let mut batch = vec![longest; 24];
    batch.extend(shared.iter().take(16).map(|&(_, k)| k));
    batch
}

/// Single-crossing batches of 2–200 random directed keys (repeats
/// included) and one contention-heavy batch, priced at every level of 1-,
/// 2- and 3-level hierarchies in both modes. One scratch serves every
/// hierarchy, largest first, so each race runs over a claim table grown by
/// an earlier hierarchy and holding its stale stamps.
#[test]
fn batch_race_pricing_matches_the_naive_recursion_on_large_batches() {
    let mut scratch = EmulationScratch::new();
    for (n, levels, beta, seed) in [(48usize, 3u32, 2u32, 13u64), (40, 2, 4, 11), (32, 1, 4, 9)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, 4, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 20, seed);
        cfg.beta = beta;
        cfg.levels = levels;
        let h = Hierarchy::build(&g, cfg).unwrap();
        for level in 0..=levels {
            let keys = 2 * h.overlay(level).graph().edge_count() as u64;
            let mut batches: Vec<Vec<u64>> = (0..3)
                .map(|_| {
                    let len = rng.random_range(2..=200usize);
                    (0..len).map(|_| rng.random_range(0..keys)).collect()
                })
                .collect();
            batches.push(contended_batch(&h, level));
            for batch in &batches {
                for mode in [EmulationMode::Factored, EmulationMode::Exact] {
                    let mut want_counts = (0, 0);
                    let want = naive_batch(&h, level, batch, mode, &mut want_counts);
                    let got = h.emulate_batch(level, batch, mode, &mut scratch);
                    let counts = scratch.take_counts();
                    let ctx = format!("levels {levels}, level {level}, {mode:?}, {batch:?}");
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
