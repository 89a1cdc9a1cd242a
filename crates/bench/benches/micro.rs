//! Criterion micro-benchmarks of the hot substrates: k-wise hashing,
//! parallel-walk scheduling, path routing, exact emulation pricing of
//! one-key and multi-key path sets, level-0 construction, one routing
//! instance, and an end-to-end MST at fixed size.

use amt_bench::{expander, tau_estimate};
use amt_core::embedding::{dir_key, EmulationScratch, VirtualId};
use amt_core::kwise::PartitionHash;
use amt_core::prelude::*;
use amt_core::walks::parallel::{degree_proportional_specs, run_parallel_walks};
use amt_core::walks::route_paths;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_kwise(c: &mut Criterion) {
    let p = PartitionHash::new(8, 3, 16, 42);
    c.bench_function("kwise/leaf_eval_1k_ids", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for id in 0..1000u64 {
                acc ^= p.leaf(black_box(id));
            }
            acc
        })
    });
}

fn bench_walks(c: &mut Criterion) {
    let g = expander(256, 6, 1);
    let specs = degree_proportional_specs(&g, 2, 20);
    c.bench_function("walks/parallel_3k_walks_20_steps", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            run_parallel_walks(&g, WalkKind::Lazy, black_box(&specs), &mut rng)
                .stats
                .rounds
        })
    });
}

fn bench_path_router(c: &mut Criterion) {
    // 2k tokens over a contended key space.
    let paths: Vec<Vec<u64>> = (0..2000u64)
        .map(|i| (0..8).map(|h| (i * 7 + h * 13) % 512).collect())
        .collect();
    c.bench_function("schedule/route_2k_paths_len8", |b| {
        b.iter(|| route_paths(black_box(&paths), 1).rounds)
    });

    // Exact recursive pricing: single crossings of 32 level-1 edges (one
    // hop batch, which the path scheduler schedules in closed form)
    // expanded through level 0 down to base-graph schedules.
    let g = expander(32, 6, 1);
    let mut cfg = HierarchyConfig::auto(&g, tau_estimate(&g), 1);
    cfg.beta = 4;
    cfg.levels = 2;
    let h = Hierarchy::build(&g, cfg).unwrap();
    let hops: Vec<Vec<u64>> = h
        .overlay(1)
        .graph()
        .edges()
        .take(32)
        .map(|(e, _, _)| vec![dir_key(e, true)])
        .collect();
    let mut scratch = EmulationScratch::new();
    c.bench_function("schedule/emulate_paths_exact_n32_2level_one_key", |b| {
        b.iter(|| h.emulate_paths(1, black_box(&hops), EmulationMode::Exact, &mut scratch))
    });

    // Its multi-key twin on the same hierarchy: level-1 shortest paths of
    // 2–3 keys, one from each of 32 sources, which take the scheduler's
    // FIFO queues.
    let vnodes = h.overlay(1).graph().len() as u32;
    let journeys: Vec<Vec<u64>> = (0..vnodes)
        .filter_map(|a| {
            (1..vnodes).find_map(|s| {
                let b = VirtualId((a + s) % vnodes);
                h.bfs_overlay_path(1, VirtualId(a), b)
                    .filter(|path| (2..=3).contains(&path.len()))
            })
        })
        .take(32)
        .map(|path| path.iter().map(|&(e, fwd)| dir_key(e, fwd)).collect())
        .collect();
    assert_eq!(journeys.len(), 32, "too few 2–3 key paths");
    c.bench_function("schedule/emulate_paths_exact_n32_2level_multi_key", |b| {
        b.iter(|| h.emulate_paths(1, black_box(&journeys), EmulationMode::Exact, &mut scratch))
    });
}

fn bench_level0(c: &mut Criterion) {
    let g = expander(64, 4, 1);
    let tau = tau_estimate(&g);
    c.bench_function("embedding/hierarchy_build_n64", |b| {
        b.iter(|| {
            let mut cfg = HierarchyConfig::auto(&g, tau, 1);
            cfg.beta = 4;
            cfg.levels = 1;
            Hierarchy::build(black_box(&g), cfg)
                .unwrap()
                .stats
                .total_base_rounds
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let g = expander(64, 4, 1);
    let mut cfg = HierarchyConfig::auto(&g, tau_estimate(&g), 1);
    cfg.beta = 4;
    cfg.levels = 1;
    let h = Hierarchy::build(&g, cfg).unwrap();
    let reqs: Vec<_> = (0..64u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % 64)))
        .collect();
    c.bench_function("routing/permutation_n64", |b| {
        b.iter(|| {
            HierarchicalRouter::new(&h)
                .route(black_box(&reqs), 2)
                .unwrap()
                .total_base_rounds
        })
    });
}

fn bench_mst(c: &mut Criterion) {
    let g = expander(64, 4, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let wg = WeightedGraph::with_random_weights(g.clone(), 1000, &mut rng);
    let mut cfg = HierarchyConfig::auto(&g, tau_estimate(&g), 1);
    cfg.beta = 4;
    cfg.levels = 1;
    let h = Hierarchy::build(&g, cfg).unwrap();
    let mut group = c.benchmark_group("mst");
    group.sample_size(10);
    group.bench_function("almost_mixing_n64", |b| {
        b.iter(|| {
            AlmostMixingMst::new(&h)
                .run(black_box(&wg), 3)
                .unwrap()
                .rounds
        })
    });
    group.bench_function("kruskal_n64", |b| {
        b.iter(|| reference::kruskal(black_box(&wg)).unwrap().len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kwise,
    bench_walks,
    bench_path_router,
    bench_level0,
    bench_routing,
    bench_mst
);
criterion_main!(benches);
