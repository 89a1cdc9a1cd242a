//! Structural invariants of the hierarchy across configurations and graph
//! families.

use amt_embedding::{
    dir_key, EmulationMode, EmulationScratch, Hierarchy, HierarchyConfig, VirtualId,
};
use amt_graphs::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg_for(g: &Graph, beta: u32, levels: u32, seed: u64) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::auto(g, 25, seed);
    cfg.beta = beta;
    cfg.levels = levels;
    cfg.overlay_degree = 5;
    cfg.level0_walks = 10;
    cfg.walk_surplus = 2.0;
    cfg
}

fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            "regular",
            generators::random_regular(48, 6, &mut rng).unwrap(),
        ),
        ("hypercube", generators::hypercube(6)),
        (
            "er",
            generators::connected_erdos_renyi(48, 0.15, 100, &mut rng).unwrap(),
        ),
        (
            "pref-attach",
            generators::preferential_attachment(48, 3, &mut rng).unwrap(),
        ),
    ]
}

#[test]
fn hierarchy_builds_on_every_family() {
    for (name, g) in families(1) {
        let h =
            Hierarchy::build(&g, cfg_for(&g, 4, 2, 5)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(h.vnodes(), g.volume(), "{name}");
        assert!(h.stats.total_base_rounds > 0, "{name}");
        // Every virtual node appears in exactly one part per depth.
        for d in 0..=h.depth() {
            let mut count = 0usize;
            for part in 0..h.parts_at(d) {
                count += h.members(d, part).len();
            }
            assert_eq!(count, h.vnodes(), "{name}: depth {d} partition incomplete");
        }
    }
}

#[test]
fn members_and_part_of_agree() {
    let (_, g) = families(2).remove(0);
    let h = Hierarchy::build(&g, cfg_for(&g, 4, 2, 7)).unwrap();
    for d in 0..=h.depth() {
        for part in 0..h.parts_at(d) {
            for &vid in h.members(d, part) {
                assert_eq!(h.part_of(VirtualId(vid), d), part);
                assert_eq!(
                    h.label_at(VirtualId(vid), d),
                    (part % u64::from(h.cfg().beta)) as u32
                );
            }
        }
    }
}

#[test]
fn owners_cover_degrees() {
    let (_, g) = families(3).remove(1);
    let h = Hierarchy::build(&g, cfg_for(&g, 4, 1, 9)).unwrap();
    let vmap = h.vmap();
    for v in g.nodes() {
        assert_eq!(vmap.slot_count(v), g.degree(v));
    }
    for vid in 0..h.vnodes() as u32 {
        let owner = vmap.owner(VirtualId(vid));
        assert!(vmap.slots(owner).contains(&vid));
    }
}

#[test]
fn full_round_costs_are_monotone_in_level() {
    let (_, g) = families(4).remove(0);
    let h = Hierarchy::build(&g, cfg_for(&g, 4, 2, 11)).unwrap();
    for level in 1..=h.depth() {
        assert!(
            h.full_round_cost(level) >= h.full_round_cost(level - 1),
            "level {level} full round cheaper than level below"
        );
    }
}

#[test]
fn emulation_of_empty_batches_is_free() {
    let (_, g) = families(5).remove(2);
    let h = Hierarchy::build(&g, cfg_for(&g, 4, 1, 13)).unwrap();
    let mut scratch = EmulationScratch::new();
    let no_paths: &[Vec<u64>] = &[];
    for level in 0..=h.depth() {
        for mode in [EmulationMode::Factored, EmulationMode::Exact] {
            assert_eq!(h.emulate_batch(level, &[], mode, &mut scratch), 0);
            assert_eq!(h.emulate_paths(level, no_paths, mode, &mut scratch), 0);
        }
    }
}

#[test]
fn single_edge_exact_emulation_equals_path_expansion() {
    // At level 1, one crossing expands to its stored level-0 path, whose
    // crossings expand to base paths — the exact cost is the sequential
    // sum because a single message has no contention.
    let (_, g) = families(6).remove(0);
    let h = Hierarchy::build(&g, cfg_for(&g, 4, 1, 17)).unwrap();
    let ov1 = h.overlay(1);
    let (e, _, _) = ov1.graph().edges().next().expect("level 1 has edges");
    let mut scratch = EmulationScratch::new();
    let exact = h.emulate_batch(1, &[dir_key(e, true)], EmulationMode::Exact, &mut scratch);
    let mut expected = 0u64;
    for key in ov1.key_path(e, true) {
        expected += h.emulate_batch(0, &[key], EmulationMode::Exact, &mut scratch);
    }
    assert_eq!(exact, expected);
    // ... and it equals the length of the fully expanded base path.
    let base_len: usize = ov1
        .key_path(e, true)
        .iter()
        .map(|&key| h.overlay(0).dir_path(key).len())
        .sum();
    assert_eq!(exact, base_len as u64);
}

#[test]
fn bfs_overlay_paths_connect_what_they_claim() {
    let (_, g) = families(7).remove(3);
    let h = Hierarchy::build(&g, cfg_for(&g, 4, 1, 19)).unwrap();
    let og = h.overlay(0).graph();
    let path = h
        .bfs_overlay_path(0, VirtualId(0), VirtualId(17))
        .expect("G0 connected");
    let mut here = NodeId(0);
    for (e, fwd) in path {
        let (a, b) = og.endpoints(e);
        let (from, to) = if fwd { (a, b) } else { (b, a) };
        assert_eq!(from, here);
        here = to;
    }
    assert_eq!(here, NodeId(17));
}

#[test]
fn beta_above_64_is_rejected() {
    let (_, g) = families(8).remove(0);
    let mut cfg = cfg_for(&g, 4, 1, 21);
    cfg.beta = 128;
    cfg.independence = 4;
    match Hierarchy::build(&g, cfg) {
        Err(e) => assert!(e.to_string().contains("beta"), "{e}"),
        Ok(_) => panic!("beta = 128 must be rejected"),
    }
}

#[test]
fn ring_with_huge_mixing_time_still_embeds() {
    // τ_mix of a ring is Θ(n²); the hierarchy still builds, just slowly —
    // the experiments use this as the slow-mixing control.
    let g = generators::ring(24);
    let mut cfg = cfg_for(&g, 2, 1, 23);
    cfg.tau_mix = 600; // ≈ n² ln n scale for n = 24
    let h = Hierarchy::build(&g, cfg).unwrap();
    assert!(h.overlay(0).graph().is_connected());
    let (avg, _) = h.overlay(0).path_length_stats();
    assert!(avg > 100.0, "ring walk paths must be long, got {avg}");
}
