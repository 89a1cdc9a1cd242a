//! Level-0 overlay construction (§3.1.1): embedding an Erdős–Rényi-like
//! random graph `G₀` on the virtual nodes via parallel lazy walks of length
//! `τ_mix`.

use crate::{HierarchyConfig, LevelStats, Overlay, VirtualId, VirtualMap};
use amt_graphs::{Graph, GraphBuilder};
use amt_walks::{parallel, KeySlab, WalkKind, WalkSpec};
use rand::{Rng, RngExt};

/// Builds `G₀` and reports measured construction cost in base rounds.
///
/// Each virtual node starts `cfg.level0_walks` lazy walks of `cfg.tau_mix`
/// steps from its owner. Walk endpoints land (approximately) at the
/// stationary distribution, i.e. uniformly over virtual nodes; each virtual
/// node keeps up to `cfg.overlay_degree` walks with **distinct** endpoints
/// as its out-edges, each edge remembering the walk's base-graph path. The
/// cost counts the forward run, the reverse run (to inform sources of their
/// endpoints) and the forward replay of kept walks (to inform endpoints of
/// their in-edges), exactly as in the paper.
pub fn build<R: Rng>(
    g: &Graph,
    vmap: &VirtualMap,
    cfg: &HierarchyConfig,
    rng: &mut R,
) -> (Overlay, LevelStats) {
    let vnodes = vmap.count();
    let walks = cfg.level0_walks;
    let mut specs = Vec::with_capacity(vnodes * walks);
    for vid in 0..vnodes {
        let owner = vmap.owner(VirtualId(vid as u32));
        for _ in 0..walks {
            specs.push(WalkSpec {
                start: owner,
                steps: cfg.tau_mix,
            });
        }
    }
    let run = parallel::run_parallel_walks(g, WalkKind::Lazy, &specs, rng);

    let mut builder = GraphBuilder::with_capacity(vnodes, vnodes * cfg.overlay_degree);
    let mut edge_paths = KeySlab::new();
    let mut kept_walks: Vec<usize> = Vec::with_capacity(vnodes * cfg.overlay_degree);
    let mut chosen: Vec<u32> = Vec::with_capacity(cfg.overlay_degree);
    for vid in 0..vnodes {
        chosen.clear();
        for w in 0..walks {
            if chosen.len() >= cfg.overlay_degree {
                break;
            }
            let idx = vid * walks + w;
            let t = run.trajectory(idx);
            let end_node = t.end();
            // The token lands on a uniformly random virtual slot of the node
            // it stopped at.
            let slot = rng.random_range(0..vmap.slot_count(end_node));
            let target = vmap.vid(end_node, slot).0;
            if target == vid as u32 || chosen.contains(&target) {
                continue;
            }
            chosen.push(target);
            builder.add_edge(vid, target as usize);
            // The arena's directed edge keys are bit-compatible with
            // `dir_key`, so the embedded path is a direct copy of the log.
            edge_paths.push(t.dir_keys());
            kept_walks.push(idx);
        }
    }

    // Cost: forward + reverse of all walks, then forward replay of the kept
    // walks to inform the in-edge endpoints.
    let base_rounds = run.stats.rounds + run.reverse_rounds() + run.replay_rounds(&kept_walks);
    // Freed before `Overlay::new` copies the paths, so the kept copy can
    // take the walk log's place instead of landing above it (DESIGN.md
    // §2d, memory shape).
    drop(run);

    let overlay = Overlay::new(0, builder.build(), edge_paths, 0);
    let stats = LevelStats::measure(&overlay, base_rounds, base_rounds);
    (overlay, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, deg: usize, seed: u64) -> (Graph, VirtualMap, HierarchyConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, deg, &mut rng).unwrap();
        let vmap = VirtualMap::new(&g);
        let mut cfg = HierarchyConfig::auto(&g, 30, seed);
        cfg.level0_walks = 8;
        cfg.overlay_degree = 4;
        (g, vmap, cfg)
    }

    #[test]
    fn g0_has_out_degree_for_every_virtual_node() {
        let (g, vmap, cfg) = setup(64, 4, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let (ov, stats) = build(&g, &vmap, &cfg, &mut rng);
        assert_eq!(ov.graph().len(), vmap.count());
        // Every virtual node kept at least one out-edge (so min degree ≥ 1).
        assert!(stats.min_degree >= 1, "min degree {}", stats.min_degree);
        // Degrees concentrate around 2·overlay_degree.
        assert!(
            stats.max_degree <= 8 * cfg.overlay_degree,
            "max {}",
            stats.max_degree
        );
        assert!(stats.edges >= vmap.count() * 2);
    }

    #[test]
    fn g0_paths_connect_owners() {
        let (g, vmap, cfg) = setup(32, 4, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let (ov, _) = build(&g, &vmap, &cfg, &mut rng);
        for (e, a, b) in ov.graph().edges() {
            let path = ov.key_path(e, true);
            let (src, dst) = (vmap.owner(VirtualId(a.0)), vmap.owner(VirtualId(b.0)));
            // Follow the base-graph path from src; it must end at dst.
            let mut here = src;
            for key in &path {
                let edge = crate::key_edge(*key);
                let (x, y) = g.endpoints(edge);
                let (from, to) = if crate::key_is_forward(*key) {
                    (x, y)
                } else {
                    (y, x)
                };
                assert_eq!(from, here, "path discontinuity on {e:?}");
                here = to;
            }
            assert_eq!(
                here, dst,
                "path of {e:?} ends at {here:?}, expected {dst:?}"
            );
        }
    }

    #[test]
    fn g0_endpoints_are_spread_out() {
        // Endpoint distribution ≈ uniform over virtual nodes: no virtual
        // node should receive a huge share of in-edges.
        let (g, vmap, cfg) = setup(64, 6, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let (ov, _) = build(&g, &vmap, &cfg, &mut rng);
        let max_deg = ov.graph().max_degree();
        let avg = ov.graph().volume() as f64 / ov.graph().len() as f64;
        assert!(
            (max_deg as f64) < 6.0 * avg,
            "overlay max degree {max_deg} vs average {avg}"
        );
    }

    #[test]
    fn construction_cost_scales_with_walks() {
        let (g, vmap, mut cfg) = setup(32, 4, 4);
        let mut rng1 = StdRng::seed_from_u64(1);
        cfg.level0_walks = 4;
        let (_, s_few) = build(&g, &vmap, &cfg, &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(1);
        cfg.level0_walks = 16;
        let (_, s_many) = build(&g, &vmap, &cfg, &mut rng2);
        assert!(
            s_many.build_base_rounds > s_few.build_base_rounds,
            "{} !> {}",
            s_many.build_base_rounds,
            s_few.build_base_rounds
        );
    }
}
