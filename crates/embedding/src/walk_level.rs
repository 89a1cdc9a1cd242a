//! The walk levels of the hierarchy: level 0 (§3.1.1), embedded by lazy
//! walks of length `τ_mix` on the base graph, and each level `p` of
//! `1 .. levels` (§3.1.2), embedded by 2Δ-regular walks on `G_{p−1}` inside
//! its depth-`p` parts. Both run through [`embed_walk_level`].

use crate::hierarchy::{bfs_edge_path, Parts};
use crate::{EmbedError, HierarchyConfig, LevelStats, Overlay, Result, VirtualId, VirtualMap};
use amt_graphs::{Graph, GraphBuilder, NodeId};
use amt_walks::{parallel, KeySlab, WalkKind, WalkSpec};
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// Where a walk level's walks start and which of their ends become edges.
#[derive(Clone, Copy)]
pub(crate) enum Ends<'a> {
    /// Level 0: `level0_walks` lazy walks of `τ_mix` steps from each virtual
    /// node's owner, each landing on a uniformly random virtual slot of the
    /// node it stopped at, so ends are (approximately) uniform.
    Slots(&'a VirtualMap),
    /// Level `p ≥ 1`: `walks_per_vnode` 2Δ-regular walks from each virtual
    /// node on `G_{p−1}`; an end in the walker's own depth-`p` part is an
    /// edge. A virtual node with no such end is linked by a BFS path to a
    /// random peer of its part instead (a connectivity fallback).
    SamePart(&'a Parts),
}

impl Ends<'_> {
    fn start(self, vid: u32) -> NodeId {
        match self {
            Ends::Slots(vmap) => vmap.owner(VirtualId(vid)),
            Ends::SamePart(_) => NodeId(vid),
        }
    }

    /// The virtual node a walk of `vid` that stopped at `end` links to, if
    /// any.
    fn pick<R: Rng>(self, level: u32, vid: u32, end: NodeId, rng: &mut R) -> Option<u32> {
        match self {
            Ends::Slots(vmap) => {
                let slot = rng.random_range(0..vmap.slot_count(end));
                Some(vmap.vid(end, slot).0)
            }
            Ends::SamePart(parts) => {
                (parts.part_of(end.0, level) == parts.part_of(vid, level)).then_some(end.0)
            }
        }
    }
}

/// Builds walk level `level` on `below`, the graph one level down, whose
/// full round costs `below_full_round` base rounds (1 for the base graph).
///
/// Each virtual node keeps up to `cfg.overlay_degree` walks with **distinct**
/// picked ends as its out-edges, each edge remembering its walk's path of
/// directed keys in `below`. The cost counts, in rounds of `below`, the
/// forward run, the reverse run that tells sources their ends (as long as
/// the forward run), and the forward replay of the kept walks that tells
/// ends of their in-edges, as in the paper.
///
/// # Errors
///
/// [`EmbedError::InsufficientExpansion`] when the fallback cannot link a
/// virtual node to any peer of its part.
pub(crate) fn embed_walk_level<R: Rng>(
    level: u32,
    below: &Graph,
    below_full_round: u64,
    cfg: &HierarchyConfig,
    ends: Ends<'_>,
    rng: &mut R,
) -> Result<(Overlay, LevelStats)> {
    let (vnodes, kind, walks, steps) = match ends {
        Ends::Slots(vmap) => (vmap.count(), WalkKind::Lazy, cfg.level0_walks, cfg.tau_mix),
        Ends::SamePart(parts) => {
            let steps = cfg.level_walk_len(parts.vnodes(), level);
            (
                parts.vnodes(),
                WalkKind::DeltaRegular,
                cfg.walks_per_vnode(),
                steps,
            )
        }
    };
    let mut specs = Vec::with_capacity(vnodes * walks);
    for vid in 0..vnodes as u32 {
        let start = ends.start(vid);
        specs.extend(std::iter::repeat_n(WalkSpec { start, steps }, walks));
    }
    let run = parallel::run_parallel_walks(below, kind, &specs, rng);

    let mut builder = GraphBuilder::with_capacity(vnodes, vnodes * cfg.overlay_degree);
    let mut edge_paths = KeySlab::new();
    let mut kept: Vec<usize> = Vec::with_capacity(vnodes * cfg.overlay_degree);
    let mut fallback_edges = 0usize;
    let mut chosen: Vec<u32> = Vec::with_capacity(cfg.overlay_degree);
    for vid in 0..vnodes as u32 {
        chosen.clear();
        for w in 0..walks {
            if chosen.len() >= cfg.overlay_degree {
                break;
            }
            let idx = vid as usize * walks + w;
            let t = run.trajectory(idx);
            let Some(target) = ends.pick(level, vid, t.end(), rng) else {
                continue;
            };
            if target == vid || chosen.contains(&target) {
                continue;
            }
            chosen.push(target);
            builder.add_edge(vid as usize, target as usize);
            // The log's directed edge keys are bit-compatible with
            // `dir_key`, so the embedded path is a direct copy of it.
            edge_paths.push(t.dir_keys());
            kept.push(idx);
        }
        if let Ends::SamePart(parts) = ends {
            if chosen.is_empty() {
                if let Some((peer, path)) = link_to_peer(below, parts, level, vid, rng)? {
                    builder.add_edge(vid as usize, peer as usize);
                    edge_paths.push(path);
                    fallback_edges += 1;
                }
            }
        }
    }

    let walk_rounds = 2 * run.stats.rounds + run.replay_rounds(&kept);
    // Freed before `Overlay::new` copies the paths, so the kept copy can
    // take the walk log's place instead of landing above it (DESIGN.md
    // §2d, memory shape).
    drop(run);
    let overlay = Overlay::new(level, builder.build(), edge_paths, fallback_edges);
    let stats = LevelStats::measure(&overlay, walk_rounds, walk_rounds * below_full_round);
    Ok((overlay, stats))
}

/// The connectivity fallback of a walk level: a BFS path in `below` from
/// `vid` to the first reachable of up to 8 random peers in its depth-`level`
/// part, or `None` when `vid` is alone there.
fn link_to_peer<R: Rng>(
    below: &Graph,
    parts: &Parts,
    level: u32,
    vid: u32,
    rng: &mut R,
) -> Result<Option<(u32, Vec<u64>)>> {
    let my_part = parts.part_of(vid, level);
    let peers = parts.members(level, my_part);
    let mut order: Vec<u32> = peers.iter().copied().filter(|&w| w != vid).collect();
    order.shuffle(rng);
    let linked = order
        .into_iter()
        .take(8)
        .find_map(|w| bfs_edge_path(below, NodeId(vid), NodeId(w)).map(|path| (w, path)));
    if linked.is_none() && peers.len() > 1 {
        return Err(EmbedError::InsufficientExpansion {
            level,
            what: format!("virtual node {vid} could not join part {my_part}"),
        });
    }
    Ok(linked)
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

    /// Level 0 of `g`.
    fn build(
        g: &Graph,
        vmap: &VirtualMap,
        cfg: &HierarchyConfig,
        rng: &mut StdRng,
    ) -> (Overlay, LevelStats) {
        embed_walk_level(0, g, 1, cfg, Ends::Slots(vmap), rng).unwrap()
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
