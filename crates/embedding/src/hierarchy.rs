//! The full hierarchical structure: all overlay levels, the partition, the
//! portal tables, and recursively measured emulation costs.

use crate::race::BatchRace;
use crate::walk_level::{embed_walk_level, Ends};
use crate::{
    dir_key, EmbedError, HierarchyConfig, LevelStats, Overlay, PortalEntry, PortalTable, Result,
    VirtualId, VirtualMap,
};
use amt_congest::PhaseTimings;
use amt_graphs::{traversal, EdgeId, Graph, GraphBuilder, NodeId};
use amt_kwise::PartitionHash;
use amt_walks::{parallel, KeyPaths, KeySlab, PathScheduler, WalkKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// How overlay emulation is priced ([`Hierarchy::emulate_paths`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EmulationMode {
    /// Each schedule round at level `p` is charged one full level-`p` round
    /// (the paper's sequential emulation model; cheap to simulate,
    /// conservative).
    #[default]
    Factored,
    /// Each schedule round is expanded recursively into the actual
    /// lower-level traffic and priced by store-and-forward scheduling down
    /// to base edges (tight, slower to simulate).
    Exact,
}

/// How many emulation batches were priced in closed form and how many were
/// scheduled ([`EmulationScratch::take_counts`]). Both are pure functions
/// of the priced traffic, so they are deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PricingCounts {
    /// Batches of a single crossing, priced by one lookup.
    pub solo_batches: u64,
    /// Batches of two or more crossings, scheduled by the batch race
    /// (DESIGN.md §2d; the name predates the race).
    pub scheduled_batches: u64,
}

/// Reusable state of emulation pricing: one batch race per hierarchy level,
/// one [`PathScheduler`] for the multi-hop schedule of
/// [`Hierarchy::emulate_paths`], and the running [`PricingCounts`]. Create
/// one per routing call and pass it to every [`Hierarchy::emulate_paths`] /
/// [`Hierarchy::emulate_batch`] call; the arenas then stop allocating once
/// they have grown to the largest batch.
#[derive(Clone, Debug, Default)]
pub struct EmulationScratch {
    races: Vec<BatchRace>,
    hops: PathScheduler,
    counts: PricingCounts,
}

impl EmulationScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counts accumulated since the last call, resetting them.
    pub fn take_counts(&mut self) -> PricingCounts {
        std::mem::take(&mut self.counts)
    }

    /// The races of levels `0 ..= level`, creating missing ones, the
    /// multi-hop scheduler and the counts.
    fn parts(&mut self, level: u32) -> (&mut [BatchRace], &mut PathScheduler, &mut PricingCounts) {
        let n = level as usize + 1;
        if self.races.len() < n {
            self.races.resize_with(n, BatchRace::default);
        }
        (&mut self.races[..n], &mut self.hops, &mut self.counts)
    }
}

/// The constructed hierarchy of §3.1: overlays `G₀ … G_k` (the last being
/// the bottom complete graphs), the Θ(log n)-wise partition, and portals.
///
/// # Examples
///
/// ```
/// use amt_embedding::{Hierarchy, HierarchyConfig};
/// use amt_graphs::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = generators::random_regular(48, 4, &mut rng).unwrap();
/// let mut cfg = HierarchyConfig::auto(&g, 25, 7);
/// cfg.beta = 4;
/// cfg.levels = 1;
/// let h = Hierarchy::build(&g, cfg).unwrap();
/// assert_eq!(h.vnodes(), 2 * g.edge_count());
/// assert!(h.stats.total_base_rounds > 0);
/// ```
pub struct Hierarchy<'g> {
    base: &'g Graph,
    vmap: VirtualMap,
    partition: PartitionHash,
    cfg: HierarchyConfig,
    parts: Parts,
    overlays: Vec<Overlay>,
    /// Portal table for partition depth `p` at index `p − 1`.
    portals: Vec<PortalTable>,
    /// Measured base rounds of one full round of each overlay level.
    full_round: Vec<u64>,
    /// `solo[p][k]`: exact base-round price of a level-`p` batch holding
    /// only directed key `k` (see [`Hierarchy::solo_prices`]).
    solo: Vec<Vec<u64>>,
    /// Measured construction statistics.
    pub stats: crate::BuildStats,
}

impl<'g> Hierarchy<'g> {
    /// Builds the entire structure for `base` with `cfg`.
    ///
    /// # Errors
    ///
    /// * [`EmbedError::InvalidConfig`] / [`EmbedError::Graph`] for bad input;
    /// * [`EmbedError::InsufficientExpansion`] when an overlay part cannot
    ///   be connected even by fallbacks.
    pub fn build(base: &'g Graph, cfg: HierarchyConfig) -> Result<Self> {
        cfg.validate(base)?;
        base.require_connected()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let vmap = VirtualMap::new(base);
        let levels = cfg.levels;
        let partition = PartitionHash::new(
            cfg.beta,
            levels,
            cfg.independence,
            cfg.seed ^ 0x9E37_79B9_7F4A_7C15,
        );
        let parts = Parts::new(&partition, cfg.beta, levels, vmap.count());

        // Shared-randomness dissemination: diameter + pipelined seed words.
        let diam = traversal::diameter_double_sweep(base, NodeId(0)).unwrap_or(0) as u64;
        let budget_bits =
            8 * usize::BITS.saturating_sub((base.len().max(2) - 1).leading_zeros()) as usize;
        let seed_words = partition.seed_bits().div_ceil(budget_bits.max(1)) as u64;
        let seed_broadcast_rounds = diam + seed_words;

        // --- Levels 0 ..= levels: the walk levels, then the bottom cliques ---
        let mut wall = PhaseTimings::new();
        let mut mark = Instant::now();
        let mut overlays: Vec<Overlay> = Vec::with_capacity(levels as usize + 1);
        let mut full_round = Vec::with_capacity(levels as usize + 1);
        let mut solo = Vec::with_capacity(levels as usize + 1);
        let mut level_stats = Vec::with_capacity(levels as usize + 1);
        for level in 0..=levels {
            let below = level
                .checked_sub(1)
                .map(|b| (&overlays[b as usize], full_round[b as usize]));
            let (overlay, mut st) = match below {
                None => embed_walk_level(level, base, 1, &cfg, Ends::Slots(&vmap), &mut rng)?,
                Some((below, _)) if level == levels => Self::build_bottom(below.graph(), &parts)?,
                Some((below, below_full_round)) => embed_walk_level(
                    level,
                    below.graph(),
                    below_full_round,
                    &cfg,
                    Ends::SamePart(&parts),
                    &mut rng,
                )?,
            };
            let cost = Self::full_round_of(&overlay, below);
            st.full_round_base_cost = cost;
            if level == levels {
                // The bottom level's build is charged one full round of it.
                st.build_base_rounds = cost;
            }
            full_round.push(cost);
            solo.push(Self::solo_prices(&overlay, solo.last()));
            overlays.push(overlay);
            level_stats.push(st);
            let phase = match level {
                0 => "level0",
                l if l < levels => "walk_levels",
                _ => "bottom",
            };
            wall.record(phase, mark.elapsed());
            if level == 0 {
                // The label stands even when there is no walk level.
                wall.record("walk_levels", Duration::ZERO);
            }
            mark = Instant::now();
        }

        // --- Portals for depths 1 ..= levels ---
        let mut portals = Vec::with_capacity(levels as usize);
        let mut portal_base_rounds = Vec::with_capacity(levels as usize);
        let mut portal_fallbacks = 0u64;
        for p in 1..=levels {
            let (table, rounds, fallbacks) =
                Self::build_portal_table(&overlays, &parts, p, &cfg, &full_round, &mut rng);
            portals.push(table);
            portal_base_rounds.push(rounds);
            portal_fallbacks += fallbacks;
        }
        wall.record("portals", mark.elapsed());

        let mut stats = crate::BuildStats {
            levels: level_stats,
            portal_base_rounds,
            portal_fallbacks,
            seed_broadcast_rounds,
            total_base_rounds: 0,
            wall,
        };
        stats.recompute_total();

        Ok(Hierarchy {
            base,
            vmap,
            partition,
            cfg,
            parts,
            overlays,
            portals,
            full_round,
            solo,
            stats,
        })
    }

    /// Measured base-round cost of one full round of `overlay` (every edge
    /// carrying one message in each direction). Above level 0, `below` is
    /// the level below's overlay and full-round cost: the schedule runs in
    /// that level's key space and each of its rounds is charged one full
    /// round of that level (the sequential emulation model of Lemma 3.1).
    ///
    /// Level 0 schedules with [`PathScheduler`] and the levels above with
    /// the batch race, which gives the same makespan at capacity 1 (the
    /// race's module docs). The race rescans its waiting tokens every
    /// round, so it loses on level 0's long makespans (1 150 rounds at
    /// n = 1024: 1.76 s against 0.80) and wins on the short ones above
    /// (18–32 rounds: levels 1–4 took 0.12 s against 0.45 s in all).
    fn full_round_of(overlay: &Overlay, below: Option<(&Overlay, u64)>) -> u64 {
        // Every directed key, in ascending order: edge `e` forward, then
        // backward, for each edge in turn.
        let every: Vec<u64> = (0..2 * overlay.graph().edge_count() as u64).collect();
        match below {
            None => PathScheduler::new()
                .measure(&overlay.crossing_paths(&every), 1)
                .rounds
                .max(1),
            Some((below, below_full_round)) => {
                let key_space = 2 * below.graph().edge_count();
                let rounds =
                    BatchRace::default().measure(overlay.stored_paths(), &every, key_space);
                rounds.max(1) * below_full_round
            }
        }
    }

    /// Exact price of every single-crossing batch of `overlay`, indexed by
    /// directed key. A lone message meets no contention, so its level-`p`
    /// crossing is scheduled one level-`(p−1)` key per round, and each of
    /// those rounds is again a single crossing: the price is the path
    /// length at level 0 and the sum of the level below's prices over the
    /// path above it.
    fn solo_prices(overlay: &Overlay, below: Option<&Vec<u64>>) -> Vec<u64> {
        (0..2 * overlay.graph().edge_count() as u64)
            .map(|key| match below {
                None => overlay.dir_path(key).len() as u64,
                Some(below) => overlay.dir_path(key).map(|k| below[k as usize]).sum(),
            })
            .collect()
    }

    /// Bottom level: the complete graph on each depth-`levels` part, each
    /// clique edge embedded as a BFS path in the level below (the paper
    /// "just takes the complete graph" at `O(log n)` part size).
    fn build_bottom(below: &Graph, parts: &Parts) -> Result<(Overlay, LevelStats)> {
        let levels = parts.levels;
        let mut builder = GraphBuilder::new(parts.vnodes());
        let mut edge_paths = KeySlab::new();
        for part in &parts.members[levels as usize] {
            for (i, &a) in part.iter().enumerate() {
                for &b in part.iter().skip(i + 1) {
                    let path = bfs_edge_path(below, NodeId(a), NodeId(b)).ok_or_else(|| {
                        EmbedError::InsufficientExpansion {
                            level: levels,
                            what: format!("bottom pair ({a}, {b}) unreachable in level below"),
                        }
                    })?;
                    builder.add_edge(a as usize, b as usize);
                    edge_paths.push(path);
                }
            }
        }
        let overlay = Overlay::new(levels, builder.build(), edge_paths, 0);
        // The caller sets `build_base_rounds` to the full-round cost.
        let st = LevelStats::measure(&overlay, 0, 0);
        Ok((overlay, st))
    }

    fn build_portal_table(
        overlays: &[Overlay],
        parts: &Parts,
        p: u32,
        cfg: &HierarchyConfig,
        full_round: &[u64],
        rng: &mut StdRng,
    ) -> (PortalTable, u64, u64) {
        let beta = cfg.beta;
        let vnodes = parts.vnodes();
        let gp = overlays[p as usize].graph();
        let prev = &overlays[(p - 1) as usize];
        // Boundary mask: bit j set iff the node has a prev-level neighbor in
        // the sibling part with level-p label j (same parent is automatic:
        // prev-level edges stay within depth-(p−1) parts, and depth 0 is the
        // whole vertex set).
        let mut mask = vec![0u64; vnodes];
        for vid in 0..vnodes as u32 {
            for (w, _) in prev.graph().neighbors(NodeId(vid)) {
                if p >= 2 && parts.part_of(w.0, p - 1) != parts.part_of(vid, p - 1) {
                    continue;
                }
                mask[vid as usize] |= 1u64 << parts.label_at(w.0, p);
            }
        }

        // One batched discovery run: portal_walks · β walks per node on G_p.
        let walk_len = cfg.level_walk_len(vnodes, p).max(2);
        let wpv = cfg.portal_walks * beta as usize;
        let starts: Vec<NodeId> = (0..vnodes as u32)
            .flat_map(|vid| std::iter::repeat_n(NodeId(vid), wpv))
            .collect();
        let walked = parallel::run_walk_ends(gp, WalkKind::DeltaRegular, &starts, walk_len, rng);
        let gp_rounds = 2 * walked.rounds;

        let mut table = PortalTable::new(p, beta, vnodes);
        let mut fallbacks = 0u64;
        // Lazily built uniform-boundary lists per (part, label).
        let mut boundary_cache: HashMap<(u64, u32), Vec<u32>> = HashMap::new();
        for vid in 0..vnodes as u32 {
            let my_part = parts.part_of(vid, p);
            let my_label = parts.label_at(vid, p);
            let parent = my_part / u64::from(beta);
            for j in 0..beta {
                if j == my_label {
                    continue;
                }
                let target_part = parent * u64::from(beta) + u64::from(j);
                if parts.members(p, target_part).is_empty() {
                    continue; // no destinations there, portal unneeded
                }
                // First successful walk endpoint with a boundary edge to j.
                let mut portal: Option<u32> = None;
                for w in 0..wpv {
                    let end = walked.ends[vid as usize * wpv + w].0;
                    if mask[end as usize] & (1u64 << j) != 0 && parts.part_of(end, p) == my_part {
                        portal = Some(end);
                        break;
                    }
                }
                let portal = portal.or_else(|| {
                    // Uniform fallback over the boundary set.
                    let list = boundary_cache.entry((my_part, j)).or_insert_with(|| {
                        parts
                            .members(p, my_part)
                            .iter()
                            .copied()
                            .filter(|&u| mask[u as usize] & (1u64 << j) != 0)
                            .collect()
                    });
                    if list.is_empty() {
                        None
                    } else {
                        fallbacks += 1;
                        Some(list[rng.random_range(0..list.len())])
                    }
                });
                let Some(t_prime) = portal else { continue };
                // Pick a random qualifying boundary edge of the portal.
                let candidates: Vec<(EdgeId, NodeId)> = prev
                    .graph()
                    .neighbors(NodeId(t_prime))
                    .filter(|(w, _)| {
                        parts.label_at(w.0, p) == j
                            && (p < 2 || parts.part_of(w.0, p - 1) == parts.part_of(t_prime, p - 1))
                    })
                    .map(|(w, e)| (e, w))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let (edge, target) = candidates[rng.random_range(0..candidates.len())];
                let (a, _) = prev.graph().endpoints(edge);
                table.set(
                    VirtualId(vid),
                    j,
                    PortalEntry {
                        portal: VirtualId(t_prime),
                        edge,
                        forward: a.0 == t_prime,
                        target: VirtualId(target.0),
                    },
                );
            }
        }
        let base_rounds = gp_rounds * full_round[p as usize];
        (table, base_rounds, fallbacks)
    }

    // -----------------------------------------------------------------
    // Accessors
    // -----------------------------------------------------------------

    /// The base graph this hierarchy is embedded on.
    pub fn base(&self) -> &Graph {
        self.base
    }

    /// The virtual-node map.
    pub fn vmap(&self) -> &VirtualMap {
        &self.vmap
    }

    /// The shared partition hash.
    pub fn partition(&self) -> &PartitionHash {
        &self.partition
    }

    /// The configuration the hierarchy was built with.
    pub fn cfg(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Number of virtual nodes (`2m`).
    pub fn vnodes(&self) -> usize {
        self.vmap.count()
    }

    /// Partition depth (`k`); overlays exist for levels `0 ..= depth`.
    pub fn depth(&self) -> u32 {
        self.cfg.levels
    }

    /// The overlay at `level` (0 = `G₀`, `depth()` = bottom cliques).
    pub fn overlay(&self, level: u32) -> &Overlay {
        &self.overlays[level as usize]
    }

    /// Measured base rounds of one full round of `level`.
    pub fn full_round_cost(&self, level: u32) -> u64 {
        self.full_round[level as usize]
    }

    /// The depth-`d` part containing `vid`.
    pub fn part_of(&self, vid: VirtualId, d: u32) -> u64 {
        self.parts.part_of(vid.0, d)
    }

    /// The level-`d` label (`0..β`) of `vid` (the last digit of its
    /// depth-`d` part index).
    pub fn label_at(&self, vid: VirtualId, d: u32) -> u32 {
        self.parts.label_at(vid.0, d)
    }

    /// Virtual nodes of the given depth-`d` part.
    pub fn members(&self, d: u32, part: u64) -> &[u32] {
        self.parts.members(d, part)
    }

    /// Number of parts at depth `d` (`β^d`, including empty ones).
    pub fn parts_at(&self, d: u32) -> u64 {
        self.parts.pow_beta[d as usize]
    }

    /// The portal of `vid` towards the depth-`p` sibling with label `j`.
    pub fn portal(&self, p: u32, vid: VirtualId, j: u32) -> Option<&PortalEntry> {
        self.portals[(p - 1) as usize].get(vid, j)
    }

    /// Measured base-round cost of delivering `batch`, a batch of
    /// directed level-`level` keys (single edge crossings), priced under
    /// `mode` (see [`Hierarchy::emulate_paths`]).
    pub fn emulate_batch(
        &self,
        level: u32,
        batch: &[u64],
        mode: EmulationMode,
        scratch: &mut EmulationScratch,
    ) -> u64 {
        let (races, _, counts) = scratch.parts(level);
        self.price(level, batch, mode, races, counts)
    }

    /// Measured base-round cost of delivering messages along *multi-hop*
    /// paths of directed level-`level` keys: the level-`level`
    /// store-and-forward schedule is computed first, then each of its rounds
    /// (a batch of single crossings) is priced under `mode`:
    ///
    /// * [`EmulationMode::Factored`] — the batch is scheduled one level down
    ///   and each round of that schedule is charged one full round of the
    ///   level below;
    /// * [`EmulationMode::Exact`] — each round of that schedule is itself a
    ///   batch, priced recursively down to base-graph scheduling.
    ///
    /// A batch of one crossing is priced in closed form, with no
    /// scheduling: its path length times the full-round cost below
    /// (factored) or the build-time `solo` table (exact). Larger batches are
    /// scheduled by the batch race (DESIGN.md §2d). `scratch` carries the
    /// arenas between calls and counts both kinds of batch.
    pub fn emulate_paths<P: KeyPaths + ?Sized>(
        &self,
        level: u32,
        paths: &P,
        mode: EmulationMode,
        scratch: &mut EmulationScratch,
    ) -> u64 {
        let (races, hops, counts) = scratch.parts(level);
        hops.route(paths, 1);
        hops.schedule()
            .iter()
            .map(|batch| self.price(level, batch, mode, races, counts))
            .sum()
    }

    /// The one pricing recursion behind [`Hierarchy::emulate_batch`] and
    /// [`Hierarchy::emulate_paths`]. `races[p]` is level `p`'s batch race.
    fn price(
        &self,
        level: u32,
        batch: &[u64],
        mode: EmulationMode,
        races: &mut [BatchRace],
        counts: &mut PricingCounts,
    ) -> u64 {
        let l = level as usize;
        let ov = &self.overlays[l];
        // Charge for `rounds` rounds of level-`level` traffic, each a full
        // round of the level below (at level 0, a base round).
        let factored = |rounds: u64| match l {
            0 => rounds,
            _ => rounds * self.full_round[l - 1],
        };
        match (batch, mode) {
            ([], _) => 0,
            (&[key], EmulationMode::Exact) => {
                counts.solo_batches += 1;
                self.solo[l][key as usize]
            }
            (&[key], EmulationMode::Factored) => {
                counts.solo_batches += 1;
                factored(ov.dir_path(key).len() as u64)
            }
            _ => {
                counts.scheduled_batches += 1;
                let (below, this) = races.split_at_mut(l);
                let race = &mut this[0];
                // The paths cross directed keys of the level below.
                let key_space = 2 * match l {
                    0 => self.base.edge_count(),
                    _ => self.overlays[l - 1].graph().edge_count(),
                };
                match mode {
                    EmulationMode::Exact if level > 0 => {
                        race.route(ov.stored_paths(), batch, key_space);
                        race.schedule()
                            .iter()
                            .map(|sub| self.price(level - 1, sub, mode, below, counts))
                            .sum()
                    }
                    _ => factored(race.measure(ov.stored_paths(), batch, key_space)),
                }
            }
        }
    }

    /// BFS path between two virtual nodes in the `level` overlay, as
    /// directed level-`level` keys (used by the router's portal-miss
    /// fallback).
    pub fn bfs_overlay_path(&self, level: u32, from: VirtualId, to: VirtualId) -> Option<Vec<u64>> {
        let g = self.overlays[level as usize].graph();
        bfs_edge_path(g, NodeId(from.0), NodeId(to.0))
    }
}

/// The partition arithmetic of a hierarchy: the β-ary partition tree of
/// depth `levels` over the virtual nodes, with each node's leaf and every
/// part's members.
pub(crate) struct Parts {
    beta: u32,
    levels: u32,
    /// The leaf (depth-`levels` part) of each virtual node.
    leaf_of: Vec<u64>,
    /// `β^d` for `d = 0..=levels`.
    pow_beta: Vec<u64>,
    /// `members[d]` maps depth-`d` part index to its virtual nodes.
    members: Vec<Vec<Vec<u32>>>,
}

impl Parts {
    fn new(partition: &PartitionHash, beta: u32, levels: u32, vnodes: usize) -> Self {
        let mut parts = Parts {
            beta,
            levels,
            leaf_of: (0..vnodes).map(|v| partition.leaf(v as u64)).collect(),
            pow_beta: (0..=levels).map(|d| u64::from(beta).pow(d)).collect(),
            members: Vec::with_capacity(levels as usize + 1),
        };
        for d in 0..=levels {
            let mut m = vec![Vec::new(); parts.pow_beta[d as usize] as usize];
            for vid in 0..vnodes as u32 {
                m[parts.part_of(vid, d) as usize].push(vid);
            }
            parts.members.push(m);
        }
        parts
    }

    /// Number of virtual nodes.
    pub(crate) fn vnodes(&self) -> usize {
        self.leaf_of.len()
    }

    /// The depth-`d` part containing `vid`.
    pub(crate) fn part_of(&self, vid: u32, d: u32) -> u64 {
        self.leaf_of[vid as usize] / self.pow_beta[(self.levels - d) as usize]
    }

    /// The level-`d` label (`0..β`) of `vid`.
    pub(crate) fn label_at(&self, vid: u32, d: u32) -> u32 {
        (self.part_of(vid, d) % u64::from(self.beta)) as u32
    }

    /// Virtual nodes of the given depth-`d` part.
    pub(crate) fn members(&self, d: u32, part: u64) -> &[u32] {
        &self.members[d as usize][part as usize]
    }
}

/// BFS path from `from` to `to` as directed keys, or `None` if unreachable.
pub(crate) fn bfs_edge_path(g: &Graph, from: NodeId, to: NodeId) -> Option<Vec<u64>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut parent: Vec<Option<(u32, u32)>> = vec![None; g.len()];
    let mut seen = vec![false; g.len()];
    seen[from.index()] = true;
    let mut queue = VecDeque::new();
    queue.push_back(from);
    'outer: while let Some(v) = queue.pop_front() {
        for (w, e) in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                parent[w.index()] = Some((v.0, e.0));
                if w == to {
                    break 'outer;
                }
                queue.push_back(w);
            }
        }
    }
    if !seen[to.index()] {
        return None;
    }
    let mut keys = Vec::new();
    let mut cur = to;
    while cur != from {
        let (pv, pe) = parent[cur.index()].expect("path reconstruction");
        let e = EdgeId(pe);
        let (a, _) = g.endpoints(e);
        keys.push(dir_key(e, a.0 == pv));
        cur = NodeId(pv);
    }
    keys.reverse();
    Some(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{key_edge, key_is_forward};
    use amt_graphs::generators;

    fn small_hierarchy(seed: u64) -> (Graph, HierarchyConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(64, 6, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 30, seed);
        cfg.beta = 4;
        cfg.levels = 2;
        cfg.overlay_degree = 5;
        cfg.level0_walks = 10;
        cfg.walk_surplus = 2.0;
        (g, cfg)
    }

    #[test]
    fn builds_all_levels_with_connected_parts() {
        let (g, cfg) = small_hierarchy(11);
        let h = Hierarchy::build(&g, cfg).unwrap();
        assert_eq!(h.vnodes(), 2 * g.edge_count());
        assert_eq!(h.depth(), 2);
        // Overlays 0, 1, 2 (bottom) exist.
        for level in 0..=2u32 {
            assert!(
                h.overlay(level).graph().edge_count() > 0,
                "level {level} empty"
            );
        }
        assert!(h.stats.total_base_rounds > 0);
        assert!(h.full_round_cost(1) >= h.full_round_cost(0));
    }

    #[test]
    fn level_edges_stay_within_parts() {
        let (g, cfg) = small_hierarchy(13);
        let h = Hierarchy::build(&g, cfg).unwrap();
        for p in 1..=2u32 {
            for (_, a, b) in h.overlay(p).graph().edges() {
                assert_eq!(
                    h.part_of(VirtualId(a.0), p),
                    h.part_of(VirtualId(b.0), p),
                    "level-{p} edge crosses parts"
                );
            }
        }
    }

    #[test]
    fn level_paths_are_valid_in_level_below() {
        let (g, cfg) = small_hierarchy(17);
        let h = Hierarchy::build(&g, cfg).unwrap();
        for p in 1..=2u32 {
            let ov = h.overlay(p);
            let below = h.overlay(p - 1).graph();
            for (e, a, b) in ov.graph().edges() {
                let mut here = a;
                for key in ov.key_path(e, true) {
                    let be = key_edge(key);
                    let (x, y) = below.endpoints(be);
                    let (from, to) = if key_is_forward(key) { (x, y) } else { (y, x) };
                    assert_eq!(from, here, "discontinuous path at level {p}");
                    here = to;
                }
                assert_eq!(here, b, "level-{p} path ends wrong");
            }
        }
    }

    #[test]
    fn bottom_parts_are_cliques() {
        let (g, cfg) = small_hierarchy(19);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let bottom = h.overlay(h.depth()).graph();
        for part in 0..h.parts_at(h.depth()) {
            let mem = h.members(h.depth(), part);
            for (i, &a) in mem.iter().enumerate() {
                for &b in mem.iter().skip(i + 1) {
                    assert!(
                        h.overlay(h.depth())
                            .edge_between(VirtualId(a), VirtualId(b))
                            .is_some(),
                        "missing clique edge ({a},{b}) in part {part}"
                    );
                }
            }
            let _ = bottom;
        }
    }

    #[test]
    fn portals_cross_into_the_right_parts() {
        let (g, cfg) = small_hierarchy(23);
        let beta = cfg.beta;
        let h = Hierarchy::build(&g, cfg).unwrap();
        let mut present = 0usize;
        for p in 1..=2u32 {
            for vid in 0..h.vnodes() as u32 {
                let my = h.part_of(VirtualId(vid), p);
                let parent = my / u64::from(beta);
                for j in 0..beta {
                    let Some(e) = h.portal(p, VirtualId(vid), j) else {
                        continue;
                    };
                    present += 1;
                    // Portal sits in the source part.
                    assert_eq!(h.part_of(e.portal, p), my);
                    // Target lands in the sibling with label j, same parent.
                    assert_eq!(
                        h.part_of(e.target, p),
                        parent * u64::from(beta) + u64::from(j)
                    );
                    // The stored edge actually connects portal and target in
                    // the level below.
                    let below = h.overlay(p - 1).graph();
                    let (x, y) = below.endpoints(e.edge);
                    let (from, to) = if e.forward { (x, y) } else { (y, x) };
                    assert_eq!(from.0, e.portal.0);
                    assert_eq!(to.0, e.target.0);
                }
            }
        }
        assert!(present > 0, "no portals were built");
    }

    #[test]
    fn emulate_batch_exact_is_bounded_by_factored() {
        let (g, cfg) = small_hierarchy(29);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let mut scratch = EmulationScratch::new();
        for level in 0..=2u32 {
            let gp = h.overlay(level).graph();
            let batch: Vec<u64> = gp
                .edges()
                .take(10)
                .map(|(e, _, _)| dir_key(e, true))
                .collect();
            let exact = h.emulate_batch(level, &batch, EmulationMode::Exact, &mut scratch);
            let factored = h.emulate_batch(level, &batch, EmulationMode::Factored, &mut scratch);
            assert!(exact > 0);
            assert!(
                exact <= factored,
                "level {level}: exact {exact} > factored {factored}"
            );
        }
    }

    #[test]
    fn emulation_cost_grows_with_level() {
        let (g, cfg) = small_hierarchy(31);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let mut scratch = EmulationScratch::new();
        // One edge crossing at level p should cost at least as much as the
        // cheapest crossing at level 0 (paths expand through lower levels).
        let e0 = h
            .overlay(0)
            .graph()
            .edges()
            .next()
            .map(|(e, _, _)| dir_key(e, true))
            .unwrap();
        let c0 = h.emulate_batch(0, &[e0], EmulationMode::Exact, &mut scratch);
        let e2 = h
            .overlay(2)
            .graph()
            .edges()
            .next()
            .map(|(e, _, _)| dir_key(e, true))
            .unwrap();
        let c2 = h.emulate_batch(2, &[e2], EmulationMode::Exact, &mut scratch);
        assert!(c2 >= c0.min(1), "c2 = {c2}, c0 = {c0}");
    }

    #[test]
    fn disconnected_base_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let cfg = HierarchyConfig::auto(&g, 5, 0);
        assert!(matches!(
            Hierarchy::build(&g, cfg),
            Err(EmbedError::Graph(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, cfg) = small_hierarchy(37);
        let h1 = Hierarchy::build(&g, cfg.clone()).unwrap();
        let h2 = Hierarchy::build(&g, cfg).unwrap();
        assert_eq!(h1.stats.total_base_rounds, h2.stats.total_base_rounds);
        assert_eq!(
            h1.overlay(1).graph().edge_count(),
            h2.overlay(1).graph().edge_count()
        );
    }

    #[test]
    fn bfs_edge_path_follows_graph() {
        let g = generators::ring(8);
        let path = bfs_edge_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(path.len(), 3);
        assert!(bfs_edge_path(&g, NodeId(2), NodeId(2)).unwrap().is_empty());
        let g2 = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(bfs_edge_path(&g2, NodeId(0), NodeId(2)).is_none());
    }
}
