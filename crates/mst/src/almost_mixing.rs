//! The paper's MST algorithm (§4): Boruvka with head/tail coins, virtual
//! trees, and all communication executed as permutation-routing instances
//! on the hierarchical embedding.
//!
//! Per iteration:
//!
//! 1. every node exchanges its fragment id with its neighbors (1 round);
//! 2. the minimum-weight outgoing edge of each component is aggregated by a
//!    level-synchronized **upcast** on the component's virtual tree `T(C)` —
//!    one routing instance per tree level, all components in parallel;
//! 3. the result plus the component's head/tail coin is **downcast** the
//!    same way;
//! 4. tail components whose minimum outgoing edge leads to a head component
//!    merge into it (star merges), adding the edge to the MST;
//! 5. the virtual trees are re-joined and re-balanced by the **token wave**
//!    of Lemma 4.1, one routing instance per wave level, and the new
//!    fragment ids are downcast.
//!
//! No step reads a routing price, so the loop only *plans* its instances
//! ([`HierarchicalRouter::plan`]) and streams each instance's path sets to
//! pricing workers on the other available cores while it goes on planning
//! ([`Hierarchy::price_stream`]); when the loop ends, the calling thread
//! helps price what is left, and each iteration's prices are added to that
//! iteration.
//!
//! The three Lemma 4.1 invariants (tree depth `O(log² n)`, virtual degree
//! `≤ d_G(v)·O(log n)`, known parents) are tracked in [`IterationStats`]
//! and asserted by the test-suite and by experiment E12.

use crate::{MstError, Result};
use amt_congest::PhaseTimings;
use amt_embedding::{Hierarchy, LedgerEntry, LedgerFeed};
use amt_graphs::{EdgeId, EdgeWeight, NodeId, WeightedGraph};
use amt_routing::{EmulationMode, HierarchicalRouter, RouterConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-iteration measurements (the Lemma 4.1 invariant witnesses).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IterationStats {
    /// Components before this iteration.
    pub components_before: usize,
    /// Components after the merges.
    pub components_after: usize,
    /// Tail components merged into heads.
    pub merges: usize,
    /// Measured base rounds spent on routing during this iteration.
    pub routing_rounds: u64,
    /// Tree levels processed by the upcast (= max virtual-tree depth).
    pub upcast_steps: u32,
    /// Maximum virtual-tree depth after the merges.
    pub max_tree_depth: u32,
    /// Maximum over nodes of `virtual degree / d_G(v)` after the merges
    /// (Lemma 4.1 bounds this by `O(log n)`).
    pub max_degree_ratio: f64,
    /// Permutation-routing instances issued this iteration (upcast +
    /// downcast + balancing-wave + relabel steps).
    pub routing_instances: u32,
}

/// Outcome of [`AlmostMixingMst::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct AmtMstOutcome {
    /// The MST edges (sorted by id); equal to Kruskal's canonical MST.
    pub tree_edges: Vec<EdgeId>,
    /// Total tree weight.
    pub total_weight: u64,
    /// Measured base rounds of the MST computation (excluding hierarchy
    /// construction, reported separately).
    pub rounds: u64,
    /// Base rounds spent building the hierarchy (copied from its stats).
    pub hierarchy_build_rounds: u64,
    /// Boruvka iterations executed.
    pub iterations: u32,
    /// Total permutation-routing instances issued.
    pub routing_instances: u32,
    /// Per-iteration measurements.
    pub per_iteration: Vec<IterationStats>,
    /// Host wall-clock time, excluded from equality like all
    /// [`PhaseTimings`]: the Borůvka loop (`"plan"`), the pricing still left
    /// when it ends (`"price"`), the sum of the instances' preparation
    /// walks (`"prep"`, inside `"plan"`), and the time every worker spent
    /// pricing, summed over workers (`"priced"`).
    pub wall: PhaseTimings,
}

/// A pending balancing token of Lemma 4.1.
#[derive(Clone, Copy, Debug)]
struct Token {
    creation: u32,
    pos: u32,
    alive: bool,
}

/// The paper's MST algorithm bound to a hierarchy.
pub struct AlmostMixingMst<'h, 'g> {
    router: HierarchicalRouter<'h, 'g>,
    iteration_cap: u32,
}

/// The routing instances the loop has issued so far: how many, the sum of
/// their preparation walls, and their path sets, fed to the pricing
/// workers; `iteration_ends[i]` is the number of entries fed by the end of
/// iteration `i`.
struct Issued<'f, 'q> {
    feed: &'f mut LedgerFeed<'q, LedgerEntry>,
    instances: u32,
    prep_nanos: u64,
    iteration_ends: Vec<usize>,
}

impl<'h, 'g> AlmostMixingMst<'h, 'g> {
    /// Creates the algorithm on a built hierarchy, pricing emulation by
    /// exact recursive store-and-forward expansion (tight measured rounds).
    pub fn new(hierarchy: &'h Hierarchy<'g>) -> Self {
        let n = hierarchy.base().len();
        Self::with_router_config(
            hierarchy,
            RouterConfig {
                emulation: EmulationMode::Exact,
                ..RouterConfig::for_n(n)
            },
        )
    }

    /// Creates the algorithm with an explicit router configuration (e.g.
    /// the conservative [`EmulationMode::Factored`] pricing).
    pub fn with_router_config(hierarchy: &'h Hierarchy<'g>, rc: RouterConfig) -> Self {
        let n = hierarchy.base().len();
        AlmostMixingMst {
            router: HierarchicalRouter::with_config(hierarchy, rc),
            iteration_cap: 20 + 10 * (n.max(2) as f64).log2().ceil() as u32,
        }
    }

    /// Computes the MST of `wg`, which must be the graph the hierarchy was
    /// built on.
    ///
    /// # Errors
    ///
    /// * [`MstError::Graph`] if `wg` is disconnected or does not match the
    ///   hierarchy's base graph;
    /// * [`MstError::Route`] if the permutation router fails;
    /// * [`MstError::TooManyIterations`] if the coin sequence exceeds the
    ///   iteration cap (probability `≪ 1/n²` at the default cap).
    pub fn run(&self, wg: &WeightedGraph, seed: u64) -> Result<AmtMstOutcome> {
        let g = wg.graph();
        g.require_connected()?;
        let h = self.router.hierarchy();
        if g.len() != h.base().len() || g.edge_count() != h.base().edge_count() {
            return Err(MstError::Graph(amt_graphs::GraphError::InvalidParameters {
                reason: "weighted graph does not match the hierarchy's base graph".into(),
            }));
        }
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let planning = Instant::now();
        let ((mut out, iteration_ends, prep_nanos, planned), prices) = h.price_stream(
            self.router.config().emulation,
            workers,
            |feed| -> Result<_> {
                let mut issued = Issued {
                    feed,
                    instances: 0,
                    prep_nanos: 0,
                    iteration_ends: Vec::new(),
                };
                let out = self.plan(wg, seed, &mut issued)?;
                Ok((
                    out,
                    issued.iteration_ends,
                    issued.prep_nanos,
                    Instant::now(),
                ))
            },
        )?;
        out.wall.record("plan", planned - planning);
        out.wall.record("price", planned.elapsed());
        out.wall.record_nanos("prep", prep_nanos);
        out.wall
            .record_nanos("priced", prices.iter().map(|p| p.nanos).sum());
        let mut start = 0;
        for (it, end) in out.per_iteration.iter_mut().zip(iteration_ends) {
            let priced: u64 = prices[start..end].iter().map(|p| p.rounds).sum();
            it.routing_rounds += priced;
            out.rounds += priced;
            start = end;
        }
        Ok(out)
    }

    /// The Borůvka loop on the connected graph `wg`: plans every routing
    /// instance into `issued` and returns the outcome with every emulation
    /// price still missing from its rounds, and no walls.
    fn plan(
        &self,
        wg: &WeightedGraph,
        seed: u64,
        issued: &mut Issued<'_, '_>,
    ) -> Result<AmtMstOutcome> {
        let g = wg.graph();
        let n = g.len();
        let mut rng = StdRng::seed_from_u64(seed);

        // Virtual-tree state (Lemma 4.1): parent pointers, children lists,
        // depths, and fragment labels.
        let mut comp: Vec<u32> = (0..n as u32).collect();
        let mut parent: Vec<Option<u32>> = vec![None; n];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut depth: Vec<u32> = vec![0; n];

        let mut tree_edges: Vec<EdgeId> = Vec::with_capacity(n - 1);
        let mut rounds = 0u64;
        let mut per_iteration = Vec::new();
        let mut iterations = 0u32;

        loop {
            let components_before = count_distinct(&comp);
            if components_before <= 1 {
                break;
            }
            if iterations >= self.iteration_cap {
                return Err(MstError::TooManyIterations {
                    cap: self.iteration_cap,
                });
            }
            iterations += 1;
            let iter_instances_before = issued.instances;
            let mut it = IterationStats {
                components_before,
                ..Default::default()
            };

            // (1) Fragment-id exchange with all neighbors: one round.
            rounds += 1;
            it.routing_rounds += 0;

            // (2) Minimum outgoing edge per component (content computed
            // centrally; communication charged by the upcast below).
            let mut best: BTreeMap<u32, (EdgeWeight, EdgeId, u32, u32)> = BTreeMap::new();
            for v in g.nodes() {
                let cv = comp[v.index()];
                if let Some((e, w)) = wg.min_incident_edge(v, |x| comp[x.index()] != cv) {
                    let cw = wg.canonical_weight(e);
                    let entry = best.entry(cv).or_insert((cw, e, v.0, w.0));
                    if cw < entry.0 {
                        *entry = (cw, e, v.0, w.0);
                    }
                }
            }

            // (3) Upcast + downcast over the virtual trees, one routing
            // instance per level (all components in parallel).
            let max_d = depth.iter().copied().max().unwrap_or(0);
            it.upcast_steps = max_d;
            for s in (1..=max_d).rev() {
                let reqs = level_edges(&parent, &depth, s);
                it.routing_rounds += self.route_pairs(&reqs, &mut rng, issued)?;
            }
            for s in 1..=max_d {
                let reqs = level_edges_down(&parent, &depth, s);
                it.routing_rounds += self.route_pairs(&reqs, &mut rng, issued)?;
            }

            // (4) Head/tail coins and star merges.
            let mut coin: BTreeMap<u32, bool> = BTreeMap::new();
            for &c in comp.iter() {
                coin.entry(c).or_insert_with(|| rng.random_bool(0.5));
            }
            // head component → [(tail root, mst edge, landing node v_i)]
            let mut stars: BTreeMap<u32, Vec<(u32, EdgeId, u32)>> = BTreeMap::new();
            for (&c, &(_, e, _u, v)) in &best {
                let target = comp[v as usize];
                if !coin[&c] && coin[&target] {
                    stars.entry(target).or_default().push((c, e, v));
                }
            }

            let mut token_sites: Vec<u32> = Vec::new();
            for (_, tails) in stars.iter() {
                for &(tail_root, e, v_i) in tails {
                    tree_edges.push(e);
                    it.merges += 1;
                    // Attach the tail tree's root below v_i ∈ C₀.
                    parent[tail_root as usize] = Some(v_i);
                    children[v_i as usize].push(tail_root);
                    if !token_sites.contains(&v_i) {
                        token_sites.push(v_i);
                    }
                }
            }

            // (5) Lemma 4.1 token wave over the (old) head trees, all heads
            // in parallel; one routing instance per wave level.
            it.routing_rounds += self.balance_wave(
                &token_sites,
                &mut parent,
                &mut children,
                &depth,
                &mut rng,
                issued,
            )?;

            // Relabel merged components and recompute depths.
            relabel_and_recompute(&mut comp, &parent, &children, &mut depth);

            // (6) Downcast the new fragment ids over the new trees.
            let new_max_d = depth.iter().copied().max().unwrap_or(0);
            for s in 1..=new_max_d {
                let reqs = level_edges_down(&parent, &depth, s);
                it.routing_rounds += self.route_pairs(&reqs, &mut rng, issued)?;
            }

            it.components_after = count_distinct(&comp);
            it.routing_instances = issued.instances - iter_instances_before;
            it.max_tree_depth = new_max_d;
            it.max_degree_ratio = g
                .nodes()
                .map(|v| {
                    let vd = children[v.index()].len() + usize::from(parent[v.index()].is_some());
                    vd as f64 / g.degree(v).max(1) as f64
                })
                .fold(0.0, f64::max);
            rounds += it.routing_rounds;
            per_iteration.push(it);
            issued.iteration_ends.push(issued.feed.pushed());
        }

        tree_edges.sort_unstable();
        tree_edges.dedup();
        Ok(AmtMstOutcome {
            total_weight: wg.total_weight(&tree_edges),
            tree_edges,
            rounds,
            hierarchy_build_rounds: self.router.hierarchy().stats.total_base_rounds,
            iterations,
            routing_instances: issued.instances,
            per_iteration,
            wall: PhaseTimings::new(),
        })
    }

    /// One routing instance for a batch of `(from, to)` node pairs: plans
    /// it, feeds its path sets to the pricing workers, and returns its
    /// preparation rounds (the only rounds known before pricing).
    fn route_pairs(
        &self,
        reqs: &[(u32, u32)],
        rng: &mut StdRng,
        issued: &mut Issued<'_, '_>,
    ) -> Result<u64> {
        if reqs.is_empty() {
            return Ok(0);
        }
        issued.instances += 1;
        let pairs: Vec<(NodeId, NodeId)> =
            reqs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let plan = self.router.plan(&pairs, rng.random())?;
        let prep_rounds = plan.unpriced().prep_rounds;
        issued.prep_nanos += plan.unpriced().wall.nanos("prep");
        issued.feed.extend(plan.into_ledger());
        Ok(prep_rounds)
    }

    /// The balancing token wave of Lemma 4.1 (see module docs). Returns the
    /// preparation rounds of its instances and feeds their path sets to the
    /// pricing workers. `depth` is the tree depth *before* the merges (the wave
    /// runs on the old head trees; freshly attached tail subtrees hold no
    /// tokens).
    fn balance_wave(
        &self,
        token_sites: &[u32],
        parent: &mut [Option<u32>],
        children: &mut [Vec<u32>],
        depth: &[u32],
        rng: &mut StdRng,
        issued: &mut Issued<'_, '_>,
    ) -> Result<u64> {
        let mut tokens: Vec<Token> = token_sites
            .iter()
            .map(|&v| Token {
                creation: v,
                pos: v,
                alive: true,
            })
            .collect();
        let mut rounds = 0u64;
        let max_d = depth.iter().copied().max().unwrap_or(0);
        for s in (1..=max_d).rev() {
            // Tokens sitting at depth s move to their parents.
            let moving: Vec<usize> = tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    t.alive && depth[t.pos as usize] == s && parent[t.pos as usize].is_some()
                })
                .map(|(i, _)| i)
                .collect();
            if moving.is_empty() {
                continue;
            }
            let reqs: Vec<(u32, u32)> = moving
                .iter()
                .map(|&i| {
                    let p = parent[tokens[i].pos as usize].expect("filtered on parent");
                    (tokens[i].pos, p)
                })
                .collect();
            rounds += self.route_pairs(&reqs, rng, issued)?;

            // Group arrivals by destination; stationary tokens already at a
            // destination join the merge group there.
            let mut arrivals: BTreeMap<u32, Vec<(usize, u32)>> = BTreeMap::new();
            for &i in &moving {
                let via = tokens[i].pos;
                let dest = parent[via as usize].expect("filtered on parent");
                arrivals.entry(dest).or_default().push((i, via));
            }
            for (&dest, group) in arrivals.iter() {
                let stationary: Vec<usize> = tokens
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| {
                        t.alive && t.pos == dest && !group.iter().any(|&(gi, _)| gi == *i)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if group.len() + stationary.len() == 1 {
                    // A lone token just moves up.
                    let (i, _) = group[0];
                    tokens[i].pos = dest;
                    continue;
                }
                // Merge: re-parent creation points that are not already
                // children of the merge node under the child they arrived
                // through, then spawn a fresh token at the merge node.
                for &(i, via) in group {
                    let w = tokens[i].creation;
                    if w != dest && w != via && parent[w as usize] != Some(dest) {
                        if let Some(old) = parent[w as usize] {
                            children[old as usize].retain(|&c| c != w);
                        }
                        parent[w as usize] = Some(via);
                        children[via as usize].push(w);
                    }
                    tokens[i].alive = false;
                }
                for i in stationary {
                    tokens[i].alive = false;
                }
                tokens.push(Token {
                    creation: dest,
                    pos: dest,
                    alive: true,
                });
            }
        }
        Ok(rounds)
    }
}

/// `(child, parent)` pairs at tree depth `s` (upcast direction).
fn level_edges(parent: &[Option<u32>], depth: &[u32], s: u32) -> Vec<(u32, u32)> {
    parent
        .iter()
        .enumerate()
        .filter_map(|(v, p)| p.filter(|_| depth[v] == s).map(|p| (v as u32, p)))
        .collect()
}

/// `(parent, child)` pairs reaching depth `s` (downcast direction).
fn level_edges_down(parent: &[Option<u32>], depth: &[u32], s: u32) -> Vec<(u32, u32)> {
    parent
        .iter()
        .enumerate()
        .filter_map(|(v, p)| p.filter(|_| depth[v] == s).map(|p| (p, v as u32)))
        .collect()
}

fn count_distinct(comp: &[u32]) -> usize {
    let mut seen: Vec<u32> = comp.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// After merges and balancing: recompute depths by BFS from the roots over
/// the children lists, and relabel every node with its root's id.
fn relabel_and_recompute(
    comp: &mut [u32],
    parent: &[Option<u32>],
    children: &[Vec<u32>],
    depth: &mut [u32],
) {
    let n = comp.len();
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for r in 0..n {
        if parent[r].is_none() {
            depth[r] = 0;
            comp[r] = r as u32;
            visited[r] = true;
            queue.push_back(r as u32);
            while let Some(v) = queue.pop_front() {
                for &c in &children[v as usize] {
                    debug_assert!(!visited[c as usize], "virtual tree contains a cycle");
                    visited[c as usize] = true;
                    depth[c as usize] = depth[v as usize] + 1;
                    comp[c as usize] = r as u32;
                    queue.push_back(c);
                }
            }
        }
    }
    debug_assert!(visited.iter().all(|&b| b), "orphaned virtual-tree node");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use amt_embedding::HierarchyConfig;
    use amt_graphs::generators;

    fn build(n: usize, deg: usize, seed: u64) -> (WeightedGraph, HierarchyConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, deg, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 25, seed);
        cfg.beta = 4;
        cfg.levels = 1;
        cfg.overlay_degree = 5;
        cfg.level0_walks = 10;
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        (wg, cfg)
    }

    #[test]
    fn computes_the_canonical_mst() {
        let (wg, cfg) = build(48, 4, 101);
        let h = Hierarchy::build(wg.graph(), cfg).unwrap();
        let alg = AlmostMixingMst::new(&h);
        let out = alg.run(&wg, 7).unwrap();
        assert_eq!(out.tree_edges.len(), 47);
        assert!(reference::verify_mst(&wg, &out.tree_edges));
        assert_eq!(out.tree_edges, reference::kruskal(&wg).unwrap());
        assert!(out.rounds > 0);
        assert!(out.iterations >= 1);
    }

    #[test]
    fn iteration_stats_witness_lemma_4_1() {
        let (wg, cfg) = build(64, 6, 103);
        let h = Hierarchy::build(wg.graph(), cfg).unwrap();
        let alg = AlmostMixingMst::new(&h);
        let out = alg.run(&wg, 9).unwrap();
        let n = wg.len() as f64;
        let log2n = n.log2();
        for (i, st) in out.per_iteration.iter().enumerate() {
            assert!(st.components_after <= st.components_before, "iter {i}");
            // Depth O(log² n) with an explicit constant.
            assert!(
                f64::from(st.max_tree_depth) <= 4.0 * log2n * log2n,
                "iter {i}: depth {} too deep",
                st.max_tree_depth
            );
            // Virtual degree ratio O(log n).
            assert!(
                st.max_degree_ratio <= 4.0 * log2n,
                "iter {i}: degree ratio {}",
                st.max_degree_ratio
            );
        }
        // Components must eventually reach 1.
        assert_eq!(out.per_iteration.last().unwrap().components_after, 1);
    }

    #[test]
    fn coin_merges_shrink_components_geometrically_on_average() {
        let (wg, cfg) = build(96, 4, 107);
        let h = Hierarchy::build(wg.graph(), cfg).unwrap();
        let alg = AlmostMixingMst::new(&h);
        let out = alg.run(&wg, 13).unwrap();
        // O(log n) iterations with a generous constant.
        assert!(
            out.iterations <= 8 * (96f64.log2().ceil() as u32),
            "took {} iterations",
            out.iterations
        );
    }

    #[test]
    fn disconnected_input_rejected() {
        let (wg, cfg) = build(48, 4, 109);
        let h = Hierarchy::build(wg.graph(), cfg).unwrap();
        let g2 = amt_graphs::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let wg2 = WeightedGraph::new(g2, vec![1, 2]).unwrap();
        let alg = AlmostMixingMst::new(&h);
        assert!(matches!(alg.run(&wg2, 0), Err(MstError::Graph(_))));
        drop(wg);
    }

    #[test]
    fn deterministic_given_seed() {
        let (wg, cfg) = build(48, 4, 113);
        let h = Hierarchy::build(wg.graph(), cfg).unwrap();
        let alg = AlmostMixingMst::new(&h);
        let a = alg.run(&wg, 5).unwrap();
        let b = alg.run(&wg, 5).unwrap();
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn works_on_non_regular_graphs() {
        let mut rng = StdRng::seed_from_u64(115);
        let g = generators::preferential_attachment(60, 3, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 20, 115);
        cfg.beta = 4;
        cfg.levels = 1;
        cfg.overlay_degree = 5;
        cfg.level0_walks = 10;
        let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
        let h = Hierarchy::build(wg.graph(), cfg).unwrap();
        let out = AlmostMixingMst::new(&h).run(&wg, 3).unwrap();
        assert!(reference::verify_mst(&wg, &out.tree_edges));
    }
}
