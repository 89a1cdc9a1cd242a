//! The recursive routing algorithm of §3.2.

use crate::{Result, RouteError, RoutingOutcome};
use amt_congest::PhaseTimings;
use amt_embedding::{dir_key, EmulationMode, Hierarchy, LedgerEntry, PortalEntry, VirtualId};
use amt_graphs::NodeId;
use amt_walks::{parallel, KeySlab, WalkKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Knobs of the hierarchical router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterConfig {
    /// Per-phase load promise: each node may be the source or destination of
    /// at most `load_per_degree · d_G(v)` packets per phase (the paper's
    /// `O(log n)` factor; defaults to `⌈log₂ n⌉`).
    pub load_per_degree: f64,
    /// Maximum number of phases the router may split an instance into.
    pub max_phases: u32,
    /// Run the preparation walk (the paper always does; disabling is useful
    /// for ablation experiments).
    pub prepare: bool,
    /// Emulation pricing model of [`HierarchicalRouter::route`].
    pub emulation: EmulationMode,
}

impl RouterConfig {
    /// Defaults for a graph with `n` nodes.
    pub fn for_n(n: usize) -> Self {
        RouterConfig {
            load_per_degree: (n.max(2) as f64).log2().ceil(),
            max_phases: 4096,
            prepare: true,
            emulation: EmulationMode::Factored,
        }
    }
}

/// In-flight packet: its identity, current virtual node, and current goal.
#[derive(Clone, Copy, Debug)]
struct Pkt {
    id: u32,
    cur: u32,
    goal: u32,
}

/// Counters accumulated during one phase's recursion.
#[derive(Default)]
struct Accum {
    portal_misses: u64,
    hop_crossings: u64,
    bottom_crossings: u64,
}

/// A routed instance whose emulation is not yet priced
/// ([`HierarchicalRouter::plan`]): every unpriced field of its
/// [`RoutingOutcome`], and the ledger of path sets to price. An entry at the
/// hierarchy's bottom depth is a bottom delivery; any other entry at depth
/// `d` is a hop across level-`d` edges.
pub struct RoutePlan<'h, 'g> {
    h: &'h Hierarchy<'g>,
    unpriced: RoutingOutcome,
    ledger: Vec<LedgerEntry>,
}

impl RoutePlan<'_, '_> {
    /// The instance's outcome with every emulation price zero: phases,
    /// preparation rounds, deliveries, misses, crossings and the `"prep"`
    /// and `"route"` walls.
    pub fn unpriced(&self) -> &RoutingOutcome {
        &self.unpriced
    }

    /// The ledger, moved out for a caller that prices many plans together
    /// ([`Hierarchy::price_stream`], [`Hierarchy::price_ledger`]).
    pub fn into_ledger(self) -> Vec<LedgerEntry> {
        self.ledger
    }

    /// Prices the ledger under `mode` on the calling thread and returns the
    /// full outcome: the hop, bottom and total rounds, the batch counts, and
    /// the `"hops"` and `"bottom"` walls (time spent pricing each kind of
    /// entry).
    pub fn price(&self, mode: EmulationMode) -> RoutingOutcome {
        let mut out = self.unpriced.clone();
        let prices = self.h.price_ledger(&self.ledger, mode, 1);
        for (entry, price) in self.ledger.iter().zip(prices) {
            if entry.level == self.h.depth() {
                out.bottom_rounds += price.rounds;
                out.wall.record_nanos("bottom", price.nanos);
            } else {
                out.hop_rounds_per_depth[entry.level as usize] += price.rounds;
                out.wall.record_nanos("hops", price.nanos);
            }
            out.total_base_rounds += price.rounds;
            out.solo_batches += price.counts.solo_batches;
            out.scheduled_batches += price.counts.scheduled_batches;
        }
        out
    }
}

/// The paper's permutation router (Theorem 1.2), operating on a built
/// [`Hierarchy`].
///
/// # Examples
///
/// ```
/// use amt_embedding::{Hierarchy, HierarchyConfig};
/// use amt_graphs::{generators, NodeId};
/// use amt_routing::HierarchicalRouter;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let g = generators::random_regular(48, 4, &mut rng).unwrap();
/// let mut cfg = HierarchyConfig::auto(&g, 25, 5);
/// cfg.beta = 4;
/// cfg.levels = 1;
/// let h = Hierarchy::build(&g, cfg).unwrap();
/// let router = HierarchicalRouter::new(&h);
/// // A cyclic-shift permutation: node i sends to node i+1.
/// let reqs: Vec<_> = (0..48).map(|i| (NodeId(i), NodeId((i + 1) % 48))).collect();
/// let out = router.route(&reqs, 99).unwrap();
/// assert_eq!(out.delivered, 48);
/// assert_eq!(out.undelivered, 0);
/// assert!(out.total_base_rounds > 0);
/// ```
pub struct HierarchicalRouter<'h, 'g> {
    h: &'h Hierarchy<'g>,
    cfg: RouterConfig,
}

impl<'h, 'g> HierarchicalRouter<'h, 'g> {
    /// Creates a router with default config for the hierarchy's base graph.
    pub fn new(h: &'h Hierarchy<'g>) -> Self {
        HierarchicalRouter {
            h,
            cfg: RouterConfig::for_n(h.base().len()),
        }
    }

    /// Creates a router with an explicit config.
    pub fn with_config(h: &'h Hierarchy<'g>, cfg: RouterConfig) -> Self {
        HierarchicalRouter { h, cfg }
    }

    /// The hierarchy this router operates on.
    pub fn hierarchy(&self) -> &Hierarchy<'g> {
        self.h
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Routes one packet per `(source, destination)` request, in parallel,
    /// and returns the measured outcome, priced under the configured
    /// [`RouterConfig::emulation`]: [`HierarchicalRouter::plan`] followed by
    /// [`RoutePlan::price`].
    ///
    /// # Errors
    ///
    /// Those of [`HierarchicalRouter::plan`].
    pub fn route(&self, requests: &[(NodeId, NodeId)], seed: u64) -> Result<RoutingOutcome> {
        Ok(self.plan(requests, seed)?.price(self.cfg.emulation))
    }

    /// Routes one packet per `(source, destination)` request, in parallel,
    /// and records what its emulation costs in a ledger instead of pricing
    /// it. No routing decision reads a price, so the plan of a seed is the
    /// same under every emulation mode.
    ///
    /// # Errors
    ///
    /// * [`RouteError::BadRequest`] for out-of-range node ids;
    /// * [`RouteError::LoadTooHigh`] if satisfying the load promise would
    ///   need more than `max_phases` phases;
    /// * [`RouteError::Undelivered`] if any packet could not be delivered.
    pub fn plan(&self, requests: &[(NodeId, NodeId)], seed: u64) -> Result<RoutePlan<'h, 'g>> {
        let g = self.h.base();
        let n = g.len();
        for &(s, t) in requests {
            for x in [s, t] {
                if x.index() >= n {
                    return Err(RouteError::BadRequest { node: x.index(), n });
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let phases = self.phases_needed(requests);
        if phases > self.cfg.max_phases {
            return Err(RouteError::LoadTooHigh {
                needed: phases,
                allowed: self.cfg.max_phases,
            });
        }
        let mut phase_of: Vec<u32> = Vec::with_capacity(requests.len());
        for _ in requests {
            phase_of.push(rng.random_range(0..phases));
        }
        // `phases` accumulates through `absorb`, so the outcome reports the
        // number of phases actually routed (empty phases are skipped), not
        // the planned split computed above.
        let mut unpriced = RoutingOutcome::default();
        let mut ledger = Vec::new();
        for phase in 0..phases {
            let batch: Vec<(NodeId, NodeId)> = requests
                .iter()
                .zip(&phase_of)
                .filter(|&(_, &p)| p == phase)
                .map(|(&r, _)| r)
                .collect();
            if batch.is_empty() {
                continue;
            }
            let phase_out = self.plan_one_phase(&batch, &mut rng, &mut ledger);
            unpriced.absorb(&phase_out);
        }
        if unpriced.undelivered > 0 {
            return Err(RouteError::Undelivered {
                count: unpriced.undelivered,
            });
        }
        Ok(RoutePlan {
            h: self.h,
            unpriced,
            ledger,
        })
    }

    /// Number of phases needed so that per phase each node's expected
    /// source+destination load stays within the promise.
    fn phases_needed(&self, requests: &[(NodeId, NodeId)]) -> u32 {
        let g = self.h.base();
        let mut load = vec![0u64; g.len()];
        for &(s, t) in requests {
            load[s.index()] += 1;
            load[t.index()] += 1;
        }
        let mut phases = 1u64;
        for v in g.nodes() {
            let cap = (self.cfg.load_per_degree * g.degree(v) as f64).max(1.0);
            let need = (load[v.index()] as f64 / cap).ceil() as u64;
            phases = phases.max(need.max(1));
        }
        phases.min(u64::from(u32::MAX)) as u32
    }

    /// Routes one phase, appending its path sets to `ledger`; the returned
    /// outcome is unpriced.
    fn plan_one_phase(
        &self,
        batch: &[(NodeId, NodeId)],
        rng: &mut StdRng,
        ledger: &mut Vec<LedgerEntry>,
    ) -> RoutingOutcome {
        let g = self.h.base();
        let vmap = self.h.vmap();

        // Destination virtual slots: chosen by shared randomness (see
        // DESIGN.md substitution 2).
        let goals: Vec<u32> = batch
            .iter()
            .map(|&(_, t)| vmap.vid(t, rng.random_range(0..vmap.slot_count(t))).0)
            .collect();

        // Preparation step: each packet walks τ_mix steps from its source,
        // then lands on a random virtual slot of wherever it stopped.
        let prep_started = Instant::now();
        let (starts, prep_rounds): (Vec<u32>, u64) = if self.cfg.prepare {
            let sources: Vec<NodeId> = batch.iter().map(|&(s, _)| s).collect();
            let walked =
                parallel::run_walk_ends(g, WalkKind::Lazy, &sources, self.h.cfg().tau_mix, rng);
            let starts = walked
                .ends
                .iter()
                .map(|&node| vmap.vid(node, rng.random_range(0..vmap.slot_count(node))).0)
                .collect();
            (starts, walked.rounds)
        } else {
            let starts = batch
                .iter()
                .map(|&(s, _)| vmap.vid(s, rng.random_range(0..vmap.slot_count(s))).0)
                .collect();
            (starts, 0)
        };
        let prep_elapsed = prep_started.elapsed();

        let pkts: Vec<Pkt> = starts
            .iter()
            .zip(&goals)
            .enumerate()
            .map(|(id, (&cur, &goal))| Pkt {
                id: id as u32,
                cur,
                goal,
            })
            .collect();
        let mut acc = Accum::default();
        let route_started = Instant::now();
        let finals = self.recurse(0, pkts, &mut acc, ledger);
        let route_elapsed = route_started.elapsed();
        debug_assert_eq!(finals.len(), batch.len());
        let mut final_pos = vec![u32::MAX; batch.len()];
        for (id, pos) in finals {
            final_pos[id as usize] = pos;
        }
        let delivered = final_pos
            .iter()
            .zip(&goals)
            .filter(|&(&p, &g0)| p == g0)
            .count();
        let mut wall = PhaseTimings::new();
        wall.record("prep", prep_elapsed);
        wall.record("route", route_elapsed);
        RoutingOutcome {
            phases: 1,
            total_base_rounds: prep_rounds,
            prep_rounds,
            hop_rounds_per_depth: vec![0; self.h.depth() as usize],
            bottom_rounds: 0,
            delivered,
            undelivered: batch.len() - delivered,
            portal_misses: acc.portal_misses,
            hop_crossings: acc.hop_crossings,
            bottom_crossings: acc.bottom_crossings,
            solo_batches: 0,
            scheduled_batches: 0,
            wall,
        }
    }

    /// Routes packets whose `cur` and `goal` share a depth-`d` part,
    /// appending every non-empty path set it crosses to `ledger`.
    /// Returns `(id, final position)` for every packet given; a packet whose
    /// final position differs from its goal could not be delivered. Packet
    /// ids are distinct and below the phase's batch size.
    fn recurse(
        &self,
        d: u32,
        msgs: Vec<Pkt>,
        acc: &mut Accum,
        ledger: &mut Vec<LedgerEntry>,
    ) -> Vec<(u32, u32)> {
        let mut results: Vec<(u32, u32)> = Vec::with_capacity(msgs.len());
        let mut live: Vec<Pkt> = Vec::with_capacity(msgs.len());
        for p in msgs {
            if p.cur == p.goal {
                results.push((p.id, p.cur));
            } else {
                live.push(p);
            }
        }
        if live.is_empty() {
            return results;
        }

        if d == self.h.depth() {
            // Bottom: deliver over the complete graph of each bottom part.
            let bottom = self.h.overlay(d);
            let mut paths = KeySlab::new();
            for p in &live {
                match bottom.edge_between(VirtualId(p.cur), VirtualId(p.goal)) {
                    Some((e, fwd)) => {
                        paths.push([dir_key(e, fwd)]);
                        results.push((p.id, p.goal));
                    }
                    None => results.push((p.id, p.cur)),
                }
            }
            acc.bottom_crossings += paths.len() as u64;
            record(ledger, d, paths);
            return results;
        }

        let child = d + 1;
        let mut leg1: Vec<Pkt> = Vec::new();
        // Packets awaiting a portal hop, indexed by id: (portal entry, final
        // goal). Ids are dense within a phase, so the table is sized by the
        // largest live id.
        let ids = live.iter().map(|p| p.id as usize + 1).max().unwrap_or(0);
        let mut pend: Vec<Option<(PortalEntry, u32)>> = vec![None; ids];
        let mut fallback_paths = KeySlab::new();
        for p in live {
            let src_part = self.h.part_of(VirtualId(p.cur), child);
            let dst_part = self.h.part_of(VirtualId(p.goal), child);
            if src_part == dst_part {
                leg1.push(p);
                continue;
            }
            let j = self.h.label_at(VirtualId(p.goal), child);
            match self.h.portal(child, VirtualId(p.cur), j) {
                Some(&entry) => {
                    leg1.push(Pkt {
                        id: p.id,
                        cur: p.cur,
                        goal: entry.portal.0,
                    });
                    pend[p.id as usize] = Some((entry, p.goal));
                }
                None => {
                    // No portal: deliver the whole journey by a BFS path on
                    // this depth's overlay (counted as a miss).
                    acc.portal_misses += 1;
                    match self
                        .h
                        .bfs_overlay_path(d, VirtualId(p.cur), VirtualId(p.goal))
                    {
                        Some(path) => {
                            fallback_paths.push(path);
                            results.push((p.id, p.goal));
                        }
                        None => results.push((p.id, p.cur)),
                    }
                }
            }
        }

        // Leg 1: intra-part packets go all the way; cross-part packets go to
        // their portals. All children recurse together (they are disjoint,
        // so their traffic batches in parallel).
        let leg1_results = self.recurse(child, leg1, acc, ledger);

        // Hop: cross one level-`d` edge per pending packet that reached its
        // portal, plus any BFS fallback journeys, all batched.
        let mut hop_paths = fallback_paths;
        let mut leg2: Vec<Pkt> = Vec::new();
        for (id, pos) in leg1_results {
            match pend[id as usize].take() {
                None => results.push((id, pos)),
                Some((entry, goal)) => {
                    if pos == entry.portal.0 {
                        hop_paths.push([dir_key(entry.edge, entry.forward)]);
                        leg2.push(Pkt {
                            id,
                            cur: entry.target.0,
                            goal,
                        });
                    } else {
                        // Failed to reach the portal; report where it ended.
                        results.push((id, pos));
                    }
                }
            }
        }
        acc.hop_crossings += hop_paths.keys().len() as u64;
        record(ledger, d, hop_paths);

        // Leg 2: from the landing nodes to the final goals.
        results.extend(self.recurse(child, leg2, acc, ledger));
        results
    }
}

/// Moves a depth-`d` path set into the ledger; an empty set costs nothing
/// and is left out.
fn record(ledger: &mut Vec<LedgerEntry>, d: u32, paths: KeySlab) {
    if !paths.is_empty() {
        ledger.push(LedgerEntry { level: d, paths });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_embedding::HierarchyConfig;
    use amt_graphs::generators;

    fn build_case(
        n: usize,
        deg: usize,
        beta: u32,
        levels: u32,
        seed: u64,
    ) -> (amt_graphs::Graph, HierarchyConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, deg, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 30, seed);
        cfg.beta = beta;
        cfg.levels = levels;
        cfg.overlay_degree = 5;
        cfg.level0_walks = 10;
        cfg.walk_surplus = 2.0;
        (g, cfg)
    }

    #[test]
    fn permutation_is_fully_delivered() {
        let (g, cfg) = build_case(64, 6, 4, 2, 41);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let router = HierarchicalRouter::new(&h);
        let n = g.len() as u32;
        // A random-looking permutation: i → 5i + 3 mod n (n=64, gcd(5,64)=1).
        let reqs: Vec<_> = (0..n)
            .map(|i| (NodeId(i), NodeId((5 * i + 3) % n)))
            .collect();
        let out = router.route(&reqs, 7).unwrap();
        assert_eq!(out.delivered, 64);
        assert_eq!(out.undelivered, 0);
        assert_eq!(out.phases, 1);
        assert!(out.total_base_rounds > 0);
        assert!(out.prep_rounds > 0);
        // Wall-clock stage timers were populated (prep ran, bottom parts
        // delivered); checked via `entries` since timing equality is vacuous.
        assert!(out.wall.nanos("prep") > 0);
        assert!(out.wall.nanos("route") > 0);
        assert!(out.wall.nanos("bottom") > 0);
    }

    #[test]
    fn self_requests_are_free_of_failures() {
        let (g, cfg) = build_case(48, 4, 4, 1, 43);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let router = HierarchicalRouter::new(&h);
        let reqs: Vec<_> = (0..48u32).map(|i| (NodeId(i), NodeId(i))).collect();
        let out = router.route(&reqs, 1).unwrap();
        assert_eq!(out.delivered, 48);
    }

    #[test]
    fn heavy_instances_split_into_phases() {
        let (g, cfg) = build_case(48, 4, 4, 1, 47);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let mut rc = RouterConfig::for_n(48);
        rc.load_per_degree = 1.0; // tight promise to force phase splitting
        let router = HierarchicalRouter::with_config(&h, rc);
        // Everyone sends 10 packets to node 0: node 0 receives 480 ≫ d·1.
        let mut reqs = Vec::new();
        for i in 0..48u32 {
            for _ in 0..10 {
                reqs.push((NodeId(i), NodeId(0)));
            }
        }
        let out = router.route(&reqs, 3).unwrap();
        assert!(
            out.phases > 1,
            "expected phase splitting, got {}",
            out.phases
        );
        assert_eq!(out.delivered, reqs.len());
    }

    #[test]
    fn bad_requests_rejected() {
        let (g, cfg) = build_case(48, 4, 4, 1, 53);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let router = HierarchicalRouter::new(&h);
        let err = router.route(&[(NodeId(0), NodeId(99))], 0).unwrap_err();
        assert_eq!(err, RouteError::BadRequest { node: 99, n: 48 });
    }

    #[test]
    fn phase_cap_enforced() {
        let (g, cfg) = build_case(48, 4, 4, 1, 59);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let rc = RouterConfig {
            load_per_degree: 0.1,
            max_phases: 2,
            ..RouterConfig::for_n(48)
        };
        let router = HierarchicalRouter::with_config(&h, rc);
        let mut reqs = Vec::new();
        for i in 0..48u32 {
            for _ in 0..20 {
                reqs.push((NodeId(i), NodeId(0)));
            }
        }
        assert!(matches!(
            router.route(&reqs, 0),
            Err(RouteError::LoadTooHigh { .. })
        ));
    }

    #[test]
    fn deeper_hierarchies_still_deliver() {
        let (g, cfg) = build_case(96, 6, 4, 2, 61);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let router = HierarchicalRouter::new(&h);
        let n = g.len() as u32;
        let reqs: Vec<_> = (0..n).map(|i| (NodeId(i), NodeId((i + 17) % n))).collect();
        let out = router.route(&reqs, 11).unwrap();
        assert_eq!(out.delivered as u32, n);
        // Hop rounds were recorded for at least one depth.
        assert!(out.hop_rounds() > 0);
    }

    #[test]
    fn routing_without_preparation_still_works() {
        let (g, cfg) = build_case(48, 4, 4, 1, 67);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let rc = RouterConfig {
            prepare: false,
            ..RouterConfig::for_n(48)
        };
        let router = HierarchicalRouter::with_config(&h, rc);
        let reqs: Vec<_> = (0..48u32).map(|i| (NodeId(i), NodeId(47 - i))).collect();
        let out = router.route(&reqs, 13).unwrap();
        assert_eq!(out.delivered, 48);
        assert_eq!(out.prep_rounds, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, cfg) = build_case(48, 4, 4, 1, 71);
        let h = Hierarchy::build(&g, cfg).unwrap();
        let router = HierarchicalRouter::new(&h);
        let reqs: Vec<_> = (0..48u32)
            .map(|i| (NodeId(i), NodeId((i + 5) % 48)))
            .collect();
        let a = router.route(&reqs, 5).unwrap();
        let b = router.route(&reqs, 5).unwrap();
        assert_eq!(a, b);
    }
}
