//! Baseline: Boruvka with fragment flooding in the raw CONGEST simulator
//! (GHS flavor, the pre-sublinear-era algorithm).
//!
//! Per iteration, every fragment floods its minimum-weight outgoing edge
//! along its forest edges until agreement (≈ fragment diameter rounds),
//! merges, and floods the new fragment label the same way. Worst case
//! `O(n log n)` rounds (e.g. on paths); the experiments contrast this with
//! the almost-mixing-time algorithm on expanders.
//!
//! [`run`] is the plain entry point and [`run_observed`] the same run with
//! the observation layers of an [`Observe`] on.

use crate::{reference::UnionFind, MstError, Result};
use amt_congest::{
    bits_for_value, class, Ctx, Metrics, Observe, Observed, ObservedRuns, PhaseTimings,
    ProfileConfig, Protocol, RunConfig, Simulator, TrafficClass, TrafficProfile,
};
use amt_graphs::{EdgeId, Graph, NodeId, WeightedGraph};
use std::time::Instant;

/// Outcome of the CONGEST Boruvka baseline.
#[derive(Clone, Debug)]
pub struct CongestMstOutcome {
    /// The MST edges (sorted); equal to the canonical Kruskal MST.
    pub tree_edges: Vec<EdgeId>,
    /// Total tree weight.
    pub total_weight: u64,
    /// Measured CONGEST rounds over all iterations.
    pub rounds: u64,
    /// Boruvka iterations executed.
    pub iterations: u32,
    /// Total messages sent.
    pub messages: u64,
    /// Host wall-clock time per stage (`"candidate_flood"`,
    /// `"label_flood"`, `"merge"` entries, accumulated over iterations).
    pub wall: PhaseTimings,
}

/// Flooding protocol restricted to a set of active ports: every node floods
/// the minimum `u64` value it has seen.
struct MinFlood {
    active_ports: Vec<usize>,
    value: u64,
    fresh: bool,
    /// Traffic class this flood's messages are attributed to (candidate
    /// floods vs. label floods).
    class: TrafficClass,
}

impl MinFlood {
    fn send_value(&self, ctx: &mut Ctx<'_, u64>) {
        for &p in &self.active_ports {
            ctx.send_classed(p, self.value, self.class);
        }
    }
}

impl Protocol for MinFlood {
    type Message = u64;

    // Purely mail-driven: an empty-inbox round improves nothing and sends
    // nothing, so skipped rounds are no-ops and the active-set engine can
    // step only nodes holding mail (label settling is exactly the sparse
    // phase ROADMAP item 1 targets).
    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.fresh {
            self.fresh = false;
            self.send_value(ctx);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        let mut improved = false;
        for &(_, v) in inbox {
            if v < self.value {
                self.value = v;
                improved = true;
            }
        }
        if improved {
            self.send_value(ctx);
        }
    }
}

/// One [`Simulator`] running every [`MinFlood`] of a run: each flood
/// re-arms the same fleet in place instead of building a fleet and a CSR
/// anew. [`MinFlood`] draws no randomness, so the node streams the
/// simulator was seeded with once are never read.
pub(crate) struct Flooder<'g> {
    graph: &'g Graph,
    sim: Simulator<'g, MinFlood>,
}

impl<'g> Flooder<'g> {
    /// A flooder over `graph`, its simulator seeded with `seed`, whose
    /// floods record what `observe` asks for.
    pub(crate) fn new(graph: &'g Graph, seed: u64, observe: Observe) -> Result<Self> {
        let nodes = graph
            .nodes()
            .map(|_| MinFlood {
                active_ports: Vec::new(),
                value: u64::MAX,
                fresh: false,
                class: class::MST_FLOOD,
            })
            .collect();
        Ok(Flooder {
            graph,
            sim: Simulator::new(graph, nodes, seed)?.with_observe(observe),
        })
    }

    /// Arms the next flood: node `v` starts from `init(v)`, floods over the
    /// edges `forest` marks (indexed by [`EdgeId`]) and attributes its
    /// messages to `class`.
    fn arm(&mut self, forest: &[bool], mut init: impl FnMut(NodeId) -> u64, class: TrafficClass) {
        let g = self.graph;
        for (node, v) in self.sim.nodes_mut().iter_mut().zip(g.nodes()) {
            node.active_ports.clear();
            node.active_ports.extend(
                g.neighbors(v)
                    .enumerate()
                    .filter(|&(_, (_, e))| forest[e.index()])
                    .map(|(p, _)| p),
            );
            node.value = init(v);
            node.fresh = true;
            node.class = class;
        }
    }

    /// Floods per-node initial values `init(v)` to minima over the subgraph
    /// of the edges `forest` marks, returning the flood's metrics and what
    /// the observation layers recorded; [`Self::values`] then holds the
    /// converged values. Messages are attributed to `class`.
    pub(crate) fn flood(
        &mut self,
        forest: &[bool],
        init: impl FnMut(NodeId) -> u64,
        class: TrafficClass,
    ) -> Result<(Metrics, Observed)> {
        self.arm(forest, init, class);
        // Candidate values carry (weight, edge id); allow the wider
        // encoding — still O(log n) bits for polynomially bounded weights.
        let cfg = RunConfig {
            budget_factor: 24,
            ..RunConfig::default()
        };
        let metrics = self.sim.run(&cfg)?;
        Ok((metrics, self.sim.take_observed()))
    }

    /// Each node's value after the last flood, in node order.
    pub(crate) fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.sim.nodes().iter().map(|p| p.value)
    }
}

/// Encodes a `(canonical weight, edge)` candidate as one orderable `u64`.
pub(crate) fn encode(wg: &WeightedGraph, e: EdgeId) -> u64 {
    let bits = bits_for_value(wg.edge_count() as u64) + 1;
    (wg.weight(e) << bits) | u64::from(e.0)
}

pub(crate) fn decode_edge(wg: &WeightedGraph, v: u64) -> EdgeId {
    let bits = bits_for_value(wg.edge_count() as u64) + 1;
    EdgeId((v & ((1 << bits) - 1)) as u32)
}

/// Runs the baseline; weights must satisfy `weight · 2m < 2^63` (checked).
///
/// # Errors
///
/// [`MstError::Graph`] on disconnected input, [`MstError::Congest`] on
/// simulator violations, [`MstError::TooManyIterations`] as a bug guard.
pub fn run(wg: &WeightedGraph, seed: u64) -> Result<CongestMstOutcome> {
    let (out, _) = run_observed(wg, seed, Observe::default())?;
    Ok(out)
}

/// [`run`] with every flood observed by the `observe` layers, folded
/// across iterations into one [`ObservedRuns`]. The profile puts candidate
/// floods under [`class::MST_FLOOD`] and label floods under
/// [`class::MST_LABEL`], with totals summing exactly to the outcome's
/// message count. No layer changes the outcome.
///
/// # Errors
///
/// As [`run`].
pub fn run_observed(
    wg: &WeightedGraph,
    seed: u64,
    observe: Observe,
) -> Result<(CongestMstOutcome, ObservedRuns)> {
    let g = wg.graph();
    g.require_connected()?;
    let n = g.len();
    let bits = bits_for_value(wg.edge_count() as u64) + 1;
    if let Some(max_w) = wg.weights().iter().max() {
        assert!(
            max_w.leading_zeros() as usize > bits,
            "weights too large for the candidate encoding"
        );
    }
    let mut comp: Vec<u64> = (0..n as u64).collect();
    let mut fragments = n;
    let mut forest = vec![false; wg.edge_count()];
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut metrics = Metrics::default();
    let mut iterations = 0u32;
    let mut wall = PhaseTimings::new();
    let mut flooder = Flooder::new(g, seed, observe)?;
    let mut runs = ObservedRuns::default();
    let cap = 2 * (n.max(2) as f64).log2().ceil() as u32 + 10;

    while fragments > 1 {
        if iterations >= cap {
            return Err(MstError::TooManyIterations { cap });
        }
        iterations += 1;

        // Fragment-id exchange (1 round) so nodes know outgoing edges.
        metrics.rounds += 1;

        // Each node's candidate: its minimum outgoing edge.
        let t0 = Instant::now();
        let at = metrics.rounds;
        let (m1, p1) = flooder.flood(
            &forest,
            |v| {
                wg.min_incident_edge(v, |w| comp[w.index()] != comp[v.index()])
                    .map_or(u64::MAX, |(e, _)| encode(wg, e))
            },
            class::MST_FLOOD,
        )?;
        metrics = metrics.then(m1);
        runs.absorb(p1, at);
        wall.record("candidate_flood", t0.elapsed());

        // Merge along every fragment's minimum outgoing edge.
        let t0 = Instant::now();
        let mut uf = UnionFind::new(n);
        for &e in &tree_edges {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        chosen.clear();
        chosen.extend(
            flooder
                .values()
                .filter(|&val| val != u64::MAX)
                .map(|val| decode_edge(wg, val)),
        );
        chosen.sort_unstable();
        chosen.dedup();
        let mut merged = false;
        for &e in &chosen {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index()) {
                forest[e.index()] = true;
                tree_edges.push(e);
                merged = true;
            }
        }
        debug_assert!(merged, "an iteration must merge at least one fragment");
        wall.record("merge", t0.elapsed());

        // Flood new fragment labels (min node id) over the grown forest.
        let t0 = Instant::now();
        let at = metrics.rounds;
        let (m2, p2) = flooder.flood(&forest, |v| v.index() as u64, class::MST_LABEL)?;
        metrics = metrics.then(m2);
        runs.absorb(p2, at);
        comp.clear();
        comp.extend(flooder.values());
        // A fragment's label is its minimum node id: one root per fragment.
        fragments = comp
            .iter()
            .enumerate()
            .filter(|&(v, &c)| c == v as u64)
            .count();
        wall.record("label_flood", t0.elapsed());
    }

    tree_edges.sort_unstable();
    Ok((
        CongestMstOutcome {
            total_weight: wg.total_weight(&tree_edges),
            tree_edges,
            rounds: metrics.rounds,
            iterations,
            messages: metrics.messages,
            wall,
        },
        runs,
    ))
}

/// [`run_observed`] with the profile layer, as a tuple. `_threads` is
/// ignored.
///
/// Kept for the repository benchmark's pinned call; use [`run_observed`].
#[doc(hidden)]
pub fn run_instrumented(
    wg: &WeightedGraph,
    seed: u64,
    _threads: usize,
    profile: Option<ProfileConfig>,
) -> Result<(CongestMstOutcome, Option<TrafficProfile>)> {
    let observe = Observe {
        profile: profile.is_some(),
        ..Observe::default()
    };
    let (out, runs) = run_observed(wg, seed, observe)?;
    Ok((out, runs.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use amt_congest::oracle::assert_engines_agree;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_kruskal_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(21);
        for i in 0..5 {
            let g = generators::connected_erdos_renyi(48, 0.12, 50, &mut rng).unwrap();
            let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
            let out = run(&wg, i).unwrap();
            assert_eq!(out.tree_edges, reference::kruskal(&wg).unwrap(), "case {i}");
            assert!(out.rounds > 0);
            assert!(out.iterations <= 10);
        }
    }

    #[test]
    fn slow_on_paths_fast_on_expanders() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = 128;
        let path_edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let path = Graph::from_edges(n, &path_edges).unwrap();
        let wgp = WeightedGraph::with_random_weights(path, 1000, &mut rng);
        let exp = generators::random_regular(n, 6, &mut rng).unwrap();
        let wge = WeightedGraph::with_random_weights(exp, 1000, &mut rng);
        let rp = run(&wgp, 1).unwrap();
        let re = run(&wge, 1).unwrap();
        assert!(reference::verify_mst(&wgp, &rp.tree_edges));
        assert!(reference::verify_mst(&wge, &re.tree_edges));
        assert!(
            rp.rounds > 2 * re.rounds,
            "path {} rounds should far exceed expander {}",
            rp.rounds,
            re.rounds
        );
    }

    /// The MST minus every third of its edges: a forest of multi-node
    /// fragments, so a flood over it has nodes that sit rounds out.
    fn partial_forest(wg: &WeightedGraph) -> Vec<bool> {
        let mut forest = vec![false; wg.edge_count()];
        for (i, e) in reference::kruskal(wg).unwrap().into_iter().enumerate() {
            forest[e.index()] = i % 3 != 0;
        }
        forest
    }

    /// Each node's fragment label (minimum node id), computed centrally.
    fn central_labels(g: &Graph, forest: &[bool]) -> Vec<u64> {
        let mut uf = UnionFind::new(g.len());
        for (e, u, v) in g.edges() {
            if forest[e.index()] {
                uf.union(u.index(), v.index());
            }
        }
        let mut min = vec![u64::MAX; g.len()];
        for v in 0..g.len() {
            let r = uf.find(v);
            min[r] = min[r].min(v as u64);
        }
        (0..g.len()).map(|v| min[uf.find(v)]).collect()
    }

    /// Puts one flood over `forest` through the engine-equivalence oracle,
    /// on a fresh flooder and on one re-armed after a label flood over
    /// `tree`, and checks the converged values against `want`.
    fn assert_flood_agrees(
        g: &Graph,
        forest: &[bool],
        tree: &[bool],
        init: &dyn Fn(NodeId) -> u64,
        class: TrafficClass,
        want: &[u64],
    ) {
        let cfg = RunConfig {
            budget_factor: 24,
            ..RunConfig::default()
        };
        let observe = |rearmed: bool| {
            assert_engines_agree(
                || {
                    let mut flooder = Flooder::new(g, 0, Observe::default()).unwrap();
                    if rearmed {
                        flooder
                            .flood(tree, |v| v.index() as u64, class::MST_LABEL)
                            .unwrap();
                    }
                    flooder.arm(forest, init, class);
                    flooder.sim
                },
                &cfg,
                |p| p.value,
            )
        };
        let fresh = observe(false);
        assert_eq!(fresh.outputs, want, "{class} flood values");
        assert_eq!(observe(true), fresh, "{class} flood, re-armed");
    }

    /// A candidate flood and a label flood over a partial MST forest,
    /// checked against the centrally computed fragment minima.
    fn assert_floods_agree(wg: &WeightedGraph) {
        let g = wg.graph();
        let forest = partial_forest(wg);
        let mut tree = vec![false; wg.edge_count()];
        for e in reference::kruskal(wg).unwrap() {
            tree[e.index()] = true;
        }
        let comp = central_labels(g, &forest);
        let candidate = |v: NodeId| {
            wg.min_incident_edge(v, |w| comp[w.index()] != comp[v.index()])
                .map_or(u64::MAX, |(e, _)| encode(wg, e))
        };
        let mut best = vec![u64::MAX; g.len()];
        for v in g.nodes() {
            let c = comp[v.index()] as usize;
            best[c] = best[c].min(candidate(v));
        }
        let fragment_min: Vec<u64> = comp.iter().map(|&c| best[c as usize]).collect();
        let label = |v: NodeId| v.index() as u64;
        assert_flood_agrees(
            g,
            &forest,
            &tree,
            &candidate,
            class::MST_FLOOD,
            &fragment_min,
        );
        assert_flood_agrees(g, &forest, &tree, &label, class::MST_LABEL, &comp);
    }

    #[test]
    fn min_floods_agree_across_engines_on_a_random_graph() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::connected_erdos_renyi(48, 0.12, 50, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        assert_floods_agree(&wg);
    }

    #[test]
    fn min_floods_agree_across_engines_on_a_path() {
        let mut rng = StdRng::seed_from_u64(24);
        let edges: Vec<_> = (0..63).map(|i| (i, i + 1)).collect();
        let path = Graph::from_edges(64, &edges).unwrap();
        let wg = WeightedGraph::with_random_weights(path, 1000, &mut rng);
        assert_floods_agree(&wg);
    }

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let wg = WeightedGraph::new(g, vec![1, 2]).unwrap();
        assert!(matches!(run(&wg, 0), Err(MstError::Graph(_))));
    }

    #[test]
    fn candidate_encoding_roundtrips() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let wg = WeightedGraph::new(g, vec![10, 20, 30]).unwrap();
        for (e, _, _) in wg.graph().edges() {
            assert_eq!(decode_edge(&wg, encode(&wg, e)), e);
        }
        // Ordering by encoded value matches canonical weight order.
        assert!(encode(&wg, EdgeId(0)) < encode(&wg, EdgeId(1)));
    }
}
