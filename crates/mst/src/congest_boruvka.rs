//! Baseline: Boruvka with fragment flooding in the raw CONGEST simulator
//! (GHS flavor, the pre-sublinear-era algorithm).
//!
//! Per iteration, every fragment floods its minimum-weight outgoing edge
//! along its forest edges until agreement (≈ fragment diameter rounds),
//! merges, and floods the new fragment label the same way. Worst case
//! `O(n log n)` rounds (e.g. on paths); the experiments contrast this with
//! the almost-mixing-time algorithm on expanders.

use crate::{reference::UnionFind, MstError, Result};
use amt_congest::{
    bits_for_value, class, Ctx, Metrics, Observe, Observed, ObservedRuns, PhaseTimings,
    ProfileConfig, Protocol, RunConfig, Simulator, TrafficClass, TrafficProfile,
};
use amt_graphs::{EdgeId, WeightedGraph};
use std::collections::HashSet;
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
            for p in self.active_ports.clone() {
                ctx.send_classed(p, self.value, self.class);
            }
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
            for p in self.active_ports.clone() {
                ctx.send_classed(p, self.value, self.class);
            }
        }
    }
}

/// Floods per-node initial `u64` values to minima over the subgraph whose
/// edges are in `active`, returning the converged values, metrics, and
/// what the `observe` layers recorded. Messages are attributed to `class`.
pub(crate) fn min_flood(
    wg: &WeightedGraph,
    active: &HashSet<EdgeId>,
    init: &[u64],
    seed: u64,
    threads: usize,
    class: TrafficClass,
    observe: &Observe,
) -> Result<(Vec<u64>, Metrics, Observed)> {
    let g = wg.graph();
    let nodes = g
        .nodes()
        .map(|v| MinFlood {
            active_ports: g
                .neighbors(v)
                .enumerate()
                .filter(|(_, (_, e))| active.contains(e))
                .map(|(p, _)| p)
                .collect(),
            value: init[v.index()],
            fresh: true,
            class,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?.with_observe(observe.clone());
    // Candidate values carry (weight, edge id); allow the wider encoding —
    // still O(log n) bits for polynomially bounded weights.
    let cfg = RunConfig {
        budget_factor: 24,
        ..RunConfig::default()
    }
    .with_threads(threads);
    let metrics = sim.run(&cfg)?;
    let observed = sim.take_observed();
    Ok((
        sim.nodes().iter().map(|p| p.value).collect(),
        metrics,
        observed,
    ))
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
    run_with(wg, seed, 0)
}

/// [`run`] with an explicit simulator worker-thread count (`0` = the
/// process default). Outcome and metrics are byte-identical for every
/// `threads` value — the simulator's determinism contract.
///
/// # Errors
///
/// As [`run`].
pub fn run_with(wg: &WeightedGraph, seed: u64, threads: usize) -> Result<CongestMstOutcome> {
    let (out, _) = run_instrumented(wg, seed, threads, None)?;
    Ok(out)
}

/// [`run_with`] with opt-in traffic profiling: when `profile` is set, the
/// returned [`TrafficProfile`] accumulates every flood's traffic across
/// iterations (candidate floods under [`class::MST_FLOOD`], label floods
/// under [`class::MST_LABEL`]), with totals summing exactly to the
/// outcome's message count. Profiling never changes the outcome.
///
/// # Errors
///
/// As [`run`].
pub fn run_instrumented(
    wg: &WeightedGraph,
    seed: u64,
    threads: usize,
    profile: Option<ProfileConfig>,
) -> Result<(CongestMstOutcome, Option<TrafficProfile>)> {
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
    let mut forest: HashSet<EdgeId> = HashSet::new();
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let mut metrics = Metrics::default();
    let mut iterations = 0u32;
    let mut wall = PhaseTimings::new();
    let observe = Observe {
        profile,
        ..Observe::default()
    };
    let mut runs = ObservedRuns::default();
    let cap = 2 * (n.max(2) as f64).log2().ceil() as u32 + 10;

    while comp.iter().collect::<HashSet<_>>().len() > 1 {
        if iterations >= cap {
            return Err(MstError::TooManyIterations { cap });
        }
        iterations += 1;

        // Fragment-id exchange (1 round) so nodes know outgoing edges.
        metrics.rounds += 1;

        // Each node's candidate: its minimum outgoing edge.
        let t0 = Instant::now();
        let init: Vec<u64> = g
            .nodes()
            .map(|v| {
                wg.min_incident_edge(v, |w| comp[w.index()] != comp[v.index()])
                    .map_or(u64::MAX, |(e, _)| encode(wg, e))
            })
            .collect();
        let at = metrics.rounds;
        let (vals, m1, p1) = min_flood(
            wg,
            &forest,
            &init,
            seed ^ u64::from(iterations),
            threads,
            class::MST_FLOOD,
            &observe,
        )?;
        metrics = metrics.then(m1);
        runs.absorb(p1, at);
        wall.record("candidate_flood", t0.elapsed());

        // Merge along every fragment's minimum outgoing edge.
        let t0 = Instant::now();
        let mut uf = UnionFind::new(n);
        for &e in &forest {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let mut chosen: HashSet<EdgeId> = HashSet::new();
        for v in g.nodes() {
            if vals[v.index()] != u64::MAX {
                chosen.insert(decode_edge(wg, vals[v.index()]));
            }
        }
        let mut merged = false;
        for &e in &chosen {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index()) {
                forest.insert(e);
                tree_edges.push(e);
                merged = true;
            }
        }
        debug_assert!(merged, "an iteration must merge at least one fragment");
        wall.record("merge", t0.elapsed());

        // Flood new fragment labels (min node id) over the grown forest.
        let t0 = Instant::now();
        let label_init: Vec<u64> = (0..n as u64).collect();
        let at = metrics.rounds;
        let (labels, m2, p2) = min_flood(
            wg,
            &forest,
            &label_init,
            seed ^ 0xF00D ^ u64::from(iterations),
            threads,
            class::MST_LABEL,
            &observe,
        )?;
        metrics = metrics.then(m2);
        runs.absorb(p2, at);
        comp = labels;
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
        runs.profile,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use amt_graphs::{generators, Graph};
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
