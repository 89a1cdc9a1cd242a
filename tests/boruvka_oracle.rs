//! Differential oracle for the CONGEST Borůvka baseline, which runs every
//! flood of an MST on one re-armed simulator.
//!
//! The oracle below is the straightforward version written against the
//! public API: a `HashSet` forest, a fresh fleet and a fresh `Simulator`
//! per flood, on the full-sweep reference engine. It must reproduce
//! `congest_boruvka::run_instrumented` with profiling on exactly: tree,
//! rounds, messages, iterations and the traffic profile.

use amt_core::congest::{
    bits_for_value, class, Ctx, Metrics, Observe, ObservedRuns, ProfileConfig, Protocol, RunConfig,
    Simulator, TrafficClass, TrafficProfile,
};
use amt_core::mst::congest_boruvka;
use amt_core::mst::reference::UnionFind;
use amt_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Min-value flood over a fixed port set, stepped every round.
struct Flood {
    ports: Vec<usize>,
    value: u64,
    class: TrafficClass,
}

impl Protocol for Flood {
    type Message = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        for &p in &self.ports {
            ctx.send_classed(p, self.value, self.class);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        let best = inbox.iter().map(|&(_, v)| v).min().unwrap_or(u64::MAX);
        if best < self.value {
            self.value = best;
            for &p in &self.ports {
                ctx.send_classed(p, self.value, self.class);
            }
        }
    }
}

/// What the oracle and the production run are compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    tree: Vec<EdgeId>,
    rounds: u64,
    messages: u64,
    iterations: u32,
    profile: TrafficProfile,
}

/// One flood on a freshly built fleet and simulator.
fn fresh_flood(
    g: &Graph,
    forest: &HashSet<EdgeId>,
    init: &[u64],
    seed: u64,
    class: TrafficClass,
    runs: &mut ObservedRuns,
    metrics: &mut Metrics,
) -> Vec<u64> {
    let nodes = g
        .nodes()
        .map(|v| Flood {
            ports: g
                .neighbors(v)
                .enumerate()
                .filter(|(_, (_, e))| forest.contains(e))
                .map(|(p, _)| p)
                .collect(),
            value: init[v.index()],
            class,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)
        .expect("one node state per node")
        .with_observe(Observe {
            profile: Some(ProfileConfig::default()),
            ..Observe::default()
        });
    let cfg = RunConfig {
        budget_factor: 24,
        ..RunConfig::default()
    }
    .with_full_sweep(true);
    let m = sim
        .run(&cfg)
        .expect("a flood stays within the CONGEST rules");
    runs.absorb(sim.take_observed(), metrics.rounds);
    *metrics = metrics.then(m);
    sim.nodes().iter().map(|p| p.value).collect()
}

/// Borůvka with fragment flooding: candidate flood, centralized merge of
/// the chosen edges, label flood, until one fragment is left.
fn oracle(wg: &WeightedGraph, seed: u64) -> Outcome {
    let g = wg.graph();
    let n = g.len();
    let bits = bits_for_value(wg.edge_count() as u64) + 1;
    let mut comp: Vec<u64> = (0..n as u64).collect();
    let mut forest: HashSet<EdgeId> = HashSet::new();
    let mut runs = ObservedRuns::default();
    let mut metrics = Metrics::default();
    let mut iterations = 0u32;
    while comp.iter().collect::<HashSet<_>>().len() > 1 {
        iterations += 1;
        metrics.rounds += 1;
        let init: Vec<u64> = g
            .nodes()
            .map(|v| {
                wg.min_incident_edge(v, |w| comp[w.index()] != comp[v.index()])
                    .map_or(u64::MAX, |(e, _)| (wg.weight(e) << bits) | u64::from(e.0))
            })
            .collect();
        let it = u64::from(iterations);
        let vals = fresh_flood(
            g,
            &forest,
            &init,
            seed ^ it,
            class::MST_FLOOD,
            &mut runs,
            &mut metrics,
        );
        let mut uf = UnionFind::new(n);
        for &e in &forest {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let chosen: HashSet<EdgeId> = vals
            .iter()
            .filter(|&&x| x != u64::MAX)
            .map(|&x| EdgeId((x & ((1 << bits) - 1)) as u32))
            .collect();
        for e in chosen {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index()) {
                forest.insert(e);
            }
        }
        let labels: Vec<u64> = (0..n as u64).collect();
        comp = fresh_flood(
            g,
            &forest,
            &labels,
            seed ^ 0xF00D ^ it,
            class::MST_LABEL,
            &mut runs,
            &mut metrics,
        );
    }
    let mut tree: Vec<EdgeId> = forest.into_iter().collect();
    tree.sort_unstable();
    Outcome {
        tree,
        rounds: metrics.rounds,
        messages: metrics.messages,
        iterations,
        profile: runs
            .profile
            .unwrap_or_else(|| TrafficProfile::empty(g.edge_count())),
    }
}

fn production(wg: &WeightedGraph, seed: u64) -> Outcome {
    let (out, profile) =
        congest_boruvka::run_instrumented(wg, seed, 1, Some(ProfileConfig::default()))
            .expect("connected");
    Outcome {
        tree: out.tree_edges,
        rounds: out.rounds,
        messages: out.messages,
        iterations: out.iterations,
        profile: profile.unwrap_or_else(|| TrafficProfile::empty(wg.graph().edge_count())),
    }
}

/// A random recursive tree plus `extra` random edges: connected, and with
/// parallel edges when the draws repeat a pair.
fn random_connected(n: usize, extra: usize, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v, rng.random_range(0..v));
    }
    for _ in 0..extra {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rearmed_boruvka_matches_fresh_simulators(
        n in 2usize..40,
        extra in 0usize..60,
        graph_seed in any::<u64>(),
        heavy_ties in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The failing input, so a failure can be replayed.
        let ctx = format!(
            "n {n}, extra {extra}, graph seed {graph_seed}, heavy ties {heavy_ties}, seed {seed}"
        );
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let g = random_connected(n, extra, &mut rng);
        let max_w = if heavy_ties { 3 } else { 1_000_000 };
        let wg = WeightedGraph::with_random_weights(g, max_w, &mut rng);
        prop_assert_eq!(production(&wg, seed), oracle(&wg, seed), "{}", ctx);
    }
}

#[test]
fn rearmed_boruvka_matches_fresh_simulators_on_a_hypercube_and_a_path() {
    let mut rng = StdRng::seed_from_u64(19);
    let cube = WeightedGraph::with_random_weights(generators::hypercube(8), 1_000_000, &mut rng);
    let edges: Vec<(usize, usize)> = (0..95).map(|i| (i, i + 1)).collect();
    let path = Graph::from_edges(96, &edges).expect("a path");
    let path = WeightedGraph::with_random_weights(path, 1_000_000, &mut rng);
    for (name, wg) in [("hypercube(8)", &cube), ("path(96)", &path)] {
        let want = oracle(wg, 5);
        assert_eq!(production(wg, 5), want, "{name}");
        assert_eq!(
            want.tree,
            reference::kruskal(wg).expect("connected"),
            "{name}"
        );
    }
}
