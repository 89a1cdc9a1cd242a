//! The paper's pipeline through the public `System` API: hierarchy build
//! (§3.1), hierarchical routing (§3.2) and the almost-mixing-time MST (§4).

use super::{permutation, Harness};
use crate::stats;
use amt_core::embedding::Hierarchy;
use amt_core::graphs::{generators, Graph, WeightedGraph};
use amt_core::mst::reference;
use amt_core::routing::{EmulationMode, HierarchicalRouter, RouterConfig};
use amt_core::walks::parallel::{degree_proportional_specs, run_parallel_walks};
use amt_core::walks::{route_paths, WalkKind};
use amt_core::System;
use rand::seq::SliceRandom;

const GRAPH: u64 = 1;
const WEIGHTS: u64 = 2;
const COINS: u64 = 3;
const REQUESTS: u64 = 4;
const PROBE: u64 = 5;

/// Random 6-regular expander `k` on `n` nodes — the kind of network every
/// paper workload runs on.
fn expander(h: &Harness, n: usize, k: u64) -> Graph {
    generators::random_regular(n, 6, &mut h.rng(GRAPH, k)).expect("6-regular graph on even n")
}

/// Builds the system `setups` times (identical inputs) and keeps the last.
/// Set-up time is the build alone: the graph is an input, not set-up.
fn build<'g>(h: &mut Harness, g: &'g Graph, levels: u32, setups: usize) -> Option<System<'g>> {
    let seed = h.cfg.seed;
    let mut kept = None;
    let mut rounds = Vec::new();
    for k in 0..setups {
        // One system alive at a time, so peak RSS counts a single build.
        kept = None;
        let (sys, took) = h.timed("system.build", k as u64, || {
            System::builder(g).seed(seed).beta(4).levels(levels).build()
        });
        match sys {
            Ok(sys) => {
                h.setup_done(took);
                rounds.push(sys.build_rounds());
                kept = Some(sys);
            }
            Err(e) => h.check(false, || format!("system build failed: {e}")),
        }
    }
    let stable = rounds.windows(2).all(|w| w[0] == w[1]);
    h.check(stable && !rounds.is_empty(), || {
        format!("repeated builds priced differently: {rounds:?}")
    });
    h.digest(&rounds[..rounds.len().min(1)]);
    kept
}

/// Hierarchy levels of `paper_mst`'s systems. At three levels one n = 32
/// MST takes 0.4–1.3 s; at two it takes 0.1–0.3 s, so a run holds two or
/// more passes over four dozen inputs.
const MST_LEVELS: u32 = 2;

/// Theorem 1.1 end to end: `System::mst` (exact emulation pricing), each
/// result checked against Kruskal. Base input `k` is network `k`, its
/// system, and weights and coins `k`: one MST's time moves 2–4x with the
/// weights and coins and by a quarter with the network and hierarchy, so a
/// run averages over all of them.
pub fn paper_mst(h: &mut Harness) {
    let (n, base) = if h.cfg.smoke { (32, 1) } else { (32, 48) };
    let graphs: Vec<Graph> = (0..base as u64).map(|k| expander(h, n, k)).collect();
    let mut systems = Vec::with_capacity(base);
    let (mut iterations, mut instances, mut rounds, mut mst_s) = (0u64, 0u64, 0u64, 0.0);
    let mut i = 0;
    while h.more(i, base) {
        let k = i % base;
        let g = &graphs[k];
        // Each system is built right before its network's first MST, so the
        // set-up samples spread over the first pass.
        if i < base {
            systems.push(build(h, g, MST_LEVELS, 1));
            if let (true, 0, Some(sys)) = (h.cfg.trace, k, &systems[0]) {
                build_layers(h, g, sys.hierarchy());
                exact_probe(h, sys.hierarchy());
            }
        }
        let Some(sys) = &systems[k] else {
            i += 1;
            continue;
        };
        let op = h.tr.enter("op", i as u64);
        let k = k as u64;
        let wg = WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut h.rng(WEIGHTS, k));
        let coins = h.sub_seed(COINS, k);
        let (out, took) = h.timed("system.mst", i as u64, || sys.mst(&wg, coins));
        match out {
            Ok(out) => {
                let (ok, _) = h.timed("reference.verify_mst", i as u64, || {
                    reference::verify_mst(&wg, &out.tree_edges)
                        && out.total_weight == wg.total_weight(&out.tree_edges)
                });
                h.check(ok, || format!("op {i}: MST differs from Kruskal"));
                h.op_done(took);
                h.outcome(
                    i,
                    base,
                    vec![
                        out.total_weight,
                        out.rounds,
                        u64::from(out.iterations),
                        u64::from(out.routing_instances),
                    ],
                );
                if i < base {
                    iterations += u64::from(out.iterations);
                    instances += u64::from(out.routing_instances);
                    rounds += out.rounds;
                    mst_s += took.as_secs_f64();
                }
            }
            Err(e) => h.check(false, || format!("op {i}: MST failed: {e}")),
        }
        h.tr.exit(op);
        i += 1;
    }
    if h.cfg.trace {
        let l = &mut h.layer;
        l.set("mst.iterations", iterations as f64);
        l.set("mst.routing_instances", instances as f64);
        l.set("mst.base_rounds", rounds as f64);
        l.set("mst.ms_per_instance", 1e3 * mst_s / instances.max(1) as f64);
    }
}

/// Builds timed per `paper_build_route` run: at n = 256 one takes about
/// 1.7 s, and set-up time is the median of them.
const BUILDS: usize = 3;

/// The once-per-network build at n = 256, then uniformly random
/// permutations through `System::route` (factored pricing).
pub fn paper_build_route(h: &mut Harness) {
    let (n, levels, base) = if h.cfg.smoke {
        (128, 2, 10)
    } else {
        (256, 4, 200)
    };
    let g = expander(h, n, 0);
    let Some(sys) = build(h, &g, levels, BUILDS) else {
        return;
    };
    if h.cfg.trace {
        build_layers(h, &g, sys.hierarchy());
    }
    let (mut prep, mut hops, mut bottom) = (0u64, 0u64, 0u64);
    let (mut rounds, mut misses, mut latency) = (0u64, 0u64, Vec::new());
    let mut i = 0;
    while h.more(i, base) {
        let op = h.tr.enter("op", i as u64);
        let k = (i % base) as u64;
        let reqs = permutation(n, &mut h.rng(REQUESTS, k));
        let seed = h.sub_seed(REQUESTS, k);
        let (out, took) = h.timed("system.route", i as u64, || sys.route(&reqs, seed));
        match out {
            Ok(out) => {
                h.check(out.delivered == n && out.undelivered == 0, || {
                    format!("op {i}: delivered {} of {n}", out.delivered)
                });
                h.op_done(took);
                h.outcome(
                    i,
                    base,
                    vec![
                        out.total_base_rounds,
                        out.delivered as u64,
                        out.portal_misses,
                        out.hop_crossings,
                        out.bottom_crossings,
                    ],
                );
                if i < base {
                    prep += out.wall.nanos("prep");
                    hops += out.wall.nanos("hops");
                    bottom += out.wall.nanos("bottom");
                    rounds += out.total_base_rounds;
                    misses += out.portal_misses;
                    latency.push(took.as_secs_f64());
                }
            }
            Err(e) => h.check(false, || format!("op {i}: route failed: {e}")),
        }
        h.tr.exit(op);
        i += 1;
    }
    if h.cfg.trace {
        let l = &mut h.layer;
        l.set("routing.prep_s", prep as f64 * 1e-9);
        l.set("routing.hops_s", hops as f64 * 1e-9);
        l.set("routing.bottom_s", bottom as f64 * 1e-9);
        l.set("routing.base_rounds", rounds as f64);
        l.set("routing.portal_misses", misses as f64);
        // The 200 base routes leave exactly ten beyond the 95th percentile.
        if stats::tail_percentile(latency.len()) >= Some(95) {
            l.set(
                "routing.route_ms_p95",
                1e3 * stats::percentile(&latency, 95.0),
            );
        }
    }
}

/// The build's layers: construction phase walls and priced cost
/// (`BuildStats`), then the scheduler and walk-engine probes. Run right
/// after the build, so host speed drifts as little as possible between the
/// build and the probes `walks.schedule.build_share` compares it with.
fn build_layers(h: &mut Harness, g: &Graph, hier: &Hierarchy<'_>) {
    let wall = &hier.stats.wall;
    let l = &mut h.layer;
    l.set("embedding.level0_s", wall.nanos("level0") as f64 * 1e-9);
    l.set(
        "embedding.walk_levels_s",
        wall.nanos("walk_levels") as f64 * 1e-9,
    );
    l.set("embedding.bottom_s", wall.nanos("bottom") as f64 * 1e-9);
    l.set("embedding.portals_s", wall.nanos("portals") as f64 * 1e-9);
    l.set("embedding.base_rounds", hier.stats.total_base_rounds as f64);
    schedule_probe(h, hier);
    parallel_probe(h, g, hier);
}

/// The path scheduler on every overlay level's full-round path set (every
/// overlay edge carrying one message each way) — the schedules the build
/// prices.
fn schedule_probe(h: &mut Harness, hier: &Hierarchy<'_>) {
    let probe = h.tr.enter("probe.walks.schedule", 0);
    let (mut l0_s, mut l0_n, mut up_s, mut up_n) = (0.0, 0u64, 0.0, 0u64);
    for d in 0..=hier.depth() {
        let ov = hier.overlay(d);
        let paths: Vec<Vec<u64>> = ov
            .graph()
            .edges()
            .flat_map(|(e, _, _)| [ov.key_path(e, true), ov.key_path(e, false)])
            .collect();
        let (sched, took) = h.timed("walks.route_paths", u64::from(d), || route_paths(&paths, 1));
        if d == 0 {
            (l0_s, l0_n) = (took.as_secs_f64(), sched.traversals);
        } else {
            up_s += took.as_secs_f64();
            up_n += sched.traversals;
        }
    }
    h.tr.exit(probe);
    let busy = l0_s + up_s;
    let build_s = hier.stats.wall.total_nanos() as f64 * 1e-9;
    let l = &mut h.layer;
    l.set("walks.schedule.busy_s", busy);
    l.set(
        "walks.schedule.ns_per_traversal_l0",
        1e9 * l0_s / l0_n.max(1) as f64,
    );
    l.set(
        "walks.schedule.ns_per_traversal_upper",
        1e9 * up_s / up_n.max(1) as f64,
    );
    l.set("walks.schedule.traversals", (l0_n + up_n) as f64);
    l.set("walks.schedule.build_share", busy / build_s.max(1e-9));
}

/// The walk engine on the Lemma 2.5 spec set the level-0 embedding runs:
/// `level0_walks · d(v)` lazy walks of `τ_mix` steps from every node.
fn parallel_probe(h: &mut Harness, g: &Graph, hier: &Hierarchy<'_>) {
    let specs = degree_proportional_specs(g, hier.cfg().level0_walks, hier.cfg().tau_mix);
    let mut rng = h.rng(PROBE, 0);
    let probe = h.tr.enter("probe.walks.parallel", 0);
    let (run, took) = h.timed("walks.run_parallel_walks", 0, || {
        run_parallel_walks(g, WalkKind::Lazy, &specs, &mut rng)
    });
    h.tr.exit(probe);
    let l = &mut h.layer;
    l.set("walks.parallel.busy_s", took.as_secs_f64());
    l.set(
        "walks.parallel.ns_per_traversal",
        1e9 * took.as_secs_f64() / run.stats.traversals.max(1) as f64,
    );
}

/// Random partial permutations (half the nodes send) routed with exact
/// recursive emulation pricing — the router configuration `System::mst`
/// uses — to attribute routing wall to emulation pricing.
fn exact_probe(h: &mut Harness, hier: &Hierarchy<'_>) {
    let n = hier.base().len();
    let router = HierarchicalRouter::with_config(
        hier,
        RouterConfig {
            emulation: EmulationMode::Exact,
            ..RouterConfig::for_n(n)
        },
    );
    let count = if h.cfg.smoke { 3 } else { 16 };
    let probe = h.tr.enter("probe.routing.exact", 0);
    let (mut lat, mut emulation_ns) = (Vec::new(), 0u64);
    for j in 0..count {
        let mut rng = h.rng(PROBE, 1 + j);
        let mut reqs = permutation(n, &mut rng);
        reqs.shuffle(&mut rng);
        reqs.truncate(n / 2);
        let seed = h.sub_seed(PROBE, 1 + j);
        let (out, took) = h.timed("routing.exact_route", j, || router.route(&reqs, seed));
        match out {
            Ok(out) => {
                h.check(out.delivered == reqs.len(), || {
                    format!(
                        "exact probe {j}: delivered {} of {}",
                        out.delivered,
                        reqs.len()
                    )
                });
                emulation_ns += out.wall.nanos("hops") + out.wall.nanos("bottom");
                lat.push(took.as_secs_f64());
            }
            Err(e) => h.check(false, || format!("exact probe {j}: {e}")),
        }
    }
    h.tr.exit(probe);
    if !lat.is_empty() {
        let l = &mut h.layer;
        l.set("routing.exact_route_ms_p50", 1e3 * stats::median(&lat));
        l.set(
            "routing.exact_emulation_share",
            emulation_ns as f64 * 1e-9 / lat.iter().sum::<f64>(),
        );
    }
}
