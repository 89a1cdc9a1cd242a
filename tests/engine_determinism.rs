//! Acceptance tests for the simulator's determinism contract: protocol
//! results and `Metrics` are byte-identical for the same seed on a repeat
//! run and under node-visit-order reversal, on the repo's real workloads
//! (parallel walks, Boruvka MST) and a routing-style packet-forwarding
//! protocol — including that workload under a pure topology-churn plan,
//! where the loss pattern itself is part of the contract.

use amt_core::congest::{
    class, Ctx, Metrics, Observe, Protocol, RunConfig, Simulator, StopCondition,
};
use amt_core::mst::congest_boruvka;
use amt_core::prelude::*;
use amt_core::walks::congest_exec::run_walks_in_congest;
use amt_core::walks::parallel::degree_proportional_specs;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn walk_runs_are_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(31);
    let g = generators::random_regular(96, 6, &mut rng).unwrap();
    let specs = degree_proportional_specs(&g, 3, 24);
    for seed in [0u64, 7, 1234] {
        let baseline = run_walks_in_congest(&g, WalkKind::Lazy, &specs, seed).unwrap();
        let run = run_walks_in_congest(&g, WalkKind::Lazy, &specs, seed).unwrap();
        assert_eq!(
            run.endpoints, baseline.endpoints,
            "seed {seed}: endpoints diverged"
        );
        assert_eq!(
            run.metrics, baseline.metrics,
            "seed {seed}: metrics diverged"
        );
    }
}

#[test]
fn boruvka_runs_are_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = generators::connected_erdos_renyi(64, 0.1, 50, &mut rng).unwrap();
    let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
    for seed in [2u64, 99] {
        let baseline = congest_boruvka::run(&wg, seed).unwrap();
        assert_eq!(
            baseline.tree_edges,
            amt_core::mst::reference::kruskal(&wg).unwrap()
        );
        let run = congest_boruvka::run(&wg, seed).unwrap();
        assert_eq!(run.tree_edges, baseline.tree_edges);
        assert_eq!(run.total_weight, baseline.total_weight);
        assert_eq!(run.rounds, baseline.rounds, "seed {seed}: rounds diverged");
        assert_eq!(
            run.messages, baseline.messages,
            "seed {seed}: messages diverged"
        );
        assert_eq!(run.iterations, baseline.iterations);
    }
}

/// A transparent per-token reference stepper for the batched walk engine:
/// same canonical draw order (occupied nodes ascending, tokens within a
/// node longest-remaining-walk first, ties in spec order), same directed
/// edge keys, but stepped one token at a time with plain `Vec`s and
/// brute-force synchronous accounting at each step boundary.
mod walk_reference {
    use amt_core::graphs::Graph;
    use amt_core::prelude::WalkKind;
    use amt_core::walks::parallel::WalkSpec;
    use rand::Rng;

    pub const STAY: u32 = u32::MAX;

    pub struct RefRun {
        /// Per walk: node positions, length `steps + 1`.
        pub nodes: Vec<Vec<u32>>,
        /// Per walk: directed edge key per step (`STAY` = stayed).
        pub keys: Vec<Vec<u32>>,
        pub rounds: u64,
        pub per_step_rounds: Vec<u32>,
        pub node_token_peaks: Vec<u32>,
        pub traversals: u64,
    }

    pub fn run<R: Rng>(g: &Graph, kind: WalkKind, specs: &[WalkSpec], rng: &mut R) -> RefRun {
        let steps = specs.iter().map(|s| s.steps).max().unwrap_or(0);
        let delta = g.max_degree();
        let mut nodes: Vec<Vec<u32>> = specs.iter().map(|s| vec![s.start.0]).collect();
        let mut keys: Vec<Vec<u32>> = specs.iter().map(|_| Vec::new()).collect();
        let occupancy = |nodes: &[Vec<u32>], b: usize| {
            let mut occ = vec![0u32; g.len()];
            for (w, path) in nodes.iter().enumerate() {
                let b = b.min(specs[w].steps as usize);
                occ[path[b] as usize] += 1;
            }
            occ
        };
        let mut peaks = occupancy(&nodes, 0);
        let mut per_step_rounds = Vec::new();
        let mut traversals = 0u64;
        for s in 0..steps {
            // Canonical order: stable sort of the active walks by
            // (current node, remaining steps descending).
            let mut active: Vec<usize> = (0..specs.len()).filter(|&w| specs[w].steps > s).collect();
            active.sort_by_key(|&w| (nodes[w][s as usize], std::cmp::Reverse(specs[w].steps)));
            let mut loads = vec![0u32; 2 * g.edge_count()];
            let mut max_load = 0u32;
            for w in active {
                let here = amt_core::graphs::NodeId(nodes[w][s as usize]);
                match kind.step(g, here, delta, rng) {
                    Some((next, edge)) => {
                        let (a, _) = g.endpoints(edge);
                        let key = edge.index() * 2 + usize::from(a != here);
                        loads[key] += 1;
                        max_load = max_load.max(loads[key]);
                        nodes[w].push(next.0);
                        keys[w].push(key as u32);
                        traversals += 1;
                    }
                    None => {
                        nodes[w].push(here.0);
                        keys[w].push(STAY);
                    }
                }
            }
            per_step_rounds.push(max_load.max(1));
            let occ = occupancy(&nodes, s as usize + 1);
            for (p, &o) in peaks.iter_mut().zip(&occ) {
                *p = (*p).max(o);
            }
        }
        RefRun {
            nodes,
            keys,
            rounds: per_step_rounds.iter().map(|&r| u64::from(r)).sum(),
            per_step_rounds,
            node_token_peaks: peaks,
            traversals,
        }
    }
}

/// The batched engine is byte-identical — per-walk key sequences, ends,
/// positions re-derived from the keys, rounds, peaks — to the per-token
/// reference stepper for the same seed, across walk kinds and
/// heterogeneous walk lengths; a walk's log rows after its last step hold
/// `STAY_KEY`.
#[test]
fn batched_engine_matches_per_token_reference() {
    use amt_core::walks::parallel::{run_parallel_walks, STAY_KEY};
    let mut rng = StdRng::seed_from_u64(19);
    let g = generators::random_regular(64, 6, &mut rng).unwrap();
    let mut specs = degree_proportional_specs(&g, 2, 18);
    for (i, s) in specs.iter_mut().enumerate() {
        s.steps = 3 + (i % 16) as u32;
    }
    for kind in [WalkKind::Lazy, WalkKind::DeltaRegular] {
        for seed in [0u64, 41, 9000] {
            let run = run_parallel_walks(&g, kind, &specs, &mut StdRng::seed_from_u64(seed));
            let reference = walk_reference::run(&g, kind, &specs, &mut StdRng::seed_from_u64(seed));
            for (w, spec) in specs.iter().enumerate() {
                let t = run.trajectory(w);
                let keys: Vec<u32> = (0..spec.steps as usize)
                    .map(|s| run.arena.edge_key(w, s))
                    .collect();
                assert_eq!(
                    keys, reference.keys[w],
                    "{kind:?} seed {seed} walk {w}: keys diverged"
                );
                assert_eq!(
                    t.end().0,
                    *reference.nodes[w].last().unwrap(),
                    "{kind:?} seed {seed} walk {w}: ends diverged"
                );
                let positions: Vec<u32> = t.positions(&g).map(|v| v.0).collect();
                assert_eq!(
                    positions, reference.nodes[w],
                    "{kind:?} seed {seed} walk {w}: re-derived positions diverged"
                );
                for s in spec.steps..run.stats.steps {
                    assert_eq!(
                        run.arena.edge_key(w, s as usize),
                        STAY_KEY,
                        "{kind:?} seed {seed} walk {w} step {s}: finished walk moved"
                    );
                }
            }
            assert_eq!(run.stats.rounds, reference.rounds, "{kind:?} seed {seed}");
            assert_eq!(run.stats.per_step_rounds, reference.per_step_rounds);
            assert_eq!(run.stats.node_token_peaks, reference.node_token_peaks);
            assert_eq!(run.stats.traversals, reference.traversals);
        }
    }
}

/// The correlated engine's claimed statistics all re-derive exactly from
/// its own key log: rounds from the per-step directed-key loads, peaks
/// from synchronous occupancy recounts over positions re-derived from the
/// starts and the keys, traversals from the non-stay steps — and repeated
/// runs are byte-identical.
#[test]
fn correlated_engine_stats_re_derive_from_the_log() {
    use amt_core::walks::parallel::{run_correlated_walks, STAY_KEY};
    let mut rng = StdRng::seed_from_u64(23);
    let g = generators::random_regular(96, 4, &mut rng).unwrap();
    let mut specs = degree_proportional_specs(&g, 2, 20);
    for (i, s) in specs.iter_mut().enumerate() {
        s.steps = 2 + (i % 19) as u32;
    }
    let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
    let again = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
    assert_eq!(
        run.arena, again.arena,
        "correlated runs must be deterministic"
    );

    let steps = run.stats.steps as usize;
    let mut traversals = 0u64;
    let mut per_step = Vec::with_capacity(steps);
    for s in 0..steps {
        let mut loads = vec![0u32; 2 * g.edge_count()];
        let mut max_load = 0u32;
        for w in 0..run.len() {
            let key = run.arena.edge_key(w, s);
            if key != STAY_KEY {
                loads[key as usize] += 1;
                max_load = max_load.max(loads[key as usize]);
                traversals += 1;
            }
        }
        per_step.push(max_load.max(1));
    }
    assert_eq!(run.stats.per_step_rounds, per_step);
    assert_eq!(
        run.stats.rounds,
        per_step.iter().map(|&r| u64::from(r)).sum::<u64>()
    );
    assert_eq!(run.stats.traversals, traversals);

    // Each walk's position at every boundary, re-derived from its start
    // and keys; a finished walk sits at its end.
    let positions: Vec<Vec<NodeId>> = run
        .trajectories()
        .map(|t| {
            let mut at: Vec<NodeId> = t.positions(&g).collect();
            assert_eq!(at.last(), Some(&t.end()));
            at.resize(steps + 1, t.end());
            at
        })
        .collect();
    let mut peaks = vec![0u32; g.len()];
    for b in 0..=steps {
        let mut occ = vec![0u32; g.len()];
        for at in &positions {
            occ[at[b].index()] += 1;
        }
        for (p, &o) in peaks.iter_mut().zip(&occ) {
            *p = (*p).max(o);
        }
    }
    assert_eq!(run.stats.node_token_peaks, peaks);
}

/// A routing-style workload: each node holds packets addressed to random
/// destinations and forwards one per port per round along greedy
/// hypercube-bit-fixing routes, with randomized tie-breaking — the message
/// pattern of the paper's permutation-routing experiments.
struct BitFixRouter {
    me: u32,
    /// Packets resident here: destination node ids.
    packets: Vec<u32>,
    delivered: u64,
    checksum: u64,
}

impl BitFixRouter {
    fn absorb_or_queue(&mut self, dst: u32) {
        if dst == self.me {
            self.delivered += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(131)
                .wrapping_add(u64::from(dst) + 1);
        } else {
            self.packets.push(dst);
        }
    }

    fn forward(&mut self, ctx: &mut Ctx<'_, u32>) {
        use rand::RngExt;
        // Greedy bit fixing: one packet per port per round; leftovers
        // wait. Random shuffle makes the schedule RNG-sensitive, so any
        // order dependence in the executor would show up here.
        let mut pending = std::mem::take(&mut self.packets);
        for i in (1..pending.len()).rev() {
            let j = ctx.rng().random_range(0..=(i as u64)) as usize;
            pending.swap(i, j);
        }
        let mut used = vec![false; ctx.degree()];
        for dst in pending {
            if dst == self.me {
                // A packet born at its own destination.
                self.absorb_or_queue(dst);
                continue;
            }
            // Correct the lowest differing bit: find the port leading to
            // me with that bit flipped (port order is generator-defined).
            let target = self.me ^ (1 << (dst ^ self.me).trailing_zeros());
            let port = (0..ctx.degree())
                .find(|&p| ctx.neighbor(p).index() as u32 == target)
                .expect("hypercube neighbor must exist");
            if used[port] {
                self.packets.push(dst);
            } else {
                used[port] = true;
                ctx.send(port, dst);
            }
        }
    }
}

impl Protocol for BitFixRouter {
    type Message = u32;

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.forward(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
        for &(_, dst) in inbox {
            self.absorb_or_queue(dst);
        }
        self.forward(ctx);
    }

    fn is_done(&self) -> bool {
        self.packets.is_empty()
    }
}

#[test]
fn routing_runs_are_identical_on_repeat_and_reversed_visit() {
    let dim = 6;
    let n = 1usize << dim;
    let g = generators::hypercube(dim as u32);
    let run = |seed: u64, reverse: bool| -> (Metrics, Vec<(u64, u64)>) {
        use rand::RngExt;
        // The workload itself is seed-derived.
        let mut wl = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let nodes = (0..n)
            .map(|v| BitFixRouter {
                me: v as u32,
                packets: (0..4)
                    .map(|_| wl.random_range(0..n as u64) as u32)
                    .collect(),
                delivered: 0,
                checksum: 0,
            })
            .collect();
        let mut sim = Simulator::new(&g, nodes, seed).unwrap();
        let cfg = RunConfig {
            stop: StopCondition::AllDone,
            ..RunConfig::default()
        };
        let m = if reverse {
            sim.run_reverse_visit(&cfg).unwrap()
        } else {
            sim.run(&cfg).unwrap()
        };
        let state = sim
            .nodes()
            .iter()
            .map(|p| (p.delivered, p.checksum))
            .collect();
        (m, state)
    };
    for seed in [3u64, 41] {
        let (m1, s1) = run(seed, false);
        assert_eq!(
            s1.iter().map(|&(d, _)| d).sum::<u64>(),
            4 * n as u64,
            "every packet must arrive"
        );
        for reverse in [false, true] {
            let (mt, st) = run(seed, reverse);
            assert_eq!(mt, m1, "seed {seed}, reverse {reverse}: metrics diverged");
            assert_eq!(
                st, s1,
                "seed {seed}, reverse {reverse}: node state diverged"
            );
        }
    }
}

/// Traffic profiling on the clean paths: per-class totals sum exactly to
/// the run's `Metrics` and per-edge loads, the profile is byte-identical
/// under node-visit-order reversal, and turning profiling on never changes
/// the run itself.
#[test]
fn profiled_runs_sum_exactly_and_are_identical_under_visit_order_reversal() {
    let dim = 5;
    let n = 1usize << dim;
    let g = generators::hypercube(dim as u32);
    let mk_nodes = |seed: u64| {
        use rand::RngExt;
        let mut wl = StdRng::seed_from_u64(seed ^ 0xD1CE);
        (0..n)
            .map(|v| BitFixRouter {
                me: v as u32,
                packets: (0..3)
                    .map(|_| wl.random_range(0..n as u64) as u32)
                    .collect(),
                delivered: 0,
                checksum: 0,
            })
            .collect::<Vec<_>>()
    };
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let run_profiled = |reverse: bool| {
        let mut sim = Simulator::new(&g, mk_nodes(8), 8)
            .unwrap()
            .with_observe(Observe {
                profile: true,
                ..Observe::default()
            });
        let m = if reverse {
            sim.run_reverse_visit(&cfg).unwrap()
        } else {
            sim.run(&cfg).unwrap()
        };
        let loads = sim.edge_load().to_vec();
        (m, sim.take_observed().profile.unwrap(), loads)
    };
    let (m, profile, loads) = run_profiled(false);

    // Exact attribution: the per-class sums ARE the metrics totals.
    assert_eq!(profile.total_messages(), m.messages);
    assert_eq!(profile.total_bits(), m.bits);
    assert_eq!(profile.edge_messages_total(), loads);
    // This workload uses only plain `send`, so everything lands in the
    // protocol's default class.
    assert_eq!(profile.stats(class::DEFAULT).unwrap().messages, m.messages);

    // Profiling off ⇒ byte-identical metrics and state.
    let mut plain = Simulator::new(&g, mk_nodes(8), 8).unwrap();
    let m_plain = plain.run(&cfg).unwrap();
    assert_eq!(m_plain, m, "profiling changed the run");
    assert_eq!(plain.edge_load(), &loads[..]);

    let (mr, pr, lr) = run_profiled(true);
    assert_eq!(mr, m, "reversed visit: metrics diverged");
    assert_eq!(pr, profile, "reversed visit: profile diverged");
    assert_eq!(lr, loads, "reversed visit: edge loads diverged");
}

/// The trace's engine gauges on the routing workload: turning the trace on
/// never moves an observable bit — metrics and node state are
/// byte-identical to the untraced run in either visit order — and the
/// per-round records, gauges included, are the same in both orders (span
/// events are not: reverse visits emit them in reverse node order).
#[test]
fn traced_runs_are_identical_under_visit_order_reversal() {
    let dim = 5;
    let n = 1usize << dim;
    let g = generators::hypercube(dim as u32);
    let mk_nodes = |seed: u64| {
        use rand::RngExt;
        let mut wl = StdRng::seed_from_u64(seed ^ 0xD1CE);
        (0..n)
            .map(|v| BitFixRouter {
                me: v as u32,
                packets: (0..3)
                    .map(|_| wl.random_range(0..n as u64) as u32)
                    .collect(),
                delivered: 0,
                checksum: 0,
            })
            .collect::<Vec<_>>()
    };
    let run = |reverse: bool, traced: bool| {
        let mut sim = Simulator::new(&g, mk_nodes(8), 8).unwrap();
        if traced {
            sim = sim.with_observe(Observe {
                trace: true,
                ..Observe::default()
            });
        }
        let cfg = RunConfig {
            stop: StopCondition::AllDone,
            ..RunConfig::default()
        };
        let m = if reverse {
            sim.run_reverse_visit(&cfg).unwrap()
        } else {
            sim.run(&cfg).unwrap()
        };
        let state: Vec<(u64, u64)> = sim
            .nodes()
            .iter()
            .map(|p| (p.delivered, p.checksum))
            .collect();
        (m, state, sim.take_observed().trace)
    };
    let (m_plain, s_plain, none) = run(false, false);
    assert!(none.is_none(), "trace off must record nothing");
    let mut expected = None;
    for reverse in [false, true] {
        let (mt, st, trace) = run(reverse, true);
        assert_eq!(
            (&mt, &st),
            (&m_plain, &s_plain),
            "reverse {reverse}: tracing perturbed the run"
        );
        let samples = trace.expect("trace was enabled").samples;
        assert_eq!(
            samples.iter().map(|s| s.staged_sends).sum::<u64>(),
            mt.messages,
            "staging sums to messages"
        );
        assert_eq!(
            samples.len() as u64,
            mt.rounds + 1,
            "one record per executed round"
        );
        match &expected {
            None => expected = Some(samples),
            Some(e) => assert_eq!(&samples, e, "reverse {reverse}: per-round records diverged"),
        }
    }
}

/// The routing-style workload under pure topology churn (no fault plan):
/// flaps and a crash-restart lose some packets, but the loss pattern is a
/// pure function of `(churn_seed, round, edge)`, so metrics, the
/// churn-event log, and every node's delivery checksum are byte-identical
/// on a repeat run and under node-visit-order reversal.
#[test]
fn churned_routing_workload_is_identical_on_repeat_and_reversed_visit() {
    let dim = 6;
    let n = 1usize << dim;
    let g = generators::hypercube(dim as u32);
    let churn = ChurnPlan::none()
        .seeded(71)
        .with_flaps(0.06, 4)
        .with_restart(NodeId(9), 3, 5);
    let run = |reverse: bool| {
        use rand::RngExt;
        let mut wl = StdRng::seed_from_u64(0xD1CE);
        let nodes = (0..n)
            .map(|v| BitFixRouter {
                me: v as u32,
                packets: (0..4)
                    .map(|_| wl.random_range(0..n as u64) as u32)
                    .collect(),
                delivered: 0,
                checksum: 0,
            })
            .collect();
        let mut sim = Simulator::new(&g, nodes, 3)
            .unwrap()
            .with_churn_plan(churn.clone());
        let cfg = RunConfig {
            stop: StopCondition::AllDone,
            ..RunConfig::default()
        };
        let m = if reverse {
            sim.run_reverse_visit(&cfg).unwrap()
        } else {
            sim.run(&cfg).unwrap()
        };
        let state: Vec<(u64, u64)> = sim
            .nodes()
            .iter()
            .map(|p| (p.delivered, p.checksum))
            .collect();
        (m, sim.churn_events().to_vec(), state)
    };
    let baseline = run(false);
    assert!(
        baseline.0.lost_to_churn > 0 && baseline.0.restarts == 1,
        "the churn plan must actually bite: {:?}",
        baseline.0
    );
    assert_eq!(
        run(true),
        baseline,
        "visit-order reversal changed the churned routing workload"
    );
    assert_eq!(
        run(false),
        baseline,
        "a repeat of the churned routing workload diverged"
    );
}

/// Traffic profiling across a whole multi-simulator driver (clean Borůvka):
/// the accumulated profile splits candidate from label floods, sums exactly
/// to the outcome's message count, and is identical on a repeat run.
#[test]
fn profiled_boruvka_accumulates_exactly_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(78);
    let g = generators::connected_erdos_renyi(48, 0.12, 50, &mut rng).unwrap();
    let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
    let run = || {
        let observe = Observe {
            profile: true,
            ..Observe::default()
        };
        let (out, runs) = congest_boruvka::run_observed(&wg, 4, observe).unwrap();
        (out, runs.profile)
    };
    let (out, profile) = run();
    let profile = profile.expect("profiling was enabled");
    assert_eq!(profile.total_messages(), out.messages);
    assert!(profile.stats(class::MST_FLOOD).is_some());
    assert!(profile.stats(class::MST_LABEL).is_some());

    // Profiling must not perturb the outcome.
    let plain = congest_boruvka::run(&wg, 4).unwrap();
    assert_eq!(plain.tree_edges, out.tree_edges);
    assert_eq!(plain.rounds, out.rounds);
    assert_eq!(plain.messages, out.messages);

    let (again, profile_again) = run();
    assert_eq!(again.tree_edges, out.tree_edges);
    assert_eq!(again.rounds, out.rounds, "a repeat moved the rounds");
    assert_eq!(
        profile_again.as_ref(),
        Some(&profile),
        "a repeat moved the profile"
    );
}
