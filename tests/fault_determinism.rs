//! Acceptance tests for the faulty path's determinism contract: fault
//! sampling is keyed on message identity `(fault_seed, round, src,
//! src_port)` and churn verdicts on `(churn_seed, round, edge)`, so the
//! same `(graph, seed, plan, churn)` yields identical `Metrics`,
//! fault/churn-event logs, crashed sets, and recovery timelines on a
//! repeat run and across node-visit-order reversal — for a raw simulator
//! workload, both self-healing protocols (walks and Borůvka MST), and the
//! churned bit-fix router.

use amt_core::congest::{
    Ctx, Metrics, Observe, ProfileConfig, Protocol, RoundSample, RunConfig, Simulator,
    StopCondition, TraceConfig, TrafficProfile,
};
use amt_core::mst::healing::run_healing_churned;
use amt_core::mst::{run_healing, run_healing_instrumented};
use amt_core::prelude::*;
use amt_core::routing::route_bitfix_churned;
use amt_core::walks::parallel::degree_proportional_specs;
use amt_core::walks::{run_walks_healing, run_walks_healing_churned};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A chatty fixed-horizon workload: every node floods a running checksum
/// for a set number of rounds, folding whatever arrives (corrupted bits
/// included) into its state, with an RNG-jittered payload so any
/// visit-order dependence in the executor or the fault stream would skew
/// the checksums.
struct Chatter {
    rounds_left: u32,
    checksum: u64,
}

impl Chatter {
    fn spray(&mut self, ctx: &mut Ctx<'_, u32>) {
        use rand::RngExt;
        for p in 0..ctx.degree() {
            let jitter = ctx.rng().random_range(0..1024u32);
            ctx.send(p, ((self.checksum as u32) & 0x3FF) ^ jitter);
        }
    }
}

impl Protocol for Chatter {
    type Message = u32;

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.spray(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
        for &(p, v) in inbox {
            self.checksum = self
                .checksum
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(u64::from(v) ^ p as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            self.spray(ctx);
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn chatter_run(
    g: &Graph,
    plan: &FaultPlan,
    reverse: bool,
) -> (Metrics, Vec<FaultEvent>, Vec<NodeId>, Vec<u64>) {
    let nodes = (0..g.len())
        .map(|_| Chatter {
            rounds_left: 30,
            checksum: 0,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, 17)
        .unwrap()
        .with_fault_plan(plan.clone());
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let metrics = if reverse {
        sim.run_reverse_visit(&cfg).unwrap()
    } else {
        sim.run(&cfg).unwrap()
    };
    let checksums = sim.nodes().iter().map(|c| c.checksum).collect();
    (
        metrics,
        sim.fault_events().to_vec(),
        sim.crashed_nodes(),
        checksums,
    )
}

/// `chatter_run` with traffic profiling enabled; additionally returns the
/// profile and the simulator's final per-edge load vector.
#[allow(clippy::type_complexity)]
fn profiled_chatter_run(
    g: &Graph,
    plan: &FaultPlan,
    reverse: bool,
) -> (
    (Metrics, Vec<FaultEvent>, Vec<NodeId>, Vec<u64>),
    TrafficProfile,
    Vec<u64>,
) {
    let nodes = (0..g.len())
        .map(|_| Chatter {
            rounds_left: 30,
            checksum: 0,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, 17)
        .unwrap()
        .with_fault_plan(plan.clone())
        .with_observe(Observe {
            profile: Some(ProfileConfig::default()),
            ..Observe::default()
        });
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let metrics = if reverse {
        sim.run_reverse_visit(&cfg).unwrap()
    } else {
        sim.run(&cfg).unwrap()
    };
    let checksums = sim.nodes().iter().map(|c| c.checksum).collect();
    let loads = sim.edge_load().to_vec();
    (
        (
            metrics,
            sim.fault_events().to_vec(),
            sim.crashed_nodes(),
            checksums,
        ),
        sim.take_observed().profile.unwrap(),
        loads,
    )
}

#[test]
fn faulty_sim_runs_are_identical_on_repeat_and_reversed_visit() {
    let mut rng = StdRng::seed_from_u64(61);
    let g = generators::random_regular(64, 6, &mut rng).unwrap();
    let plan = FaultPlan::none()
        .seeded(23)
        .with_drops(0.05)
        .with_corruption(0.03)
        .with_delays(0.1, 3)
        .with_crash(NodeId(5), 4);
    let baseline = chatter_run(&g, &plan, false);
    assert!(
        baseline.0.message_faults() > 0,
        "the plan must actually fire"
    );
    assert_eq!(baseline.2, vec![NodeId(5)]);

    // Reversing the node-visit order must not move a single fault: the
    // verdicts are functions of message identity, not of arrival order.
    assert_eq!(
        chatter_run(&g, &plan, true),
        baseline,
        "visit-order reversal changed the faulty run"
    );
    assert_eq!(
        chatter_run(&g, &plan, false),
        baseline,
        "a repeat of the faulty run diverged"
    );
}

/// `chatter_run` with the trace attached; additionally returns the
/// recorded per-round records.
#[allow(clippy::type_complexity)]
fn traced_chatter_run(
    g: &Graph,
    plan: &FaultPlan,
    reverse: bool,
) -> (
    (Metrics, Vec<FaultEvent>, Vec<NodeId>, Vec<u64>),
    Vec<RoundSample>,
) {
    let nodes = (0..g.len())
        .map(|_| Chatter {
            rounds_left: 30,
            checksum: 0,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, 17)
        .unwrap()
        .with_fault_plan(plan.clone())
        .with_observe(Observe {
            trace: Some(TraceConfig::default()),
            ..Observe::default()
        });
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let metrics = if reverse {
        sim.run_reverse_visit(&cfg).unwrap()
    } else {
        sim.run(&cfg).unwrap()
    };
    let checksums = sim.nodes().iter().map(|c| c.checksum).collect();
    let samples = sim
        .take_observed()
        .trace
        .expect("trace was enabled")
        .samples;
    (
        (
            metrics,
            sim.fault_events().to_vec(),
            sim.crashed_nodes(),
            checksums,
        ),
        samples,
    )
}

/// The trace on the faulty path: turning it on never moves a fault
/// verdict, a metric, or a checksum — the traced run is byte-identical to
/// the plain faulty run in either visit order — and the per-round records,
/// gauges included, are visit-order-invariant too.
#[test]
fn faulty_traced_runs_are_identical_under_visit_order_reversal() {
    let mut rng = StdRng::seed_from_u64(61);
    let g = generators::random_regular(64, 6, &mut rng).unwrap();
    let plan = FaultPlan::none()
        .seeded(23)
        .with_drops(0.05)
        .with_corruption(0.03)
        .with_delays(0.1, 3)
        .with_crash(NodeId(5), 4);
    let baseline = chatter_run(&g, &plan, false);
    assert!(baseline.0.message_faults() > 0, "the plan must fire");
    let mut expected = None;
    for reverse in [false, true] {
        let (got, samples) = traced_chatter_run(&g, &plan, reverse);
        assert_eq!(
            got, baseline,
            "reverse {reverse}: tracing perturbed the faulty run"
        );
        assert_eq!(
            samples.len() as u64,
            got.0.rounds + 1,
            "one record per executed round"
        );
        match &expected {
            None => expected = Some(samples),
            Some(e) => assert_eq!(&samples, e, "reverse {reverse}: per-round records diverged"),
        }
    }
}

/// Profiler determinism on the faulty path: per-class totals account for
/// exactly the delivered traffic in `Metrics` and the per-edge loads, the
/// profile is byte-identical on a repeat run and under node-visit-order
/// reversal, and enabling profiling does not perturb the faulty run.
#[test]
fn faulty_profile_sums_exactly_and_is_identical_on_repeat_and_reversed_visit() {
    let mut rng = StdRng::seed_from_u64(61);
    let g = generators::random_regular(64, 6, &mut rng).unwrap();
    let plan = FaultPlan::none()
        .seeded(23)
        .with_drops(0.05)
        .with_corruption(0.03)
        .with_delays(0.1, 3)
        .with_crash(NodeId(5), 4);

    let (run, profile, loads) = profiled_chatter_run(&g, &plan, false);
    assert!(run.0.message_faults() > 0, "the plan must actually fire");

    // Exact attribution even with drops/corruption/delays/crashes in play:
    // the profiler counts precisely what the metrics count — delivered
    // frames at their delivered widths.
    assert_eq!(profile.total_messages(), run.0.messages);
    assert_eq!(profile.total_bits(), run.0.bits);
    assert_eq!(profile.edge_messages_total(), loads);

    // Profiling off ⇒ the run itself is byte-identical.
    assert_eq!(
        chatter_run(&g, &plan, false),
        run,
        "enabling the profiler changed the faulty run"
    );

    // Visit-order reversal and a repeat run reproduce the profile.
    let (run_rev, profile_rev, loads_rev) = profiled_chatter_run(&g, &plan, true);
    assert_eq!(run_rev, run, "visit-order reversal changed the run");
    assert_eq!(profile_rev, profile, "visit-order reversal moved a class");
    assert_eq!(loads_rev, loads);
    let (run_again, profile_again, loads_again) = profiled_chatter_run(&g, &plan, false);
    assert_eq!(run_again, run, "a repeat of the faulty run diverged");
    assert_eq!(profile_again, profile, "a repeat moved the profile");
    assert_eq!(loads_again, loads);
}

#[test]
fn healing_walks_are_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(62);
    let g = generators::random_regular(48, 6, &mut rng).unwrap();
    let specs = degree_proportional_specs(&g, 2, 16);
    let plan = FaultPlan::none()
        .seeded(19)
        .with_drops(0.05)
        .with_corruption(0.02)
        .with_crash(NodeId(7), 9);
    let baseline = run_walks_healing(&g, WalkKind::Lazy, &specs, 5, plan.clone()).unwrap();
    assert!(baseline.metrics.message_faults() > 0);
    assert_eq!(baseline.metrics.crashed, 1);
    let run = run_walks_healing(&g, WalkKind::Lazy, &specs, 5, plan).unwrap();
    assert_eq!(run.endpoints, baseline.endpoints, "endpoints diverged");
    assert_eq!(
        run.metrics, baseline.metrics,
        "metrics (incl. fault counters) diverged"
    );
    assert_eq!(run.epochs, baseline.epochs, "epochs diverged");
    assert_eq!(run.reissued, baseline.reissued);
    assert_eq!(run.rerouted, baseline.rerouted);
}

#[test]
fn healing_boruvka_is_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(63);
    let g = generators::random_regular(48, 6, &mut rng).unwrap();
    let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
    let plan = FaultPlan::none()
        .seeded(29)
        .with_drops(0.05)
        .with_corruption(0.02)
        .with_crash(NodeId(11), 12);
    let baseline = run_healing(&wg, 3, plan.clone()).unwrap();
    assert!(baseline.metrics.message_faults() > 0);
    assert_eq!(baseline.crashed_nodes, vec![NodeId(11)]);
    let run = run_healing(&wg, 3, plan).unwrap();
    assert_eq!(run.tree_edges, baseline.tree_edges, "tree diverged");
    assert_eq!(run.total_weight, baseline.total_weight);
    assert_eq!(run.rounds, baseline.rounds, "rounds diverged");
    assert_eq!(run.iterations, baseline.iterations);
    assert_eq!(
        run.phase_restarts, baseline.phase_restarts,
        "restart schedule diverged"
    );
    assert_eq!(run.crashed_nodes, baseline.crashed_nodes);
    assert_eq!(
        run.metrics, baseline.metrics,
        "metrics (incl. fault counters) diverged"
    );
}

/// Profiler determinism on the healing Borůvka path: the profile accumulated
/// across all ARQ phases sums exactly to the outcome's accumulated metrics
/// and is byte-identical on a repeat run.
#[test]
fn healing_boruvka_profile_sums_exactly_and_is_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(63);
    let g = generators::random_regular(48, 6, &mut rng).unwrap();
    let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
    let plan = FaultPlan::none()
        .seeded(29)
        .with_drops(0.05)
        .with_corruption(0.02)
        .with_crash(NodeId(11), 12);
    let run = || {
        run_healing_instrumented(&wg, 3, plan.clone(), None, Some(ProfileConfig::default()))
            .unwrap()
    };
    let (out, _, profile) = run();
    let profile = profile.expect("profiling was enabled");
    assert_eq!(profile.total_messages(), out.metrics.messages);
    assert_eq!(profile.total_bits(), out.metrics.bits);

    // Profiling must not perturb the healing run itself.
    let plain = run_healing(&wg, 3, plan.clone()).unwrap();
    assert_eq!(plain.tree_edges, out.tree_edges);
    assert_eq!(plain.metrics, out.metrics);

    let (again, _, profile_again) = run();
    assert_eq!(again.tree_edges, out.tree_edges);
    assert_eq!(again.metrics, out.metrics, "a repeat moved the metrics");
    assert_eq!(
        profile_again.as_ref(),
        Some(&profile),
        "a repeat moved the profile"
    );
}

/// `chatter_run` with a topology-churn plan stacked on the fault plan;
/// additionally returns the churn-event log.
#[allow(clippy::type_complexity)]
fn churned_chatter_run(
    g: &Graph,
    plan: &FaultPlan,
    churn: &ChurnPlan,
    reverse: bool,
) -> (
    Metrics,
    Vec<FaultEvent>,
    Vec<ChurnEvent>,
    Vec<NodeId>,
    Vec<u64>,
) {
    let nodes = (0..g.len())
        .map(|_| Chatter {
            rounds_left: 30,
            checksum: 0,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, 17)
        .unwrap()
        .with_fault_plan(plan.clone())
        .with_churn_plan(churn.clone());
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let metrics = if reverse {
        sim.run_reverse_visit(&cfg).unwrap()
    } else {
        sim.run(&cfg).unwrap()
    };
    let checksums = sim.nodes().iter().map(|c| c.checksum).collect();
    (
        metrics,
        sim.fault_events().to_vec(),
        sim.churn_events().to_vec(),
        sim.crashed_nodes(),
        checksums,
    )
}

/// The churned raw-simulator contract: churn verdicts are keyed on
/// `(churn_seed, round, edge)` exactly as fault verdicts are keyed on
/// message identity, so stacking flaps, an outage, and a crash-restart on
/// top of the full fault plan moves nothing on a repeat run or under
/// node-visit-order reversal — metrics, both event logs, and every node's
/// RNG-sensitive checksum included.
#[test]
fn churned_sim_runs_are_identical_on_repeat_and_reversed_visit() {
    let mut rng = StdRng::seed_from_u64(61);
    let g = generators::random_regular(64, 6, &mut rng).unwrap();
    let plan = FaultPlan::none()
        .seeded(23)
        .with_drops(0.05)
        .with_corruption(0.03)
        .with_delays(0.1, 3)
        .with_crash(NodeId(5), 4);
    let churn = ChurnPlan::none()
        .seeded(47)
        .with_flaps(0.05, 4)
        .with_edge_outage(EdgeId(2), 3, 6)
        .with_restart(NodeId(9), 6, 4);
    let baseline = churned_chatter_run(&g, &plan, &churn, false);
    assert!(
        baseline.0.lost_to_churn > 0 && baseline.0.restarts == 1,
        "the churn plan must actually bite: {:?}",
        baseline.0
    );
    assert!(baseline.0.message_faults() > 0, "faults must fire too");
    assert!(!baseline.2.is_empty(), "churn events must be logged");

    assert_eq!(
        churned_chatter_run(&g, &plan, &churn, true),
        baseline,
        "visit-order reversal changed the churned run"
    );
    assert_eq!(
        churned_chatter_run(&g, &plan, &churn, false),
        baseline,
        "a repeat of the churned run diverged"
    );
}

/// The churned healing walks replay byte-identically — the full outcome
/// struct (endpoints, metrics with churn counters, epochs, healing work,
/// and the recovery timeline) — on a repeat run.
#[test]
fn churned_healing_walks_are_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(62);
    let g = generators::random_regular(48, 6, &mut rng).unwrap();
    let specs = degree_proportional_specs(&g, 2, 16);
    let plan = FaultPlan::none().seeded(19).with_drops(0.03);
    let churn = ChurnPlan::none()
        .seeded(53)
        .with_flaps(0.05, 4)
        .with_restart(NodeId(7), 5, 4);
    let baseline =
        run_walks_healing_churned(&g, WalkKind::Lazy, &specs, 5, plan.clone(), churn.clone())
            .unwrap();
    assert!(baseline.metrics.lost_to_churn > 0 || baseline.metrics.restarts > 0);
    let run = run_walks_healing_churned(&g, WalkKind::Lazy, &specs, 5, plan, churn).unwrap();
    assert_eq!(run, baseline, "a repeat of the churned walks diverged");
}

/// The churned healing Borůvka replays byte-identically — tree, cut-edge
/// bookkeeping, metrics, and the recovery timeline — on a repeat run.
#[test]
fn churned_healing_boruvka_is_identical_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(63);
    let g = generators::random_regular(48, 6, &mut rng).unwrap();
    let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
    let plan = FaultPlan::none().seeded(29).with_drops(0.03);
    let churn = ChurnPlan::none()
        .seeded(59)
        .with_flaps(0.05, 4)
        .with_restart(NodeId(11), 4, 5);
    let baseline = run_healing_churned(&wg, 3, plan.clone(), churn.clone()).unwrap();
    assert!(baseline.metrics.lost_to_churn > 0 || baseline.metrics.restarts > 0);
    let run = run_healing_churned(&wg, 3, plan, churn).unwrap();
    assert_eq!(run, baseline, "a repeat of the churned boruvka diverged");
}

/// The churned bit-fix router replays byte-identically — endpoints,
/// reroute counter, epoch count, metrics, and the recovery timeline — on a
/// repeat run.
#[test]
fn churned_bitfix_routing_is_identical_on_a_repeat_run() {
    let g = generators::hypercube(6);
    let reqs: Vec<(NodeId, NodeId)> = (0..64u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % 64)))
        .collect();
    let churn = ChurnPlan::none()
        .seeded(67)
        .with_flaps(0.08, 3)
        .with_restart(NodeId(6), 1, 4);
    let baseline = route_bitfix_churned(&g, &reqs, 12, churn.clone()).unwrap();
    assert!(baseline.rerouted > 0 || baseline.metrics.lost_to_churn > 0);
    let run = route_bitfix_churned(&g, &reqs, 12, churn).unwrap();
    assert_eq!(run, baseline, "a repeat of the churned routing diverged");
}
