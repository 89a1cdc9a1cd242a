//! Cross-engine equivalence: the active-set engine must be
//! **byte-identical** to the retained full-sweep reference stepper —
//! `Metrics`, fault/churn event logs, crashed sets, protocol outputs,
//! per-edge loads, traffic profiles, and round timelines (modulo the
//! `active_nodes` and `wake_queue` executor gauges) — across clean, faulty,
//! and churned runs,
//! in either node-visit order. The workload mixes the two sparse wake
//! sources: mail-driven random token forwarding and `Ctx::wake_in` beacon
//! timers.

use amt_core::congest::trace::{RunTrace, TraceConfig};
use amt_core::congest::{
    ChurnEvent, ChurnPlan, Ctx, FaultEvent, FaultPlan, Metrics, Observe, ProfileConfig, Protocol,
    RunConfig, Simulator, TrafficProfile,
};
use amt_core::graphs::{generators, EdgeId, GraphBuilder, NodeId};
use rand::RngExt;

/// Mail-driven token walking plus timer-driven beacon bursts.
///
/// Tokens (`u32` hop counts) walk randomly: each received token with hops
/// left is forwarded to a random port with probability 3/4. Beacon nodes
/// additionally fire every 5 rounds, injecting a fresh 2-hop token on every
/// port — exercising `wake_in` under every hook combination. An empty-inbox
/// round outside a fire round is a complete no-op (no RNG draws, no sends,
/// no state change), so the protocol is skip-safe.
struct HybridNode {
    beacons_left: u32,
    next_fire: u64,
    digest: u64,
}

impl Protocol for HybridNode {
    type Message = u32;

    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        // Every third node launches one starting token.
        if ctx.node().index() % 3 == 0 {
            let degree = ctx.degree();
            let port = ctx.rng().random_range(0..degree);
            ctx.send(port, 8);
        }
        if self.beacons_left > 0 {
            self.next_fire = ctx.round() + 5;
            ctx.wake_in(5);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
        let degree = ctx.degree();
        let mut staged: Vec<(usize, u32)> = Vec::new();
        for &(port, hops) in inbox {
            self.digest = self
                .digest
                .wrapping_mul(1_000_003)
                .wrapping_add(((port as u64) << 32) | (u64::from(hops) + 1));
            ctx.trace_event("hop", u64::from(hops));
            if hops > 0 && ctx.rng().random_bool(0.75) {
                staged.push((ctx.rng().random_range(0..degree), hops - 1));
            }
        }
        // Gate beacons on the announced round, not on being stepped, so the
        // full sweep (which steps every round) behaves identically.
        if self.beacons_left > 0 && ctx.round() == self.next_fire {
            self.beacons_left -= 1;
            for port in 0..degree {
                staged.push((port, 2));
            }
            if self.beacons_left > 0 {
                self.next_fire = ctx.round() + 5;
                ctx.wake_in(5);
            }
        }
        // One message per port: keep the first staged per port.
        staged.sort_by_key(|&(p, _)| p);
        staged.dedup_by_key(|&mut (p, _)| p);
        for (port, hops) in staged {
            ctx.send(port, hops);
        }
    }

    fn is_done(&self) -> bool {
        self.beacons_left == 0
    }
}

fn fleet(n: usize) -> Vec<HybridNode> {
    (0..n)
        .map(|v| HybridNode {
            beacons_left: if v % 16 == 0 { 3 } else { 0 },
            next_fire: 0,
            digest: 0,
        })
        .collect()
}

/// Everything observable about one run. `PartialEq` on `RunTrace` includes
/// the two executor gauges, the fields allowed to differ between engine
/// strategies, so observations zero them before comparing
/// (`RunTrace::without_executor_gauges`).
#[derive(PartialEq, Debug)]
struct Observation {
    metrics: Metrics,
    digests: Vec<u64>,
    edge_load: Vec<u64>,
    fault_events: Vec<FaultEvent>,
    crashed: Vec<NodeId>,
    churn_events: Vec<ChurnEvent>,
    profile: TrafficProfile,
    trace: Option<RunTrace>,
    active_total: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Clean,
    Faulty,
    Churned,
}

fn observe(scenario: Scenario, reverse: bool, full_sweep: bool) -> Observation {
    let g = generators::hypercube(6);
    let mut sim = Simulator::new(&g, fleet(g.len()), 2024)
        .unwrap()
        .with_observe(Observe {
            trace: Some(TraceConfig::default().with_edge_load_stride(2)),
            profile: Some(ProfileConfig::default()),
        });
    match scenario {
        Scenario::Clean => {}
        Scenario::Faulty => {
            sim = sim.with_fault_plan(
                FaultPlan::none()
                    .seeded(13)
                    .with_drops(0.04)
                    .with_corruption(0.04)
                    .with_delays(0.08, 3)
                    .with_crash(NodeId(5), 7),
            );
        }
        Scenario::Churned => {
            sim = sim.with_churn_plan(
                ChurnPlan::none()
                    .seeded(29)
                    .with_flaps(0.05, 4)
                    .with_periodic_outage(EdgeId(2), 3, 2, 9)
                    .with_restart(NodeId(9), 4, 3),
            );
        }
    }
    let cfg = RunConfig::all_done().with_full_sweep(full_sweep);
    let metrics = if reverse {
        sim.run_reverse_visit(&cfg)
    } else {
        sim.run(&cfg)
    }
    .unwrap();
    let observed = sim.take_observed();
    let trace = observed.trace.unwrap();
    let active_total = trace.samples.iter().map(|s| s.active_nodes).sum();
    Observation {
        metrics,
        digests: sim.nodes().iter().map(|p| p.digest).collect(),
        edge_load: sim.edge_load().to_vec(),
        fault_events: sim.fault_events().to_vec(),
        crashed: sim.crashed_nodes(),
        churn_events: sim.churn_events().to_vec(),
        profile: observed.profile.unwrap(),
        // Reverse visits keep per-round events in reverse node order by
        // long-standing contract, so the timeline is only part of the
        // cross-engine comparison for forward runs.
        trace: (!reverse).then(|| trace.without_executor_gauges()),
        active_total,
    }
}

fn check_scenario(scenario: Scenario) {
    let reference = observe(scenario, false, true);
    assert!(reference.metrics.messages > 0, "workload must send traffic");
    match scenario {
        Scenario::Clean => {}
        Scenario::Faulty => {
            assert!(!reference.fault_events.is_empty(), "faults must fire");
            assert_eq!(reference.crashed, vec![NodeId(5)]);
        }
        Scenario::Churned => {
            assert!(!reference.churn_events.is_empty(), "churn must fire");
            assert_eq!(reference.metrics.restarts, 1);
        }
    }
    // The full sweep steps every live node every round; on this workload
    // the active-set engine must step strictly fewer node-rounds.
    let sparse = observe(scenario, false, false);
    assert!(
        sparse.active_total < reference.active_total,
        "active-set engine stepped {} node-rounds vs full sweep's {}",
        sparse.active_total,
        reference.active_total
    );
    // Every (visit order, engine strategy) cell reproduces the reference.
    for reverse in [false, true] {
        for full_sweep in [false, true] {
            let got = observe(scenario, reverse, full_sweep);
            let label = format!("reverse = {reverse}, full sweep = {full_sweep}");
            assert_matches_reference(&got, &reference, reverse, &label);
            // The active set itself is part of the determinism contract:
            // each strategy steps the same node-rounds in either order.
            let want = if full_sweep { &reference } else { &sparse };
            assert_eq!(
                got.active_total, want.active_total,
                "active set diverged at {label}"
            );
        }
    }
}

/// `Observation` comparison modulo the timeline on reverse runs (reverse
/// visits keep per-round events in reverse node order by contract).
fn assert_matches_reference(
    got: &Observation,
    reference: &Observation,
    reverse: bool,
    label: &str,
) {
    assert_eq!(
        (
            &got.metrics,
            &got.digests,
            &got.edge_load,
            &got.fault_events,
            &got.crashed,
            &got.churn_events,
            &got.profile,
            &got.trace,
        ),
        (
            &reference.metrics,
            &reference.digests,
            &reference.edge_load,
            &reference.fault_events,
            &reference.crashed,
            &reference.churn_events,
            &reference.profile,
            &if reverse {
                None
            } else {
                reference.trace.clone()
            },
        ),
        "diverged from the full-sweep reference at {label}"
    );
}

#[test]
fn clean_runs_match_full_sweep_reference() {
    check_scenario(Scenario::Clean);
}

#[test]
fn faulty_runs_match_full_sweep_reference() {
    check_scenario(Scenario::Faulty);
}

#[test]
fn churned_runs_match_full_sweep_reference() {
    check_scenario(Scenario::Churned);
}

/// A single-node graph (with a self-loop, so tokens have somewhere to go)
/// runs identically in either visit order and under either strategy.
#[test]
fn single_node_graph_matches_across_strategies() {
    let mut b = GraphBuilder::new(1);
    b.add_edge(0, 0);
    let g = b.build();
    let run = |reverse: bool, full_sweep: bool| -> (Metrics, Vec<u64>) {
        let mut sim = Simulator::new(&g, fleet(g.len()), 2024).unwrap();
        let cfg = RunConfig::all_done().with_full_sweep(full_sweep);
        let m = if reverse {
            sim.run_reverse_visit(&cfg)
        } else {
            sim.run(&cfg)
        }
        .unwrap();
        (m, sim.nodes().iter().map(|p| p.digest).collect())
    };
    let reference = run(false, true);
    for (reverse, full_sweep) in [(false, false), (true, false), (true, true)] {
        assert_eq!(
            run(reverse, full_sweep),
            reference,
            "reverse = {reverse}, full sweep = {full_sweep} diverged on n = 1"
        );
    }
}

/// Timer-only protocol with long wake gaps: whole rounds pass with an
/// empty active set (no mail, no due timers), on every execution strategy.
struct PulseNode {
    pulses_left: u32,
    next_fire: u64,
    digest: u64,
}

impl Protocol for PulseNode {
    type Message = u32;

    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        if self.pulses_left > 0 {
            self.next_fire = ctx.round() + 4;
            ctx.wake_in(4);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
        for &(port, x) in inbox {
            self.digest = self
                .digest
                .wrapping_mul(8_191)
                .wrapping_add(((port as u64) << 32) | u64::from(x));
        }
        if self.pulses_left > 0 && ctx.round() == self.next_fire {
            self.pulses_left -= 1;
            let degree = ctx.degree();
            let port = ctx.rng().random_range(0..degree);
            ctx.send(port, self.pulses_left);
            if self.pulses_left > 0 {
                self.next_fire = ctx.round() + 4;
                ctx.wake_in(4);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.pulses_left == 0
    }
}

#[test]
fn rounds_with_empty_active_sets_match_across_strategies() {
    let g = generators::hypercube(4); // n = 16
    let observe = |reverse: bool, full_sweep: bool| {
        let nodes: Vec<PulseNode> = (0..g.len())
            .map(|v| PulseNode {
                pulses_left: if v % 4 == 0 { 3 } else { 0 },
                next_fire: 0,
                digest: 0,
            })
            .collect();
        let mut sim = Simulator::new(&g, nodes, 7).unwrap().with_observe(Observe {
            trace: Some(TraceConfig::default()),
            ..Observe::default()
        });
        let cfg = RunConfig::all_done().with_full_sweep(full_sweep);
        let m = if reverse {
            sim.run_reverse_visit(&cfg)
        } else {
            sim.run(&cfg)
        }
        .unwrap();
        let trace = sim.take_observed().trace.unwrap();
        let empty_rounds = trace.samples.iter().filter(|s| s.active_nodes == 0).count();
        let digests: Vec<u64> = sim.nodes().iter().map(|p| p.digest).collect();
        (m, digests, empty_rounds)
    };
    let (m_ref, d_ref, _) = observe(false, true);
    let (m_seq, d_seq, empty_seq) = observe(false, false);
    assert_eq!((&m_seq, &d_seq), (&m_ref, &d_ref));
    assert!(
        empty_seq > 0,
        "the workload must produce rounds with an empty active set"
    );
    let (m, d, empty) = observe(true, false);
    assert_eq!((&m, &d), (&m_ref, &d_ref), "reversed visit diverged");
    assert_eq!(empty, empty_seq, "empty-round count diverged");
}

/// What [`Misstep`] does in a round with an empty inbox and no due timer —
/// each one a breach of the `SPARSE_AWARE` contract.
#[cfg(debug_assertions)]
#[derive(Clone, Copy, Debug)]
enum Misstep {
    Send,
    Draw,
    Wake,
    Trace,
    Finish,
}

/// A protocol that claims `SPARSE_AWARE` but acts on idle rounds.
#[cfg(debug_assertions)]
struct MisstepNode {
    misstep: Option<Misstep>,
    done: bool,
}

#[cfg(debug_assertions)]
impl Protocol for MisstepNode {
    type Message = u32;

    const SPARSE_AWARE: bool = true;

    fn init(&mut self, _ctx: &mut Ctx<'_, u32>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, _inbox: &[(usize, u32)]) {
        match self.misstep {
            None => {}
            Some(Misstep::Send) => ctx.send(0, 1),
            Some(Misstep::Draw) => {
                ctx.rng().random::<u64>();
            }
            Some(Misstep::Wake) => ctx.wake_in(3),
            Some(Misstep::Trace) => ctx.trace_event("idle", ctx.round()),
            Some(Misstep::Finish) => self.done = true,
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The debug-build contract checker: on the full sweep, a sparse-aware
/// node stepped in a round the active-set engine would have skipped must
/// be a no-op, and each kind of side effect panics naming the node and
/// round. An honest protocol runs through.
#[cfg(debug_assertions)]
#[test]
fn sparse_contract_violations_panic_on_the_checked_full_sweep() {
    let run = |misstep: Option<Misstep>| {
        std::panic::catch_unwind(move || {
            let g = generators::hypercube(3);
            let nodes = (0..g.len())
                .map(|_| MisstepNode {
                    misstep,
                    done: false,
                })
                .collect();
            let cfg = RunConfig {
                max_rounds: 10,
                ..RunConfig::default()
            }
            .with_full_sweep(true);
            Simulator::new(&g, nodes, 3).unwrap().run(&cfg)
        })
    };
    assert!(run(None).expect("an honest protocol passes").is_ok());
    for (misstep, broke) in [
        (Misstep::Send, "staged 1 message(s)"),
        (Misstep::Draw, "drew from its RNG stream"),
        (Misstep::Wake, "requested a wake for round 4"),
        (Misstep::Trace, "emitted a trace event"),
        (Misstep::Finish, "changed is_done to true"),
    ] {
        let payload = run(Some(misstep)).expect_err("the checker must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            msg.starts_with(&format!(
                "SPARSE_AWARE contract violated: node 0 {broke} in round 1,"
            )),
            "{misstep:?}: unexpected panic message {msg:?}"
        );
    }
}
