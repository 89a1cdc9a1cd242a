//! Observability regression tests: cross-path trace/metrics consistency
//! and the delivered-bits accounting audit for corrupted frames.

use amt_congest::{
    Ctx, FaultKind, FaultPlan, Metrics, Observe, Protocol, RunConfig, RunTrace, Simulator,
};
use amt_graphs::{Graph, NodeId};
use rand::RngExt;

/// Randomized lazy token walker (the paper's workload shape): sensitive to
/// every RNG bit, so any cross-path divergence shows up immediately.
struct Walker {
    tokens: u32,
    hops_left: u32,
    digest: u64,
}

impl Protocol for Walker {
    type Message = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        let degree = ctx.degree();
        let mut staged: Vec<(usize, u64)> = (0..self.tokens)
            .map(|_| (ctx.rng().random_range(0..degree), u64::from(self.hops_left)))
            .collect();
        staged.sort_by_key(|&(p, _)| p);
        staged.dedup_by_key(|&mut (p, _)| p);
        for (port, hops) in staged {
            ctx.send(port, hops);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        let degree = ctx.degree();
        let mut staged: Vec<(usize, u64)> = Vec::new();
        for &(_, hops) in inbox {
            self.digest = self.digest.wrapping_mul(31).wrapping_add(hops + 1);
            ctx.trace_event("token", hops);
            if hops > 0 && ctx.rng().random_bool(0.75) {
                staged.push((ctx.rng().random_range(0..degree), hops - 1));
            }
        }
        staged.sort_by_key(|&(p, _)| p);
        staged.dedup_by_key(|&mut (p, _)| p);
        for (port, hops) in staged {
            ctx.send(port, hops);
        }
    }
}

fn fleet(n: usize) -> Vec<Walker> {
    (0..n)
        .map(|v| Walker {
            tokens: 1 + (v as u32 % 2),
            hops_left: 10,
            digest: 0,
        })
        .collect()
}

type RunResult = (Metrics, RunTrace, Vec<u64>, Vec<u64>);

/// One randomized run must be byte-identical — `Metrics` *and* the full
/// round timeline — on the clean path, a repeat of it, and the faulty
/// executor driven by a plan that is non-trivial (so it takes the
/// fault-sampling code path) but can never fire a fault (a crash scheduled
/// far beyond termination).
fn run_sim(mut sim: Simulator<'_, Walker>) -> RunResult {
    let m = sim.run(&RunConfig::default()).unwrap();
    let digests = sim.nodes().iter().map(|p| p.digest).collect();
    let loads = sim.edge_load().to_vec();
    (m, sim.take_observed().trace.unwrap(), digests, loads)
}

#[test]
fn clean_repeat_and_inert_fault_paths_agree() {
    let g = amt_graphs::generators::hypercube(5);
    let clean = || {
        run_sim(
            Simulator::new(&g, fleet(32), 2024)
                .unwrap()
                .with_observe(Observe {
                    trace: true,
                    ..Observe::default()
                }),
        )
    };
    let baseline = clean();
    assert!(baseline.0.messages > 0, "workload must send traffic");
    assert!(!baseline.1.events.is_empty(), "workload must emit events");
    assert_eq!(clean(), baseline, "a repeat of the clean run diverged");

    // Non-trivial plan (goes through the fault executor) that cannot fire:
    // the only scheduled fault is a crash at a round never reached.
    let inert = FaultPlan::none().with_crash(NodeId(0), 900_000);
    assert!(!inert.is_trivial());
    let faulty = run_sim(
        Simulator::new(&g, fleet(32), 2024)
            .unwrap()
            .with_fault_plan(inert)
            .with_observe(Observe {
                trace: true,
                ..Observe::default()
            }),
    );
    assert_eq!(faulty, baseline, "inert fault plan diverged from clean run");
}

/// Receiver of everything node 0 sends across a 2-node path. The message
/// type is `Option<u64>` because its codec can garble: flipping the
/// presence tag of a `Some` frame leaves undecodable bits, so both
/// `Corrupted { delivered: true }` and `{ delivered: false }` are reachable.
struct Recorder {
    send_rounds: u64,
    sent: u64,
    payload: u64,
    received: Vec<Option<u64>>,
}

impl Protocol for Recorder {
    type Message = Option<u64>;

    fn init(&mut self, ctx: &mut Ctx<'_, Option<u64>>) {
        if ctx.node().index() == 0 && self.sent < self.send_rounds {
            self.sent += 1;
            ctx.send(0, Some(self.payload));
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Option<u64>>, inbox: &[(usize, Option<u64>)]) {
        for &(_, v) in inbox {
            self.received.push(v);
        }
        if ctx.node().index() == 0 && self.sent < self.send_rounds {
            self.sent += 1;
            ctx.send(0, Some(self.payload));
        }
    }

    // Quiescence would stop at the first round whose only frame garbles
    // (zero deliveries), so termination is explicit instead.
    fn is_done(&self) -> bool {
        self.sent >= self.send_rounds
    }
}

/// The delivered-bits audit (ISSUE 3 satellite): with every frame corrupted,
/// `Metrics::bits` must equal the sum of the widths *actually delivered* —
/// measured independently on the receiver side, where each garbled frame's
/// decoded value determines its true encoded width — and the
/// corrupted/dropped classification must match the fault event log and the
/// round timeline exactly.
#[test]
fn corrupted_frame_bits_count_delivered_widths() {
    use amt_congest::CongestMessage;

    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    let sends = 40u64;
    // A wide payload (every send identical) so single-bit flips routinely
    // change the frame's encoded width in both directions.
    let payload = 0b1000_0000_0001u64;
    let mk = |send_rounds| {
        vec![
            Recorder {
                send_rounds,
                sent: 0,
                payload,
                received: Vec::new(),
            },
            Recorder {
                send_rounds: 0,
                sent: 0,
                payload: 0,
                received: Vec::new(),
            },
        ]
    };
    let mut sim = Simulator::new(&g, mk(sends), 9)
        .unwrap()
        .with_fault_plan(FaultPlan::none().seeded(31).with_corruption(1.0))
        .with_observe(Observe {
            trace: true,
            ..Observe::default()
        });
    let cfg = RunConfig {
        budget_factor: 64,
        ..RunConfig::all_done()
    };
    let m = sim.run(&cfg).unwrap();
    let trace = sim.take_observed().trace.unwrap();

    // Every staged frame was hit by the corruption fault.
    assert_eq!(m.corrupted, sends, "all frames must be corrupted");
    assert_eq!(m.dropped, 0);

    // Receiver-side ground truth: the widths of the frames that actually
    // arrived. `bits` counting anything else (e.g. the pre-corruption
    // widths) is the accounting bug this test pins down.
    let delivered_widths: u64 = sim.nodes()[1]
        .received
        .iter()
        .map(|v| v.bit_width() as u64)
        .sum();
    assert_eq!(m.bits, delivered_widths, "bits must count delivered widths");
    assert_eq!(m.messages, sim.nodes()[1].received.len() as u64);
    assert!(
        m.messages < sends,
        "seed chosen so some corrupted frames garble and are discarded"
    );

    // Classification must agree between the metrics counters, the fault
    // event log, and the round timeline.
    let events = sim.fault_events();
    let delivered_corruptions = events
        .iter()
        .filter(|e| e.kind == FaultKind::Corrupted { delivered: true })
        .count() as u64;
    let discarded_corruptions = events
        .iter()
        .filter(|e| e.kind == FaultKind::Corrupted { delivered: false })
        .count() as u64;
    assert_eq!(delivered_corruptions + discarded_corruptions, m.corrupted);
    assert_eq!(delivered_corruptions, m.messages);
    assert!(!events.iter().any(|e| e.kind == FaultKind::Dropped));

    assert_eq!(trace.samples.iter().map(|s| s.bits).sum::<u64>(), m.bits);
    assert_eq!(
        trace.samples.iter().map(|s| s.messages).sum::<u64>(),
        m.messages
    );
    assert_eq!(
        trace.samples.iter().map(|s| s.corrupted).sum::<u64>(),
        m.corrupted
    );
    assert_eq!(trace.reconstruct_metrics(), m);
}

/// A genuinely faulty run (drops, corruption, delays, a mid-run crash)
/// must be reconstructible from its timeline alone, field for field.
#[test]
fn faulty_timeline_replays_metrics_exactly() {
    let g = amt_graphs::generators::hypercube(4);
    let plan = FaultPlan::none()
        .seeded(17)
        .with_drops(0.08)
        .with_corruption(0.1)
        .with_delays(0.15, 4)
        .with_crash(NodeId(3), 4);
    let mut sim = Simulator::new(&g, fleet(16), 55)
        .unwrap()
        .with_fault_plan(plan)
        .with_observe(Observe {
            trace: true,
            ..Observe::default()
        });
    let m = sim.run(&RunConfig::default()).unwrap();
    let trace = sim.take_observed().trace.unwrap();

    assert_eq!(trace.reconstruct_metrics(), m);
    assert!(m.message_faults() > 0, "plan must actually inject faults");
    assert_eq!(m.crashed, 1);
    assert_eq!(trace.samples.len() as u64, m.rounds + 1);
    // The final per-edge loads are the engine's own.
    assert_eq!(trace.final_edge_load, sim.edge_load());
    // Fault events and timeline agree per kind.
    let by_kind = |pred: &dyn Fn(&FaultKind) -> bool| {
        sim.fault_events().iter().filter(|e| pred(&e.kind)).count() as u64
    };
    assert_eq!(by_kind(&|k| matches!(k, FaultKind::Dropped)), m.dropped);
    assert_eq!(
        by_kind(&|k| matches!(k, FaultKind::Corrupted { .. })),
        m.corrupted
    );
    assert_eq!(
        by_kind(&|k| matches!(k, FaultKind::Delayed { .. })),
        m.delayed
    );
    assert_eq!(
        by_kind(&|k| matches!(k, FaultKind::LostToCrash)),
        m.lost_to_crash
    );
    assert_eq!(by_kind(&|k| matches!(k, FaultKind::Crashed)), m.crashed);
}
