//! The observation pipeline's contract on one fault-plus-churn workload:
//! every subset of {trace, profile, phase timers} leaves the run's
//! `Metrics`, node outputs, fault log and churn log exactly as an
//! unobserved run's, each layer records the same thing whichever other
//! layer is on, and the trace's gauge fold is the field-wise max of its
//! per-round records.

use amt_core::congest::{
    class, ChurnEvent, ChurnPlan, Ctx, FaultEvent, FaultPlan, GaugeHighWater, Metrics, Observe,
    Observed, Protocol, RoundSample, RunConfig, Simulator, StopCondition,
};
use amt_core::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A fixed-horizon checksum flood: RNG-jittered payloads under two traffic
/// classes, a span event every fifth round, and a restart hook, so every
/// layer has something to record.
struct Gossip {
    rounds_left: u32,
    checksum: u64,
}

impl Gossip {
    fn spray(&mut self, ctx: &mut Ctx<'_, u32>) {
        for p in 0..ctx.degree() {
            let jitter = ctx.rng().random_range(0..1024u32);
            let cls = if p % 2 == 0 {
                class::DEFAULT
            } else {
                class::REL_ACK
            };
            ctx.send_classed(p, ((self.checksum as u32) & 0x3FF) ^ jitter, cls);
        }
        if ctx.round() % 5 == 0 {
            ctx.trace_event("gossip", u64::from(self.rounds_left));
        }
    }
}

impl Protocol for Gossip {
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

    fn on_restart(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.checksum = 0;
        self.spray(ctx);
    }
}

/// Everything a run exposes besides its observations.
type Observables = (Metrics, Vec<u64>, Vec<FaultEvent>, Vec<ChurnEvent>);

fn run(g: &Graph, observe: Observe) -> (Observables, Observed) {
    let nodes = (0..g.len())
        .map(|_| Gossip {
            rounds_left: 24,
            checksum: 0,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, 29)
        .unwrap()
        .with_fault_plan(
            FaultPlan::none()
                .seeded(23)
                .with_drops(0.05)
                .with_corruption(0.03)
                .with_delays(0.1, 3)
                .with_crash(NodeId(5), 4),
        )
        .with_churn_plan(
            ChurnPlan::none()
                .seeded(47)
                .with_flaps(0.05, 4)
                .with_edge_outage(EdgeId(2), 3, 6)
                .with_restart(NodeId(9), 6, 4),
        )
        .with_observe(observe);
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let metrics = sim.run(&cfg).unwrap();
    let observables = (
        metrics,
        sim.nodes().iter().map(|n| n.checksum).collect(),
        sim.fault_events().to_vec(),
        sim.churn_events().to_vec(),
    );
    (observables, sim.take_observed())
}

#[test]
fn every_observer_subset_is_observably_free_and_layer_independent() {
    let mut rng = StdRng::seed_from_u64(61);
    let g = generators::random_regular(64, 6, &mut rng).unwrap();
    let (plain, nothing) = run(&g, Observe::default());
    assert_eq!(
        nothing,
        Observed::default(),
        "every layer is off by default"
    );
    assert!(plain.0.message_faults() > 0, "faults must fire");
    assert!(
        plain.0.lost_to_churn > 0 && plain.0.restarts == 1,
        "churn must bite: {:?}",
        plain.0
    );

    let mut trace_ref = None;
    let mut profile_ref = None;
    for mask in 0..8u8 {
        let observe = Observe {
            trace: mask & 1 != 0,
            profile: mask & 2 != 0,
            phases: mask & 4 != 0,
        };
        let (observables, observed) = run(&g, observe);
        assert_eq!(
            observables, plain,
            "layers {mask:03b}: observation changed the run"
        );
        assert_eq!(observed.trace.is_some(), mask & 1 != 0);
        assert_eq!(observed.profile.is_some(), mask & 2 != 0);
        assert_eq!(observed.phases.is_some(), mask & 4 != 0);
        if let Some(t) = &observed.phases {
            let labels: Vec<&str> = t.entries().iter().map(|&(l, _)| l).collect();
            assert_eq!(labels, ["topology", "activate", "step", "merge", "group"]);
            assert!(
                t.total_nanos() > 0,
                "layers {mask:03b}: the phases took time"
            );
        }
        if let Some(t) = observed.trace {
            assert_eq!(t.reconstruct_metrics(), plain.0);
            assert!(!t.events.is_empty());
            let max = |f: fn(&RoundSample) -> u64| t.samples.iter().map(f).max().unwrap_or(0);
            assert_eq!(
                t.high_water(),
                GaugeHighWater {
                    active_nodes: max(|s| s.active_nodes),
                    inbox_queued: max(|s| s.inbox_queued),
                    staged_sends: max(|s| s.staged_sends),
                    wake_queue: max(|s| s.wake_queue),
                    arena_bytes: max(|s| s.arena_bytes),
                },
                "layers {mask:03b}: high-water marks"
            );
            let first = trace_ref.get_or_insert_with(|| t.clone());
            assert_eq!(&t, first, "layers {mask:03b}: trace");
        }
        if let Some(p) = observed.profile {
            assert_eq!(p.total_messages(), plain.0.messages);
            assert_eq!(p.per_class.len(), 2);
            let first = profile_ref.get_or_insert_with(|| p.clone());
            assert_eq!(&p, first, "layers {mask:03b}: profile");
        }
    }
}
