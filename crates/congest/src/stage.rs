//! One global round clock across the simulator runs of a multi-run driver.
//!
//! Healing Borůvka runs one simulator per flooding phase; the healing walks
//! and bit-fix routing run one per epoch. Each such run is a *stage*, and
//! every stage runs on one global clock: churn schedules are global-clock
//! rounds, observations fold into one timeline, and damage is dated on it.
//! A [`StageRunner`] keeps that clock. Each driver keeps its own policy:
//! stage seeds, how its [`FaultPlan`] is shifted into a stage, and which
//! damage events open a recovery span.

use crate::{
    ChurnEvent, ChurnKind, ChurnPlan, FaultPlan, Metrics, Observe, ObservedRuns, Protocol,
    RecoveryTimeline, Result, RunConfig, Simulator,
};
use amt_graphs::Graph;

/// The global clock, observations and recovery timeline of a driver that
/// chains simulator runs.
#[derive(Clone, Debug)]
pub struct StageRunner {
    /// Metrics summed over every stage so far; `rounds` is the global
    /// clock. Rounds a driver charges outside the simulator go here too.
    pub metrics: Metrics,
    /// Every stage's observations, folded in stage order.
    pub runs: ObservedRuns,
    /// Damage-to-recovery spans on the global clock.
    pub timeline: RecoveryTimeline,
    observe: Observe,
    churn: ChurnPlan,
}

impl StageRunner {
    /// A runner at clock 0 that runs every stage under `churn` and records
    /// the `observe` layers.
    pub fn new(churn: ChurnPlan, observe: Observe) -> Self {
        StageRunner {
            metrics: Metrics::default(),
            runs: ObservedRuns::default(),
            timeline: RecoveryTimeline::new(),
            observe,
            churn,
        }
    }

    /// The global clock: rounds run (or charged) so far.
    pub fn clock(&self) -> u64 {
        self.metrics.rounds
    }

    /// The churn plan on its own clock, as passed to [`StageRunner::new`].
    pub fn churn(&self) -> &ChurnPlan {
        &self.churn
    }

    /// Runs one stage of `nodes` over `g` from `seed` under `plan` and the
    /// churn plan re-anchored at the clock ([`ChurnPlan::at_offset`]), then
    /// folds its observations ([`ObservedRuns::absorb`]) and [`Metrics`]
    /// in. Returns the finished simulator and the clock at the stage's
    /// start, which dates the stage's local rounds.
    ///
    /// # Errors
    ///
    /// Whatever [`Simulator::new`] or [`Simulator::run`] returns.
    pub fn run<'g, P: Protocol>(
        &mut self,
        g: &'g Graph,
        nodes: Vec<P>,
        seed: u64,
        plan: FaultPlan,
        cfg: &RunConfig,
    ) -> Result<(Simulator<'g, P>, u64)> {
        let start = self.clock();
        let offset = self.churn.round_offset + start;
        let mut sim = Simulator::new(g, nodes, seed)?
            .with_fault_plan(plan)
            .with_churn_plan(self.churn.clone().at_offset(offset))
            .with_observe(self.observe);
        self.metrics = self.metrics.then(sim.run(cfg)?);
        self.runs.absorb(sim.take_observed(), start);
        Ok((sim, start))
    }

    /// Opens a recovery span at local round `round` of the stage that
    /// started at clock `start`.
    pub fn damage(&mut self, start: u64, round: u64) {
        self.timeline.record_damage(start + round);
    }

    /// Opens a recovery span for every event of the churn log of the stage
    /// that started at `start` that takes an edge or a node down and that
    /// `counts` accepts.
    pub fn churn_damage(
        &mut self,
        start: u64,
        events: &[ChurnEvent],
        counts: impl Fn(ChurnKind) -> bool,
    ) {
        let down = |k| matches!(k, ChurnKind::EdgeDown { .. } | ChurnKind::NodeDown { .. });
        for ev in events.iter().filter(|ev| down(ev.kind) && counts(ev.kind)) {
            self.damage(start, ev.round);
        }
    }

    /// Closes every open recovery span at the clock.
    pub fn recovered(&mut self) {
        self.timeline.record_recovery(self.clock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, TrafficProfile};
    use amt_graphs::EdgeId;

    /// Sends over port 0 for `left` rounds, logging whether the link was up.
    struct Beacon {
        left: u64,
        up: Vec<(u64, bool)>,
    }

    impl Protocol for Beacon {
        type Message = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.round(ctx, &[]);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, _: &[(usize, u32)]) {
            if self.left > 0 {
                self.left -= 1;
                self.up.push((ctx.round(), ctx.link_up(0)));
                ctx.send(0, 1);
            }
        }
        fn is_done(&self) -> bool {
            self.left == 0
        }
    }

    /// Two stages whose boundary falls inside an edge outage: the second
    /// sees the edge down in exactly the outage's remaining global rounds,
    /// and traces, profile and metrics fold in stage order, the second
    /// stage shifted by the first one's length (the first, at offset 0
    /// into an empty fold, keeps its own profile).
    #[test]
    fn stages_share_one_clock() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let churn = ChurnPlan::none().with_edge_outage(EdgeId(0), 2, 6);
        let observe = Observe {
            trace: true,
            profile: true,
            ..Observe::default()
        };
        let cfg = RunConfig::all_done();
        let beacons = |left| (0..2).map(|_| Beacon { left, up: vec![] }).collect();
        // Each stage by hand, on the churn plan shifted by `offset`.
        let by_hand = |left, offset| {
            let mut sim = Simulator::new(&g, beacons(left), 5)
                .unwrap()
                .with_churn_plan(churn.clone().at_offset(offset))
                .with_observe(observe);
            (sim.run(&cfg).unwrap(), sim.take_observed())
        };
        let mut runner = StageRunner::new(churn.clone(), observe);
        let (_, start) = runner
            .run(&g, beacons(4), 5, FaultPlan::none(), &cfg)
            .unwrap();
        let (first, (m1, o1)) = (runner.clock(), by_hand(4, 0));
        assert_eq!((start, first), (0, m1.rounds));
        assert_eq!(runner.runs.profile, o1.profile);
        assert!((3..8).contains(&first), "the boundary must cut the outage");
        let (sim, start) = runner
            .run(&g, beacons(9), 5, FaultPlan::none(), &cfg)
            .unwrap();
        assert_eq!(start, first);
        assert_eq!(sim.nodes()[0].up.len(), 9);
        for &(r, up) in sim.nodes().iter().flat_map(|p| &p.up) {
            assert_eq!(up, !(2..8).contains(&(first + r)), "local round {r}");
        }

        let (m2, o2) = by_hand(9, first);
        assert_eq!(runner.metrics, m1.then(m2));
        assert_eq!(runner.runs.traces, [o1.trace.unwrap(), o2.trace.unwrap()]);
        let rounds = |p: &TrafficProfile| -> Vec<u64> {
            p.per_class[0].timeline.iter().map(|s| s.round).collect()
        };
        let mut want = rounds(&o1.profile.unwrap());
        want.extend(rounds(&o2.profile.unwrap()).iter().map(|r| r + first));
        let folded = runner.runs.profile.unwrap();
        assert_eq!(rounds(&folded), want);
        assert_eq!(folded.total_messages(), m1.messages + m2.messages);
    }
}
