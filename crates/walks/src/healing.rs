//! Self-healing walk execution under injected faults.
//!
//! [`crate::congest_exec`] executes walk tokens over a pristine network;
//! this module runs the same workload on the fault-injected simulator and
//! keeps every walk alive through drops, corruption, bounded delays, and
//! crash-stop failures:
//!
//! * **custody transfer** — a node keeps a copy of every token it forwards
//!   until the receiver acknowledges it; unacknowledged tokens are
//!   retransmitted with exponential backoff. A checksum in the wire format
//!   turns any single-bit corruption into a detected loss, so corrupted
//!   tokens are retransmitted rather than mutated.
//! * **crash detection via missing acks** — a port whose peer never
//!   acknowledges within the attempt budget is marked suspect; the sender
//!   still holds custody, so the token is re-routed through the remaining
//!   live ports instead of vanishing.
//! * **epoch re-issue** — tokens resident *at* a node when it crashes are
//!   unrecoverable in-protocol; the driver detects the missing walks after
//!   termination and re-issues them from their original start with their
//!   full step budget, up to [`MAX_EPOCHS`] times. Re-issue epochs back off
//!   exponentially (capped) with deterministic jitter on the custody
//!   timeout, so sustained damage is met with patience instead of
//!   retransmit storms.
//!
//! Under *topology churn* (the [`ChurnPlan`] of [`run_walks_healing`]) the
//! same machinery applies: tokens sample their next hop among
//! ports whose link is up this round ([`amt_congest::Ctx::link_up`]),
//! retransmissions into a known-down link are deferred (the attempt still
//! counts, so a permanently cut port is eventually marked suspect and
//! rerouted around), and a crash-*restarted* node loses its volatile token
//! state but keeps its dedup/finish records, modeling stable storage. The
//! epochs are the stages of one [`StageRunner`], so churn, observations
//! and the [`RecoveryTimeline`] of damage-to-redelivery spans share one
//! global round clock; fault crashes count as damage only in epoch 0. A
//! walk whose start crashed is never re-issued, nor counted in
//! [`HealedWalkRun::reissued`].
//!
//! The degradation is correct-but-slower: every walk whose start survives
//! finishes (re-routed walks take a perturbed kernel past suspect ports,
//! re-issued walks restart), rounds and messages grow with the fault rate,
//! and the protocol never wedges — termination is by acked quiescence, with
//! crashed nodes excluded. If [`MAX_EPOCHS`] re-issues still leave walks
//! with live starts undelivered (sustained churn outpacing the retry
//! budget), the driver surfaces [`CongestError::RetryExhausted`] instead of
//! silently dropping them.
//!
//! [`run_walks_healing`] is the plain entry point and
//! [`run_walks_healing_observed`] the same run with the observation layers
//! of an [`Observe`] on.

use crate::{WalkKind, WalkSpec};
use amt_congest::primitives::reliable::fold4;
use amt_congest::{
    backoff_timeout, class, ChurnPlan, CongestError, CongestMessage, Ctx, FaultKind, FaultPlan,
    Metrics, Observe, ObservedRuns, ProfileConfig, Protocol, RecoveryTimeline, RunConfig, RunTrace,
    StageRunner, StopCondition, TraceConfig, TrafficClass, TrafficProfile,
};
use amt_graphs::{Graph, NodeId};
use rand::RngExt;
use std::collections::{HashMap, VecDeque};

/// Epoch budget for re-issuing walks lost to crashes.
pub const MAX_EPOCHS: u32 = 5;

/// Transmissions of one token over one port without a custody ack before
/// the port's peer is presumed crashed.
const MAX_ATTEMPTS: u32 = 8;

/// Wire format of the healing walk protocol.
///
/// Layout (low bits first): `[tag:1][walk:16][left:16][check:4]` — 37 bits,
/// with a 4-bit XOR-fold checksum over the rest of the frame so any
/// single-bit flip is detected (and repaired by retransmission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HealMsg {
    /// A walk token hopping one edge: `(walk id, steps remaining)`.
    Token { walk: u32, left: u32 },
    /// Custody acknowledgement of exactly that token.
    Ack { walk: u32, left: u32 },
}

impl CongestMessage for HealMsg {
    fn bit_width(&self) -> usize {
        37
    }

    fn encode_bits(&self) -> Option<u64> {
        let (tag, walk, left) = match *self {
            HealMsg::Token { walk, left } => (0u64, walk, left),
            HealMsg::Ack { walk, left } => (1u64, walk, left),
        };
        if walk >= 1 << 16 || left >= 1 << 16 {
            return None;
        }
        let mut bits = tag | (u64::from(walk) << 1) | (u64::from(left) << 17);
        bits |= fold4(bits) << 33;
        Some(bits)
    }

    fn decode_bits(bits: u64) -> Option<Self> {
        if bits >> 37 != 0 {
            return None;
        }
        let check = (bits >> 33) & 0xF;
        let cleared = bits & !(0xFu64 << 33);
        if fold4(cleared) != check {
            return None;
        }
        let walk = ((bits >> 1) & 0xFFFF) as u32;
        let left = ((bits >> 17) & 0xFFFF) as u32;
        Some(if bits & 1 == 0 {
            HealMsg::Token { walk, left }
        } else {
            HealMsg::Ack { walk, left }
        })
    }
}

/// A token awaiting its custody ack on one port.
struct Inflight {
    walk: u32,
    left: u32,
    next_retry: u64,
    attempts: u32,
}

/// Per-node state of the healing walk protocol.
struct HealNode {
    /// Tokens ready to sample their next transition.
    ready: VecDeque<(u32, u32)>,
    /// Tokens that consumed this round as a lazy "stay".
    stayed: Vec<(u32, u32)>,
    /// Tokens waiting for their sampled port to free up.
    port_queue: Vec<VecDeque<(u32, u32)>>,
    /// One unacked token per port (stop-and-wait custody).
    inflight: Vec<Option<Inflight>>,
    /// Custody acks owed, per port (sent with priority).
    ack_queue: Vec<VecDeque<(u32, u32)>>,
    /// Ports whose peer exhausted the retry budget (presumed crashed).
    suspect: Vec<bool>,
    /// Smallest `left` accepted per walk — `left` strictly decreases along
    /// a walk, so anything ≥ the recorded value is a retransmit duplicate.
    seen: HashMap<u32, u32>,
    /// Tokens that finished here.
    finished: Vec<u32>,
    /// Tokens this node re-routed after a custody give-up.
    rerouted: u64,
    degree: usize,
    delta: usize,
    kind: WalkKind,
    timeout: u64,
    /// Which re-issue epoch this node is executing (0 = first attempt).
    epoch: u32,
    /// The round this node last asked to be woken in (`0` = never), so an
    /// unchanged deadline is not requested twice.
    armed: u64,
}

/// The run configuration of one epoch.
const EPOCH_CONFIG: RunConfig = RunConfig {
    max_rounds: 500_000,
    budget_factor: 16,
    stop: StopCondition::AllDone,
    full_sweep: false,
};

impl HealNode {
    /// Samples one transition per ready token; movers join a live port's
    /// FIFO queue, stays (and tokens with no live exit) burn one step. A
    /// port is live when its peer is not suspect *and* its link is up this
    /// round — the reroute-around-dead-edges half of churn healing. Both
    /// predicates are pure per `(round, port)`, so filtering keeps the
    /// executor's determinism contract.
    fn drain_ready(&mut self, ctx: &mut Ctx<'_, HealMsg>) {
        if self.ready.is_empty() {
            return;
        }
        let live: Vec<usize> = (0..self.degree)
            .filter(|&p| !self.suspect[p] && ctx.link_up(p))
            .collect();
        while let Some((walk, left)) = self.ready.pop_front() {
            debug_assert!(left > 0);
            let stay = match self.kind {
                WalkKind::Lazy => ctx.rng().random_bool(0.5),
                WalkKind::DeltaRegular => {
                    let p = self.degree as f64 / (2.0 * self.delta.max(1) as f64);
                    !ctx.rng().random_bool(p)
                }
            };
            if stay || live.is_empty() {
                let left = left - 1;
                if left == 0 {
                    self.finished.push(walk);
                } else {
                    self.stayed.push((walk, left));
                }
            } else {
                let port = live[ctx.rng().random_range(0..live.len())];
                self.port_queue[port].push_back((walk, left));
            }
        }
    }

    /// Emits at most one frame per port: owed acks first, then a due
    /// retransmission, then a fresh token if the port's custody slot is
    /// free. A custody slot that exhausts its budget marks the port
    /// suspect and re-routes the token.
    fn emit(&mut self, ctx: &mut Ctx<'_, HealMsg>) {
        let round = ctx.round();
        for port in 0..self.degree {
            if let Some((walk, left)) = self.ack_queue[port].pop_front() {
                ctx.send_classed(port, HealMsg::Ack { walk, left }, class::WALK_CUSTODY);
                continue;
            }
            if let Some(f) = &mut self.inflight[port] {
                if f.next_retry > round {
                    continue;
                }
                if f.attempts >= MAX_ATTEMPTS {
                    // Missing acks: presume the peer crashed, take custody
                    // back, and let the token re-sample among live ports.
                    let f = self.inflight[port].take().expect("checked above");
                    self.suspect[port] = true;
                    self.rerouted += 1;
                    self.ready.push_back((f.walk, f.left));
                    continue;
                }
                f.attempts += 1;
                f.next_retry = round + (self.timeout << (f.attempts - 1).min(4));
                // Defer (but still charge) retransmissions into a link that
                // is down this round: the frame would be lost anyway, and
                // charging the attempt keeps the give-up bound intact, so a
                // permanently cut port still goes suspect and reroutes.
                if ctx.link_up(port) {
                    ctx.send_classed(
                        port,
                        HealMsg::Token {
                            walk: f.walk,
                            left: f.left,
                        },
                        class::WALK_RETRANSMIT,
                    );
                }
                continue;
            }
            if self.suspect[port] {
                // Strand nothing behind a dead port.
                while let Some(tok) = self.port_queue[port].pop_front() {
                    self.ready.push_back(tok);
                }
                continue;
            }
            if let Some((walk, left)) = self.port_queue[port].pop_front() {
                self.inflight[port] = Some(Inflight {
                    walk,
                    left,
                    next_retry: round + self.timeout,
                    attempts: 1,
                });
                // Same deferral as retransmissions: custody is taken (so the
                // retry/give-up clock runs) but no frame is burned into a
                // link that is down this round.
                if ctx.link_up(port) {
                    ctx.send_classed(port, HealMsg::Token { walk, left }, class::WALK_TOKEN);
                }
            }
        }
    }

    /// Arms the wake-up a sparse step needs after [`Self::emit`]: next
    /// round while the node holds work it will act on with an empty inbox —
    /// stayed or ready tokens, an owed ack, or a queued token behind a port
    /// with no custody frame (`emit` sends an owed ack *instead* of such a
    /// token) — else the earliest custody deadline, the only round in which
    /// an idle port can retransmit or give up. A deadline can already be
    /// due (an owed ack took its port's slot), hence the clamp to the next
    /// round.
    fn arm_wake(&mut self, ctx: &mut Ctx<'_, HealMsg>) {
        let round = ctx.round();
        let busy = !self.ready.is_empty()
            || !self.stayed.is_empty()
            || self.ack_queue.iter().any(|q| !q.is_empty())
            || (0..self.degree)
                .any(|p| self.inflight[p].is_none() && !self.port_queue[p].is_empty());
        let deadline = if busy {
            Some(round + 1)
        } else {
            self.inflight.iter().flatten().map(|f| f.next_retry).min()
        };
        if let Some(t) = deadline {
            let delta = t.saturating_sub(round).max(1);
            if round + delta != self.armed {
                self.armed = round + delta;
                ctx.wake_in(delta);
            }
        }
    }
}

struct HealProtocol {
    node: HealNode,
}

/// Skip-safe: every step ends by arming the next round the node can act in
/// with an empty inbox ([`HealNode::arm_wake`]).
impl Protocol for HealProtocol {
    type Message = HealMsg;

    const TRAFFIC_CLASS: TrafficClass = class::WALK_TOKEN;

    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, HealMsg>) {
        // Walks resident here at the start of a re-issue epoch were lost to
        // a carrier crash and restart from scratch; mark each one in the
        // trace so epoch recovery is observable.
        if self.node.epoch > 0 {
            for &(walk, _) in &self.node.ready {
                ctx.trace_event("walk_epoch_reissue", u64::from(walk));
            }
        }
        self.tick(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, HealMsg>, inbox: &[(usize, HealMsg)]) {
        for &(port, msg) in inbox {
            match msg {
                HealMsg::Ack { walk, left } => {
                    if self.node.inflight[port]
                        .as_ref()
                        .is_some_and(|f| f.walk == walk && f.left == left)
                    {
                        self.node.inflight[port] = None;
                    }
                }
                HealMsg::Token { walk, left } => {
                    // Always (re-)ack — a duplicate means our ack was lost.
                    self.node.ack_queue[port].push_back((walk, left));
                    let fresh = self
                        .node
                        .seen
                        .get(&walk)
                        .is_none_or(|&accepted| left < accepted);
                    if fresh {
                        self.node.seen.insert(walk, left);
                        // The traversal that delivered the token is a step.
                        let left = left - 1;
                        if left == 0 {
                            self.node.finished.push(walk);
                        } else {
                            self.node.ready.push_back((walk, left));
                        }
                    }
                }
            }
        }
        self.tick(ctx);
    }

    /// Crash-restart with state loss: every volatile token — ready, stayed,
    /// port-queued, and unacked custody copies — is gone, along with owed
    /// acks and the suspect view (the topology may have changed while we
    /// were away). The dedup map and finish records survive: they are
    /// routing-table-sized and model stable storage, so a retransmitted
    /// token the pre-restart node already accepted is not double-counted.
    /// Lost walks are detected at epoch end and re-issued by the driver.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, HealMsg>) {
        let n = &mut self.node;
        let lost = n.ready.len()
            + n.stayed.len()
            + n.port_queue.iter().map(VecDeque::len).sum::<usize>()
            + n.inflight.iter().flatten().count();
        if lost > 0 {
            ctx.trace_event("walk_restart_lost", lost as u64);
        }
        n.ready.clear();
        n.stayed.clear();
        for q in &mut n.port_queue {
            q.clear();
        }
        for f in &mut n.inflight {
            *f = None;
        }
        for q in &mut n.ack_queue {
            q.clear();
        }
        for s in &mut n.suspect {
            *s = false;
        }
        self.tick(ctx);
    }

    fn is_done(&self) -> bool {
        self.node.ready.is_empty()
            && self.node.stayed.is_empty()
            && self.node.port_queue.iter().all(VecDeque::is_empty)
            && self.node.ack_queue.iter().all(VecDeque::is_empty)
            && self.node.inflight.iter().all(Option::is_none)
    }
}

impl HealProtocol {
    /// One instance per node of `g` for re-issue epoch `epoch`, each walk
    /// `(id, spec)` of `walks` held ready at its start node.
    fn fleet<'s>(
        g: &Graph,
        walks: impl Iterator<Item = (u32, &'s WalkSpec)>,
        kind: WalkKind,
        timeout: u64,
        epoch: u32,
    ) -> Vec<Self> {
        let mut initial: Vec<VecDeque<(u32, u32)>> = vec![VecDeque::new(); g.len()];
        for (i, spec) in walks {
            initial[spec.start.index()].push_back((i, spec.steps));
        }
        let delta = g.max_degree();
        g.nodes()
            .map(|v| {
                let degree = g.degree(v);
                let node = HealNode {
                    ready: std::mem::take(&mut initial[v.index()]),
                    stayed: Vec::new(),
                    port_queue: vec![VecDeque::new(); degree],
                    inflight: (0..degree).map(|_| None).collect(),
                    ack_queue: vec![VecDeque::new(); degree],
                    suspect: vec![false; degree],
                    seen: HashMap::new(),
                    finished: Vec::new(),
                    rerouted: 0,
                    degree,
                    delta,
                    kind,
                    timeout,
                    epoch,
                    armed: 0,
                };
                HealProtocol { node }
            })
            .collect()
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, HealMsg>) {
        let node = &mut self.node;
        node.ready.extend(node.stayed.drain(..));
        node.drain_ready(ctx);
        node.emit(ctx);
        node.arm_wake(ctx);
    }
}

/// Outcome of a self-healing walk execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealedWalkRun {
    /// Final node per walk; `None` only for walks whose start crash-stopped
    /// (walks with live starts either finish or the run errors with
    /// [`CongestError::RetryExhausted`]).
    pub endpoints: Vec<Option<NodeId>>,
    /// Accumulated metrics over all epochs (faults and churn included).
    pub metrics: Metrics,
    /// Epochs executed (1 = no re-issue was needed).
    pub epochs: u32,
    /// Walks re-issued from their start after their carrier crashed or
    /// restarted.
    pub reissued: u64,
    /// Tokens re-routed in-protocol after a custody give-up.
    pub rerouted: u64,
    /// Damage-to-redelivery spans on the accumulated round clock: a span
    /// opens at every crash, node outage, or edge outage and closes at the
    /// end of the first epoch with no deliverable walk missing. Empty for
    /// damage-free runs.
    pub timeline: RecoveryTimeline,
}

/// Executes `specs` over the fault-injected simulator under the faults of
/// `plan` and the topology churn of `churn`, with custody-transfer
/// retransmission, link-aware rerouting, restart state loss, epoch
/// re-issue and a [`RecoveryTimeline`] in the outcome; see the module docs
/// for the healing mechanisms. The churn plan's global clock spans all
/// epochs — an edge scheduled down in rounds `[a, b)` is down in those
/// *accumulated* rounds wherever the epoch boundaries fall.
///
/// # Errors
///
/// Propagates simulator violations and plan validation errors;
/// [`CongestError::RetryExhausted`] when [`MAX_EPOCHS`] re-issues leave
/// walks with live starts undelivered.
pub fn run_walks_healing(
    g: &Graph,
    kind: WalkKind,
    specs: &[WalkSpec],
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
) -> Result<HealedWalkRun, CongestError> {
    let (run, _) =
        run_walks_healing_observed(g, kind, specs, seed, plan, churn, Observe::default())?;
    Ok(run)
}

/// [`run_walks_healing`] with every epoch observed by the `observe` layers,
/// folded across epochs into one [`ObservedRuns`]. Each epoch's trace
/// shows its re-issues as `"walk_epoch_reissue"` events; the profile's
/// per-class totals sum exactly to the run's [`Metrics`]. No layer changes
/// the outcome.
///
/// # Errors
///
/// As [`run_walks_healing`].
pub fn run_walks_healing_observed(
    g: &Graph,
    kind: WalkKind,
    specs: &[WalkSpec],
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
    observe: Observe,
) -> Result<(HealedWalkRun, ObservedRuns), CongestError> {
    assert!(specs.len() < 1 << 16, "wire format carries 16-bit walk ids");
    plan.validate(g.len())?;
    churn.validate(g.len(), g.edge_count())?;
    let timeout = 4 + 2 * plan.max_delay;

    let mut endpoints: Vec<Option<NodeId>> = specs
        .iter()
        .map(|s| (s.steps == 0).then_some(s.start))
        .collect();
    let mut reissued = 0u64;
    let mut rerouted = 0u64;
    let mut epochs = 0u32;
    let mut runner = StageRunner::new(churn, observe);
    let mut crashed: Vec<bool> = vec![false; g.len()];
    // Walks still owed an endpoint whose start is alive, re-issued each
    // epoch from the start.
    let mut pending: Vec<u32> = (0..specs.len() as u32)
        .filter(|&i| specs[i as usize].steps > 0)
        .collect();

    while !pending.is_empty() && epochs < MAX_EPOCHS {
        let epoch = epochs;
        epochs += 1;
        // Later re-issue epochs wait longer for custody acks before
        // presuming a peer dead, so walks ride out sustained flapping
        // instead of burning their attempt budget into a link that is about
        // to return.
        let epoch_timeout = backoff_timeout(timeout, epoch, &plan, runner.churn());

        let walks = pending.iter().map(|&i| (i, &specs[i as usize]));
        let nodes = HealProtocol::fleet(g, walks, kind, epoch_timeout, epoch);
        // Epoch 0 runs the plan as scheduled; crash-stop is permanent, so
        // later epochs start with every already-fired crash in force at
        // round 0 and draw fresh message faults from a shifted seed.
        let epoch_plan = if epoch == 0 {
            plan.clone()
        } else {
            let mut p = plan.clone();
            p.seed = plan.seed ^ u64::from(epoch).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            p.crashes.retain(|c| crashed[c.node.index()]);
            for c in &mut p.crashes {
                c.round = 0;
            }
            p
        };
        let (sim, start) =
            runner.run(g, nodes, seed ^ u64::from(epoch), epoch_plan, &EPOCH_CONFIG)?;
        for v in sim.crashed_nodes() {
            crashed[v.index()] = true;
        }
        // Damage events open recovery spans on the global clock. Fault
        // crashes only count in epoch 0: later epochs re-apply the already
        // fired ones at their round 0, which is no new damage.
        runner.churn_damage(start, sim.churn_events(), |_| true);
        if epoch == 0 {
            for ev in sim.fault_events() {
                if matches!(ev.kind, FaultKind::Crashed) {
                    runner.damage(start, ev.round);
                }
            }
        }
        // A finish recorded at a node that later crashed still counts —
        // the walk completed before the failure.
        for (v, p) in sim.nodes().iter().enumerate() {
            rerouted += p.node.rerouted;
            for &walk in &p.node.finished {
                endpoints[walk as usize] = Some(NodeId::from(v));
            }
        }
        // Walks whose start crashed are never re-issued.
        pending.retain(|&i| {
            endpoints[i as usize].is_none() && !crashed[specs[i as usize].start.index()]
        });
        // The batch is re-delivered once no walk with a live start is
        // missing; that closes every open recovery span at this epoch's
        // end on the global clock.
        if pending.is_empty() {
            runner.recovered();
        } else if epochs < MAX_EPOCHS {
            reissued += pending.len() as u64;
        }
    }

    // Walks whose start is alive but that sustained damage kept losing for
    // MAX_EPOCHS straight are an explicit give-up, not a silent `None`
    // (`port` is 0 by convention: the give-up is walk-level, not per-link).
    if let Some(&lost) = pending.first() {
        return Err(CongestError::RetryExhausted {
            node: specs[lost as usize].start,
            port: 0,
            attempts: epochs,
            round: runner.clock(),
            seed: plan.seed,
        });
    }

    // Later epochs re-apply the already-fired crashes at round 0 to keep
    // crash-stop permanent; count each node once, not once per epoch.
    let mut metrics = runner.metrics;
    metrics.crashed = crashed.iter().filter(|&&c| c).count() as u64;

    Ok((
        HealedWalkRun {
            endpoints,
            metrics,
            epochs,
            reissued,
            rerouted,
            timeline: runner.timeline,
        },
        runner.runs,
    ))
}

/// [`run_walks_healing_observed`] with the trace (one [`RunTrace`] per
/// epoch) and profile layers, as a tuple. `_threads` is ignored.
///
/// Kept for the repository benchmark's pinned call; use
/// [`run_walks_healing_observed`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn run_walks_healing_churned_instrumented(
    g: &Graph,
    kind: WalkKind,
    specs: &[WalkSpec],
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
    _threads: usize,
    trace: Option<TraceConfig>,
    profile: Option<ProfileConfig>,
) -> Result<(HealedWalkRun, Vec<RunTrace>, Option<TrafficProfile>), CongestError> {
    let observe = Observe {
        trace: trace.is_some(),
        profile: profile.is_some(),
        ..Observe::default()
    };
    let (run, runs) = run_walks_healing_observed(g, kind, specs, seed, plan, churn, observe)?;
    Ok((run, runs.traces, runs.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::degree_proportional_specs;
    use amt_congest::oracle::{assert_engines_agree, EngineObservation};
    use amt_congest::Simulator;
    use amt_graphs::{generators, EdgeId};

    /// What a node reports after an epoch: finished walks and re-routes.
    fn node_output(p: &HealProtocol) -> (Vec<u32>, u64) {
        (p.node.finished.clone(), p.node.rerouted)
    }

    /// One first epoch of `specs` on the active-set engine against the
    /// full-sweep reference, both visit orders; returns the reference.
    fn epoch_engines_agree(
        g: &Graph,
        specs: &[WalkSpec],
        plan: &FaultPlan,
        churn: &ChurnPlan,
    ) -> EngineObservation<(Vec<u32>, u64)> {
        let timeout = 4 + 2 * plan.max_delay;
        let build = || {
            let walks = specs.iter().enumerate().map(|(i, s)| (i as u32, s));
            let nodes = HealProtocol::fleet(g, walks, WalkKind::Lazy, timeout, 0);
            Simulator::new(g, nodes, 41)
                .unwrap()
                .with_fault_plan(plan.clone())
                .with_churn_plan(churn.clone())
        };
        assert_engines_agree(build, &EPOCH_CONFIG, node_output)
    }

    #[test]
    fn custody_walks_match_full_sweep_under_faults() {
        let g = generators::hypercube(5);
        let specs = degree_proportional_specs(&g, 1, 14);
        let plan = FaultPlan::none()
            .seeded(6)
            .with_drops(0.1)
            .with_corruption(0.05)
            .with_delays(0.1, 3)
            .with_crash(NodeId(12), 5);
        let reference = epoch_engines_agree(&g, &specs, &plan, &ChurnPlan::none());
        let m = reference.result.unwrap();
        assert!(m.dropped > 0 && m.corrupted > 0 && m.delayed > 0);
        assert_eq!(reference.crashed, vec![NodeId(12)]);
        assert!(
            reference.outputs.iter().any(|o| o.1 > 0),
            "a custody give-up must re-route a token"
        );
    }

    #[test]
    fn custody_walks_match_full_sweep_under_churn() {
        let g = generators::hypercube(5);
        let specs = degree_proportional_specs(&g, 1, 14);
        let churn = ChurnPlan::none()
            .seeded(19)
            .with_flaps(0.1, 4)
            .with_restart(NodeId(3), 4, 6)
            .with_edge_cut(EdgeId(5), 2)
            .at_offset(3);
        let reference = epoch_engines_agree(&g, &specs, &FaultPlan::none(), &churn);
        let m = reference.result.unwrap();
        assert!(m.lost_to_churn > 0);
        assert_eq!(m.restarts, 1);
    }

    /// The 3-cube with node 0 starting in the custody state `setup` makes
    /// and every other node empty; returns the reference observation.
    fn cube_engines_agree(setup: impl Fn(&mut HealNode)) -> EngineObservation<(Vec<u32>, u64)> {
        let g = generators::hypercube(3);
        let build = || {
            let mut nodes = HealProtocol::fleet(&g, std::iter::empty(), WalkKind::Lazy, 4, 0);
            setup(&mut nodes[0].node);
            Simulator::new(&g, nodes, 5).unwrap()
        };
        assert_engines_agree(build, &EPOCH_CONFIG, node_output)
    }

    /// Trap: `emit` sends an owed ack *instead of* the token queued behind
    /// a free port, and nothing will arrive to wake the node. Its next
    /// round must still step (missing it hangs the run at the round cap).
    #[test]
    fn queued_token_behind_an_owed_ack_is_woken() {
        let reference = cube_engines_agree(|n| {
            n.ack_queue[0].push_back((1, 9));
            n.port_queue[0].push_back((0, 3));
        });
        reference.result.expect("the queued token must still leave");
        assert!(
            reference.outputs.iter().any(|o| o.0 == [0]),
            "walk 0 finishes"
        );
    }

    /// Trap: owed acks hold the port's only slot past the custody frame's
    /// retry deadline, so when the node next arms its wake-up the deadline
    /// is already behind it (a plain `deadline − round` underflows).
    #[test]
    fn overdue_retransmission_behind_owed_acks_is_woken() {
        let reference = cube_engines_agree(|n| {
            n.ack_queue[0].extend([(1, 9), (2, 9)]);
            n.inflight[0] = Some(Inflight {
                walk: 0,
                left: 3,
                next_retry: 0,
                attempts: 1,
            });
        });
        reference
            .result
            .expect("the overdue frame must be retransmitted");
        assert!(
            reference.outputs.iter().any(|o| o.0 == [0]),
            "walk 0 finishes"
        );
    }

    #[test]
    fn healmsg_codec_roundtrips_and_detects_flips() {
        for msg in [
            HealMsg::Token { walk: 7, left: 300 },
            HealMsg::Ack {
                walk: 65_535,
                left: 1,
            },
            HealMsg::Token { walk: 0, left: 1 },
        ] {
            let bits = msg.encode_bits().unwrap();
            assert_eq!(HealMsg::decode_bits(bits), Some(msg));
            for k in 0..37 {
                assert_eq!(
                    HealMsg::decode_bits(bits ^ (1 << k)),
                    None,
                    "flip of bit {k} must be detected"
                );
            }
        }
        assert!(HealMsg::Token {
            walk: 1 << 16,
            left: 0
        }
        .encode_bits()
        .is_none());
    }

    #[test]
    fn fault_free_healing_matches_plain_walk_semantics() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 2, 8);
        let run = run_walks_healing(
            &g,
            WalkKind::Lazy,
            &specs,
            3,
            FaultPlan::none(),
            ChurnPlan::none(),
        )
        .unwrap();
        assert_eq!(run.epochs, 1);
        assert_eq!(run.reissued, 0);
        assert_eq!(run.rerouted, 0);
        assert_eq!(run.metrics.message_faults(), 0);
        assert!(run.endpoints.iter().all(Option::is_some));
    }

    #[test]
    fn walks_survive_drops_and_corruption() {
        let g = generators::hypercube(5);
        let specs = degree_proportional_specs(&g, 1, 12);
        let plan = FaultPlan::none()
            .seeded(9)
            .with_drops(0.1)
            .with_corruption(0.05);
        let run =
            run_walks_healing(&g, WalkKind::Lazy, &specs, 4, plan, ChurnPlan::none()).unwrap();
        assert!(run.metrics.dropped > 0);
        assert!(
            run.endpoints.iter().all(Option::is_some),
            "no walk may be lost to message faults"
        );
    }

    #[test]
    fn walks_survive_carrier_crashes() {
        let g = generators::hypercube(5);
        let specs = degree_proportional_specs(&g, 1, 15);
        // Crash two nodes mid-flight (not walk 0's start, which is node 0).
        let plan = FaultPlan::none()
            .seeded(2)
            .with_crash(NodeId(5), 4)
            .with_crash(NodeId(20), 6);
        let run =
            run_walks_healing(&g, WalkKind::Lazy, &specs, 11, plan, ChurnPlan::none()).unwrap();
        assert_eq!(run.metrics.crashed, 2);
        // Every walk whose start survives must finish somewhere.
        for (i, spec) in specs.iter().enumerate() {
            if spec.start != NodeId(5) && spec.start != NodeId(20) {
                assert!(
                    run.endpoints[i].is_some(),
                    "walk {i} from live start {:?} was lost",
                    spec.start
                );
            }
        }
    }

    #[test]
    fn healing_replays_deterministically() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 10);
        let plan = FaultPlan::none()
            .seeded(31)
            .with_drops(0.15)
            .with_crash(NodeId(3), 3);
        let a = run_walks_healing(
            &g,
            WalkKind::Lazy,
            &specs,
            8,
            plan.clone(),
            ChurnPlan::none(),
        )
        .unwrap();
        let b = run_walks_healing(&g, WalkKind::Lazy, &specs, 8, plan, ChurnPlan::none()).unwrap();
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(
            (a.epochs, a.reissued, a.rerouted),
            (b.epochs, b.reissued, b.rerouted)
        );
    }

    #[test]
    fn walks_survive_edge_flapping() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 10);
        let churn = ChurnPlan::none().seeded(23).with_flaps(0.15, 5);
        let run =
            run_walks_healing(&g, WalkKind::Lazy, &specs, 7, FaultPlan::none(), churn).unwrap();
        assert!(run.metrics.lost_to_churn > 0, "flaps must bite");
        assert!(
            run.endpoints.iter().all(Option::is_some),
            "no walk may be lost to transient link flapping"
        );
    }

    #[test]
    fn walks_survive_node_restarts_with_state_loss() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 12);
        let churn = ChurnPlan::none()
            .with_restart(NodeId(3), 4, 6)
            .with_restart(NodeId(9), 8, 4);
        let run =
            run_walks_healing(&g, WalkKind::Lazy, &specs, 5, FaultPlan::none(), churn).unwrap();
        assert_eq!(run.metrics.crashed, 0, "restarts are not crash-stops");
        assert!(run.metrics.restarts >= 2, "both outages must complete");
        assert!(
            run.endpoints.iter().all(Option::is_some),
            "restarted starts stay eligible for re-issue"
        );
        // Restarts are damage; redelivery closes the spans.
        assert!(!run.timeline.spans().is_empty());
        assert_eq!(run.timeline.open_count(), 0);
        assert!(run.timeline.time_to_reconverge().max >= 1);
    }

    #[test]
    fn churned_healing_replays_deterministically() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 10);
        let plan = FaultPlan::none().seeded(13).with_drops(0.05);
        let churn = ChurnPlan::none()
            .seeded(29)
            .with_flaps(0.1, 4)
            .with_restart(NodeId(6), 5, 5);
        let a =
            run_walks_healing(&g, WalkKind::Lazy, &specs, 8, plan.clone(), churn.clone()).unwrap();
        let b = run_walks_healing(&g, WalkKind::Lazy, &specs, 8, plan, churn).unwrap();
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(
            (a.epochs, a.reissued, a.rerouted),
            (b.epochs, b.reissued, b.rerouted)
        );
    }

    #[test]
    fn trivial_churn_plan_changes_nothing() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 10);
        let plan = FaultPlan::none().seeded(31).with_drops(0.1);
        let plain = run_walks_healing(
            &g,
            WalkKind::Lazy,
            &specs,
            8,
            plan.clone(),
            ChurnPlan::none(),
        )
        .unwrap();
        let churned = run_walks_healing(
            &g,
            WalkKind::Lazy,
            &specs,
            8,
            plan,
            ChurnPlan::none().seeded(99),
        )
        .unwrap();
        assert_eq!(plain.endpoints, churned.endpoints);
        assert_eq!(plain.metrics, churned.metrics);
        assert_eq!(churned.timeline, RecoveryTimeline::new());
    }

    #[test]
    fn sustained_start_outage_surfaces_retry_exhausted() {
        // Node 0's walk can never be issued: its start is offline for the
        // whole run, every epoch. The driver must give up explicitly
        // instead of silently returning `None`.
        let g = generators::ring(4);
        let specs = vec![WalkSpec {
            start: NodeId(0),
            steps: 5,
        }];
        let churn = ChurnPlan::none().with_restart(NodeId(0), 0, 1_000_000);
        let err =
            run_walks_healing(&g, WalkKind::Lazy, &specs, 3, FaultPlan::none(), churn).unwrap_err();
        match err {
            CongestError::RetryExhausted { node, attempts, .. } => {
                assert_eq!(node, NodeId(0));
                assert_eq!(attempts, MAX_EPOCHS);
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn zero_step_walks_finish_at_their_start() {
        let g = generators::ring(6);
        let specs = vec![WalkSpec {
            start: NodeId(3),
            steps: 0,
        }];
        let run = run_walks_healing(
            &g,
            WalkKind::Lazy,
            &specs,
            1,
            FaultPlan::none(),
            ChurnPlan::none(),
        )
        .unwrap();
        assert_eq!(run.endpoints[0], Some(NodeId(3)));
        assert_eq!(run.epochs, 0, "nothing to execute");
    }
}
