//! Self-healing Borůvka MST under injected faults.
//!
//! The baseline in [`crate::congest_boruvka`] assumes pristine links; this
//! module runs the same fragment-flooding Borůvka over the fault-injected
//! simulator and degrades gracefully instead of wedging:
//!
//! * every flooding phase rides on the [`ReliableLink`] ARQ sublayer, so
//!   message drops, single-bit corruption (detected by the frame checksum)
//!   and bounded delays cost retransmissions and rounds — never a wrong
//!   fragment minimum;
//! * crash-stop failures are detected after each phase; since fragment
//!   labels are minimum node ids, a crashed minimum-id node **is** a lost
//!   fragment leader. The response is a **phase restart**: dead nodes and
//!   their forest edges are pruned, labels are re-flooded over the pruned
//!   forest, and the interrupted Borůvka phase re-runs on the survivors —
//!   correct-but-slower, with every restart counted in
//!   [`HealedMstOutcome::phase_restarts`];
//! * the final tree is the exact MST of the surviving induced subgraph (the
//!   tests check it against Kruskal on the survivors).
//!
//! If the crashes disconnect the survivors, the run fails fast with
//! [`CongestError::NodeCrashed`] naming the responsible node, round, and
//! fault seed — an impossible instance, not a hang.
//!
//! Under *topology churn* ([`run_healing_churned`]) the same machinery
//! rides a [`ChurnPlan`] and hardens further:
//!
//! * transient edge flaps and node restarts cost ARQ retransmissions;
//!   phase restarts back off exponentially (capped, with deterministic
//!   jitter) so sustained flapping is ridden out, not retried into;
//! * edges *permanently cut* by the plan are excluded from candidate
//!   selection, and an adopted tree edge that is later cut is pruned with a
//!   label re-flood — surviving adoptions stay MST edges (they were each a
//!   fragment's minimum over a superset of the final edge set);
//! * when the cuts disconnect the survivors the run terminates with
//!   [`CongestError::Partitioned`] naming the component count, instead of
//!   retrying toward an unreachable component until the round cap;
//! * an ARQ give-up toward a peer that is *alive* (a link flapping past the
//!   retransmission budget) restarts the phase; the same link giving up
//!   repeatedly surfaces [`CongestError::RetryExhausted`];
//! * damage and re-convergence are recorded in a [`RecoveryTimeline`]: a
//!   span opens at every crash, outage, or cut and closes at the end of the
//!   next completed Borůvka iteration.
//!
//! Every flooding phase is one stage of a [`StageRunner`], whose clock is
//! the run's global round clock; the one-round fragment-id exchange is
//! charged to it too, and damage that touches only dead nodes opens no
//! span.

use crate::congest_boruvka::{decode_edge, encode};
use crate::reference::UnionFind;
use crate::{MstError, Result};
use amt_congest::{
    backoff_timeout, bits_for_value, class, ChurnKind, ChurnPlan, CongestError, Ctx, FaultKind,
    FaultPlan, Metrics, Observe, ObservedRuns, ProfileConfig, Protocol, RecoveryTimeline, Reliable,
    ReliableLink, RunConfig, RunTrace, StageRunner, StopCondition, TraceConfig, TrafficClass,
    TrafficProfile,
};
use amt_graphs::{EdgeId, Graph, NodeId, WeightedGraph};

/// Consecutive phase-level ARQ give-ups on the same live link before the
/// run surfaces [`CongestError::RetryExhausted`].
const MAX_LINK_RETRIES: u32 = 3;

/// "No outgoing candidate" sentinel — the largest value the 34-bit ARQ
/// payload field can carry, so it loses every `min`.
const NO_CANDIDATE: u64 = (1 << 34) - 1;

/// Min-flooding over a port subset, carried by per-edge ARQ links.
struct ReliableMinFlood {
    link: ReliableLink<u64>,
    active_ports: Vec<usize>,
    value: u64,
    fresh: bool,
    /// Global phase number of the healing run this flood executes, emitted
    /// as an `"mst_phase"` span by every live node at phase start.
    phase: u64,
}

/// The run configuration of one flooding phase.
const FLOOD_CONFIG: RunConfig = RunConfig {
    max_rounds: 500_000,
    budget_factor: 32,
    stop: StopCondition::AllDone,
    full_sweep: false,
};

impl ReliableMinFlood {
    /// One flood node per node of `g`: node `v` starts from `init[v]` and
    /// floods over its forest edges (`active`, indexed by `EdgeId`) to live
    /// peers; `dead` nodes
    /// neither spread nor receive. ARQ base timeout `timeout`, data frames
    /// attributed to `class`, `"mst_phase"` spans numbered `phase`.
    fn fleet(
        g: &Graph,
        active: &[bool],
        dead: &[bool],
        init: &[u64],
        timeout: u64,
        class: TrafficClass,
        phase: u64,
    ) -> Vec<Self> {
        g.nodes()
            .map(|v| ReliableMinFlood {
                link: ReliableLink::new(g.degree(v), timeout, 8).with_payload_class(class),
                active_ports: g
                    .neighbors(v)
                    .enumerate()
                    .filter(|(_, (w, e))| active[e.index()] && !dead[w.index()])
                    .map(|(p, _)| p)
                    .collect(),
                value: init[v.index()],
                fresh: !dead[v.index()],
                phase,
            })
            .collect()
    }

    fn spread(&mut self) {
        for &p in &self.active_ports {
            self.link.send(p, self.value);
        }
    }
}

/// Skip-safe: an empty-inbox round after the first spread only pumps the
/// link, which arms its own retry deadlines.
impl Protocol for ReliableMinFlood {
    type Message = Reliable<u64>;

    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, Reliable<u64>>) {
        if self.fresh {
            self.fresh = false;
            ctx.trace_event("mst_phase", self.phase);
            self.spread();
        }
        self.link.pump(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Reliable<u64>>, inbox: &[(usize, Reliable<u64>)]) {
        // A node offline in round 0 (churn outage) never ran `init`; its
        // first executed round spreads instead, so its value still enters
        // the flood. (On the churn-free path `init` always consumes the
        // flag, so this never fires.)
        if self.fresh {
            self.fresh = false;
            ctx.trace_event("mst_phase", self.phase);
            self.spread();
        }
        let mut improved = false;
        for (_, v) in self.link.deliver(inbox) {
            if v < self.value {
                self.value = v;
                improved = true;
            }
        }
        if improved {
            self.spread();
        }
        self.link.pump(ctx);
    }

    fn is_done(&self) -> bool {
        self.link.idle()
    }
}

/// What one flooding phase observed besides its converged values.
struct PhaseDamage {
    /// Nodes newly crash-stopped by the fault plan this phase.
    new_crashes: Vec<NodeId>,
    /// ARQ give-ups `(node, port, attempts)` toward peers still alive
    /// afterwards.
    giveups: Vec<(NodeId, usize, u32)>,
    /// Live nodes that were offline (churn outage) at any point this phase
    /// — their contribution may be missing, so the flood is suspect.
    outaged: Vec<NodeId>,
}

/// Outcome of the self-healing Borůvka run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealedMstOutcome {
    /// MST edges of the **surviving** induced subgraph (sorted).
    pub tree_edges: Vec<EdgeId>,
    /// Total weight of those edges.
    pub total_weight: u64,
    /// Measured rounds over all phases, restarts included.
    pub rounds: u64,
    /// Borůvka iterations completed (restarted phases re-count).
    pub iterations: u32,
    /// Phases re-run because a crash landed mid-phase.
    pub phase_restarts: u32,
    /// Nodes lost to the fault plan.
    pub crashed_nodes: Vec<NodeId>,
    /// Tree edges adopted and later *permanently cut* by the churn plan,
    /// pruned with a label re-flood (empty without churn).
    pub cut_tree_edges: Vec<EdgeId>,
    /// Full accumulated metrics (messages, bits, fault and churn counters).
    pub metrics: Metrics,
    /// Damage-to-reconvergence spans on the accumulated round clock: a span
    /// opens at every crash, node outage, or edge outage and closes at the
    /// end of the next completed Borůvka iteration. Empty for damage-free
    /// runs.
    pub timeline: RecoveryTimeline,
}

/// Runs fault-tolerant Borůvka over `wg` under `plan`.
///
/// # Errors
///
/// [`MstError::Graph`] on disconnected input, [`MstError::Congest`] on
/// simulator violations or invalid plans — including
/// [`CongestError::NodeCrashed`] when the crashes disconnect the surviving
/// subgraph — and [`MstError::TooManyIterations`] as a bug guard.
pub fn run_healing(wg: &WeightedGraph, seed: u64, plan: FaultPlan) -> Result<HealedMstOutcome> {
    let (out, _, _) = run_healing_instrumented(wg, seed, plan, None, None)?;
    Ok(out)
}

/// [`run_healing`] with opt-in observability: when `trace` is set,
/// returns one [`RunTrace`] per flooding phase (phase starts appear as
/// `"mst_phase"` span events carrying the global phase number); when
/// `profile` is set, returns a [`TrafficProfile`] accumulated across all
/// phases — candidate floods under [`class::MST_FLOOD`], label floods under
/// [`class::MST_LABEL`], plus the ARQ sublayer's [`class::REL_ACK`] /
/// [`class::REL_RETRANSMIT`] overhead. Neither changes the outcome.
///
/// # Errors
///
/// Same as [`run_healing`].
pub fn run_healing_instrumented(
    wg: &WeightedGraph,
    seed: u64,
    plan: FaultPlan,
    trace: Option<TraceConfig>,
    profile: Option<ProfileConfig>,
) -> Result<(HealedMstOutcome, Vec<RunTrace>, Option<TrafficProfile>)> {
    run_healing_churned_instrumented(wg, seed, plan, ChurnPlan::none(), 1, trace, profile)
}

/// [`run_healing`] under topology churn: fault-tolerant Borůvka
/// executed against `churn`, with cut-aware candidate selection, pruning of
/// cut tree edges, capped-backoff phase restarts, and a
/// [`RecoveryTimeline`] in the outcome (see the module docs). The churn
/// plan's global clock spans all phases.
///
/// # Errors
///
/// Same as [`run_healing`], plus [`CongestError::Partitioned`] when
/// permanent cuts (with any crashes) disconnect the survivors, and
/// [`CongestError::RetryExhausted`] when one live link's ARQ gives up in
/// `MAX_LINK_RETRIES` (3) phases straight.
pub fn run_healing_churned(
    wg: &WeightedGraph,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
) -> Result<HealedMstOutcome> {
    let (out, _, _) = run_healing_churned_instrumented(wg, seed, plan, churn, 1, None, None)?;
    Ok(out)
}

/// The state of one healing run, carried from phase to phase by
/// [`Healing::flood`]. The runner's clock is the run's global clock: every
/// phase plan, churn offset, damage span and error round is read off it.
struct Healing<'a> {
    wg: &'a WeightedGraph,
    plan: FaultPlan,
    runner: StageRunner,
    /// Global phase number, emitted in `"mst_phase"` spans.
    phase: u64,
    /// Fragment label per node (minimum node id of its fragment).
    comp: Vec<u64>,
    /// Whether `comp` must be re-flooded before Borůvka resumes.
    labels_stale: bool,
    dead: Vec<bool>,
    /// First round each node was seen crashed, named by `NodeCrashed`.
    crash_round: Vec<Option<u64>>,
    /// Forest edge mask, indexed by `EdgeId`.
    forest: Vec<bool>,
    cut_tree_edges: Vec<EdgeId>,
    /// Round (on the churn plan's global clock) from which each edge is
    /// permanently cut.
    cut_round: Vec<Option<u64>>,
    base_timeout: u64,
    /// Consecutive phase restarts without a completed iteration; the
    /// exponent of the ARQ timeout's backoff.
    restart_streak: u32,
    phase_restarts: u32,
    /// Phase-level ARQ give-up streak per directed link, `[node][port]`.
    giveup_streak: Vec<Vec<u32>>,
    /// Consecutive suspect phases per node in churn outage; a node offline
    /// [`MAX_LINK_RETRIES`] phases straight is pruned as dead — an
    /// effectively-permanent outage the restart budget must not chase.
    outage_streak: Vec<u32>,
}

impl Healing<'_> {
    fn is_cut(&self, e: EdgeId) -> bool {
        self.cut_round[e.index()].is_some_and(|r| r <= self.runner.clock())
    }

    /// One reliable flooding phase over the forest from `init`, then the
    /// damage triage. Returns the converged values, or `None` when damage
    /// made them suspect and the phase restarts (labels go stale). The
    /// triage runs in a fixed order and acts on the first damage found:
    /// new crashes are pruned, outaged nodes lose patience, cut tree edges
    /// are pruned, live-link give-ups are counted.
    fn flood(&mut self, init: &[u64], seed: u64, class: TrafficClass) -> Result<Option<Vec<u64>>> {
        let (values, damage) = self.run_phase(init, seed, class)?;
        if !damage.new_crashes.is_empty() {
            // A fragment member — possibly the minimum-id leader — died
            // mid-phase; the partial minima are untrustworthy.
            self.prune(&damage.new_crashes)?;
        } else if !damage.outaged.is_empty() {
            // A live node was offline mid-flood: the executor counts it as
            // done while down, so its value may be missing.
            self.handle_outages(&damage.outaged)?;
        } else if !self.prune_cut_forest() && !self.check_giveups(&damage.giveups)? {
            return Ok(Some(values));
        }
        self.restart();
        Ok(None)
    }

    fn restart(&mut self) {
        self.restart_streak += 1;
        self.phase_restarts += 1;
        self.labels_stale = true;
    }

    /// Runs one flooding phase on the simulator and folds its metrics,
    /// observations and damage spans into the run; `class` attributes the
    /// data frames.
    fn run_phase(
        &mut self,
        init: &[u64],
        seed: u64,
        class: TrafficClass,
    ) -> Result<(Vec<u64>, PhaseDamage)> {
        let g = self.wg.graph();
        let clock = self.runner.clock();
        self.phase += 1;
        let timeout = backoff_timeout(
            self.base_timeout,
            self.restart_streak,
            &self.plan,
            self.runner.churn(),
        );
        let dead = &self.dead;
        let nodes =
            ReliableMinFlood::fleet(g, &self.forest, dead, init, timeout, class, self.phase);
        // This phase sees the tail of the global fault schedule: already-dead
        // nodes stay crashed from round 0, pending crashes fire once the
        // global clock (clock + local round) reaches them. The runner
        // re-anchors the churn plan, whose schedules are global-clock rounds.
        let mut phase_plan = self.plan.clone();
        phase_plan.seed = self.plan.seed ^ clock.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for c in &mut phase_plan.crashes {
            c.round = if dead[c.node.index()] {
                0
            } else {
                c.round.saturating_sub(clock)
            };
        }
        let (sim, start) = self.runner.run(g, nodes, seed, phase_plan, &FLOOD_CONFIG)?;
        for e in sim.fault_events() {
            if matches!(e.kind, FaultKind::Crashed) {
                self.crash_round[e.node.index()].get_or_insert(start + e.round);
                // Re-applied crashes of already-dead nodes are no new damage.
                if !dead[e.node.index()] {
                    self.runner.damage(start, e.round);
                }
            }
        }
        // Outages touching only already-dead nodes are immaterial — the
        // healed tree no longer depends on them, so they open no span.
        self.runner
            .churn_damage(start, sim.churn_events(), |kind| match kind {
                ChurnKind::EdgeDown { edge } => {
                    let (u, v) = g.endpoints(edge);
                    !dead[u.index()] && !dead[v.index()]
                }
                ChurnKind::NodeDown { node } => !dead[node.index()],
                _ => false,
            });
        let new_crashes: Vec<NodeId> = sim
            .crashed_nodes()
            .into_iter()
            .filter(|v| !dead[v.index()])
            .collect();
        let dead_now = |v: NodeId| dead[v.index()] || new_crashes.contains(&v);
        let giveups = sim
            .nodes()
            .iter()
            .enumerate()
            .flat_map(|(v, p)| {
                let v = NodeId::from(v);
                p.link
                    .failures()
                    .into_iter()
                    .filter(move |&(port, _)| !dead_now(g.neighbor_at(v, port).0))
                    .map(move |(port, attempts)| (v, port, attempts))
            })
            .collect();
        // Live nodes offline at any point this phase: the executor counts them
        // as done while they are down, so the flood may have terminated without
        // their contribution — the caller must treat the values as suspect.
        let mut outaged: Vec<NodeId> = sim
            .churn_events()
            .iter()
            .filter_map(|ev| match ev.kind {
                ChurnKind::NodeDown { node } if !dead_now(node) => Some(node),
                _ => None,
            })
            .collect();
        outaged.sort_unstable();
        outaged.dedup();
        let values = sim.nodes().iter().map(|p| p.value).collect();
        let damage = PhaseDamage {
            new_crashes,
            giveups,
            outaged,
        };
        Ok((values, damage))
    }

    /// Marks `crashed` dead and drops their forest edges; errors with
    /// [`CongestError::NodeCrashed`], naming the last of them, if the
    /// survivors are disconnected.
    fn prune(&mut self, crashed: &[NodeId]) -> Result<()> {
        let g = self.wg.graph();
        for v in crashed {
            self.dead[v.index()] = true;
        }
        for (e, in_forest) in self.forest.iter_mut().enumerate() {
            let (u, v) = g.endpoints(EdgeId(e as u32));
            *in_forest &= !self.dead[u.index()] && !self.dead[v.index()];
        }
        // The survivors must stay connected for an MST to exist.
        if self.components(false) > 1 {
            let &culprit = crashed.last().expect("disconnection implies a new crash");
            return Err(MstError::Congest(CongestError::NodeCrashed {
                node: culprit,
                round: self.crash_round[culprit.index()].unwrap_or(0),
                seed: self.plan.seed,
            }));
        }
        Ok(())
    }

    /// Bumps each outaged node's patience streak; nodes offline
    /// [`MAX_LINK_RETRIES`] suspect phases straight are pruned as dead.
    fn handle_outages(&mut self, outaged: &[NodeId]) -> Result<()> {
        let expired: Vec<NodeId> = outaged
            .iter()
            .copied()
            .filter(|v| {
                let s = &mut self.outage_streak[v.index()];
                *s += 1;
                *s >= MAX_LINK_RETRIES
            })
            .collect();
        if expired.is_empty() {
            return Ok(());
        }
        self.prune(&expired)
    }

    /// Removes forest edges the churn plan has permanently cut; returns
    /// whether anything was pruned. Surviving adoptions stay MST edges of
    /// the reduced graph: each was its fragment's minimum outgoing edge
    /// over a superset of the final edge set.
    fn prune_cut_forest(&mut self) -> bool {
        let before = self.cut_tree_edges.len();
        for e in (0..self.forest.len()).map(|e| EdgeId(e as u32)) {
            if self.forest[e.index()] && self.is_cut(e) {
                self.forest[e.index()] = false;
                self.cut_tree_edges.push(e);
            }
        }
        self.cut_tree_edges.len() > before
    }

    /// Accounts this phase's ARQ give-ups toward live peers over non-cut
    /// edges. Returns whether the flood values are suspect; errors with
    /// [`CongestError::RetryExhausted`] once one link has given up
    /// [`MAX_LINK_RETRIES`] phases straight — sustained damage the retry
    /// budget cannot outwait.
    fn check_giveups(&mut self, giveups: &[(NodeId, usize, u32)]) -> Result<bool> {
        let g = self.wg.graph();
        let mut suspect = false;
        for &(v, port, attempts) in giveups {
            // A give-up over a cut edge is expected: the edge is gone for
            // good, and the cut-forest prune reroutes around it.
            if self.is_cut(g.neighbor_at(v, port).1) {
                continue;
            }
            suspect = true;
            let s = &mut self.giveup_streak[v.index()][port];
            *s += 1;
            if *s >= MAX_LINK_RETRIES {
                return Err(MstError::Congest(CongestError::RetryExhausted {
                    node: v,
                    port,
                    attempts,
                    round: self.runner.clock(),
                    seed: self.plan.seed,
                }));
            }
        }
        Ok(suspect)
    }

    /// Components of the live nodes over every edge or, `with_cuts`, over
    /// the edges not permanently cut by now (transient outages count as
    /// connectivity — they come back).
    fn components(&self, with_cuts: bool) -> usize {
        let g = self.wg.graph();
        let mut seen = self.dead.clone();
        let mut comps = 0;
        for s in g.nodes() {
            if seen[s.index()] {
                continue;
            }
            comps += 1;
            seen[s.index()] = true;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for (w, e) in g.neighbors(v) {
                    if seen[w.index()] || (with_cuts && self.is_cut(e)) {
                        continue;
                    }
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        comps
    }

    /// Per-node candidate: minimum edge out of the fragment, toward a live
    /// node, over an edge not permanently cut by now (transiently down
    /// edges stay candidates — they come back).
    fn candidates(&self) -> Vec<u64> {
        let (g, dead, comp) = (self.wg.graph(), &self.dead, &self.comp);
        g.nodes()
            .map(|v| {
                if dead[v.index()] {
                    return NO_CANDIDATE;
                }
                g.neighbors(v)
                    .filter(|&(w, e)| {
                        w != v
                            && !dead[w.index()]
                            && comp[w.index()] != comp[v.index()]
                            && !self.is_cut(e)
                    })
                    .map(|(_, e)| encode(self.wg, e))
                    .min()
                    .unwrap_or(NO_CANDIDATE)
            })
            .collect()
    }

    /// Merges along every fragment's minimum outgoing edge `vals[v]`
    /// (central bookkeeping, as in the baseline harness); returns whether
    /// any two fragments merged.
    fn merge(&mut self, vals: &[u64]) -> bool {
        let g = self.wg.graph();
        let mut uf = UnionFind::new(g.len());
        for (e, _, _) in g.edges().filter(|(e, _, _)| self.forest[e.index()]) {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let mut merged = false;
        for (v, &val) in vals.iter().enumerate() {
            if self.dead[v] || val == NO_CANDIDATE {
                continue;
            }
            let e = decode_edge(self.wg, val);
            let (a, b) = g.endpoints(e);
            if uf.union(a.index(), b.index()) {
                self.forest[e.index()] = true;
                merged = true;
            }
        }
        merged
    }
}

/// The full healing driver: faults, churn, and opt-in observability in one
/// signature ([`run_healing_instrumented`] is this with a trivial churn
/// plan). It is [`run_healing_observed`] with the trace and profile
/// layers.
///
/// `_threads` is ignored: the simulator runs on one thread. The parameter
/// stays until the repository benchmark, which calls this function with a
/// thread count, drops it.
///
/// # Errors
///
/// Same as [`run_healing_churned`].
pub fn run_healing_churned_instrumented(
    wg: &WeightedGraph,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
    _threads: usize,
    trace: Option<TraceConfig>,
    profile: Option<ProfileConfig>,
) -> Result<(HealedMstOutcome, Vec<RunTrace>, Option<TrafficProfile>)> {
    let observe = Observe {
        trace,
        profile,
        ..Observe::default()
    };
    let (out, runs) = run_healing_observed(wg, seed, plan, churn, observe)?;
    Ok((out, runs.traces, runs.profile))
}

/// The healing driver with every flooding phase observed by the `observe`
/// layers, folded across phases into one [`ObservedRuns`].
///
/// # Errors
///
/// Same as [`run_healing_churned`].
pub fn run_healing_observed(
    wg: &WeightedGraph,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
    observe: Observe,
) -> Result<(HealedMstOutcome, ObservedRuns)> {
    let g = wg.graph();
    g.require_connected()?;
    let n = g.len();
    plan.validate(n).map_err(MstError::Congest)?;
    churn
        .validate(n, g.edge_count())
        .map_err(MstError::Congest)?;
    let bits = bits_for_value(wg.edge_count() as u64) + 1;
    if let Some(&max_w) = wg.weights().iter().max() {
        assert!(
            ((max_w << bits) | ((1 << bits) - 1)) < NO_CANDIDATE,
            "candidate encoding must fit the 34-bit ARQ payload"
        );
    }
    // Restarts re-run phases, so budget them on top of the usual cap.
    let cap = 2 * (n.max(2) as f64).log2().ceil() as u32
        + 10
        + 2 * plan.crashes.len() as u32
        + 2 * (churn.outages.len() + churn.restarts.len()) as u32;
    let label_init: Vec<u64> = (0..n as u64).collect();
    let mut run = Healing {
        wg,
        base_timeout: 4 + 2 * plan.max_delay,
        cut_round: g.edges().map(|(e, _, _)| churn.edge_cut_round(e)).collect(),
        plan,
        runner: StageRunner::new(churn, observe),
        phase: 0,
        comp: label_init.clone(),
        labels_stale: false,
        dead: vec![false; n],
        crash_round: vec![None; n],
        forest: vec![false; g.edge_count()],
        cut_tree_edges: Vec::new(),
        restart_streak: 0,
        phase_restarts: 0,
        giveup_streak: g.nodes().map(|v| vec![0; g.degree(v)]).collect(),
        outage_streak: vec![0; n],
    };
    let mut iterations = 0u32;

    loop {
        if run.labels_stale {
            // Phase restart: re-establish fragment labels on the pruned
            // forest before resuming Borůvka.
            let seed = seed ^ 0xBEEF ^ run.runner.clock();
            let Some(labels) = run.flood(&label_init, seed, class::MST_LABEL)? else {
                continue;
            };
            run.comp = labels;
            run.labels_stale = false;
        }

        // Permanent cuts may have disconnected the survivors: terminate
        // with the component count instead of retrying toward an
        // unreachable fragment until the iteration cap.
        let comps = run.components(true);
        if comps > 1 {
            return Err(MstError::Congest(CongestError::Partitioned {
                components: comps,
                round: run.runner.clock(),
            }));
        }

        let mut live_labels = (0..n).filter(|&v| !run.dead[v]).map(|v| run.comp[v]);
        let first = live_labels.next();
        if live_labels.all(|c| Some(c) == first) {
            break;
        }
        if iterations >= cap {
            return Err(MstError::TooManyIterations { cap });
        }
        iterations += 1;

        // Fragment-id exchange with live neighbors (1 round).
        run.runner.metrics.rounds += 1;

        let init = run.candidates();
        let Some(vals) = run.flood(&init, seed ^ u64::from(iterations), class::MST_FLOOD)? else {
            continue;
        };
        let merged = run.merge(&vals);
        debug_assert!(
            merged || !run.runner.churn().is_trivial(),
            "a fault-free phase must merge at least one fragment"
        );
        if !merged {
            // Every candidate went stale (e.g. cut mid-flood); re-label
            // and retry rather than looping on an empty merge.
            run.restart();
            continue;
        }

        // Flood the new fragment labels (minimum surviving node id).
        let seed = seed ^ 0xF00D ^ u64::from(iterations);
        let Some(labels) = run.flood(&label_init, seed, class::MST_LABEL)? else {
            continue;
        };
        run.comp = labels;
        // One Borůvka iteration completed on trustworthy floods: the tree
        // state is re-converged, closing every open damage span.
        run.restart_streak = 0;
        run.giveup_streak.iter_mut().for_each(|s| s.fill(0));
        run.outage_streak.fill(0);
        run.runner.recovered();
    }

    let mut metrics = run.runner.metrics;
    metrics.crashed = run.dead.iter().filter(|&&d| d).count() as u64;
    let tree_edges: Vec<EdgeId> = g
        .edges()
        .map(|(e, _, _)| e)
        .filter(|e| run.forest[e.index()])
        .collect();
    run.cut_tree_edges.sort_unstable();
    Ok((
        HealedMstOutcome {
            total_weight: wg.total_weight(&tree_edges),
            tree_edges,
            rounds: metrics.rounds,
            iterations,
            phase_restarts: run.phase_restarts,
            crashed_nodes: (0..n).filter(|&v| run.dead[v]).map(NodeId::from).collect(),
            cut_tree_edges: run.cut_tree_edges,
            metrics,
            timeline: run.runner.timeline,
        },
        run.runner.runs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{congest_boruvka, reference};
    use amt_congest::oracle::assert_engines_agree;
    use amt_congest::Simulator;
    use amt_graphs::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// Runs one whole-graph flooding phase of distinct values on the
    /// active-set engine against the full-sweep reference (both visit
    /// orders) and returns the reference's result.
    fn flood_engines_agree(
        g: &Graph,
        plan: &FaultPlan,
        churn: &ChurnPlan,
    ) -> amt_congest::Result<Metrics> {
        let active = vec![true; g.edge_count()];
        let dead = vec![false; g.len()];
        let init: Vec<u64> = (0..g.len() as u64).map(|v| (v * 7919) % 1000).collect();
        let timeout = 4 + 2 * plan.max_delay;
        let build = || {
            let nodes =
                ReliableMinFlood::fleet(g, &active, &dead, &init, timeout, class::MST_LABEL, 1);
            Simulator::new(g, nodes, 17)
                .unwrap()
                .with_fault_plan(plan.clone())
                .with_churn_plan(churn.clone())
        };
        let reference =
            assert_engines_agree(build, &FLOOD_CONFIG, |p| (p.value, p.link.failures()));
        reference.result
    }

    #[test]
    fn reliable_min_flood_matches_full_sweep_under_faults() {
        let g = generators::random_regular(48, 4, &mut StdRng::seed_from_u64(3)).unwrap();
        let plan = FaultPlan::none()
            .seeded(21)
            .with_drops(0.08)
            .with_corruption(0.04)
            .with_delays(0.08, 3)
            .with_crash(NodeId(7), 5);
        let m = flood_engines_agree(&g, &plan, &ChurnPlan::none()).unwrap();
        assert!(m.dropped > 0 && m.corrupted > 0 && m.delayed > 0);
        assert_eq!(m.crashed, 1);
    }

    #[test]
    fn reliable_min_flood_matches_full_sweep_under_churn() {
        let g = generators::random_regular(48, 4, &mut StdRng::seed_from_u64(3)).unwrap();
        let churn = ChurnPlan::none()
            .seeded(12)
            .with_flaps(0.08, 5)
            .with_restart(NodeId(11), 4, 8)
            .with_edge_cut(EdgeId(3), 3)
            .at_offset(7);
        let m = flood_engines_agree(&g, &FaultPlan::none(), &churn).unwrap();
        assert!(m.lost_to_churn > 0);
        assert_eq!(m.restarts, 1);
    }

    /// Kruskal restricted to the surviving induced subgraph minus
    /// permanently cut edges, by canonical (weight, edge-id) order — the
    /// unique MST the healed run must find.
    fn kruskal_excluding(wg: &WeightedGraph, dead: &[NodeId], cut: &[EdgeId]) -> Vec<EdgeId> {
        let g = wg.graph();
        let gone: HashSet<NodeId> = dead.iter().copied().collect();
        let cut: HashSet<EdgeId> = cut.iter().copied().collect();
        let mut edges: Vec<EdgeId> = g
            .edges()
            .filter(|(e, u, v)| !gone.contains(u) && !gone.contains(v) && !cut.contains(e))
            .map(|(e, _, _)| e)
            .collect();
        edges.sort_unstable_by_key(|&e| encode(wg, e));
        let mut uf = UnionFind::new(g.len());
        let mut tree = Vec::new();
        for e in edges {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index()) {
                tree.push(e);
            }
        }
        tree.sort_unstable();
        tree
    }

    fn kruskal_on_survivors(wg: &WeightedGraph, dead: &[NodeId]) -> Vec<EdgeId> {
        kruskal_excluding(wg, dead, &[])
    }

    #[test]
    fn fault_free_healing_matches_the_baseline() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::connected_erdos_renyi(40, 0.15, 50, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        let healed = run_healing(&wg, 7, FaultPlan::none()).unwrap();
        let baseline = congest_boruvka::run(&wg, 7).unwrap();
        assert_eq!(healed.tree_edges, baseline.tree_edges);
        assert_eq!(healed.phase_restarts, 0);
        assert!(healed.crashed_nodes.is_empty());
        assert_eq!(healed.metrics.message_faults(), 0);
        assert!(reference::verify_mst(&wg, &healed.tree_edges));
    }

    #[test]
    fn mst_survives_drops_and_corruption() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generators::random_regular(48, 6, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
        let plan = FaultPlan::none()
            .seeded(13)
            .with_drops(0.05)
            .with_corruption(0.02);
        let healed = run_healing(&wg, 3, plan).unwrap();
        assert!(healed.metrics.dropped > 0);
        assert_eq!(healed.tree_edges, reference::kruskal(&wg).unwrap());
        // Reliability costs rounds, never correctness.
        let clean = congest_boruvka::run(&wg, 3).unwrap();
        assert!(healed.rounds >= clean.rounds);
    }

    #[test]
    fn fragment_leader_crash_restarts_the_phase() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::random_regular(48, 6, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
        // Node 0 is the minimum id — the implicit leader of its fragment
        // (labels are min ids). Crash it mid-computation.
        let plan = FaultPlan::none().seeded(5).with_crash(NodeId(0), 10);
        let healed = run_healing(&wg, 9, plan).unwrap();
        assert_eq!(healed.crashed_nodes, vec![NodeId(0)]);
        assert!(healed.phase_restarts >= 1, "a mid-phase crash must restart");
        assert_eq!(
            healed.tree_edges,
            kruskal_on_survivors(&wg, &healed.crashed_nodes),
            "result must be the exact MST of the survivors"
        );
    }

    #[test]
    fn healing_replays_deterministically() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = generators::random_regular(32, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 200, &mut rng);
        let plan = FaultPlan::none()
            .seeded(77)
            .with_drops(0.1)
            .with_crash(NodeId(3), 8);
        let a = run_healing(&wg, 2, plan.clone()).unwrap();
        let b = run_healing(&wg, 2, plan).unwrap();
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.phase_restarts, b.phase_restarts);
    }

    #[test]
    fn disconnecting_crash_fails_fast_with_context() {
        // A dumbbell: node 4 bridges two triangles; crashing it disconnects.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 4),
                (4, 6),
                (5, 6),
                (6, 7),
                (7, 5),
                (3, 0),
                (8, 5),
            ],
        )
        .unwrap();
        let wg = WeightedGraph::with_random_weights(g, 100, &mut StdRng::seed_from_u64(45));
        let plan = FaultPlan::none().seeded(1).with_crash(NodeId(4), 2);
        let err = run_healing(&wg, 1, plan).unwrap_err();
        match err {
            MstError::Congest(CongestError::NodeCrashed { node, seed, .. }) => {
                assert_eq!(node, NodeId(4));
                assert_eq!(seed, 1);
            }
            other => panic!("expected NodeCrashed, got {other:?}"),
        }
    }

    /// Dropping every message makes each live link's ARQ give up in phase
    /// after phase without any node dying; after [`MAX_LINK_RETRIES`]
    /// consecutive give-ups on the same link the driver must surface
    /// [`CongestError::RetryExhausted`] naming that link — not hang, and
    /// not misclassify the damage as a crash.
    #[test]
    fn total_link_failure_surfaces_retry_exhausted() {
        let mut rng = StdRng::seed_from_u64(48);
        let g = generators::random_regular(16, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 100, &mut rng);
        let plan = FaultPlan::none().seeded(2).with_drops(1.0);
        let err = run_healing(&wg, 1, plan).unwrap_err();
        match err {
            MstError::Congest(CongestError::RetryExhausted { node, attempts, .. }) => {
                assert!(node.index() < 16);
                assert!(attempts >= 1, "the ARQ must have actually retried");
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn mst_survives_edge_flapping() {
        let mut rng = StdRng::seed_from_u64(46);
        let g = generators::random_regular(32, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 300, &mut rng);
        let churn = ChurnPlan::none().seeded(23).with_flaps(0.1, 4);
        let healed = run_healing_churned(&wg, 3, FaultPlan::none(), churn).unwrap();
        assert!(
            healed.metrics.lost_to_churn > 0,
            "flaps this dense must cost at least one frame"
        );
        assert_eq!(healed.tree_edges, reference::kruskal(&wg).unwrap());
        assert!(healed.cut_tree_edges.is_empty());
        assert!(reference::verify_mst(&wg, &healed.tree_edges));
    }

    #[test]
    fn mst_survives_node_restart_and_cut() {
        let mut rng = StdRng::seed_from_u64(47);
        let g = generators::random_regular(32, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 300, &mut rng);
        let churn = ChurnPlan::none()
            .seeded(9)
            .with_restart(NodeId(5), 3, 5)
            .with_edge_cut(EdgeId(0), 0);
        let healed = run_healing_churned(&wg, 2, FaultPlan::none(), churn).unwrap();
        assert_eq!(healed.metrics.restarts, 1, "node 5 rejoins exactly once");
        assert!(healed.crashed_nodes.is_empty(), "a restart is not a crash");
        assert_eq!(
            healed.tree_edges,
            kruskal_excluding(&wg, &[], &[EdgeId(0)]),
            "tree must be the exact MST of the graph minus the cut edge"
        );
        assert!(!healed.timeline.spans().is_empty());
        assert_eq!(healed.timeline.open_count(), 0);
        assert!(healed.timeline.time_to_reconverge().max >= 1);
    }

    #[test]
    fn cut_tree_edge_is_pruned_and_rehealed() {
        let mut rng = StdRng::seed_from_u64(48);
        let g = generators::random_regular(24, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 200, &mut rng);
        // The globally minimum edge is adopted in the first merge; cutting
        // it near the end of the clean run guarantees the
        // adopted-then-pruned path runs (the churned run is byte-identical
        // to the clean one until the cut fires).
        let clean = run_healing(&wg, 2, FaultPlan::none()).unwrap();
        let min_edge = (0..wg.graph().edge_count() as u32)
            .map(EdgeId)
            .min_by_key(|&e| encode(&wg, e))
            .unwrap();
        assert!(clean.tree_edges.contains(&min_edge));
        let churn = ChurnPlan::none()
            .seeded(11)
            .with_edge_cut(min_edge, clean.rounds.saturating_sub(2));
        let healed = run_healing_churned(&wg, 2, FaultPlan::none(), churn).unwrap();
        assert_eq!(
            healed.cut_tree_edges,
            vec![min_edge],
            "the adopted minimum edge must be detected as cut and pruned"
        );
        assert!(healed.phase_restarts >= 1);
        assert_eq!(
            healed.tree_edges,
            kruskal_excluding(&wg, &[], &[min_edge]),
            "after the prune the run must re-heal to the reduced graph's MST"
        );
    }

    #[test]
    fn cut_bridges_partition_gracefully() {
        // The dumbbell of `disconnecting_crash_fails_fast_with_context`:
        // cutting both of node 4's bridge edges (2,4) and (4,6) splits the
        // graph into {0,1,2,3}, {4}, {5,6,7,8}.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 4),
                (4, 6),
                (5, 6),
                (6, 7),
                (7, 5),
                (3, 0),
                (8, 5),
            ],
        )
        .unwrap();
        let wg = WeightedGraph::with_random_weights(g, 100, &mut StdRng::seed_from_u64(49));
        let churn = ChurnPlan::none()
            .seeded(4)
            .with_edge_cut(EdgeId(3), 2)
            .with_edge_cut(EdgeId(4), 2);
        let err = run_healing_churned(&wg, 1, FaultPlan::none(), churn).unwrap_err();
        match err {
            MstError::Congest(CongestError::Partitioned { components, .. }) => {
                assert_eq!(components, 3);
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn sustained_outage_prunes_node_to_survivors() {
        let mut rng = StdRng::seed_from_u64(50);
        let g = generators::random_regular(24, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 200, &mut rng);
        // Node 3 goes dark at round 2 and effectively never returns: after
        // MAX_LINK_RETRIES suspect phases its patience expires and it is
        // pruned as dead instead of being retried forever.
        let churn = ChurnPlan::none()
            .seeded(3)
            .with_restart(NodeId(3), 2, 1_000_000);
        let healed = run_healing_churned(&wg, 5, FaultPlan::none(), churn).unwrap();
        assert_eq!(healed.crashed_nodes, vec![NodeId(3)]);
        assert!(healed.phase_restarts >= MAX_LINK_RETRIES);
        assert_eq!(
            healed.tree_edges,
            kruskal_on_survivors(&wg, &[NodeId(3)]),
            "result must be the exact MST of the survivors"
        );
        assert_eq!(healed.timeline.open_count(), 0);
    }

    #[test]
    fn churned_healing_replays_deterministically() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = generators::random_regular(32, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 200, &mut rng);
        let plan = FaultPlan::none().seeded(77).with_drops(0.05);
        let churn = ChurnPlan::none()
            .seeded(5)
            .with_flaps(0.08, 5)
            .with_restart(NodeId(4), 10, 6);
        let a = run_healing_churned(&wg, 2, plan.clone(), churn.clone()).unwrap();
        let b = run_healing_churned(&wg, 2, plan, churn).unwrap();
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.cut_tree_edges, b.cut_tree_edges);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.phase_restarts, b.phase_restarts);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn trivial_churn_plan_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(52);
        let g = generators::random_regular(32, 4, &mut rng).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 200, &mut rng);
        let plan = FaultPlan::none()
            .seeded(7)
            .with_drops(0.05)
            .with_crash(NodeId(6), 12);
        let plain = run_healing(&wg, 2, plan.clone()).unwrap();
        let churned = run_healing_churned(&wg, 2, plan, ChurnPlan::none().seeded(99)).unwrap();
        assert_eq!(plain.tree_edges, churned.tree_edges);
        assert_eq!(plain.metrics, churned.metrics);
        assert_eq!(plain.phase_restarts, churned.phase_restarts);
        assert_eq!(plain.timeline, churned.timeline);
        assert!(churned.cut_tree_edges.is_empty());
        // Fault-free and churn-free means damage-free.
        let calm = run_healing_churned(&wg, 2, FaultPlan::none(), ChurnPlan::none()).unwrap();
        assert!(calm.timeline.spans().is_empty());
        assert_eq!(calm.timeline.open_count(), 0);
    }
}
