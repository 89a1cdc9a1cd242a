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

use crate::congest_boruvka::{decode_edge, encode};
use crate::reference::UnionFind;
use crate::{MstError, Result};
use amt_congest::{
    bits_for_value, class, ChurnKind, ChurnPlan, CongestError, Ctx, FaultKind, FaultPlan, Metrics,
    Observe, ObservedRuns, ProfileConfig, Protocol, RecoveryTimeline, Reliable, ReliableLink,
    RunConfig, RunTrace, Simulator, StopCondition, TraceConfig, TrafficClass, TrafficProfile,
};
use amt_graphs::{EdgeId, Graph, NodeId, WeightedGraph};
use std::collections::{HashMap, HashSet};

/// Consecutive phase-level ARQ give-ups on the same live link before the
/// run surfaces [`CongestError::RetryExhausted`].
const MAX_LINK_RETRIES: u32 = 3;

/// Deterministic backoff jitter for phase restarts — a splitmix64 step
/// keyed by `(seed, streak)`.
fn backoff_jitter(seed: u64, streak: u32) -> u64 {
    let mut z = seed ^ u64::from(streak).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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
    /// floods over its `active` forest edges to live peers; `dead` nodes
    /// neither spread nor receive. ARQ base timeout `timeout`, data frames
    /// attributed to `class`, `"mst_phase"` spans numbered `phase`.
    fn fleet(
        g: &Graph,
        active: &HashSet<EdgeId>,
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
                    .filter(|(_, (w, e))| active.contains(e) && !dead[w.index()])
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

/// One reliable flooding phase over `active` forest edges, excluding dead
/// nodes; returns converged values, metrics, and the damage the phase
/// observed ([`PhaseDamage`]). Data frames are attributed to `class`;
/// `phase` is the global phase number for `"mst_phase"` spans. Damage
/// events (crashes, outages, cuts) open spans in `timeline` on the global
/// clock. The `observe` layers' records fold into `runs` at
/// `rounds_so_far`.
#[allow(clippy::too_many_arguments)]
fn reliable_min_flood(
    wg: &WeightedGraph,
    active: &HashSet<EdgeId>,
    dead: &[bool],
    init: &[u64],
    seed: u64,
    plan: &FaultPlan,
    churn: &ChurnPlan,
    timeout: u64,
    elapsed: u64,
    crash_rounds: &mut HashMap<u32, u64>,
    timeline: &mut RecoveryTimeline,
    class: TrafficClass,
    phase: u64,
    observe: &Observe,
    runs: &mut ObservedRuns,
    rounds_so_far: u64,
) -> Result<(Vec<u64>, Metrics, PhaseDamage)> {
    let g = wg.graph();
    let nodes = ReliableMinFlood::fleet(g, active, dead, init, timeout, class, phase);
    // This phase sees the tail of the global fault schedule: already-dead
    // nodes stay crashed from round 0, pending crashes fire once the
    // computation's global clock (elapsed + local round) reaches them. The
    // churn plan needs no such surgery — its schedules are expressed on the
    // global clock and shifted wholesale via `at_offset`.
    let mut phase_plan = plan.clone();
    phase_plan.seed = plan.seed ^ elapsed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for c in &mut phase_plan.crashes {
        c.round = if dead[c.node.index()] {
            0
        } else {
            c.round.saturating_sub(elapsed)
        };
    }
    let mut sim = Simulator::new(g, nodes, seed)?
        .with_fault_plan(phase_plan)
        .with_churn_plan(churn.clone().at_offset(churn.round_offset + elapsed))
        .with_observe(observe.clone());
    let metrics = sim.run(&FLOOD_CONFIG)?;
    runs.absorb(sim.take_observed(), rounds_so_far);
    for e in sim.fault_events() {
        if matches!(e.kind, FaultKind::Crashed) {
            crash_rounds.entry(e.node.0).or_insert(elapsed + e.round);
            // Re-applied crashes of already-dead nodes are no new damage.
            if !dead[e.node.index()] {
                timeline.record_damage(elapsed + e.round);
            }
        }
    }
    for ev in sim.churn_events() {
        // Outages touching only already-dead nodes are immaterial — the
        // healed tree no longer depends on them, so they open no span.
        let counts = match ev.kind {
            ChurnKind::EdgeDown { edge } => {
                let (u, v) = g.endpoints(edge);
                !dead[u.index()] && !dead[v.index()]
            }
            ChurnKind::NodeDown { node } => !dead[node.index()],
            _ => false,
        };
        if counts {
            timeline.record_damage(elapsed + ev.round);
        }
    }
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
                .filter(move |&(port, _)| {
                    let (peer, _) = g.neighbors(v).nth(port).expect("port within degree");
                    !dead_now(peer)
                })
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
    Ok((
        sim.nodes().iter().map(|p| p.value).collect(),
        metrics,
        PhaseDamage {
            new_crashes,
            giveups,
            outaged,
        },
    ))
}

/// Removes forest/tree edges the churn plan has permanently cut; returns
/// whether anything was pruned (labels must re-flood before Borůvka
/// resumes). Surviving adoptions stay MST edges of the reduced graph: each
/// was its fragment's minimum outgoing edge over a superset of the final
/// edge set.
fn prune_cut_forest(
    forest: &mut HashSet<EdgeId>,
    tree_edges: &mut Vec<EdgeId>,
    cut_tree_edges: &mut Vec<EdgeId>,
    is_cut: impl Fn(EdgeId) -> bool,
) -> bool {
    let newly_cut: Vec<EdgeId> = forest.iter().copied().filter(|&e| is_cut(e)).collect();
    if newly_cut.is_empty() {
        return false;
    }
    for e in &newly_cut {
        forest.remove(e);
    }
    tree_edges.retain(|e| forest.contains(e));
    cut_tree_edges.extend(newly_cut);
    true
}

/// Accounts this phase's ARQ give-ups toward live peers over non-cut edges
/// into `streaks`. Returns `Ok(true)` when the phase's flood values are
/// suspect and the phase must restart; errors with
/// [`CongestError::RetryExhausted`] once one link has given up
/// [`MAX_LINK_RETRIES`] phases straight — sustained damage the retry
/// budget cannot outwait.
fn check_giveups(
    g: &Graph,
    giveups: &[(NodeId, usize, u32)],
    is_cut: impl Fn(EdgeId) -> bool,
    streaks: &mut HashMap<(u32, usize), u32>,
    elapsed: u64,
    seed: u64,
) -> Result<bool> {
    let mut restart = false;
    for &(v, port, attempts) in giveups {
        let (_, e) = g.neighbors(v).nth(port).expect("port within degree");
        if is_cut(e) {
            // An expected give-up: the edge is gone for good, and the
            // cut-forest prune reroutes around it.
            continue;
        }
        restart = true;
        let s = streaks.entry((v.0, port)).or_insert(0);
        *s += 1;
        if *s >= MAX_LINK_RETRIES {
            return Err(MstError::Congest(CongestError::RetryExhausted {
                node: v,
                port,
                attempts,
                round: elapsed,
                seed,
            }));
        }
    }
    Ok(restart)
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
/// [`MAX_LINK_RETRIES`] phases straight.
pub fn run_healing_churned(
    wg: &WeightedGraph,
    seed: u64,
    plan: FaultPlan,
    churn: ChurnPlan,
) -> Result<HealedMstOutcome> {
    let (out, _, _) = run_healing_churned_instrumented(wg, seed, plan, churn, 1, None, None)?;
    Ok(out)
}

/// The full healing driver: faults, churn, and opt-in observability in one
/// signature ([`run_healing_instrumented`] is this with a trivial churn
/// plan).
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

    let mut comp: Vec<u64> = (0..n as u64).collect();
    let mut forest: HashSet<EdgeId> = HashSet::new();
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let mut metrics = Metrics::default();
    let mut iterations = 0u32;
    let mut phase_restarts = 0u32;
    let mut dead = vec![false; n];
    let mut crash_rounds: HashMap<u32, u64> = HashMap::new();
    let mut elapsed = 0u64;
    let mut labels_stale = false;
    let observe = Observe { trace, profile };
    let mut runs = ObservedRuns::default();
    let mut phase = 0u64;
    let mut timeline = RecoveryTimeline::new();
    let mut cut_tree_edges: Vec<EdgeId> = Vec::new();
    // Consecutive phase restarts without a completed iteration; drives the
    // capped-backoff ARQ timeout below.
    let mut restart_streak = 0u32;
    // Phase-level ARQ give-up streak per directed link `(node, port)`.
    let mut giveup_streaks: HashMap<(u32, usize), u32> = HashMap::new();
    // Consecutive suspect phases per node in churn outage; a node offline
    // [`MAX_LINK_RETRIES`] phases straight is pruned as dead — an
    // effectively-permanent outage the restart budget must not chase.
    let mut outage_streaks: HashMap<u32, u32> = HashMap::new();
    let base_timeout = 4 + 2 * plan.max_delay;
    // Jitter key: a *trivial* churn plan must leave the run byte-identical
    // to the churn-free path whatever its seed, so its seed drops out.
    let jitter_seed = if churn.is_trivial() {
        plan.seed
    } else {
        plan.seed ^ churn.seed
    };
    // Rounds (on the churn plan's global clock) from which each edge is
    // permanently cut, precomputed once.
    let cut_round: Vec<Option<u64>> = (0..g.edge_count())
        .map(|e| churn.edge_cut_round(EdgeId(e as u32)))
        .collect();
    let is_cut = |e: EdgeId, at: u64| cut_round[e.index()].is_some_and(|r| r <= at);
    // Restarts re-run phases, so budget them on top of the usual cap.
    let cap = 2 * (n.max(2) as f64).log2().ceil() as u32
        + 10
        + 2 * plan.crashes.len() as u32
        + 2 * (churn.outages.len() + churn.restarts.len()) as u32;

    // Components of the live nodes over edges not permanently cut by `at`
    // (transient outages count as connectivity — they come back).
    let survivor_components = |dead: &[bool], at: u64| -> usize {
        let mut seen = vec![false; n];
        let mut comps = 0usize;
        for s in 0..n {
            if dead[s] || seen[s] {
                continue;
            }
            comps += 1;
            seen[s] = true;
            let mut stack = vec![NodeId::from(s)];
            while let Some(v) = stack.pop() {
                for (w, e) in g.neighbors(v) {
                    if !dead[w.index()] && !seen[w.index()] && !is_cut(e, at) {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
        }
        comps
    };

    // Prunes the state after newly detected crashes; errors out if the
    // survivors are disconnected.
    let prune = |new_crashes: &[NodeId],
                 dead: &mut Vec<bool>,
                 forest: &mut HashSet<EdgeId>,
                 tree_edges: &mut Vec<EdgeId>,
                 crash_rounds: &HashMap<u32, u64>|
     -> Result<()> {
        for v in new_crashes {
            dead[v.index()] = true;
        }
        forest.retain(|&e| {
            let (u, v) = g.endpoints(e);
            !dead[u.index()] && !dead[v.index()]
        });
        tree_edges.retain(|e| forest.contains(e));
        // The survivors must stay connected for an MST to exist.
        if let Some(first_live) = (0..n).find(|&v| !dead[v]) {
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId::from(first_live)];
            seen[first_live] = true;
            while let Some(v) = stack.pop() {
                for (w, _) in g.neighbors(v) {
                    if !dead[w.index()] && !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            if (0..n).any(|v| !dead[v] && !seen[v]) {
                let &culprit = new_crashes
                    .last()
                    .expect("disconnection implies a new crash");
                return Err(MstError::Congest(CongestError::NodeCrashed {
                    node: culprit,
                    round: crash_rounds.get(&culprit.0).copied().unwrap_or(0),
                    seed: plan.seed,
                }));
            }
        }
        Ok(())
    };

    // Bumps each outaged node's patience streak; nodes offline
    // `MAX_LINK_RETRIES` suspect phases straight are pruned as dead.
    let handle_outages = |outaged: &[NodeId],
                          streaks: &mut HashMap<u32, u32>,
                          dead: &mut Vec<bool>,
                          forest: &mut HashSet<EdgeId>,
                          tree_edges: &mut Vec<EdgeId>,
                          crash_rounds: &HashMap<u32, u64>|
     -> Result<()> {
        let mut expired: Vec<NodeId> = Vec::new();
        for &v in outaged {
            let s = streaks.entry(v.0).or_insert(0);
            *s += 1;
            if *s >= MAX_LINK_RETRIES {
                expired.push(v);
            }
        }
        if !expired.is_empty() {
            prune(&expired, dead, forest, tree_edges, crash_rounds)?;
        }
        Ok(())
    };

    loop {
        // Capped exponential backoff with deterministic jitter on the ARQ
        // timeout: consecutive phase restarts wait longer for acks, so
        // sustained flapping is ridden out instead of retried into.
        let phase_timeout = if restart_streak == 0 {
            base_timeout
        } else {
            (base_timeout << restart_streak.min(4))
                + backoff_jitter(jitter_seed, restart_streak) % base_timeout
        };

        if labels_stale {
            // Phase restart: re-establish fragment labels on the pruned
            // forest before resuming Borůvka.
            let label_init: Vec<u64> = (0..n as u64).collect();
            phase += 1;
            let (labels, m, damage) = reliable_min_flood(
                wg,
                &forest,
                &dead,
                &label_init,
                seed ^ 0xBEEF ^ elapsed,
                &plan,
                &churn,
                phase_timeout,
                elapsed,
                &mut crash_rounds,
                &mut timeline,
                class::MST_LABEL,
                phase,
                &observe,
                &mut runs,
                metrics.rounds,
            )?;
            elapsed += m.rounds;
            metrics = metrics.then(m);
            if !damage.new_crashes.is_empty() {
                prune(
                    &damage.new_crashes,
                    &mut dead,
                    &mut forest,
                    &mut tree_edges,
                    &crash_rounds,
                )?;
                restart_streak += 1;
                phase_restarts += 1;
                continue;
            }
            if !damage.outaged.is_empty() {
                // A live node was offline mid-flood: the executor counts it
                // as done while down, so its value may be missing. Restart.
                handle_outages(
                    &damage.outaged,
                    &mut outage_streaks,
                    &mut dead,
                    &mut forest,
                    &mut tree_edges,
                    &crash_rounds,
                )?;
                restart_streak += 1;
                phase_restarts += 1;
                continue;
            }
            if prune_cut_forest(&mut forest, &mut tree_edges, &mut cut_tree_edges, |e| {
                is_cut(e, elapsed)
            }) {
                restart_streak += 1;
                phase_restarts += 1;
                continue;
            }
            if check_giveups(
                g,
                &damage.giveups,
                |e| is_cut(e, elapsed),
                &mut giveup_streaks,
                elapsed,
                plan.seed,
            )? {
                restart_streak += 1;
                phase_restarts += 1;
                continue;
            }
            comp = labels;
            labels_stale = false;
        }

        // Permanent cuts may have disconnected the survivors: terminate
        // with the component count instead of retrying toward an
        // unreachable fragment until the iteration cap.
        let comps = survivor_components(&dead, elapsed);
        if comps > 1 {
            return Err(MstError::Congest(CongestError::Partitioned {
                components: comps,
                round: elapsed,
            }));
        }

        let live_fragments: HashSet<u64> = (0..n).filter(|&v| !dead[v]).map(|v| comp[v]).collect();
        if live_fragments.len() <= 1 {
            break;
        }
        if iterations >= cap {
            return Err(MstError::TooManyIterations { cap });
        }
        iterations += 1;

        // Fragment-id exchange with live neighbors (1 round).
        metrics.rounds += 1;
        elapsed += 1;

        // Per-node candidate: minimum edge out of the fragment, toward a
        // live node, over an edge not permanently cut by now (transiently
        // down edges stay candidates — they come back).
        let init: Vec<u64> = g
            .nodes()
            .map(|v| {
                if dead[v.index()] {
                    return NO_CANDIDATE;
                }
                g.neighbors(v)
                    .filter(|&(w, e)| {
                        w != v
                            && !dead[w.index()]
                            && comp[w.index()] != comp[v.index()]
                            && !is_cut(e, elapsed)
                    })
                    .map(|(_, e)| encode(wg, e))
                    .min()
                    .unwrap_or(NO_CANDIDATE)
            })
            .collect();
        phase += 1;
        let (vals, m1, damage) = reliable_min_flood(
            wg,
            &forest,
            &dead,
            &init,
            seed ^ u64::from(iterations),
            &plan,
            &churn,
            phase_timeout,
            elapsed,
            &mut crash_rounds,
            &mut timeline,
            class::MST_FLOOD,
            phase,
            &observe,
            &mut runs,
            metrics.rounds,
        )?;
        elapsed += m1.rounds;
        metrics = metrics.then(m1);
        if !damage.new_crashes.is_empty() {
            // A fragment member — possibly the minimum-id leader — died
            // mid-phase; the partial minima are untrustworthy. Restart.
            prune(
                &damage.new_crashes,
                &mut dead,
                &mut forest,
                &mut tree_edges,
                &crash_rounds,
            )?;
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        if !damage.outaged.is_empty() {
            handle_outages(
                &damage.outaged,
                &mut outage_streaks,
                &mut dead,
                &mut forest,
                &mut tree_edges,
                &crash_rounds,
            )?;
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        if prune_cut_forest(&mut forest, &mut tree_edges, &mut cut_tree_edges, |e| {
            is_cut(e, elapsed)
        }) {
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        if check_giveups(
            g,
            &damage.giveups,
            |e| is_cut(e, elapsed),
            &mut giveup_streaks,
            elapsed,
            plan.seed,
        )? {
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }

        // Merge along every fragment's minimum outgoing edge (central
        // bookkeeping, as in the baseline harness).
        let mut uf = UnionFind::new(n);
        for &e in &forest {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let mut merged = false;
        for v in 0..n {
            if dead[v] || vals[v] == NO_CANDIDATE {
                continue;
            }
            let e = decode_edge(wg, vals[v]);
            let (a, b) = g.endpoints(e);
            if uf.union(a.index(), b.index()) {
                forest.insert(e);
                tree_edges.push(e);
                merged = true;
            }
        }
        debug_assert!(
            merged || !churn.is_trivial(),
            "a fault-free phase must merge at least one fragment"
        );
        if !merged {
            // Every candidate went stale (e.g. cut mid-flood); re-label
            // and retry rather than looping on an empty merge.
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }

        // Flood the new fragment labels (minimum surviving node id).
        let label_init: Vec<u64> = (0..n as u64).collect();
        phase += 1;
        let (labels, m2, damage) = reliable_min_flood(
            wg,
            &forest,
            &dead,
            &label_init,
            seed ^ 0xF00D ^ u64::from(iterations),
            &plan,
            &churn,
            phase_timeout,
            elapsed,
            &mut crash_rounds,
            &mut timeline,
            class::MST_LABEL,
            phase,
            &observe,
            &mut runs,
            metrics.rounds,
        )?;
        elapsed += m2.rounds;
        metrics = metrics.then(m2);
        if !damage.new_crashes.is_empty() {
            prune(
                &damage.new_crashes,
                &mut dead,
                &mut forest,
                &mut tree_edges,
                &crash_rounds,
            )?;
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        if !damage.outaged.is_empty() {
            handle_outages(
                &damage.outaged,
                &mut outage_streaks,
                &mut dead,
                &mut forest,
                &mut tree_edges,
                &crash_rounds,
            )?;
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        if prune_cut_forest(&mut forest, &mut tree_edges, &mut cut_tree_edges, |e| {
            is_cut(e, elapsed)
        }) {
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        if check_giveups(
            g,
            &damage.giveups,
            |e| is_cut(e, elapsed),
            &mut giveup_streaks,
            elapsed,
            plan.seed,
        )? {
            restart_streak += 1;
            phase_restarts += 1;
            labels_stale = true;
            continue;
        }
        comp = labels;
        // One Borůvka iteration completed on trustworthy floods: the tree
        // state is re-converged, closing every open damage span.
        restart_streak = 0;
        giveup_streaks.clear();
        outage_streaks.clear();
        timeline.record_recovery(elapsed);
    }

    metrics.crashed = dead.iter().filter(|&&d| d).count() as u64;
    tree_edges.sort_unstable();
    cut_tree_edges.sort_unstable();
    Ok((
        HealedMstOutcome {
            total_weight: wg.total_weight(&tree_edges),
            tree_edges,
            rounds: metrics.rounds,
            iterations,
            phase_restarts,
            crashed_nodes: (0..n).filter(|&v| dead[v]).map(NodeId::from).collect(),
            cut_tree_edges,
            metrics,
            timeline,
        },
        runs.traces,
        runs.profile,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{congest_boruvka, reference};
    use amt_congest::oracle::assert_engines_agree;
    use amt_graphs::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs one whole-graph flooding phase of distinct values on the
    /// active-set engine against the full-sweep reference (both visit
    /// orders) and returns the reference's result.
    fn flood_engines_agree(
        g: &Graph,
        plan: &FaultPlan,
        churn: &ChurnPlan,
    ) -> amt_congest::Result<Metrics> {
        let active: HashSet<EdgeId> = g.edges().map(|(e, _, _)| e).collect();
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
