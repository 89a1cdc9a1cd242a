//! The synchronous round executor.
//!
//! # Determinism contract
//!
//! Every run is a pure function of
//! `(graph, seed, RunConfig, FaultPlan, ChurnPlan)`:
//!
//! * **Per-node random streams.** Each node owns a dedicated RNG whose seed
//!   is derived from `(run seed, node id)`, so the bits a protocol draws
//!   depend only on *which node* draws them and *how many* draws that node
//!   made before — never on the order in which the executor happens to
//!   visit nodes within a round.
//! * **Ordered merge.** Messages staged in a round are delivered into the
//!   next round's inboxes in `(sender id, port)` order, whatever order
//!   executed the senders.
//! * **Message-identity fault keying.** Fault verdicts are a counter-based
//!   PRF of `(fault seed, round, sender, sender port)` — see
//!   [`crate::faults`] — so which messages drop, corrupt, or delay is
//!   independent of sampling order.
//! * **Schedule-keyed churn.** Topology-churn verdicts (edge up/down, node
//!   offline) are pure functions of `(churn seed/schedule, round, id)` —
//!   see [`crate::churn`] — never of sampling order.
//! * **Executor-strategy independence.** The active-set engine (which only
//!   steps nodes that received mail, hold a due [`Ctx::wake_in`] timer, or
//!   are rejoining after a churn outage) and the retained full-sweep
//!   reference ([`RunConfig::full_sweep`]) produce byte-identical results
//!   for [`Protocol::SPARSE_AWARE`] protocols; the only observables that
//!   name the strategy are the `active_nodes` and `wake_queue` gauges of
//!   the round record ([`crate::RunTrace::without_executor_gauges`]).
//!
//! Together these make protocol outputs, [`Metrics`], the fault-event log,
//! and the churn-event log byte-identical for any visit order and either
//! engine strategy — the two axes the equivalence suites check
//! ([`Simulator::run_reverse_visit`] and [`RunConfig::full_sweep`]). There
//! is exactly one round-loop engine ([`round_engine`]) over one sequential
//! [`Stepper`]; the clean/faulty split is a [`FaultHook`] type parameter
//! (the inert hook compiles to the pristine executor) and the
//! static/churned split is an independent [`ChurnHook`] type parameter.
//!
//! # Data layout
//!
//! Round state lives in flat, CSR-indexed arenas (see [`Csr`], the
//! [`InboxArena`] message slab, and [`StepOut`]): one contiguous slab of
//! `(port, message)` pairs per round, grouped by receiver with prefix-sum
//! offsets, instead of per-node `Vec<Vec<_>>` nests. Grouping is a stable
//! counting sort ([`group_pending`]), so per-receiver delivery order is
//! exactly the ordered merge's, and per-round cost is proportional to
//! traffic + activity, not to `n`.

use crate::churn::{ChurnEvent, ChurnHook, ChurnPlan, ChurnState, NoChurn};
use crate::faults::{
    keyed_splitmix, Fate, FaultEvent, FaultHook, FaultKind, FaultPlan, FaultState, NoFaults,
    Transitions,
};
use crate::observe::{Observe, Observed, Phase, Recorder};
use crate::profile::{class, TrafficClass};
use crate::trace::TraceEvent;
use crate::{bits_for_count, CongestError, CongestMessage, Metrics, Result};
use amt_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A per-node state machine executed by the [`Simulator`].
///
/// One instance exists per node. On round 0 the simulator calls
/// [`Protocol::init`]; on every subsequent round it calls
/// [`Protocol::round`] with the messages delivered this round (sent by
/// neighbors in the previous round), tagged with the receiving port.
pub trait Protocol {
    /// The message type this protocol sends over edges.
    type Message: CongestMessage;

    /// The [`TrafficClass`] attributed to plain [`Ctx::send`] calls when
    /// profiling is on. Protocols whose sends fall into several classes
    /// override individual sends with [`Ctx::send_classed`].
    const TRAFFIC_CLASS: TrafficClass = class::DEFAULT;

    /// Opt-in flag for the sparse, active-set executor.
    ///
    /// When `true`, rounds in which this node received no messages, has no
    /// due [`Ctx::wake_in`] timer, and is not rejoining from a churn
    /// outage may be **skipped entirely** — the executor does not call
    /// [`Protocol::round`]. Opting in is a contract: such a round must be
    /// a complete no-op — no sends, no RNG draws, no state changes, no
    /// trace events, and an unchanged [`Protocol::is_done`] — so that
    /// skipping it is unobservable. Protocols that act on empty inboxes
    /// (periodic beacons, spontaneous timeouts) must either keep the
    /// default `false` or schedule their activity with [`Ctx::wake_in`].
    ///
    /// Debug builds check the contract: the full sweep of a sparse-aware
    /// protocol panics, naming the node and round, when a step the
    /// active-set engine would have skipped stages a message, requests a
    /// wake (re-arming an already pending round included), emits a trace
    /// event, draws from the RNG, or changes `is_done`.
    ///
    /// The executor choice never changes observable results:
    /// [`RunConfig::full_sweep`] forces the classic every-node sweep, and
    /// the two are byte-identical for contract-abiding protocols. Only
    /// the `active_nodes` and `wake_queue` gauges of
    /// [`crate::trace::RoundSample`] reveal the strategy.
    const SPARSE_AWARE: bool = false;

    /// Called once before the first communication round; may send messages.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Message>);

    /// Called once per round with this round's inbox; may send messages
    /// that will be delivered next round.
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Message>, inbox: &[(usize, Self::Message)]);

    /// Local termination flag, consulted by [`StopCondition::AllDone`].
    ///
    /// Must be a cheap, side-effect-free read of local state: the executor
    /// may evaluate it once per node per round, in any order.
    fn is_done(&self) -> bool {
        false
    }

    /// Called instead of [`Protocol::round`] in the round a
    /// [`crate::ChurnPlan`] crash-restart brings this node back online
    /// (its inbox is necessarily empty: in-flight messages were lost while
    /// it was down).
    ///
    /// The default keeps all state and simply takes an empty round —
    /// appropriate for protocols whose state is monotone. Churn-aware
    /// protocols override this to model volatile-state loss (reset fields,
    /// re-announce to neighbors). Either way the node's RNG stream is
    /// preserved across the outage, so runs stay a pure function of
    /// `(graph, seed, plans)`.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        self.round(ctx, &[]);
    }
}

/// When the simulator considers an execution finished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop when every node reports [`Protocol::is_done`] and no messages
    /// are in flight (crash-stopped nodes count as done).
    AllDone,
    /// Stop when a round passes with no messages sent and none in flight
    /// (useful for flooding-style protocols without explicit termination).
    #[default]
    Quiescence,
}

/// Execution limits and model constants.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Hard cap on rounds; exceeding it is an error (runaway protocol).
    pub max_rounds: u64,
    /// Per-message budget is `budget_factor · ⌈log₂ n⌉` bits — the explicit
    /// constant behind the model's `O(log n)`. The default of 8 fits a
    /// message tag, two node ids, and an edge weight of `O(log n)` bits.
    pub budget_factor: usize,
    /// Termination rule.
    pub stop: StopCondition,
    /// Forces the classic full-sweep executor: every live node steps every
    /// round, even for [`Protocol::SPARSE_AWARE`] protocols. The default
    /// (`false`) lets sparse-aware protocols run on the active-set engine,
    /// which only steps nodes that received mail, hold a due
    /// [`Ctx::wake_in`] timer, or are rejoining after a churn outage. The
    /// two engines are byte-identical on every observable (the retained
    /// full sweep is the equivalence reference in
    /// `tests/engine_equivalence.rs`); only the `active_nodes` and
    /// `wake_queue` gauges of the round record differ.
    pub full_sweep: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_rounds: 1_000_000,
            budget_factor: 8,
            stop: StopCondition::Quiescence,
            full_sweep: false,
        }
    }
}

impl RunConfig {
    /// Config with the [`StopCondition::AllDone`] termination rule.
    pub fn all_done() -> Self {
        RunConfig {
            stop: StopCondition::AllDone,
            ..Default::default()
        }
    }

    /// Forces (or releases) the full-sweep reference executor; see
    /// [`RunConfig::full_sweep`].
    pub fn with_full_sweep(mut self, full_sweep: bool) -> Self {
        self.full_sweep = full_sweep;
        self
    }
}

/// Per-round, per-node context handed to [`Protocol`] callbacks.
///
/// Provides the node's identity, its local view of the graph (degree,
/// neighbor ids — learnable in one round and conventionally assumed), the
/// send operation, and the node's private deterministic RNG.
pub struct Ctx<'a, M> {
    node: NodeId,
    degree: usize,
    neighbors: &'a [(u32, u32)],
    round: u64,
    budget_bits: usize,
    /// One staging slot per port, borrowed from the executor's reusable
    /// slab (sized once to the maximum degree, not per node per round).
    /// Each staged message carries its [`TrafficClass`] to the engine's
    /// merge, where the profiler (if any) attributes the delivery.
    staged: &'a mut [Option<(TrafficClass, M)>],
    /// Class attributed to plain [`Ctx::send`] calls
    /// ([`Protocol::TRAFFIC_CLASS`]).
    default_class: TrafficClass,
    rng: &'a mut StdRng,
    violation: &'a mut Option<CongestError>,
    /// Earliest absolute round this node asked to be re-stepped in via
    /// [`Ctx::wake_in`] (collected by the executor after the step).
    wake: &'a mut Option<u64>,
    /// Event sink when tracing is enabled (`None` costs one branch per
    /// [`Ctx::trace_event`] call and nothing else).
    trace: Option<&'a mut Vec<TraceEvent>>,
    /// The round's topology when a non-trivial [`crate::ChurnPlan`] is
    /// attached (`None` on the static-topology paths, where
    /// [`Ctx::link_up`] is constantly `true`).
    churn: Option<&'a ChurnState<'a>>,
}

impl<M: CongestMessage> Ctx<'_, M> {
    /// The id of the node being executed.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Degree of this node (number of ports).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The neighbor reached through `port`.
    pub fn neighbor(&self, port: usize) -> NodeId {
        NodeId(self.neighbors[port].0)
    }

    /// The current round number (0 during `init`).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether the link behind `port` is usable this round: the edge is up
    /// and the neighbor is online under the attached [`crate::ChurnPlan`]
    /// (always `true` without one, or under a trivial plan).
    ///
    /// A message sent over a down link this round is lost (counted in
    /// [`crate::Metrics::lost_to_churn`]), so routing protocols consult
    /// this to reroute instead. Like every churn verdict it is a pure
    /// function of `(churn seed, round, edge)` — reading it never perturbs
    /// determinism. This models the standard port-numbered assumption that
    /// a node can locally detect which of its links are live.
    pub fn link_up(&self, port: usize) -> bool {
        self.churn.is_none_or(|ch| {
            let (peer, edge) = self.neighbors[port];
            !ch.edge_down(edge as usize) && !ch.node_down(peer as usize)
        })
    }

    /// Sends `msg` over `port`, to be delivered next round.
    ///
    /// Records a model violation (duplicate send on a port, port out of
    /// range, over-wide message) which aborts the run; the violation is
    /// returned from [`Simulator::run`]. The **first** violation a node
    /// trips in a round is the one reported — later `send` calls in the
    /// same step are ignored.
    ///
    /// When profiling is on the message is attributed to the protocol's
    /// [`Protocol::TRAFFIC_CLASS`]; use [`Ctx::send_classed`] to refine.
    pub fn send(&mut self, port: usize, msg: M) {
        self.send_classed(port, msg, self.default_class);
    }

    /// [`Ctx::send`] with an explicit [`TrafficClass`] attribution.
    ///
    /// The class changes nothing about delivery — it only labels the
    /// message for the traffic profiler (and is ignored entirely when
    /// profiling is off).
    pub fn send_classed(&mut self, port: usize, msg: M, class: TrafficClass) {
        // First violation wins: once a step has tripped one, every later
        // send in the same step is a dead letter (the run aborts anyway).
        if self.violation.is_some() {
            return;
        }
        if port >= self.degree {
            *self.violation = Some(CongestError::PortOutOfRange {
                node: self.node,
                port,
                degree: self.degree,
            });
            return;
        }
        let bits = msg.bit_width();
        if bits > self.budget_bits {
            *self.violation = Some(CongestError::MessageTooWide {
                bits,
                budget: self.budget_bits,
            });
            return;
        }
        if self.staged[port].is_some() {
            *self.violation = Some(CongestError::DuplicateSend {
                node: self.node,
                port,
            });
            return;
        }
        self.staged[port] = Some((class, msg));
    }

    /// Sends `msg` to every port (standard "broadcast to neighbors").
    pub fn send_all(&mut self, msg: M) {
        if self.degree == 0 {
            return;
        }
        for port in 0..self.degree - 1 {
            self.send(port, msg.clone());
        }
        self.send(self.degree - 1, msg);
    }

    /// Requests that this node step again no later than `delta` rounds
    /// from now (i.e. in round `round() + delta`), even if no message
    /// arrives.
    ///
    /// This is the sparse executor's timer: a [`Protocol::SPARSE_AWARE`]
    /// protocol that wants to act spontaneously — periodic beacons, retry
    /// timeouts, backoff — must announce the round it next needs, since
    /// the active-set engine otherwise only steps nodes that received
    /// mail. Multiple calls in one step keep the earliest round. On the
    /// full-sweep engine (and for non-sparse protocols) the request is
    /// recorded and ignored — every node steps every round anyway — so
    /// calling it is always safe and never changes observable results.
    ///
    /// `delta` must be at least 1 (the current round is already
    /// executing); `0` is treated as `1`.
    pub fn wake_in(&mut self, delta: u64) {
        debug_assert!(
            delta >= 1,
            "wake_in(0): the current round is already stepping"
        );
        let target = self.round + delta.max(1);
        *self.wake = Some(self.wake.map_or(target, |w| w.min(target)));
    }

    /// This node's private deterministic RNG.
    ///
    /// The stream is seeded from `(run seed, node id)` at simulator
    /// construction, so the values drawn here are independent of the order
    /// in which the executor visits nodes.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Emits a span/phase marker into the run's [`RunTrace`](crate::RunTrace).
    ///
    /// A no-op (one branch) unless tracing was requested with
    /// [`Simulator::with_observe`]; emitting events must therefore never be
    /// the protocol's only side effect. Events are recorded in
    /// `(round, node)` order.
    pub fn trace_event(&mut self, label: &'static str, value: u64) {
        if let Some(events) = self.trace.as_mut() {
            events.push(TraceEvent {
                round: self.round,
                node: self.node,
                label,
                value,
            });
        }
    }
}

/// The graph in compressed-sparse-row form, plus the peer-port table: the
/// executor's entire static view, in three flat arrays indexed by `u32`
/// offsets. `adj[adj_off[v]..adj_off[v+1]]` are `(neighbor, edge)` pairs in
/// port order; `peer_port` is aligned with `adj` and holds the port index
/// at the neighbor through which the same edge is seen from the other side.
struct Csr {
    adj_off: Vec<u32>,
    adj: Vec<(u32, u32)>,
    peer_port: Vec<u32>,
}

impl Csr {
    /// Builds the CSR adjacency and pairs up ports across each edge. For
    /// self-loops the two adjacency occurrences pair with each other.
    fn build(graph: &Graph) -> Csr {
        let n = graph.len();
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut adj: Vec<(u32, u32)> = Vec::new();
        adj_off.push(0u32);
        for v in graph.nodes() {
            adj.extend(graph.neighbors(v).map(|(w, e)| (w.0, e.0)));
            adj_off.push(adj.len() as u32);
        }
        let mut ends = vec![[(0u32, 0u32); 2]; graph.edge_count()];
        let mut cnt = vec![0u8; graph.edge_count()];
        for v in 0..n {
            let off = adj_off[v] as usize;
            let end = adj_off[v + 1] as usize;
            for (p, &(_, e)) in adj[off..end].iter().enumerate() {
                let e = e as usize;
                let c = cnt[e] as usize;
                debug_assert!(c < 2, "an edge has exactly two adjacency entries");
                ends[e][c] = (v as u32, p as u32);
                cnt[e] += 1;
            }
        }
        let mut peer_port = vec![0u32; adj.len()];
        for (e, pair) in ends.iter().enumerate() {
            debug_assert_eq!(cnt[e], 2, "an edge has exactly two adjacency entries");
            let (v0, p0) = pair[0];
            let (v1, p1) = pair[1];
            peer_port[adj_off[v0 as usize] as usize + p0 as usize] = p1;
            peer_port[adj_off[v1 as usize] as usize + p1 as usize] = p0;
        }
        Csr {
            adj_off,
            adj,
            peer_port,
        }
    }

    fn n(&self) -> usize {
        self.adj_off.len() - 1
    }

    fn degree(&self, v: usize) -> usize {
        (self.adj_off[v + 1] - self.adj_off[v]) as usize
    }

    /// `(neighbor, edge)` pairs of `v`, in port order.
    fn neighbors(&self, v: usize) -> &[(u32, u32)] {
        &self.adj[self.adj_off[v] as usize..self.adj_off[v + 1] as usize]
    }

    /// The port index at the other endpoint of the edge behind `(v, port)`.
    fn peer_port(&self, v: usize, port: usize) -> u32 {
        self.peer_port[self.adj_off[v] as usize + port]
    }

    /// Maximum degree over all nodes.
    fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

/// One round's delivered messages, grouped by receiver in a single
/// contiguous slab: `nodes` lists the receivers in ascending id order, and
/// group `i` is `slab[offsets[i]..offsets[i + 1]]` — `(receiving port,
/// message)` pairs in the ordered merge's delivery order.
struct InboxArena<M> {
    slab: Vec<(usize, M)>,
    nodes: Vec<u32>,
    offsets: Vec<u32>,
}

impl<M> Default for InboxArena<M> {
    fn default() -> Self {
        InboxArena {
            slab: Vec::new(),
            nodes: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl<M> InboxArena<M> {
    fn clear(&mut self) {
        self.slab.clear();
        self.nodes.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// The messages of the `i`-th receiver in `nodes`.
    fn group(&self, i: usize) -> &[(usize, M)] {
        &self.slab[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Deliveries staged by the merge before grouping: parallel arrays of
/// destination node and `(receiving port, message)`, in delivery order.
struct Pending<M> {
    dst: Vec<u32>,
    msg: Vec<(usize, M)>,
}

impl<M> Default for Pending<M> {
    fn default() -> Self {
        Pending {
            dst: Vec::new(),
            msg: Vec::new(),
        }
    }
}

impl<M: CongestMessage> Pending<M> {
    /// Delivers `msg` over `to` — the one place a delivery is counted: its
    /// frame width in `metrics.bits`, the edge's load, the recorder's
    /// attribution to `class` — and stages it for the next round's inbox.
    /// The round's message count is the number staged.
    #[inline]
    fn deliver(
        &mut self,
        to: Link,
        class: TrafficClass,
        msg: M,
        metrics: &mut Metrics,
        edge_load: &mut [u64],
        rec: &mut Recorder,
    ) {
        let width = msg.bit_width() as u64;
        metrics.bits += width;
        edge_load[to.edge] += 1;
        rec.delivered(class, to.edge, width);
        self.dst.push(to.dst as u32);
        self.msg.push((to.dst_port, msg));
    }
}

/// Groups `pend` by destination into `arena` with a **stable** counting
/// sort: per-destination message order is exactly the staging order (the
/// ordered merge's), which is what keeps inbox contents byte-identical to
/// the per-node-buffer layout this replaced. `cnt` and `cursor` are
/// all-zero length-`n` scratch arrays and are returned all-zero (only
/// touched entries are cleared, so the pass is O(traffic), not O(n));
/// `perm` is resizable scratch. The grouped messages end up in
/// `arena.slab` via a buffer swap — no per-message allocation.
fn group_pending<M>(
    pend: &mut Pending<M>,
    cnt: &mut [u32],
    cursor: &mut [u32],
    perm: &mut Vec<u32>,
    arena: &mut InboxArena<M>,
) {
    arena.clear();
    if pend.dst.is_empty() {
        pend.msg.clear();
        std::mem::swap(&mut arena.slab, &mut pend.msg);
        return;
    }
    for &d in &pend.dst {
        if cnt[d as usize] == 0 {
            arena.nodes.push(d);
        }
        cnt[d as usize] += 1;
    }
    arena.nodes.sort_unstable();
    let mut running = 0u32;
    for &v in &arena.nodes {
        cursor[v as usize] = running;
        running += cnt[v as usize];
        arena.offsets.push(running);
    }
    // perm[j] = final slab position of staged message j (stable: equal
    // destinations keep their relative order).
    perm.clear();
    perm.extend(pend.dst.iter().map(|&d| {
        let p = cursor[d as usize];
        cursor[d as usize] = p + 1;
        p
    }));
    // Apply the permutation in place by following cycles.
    for i in 0..perm.len() {
        while perm[i] as usize != i {
            let j = perm[i] as usize;
            pend.msg.swap(i, j);
            perm.swap(i, j);
        }
    }
    // Restore the all-zero invariant, touching only grouped entries.
    for &v in &arena.nodes {
        cnt[v as usize] = 0;
        cursor[v as usize] = 0;
    }
    pend.dst.clear();
    std::mem::swap(&mut arena.slab, &mut pend.msg);
}

/// The active set of one round: a dense epoch-stamped membership array plus
/// a worklist. Insertion is O(1) with deduplication; `finish` sorts the
/// worklist so the visit order is canonical (ascending node id) regardless
/// of insertion order, which is what keeps the sparse engine byte-identical
/// to the full sweep.
#[derive(Default)]
struct ActiveSet {
    stamp: Vec<u64>,
    epoch: u64,
    list: Vec<u32>,
}

impl ActiveSet {
    fn reset(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.epoch = 0;
        }
        self.list.clear();
    }

    fn begin(&mut self) {
        self.epoch += 1;
        self.list.clear();
    }

    fn insert(&mut self, v: u32) {
        let s = &mut self.stamp[v as usize];
        if *s != self.epoch {
            *s = self.epoch;
            self.list.push(v);
        }
    }

    fn finish(&mut self) {
        self.list.sort_unstable();
    }

    /// Whether `v` was inserted since the last [`Self::begin`].
    fn contains(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }
}

/// What the stepper produced in one round, in flat run-length form:
/// `index` lists `(sender, number of staged sends)` for senders that sent
/// (ascending), whose `(port, class, message)` triples are consecutive in
/// `slab`; `done` carries `(node, is_done)` for every node actually
/// stepped; `wakes` carries `(node, absolute wake round)` requests.
struct StepOut<M> {
    slab: Vec<(u32, TrafficClass, M)>,
    index: Vec<(u32, u32)>,
    done: Vec<(u32, bool)>,
    wakes: Vec<(u32, u64)>,
    /// Number of protocol callbacks that actually ran this round — the
    /// round record's `active_nodes` gauge.
    stepped: u64,
    /// Span events the steps emitted, in node order; `Some` iff tracing
    /// is on.
    events: Option<Vec<TraceEvent>>,
}

impl<M> Default for StepOut<M> {
    fn default() -> Self {
        StepOut {
            slab: Vec::new(),
            index: Vec::new(),
            done: Vec::new(),
            wakes: Vec::new(),
            stepped: 0,
            events: None,
        }
    }
}

impl<M> StepOut<M> {
    /// Clears the round's contents, keeping which observations it records.
    fn clear(&mut self) {
        self.slab.clear();
        self.index.clear();
        self.done.clear();
        self.wakes.clear();
        self.stepped = 0;
        if let Some(events) = self.events.as_mut() {
            events.clear();
        }
    }
}

impl<M: Clone> StepOut<M> {
    /// Rewrites a descending-visit fill into the canonical ascending-sender
    /// layout the merge consumes. Only the reverse-visit test hook pays the
    /// clone; the forward visit appends in ascending order to begin with.
    fn canonicalize_reversed(&mut self) {
        if self.index.len() > 1 {
            let mut run_start = Vec::with_capacity(self.index.len());
            let mut pos = 0usize;
            for &(_, len) in &self.index {
                run_start.push(pos);
                pos += len as usize;
            }
            let mut rebuilt = Vec::with_capacity(self.slab.len());
            for k in (0..self.index.len()).rev() {
                let s = run_start[k];
                let l = self.index[k].1 as usize;
                rebuilt.extend(self.slab[s..s + l].iter().cloned());
            }
            self.slab = rebuilt;
        }
        self.index.reverse();
        self.done.reverse();
        self.wakes.reverse();
    }
}

/// Where a message lands: the receiving node and port, and the edge it
/// crosses.
#[derive(Clone, Copy)]
struct Link {
    dst: usize,
    dst_port: usize,
    edge: usize,
}

/// A message an injected delay is holding back, with the original sender
/// kept for the loss event if the destination crashes first.
struct Held<M> {
    release_round: u64,
    src: usize,
    src_port: usize,
    to: Link,
    class: TrafficClass,
    msg: M,
}

/// Reusable per-run buffers, hoisted onto the [`Simulator`] so repeated
/// runs (the healing protocols re-run the simulator per epoch/phase) reuse
/// allocations instead of rebuilding arenas every run.
struct Scratch<M> {
    /// This round's inbox arena (read by the stepper).
    cur: InboxArena<M>,
    /// Next round's inbox arena (grouped into at the end of the round,
    /// then swapped with `cur`).
    next: InboxArena<M>,
    /// Merge staging before grouping.
    pend: Pending<M>,
    /// Scratch for [`group_pending`] (permutation / counts / cursors; the
    /// latter two hold an all-zero invariant between rounds).
    perm: Vec<u32>,
    cnt: Vec<u32>,
    cursor: Vec<u32>,
    /// The stepper's per-round output.
    out: StepOut<M>,
    /// The single staging slab the stepper slices per node.
    staged: Vec<Option<(TrafficClass, M)>>,
    /// Delay queue of the faulty path (always empty on the clean path).
    held: Vec<Held<M>>,
    /// Scratch for the stable sweep over `held` (swapped each round).
    held_next: Vec<Held<M>>,
    /// Active-set bitmap + worklist (sparse engine only).
    active: ActiveSet,
    /// `0..n`, the full sweep's constant "active" list.
    all_nodes: Vec<u32>,
    /// Last reported `is_done` per node (plus forced done for crashed and
    /// churn-offline nodes), backing the AllDone counter.
    done: Vec<bool>,
    /// The node transitions the damage hooks report each round (cleared
    /// at the start of every round).
    moved: Transitions,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            cur: InboxArena::default(),
            next: InboxArena::default(),
            pend: Pending::default(),
            perm: Vec::new(),
            cnt: Vec::new(),
            cursor: Vec::new(),
            out: StepOut::default(),
            staged: Vec::new(),
            held: Vec::new(),
            held_next: Vec::new(),
            active: ActiveSet::default(),
            all_nodes: Vec::new(),
            done: Vec::new(),
            moved: Transitions::default(),
        }
    }
}

impl<M> Scratch<M> {
    /// Clears every buffer and (re)sizes the per-node arrays to `n`,
    /// keeping their allocations.
    fn reset(&mut self, n: usize) {
        self.cur.clear();
        self.next.clear();
        self.pend.dst.clear();
        self.pend.msg.clear();
        self.perm.clear();
        self.cnt.clear();
        self.cnt.resize(n, 0);
        self.cursor.clear();
        self.cursor.resize(n, 0);
        self.out.clear();
        self.held.clear();
        self.held_next.clear();
        self.active.reset(n);
        if self.all_nodes.len() != n {
            self.all_nodes.clear();
            self.all_nodes.extend(0..n as u32);
        }
        self.done.clear();
        self.done.resize(n, false);
    }
}

/// The sequential stepper: every node's state machine and RNG stream in
/// ascending id order, the staging slab sized to the maximum degree, and
/// what every node step of a round reads besides the node's own state.
///
/// [`Stepper::step`] executes the protocol step of one round for the
/// given active nodes: it pairs each active node with its inbox group
/// (two-pointer merge against the arena's ascending receiver list), runs
/// `init`/`round`/`on_restart`, and appends staged sends, done flags and
/// wake requests to a [`StepOut`] in ascending node order, together with
/// the span events when tracing is on. Which nodes sit a round out it reads
/// from the damage hooks' state for that round ([`skips`]). Everything else
/// about a round lives in [`round_engine`].
struct Stepper<'a, P: Protocol> {
    nodes: &'a mut [P],
    rngs: &'a mut [StdRng],
    staged: Vec<Option<(TrafficClass, P::Message)>>,
    csr: &'a Csr,
    budget_bits: usize,
    /// The round being stepped.
    round: u64,
    /// Test hook: visit nodes in descending order (the determinism
    /// contract says this must not change any observable).
    reverse: bool,
}

/// Whether `v` sits the round out: crash-stopped ([`FaultHook::is_crashed`],
/// a constant `false` on the clean path), or offline under churn (like a
/// crash, but temporary). Its inbox is discarded either way.
#[inline]
fn skips<H: FaultHook>(hook: &H, v: usize, churn: Option<&ChurnState<'_>>) -> bool {
    hook.is_crashed(v) || churn.is_some_and(|ch| ch.node_down(v))
}

impl<P: Protocol> Stepper<'_, P> {
    /// Steps node `v`: runs `init`, `on_restart` or `round` on `group`,
    /// then appends the node's staged sends, done flag and wake request to
    /// `out`. Returns the node's CONGEST violation, if any.
    ///
    /// `skippable` marks a step the active-set engine would not have taken
    /// (see [`SkipCheck`]); such a step must be a no-op, and a step that is
    /// not panics naming the node and round.
    fn step_node(
        &mut self,
        v: usize,
        group: &[(usize, P::Message)],
        out: &mut StepOut<P::Message>,
        skippable: bool,
        churn: Option<&ChurnState<'_>>,
    ) -> Option<CongestError> {
        let before = skippable.then(|| SkipCheck::of(&self.nodes[v], &self.rngs[v], out));
        let degree = self.csr.degree(v);
        let mut violation = None;
        let mut wake: Option<u64> = None;
        {
            let mut ctx = Ctx {
                node: NodeId::from(v),
                degree,
                neighbors: self.csr.neighbors(v),
                round: self.round,
                budget_bits: self.budget_bits,
                staged: &mut self.staged[..degree],
                default_class: P::TRAFFIC_CLASS,
                rng: &mut self.rngs[v],
                violation: &mut violation,
                wake: &mut wake,
                trace: out.events.as_mut(),
                churn,
            };
            let node = &mut self.nodes[v];
            if self.round == 0 {
                node.init(&mut ctx);
            } else if churn.is_some_and(|ch| ch.rejoining(v)) {
                node.on_restart(&mut ctx);
            } else {
                node.round(&mut ctx, group);
            }
        }
        // Drain the slab unconditionally so it is clean for the next node
        // even when this node tripped a violation mid-step.
        let mut len = 0u32;
        for (port, slot) in self.staged[..degree].iter_mut().enumerate() {
            if let Some((cls, msg)) = slot.take() {
                out.slab.push((port as u32, cls, msg));
                len += 1;
            }
        }
        if len > 0 {
            out.index.push((v as u32, len));
        }
        out.done.push((v as u32, self.nodes[v].is_done()));
        if let Some(r) = wake {
            out.wakes.push((v as u32, r));
        }
        out.stepped += 1;
        if let Some(before) = before {
            let after = SkipCheck::of(&self.nodes[v], &self.rngs[v], out);
            before.assert_no_op(after, v, self.round, len, wake);
        }
        violation
    }

    /// Steps round `round` for the `active` nodes (ascending; descending
    /// behind the `reverse` test hook) and returns the lowest node's
    /// CONGEST violation, if any — the run then aborts, and state after an
    /// error is unspecified.
    ///
    /// `woken`, when given, is the set the active-set engine would have
    /// stepped this round; every other stepped node is checked to be a
    /// no-op (the debug-build [`Protocol::SPARSE_AWARE`] contract check).
    /// `hook` holds the round's crash-stops and `churn` its topology
    /// ([`ChurnHook::view`]).
    #[allow(clippy::too_many_arguments)]
    fn step<H: FaultHook>(
        &mut self,
        round: u64,
        active: &[u32],
        woken: Option<&ActiveSet>,
        inbox: &InboxArena<P::Message>,
        out: &mut StepOut<P::Message>,
        hook: &H,
        churn: Option<&ChurnState<'_>>,
    ) -> Option<CongestError> {
        self.round = round;
        let skippable = |v: u32| woken.is_some_and(|w| !w.contains(v));
        if !self.reverse {
            let mut ri = 0usize;
            for &vu in active {
                let v = vu as usize;
                // Pair the node with its inbox group *before* any skip:
                // crashed and churn-offline receivers still swallow their
                // mail (it was lost on arrival, not left queued).
                let mut group: &[(usize, P::Message)] = &[];
                if ri < inbox.nodes.len() && inbox.nodes[ri] == vu {
                    group = inbox.group(ri);
                    ri += 1;
                }
                if skips(hook, v, churn) {
                    continue;
                }
                if let Some(err) = self.step_node(v, group, out, skippable(vu), churn) {
                    // The rest of the sweep is skipped.
                    return Some(err);
                }
            }
            debug_assert_eq!(
                ri,
                inbox.nodes.len(),
                "every inbox group had an active receiver"
            );
            None
        } else {
            // Descending test visit. Unlike the forward sweep this steps
            // *every* eligible node and lets descending overwrites land on
            // the lowest violating node — the forward sweep's canonical
            // error. (Which nodes violate is visit-order independent
            // because nodes cannot interact mid-round; protocol state after
            // an error is unspecified, which covers the extra stepping.)
            let mut violation = None;
            let mut ri = inbox.nodes.len();
            for &vu in active.iter().rev() {
                let v = vu as usize;
                let mut group: &[(usize, P::Message)] = &[];
                if ri > 0 && inbox.nodes[ri - 1] == vu {
                    ri -= 1;
                    group = inbox.group(ri);
                }
                if skips(hook, v, churn) {
                    continue;
                }
                if let Some(err) = self.step_node(v, group, out, skippable(vu), churn) {
                    violation = Some(err);
                }
            }
            debug_assert_eq!(ri, 0, "every inbox group had an active receiver");
            out.canonicalize_reversed();
            violation
        }
    }
}

/// What the executor can see of a node around a step the active-set
/// engine would have skipped: the debug-build check of the
/// [`Protocol::SPARSE_AWARE`] contract. The full sweep of a sparse-aware
/// protocol (under `debug_assertions`) takes one before and one after
/// every such step and asserts that the step was a no-op — nothing staged,
/// no wake requested, no span event, the RNG stream untouched, and
/// `is_done` unchanged. Protocol state itself is opaque to the executor.
struct SkipCheck {
    rng: StdRng,
    done: bool,
    events: usize,
}

impl SkipCheck {
    fn of<P: Protocol>(node: &P, rng: &StdRng, out: &StepOut<P::Message>) -> SkipCheck {
        SkipCheck {
            rng: rng.clone(),
            done: node.is_done(),
            events: out.events.as_ref().map_or(0, Vec::len),
        }
    }

    /// Panics naming `v` and `round` unless the step between `self` and
    /// `after`, which staged `staged` messages and requested `wake`, was a
    /// no-op.
    fn assert_no_op(self, after: SkipCheck, v: usize, round: u64, staged: u32, wake: Option<u64>) {
        let broke = if staged > 0 {
            format!("staged {staged} message(s)")
        } else if let Some(r) = wake {
            format!("requested a wake for round {r}")
        } else if after.events != self.events {
            "emitted a trace event".to_string()
        } else if after.rng != self.rng {
            "drew from its RNG stream".to_string()
        } else if after.done != self.done {
            format!("changed is_done to {}", after.done)
        } else {
            return;
        };
        panic!(
            "SPARSE_AWARE contract violated: node {v} {broke} in round {round}, \
             a round the active-set engine would have skipped (no mail, no due \
             wake_in timer, no rejoin)"
        );
    }
}

/// The one round-loop engine behind every execution path.
///
/// Per round: start-of-round fault effects (crashes), active-set
/// construction (sparse path) or the full node list, the protocol step
/// (via [`Stepper::step`]), the ordered `(sender, port)` merge with per-message
/// fault sampling (via `hook`), the stable release sweep over the delay
/// queue, delivery accounting, observation (via `rec`), inbox grouping
/// ([`group_pending`]), and the stop check. The clean path instantiates
/// this with [`NoFaults`] — every hook call inlines away — and is the
/// exact pristine executor; the faulty path instantiates it with
/// [`FaultState`].
///
/// On the sparse path a round's cost is O(active nodes + traffic), not
/// O(n): the active set is mail receivers (this round's arena groups), due
/// [`Ctx::wake_in`] timers, and churn rejoins; round 0 steps everyone.
///
/// The damage hooks move their state to each round once, at its start,
/// and report its node transitions ([`Transitions`]): nodes that crash-stop
/// or go offline count as done for the AllDone counter on both engines,
/// and rejoining nodes are woken on the sparse path (the full sweep steps
/// them anyway, and its debug-build contract check counts them as woken).
/// The stepper, [`Ctx::link_up`] and the merge read the same state.
/// With [`Observe::phases`] on, the recorder times the round's phases
/// (`topology`, `activate`, `step`, `merge`, `group`).
///
/// `messages`/`bits` count *deliveries*, so dropped/lost traffic never
/// inflates the totals (documented on [`Metrics`]).
#[allow(clippy::too_many_arguments)]
fn round_engine<P, H, C>(
    cfg: &RunConfig,
    edge_load: &mut [u64],
    scratch: &mut Scratch<P::Message>,
    stepper: &mut Stepper<'_, P>,
    hook: &mut H,
    churn: &mut C,
    rec: &mut Recorder,
) -> Result<Metrics>
where
    P: Protocol,
    H: FaultHook,
    C: ChurnHook,
{
    let csr = stepper.csr;
    let n = csr.n();
    scratch.reset(n);
    let Scratch {
        cur,
        next,
        pend,
        perm,
        cnt,
        cursor,
        out,
        held,
        held_next,
        active,
        all_nodes,
        done,
        moved,
        ..
    } = scratch;
    // Whether the active-set engine is in effect.
    let sparse = P::SPARSE_AWARE && !cfg.full_sweep;
    // Debug builds check the SPARSE_AWARE contract on the full sweep: the
    // engine keeps the timers and wake set the active-set engine would, and
    // every node stepped outside that set must be a no-op (see
    // [`SkipCheck`]).
    let check = cfg!(debug_assertions) && P::SPARSE_AWARE && !sparse;
    // The stepper records exactly the observations the recorder wants (and
    // the span events the contract check must see).
    out.events = (rec.traces() || check).then(Vec::new);
    let mut metrics = Metrics::default();
    let mut result: Result<Metrics> = Err(CongestError::RoundLimitExceeded {
        max_rounds: cfg.max_rounds,
    });
    // AllDone bookkeeping as an incremental counter: `done` holds each
    // node's last reported `is_done` (valid because `is_done` is a pure
    // read of state that only changes when the node steps), with crashed
    // and churn-offline nodes forced done while down.
    let mut live_not_done = n;
    // Sparse wake timers: absolute round -> nodes that asked to step then.
    let mut timers: BTreeMap<u64, Vec<u32>> = BTreeMap::new();

    'rounds: for round in 0..=cfg.max_rounds {
        // Open the round before its crashes are applied, so its sample
        // records them.
        rec.begin_round(round, metrics);
        moved.clear();
        hook.begin_round(round, &mut metrics, moved);
        churn.begin_round(round, &mut metrics, moved);
        rec.lap(Phase::Topology);
        // Nodes leaving the computation this round count as done: fault
        // crash-stops permanently, churn outages until the rejoin step
        // re-reports the node's own `is_done`.
        for &v in &moved.left {
            let v = v as usize;
            if !done[v] {
                done[v] = true;
                live_not_done -= 1;
            }
        }
        if sparse || check {
            active.begin();
            if round == 0 {
                // Everyone inits.
                for v in 0..n as u32 {
                    active.insert(v);
                }
            } else {
                // Mail receivers...
                for &v in &cur.nodes {
                    active.insert(v);
                }
                // ...due wake timers...
                while let Some(entry) = timers.first_entry() {
                    if *entry.key() > round {
                        break;
                    }
                    for v in entry.remove() {
                        active.insert(v);
                    }
                }
                // ...and churn rejoins (their `on_restart` must run even
                // with an empty inbox).
                for &v in &moved.rejoined {
                    active.insert(v);
                }
            }
            active.finish();
        }
        rec.lap(Phase::Activate);
        let active_list: &[u32] = if sparse { &active.list } else { all_nodes };
        out.clear();
        let woken = check.then_some(&*active);
        if let Some(err) = stepper.step(round, active_list, woken, cur, out, hook, churn.view()) {
            result = Err(err);
            break 'rounds;
        }
        for &(vu, d) in out.done.iter() {
            let v = vu as usize;
            if d != done[v] {
                done[v] = d;
                if d {
                    live_not_done -= 1;
                } else {
                    live_not_done += 1;
                }
            }
        }
        if sparse || check {
            for &(v, r) in out.wakes.iter() {
                timers.entry(r).or_default().push(v);
            }
        }
        if let Some(events) = out.events.as_mut() {
            rec.events(events);
        }
        // Gauge sampling point: the inbox arena still holds this round's
        // mail and the staged sends have not been drained by the merge yet,
        // so every depth below is the round's true occupancy. All logical
        // (element counts, not allocator capacities) — identical across
        // visit orders, and across engines except `wake_queue`.
        if rec.traces() {
            let g = rec.gauges();
            g.inbox_queued = cur.slab.len() as u64;
            g.staged_sends = out.slab.len() as u64;
            // The checked full sweep's timers are not a queue it serves.
            g.wake_queue = if sparse {
                timers.values().map(|v| v.len() as u64).sum()
            } else {
                0
            };
            g.arena_bytes = (cur.slab.len() * std::mem::size_of::<(usize, P::Message)>()
                + out.slab.len() * std::mem::size_of::<(u32, TrafficClass, P::Message)>()
                + held.len() * std::mem::size_of::<Held<P::Message>>())
                as u64;
        }
        rec.lap(Phase::Step);
        // Ordered merge with per-message fault sampling: ascending
        // (sender, port), whatever order staged the sends.
        let mut slab = std::mem::take(&mut out.slab);
        {
            let mut sends = slab.drain(..);
            for &(vu, len) in out.index.iter() {
                let v = vu as usize;
                let neighbors = csr.neighbors(v);
                for _ in 0..len {
                    let (port, cls, msg) = sends.next().expect("slab and index agree");
                    let port = port as usize;
                    let (dst, edge) = neighbors[port];
                    let to = Link {
                        dst: dst as usize,
                        dst_port: csr.peer_port(v, port) as usize,
                        edge: edge as usize,
                    };
                    if hook.is_crashed(to.dst) {
                        // Lost to the crash; the Crashed event already
                        // records the cause, so this is not a drop fault.
                        continue;
                    }
                    if churn.link_down(to.edge, to.dst) {
                        // The link was down (or the destination offline) in
                        // the round the message was staged: lost to churn.
                        // Verdicts use the staging round, matching what the
                        // sender's `Ctx::link_up` reported when it chose to
                        // send.
                        churn.record_loss(round, v, port, &mut metrics);
                        continue;
                    }
                    match hook.fate(round, v, port) {
                        Fate::Deliver => pend.deliver(to, cls, msg, &mut metrics, edge_load, rec),
                        Fate::Drop => {
                            metrics.dropped += 1;
                            hook.record(round, v, port, FaultKind::Dropped);
                        }
                        Fate::Corrupt => {
                            metrics.corrupted += 1;
                            let mask = hook.flip_mask(round, v, port, msg.bit_width());
                            let garbled = msg.corrupted(mask);
                            // `None`: no canonical encoding, or the flipped
                            // frame no longer parses — the receiver sees
                            // nothing.
                            let delivered = garbled.is_some();
                            hook.record(round, v, port, FaultKind::Corrupted { delivered });
                            if let Some(garbled) = garbled {
                                pend.deliver(to, cls, garbled, &mut metrics, edge_load, rec);
                            }
                        }
                        Fate::Delay(by) => {
                            metrics.delayed += 1;
                            hook.record(round, v, port, FaultKind::Delayed { by });
                            held.push(Held {
                                release_round: round + by,
                                src: v,
                                src_port: port,
                                to,
                                class: cls,
                                msg,
                            });
                        }
                    }
                }
            }
            debug_assert!(sends.next().is_none(), "slab and index agree");
        }
        out.slab = slab;
        // Release held messages whose extra wait has elapsed — a stable
        // sweep, so release order is a function of (staging round, sender,
        // port) only. A message whose destination crashed in the meantime
        // is lost, and the loss is recorded (it was already counted as
        // delayed, so without the event it would silently vanish).
        for h in held.drain(..) {
            if h.release_round > round {
                held_next.push(h);
            } else if hook.is_crashed(h.to.dst) {
                metrics.lost_to_crash += 1;
                hook.record(round, h.src, h.src_port, FaultKind::LostToCrash);
            } else if churn.link_down(h.to.edge, h.to.dst) {
                // The delay outlived the link (or the destination's
                // uptime): the release round's topology decides.
                churn.record_loss(round, h.src, h.src_port, &mut metrics);
            } else {
                pend.deliver(h.to, h.class, h.msg, &mut metrics, edge_load, rec);
            }
        }
        std::mem::swap(held, held_next);
        let delivered = pend.dst.len() as u64;
        metrics.messages += delivered;
        metrics.peak_messages_per_round = metrics.peak_messages_per_round.max(delivered);
        // Availability gauge: fault crash-stops are permanent, so the
        // cumulative count is exactly "down now"; churn outages are the
        // churn hook's view of this round.
        let nodes_down = |m: &Metrics| m.crashed + churn.down_count();
        rec.end_round(metrics, nodes_down, out.stepped, edge_load);
        rec.lap(Phase::Merge);
        // Group this round's deliveries into next round's inbox arena and
        // swap it in (the consumed arena becomes the next grouping target).
        group_pending(pend, cnt, cursor, perm, next);
        std::mem::swap(cur, next);
        rec.lap(Phase::Group);
        metrics.rounds = round;
        let in_flight = delivered > 0 || !held.is_empty();
        let stop = match cfg.stop {
            StopCondition::AllDone => !in_flight && live_not_done == 0,
            StopCondition::Quiescence => !in_flight && round > 0,
        };
        if stop {
            metrics.max_edge_congestion = edge_load.iter().copied().max().unwrap_or(0);
            rec.stopped(edge_load);
            result = Ok(metrics);
            break 'rounds;
        }
    }
    result
}

/// Executes one [`Protocol`] instance per node of a [`Graph`], enforcing the
/// CONGEST constraints, until the configured [`StopCondition`].
///
/// # Examples
///
/// ```
/// use amt_congest::{Ctx, Protocol, RunConfig, Simulator};
/// use amt_graphs::Graph;
///
/// /// Every node learns the maximum id (flooding).
/// struct MaxId { best: u32, dirty: bool }
/// impl Protocol for MaxId {
///     type Message = u32;
///     fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
///         ctx.send_all(self.best);
///     }
///     fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
///         for &(_, v) in inbox {
///             if v > self.best { self.best = v; self.dirty = true; }
///         }
///         if self.dirty { ctx.send_all(self.best); self.dirty = false; }
///     }
/// }
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let nodes = (0..3).map(|i| MaxId { best: i as u32, dirty: false }).collect();
/// let mut sim = Simulator::new(&g, nodes, 1).unwrap();
/// let metrics = sim.run(&RunConfig::default()).unwrap();
/// assert!(sim.nodes().iter().all(|n| n.best == 2));
/// assert!(metrics.rounds >= 2);
/// ```
pub struct Simulator<'g, P: Protocol> {
    graph: &'g Graph,
    nodes: Vec<P>,
    /// The graph in CSR form plus the peer-port table — the executor's
    /// entire static view.
    csr: Csr,
    /// One private RNG per node; see the module determinism contract.
    rngs: Vec<StdRng>,
    /// Messages delivered per (undirected) edge during the most recent run.
    edge_load: Vec<u64>,
    /// Reusable round buffers, kept across runs.
    scratch: Scratch<P::Message>,
    /// Optional fault injection; `None` (or a trivial plan) takes the exact
    /// fault-free execution path.
    fault_plan: Option<FaultPlan>,
    fault_events: Vec<FaultEvent>,
    crashed: Vec<bool>,
    /// Optional topology churn; `None` (or a trivial plan) takes the exact
    /// static-topology execution path.
    churn_plan: Option<ChurnPlan>,
    churn_events: Vec<ChurnEvent>,
    /// Which observation layers record each run (all off by default).
    observe: Observe,
    /// What they recorded in the most recent [`Self::run`].
    observed: Observed,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Creates a simulator over `graph` with one protocol instance per node.
    ///
    /// # Errors
    ///
    /// [`CongestError::NodeCountMismatch`] if `nodes.len() != graph.len()`.
    pub fn new(graph: &'g Graph, nodes: Vec<P>, seed: u64) -> Result<Self> {
        if nodes.len() != graph.len() {
            return Err(CongestError::NodeCountMismatch {
                graph: graph.len(),
                protocols: nodes.len(),
            });
        }
        let n = nodes.len();
        Ok(Simulator {
            graph,
            nodes,
            csr: Csr::build(graph),
            // Protocol randomness is a function of `(seed, node)` only.
            rngs: (0..n)
                .map(|v| StdRng::seed_from_u64(keyed_splitmix(seed, v as u64)))
                .collect(),
            edge_load: vec![0; graph.edge_count()],
            scratch: Scratch::default(),
            fault_plan: None,
            fault_events: Vec::new(),
            crashed: vec![false; n],
            churn_plan: None,
            churn_events: Vec::new(),
            observe: Observe::default(),
            observed: Observed::default(),
        })
    }

    /// Sets which observation layers — trace, profile — record every
    /// subsequent [`Self::run`] (see [`crate::observe`]).
    ///
    /// Recording never changes observable behavior: `Metrics`, protocol
    /// state, RNG streams, and the fault and churn logs are byte-identical
    /// with any subset of the layers on, and each layer's record is the
    /// same whichever others are on, on every execution path.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Takes what the observation layers recorded in the most recent
    /// [`Self::run`]. A run aborted by an error keeps what was recorded up
    /// to the abort: its trace's tail is the post-mortem.
    pub fn take_observed(&mut self) -> Observed {
        std::mem::take(&mut self.observed)
    }

    /// Attaches a [`FaultPlan`] to apply on every subsequent [`Self::run`].
    ///
    /// A trivial plan (see [`FaultPlan::is_trivial`]) is equivalent to no
    /// plan at all: the run is bit-for-bit identical to the fault-free path.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The faults injected by the most recent [`Self::run`], in order.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.fault_events
    }

    /// Attaches a [`ChurnPlan`] to apply on every subsequent [`Self::run`].
    ///
    /// A trivial plan (see [`ChurnPlan::is_trivial`]) is equivalent to no
    /// plan at all: the run is bit-for-bit identical to the static-topology
    /// path. Composes with [`Self::with_fault_plan`]: fault verdicts apply
    /// to messages that survive churn.
    pub fn with_churn_plan(mut self, plan: ChurnPlan) -> Self {
        self.churn_plan = Some(plan);
        self
    }

    /// Topology transitions and churn losses of the most recent
    /// [`Self::run`], in `(round, edges-before-nodes, id)` order for
    /// transitions, interleaved with losses in delivery order — fully
    /// deterministic (empty without a non-trivial [`ChurnPlan`]).
    pub fn churn_events(&self) -> &[ChurnEvent] {
        &self.churn_events
    }

    /// Nodes crash-stopped during the most recent [`Self::run`].
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.crashed
            .iter()
            .enumerate()
            .filter(|&(_v, &c)| c)
            .map(|(v, &_c)| NodeId::from(v))
            .collect()
    }

    /// The protocol instances (for extracting results after a run).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to the protocol instances.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// Messages delivered per (undirected) edge, indexed by edge id, during
    /// the most recent [`Self::run`]; the maximum entry is reported as
    /// [`Metrics::max_edge_congestion`].
    pub fn edge_load(&self) -> &[u64] {
        &self.edge_load
    }

    /// Runs until the stop condition, returning measured [`Metrics`].
    ///
    /// With a non-trivial [`FaultPlan`] attached, each staged message's
    /// fate is sampled from the plan's message-identity PRF between staging
    /// and delivery; without one the execution is exactly the fault-free
    /// simulator.
    ///
    /// After a returned error the protocol and RNG states are unspecified
    /// (the run is aborted mid-round); the error value itself is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Any CONGEST violation recorded during execution,
    /// [`CongestError::RoundLimitExceeded`], or
    /// [`CongestError::FaultPlanInvalid`].
    pub fn run(&mut self, cfg: &RunConfig) -> Result<Metrics> {
        self.run_inner(cfg, false)
    }

    /// Runs with the per-round node visit order reversed — a test hook for
    /// the determinism contract: by the contract the result is
    /// byte-identical to [`Self::run`].
    #[doc(hidden)]
    pub fn run_reverse_visit(&mut self, cfg: &RunConfig) -> Result<Metrics> {
        self.run_inner(cfg, true)
    }

    fn run_inner(&mut self, cfg: &RunConfig, reverse_visit: bool) -> Result<Metrics> {
        self.observed = Observed::default();
        self.churn_events.clear();
        // Take both plans for the duration of the run instead of cloning
        // them (schedules can be long-lived and big); they are restored
        // before returning.
        let fault_plan = self.fault_plan.take();
        let churn_plan = self.churn_plan.take();
        let result = self.run_planned(cfg, fault_plan.as_ref(), churn_plan.as_ref(), reverse_visit);
        self.fault_plan = fault_plan;
        self.churn_plan = churn_plan;
        result
    }

    /// Resolves the 2×2 (faulty?, churned?) split into engine
    /// instantiations. Trivial plans take the exact clean hooks, so
    /// attaching them is observably free; each non-trivial axis swaps in
    /// its stateful hook ([`FaultState`] / [`ChurnState`]) independently.
    fn run_planned(
        &mut self,
        cfg: &RunConfig,
        fault_plan: Option<&FaultPlan>,
        churn_plan: Option<&ChurnPlan>,
        reverse_visit: bool,
    ) -> Result<Metrics> {
        let n = self.graph.len();
        let faulty = fault_plan.filter(|p| !p.is_trivial());
        let churned = churn_plan.filter(|p| !p.is_trivial());
        let sched = match churned {
            Some(plan) => {
                plan.validate(n, self.graph.edge_count())?;
                Some(plan.normalize(n, self.graph.edge_count()))
            }
            None => None,
        };
        match (faulty, &sched) {
            (None, None) => self.dispatch(cfg, &mut NoFaults, &mut NoChurn, reverse_visit),
            (Some(plan), None) => {
                let mut fs = FaultState::new(plan, n)?;
                let result = self.dispatch(cfg, &mut fs, &mut NoChurn, reverse_visit);
                self.fault_events = std::mem::take(&mut fs.events);
                self.crashed = std::mem::take(&mut fs.crashed);
                result
            }
            (None, Some(sched)) => {
                let mut cs = ChurnState::new(sched);
                let result = self.dispatch(cfg, &mut NoFaults, &mut cs, reverse_visit);
                self.churn_events = std::mem::take(&mut cs.events);
                result
            }
            (Some(plan), Some(sched)) => {
                let mut fs = FaultState::new(plan, n)?;
                let mut cs = ChurnState::new(sched);
                let result = self.dispatch(cfg, &mut fs, &mut cs, reverse_visit);
                self.fault_events = std::mem::take(&mut fs.events);
                self.crashed = std::mem::take(&mut fs.crashed);
                self.churn_events = std::mem::take(&mut cs.events);
                result
            }
        }
    }

    /// Runs the engine with the given damage hooks over a [`Stepper`]
    /// borrowing this simulator's nodes and RNG streams.
    fn dispatch<H: FaultHook, C: ChurnHook>(
        &mut self,
        cfg: &RunConfig,
        hook: &mut H,
        churn: &mut C,
        reverse_visit: bool,
    ) -> Result<Metrics> {
        let budget_bits = cfg.budget_factor * bits_for_count(self.graph.len().max(2));
        self.edge_load.clear();
        self.edge_load.resize(self.graph.edge_count(), 0);
        let Simulator {
            nodes,
            rngs,
            csr,
            edge_load,
            scratch,
            observe,
            observed,
            ..
        } = self;
        let mut staged = std::mem::take(&mut scratch.staged);
        staged.clear();
        staged.resize_with(csr.max_degree(), || None);
        let mut stepper = Stepper::<P> {
            nodes,
            rngs,
            staged,
            csr,
            budget_bits,
            round: 0,
            reverse: reverse_visit,
        };
        let mut rec = Recorder::new(observe, edge_load.len());
        let result = round_engine(cfg, edge_load, scratch, &mut stepper, hook, churn, &mut rec);
        *observed = rec.finish();
        scratch.staged = stepper.staged;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProfileConfig, RunTrace, TraceConfig};
    use amt_graphs::EdgeId;
    use rand::RngExt;

    /// Protocol that floods the max of initial values. Skip-safe: an empty
    /// inbox round changes nothing and sends nothing, so it opts into the
    /// active-set engine.
    struct MaxFlood {
        best: u64,
        dirty: bool,
    }

    impl Protocol for MaxFlood {
        type Message = u64;
        const SPARSE_AWARE: bool = true;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send_all(self.best);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
            for &(_, v) in inbox {
                if v > self.best {
                    self.best = v;
                    self.dirty = true;
                }
            }
            if self.dirty {
                ctx.send_all(self.best);
                self.dirty = false;
            }
        }
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn flooding_takes_eccentricity_rounds() {
        let n = 10;
        let g = path(n);
        let nodes = (0..n)
            .map(|i| MaxFlood {
                best: i as u64,
                dirty: false,
            })
            .collect();
        let mut sim = Simulator::new(&g, nodes, 0).unwrap();
        let m = sim.run(&RunConfig::default()).unwrap();
        assert!(sim.nodes().iter().all(|p| p.best == (n - 1) as u64));
        // Value at node n-1 must travel n-1 hops; +1 quiescent round.
        assert_eq!(m.rounds, n as u64);
        assert!(m.messages > 0);
        assert!(m.bits >= m.messages);
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let g = path(3);
        let err = Simulator::new(
            &g,
            vec![MaxFlood {
                best: 0,
                dirty: false,
            }],
            0,
        )
        .err()
        .unwrap();
        assert_eq!(
            err,
            CongestError::NodeCountMismatch {
                graph: 3,
                protocols: 1
            }
        );
    }

    struct DoubleSender;
    impl Protocol for DoubleSender {
        type Message = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(0, 1);
            ctx.send(0, 2);
        }
        fn round(&mut self, _: &mut Ctx<'_, u32>, _: &[(usize, u32)]) {}
    }

    #[test]
    fn duplicate_send_detected() {
        let g = path(2);
        let mut sim = Simulator::new(&g, vec![DoubleSender, DoubleSender], 0).unwrap();
        let err = sim.run(&RunConfig::default()).unwrap_err();
        assert!(matches!(err, CongestError::DuplicateSend { port: 0, .. }));
    }

    struct WideSender;
    impl Protocol for WideSender {
        type Message = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(0, u64::MAX);
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(usize, u64)]) {}
    }

    #[test]
    fn over_budget_message_detected() {
        let g = path(2);
        let mut sim = Simulator::new(&g, vec![WideSender, WideSender], 0).unwrap();
        // n = 2 → ⌈log₂ 2⌉ = 1 bit, factor 8 → budget 8 bits; u64::MAX is 64.
        let err = sim.run(&RunConfig::default()).unwrap_err();
        assert_eq!(
            err,
            CongestError::MessageTooWide {
                bits: 64,
                budget: 8
            }
        );
    }

    struct PortAbuser;
    impl Protocol for PortAbuser {
        type Message = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            let d = ctx.degree();
            ctx.send(d, 0);
        }
        fn round(&mut self, _: &mut Ctx<'_, u32>, _: &[(usize, u32)]) {}
    }

    #[test]
    fn port_out_of_range_detected() {
        let g = path(2);
        let mut sim = Simulator::new(&g, vec![PortAbuser, PortAbuser], 0).unwrap();
        let err = sim.run(&RunConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CongestError::PortOutOfRange {
                port: 1,
                degree: 1,
                ..
            }
        ));
    }

    /// Satellite regression: a node tripping two model violations in one
    /// step must report the *first* one, in either visit order, and across
    /// nodes the lowest node's error is canonical.
    struct MixedViolator {
        wide_first: bool,
    }
    impl Protocol for MixedViolator {
        type Message = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.wide_first {
                ctx.send(0, u64::MAX); // MessageTooWide (64 > 16 bits)...
                ctx.send(0, 1); // ...then what would be a DuplicateSend
                ctx.send(0, 1);
            } else {
                ctx.send(0, 1);
                ctx.send(0, 2); // DuplicateSend first...
                ctx.send(0, u64::MAX); // ...then what would be MessageTooWide
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(usize, u64)]) {}
    }

    #[test]
    fn first_violation_wins_within_a_round() {
        let g = path(4); // n = 4 → ⌈log₂ 4⌉ = 2 bits, factor 8 → budget 16.
        let mk = |node0_wide_first: bool| -> Vec<MixedViolator> {
            (0..4)
                .map(|v| MixedViolator {
                    wide_first: if v == 0 {
                        node0_wide_first
                    } else {
                        !node0_wide_first
                    },
                })
                .collect()
        };
        let cfg = RunConfig::default();
        let err = Simulator::new(&g, mk(true), 0)
            .unwrap()
            .run(&cfg)
            .unwrap_err();
        assert_eq!(
            err,
            CongestError::MessageTooWide {
                bits: 64,
                budget: 16
            },
            "node 0's first violation must win"
        );
        let err = Simulator::new(&g, mk(false), 0)
            .unwrap()
            .run(&cfg)
            .unwrap_err();
        assert_eq!(
            err,
            CongestError::DuplicateSend {
                node: NodeId(0),
                port: 0
            },
            "node 0's first violation must win"
        );
        // The reverse test visit reports the same canonical error.
        let err = Simulator::new(&g, mk(true), 0)
            .unwrap()
            .run_reverse_visit(&cfg)
            .unwrap_err();
        assert_eq!(
            err,
            CongestError::MessageTooWide {
                bits: 64,
                budget: 16
            }
        );
        let err = Simulator::new(&g, mk(false), 0)
            .unwrap()
            .run_reverse_visit(&cfg)
            .unwrap_err();
        assert_eq!(
            err,
            CongestError::DuplicateSend {
                node: NodeId(0),
                port: 0
            }
        );
    }

    /// The arena grouping pass must be a *stable* counting sort (per-node
    /// delivery order = staging order), leave its length-n scratch arrays
    /// all-zero, and be reusable without residue.
    #[test]
    fn group_pending_is_a_stable_counting_sort() {
        let mut pend = Pending::<u64> {
            dst: vec![3, 1, 3, 0, 1, 3],
            msg: vec![(0, 30), (0, 10), (1, 31), (0, 0), (1, 11), (2, 32)],
        };
        let mut cnt = vec![0u32; 4];
        let mut cursor = vec![0u32; 4];
        let mut perm = Vec::new();
        let mut arena = InboxArena::<u64>::default();
        group_pending(&mut pend, &mut cnt, &mut cursor, &mut perm, &mut arena);
        assert_eq!(arena.nodes, vec![0, 1, 3]);
        assert_eq!(arena.offsets, vec![0, 1, 3, 6]);
        assert_eq!(arena.group(0).to_vec(), vec![(0usize, 0u64)]);
        assert_eq!(arena.group(1).to_vec(), vec![(0usize, 10u64), (1, 11)]);
        assert_eq!(
            arena.group(2).to_vec(),
            vec![(0usize, 30u64), (1, 31), (2, 32)]
        );
        assert!(cnt.iter().all(|&c| c == 0), "cnt must be returned all-zero");
        assert!(
            cursor.iter().all(|&c| c == 0),
            "cursor must be returned all-zero"
        );
        assert!(pend.dst.is_empty() && pend.msg.is_empty());
        // Reuse with fresh content: no residue from the first grouping.
        pend.dst = vec![2];
        pend.msg = vec![(5, 99)];
        group_pending(&mut pend, &mut cnt, &mut cursor, &mut perm, &mut arena);
        assert_eq!(arena.nodes, vec![2]);
        assert_eq!(arena.group(0).to_vec(), vec![(5usize, 99u64)]);
    }

    /// The active set dedups within an epoch and canonicalizes to ascending
    /// id order, and a new epoch forgets the previous membership without
    /// clearing the stamp array.
    #[test]
    fn active_set_dedups_and_sorts_per_epoch() {
        let mut set = ActiveSet::default();
        set.reset(8);
        set.begin();
        for v in [5u32, 2, 5, 7, 2, 0] {
            set.insert(v);
        }
        set.finish();
        assert_eq!(set.list, [0, 2, 5, 7]);
        assert!(set.contains(7) && !set.contains(3));
        set.begin();
        set.insert(3);
        set.insert(3);
        set.finish();
        assert_eq!(set.list, [3]);
        assert!(set.contains(3) && !set.contains(7));
    }

    /// Echoes forever — must trip the round cap.
    struct Chatter;
    impl Protocol for Chatter {
        type Message = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send_all(0);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, _: &[(usize, u32)]) {
            ctx.send_all(0);
        }
    }

    #[test]
    fn round_cap_enforced() {
        let g = path(2);
        let mut sim = Simulator::new(&g, vec![Chatter, Chatter], 0).unwrap();
        let cfg = RunConfig {
            max_rounds: 50,
            ..Default::default()
        };
        let err = sim.run(&cfg).unwrap_err();
        assert_eq!(err, CongestError::RoundLimitExceeded { max_rounds: 50 });
    }

    /// Ping-pong over a self-loop: port pairing must route a self-loop send
    /// to the *other* occurrence of the loop at the same node.
    struct LoopPing {
        got: Vec<usize>,
    }
    impl Protocol for LoopPing {
        type Message = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.degree() >= 2 {
                ctx.send(0, 7);
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
            for &(p, _) in inbox {
                self.got.push(p);
            }
        }
    }

    #[test]
    fn self_loop_delivery_crosses_ports() {
        let g = Graph::from_edges(1, &[(0, 0)]).unwrap();
        let mut sim = Simulator::new(&g, vec![LoopPing { got: vec![] }], 0).unwrap();
        sim.run(&RunConfig::default()).unwrap();
        assert_eq!(sim.nodes()[0].got, vec![1]);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let g = amt_graphs::generators::hypercube(4);
        let mk = || {
            (0..16)
                .map(|i| MaxFlood {
                    best: i as u64,
                    dirty: false,
                })
                .collect()
        };
        let m1 = Simulator::new(&g, mk(), 42)
            .unwrap()
            .run(&RunConfig::default())
            .unwrap();
        let m2 = Simulator::new(&g, mk(), 42)
            .unwrap()
            .run(&RunConfig::default())
            .unwrap();
        assert_eq!(m1, m2);
    }

    /// A randomized protocol: every node performs a lazy random walk of its
    /// token, the workload of the paper's constructions. Sensitive to every
    /// bit of the RNG stream, so it detects any order dependence. RNG draws
    /// happen only per inbox message, so it is skip-safe and opts into the
    /// active-set engine.
    struct TokenWalker {
        tokens: u32,
        hops_left: u32,
        trace: u64,
    }

    impl Protocol for TokenWalker {
        type Message = u32;
        const SPARSE_AWARE: bool = true;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            let degree = ctx.degree();
            let mut staged: Vec<(usize, u32)> = (0..self.tokens)
                .map(|_| (ctx.rng().random_range(0..degree), self.hops_left))
                .collect();
            staged.sort_by_key(|&(p, _)| p);
            staged.dedup_by_key(|&mut (p, _)| p);
            for (port, hops) in staged {
                ctx.send(port, hops);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
            let degree = ctx.degree();
            let mut staged: Vec<(usize, u32)> = Vec::new();
            for &(_, hops) in inbox {
                self.trace = self
                    .trace
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(hops) + 1);
                ctx.trace_event("token_seen", u64::from(hops));
                if hops > 0 && ctx.rng().random_bool(0.75) {
                    let port = ctx.rng().random_range(0..degree);
                    staged.push((port, hops - 1));
                }
            }
            // Collapse duplicate ports (CONGEST allows one message/port).
            staged.sort_by_key(|&(p, _)| p);
            staged.dedup_by_key(|&mut (p, _)| p);
            for (port, hops) in staged {
                ctx.send(port, hops);
            }
        }
    }

    fn walker_fleet(n: usize) -> Vec<TokenWalker> {
        (0..n)
            .map(|v| TokenWalker {
                tokens: 1 + (v as u32 % 2),
                hops_left: 12,
                trace: 0,
            })
            .collect()
    }

    /// The regression test for the order-dependence bug: with the shared
    /// RNG, reversing the visit order changed every stream; with per-node
    /// streams and ordered merge it cannot change a single bit.
    #[test]
    fn visit_order_cannot_change_outcomes() {
        let g = amt_graphs::generators::hypercube(5);
        let cfg = RunConfig::default();
        let mut fwd = Simulator::new(&g, walker_fleet(32), 9).unwrap();
        let m_fwd = fwd.run(&cfg).unwrap();
        let mut rev = Simulator::new(&g, walker_fleet(32), 9).unwrap();
        let m_rev = rev.run_reverse_visit(&cfg).unwrap();
        assert_eq!(m_fwd, m_rev, "metrics must not depend on visit order");
        let t_fwd: Vec<u64> = fwd.nodes().iter().map(|p| p.trace).collect();
        let t_rev: Vec<u64> = rev.nodes().iter().map(|p| p.trace).collect();
        assert_eq!(
            t_fwd, t_rev,
            "protocol state must not depend on visit order"
        );
        assert_eq!(fwd.edge_load(), rev.edge_load());
        assert!(
            m_fwd.messages > 0,
            "the workload must actually send traffic"
        );
    }

    /// The determinism contract across engine strategies: the active-set
    /// engine must be byte-identical to the retained full-sweep reference
    /// (metrics, protocol state, edge loads), in either visit order.
    #[test]
    fn sparse_engine_matches_full_sweep_reference() {
        let g = amt_graphs::generators::hypercube(5);
        let run = |reverse: bool, full_sweep: bool| {
            let mut sim = Simulator::new(&g, walker_fleet(32), 9).unwrap();
            let cfg = RunConfig::default().with_full_sweep(full_sweep);
            let m = if reverse {
                sim.run_reverse_visit(&cfg).unwrap()
            } else {
                sim.run(&cfg).unwrap()
            };
            let traces: Vec<u64> = sim.nodes().iter().map(|p| p.trace).collect();
            (m, traces, sim.edge_load().to_vec())
        };
        let reference = run(false, true);
        assert!(reference.0.messages > 0);
        assert_eq!(run(true, true), reference, "reversed full sweep diverged");
        for reverse in [false, true] {
            assert_eq!(
                run(reverse, false),
                reference,
                "sparse engine diverged at reverse = {reverse}"
            );
        }
    }

    /// A sparse protocol that acts purely on `wake_in` timers: node 0
    /// beacons every 3 rounds, 4 times. The active-set engine must step it
    /// at exactly the announced rounds (and its listeners on mail), match
    /// the full sweep bit for bit, and demonstrably step far fewer nodes.
    struct Ticker {
        fires_left: u32,
        next_fire: u64,
        got: Vec<u64>,
    }

    impl Protocol for Ticker {
        type Message = u64;
        const SPARSE_AWARE: bool = true;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.fires_left > 0 {
                self.next_fire = ctx.round() + 3;
                ctx.wake_in(3);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
            for &(_, v) in inbox {
                self.got.push(v);
            }
            // Gate on the announced round, not on being stepped: the full
            // sweep steps every round and must behave identically.
            if self.fires_left > 0 && ctx.round() == self.next_fire {
                self.fires_left -= 1;
                let r = ctx.round();
                ctx.send_all(r);
                if self.fires_left > 0 {
                    self.next_fire = r + 3;
                    ctx.wake_in(3);
                }
            }
        }
        fn is_done(&self) -> bool {
            self.fires_left == 0
        }
    }

    fn ticker_fleet(n: usize) -> Vec<Ticker> {
        (0..n)
            .map(|v| Ticker {
                fires_left: if v == 0 { 4 } else { 0 },
                next_fire: 0,
                got: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn wake_timers_drive_sparse_stepping() {
        let g = path(6);
        // Quiescence would stop at round 1 (nothing in flight until the
        // first fire); AllDone keeps both engines going until the beacons
        // are spent, timers included.
        let run = |full_sweep: bool| {
            let mut sim = Simulator::new(&g, ticker_fleet(6), 3)
                .unwrap()
                .with_observe(Observe {
                    trace: Some(TraceConfig::default()),
                    ..Observe::default()
                });
            let cfg = RunConfig::all_done().with_full_sweep(full_sweep);
            let m = sim.run(&cfg).unwrap();
            let got: Vec<Vec<u64>> = sim.nodes().iter().map(|p| p.got.clone()).collect();
            let trace = sim.take_observed().trace.unwrap();
            (m, got, trace)
        };
        let sparse = run(false);
        let full = run(true);
        // Node 1 heard every beacon: rounds 3, 6, 9, 12.
        assert_eq!(sparse.1[1], vec![3, 6, 9, 12]);
        assert_eq!(sparse.0, full.0, "metrics diverged across strategies");
        assert_eq!(sparse.1, full.1, "inboxes diverged across strategies");
        assert_eq!(
            sparse.2.clone().without_executor_gauges(),
            full.2.clone().without_executor_gauges(),
            "traces diverged beyond the executor gauges"
        );
        let stepped = |t: &RunTrace| t.samples.iter().map(|s| s.active_nodes).sum::<u64>();
        assert!(
            stepped(&sparse.2) < stepped(&full.2),
            "the active-set engine must step fewer nodes ({} vs {})",
            stepped(&sparse.2),
            stepped(&full.2)
        );
    }

    /// The tentpole property end to end: with message-identity fault
    /// keying, the faulty path is byte-identical — `Metrics`, the
    /// fault-event log, crashed sets, protocol state, and edge loads —
    /// across visit-order reversal.
    #[test]
    fn fault_stream_is_independent_of_visit_order() {
        let g = amt_graphs::generators::hypercube(5);
        let plan = FaultPlan::none()
            .seeded(11)
            .with_drops(0.05)
            .with_corruption(0.05)
            .with_delays(0.1, 3)
            .with_crash(NodeId(3), 6);
        let run = |reverse: bool| {
            let mut sim = Simulator::new(&g, walker_fleet(32), 123)
                .unwrap()
                .with_fault_plan(plan.clone());
            let cfg = RunConfig::default();
            let m = if reverse {
                sim.run_reverse_visit(&cfg)
            } else {
                sim.run(&cfg)
            }
            .unwrap();
            let traces: Vec<u64> = sim.nodes().iter().map(|p| p.trace).collect();
            (
                m,
                sim.fault_events().to_vec(),
                sim.crashed_nodes(),
                traces,
                sim.edge_load().to_vec(),
            )
        };
        let baseline = run(false);
        assert!(
            baseline.0.message_faults() > 0,
            "the plan must actually inject faults"
        );
        assert_eq!(baseline.2, vec![NodeId(3)]);
        assert_eq!(run(true), baseline, "visit-order reversal diverged");
    }

    /// Satellite regression: a normalized-trivial plan *forced through the
    /// faulty engine* stays byte-identical to the clean path. (The public
    /// dispatch routes trivial plans to the clean hook; this pins down that
    /// the guarantee does not depend on that routing.)
    #[test]
    fn trivial_plan_through_faulty_engine_matches_clean_path() {
        let g = amt_graphs::generators::hypercube(5);
        let cfg = RunConfig::default();
        let mut clean = Simulator::new(&g, walker_fleet(32), 9).unwrap();
        let m_clean = clean.run(&cfg).unwrap();

        // with_delays(0.9, 0) normalizes to no-delay: nothing can fire.
        let plan = FaultPlan::none().seeded(99).with_delays(0.9, 0);
        assert!(plan.is_trivial());
        let mut forced = Simulator::new(&g, walker_fleet(32), 9).unwrap();
        let mut fs = FaultState::new(&plan, g.len()).unwrap();
        let m_forced = forced.dispatch(&cfg, &mut fs, &mut NoChurn, false).unwrap();

        assert_eq!(m_clean, m_forced, "metrics diverged");
        let t_clean: Vec<u64> = clean.nodes().iter().map(|p| p.trace).collect();
        let t_forced: Vec<u64> = forced.nodes().iter().map(|p| p.trace).collect();
        assert_eq!(t_clean, t_forced, "state diverged");
        assert_eq!(clean.edge_load(), forced.edge_load());
        assert!(fs.events.is_empty());
        assert!(forced.crashed_nodes().is_empty());
    }

    /// Satellite regression (churn analogue): a normalized-trivial
    /// `ChurnPlan` *forced through the churn-aware engine* stays
    /// byte-identical to the clean path, and the public dispatch routes
    /// trivial churn plans to the clean hook in the first place.
    #[test]
    fn trivial_churn_plan_through_churned_engine_matches_clean_path() {
        let g = amt_graphs::generators::hypercube(5);
        let cfg = RunConfig::default();
        let mut clean = Simulator::new(&g, walker_fleet(32), 9).unwrap();
        let m_clean = clean.run(&cfg).unwrap();

        // with_flaps(0.9, 0) normalizes to no-flap: nothing can fire.
        let plan = ChurnPlan::none().seeded(99).with_flaps(0.9, 0);
        assert!(plan.is_trivial());

        // Attached via the public API: routed to the clean hooks.
        let mut routed = Simulator::new(&g, walker_fleet(32), 9)
            .unwrap()
            .with_churn_plan(plan.clone());
        let m_routed = routed.run(&cfg).unwrap();
        assert_eq!(m_clean, m_routed, "trivial-plan run diverged");
        assert!(routed.churn_events().is_empty());

        // Forced through the churn-aware engine: still byte-identical.
        let mut forced = Simulator::new(&g, walker_fleet(32), 9).unwrap();
        let sched = plan.normalize(g.len(), g.edge_count());
        let mut cs = ChurnState::new(&sched);
        let m_forced = forced
            .dispatch(&cfg, &mut NoFaults, &mut cs, false)
            .unwrap();
        assert_eq!(m_clean, m_forced, "metrics diverged");
        let t_clean: Vec<u64> = clean.nodes().iter().map(|p| p.trace).collect();
        let t_forced: Vec<u64> = forced.nodes().iter().map(|p| p.trace).collect();
        assert_eq!(t_clean, t_forced, "state diverged");
        assert_eq!(clean.edge_load(), forced.edge_load());
        assert!(cs.events.is_empty());
    }

    /// Profiling must be observably free (byte-identical `Metrics`, state,
    /// and edge loads) and exact: per-class totals sum to the run's
    /// `Metrics` and per-edge loads.
    #[test]
    fn profiling_is_observably_free_and_sums_exactly() {
        let g = amt_graphs::generators::hypercube(5);
        let cfg = RunConfig::default();
        let mut plain = Simulator::new(&g, walker_fleet(32), 77).unwrap();
        let m_plain = plain.run(&cfg).unwrap();
        assert!(
            plain.take_observed().profile.is_none(),
            "profiling is off by default"
        );

        let mut profiled = Simulator::new(&g, walker_fleet(32), 77)
            .unwrap()
            .with_observe(Observe {
                profile: Some(ProfileConfig::default()),
                ..Observe::default()
            });
        let m_profiled = profiled.run(&cfg).unwrap();
        assert_eq!(m_plain, m_profiled, "profiling changed metrics");
        let s_plain: Vec<u64> = plain.nodes().iter().map(|p| p.trace).collect();
        let s_profiled: Vec<u64> = profiled.nodes().iter().map(|p| p.trace).collect();
        assert_eq!(s_plain, s_profiled, "profiling changed protocol state");
        assert_eq!(plain.edge_load(), profiled.edge_load());

        let profile = profiled
            .take_observed()
            .profile
            .expect("profiling was enabled");
        assert_eq!(profile.total_messages(), m_profiled.messages);
        assert_eq!(profile.total_bits(), m_profiled.bits);
        assert_eq!(profile.edge_messages_total(), profiled.edge_load());
        // TokenWalker never picks a class, so everything is DEFAULT.
        assert_eq!(profile.per_class.len(), 1);
        assert_eq!(profile.per_class[0].class, class::DEFAULT);
        let a = profile.analyze(10);
        assert_eq!(a.max_edge_congestion, m_profiled.max_edge_congestion);
    }

    /// The trace's engine gauges honour the observers' contract: turning
    /// the trace on perturbs no observable in either visit order, the
    /// per-round records (gauges included) are the same in both orders, and
    /// the gauges reconcile with the run they watched.
    #[test]
    fn traced_gauges_are_observably_free_and_visit_order_invariant() {
        let g = amt_graphs::generators::hypercube(5);
        let cfg = RunConfig::default();
        let run = |reverse: bool, traced: bool| {
            let mut sim = Simulator::new(&g, walker_fleet(32), 77).unwrap();
            if traced {
                sim = sim.with_observe(Observe {
                    trace: Some(TraceConfig::default()),
                    ..Observe::default()
                });
            }
            let m = if reverse {
                sim.run_reverse_visit(&cfg)
            } else {
                sim.run(&cfg)
            }
            .unwrap();
            let state: Vec<u64> = sim.nodes().iter().map(|p| p.trace).collect();
            (
                m,
                state,
                sim.edge_load().to_vec(),
                sim.take_observed().trace,
            )
        };
        let (m_plain, s_plain, load_plain, none) = run(false, false);
        assert!(none.is_none(), "tracing is off by default");
        let mut expected = None;
        for reverse in [false, true] {
            let (m, state, load, trace) = run(reverse, true);
            assert_eq!(
                (&m, &state, &load),
                (&m_plain, &s_plain, &load_plain),
                "reverse {reverse}: tracing perturbed the run"
            );
            let samples = trace.expect("tracing was enabled").samples;
            assert_eq!(samples.len() as u64, m.rounds + 1);
            // Every round stepped at least the nodes that did work, and the
            // staging total reconciles with the message total.
            assert!(samples.iter().any(|s| s.active_nodes > 0));
            assert_eq!(
                samples.iter().map(|s| s.staged_sends).sum::<u64>(),
                m.messages,
                "staged sends must sum to the run's messages"
            );
            let first = expected.get_or_insert_with(|| samples.clone());
            assert_eq!(
                &samples, first,
                "reverse {reverse}: per-round records diverged"
            );
        }
    }

    /// Enabling tracing must not change a single observable bit, and the
    /// recorded timeline must reconstruct the run's `Metrics` exactly.
    #[test]
    fn tracing_is_observably_free_and_replays_metrics() {
        let g = amt_graphs::generators::hypercube(5);
        let cfg = RunConfig::default();
        let mut plain = Simulator::new(&g, walker_fleet(32), 77).unwrap();
        let m_plain = plain.run(&cfg).unwrap();
        assert!(
            plain.take_observed().trace.is_none(),
            "tracing is off by default"
        );

        let mut traced = Simulator::new(&g, walker_fleet(32), 77)
            .unwrap()
            .with_observe(Observe {
                trace: Some(TraceConfig::default().with_edge_load_stride(2)),
                ..Observe::default()
            });
        let m_traced = traced.run(&cfg).unwrap();
        assert_eq!(m_plain, m_traced, "tracing changed metrics");
        let s_plain: Vec<u64> = plain.nodes().iter().map(|p| p.trace).collect();
        let s_traced: Vec<u64> = traced.nodes().iter().map(|p| p.trace).collect();
        assert_eq!(s_plain, s_traced, "tracing changed protocol state");

        let trace = traced.take_observed().trace.expect("tracing was enabled");
        assert_eq!(trace.reconstruct_metrics(), m_traced);
        assert_eq!(trace.samples.len() as u64, m_traced.rounds + 1);
        assert!(trace.events.iter().any(|e| e.label == "token_seen"));
        assert!(!trace.snapshots.is_empty());
        assert_eq!(trace.final_edge_load, traced.edge_load());
    }

    /// Span events are recorded in `(round, node)` order.
    #[test]
    fn trace_events_are_in_round_node_order() {
        let g = amt_graphs::generators::hypercube(5);
        let mut sim = Simulator::new(&g, walker_fleet(32), 5)
            .unwrap()
            .with_observe(Observe {
                trace: Some(TraceConfig::default()),
                ..Observe::default()
            });
        sim.run(&RunConfig::default()).unwrap();
        let trace = sim.take_observed().trace.unwrap();
        assert!(!trace.events.is_empty());
        for w in trace.events.windows(2) {
            assert!(
                (w[0].round, w[0].node.index()) <= (w[1].round, w[1].node.index()),
                "events must be (round, node)-ordered"
            );
        }
    }

    /// Per-node streams must differ between nodes and between seeds.
    #[test]
    fn node_streams_are_distinct() {
        let mut seeds: Vec<u64> = (0..64).map(|v| keyed_splitmix(7, v)).collect();
        seeds.push(keyed_splitmix(8, 0));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 65, "stream seeds must not collide");
    }

    /// Hand-computable congestion: flooding a 4-path from node 0 under
    /// AllDone-style termination. Each edge carries the value exactly once
    /// per direction it propagates, so the middle accounting is checkable.
    #[test]
    fn edge_congestion_matches_hand_count() {
        let g = path(4);
        // Nodes 1..3 start at 0; node 0 floods the max id 9.
        let nodes = vec![
            MaxFlood {
                best: 9,
                dirty: false,
            },
            MaxFlood {
                best: 0,
                dirty: false,
            },
            MaxFlood {
                best: 0,
                dirty: false,
            },
            MaxFlood {
                best: 0,
                dirty: false,
            },
        ];
        let mut sim = Simulator::new(&g, nodes, 0).unwrap();
        let m = sim.run(&RunConfig::default()).unwrap();
        // Round 0: every node sends its value both ways — each edge carries
        // 2 messages. Afterwards the value 9 travels 0→1→2→3, one more
        // message per edge; the improved nodes also echo backwards along
        // their other port. Edge (0,1): init 2 + echo-forward at most once
        // more... rather than over-specify, check the exact measured loads
        // against an independent recount from the delivered totals.
        assert_eq!(sim.edge_load().len(), 3);
        assert_eq!(
            sim.edge_load().iter().sum::<u64>(),
            m.messages,
            "per-edge loads must partition total deliveries"
        );
        assert_eq!(
            m.max_edge_congestion,
            *sim.edge_load().iter().max().unwrap(),
            "metric must equal the max per-edge load"
        );
        // The hand count for edge (0,1): both endpoints send in round 0,
        // then node 1 (improved to 9) echoes back to 0: 3 total.
        assert_eq!(sim.edge_load()[0], 3);
    }

    /// Fixed-horizon beacon: sends the round number on every port each
    /// round, records arrivals, and models full state loss on restart.
    /// Deliberately NOT sparse-aware: it sends on empty inboxes, so it
    /// must keep the default full-sweep contract.
    struct Pinger {
        rounds_left: u32,
        got: Vec<u64>,
        restarts: u32,
    }

    impl Protocol for Pinger {
        type Message = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send_all(0);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
            for &(_, v) in inbox {
                self.got.push(v);
            }
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                let r = ctx.round();
                ctx.send_all(r);
            }
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.restarts += 1;
            self.got.clear();
            self.round(ctx, &[]);
        }
    }

    fn pinger_pair(horizon: u32) -> Vec<Pinger> {
        (0..2)
            .map(|_| Pinger {
                rounds_left: horizon,
                got: Vec::new(),
                restarts: 0,
            })
            .collect()
    }

    /// Churn semantics, edge axis: messages staged over a down edge are
    /// lost (counted in `lost_to_churn`, logged as `MessageLost`), the
    /// transition log brackets the outage, and the trace timeline carries
    /// the per-round loss deltas.
    #[test]
    fn edge_outage_loses_messages_and_logs_events() {
        use crate::churn::ChurnKind;
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let plan = ChurnPlan::none().with_edge_outage(EdgeId(0), 2, 2);
        let mut sim = Simulator::new(&g, pinger_pair(8), 5)
            .unwrap()
            .with_churn_plan(plan)
            .with_observe(Observe {
                trace: Some(TraceConfig::default()),
                ..Observe::default()
            });
        let cfg = RunConfig {
            stop: StopCondition::AllDone,
            ..RunConfig::default()
        };
        let m = sim.run(&cfg).unwrap();
        // Both endpoints send every round; rounds 2 and 3 are eaten by the
        // outage in both directions.
        assert_eq!(m.lost_to_churn, 4);
        assert_eq!(m.restarts, 0);
        let events = sim.churn_events();
        assert_eq!(
            events[0],
            ChurnEvent {
                round: 2,
                kind: ChurnKind::EdgeDown { edge: EdgeId(0) }
            }
        );
        assert!(events.contains(&ChurnEvent {
            round: 4,
            kind: ChurnKind::EdgeUp { edge: EdgeId(0) }
        }));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, ChurnKind::MessageLost { .. }))
                .count(),
            4
        );
        // The per-round timeline carries the losses and sums back to the
        // run's metrics (the reconstruct contract extends to churn).
        let trace = sim.take_observed().trace.unwrap();
        assert_eq!(trace.samples[2].lost_to_churn, 2);
        assert_eq!(trace.samples[3].lost_to_churn, 2);
        assert_eq!(trace.samples[2].nodes_down, 0);
        assert_eq!(trace.reconstruct_metrics(), m);
        // Deliveries in a loss round: none (the only edge was down).
        assert_eq!(trace.samples[2].messages, 0);
    }

    /// Churn semantics, node axis: an offline node steps in no round of
    /// the outage, messages addressed to it are lost, and at rejoin the
    /// executor calls `on_restart` exactly once (state loss is the
    /// protocol's move; the default keeps state).
    #[test]
    fn node_restart_loses_state_and_calls_on_restart() {
        use crate::churn::ChurnKind;
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let plan = ChurnPlan::none().with_restart(NodeId(1), 2, 2);
        let mut sim = Simulator::new(&g, pinger_pair(8), 5)
            .unwrap()
            .with_churn_plan(plan);
        let cfg = RunConfig {
            stop: StopCondition::AllDone,
            ..RunConfig::default()
        };
        let m = sim.run(&cfg).unwrap();
        // Node 0's beacons of rounds 2 and 3 die against the offline node;
        // node 1, being down, stages nothing those rounds.
        assert_eq!(m.lost_to_churn, 2);
        assert_eq!(m.restarts, 1);
        assert_eq!(m.crashed, 0);
        assert_eq!(sim.nodes()[1].restarts, 1, "on_restart ran exactly once");
        assert_eq!(sim.nodes()[0].restarts, 0);
        // State loss: node 1 cleared `got` at round 4; everything it holds
        // arrived after the rejoin.
        assert!(sim.nodes()[1].got.iter().all(|&r| r >= 4));
        assert!(
            !sim.nodes()[1].got.is_empty(),
            "traffic resumed after rejoin"
        );
        let events = sim.churn_events();
        assert!(events.contains(&ChurnEvent {
            round: 2,
            kind: ChurnKind::NodeDown { node: NodeId(1) }
        }));
        assert!(events.contains(&ChurnEvent {
            round: 4,
            kind: ChurnKind::NodeRejoin { node: NodeId(1) }
        }));
    }

    /// Engine-level churn determinism: a plan mixing PRF flaps, a periodic
    /// outage, and a restart produces byte-identical metrics, churn-event
    /// logs, protocol state, and edge loads under visit-order reversal.
    #[test]
    fn churned_runs_are_identical_under_visit_order_reversal() {
        let g = amt_graphs::generators::hypercube(5);
        let plan = ChurnPlan::none()
            .seeded(41)
            .with_flaps(0.08, 6)
            .with_periodic_outage(EdgeId(3), 4, 3, 11)
            .with_restart(NodeId(7), 5, 4);
        let run = |reverse: bool| {
            let mut sim = Simulator::new(&g, walker_fleet(32), 9)
                .unwrap()
                .with_churn_plan(plan.clone());
            let cfg = RunConfig::default();
            let m = if reverse {
                sim.run_reverse_visit(&cfg).unwrap()
            } else {
                sim.run(&cfg).unwrap()
            };
            let state: Vec<u64> = sim.nodes().iter().map(|p| p.trace).collect();
            (
                m,
                sim.churn_events().to_vec(),
                state,
                sim.edge_load().to_vec(),
            )
        };
        let baseline = run(false);
        assert!(
            baseline.0.lost_to_churn > 0,
            "the plan must actually bite: {:?}",
            baseline.0
        );
        assert_eq!(baseline.0.restarts, 1);
        assert_eq!(run(true), baseline, "visit-order reversal diverged");
    }
}
