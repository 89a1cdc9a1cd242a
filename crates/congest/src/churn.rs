//! Deterministic topology churn for the simulator.
//!
//! Where [`crate::faults`] perturbs individual *messages*, a [`ChurnPlan`]
//! perturbs the *topology itself* over time: edges go down and come back on
//! per-edge schedules (explicit intervals, periodic outages, or
//! Poisson-like flapping driven by a counter PRF), and nodes crash-*restart*
//! — they go offline for a bounded number of rounds, lose their volatile
//! state, and rejoin (see [`crate::Protocol::on_restart`]).
//!
//! The same determinism discipline as the fault layer applies: every churn
//! verdict is a pure function of `(churn seed, round, edge)` or
//! `(plan, round, node)` — whether an edge is up in round `r` never depends
//! on sampling order or node-visit order. A trivial plan (see
//! [`ChurnPlan::is_trivial`]) leaves every run bit-for-bit identical to a
//! churn-free run.
//!
//! Churn semantics, applied at the engine's ordered merge alongside fault
//! sampling:
//!
//! * a message staged over a **down edge** is lost ([`Metrics::lost_to_churn`],
//!   with a [`ChurnKind::MessageLost`] event);
//! * a message whose **destination is offline** in the staging round is
//!   lost the same way (its crash-restart loses the inbox anyway);
//! * a fault-**delayed** message whose destination or edge is down when the
//!   delay elapses is lost;
//! * an **offline node** executes no protocol steps and counts as done; at
//!   the first round after the outage the executor calls
//!   [`crate::Protocol::on_restart`] instead of `round` so the protocol can
//!   model state loss. The node's RNG stream survives the outage
//!   (determinism: draws stay a function of `(seed, node, draw index)`).
//!
//! Protocols observe link state through [`crate::Ctx::link_up`] and route
//! around dead edges; the healing drivers in `amt-walks` / `amt-mst` use
//! epoch- and phase-level retry with capped exponential backoff on top.

use amt_graphs::{EdgeId, NodeId};

use crate::faults::{splitmix, unit, Transitions};
use crate::{CongestError, Metrics, Result};

/// One explicit edge-outage schedule.
///
/// The edge is down in `[first_down, first_down + down_for)` and, when
/// `period > 0`, again in every later window shifted by a multiple of
/// `period`. `down_for == u64::MAX` with `period == 0` is a permanent cut
/// from `first_down` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeOutage {
    /// The edge this schedule applies to.
    pub edge: EdgeId,
    /// First round (global clock, see [`ChurnPlan::round_offset`]) in which
    /// the edge is down.
    pub first_down: u64,
    /// Rounds per outage (`u64::MAX` = never comes back).
    pub down_for: u64,
    /// Repetition period (`0` = a single outage).
    pub period: u64,
}

/// One scheduled crash-restart: `node` goes offline at the start of
/// `round`, stays down for `down_for` rounds, and rejoins with state loss
/// at `round + down_for`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartEvent {
    /// The node that restarts.
    pub node: NodeId,
    /// First round (global clock) of the outage.
    pub round: u64,
    /// Rounds offline (≥ 1).
    pub down_for: u64,
}

/// Declarative topology-churn configuration for one simulator run.
///
/// Constructed with [`ChurnPlan::none`] plus the `with_*` builders; an
/// all-zero plan is treated exactly like no plan at all. All schedules are
/// expressed on a *global clock*: multi-phase drivers re-run the simulator
/// with [`ChurnPlan::at_offset`] so the same plan describes one continuous
/// timeline across epochs and phases.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnPlan {
    /// Seed of the churn PRF (independent of the protocol RNG and of the
    /// fault PRF).
    pub seed: u64,
    /// Per-window probability that any given edge is down for a whole flap
    /// window (Poisson-like flapping; `0` disables).
    pub flap_prob: f64,
    /// Flap window length in rounds (each edge resamples its up/down state
    /// once per window; `0` disables flapping).
    pub flap_len: u64,
    /// Explicit per-edge outage schedules.
    pub outages: Vec<EdgeOutage>,
    /// Scheduled crash-restarts.
    pub restarts: Vec<RestartEvent>,
    /// Added to the executor's local round number before every verdict, so
    /// a driver that re-runs the simulator per phase keeps the plan's
    /// global timeline (mirrors the fault layer's per-phase seed shifting).
    pub round_offset: u64,
}

impl ChurnPlan {
    /// The empty plan: no churn, costs nothing observable.
    pub fn none() -> Self {
        ChurnPlan {
            seed: 0,
            flap_prob: 0.0,
            flap_len: 0,
            outages: Vec::new(),
            restarts: Vec::new(),
            round_offset: 0,
        }
    }

    /// Sets the churn PRF seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables PRF-driven flapping: every edge is down with probability `p`
    /// in each window of `window` rounds.
    ///
    /// A combination that can never fire (`p == 0` or `window == 0`) is
    /// normalized to `(0.0, 0)` so equivalent plans compare equal and pick
    /// the same executor path (the [`crate::FaultPlan::with_delays`]
    /// convention).
    pub fn with_flaps(mut self, p: f64, window: u64) -> Self {
        if p == 0.0 || window == 0 {
            self.flap_prob = 0.0;
            self.flap_len = 0;
        } else {
            self.flap_prob = p;
            self.flap_len = window;
        }
        self
    }

    /// Schedules an explicit edge outage (see [`EdgeOutage`]).
    pub fn with_edge_outage(mut self, edge: EdgeId, first_down: u64, down_for: u64) -> Self {
        self.outages.push(EdgeOutage {
            edge,
            first_down,
            down_for,
            period: 0,
        });
        self
    }

    /// Schedules a periodic edge outage: down for `down_for` rounds out of
    /// every `period`, starting at `first_down`.
    pub fn with_periodic_outage(
        mut self,
        edge: EdgeId,
        first_down: u64,
        down_for: u64,
        period: u64,
    ) -> Self {
        self.outages.push(EdgeOutage {
            edge,
            first_down,
            down_for,
            period,
        });
        self
    }

    /// Cuts `edge` permanently from round `from` on.
    pub fn with_edge_cut(mut self, edge: EdgeId, from: u64) -> Self {
        self.outages.push(EdgeOutage {
            edge,
            first_down: from,
            down_for: u64::MAX,
            period: 0,
        });
        self
    }

    /// Schedules a crash-restart of `node` at `round`, offline for
    /// `down_for` rounds.
    pub fn with_restart(mut self, node: NodeId, round: u64, down_for: u64) -> Self {
        self.restarts.push(RestartEvent {
            node,
            round,
            down_for,
        });
        self
    }

    /// The same plan with its global clock advanced by `offset` rounds:
    /// every verdict for local round `r` is taken at `r + offset`.
    pub fn at_offset(mut self, offset: u64) -> Self {
        self.round_offset = offset;
        self
    }

    /// `true` when the plan can never change the topology (treated as no
    /// plan at all).
    ///
    /// The `flap_len` guard covers plans whose fields were set directly,
    /// bypassing the normalizing [`ChurnPlan::with_flaps`] builder.
    pub fn is_trivial(&self) -> bool {
        (self.flap_prob == 0.0 || self.flap_len == 0)
            && self.outages.is_empty()
            && self.restarts.is_empty()
    }

    /// The round from which `edge` is *permanently* down, if any schedule
    /// cuts it for good (periodic and PRF-flapped outages are transient).
    /// Drivers use this to distinguish "route around it later" from
    /// "partitioned for good".
    pub fn edge_cut_round(&self, edge: EdgeId) -> Option<u64> {
        self.outages
            .iter()
            .filter(|o| o.edge == edge && o.period == 0 && o.down_for == u64::MAX)
            .map(|o| o.first_down)
            .min()
    }

    /// Checks probabilities and schedule targets against a graph with `n`
    /// nodes and `m` edges.
    ///
    /// # Errors
    ///
    /// [`CongestError::FaultPlanInvalid`] naming the offending field.
    pub fn validate(&self, n: usize, m: usize) -> Result<()> {
        if !(0.0..=1.0).contains(&self.flap_prob) {
            return Err(CongestError::FaultPlanInvalid {
                reason: format!("flap_prob = {} is not a probability", self.flap_prob),
            });
        }
        if self.flap_prob > 0.0 && self.flap_len == 0 {
            return Err(CongestError::FaultPlanInvalid {
                reason: "flap_prob > 0 requires flap_len >= 1".into(),
            });
        }
        for o in &self.outages {
            if o.edge.index() >= m {
                return Err(CongestError::FaultPlanInvalid {
                    reason: format!("outage edge {} out of range for {m} edges", o.edge),
                });
            }
            if o.down_for == 0 {
                return Err(CongestError::FaultPlanInvalid {
                    reason: format!("outage on edge {} has down_for = 0", o.edge),
                });
            }
            if o.period > 0 && o.down_for >= o.period {
                return Err(CongestError::FaultPlanInvalid {
                    reason: format!(
                        "periodic outage on edge {} never comes up (down_for {} >= period {})",
                        o.edge, o.down_for, o.period
                    ),
                });
            }
        }
        for r in &self.restarts {
            if r.node.index() >= n {
                return Err(CongestError::FaultPlanInvalid {
                    reason: format!("restart target {} out of range for {n} nodes", r.node),
                });
            }
            if r.down_for == 0 {
                return Err(CongestError::FaultPlanInvalid {
                    reason: format!("restart of node {} has down_for = 0", r.node),
                });
            }
        }
        Ok(())
    }

    /// Precomputes the per-run schedule tables: per-edge explicit outage
    /// lists and per-node merged offline intervals, computed once and
    /// diffed each round by [`ChurnState`].
    pub(crate) fn normalize(&self, n: usize, m: usize) -> ChurnSchedule {
        let mut per_edge: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); m];
        for o in &self.outages {
            per_edge[o.edge.index()].push((o.first_down, o.down_for, o.period));
        }
        for entries in &mut per_edge {
            entries.sort_unstable();
        }
        // Merge overlapping node outages so "rejoins at r" is unambiguous.
        let mut raw: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for r in &self.restarts {
            raw[r.node.index()].push((r.round, r.round.saturating_add(r.down_for)));
        }
        let node_outages = raw
            .into_iter()
            .map(|mut iv| {
                iv.sort_unstable();
                let mut merged: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
                for (d, u) in iv {
                    match merged.last_mut() {
                        Some(last) if d <= last.1 => last.1 = last.1.max(u),
                        _ => merged.push((d, u)),
                    }
                }
                merged
            })
            .collect();
        ChurnSchedule {
            seed: self.seed,
            flap_prob: self.flap_prob,
            flap_threshold: flap_threshold(self.flap_prob),
            flap_len: self.flap_len,
            offset: self.round_offset,
            per_edge,
            node_outages,
        }
    }
}

/// One PRF word as a pure function of `(churn seed, flap window, edge)` —
/// the same splitmix-chain construction as the fault layer's
/// `message_draw`, with its own odd multipliers so the two streams never
/// collide even under equal seeds.
fn flap_draw(seed: u64, window: u64, edge: u64) -> u64 {
    flap_word(flap_prefix(seed, window), edge)
}

/// The first two links of [`flap_draw`]'s chain, shared by every edge of
/// one flap window.
fn flap_prefix(seed: u64, window: u64) -> u64 {
    let z = splitmix(seed ^ 0xD6E8_FEB8_6659_FD93);
    splitmix(z ^ window.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// The last link of [`flap_draw`]'s chain: `edge`'s word in the window
/// whose [`flap_prefix`] is `prefix`.
fn flap_word(prefix: u64, edge: u64) -> u64 {
    splitmix(prefix ^ edge.wrapping_mul(0x9E6C_63D0_876A_339B))
}

/// `⌈p · 2^53⌉`, the integer form of the flap probability `p ∈ [0, 1]`: a
/// word `w` flaps its edge down exactly when `(w >> 11) < threshold`.
///
/// That is `unit(w) < p` without the float. `unit(w)` is the 53-bit
/// integer `x = w >> 11` scaled by `2^-53`, and both `x as f64` and the
/// scaling by a power of two are exact, so `unit(w) < p` holds exactly
/// when `x < p · 2^53` — itself exact in `f64` — and, `x` being an
/// integer, exactly when `x < ⌈p · 2^53⌉`.
pub(crate) fn flap_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The normalized, read-only schedule of one run. [`ChurnState`] diffs it
/// once per round into the dense view every reader uses; its per-id
/// verdicts [`Self::edge_down`], [`Self::node_down`] and
/// [`Self::rejoining`] evaluate the schedule from scratch and stay as the
/// oracle that view is checked against.
#[derive(Debug)]
pub(crate) struct ChurnSchedule {
    seed: u64,
    flap_prob: f64,
    /// [`flap_threshold`] of `flap_prob`.
    flap_threshold: u64,
    flap_len: u64,
    offset: u64,
    /// `(first_down, down_for, period)` entries per edge id, sorted.
    per_edge: Vec<Vec<(u64, u64, u64)>>,
    /// Merged, sorted `[down, up)` offline intervals per node id.
    node_outages: Vec<Vec<(u64, u64)>>,
}

impl ChurnSchedule {
    /// Whether `edge` is down in local round `round` (the oracle: the flap
    /// draw and its float comparison, then the explicit schedule).
    pub(crate) fn edge_down(&self, round: u64, edge: usize) -> bool {
        let g = round + self.offset;
        (self.flap_len > 0
            && unit(flap_draw(self.seed, g / self.flap_len, edge as u64)) < self.flap_prob)
            || self.scheduled_down(g, edge)
    }

    /// Whether `edge` flaps down in the window whose [`flap_prefix`] is
    /// `prefix` (one splitmix and an integer comparison).
    #[inline]
    fn flapped(&self, prefix: u64, edge: usize) -> bool {
        flap_word(prefix, edge as u64) >> 11 < self.flap_threshold
    }

    /// Whether an explicit outage of `edge` covers the global round `g`.
    fn scheduled_down(&self, g: u64, edge: usize) -> bool {
        self.per_edge[edge]
            .iter()
            .any(|&(first, down_for, period)| {
                if g < first {
                    return false;
                }
                let rel = g - first;
                if period == 0 {
                    rel < down_for
                } else {
                    rel % period < down_for
                }
            })
    }

    /// Whether `v` is offline in local round `round`.
    pub(crate) fn node_down(&self, round: u64, v: usize) -> bool {
        self.offline(round + self.offset, v)
    }

    /// Whether `v` is offline in the global round `g`.
    fn offline(&self, g: u64, v: usize) -> bool {
        self.node_outages[v].iter().any(|&(d, u)| d <= g && g < u)
    }

    /// Whether `v` rejoins exactly at local round `round` (its outage ended
    /// at the global round `round` maps to). The executor calls
    /// [`crate::Protocol::on_restart`] in this round.
    pub(crate) fn rejoining(&self, round: u64, v: usize) -> bool {
        let g = round + self.offset;
        g > 0 && self.node_outages[v].iter().any(|&(_, u)| u == g)
    }
}

/// What one churn transition or loss did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// An edge went down at the start of this round.
    EdgeDown {
        /// The edge that went down.
        edge: EdgeId,
    },
    /// An edge came back up at the start of this round.
    EdgeUp {
        /// The edge that recovered.
        edge: EdgeId,
    },
    /// A node went offline (crash-restart outage began).
    NodeDown {
        /// The node that went offline.
        node: NodeId,
    },
    /// A node rejoined after an outage (with state loss; counted in
    /// [`Metrics::restarts`]).
    NodeRejoin {
        /// The node that rejoined.
        node: NodeId,
    },
    /// A staged or delay-released message was lost to a down edge or an
    /// offline destination; `node`/`port` identify the sender.
    MessageLost {
        /// The sending node.
        node: NodeId,
        /// The sending port.
        port: usize,
    },
}

/// One churn transition or loss, for the run's churn-event log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Round in which the transition took effect (local clock).
    pub round: u64,
    /// What happened.
    pub kind: ChurnKind,
}

/// How the executor consults topology churn, round by round and message by
/// message. The churn-free path uses the inert [`NoChurn`] implementation,
/// which monomorphizes every hook call away; the churned path uses
/// [`ChurnState`]. Every verdict is read from the round most recently
/// begun: a pure function of the plan's timeline, never of sampling order.
pub(crate) trait ChurnHook {
    /// Moves the topology to `round`, emits its up/down transition events,
    /// accounts node rejoins in `metrics.restarts` and reports the round's
    /// node transitions in `moved`: nodes going offline in `left`, nodes
    /// rejoining in `rejoined` (never in local round 0, which is `init`'s).
    fn begin_round(&mut self, round: u64, metrics: &mut Metrics, moved: &mut Transitions);

    /// The round's topology for the stepper and [`crate::Ctx::link_up`];
    /// `None` when it never changes.
    fn view(&self) -> Option<&ChurnState<'_>>;

    /// Whether a message over `edge` to `dst` is lost this round: the edge
    /// is down or `dst` is offline.
    fn link_down(&self, edge: usize, dst: usize) -> bool;

    /// Accounts one message lost to churn and logs the event.
    fn record_loss(&mut self, round: u64, src: usize, port: usize, metrics: &mut Metrics);

    /// Nodes offline this round (for the availability timeline).
    fn down_count(&self) -> u64;
}

/// The churn hook of the churn-free path: the topology never changes. All
/// methods are trivially inlinable, so the unified engine compiled against
/// `NoChurn` is the exact static-topology executor.
pub(crate) struct NoChurn;

impl ChurnHook for NoChurn {
    fn begin_round(&mut self, _round: u64, _metrics: &mut Metrics, _moved: &mut Transitions) {}

    fn view(&self) -> Option<&ChurnState<'_>> {
        None
    }

    fn link_down(&self, _edge: usize, _dst: usize) -> bool {
        false
    }

    fn record_loss(&mut self, _round: u64, _src: usize, _port: usize, _metrics: &mut Metrics) {
        unreachable!("NoChurn never loses a message")
    }

    fn down_count(&self) -> u64 {
        0
    }
}

/// [`ChurnState`]'s node map: an online node.
const UP: u8 = 0;
/// [`ChurnState`]'s node map: an offline node.
const DOWN: u8 = 1;
/// [`ChurnState`]'s node map: a node online this round and offline in the
/// last one.
const REJOINING: u8 = 2;

/// Runtime churn state borrowed by one `Simulator::run` invocation: the
/// normalized schedule, the topology of the round most recently begun as
/// dense maps by edge and node id, and the event log.
///
/// [`ChurnHook::begin_round`] diffs the schedule into the maps once per
/// round, logging each change and reporting the nodes that go offline or
/// rejoin to the engine ([`Transitions`]); every verdict inside the round
/// (the merge, the stepper's skips and rejoins, [`crate::Ctx::link_up`],
/// [`ChurnHook::down_count`]) is then a map read. Debug builds check every
/// read against the [`ChurnSchedule`] oracle.
pub(crate) struct ChurnState<'p> {
    sched: &'p ChurnSchedule,
    /// Edge ids with explicit schedules, ascending: the only edges whose
    /// state can change inside a flap window.
    scheduled: Vec<u32>,
    /// Node ids with scheduled outages, ascending.
    tracked_nodes: Vec<u32>,
    /// The round most recently begun.
    round: u64,
    /// The [`flap_prefix`] of that round's flap window.
    window: u64,
    /// Whether each edge is down, by edge id.
    edge_down: Vec<bool>,
    /// Each node's [`UP`] / [`DOWN`] / [`REJOINING`] state, by node id.
    node: Vec<u8>,
    /// Nodes [`DOWN`].
    down: u64,
    pub(crate) events: Vec<ChurnEvent>,
}

impl<'p> ChurnState<'p> {
    pub(crate) fn new(sched: &'p ChurnSchedule) -> Self {
        let per_edge = &sched.per_edge;
        ChurnState {
            scheduled: (0..per_edge.len() as u32)
                .filter(|&e| !per_edge[e as usize].is_empty())
                .collect(),
            tracked_nodes: (0..sched.node_outages.len() as u32)
                .filter(|&v| !sched.node_outages[v as usize].is_empty())
                .collect(),
            round: 0,
            window: 0,
            edge_down: vec![false; per_edge.len()],
            node: vec![UP; sched.node_outages.len()],
            down: 0,
            sched,
            events: Vec::new(),
        }
    }
}

impl ChurnState<'_> {
    /// Whether `edge` is down this round.
    #[inline]
    pub(crate) fn edge_down(&self, edge: usize) -> bool {
        let down = self.edge_down[edge];
        debug_assert_eq!(
            down,
            self.sched.edge_down(self.round, edge),
            "edge {edge} in round {}",
            self.round
        );
        down
    }

    /// Whether `v` is offline this round.
    #[inline]
    pub(crate) fn node_down(&self, v: usize) -> bool {
        let down = self.node[v] == DOWN;
        debug_assert_eq!(
            down,
            self.sched.node_down(self.round, v),
            "node {v} in round {}",
            self.round
        );
        down
    }

    /// Whether `v` rejoins this round, so that the executor runs
    /// [`crate::Protocol::on_restart`]. Never in local round 0, which is
    /// `init`'s (the schedule's `rejoining` may say otherwise there).
    #[inline]
    pub(crate) fn rejoining(&self, v: usize) -> bool {
        let rejoins = self.node[v] == REJOINING;
        debug_assert!(
            self.round == 0 || rejoins == self.sched.rejoining(self.round, v),
            "rejoin of node {v} in round {}",
            self.round
        );
        rejoins
    }

    /// Sets `edge`'s state this round, logging a transition if it changed.
    fn set_edge(&mut self, edge: usize, down: bool) {
        if down != self.edge_down[edge] {
            self.edge_down[edge] = down;
            let edge = EdgeId(edge as u32);
            self.events.push(ChurnEvent {
                round: self.round,
                kind: if down {
                    ChurnKind::EdgeDown { edge }
                } else {
                    ChurnKind::EdgeUp { edge }
                },
            });
        }
    }
}

impl ChurnHook for ChurnState<'_> {
    /// Diffs this round's topology against the previous round's, logging
    /// every transition in (edges, then nodes, ascending id) order — a
    /// deterministic stream whatever the node-visit order.
    ///
    /// A flap verdict is constant within a flap window, so an edge without
    /// an explicit schedule can only change state in local round 0 or at a
    /// global window boundary. There the window's PRF prefix is drawn once
    /// and each edge costs one splitmix against the integer threshold (plus
    /// its schedule scan if it has one); every other round re-evaluates
    /// just the explicitly scheduled edges, in the same ascending order.
    fn begin_round(&mut self, round: u64, metrics: &mut Metrics, moved: &mut Transitions) {
        let sched = self.sched;
        let (g, flap_len) = (round + sched.offset, sched.flap_len);
        self.round = round;
        if flap_len > 0 && (round == 0 || g.is_multiple_of(flap_len)) {
            self.window = flap_prefix(sched.seed, g / flap_len);
            let mut k = 0;
            for e in 0..self.edge_down.len() {
                let mut down = sched.flapped(self.window, e);
                if self.scheduled.get(k) == Some(&(e as u32)) {
                    k += 1;
                    down = down || sched.scheduled_down(g, e);
                }
                self.set_edge(e, down);
            }
        } else {
            for k in 0..self.scheduled.len() {
                let e = self.scheduled[k] as usize;
                let down =
                    (flap_len > 0 && sched.flapped(self.window, e)) || sched.scheduled_down(g, e);
                self.set_edge(e, down);
            }
        }
        for k in 0..self.tracked_nodes.len() {
            let node = NodeId(self.tracked_nodes[k]);
            let v = node.index();
            let was = self.node[v];
            if sched.offline(g, v) {
                if was != DOWN {
                    self.node[v] = DOWN;
                    self.down += 1;
                    moved.left.push(node.0);
                    self.events.push(ChurnEvent {
                        round,
                        kind: ChurnKind::NodeDown { node },
                    });
                }
            } else if was == DOWN {
                self.node[v] = REJOINING;
                self.down -= 1;
                metrics.restarts += 1;
                moved.rejoined.push(node.0);
                self.events.push(ChurnEvent {
                    round,
                    kind: ChurnKind::NodeRejoin { node },
                });
            } else {
                self.node[v] = UP;
            }
        }
    }

    fn view(&self) -> Option<&ChurnState<'_>> {
        Some(self)
    }

    #[inline]
    fn link_down(&self, edge: usize, dst: usize) -> bool {
        self.edge_down(edge) || self.node_down(dst)
    }

    fn record_loss(&mut self, round: u64, src: usize, port: usize, metrics: &mut Metrics) {
        metrics.lost_to_churn += 1;
        self.events.push(ChurnEvent {
            round,
            kind: ChurnKind::MessageLost {
                node: NodeId::from(src),
                port,
            },
        });
    }

    fn down_count(&self) -> u64 {
        debug_assert_eq!(
            self.down,
            (0..self.node.len())
                .filter(|&v| self.sched.node_down(self.round, v))
                .count() as u64,
            "nodes down in round {}",
            self.round
        );
        self.down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_detection() {
        assert!(ChurnPlan::none().is_trivial());
        assert!(ChurnPlan::none().seeded(9).is_trivial());
        // Flapping without a window (or probability) can never fire.
        assert!(ChurnPlan::none().with_flaps(0.5, 0).is_trivial());
        assert!(ChurnPlan::none().with_flaps(0.0, 10).is_trivial());
        assert!(!ChurnPlan::none().with_flaps(0.5, 10).is_trivial());
        assert!(!ChurnPlan::none()
            .with_edge_outage(EdgeId(0), 3, 2)
            .is_trivial());
        assert!(!ChurnPlan::none().with_restart(NodeId(1), 5, 4).is_trivial());
    }

    #[test]
    fn builders_normalize_zero_effect_flaps() {
        assert_eq!(ChurnPlan::none().with_flaps(0.5, 0), ChurnPlan::none());
        assert_eq!(ChurnPlan::none().with_flaps(0.0, 9), ChurnPlan::none());
        let live = ChurnPlan::none().with_flaps(0.25, 8);
        assert_eq!((live.flap_prob, live.flap_len), (0.25, 8));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let e = ChurnPlan::none()
            .with_flaps(1.5, 4)
            .validate(4, 4)
            .unwrap_err();
        assert!(e.to_string().contains("flap_prob"));
        let e = ChurnPlan::none()
            .with_edge_outage(EdgeId(9), 0, 1)
            .validate(4, 4)
            .unwrap_err();
        assert!(e.to_string().contains("out of range"));
        let e = ChurnPlan::none()
            .with_periodic_outage(EdgeId(0), 0, 5, 5)
            .validate(4, 4)
            .unwrap_err();
        assert!(e.to_string().contains("never comes up"));
        let e = ChurnPlan::none()
            .with_restart(NodeId(9), 0, 2)
            .validate(4, 4)
            .unwrap_err();
        assert!(e.to_string().contains("out of range"));
        let e = ChurnPlan::none()
            .with_restart(NodeId(0), 0, 0)
            .validate(4, 4)
            .unwrap_err();
        assert!(e.to_string().contains("down_for = 0"));
        // Direct field assignment bypasses the normalizing builder; the
        // validator still rejects the inconsistent combination.
        let mut p = ChurnPlan::none();
        p.flap_prob = 0.5;
        assert!(p.validate(4, 4).is_err());
    }

    #[test]
    fn explicit_outages_follow_their_schedule() {
        let plan = ChurnPlan::none()
            .with_edge_outage(EdgeId(1), 5, 3)
            .with_periodic_outage(EdgeId(2), 2, 2, 10);
        let s = plan.normalize(4, 4);
        // One-shot: down exactly in [5, 8).
        let downs: Vec<u64> = (0..12).filter(|&r| s.edge_down(r, 1)).collect();
        assert_eq!(downs, vec![5, 6, 7]);
        // Periodic: down in [2, 4), [12, 14), ...
        let downs: Vec<u64> = (0..25).filter(|&r| s.edge_down(r, 2)).collect();
        assert_eq!(downs, vec![2, 3, 12, 13, 22, 23]);
        // Unscheduled edges never move.
        assert!((0..25).all(|r| !s.edge_down(r, 0)));
    }

    #[test]
    fn permanent_cuts_never_recover() {
        let plan = ChurnPlan::none().with_edge_cut(EdgeId(3), 7);
        assert_eq!(plan.edge_cut_round(EdgeId(3)), Some(7));
        assert_eq!(plan.edge_cut_round(EdgeId(0)), None);
        // Periodic/transient schedules are not cuts.
        let transient = ChurnPlan::none().with_edge_outage(EdgeId(3), 7, 100);
        assert_eq!(transient.edge_cut_round(EdgeId(3)), None);
        let s = plan.normalize(4, 4);
        assert!(!s.edge_down(6, 3));
        assert!((7..1000).all(|r| s.edge_down(r, 3)));
    }

    #[test]
    fn node_outages_merge_and_rejoin_once() {
        let plan = ChurnPlan::none()
            .with_restart(NodeId(2), 4, 3)
            .with_restart(NodeId(2), 6, 4); // overlaps: merged to [4, 10)
        let s = plan.normalize(4, 2);
        let downs: Vec<u64> = (0..14).filter(|&r| s.node_down(r, 2)).collect();
        assert_eq!(downs, (4..10).collect::<Vec<_>>());
        let rejoins: Vec<u64> = (0..14).filter(|&r| s.rejoining(r, 2)).collect();
        assert_eq!(rejoins, vec![10]);
        let mut st = ChurnState::new(&s);
        let mut m = Metrics::default();
        let down_counts: Vec<u64> = (0..12)
            .map(|r| {
                st.begin_round(r, &mut m, &mut Transitions::default());
                st.down_count()
            })
            .collect();
        assert_eq!(down_counts, [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0]);
    }

    /// `(local round, node)` pairs.
    type Moves = Vec<(u64, u32)>;

    /// The transitions [`ChurnState::begin_round`] reports over local
    /// rounds `0..rounds`: nodes going offline, nodes rejoining.
    fn transitions(s: &ChurnSchedule, rounds: u64) -> (Moves, Moves) {
        let mut st = ChurnState::new(s);
        let mut m = Metrics::default();
        let (mut left, mut rejoined) = (Vec::new(), Vec::new());
        for r in 0..rounds {
            let mut moved = Transitions::default();
            st.begin_round(r, &mut m, &mut moved);
            left.extend(moved.left.iter().map(|&v| (r, v)));
            rejoined.extend(moved.rejoined.iter().map(|&v| (r, v)));
        }
        (left, rejoined)
    }

    #[test]
    fn reported_transitions_mirror_the_predicates() {
        let plan = ChurnPlan::none()
            .with_restart(NodeId(2), 4, 3)
            .with_restart(NodeId(2), 6, 4) // merged with the above to [4, 10)
            .with_restart(NodeId(0), 1, 2);
        let s = plan.normalize(4, 2);
        let (left, rejoined) = transitions(&s, 16);
        assert_eq!(left, vec![(1, 0), (4, 2)]);
        assert_eq!(rejoined, vec![(3, 0), (10, 2)]);
        // The transitions are exactly the predicates' firing rounds.
        for v in 0..4usize {
            for r in 0..16u64 {
                assert_eq!(
                    rejoined.contains(&(r, v as u32)),
                    s.rejoining(r, v),
                    "rejoin mismatch at round {r}, node {v}"
                );
                assert_eq!(
                    left.contains(&(r, v as u32)),
                    s.node_down(r, v) && (r == 0 || !s.node_down(r - 1, v)),
                    "down-entry mismatch at round {r}, node {v}"
                );
            }
        }
    }

    #[test]
    fn reported_transitions_respect_the_offset() {
        // [10, 12) seen from offset 9: down in local rounds 1–2, rejoin 3.
        let s = ChurnPlan::none()
            .with_restart(NodeId(1), 10, 2)
            .at_offset(9)
            .normalize(2, 1);
        assert_eq!(transitions(&s, 8), (vec![(1, 1)], vec![(3, 1)]));
        // An outage already in progress at local round 0 enters at round 0.
        let s = ChurnPlan::none()
            .with_restart(NodeId(0), 2, 10)
            .at_offset(5)
            .normalize(2, 1);
        assert!(s.node_down(0, 0));
        assert_eq!(transitions(&s, 12), (vec![(0, 0)], vec![(7, 0)]));
        // An outage entirely before local time reports nothing.
        let s = ChurnPlan::none()
            .with_restart(NodeId(0), 2, 3)
            .at_offset(20)
            .normalize(2, 1);
        assert_eq!(transitions(&s, 12), (vec![], vec![]));
        // An outage whose rejoin lands exactly at local round 0: the raw
        // predicate fires, but round 0 dispatches `init` in every engine
        // (shadowing `on_restart`), so no rejoin is reported.
        let s = ChurnPlan::none()
            .with_restart(NodeId(0), 2, 3)
            .at_offset(5)
            .normalize(2, 1);
        assert!(s.rejoining(0, 0));
        assert_eq!(transitions(&s, 12), (vec![], vec![]));
    }

    #[test]
    fn flap_verdicts_are_pure_functions_of_identity() {
        let plan = ChurnPlan::none().seeded(11).with_flaps(0.3, 5);
        let s = plan.normalize(8, 16);
        let keys: Vec<(u64, usize)> = (0..60).flat_map(|r| (0..16).map(move |e| (r, e))).collect();
        let forward: Vec<bool> = keys.iter().map(|&(r, e)| s.edge_down(r, e)).collect();
        let reversed: Vec<bool> = keys.iter().rev().map(|&(r, e)| s.edge_down(r, e)).collect();
        assert_eq!(
            forward,
            reversed.into_iter().rev().collect::<Vec<_>>(),
            "verdicts must not depend on sampling order"
        );
        // Non-degenerate: both states occur across 960 samples.
        assert!(forward.contains(&true));
        assert!(forward.contains(&false));
        // State is constant within a window and keyed by the window index.
        for e in 0..16 {
            for w in 0..12u64 {
                let states: Vec<bool> = (w * 5..(w + 1) * 5).map(|r| s.edge_down(r, e)).collect();
                assert!(states.windows(2).all(|p| p[0] == p[1]));
            }
        }
        // Distinct seeds give distinct flap streams.
        let other = ChurnPlan::none()
            .seeded(12)
            .with_flaps(0.3, 5)
            .normalize(8, 16);
        assert!(keys
            .iter()
            .any(|&(r, e)| s.edge_down(r, e) != other.edge_down(r, e)));
    }

    #[test]
    fn offset_shifts_the_global_clock() {
        let plan = ChurnPlan::none().with_edge_outage(EdgeId(0), 10, 2);
        let shifted = plan.clone().at_offset(9).normalize(2, 1);
        let plain = plan.normalize(2, 1);
        for r in 0..8 {
            assert_eq!(shifted.edge_down(r, 0), plain.edge_down(r + 9, 0));
        }
        let restart = ChurnPlan::none().with_restart(NodeId(1), 10, 2);
        let shifted = restart.at_offset(9).normalize(2, 1);
        assert!(shifted.node_down(1, 1) && shifted.node_down(2, 1));
        assert!(shifted.rejoining(3, 1));
    }

    /// The window-boundary diff in [`ChurnState::begin_round`] and the
    /// dense view it keeps, against the brute-force every-edge, every-node,
    /// every-round reference of [`crate::oracle::assert_churn_view_agrees`],
    /// for flap windows that do and do not divide the clock offset, with and
    /// without explicit schedules. `tests/churn_view.rs` runs the same
    /// oracle on randomized plans.
    #[test]
    fn churn_diffs_match_the_every_edge_every_round_reference() {
        let mixed = |flap_len: u64, offset: u64| {
            ChurnPlan::none()
                .seeded(flap_len * 31 + offset)
                .with_flaps(0.3, flap_len)
                .with_edge_outage(EdgeId(4), 9, 5)
                .with_periodic_outage(EdgeId(4), 3, 2, 7)
                .with_periodic_outage(EdgeId(17), 0, 3, 11)
                .with_edge_cut(EdgeId(29), 40)
                .with_restart(NodeId(2), 6, 4)
                .with_restart(NodeId(9), 0, 3)
                .with_restart(NodeId(9), 30, 8)
                .at_offset(offset)
        };
        let plans = [
            mixed(5, 7),
            mixed(5, 10),
            mixed(4, 0),
            mixed(1, 3),
            mixed(9, 2),
            mixed(0, 6),
            ChurnPlan::none().seeded(3).with_flaps(0.5, 3).at_offset(1),
        ];
        for plan in &plans {
            let events = crate::oracle::assert_churn_view_agrees(plan, 12, 30, 80);
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, ChurnKind::EdgeUp { .. })),
                "edges must come back in {plan:?}"
            );
        }
    }

    #[test]
    fn churn_state_logs_transitions_in_id_order() {
        let plan = ChurnPlan::none()
            .with_edge_outage(EdgeId(1), 2, 2)
            .with_restart(NodeId(0), 2, 3);
        let sched = plan.normalize(3, 3);
        let mut st = ChurnState::new(&sched);
        let mut m = Metrics::default();
        for r in 0..7 {
            st.begin_round(r, &mut m, &mut Transitions::default());
        }
        assert_eq!(
            st.events,
            vec![
                ChurnEvent {
                    round: 2,
                    kind: ChurnKind::EdgeDown { edge: EdgeId(1) }
                },
                ChurnEvent {
                    round: 2,
                    kind: ChurnKind::NodeDown { node: NodeId(0) }
                },
                ChurnEvent {
                    round: 4,
                    kind: ChurnKind::EdgeUp { edge: EdgeId(1) }
                },
                ChurnEvent {
                    round: 5,
                    kind: ChurnKind::NodeRejoin { node: NodeId(0) }
                },
            ]
        );
        assert_eq!(m.restarts, 1);
        assert_eq!(m.lost_to_churn, 0);
        st.record_loss(3, 2, 1, &mut m);
        assert_eq!(m.lost_to_churn, 1);
        assert_eq!(
            st.events.last(),
            Some(&ChurnEvent {
                round: 3,
                kind: ChurnKind::MessageLost {
                    node: NodeId(2),
                    port: 1
                }
            })
        );
    }
}
