//! Parallel random walks with measured CONGEST round costs (Lemmas 2.4/2.5).
//!
//! All walks advance step-synchronously. In the distributed execution each
//! step is a *phase*: every token that moves must cross one edge, and each
//! edge carries one token per direction per round, so a phase costs
//! `max(1, max directed-edge load)` rounds. Lemma 2.5 proves this is
//! `O(k + log n)` w.h.p. when each node starts `k·d(v)` walks; here the cost
//! is **measured** from the actual token loads, never assumed.
//!
//! # Batched stepping
//!
//! The engine steps *per node*, not per token, exactly as the distributed
//! model does (Das Sarma et al.: a node schedules all the tokens resident
//! on it each round). Per step it
//!
//! 1. **groups** the active tokens by current node with a counting sort
//!    over the dense position vector (a prefix-sum pass computes the
//!    group offsets — no per-token `Vec` pushes),
//! 2. **draws** the destinations of each node's group as one batch (draws
//!    depend only on the node, so the batch is one RNG run per node),
//! 3. **admits** the movers against directed-edge capacity — the flat
//!    `loads`/`touched` counting pass whose maximum is the phase cost,
//!    `max(1, …)` even when nothing moves — and commits every move into
//!    the position vector and the step's log row, and
//! 4. **recomputes** per-node token occupancy at the step boundary, *after*
//!    all moves have committed.
//!
//! Step 4 is what makes [`WalkStats::node_token_peaks`] a pure function of
//! the walk set: peaks are synchronous step-boundary occupancies, invariant
//! under any permutation of the input specs. (A per-token stepper observes
//! transient occupancies mid-step — whether a peak is recorded then depends
//! on whether an arriving token is processed before or after a departing
//! one, i.e. on spec order.)
//!
//! Grouping iterates occupied nodes in ascending id order and orders each
//! group longest-remaining-walk first; tokens that tie are exchangeable, so
//! the multiset of `(position, remaining)` pairs — and with it every
//! statistic — evolves identically under spec permutation, while the full
//! run stays byte-deterministic for a fixed spec order and seed.
//!
//! # Two entry points, one draw loop
//!
//! [`run_parallel_walks`] records every walk's keys, the per-node peaks and
//! the per-step costs. [`run_walk_ends`] is for callers that read only
//! where equal-length walks end and what they cost (the router's
//! preparation walk, portal discovery): it records nothing but the ends.
//! Both step one dense current-position vector through the same
//! counting-sort grouping, the same admission pass and the same draw loop
//! — only the commit of a drawn move differs — so for equal-length specs
//! their ends, rounds, traversals and the RNG state afterwards are
//! byte-identical (`tests/walk_properties.rs` checks the endpoint call
//! against the full engine on random graphs, kinds, start sets and
//! lengths). [`run_correlated_walks`] shares the grouping, the positions,
//! the log and the admission pass and draws its own round-robin deal.
//!
//! # Arena layout
//!
//! A run keeps one step-major key log: row `s` holds every walk's
//! *directed edge key* at step `s`, `edge·2 + dir` (`dir = 0` iff the
//! traversal leaves the edge's first endpoint), or [`STAY_KEY`] for a walk
//! that stayed put or has already finished. Rows are opened one per step,
//! all `STAY_KEY`, and a committed move writes its walk's entry in the
//! current row, which stays cache-resident while the step draws. Positions
//! are not logged: the engine steps the dense position vector, the
//! grouping reads it, and it ends as the walks' ends. A walk-major log
//! (positions and keys with a stride of about `steps` per walk) writes
//! scattered cache lines every step: on the level-0 spec shape (n = 256,
//! 24 576 lazy walks of 77 steps) it took 31–38 ns per walk-step against
//! 17–26 ns for this layout (DESIGN.md §2b).
//!
//! [`Trajectory`] is a view over the log: the start, the end and the
//! walk's strided column of keys; [`Trajectory::positions`] re-derives the
//! visited nodes from the start and the keys. The Lemma 2.5 reverse/replay
//! accounting ([`ParallelWalkRun::replay_rounds`],
//! [`ParallelWalkRun::reverse_rounds`]) is a view over the forward log,
//! one row per step, through the same flat `loads`/`touched` counting
//! pass.

use crate::WalkKind;
use amt_graphs::{EdgeId, Graph, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// Specification of one walk: where it starts and how many steps it takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkSpec {
    /// Starting node.
    pub start: NodeId,
    /// Number of steps (lazy steps that stay put still count).
    pub steps: u32,
}

/// Sentinel in the key log: the walk stayed put that step, or had finished.
pub const STAY_KEY: u32 = u32::MAX;

/// The step-major key log of a parallel-walk run.
///
/// Row `s` holds every walk's directed key at step `s` (see the module
/// docs for the layout); the starts and ends are kept per walk, and there
/// is no position log. [`WalkArena::traj`] hands out [`Trajectory`] views
/// over the log. Equality is byte-equality of the recorded walks, which
/// the determinism suites pin across repeat runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkArena {
    /// Directed edge key per `(step, walk)` (`edge·2 + dir`), one row of
    /// `walk_count()` keys per step; [`STAY_KEY`] for stay-steps and for
    /// walks that have finished.
    keys: Vec<u32>,
    /// Start node per walk, in spec order.
    starts: Vec<u32>,
    /// End node per walk, in spec order.
    ends: Vec<u32>,
    /// Global synchronous step count (the longest spec).
    steps: u32,
    /// Declared steps per walk, in spec order.
    walk_steps: Vec<u32>,
    /// Size of the directed-edge key space (`2 · edge_count`).
    directed_keys: usize,
}

impl WalkArena {
    /// Number of recorded walks.
    pub fn walk_count(&self) -> usize {
        self.walk_steps.len()
    }

    /// The global synchronous step count (the longest spec).
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Every walk's directed key at step `s`, in spec order.
    fn row(&self, s: usize) -> &[u32] {
        let w = self.walk_count();
        &self.keys[s * w..(s + 1) * w]
    }

    /// The directed edge key `walk` traversed at step `s`, or [`STAY_KEY`]
    /// (also for every step after the walk's declared length).
    pub fn edge_key(&self, walk: usize, s: usize) -> u32 {
        self.row(s)[walk]
    }

    /// View of one walk, trimmed to its declared length.
    pub fn traj(&self, walk: usize) -> Trajectory<'_> {
        Trajectory {
            start: NodeId(self.starts[walk]),
            end: NodeId(self.ends[walk]),
            // With no steps the log is empty, and so is every column.
            log: &self.keys[walk.min(self.keys.len())..],
            stride: self.walk_count(),
            steps: self.walk_steps[walk] as usize,
        }
    }
}

/// A view of one recorded walk inside a [`WalkArena`]: its start, its end
/// and its column of the step-major key log.
///
/// Traversals are exposed per step as [`Trajectory::edge`] (`None` = the
/// walk stayed put) or as directed keys compatible with the embedding
/// crate's `dir_key` convention; [`Trajectory::positions`] re-derives the
/// visited nodes from the start and the keys. Trajectories are what the
/// paper's constructions "run backwards": the reverse traversal visits the
/// same edges in reverse order.
#[derive(Clone, Copy)]
pub struct Trajectory<'a> {
    start: NodeId,
    end: NodeId,
    /// The arena's log from this walk's step-0 key on; its key at step `s`
    /// is `log[s · stride]`.
    log: &'a [u32],
    stride: usize,
    steps: usize,
}

impl<'a> Trajectory<'a> {
    /// The walk's starting node.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The walk's final node.
    pub fn end(&self) -> NodeId {
        self.end
    }

    /// Number of steps this walk declared.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The raw key per step ([`STAY_KEY`] = stayed), length [`steps`].
    ///
    /// [`steps`]: Trajectory::steps
    fn keys(&self) -> impl Iterator<Item = u32> + 'a {
        self.log
            .iter()
            .step_by(self.stride.max(1))
            .take(self.steps)
            .copied()
    }

    /// The edge traversed at step `s`, or `None` if the walk stayed put.
    pub fn edge(&self, s: usize) -> Option<EdgeId> {
        assert!(s < self.steps, "step {s} beyond the walk's {}", self.steps);
        let k = self.log[s * self.stride];
        (k != STAY_KEY).then_some(EdgeId(k >> 1))
    }

    /// Per-step traversed edges (`None` = stayed), length [`steps`].
    ///
    /// [`steps`]: Trajectory::steps
    pub fn edges(&self) -> impl Iterator<Item = Option<EdgeId>> + 'a {
        self.keys()
            .map(|k| (k != STAY_KEY).then_some(EdgeId(k >> 1)))
    }

    /// The walk as directed edge keys `(edge << 1) | dir`, skipping
    /// stay-steps, where `dir = 0` iff the traversal leaves the edge's
    /// first endpoint — bit-compatible with `amt_embedding::dir_key`.
    pub fn dir_keys(&self) -> impl Iterator<Item = u64> + 'a {
        self.keys().filter(|&k| k != STAY_KEY).map(u64::from)
    }

    /// The node the walk sits at after each step, its start first
    /// (`steps() + 1` entries), re-derived from the start and the keys of
    /// `g`, the graph the walk ran on: a key with `dir = 0` arrives at its
    /// edge's second endpoint, one with `dir = 1` at the first.
    pub fn positions(&self, g: &'a Graph) -> impl Iterator<Item = NodeId> + 'a {
        let mut at = self.start;
        std::iter::once(at).chain(self.keys().map(move |k| {
            if k != STAY_KEY {
                let (a, b) = g.endpoints(EdgeId(k >> 1));
                at = if k & 1 == 0 { b } else { a };
            }
            at
        }))
    }
}

impl std::fmt::Debug for Trajectory<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trajectory")
            .field("start", &self.start)
            .field("end", &self.end)
            .field("keys", &self.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Measured statistics of a parallel-walk execution.
#[derive(Clone, Debug, Default)]
pub struct WalkStats {
    /// Number of synchronous walk steps performed (the longest spec).
    pub steps: u32,
    /// Measured CONGEST rounds: `Σ_s max(1, max directed-edge load at s)`.
    pub rounds: u64,
    /// Per-step phase costs (each `max(1, max directed-edge load)`).
    pub per_step_rounds: Vec<u32>,
    /// Peak number of tokens resident at each node over all step
    /// boundaries (the quantity bounded by Lemma 2.4 as
    /// `O(k·d(v) + log n)`). Occupancy is counted *synchronously*, after
    /// every token of a step has moved, so the peaks are a pure function
    /// of the walk set — invariant under permutation of the input specs.
    pub node_token_peaks: Vec<u32>,
    /// Total edge traversals (excludes stay-steps).
    pub traversals: u64,
}

impl WalkStats {
    /// Largest per-node token peak.
    pub fn max_node_tokens(&self) -> u32 {
        self.node_token_peaks.iter().copied().max().unwrap_or(0)
    }
}

/// A completed parallel-walk execution: all trajectories plus measured
/// costs.
#[derive(Clone, Debug)]
pub struct ParallelWalkRun {
    /// The step-major key log, one walk per input spec, in order.
    pub arena: WalkArena,
    /// Measured scheduling statistics.
    pub stats: WalkStats,
}

impl ParallelWalkRun {
    /// Number of walks (== number of input specs).
    pub fn len(&self) -> usize {
        self.arena.walk_count()
    }

    /// Whether the run recorded no walks.
    pub fn is_empty(&self) -> bool {
        self.arena.walk_count() == 0
    }

    /// Zero-copy view of walk `i`'s trajectory.
    pub fn trajectory(&self, i: usize) -> Trajectory<'_> {
        self.arena.traj(i)
    }

    /// Zero-copy views of all trajectories, in spec order.
    pub fn trajectories(&self) -> impl ExactSizeIterator<Item = Trajectory<'_>> + '_ {
        (0..self.len()).map(|i| self.arena.traj(i))
    }

    /// Round cost of running all the walks backwards to their sources
    /// (identical loads traversed in reverse order, hence identical cost).
    pub fn reverse_rounds(&self) -> u64 {
        self.stats.rounds
    }

    /// Measured round cost of re-running only `subset` of the walks
    /// (forward or backward): per step, the max directed-edge load induced
    /// by the chosen trajectories. Every step is charged
    /// `max(1, max load)`, as in the forward run, so a step in which none
    /// of them moves still costs one round and `replay_rounds(&[])` equals
    /// the step count; the overlay builders' round totals include it.
    ///
    /// A view over the forward log, one row per step: the arena stores the
    /// same directed keys the forward pass admitted against, so replaying
    /// everything reproduces [`WalkStats::rounds`] exactly.
    pub fn replay_rounds(&self, subset: &[usize]) -> u64 {
        let mut admission = Admission::new(self.arena.directed_keys);
        (0..self.stats.steps as usize)
            .map(|s| {
                let row = self.arena.row(s);
                for &i in subset {
                    let key = row[i];
                    if key != STAY_KEY {
                        admission.admit(key as usize);
                    }
                }
                u64::from(admission.close_phase())
            })
            .sum()
    }
}

/// The counting-sort grouping of a step's tokens by current node (module
/// docs, step 1), shared by every entry point.
struct Grouping {
    /// Per-node counter, then placement cursor, of the counting sort;
    /// zeroed again after every step via `occupied`.
    counts: Vec<u32>,
    /// Occupied nodes this step, ascending after the sort.
    occupied: Vec<u32>,
    /// Prefix-sum group offsets into `order`, one per occupied node + 1.
    group_start: Vec<u32>,
    /// Active walk ids grouped by current node.
    order: Vec<u32>,
}

impl Grouping {
    fn new(nodes: usize, walks: usize) -> Self {
        Grouping {
            counts: vec![0u32; nodes],
            occupied: Vec::new(),
            group_start: Vec::new(),
            order: vec![0u32; walks],
        }
    }

    /// Groups the `active` walks by their current node `pos(walk)`: one
    /// counting pass, a pass for the ascending occupied list and the group
    /// offsets, one placement pass. Afterwards `occupied` lists the
    /// occupied nodes in ascending order and
    /// `order[group_start[j]..group_start[j+1]]` holds the walks at
    /// `occupied[j]`, in `active` order.
    ///
    /// The occupied list comes from one branch-free scan of all `n`
    /// counters or from sorting the occupied nodes of the `k` tokens,
    /// whichever is cheaper: the scan once `k·bitlen(k) ≥ 1.5·n`, where
    /// `bitlen(k) ≈ log₂ k + 1` is the length of `k` in binary. Timed on
    /// uniformly placed tokens, the two cost the same at `k/n` ≈ 0.47 for
    /// n = 32, 0.25 for n = 256 and 0.14 for n = 4096; the rule switches
    /// at 0.38, 0.25 and 0.15 (DESIGN.md §2b). Both give the same grouping.
    fn group(
        &mut self,
        active: impl ExactSizeIterator<Item = u32> + Clone,
        pos: impl Fn(u32) -> u32,
    ) {
        let k = active.len();
        let bitlen = (usize::BITS - k.leading_zeros()) as usize;
        let dense = 2 * k * bitlen >= 3 * self.counts.len();
        self.group_by(active, pos, dense);
    }

    /// [`Grouping::group`] with the occupied list found by the counter
    /// scan (`dense`) or by sorting.
    fn group_by(
        &mut self,
        active: impl Iterator<Item = u32> + Clone,
        pos: impl Fn(u32) -> u32,
        dense: bool,
    ) {
        self.occupied.clear();
        self.group_start.clear();
        self.group_start.push(0);
        let nodes = self.counts.len();
        if dense {
            for wid in active.clone() {
                self.counts[pos(wid) as usize] += 1;
            }
            self.occupied.resize(nodes, 0);
            self.group_start.resize(nodes + 1, 0);
            let (mut len, mut cursor) = (0usize, 0u32);
            for v in 0..nodes {
                let c = self.counts[v];
                self.occupied[len] = v as u32;
                self.counts[v] = cursor;
                cursor += c;
                self.group_start[len + 1] = cursor;
                len += usize::from(c != 0);
            }
            self.occupied.truncate(len);
            self.group_start.truncate(len + 1);
        } else {
            for wid in active.clone() {
                let v = pos(wid) as usize;
                if self.counts[v] == 0 {
                    self.occupied.push(v as u32);
                }
                self.counts[v] += 1;
            }
            self.occupied.sort_unstable();
            let mut cursor = 0u32;
            for &v in &self.occupied {
                let c = self.counts[v as usize];
                self.counts[v as usize] = cursor;
                cursor += c;
                self.group_start.push(cursor);
            }
        }
        for wid in active {
            let v = pos(wid) as usize;
            self.order[self.counts[v] as usize] = wid;
            self.counts[v] += 1;
        }
        if dense {
            // The scan wrote a cursor into every counter.
            self.counts.fill(0);
        } else {
            for &v in &self.occupied {
                self.counts[v as usize] = 0;
            }
        }
    }

    /// The walks resident at `occupied[j]`, in group order.
    fn members(&self, j: usize) -> &[u32] {
        &self.order[self.group_start[j] as usize..self.group_start[j + 1] as usize]
    }
}

/// The flat `loads`/`touched` admission pass (module docs, step 3), shared
/// by every entry point and by the replay accounting: one phase's
/// directed-edge loads, reset sparsely after the phase.
struct Admission {
    /// Directed-edge loads of the current phase.
    loads: Vec<u32>,
    /// Keys admitted this phase (repeats included), for the sparse reset.
    touched: Vec<u32>,
    /// Largest load of the current phase.
    max_load: u32,
}

impl Admission {
    fn new(directed_keys: usize) -> Self {
        Admission {
            loads: vec![0u32; directed_keys],
            touched: Vec::new(),
            max_load: 0,
        }
    }

    /// Admits one traversal of directed edge `key` this phase.
    #[inline]
    fn admit(&mut self, key: usize) {
        // Pushed on every admission, not only a key's first: the reset is
        // idempotent, and the push costs less than the branch it replaces.
        self.touched.push(key as u32);
        self.loads[key] += 1;
        self.max_load = self.max_load.max(self.loads[key]);
    }

    /// Ends the phase: returns its cost `max(1, max directed-edge load)` —
    /// a phase in which nothing moves still takes its round — and resets
    /// the counters.
    fn close_phase(&mut self) -> u32 {
        for &k in &self.touched {
            self.loads[k as usize] = 0;
        }
        self.touched.clear();
        std::mem::take(&mut self.max_load).max(1)
    }
}

/// The trajectory engines' bookkeeping beyond grouping and admission: the
/// longest-first active prefix, the dense positions, the key log and the
/// step-boundary occupancy (module docs, step 4).
struct BatchScratch {
    /// Walk ids ordered longest-spec-first (stable), so the active set at
    /// any step is a prefix and groups order longest-remaining first.
    by_steps: Vec<u32>,
    /// Number of active walks at step `s` (a prefix length of `by_steps`).
    active_at: Vec<u32>,
    grouping: Grouping,
    walks: Walks,
    admission: Admission,
}

/// The walks as the engine steps them: where each sits now, the key log
/// so far and the step-boundary token occupancy.
struct Walks {
    /// Current node per walk; finished walks keep their final position.
    pos: Vec<u32>,
    /// The step-major key log, one row of `pos.len()` keys per step begun.
    log: Vec<u32>,
    /// Token occupancy per node (all walks; finished walks stay counted
    /// at their final position, as resident tokens).
    node_tokens: Vec<u32>,
    /// Running step-boundary maxima of `node_tokens`.
    node_peaks: Vec<u32>,
    /// Nodes that gained tokens this step (duplicates allowed).
    arrivals: Vec<u32>,
}

impl BatchScratch {
    fn new(g: &Graph, specs: &[WalkSpec], steps: u32) -> Self {
        let mut by_steps: Vec<u32> = (0..specs.len() as u32).collect();
        by_steps.sort_by_key(|&i| std::cmp::Reverse(specs[i as usize].steps));
        let active_at = (0..steps)
            .map(|s| by_steps.partition_point(|&i| specs[i as usize].steps > s) as u32)
            .collect();
        let mut node_tokens = vec![0u32; g.len()];
        for s in specs {
            node_tokens[s.start.index()] += 1;
        }
        BatchScratch {
            // Allocated first: the order moves where glibc places the
            // build's long-lived slabs among the freed walk buffers. Over
            // seeds 1–8, `paper_build_route` peak RSS read 18.4–24.5 MB
            // (median 22.0) this way and 20.6–24.4 MB (median 23.8) with
            // the admission counters allocated last.
            admission: Admission::new(2 * g.edge_count()),
            by_steps,
            active_at,
            grouping: Grouping::new(g.len(), specs.len()),
            walks: Walks {
                pos: specs.iter().map(|s| s.start.0).collect(),
                log: Vec::with_capacity(specs.len() * steps as usize),
                node_peaks: node_tokens.clone(),
                node_tokens,
                arrivals: Vec::new(),
            },
        }
    }

    /// Opens step `s`'s log row, every walk staying until its move is
    /// committed, and groups the walks active at `s` by position.
    fn begin_step(&mut self, s: u32) {
        let walks = &mut self.walks;
        walks
            .log
            .resize(walks.log.len() + walks.pos.len(), STAY_KEY);
        let active = self.active_at[s as usize] as usize;
        let pos = &walks.pos;
        self.grouping
            .group(self.by_steps[..active].iter().copied(), |wid| {
                pos[wid as usize]
            });
    }

    /// Closes step `s`: folds its arrivals into the peaks and records its
    /// phase cost.
    fn end_step(&mut self, per_step_rounds: &mut Vec<u32>) {
        self.walks.commit_boundary();
        per_step_rounds.push(self.admission.close_phase());
    }

    /// The finished run: the log becomes the arena, the positions its ends.
    fn finish(
        self,
        g: &Graph,
        specs: &[WalkSpec],
        steps: u32,
        per_step_rounds: Vec<u32>,
        traversals: u64,
    ) -> ParallelWalkRun {
        let rounds = per_step_rounds.iter().map(|&r| u64::from(r)).sum();
        let Walks {
            pos,
            log,
            node_peaks,
            ..
        } = self.walks;
        ParallelWalkRun {
            arena: WalkArena {
                keys: log,
                starts: specs.iter().map(|s| s.start.0).collect(),
                ends: pos,
                steps,
                walk_steps: specs.iter().map(|s| s.steps).collect(),
                directed_keys: 2 * g.edge_count(),
            },
            stats: WalkStats {
                steps,
                rounds,
                per_step_rounds,
                node_token_peaks: node_peaks,
                traversals,
            },
        }
    }
}

impl Walks {
    /// Records one committed traversal `from → next` of walk `wid` over
    /// directed key `key` into the current log row, the positions and the
    /// occupancy counters.
    #[inline]
    fn commit_move(&mut self, wid: u32, from: u32, next: NodeId, key: usize) {
        let row = self.log.len() - self.pos.len();
        self.log[row + wid as usize] = key as u32;
        self.pos[wid as usize] = next.0;
        self.node_tokens[from as usize] -= 1;
        self.node_tokens[next.index()] += 1;
        self.arrivals.push(next.0);
    }

    /// Step-boundary accounting: folds this step's arrivals into the
    /// peaks *after* every move committed (order-independent).
    fn commit_boundary(&mut self) {
        for &a in &self.arrivals {
            let a = a as usize;
            if self.node_tokens[a] > self.node_peaks[a] {
                self.node_peaks[a] = self.node_tokens[a];
            }
        }
        self.arrivals.clear();
    }
}

/// Directed key of `edge` traversed out of `from`: `edge·2 + dir` with
/// `dir = 0` iff `from` is the edge's first endpoint (self-loops always
/// key direction 0 — both half-edges leave the same node).
#[inline]
fn directed_key(g: &Graph, edge: EdgeId, from: NodeId) -> usize {
    edge.index() * 2 + usize::from(g.endpoints(edge).0 != from)
}

/// The draw loop of independent walks, the one definition both
/// [`run_parallel_walks`] and [`run_walk_ends`] step through: each
/// occupied node, in ascending id order, draws its group's transitions
/// with [`WalkKind::step`] in group order. Every move is admitted against
/// directed-edge capacity and handed to `commit` as
/// `(walk, from, to, directed key)`; a stay commits nothing. Returns the
/// step's traversals.
#[inline]
fn draw_step<R: Rng>(
    g: &Graph,
    kind: WalkKind,
    delta: usize,
    grouping: &Grouping,
    admission: &mut Admission,
    rng: &mut R,
    mut commit: impl FnMut(u32, NodeId, NodeId, usize),
) -> u64 {
    let mut traversals = 0u64;
    for (j, &v) in grouping.occupied.iter().enumerate() {
        let here = NodeId(v);
        for &wid in grouping.members(j) {
            if let Some((next, edge)) = kind.step(g, here, delta, rng) {
                let key = directed_key(g, edge, here);
                admission.admit(key);
                commit(wid, here, next, key);
                traversals += 1;
            }
        }
    }
    traversals
}

/// Runs all `specs` as independent walks of kind `kind`, step-synchronously
/// and batched per node, recording every walk's keys and measured round
/// costs.
///
/// Within a step, each occupied node (ascending id order) draws the
/// transitions of its resident active tokens as one batch; all moves
/// commit before occupancy is recounted at the step boundary. Statistics
/// are therefore invariant under permutation of `specs`, and the whole run
/// is byte-deterministic given the spec order and RNG state.
pub fn run_parallel_walks<R: Rng>(
    g: &Graph,
    kind: WalkKind,
    specs: &[WalkSpec],
    rng: &mut R,
) -> ParallelWalkRun {
    let delta = g.max_degree();
    let steps = specs.iter().map(|s| s.steps).max().unwrap_or(0);
    let mut sc = BatchScratch::new(g, specs, steps);
    let mut per_step_rounds = Vec::with_capacity(steps as usize);
    let mut traversals = 0u64;
    for s in 0..steps {
        sc.begin_step(s);
        let walks = &mut sc.walks;
        traversals += draw_step(
            g,
            kind,
            delta,
            &sc.grouping,
            &mut sc.admission,
            rng,
            |wid, here, next, key| walks.commit_move(wid, here.0, next, key),
        );
        sc.end_step(&mut per_step_rounds);
    }
    sc.finish(g, specs, steps, per_step_rounds, traversals)
}

/// Where a set of equal-length independent walks ended, and what running
/// them cost: the output of [`run_walk_ends`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkEnds {
    /// The node each walk ended at, in start order.
    pub ends: Vec<NodeId>,
    /// Measured CONGEST rounds: `Σ_s max(1, max directed-edge load at s)`,
    /// as [`WalkStats::rounds`].
    pub rounds: u64,
    /// Total edge traversals (excludes stay-steps).
    pub traversals: u64,
}

/// Runs one independent walk of `steps` steps from each of `starts` and
/// keeps only where they end: the entry point for callers that never read
/// a trajectory (the router's preparation walk, portal discovery).
///
/// It steps one current-position vector through the same grouping,
/// admission pass and draw loop as [`run_parallel_walks`] and records no
/// key log, peaks or per-step costs. For specs of equal length `steps` the two
/// are draw-for-draw identical: the ends equal the trajectories' ends,
/// `rounds` and `traversals` equal the run's statistics, and `rng` is left
/// in the same state. No starts means no steps, as with no specs.
pub fn run_walk_ends<R: Rng>(
    g: &Graph,
    kind: WalkKind,
    starts: &[NodeId],
    steps: u32,
    rng: &mut R,
) -> WalkEnds {
    let steps = if starts.is_empty() { 0 } else { steps };
    let delta = g.max_degree();
    let mut pos = starts.to_vec();
    let mut grouping = Grouping::new(g.len(), pos.len());
    let mut admission = Admission::new(2 * g.edge_count());
    let (mut rounds, mut traversals) = (0u64, 0u64);
    for _ in 0..steps {
        grouping.group(0..pos.len() as u32, |wid| pos[wid as usize].0);
        traversals += draw_step(
            g,
            kind,
            delta,
            &grouping,
            &mut admission,
            rng,
            |wid, _, next, _| pos[wid as usize] = next,
        );
        rounds += u64::from(admission.close_phase());
    }
    WalkEnds {
        ends: pos,
        rounds,
        traversals,
    }
}

/// Runs all `specs` as **correlated** walks: the paper's end-of-§2
/// optimization for `k = o(log n)` (deferred there to the full version).
///
/// Independent walks suffer an additive `log n` in the per-edge load (balls
/// in bins), making Lemma 2.5's bound `O((k + log n)·T)` instead of the
/// `k·T` lower bound. Correlation removes it: per step, the tokens moving
/// out of a node are matched to edges *round-robin over a random
/// permutation*, so each directed edge carries at most `⌈movers/d(v)⌉`
/// tokens — while each token's marginal transition stays exactly the lazy
/// (or 2Δ-regular) kernel, because the assignment is symmetric over edges.
/// Tokens are no longer independent, which is fine for every use in the
/// paper's constructions (they only need per-token marginals plus load
/// bounds).
///
/// Batched like [`run_parallel_walks`] (same grouping, same step-boundary
/// accounting, same invariances), with the per-node batch split into the
/// stay/move draws and the round-robin deal.
pub fn run_correlated_walks<R: Rng>(
    g: &Graph,
    kind: WalkKind,
    specs: &[WalkSpec],
    rng: &mut R,
) -> ParallelWalkRun {
    let delta = g.max_degree();
    let steps = specs.iter().map(|s| s.steps).max().unwrap_or(0);
    let mut sc = BatchScratch::new(g, specs, steps);
    let mut per_step_rounds = Vec::with_capacity(steps as usize);
    let mut traversals = 0u64;
    let mut movers: Vec<u32> = Vec::new();
    for s in 0..steps {
        sc.begin_step(s);
        for (j, &v) in sc.grouping.occupied.iter().enumerate() {
            let here = NodeId(v);
            let d = g.degree(here);
            let move_prob = match kind {
                WalkKind::Lazy => {
                    if d == 0 {
                        0.0
                    } else {
                        0.5
                    }
                }
                WalkKind::DeltaRegular => d as f64 / (2.0 * delta.max(1) as f64),
            };
            // Stay/move draws for the whole group, then the round-robin
            // deal of the movers over a shuffled slot order.
            movers.clear();
            movers.extend(
                sc.grouping
                    .members(j)
                    .iter()
                    .copied()
                    .filter(|_| move_prob > 0.0 && rng.random_bool(move_prob)),
            );
            if movers.is_empty() {
                continue;
            }
            movers.shuffle(rng);
            // Randomize which edges take the remainder tokens.
            let offset = rng.random_range(0..d);
            for (slot, &wid) in movers.iter().enumerate() {
                let port = (slot + offset) % d;
                let (next, edge) = g.neighbor_at(here, port);
                let key = directed_key(g, edge, here);
                sc.admission.admit(key);
                sc.walks.commit_move(wid, here.0, next, key);
                traversals += 1;
            }
        }
        sc.end_step(&mut per_step_rounds);
    }
    sc.finish(g, specs, steps, per_step_rounds, traversals)
}

/// Builds the standard spec set of Lemma 2.5: `k · d(v)` walks of `steps`
/// steps starting at every node `v` — `k · Σ_v d(v) = k · volume` specs in
/// total.
pub fn degree_proportional_specs(g: &Graph, k: usize, steps: u32) -> Vec<WalkSpec> {
    let mut specs = Vec::with_capacity(k * g.volume());
    for v in g.nodes() {
        for _ in 0..(k * g.degree(v)) {
            specs.push(WalkSpec { start: v, steps });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    /// Every walk's position at every step boundary, re-derived from its
    /// start and keys; finished walks sit at their end.
    fn boundary_positions(g: &Graph, run: &ParallelWalkRun) -> Vec<Vec<NodeId>> {
        run.trajectories()
            .map(|t| {
                let mut at: Vec<NodeId> = t.positions(g).collect();
                at.resize(run.stats.steps as usize + 1, t.end());
                at
            })
            .collect()
    }

    /// Synchronous occupancy recount from the re-derived positions: the
    /// specification `node_token_peaks` must satisfy.
    fn brute_force_peaks(g: &Graph, run: &ParallelWalkRun) -> Vec<u32> {
        let positions = boundary_positions(g, run);
        let mut peaks = vec![0u32; g.len()];
        for b in 0..=run.stats.steps as usize {
            let mut occ = vec![0u32; g.len()];
            for at in &positions {
                occ[at[b].index()] += 1;
            }
            for (p, &o) in peaks.iter_mut().zip(&occ) {
                *p = (*p).max(o);
            }
        }
        peaks
    }

    /// Checks that every trajectory of `run` is a walk on `g`: each move's
    /// edge joins consecutive re-derived positions, leaving from the first
    /// (the key's direction bit), and the last position is `end()`.
    fn assert_graph_walks(g: &Graph, run: &ParallelWalkRun) {
        for t in run.trajectories() {
            let at: Vec<NodeId> = t.positions(g).collect();
            assert_eq!(at.len(), t.steps() + 1);
            for (s, edge) in t.edges().enumerate() {
                match edge {
                    Some(e) => {
                        let (a, b) = g.endpoints(e);
                        assert!((a, b) == (at[s], at[s + 1]) || (a, b) == (at[s + 1], at[s]));
                    }
                    None => assert_eq!(at[s], at[s + 1]),
                }
            }
            assert_eq!(at.last(), Some(&t.end()));
        }
    }

    #[test]
    fn trajectories_have_declared_lengths() {
        let g = generators::hypercube(3);
        let specs = vec![
            WalkSpec {
                start: NodeId(0),
                steps: 5,
            },
            WalkSpec {
                start: NodeId(3),
                steps: 2,
            },
        ];
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert_eq!(run.trajectory(0).positions(&g).count(), 6);
        assert_eq!(run.trajectory(0).steps(), 5);
        assert_eq!(run.trajectory(1).positions(&g).count(), 3);
        assert_eq!(run.trajectory(1).edges().count(), 2);
        // The shorter walk's rows after its last step hold `STAY_KEY`.
        assert!((2..5).all(|s| run.arena.edge_key(1, s) == STAY_KEY));
        assert_eq!(run.stats.steps, 5);
    }

    #[test]
    fn trajectories_are_walks_on_the_graph() {
        let g = generators::torus_2d(4, 4);
        let specs = degree_proportional_specs(&g, 1, 8);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert_graph_walks(&g, &run);
    }

    #[test]
    fn token_conservation() {
        let g = generators::ring(12);
        let specs = degree_proportional_specs(&g, 2, 10);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert_eq!(run.len(), specs.len());
        // Every trajectory ends somewhere on the graph.
        for t in run.trajectories() {
            assert!((t.end().index()) < g.len());
        }
        // Total occupancy at every boundary is the number of walks.
        let total: u32 = run.stats.node_token_peaks.iter().sum();
        assert!(total >= specs.len() as u32);
    }

    #[test]
    fn rounds_at_least_steps_and_bounded_by_lemma() {
        // Lemma 2.5: O((k + log n)·T) rounds for k·d(v) walks of length T.
        let g = generators::random_regular(128, 6, &mut rng()).unwrap();
        let k = 4;
        let t_len = 20u32;
        let specs = degree_proportional_specs(&g, k, t_len);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert!(run.stats.rounds >= u64::from(t_len));
        let n = g.len() as f64;
        let bound = 4.0 * (k as f64 + n.log2()) * f64::from(t_len);
        assert!(
            (run.stats.rounds as f64) < bound,
            "rounds {} above Lemma 2.5 bound {bound}",
            run.stats.rounds
        );
    }

    #[test]
    fn node_token_peaks_match_lemma_2_4() {
        // Peak tokens per node should be O(k·d(v) + log n).
        let g = generators::random_regular(256, 4, &mut rng()).unwrap();
        let k = 3;
        let specs = degree_proportional_specs(&g, k, 15);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        let logn = (g.len() as f64).log2();
        for v in g.nodes() {
            let peak = run.stats.node_token_peaks[v.index()] as f64;
            let bound = 5.0 * (k as f64 * g.degree(v) as f64 + logn);
            assert!(peak <= bound, "node {v:?} peak {peak} above {bound}");
        }
    }

    #[test]
    fn node_token_peaks_are_synchronous_occupancy() {
        let g = generators::random_regular(64, 4, &mut rng()).unwrap();
        let mut specs = degree_proportional_specs(&g, 2, 12);
        // Heterogeneous lengths exercise the padding path too.
        for (i, s) in specs.iter_mut().enumerate() {
            if i % 3 == 0 {
                s.steps = 5;
            }
        }
        for run in [
            run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng()),
            run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng()),
        ] {
            assert_eq!(run.stats.node_token_peaks, brute_force_peaks(&g, &run));
        }
    }

    #[test]
    fn node_token_peaks_invariant_under_spec_permutation() {
        let g = generators::random_regular(48, 4, &mut rng()).unwrap();
        let mut specs = degree_proportional_specs(&g, 2, 10);
        for (i, s) in specs.iter_mut().enumerate() {
            s.steps = 4 + (i % 7) as u32;
        }
        let fwd = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(3));
        let mut permuted = specs.clone();
        permuted.reverse();
        permuted.rotate_left(11);
        let rev = run_parallel_walks(&g, WalkKind::Lazy, &permuted, &mut StdRng::seed_from_u64(3));
        assert_eq!(fwd.stats.node_token_peaks, rev.stats.node_token_peaks);
        assert_eq!(fwd.stats.per_step_rounds, rev.stats.per_step_rounds);
        assert_eq!(fwd.stats.rounds, rev.stats.rounds);
        assert_eq!(fwd.stats.traversals, rev.stats.traversals);
    }

    #[test]
    fn delta_regular_walks_uniformize_endpoints() {
        // On a star, lazy-walk endpoints pile on the center; 2Δ-regular
        // endpoints approach uniform.
        let n = 16;
        let edges: Vec<_> = (1..n).map(|i| (0usize, i)).collect();
        let g = amt_graphs::Graph::from_edges(n, &edges).unwrap();
        let specs: Vec<_> = (0..2000)
            .map(|i| WalkSpec {
                start: NodeId((i % n) as u32),
                steps: 120,
            })
            .collect();
        let run = run_parallel_walks(&g, WalkKind::DeltaRegular, &specs, &mut rng());
        let mut counts = vec![0usize; n];
        for t in run.trajectories() {
            counts[t.end().index()] += 1;
        }
        let expect = 2000.0 / n as f64;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.4 * expect && (c as f64) < 2.5 * expect,
                "node {v} got {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn replay_cost_of_subset_is_cheaper() {
        let g = generators::hypercube(5);
        let specs = degree_proportional_specs(&g, 2, 12);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        let all: Vec<usize> = (0..specs.len()).collect();
        let some: Vec<usize> = (0..specs.len()).step_by(10).collect();
        assert!(run.replay_rounds(&some) <= run.replay_rounds(&all));
        assert_eq!(run.replay_rounds(&all), run.stats.rounds);
        assert_eq!(run.reverse_rounds(), run.stats.rounds);
    }

    #[test]
    fn replay_of_everything_matches_for_correlated_walks_too() {
        let g = generators::random_regular(64, 4, &mut rng()).unwrap();
        let specs = degree_proportional_specs(&g, 2, 14);
        let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        let all: Vec<usize> = (0..specs.len()).collect();
        assert_eq!(run.replay_rounds(&all), run.stats.rounds);
    }

    #[test]
    fn correlated_walks_are_valid_graph_walks() {
        let g = generators::torus_2d(5, 5);
        let specs = degree_proportional_specs(&g, 2, 10);
        let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert!(run.trajectories().all(|t| t.steps() == 10));
        assert_graph_walks(&g, &run);
    }

    #[test]
    fn correlated_walks_remove_the_additive_log_term() {
        // k = 1: independent walks pay Θ(log n) per step on some edge;
        // correlated walks pay ⌈movers/d⌉ ≤ small constant.
        let g = generators::random_regular(512, 6, &mut rng()).unwrap();
        let t_len = 25u32;
        let specs = degree_proportional_specs(&g, 1, t_len);
        let ind = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        let cor = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert!(
            cor.stats.rounds * 2 <= ind.stats.rounds,
            "correlated {} should be well below independent {}",
            cor.stats.rounds,
            ind.stats.rounds
        );
        // And close to the k·T lower bound (k = 1 ⇒ ≈ 2T with laziness).
        assert!(cor.stats.rounds <= 3 * u64::from(t_len));
    }

    #[test]
    fn correlated_marginals_match_the_lazy_kernel() {
        // Endpoint distribution of correlated walks ≈ stationary (degree-
        // proportional), same as independent walks.
        let g = generators::random_regular(64, 4, &mut rng()).unwrap();
        let specs = degree_proportional_specs(&g, 8, 60);
        let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        let mut counts = vec![0usize; g.len()];
        for t in run.trajectories() {
            counts[t.end().index()] += 1;
        }
        let expect = specs.len() as f64 / g.len() as f64;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.4 * expect && (c as f64) < 2.0 * expect,
                "node {v}: {c} endpoints, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn correlated_stay_fraction_is_marginal() {
        let g = generators::ring(32);
        let specs = degree_proportional_specs(&g, 4, 40);
        let run = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        let stays: usize = run
            .trajectories()
            .map(|t| t.edges().filter(Option::is_none).count())
            .sum();
        let total: usize = run.trajectories().map(|t| t.steps()).sum();
        let frac = stays as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.03, "lazy stay fraction {frac}");
    }

    #[test]
    fn replay_of_no_walks_costs_one_round_per_step() {
        // Every phase is charged max(1, load), idle or not; the overlay
        // builders' round totals are built on this.
        let g = generators::hypercube(3);
        let specs = degree_proportional_specs(&g, 1, 9);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng());
        assert_eq!(run.replay_rounds(&[]), 9);
        assert_eq!(run.stats.per_step_rounds.len(), 9);
        assert!(run.stats.per_step_rounds.iter().all(|&r| r >= 1));
    }

    #[test]
    fn walk_ends_of_no_starts_take_no_steps() {
        let g = generators::ring(4);
        let ends = run_walk_ends(&g, WalkKind::Lazy, &[], 12, &mut rng());
        assert_eq!(ends, WalkEnds::default());
    }

    #[test]
    fn grouping_is_a_stable_sort_by_node() {
        // Both ways of finding the occupied nodes against a brute-force
        // stable sort by node, from no tokens to several per node, reusing
        // one `Grouping` throughout so a counter left dirty by one call
        // shows up in the next.
        let mut r = rng();
        for nodes in [1usize, 7, 64, 300] {
            let mut grouping = Grouping::new(nodes, 4 * nodes);
            for k in [0, 1, nodes / 8, nodes / 4, nodes, 4 * nodes] {
                let pos: Vec<u32> = (0..4 * nodes)
                    .map(|_| r.random_range(0..nodes as u32))
                    .collect();
                let mut active: Vec<u32> = (0..4 * nodes as u32).collect();
                active.shuffle(&mut r);
                active.truncate(k);
                let mut order = active.clone();
                order.sort_by_key(|&wid| pos[wid as usize]);
                let mut occupied: Vec<u32> = order.iter().map(|&wid| pos[wid as usize]).collect();
                occupied.dedup();
                let mut group_start = vec![0u32];
                for &v in &occupied {
                    let c = order.iter().filter(|&&wid| pos[wid as usize] == v).count();
                    group_start.push(group_start.last().unwrap() + c as u32);
                }
                for dense in [false, true] {
                    grouping.group_by(active.iter().copied(), |wid| pos[wid as usize], dense);
                    let input = (nodes, k, dense);
                    assert_eq!(
                        grouping.occupied, occupied,
                        "occupied; (nodes, k, dense) = {input:?}"
                    );
                    assert_eq!(
                        grouping.group_start, group_start,
                        "offsets; (nodes, k, dense) = {input:?}"
                    );
                    assert_eq!(
                        &grouping.order[..k],
                        &order[..],
                        "order; (nodes, k, dense) = {input:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_specs_are_free() {
        let g = generators::ring(4);
        let run = run_parallel_walks(&g, WalkKind::Lazy, &[], &mut rng());
        assert_eq!(run.stats.rounds, 0);
        assert!(run.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 6);
        let a = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
        let b = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.arena, b.arena);
        assert_eq!(a.stats.rounds, b.stats.rounds);
        assert_eq!(a.stats.node_token_peaks, b.stats.node_token_peaks);
    }

    /// FNV fold of a run, walk by walk: every position (re-derived from
    /// the keys), then every key, then the rounds.
    fn arena_checksum(g: &Graph, run: &ParallelWalkRun) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for (w, at) in boundary_positions(g, run).iter().enumerate() {
            for v in at {
                mix(u64::from(v.0));
            }
            for s in 0..run.stats.steps as usize {
                mix(u64::from(run.arena.edge_key(w, s)));
            }
        }
        mix(run.stats.rounds);
        h
    }

    #[test]
    fn pinned_golden_run() {
        // Byte-identical trajectories and rounds for a fixed RNG draw
        // order: any change to the batch pipeline's draw order shows up
        // here before it silently shifts every downstream experiment.
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 1, 6);
        let ind = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
        let cor = run_correlated_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
        assert_eq!(
            (arena_checksum(&g, &ind), arena_checksum(&g, &cor)),
            (PINNED_INDEPENDENT, PINNED_CORRELATED),
            "pinned walk-engine goldens drifted (rounds: ind {} cor {})",
            ind.stats.rounds,
            cor.stats.rounds,
        );
    }

    const PINNED_INDEPENDENT: u64 = 8989026196319132395;
    const PINNED_CORRELATED: u64 = 10561238337262314686;
}
