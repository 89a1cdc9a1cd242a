//! Classic CONGEST building blocks, implemented as [`Protocol`]s and wrapped
//! in driver functions that return structured results plus measured
//! [`Metrics`].
//!
//! These are the standard tools the distributed-MST literature builds on
//! (flooding, BFS trees, convergecast, leader election, pipelined upcast);
//! the baselines in `amt-mst` and the seed dissemination of the hierarchical
//! construction are assembled from them.

use crate::{bits_for_value, Ctx, Metrics, Protocol, Result, RunConfig, Simulator};
use amt_graphs::{Graph, NodeId};

// ---------------------------------------------------------------------------
// Flooding broadcast
// ---------------------------------------------------------------------------

/// Flooding protocol: the source's value reaches every node.
struct Flood {
    value: Option<u64>,
    fresh: bool,
}

impl Protocol for Flood {
    type Message = u64;

    // Mail-driven: empty-inbox rounds are no-ops, so skipping is safe.
    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let (Some(v), true) = (self.value, self.fresh) {
            ctx.send_all(v);
            self.fresh = false;
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        for &(_, v) in inbox {
            if self.value.is_none() {
                self.value = Some(v);
                self.fresh = true;
            }
        }
        if self.fresh {
            ctx.send_all(self.value.expect("fresh implies value"));
            self.fresh = false;
        }
    }
}

/// One [`Flood`] per node, with `value` at `source`.
fn flood_fleet(g: &Graph, source: NodeId, value: u64) -> Vec<Flood> {
    g.nodes()
        .map(|v| Flood {
            value: (v == source).then_some(value),
            fresh: v == source,
        })
        .collect()
}

/// Floods `value` from `source` to all nodes.
///
/// Returns the per-node learned values (all equal to `value` on a connected
/// graph) and the measured metrics; round count is the eccentricity of the
/// source plus one quiescence-detection round.
pub fn broadcast(
    g: &Graph,
    source: NodeId,
    value: u64,
    seed: u64,
) -> Result<(Vec<Option<u64>>, Metrics)> {
    let mut sim = Simulator::new(g, flood_fleet(g, source, value), seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    Ok((sim.nodes().iter().map(|p| p.value).collect(), metrics))
}

// ---------------------------------------------------------------------------
// Distributed BFS tree
// ---------------------------------------------------------------------------

/// Result of distributed BFS-tree construction.
#[derive(Clone, Debug)]
pub struct DistBfsTree {
    /// The root the tree was grown from.
    pub root: NodeId,
    /// Parent of each node (`None` at the root / unreached nodes).
    pub parent: Vec<Option<NodeId>>,
    /// Port towards the parent, per node.
    pub parent_port: Vec<Option<usize>>,
    /// Ports towards children, per node.
    pub child_ports: Vec<Vec<usize>>,
    /// BFS depth (root = 0); `u32::MAX` when unreached.
    pub depth: Vec<u32>,
}

impl DistBfsTree {
    /// Height of the tree (max finite depth).
    pub fn height(&self) -> u32 {
        self.depth
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }
}

#[derive(Clone, Copy, Debug)]
enum BfsMsg {
    /// "I am at depth d; join me."
    Announce(u32),
    /// "You are my parent."
    Child,
}

impl crate::CongestMessage for BfsMsg {
    fn bit_width(&self) -> usize {
        match self {
            BfsMsg::Announce(d) => 1 + bits_for_value(u64::from(*d)),
            BfsMsg::Child => 1,
        }
    }
}

struct BfsNode {
    is_root: bool,
    depth: Option<u32>,
    parent_port: Option<usize>,
    child_ports: Vec<usize>,
    fresh: bool,
}

impl Protocol for BfsNode {
    type Message = BfsMsg;

    // Mail-driven: empty-inbox rounds are no-ops, so skipping is safe.
    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        if self.is_root {
            self.depth = Some(0);
            ctx.send_all(BfsMsg::Announce(0));
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[(usize, BfsMsg)]) {
        for &(port, msg) in inbox {
            match msg {
                BfsMsg::Announce(d) => {
                    if self.depth.is_none() {
                        self.depth = Some(d + 1);
                        self.parent_port = Some(port);
                        self.fresh = true;
                    }
                }
                BfsMsg::Child => self.child_ports.push(port),
            }
        }
        if self.fresh {
            self.fresh = false;
            let d = self.depth.expect("fresh implies depth");
            let parent = self.parent_port.expect("non-root joined via a port");
            for port in 0..ctx.degree() {
                if port == parent {
                    ctx.send(port, BfsMsg::Child);
                } else {
                    ctx.send(port, BfsMsg::Announce(d));
                }
            }
        }
    }
}

/// One [`BfsNode`] per node, rooted at `root`.
fn bfs_fleet(g: &Graph, root: NodeId) -> Vec<BfsNode> {
    g.nodes()
        .map(|v| BfsNode {
            is_root: v == root,
            depth: None,
            parent_port: None,
            child_ports: Vec::new(),
            fresh: false,
        })
        .collect()
}

/// Builds a BFS tree from `root` distributedly (≈ eccentricity + 1 rounds).
pub fn build_bfs_tree(g: &Graph, root: NodeId, seed: u64) -> Result<(DistBfsTree, Metrics)> {
    let mut sim = Simulator::new(g, bfs_fleet(g, root), seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    let parent: Vec<Option<NodeId>> = sim
        .nodes()
        .iter()
        .enumerate()
        .map(|(v, p)| {
            p.parent_port
                .map(|port| g.neighbor_at(NodeId::from(v), port).0)
        })
        .collect();
    let tree = DistBfsTree {
        root,
        parent,
        parent_port: sim.nodes().iter().map(|p| p.parent_port).collect(),
        child_ports: sim.nodes().iter().map(|p| p.child_ports.clone()).collect(),
        depth: sim
            .nodes()
            .iter()
            .map(|p| p.depth.unwrap_or(u32::MAX))
            .collect(),
    };
    Ok((tree, metrics))
}

// ---------------------------------------------------------------------------
// Convergecast (associative aggregation towards the root of a tree)
// ---------------------------------------------------------------------------

struct CastNode {
    parent_port: Option<usize>,
    pending_children: usize,
    acc: u64,
    combine: fn(u64, u64) -> u64,
    sent: bool,
}

impl Protocol for CastNode {
    type Message = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.try_report(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        for &(_, v) in inbox {
            self.acc = (self.combine)(self.acc, v);
            self.pending_children -= 1;
        }
        self.try_report(ctx);
    }
}

impl CastNode {
    fn try_report(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.pending_children == 0 && !self.sent {
            if let Some(port) = self.parent_port {
                ctx.send(port, self.acc);
            }
            self.sent = true;
        }
    }
}

/// Aggregates `values` towards `tree.root` with the associative `combine`
/// (e.g. `u64::min`, `u64::wrapping_add`); returns the root's aggregate.
/// Takes height-of-tree rounds.
pub fn convergecast(
    g: &Graph,
    tree: &DistBfsTree,
    values: &[u64],
    combine: fn(u64, u64) -> u64,
    seed: u64,
) -> Result<(u64, Metrics)> {
    let nodes = g
        .nodes()
        .map(|v| CastNode {
            parent_port: tree.parent_port[v.index()],
            pending_children: tree.child_ports[v.index()].len(),
            acc: values[v.index()],
            combine,
            sent: false,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    Ok((sim.nodes()[tree.root.index()].acc, metrics))
}

// ---------------------------------------------------------------------------
// Leader election by max-id flooding
// ---------------------------------------------------------------------------

/// Elects the maximum-id node by flooding; every node learns the leader.
/// Takes ≈ diameter rounds.
pub fn elect_leader(g: &Graph, seed: u64) -> Result<(NodeId, Metrics)> {
    struct Elect {
        best: u64,
        fresh: bool,
    }
    impl Protocol for Elect {
        type Message = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send_all(self.best);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
            for &(_, v) in inbox {
                if v > self.best {
                    self.best = v;
                    self.fresh = true;
                }
            }
            if self.fresh {
                self.fresh = false;
                ctx.send_all(self.best);
            }
        }
    }
    let nodes = g
        .nodes()
        .map(|v| Elect {
            best: v.0 as u64,
            fresh: false,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    let leader = NodeId::from(sim.nodes()[0].best as usize);
    debug_assert!(sim.nodes().iter().all(|p| p.best == leader.0 as u64));
    Ok((leader, metrics))
}

// ---------------------------------------------------------------------------
// Pipelined upcast over a tree
// ---------------------------------------------------------------------------

struct PipeNode {
    parent_port: Option<usize>,
    queue: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    collected: Vec<u64>,
}

impl Protocol for PipeNode {
    type Message = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.step(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        for &(_, v) in inbox {
            if self.parent_port.is_some() {
                self.queue.push(std::cmp::Reverse(v));
            } else {
                self.collected.push(v);
            }
        }
        self.step(ctx);
    }
}

impl PipeNode {
    fn step(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(port) = self.parent_port {
            if let Some(std::cmp::Reverse(v)) = self.queue.pop() {
                ctx.send(port, v);
            }
        }
    }
}

/// Streams every item to the root of `tree`, one item per edge per round,
/// smallest-first (the classic pipelining used by `O(D + √n)` MST
/// algorithms). Returns all items collected at the root, sorted.
///
/// Round count is ≈ height + (maximum number of items funnelled through a
/// single edge) — measured, not assumed.
pub fn pipelined_upcast(
    g: &Graph,
    tree: &DistBfsTree,
    items: Vec<Vec<u64>>,
    seed: u64,
) -> Result<(Vec<u64>, Metrics)> {
    let nodes = g
        .nodes()
        .map(|v| {
            let is_root = v == tree.root;
            PipeNode {
                parent_port: tree.parent_port[v.index()],
                queue: if is_root {
                    Default::default()
                } else {
                    items[v.index()]
                        .iter()
                        .map(|&x| std::cmp::Reverse(x))
                        .collect()
                },
                collected: if is_root {
                    items[v.index()].clone()
                } else {
                    Vec::new()
                },
            }
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    let mut collected = sim.nodes()[tree.root.index()].collected.clone();
    collected.sort_unstable();
    Ok((collected, metrics))
}

// ---------------------------------------------------------------------------
// Broadcast over a tree (downcast)
// ---------------------------------------------------------------------------

struct DownNode {
    child_ports: Vec<usize>,
    value: Option<u64>,
    fresh: bool,
}

impl Protocol for DownNode {
    type Message = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.push(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        for &(_, v) in inbox {
            if self.value.is_none() {
                self.value = Some(v);
                self.fresh = true;
            }
        }
        self.push(ctx);
    }
}

impl DownNode {
    fn push(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.fresh {
            self.fresh = false;
            let v = self.value.expect("fresh implies value");
            for &port in &self.child_ports {
                ctx.send(port, v);
            }
        }
    }
}

/// Pushes `value` from the root down `tree` to every node (height rounds).
pub fn tree_downcast(
    g: &Graph,
    tree: &DistBfsTree,
    value: u64,
    seed: u64,
) -> Result<(Vec<Option<u64>>, Metrics)> {
    let nodes = g
        .nodes()
        .map(|v| DownNode {
            child_ports: tree.child_ports[v.index()].clone(),
            value: (v == tree.root).then_some(value),
            fresh: v == tree.root,
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    Ok((sim.nodes().iter().map(|p| p.value).collect(), metrics))
}

// ---------------------------------------------------------------------------
// Composite primitives
// ---------------------------------------------------------------------------

/// Aggregates `values` with `combine` and informs **every** node of the
/// result: convergecast to the root of `tree`, then downcast. The classic
/// "global aggregate" building block (2·height rounds).
pub fn aggregate_to_all(
    g: &Graph,
    tree: &DistBfsTree,
    values: &[u64],
    combine: fn(u64, u64) -> u64,
    seed: u64,
) -> Result<(u64, Metrics)> {
    let (agg, m1) = convergecast(g, tree, values, combine, seed)?;
    let (learned, m2) = tree_downcast(g, tree, agg, seed ^ 0xA66)?;
    debug_assert!(learned.iter().all(|&v| v == Some(agg)));
    Ok((agg, m1.then(m2)))
}

/// Counts the nodes of the graph distributedly (leader election + BFS +
/// sum aggregation) — the standard way nodes learn `n` when it is not
/// given, priced honestly.
pub fn count_nodes(g: &Graph, seed: u64) -> Result<(u64, Metrics)> {
    let (leader, m1) = elect_leader(g, seed)?;
    let (tree, m2) = build_bfs_tree(g, leader, seed ^ 0xC0)?;
    let ones = vec![1u64; g.len()];
    let (n, m3) = aggregate_to_all(g, &tree, &ones, u64::wrapping_add, seed ^ 0xC1)?;
    Ok((n, m1.then(m2).then(m3)))
}

/// Informs every node of the maximum degree Δ (needed before running
/// 2Δ-regular walks when Δ is not globally known).
pub fn discover_max_degree(g: &Graph, seed: u64) -> Result<(u64, Metrics)> {
    let (leader, m1) = elect_leader(g, seed)?;
    let (tree, m2) = build_bfs_tree(g, leader, seed ^ 0xD0)?;
    let degrees: Vec<u64> = g.nodes().map(|v| g.degree(v) as u64).collect();
    let (delta, m3) = aggregate_to_all(g, &tree, &degrees, u64::max, seed ^ 0xD1)?;
    Ok((delta, m1.then(m2).then(m3)))
}

// ---------------------------------------------------------------------------
// Pipelined downcast over a tree
// ---------------------------------------------------------------------------

struct PipeDownNode {
    child_ports: Vec<usize>,
    queue: std::collections::VecDeque<u64>,
    received: Vec<u64>,
}

impl Protocol for PipeDownNode {
    type Message = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.step(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(usize, u64)]) {
        for &(_, v) in inbox {
            self.received.push(v);
            self.queue.push_back(v);
        }
        self.step(ctx);
    }
}

impl PipeDownNode {
    fn step(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(v) = self.queue.pop_front() {
            for &port in &self.child_ports {
                ctx.send(port, v);
            }
        }
    }
}

/// Streams `items` from the root down `tree` to every node, one item per
/// edge per round (the pipelined broadcast used after a centralized merge
/// decision). Returns the items received per node (root excluded) and the
/// measured metrics (≈ height + #items rounds).
pub fn pipelined_downcast(
    g: &Graph,
    tree: &DistBfsTree,
    items: Vec<u64>,
    seed: u64,
) -> Result<(Vec<Vec<u64>>, Metrics)> {
    let nodes = g
        .nodes()
        .map(|v| PipeDownNode {
            child_ports: tree.child_ports[v.index()].clone(),
            queue: if v == tree.root {
                items.iter().copied().collect()
            } else {
                Default::default()
            },
            received: Vec::new(),
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?;
    let metrics = sim.run(&RunConfig::default())?;
    Ok((
        sim.nodes().iter().map(|p| p.received.clone()).collect(),
        metrics,
    ))
}

// ---------------------------------------------------------------------------
// Reliability sublayer (ack/retransmit over faulty links)
// ---------------------------------------------------------------------------

pub mod reliable {
    //! Stop-and-wait ARQ over the fault-injected simulator.
    //!
    //! [`ReliableLink`] wraps a protocol's per-port traffic in
    //! sequence-numbered, checksummed [`Reliable`] frames: every data frame
    //! is retransmitted with exponential backoff until acknowledged (acks
    //! piggyback on reverse data traffic when possible), duplicates are
    //! filtered by sequence number, and a 4-bit XOR-fold checksum over the
    //! whole frame turns any single-bit corruption into a detected loss —
    //! which the retransmission then repairs.
    //!
    //! The overhead is accounted honestly: every frame pays the
    //! tag/seq/checksum/ack header bits on the wire, retransmissions and
    //! bare acks count as messages, and the round cost of timeouts shows up
    //! in the measured [`Metrics`].

    use super::{Ctx, Graph, Metrics, NodeId, Protocol, Result, RunConfig, Simulator};
    use crate::faults::FaultPlan;
    use crate::profile::{class, TrafficClass};
    use crate::CongestMessage;
    use std::collections::VecDeque;

    /// On-wire sequence numbers are 12 bits.
    const SEQ_BITS: u32 = 12;
    const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
    /// Payload field of a data frame (the rest of a 64-bit codeword after
    /// the header).
    const PAYLOAD_BITS: u32 = 34;

    /// XOR-fold of all nibbles of `x` (4-bit checksum): flipping any single
    /// bit of `x` flips exactly one bit of the fold.
    fn fold4(mut x: u64) -> u64 {
        x ^= x >> 32;
        x ^= x >> 16;
        x ^= x >> 8;
        x ^= x >> 4;
        x & 0xF
    }

    /// One ARQ frame.
    ///
    /// Wire layout (low bits first): `[tag:1][seq:12][check:4]`, then for
    /// data frames `[ack?:1][ack:12][payload:≤34]`. The checksum covers the
    /// entire frame (with the checksum field zeroed), so any single-bit
    /// flip is detected and the frame discarded — recovered by
    /// retransmission rather than delivered corrupt.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Reliable<M> {
        /// Payload frame, optionally piggybacking an ack of reverse traffic.
        Data {
            /// Sequence number of this frame (mod 2¹²).
            seq: u32,
            /// Piggybacked acknowledgement of the peer's data frame.
            ack: Option<u32>,
            /// The wrapped protocol message.
            payload: M,
        },
        /// Bare acknowledgement (when there is no reverse data to ride on).
        Ack {
            /// Sequence number being acknowledged.
            seq: u32,
        },
    }

    impl<M: CongestMessage> CongestMessage for Reliable<M> {
        fn bit_width(&self) -> usize {
            match self {
                // tag + seq + check.
                Reliable::Ack { .. } => 17,
                // tag + seq + check + ack-flag + ack field + payload.
                Reliable::Data { payload, .. } => 30 + payload.bit_width(),
            }
        }

        fn encode_bits(&self) -> Option<u64> {
            let mut bits = match self {
                Reliable::Ack { seq } => 1 | ((u64::from(*seq) & SEQ_MASK) << 1),
                Reliable::Data { seq, ack, payload } => {
                    let p = payload.encode_bits()?;
                    if p >= 1 << PAYLOAD_BITS {
                        return None;
                    }
                    let mut bits = (u64::from(*seq) & SEQ_MASK) << 1;
                    if let Some(a) = ack {
                        bits |= 1 << 17;
                        bits |= (u64::from(*a) & SEQ_MASK) << 18;
                    }
                    bits | (p << 30)
                }
            };
            bits |= fold4(bits) << 13;
            Some(bits)
        }

        fn decode_bits(bits: u64) -> Option<Self> {
            let check = (bits >> 13) & 0xF;
            let cleared = bits & !(0xFu64 << 13);
            if fold4(cleared) != check {
                return None;
            }
            let seq = ((bits >> 1) & SEQ_MASK) as u32;
            if bits & 1 == 1 {
                // Ack frames carry nothing above the checksum.
                (bits >> 17 == 0).then_some(Reliable::Ack { seq })
            } else {
                let payload = M::decode_bits(bits >> 30)?;
                let ack_field = ((bits >> 18) & SEQ_MASK) as u32;
                let ack = if (bits >> 17) & 1 == 1 {
                    Some(ack_field)
                } else if ack_field != 0 {
                    return None;
                } else {
                    None
                };
                Some(Reliable::Data { seq, ack, payload })
            }
        }
    }

    struct Inflight<M> {
        seq: u32,
        msg: M,
        next_retry: u64,
        attempts: u32,
    }

    struct PortState<M> {
        queue: VecDeque<M>,
        inflight: Option<Inflight<M>>,
        next_seq: u32,
        want: u32,
        pending_ack: Option<u32>,
        failed_after: Option<u32>,
    }

    impl<M> PortState<M> {
        fn new() -> Self {
            PortState {
                queue: VecDeque::new(),
                inflight: None,
                next_seq: 0,
                want: 0,
                pending_ack: None,
                failed_after: None,
            }
        }
    }

    /// Per-node stop-and-wait ARQ state over every port.
    ///
    /// A protocol owns one link, calls [`ReliableLink::send`] instead of
    /// `ctx.send`, feeds its inbox through [`ReliableLink::deliver`], and
    /// calls [`ReliableLink::pump`] once per round to emit (re)transmissions
    /// and acks. [`ReliableLink::idle`] is the local termination signal.
    pub struct ReliableLink<M> {
        ports: Vec<PortState<M>>,
        /// Base retransmission timeout in rounds (doubles per attempt).
        timeout: u64,
        /// Transmissions per frame before the port is declared failed.
        max_attempts: u32,
        /// Traffic class first transmissions of data frames are tagged
        /// with; retransmissions and bare acks use the shared
        /// [`class::REL_RETRANSMIT`] / [`class::REL_ACK`] classes.
        payload_class: TrafficClass,
        /// The round [`Self::pump`] last asked to be woken in (`0` =
        /// never), so an unchanged deadline is not requested twice.
        armed: u64,
    }

    impl<M: CongestMessage> ReliableLink<M> {
        /// A link over `degree` ports with the given base `timeout` (rounds
        /// before the first retransmission; doubles each attempt, capped at
        /// 16× the base) and `max_attempts` transmission budget per frame.
        ///
        /// # Give-up latency bound
        ///
        /// With effective base timeout `t = timeout.max(1)` and budget
        /// `A = max_attempts.max(1)`, the wait after the `a`-th
        /// transmission is `t << (a − 1).min(4)`, so a frame whose peer
        /// never acks is declared failed (visible through
        /// [`Self::failures`]) **exactly**
        ///
        /// ```text
        /// t · (2^min(A,5) − 1  +  16 · max(A − 5, 0))
        /// ```
        ///
        /// rounds after its first transmission: geometric up to the 16×
        /// backoff cap, then linear in `A` — never exponential. Healing
        /// drivers size their phase budgets against this bound; the
        /// `give_up_latency_is_exactly_the_documented_bound` test pins it
        /// for a grid of `(t, A)`.
        pub fn new(degree: usize, timeout: u64, max_attempts: u32) -> Self {
            ReliableLink {
                ports: (0..degree).map(|_| PortState::new()).collect(),
                timeout: timeout.max(1),
                max_attempts: max_attempts.max(1),
                payload_class: class::REL_PAYLOAD,
                armed: 0,
            }
        }

        /// Tags first transmissions of data frames with `class` instead of
        /// the default [`class::REL_PAYLOAD`], so the wrapping protocol's
        /// traffic shows up under its own name in a [`TrafficProfile`].
        ///
        /// [`TrafficProfile`]: crate::profile::TrafficProfile
        pub fn with_payload_class(mut self, class: TrafficClass) -> Self {
            self.payload_class = class;
            self
        }

        /// Queues `msg` for reliable delivery over `port`.
        pub fn send(&mut self, port: usize, msg: M) {
            self.ports[port].queue.push_back(msg);
        }

        /// Queues `msg` on every port.
        pub fn send_all(&mut self, msg: M) {
            for port in 0..self.ports.len() {
                self.ports[port].queue.push_back(msg.clone());
            }
        }

        /// Processes one round's inbox: consumes acks, filters duplicates,
        /// schedules acks for received data, and returns the fresh payloads
        /// in arrival order as `(port, message)`.
        pub fn deliver(&mut self, inbox: &[(usize, Reliable<M>)]) -> Vec<(usize, M)> {
            let mut fresh = Vec::new();
            for (port, frame) in inbox {
                let st = &mut self.ports[*port];
                match frame {
                    Reliable::Ack { seq } => {
                        if st.inflight.as_ref().is_some_and(|f| f.seq == *seq) {
                            st.inflight = None;
                        }
                    }
                    Reliable::Data { seq, ack, payload } => {
                        if let Some(a) = ack {
                            if st.inflight.as_ref().is_some_and(|f| f.seq == *a) {
                                st.inflight = None;
                            }
                        }
                        // Always (re-)ack: a duplicate means our previous
                        // ack was lost.
                        st.pending_ack = Some(*seq);
                        if *seq == st.want {
                            st.want = (st.want + 1) & SEQ_MASK as u32;
                            fresh.push((*port, payload.clone()));
                        }
                    }
                }
            }
            fresh
        }

        /// Emits at most one frame per port this round: a due
        /// retransmission, a new data frame, or a bare ack — data frames
        /// piggyback any pending ack.
        ///
        /// Afterwards nothing is queued behind a free port and no ack is
        /// owed, so until mail arrives the earliest in-flight retry
        /// deadline is the only round in which a port can act (retransmit
        /// or give up). `pump` arms a [`Ctx::wake_in`] timer for that
        /// round, which lets a [`Protocol::SPARSE_AWARE`] wrapper whose
        /// empty-inbox rounds only pump sleep until then (non-sparse
        /// protocols ignore the timer).
        pub fn pump(&mut self, ctx: &mut Ctx<'_, Reliable<M>>) {
            let round = ctx.round();
            for port in 0..self.ports.len() {
                let timeout = self.timeout;
                let max_attempts = self.max_attempts;
                let st = &mut self.ports[port];
                // Give up on a frame that exhausted its budget; the
                // protocol observes this through `failures`.
                if st
                    .inflight
                    .as_ref()
                    .is_some_and(|f| f.next_retry <= round && f.attempts >= max_attempts)
                {
                    let f = st.inflight.take().expect("checked above");
                    st.failed_after = Some(f.attempts);
                }
                if let Some(f) = &mut st.inflight {
                    if f.next_retry <= round {
                        f.attempts += 1;
                        // Exponential backoff, capped at 16× the base
                        // timeout so give-up latency stays bounded.
                        f.next_retry = round + (timeout << (f.attempts - 1).min(4));
                        let frame = Reliable::Data {
                            seq: f.seq,
                            ack: st.pending_ack.take(),
                            payload: f.msg.clone(),
                        };
                        ctx.send_classed(port, frame, class::REL_RETRANSMIT);
                        continue;
                    }
                } else if let Some(msg) = st.queue.pop_front() {
                    let seq = st.next_seq;
                    st.next_seq = (st.next_seq + 1) & SEQ_MASK as u32;
                    st.inflight = Some(Inflight {
                        seq,
                        msg: msg.clone(),
                        next_retry: round + timeout,
                        attempts: 1,
                    });
                    let frame = Reliable::Data {
                        seq,
                        ack: st.pending_ack.take(),
                        payload: msg,
                    };
                    ctx.send_classed(port, frame, self.payload_class);
                    continue;
                }
                if let Some(seq) = st.pending_ack.take() {
                    ctx.send_classed(port, Reliable::Ack { seq }, class::REL_ACK);
                }
            }
            let deadline = self
                .ports
                .iter()
                .filter_map(|st| st.inflight.as_ref().map(|f| f.next_retry))
                .min();
            if let Some(t) = deadline {
                let delta = t.saturating_sub(round).max(1);
                if round + delta != self.armed {
                    self.armed = round + delta;
                    ctx.wake_in(delta);
                }
            }
        }

        /// `true` when nothing is queued, in flight, or awaiting an ack —
        /// the local "all my traffic is settled" signal.
        pub fn idle(&self) -> bool {
            self.ports
                .iter()
                .all(|st| st.queue.is_empty() && st.inflight.is_none() && st.pending_ack.is_none())
        }

        /// Ports whose peer never acknowledged within the attempt budget,
        /// as `(port, attempts made)` — the detection signal for crashed
        /// neighbors.
        pub fn failures(&self) -> Vec<(usize, u32)> {
            self.ports
                .iter()
                .enumerate()
                .filter_map(|(p, st)| st.failed_after.map(|a| (p, a)))
                .collect()
        }

        /// `true` when `port` has exhausted its retransmission budget.
        pub fn port_failed(&self, port: usize) -> bool {
            self.ports[port].failed_after.is_some()
        }
    }

    /// Flooding broadcast over [`ReliableLink`]s: completes on any connected
    /// set of live nodes despite drops, corruption, delays, and crashes
    /// allowed by `plan`.
    pub(crate) struct ReliableFlood {
        pub(crate) value: Option<u64>,
        link: ReliableLink<u64>,
        spread: bool,
    }

    /// The run configuration of [`reliable_broadcast`].
    pub(crate) const FLOOD_CONFIG: RunConfig = RunConfig {
        max_rounds: 200_000,
        budget_factor: 32,
        stop: crate::StopCondition::AllDone,
        full_sweep: false,
    };

    impl ReliableFlood {
        /// One flood node per node of `g`, `source` holding `value`, with
        /// ARQ base timeout `timeout`.
        pub(crate) fn fleet(g: &Graph, source: NodeId, value: u64, timeout: u64) -> Vec<Self> {
            g.nodes()
                .map(|v| ReliableFlood {
                    value: (v == source).then_some(value),
                    link: ReliableLink::new(g.degree(v), timeout, 12),
                    spread: false,
                })
                .collect()
        }

        fn spread_if_fresh(&mut self) {
            if let (Some(v), false) = (self.value, self.spread) {
                self.spread = true;
                self.link.send_all(v);
            }
        }
    }

    /// Skip-safe: an empty-inbox round only pumps the link, which arms
    /// its own retry deadlines.
    impl Protocol for ReliableFlood {
        type Message = Reliable<u64>;

        const SPARSE_AWARE: bool = true;

        fn init(&mut self, ctx: &mut Ctx<'_, Reliable<u64>>) {
            self.spread_if_fresh();
            self.link.pump(ctx);
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Reliable<u64>>, inbox: &[(usize, Reliable<u64>)]) {
            for (_, v) in self.link.deliver(inbox) {
                if self.value.is_none() {
                    self.value = Some(v);
                }
            }
            self.spread_if_fresh();
            self.link.pump(ctx);
        }

        fn is_done(&self) -> bool {
            self.value.is_some() && self.link.idle()
        }
    }

    /// Floods `value` (< 2³⁴) from `source` to every live node, surviving
    /// the faults of `plan` via per-edge ARQ.
    ///
    /// Returns the per-node learned values (crashed or partitioned nodes
    /// hold `None`) and the measured metrics — retransmissions, acks, and
    /// timeout rounds included.
    pub fn reliable_broadcast(
        g: &Graph,
        source: NodeId,
        value: u64,
        seed: u64,
        plan: FaultPlan,
    ) -> Result<(Vec<Option<u64>>, Metrics)> {
        assert!(
            value < 1 << PAYLOAD_BITS,
            "payload must fit the 34-bit data field"
        );
        // First retry after the worst-case fault delay has passed.
        let timeout = 4 + 2 * plan.max_delay;
        let nodes = ReliableFlood::fleet(g, source, value, timeout);
        let mut sim = Simulator::new(g, nodes, seed)?.with_fault_plan(plan);
        let metrics = sim.run(&FLOOD_CONFIG)?;
        Ok((sim.nodes().iter().map(|p| p.value).collect(), metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn broadcast_reaches_everyone_in_ecc_rounds() {
        let g = path(8);
        let (vals, m) = broadcast(&g, NodeId(0), 99, 1).unwrap();
        assert!(vals.iter().all(|&v| v == Some(99)));
        assert_eq!(m.rounds, 8); // ecc 7 + 1 quiescence round
    }

    #[test]
    fn bfs_tree_matches_centralized_depths() {
        let g = generators::hypercube(4);
        let (tree, m) = build_bfs_tree(&g, NodeId(0), 2).unwrap();
        let dist = amt_graphs::traversal::bfs_distances(&g, NodeId(0));
        for (td, d) in tree.depth.iter().zip(&dist) {
            assert_eq!(td, d);
        }
        assert_eq!(tree.height(), 4);
        assert!(m.rounds <= 7);
        // Parent/child consistency.
        for v in g.nodes() {
            if let Some(p) = tree.parent[v.index()] {
                let port_back = tree.child_ports[p.index()]
                    .iter()
                    .any(|&cp| g.neighbor_at(p, cp).0 == v);
                assert!(port_back, "parent {p:?} must list {v:?} as child");
            }
        }
    }

    /// Puts a flood and a BFS-tree construction from node 0 through the
    /// engine-equivalence oracle and checks their outputs against the
    /// centralized BFS distances.
    fn assert_flood_and_bfs_agree(g: &Graph) {
        let cfg = RunConfig::default();
        let flood = crate::oracle::assert_engines_agree(
            || Simulator::new(g, flood_fleet(g, NodeId(0), 99), 1).unwrap(),
            &cfg,
            |p| p.value,
        );
        assert!(flood.outputs.iter().all(|&v| v == Some(99)));
        let bfs = crate::oracle::assert_engines_agree(
            || Simulator::new(g, bfs_fleet(g, NodeId(0)), 2).unwrap(),
            &cfg,
            |p| (p.depth, p.parent_port, p.child_ports.clone()),
        );
        let dist = amt_graphs::traversal::bfs_distances(g, NodeId(0));
        let depths: Vec<u32> = bfs.outputs.iter().map(|o| o.0.unwrap()).collect();
        assert_eq!(depths, dist);
    }

    #[test]
    fn flood_and_bfs_agree_across_engines_on_a_random_graph() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let g = generators::connected_erdos_renyi(48, 0.1, 50, &mut rng).unwrap();
        assert_flood_and_bfs_agree(&g);
    }

    #[test]
    fn flood_and_bfs_agree_across_engines_on_a_path() {
        assert_flood_and_bfs_agree(&path(40));
    }

    #[test]
    fn convergecast_computes_min_and_sum() {
        let g = path(6);
        let (tree, _) = build_bfs_tree(&g, NodeId(2), 3).unwrap();
        let values: Vec<u64> = vec![9, 4, 7, 3, 8, 5];
        let (min, m) = convergecast(&g, &tree, &values, u64::min, 3).unwrap();
        assert_eq!(min, 3);
        assert!(m.rounds as u32 >= tree.height());
        let (sum, _) = convergecast(&g, &tree, &values, u64::wrapping_add, 3).unwrap();
        assert_eq!(sum, 36);
    }

    #[test]
    fn leader_is_max_id() {
        let g = generators::ring(9);
        let (leader, m) = elect_leader(&g, 4).unwrap();
        assert_eq!(leader, NodeId(8));
        assert!(m.rounds >= 4); // at least the diameter
    }

    #[test]
    fn pipelined_upcast_collects_everything() {
        let g = path(5);
        let (tree, _) = build_bfs_tree(&g, NodeId(0), 5).unwrap();
        let items = vec![vec![], vec![10, 11], vec![20], vec![], vec![30, 31, 32]];
        let (collected, m) = pipelined_upcast(&g, &tree, items, 5).unwrap();
        assert_eq!(collected, vec![10, 11, 20, 30, 31, 32]);
        // 6 items over the edge into the root, pipelined behind depth 4.
        assert!(m.rounds >= 6 && m.rounds <= 12, "rounds = {}", m.rounds);
    }

    #[test]
    fn downcast_informs_all() {
        let g = generators::torus_2d(4, 4);
        let (tree, _) = build_bfs_tree(&g, NodeId(5), 6).unwrap();
        let (vals, m) = tree_downcast(&g, &tree, 1234, 6).unwrap();
        assert!(vals.iter().all(|&v| v == Some(1234)));
        assert!(m.rounds as u32 >= tree.height());
    }

    #[test]
    fn aggregate_to_all_informs_everyone() {
        let g = generators::hypercube(4);
        let (tree, _) = build_bfs_tree(&g, NodeId(2), 9).unwrap();
        let values: Vec<u64> = (0..16).map(|i| 100 - i).collect();
        let (min, m) = aggregate_to_all(&g, &tree, &values, u64::min, 9).unwrap();
        assert_eq!(min, 85);
        assert!(m.rounds as u32 >= 2 * tree.height());
    }

    #[test]
    fn count_nodes_and_max_degree_discovery() {
        let g = generators::lollipop(6, 5).unwrap();
        let (n, m) = count_nodes(&g, 3).unwrap();
        assert_eq!(n, 11);
        assert!(m.rounds > 0);
        let (delta, _) = discover_max_degree(&g, 4).unwrap();
        assert_eq!(delta as usize, g.max_degree());
    }

    #[test]
    fn pipelined_downcast_reaches_everyone() {
        let g = path(5);
        let (tree, _) = build_bfs_tree(&g, NodeId(0), 8).unwrap();
        let items = vec![7, 8, 9];
        let (recv, m) = pipelined_downcast(&g, &tree, items.clone(), 8).unwrap();
        for (v, r) in recv.iter().enumerate().skip(1) {
            assert_eq!(*r, items, "node {v}");
        }
        // 3 items pipelined down a depth-4 path: ≈ 4 + 3 − 1 rounds.
        assert!(m.rounds >= 6 && m.rounds <= 10, "rounds = {}", m.rounds);
    }

    #[test]
    fn pipelining_beats_sequential_on_wide_trees() {
        // Star: all leaves stream to the center concurrently.
        let n = 20;
        let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let (tree, _) = build_bfs_tree(&g, NodeId(0), 7).unwrap();
        let items: Vec<Vec<u64>> = (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![i as u64] })
            .collect();
        let (collected, m) = pipelined_upcast(&g, &tree, items, 7).unwrap();
        assert_eq!(collected.len(), n - 1);
        assert!(
            m.rounds <= 4,
            "star upcast should parallelize, rounds = {}",
            m.rounds
        );
    }

    /// The reliable flood on the active-set engine against the full-sweep
    /// reference, in both visit orders, under message faults (drops,
    /// corruption, delays) plus a crash-stop.
    #[test]
    fn reliable_flood_matches_full_sweep_under_faults() {
        let g = generators::hypercube(5);
        let plan = crate::FaultPlan::none()
            .seeded(5)
            .with_drops(0.1)
            .with_corruption(0.05)
            .with_delays(0.1, 3)
            .with_crash(NodeId(9), 6);
        let timeout = 4 + 2 * plan.max_delay;
        let build = || {
            Simulator::new(
                &g,
                reliable::ReliableFlood::fleet(&g, NodeId(0), 77, timeout),
                3,
            )
            .unwrap()
            .with_fault_plan(plan.clone())
        };
        let reference =
            crate::oracle::assert_engines_agree(build, &reliable::FLOOD_CONFIG, |p| p.value);
        let m = reference.result.expect("the flood completes");
        assert!(m.dropped > 0 && m.corrupted > 0 && m.delayed > 0);
        assert_eq!(reference.crashed, vec![NodeId(9)]);
        assert!(
            reference
                .outputs
                .iter()
                .enumerate()
                .all(|(v, &x)| v == 9 || x == Some(77)),
            "every live node learns the value"
        );
    }

    /// As above under topology churn: link flaps, a crash-restart, and a
    /// permanent cut.
    #[test]
    fn reliable_flood_matches_full_sweep_under_churn() {
        let g = generators::hypercube(5);
        let churn = crate::ChurnPlan::none()
            .seeded(8)
            .with_flaps(0.1, 6)
            .with_restart(NodeId(4), 3, 9)
            .with_edge_cut(amt_graphs::EdgeId(0), 2)
            .at_offset(4);
        let build = || {
            Simulator::new(&g, reliable::ReliableFlood::fleet(&g, NodeId(0), 77, 4), 3)
                .unwrap()
                .with_churn_plan(churn.clone())
        };
        let reference =
            crate::oracle::assert_engines_agree(build, &reliable::FLOOD_CONFIG, |p| p.value);
        let m = reference.result.expect("the flood completes");
        assert!(m.lost_to_churn > 0);
        assert_eq!(m.restarts, 1);
    }

    /// One [`reliable::ReliableLink`] frame against a peer that never
    /// acks: records the round the port is declared failed.
    struct GiveUpProbe {
        link: reliable::ReliableLink<u64>,
        fail_round: Option<u64>,
        fail_attempts: u32,
    }

    impl Protocol for GiveUpProbe {
        type Message = reliable::Reliable<u64>;

        fn init(&mut self, ctx: &mut Ctx<'_, reliable::Reliable<u64>>) {
            self.link.send(0, 7);
            self.link.pump(ctx);
        }

        fn round(
            &mut self,
            ctx: &mut Ctx<'_, reliable::Reliable<u64>>,
            inbox: &[(usize, reliable::Reliable<u64>)],
        ) {
            self.link.deliver(inbox);
            self.link.pump(ctx);
            if self.fail_round.is_none() {
                if let Some(&(_, a)) = self.link.failures().first() {
                    self.fail_round = Some(ctx.round());
                    self.fail_attempts = a;
                }
            }
        }

        fn is_done(&self) -> bool {
            self.fail_round.is_some()
        }
    }

    /// The give-up-latency bound documented on [`reliable::ReliableLink::new`],
    /// pinned as an exact property over a `(timeout, max_attempts)` grid:
    /// with every message dropped, the port fails precisely
    /// `t · (2^min(A,5) − 1 + 16·max(A−5, 0))` rounds after the first
    /// transmission — the capped exponential backoff schedule, summed.
    #[test]
    fn give_up_latency_is_exactly_the_documented_bound() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        for &t in &[1u64, 2, 5] {
            for &a in &[1u32, 2, 3, 5, 6, 8, 12] {
                // The schedule sum…
                let schedule: u64 = (1..=a).map(|k| t << (k - 1).min(4)).sum();
                // …and its closed form from the `new` docs.
                let closed = t * ((1u64 << a.min(5)) - 1 + 16 * u64::from(a.saturating_sub(5)));
                assert_eq!(schedule, closed, "closed form mismatch at t={t} A={a}");

                let nodes = (0..2)
                    .map(|_| GiveUpProbe {
                        link: reliable::ReliableLink::new(1, t, a),
                        fail_round: None,
                        fail_attempts: 0,
                    })
                    .collect();
                let mut sim = Simulator::new(&g, nodes, 1)
                    .unwrap()
                    .with_fault_plan(crate::FaultPlan::none().seeded(1).with_drops(1.0));
                let cfg = RunConfig {
                    stop: crate::StopCondition::AllDone,
                    // ARQ frames don't fit a 2-node default word budget.
                    budget_factor: 64,
                    ..RunConfig::default()
                };
                sim.run(&cfg).unwrap();
                for p in sim.nodes() {
                    assert_eq!(
                        p.fail_round,
                        Some(closed),
                        "give-up latency drifted from the bound at t={t} A={a}"
                    );
                    assert_eq!(p.fail_attempts, a, "attempt count at t={t} A={a}");
                }
            }
        }
    }
}
