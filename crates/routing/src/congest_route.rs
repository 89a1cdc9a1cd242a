//! Valiant two-phase bit-fix routing executed in the CONGEST simulator.
//!
//! The hierarchical router in [`crate::HierarchicalRouter`] *accounts* its
//! rounds through the emulation layers; this module *executes* a permutation
//! routing workload as a real message-passing protocol so its congestion can
//! be measured edge by edge and attributed per traffic class.
//!
//! The topology is the `d`-dimensional hypercube and the algorithm is the
//! classic Valiant trick: every packet first routes to a uniformly random
//! intermediate node (phase 1 — the distributed analogue of the paper's
//! *preparation step*, which redistributes packets before the real
//! delivery), then bit-fix routes from the intermediate to its true
//! destination (phase 2). Bit-fixing corrects the lowest differing
//! dimension first, so each hop is a deterministic function of the packet's
//! current position and target. Randomizing the midpoint is what defeats
//! worst-case permutations: both phases are then random routes, and the
//! expected per-edge load stays `O(requests / n)`.
//!
//! Traffic attribution: phase-1 hops (to the random intermediate) are
//! tagged [`class::ROUTE_PORTAL`] — detour traffic whose only job is
//! redistribution, like portal forwarding in the hierarchy — and phase-2
//! hops (toward the real destination) are tagged
//! [`class::ROUTE_PAYLOAD`]. The profiler can then separate the
//! redistribution tax from the payload delivery exactly.
//!
//! Under *topology churn* ([`route_bitfix_churned`]) the same protocol
//! degrades gracefully instead of wedging: a hop blocked by a down link is
//! **rerouted** through any other differing-dimension port that is up (any
//! differing-dimension hop is strict bit-fix progress, so detours never
//! loop); a packet whose every useful dimension stays dark for
//! [`STALL_LIMIT`] consecutive rounds is parked instead of spinning; a
//! crash-restarted node loses custody of everything it queued. The driver
//! then re-injects every undelivered request in a fresh epoch on the same
//! global churn clock, up to [`MAX_ROUTE_EPOCHS`] times, and finally
//! reports the survivors as an explicit **degraded** outcome
//! ([`ChurnedRouteOutcome::undelivered`]) — routable packets are all
//! delivered, unroutable ones are named, and nothing livelocks. Each epoch
//! is one stage of a [`StageRunner`], which keeps that global clock. The
//! churn-free [`route_bitfix_instrumented`] is this driver with
//! [`ChurnPlan::none`]: nothing stalls, so its one epoch delivers all.

use crate::{Result, RouteError};
use amt_congest::{
    bits_for_count, class, ChurnPlan, Ctx, FaultPlan, Metrics, Observe, ObservedRuns,
    ProfileConfig, Protocol, RecoveryTimeline, RunConfig, RunTrace, StageRunner, TraceConfig,
    TrafficClass, TrafficProfile,
};
use amt_graphs::{Graph, NodeId};
use rand::RngExt;
use std::collections::VecDeque;

/// Consecutive blocked rounds a queued packet tolerates (every
/// differing-dimension link down) before it is parked as stuck for the
/// epoch instead of livelocking in place.
pub const STALL_LIMIT: u32 = 64;

/// Delivery epochs a churned routing run attempts before reporting the
/// remaining requests as undeliverable.
pub const MAX_ROUTE_EPOCHS: u32 = 5;

/// One packet in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packet {
    /// Request index (for endpoint bookkeeping).
    id: u32,
    /// Random intermediate of the Valiant detour.
    via: u32,
    /// Final destination node id.
    dest: u32,
    /// `false` while heading to `via` (phase 1), `true` afterwards.
    payload_phase: bool,
}

impl amt_congest::CongestMessage for Packet {
    fn bit_width(&self) -> usize {
        // id + via + dest + phase bit.
        bits_for_count(self.id as usize + 2)
            + 2 * bits_for_count(self.dest.max(self.via) as usize + 2)
            + 1
    }
}

/// Per-node bit-fix router state; `'p` borrows the run's port table.
struct RouteNode<'p> {
    /// This node's id (hypercube coordinates).
    id: u32,
    /// Port carrying dimension `k` (neighbor `id ^ (1 << k)`).
    port_for_dim: &'p [usize],
    /// Outgoing FIFO queue per port.
    port_queue: Vec<VecDeque<Packet>>,
    /// Packets delivered here.
    arrived: Vec<Packet>,
    /// Packets injected at this node at round 0: `(request id, dest)`.
    sources: Vec<(u32, u32)>,
    /// Number of hypercube dimensions.
    dims: u32,
    /// Consecutive rounds each port's head packet has been blocked with no
    /// live alternative dimension.
    stall: Vec<u32>,
    /// Packets parked after [`STALL_LIMIT`] blocked rounds — undelivered
    /// this epoch, re-injected by the churned driver.
    stuck: Vec<Packet>,
    /// Hops redirected through an alternative dimension because the bit-fix
    /// port was down.
    rerouted: u64,
}

impl RouteNode<'_> {
    /// Advances `p` from this node: flips phases at the intermediate,
    /// absorbs arrivals, and queues the packet on the port fixing its
    /// lowest differing dimension.
    fn route(&mut self, mut p: Packet) {
        if !p.payload_phase && p.via == self.id {
            p.payload_phase = true;
        }
        let target = if p.payload_phase { p.dest } else { p.via };
        if target == self.id {
            debug_assert!(p.payload_phase);
            self.arrived.push(p);
            return;
        }
        let dim = (target ^ self.id).trailing_zeros();
        debug_assert!(dim < self.dims);
        self.port_queue[self.port_for_dim[dim as usize]].push_back(p);
    }
}

impl Protocol for RouteNode<'_> {
    type Message = Packet;

    const TRAFFIC_CLASS: TrafficClass = class::ROUTE_PAYLOAD;

    // With empty queues and no pending sources, `inject` and `pump` are
    // both no-ops, so skipping an idle node is safe; while packets are
    // queued (including heads blocked by a down link, which must keep
    // counting stall rounds) the node re-arms a 1-round timer.
    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.inject(ctx);
        self.pump(ctx);
        if !self.is_done() {
            ctx.wake_in(1);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Packet>, inbox: &[(usize, Packet)]) {
        // A node offline at round 0 (churn outage) never ran `init`; its
        // first executed round injects instead, so its requests still
        // enter the network. (Churn-free, `init` always drains `sources`.)
        self.inject(ctx);
        for &(_, p) in inbox {
            self.route(p);
        }
        self.pump(ctx);
        if !self.is_done() {
            ctx.wake_in(1);
        }
    }

    fn is_done(&self) -> bool {
        self.port_queue.iter().all(VecDeque::is_empty)
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Packet>) {
        // A crash-restart loses custody of everything queued or parked
        // here; the churned driver re-injects undelivered requests next
        // epoch. Delivered packets (`arrived`) are durable — they were
        // already handed to the application.
        let lost = self.port_queue.iter().map(VecDeque::len).sum::<usize>() + self.stuck.len();
        if lost > 0 {
            ctx.trace_event("route_restart_lost", lost as u64);
        }
        for q in &mut self.port_queue {
            q.clear();
        }
        self.stuck.clear();
        self.stall.fill(0);
        self.round(ctx, &[]);
    }
}

impl RouteNode<'_> {
    /// Turns pending source requests into packets with a random Valiant
    /// midpoint. Called from `init` and, for nodes offline at round 0,
    /// from their first executed round.
    fn inject(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if self.sources.is_empty() {
            return;
        }
        let n = 1u32 << self.dims;
        let sources: Vec<(u32, u32)> = self.sources.drain(..).collect();
        for (id, dest) in sources {
            // The random midpoint comes from this node's private stream, so
            // the choice is deterministic per (run seed, source, order).
            let via = ctx.rng().random_range(0..n);
            self.route(Packet {
                id,
                via,
                dest,
                payload_phase: false,
            });
        }
    }

    /// Sends at most one queued packet per port (the CONGEST constraint),
    /// classing each hop by its phase. A blocked head packet (link down)
    /// is rerouted through any live differing-dimension port — strict
    /// bit-fix progress either way — or parked after [`STALL_LIMIT`]
    /// blocked rounds. Churn-free, every link is up and this is the plain
    /// one-packet-per-port pump.
    fn pump(&mut self, ctx: &mut Ctx<'_, Packet>) {
        for port in 0..self.port_queue.len() {
            if self.port_queue[port].is_empty() {
                continue;
            }
            if ctx.link_up(port) {
                self.stall[port] = 0;
                let p = self.port_queue[port]
                    .pop_front()
                    .expect("checked non-empty");
                let cls = if p.payload_phase {
                    class::ROUTE_PAYLOAD
                } else {
                    class::ROUTE_PORTAL
                };
                ctx.send_classed(port, p, cls);
                continue;
            }
            // Reroute the head through another dimension it still has to
            // fix; flipping any differing dimension reduces the Hamming
            // distance by one, so detours cost nothing and cannot loop.
            let p = *self.port_queue[port].front().expect("checked non-empty");
            let target = if p.payload_phase { p.dest } else { p.via };
            let alt = (0..self.dims)
                .filter(|&d| (target ^ self.id) >> d & 1 == 1)
                .map(|d| self.port_for_dim[d as usize])
                .find(|&q| q != port && ctx.link_up(q));
            if let Some(q) = alt {
                self.port_queue[port].pop_front();
                self.port_queue[q].push_back(p);
                self.stall[port] = 0;
                self.rerouted += 1;
            } else {
                self.stall[port] += 1;
                if self.stall[port] >= STALL_LIMIT {
                    // Every useful dimension has been dark for STALL_LIMIT
                    // rounds: park the packet instead of spinning on it.
                    self.stuck.push(
                        self.port_queue[port]
                            .pop_front()
                            .expect("checked non-empty"),
                    );
                    self.stall[port] = 0;
                }
            }
        }
    }
}

/// Outcome of a CONGEST bit-fix routing execution.
#[derive(Clone, Debug)]
pub struct CongestRouteOutcome {
    /// Node at which each request's packet arrived — always its requested
    /// destination (asserted).
    pub endpoints: Vec<NodeId>,
    /// Measured simulator metrics (rounds, messages, per-edge congestion).
    pub metrics: Metrics,
}

/// Builds the per-node router fleet, draining `sources` into the nodes.
fn route_nodes<'p>(
    g: &Graph,
    ports: &'p [Vec<usize>],
    sources: &mut [Vec<(u32, u32)>],
    dims: u32,
) -> Vec<RouteNode<'p>> {
    g.nodes()
        .zip(ports)
        .map(|(v, port_for_dim)| RouteNode {
            id: v.0,
            port_for_dim,
            port_queue: vec![VecDeque::new(); g.degree(v)],
            arrived: Vec::new(),
            sources: std::mem::take(&mut sources[v.index()]),
            dims,
            stall: vec![0; g.degree(v)],
            stuck: Vec::new(),
            rerouted: 0,
        })
        .collect()
}

/// Maps each hypercube dimension to the port carrying it, or fails if `g`
/// is not a hypercube with node ids as coordinates.
fn hypercube_ports(g: &Graph) -> Result<Vec<Vec<usize>>> {
    let n = g.len();
    if n < 2 || !n.is_power_of_two() {
        return Err(RouteError::NotHypercube { n });
    }
    let dims = n.trailing_zeros() as usize;
    let mut ports = Vec::with_capacity(n);
    for v in g.nodes() {
        if g.degree(v) != dims {
            return Err(RouteError::NotHypercube { n });
        }
        let mut port_for_dim = vec![usize::MAX; dims];
        for (port, (w, _)) in g.neighbors(v).enumerate() {
            let diff = v.0 ^ w.0;
            if diff.count_ones() != 1 {
                return Err(RouteError::NotHypercube { n });
            }
            port_for_dim[diff.trailing_zeros() as usize] = port;
        }
        if port_for_dim.contains(&usize::MAX) {
            return Err(RouteError::NotHypercube { n });
        }
        ports.push(port_for_dim);
    }
    Ok(ports)
}

/// Routes `requests` over the hypercube `g` by Valiant two-phase bit-fixing
/// in the CONGEST simulator.
///
/// # Errors
///
/// [`RouteError::NotHypercube`] when `g` is not a hypercube,
/// [`RouteError::BadRequest`] on out-of-range endpoints, and
/// [`RouteError::Congest`] on simulator violations.
pub fn route_bitfix(
    g: &Graph,
    requests: &[(NodeId, NodeId)],
    seed: u64,
) -> Result<CongestRouteOutcome> {
    let (out, _) = route_bitfix_instrumented(g, requests, seed, 1, None)?;
    Ok(out)
}

/// [`route_bitfix`] with opt-in traffic profiling. When `profile` is set,
/// the returned [`TrafficProfile`] splits the run into
/// [`class::ROUTE_PORTAL`] (phase-1 detour hops) and
/// [`class::ROUTE_PAYLOAD`] (phase-2 delivery hops), with totals summing
/// exactly to the outcome's metrics. The outcome is byte-identical whether
/// or not profiling is on. This is [`route_bitfix_churned_instrumented`]
/// with a trivial churn plan, whose first epoch delivers every request.
///
/// `_threads` is ignored: the simulator runs on one thread. The parameter
/// stays until the repository benchmark, which calls this function with a
/// thread count, drops it.
///
/// # Errors
///
/// As [`route_bitfix`].
pub fn route_bitfix_instrumented(
    g: &Graph,
    requests: &[(NodeId, NodeId)],
    seed: u64,
    _threads: usize,
    profile: Option<ProfileConfig>,
) -> Result<(CongestRouteOutcome, Option<TrafficProfile>)> {
    let (out, _, profile) =
        route_bitfix_churned_instrumented(g, requests, seed, ChurnPlan::none(), 1, None, profile)?;
    let count = out.undelivered.len();
    if count > 0 {
        return Err(RouteError::Undelivered { count });
    }
    let endpoints = out.endpoints.into_iter().flatten().collect();
    let metrics = out.metrics;
    Ok((CongestRouteOutcome { endpoints, metrics }, profile))
}

/// Outcome of a churned bit-fix routing run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnedRouteOutcome {
    /// Node at which each request's packet arrived — its requested
    /// destination (asserted) — or `None` if it was never delivered.
    pub endpoints: Vec<Option<NodeId>>,
    /// Request ids (ascending) still undelivered when the epoch budget ran
    /// out — the explicit degraded result; empty means full delivery.
    pub undelivered: Vec<u32>,
    /// Delivery epochs executed (1 when the first attempt delivered all).
    pub epochs: u32,
    /// Hops redirected through an alternative dimension because the
    /// bit-fix port was down.
    pub rerouted: u64,
    /// Accumulated metrics over all epochs (includes churn counters).
    pub metrics: Metrics,
    /// Damage-to-reconvergence spans on the accumulated round clock: a
    /// span opens at every outage and closes when every request has been
    /// delivered. Spans still open at the end mean a degraded run.
    pub timeline: RecoveryTimeline,
}

impl ChurnedRouteOutcome {
    /// Whether the run ended with undelivered requests.
    pub fn degraded(&self) -> bool {
        !self.undelivered.is_empty()
    }
}

/// [`route_bitfix`] under topology churn: blocked hops reroute through
/// live dimensions, stalled packets park after [`STALL_LIMIT`] rounds, and
/// undelivered requests are re-injected in fresh epochs (same global churn
/// clock) up to [`MAX_ROUTE_EPOCHS`] times. Requests that still cannot be
/// delivered are reported in [`ChurnedRouteOutcome::undelivered`] rather
/// than looping forever — graceful degradation, not an error.
///
/// # Errors
///
/// As [`route_bitfix`], plus churn plan validation failures. Undelivered
/// requests are **not** an error.
pub fn route_bitfix_churned(
    g: &Graph,
    requests: &[(NodeId, NodeId)],
    seed: u64,
    churn: ChurnPlan,
) -> Result<ChurnedRouteOutcome> {
    let (out, _, _) = route_bitfix_churned_instrumented(g, requests, seed, churn, 1, None, None)?;
    Ok(out)
}

/// [`route_bitfix_churned`] with opt-in tracing (one [`RunTrace`] per
/// epoch) and traffic profiling accumulated across epochs. Neither changes
/// the outcome. It is [`route_bitfix_observed`] with those two layers.
///
/// `_threads` is ignored: the simulator runs on one thread. The parameter
/// stays until the repository benchmark, which calls this function with a
/// thread count, drops it.
///
/// # Errors
///
/// As [`route_bitfix_churned`].
pub fn route_bitfix_churned_instrumented(
    g: &Graph,
    requests: &[(NodeId, NodeId)],
    seed: u64,
    churn: ChurnPlan,
    _threads: usize,
    trace: Option<TraceConfig>,
    profile: Option<ProfileConfig>,
) -> Result<(ChurnedRouteOutcome, Vec<RunTrace>, Option<TrafficProfile>)> {
    let observe = Observe {
        trace,
        profile,
        ..Observe::default()
    };
    let (out, runs) = route_bitfix_observed(g, requests, seed, churn, observe)?;
    Ok((out, runs.traces, runs.profile))
}

/// [`route_bitfix_churned`] with every epoch observed by the `observe`
/// layers, folded across epochs into one [`ObservedRuns`].
///
/// # Errors
///
/// As [`route_bitfix_churned`].
pub fn route_bitfix_observed(
    g: &Graph,
    requests: &[(NodeId, NodeId)],
    seed: u64,
    churn: ChurnPlan,
    observe: Observe,
) -> Result<(ChurnedRouteOutcome, ObservedRuns)> {
    let n = g.len();
    let ports = hypercube_ports(g)?;
    let dims = n.trailing_zeros();
    churn.validate(n, g.edge_count())?;
    for &(s, t) in requests {
        if s.index() >= n || t.index() >= n {
            return Err(RouteError::BadRequest {
                node: s.index().max(t.index()),
                n,
            });
        }
    }
    let mut endpoints: Vec<Option<NodeId>> = vec![None; requests.len()];
    let mut pending: Vec<u32> = (0..requests.len() as u32).collect();
    let mut runner = StageRunner::new(churn, observe);
    let mut rerouted = 0u64;
    let mut epochs = 0u32;

    while !pending.is_empty() && epochs < MAX_ROUTE_EPOCHS {
        let epoch = epochs;
        epochs += 1;
        let mut sources: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &i in &pending {
            let (s, t) = requests[i as usize];
            sources[s.index()].push((i, t.0));
        }
        let nodes = route_nodes(g, &ports, &mut sources, dims);
        // Fresh midpoint draws per epoch.
        let seed = seed ^ u64::from(epoch).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (sim, start) = runner.run(g, nodes, seed, FaultPlan::none(), &RunConfig::all_done())?;
        runner.churn_damage(start, sim.churn_events(), |_| true);
        for (v, node) in sim.nodes().iter().enumerate() {
            rerouted += node.rerouted;
            for p in &node.arrived {
                assert_eq!(
                    p.dest as usize, v,
                    "bit-fix must deliver to the destination"
                );
                endpoints[p.id as usize] = Some(NodeId::from(v));
            }
        }
        pending.retain(|&i| endpoints[i as usize].is_none());
        if pending.is_empty() {
            // Every request delivered: the workload has re-converged,
            // closing all open damage spans.
            runner.recovered();
        }
    }

    Ok((
        ChurnedRouteOutcome {
            endpoints,
            undelivered: pending,
            epochs,
            rerouted,
            metrics: runner.metrics,
            timeline: runner.timeline,
        },
        runner.runs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_congest::oracle::{assert_engines_agree, EngineObservation};
    use amt_congest::Simulator;
    use amt_graphs::generators;

    fn shift_permutation(n: u32, k: u32) -> Vec<(NodeId, NodeId)> {
        (0..n).map(|i| (NodeId(i), NodeId((i + k) % n))).collect()
    }

    /// Per-node output of a router: delivered packets, parked packets,
    /// detours taken.
    type RouterOutput = (Vec<Packet>, Vec<Packet>, u64);

    /// The bit-fix router fleet on the hypercube `g` through the
    /// engine-equivalence oracle: both engines, both visit orders, with
    /// `churn` attached when given. Returns the full sweep's observation.
    fn routers_agree(
        g: &Graph,
        requests: &[(NodeId, NodeId)],
        churn: Option<ChurnPlan>,
    ) -> EngineObservation<RouterOutput> {
        let ports = hypercube_ports(g).unwrap();
        let build = || {
            let mut sources: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.len()];
            for (i, &(s, t)) in requests.iter().enumerate() {
                sources[s.index()].push((i as u32, t.0));
            }
            let nodes = route_nodes(g, &ports, &mut sources, g.len().trailing_zeros());
            let sim = Simulator::new(g, nodes, 5).unwrap();
            match &churn {
                Some(plan) => sim.with_churn_plan(plan.clone()),
                None => sim,
            }
        };
        assert_engines_agree(build, &RunConfig::all_done(), |p| {
            (p.arrived.clone(), p.stuck.clone(), p.rerouted)
        })
    }

    #[test]
    fn bitfix_routers_agree_across_engines() {
        // Three packets from each of eight sources on the 64-node cube:
        // port queues form, yet most nodes idle most rounds.
        let g = generators::hypercube(6);
        let requests: Vec<_> = (0..24u32)
            .map(|i| (NodeId(i / 3 * 8), NodeId((i * 37 + 5) % 64)))
            .collect();
        let reference = routers_agree(&g, &requests, None);
        assert!(reference.result.is_ok());
        let delivered: usize = reference.outputs.iter().map(|(a, _, _)| a.len()).sum();
        assert_eq!(delivered, requests.len());
    }

    #[test]
    fn churned_bitfix_routers_agree_across_engines() {
        // Flapping links force detours, blocked heads re-arm their timers,
        // and a restart drops custody mid-run.
        let g = generators::hypercube(5);
        let requests: Vec<_> = shift_permutation(32, 11).into_iter().step_by(3).collect();
        let churn = ChurnPlan::none()
            .seeded(17)
            .with_flaps(0.15, 3)
            .with_restart(NodeId(12), 3, 5);
        let reference = routers_agree(&g, &requests, Some(churn));
        assert_eq!(reference.result.unwrap().restarts, 1);
        let rerouted: u64 = reference.outputs.iter().map(|&(_, _, r)| r).sum();
        assert!(rerouted > 0, "the flaps must force a detour");
    }

    #[test]
    fn every_packet_reaches_its_destination() {
        let g = generators::hypercube(5);
        let reqs = shift_permutation(32, 7);
        let out = route_bitfix(&g, &reqs, 3).unwrap();
        for (i, &(_, t)) in reqs.iter().enumerate() {
            assert_eq!(out.endpoints[i], t);
        }
        assert!(out.metrics.rounds >= 5, "cross-cube packets take ≥ d hops");
    }

    #[test]
    fn profile_splits_portal_from_payload_and_sums_exactly() {
        let g = generators::hypercube(4);
        let reqs = shift_permutation(16, 5);
        let (out, prof) =
            route_bitfix_instrumented(&g, &reqs, 9, 0, Some(ProfileConfig::default())).unwrap();
        let prof = prof.unwrap();
        assert_eq!(prof.total_messages(), out.metrics.messages);
        assert_eq!(prof.total_bits(), out.metrics.bits);
        assert!(prof.stats(class::ROUTE_PORTAL).is_some());
        assert!(prof.stats(class::ROUTE_PAYLOAD).is_some());
        // Profiling must not change the run.
        let plain = route_bitfix(&g, &reqs, 9).unwrap();
        assert_eq!(plain.metrics, out.metrics);
        assert_eq!(plain.endpoints, out.endpoints);
    }

    #[test]
    fn rejects_non_hypercubes_and_bad_requests() {
        let ring = generators::ring(8);
        assert!(matches!(
            route_bitfix(&ring, &[], 0),
            Err(RouteError::NotHypercube { n: 8 })
        ));
        let g = generators::hypercube(3);
        let bad = vec![(NodeId(0), NodeId(64))];
        assert!(matches!(
            route_bitfix(&g, &bad, 0),
            Err(RouteError::BadRequest { .. })
        ));
    }

    #[test]
    fn self_requests_arrive_without_leaving_phase_one_detour() {
        // A self-request still takes the Valiant detour (via a random
        // intermediate) unless the midpoint happens to be the source; either
        // way it must come home.
        let g = generators::hypercube(3);
        let reqs = vec![(NodeId(5), NodeId(5)); 4];
        let out = route_bitfix(&g, &reqs, 2).unwrap();
        assert!(out.endpoints.iter().all(|&e| e == NodeId(5)));
    }

    #[test]
    fn trivial_churn_routes_identically_to_the_clean_path() {
        let g = generators::hypercube(5);
        let reqs = shift_permutation(32, 7);
        let clean = route_bitfix(&g, &reqs, 3).unwrap();
        let churned = route_bitfix_churned(&g, &reqs, 3, ChurnPlan::none().seeded(42)).unwrap();
        assert_eq!(churned.epochs, 1);
        assert_eq!(churned.rerouted, 0);
        assert!(!churned.degraded());
        assert_eq!(churned.metrics, clean.metrics);
        for (i, &e) in clean.endpoints.iter().enumerate() {
            assert_eq!(churned.endpoints[i], Some(e));
        }
    }

    #[test]
    fn packets_reroute_around_flapping_links() {
        let g = generators::hypercube(5);
        let reqs = shift_permutation(32, 11);
        let churn = ChurnPlan::none().seeded(17).with_flaps(0.15, 3);
        let out = route_bitfix_churned(&g, &reqs, 5, churn).unwrap();
        assert!(!out.degraded(), "flaps must not cost deliveries");
        assert!(
            out.rerouted > 0,
            "flaps this dense must force at least one detour"
        );
        for (i, &(_, t)) in reqs.iter().enumerate() {
            assert_eq!(out.endpoints[i], Some(t));
        }
    }

    #[test]
    fn lost_packets_are_reinjected_after_a_node_restart() {
        let g = generators::hypercube(4);
        let reqs = shift_permutation(16, 5);
        // Node 6 crashes at round 1 and returns at round 5: its queued and
        // in-flight packets are lost mid-epoch and must be re-issued.
        let churn = ChurnPlan::none().seeded(8).with_restart(NodeId(6), 1, 4);
        let out = route_bitfix_churned(&g, &reqs, 7, churn).unwrap();
        assert!(
            !out.degraded(),
            "a transient restart must not cost deliveries"
        );
        assert!(out.metrics.restarts >= 1);
        for (i, &(_, t)) in reqs.iter().enumerate() {
            assert_eq!(out.endpoints[i], Some(t));
        }
        if out.epochs > 1 {
            assert!(!out.timeline.spans().is_empty());
        }
    }

    #[test]
    fn isolated_destination_degrades_instead_of_livelocking() {
        // Cut every edge of node 0 from round 0: requests into (or out of)
        // it are unroutable. The run must terminate with those requests
        // named undelivered, not spin until the round cap.
        let g = generators::hypercube(3);
        let mut churn = ChurnPlan::none().seeded(2);
        for (e, u, v) in g.edges() {
            if u == NodeId(0) || v == NodeId(0) {
                churn = churn.with_edge_cut(e, 0);
            }
        }
        let reqs: Vec<(NodeId, NodeId)> = (1..8).map(|i| (NodeId(i), NodeId(i % 2))).collect();
        let out = route_bitfix_churned(&g, &reqs, 4, churn).unwrap();
        assert!(out.degraded());
        assert_eq!(out.epochs, MAX_ROUTE_EPOCHS);
        for (i, &(_, t)) in reqs.iter().enumerate() {
            if t == NodeId(0) {
                assert_eq!(out.endpoints[i], None, "request {i} into the cut node");
                assert!(out.undelivered.contains(&(i as u32)));
            } else {
                assert_eq!(out.endpoints[i], Some(t), "request {i} avoids the cut node");
            }
        }
        assert!(
            out.timeline.open_count() > 0,
            "degradation leaves open spans"
        );
    }

    #[test]
    fn churned_routing_replays_deterministically() {
        let g = generators::hypercube(5);
        let reqs = shift_permutation(32, 9);
        let churn = ChurnPlan::none()
            .seeded(31)
            .with_flaps(0.1, 4)
            .with_restart(NodeId(12), 3, 5);
        let a = route_bitfix_churned(&g, &reqs, 6, churn.clone()).unwrap();
        let b = route_bitfix_churned(&g, &reqs, 6, churn).unwrap();
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.undelivered, b.undelivered);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.rerouted, b.rerouted);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.timeline, b.timeline);
    }
}
