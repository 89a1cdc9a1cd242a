//! The engine-equivalence oracle for [`Protocol::SPARSE_AWARE`] protocols.
//!
//! [`assert_engines_agree`] runs one workload on the full-sweep reference
//! engine and on the active-set engine, in both node-visit orders, and
//! asserts that every observable is byte-identical: the run's result and
//! [`Metrics`], the per-node outputs, per-edge loads, the fault and churn
//! logs, the crashed set, the traffic profile and the round timeline,
//! gauges included. Only the two executor gauges may differ
//! ([`RunTrace::without_executor_gauges`]): `active_nodes`, the node-rounds
//! each engine stepped, and `wake_queue`, which the full sweep does not
//! keep. On a workload with idle rounds the active-set engine must step
//! strictly fewer node-rounds. Under `debug_assertions` the full-sweep runs
//! also check every skippable step for side effects (see
//! [`Protocol::SPARSE_AWARE`]).
//!
//! The crates that implement sparse-aware protocols call this from their
//! own tests, on simulators they build themselves.
//!
//! [`assert_churn_view_agrees`] is the oracle of the churned engine's
//! topology view: the per-round churn diff and every verdict read from it,
//! against the churn schedule evaluated from scratch.

use crate::churn::{ChurnHook, ChurnKind, ChurnState};
use crate::faults::Transitions;
use crate::{
    ChurnEvent, ChurnPlan, CongestError, FaultEvent, Metrics, Observe, ProfileConfig, Protocol,
    RunConfig, RunTrace, Simulator, TraceConfig, TrafficProfile,
};
use amt_graphs::{EdgeId, NodeId};
use std::fmt::Debug;

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
pub struct EngineObservation<T> {
    /// The run's result.
    pub result: Result<Metrics, CongestError>,
    /// One output per node, extracted after the run.
    pub outputs: Vec<T>,
    /// Deliveries per edge.
    pub edge_load: Vec<u64>,
    /// The fault-event log.
    pub fault_events: Vec<FaultEvent>,
    /// Nodes crash-stopped by the fault plan.
    pub crashed: Vec<NodeId>,
    /// The churn-event log.
    pub churn_events: Vec<ChurnEvent>,
    /// The traffic profile.
    pub profile: Option<TrafficProfile>,
    /// The round timeline without its executor gauges (`None`
    /// for reverse-visit runs, whose span events are in descending node
    /// order within a round by contract).
    pub trace: Option<RunTrace>,
    /// Node-rounds stepped: the sum of the `active_nodes` gauges.
    pub stepped: u64,
}

/// Runs `sim` under `cfg` with tracing and profiling on, on the engine and
/// in the visit order given, and records what it observed.
fn observe<P: Protocol, T>(
    sim: Simulator<'_, P>,
    cfg: &RunConfig,
    reverse: bool,
    full_sweep: bool,
    output: &impl Fn(&P) -> T,
) -> EngineObservation<T> {
    let mut sim = sim.with_observe(Observe {
        trace: Some(TraceConfig::default().with_edge_load_stride(3)),
        profile: Some(ProfileConfig::default()),
        ..Observe::default()
    });
    let cfg = cfg.with_full_sweep(full_sweep);
    let result = if reverse {
        sim.run_reverse_visit(&cfg)
    } else {
        sim.run(&cfg)
    };
    let observed = sim.take_observed();
    let trace = observed.trace.expect("tracing is on");
    let stepped = trace.samples.iter().map(|s| s.active_nodes).sum();
    EngineObservation {
        result,
        outputs: sim.nodes().iter().map(output).collect(),
        edge_load: sim.edge_load().to_vec(),
        fault_events: sim.fault_events().to_vec(),
        crashed: sim.crashed_nodes(),
        churn_events: sim.churn_events().to_vec(),
        profile: observed.profile,
        trace: (!reverse).then(|| trace.without_executor_gauges()),
        stepped,
    }
}

/// Runs the simulator `build` returns (plans attached; any observation
/// request is replaced) on both engines in both visit orders, panics on
/// the first observable that differs from the forward full sweep, and
/// returns that reference observation.
///
/// Also asserts that the active-set engine stepped strictly fewer
/// node-rounds than the full sweep, and that each engine steps the same
/// node-rounds in either visit order.
pub fn assert_engines_agree<'g, P, T>(
    build: impl Fn() -> Simulator<'g, P>,
    cfg: &RunConfig,
    output: impl Fn(&P) -> T,
) -> EngineObservation<T>
where
    P: Protocol,
    T: PartialEq + Debug,
{
    let reference = observe(build(), cfg, false, true, &output);
    let sparse = observe(build(), cfg, false, false, &output);
    assert!(
        sparse.stepped < reference.stepped,
        "the active-set engine stepped {} node-rounds, the full sweep {}",
        sparse.stepped,
        reference.stepped
    );
    let check = |got: &EngineObservation<T>, reverse: bool, full_sweep: bool| {
        let label = format!("reverse = {reverse}, full sweep = {full_sweep}");
        let want_stepped = if full_sweep {
            reference.stepped
        } else {
            sparse.stepped
        };
        assert_eq!(got.stepped, want_stepped, "stepped node-rounds at {label}");
        assert_eq!(got.result, reference.result, "result at {label}");
        assert_eq!(got.outputs, reference.outputs, "outputs at {label}");
        assert_eq!(got.edge_load, reference.edge_load, "edge load at {label}");
        assert_eq!(
            got.fault_events, reference.fault_events,
            "fault log at {label}"
        );
        assert_eq!(got.crashed, reference.crashed, "crashed set at {label}");
        assert_eq!(
            got.churn_events, reference.churn_events,
            "churn log at {label}"
        );
        assert_eq!(got.profile, reference.profile, "profile at {label}");
        if !reverse {
            assert_eq!(got.trace, reference.trace, "trace at {label}");
        }
    };
    check(&sparse, false, false);
    for full_sweep in [false, true] {
        check(
            &observe(build(), cfg, true, full_sweep, &output),
            true,
            full_sweep,
        );
    }
    reference
}

/// Runs the churn diff of `plan` over a graph of `n` nodes and `m` edges
/// for local rounds `0..rounds` and asserts, every round, that the view the
/// engine reads agrees with the schedule evaluated from scratch, for every
/// edge and node: edge and node states, rejoin flags (never in round 0,
/// which is `init`'s), lost links, the down count, and the node transitions
/// the round reports to the engine (nodes going offline, nodes rejoining,
/// each ascending by id). Its event log and restart count must equal those
/// of a brute-force diff of every edge and every node in every round.
/// Returns the event log.
///
/// # Panics
///
/// At the first disagreement, naming the round, the id and the plan; or
/// when `plan` does not validate against `n` and `m`.
pub fn assert_churn_view_agrees(
    plan: &ChurnPlan,
    n: usize,
    m: usize,
    rounds: u64,
) -> Vec<ChurnEvent> {
    plan.validate(n, m).expect("a valid plan");
    let s = plan.normalize(n, m);
    let mut st = ChurnState::new(&s);
    let mut got = Metrics::default();
    let mut want = Metrics::default();
    let mut want_events = Vec::new();
    let mut edge_was = vec![false; m];
    let mut node_was = vec![false; n];
    for r in 0..rounds {
        let mut moved = Transitions::default();
        st.begin_round(r, &mut got, &mut moved);
        let mut want_moved = Transitions::default();
        for (e, was) in edge_was.iter_mut().enumerate() {
            let down = s.edge_down(r, e);
            assert_eq!(st.edge_down(e), down, "edge {e}, round {r}, {plan:?}");
            if down != *was {
                *was = down;
                let edge = EdgeId(e as u32);
                want_events.push(ChurnEvent {
                    round: r,
                    kind: if down {
                        ChurnKind::EdgeDown { edge }
                    } else {
                        ChurnKind::EdgeUp { edge }
                    },
                });
            }
        }
        for (v, was) in node_was.iter_mut().enumerate() {
            let down = s.node_down(r, v);
            assert_eq!(st.node_down(v), down, "node {v}, round {r}, {plan:?}");
            let rejoins = r > 0 && s.rejoining(r, v);
            assert_eq!(
                st.rejoining(v),
                rejoins,
                "rejoin of {v}, round {r}, {plan:?}"
            );
            if down && !*was {
                want_moved.left.push(v as u32);
            }
            if rejoins {
                want_moved.rejoined.push(v as u32);
            }
            if down != *was {
                *was = down;
                let node = NodeId(v as u32);
                want_events.push(ChurnEvent {
                    round: r,
                    kind: if down {
                        ChurnKind::NodeDown { node }
                    } else {
                        want.restarts += 1;
                        ChurnKind::NodeRejoin { node }
                    },
                });
            }
        }
        for e in 0..m {
            let v = e % n;
            assert_eq!(
                st.link_down(e, v),
                s.edge_down(r, e) || s.node_down(r, v),
                "link over edge {e} to node {v}, round {r}, {plan:?}"
            );
        }
        let down_now = (0..n).filter(|&v| s.node_down(r, v)).count() as u64;
        assert_eq!(st.down_count(), down_now, "down count, round {r}, {plan:?}");
        assert_eq!(moved, want_moved, "node transitions, round {r}, {plan:?}");
    }
    assert_eq!(st.events, want_events, "event log of {plan:?}");
    assert_eq!(got, want, "metrics of {plan:?}");
    st.events
}

/// The integer threshold of the churn view's flap test for probability
/// `p ∈ [0, 1]`: the view takes an edge down in a window exactly when its
/// flap word `w` has `(w >> 11) < flap_threshold(p)`, where the schedule
/// compares `(w >> 11) · 2^-53 < p` in floating point.
pub fn flap_threshold(p: f64) -> u64 {
    crate::churn::flap_threshold(p)
}
