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

use crate::{
    ChurnEvent, CongestError, FaultEvent, Metrics, Observe, ProfileConfig, Protocol, RunConfig,
    RunTrace, Simulator, TraceConfig, TrafficProfile,
};
use amt_graphs::NodeId;
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
