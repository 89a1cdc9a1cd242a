//! One observation pipeline for the round engine.
//!
//! A run is observed by up to three layers — the round timeline
//! ([`crate::trace`]), traffic-class attribution ([`crate::profile`]) and
//! host time per round-engine phase ([`Observe::phases`]).
//! The trace is the one record of the run's rounds: gauge high-water
//! marks, work totals and the post-mortem are folds over it, and the report
//! layer (`amt-bench`) is what writes it to disk. The
//! layers are requested together with one [`Observe`] value
//! ([`crate::Simulator::with_observe`]), fed by one recorder inside the
//! engine, and handed back together as one [`Observed`]
//! ([`crate::Simulator::take_observed`]). Drivers that chain several
//! simulator runs fold them with [`ObservedRuns`].
//!
//! Every layer shares one contract: off (the default) costs a branch per
//! hook and leaves the execution path byte-identical; on, it never changes
//! `Metrics`, protocol state, RNG streams, the fault and churn logs, or
//! another layer's record. The phase timers are host wall-clock, so like
//! every [`PhaseTimings`] they take no part in any equality.

use crate::profile::{TrafficClass, TrafficProfile};
use crate::trace::{PhaseTimings, RoundSample, RunTrace, TraceEvent};
use crate::Metrics;
use std::time::Instant;

/// Which observation layers record the runs of a [`crate::Simulator`];
/// `false` leaves a layer off, the default for all three.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observe {
    /// Round timeline (one record per round: deliveries, faults and engine
    /// gauges), protocol span events, and the final per-edge loads.
    pub trace: bool,
    /// Per-traffic-class delivery attribution.
    pub profile: bool,
    /// Host time per round-engine phase, summed over the run's rounds:
    /// `topology` (start-of-round crashes and the churn diff), `activate`
    /// (the active set), `step` (the protocol steps), `merge` (the ordered
    /// merge with its fault and churn verdicts, the release of held
    /// messages, and the round's record) and `group` (the next inbox).
    pub phases: bool,
}

/// The trace argument of the `#[doc(hidden)]` `_instrumented` driver
/// wrappers, kept for the repository benchmark's pinned calls: `Some`
/// turns [`Observe::trace`] on. It carries no setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig;

/// The profile argument of the `#[doc(hidden)]` `_instrumented` driver
/// wrappers, kept for the repository benchmark's pinned calls: `Some`
/// turns [`Observe::profile`] on. It carries no setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileConfig;

/// The phases of one round of the round engine, in round order (see
/// [`Observe::phases`]).
#[derive(Clone, Copy)]
pub(crate) enum Phase {
    Topology,
    Activate,
    Step,
    Merge,
    Group,
}

/// The label of each [`Phase`] in [`Observed::phases`], in round order.
const PHASE_LABELS: [&str; 5] = ["topology", "activate", "step", "merge", "group"];

/// What the observation layers recorded over one run; a layer that was off
/// is `None`. A run aborted by an error keeps what was recorded up to the
/// abort (a trace then has an empty `final_edge_load`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Observed {
    /// The round timeline.
    pub trace: Option<RunTrace>,
    /// The traffic-class profile.
    pub profile: Option<TrafficProfile>,
    /// Host nanoseconds per round-engine phase, every label of
    /// [`Observe::phases`] present, in round order.
    pub phases: Option<PhaseTimings>,
}

/// Observations folded across the runs of a multi-run driver (per-phase or
/// per-epoch simulators): every run's trace in run order, one profile
/// whose timeline shifts each run by the rounds elapsed before it, so its
/// totals match the driver's accumulated [`Metrics`], and the phase timers
/// summed over the runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObservedRuns {
    /// One trace per traced run, in run order.
    pub traces: Vec<RunTrace>,
    /// The cumulative profile (`None` if no run was profiled).
    pub profile: Option<TrafficProfile>,
    /// The summed phase timers (`None` if no run timed its phases).
    pub phases: Option<PhaseTimings>,
}

impl ObservedRuns {
    /// Folds one run's observations in; `round_offset` is the number of
    /// rounds the driver executed before that run.
    pub fn absorb(&mut self, run: Observed, round_offset: u64) {
        self.traces.extend(run.trace);
        if let Some(p) = run.profile {
            self.profile
                .get_or_insert_with(|| TrafficProfile::empty(p.edge_count()))
                .absorb(&p, round_offset);
        }
        if let Some(t) = run.phases {
            self.phases.get_or_insert_with(PhaseTimings::new).merge(&t);
        }
    }
}

/// The recording state of one run, fed by the round engine at fixed points
/// of every round: [`Recorder::begin_round`], the end of each [`Phase`],
/// the step's events and gauges, each delivery, [`Recorder::end_round`],
/// and [`Recorder::stopped`] on a clean stop.
pub(crate) struct Recorder {
    trace: Option<RunTrace>,
    profile: Option<TrafficProfile>,
    /// The phase timers: the end of the last lap, and nanoseconds per
    /// [`Phase`].
    phases: Option<(Instant, [u64; 5])>,
    /// The record of the round being recorded, and the metrics at its
    /// start: deliveries are stamped with its round, its gauges are filled
    /// at the step, and its deltas against the start when it closes.
    sample: RoundSample,
    start: Metrics,
}

impl Recorder {
    /// A recorder for a run over a graph with `edges` edges.
    pub(crate) fn new(observe: &Observe, edges: usize) -> Self {
        Recorder {
            trace: observe.trace.then(RunTrace::default),
            profile: observe.profile.then(|| TrafficProfile::new(edges)),
            phases: observe.phases.then(|| (Instant::now(), [0; 5])),
            sample: RoundSample::default(),
            start: Metrics::default(),
        }
    }

    /// Whether the trace is on: span events, engine gauges and the round
    /// record are kept only then.
    pub(crate) fn traces(&self) -> bool {
        self.trace.is_some()
    }

    /// Opens `round`, before any of its crashes or deliveries are counted,
    /// and starts its first phase's lap.
    pub(crate) fn begin_round(&mut self, round: u64, metrics: Metrics) {
        self.sample = RoundSample {
            round,
            ..RoundSample::default()
        };
        self.start = metrics;
        if let Some((mark, _)) = self.phases.as_mut() {
            *mark = Instant::now();
        }
    }

    /// Ends `phase`: charges it the host time since the last lap.
    #[inline]
    pub(crate) fn lap(&mut self, phase: Phase) {
        if let Some((mark, nanos)) = self.phases.as_mut() {
            let now = Instant::now();
            nanos[phase as usize] += now.duration_since(*mark).as_nanos() as u64;
            *mark = now;
        }
    }

    /// Takes the span events the round's step emitted.
    pub(crate) fn events(&mut self, events: &mut Vec<TraceEvent>) {
        if let Some(t) = self.trace.as_mut() {
            t.events.append(events);
        }
    }

    /// The round's record, for the engine to fill its gauge fields at the
    /// step's sampling point (only when [`Recorder::traces`]).
    pub(crate) fn gauges(&mut self) -> &mut RoundSample {
        &mut self.sample
    }

    /// Attributes one delivery of `bits` bits over `edge` to `class` — at
    /// the same point that counts it in `Metrics`, so per-class totals sum
    /// exactly to the run's.
    #[inline]
    pub(crate) fn delivered(&mut self, class: TrafficClass, edge: usize, bits: u64) {
        if let Some(p) = self.profile.as_mut() {
            p.record(class, self.sample.round, edge, bits);
        }
    }

    /// Closes the round: fills the record's deltas, `nodes_down` and
    /// `active_nodes` (nodes stepped) and appends it to the trace.
    /// `nodes_down` is only evaluated when the trace is on.
    pub(crate) fn end_round(
        &mut self,
        metrics: Metrics,
        nodes_down: impl FnOnce(&Metrics) -> u64,
        active_nodes: u64,
    ) {
        let Some(t) = self.trace.as_mut() else {
            return;
        };
        let s = &self.start;
        let sample = RoundSample {
            messages: metrics.messages - s.messages,
            bits: metrics.bits - s.bits,
            dropped: metrics.dropped - s.dropped,
            corrupted: metrics.corrupted - s.corrupted,
            delayed: metrics.delayed - s.delayed,
            lost_to_crash: metrics.lost_to_crash - s.lost_to_crash,
            crashed: metrics.crashed - s.crashed,
            lost_to_churn: metrics.lost_to_churn - s.lost_to_churn,
            restarts: metrics.restarts - s.restarts,
            nodes_down: nodes_down(&metrics),
            active_nodes,
            ..self.sample
        };
        t.samples.push(sample);
    }

    /// Records the final per-edge loads of a run that stopped cleanly.
    pub(crate) fn stopped(&mut self, edge_load: &[u64]) {
        if let Some(t) = self.trace.as_mut() {
            t.final_edge_load = edge_load.to_vec();
        }
    }

    /// Everything recorded, including after an aborted run: the trace's
    /// last rounds are the post-mortem.
    pub(crate) fn finish(self) -> Observed {
        Observed {
            trace: self.trace,
            profile: self.profile,
            phases: self.phases.map(|(_, nanos)| {
                let mut t = PhaseTimings::new();
                for (label, ns) in PHASE_LABELS.into_iter().zip(nanos) {
                    t.record_nanos(label, ns);
                }
                t
            }),
        }
    }
}
