//! Synchronous CONGEST-model simulator.
//!
//! The CONGEST model (the model of the paper) abstracts the network as an
//! `n`-node graph; computation proceeds in synchronous rounds and per round
//! each node may send one `O(log n)`-bit message over each incident edge.
//!
//! This crate provides:
//!
//! * [`Simulator`] — executes a [`Protocol`] (one state machine per node)
//!   round by round, enforcing **one message per directed edge per round**
//!   and a **bit budget** on every message (`O(log n)` with an explicit,
//!   configurable constant), and recording [`Metrics`] (rounds, messages,
//!   bits).
//! * [`primitives`] — classic building blocks implemented *as protocols*,
//!   with honest round counts: flooding broadcast, distributed BFS-tree
//!   construction, convergecast aggregation over a tree, leader election by
//!   max-id flooding, and a pipelined upcast used by the
//!   Garay–Kutten–Peleg-style baseline.
//! * [`faults`] — deterministic, seed-driven fault injection (message drop,
//!   single-bit corruption, bounded delay, crash-stop failures) applied by
//!   the simulator between staging and delivery, plus the
//!   [`ReliableLink`] ack/retransmit sublayer protocols use to survive it.
//! * [`churn`] — deterministic topology churn ([`ChurnPlan`]): edges that
//!   flap up/down on per-edge schedules or a seeded PRF, and nodes that
//!   crash-*restart* with state loss ([`Protocol::on_restart`]) — the
//!   sustained-damage counterpart to the fault layer's one-shot failures.
//!   Protocols observe link state through [`Ctx::link_up`].
//! * [`trace`] — opt-in round-level observability ([`RunTrace`]): per-round
//!   timeline samples, protocol-emitted span events ([`Ctx::trace_event`]),
//!   striding per-edge load snapshots, and the wall-clock [`PhaseTimings`]
//!   type shared by the protocol crates. Disabled by default with zero
//!   overhead; enabling it never changes `Metrics` or protocol outputs.
//! * [`profile`] — opt-in traffic-class attribution ([`TrafficProfile`]):
//!   every delivery is tagged with a [`TrafficClass`] (protocol default or
//!   per-send via [`Ctx::send_classed`]) and aggregated per `(class, round)`
//!   and `(class, edge)`, with hot-edge analysis ([`CongestionProfile`]).
//!   Same zero-cost-when-off contract as [`trace`]; per-class totals sum
//!   exactly to the run's [`Metrics`] and per-edge loads.
//! * [`telemetry`] — opt-in runtime-execution health ([`RunTelemetry`]):
//!   engine gauges (active-set occupancy, inbox / staged-send / wake-queue
//!   depth, arena byte high-water marks), run work totals, a
//!   fixed-capacity flight recorder holding the last K rounds (dumped to
//!   `flightrec_<id>.json` when a run errors), and an optional NDJSON
//!   live-stream sink. Every counter is visit-order-invariant. Same
//!   zero-cost-when-off contract as [`trace`].
//!
//! Determinism: every node owns a private RNG stream derived from
//! `(run seed, node id)` and handed to protocols through [`Ctx::rng`], and
//! staged messages are delivered in `(sender, port)` order — so every run is
//! reproducible from `(graph, seed)` independently of executor visit order
//! (see the [`sim`](self) module docs for the full contract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod message;
mod metrics;
mod sim;

pub mod churn;
pub mod faults;
pub mod observe;
pub mod primitives;
pub mod profile;
pub mod telemetry;
pub mod trace;

pub use amt_graphs::partitioning::Placement;
pub use churn::{ChurnEvent, ChurnKind, ChurnPlan, EdgeOutage, RestartEvent};
pub use error::CongestError;
pub use faults::{CrashEvent, FaultEvent, FaultKind, FaultPlan};
pub use message::{bits_for_count, bits_for_value, CongestMessage};
pub use metrics::Metrics;
pub use observe::{Observe, Observed, ObservedRuns};
pub use primitives::reliable::{reliable_broadcast, Reliable, ReliableLink};
pub use profile::{
    class, ClassStats, CongestionProfile, HotEdge, ProfileConfig, ShardClassSplit, ShardSplit,
    TrafficClass, TrafficProfile,
};
pub use sim::{Ctx, Protocol, RunConfig, Simulator, StopCondition};
pub use telemetry::{
    dump_flight, render_flight_dump, FlightFrame, FlightRecorder, GaugeHighWater, RoundHealth,
    RunTelemetry, TelemetryConfig,
};
pub use trace::{
    Distribution, PhaseTimings, RecoveryTimeline, RoundSample, RunTrace, TraceConfig, TraceEvent,
};

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, CongestError>;
