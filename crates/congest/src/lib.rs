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
//! * [`trace`] — opt-in round-level observability ([`RunTrace`]), the one
//!   record of a run's rounds: the per-round history of [`RoundSample`]
//!   records (deliveries, faults and engine gauges: nodes stepped, inbox /
//!   staged-send / wake-queue depth, arena bytes), protocol-emitted span
//!   events ([`Ctx::trace_event`]), striding per-edge load snapshots, and
//!   the wall-clock [`PhaseTimings`] type shared by the protocol crates.
//!   Run-wide gauge high-water marks ([`RunTrace::high_water`]) and work
//!   totals are folds over that history, and an aborted run keeps its trace
//!   up to the abort as its post-mortem. Disabled by default with zero
//!   overhead; enabling it never changes `Metrics` or protocol outputs.
//!
//! The crate does no file or environment I/O: runs are serialized by the
//! report layer of `amt-bench`.
//! * [`profile`] — opt-in traffic-class attribution ([`TrafficProfile`]):
//!   every delivery is tagged with a [`TrafficClass`] (protocol default or
//!   per-send via [`Ctx::send_classed`]) and aggregated per `(class, round)`
//!   and `(class, edge)`, with hot-edge analysis ([`CongestionProfile`]).
//!   Same zero-cost-when-off contract as [`trace`]; per-class totals sum
//!   exactly to the run's [`Metrics`] and per-edge loads.
//! * [`stage`] — [`StageRunner`], the one global round clock of drivers
//!   that chain simulator runs (per-phase or per-epoch): it re-anchors the
//!   churn plan, folds observations and metrics, and dates damage.
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
pub mod oracle;
pub mod primitives;
pub mod profile;
pub mod stage;
pub mod trace;

pub use churn::{ChurnEvent, ChurnKind, ChurnPlan, EdgeOutage, RestartEvent};
pub use error::CongestError;
pub use faults::{backoff_timeout, keyed_splitmix, CrashEvent, FaultEvent, FaultKind, FaultPlan};
pub use message::{bits_for_count, bits_for_value, CongestMessage};
pub use metrics::Metrics;
pub use observe::{Observe, Observed, ObservedRuns};
pub use primitives::reliable::{reliable_broadcast, Reliable, ReliableLink};
pub use profile::{
    class, ClassStats, CongestionProfile, HotEdge, ProfileConfig, TrafficClass, TrafficProfile,
};
pub use sim::{Ctx, Protocol, RunConfig, Simulator, StopCondition};
pub use stage::StageRunner;
pub use trace::{
    Distribution, GaugeHighWater, PhaseTimings, RecoveryTimeline, RoundSample, RunTrace,
    TraceConfig, TraceEvent,
};

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, CongestError>;
