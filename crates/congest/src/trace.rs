//! Round-level run tracing and wall-clock phase timing.
//!
//! The simulator's [`crate::Metrics`] are end-of-run scalars; this module
//! records *how the run got there*. A [`RunTrace`] is the run's per-round
//! history: one [`RoundSample`] per executed round (deliveries, per-round
//! fault counts, engine gauges), the protocol-emitted [`TraceEvent`] stream
//! ([`crate::Ctx::trace_event`]), and the final per-edge load vector.
//! Those two carry the paper's CONGEST cost, per round and per edge; a
//! trace keeps no mid-run per-edge series.
//!
//! The trace is the one record of a run's rounds. Everything else said
//! about them is a fold over [`RunTrace::samples`]: the run's `Metrics`
//! ([`RunTrace::reconstruct_metrics`]), the gauges' high-water marks
//! ([`RunTrace::high_water`]) and the work totals (the sums of
//! `active_nodes` and `staged_sends`). An aborted run keeps its trace up to
//! the abort, so its last rounds are its post-mortem. This crate writes
//! nothing to disk: serializing a trace is the report layer's job
//! (`amt-bench`'s `Report::trace`).
//!
//! # Contract
//!
//! * **Disabled by default, zero overhead.** Tracing is off unless
//!   requested through [`crate::Observe::trace`]; a disabled run takes the
//!   exact same code path bit for bit — `Metrics`, protocol state, and RNG
//!   streams are byte-identical with tracing on or off.
//! * **Deterministic.** Samples are recorded once per round in round order;
//!   events are recorded in `(round, node)` order, the order in which the
//!   engine steps nodes.
//! * **Lossless accounting.** Summing the timeline reproduces the run's
//!   `Metrics` exactly — see [`RunTrace::reconstruct_metrics`], which tests
//!   use to cross-check the simulator's own accounting.

use crate::Metrics;
use amt_graphs::NodeId;
use std::time::Duration;

/// The record of one executed round: its deliveries and faults (deltas)
/// and the engine's gauges. The trace keeps one per round; high-water
/// marks, work totals and the post-mortem are folds over them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundSample {
    /// The round number (0 is the `init` round).
    pub round: u64,
    /// Messages delivered into next-round inboxes during this round.
    pub messages: u64,
    /// Bits delivered during this round (sum of delivered frame widths,
    /// including the actual widths of corrupted-but-deliverable frames).
    pub bits: u64,
    /// Messages discarded by injected drop faults this round.
    pub dropped: u64,
    /// Messages hit by injected corruption this round (delivered or not).
    pub corrupted: u64,
    /// Messages postponed by injected delay faults this round.
    pub delayed: u64,
    /// Previously delayed messages lost this round to a crashed destination.
    pub lost_to_crash: u64,
    /// Nodes crash-stopped at the start of this round.
    pub crashed: u64,
    /// Messages lost this round to a down edge or offline destination
    /// (topology churn).
    pub lost_to_churn: u64,
    /// Churn rejoins completed at the start of this round.
    pub restarts: u64,
    /// **Gauge**, not a delta: nodes unavailable during this round — fault
    /// crash-stops plus churn outages.
    pub nodes_down: u64,
    /// **Gauge**: protocol callbacks that ran this round. Under the
    /// full-sweep reference engine this is every live node; under the
    /// active-set engine it is only the woken ones (mail, due
    /// [`crate::Ctx::wake_in`] timers, churn rejoins), so the ratio to `n`
    /// is the round's sparsity. Crashed and churn-offline nodes are never
    /// stepped; they are counted in `nodes_down`. Executor-dependent (see
    /// [`RunTrace::without_executor_gauges`]).
    pub active_nodes: u64,
    /// **Gauge**: messages in this round's inbox slab when stepping began.
    pub inbox_queued: u64,
    /// **Gauge**: messages staged for delivery by this round's steps.
    pub staged_sends: u64,
    /// **Gauge**: pending [`crate::Ctx::wake_in`] timers across all future
    /// rounds; 0 under the full sweep, which serves no timer queue.
    /// Executor-dependent (see [`RunTrace::without_executor_gauges`]).
    pub wake_queue: u64,
    /// **Gauge**: bytes logically held by the message arenas this round
    /// (element counts × element sizes; allocator-independent).
    pub arena_bytes: u64,
}

/// High-water marks of the per-round gauges over a whole run
/// ([`RunTrace::high_water`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeHighWater {
    /// Peak nodes stepped in one round.
    pub active_nodes: u64,
    /// Peak inbox-slab depth (messages).
    pub inbox_queued: u64,
    /// Peak staged-send depth (messages).
    pub staged_sends: u64,
    /// Peak wake-queue depth (pending timers).
    pub wake_queue: u64,
    /// Peak logical arena bytes.
    pub arena_bytes: u64,
}

/// One protocol-emitted span/phase marker (see [`crate::Ctx::trace_event`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round in which the event was emitted.
    pub round: u64,
    /// The node that emitted it.
    pub node: NodeId,
    /// Static label naming the span or phase (e.g. `"boruvka_iter"`).
    pub label: &'static str,
    /// Free-form payload (iteration number, fragment id, …).
    pub value: u64,
}

/// The recorded timeline of one [`crate::Simulator::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// One sample per executed round, in round order.
    pub samples: Vec<RoundSample>,
    /// Protocol-emitted events in `(round, node)` order.
    pub events: Vec<TraceEvent>,
    /// Final cumulative per-edge loads (empty if the run aborted early).
    pub final_edge_load: Vec<u64>,
}

impl RunTrace {
    /// Rebuilds the run's [`Metrics`] from the timeline alone.
    ///
    /// For a successful run this is *exactly* the value returned by
    /// [`crate::Simulator::run`]; any divergence is an accounting bug in
    /// one of the two code paths, which is why the regression tests compare
    /// them field by field.
    pub fn reconstruct_metrics(&self) -> Metrics {
        let mut m = Metrics {
            rounds: self.samples.last().map_or(0, |s| s.round),
            max_edge_congestion: self.final_edge_load.iter().copied().max().unwrap_or(0),
            ..Metrics::default()
        };
        for s in &self.samples {
            m.messages += s.messages;
            m.bits += s.bits;
            m.peak_messages_per_round = m.peak_messages_per_round.max(s.messages);
            m.dropped += s.dropped;
            m.corrupted += s.corrupted;
            m.delayed += s.delayed;
            m.lost_to_crash += s.lost_to_crash;
            m.crashed += s.crashed;
            m.lost_to_churn += s.lost_to_churn;
            m.restarts += s.restarts;
        }
        m
    }

    /// The run-wide maximum of every engine gauge: the field-wise max over
    /// [`RunTrace::samples`] (all zero for an empty trace).
    pub fn high_water(&self) -> GaugeHighWater {
        let mut h = GaugeHighWater::default();
        for s in &self.samples {
            h.active_nodes = h.active_nodes.max(s.active_nodes);
            h.inbox_queued = h.inbox_queued.max(s.inbox_queued);
            h.staged_sends = h.staged_sends.max(s.staged_sends);
            h.wake_queue = h.wake_queue.max(s.wake_queue);
            h.arena_bytes = h.arena_bytes.max(s.arena_bytes);
        }
        h
    }

    /// The trace with the two executor-dependent gauges, `active_nodes`
    /// and `wake_queue`, zeroed: what the active-set engine and the full
    /// sweep must record identically.
    pub fn without_executor_gauges(mut self) -> Self {
        for s in &mut self.samples {
            s.active_nodes = 0;
            s.wake_queue = 0;
        }
        self
    }
}

/// Order statistics of a per-round series — the round-level detail the
/// scalar [`Metrics`] averages hide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Distribution {
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
}

impl Distribution {
    /// Computes nearest-rank percentiles over `values`: the q-th percentile
    /// of `n` sorted values is the `⌈q/100 · n⌉`-th smallest (1-indexed), so
    /// p50 of [1, 2, 3, 4] is 2 and p95 of 100 values is the 95th.
    ///
    /// Returns `None` for an empty series — an empty timeline (e.g. a
    /// traffic class that registered but never sent) has *no* order
    /// statistics, and reporting zeros would be indistinguishable from a
    /// series of real zeros. Callers that want the lenient legacy behavior
    /// use [`Distribution::of`].
    pub fn try_of(values: impl Iterator<Item = u64>) -> Option<Distribution> {
        let mut sorted: Vec<u64> = values.collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = |q: usize| sorted[((q * n).div_ceil(100)).clamp(1, n) - 1];
        Some(Distribution {
            p50: rank(50),
            p95: rank(95),
            max: sorted[n - 1],
        })
    }

    /// [`Distribution::try_of`], with the empty series collapsed to the
    /// all-zero default. Only safe where the caller separately knows the
    /// series is non-empty (or treats all-zero as "nothing to report").
    pub fn of(values: impl Iterator<Item = u64>) -> Distribution {
        Distribution::try_of(values).unwrap_or_default()
    }
}

/// Time-to-reconverge bookkeeping for self-healing drivers under sustained
/// damage.
///
/// A *damage* mark opens a recovery span at the global round the topology
/// changed (crash, restart, edge cut, flap window); a *recovery* mark closes
/// **every** open span at the round the driver next reached a
/// verified-correct state (a delivered walk batch, a completed and verified
/// Borůvka iteration). Spans that never close — damage the run ended still
/// digesting — stay in [`RecoveryTimeline::open_count`]. All rounds are
/// simulated rounds, so the timeline is as deterministic as the run itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Rounds of damage events not yet recovered from, in record order.
    open: Vec<u64>,
    /// Closed `(damage_round, recovery_round)` spans, in recovery order.
    closed: Vec<(u64, u64)>,
}

impl RecoveryTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a recovery span: damage landed at `round`.
    pub fn record_damage(&mut self, round: u64) {
        self.open.push(round);
    }

    /// Closes every open span: the protocol re-reached a verified-correct
    /// state at `round`.
    pub fn record_recovery(&mut self, round: u64) {
        for d in self.open.drain(..) {
            self.closed.push((d, round.max(d)));
        }
    }

    /// Closed `(damage_round, recovery_round)` spans, in recovery order.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.closed
    }

    /// Damage events the run ended without recovering from.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Order statistics of `recovery_round - damage_round` over the closed
    /// spans — the run's time-to-reconverge distribution.
    pub fn time_to_reconverge(&self) -> Distribution {
        Distribution::of(self.closed.iter().map(|&(d, r)| r - d))
    }
}

/// Named wall-clock durations of an algorithm's phases.
///
/// This is *observability metadata*: it reports how long the host machine
/// took, not anything about the simulated execution. To keep the
/// simulator's determinism contract testable (`Metrics`, outcome structs,
/// and stats structs are compared across visit orders and execution
/// paths), **equality on `PhaseTimings` is always `true`** — two
/// values compare equal whatever they contain. `assert_eq!` on this type
/// (or on a struct embedding it) therefore says nothing about the timings
/// themselves. Assertions about timings must go through
/// [`PhaseTimings::entries`] explicitly, or use the tolerance-based
/// [`PhaseTimings::close_to`] comparison.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimings {
    entries: Vec<(&'static str, u64)>,
}

impl PhaseTimings {
    /// An empty set of timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `elapsed` under `label`, accumulating into an existing entry
    /// with the same label if one exists.
    pub fn record(&mut self, label: &'static str, elapsed: Duration) {
        self.record_nanos(label, elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records `nanos` nanoseconds under `label` (accumulating).
    pub fn record_nanos(&mut self, label: &'static str, nanos: u64) {
        if let Some(e) = self.entries.iter_mut().find(|(l, _)| *l == label) {
            e.1 = e.1.saturating_add(nanos);
        } else {
            self.entries.push((label, nanos));
        }
    }

    /// The recorded `(label, nanoseconds)` pairs, in first-recorded order.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.entries
    }

    /// Total nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|&(_, ns)| ns).sum()
    }

    /// Nanoseconds recorded under `label` (0 if absent).
    pub fn nanos(&self, label: &str) -> u64 {
        self.entries
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Accumulates every entry of `later` into this set.
    pub fn merge(&mut self, later: &PhaseTimings) {
        for &(label, ns) in &later.entries {
            self.record_nanos(label, ns);
        }
    }

    /// True when both sides have the same labels and every per-label total
    /// is within a relative tolerance: `|a - b| <= tol * max(a, b)`.
    ///
    /// This is the *real* comparison `==` deliberately is not (see the type
    /// docs): wall-clock totals jitter between hosts and runs, so tables
    /// that sanity-check timings (e1/e16 wall tables) compare with a
    /// tolerance instead of ad-hoc per-field arithmetic. Labels are matched
    /// as sets — ordering differences don't fail the comparison. A `tol` of
    /// `0.25` accepts up to 25% relative drift per phase.
    pub fn close_to(&self, other: &PhaseTimings, tol: f64) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        self.entries.iter().all(|&(label, a)| {
            other.entries.iter().any(|&(l, b)| {
                l == label && {
                    let hi = a.max(b) as f64;
                    (a.abs_diff(b) as f64) <= tol * hi
                }
            })
        })
    }
}

/// Wall-clock timings never participate in semantic equality (see the type
/// docs); determinism assertions over structs embedding them stay exact.
impl PartialEq for PhaseTimings {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for PhaseTimings {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruct_sums_and_maxima() {
        let trace = RunTrace {
            samples: vec![
                RoundSample {
                    round: 0,
                    messages: 4,
                    bits: 40,
                    dropped: 1,
                    corrupted: 0,
                    delayed: 2,
                    lost_to_crash: 0,
                    crashed: 1,
                    lost_to_churn: 0,
                    restarts: 0,
                    nodes_down: 1,
                    active_nodes: 4,
                    ..RoundSample::default()
                },
                RoundSample {
                    round: 1,
                    messages: 6,
                    bits: 50,
                    dropped: 0,
                    corrupted: 2,
                    delayed: 0,
                    lost_to_crash: 1,
                    crashed: 0,
                    lost_to_churn: 3,
                    restarts: 1,
                    nodes_down: 2,
                    active_nodes: 3,
                    ..RoundSample::default()
                },
                RoundSample {
                    round: 2,
                    messages: 0,
                    bits: 0,
                    dropped: 0,
                    corrupted: 0,
                    delayed: 0,
                    lost_to_crash: 0,
                    crashed: 0,
                    lost_to_churn: 0,
                    restarts: 0,
                    nodes_down: 1,
                    active_nodes: 0,
                    ..RoundSample::default()
                },
            ],
            events: Vec::new(),
            final_edge_load: vec![3, 7, 0],
        };
        let m = trace.reconstruct_metrics();
        assert_eq!(
            m,
            Metrics {
                rounds: 2,
                messages: 10,
                bits: 90,
                peak_messages_per_round: 6,
                max_edge_congestion: 7,
                dropped: 1,
                corrupted: 2,
                delayed: 2,
                lost_to_crash: 1,
                crashed: 1,
                lost_to_churn: 3,
                restarts: 1,
            }
        );
    }

    #[test]
    fn empty_trace_reconstructs_default() {
        assert_eq!(
            RunTrace::default().reconstruct_metrics(),
            Metrics::default()
        );
    }

    #[test]
    fn distributions_use_nearest_rank() {
        // Hand-computed: sorted [1, 2, 3, 4] → p50 = 2nd = 2, p95 = ⌈3.8⌉ =
        // 4th = 4, max = 4.
        let d = Distribution::of([4, 1, 3, 2].into_iter());
        assert_eq!(
            d,
            Distribution {
                p50: 2,
                p95: 4,
                max: 4
            }
        );
        // Singleton: every statistic is the value itself.
        assert_eq!(
            Distribution::of([7].into_iter()),
            Distribution {
                p50: 7,
                p95: 7,
                max: 7
            }
        );
        // Empty: all zero.
        assert_eq!(Distribution::of([].into_iter()), Distribution::default());
        // 100 values 1..=100: p50 = 50, p95 = 95.
        let d = Distribution::of(1..=100u64);
        assert_eq!(
            d,
            Distribution {
                p50: 50,
                p95: 95,
                max: 100
            }
        );
    }

    #[test]
    fn empty_timelines_have_no_statistics() {
        // An empty series has no order statistics: `try_of` says so
        // explicitly instead of fabricating zeros.
        assert_eq!(Distribution::try_of([].into_iter()), None);
        // The lenient wrapper collapses that to the all-zero default.
        assert_eq!(Distribution::of([].into_iter()), Distribution::default());
        // Singleton: every statistic is the value itself.
        assert_eq!(
            Distribution::try_of([7].into_iter()),
            Some(Distribution {
                p50: 7,
                p95: 7,
                max: 7
            })
        );
        // Two elements [3, 9]: p50 = ⌈1⌉-st = 3, p95 = ⌈1.9⌉-nd = 9.
        assert_eq!(
            Distribution::try_of([9, 3].into_iter()),
            Some(Distribution {
                p50: 3,
                p95: 9,
                max: 9
            })
        );
    }

    #[test]
    fn distributions_at_scale_use_nearest_rank() {
        // 100 values 1..=100: p50 = 50, p95 = 95.
        let d = Distribution::of(1..=100u64);
        assert_eq!(
            d,
            Distribution {
                p50: 50,
                p95: 95,
                max: 100
            }
        );
    }

    #[test]
    fn without_executor_gauges_zeroes_only_active_nodes_and_wake_queue() {
        let s = RoundSample {
            round: 3,
            messages: 6,
            active_nodes: 5,
            inbox_queued: 4,
            staged_sends: 6,
            wake_queue: 2,
            arena_bytes: 96,
            ..RoundSample::default()
        };
        let trace = RunTrace {
            samples: vec![s],
            ..RunTrace::default()
        };
        assert_eq!(
            trace.without_executor_gauges().samples,
            vec![RoundSample {
                active_nodes: 0,
                wake_queue: 0,
                ..s
            }]
        );
    }

    fn gauge_sample(round: u64) -> RoundSample {
        RoundSample {
            round,
            messages: round,
            active_nodes: 10 + round,
            inbox_queued: 5,
            staged_sends: 7,
            wake_queue: 3,
            arena_bytes: 120,
            ..RoundSample::default()
        }
    }

    #[test]
    fn high_water_is_the_field_wise_max() {
        let mut samples: Vec<RoundSample> = (0..4).map(gauge_sample).collect();
        samples[1].wake_queue = 9;
        samples[2].arena_bytes = 400;
        let trace = RunTrace {
            samples,
            ..RunTrace::default()
        };
        assert_eq!(
            trace.high_water(),
            GaugeHighWater {
                active_nodes: 13,
                inbox_queued: 5,
                staged_sends: 7,
                wake_queue: 9,
                arena_bytes: 400,
            }
        );
        assert_eq!(RunTrace::default().high_water(), GaugeHighWater::default());
    }

    #[test]
    fn recovery_timeline_spans_and_distribution() {
        let mut t = RecoveryTimeline::new();
        assert_eq!(t.time_to_reconverge(), Distribution::default());
        t.record_damage(10);
        t.record_damage(12);
        assert_eq!(t.open_count(), 2);
        // One recovery closes every open span.
        t.record_recovery(20);
        assert_eq!(t.spans(), &[(10, 20), (12, 20)]);
        assert_eq!(t.open_count(), 0);
        t.record_damage(30);
        // Recovery in the damage round itself clamps to a zero-length span.
        t.record_recovery(30);
        t.record_damage(40);
        assert_eq!(t.spans(), &[(10, 20), (12, 20), (30, 30)]);
        assert_eq!(t.open_count(), 1, "unrecovered damage stays open");
        // Durations [10, 8, 0] sorted [0, 8, 10]: p50 = 2nd = 8.
        assert_eq!(
            t.time_to_reconverge(),
            Distribution {
                p50: 8,
                p95: 10,
                max: 10
            }
        );
    }

    #[test]
    fn phase_timings_accumulate_and_merge() {
        let mut a = PhaseTimings::new();
        a.record_nanos("prep", 10);
        a.record_nanos("hops", 5);
        a.record_nanos("prep", 7);
        assert_eq!(a.nanos("prep"), 17);
        assert_eq!(a.total_nanos(), 22);
        let mut b = PhaseTimings::new();
        b.record_nanos("hops", 1);
        b.record_nanos("bottom", 2);
        a.merge(&b);
        assert_eq!(a.entries(), &[("prep", 17), ("hops", 6), ("bottom", 2)]);
    }

    #[test]
    fn phase_timings_equality_is_vacuous() {
        let mut a = PhaseTimings::new();
        a.record_nanos("x", 123);
        assert_eq!(
            a,
            PhaseTimings::new(),
            "timings never break determinism comparisons"
        );
    }
}
