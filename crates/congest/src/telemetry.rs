//! Opt-in runtime-execution telemetry: engine gauges, run work totals, a
//! fixed-capacity flight recorder, and live NDJSON streaming.
//!
//! [`crate::trace`] and [`crate::profile`] observe *what the protocol did*
//! (deliveries, faults, traffic classes); this module observes *how the
//! runtime executed it*: how many nodes it stepped, how deep the inbox slab
//! and wake queue got, how many bytes the arenas peaked at, and what the
//! last rounds looked like when a long run dies.
//!
//! # Contract
//!
//! * **Off by default, zero cost.** Telemetry is off unless requested
//!   through [`crate::Observe::telemetry`]; a disabled run takes
//!   the exact same code path — `Metrics`, protocol state, RNG streams,
//!   traces, and profiles are byte-identical with telemetry on or off.
//! * **Exact logical gauges.** Active-set occupancy, inbox/staged queue
//!   depths, wake-queue depth, and arena byte high-water marks are pure
//!   functions of the run (graph, seed, config, plans): the same across
//!   visit orders. Arena bytes are computed from element *counts* times
//!   element size, never allocator capacity, so they carry no allocator
//!   nondeterminism. The work totals (nodes stepped, messages staged) are
//!   logical too.
//! * **Telemetry never fails a run.** Stream and dump I/O errors are
//!   swallowed; a full flight recorder evicts its oldest frame.

use crate::trace::{Distribution, RoundSample};
use crate::{ChurnEvent, FaultEvent};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// What to record and where to stream it ([`crate::Observe::telemetry`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Rounds retained by the flight recorder ring buffer (oldest frames
    /// are evicted beyond this). Default 64.
    pub flight_capacity: usize,
    /// Keep the full per-round [`RoundHealth`] history on
    /// [`RunTelemetry::history`] (default `true`). Disable for soak runs
    /// where only the high-water marks and the flight recorder matter.
    pub history: bool,
    /// Stream one NDJSON round snapshot per [`TelemetryConfig::stream_stride`]
    /// rounds (plus the final round) to this path, so long runs are
    /// watchable in flight. `None` (the default) streams nothing.
    pub stream_to: Option<PathBuf>,
    /// Stride between streamed rounds (`1` = every round). Zero is
    /// normalized to 1.
    pub stream_stride: u64,
    /// Identifier used to name flight-recorder dumps
    /// (`flightrec_<run_id>.json`).
    pub run_id: String,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            flight_capacity: 64,
            history: true,
            stream_to: None,
            stream_stride: 1,
            run_id: "run".to_string(),
        }
    }
}

impl TelemetryConfig {
    /// Sets the flight-recorder capacity (rounds retained; min 1).
    pub fn with_flight_capacity(mut self, rounds: usize) -> Self {
        self.flight_capacity = rounds.max(1);
        self
    }

    /// Drops the full per-round history, keeping only aggregates and the
    /// flight recorder.
    pub fn without_history(mut self) -> Self {
        self.history = false;
        self
    }

    /// Streams strided NDJSON round snapshots to `path`.
    pub fn stream_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.stream_to = Some(path.into());
        self
    }

    /// Sets the stride between streamed rounds.
    pub fn with_stream_stride(mut self, stride: u64) -> Self {
        self.stream_stride = stride.max(1);
        self
    }

    /// Names the run for flight-recorder dumps.
    pub fn with_run_id(mut self, id: impl Into<String>) -> Self {
        self.run_id = id.into();
        self
    }
}

/// Engine gauges for one executed round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundHealth {
    /// The round number.
    pub round: u64,
    /// Nodes the executor visited this round (active-set occupancy; `n`
    /// under the full-sweep reference engine).
    pub active_nodes: u64,
    /// Messages sitting in this round's inbox slab when stepping began.
    pub inbox_queued: u64,
    /// Messages staged for delivery by this round's steps.
    pub staged_sends: u64,
    /// Pending [`crate::Ctx::wake_in`] timers across all future rounds.
    pub wake_queue: u64,
    /// Bytes logically held by the message arenas this round (element
    /// counts × element sizes; allocator-independent).
    pub arena_bytes: u64,
}

/// High-water marks of the per-round gauges over a whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeHighWater {
    /// Peak active-set occupancy.
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

impl GaugeHighWater {
    fn absorb(&mut self, h: &RoundHealth) {
        self.active_nodes = self.active_nodes.max(h.active_nodes);
        self.inbox_queued = self.inbox_queued.max(h.inbox_queued);
        self.staged_sends = self.staged_sends.max(h.staged_sends);
        self.wake_queue = self.wake_queue.max(h.wake_queue);
        self.arena_bytes = self.arena_bytes.max(h.arena_bytes);
    }
}

/// One flight-recorder frame: the round's protocol-level sample plus its
/// runtime health.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightFrame {
    /// Protocol-level deliveries and faults of the round (the same shape
    /// [`crate::RunTrace`] records).
    pub sample: RoundSample,
    /// Runtime gauges of the round.
    pub health: RoundHealth,
}

/// Fixed-capacity ring buffer of the last K executed rounds.
///
/// Cheap enough to leave on: pushing beyond capacity evicts the oldest
/// frame, so memory is bounded by the configured capacity whatever the run
/// length. Dumped via [`dump_flight`] when a run ends badly.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    frames: VecDeque<FlightFrame>,
}

impl FlightRecorder {
    /// An empty recorder retaining up to `capacity` rounds (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            frames: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a frame, evicting the oldest beyond capacity.
    pub fn push(&mut self, frame: FlightFrame) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    /// Retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &FlightFrame> {
        self.frames.iter()
    }

    /// Configured capacity in rounds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames are retained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Round of the oldest retained frame (`None` when empty).
    pub fn oldest_round(&self) -> Option<u64> {
        self.frames.front().map(|f| f.health.round)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(TelemetryConfig::default().flight_capacity)
    }
}

/// Everything one telemetry-enabled run recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTelemetry {
    /// Rounds recorded.
    pub rounds: u64,
    /// Gauge high-water marks over the run.
    pub hwm: GaugeHighWater,
    /// Protocol callbacks the engine ran over the run.
    pub nodes_stepped: u64,
    /// Messages staged for delivery over the run.
    pub messages_staged: u64,
    /// Full per-round history ([`TelemetryConfig::history`]; empty when
    /// disabled).
    pub history: Vec<RoundHealth>,
    /// The last K rounds ([`TelemetryConfig::flight_capacity`]).
    pub recent: FlightRecorder,
}

impl RunTelemetry {
    /// Distribution of wake-queue depth over the recorded history.
    pub fn wake_queue_distribution(&self) -> Option<Distribution> {
        Distribution::try_of(self.history.iter().map(|h| h.wake_queue))
    }

    /// Distribution of staged-send depth over the recorded history.
    pub fn staged_distribution(&self) -> Option<Distribution> {
        Distribution::try_of(self.history.iter().map(|h| h.staged_sends))
    }

    /// Distribution of active-set occupancy over the recorded history.
    pub fn active_distribution(&self) -> Option<Distribution> {
        Distribution::try_of(self.history.iter().map(|h| h.active_nodes))
    }
}

// ---------------------------------------------------------------------------
// Engine-side recording state
// ---------------------------------------------------------------------------

/// Live recording state owned by the round engine while telemetry is on.
/// Folds each round into aggregates, the ring, the optional history, and
/// the optional NDJSON stream; [`TelemetryState::finish`] yields the
/// [`RunTelemetry`].
pub(crate) struct TelemetryState {
    cfg: TelemetryConfig,
    out: RunTelemetry,
    stream: Option<std::io::BufWriter<std::fs::File>>,
    last_streamed: Option<u64>,
}

impl TelemetryState {
    pub(crate) fn new(cfg: TelemetryConfig) -> Self {
        // Stream I/O must never fail the run: an unopenable sink simply
        // streams nothing.
        let stream = cfg
            .stream_to
            .as_ref()
            .and_then(|p| std::fs::File::create(p).ok())
            .map(std::io::BufWriter::new);
        let out = RunTelemetry {
            recent: FlightRecorder::new(cfg.flight_capacity),
            ..RunTelemetry::default()
        };
        TelemetryState {
            cfg,
            out,
            stream,
            last_streamed: None,
        }
    }

    pub(crate) fn record_round(&mut self, sample: RoundSample, health: RoundHealth) {
        self.out.rounds = health.round;
        self.out.hwm.absorb(&health);
        // The sample's `active_nodes` is the number of callbacks that ran.
        self.out.nodes_stepped += sample.active_nodes;
        self.out.messages_staged += health.staged_sends;
        let stride = self.cfg.stream_stride.max(1);
        if health.round.is_multiple_of(stride) {
            self.stream_frame(&sample, &health);
        }
        if self.cfg.history {
            self.out.history.push(health.clone());
        }
        self.out.recent.push(FlightFrame { sample, health });
    }

    fn stream_frame(&mut self, sample: &RoundSample, health: &RoundHealth) {
        let Some(w) = self.stream.as_mut() else {
            return;
        };
        let line = ndjson_line(sample, health);
        // A failed write disables the stream rather than failing the run.
        if w.write_all(line.as_bytes()).is_err() {
            self.stream = None;
            return;
        }
        self.last_streamed = Some(health.round);
    }

    /// Flushes the stream (emitting the final round if the stride skipped
    /// it) and yields the recorded telemetry.
    pub(crate) fn finish(mut self) -> RunTelemetry {
        if self.stream.is_some() {
            if let Some(last) = self.out.recent.frames.back().cloned() {
                if self.last_streamed != Some(last.health.round) {
                    self.stream_frame(&last.sample, &last.health);
                }
            }
            if let Some(w) = self.stream.as_mut() {
                let _ = w.flush();
            }
        }
        self.out
    }
}

// ---------------------------------------------------------------------------
// JSON rendering (hand-rolled: this crate has no serde and must not depend
// on amt-bench, which depends on it)
// ---------------------------------------------------------------------------

fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_kv(out: &mut String, first: &mut bool, key: &str, value: impl std::fmt::Display) {
    if !*first {
        out.push(',');
    }
    *first = false;
    json_escape(out, key);
    out.push(':');
    out.push_str(&value.to_string());
}

fn health_object(h: &RoundHealth) -> String {
    let mut out = String::from("{");
    let mut first = true;
    push_kv(&mut out, &mut first, "round", h.round);
    push_kv(&mut out, &mut first, "active_nodes", h.active_nodes);
    push_kv(&mut out, &mut first, "inbox_queued", h.inbox_queued);
    push_kv(&mut out, &mut first, "staged_sends", h.staged_sends);
    push_kv(&mut out, &mut first, "wake_queue", h.wake_queue);
    push_kv(&mut out, &mut first, "arena_bytes", h.arena_bytes);
    out.push('}');
    out
}

fn sample_object(s: &RoundSample) -> String {
    let mut out = String::from("{");
    let mut first = true;
    push_kv(&mut out, &mut first, "round", s.round);
    push_kv(&mut out, &mut first, "messages", s.messages);
    push_kv(&mut out, &mut first, "bits", s.bits);
    push_kv(&mut out, &mut first, "dropped", s.dropped);
    push_kv(&mut out, &mut first, "corrupted", s.corrupted);
    push_kv(&mut out, &mut first, "delayed", s.delayed);
    push_kv(&mut out, &mut first, "lost_to_crash", s.lost_to_crash);
    push_kv(&mut out, &mut first, "crashed", s.crashed);
    push_kv(&mut out, &mut first, "lost_to_churn", s.lost_to_churn);
    push_kv(&mut out, &mut first, "restarts", s.restarts);
    push_kv(&mut out, &mut first, "nodes_down", s.nodes_down);
    push_kv(&mut out, &mut first, "active_nodes", s.active_nodes);
    out.push('}');
    out
}

/// One NDJSON stream line for a round (newline-terminated).
fn ndjson_line(sample: &RoundSample, health: &RoundHealth) -> String {
    let mut out = String::from("{");
    let mut first = true;
    push_kv(&mut out, &mut first, "round", health.round);
    push_kv(&mut out, &mut first, "messages", sample.messages);
    push_kv(&mut out, &mut first, "bits", sample.bits);
    push_kv(&mut out, &mut first, "active_nodes", health.active_nodes);
    push_kv(&mut out, &mut first, "inbox_queued", health.inbox_queued);
    push_kv(&mut out, &mut first, "staged_sends", health.staged_sends);
    push_kv(&mut out, &mut first, "wake_queue", health.wake_queue);
    push_kv(&mut out, &mut first, "arena_bytes", health.arena_bytes);
    push_kv(&mut out, &mut first, "nodes_down", sample.nodes_down);
    out.push_str("}\n");
    out
}

/// Renders a flight-recorder dump document: run identity, the retained
/// frames (oldest first), and the fault/churn events that fall inside the
/// retained round window. Standard JSON, parseable by any JSON parser
/// (CI checks it with the report parser).
pub fn render_flight_dump(
    telemetry: &RunTelemetry,
    run_id: &str,
    reason: &str,
    fault_events: &[FaultEvent],
    churn_events: &[ChurnEvent],
) -> String {
    let oldest = telemetry.recent.oldest_round().unwrap_or(0);
    let mut out = String::from("{");
    json_escape(&mut out, "run_id");
    out.push(':');
    json_escape(&mut out, run_id);
    out.push(',');
    json_escape(&mut out, "reason");
    out.push(':');
    json_escape(&mut out, reason);
    let mut first = false;
    push_kv(&mut out, &mut first, "rounds", telemetry.rounds);
    push_kv(
        &mut out,
        &mut first,
        "capacity",
        telemetry.recent.capacity(),
    );
    push_kv(&mut out, &mut first, "retained", telemetry.recent.len());
    push_kv(&mut out, &mut first, "oldest_round", oldest);
    out.push_str(",\"frames\":[");
    for (i, f) in telemetry.recent.frames().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"sample\":");
        out.push_str(&sample_object(&f.sample));
        out.push_str(",\"health\":");
        out.push_str(&health_object(&f.health));
        out.push('}');
    }
    out.push_str("],\"fault_events\":[");
    let mut wrote = false;
    for e in fault_events.iter().filter(|e| e.round >= oldest) {
        if wrote {
            out.push(',');
        }
        wrote = true;
        let mut first = true;
        out.push('{');
        push_kv(&mut out, &mut first, "round", e.round);
        push_kv(&mut out, &mut first, "node", e.node.0);
        push_kv(&mut out, &mut first, "port", e.port);
        out.push(',');
        json_escape(&mut out, "kind");
        out.push(':');
        json_escape(&mut out, &format!("{:?}", e.kind));
        out.push('}');
    }
    out.push_str("],\"churn_events\":[");
    let mut wrote = false;
    for e in churn_events.iter().filter(|e| e.round >= oldest) {
        if wrote {
            out.push(',');
        }
        wrote = true;
        let mut first = true;
        out.push('{');
        push_kv(&mut out, &mut first, "round", e.round);
        out.push(',');
        json_escape(&mut out, "kind");
        out.push(':');
        json_escape(&mut out, &format!("{:?}", e.kind));
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Writes a flight-recorder dump to
/// `<AMT_REPORT_DIR|experiments_out>/flightrec_<run_id>.json` and returns
/// the path. Returns `None` (never an error) if the directory or file
/// cannot be written — a failed dump must not mask the run's own error.
pub fn dump_flight(
    telemetry: &RunTelemetry,
    run_id: &str,
    reason: &str,
    fault_events: &[FaultEvent],
    churn_events: &[ChurnEvent],
) -> Option<PathBuf> {
    let dir = std::env::var("AMT_REPORT_DIR").unwrap_or_else(|_| "experiments_out".into());
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = Path::new(&dir).join(format!("flightrec_{run_id}.json"));
    let doc = render_flight_dump(telemetry, run_id, reason, fault_events, churn_events);
    std::fs::write(&path, doc).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(round: u64) -> RoundHealth {
        RoundHealth {
            round,
            active_nodes: 10 + round,
            inbox_queued: 5,
            staged_sends: 7,
            wake_queue: 3,
            arena_bytes: 120,
        }
    }

    #[test]
    fn flight_recorder_evicts_oldest() {
        let mut rec = FlightRecorder::new(3);
        for round in 0..5u64 {
            rec.push(FlightFrame {
                sample: RoundSample {
                    round,
                    ..RoundSample::default()
                },
                health: health(round),
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        assert_eq!(rec.oldest_round(), Some(2));
        let rounds: Vec<u64> = rec.frames().map(|f| f.health.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn telemetry_state_accumulates_totals_and_hwm() {
        let mut st = TelemetryState::new(TelemetryConfig::default().with_flight_capacity(2));
        for round in 0..4u64 {
            let mut h = health(round);
            h.wake_queue = round; // rising gauge
            st.record_round(
                RoundSample {
                    round,
                    messages: 2,
                    active_nodes: 4,
                    ..RoundSample::default()
                },
                h,
            );
        }
        let t = st.finish();
        assert_eq!(t.rounds, 3);
        assert_eq!(t.hwm.wake_queue, 3);
        assert_eq!(t.hwm.active_nodes, 13);
        assert_eq!(t.nodes_stepped, 16);
        assert_eq!(t.messages_staged, 28);
        assert_eq!(t.history.len(), 4);
        assert_eq!(t.recent.len(), 2, "ring keeps only the last K rounds");
        assert_eq!(t.recent.oldest_round(), Some(2));
        // Distributions read the history.
        assert_eq!(t.wake_queue_distribution().expect("history on").max, 3);
    }

    #[test]
    fn without_history_keeps_aggregates_only() {
        let mut st = TelemetryState::new(
            TelemetryConfig::default()
                .without_history()
                .with_flight_capacity(8),
        );
        for round in 0..3u64 {
            st.record_round(
                RoundSample {
                    round,
                    ..RoundSample::default()
                },
                health(round),
            );
        }
        let t = st.finish();
        assert!(t.history.is_empty());
        assert_eq!(t.recent.len(), 3);
        assert_eq!(t.wake_queue_distribution(), None);
        assert_eq!(t.hwm.staged_sends, 7);
    }

    #[test]
    fn flight_dump_renders_frames_and_filters_events() {
        let mut st = TelemetryState::new(TelemetryConfig::default().with_flight_capacity(2));
        for round in 0..5u64 {
            st.record_round(
                RoundSample {
                    round,
                    messages: round,
                    ..RoundSample::default()
                },
                health(round),
            );
        }
        let t = st.finish();
        let faults = vec![
            FaultEvent {
                round: 0, // before the ring window: filtered out
                node: amt_graphs::NodeId(1),
                port: 0,
                kind: crate::faults::FaultKind::Dropped,
            },
            FaultEvent {
                round: 4,
                node: amt_graphs::NodeId(2),
                port: 1,
                kind: crate::faults::FaultKind::Corrupted { delivered: true },
            },
        ];
        let doc = render_flight_dump(&t, "unit", "CongestError: test", &faults, &[]);
        assert!(doc.contains("\"run_id\":\"unit\""));
        assert!(doc.contains("\"reason\":\"CongestError: test\""));
        assert!(doc.contains("\"retained\":2"));
        assert!(doc.contains("\"oldest_round\":3"));
        // Only the in-window fault survives.
        assert!(!doc.contains("Dropped"));
        assert!(doc.contains("Corrupted"));
        // Both retained rounds are present with sample and health objects.
        assert!(doc.contains("\"sample\":{\"round\":3"));
        assert!(doc.contains("\"health\":{\"round\":4"));
    }

    #[test]
    fn ndjson_line_is_one_object_per_round() {
        let line = ndjson_line(
            &RoundSample {
                round: 7,
                messages: 9,
                ..RoundSample::default()
            },
            &health(7),
        );
        assert!(line.ends_with("}\n"));
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.contains("\"round\":7"));
        assert!(line.contains("\"wake_queue\":3"));
    }
}
