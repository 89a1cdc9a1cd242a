//! Opt-in runtime-execution telemetry: gauge high-water marks, run work
//! totals, a fixed-capacity flight recorder, and live NDJSON streaming.
//!
//! The engine records each round once, as a [`RoundSample`]: its
//! deliveries and faults plus its gauges (nodes stepped, inbox and staged
//! depths, wake-queue depth, arena bytes). The trace keeps every record
//! ([`crate::RunTrace::samples`]); this module folds the same records into
//! aggregates — how many nodes the run stepped, how deep the queues got,
//! how many bytes the arenas peaked at — and keeps the last rounds, for
//! when a long run dies.
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

use crate::trace::RoundSample;
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
    /// Stream every round's [`RoundSample`] as one NDJSON line to this
    /// path, so long runs are watchable in flight. `None` (the default)
    /// streams nothing.
    pub stream_to: Option<PathBuf>,
    /// Identifier used to name flight-recorder dumps
    /// (`flightrec_<run_id>.json`).
    pub run_id: String,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            flight_capacity: 64,
            stream_to: None,
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

    /// Streams NDJSON round records to `path`.
    pub fn stream_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.stream_to = Some(path.into());
        self
    }

    /// Names the run for flight-recorder dumps.
    pub fn with_run_id(mut self, id: impl Into<String>) -> Self {
        self.run_id = id.into();
        self
    }
}

/// High-water marks of the per-round gauges over a whole run.
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

impl GaugeHighWater {
    fn absorb(&mut self, s: &RoundSample) {
        self.active_nodes = self.active_nodes.max(s.active_nodes);
        self.inbox_queued = self.inbox_queued.max(s.inbox_queued);
        self.staged_sends = self.staged_sends.max(s.staged_sends);
        self.wake_queue = self.wake_queue.max(s.wake_queue);
        self.arena_bytes = self.arena_bytes.max(s.arena_bytes);
    }
}

/// Fixed-capacity ring buffer of the last K executed rounds' records.
///
/// Cheap enough to leave on: pushing beyond capacity evicts the oldest
/// frame, so memory is bounded by the configured capacity whatever the run
/// length. Dumped via [`dump_flight`] when a run ends badly.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    frames: VecDeque<RoundSample>,
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
    pub fn push(&mut self, frame: RoundSample) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    /// Retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &RoundSample> {
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
        self.frames.front().map(|f| f.round)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(TelemetryConfig::default().flight_capacity)
    }
}

/// Everything one telemetry-enabled run recorded. The per-round history is
/// the trace's ([`crate::RunTrace::samples`]); telemetry keeps aggregates
/// and the last K rounds.
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
    /// The last K rounds ([`TelemetryConfig::flight_capacity`]).
    pub recent: FlightRecorder,
}

// ---------------------------------------------------------------------------
// Engine-side recording state
// ---------------------------------------------------------------------------

/// Live recording state owned by the round engine while telemetry is on.
/// Folds each round into aggregates, the ring, and the optional NDJSON
/// stream; [`TelemetryState::finish`] yields the [`RunTelemetry`].
pub(crate) struct TelemetryState {
    out: RunTelemetry,
    stream: Option<std::io::BufWriter<std::fs::File>>,
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
        TelemetryState { out, stream }
    }

    pub(crate) fn record_round(&mut self, sample: RoundSample) {
        self.out.rounds = sample.round;
        self.out.hwm.absorb(&sample);
        self.out.nodes_stepped += sample.active_nodes;
        self.out.messages_staged += sample.staged_sends;
        if let Some(w) = self.stream.as_mut() {
            let mut line = record_object(&sample);
            line.push('\n');
            // A failed write disables the stream rather than failing the run.
            if w.write_all(line.as_bytes()).is_err() {
                self.stream = None;
            }
        }
        self.out.recent.push(sample);
    }

    /// Flushes the stream and yields the recorded telemetry.
    pub(crate) fn finish(mut self) -> RunTelemetry {
        if let Some(w) = self.stream.as_mut() {
            let _ = w.flush();
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

/// One round's record as a flat JSON object: an NDJSON stream line (plus
/// `\n`) and a flight-dump frame.
fn record_object(s: &RoundSample) -> String {
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
    push_kv(&mut out, &mut first, "inbox_queued", s.inbox_queued);
    push_kv(&mut out, &mut first, "staged_sends", s.staged_sends);
    push_kv(&mut out, &mut first, "wake_queue", s.wake_queue);
    push_kv(&mut out, &mut first, "arena_bytes", s.arena_bytes);
    out.push('}');
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
        out.push_str(&record_object(f));
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

    fn sample(round: u64) -> RoundSample {
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
    fn flight_recorder_evicts_oldest() {
        let mut rec = FlightRecorder::new(3);
        for round in 0..5u64 {
            rec.push(sample(round));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        assert_eq!(rec.oldest_round(), Some(2));
        let rounds: Vec<u64> = rec.frames().map(|f| f.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn telemetry_state_accumulates_totals_and_hwm() {
        let mut st = TelemetryState::new(TelemetryConfig::default().with_flight_capacity(2));
        for round in 0..4u64 {
            let mut s = sample(round);
            s.wake_queue = round; // rising gauge
            st.record_round(s);
        }
        let t = st.finish();
        assert_eq!(t.rounds, 3);
        assert_eq!(t.hwm.wake_queue, 3);
        assert_eq!(t.hwm.active_nodes, 13);
        assert_eq!(t.nodes_stepped, 10 + 11 + 12 + 13);
        assert_eq!(t.messages_staged, 28);
        assert_eq!(t.recent.len(), 2, "ring keeps only the last K rounds");
        assert_eq!(t.recent.oldest_round(), Some(2));
    }

    #[test]
    fn flight_dump_renders_frames_and_filters_events() {
        let mut st = TelemetryState::new(TelemetryConfig::default().with_flight_capacity(2));
        for round in 0..5u64 {
            st.record_round(sample(round));
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
        // Both retained rounds are present as flat records.
        let frames = format!(
            "[{},{}]",
            record_object(&sample(3)),
            record_object(&sample(4))
        );
        assert!(doc.contains(&format!("\"frames\":{frames}")));
    }

    #[test]
    fn record_object_is_one_flat_object_with_deltas_and_gauges() {
        let obj = record_object(&sample(7));
        assert!(obj.starts_with("{\"round\":7,\"messages\":7,"));
        assert!(obj.ends_with(",\"arena_bytes\":120}"));
        assert!(!obj.contains('\n'));
        assert_eq!(obj.matches('{').count(), 1, "no nested objects");
        assert!(obj.contains("\"wake_queue\":3"));
    }
}
