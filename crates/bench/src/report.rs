//! Machine-readable run reports (`experiments_out/<id>.json`).
//!
//! Every experiment binary routes its stdout tables through a [`Report`],
//! and on [`Report::finish`] everything the run printed — plus recorded
//! config, [`Metrics`], [`PhaseTimings`], traffic profiles, recovery
//! statistics and [`RunTrace`] folds — is serialized as schema-versioned
//! JSON under `experiments_out/` (override with `AMT_REPORT_DIR`). This is
//! the only code that writes a run to disk: the simulator crate does no I/O,
//! and a run's post-mortem is an ordinary report too (`sim_health
//! --force-failure`). CI regenerates the reports, validates them with the
//! `validate_report` binary, and uploads the directory as an artifact.
//!
//! A report is a header (`HEADER_KEYS`) followed by the keyed sections of
//! [`SECTIONS`], the one list of them: the writer, [`validate`] and the
//! `bench_compare` regression gate all read it.
//!
//! The crate has no serde (vendored deps only), so this module carries its
//! own minimal JSON value type with an encoder, a recursive-descent parser,
//! and a structural schema check ([`validate`]). The parser exists so the
//! validator can check *files on disk* — what CI consumes — rather than
//! in-memory values that never saw the encoder.

use amt_congest::{Metrics, PhaseTimings, RecoveryTimeline, RoundSample, RunTrace, TrafficProfile};
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Schema version written to every report file, and the only one
/// [`validate`] accepts. Bump when a required key is added, removed, or
/// changes shape.
pub const SCHEMA_VERSION: u64 = 8;

/// The keys a report opens with, in the order [`Report::finish`] writes
/// them: run identity, the `config` scalars and the printed `tables`. The
/// keyed [`SECTIONS`] follow; [`validate`] rejects any other top-level key,
/// so a section a schema bump removed cannot linger in a file that claims
/// the new version.
const HEADER_KEYS: [&str; 7] = [
    "schema_version",
    "experiment",
    "git_describe",
    "created_unix",
    "wall_seconds",
    "config",
    "tables",
];

/// One keyed section of a report: an object mapping run names to entries,
/// each an object of numbers.
#[derive(Debug)]
pub struct Section {
    /// The section's top-level key.
    pub name: &'static str,
    /// Keys every entry must carry as non-negative numbers.
    pub required: &'static [&'static str],
    /// Entries hold objects of numbers one level down (per traffic class)
    /// instead of numbers.
    pub nested: bool,
    /// Deterministic counters, which `bench_compare` gates exactly; the
    /// others are wall-clock measurements.
    pub gated: bool,
}

/// Every keyed section of a report, in the order [`Report::finish`] writes
/// them, each required (possibly empty).
pub const SECTIONS: [Section; 5] = [
    // Simulator counters per run ([`Report::metrics`]).
    Section {
        name: "metrics",
        required: &[],
        nested: false,
        gated: true,
    },
    // Wall-clock nanoseconds per phase label ([`Report::phase_timings`]).
    Section {
        name: "phase_timings",
        required: &[],
        nested: false,
        gated: false,
    },
    // Per-traffic-class message and bit totals ([`Report::profile`]).
    Section {
        name: "profiles",
        required: &[],
        nested: true,
        gated: true,
    },
    // Recovery-SLO summaries of a [`RecoveryTimeline`] ([`Report::recovery`]).
    Section {
        name: "recovery",
        required: &["spans", "open", "ttr_p50", "ttr_p95", "ttr_max"],
        nested: false,
        gated: true,
    },
    // Folds of a [`RunTrace`] ([`Report::trace`]).
    Section {
        name: "traces",
        required: &[
            "rounds",
            "samples",
            "events",
            "messages",
            "bits",
            "peak_messages_per_round",
            "nodes_stepped",
            "messages_staged",
            "active_nodes_hwm",
            "inbox_queued_hwm",
            "staged_sends_hwm",
            "wake_queue_hwm",
            "arena_bytes_hwm",
        ],
        nested: false,
        gated: true,
    },
];

// Positions in [`SECTIONS`], and so in `Report::sections`.
const METRICS: usize = 0;
/// Position in [`SECTIONS`] of the wall-clock section, the one
/// `bench_compare` gates with a tolerance instead of exactly.
pub const PHASE_TIMINGS: usize = 1;
const PROFILES: usize = 2;
const RECOVERY: usize = 3;
const TRACES: usize = 4;

/// A JSON value (object keys keep insertion order for stable diffs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always encoded from/decoded to `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // JSON has no NaN/Inf; clamp to null like serde_json does.
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 9e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Looks up `key` if this value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u code point".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control char at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Every top-level key of a report, in write order: [`HEADER_KEYS`], then
/// the [`SECTIONS`].
fn top_level_keys() -> impl Iterator<Item = &'static str> {
    HEADER_KEYS
        .into_iter()
        .chain(SECTIONS.iter().map(|s| s.name))
}

/// Structurally validates a parsed report against the schema. Only
/// [`SCHEMA_VERSION`] is accepted, every section is required, and no other
/// top-level key is allowed.
///
/// # Errors
///
/// Returns the first violation found (path and reason).
pub fn validate(root: &Json) -> Result<(), String> {
    let Json::Obj(pairs) = root else {
        return Err("root must be an object".to_string());
    };
    if let Some((key, _)) = pairs
        .iter()
        .find(|(k, _)| !top_level_keys().any(|t| t == k))
    {
        return Err(format!("unknown top-level key {key}"));
    }
    match root.get("schema_version") {
        Some(Json::Num(v)) if *v == SCHEMA_VERSION as f64 => {}
        Some(other) => {
            return Err(format!(
                "schema_version must be {SCHEMA_VERSION}, got {other:?}"
            ))
        }
        None => return Err("missing schema_version".to_string()),
    }
    match root.get("experiment") {
        Some(Json::Str(s)) if !s.is_empty() => {}
        _ => return Err("experiment must be a non-empty string".to_string()),
    }
    match root.get("git_describe") {
        Some(Json::Str(_)) => {}
        _ => return Err("git_describe must be a string".to_string()),
    }
    for key in ["created_unix", "wall_seconds"] {
        match root.get(key) {
            Some(Json::Num(v)) if *v >= 0.0 => {}
            _ => return Err(format!("{key} must be a non-negative number")),
        }
    }
    let Some(Json::Obj(config)) = root.get("config") else {
        return Err("config must be an object".to_string());
    };
    for (k, v) in config {
        match v {
            Json::Num(_) | Json::Str(_) | Json::Bool(_) => {}
            _ => return Err(format!("config.{k} must be a scalar")),
        }
    }
    let Some(Json::Arr(tables)) = root.get("tables") else {
        return Err("tables must be an array".to_string());
    };
    for (i, t) in tables.iter().enumerate() {
        match t.get("title") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("tables[{i}].title must be a non-empty string")),
        }
        let Some(Json::Arr(columns)) = t.get("columns") else {
            return Err(format!("tables[{i}].columns must be an array"));
        };
        if !columns.iter().all(|c| matches!(c, Json::Str(_))) {
            return Err(format!("tables[{i}].columns must contain strings"));
        }
        let Some(Json::Arr(rows)) = t.get("rows") else {
            return Err(format!("tables[{i}].rows must be an array"));
        };
        for (j, r) in rows.iter().enumerate() {
            let Json::Arr(cells) = r else {
                return Err(format!("tables[{i}].rows[{j}] must be an array"));
            };
            if cells.len() != columns.len() {
                return Err(format!(
                    "tables[{i}].rows[{j}] has {} cells for {} columns",
                    cells.len(),
                    columns.len()
                ));
            }
            if !cells.iter().all(|c| matches!(c, Json::Str(_))) {
                return Err(format!("tables[{i}].rows[{j}] must contain strings"));
            }
        }
    }
    for section in &SECTIONS {
        let name = section.name;
        let Some(Json::Obj(entries)) = root.get(name) else {
            return Err(format!("{name} must be an object"));
        };
        for (run, entry) in entries {
            let Json::Obj(fields) = entry else {
                return Err(format!("{name}.{run} must be an object"));
            };
            for key in section.required {
                match entry.get(key) {
                    Some(Json::Num(v)) if *v >= 0.0 => {}
                    _ => return Err(format!("{name}.{run}.{key} must be a non-negative number")),
                }
            }
            for (k, v) in fields {
                match (section.nested, v) {
                    (false, Json::Num(_)) => {}
                    (true, Json::Obj(inner)) => {
                        if let Some((ik, _)) =
                            inner.iter().find(|(_, x)| !matches!(x, Json::Num(_)))
                        {
                            return Err(format!("{name}.{run}.{k}.{ik} must be a number"));
                        }
                    }
                    (false, _) => return Err(format!("{name}.{run}.{k} must be a number")),
                    (true, _) => return Err(format!("{name}.{run}.{k} must be an object")),
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Report recorder
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Records an experiment run while mirroring its tables to stdout, then
/// writes the schema-versioned JSON report.
pub struct Report {
    experiment: String,
    started: Instant,
    next_title: Option<String>,
    tables: Vec<Table>,
    config: Vec<(String, Json)>,
    /// The entries of each of [`SECTIONS`], in its order.
    sections: [Vec<(String, Json)>; SECTIONS.len()],
}

impl Report {
    /// Starts a report for the experiment id (the binary name, e.g.
    /// `"e11_boruvka_iters"`).
    pub fn new(experiment: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            started: Instant::now(),
            next_title: None,
            tables: Vec::new(),
            config: Vec::new(),
            sections: Default::default(),
        }
    }

    /// Names the next table opened by [`Report::header`] (otherwise tables
    /// are titled `table-1`, `table-2`, …). Prints nothing.
    pub fn section(&mut self, title: &str) {
        self.next_title = Some(title.to_string());
    }

    /// Records a configuration scalar (graph size, seed, sweep bounds, …).
    pub fn config(&mut self, key: &str, value: impl Into<Json>) {
        self.config.push((key.to_string(), value.into()));
    }

    /// Prints a markdown-style header plus separator and opens a new table
    /// in the report.
    pub fn header(&mut self, cells: &[&str]) {
        println!("| {} |", cells.join(" | "));
        println!(
            "|{}|",
            cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        let title = self
            .next_title
            .take()
            .unwrap_or_else(|| format!("table-{}", self.tables.len() + 1));
        self.tables.push(Table {
            title,
            columns: cells.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        });
    }

    /// Prints a markdown-style row and records it into the table opened by
    /// the last [`Report::header`].
    ///
    /// # Panics
    ///
    /// Panics if called before any [`Report::header`], or with a cell count
    /// that does not match the open table's columns — both are experiment
    /// bugs that would emit a schema-invalid report.
    pub fn row(&mut self, cells: &[String]) {
        println!("| {} |", cells.join(" | "));
        let table = self
            .tables
            .last_mut()
            .expect("Report::row before Report::header");
        assert_eq!(
            cells.len(),
            table.columns.len(),
            "row width does not match the open table"
        );
        table.rows.push(cells.to_vec());
    }

    /// Records a named [`Metrics`] (all counters, field by field).
    pub fn metrics(&mut self, name: &str, m: &Metrics) {
        self.sections[METRICS].push((
            name.to_string(),
            Json::Obj(vec![
                ("rounds".into(), m.rounds.into()),
                ("messages".into(), m.messages.into()),
                ("bits".into(), m.bits.into()),
                (
                    "peak_messages_per_round".into(),
                    m.peak_messages_per_round.into(),
                ),
                ("max_edge_congestion".into(), m.max_edge_congestion.into()),
                ("dropped".into(), m.dropped.into()),
                ("corrupted".into(), m.corrupted.into()),
                ("delayed".into(), m.delayed.into()),
                ("lost_to_crash".into(), m.lost_to_crash.into()),
                ("crashed".into(), m.crashed.into()),
                ("lost_to_churn".into(), m.lost_to_churn.into()),
                ("restarts".into(), m.restarts.into()),
            ]),
        ));
    }

    /// Records named wall-clock phase timings (one key per phase label,
    /// value in nanoseconds).
    pub fn phase_timings(&mut self, name: &str, t: &PhaseTimings) {
        self.sections[PHASE_TIMINGS].push((
            name.to_string(),
            Json::Obj(
                t.entries()
                    .iter()
                    .map(|&(label, ns)| (label.to_string(), ns.into()))
                    .collect(),
            ),
        ));
    }

    /// Records a named [`TrafficProfile`] as per-class message/bit totals.
    pub fn profile(&mut self, name: &str, p: &TrafficProfile) {
        self.sections[PROFILES].push((
            name.to_string(),
            Json::Obj(
                p.per_class
                    .iter()
                    .map(|s| {
                        (
                            s.class.to_string(),
                            Json::Obj(vec![
                                ("messages".into(), s.messages.into()),
                                ("bits".into(), s.bits.into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }

    /// Records a named [`RecoveryTimeline`] as recovery-SLO scalars: closed
    /// span count, spans still open at run end, and the nearest-rank
    /// time-to-reconverge percentiles.
    pub fn recovery(&mut self, name: &str, t: &RecoveryTimeline) {
        let ttr = t.time_to_reconverge();
        self.sections[RECOVERY].push((
            name.to_string(),
            Json::Obj(vec![
                ("spans".into(), t.spans().len().into()),
                ("open".into(), t.open_count().into()),
                ("ttr_p50".into(), ttr.p50.into()),
                ("ttr_p95".into(), ttr.p95.into()),
                ("ttr_max".into(), ttr.max.into()),
            ]),
        ));
    }

    /// Records a named run's [`RunTrace`], folded once: its length
    /// (rounds, samples, events), its delivery totals
    /// ([`RunTrace::reconstruct_metrics`]), its work totals (the sums of
    /// `active_nodes` and `staged_sends`) and the gauge high-water marks
    /// ([`RunTrace::high_water`]). Logical counters only — the gauges
    /// are visit-order-invariant, so the regression gate compares exact
    /// integers.
    pub fn trace(&mut self, name: &str, trace: &RunTrace) {
        let m = trace.reconstruct_metrics();
        let total = |f: fn(&RoundSample) -> u64| trace.samples.iter().map(f).sum::<u64>();
        let hwm = trace.high_water();
        let fields: Vec<(String, Json)> = vec![
            ("rounds".into(), m.rounds.into()),
            ("samples".into(), trace.samples.len().into()),
            ("events".into(), trace.events.len().into()),
            ("messages".into(), m.messages.into()),
            ("bits".into(), m.bits.into()),
            (
                "peak_messages_per_round".into(),
                m.peak_messages_per_round.into(),
            ),
            ("nodes_stepped".into(), total(|s| s.active_nodes).into()),
            ("messages_staged".into(), total(|s| s.staged_sends).into()),
            ("active_nodes_hwm".into(), hwm.active_nodes.into()),
            ("inbox_queued_hwm".into(), hwm.inbox_queued.into()),
            ("staged_sends_hwm".into(), hwm.staged_sends.into()),
            ("wake_queue_hwm".into(), hwm.wake_queue.into()),
            ("arena_bytes_hwm".into(), hwm.arena_bytes.into()),
        ];
        self.sections[TRACES].push((name.to_string(), Json::Obj(fields)));
    }

    /// The report as the JSON document [`Report::finish`] writes.
    pub fn to_json(&self) -> Json {
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let mut doc: Vec<(String, Json)> = vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("experiment".into(), self.experiment.clone().into()),
            ("git_describe".into(), git_describe().into()),
            ("created_unix".into(), created.into()),
            (
                "wall_seconds".into(),
                self.started.elapsed().as_secs_f64().into(),
            ),
            ("config".into(), Json::Obj(self.config.clone())),
            (
                "tables".into(),
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("title".into(), t.title.clone().into()),
                                (
                                    "columns".into(),
                                    Json::Arr(t.columns.iter().cloned().map(Json::Str).collect()),
                                ),
                                (
                                    "rows".into(),
                                    Json::Arr(
                                        t.rows
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(
                                                    r.iter().cloned().map(Json::Str).collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        for (section, entries) in SECTIONS.iter().zip(&self.sections) {
            doc.push((section.name.into(), Json::Obj(entries.clone())));
        }
        Json::Obj(doc)
    }

    /// Writes `experiments_out/<experiment>.json` (directory overridable
    /// via `AMT_REPORT_DIR`), prints the path, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the report fails its own schema validation (a bug in this
    /// module) or the file cannot be written.
    pub fn finish(self) -> PathBuf {
        let json = self.to_json();
        // The emitted document must satisfy the schema the validator
        // enforces on CI; round-trip through the parser so the check covers
        // the encoder too.
        let round_tripped = parse(&json.render()).expect("emitted report must parse back");
        validate(&round_tripped).expect("emitted report must be schema-valid");
        let dir = std::env::var("AMT_REPORT_DIR").unwrap_or_else(|_| "experiments_out".into());
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create report dir {dir}: {e}"));
        let path = PathBuf::from(dir).join(format!("{}.json", self.experiment));
        std::fs::write(&path, json.render())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("\nreport: {}", path.display());
        path
    }
}

/// `git describe --always --dirty --tags` of the working tree, or
/// `"unknown"` outside a repository. Stamped into every report; the bench
/// suite also uses it to name its `BENCH_<describe>.json` artifact.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new("unit_test");
        r.config("n", 64u64);
        r.config("kind", "expander");
        r.config("strict", true);
        r.section("sweep");
        r.header(&["k", "rounds"]);
        r.row(&["1".into(), "10".into()]);
        r.row(&["2".into(), "17".into()]);
        r.metrics(
            "run",
            &Metrics {
                rounds: 10,
                messages: 40,
                bits: 400,
                ..Default::default()
            },
        );
        let mut t = PhaseTimings::new();
        t.record_nanos("prep", 1234);
        r.phase_timings("router", &t);
        r.trace("empty", &RunTrace::default());
        let mut traced = RunTrace::default();
        traced.samples.push(amt_congest::RoundSample {
            round: 3,
            messages: 5,
            bits: 50,
            ..Default::default()
        });
        r.trace("one_round", &traced);
        let mut tp = TrafficProfile::empty(2);
        tp.per_class.push(amt_congest::ClassStats {
            class: amt_congest::class::WALK_TOKEN,
            messages: 3,
            bits: 30,
            timeline: Vec::new(),
            edge_messages: vec![2, 1],
            edge_bits: vec![20, 10],
        });
        r.profile("run", &tp);
        let mut tl = RecoveryTimeline::new();
        tl.record_damage(3);
        tl.record_recovery(10);
        tl.record_damage(20);
        r.recovery("run", &tl);
        let gauges = |round, active_nodes, staged_sends, arena_bytes| amt_congest::RoundSample {
            round,
            active_nodes,
            inbox_queued: 32,
            staged_sends,
            wake_queue: 4,
            arena_bytes,
            ..Default::default()
        };
        let gauge_trace = RunTrace {
            samples: vec![gauges(9, 40, 25, 4096), gauges(10, 24, 15, 100)],
            ..RunTrace::default()
        };
        r.trace("run", &gauge_trace);
        r
    }

    /// `doc` with `section.run.key` set to `value` (a `None` value removes
    /// the key).
    fn with_field(doc: &Json, section: &str, run: &str, key: &str, value: Option<Json>) -> Json {
        let Json::Obj(mut pairs) = doc.clone() else {
            unreachable!()
        };
        let (_, Json::Obj(entries)) = pairs.iter_mut().find(|(k, _)| k == section).unwrap() else {
            unreachable!()
        };
        let (_, Json::Obj(fields)) = entries.iter_mut().find(|(k, _)| k == run).unwrap() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != key);
        fields.extend(value.map(|v| (key.to_string(), v)));
        Json::Obj(pairs)
    }

    #[test]
    fn report_round_trips_and_validates() {
        let json = sample_report().to_json();
        let text = json.render();
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed, json);
        validate(&parsed).expect("schema-valid");
        let Json::Obj(pairs) = &parsed else {
            unreachable!()
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            top_level_keys().collect::<Vec<_>>(),
            "finish writes exactly the schema's keys"
        );
        // Spot-check recorded structure survived the round trip.
        assert_eq!(
            parsed.get("experiment"),
            Some(&Json::Str("unit_test".into()))
        );
        let tables = match parsed.get("tables") {
            Some(Json::Arr(t)) => t,
            other => panic!("tables: {other:?}"),
        };
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get("title"), Some(&Json::Str("sweep".into())));
        let totals = parsed
            .get("profiles")
            .and_then(|p| p.get("run"))
            .and_then(|r| r.get("walk/token"))
            .expect("profiles section survives the round trip");
        assert_eq!(totals.get("messages"), Some(&Json::Num(3.0)));
        assert_eq!(totals.get("bits"), Some(&Json::Num(30.0)));
        let rec = parsed
            .get("recovery")
            .and_then(|r| r.get("run"))
            .expect("recovery section survives the round trip");
        assert_eq!(rec.get("spans"), Some(&Json::Num(1.0)));
        assert_eq!(rec.get("open"), Some(&Json::Num(1.0)));
        assert_eq!(rec.get("ttr_max"), Some(&Json::Num(7.0)));
        let run = parsed
            .get("traces")
            .and_then(|t| t.get("run"))
            .expect("traces section survives the round trip");
        // One fold: every key of the section's table, once each.
        let Json::Obj(fields) = run else {
            unreachable!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SECTIONS[TRACES].required);
        for (key, want) in [
            ("rounds", 10.0),
            ("samples", 2.0),
            ("nodes_stepped", 64.0),
            ("messages_staged", 40.0),
            ("active_nodes_hwm", 40.0),
            ("arena_bytes_hwm", 4096.0),
        ] {
            assert_eq!(run.get(key), Some(&Json::Num(want)), "{key}");
        }
        let one = parsed
            .get("traces")
            .and_then(|t| t.get("one_round"))
            .expect("one-round trace survives the round trip");
        assert_eq!(one.get("messages"), Some(&Json::Num(5.0)));
    }

    #[test]
    fn validator_requires_every_section_at_exactly_the_current_version() {
        let good = sample_report().to_json();
        let Json::Obj(pairs) = &good else {
            unreachable!()
        };
        let replaced = |section: &str, value: Json| {
            let mut doc = pairs.clone();
            for (k, v) in &mut doc {
                if k == section {
                    *v = Json::Obj(vec![("run".into(), value.clone())]);
                }
            }
            Json::Obj(doc)
        };
        // (section, a malformed `run` entry of that section)
        let cases: [(&str, Json); 3] = [
            (
                "profiles",
                Json::Obj(vec![("walk/token".into(), "lots".into())]),
            ),
            ("recovery", Json::Obj(vec![("spans".into(), 1u64.into())])),
            ("traces", Json::Obj(vec![("rounds".into(), 10u64.into())])),
        ];
        for (section, bad) in cases {
            let missing: Vec<_> = pairs
                .iter()
                .filter(|(k, _)| k != section)
                .cloned()
                .collect();
            assert!(
                validate(&Json::Obj(missing)).is_err(),
                "{section} is required"
            );
            assert!(
                validate(&replaced(section, bad)).is_err(),
                "a malformed {section} entry is caught"
            );
        }
        // Every required trace key is checked on its own.
        for key in SECTIONS[TRACES].required {
            assert!(
                validate(&with_field(&good, "traces", "run", key, None)).is_err(),
                "traces.run.{key} is required"
            );
        }
        // Older and future versions are rejected alike.
        for version in [1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1] {
            let mut other = pairs.clone();
            other[0].1 = Json::Num(version as f64);
            assert!(validate(&Json::Obj(other)).is_err(), "version {version}");
        }
        // A section the current version does not define is rejected, even
        // well-formed: a stale `telemetry` section cannot ride along in a
        // current-version file.
        let mut stale = pairs.clone();
        stale.push((
            "telemetry".into(),
            Json::Obj(vec![(
                "run".into(),
                Json::Obj(vec![("rounds".into(), 10u64.into())]),
            )]),
        ));
        assert!(
            validate(&Json::Obj(stale)).is_err(),
            "an extra telemetry section is rejected"
        );
    }

    #[test]
    fn a_v6_document_is_rejected() {
        // The v6 layout: `timelines` and `telemetry` where v7 on has `traces`.
        let good = sample_report().to_json();
        let Json::Obj(pairs) = &good else {
            unreachable!()
        };
        let mut v6 = Vec::new();
        for (k, v) in pairs {
            match k.as_str() {
                "schema_version" => v6.push((k.clone(), Json::Num(6.0))),
                "traces" => {
                    v6.push(("timelines".into(), v.clone()));
                    v6.push(("telemetry".into(), v.clone()));
                }
                _ => v6.push((k.clone(), v.clone())),
            }
        }
        let err = validate(&Json::Obj(v6.clone())).expect_err("v6 is rejected");
        assert!(err.contains("unknown top-level key timelines"), "{err}");
        // Stamping it current does not make the old sections valid either.
        v6[0].1 = Json::Num(SCHEMA_VERSION as f64);
        assert!(validate(&Json::Obj(v6)).is_err());
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let good = sample_report().to_json();
        let Json::Obj(pairs) = &good else {
            unreachable!()
        };

        // Missing a required key.
        let missing: Vec<_> = pairs
            .iter()
            .filter(|(k, _)| k != "metrics")
            .cloned()
            .collect();
        assert!(validate(&Json::Obj(missing)).is_err());

        // Wrong schema version.
        let mut wrong_version = pairs.clone();
        wrong_version[0].1 = Json::Num(99.0);
        assert!(validate(&Json::Obj(wrong_version)).is_err());

        // Ragged table row.
        let mut ragged = pairs.clone();
        for (k, v) in &mut ragged {
            if k == "tables" {
                *v = Json::Arr(vec![Json::Obj(vec![
                    ("title".into(), "t".into()),
                    ("columns".into(), Json::Arr(vec!["a".into(), "b".into()])),
                    (
                        "rows".into(),
                        Json::Arr(vec![Json::Arr(vec!["only-one".into()])]),
                    ),
                ])]);
            }
        }
        assert!(validate(&Json::Obj(ragged)).is_err());

        // Non-numeric metric field.
        let mut bad_metric = pairs.clone();
        for (k, v) in &mut bad_metric {
            if k == "metrics" {
                *v = Json::Obj(vec![(
                    "m".into(),
                    Json::Obj(vec![("rounds".into(), "ten".into())]),
                )]);
            }
        }
        assert!(validate(&Json::Obj(bad_metric)).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let tricky = Json::Obj(vec![(
            "k\"ey\\".into(),
            Json::Str("line1\nline2\tβ → done \u{1}".into()),
        )]);
        let text = tricky.render();
        assert_eq!(parse(&text).expect("parses"), tricky);

        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01a").is_err());
        assert_eq!(
            parse(" [1, -2.5e3] ").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0)])
        );
    }

    #[test]
    fn numbers_encode_integers_exactly() {
        assert_eq!(Json::Num(5.0).render(), "5\n");
        assert_eq!(Json::Num(2.5).render(), "2.5\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }
}
