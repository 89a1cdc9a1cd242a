//! Machine-readable run reports (`experiments_out/<id>.json`).
//!
//! Every experiment binary routes its stdout tables through a [`Report`]:
//! the table printing is byte-identical to the old free-function output,
//! and on [`Report::finish`] everything the run printed — plus recorded
//! config, [`Metrics`], [`PhaseTimings`], and optional [`RunTrace`]
//! timeline summaries — is serialized as schema-versioned JSON under
//! `experiments_out/` (override with `AMT_REPORT_DIR`). CI runs one binary,
//! validates its output with the `validate_report` binary, and uploads the
//! directory as an artifact.
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
///
/// Every section is required: `config`, `tables`, `metrics`,
/// `phase_timings` and `timelines`, plus per-run traffic-class totals
/// (`profiles`, [`Report::profile`]), recovery-SLO summaries of a
/// [`RecoveryTimeline`] (`recovery`, [`Report::recovery`]) and the
/// execution-health counters folded from a [`RunTrace`] (`telemetry`,
/// [`Report::telemetry`]). A timeline that recorded snapshots carries a
/// `final_snapshot_round` that must equal its `rounds`. No other top-level
/// key is allowed.
pub const SCHEMA_VERSION: u64 = 6;

/// Every top-level key of a report, in the order [`Report::finish`] writes
/// them. [`validate`] rejects a document carrying any other key, so a
/// section a schema bump removed cannot linger in a file that claims the
/// new version.
const TOP_LEVEL_KEYS: [&str; 13] = [
    "schema_version",
    "experiment",
    "git_describe",
    "created_unix",
    "wall_seconds",
    "config",
    "tables",
    "metrics",
    "phase_timings",
    "timelines",
    "profiles",
    "recovery",
    "telemetry",
];

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
        .find(|(k, _)| !TOP_LEVEL_KEYS.contains(&k.as_str()))
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
    for section in ["metrics", "phase_timings", "timelines"] {
        let Some(Json::Obj(entries)) = root.get(section) else {
            return Err(format!("{section} must be an object"));
        };
        for (name, entry) in entries {
            let Json::Obj(fields) = entry else {
                return Err(format!("{section}.{name} must be an object"));
            };
            for (k, v) in fields {
                if !matches!(v, Json::Num(_)) {
                    return Err(format!("{section}.{name}.{k} must be a number"));
                }
            }
        }
    }
    // Final-round-snapshot guarantee: a timeline that recorded strided
    // snapshots must say which round closed the series, and it must be
    // the run's final round.
    if let Some(Json::Obj(timelines)) = root.get("timelines") {
        for (name, entry) in timelines {
            let snapshots = match entry.get("snapshots") {
                Some(Json::Num(v)) => *v,
                _ => 0.0,
            };
            if snapshots > 0.0 {
                match (entry.get("final_snapshot_round"), entry.get("rounds")) {
                    (Some(Json::Num(last)), Some(Json::Num(rounds))) if last == rounds => {}
                    (Some(Json::Num(last)), Some(Json::Num(rounds))) => {
                        return Err(format!(
                            "timelines.{name}: final snapshot at round {last} but the run \
                             ended at round {rounds}"
                        ))
                    }
                    _ => {
                        return Err(format!(
                            "timelines.{name}: snapshots recorded but no \
                             final_snapshot_round"
                        ))
                    }
                }
            }
        }
    }
    let Some(Json::Obj(telemetry)) = root.get("telemetry") else {
        return Err("telemetry must be an object".to_string());
    };
    for (name, entry) in telemetry {
        let Json::Obj(fields) = entry else {
            return Err(format!("telemetry.{name} must be an object"));
        };
        for key in [
            "rounds",
            "nodes_stepped",
            "messages_staged",
            "active_nodes_hwm",
            "inbox_queued_hwm",
            "staged_sends_hwm",
            "wake_queue_hwm",
            "arena_bytes_hwm",
        ] {
            match entry.get(key) {
                Some(Json::Num(v)) if *v >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "telemetry.{name}.{key} must be a non-negative number"
                    ))
                }
            }
        }
        for (k, v) in fields {
            if !matches!(v, Json::Num(_)) {
                return Err(format!("telemetry.{name}.{k} must be a number"));
            }
        }
    }
    let Some(Json::Obj(profiles)) = root.get("profiles") else {
        return Err("profiles must be an object".to_string());
    };
    for (name, entry) in profiles {
        let Json::Obj(classes) = entry else {
            return Err(format!("profiles.{name} must be an object"));
        };
        for (class, totals) in classes {
            let Json::Obj(fields) = totals else {
                return Err(format!("profiles.{name}.{class} must be an object"));
            };
            for (k, v) in fields {
                if !matches!(v, Json::Num(_)) {
                    return Err(format!("profiles.{name}.{class}.{k} must be a number"));
                }
            }
        }
    }
    let Some(Json::Obj(recovery)) = root.get("recovery") else {
        return Err("recovery must be an object".to_string());
    };
    for (name, entry) in recovery {
        let Json::Obj(fields) = entry else {
            return Err(format!("recovery.{name} must be an object"));
        };
        for key in ["spans", "open", "ttr_p50", "ttr_p95", "ttr_max"] {
            match entry.get(key) {
                Some(Json::Num(v)) if *v >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "recovery.{name}.{key} must be a non-negative number"
                    ))
                }
            }
        }
        for (k, v) in fields {
            if !matches!(v, Json::Num(_)) {
                return Err(format!("recovery.{name}.{k} must be a number"));
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
///
/// Table output through [`Report::header`] / [`Report::row`] is
/// byte-identical to the old `amt_bench::header` / `amt_bench::row` free
/// functions, so switching a binary over never changes its stdout.
pub struct Report {
    experiment: String,
    started: Instant,
    next_title: Option<String>,
    tables: Vec<Table>,
    config: Vec<(String, Json)>,
    metrics: Vec<(String, Json)>,
    phase_timings: Vec<(String, Json)>,
    timelines: Vec<(String, Json)>,
    profiles: Vec<(String, Json)>,
    recovery: Vec<(String, Json)>,
    telemetry: Vec<(String, Json)>,
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
            metrics: Vec::new(),
            phase_timings: Vec::new(),
            timelines: Vec::new(),
            profiles: Vec::new(),
            recovery: Vec::new(),
            telemetry: Vec::new(),
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

    /// Prints a markdown-style header plus separator (exactly like the
    /// `header` free function) and opens a new table in the report.
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

    /// Prints a markdown-style row (exactly like the `row` free function)
    /// and records it into the table opened by the last [`Report::header`].
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
        self.metrics.push((
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
        self.phase_timings.push((
            name.to_string(),
            Json::Obj(
                t.entries()
                    .iter()
                    .map(|&(label, ns)| (label.to_string(), ns.into()))
                    .collect(),
            ),
        ));
    }

    /// Records a named [`RunTrace`] timeline summary (scalar aggregates of
    /// the per-round samples and event/snapshot stream sizes).
    pub fn timeline(&mut self, name: &str, trace: &RunTrace) {
        let m = trace.reconstruct_metrics();
        let mut fields: Vec<(String, Json)> = vec![
            ("rounds".into(), m.rounds.into()),
            ("samples".into(), trace.samples.len().into()),
            ("events".into(), trace.events.len().into()),
            ("snapshots".into(), trace.snapshots.len().into()),
            ("edge_load_stride".into(), trace.edge_load_stride.into()),
            ("messages".into(), m.messages.into()),
            ("bits".into(), m.bits.into()),
            (
                "peak_messages_per_round".into(),
                m.peak_messages_per_round.into(),
            ),
        ];
        // Schema 5 pins the final-round-snapshot guarantee: when the run
        // recorded any snapshots, the last one must be at the final round,
        // and the validator checks `final_snapshot_round == rounds`.
        if let Some(last) = trace.snapshots.last() {
            fields.push(("final_snapshot_round".into(), last.round.into()));
        }
        self.timelines.push((name.to_string(), Json::Obj(fields)));
    }

    /// Records a named [`TrafficProfile`] as per-class message/bit totals
    /// (the `profiles` section, schema version 2).
    pub fn profile(&mut self, name: &str, p: &TrafficProfile) {
        self.profiles.push((
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
    /// time-to-reconverge percentiles (the `recovery` section, schema
    /// version 3).
    pub fn recovery(&mut self, name: &str, t: &RecoveryTimeline) {
        let ttr = t.time_to_reconverge();
        self.recovery.push((
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

    /// Records the execution-health counters of a named run's trace (the
    /// `telemetry` section, schema version 5): the last round, the work
    /// totals (the sums of `active_nodes` and `staged_sends`) and the gauge
    /// high-water marks ([`RunTrace::high_water`]). Logical counters only —
    /// the gauges are visit-order-invariant, so the regression gate
    /// compares exact integers.
    pub fn telemetry(&mut self, name: &str, trace: &RunTrace) {
        let total = |f: fn(&RoundSample) -> u64| trace.samples.iter().map(f).sum::<u64>();
        let hwm = trace.high_water();
        self.telemetry.push((
            name.to_string(),
            Json::Obj(vec![
                ("rounds".into(), trace.reconstruct_metrics().rounds.into()),
                ("nodes_stepped".into(), total(|s| s.active_nodes).into()),
                ("messages_staged".into(), total(|s| s.staged_sends).into()),
                ("active_nodes_hwm".into(), hwm.active_nodes.into()),
                ("inbox_queued_hwm".into(), hwm.inbox_queued.into()),
                ("staged_sends_hwm".into(), hwm.staged_sends.into()),
                ("wake_queue_hwm".into(), hwm.wake_queue.into()),
                ("arena_bytes_hwm".into(), hwm.arena_bytes.into()),
            ]),
        ));
    }

    fn to_json(&self) -> Json {
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Json::Obj(vec![
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
            ("metrics".into(), Json::Obj(self.metrics.clone())),
            (
                "phase_timings".into(),
                Json::Obj(self.phase_timings.clone()),
            ),
            ("timelines".into(), Json::Obj(self.timelines.clone())),
            ("profiles".into(), Json::Obj(self.profiles.clone())),
            ("recovery".into(), Json::Obj(self.recovery.clone())),
            ("telemetry".into(), Json::Obj(self.telemetry.clone())),
        ])
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
        r.timeline("run", &RunTrace::default());
        let mut traced = RunTrace {
            edge_load_stride: 2,
            ..RunTrace::default()
        };
        traced.samples.push(amt_congest::RoundSample {
            round: 3,
            messages: 5,
            bits: 50,
            ..Default::default()
        });
        traced.snapshots.push(amt_congest::trace::EdgeLoadSnapshot {
            round: 2,
            load: vec![1, 2],
        });
        traced.snapshots.push(amt_congest::trace::EdgeLoadSnapshot {
            round: 3,
            load: vec![2, 3],
        });
        r.timeline("snapshotted", &traced);
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
        r.telemetry("run", &gauge_trace);
        r
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
            keys, TOP_LEVEL_KEYS,
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
        let tel = parsed
            .get("telemetry")
            .and_then(|t| t.get("run"))
            .expect("telemetry section survives the round trip");
        assert_eq!(tel.get("rounds"), Some(&Json::Num(10.0)));
        assert_eq!(tel.get("nodes_stepped"), Some(&Json::Num(64.0)));
        assert_eq!(tel.get("active_nodes_hwm"), Some(&Json::Num(40.0)));
        assert_eq!(tel.get("messages_staged"), Some(&Json::Num(40.0)));
        assert_eq!(tel.get("arena_bytes_hwm"), Some(&Json::Num(4096.0)));
        let snap = parsed
            .get("timelines")
            .and_then(|t| t.get("snapshotted"))
            .expect("snapshotted timeline survives the round trip");
        assert_eq!(snap.get("edge_load_stride"), Some(&Json::Num(2.0)));
        assert_eq!(snap.get("final_snapshot_round"), Some(&Json::Num(3.0)));
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
            (
                "telemetry",
                Json::Obj(vec![("rounds".into(), 10u64.into())]),
            ),
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
        // Older and future versions are rejected alike.
        for version in [1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1] {
            let mut other = pairs.clone();
            other[0].1 = Json::Num(version as f64);
            assert!(validate(&Json::Obj(other)).is_err(), "version {version}");
        }
        // A section the current version does not define is rejected, even
        // well-formed: a stale v5 `shards` section cannot ride along in a
        // current-version file.
        let mut stale = pairs.clone();
        stale.push((
            "shards".into(),
            Json::Obj(vec![(
                "run".into(),
                Json::Obj(vec![("shards".into(), 2u64.into())]),
            )]),
        ));
        assert!(
            validate(&Json::Obj(stale)).is_err(),
            "an extra shards section is rejected"
        );
    }

    #[test]
    fn validator_enforces_final_snapshot_round() {
        let good = sample_report().to_json();
        let Json::Obj(pairs) = &good else {
            unreachable!()
        };

        // A snapshotted timeline whose last snapshot is not the final round
        // violates the final-round-snapshot guarantee and is rejected...
        let mut torn = pairs.clone();
        for (k, v) in &mut torn {
            if k == "timelines" {
                *v = Json::Obj(vec![(
                    "run".into(),
                    Json::Obj(vec![
                        ("rounds".into(), 10u64.into()),
                        ("snapshots".into(), 2u64.into()),
                        ("final_snapshot_round".into(), 8u64.into()),
                    ]),
                )]);
            }
        }
        assert!(validate(&Json::Obj(torn)).is_err());

        // ...as is one that recorded snapshots but never said where the
        // series ended.
        let mut silent = pairs.clone();
        for (k, v) in &mut silent {
            if k == "timelines" {
                *v = Json::Obj(vec![(
                    "run".into(),
                    Json::Obj(vec![
                        ("rounds".into(), 10u64.into()),
                        ("snapshots".into(), 2u64.into()),
                    ]),
                )]);
            }
        }
        assert!(validate(&Json::Obj(silent)).is_err());
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
