//! Regression gate over two `bench_suite` reports.
//!
//! Usage: `bench_compare <baseline.json> <candidate.json> [--skip-wall]`
//!
//! Compares every bench the baseline recorded:
//!
//! * **exact** — every value of the report's gated sections (the
//!   [`SECTIONS`] marked `gated`: `metrics.<bench>` counters,
//!   `profiles.<bench>.<class>` per-class totals, `recovery.<bench>`
//!   reconvergence statistics and `traces.<bench>` trace folds, logical
//!   values only) must be identical: the simulator is deterministic, so
//!   *any* drift is a behavior change;
//! * **wall-clock** — `phase_timings.wall.<bench>` may regress by at most
//!   25%, **and** a regression only counts when the absolute slowdown
//!   reaches 5 ms: relative tolerances are meaningless on sub-millisecond
//!   tiers, where scheduler noise alone exceeds 25%;
//! * **throughput** — `phase_timings.throughput.<bench>` (messages/sec)
//!   may drop by at most the same 25%, gated only for benches whose
//!   baseline wall-clock is at least 5 ms (throughput measured over a
//!   shorter wall is noise).
//!
//! `--skip-wall` disables both timing-derived checks for cross-machine
//! comparisons (CI compares a committed baseline produced on different
//! hardware, where wall-clock and throughput are not meaningful).
//!
//! Exits nonzero on the first report that cannot be read and after listing
//! every drifted value; prints `ok` per bench otherwise. Benches only
//! present in the candidate are reported informationally and do not fail
//! the gate (the next baseline refresh picks them up).

use amt_bench::report::{parse, validate, Json, PHASE_TIMINGS, SECTIONS};
use std::process::ExitCode;

/// Relative tolerance, percent, for wall-clock and throughput.
const WALL_TOLERANCE_PCT: f64 = 25.0;

/// Absolute wall floor in nanoseconds: wall regressions smaller than this
/// are ignored, and throughput is only gated for benches whose baseline
/// wall reaches it.
const WALL_FLOOR_NS: f64 = 5e6;

/// Flattens `section.<name>.<key>` (and one level deeper for profiles)
/// into `(path, value)` pairs.
fn scalars(doc: &Json, section: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(Json::Obj(entries)) = doc.get(section) else {
        return out;
    };
    for (name, entry) in entries {
        let Json::Obj(fields) = entry else { continue };
        for (k, v) in fields {
            match v {
                Json::Num(x) => out.push((format!("{section}.{name}.{k}"), *x)),
                Json::Obj(inner) => {
                    for (ik, iv) in inner {
                        if let Json::Num(x) = iv {
                            out.push((format!("{section}.{name}.{k}.{ik}"), *x));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

fn lookup(pairs: &[(String, f64)], path: &str) -> Option<f64> {
    pairs.iter().find(|(p, _)| p == path).map(|&(_, v)| v)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    validate(&doc).map_err(|e| format!("{path}: schema violation: {e}"))?;
    Ok(doc)
}

/// Runs the whole gate, returning failure messages (empty = pass) and
/// informational notes. `skip_wall` leaves out the timing checks.
fn gate(baseline: &Json, candidate: &Json, skip_wall: bool) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut notes = Vec::new();

    // Deterministic counters: exact equality, baseline drives the key set.
    for section in SECTIONS.iter().filter(|s| s.gated) {
        let base = scalars(baseline, section.name);
        let cand = scalars(candidate, section.name);
        for (path, want) in &base {
            match lookup(&cand, path) {
                Some(got) if got == *want => {}
                Some(got) => {
                    failures.push(format!("DRIFT {path}: baseline {want}, candidate {got}"))
                }
                None => failures.push(format!("DRIFT {path}: missing from candidate")),
            }
        }
        for (path, _) in &cand {
            if lookup(&base, path).is_none() {
                notes.push(format!("note: {path} is new in the candidate (not gated)"));
            }
        }
    }

    if skip_wall {
        notes.push("wall-clock and throughput checks skipped (--skip-wall)".into());
        return (failures, notes);
    }

    let timings = SECTIONS[PHASE_TIMINGS].name;
    let base = scalars(baseline, timings);
    let cand = scalars(candidate, timings);
    let wall = format!("{timings}.wall.");
    let throughput = format!("{timings}.throughput.");

    // Wall-clock: per-bench nanoseconds under phase_timings.wall. A
    // regression must exceed BOTH the relative tolerance and the absolute
    // floor — 25% of a 2 ms tier is scheduler noise, not a signal.
    for (path, want) in base.iter().filter(|(p, _)| p.starts_with(&wall)) {
        let Some(got) = lookup(&cand, path) else {
            failures.push(format!("DRIFT {path}: missing from candidate"));
            continue;
        };
        let limit = want * (1.0 + WALL_TOLERANCE_PCT / 100.0);
        if got > limit && got - want >= WALL_FLOOR_NS {
            failures.push(format!(
                "SLOWER {path}: {:.1}ms -> {:.1}ms (> {WALL_TOLERANCE_PCT}% regression and > \
                 {:.0}ms floor)",
                want / 1e6,
                got / 1e6,
                WALL_FLOOR_NS / 1e6
            ));
        }
    }

    // Throughput: per-bench messages/sec under phase_timings.throughput,
    // gated as a lower bound — but only where the baseline wall is long
    // enough (>= floor) for the rate to be a measurement rather than noise.
    for (path, want) in base.iter().filter(|(p, _)| p.starts_with(&throughput)) {
        let bench = &path[throughput.len()..];
        let base_wall = lookup(&base, &format!("{wall}{bench}")).unwrap_or(0.0);
        if base_wall < WALL_FLOOR_NS {
            continue;
        }
        let Some(got) = lookup(&cand, path) else {
            failures.push(format!("DRIFT {path}: missing from candidate"));
            continue;
        };
        let limit = want * (1.0 - WALL_TOLERANCE_PCT / 100.0);
        if got < limit {
            failures.push(format!(
                "SLOWER {path}: {want:.0} msg/s -> {got:.0} msg/s (> {WALL_TOLERANCE_PCT}% \
                 throughput drop)"
            ));
        }
    }

    (failures, notes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let skip_wall = args.iter().any(|a| a == "--skip-wall");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--skip-wall").collect();
    let [baseline_path, candidate_path] = files.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <candidate.json> [--skip-wall]");
        return ExitCode::FAILURE;
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("{e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    let (failures, notes) = gate(&baseline, &candidate, skip_wall);
    for n in &notes {
        println!("{n}");
    }
    for f in &failures {
        eprintln!("{f}");
    }
    if !failures.is_empty() {
        eprintln!("bench_compare: {} regression(s)", failures.len());
        ExitCode::FAILURE
    } else {
        println!(
            "bench_compare: ok ({} vs {})",
            baseline_path, candidate_path
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal synthetic report: one bench with metrics, wall, and
    /// throughput entries.
    fn report(rounds: f64, wall_ns: f64, throughput: f64) -> Json {
        parse(&format!(
            r#"{{
                "metrics": {{ "bench_a": {{ "rounds": {rounds} }} }},
                "phase_timings": {{
                    "wall": {{ "bench_a": {wall_ns} }},
                    "throughput": {{ "bench_a": {throughput} }}
                }}
            }}"#
        ))
        .expect("valid synthetic json")
    }

    fn failures(base: &Json, cand: &Json, skip_wall: bool) -> Vec<String> {
        gate(base, cand, skip_wall).0
    }

    #[test]
    fn the_gated_sections_are_the_reports_counters() {
        let gated: Vec<&str> = SECTIONS
            .iter()
            .filter(|s| s.gated)
            .map(|s| s.name)
            .collect();
        assert_eq!(gated, ["metrics", "profiles", "recovery", "traces"]);
    }

    #[test]
    fn metric_drift_is_exact() {
        let base = report(10.0, 1e9, 1e6);
        let ok = report(10.0, 1e9, 1e6);
        assert!(failures(&base, &ok, false).is_empty());
        let drift = report(11.0, 1e9, 1e6);
        let f = failures(&base, &drift, false);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("metrics.bench_a.rounds"), "{f:?}");
    }

    #[test]
    fn profile_class_drift_is_exact() {
        let profile_report = |walk_msgs: u64| {
            parse(&format!(
                r#"{{
                    "profiles": {{
                        "bench_a": {{
                            "walk/token": {{ "messages": {walk_msgs}, "bits": 100 }},
                            "rel/ack": {{ "messages": 3, "bits": 51 }}
                        }}
                    }}
                }}"#
            ))
            .expect("valid synthetic json")
        };
        let base = profile_report(10);
        assert!(failures(&base, &profile_report(10), false).is_empty());
        // The per-class counters sit one level below the bench entry.
        let f = failures(&base, &profile_report(11), false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].contains("profiles.bench_a.walk/token.messages"),
            "{f:?}"
        );
    }

    #[test]
    fn trace_counter_drift_is_exact() {
        let trace_report = |wake_hwm: u64| {
            parse(&format!(
                r#"{{
                    "traces": {{
                        "bench_a": {{
                            "rounds": 40,
                            "samples": 41,
                            "messages": 9000,
                            "nodes_stepped": 5000,
                            "messages_staged": 9000,
                            "active_nodes_hwm": 256,
                            "inbox_queued_hwm": 700,
                            "staged_sends_hwm": 700,
                            "wake_queue_hwm": {wake_hwm},
                            "arena_bytes_hwm": 33600
                        }}
                    }}
                }}"#
            ))
            .expect("valid synthetic json")
        };
        let base = trace_report(12);
        assert!(failures(&base, &trace_report(12), false).is_empty());
        let f = failures(&base, &trace_report(13), false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("traces.bench_a.wake_queue_hwm"), "{f:?}");
    }

    #[test]
    fn sub_floor_wall_regressions_are_ignored() {
        // 1 ms -> 4 ms is a 300% regression but only 3 ms absolute: below
        // the 5 ms floor, so the old purely-relative gate's flake is gone.
        let base = report(10.0, 1e6, 1e6);
        let cand = report(10.0, 4e6, 1e6);
        assert!(failures(&base, &cand, false).is_empty());
    }

    #[test]
    fn large_wall_regressions_still_fail() {
        // 100 ms -> 200 ms: over tolerance AND over the absolute floor.
        let base = report(10.0, 1e8, 1e6);
        let cand = report(10.0, 2e8, 1e6);
        let f = failures(&base, &cand, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("SLOWER phase_timings.wall.bench_a"), "{f:?}");
        // Just inside tolerance passes whatever the absolute delta.
        let cand = report(10.0, 1.2e8, 1e6);
        assert!(failures(&base, &cand, false).is_empty());
    }

    #[test]
    fn throughput_drops_fail_on_long_benches_only() {
        // Long bench (1 s wall): halved throughput fails the lower bound.
        let base = report(10.0, 1e9, 1_000_000.0);
        let cand = report(10.0, 1e9, 500_000.0);
        let f = failures(&base, &cand, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].contains("SLOWER phase_timings.throughput.bench_a"),
            "{f:?}"
        );
        // Within tolerance passes.
        let cand = report(10.0, 1e9, 800_000.0);
        assert!(failures(&base, &cand, false).is_empty());
        // Sub-floor wall (1 ms): the rate is noise, never gated.
        let base = report(10.0, 1e6, 1_000_000.0);
        let cand = report(10.0, 1e6, 1_000.0);
        assert!(failures(&base, &cand, false).is_empty());
    }

    #[test]
    fn skip_wall_skips_both_timing_gates() {
        let base = report(10.0, 1e9, 1_000_000.0);
        let cand = report(10.0, 9e9, 1_000.0);
        assert!(failures(&base, &cand, true).is_empty());
        // Determinism drift still fails even with --skip-wall.
        let drifted = report(11.0, 1e9, 1_000_000.0);
        assert_eq!(failures(&base, &drifted, true).len(), 1);
    }

    #[test]
    fn missing_benches_fail_and_new_benches_are_notes() {
        let base = report(10.0, 1e9, 1e6);
        let empty = parse(r#"{ "metrics": {} }"#).unwrap();
        let f = failures(&base, &empty, false);
        // rounds + wall + throughput all missing.
        assert_eq!(f.len(), 3, "{f:?}");
        // New candidate-only benches are informational, not failures.
        let (f, notes) = gate(&empty, &base, false);
        assert!(f.is_empty(), "{f:?}");
        assert!(notes.iter().any(|n| n.contains("new in the candidate")));
    }
}
