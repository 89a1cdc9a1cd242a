//! Regression gate over two `bench_suite` reports.
//!
//! Usage: `bench_compare <baseline.json> <candidate.json> [--skip-wall]
//! [--wall-tolerance PCT] [--wall-floor-ms MS]`
//!
//! Compares every bench the baseline recorded:
//!
//! * **exact** — all `metrics.<bench>` counters (rounds, messages, bits,
//!   max edge congestion, fault counters), all
//!   `profiles.<bench>.<class>` per-class totals, all
//!   `recovery.<bench>` reconvergence statistics (span counts,
//!   time-to-reconverge percentiles), and all `telemetry.<bench>`
//!   execution-health counters (work totals and gauge high-water marks
//!   folded from the run's trace; logical values only) must be identical:
//!   the simulator is deterministic, so *any* drift is a behavior change;
//! * **wall-clock** — `phase_timings.wall.<bench>` may regress by at most
//!   the tolerance (default 25%), **and** a regression only counts when
//!   the absolute slowdown reaches the floor (default 5 ms): relative
//!   tolerances are meaningless on sub-millisecond tiers, where scheduler
//!   noise alone exceeds 25%;
//! * **throughput** — `phase_timings.throughput.<bench>` (messages/sec)
//!   may drop by at most the same tolerance, gated only for benches whose
//!   baseline wall-clock is at least the floor (throughput measured over
//!   a sub-floor wall is noise).
//!
//! `--skip-wall` disables both timing-derived checks for cross-machine
//! comparisons (CI compares a committed baseline produced on different
//! hardware, where wall-clock and throughput are not meaningful).
//!
//! Exits nonzero on the first report that cannot be read and after listing
//! every drifted value; prints `ok` per bench otherwise. Benches only
//! present in the candidate are reported informationally and do not fail
//! the gate (the next baseline refresh picks them up).

use amt_bench::report::{parse, validate, Json};
use std::process::ExitCode;

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

/// Gate options, parsed from the CLI (defaults in [`Default`]).
struct Opts {
    skip_wall: bool,
    /// Relative tolerance, percent, for wall-clock and throughput.
    tolerance: f64,
    /// Absolute wall floor in nanoseconds: wall regressions smaller than
    /// this are ignored, and throughput is only gated for benches whose
    /// baseline wall reaches it.
    wall_floor_ns: f64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            skip_wall: false,
            tolerance: 25.0,
            wall_floor_ns: 5e6,
        }
    }
}

/// Runs the whole gate, returning failure messages (empty = pass) and
/// informational notes.
fn gate(baseline: &Json, candidate: &Json, opts: &Opts) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut notes = Vec::new();

    // Deterministic counters: exact equality, baseline drives the key set.
    for section in ["metrics", "profiles", "recovery", "telemetry"] {
        let base = scalars(baseline, section);
        let cand = scalars(candidate, section);
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

    if opts.skip_wall {
        notes.push("wall-clock and throughput checks skipped (--skip-wall)".into());
        return (failures, notes);
    }

    let base = scalars(baseline, "phase_timings");
    let cand = scalars(candidate, "phase_timings");

    // Wall-clock: per-bench nanoseconds under phase_timings.wall. A
    // regression must exceed BOTH the relative tolerance and the absolute
    // floor — 25% of a 2 ms tier is scheduler noise, not a signal.
    for (path, want) in base
        .iter()
        .filter(|(p, _)| p.starts_with("phase_timings.wall."))
    {
        let Some(got) = lookup(&cand, path) else {
            failures.push(format!("DRIFT {path}: missing from candidate"));
            continue;
        };
        let limit = want * (1.0 + opts.tolerance / 100.0);
        if got > limit && got - want >= opts.wall_floor_ns {
            failures.push(format!(
                "SLOWER {path}: {:.1}ms -> {:.1}ms (> {}% regression and > {:.0}ms floor)",
                want / 1e6,
                got / 1e6,
                opts.tolerance,
                opts.wall_floor_ns / 1e6
            ));
        }
    }

    // Throughput: per-bench messages/sec under phase_timings.throughput,
    // gated as a lower bound — but only where the baseline wall is long
    // enough (>= floor) for the rate to be a measurement rather than noise.
    for (path, want) in base
        .iter()
        .filter(|(p, _)| p.starts_with("phase_timings.throughput."))
    {
        let bench = &path["phase_timings.throughput.".len()..];
        let base_wall = lookup(&base, &format!("phase_timings.wall.{bench}")).unwrap_or(0.0);
        if base_wall < opts.wall_floor_ns {
            continue;
        }
        let Some(got) = lookup(&cand, path) else {
            failures.push(format!("DRIFT {path}: missing from candidate"));
            continue;
        };
        let limit = want * (1.0 - opts.tolerance / 100.0);
        if got < limit {
            failures.push(format!(
                "SLOWER {path}: {:.0} msg/s -> {:.0} msg/s (> {}% throughput drop)",
                want, got, opts.tolerance
            ));
        }
    }

    (failures, notes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut opts = Opts::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--skip-wall" => opts.skip_wall = true,
            "--wall-tolerance" => match iter.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => opts.tolerance = t,
                _ => {
                    eprintln!("--wall-tolerance needs a non-negative percentage");
                    return ExitCode::FAILURE;
                }
            },
            "--wall-floor-ms" => match iter.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => opts.wall_floor_ns = t * 1e6,
                _ => {
                    eprintln!("--wall-floor-ms needs a non-negative duration in ms");
                    return ExitCode::FAILURE;
                }
            },
            _ => files.push(a.clone()),
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        eprintln!(
            "usage: bench_compare <baseline.json> <candidate.json> [--skip-wall] \
             [--wall-tolerance PCT] [--wall-floor-ms MS]"
        );
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

    let (failures, notes) = gate(&baseline, &candidate, &opts);
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

    fn failures(base: &Json, cand: &Json, opts: &Opts) -> Vec<String> {
        gate(base, cand, opts).0
    }

    #[test]
    fn metric_drift_is_exact() {
        let base = report(10.0, 1e9, 1e6);
        let ok = report(10.0, 1e9, 1e6);
        assert!(failures(&base, &ok, &Opts::default()).is_empty());
        let drift = report(11.0, 1e9, 1e6);
        let f = failures(&base, &drift, &Opts::default());
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
        assert!(failures(&base, &profile_report(10), &Opts::default()).is_empty());
        // The per-class counters sit one level below the bench entry.
        let f = failures(&base, &profile_report(11), &Opts::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].contains("profiles.bench_a.walk/token.messages"),
            "{f:?}"
        );
    }

    #[test]
    fn telemetry_counter_drift_is_exact() {
        let tel_report = |wake_hwm: u64| {
            parse(&format!(
                r#"{{
                    "telemetry": {{
                        "bench_a": {{
                            "rounds": 40,
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
        let base = tel_report(12);
        assert!(failures(&base, &tel_report(12), &Opts::default()).is_empty());
        let f = failures(&base, &tel_report(13), &Opts::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("telemetry.bench_a.wake_queue_hwm"), "{f:?}");
    }

    #[test]
    fn sub_floor_wall_regressions_are_ignored() {
        // 1 ms -> 4 ms is a 300% regression but only 3 ms absolute: below
        // the 5 ms floor, so the old purely-relative gate's flake is gone.
        let base = report(10.0, 1e6, 1e6);
        let cand = report(10.0, 4e6, 1e6);
        assert!(failures(&base, &cand, &Opts::default()).is_empty());
    }

    #[test]
    fn large_wall_regressions_still_fail() {
        // 100 ms -> 200 ms: over tolerance AND over the absolute floor.
        let base = report(10.0, 1e8, 1e6);
        let cand = report(10.0, 2e8, 1e6);
        let f = failures(&base, &cand, &Opts::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("SLOWER phase_timings.wall.bench_a"), "{f:?}");
        // Just inside tolerance passes whatever the absolute delta.
        let cand = report(10.0, 1.2e8, 1e6);
        assert!(failures(&base, &cand, &Opts::default()).is_empty());
    }

    #[test]
    fn floor_is_configurable() {
        let base = report(10.0, 1e6, 1e6);
        let cand = report(10.0, 4e6, 1e6);
        let strict = Opts {
            wall_floor_ns: 1e6,
            ..Opts::default()
        };
        let f = failures(&base, &cand, &strict);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("SLOWER phase_timings.wall"), "{f:?}");
    }

    #[test]
    fn throughput_drops_fail_on_long_benches_only() {
        // Long bench (1 s wall): halved throughput fails the lower bound.
        let base = report(10.0, 1e9, 1_000_000.0);
        let cand = report(10.0, 1e9, 500_000.0);
        let f = failures(&base, &cand, &Opts::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].contains("SLOWER phase_timings.throughput.bench_a"),
            "{f:?}"
        );
        // Within tolerance passes.
        let cand = report(10.0, 1e9, 800_000.0);
        assert!(failures(&base, &cand, &Opts::default()).is_empty());
        // Sub-floor wall (1 ms): the rate is noise, never gated.
        let base = report(10.0, 1e6, 1_000_000.0);
        let cand = report(10.0, 1e6, 1_000.0);
        assert!(failures(&base, &cand, &Opts::default()).is_empty());
    }

    #[test]
    fn skip_wall_skips_both_timing_gates() {
        let base = report(10.0, 1e9, 1_000_000.0);
        let cand = report(10.0, 9e9, 1_000.0);
        let opts = Opts {
            skip_wall: true,
            ..Opts::default()
        };
        assert!(failures(&base, &cand, &opts).is_empty());
        // Determinism drift still fails even with --skip-wall.
        let drifted = report(11.0, 1e9, 1_000_000.0);
        assert_eq!(failures(&base, &drifted, &opts).len(), 1);
    }

    #[test]
    fn missing_benches_fail_and_new_benches_are_notes() {
        let base = report(10.0, 1e9, 1e6);
        let empty = parse(r#"{ "metrics": {} }"#).unwrap();
        let f = failures(&base, &empty, &Opts::default());
        // rounds + wall + throughput all missing.
        assert_eq!(f.len(), 3, "{f:?}");
        // New candidate-only benches are informational, not failures.
        let (f, notes) = gate(&empty, &base, &Opts::default());
        assert!(f.is_empty(), "{f:?}");
        assert!(notes.iter().any(|n| n.contains("new in the candidate")));
    }
}
