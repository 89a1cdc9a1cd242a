//! Execution-health analysis of the scaling-tier workload (E18): per-shard
//! straggler attribution, gauge distributions, and a shard-wall heatmap,
//! driven by the `amt_congest::telemetry` layer.
//!
//! For every scaling-tier instance × worker count × {contiguous, spectral}
//! placement, the run executes with telemetry history on and prints:
//!
//! * a per-shard table — nodes stepped, messages staged, host wall, and
//!   each shard's share of the total wall — labelled by the placement's
//!   id spans ([`Placement::shard_labels`]);
//! * the whole-run straggler **imbalance factor** (`max / mean` of the
//!   per-shard wall totals) plus the p50/p95/max of the per-round factor;
//! * wake-queue / staged-send / active-set depth distributions;
//! * an ASCII heatmap of shard wall per round (shards × round buckets).
//!
//! Protocol observables must be byte-identical to a telemetry-off run —
//! asserted here against a plain reference run, not just trusted. One
//! configuration per instance also streams NDJSON round records
//! ([`TelemetryConfig::stream_to`]) and reports the line count.
//!
//! The counters of one reference run per instance are written as a
//! schema-v5 `SIM_HEALTH.json` report so CI's `validate_report` covers
//! the telemetry section end-to-end.
//!
//! Flags: `--smoke` shrinks the sweep to the dumbbell instance at 4
//! workers (CI). `--force-failure` instead drives the workload into a
//! [`CongestError`] under a tight round cap, then parses the
//! auto-written `flightrec_*.json` post-mortem back and checks the
//! retained final-K-round window.

use amt_bench::report::{parse, Json};
use amt_bench::scale::{scale_fleet, scaling_instances};
use amt_bench::Report;
use amt_core::congest::{
    Distribution, Metrics, Observe, Placement, RunConfig, RunTelemetry, Simulator, TelemetryConfig,
};
use amt_core::prelude::*;

const SPECTRAL_ITERS: usize = 120;
const SEED: u64 = 77;

fn report_dir() -> String {
    std::env::var("AMT_REPORT_DIR").unwrap_or_else(|_| "experiments_out".into())
}

/// One telemetry-off reference run: the observables every telemetry-on
/// configuration must reproduce byte-for-byte.
fn reference_run(g: &Graph, threads: usize) -> (Metrics, Vec<u64>) {
    let mut sim = Simulator::new(g, scale_fleet(g.len()), SEED).expect("fleet size matches");
    let m = sim
        .run(&RunConfig::all_done().with_threads(threads))
        .expect("scaling workload terminates");
    (m, sim.nodes().iter().map(|p| p.digest).collect())
}

/// One telemetry-on run under an explicit placement.
fn health_run(
    g: &Graph,
    threads: usize,
    placement: Placement,
    cfg: TelemetryConfig,
) -> (Metrics, Vec<u64>, RunTelemetry) {
    let mut sim = Simulator::new(g, scale_fleet(g.len()), SEED)
        .expect("fleet size matches")
        .with_placement(placement)
        .with_observe(Observe {
            telemetry: Some(cfg),
            ..Observe::default()
        });
    let m = sim
        .run(&RunConfig::all_done().with_threads(threads))
        .expect("scaling workload terminates");
    let digests = sim.nodes().iter().map(|p| p.digest).collect();
    let t = sim.take_observed().telemetry.expect("telemetry on");
    (m, digests, t)
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e6)
}

fn fmt_dist(d: Option<Distribution>) -> String {
    match d {
        Some(d) => format!("p50 {} / p95 {} / max {}", d.p50, d.p95, d.max),
        None => "(no history)".to_string(),
    }
}

/// Per-shard attribution table for one run.
fn shard_table(labels: &[String], t: &RunTelemetry) {
    let total_wall: u64 = t.shard_wall_nanos.iter().sum();
    amt_bench::header(&["shard", "nodes_stepped", "msgs_staged", "wall_ms", "wall_%"]);
    for s in 0..t.shards {
        let wall = t.shard_wall_nanos[s];
        let share = if total_wall == 0 {
            0.0
        } else {
            100.0 * wall as f64 / total_wall as f64
        };
        amt_bench::row(&[
            labels.get(s).cloned().unwrap_or_else(|| format!("s{s}")),
            t.shard_nodes_stepped[s].to_string(),
            t.shard_messages_staged[s].to_string(),
            fmt_ms(wall),
            format!("{share:.1}"),
        ]);
    }
}

/// ASCII heatmap of per-shard wall over the run: one row per shard, rounds
/// bucketed to at most `cols` columns, intensity normalized to the hottest
/// (shard, bucket) cell.
fn wall_heatmap(t: &RunTelemetry, cols: usize) {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let rounds = t.history.len();
    if rounds == 0 || t.shards == 0 {
        println!("  (no history recorded)");
        return;
    }
    let bucket = rounds.div_ceil(cols);
    let ncols = rounds.div_ceil(bucket);
    // cell[s][c] = max wall of shard s over the c-th round bucket.
    let mut cell = vec![vec![0u64; ncols]; t.shards];
    for (r, h) in t.history.iter().enumerate() {
        for s in &h.shards {
            let row = &mut cell[s.shard as usize][r / bucket];
            *row = (*row).max(s.wall_nanos);
        }
    }
    let hottest = cell.iter().flatten().copied().max().unwrap_or(0).max(1);
    println!(
        "  shard wall heatmap ({rounds} rounds x {} shards, {bucket} round(s)/col, '@' = {} ms)",
        t.shards,
        fmt_ms(hottest)
    );
    for (s, row) in cell.iter().enumerate() {
        let line: String = row
            .iter()
            .map(|&w| {
                let idx = (w as u128 * (RAMP.len() - 1) as u128 / hottest as u128) as usize;
                RAMP[idx] as char
            })
            .collect();
        println!("  s{s:<3} |{line}|");
    }
}

/// The main sweep: health analysis over the scaling tier.
fn analyze(smoke: bool) {
    let thread_counts: &[usize] = if smoke { &[4] } else { &[2, 4, 8] };
    let mut instances = scaling_instances();
    if smoke {
        // The dumbbell is the instance with real placement structure —
        // the one whose imbalance story EXPERIMENTS.md is about.
        instances.retain(|(name, _)| *name == "scale_dumbbell_n2048");
    }

    let mut report = Report::new("SIM_HEALTH");
    report.config("smoke", smoke);
    report.config("seed", SEED);

    for (name, g) in &instances {
        println!("\n## {name} (n = {}, m = {})\n", g.len(), g.edge_count());
        let (ref_metrics, ref_digests) = reference_run(g, thread_counts[0]);
        report.metrics(name, &ref_metrics);
        let mut reference_recorded = false;

        for &threads in thread_counts {
            for kind in ["contiguous", "spectral"] {
                let placement = match kind {
                    "contiguous" => Placement::contiguous(g.len(), threads),
                    _ => Placement::spectral(g, threads, SPECTRAL_ITERS),
                };
                let labels = placement.shard_labels();
                let run_id = format!("{name}_t{threads}_{kind}");
                let mut cfg = TelemetryConfig::default().with_run_id(&run_id);
                // One streamed configuration per instance is enough to
                // exercise the NDJSON path end-to-end.
                let stream_path =
                    (threads == thread_counts[0] && kind == "contiguous").then(|| {
                        std::path::PathBuf::from(report_dir()).join(format!("{run_id}.ndjson"))
                    });
                if let Some(p) = &stream_path {
                    cfg = cfg.stream_to(p.clone());
                }
                let (m, digests, t) = health_run(g, threads, placement, cfg);
                // The telemetry layer's whole contract: enabling it moves
                // no observable bit.
                assert_eq!(
                    (&m, &digests),
                    (&ref_metrics, &ref_digests),
                    "{run_id}: telemetry-on observables drifted from the plain run"
                );
                if !reference_recorded {
                    report.telemetry(name, &t);
                    reference_recorded = true;
                }

                println!("### {run_id}\n");
                shard_table(&labels, &t);
                println!(
                    "  run imbalance {:.3} (max/mean shard wall); per-round x1000: {}",
                    t.imbalance(),
                    fmt_dist(t.round_imbalance_milli_distribution())
                );
                println!(
                    "  wake queue   {}\n  staged sends {}\n  active nodes {}",
                    fmt_dist(t.wake_queue_distribution()),
                    fmt_dist(t.staged_distribution()),
                    fmt_dist(t.active_distribution())
                );
                wall_heatmap(&t, 64);
                if let Some(p) = &stream_path {
                    let lines = std::fs::read_to_string(p)
                        .map(|s| s.lines().count())
                        .unwrap_or(0);
                    assert_eq!(
                        lines as u64,
                        t.rounds + 1,
                        "NDJSON stream must carry one record per executed round"
                    );
                    println!("  streamed {lines} NDJSON records to {}", p.display());
                }
                println!();
            }
        }
    }
    report.finish();
    println!("telemetry-on observables matched the plain reference on every configuration");
}

/// Drives the workload into `RoundLimitExceeded` under a tight round cap,
/// then parses the auto-written flight-recorder dump back and checks the
/// retained window covers the final rounds.
fn force_failure() {
    const CAP: u64 = 12;
    const FLIGHT: usize = 8;
    let g = amt_bench::expander(512, 6, 1);
    let run_id = "sim_health_forced";
    let mut sim = Simulator::new(&g, scale_fleet(g.len()), SEED)
        .expect("fleet size matches")
        .with_observe(Observe {
            telemetry: Some(
                TelemetryConfig::default()
                    .with_run_id(run_id)
                    .with_flight_capacity(FLIGHT),
            ),
            ..Observe::default()
        });
    let err = sim
        .run(&RunConfig {
            max_rounds: CAP,
            ..RunConfig::all_done()
        })
        .expect_err("the beacon schedule cannot finish in 12 rounds");
    println!("run failed as intended: {err}");
    let t = sim
        .take_observed()
        .telemetry
        .expect("telemetry survives the abort");
    assert_eq!(t.rounds, CAP, "every capped round must be recorded");

    let path = std::path::PathBuf::from(report_dir()).join(format!("flightrec_{run_id}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("flight dump missing at {}: {e}", path.display()));
    let doc = parse(&text).expect("flight dump must be valid JSON");
    assert_eq!(doc.get("run_id"), Some(&Json::Str(run_id.into())));
    let reason = match doc.get("reason") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("dump reason must be a string, got {other:?}"),
    };
    let frames = match doc.get("frames") {
        Some(Json::Arr(frames)) => frames,
        other => panic!("dump frames must be an array, got {other:?}"),
    };
    assert_eq!(frames.len(), FLIGHT, "ring keeps exactly the last K rounds");
    let frame_round = |f: &Json| match f.get("sample").and_then(|s| s.get("round")) {
        Some(Json::Num(r)) => *r as u64,
        other => panic!("frame round must be numeric, got {other:?}"),
    };
    let first = frame_round(&frames[0]);
    let last = frame_round(frames.last().expect("non-empty"));
    assert_eq!(
        (first, last),
        (CAP - (FLIGHT as u64 - 1), CAP),
        "retained window must end at the final executed round"
    );

    println!("post-mortem {}: reason `{reason}`", path.display());
    amt_bench::header(&["frame", "round", "active", "staged", "imbalance"]);
    for (i, f) in frames.iter().enumerate() {
        let health = f.get("health").expect("frame health");
        let num = |k: &str| match health.get(k) {
            Some(Json::Num(v)) => *v as u64,
            other => panic!("health.{k} must be numeric, got {other:?}"),
        };
        let imb = match health.get("imbalance") {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(v)) => format!("{v:.4}"),
            other => panic!("health.imbalance missing: {other:?}"),
        };
        amt_bench::row(&[
            i.to_string(),
            frame_round(f).to_string(),
            num("active_nodes").to_string(),
            num("staged_sends").to_string(),
            imb,
        ]);
    }
    println!("flight-recorder dump parsed back clean: last {FLIGHT} of {CAP} rounds retained");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--force-failure") {
        force_failure();
    } else {
        analyze(smoke);
    }
}
