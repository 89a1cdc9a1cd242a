//! Execution-health analysis of the scaling-tier workload (E18b): run work
//! totals and gauge distributions, driven by the `amt_congest::telemetry`
//! layer and the round trace.
//!
//! For every scaling-tier instance the run executes with telemetry and the
//! trace on and prints the nodes stepped and messages staged over the run,
//! the gauge high-water marks, and the wake-queue / staged-send / active-set
//! depth distributions over the trace's per-round records. The run also
//! streams NDJSON round records ([`TelemetryConfig::stream_to`]) and checks
//! that each line parses to the record of the matching traced round.
//!
//! Protocol observables must be byte-identical to an unobserved run —
//! asserted here against a plain reference run, not just trusted.
//!
//! The counters of every instance are written as a schema-v6
//! `SIM_HEALTH.json` report so CI's `validate_report` covers the telemetry
//! section end-to-end.
//!
//! Flags: `--smoke` shrinks the sweep to the dumbbell instance (CI).
//! `--force-failure` instead drives the workload into a [`CongestError`]
//! under a tight round cap, then parses the auto-written
//! `flightrec_*.json` post-mortem back and checks the retained
//! final-K-round window.

use amt_bench::report::{parse, Json};
use amt_bench::scale::{scale_fleet, scaling_instances};
use amt_bench::Report;
use amt_core::congest::{
    Distribution, Metrics, Observe, Observed, RoundSample, RunConfig, Simulator, TelemetryConfig,
    TraceConfig,
};
use amt_core::prelude::*;

const SEED: u64 = 77;

fn report_dir() -> String {
    std::env::var("AMT_REPORT_DIR").unwrap_or_else(|_| "experiments_out".into())
}

/// One run of the scaling workload, with the given observation layers:
/// metrics, per-node digests, and what the layers recorded.
fn run(g: &Graph, observe: Observe) -> (Metrics, Vec<u64>, Observed) {
    let mut sim = Simulator::new(g, scale_fleet(g.len()), SEED)
        .expect("fleet size matches")
        .with_observe(observe);
    let m = sim
        .run(&RunConfig::all_done())
        .expect("scaling workload terminates");
    let digests = sim.nodes().iter().map(|p| p.digest).collect();
    (m, digests, sim.take_observed())
}

/// Order statistics of one field over the traced rounds.
fn fmt_dist(samples: &[RoundSample], field: impl Fn(&RoundSample) -> u64) -> String {
    let d = Distribution::of(samples.iter().map(field));
    format!("p50 {} / p95 {} / max {}", d.p50, d.p95, d.max)
}

/// The main sweep: health analysis over the scaling tier.
fn analyze(smoke: bool) {
    let mut instances = scaling_instances();
    if smoke {
        // The dumbbell, with its sparse bridge cut, is the smoke instance.
        instances.retain(|(name, _)| *name == "scale_dumbbell_n2048");
    }

    let mut report = Report::new("SIM_HEALTH");
    report.config("smoke", smoke);
    report.config("seed", SEED);

    for (name, g) in &instances {
        println!("\n## {name} (n = {}, m = {})\n", g.len(), g.edge_count());
        let (ref_metrics, ref_digests, _) = run(g, Observe::default());
        report.metrics(name, &ref_metrics);

        let stream_path = std::path::PathBuf::from(report_dir()).join(format!("{name}.ndjson"));
        let cfg = TelemetryConfig::default()
            .with_run_id(*name)
            .stream_to(stream_path.clone());
        let (m, digests, observed) = run(
            g,
            Observe {
                telemetry: Some(cfg),
                trace: Some(TraceConfig::default()),
                ..Observe::default()
            },
        );
        let t = observed.telemetry.expect("telemetry on");
        let samples = observed.trace.expect("trace on").samples;
        // The observation layers' whole contract: enabling them moves no
        // observable bit.
        assert_eq!(
            (&m, &digests),
            (&ref_metrics, &ref_digests),
            "{name}: observed run drifted from the plain run"
        );
        report.telemetry(name, &t);

        amt_bench::header(&["rounds", "nodes_stepped", "msgs_staged", "arena_bytes_hwm"]);
        amt_bench::row(&[
            t.rounds.to_string(),
            t.nodes_stepped.to_string(),
            t.messages_staged.to_string(),
            t.hwm.arena_bytes.to_string(),
        ]);
        println!(
            "  wake queue   {}\n  staged sends {}\n  active nodes {}",
            fmt_dist(&samples, |s| s.wake_queue),
            fmt_dist(&samples, |s| s.staged_sends),
            fmt_dist(&samples, |s| s.active_nodes)
        );
        let stream = std::fs::read_to_string(&stream_path).unwrap_or_default();
        let lines = stream.lines().count();
        assert_eq!(
            lines as u64,
            t.rounds + 1,
            "NDJSON stream must carry one record per executed round"
        );
        for (line, sample) in stream.lines().zip(&samples) {
            let record = parse(line).expect("NDJSON line must be valid JSON");
            assert_eq!(
                record.get("round"),
                Some(&Json::Num(sample.round as f64)),
                "NDJSON line out of step with the trace"
            );
        }
        println!(
            "  streamed {lines} NDJSON records to {}\n",
            stream_path.display()
        );
    }
    report.finish();
    println!("telemetry-on observables matched the plain reference on every instance");
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
    // Each frame is one flat round record: deltas and gauges side by side.
    assert!(
        frames
            .iter()
            .all(|f| f.get("messages").is_some() && f.get("arena_bytes").is_some()),
        "every frame must carry a delta (messages) and a gauge (arena_bytes)"
    );
    let num = |f: &Json, k: &str| match f.get(k) {
        Some(Json::Num(v)) => *v as u64,
        other => panic!("frame {k} must be numeric, got {other:?}"),
    };
    let first = num(&frames[0], "round");
    let last = num(frames.last().expect("non-empty"), "round");
    assert_eq!(
        (first, last),
        (CAP - (FLIGHT as u64 - 1), CAP),
        "retained window must end at the final executed round"
    );

    println!("post-mortem {}: reason `{reason}`", path.display());
    amt_bench::header(&["frame", "round", "active", "staged"]);
    for (i, f) in frames.iter().enumerate() {
        amt_bench::row(&[
            i.to_string(),
            num(f, "round").to_string(),
            num(f, "active_nodes").to_string(),
            num(f, "staged_sends").to_string(),
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
