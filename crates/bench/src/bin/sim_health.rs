//! Execution-health analysis of the scaling-tier workload (E18b): run work
//! totals and gauge distributions, folded from the round trace.
//!
//! For every scaling-tier instance the run executes with the trace on and
//! prints the nodes stepped and messages staged over the run (the sums of
//! the `active_nodes` and `staged_sends` gauges), the gauge high-water
//! marks (`RunTrace::high_water`), and the wake-queue / staged-send /
//! active-set depth distributions over the trace's per-round records.
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
//! under a tight round cap, dumps the aborted run's trace tail with
//! [`dump_flight`] to `flightrec_sim_health_forced.json`, parses it back
//! and checks that the window ends at the final executed round.
//!
//! [`CongestError`]: amt_core::congest::CongestError

use amt_bench::report::{parse, Json};
use amt_bench::scale::{scale_fleet, scaling_instances};
use amt_bench::Report;
use amt_core::congest::{
    dump_flight, Distribution, Metrics, Observe, Observed, RoundSample, RunConfig, Simulator,
    TraceConfig, FLIGHT_ROUNDS,
};
use amt_core::prelude::*;

const SEED: u64 = 77;

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

        let (m, digests, observed) = run(
            g,
            Observe {
                trace: Some(TraceConfig::default()),
                ..Observe::default()
            },
        );
        let trace = observed.trace.expect("trace on");
        // The observation layers' whole contract: enabling them moves no
        // observable bit.
        assert_eq!(
            (&m, &digests),
            (&ref_metrics, &ref_digests),
            "{name}: observed run drifted from the plain run"
        );
        report.telemetry(name, &trace);

        let samples = &trace.samples;
        let total = |f: fn(&RoundSample) -> u64| samples.iter().map(f).sum::<u64>();
        amt_bench::header(&["rounds", "nodes_stepped", "msgs_staged", "arena_bytes_hwm"]);
        amt_bench::row(&[
            trace.reconstruct_metrics().rounds.to_string(),
            total(|s| s.active_nodes).to_string(),
            total(|s| s.staged_sends).to_string(),
            trace.high_water().arena_bytes.to_string(),
        ]);
        println!(
            "  wake queue   {}\n  staged sends {}\n  active nodes {}\n",
            fmt_dist(samples, |s| s.wake_queue),
            fmt_dist(samples, |s| s.staged_sends),
            fmt_dist(samples, |s| s.active_nodes)
        );
    }
    report.finish();
    println!("traced observables matched the plain reference on every instance");
}

/// Drives the workload into `RoundLimitExceeded` under a tight round cap,
/// dumps the aborted run's trace tail and parses it back: the window must
/// hold every executed round (the run is shorter than [`FLIGHT_ROUNDS`])
/// and end at the final one.
fn force_failure() {
    const CAP: u64 = 12;
    let g = amt_bench::expander(512, 6, 1);
    let run_id = "sim_health_forced";
    let mut sim = Simulator::new(&g, scale_fleet(g.len()), SEED)
        .expect("fleet size matches")
        .with_observe(Observe {
            trace: Some(TraceConfig::default()),
            ..Observe::default()
        });
    let err = sim
        .run(&RunConfig {
            max_rounds: CAP,
            ..RunConfig::all_done()
        })
        .expect_err("the beacon schedule cannot finish in 12 rounds");
    println!("run failed as intended: {err}");
    let trace = sim
        .take_observed()
        .trace
        .expect("the trace survives the abort");
    assert_eq!(
        trace.reconstruct_metrics().rounds,
        CAP,
        "every capped round must be recorded"
    );
    let path = dump_flight(
        &trace,
        run_id,
        &err.to_string(),
        sim.fault_events(),
        sim.churn_events(),
    )
    .unwrap_or_else(|e| panic!("flight dump could not be written: {e}"));

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
    let window = (CAP as usize + 1).min(FLIGHT_ROUNDS);
    assert_eq!(frames.len(), window, "the dump keeps the trace's tail");
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
        (CAP + 1 - window as u64, CAP),
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
    println!(
        "flight dump parsed back clean: {window} of {} executed rounds retained",
        CAP + 1
    );
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
