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
//! Every instance's table and trace fold are written to the
//! `SIM_HEALTH.json` report, so CI's `validate_report` covers the `traces`
//! section end-to-end.
//!
//! Flags: `--smoke` shrinks the sweep to the dumbbell instance (CI).
//! `--force-failure` instead drives the workload into a [`CongestError`]
//! under a tight round cap and writes the aborted run's post-mortem as the
//! report `flightrec_sim_health_forced.json` ([`post_mortem`]), then reads
//! it back, validates it and checks that its frames are every executed
//! round, ending at the final one.
//!
//! [`CongestError`]: amt_core::congest::CongestError

use amt_bench::report::{parse, validate, Json};
use amt_bench::scale::{scale_fleet, scaling_instances};
use amt_bench::Report;
use amt_core::congest::{
    ChurnEvent, Distribution, FaultEvent, Metrics, Observe, Observed, RoundSample, RunConfig,
    RunTrace, Simulator,
};
use amt_core::prelude::*;

const SEED: u64 = 77;

/// Rounds a post-mortem keeps: the last `POST_MORTEM_ROUNDS` samples of
/// the trace.
const POST_MORTEM_ROUNDS: usize = 64;

/// The columns of a post-mortem's `frames` table: the fields of
/// [`RoundSample`], in declaration order.
const FRAME_COLUMNS: [&str; 16] = [
    "round",
    "messages",
    "bits",
    "dropped",
    "corrupted",
    "delayed",
    "lost_to_crash",
    "crashed",
    "lost_to_churn",
    "restarts",
    "nodes_down",
    "active_nodes",
    "inbox_queued",
    "staged_sends",
    "wake_queue",
    "arena_bytes",
];

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
                trace: true,
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
        report.trace(name, &trace);

        let samples = &trace.samples;
        let total = |f: fn(&RoundSample) -> u64| samples.iter().map(f).sum::<u64>();
        report.section(name);
        report.header(&["rounds", "nodes_stepped", "msgs_staged", "arena_bytes_hwm"]);
        report.row(&[
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

/// The post-mortem of run `run_id` as the report `flightrec_<run_id>`:
/// the failure `reason` (`config.reason`), the trace's last
/// [`POST_MORTEM_ROUNDS`] samples as the `frames` table (oldest first), the
/// fault and churn events inside that round window as the `fault_events`
/// and `churn_events` tables, and the run's trace fold in `traces`. The
/// tables are printed as they are recorded.
fn post_mortem(
    run_id: &str,
    reason: &str,
    trace: &RunTrace,
    fault_events: &[FaultEvent],
    churn_events: &[ChurnEvent],
) -> Report {
    let mut report = Report::new(&format!("flightrec_{run_id}"));
    report.config("reason", reason);
    let frames = &trace.samples[trace.samples.len().saturating_sub(POST_MORTEM_ROUNDS)..];
    let oldest = frames.first().map_or(0, |s| s.round);

    println!("\n## frames\n");
    report.section("frames");
    report.header(&FRAME_COLUMNS);
    for s in frames {
        let cells = [
            s.round,
            s.messages,
            s.bits,
            s.dropped,
            s.corrupted,
            s.delayed,
            s.lost_to_crash,
            s.crashed,
            s.lost_to_churn,
            s.restarts,
            s.nodes_down,
            s.active_nodes,
            s.inbox_queued,
            s.staged_sends,
            s.wake_queue,
            s.arena_bytes,
        ];
        report.row(&cells.map(|v| v.to_string()));
    }

    println!("\n## fault_events\n");
    report.section("fault_events");
    report.header(&["round", "node", "port", "kind"]);
    for e in fault_events.iter().filter(|e| e.round >= oldest) {
        report.row(&[
            e.round.to_string(),
            e.node.0.to_string(),
            e.port.to_string(),
            format!("{:?}", e.kind),
        ]);
    }

    println!("\n## churn_events\n");
    report.section("churn_events");
    report.header(&["round", "kind"]);
    for e in churn_events.iter().filter(|e| e.round >= oldest) {
        report.row(&[e.round.to_string(), format!("{:?}", e.kind)]);
    }

    report.trace(run_id, trace);
    report
}

/// Column `col` of the table titled `title` in a parsed report.
fn column(doc: &Json, title: &str, col: usize) -> Vec<String> {
    let Some(Json::Arr(tables)) = doc.get("tables") else {
        panic!("a report carries tables");
    };
    let table = tables
        .iter()
        .find(|t| t.get("title") == Some(&Json::Str(title.into())))
        .unwrap_or_else(|| panic!("no {title} table"));
    let Some(Json::Arr(rows)) = table.get("rows") else {
        panic!("{title} has rows");
    };
    rows.iter()
        .map(|r| match r {
            Json::Arr(cells) => match &cells[col] {
                Json::Str(cell) => cell.clone(),
                other => panic!("{title} cell {other:?}"),
            },
            other => panic!("{title} row {other:?}"),
        })
        .collect()
}

/// The rounds of a post-mortem's `frames` table.
fn frame_rounds(doc: &Json) -> Vec<u64> {
    column(doc, "frames", 0)
        .iter()
        .map(|r| r.parse().expect("a round number"))
        .collect()
}

/// Drives the workload into `RoundLimitExceeded` under a tight round cap,
/// writes the aborted run's post-mortem report and reads it back: it must
/// be schema-valid, and its frames must be every executed round (the run
/// is shorter than [`POST_MORTEM_ROUNDS`]), ending at the final one.
fn force_failure() {
    const CAP: u64 = 12;
    let g = amt_bench::expander(512, 6, 1);
    let mut sim = Simulator::new(&g, scale_fleet(g.len()), SEED)
        .expect("fleet size matches")
        .with_observe(Observe {
            trace: true,
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
    let path = post_mortem(
        "sim_health_forced",
        &err.to_string(),
        &trace,
        sim.fault_events(),
        sim.churn_events(),
    )
    .finish();

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("post-mortem missing at {}: {e}", path.display()));
    let doc = parse(&text).expect("the post-mortem must parse");
    validate(&doc).expect("the post-mortem must be a schema-valid report");
    assert_eq!(
        frame_rounds(&doc),
        (0..=CAP).collect::<Vec<_>>(),
        "the frames must be every executed round, ending at the final one"
    );
    println!("post-mortem parsed back clean: frames are rounds 0-{CAP}, every executed round");
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

#[cfg(test)]
mod tests {
    use super::*;
    use amt_core::congest::{ChurnKind, FaultKind};

    fn sample(round: u64) -> RoundSample {
        RoundSample {
            round,
            messages: round,
            active_nodes: 10 + round,
            staged_sends: 7,
            arena_bytes: 120,
            ..RoundSample::default()
        }
    }

    #[test]
    fn post_mortem_keeps_the_trace_tail_and_filters_events() {
        let rounds = POST_MORTEM_ROUNDS as u64 + 6;
        let trace = RunTrace {
            samples: (0..rounds).map(sample).collect(),
            ..RunTrace::default()
        };
        let oldest = rounds - POST_MORTEM_ROUNDS as u64;
        let fault = |round, kind| FaultEvent {
            round,
            node: NodeId(1),
            port: 0,
            kind,
        };
        // One fault and one churn event before the window, one of each
        // inside it.
        let faults = [
            fault(oldest - 1, FaultKind::Dropped),
            fault(oldest, FaultKind::Corrupted { delivered: true }),
        ];
        let churn = [
            ChurnEvent {
                round: 2,
                kind: ChurnKind::NodeDown { node: NodeId(3) },
            },
            ChurnEvent {
                round: rounds - 1,
                kind: ChurnKind::NodeRejoin { node: NodeId(3) },
            },
        ];
        let doc = post_mortem("unit", "CongestError: test", &trace, &faults, &churn).to_json();
        validate(&doc).expect("the post-mortem is a schema-valid report");
        assert_eq!(
            doc.get("experiment"),
            Some(&Json::Str("flightrec_unit".into()))
        );
        assert_eq!(
            doc.get("config").and_then(|c| c.get("reason")),
            Some(&Json::Str("CongestError: test".into()))
        );
        // The frames are the trace's last POST_MORTEM_ROUNDS samples,
        // oldest first, one column per sample field.
        assert_eq!(frame_rounds(&doc), (oldest..rounds).collect::<Vec<_>>());
        let last = sample(rounds - 1);
        assert_eq!(
            column(&doc, "frames", 11).last(),
            Some(&last.active_nodes.to_string())
        );
        // Only the in-window events survive.
        assert_eq!(
            column(&doc, "fault_events", 0),
            [oldest.to_string()],
            "the fault before the window is cut"
        );
        assert_eq!(
            column(&doc, "fault_events", 3),
            ["Corrupted { delivered: true }"]
        );
        assert_eq!(column(&doc, "churn_events", 1), ["NodeRejoin { node: n3 }"]);
        // The traces entry folds the whole trace, not just the window.
        let fold = doc
            .get("traces")
            .and_then(|t| t.get("unit"))
            .expect("the run's trace fold");
        assert_eq!(fold.get("rounds"), Some(&Json::Num((rounds - 1) as f64)));
        assert_eq!(fold.get("samples"), Some(&Json::Num(rounds as f64)));

        // A run shorter than the window keeps every round and every event.
        let short = RunTrace {
            samples: (0..3).map(sample).collect(),
            ..RunTrace::default()
        };
        let doc = post_mortem("unit", "short", &short, &faults, &churn).to_json();
        assert_eq!(frame_rounds(&doc), [0, 1, 2]);
        assert_eq!(column(&doc, "fault_events", 0).len(), 2);
        assert_eq!(column(&doc, "churn_events", 0).len(), 2);
    }
}
