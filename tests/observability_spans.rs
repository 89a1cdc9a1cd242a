//! Span observability: healing Borůvka phase transitions and healing-walk
//! epoch re-issues must surface as `trace_event` spans in `RunTrace`, and
//! a repeat run must record byte-identical spans.

use amt_core::congest::{ChurnPlan, FaultPlan, Observe};
use amt_core::graphs::{generators, NodeId, WeightedGraph};
use amt_core::mst::run_healing_observed;
use amt_core::walks::healing::run_walks_healing_observed;
use amt_core::walks::parallel::degree_proportional_specs;
use amt_core::walks::WalkKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Healing Borůvka: every flooding phase opens with `"mst_phase"` spans
/// carrying a strictly increasing global phase number, a crash-triggered
/// restart adds extra phases, and a repeat run records the identical trace
/// stream.
#[test]
fn mst_phase_spans_cover_every_healing_phase_identically_on_a_repeat_run() {
    let mut rng = StdRng::seed_from_u64(43);
    let g = generators::random_regular(48, 6, &mut rng).unwrap();
    let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
    // Node 0 is the minimum id — the implicit leader of its fragment.
    // Crashing it mid-run forces at least one phase restart.
    let plan = FaultPlan::none().seeded(5).with_crash(NodeId(0), 10);
    let run = || {
        let observe = Observe {
            trace: true,
            ..Observe::default()
        };
        let (out, runs) =
            run_healing_observed(&wg, 9, plan.clone(), ChurnPlan::none(), observe).unwrap();
        (out, runs.traces)
    };
    let (out, traces) = run();
    assert!(out.phase_restarts >= 1, "the crash must restart a phase");
    assert!(!traces.is_empty(), "each phase must contribute a trace");

    // One "mst_phase" span block per phase, numbered 1..=phases, in order.
    let mut phase_of_trace = Vec::new();
    for t in &traces {
        let spans: Vec<_> = t.events.iter().filter(|e| e.label == "mst_phase").collect();
        assert!(!spans.is_empty(), "every phase trace must carry spans");
        let phase = spans[0].value;
        assert!(spans.iter().all(|e| e.value == phase));
        assert!(spans.iter().all(|e| e.round == 0), "spans mark phase start");
        phase_of_trace.push(phase);
    }
    let expected: Vec<u64> = (1..=traces.len() as u64).collect();
    assert_eq!(phase_of_trace, expected, "phase numbers increase by one");

    let (again, traces_again) = run();
    assert_eq!(again.tree_edges, out.tree_edges);
    assert_eq!(again.metrics, out.metrics);
    assert_eq!(traces_again, traces, "span streams must replay identically");
}

/// Healing walks: tokens re-issued after a carrier crash announce
/// themselves with `"walk_epoch_reissue"` spans in their epoch's trace,
/// one per re-issued walk, identically on a repeat run.
#[test]
fn walk_epoch_reissue_spans_name_the_restarted_walks_identically_on_a_repeat_run() {
    let g = generators::hypercube(5);
    let specs = degree_proportional_specs(&g, 1, 15);
    // Crash two token carriers mid-flight so some walks need re-issue.
    let plan = FaultPlan::none()
        .seeded(2)
        .with_crash(NodeId(5), 4)
        .with_crash(NodeId(20), 6);
    let run = || {
        let observe = Observe {
            trace: true,
            profile: true,
            ..Observe::default()
        };
        let (out, runs) = run_walks_healing_observed(
            &g,
            WalkKind::Lazy,
            &specs,
            11,
            plan.clone(),
            ChurnPlan::none(),
            observe,
        )
        .unwrap();
        (out, runs.traces, runs.profile)
    };
    let (out, traces, profile) = run();
    assert_eq!(traces.len(), out.epochs as usize, "one trace per epoch");
    assert!(out.epochs > 1, "the crashes must force a re-issue epoch");
    assert!(out.reissued > 0);

    // Epoch 0 issues walks for the first time — no re-issue spans.
    assert!(!traces[0]
        .events
        .iter()
        .any(|e| e.label == "walk_epoch_reissue"));
    // Later epochs announce each token they restart, and `reissued` counts
    // exactly those: walks whose start crashed are never re-issued.
    let reissue_spans: u64 = traces[1..]
        .iter()
        .map(|t| {
            t.events
                .iter()
                .filter(|e| e.label == "walk_epoch_reissue")
                .count() as u64
        })
        .sum();
    assert!(
        reissue_spans > 0,
        "re-issued walks must be visible as spans"
    );
    assert_eq!(reissue_spans, out.reissued, "one span per re-issued walk");
    // Every span names a real walk that was still owed an endpoint when its
    // epoch started (its endpoint was not recorded by an earlier epoch).
    for t in &traces[1..] {
        for e in t.events.iter().filter(|e| e.label == "walk_epoch_reissue") {
            assert!((e.value as usize) < specs.len(), "span names a walk id");
        }
    }

    // The accumulated profile still sums exactly across epochs.
    let profile = profile.expect("profiling was enabled");
    assert_eq!(profile.total_messages(), out.metrics.messages);
    assert_eq!(profile.total_bits(), out.metrics.bits);

    let (again, traces_again, profile_again) = run();
    assert_eq!(again.endpoints, out.endpoints);
    assert_eq!(again.metrics, out.metrics);
    assert_eq!(traces_again, traces, "span streams must replay identically");
    assert_eq!(profile_again, Some(profile));
}
